//! Workloads for the sharded backend.
//!
//! Correctness of sharding requires a *key-partitionable* workload: every
//! join predicate must reduce to key equality so each shard sees every
//! pair of tuples that can join. Run the workload through
//! `jit_engine::Engine` with a `.sharded(...)` backend:
//!
//! ```ignore
//! let outcome = Engine::builder()
//!     .workload(&parallel_workload(4, 200), &PlanShape::bushy(4))
//!     .mode(mode)
//!     .sharded(RuntimeConfig::with_shards(8))
//!     .build()?
//!     .run_trace(&trace)?;
//! ```
//!
//! A workload that is neither shared-key nor statically partitionable is
//! rejected at build time with `jit_engine::EngineError::NotPartitionable`.

use jit_stream::WorkloadSpec;

/// A Table-III-style workload that is safe to shard: shared-key mode on,
/// with a key domain of `dmax`.
pub fn parallel_workload(num_sources: usize, dmax: u64) -> WorkloadSpec {
    WorkloadSpec::bushy_default()
        .with_sources(num_sources)
        .with_dmax(dmax)
        .with_shared_key()
}
