//! The sharded parallel runtime.
//!
//! [`ShardedRuntime::start`] opens a [`ShardedSession`](crate::ShardedSession)
//! that hash-partitions the join-key space over `N` shards, runs one
//! independent [`Executor`](jit_exec::executor::Executor) per shard on its
//! own OS thread
//! (each with its own instance of the plan, built by a caller-supplied
//! factory), feeds every shard through a *bounded* MPSC channel in batches
//! (a full channel blocks the feeder — backpressure instead of unbounded
//! queueing), and finally merges the per-shard result streams into one
//! globally timestamp-ordered stream while aggregating per-shard metrics
//! into a single [`MetricsSnapshot`].
//!
//! ## Correctness
//!
//! Sharding is transparent exactly when the workload is *key-partitionable*:
//! every pair of tuples that can satisfy the join predicates must be
//! assigned to the same shard. The [`ShardPartitioner`] guarantees this for
//! workloads whose predicates all reduce to equality on the partitioning
//! key (see `jit_stream::WorkloadSpec::shared_key`); under that premise the
//! union of per-shard results equals the single-executor result set.
//! Whenever each shard preserves temporal order at its sink (REF always
//! does), the k-way merge restores the global temporal-order guarantee of
//! Section II; JIT's documented late-re-emission deviation carries through
//! the merge exactly as it does on a single executor.

use crate::config::RuntimeConfig;
use jit_exec::plan::PlanError;
use jit_metrics::MetricsSnapshot;
use jit_stream::ShardPartitioner;
use jit_types::Tuple;
use std::fmt;

/// Why a parallel run failed.
#[derive(Debug)]
pub enum RuntimeError {
    /// Building the plan for a shard failed.
    Plan(PlanError),
    /// A shard worker panicked (the panic message is preserved when it was a
    /// string).
    ShardPanicked {
        /// Index of the failed shard.
        shard: usize,
        /// Panic payload, if it was a string.
        message: String,
    },
    /// A checkpoint did not match this runtime's configuration, or its
    /// per-shard state failed to deserialise.
    Restore(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Plan(e) => write!(f, "plan construction failed: {e}"),
            RuntimeError::ShardPanicked { shard, message } => {
                write!(f, "shard {shard} panicked: {message}")
            }
            RuntimeError::Restore(detail) => {
                write!(f, "restoring a sharded checkpoint failed: {detail}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<PlanError> for RuntimeError {
    fn from(e: PlanError) -> Self {
        RuntimeError::Plan(e)
    }
}

/// What one shard produced.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// The shard index.
    pub shard: usize,
    /// Arrivals this shard ingested.
    pub arrivals: u64,
    /// Results collected at this shard's sink (empty when collection is off).
    pub results: Vec<Tuple>,
    /// Number of results emitted at this shard's sink.
    pub results_count: u64,
    /// Temporal-order violations at this shard's sink.
    pub order_violations: u64,
    /// This shard's metrics.
    pub snapshot: MetricsSnapshot,
}

/// The merged outcome of one parallel run.
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    /// Merged results (empty when collection is disabled in the executor
    /// configuration). Globally timestamp-ordered whenever every shard's
    /// own stream is — always true under REF; single-threaded JIT may
    /// re-emit a suppressed result late (a documented deviation), and the
    /// merge hands that deviation through rather than re-sorting.
    pub results: Vec<Tuple>,
    /// Total results emitted across all shards.
    pub results_count: u64,
    /// Total per-shard sink order violations (0 for a correct run).
    pub order_violations: u64,
    /// Aggregated metrics: counters and cost summed, wall-clock maxed,
    /// memory summed (see `MetricsSnapshot::absorb_parallel`).
    pub snapshot: MetricsSnapshot,
    /// Per-shard outcomes, indexed by shard.
    pub per_shard: Vec<ShardOutcome>,
}

impl ParallelOutcome {
    /// Largest shard's share of all arrivals, in `[0, 1]` — a quick skew
    /// diagnostic (1/N is perfect balance).
    pub fn max_shard_load(&self) -> f64 {
        let total: u64 = self.per_shard.iter().map(|s| s.arrivals).sum();
        if total == 0 {
            return 0.0;
        }
        let max = self.per_shard.iter().map(|s| s.arrivals).max().unwrap_or(0);
        max as f64 / total as f64
    }
}

/// Hash-partitioned multi-core executor of JIT cascades.
#[derive(Debug, Clone)]
pub struct ShardedRuntime {
    config: RuntimeConfig,
    partitioner: ShardPartitioner,
}

impl ShardedRuntime {
    /// A runtime with the given configuration, partitioning on column 0.
    pub fn new(config: RuntimeConfig) -> Self {
        let config = config.normalized();
        let partitioner = ShardPartitioner::new(config.shards);
        ShardedRuntime {
            config,
            partitioner,
        }
    }

    /// Replace the partitioner (e.g. to key on a different column). The
    /// partitioner's shard count must match the configuration.
    ///
    /// # Panics
    /// Panics if the shard counts disagree.
    pub fn with_partitioner(mut self, partitioner: ShardPartitioner) -> Self {
        assert_eq!(
            partitioner.num_shards(),
            self.config.shards,
            "partitioner and runtime must agree on the shard count"
        );
        self.partitioner = partitioner;
        self
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The partitioner in use.
    pub fn partitioner(&self) -> &ShardPartitioner {
        &self.partitioner
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioner_mismatch_panics() {
        let result = std::panic::catch_unwind(|| {
            ShardedRuntime::new(RuntimeConfig::with_shards(2))
                .with_partitioner(ShardPartitioner::new(3))
        });
        assert!(result.is_err());
    }
}
