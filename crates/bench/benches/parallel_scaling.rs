//! Parallel scaling: wall-clock of the sharded runtime vs shard count.
//!
//! Beyond the paper: the same key-partitionable clique-join workload is
//! executed by the sharded parallel runtime (`jit-runtime`) at shard counts
//! 1, 2, 4 and 8, under both REF and JIT, on identical traces. Shard count 1
//! is the single-core baseline; the ratio against it is the speedup curve.
//! A summary of per-shard load balance is printed once so the scaling
//! numbers can be read in context.

use criterion::{criterion_group, criterion_main, Criterion};
use jit_bench::BENCH_SEED;
use jit_core::policy::{ExecutionMode, JitPolicy};
use jit_engine::Engine;
use jit_exec::executor::ExecutorConfig;
use jit_harness::parallel::parallel_workload;
use jit_plan::shapes::PlanShape;
use jit_runtime::RuntimeConfig;
use jit_stream::WorkloadGenerator;
use jit_types::Duration;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn bench(c: &mut Criterion) {
    // Selective workload: with ~480 tuples per source and 200 distinct keys,
    // each key holds only a couple of tuples per source, so result volume
    // stays small while the probe work still dominates.
    let spec = parallel_workload(4, 200)
        .with_rate(2.0)
        .with_window_minutes(4.0)
        .with_duration(Duration::from_mins(4))
        .with_seed(BENCH_SEED);
    let shape = PlanShape::bushy(4);
    let trace = WorkloadGenerator::generate(&spec);
    let engine = |mode: ExecutionMode, shards: usize| {
        Engine::builder()
            .workload(&spec, &shape)
            .mode(mode)
            .executor_config(ExecutorConfig {
                collect_results: false,
                check_temporal_order: false,
            })
            .sharded(RuntimeConfig::with_shards(shards))
            .build()
            .expect("plan builds")
    };

    // Scaling numbers only mean something relative to the cores actually
    // present: shards beyond the machine's parallelism time-slice one core
    // and cannot speed anything up. Detect and annotate, so a flat curve on
    // a small machine reads as oversubscription rather than a regression.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // One untimed pass per shard count: print load balance and check that
    // every configuration agrees on the result count.
    let reference = engine(ExecutionMode::Ref, 1)
        .run_trace(&trace)
        .expect("run succeeds");
    println!(
        "parallel_scaling: {} arrivals, {} results, {cores} core(s) available",
        trace.len(),
        reference.results_count
    );
    for shards in SHARD_COUNTS {
        let outcome = engine(ExecutionMode::Ref, shards)
            .run_trace(&trace)
            .expect("run succeeds");
        assert_eq!(
            outcome.results_count, reference.results_count,
            "sharding must not change the result count"
        );
        println!(
            "  shards={shards}: max shard load {:.0}% (ideal {:.0}%){}",
            outcome.max_shard_load() * 100.0,
            100.0 / shards as f64,
            if shards > cores {
                " [oversubscribed: shards > cores]"
            } else {
                ""
            }
        );
    }

    let mut group = c.benchmark_group("parallel_scaling");
    group.sample_size(10);
    for (mode_label, mode) in [
        ("REF", ExecutionMode::Ref),
        ("JIT", ExecutionMode::Jit(JitPolicy::full())),
    ] {
        for shards in SHARD_COUNTS {
            let engine = engine(mode, shards);
            group.bench_function(format!("{mode_label}/shards={shards}"), |b| {
                b.iter(|| engine.run_trace(&trace).expect("run succeeds"))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
