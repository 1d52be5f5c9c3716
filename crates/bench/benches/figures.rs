//! Figures 10–17: CPU time and memory of REF and JIT, one criterion group
//! per figure (`fig10_bushy_window` … `fig17_leftdeep_dmax`).
//!
//! For each figure the bench regenerates the full series (scaled down) once
//! and prints the table, so the bench log contains the same rows the paper
//! plots; it then measures wall-clock execution of the figure's *default*
//! swept point under REF and JIT on identical traces.

use criterion::{criterion_group, criterion_main, Criterion};
use jit_bench::{print_figure, run_figure_scaled, BENCH_DURATION_SCALE, BENCH_SEED};
use jit_core::policy::{ExecutionMode, JitPolicy};
use jit_engine::Engine;
use jit_exec::executor::ExecutorConfig;
use jit_harness::figures::{FigureSpec, SweepParameter};
use jit_plan::shapes::TreeShape;
use jit_stream::WorkloadGenerator;

/// The criterion group of a figure, e.g. `fig10_bushy_window`.
fn group_name(spec: &FigureSpec) -> String {
    let family = match spec.base.shape.shape {
        TreeShape::Bushy => "bushy",
        TreeShape::LeftDeep => "leftdeep",
    };
    let parameter = match spec.parameter {
        SweepParameter::WindowMinutes => "window",
        SweepParameter::RatePerSec => "rate",
        SweepParameter::NumSources => "sources",
        SweepParameter::DMax => "dmax",
    };
    format!("{}_{family}_{parameter}", spec.id)
}

fn bench(c: &mut Criterion) {
    for spec in FigureSpec::all() {
        // Print the full (scaled) series once so the figure can be read off
        // the log.
        print_figure(&run_figure_scaled(&spec));

        // Benchmark the default point (the middle of the sweep) under both
        // modes.
        let default_value = spec.values[spec.values.len() / 2];
        let config = spec
            .config_for(default_value)
            .with_duration_scale(BENCH_DURATION_SCALE)
            .with_seed(BENCH_SEED);
        let trace = WorkloadGenerator::generate(&config.workload);
        let mut group = c.benchmark_group(group_name(&spec));
        group.sample_size(10);
        for (label, mode) in [
            ("REF", ExecutionMode::Ref),
            ("JIT", ExecutionMode::Jit(JitPolicy::full())),
        ] {
            let engine = Engine::builder()
                .workload(&config.workload, &config.shape)
                .mode(mode)
                .executor_config(ExecutorConfig {
                    collect_results: false,
                    check_temporal_order: false,
                })
                .build()
                .expect("figure plans build");
            group.bench_function(label, |b| {
                b.iter(|| engine.run_trace(&trace).expect("figure run succeeds"))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
