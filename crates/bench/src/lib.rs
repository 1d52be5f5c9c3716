//! # jit-bench
//!
//! Benchmark harness support: shared helpers used by the Criterion benches
//! (one `figures` bench with a group per figure of the paper) and by the
//! `run_figures` binary that regenerates all tables/series in one go.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use jit_harness::figures::{run_figure, FigureResult, FigureSpec};

/// Duration scale used by the Criterion benches. The paper runs 5 hours of
/// application time per point (scale 5.0); benches use a small fraction so a
/// full `cargo bench` completes in minutes while preserving the relative
/// JIT/REF behaviour.
pub const BENCH_DURATION_SCALE: f64 = 0.05;

/// Seed shared by all benches so numbers are comparable across runs.
pub const BENCH_SEED: u64 = 20080415;

/// Run one of the paper's figures at the bench scale.
pub fn run_figure_scaled(spec: &FigureSpec) -> FigureResult {
    run_figure(spec, BENCH_DURATION_SCALE, BENCH_SEED)
}

/// Print a measured figure (table form) to stdout — used by benches so the
/// series the paper reports are visible in the bench log.
pub fn print_figure(result: &FigureResult) {
    println!("{}", jit_harness::table_out::render_table(result));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_run_completes_for_the_cheapest_figure() {
        let mut spec = FigureSpec::fig16();
        spec.values = vec![3.0];
        let result = run_figure_scaled(&spec);
        assert_eq!(result.rows.len(), 1);
        print_figure(&result);
    }
}
