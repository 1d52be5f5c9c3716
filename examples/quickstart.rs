//! Quickstart: run the paper's Figure 1 query under REF and JIT and compare.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```
//!
//! The example
//! 1. parses the CQL query of Figure 1a,
//! 2. generates a synthetic workload for its three sources,
//! 3. executes the same trace on two engines built from one builder — the
//!    reference engine (REF) and just-in-time processing (JIT) — and
//! 4. verifies both produce the same results while printing how much work
//!    JIT saved.

use jit_dsms::prelude::*;

fn main() {
    // The continuous query of Figure 1a. The parser gives us the window; the
    // workload below supplies the clique predicates actually used by the
    // evaluation (every pair of sources joined), which is the harder case.
    let query = parse_cql(
        "SELECT * FROM A [RANGE 5 minutes], B [RANGE 5 minutes], C [RANGE 5 minutes] \
         WHERE A.x = B.x AND A.y = C.y",
    )
    .expect("the paper's query parses");
    println!(
        "query window: {:?} minutes",
        query.window().length.as_mins_f64()
    );

    // A three-source clique workload: 1.3 tuples/s/source, values in
    // [1..150] (a selective join — most partial results never find a C
    // partner), 8 minutes of stream time, fixed seed for reproducibility.
    let workload = WorkloadSpec::bushy_default()
        .with_sources(3)
        .with_window_minutes(5.0)
        .with_rate(1.3)
        .with_dmax(150)
        .with_duration(Duration::from_mins(8))
        .with_seed(7);
    let shape = PlanShape::left_deep(3); // (A ⋈ B) ⋈ C, as in Figure 1b

    // One builder, two engines: only the execution mode differs. The same
    // builder could target every core with `.sharded(RuntimeConfig …)`.
    let trace = WorkloadGenerator::generate(&workload);
    let outcomes = Engine::builder()
        .workload(&workload, &shape)
        .compare(
            &trace,
            &[ExecutionMode::Ref, ExecutionMode::Jit(JitPolicy::full())],
        )
        .expect("engine builds");
    let (ref_run, jit_run) = (&outcomes[0], &outcomes[1]);

    println!("\n              {:>14} {:>14}", "REF", "JIT");
    println!(
        "results       {:>14} {:>14}",
        ref_run.results_count, jit_run.results_count
    );
    println!(
        "cost units    {:>14} {:>14}",
        ref_run.snapshot.cost_units, jit_run.snapshot.cost_units
    );
    println!(
        "peak mem (KB) {:>14.1} {:>14.1}",
        ref_run.snapshot.peak_memory_kb(),
        jit_run.snapshot.peak_memory_kb()
    );
    println!(
        "intermediates {:>14} {:>14}",
        ref_run.snapshot.stats.intermediate_produced, jit_run.snapshot.stats.intermediate_produced
    );
    println!(
        "suppressed    {:>14} {:>14}",
        ref_run.snapshot.stats.intermediate_suppressed,
        jit_run.snapshot.stats.intermediate_suppressed
    );
    println!(
        "feedback msgs {:>14} {:>14}",
        ref_run.snapshot.stats.feedback_total(),
        jit_run.snapshot.stats.feedback_total()
    );

    // Correctness guarantee (see README.md, "Known deviations from the
    // paper"): JIT produces a duplicate-free subset of REF's results and
    // never misses a result whose components are all strictly within one
    // window of each other; the only REF-extra results are "frozen
    // composites" whose components have already expired.
    assert!(!output::has_duplicates(&jit_run.results));
    assert!(output::missing_from(&jit_run.results, &ref_run.results).is_empty());
    let in_window = |t: &Tuple| t.ts().saturating_sub(t.min_ts()) < workload.window().length;
    let jit_keys: std::collections::BTreeSet<_> = jit_run.results.iter().map(|t| t.key()).collect();
    let missed = ref_run
        .results
        .iter()
        .filter(|t| in_window(t) && !jit_keys.contains(&t.key()))
        .count();
    assert_eq!(missed, 0, "JIT missed an in-window result");
    println!(
        "\n✓ JIT found every in-window result ({} of REF's {} results; the rest contain expired components)",
        jit_run.results_count, ref_run.results_count
    );
    let ratio = ref_run.snapshot.cost_units as f64 / jit_run.snapshot.cost_units.max(1) as f64;
    println!("✓ REF/JIT CPU cost ratio on this small workload: {ratio:.2}× (the gap grows with window, rate and source count — see EXPERIMENTS.md)");
}
