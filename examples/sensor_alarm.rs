//! Sensor-network alarm detection — the motivating scenario of the paper's
//! introduction, as a *batch* comparison of REF, DOE and JIT. (See
//! `examples/live_session.rs` for the same scenario served through the
//! push-based live-session API.)
//!
//! ```text
//! cargo run --example sensor_alarm --release
//! ```
//!
//! Three sensor streams are joined on a shared zone identifier; an alarm
//! fires when readings from the same zone co-occur within the window. Most
//! zones never produce a co-occurrence, which is exactly the high-selectivity
//! regime where JIT shines: partial results for zones with no third reading
//! are never generated.

use jit_dsms::prelude::*;

fn main() {
    // Humidity (A), light (B), temperature (C): each tuple carries the zone
    // ids it correlates with on the two other streams (the clique layout used
    // throughout the paper's evaluation). 400 zones → selective join.
    let workload = WorkloadSpec::bushy_default()
        .with_sources(3)
        .with_window_minutes(10.0)
        .with_rate(1.3)
        .with_dmax(400)
        .with_duration(Duration::from_mins(20))
        .with_seed(2008);
    let shape = PlanShape::left_deep(3);

    println!("Factory monitoring: humidity ⋈ light ⋈ temperature by zone");
    println!(
        "window = {} min, {} readings/s per sensor stream, {} zones\n",
        workload.window_minutes, workload.rate_per_sec, workload.dmax
    );

    let trace = WorkloadGenerator::generate(&workload);
    let outcomes = Engine::builder()
        .workload(&workload, &shape)
        .compare(
            &trace,
            &[
                ExecutionMode::Ref,
                ExecutionMode::Doe,
                ExecutionMode::Jit(JitPolicy::full()),
            ],
        )
        .expect("engine builds");

    println!(
        "{:<6} {:>14} {:>14} {:>12} {:>14} {:>12}",
        "mode", "cost units", "peak mem KB", "alarms", "intermediates", "suppressed"
    );
    for outcome in &outcomes {
        println!(
            "{:<6} {:>14} {:>14.1} {:>12} {:>14} {:>12}",
            outcome.mode_label,
            outcome.snapshot.cost_units,
            outcome.snapshot.peak_memory_kb(),
            outcome.results_count,
            outcome.snapshot.stats.intermediate_produced,
            outcome.snapshot.stats.intermediate_suppressed,
        );
    }

    let ref_run = &outcomes[0];
    let jit_run = &outcomes[2];
    // JIT raises every alarm whose readings are mutually within the window
    // (REF may additionally report stale combinations whose oldest reading
    // has already expired — see README.md, "Known deviations from the
    // paper").
    assert!(!output::has_duplicates(&jit_run.results));
    assert!(output::missing_from(&jit_run.results, &ref_run.results).is_empty());
    println!(
        "\n✓ all fresh alarms raised; JIT avoided {} of {} partial results ({:.0}%)",
        ref_run.snapshot.stats.intermediate_produced - jit_run.snapshot.stats.intermediate_produced,
        ref_run.snapshot.stats.intermediate_produced,
        100.0
            * (ref_run.snapshot.stats.intermediate_produced
                - jit_run.snapshot.stats.intermediate_produced) as f64
            / ref_run.snapshot.stats.intermediate_produced.max(1) as f64
    );
}
