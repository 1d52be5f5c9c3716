//! Durability bench: disorder-tolerance latency and checkpoint overhead.
//!
//! Two sweeps over the shared-key 3-source clique workload, written to
//! `BENCH_durability.json`:
//!
//! 1. **Latency vs lateness bound.** Disorders the trace with 1–10% late
//!    arrivals (delays up to a fixed bound), replays it through a
//!    [`DisorderPolicy::Bounded`] session at increasing lateness bounds, and
//!    measures the trade-off the bound controls: emission lag in
//!    application time (how long a result waits behind the watermark)
//!    against the late-drop rate (completeness). At a bound at or above the
//!    injected delay the run must be lossless — byte-equal result count to
//!    the in-order baseline.
//!
//! 2. **Checkpoint overhead vs cadence.** Replays the in-order trace while
//!    checkpointing the full session state to disk every K arrivals, for
//!    a range of cadences, and reports bytes written, time spent
//!    serialising, and the wall-clock overhead over a checkpoint-free run —
//!    then restores from the *last* checkpoint file (timing the read plus
//!    restore) and verifies the replayed tail reproduces the uninterrupted
//!    result count.
//!
//! Usage:
//!
//! ```text
//! cargo run -p jit-bench --release --bin bench_durability [-- --quick] [--out PATH]
//! ```
//!
//! The run asserts (exiting non-zero otherwise) that drops shrink to zero
//! once the bound covers the delays, that every checkpoint cadence leaves
//! results identical to the baseline, and that recovery from the last
//! checkpoint is exactly-once.

use jit_durable::DisorderPolicy;
use jit_engine::{Engine, EngineBuilder};
use jit_harness::parallel::parallel_workload;
use jit_plan::shapes::PlanShape;
use jit_stream::arrival::ArrivalEvent;
use jit_stream::{DisorderSpec, WorkloadGenerator};
use jit_types::Duration;
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

/// One (late-fraction, lateness-bound) measurement.
#[derive(Debug, Serialize)]
struct DisorderPoint {
    late_fraction: f64,
    lateness_bound_ms: u64,
    arrivals: usize,
    late_arrivals: u64,
    late_dropped: u64,
    drop_rate: f64,
    reorder_buffer_peak: u64,
    results: u64,
    baseline_results: u64,
    /// Mean application-time lag between a result becoming available and
    /// its timestamp — the price of the reorder stage.
    mean_emission_lag_ms: f64,
    wall_seconds: f64,
}

/// One checkpoint-cadence measurement.
#[derive(Debug, Serialize)]
struct CheckpointPoint {
    every_arrivals: usize,
    checkpoints_taken: u64,
    checkpoint_bytes: u64,
    checkpoint_millis: u64,
    wall_seconds: f64,
    /// Wall-clock cost relative to the checkpoint-free run.
    overhead_ratio: f64,
    /// Wall-clock milliseconds to read the last checkpoint file and
    /// rebuild a live session from it.
    restore_millis: f64,
    results: u64,
    recovered_results: u64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    workload: String,
    quick: bool,
    disorder: Vec<DisorderPoint>,
    checkpoint_free_wall_seconds: f64,
    checkpoints: Vec<CheckpointPoint>,
}

fn ckpt_path(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "jit-bench-durability-{}-{tag}.ckpt",
        std::process::id()
    ));
    path
}

/// In-order baseline: total results and wall time, no polling.
fn run_baseline(builder: &EngineBuilder, events: &[ArrivalEvent]) -> (u64, f64) {
    let mut session = builder.clone().build().unwrap().session().unwrap();
    let start = Instant::now();
    for event in events {
        let _ = session.push_event(event.clone()).unwrap();
    }
    let outcome = session.finish().unwrap();
    (outcome.results_count, start.elapsed().as_secs_f64())
}

fn run_disorder_point(
    builder: &EngineBuilder,
    disordered: &[ArrivalEvent],
    late_fraction: f64,
    bound: Duration,
    baseline_results: u64,
) -> DisorderPoint {
    let bounded = builder.clone().disorder(DisorderPolicy::Bounded(bound));
    let mut session = bounded.build().unwrap().session().unwrap();
    let start = Instant::now();
    // Track when each result surfaces relative to the stream's progress:
    // the virtual arrival frontier is the max event timestamp pushed so far.
    let mut frontier_ms = 0u64;
    let mut lag_sum_ms = 0f64;
    let mut lag_n = 0u64;
    for event in disordered {
        frontier_ms = frontier_ms.max(event.ts.as_millis());
        let _ = session.push_event(event.clone()).unwrap();
        for result in session.poll_results() {
            lag_sum_ms += frontier_ms.saturating_sub(result.ts().as_millis()) as f64;
            lag_n += 1;
        }
    }
    let outcome = session.finish().unwrap();
    let wall_seconds = start.elapsed().as_secs_f64();
    let results = outcome.results_count;
    let snapshot = &outcome.snapshot;
    DisorderPoint {
        late_fraction,
        lateness_bound_ms: bound.as_millis(),
        arrivals: disordered.len(),
        late_arrivals: snapshot.late_arrivals,
        late_dropped: snapshot.late_dropped,
        drop_rate: snapshot.late_dropped as f64 / disordered.len() as f64,
        reorder_buffer_peak: snapshot.reorder_buffer_peak,
        results,
        baseline_results,
        mean_emission_lag_ms: if lag_n > 0 {
            lag_sum_ms / lag_n as f64
        } else {
            0.0
        },
        wall_seconds,
    }
}

fn run_checkpoint_point(
    builder: &EngineBuilder,
    events: &[ArrivalEvent],
    every: usize,
    baseline_wall: f64,
) -> CheckpointPoint {
    let path = ckpt_path(&format!("cadence-{every}"));
    let mut session = builder.clone().build().unwrap().session().unwrap();
    let start = Instant::now();
    let mut checkpoints = 0u64;
    let mut last_cut = 0usize;
    for (i, event) in events.iter().enumerate() {
        let _ = session.push_event(event.clone()).unwrap();
        if (i + 1) % every == 0 {
            session.checkpoint_to(&path).expect("checkpoint writes");
            checkpoints += 1;
            last_cut = i + 1;
        }
    }
    let wall_seconds = start.elapsed().as_secs_f64();
    let snapshot = session.metrics_snapshot();
    let outcome = session.finish().unwrap();

    // Recovery check: restore the last checkpoint, replay the tail, and the
    // total result count must match the uninterrupted run.
    let engine = builder.clone().build().unwrap();
    let restore_start = Instant::now();
    let mut restored = engine
        .restore_file(&path)
        .expect("restore from last checkpoint");
    let restore_millis = restore_start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(restored.pushed() as usize, last_cut, "replay cursor");
    for event in events.iter().skip(last_cut) {
        let _ = restored.push_event(event.clone()).unwrap();
    }
    // `results_count` is cumulative across the checkpoint: pre-crash
    // results (restored with the state) plus the replayed tail.
    let recovered_results = restored.finish().unwrap().results_count;
    std::fs::remove_file(&path).ok();

    CheckpointPoint {
        every_arrivals: every,
        checkpoints_taken: checkpoints,
        checkpoint_bytes: snapshot.checkpoint_bytes,
        checkpoint_millis: snapshot.checkpoint_millis,
        wall_seconds,
        overhead_ratio: wall_seconds / baseline_wall.max(1e-9),
        restore_millis,
        results: outcome.results_count,
        recovered_results,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_durability.json".to_string());

    // Result volume on the clique join grows superlinearly with the
    // horizon; 300 s at 1/s is already ~100k results per run.
    let duration = Duration::from_secs(if quick { 120 } else { 300 });
    let rate = 1.0;
    let spec = parallel_workload(3, 16)
        .with_rate(rate)
        .with_window_minutes(2.0)
        .with_duration(duration)
        .with_seed(808);
    let shape = PlanShape::bushy(3);
    let builder = Engine::builder().workload(&spec, &shape);
    let trace = WorkloadGenerator::generate(&spec);
    let events: Vec<ArrivalEvent> = trace.iter().cloned().collect();
    let (baseline_results, baseline_wall) = run_baseline(&builder, &events);
    println!(
        "baseline: {} arrivals -> {baseline_results} results in {baseline_wall:.3}s",
        events.len()
    );

    let mut failures = Vec::new();

    // Sweep 1: latency vs lateness bound, at 1% / 5% / 10% late arrivals.
    let max_delay = Duration::from_secs(10);
    let bounds_ms: &[u64] = &[1_000, 2_500, 5_000, 10_000];
    let mut disorder_points = Vec::new();
    for (i, &late_fraction) in [0.01, 0.05, 0.10].iter().enumerate() {
        let disordered = DisorderSpec::new(late_fraction, max_delay, 900 + i as u64).apply(&trace);
        for &bound_ms in bounds_ms {
            let point = run_disorder_point(
                &builder,
                &disordered,
                late_fraction,
                Duration::from_millis(bound_ms),
                baseline_results,
            );
            println!(
                "{:>4.0}% late, bound {:>6} ms: drop rate {:.4}, mean lag {:>8.0} ms, \
                 buffer peak {:>4}, {} results",
                late_fraction * 100.0,
                bound_ms,
                point.drop_rate,
                point.mean_emission_lag_ms,
                point.reorder_buffer_peak,
                point.results,
            );
            if bound_ms >= max_delay.as_millis() {
                if point.late_dropped != 0 {
                    failures.push(format!(
                        "{late_fraction} late at covering bound {bound_ms} ms dropped {} tuples",
                        point.late_dropped
                    ));
                }
                if point.results != baseline_results {
                    failures.push(format!(
                        "{late_fraction} late at covering bound {bound_ms} ms: {} results vs \
                         baseline {baseline_results}",
                        point.results
                    ));
                }
            }
            disorder_points.push(point);
        }
        // Tighter bounds must not drop fewer tuples than looser ones.
        let tail = &disorder_points[disorder_points.len() - bounds_ms.len()..];
        if tail
            .windows(2)
            .any(|w| w[0].late_dropped < w[1].late_dropped)
        {
            failures.push(format!(
                "{late_fraction} late: drops did not decrease monotonically with the bound"
            ));
        }
    }

    // Sweep 2: checkpoint overhead vs cadence.
    // Cadences must divide into the trace (921 arrivals at full size) at
    // least once, or there is no checkpoint to recover from.
    let cadences: &[usize] = if quick { &[50, 200] } else { &[100, 300, 900] };
    let mut checkpoint_points = Vec::new();
    for &every in cadences {
        let point = run_checkpoint_point(&builder, &events, every, baseline_wall);
        println!(
            "checkpoint every {:>5}: {:>3} checkpoints, {:>9} B, {:>4} ms serialising, \
             {:.2}x wall overhead, restore {:.1} ms",
            every,
            point.checkpoints_taken,
            point.checkpoint_bytes,
            point.checkpoint_millis,
            point.overhead_ratio,
            point.restore_millis,
        );
        if point.results != baseline_results {
            failures.push(format!(
                "cadence {every}: {} results vs baseline {baseline_results}",
                point.results
            ));
        }
        if point.recovered_results != baseline_results {
            failures.push(format!(
                "cadence {every}: recovery replayed to {} results vs baseline {baseline_results}",
                point.recovered_results
            ));
        }
        if point.checkpoints_taken > 0 && point.checkpoint_bytes == 0 {
            failures.push(format!("cadence {every}: checkpoints wrote no bytes"));
        }
        checkpoint_points.push(point);
    }

    let report = BenchReport {
        workload: format!(
            "3-source shared-key clique, bushy, rate {rate}/s, 2 min windows, \
             {}s horizon, delays up to {}s",
            duration.as_millis() / 1_000,
            max_delay.as_millis() / 1_000,
        ),
        quick,
        disorder: disorder_points,
        checkpoint_free_wall_seconds: baseline_wall,
        checkpoints: checkpoint_points,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&out_path, json).expect("report written");
    println!("wrote {out_path}");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
