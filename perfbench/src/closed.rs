//! The closed-loop engine workloads: `jit_stateful` and `ref_sharded`.
//! One client thread pushes the next chunk of arrivals as
//! soon as the previous push-then-poll step returns.

use crate::probe::{cpu_seconds, touched, RssWatch};
use crate::reference::{
    check, identify, reference_join, Arrivals, CheckReport, Expected, JoinQuery,
};
use crate::spans::{in_span, timed_call, Tracer};
use crate::stats::{median, quantile};
use crate::{elapsed_ns, median_setup, Layers, Outcome};
use jit_core::policy::{ExecutionMode, JitPolicy};
use jit_engine::{Engine, EngineBuilder, EngineOutcome};
use jit_metrics::MetricsSnapshot;
use jit_plan::shapes::PlanShape;
use jit_runtime::RuntimeConfig;
use jit_stream::arrival::ArrivalEvent;
use jit_stream::{WorkloadGenerator, WorkloadSpec};
use jit_types::{BatchPolicy, Duration as EventDuration, Timestamp};
use std::time::Instant;

/// `jit_stateful` pushes this many timed arrivals per `--seconds`, a fixed
/// quota so that every run does the same work (about a second's worth per
/// second on the reference host).
const JIT_QUOTA_PER_SECOND: f64 = 6000.0;
/// `ref_sharded` replays its input this many times per `--seconds`, a
/// fixed count for the same reason (about a second's worth per second on
/// the reference host). Stopping on the clock instead would make the
/// attempted and failed counts depend on the host's speed.
const REF_REPS_PER_SECOND: f64 = 2.8;

/// How one engine leg is driven.
struct Leg<'a> {
    engine: &'a Engine,
    events: &'a [ArrivalEvent],
    /// Arrivals pushed before timing starts (the first window).
    warm: usize,
    /// Arrivals pushed per push-then-poll step.
    chunk: usize,
}

/// The benchmark's per-leg record-keeping, allocated and touched before
/// the RSS baseline is taken so that its growth is not counted as the
/// program's memory, and reused across legs.
struct Buffers {
    /// Send time of each arrival (its step's start).
    send_ns: Vec<u64>,
    /// Result keys in delivery order (`None`: not identifiable).
    delivered: Vec<Option<u64>>,
    /// Result latency: delivering poll minus the send of the result's
    /// latest component, for results whose latest component was timed.
    latency_ns: Vec<u64>,
}

impl Buffers {
    fn new(arrivals: usize, results: usize) -> Self {
        Buffers {
            send_ns: touched(arrivals, 1),
            delivered: touched(results, Some(1)),
            latency_ns: touched(results, 1),
        }
    }

    fn clear(&mut self) {
        self.send_ns.clear();
        self.delivered.clear();
        self.latency_ns.clear();
    }
}

/// What one driven leg measured.
struct LegRun {
    /// Arrivals pushed in total (warm-up included).
    sent: usize,
    refused: u64,
    timed_arrivals: usize,
    /// First timed push to `finish()` returning.
    wall_s: f64,
    cpu_s: f64,
    bufs: Buffers,
    /// Counters when timing started (traced runs only).
    start: Option<MetricsSnapshot>,
    outcome: EngineOutcome,
}

fn run_leg(
    leg: &Leg<'_>,
    q: &JoinQuery,
    arrivals: &Arrivals<'_>,
    mut tracer: Option<&mut Tracer>,
    rss: &mut RssWatch,
    mut bufs: Buffers,
) -> Result<LegRun, String> {
    let origin = Instant::now();
    let mut session = leg.engine.session().map_err(|e| format!("session: {e}"))?;
    bufs.clear();
    bufs.send_ns.resize(leg.events.len(), 0);
    let (mut refused, mut timed_arrivals, mut start) = (0, 0, None);
    let deliver = |b: &mut Buffers, results: Vec<jit_types::Tuple>, at: u64| {
        for result in &results {
            let id = identify(q, arrivals, result);
            b.delivered.push(id.map(|(key, _)| key));
            if let Some((_, last)) = id {
                if last as usize >= leg.warm {
                    b.latency_ns
                        .push(at.saturating_sub(b.send_ns[last as usize]));
                }
            }
        }
    };

    let (mut cpu0, mut t0) = (cpu_seconds()?, 0);
    let mut last_rss = 0;
    let mut i = 0;
    while i < leg.events.len() {
        if i == leg.warm {
            if tracer.is_some() {
                start = Some(session.metrics_snapshot());
            }
            cpu0 = cpu_seconds()?;
            t0 = elapsed_ns(origin);
        }
        let timed = i >= leg.warm;
        let step_start = elapsed_ns(origin);
        // A step never straddles the start of timing.
        let end = if i < leg.warm {
            (i + leg.chunk).min(leg.warm)
        } else {
            (i + leg.chunk).min(leg.events.len())
        };
        for (idx, event) in leg.events[i..end].iter().enumerate() {
            let idx = i + idx;
            bufs.send_ns[idx] = step_start;
            let pushed = timed_call(tracer.as_deref_mut(), "engine.push", idx as u64, || {
                session.push_event(event.clone())
            });
            if pushed.is_err() {
                refused += 1;
            }
        }
        let results = timed_call(tracer.as_deref_mut(), "engine.poll", i as u64, || {
            session.poll_results()
        });
        let now = elapsed_ns(origin);
        deliver(&mut bufs, results, now);
        if timed {
            timed_arrivals += end - i;
            if now - last_rss > 10_000_000 {
                rss.sample()?;
                last_rss = now;
            }
        }
        i = end;
    }
    if timed_arrivals == 0 {
        // An input no longer than its warm-up: time the finish alone.
        cpu0 = cpu_seconds()?;
        t0 = elapsed_ns(origin);
    }
    let mut outcome = in_span(tracer, "engine.finish", |_| session.finish())
        .map_err(|e| format!("finish: {e}"))?;
    let end = elapsed_ns(origin);
    let cpu_s = cpu_seconds()? - cpu0;
    rss.sample()?;
    deliver(&mut bufs, std::mem::take(&mut outcome.results), end);
    Ok(LegRun {
        sent: i,
        refused,
        timed_arrivals,
        wall_s: (end - t0) as f64 / 1e9,
        cpu_s,
        bufs,
        start,
        outcome,
    })
}

/// Median wall time of engine builds plus session starts (see
/// [`median_setup`]); every session is finished outside the timed part.
fn setup_seconds(
    builders: &[EngineBuilder],
    tracer: &mut Option<&mut Tracer>,
) -> Result<f64, String> {
    median_setup(|| {
        let mut sessions = Vec::new();
        let start = Instant::now();
        for builder in builders {
            let engine = in_span(tracer.as_deref_mut(), "engine.build", |_| {
                builder.clone().build()
            })
            .map_err(|e| format!("build: {e}"))?;
            sessions.push(engine.session().map_err(|e| format!("session: {e}"))?);
        }
        let seconds = start.elapsed().as_secs_f64();
        for session in sessions {
            session.finish().map_err(|e| format!("finish: {e}"))?;
        }
        Ok(seconds)
    })
}

/// Index of the first arrival at or after `ts`.
fn first_at(events: &[ArrivalEvent], ts: Timestamp) -> usize {
    events.partition_point(|e| e.ts < ts)
}

/// Fold a leg's counters (timed-phase deltas) into the per-layer metrics.
fn leg_layers(layers: &mut Layers, run: &LegRun) {
    let end = &run.outcome.snapshot;
    let start = run.start.clone().unwrap_or_else(MetricsSnapshot::zero);
    layers.add_counters(&start, end);
    layers.max("exec.peak_state_bytes", end.steady_peak_memory_bytes as f64);
    layers.max("runtime.shard_skew", run.outcome.max_shard_load());
}

/// Per-layer timings of a traced run.
fn tracer_layers(layers: &mut Layers, tracer: &Tracer) {
    let q = |v: &[f64], p: f64| quantile(v, p).unwrap_or(0.0);
    let push = tracer.call_us("engine.push");
    let poll = tracer.call_us("engine.poll");
    layers.set("engine.push_us.p50", q(&push, 0.5));
    layers.set("engine.push_us.p99", q(&push, 0.99));
    layers.set("engine.poll_us.p50", q(&poll, 0.5));
    layers.set("engine.poll_us.p99", q(&poll, 0.99));
    layers.set(
        "engine.finish_ms",
        tracer.span_ms("engine.finish").iter().sum(),
    );
    layers.set("engine.build_ms", q(&tracer.span_ms("engine.build"), 0.5));
}

fn check_leg(
    q: &JoinQuery,
    arrivals: &Arrivals<'_>,
    reference: &[Expected],
    run: &LegRun,
) -> CheckReport {
    check(
        q,
        arrivals,
        reference,
        &run.bufs.delivered,
        run.sent,
        &|_| false,
    )
}

/// The shared-key 3-source clique of `jit_stateful` and `ref_sharded`.
fn clique_spec(seed: u64, window_minutes: f64, stream_minutes: f64) -> WorkloadSpec {
    WorkloadSpec::bushy_default()
        .with_sources(3)
        .with_rate(50.0)
        .with_dmax(5000)
        .with_window_minutes(window_minutes)
        .with_shared_key()
        .with_seed(seed)
        .with_duration(EventDuration::from_mins_f64(
            window_minutes + stream_minutes,
        ))
}

/// Fill the result-side of an outcome from check reports and legs.
fn finish_outcome(out: &mut Outcome, report: &CheckReport, arrivals_sent: u64, refused: u64) {
    out.attempted = arrivals_sent + report.expected;
    out.failed = refused + report.failures();
    out.correct = report.extra_invalid == 0
        && report.duplicates == 0
        && report.missing_unexplained == 0
        && refused == 0;
    out.check = *report;
}

/// `jit_stateful`: JIT, single-threaded, tuple at a time, 2-min window.
/// One timed leg; a traced run adds a second, traced leg over the same
/// number of arrivals.
pub fn jit_stateful(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let timed = (seconds * JIT_QUOTA_PER_SECOND) as usize;
    // 150 arrivals per second of event time, plus slack for Poisson gaps.
    let spec = clique_spec(seed, 2.0, timed as f64 / 150.0 / 60.0 * 1.1 + 1.0);
    let builder = Engine::builder()
        .workload(&spec, &PlanShape::left_deep(3))
        .mode(ExecutionMode::Jit(JitPolicy::full()));
    // Set-up is timed first, on the process's fresh heap.
    let mut out = Outcome {
        setup_s: setup_seconds(std::slice::from_ref(&builder), &mut None)?,
        ..Outcome::default()
    };
    let trace = WorkloadGenerator::generate(&spec);
    let events = trace.events();
    let arrivals = Arrivals::new(events);
    let q = JoinQuery::clique(3, spec.window().length.as_millis());
    let reference = reference_join(&q, &arrivals);
    let warm = first_at(events, Timestamp::ZERO + spec.window().length);
    let events = &events[..(warm + timed).min(events.len())];
    let bufs = Buffers::new(events.len(), reference.len() * 3 / 2);

    let mut rss = RssWatch::start()?;
    let engine = builder.clone().build().map_err(|e| format!("build: {e}"))?;
    // A traced run splits the quota: half untraced, half traced.
    let measured = if traced {
        warm + timed / 2
    } else {
        events.len()
    };
    let leg = Leg {
        engine: &engine,
        events: &events[..measured],
        warm,
        chunk: 1,
    };
    let run = run_leg(&leg, &q, &arrivals, None, &mut rss, bufs)?;
    let report = check_leg(&q, &arrivals, &reference, &run);
    finish_outcome(&mut out, &report, run.sent as u64, run.refused);
    out.throughput_tps = run.timed_arrivals as f64 / run.wall_s;
    out.cpu_us_per_arrival = run.cpu_s * 1e6 / run.timed_arrivals.max(1) as f64;
    out.set_latency(&run.bufs.latency_ns);
    out.peak_rss_mb = rss.peak_delta_mb();

    if traced {
        let mut tracer = Tracer::new(Instant::now());
        setup_seconds(std::slice::from_ref(&builder), &mut Some(&mut tracer))?;
        let traced_run = run_leg(&leg, &q, &arrivals, Some(&mut tracer), &mut rss, run.bufs)?;
        leg_layers(&mut out.layers, &traced_run);
        tracer_layers(&mut out.layers, &tracer);
        let overhead = traced_run.wall_s / run.wall_s - 1.0;
        out.layers.set("bench.trace_overhead_frac", overhead);
        out.tracer = Some(tracer);
    }
    Ok(out)
}

/// `ref_sharded`: REF on the sharded backend, 1024-row batches, 0.5-min
/// window. The input is replayed on fresh sessions a fixed number of times
/// per `--seconds`; throughput and latency percentiles are medians over
/// the repetitions.
/// A traced run alternates untraced and traced repetitions.
pub fn ref_sharded(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let shards = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spec = clique_spec(seed, 0.5, 44.0);
    let builder = Engine::builder()
        .workload(&spec, &PlanShape::left_deep(3))
        .mode(ExecutionMode::Ref)
        .sharded(RuntimeConfig::with_shards(shards))
        .batch_policy(BatchPolicy::rows(1024));
    let mut out = Outcome {
        setup_s: setup_seconds(std::slice::from_ref(&builder), &mut None)?,
        ..Outcome::default()
    };
    let trace = WorkloadGenerator::generate(&spec);
    let events = trace.events();
    let arrivals = Arrivals::new(events);
    let q = JoinQuery::clique(3, spec.window().length.as_millis());
    let reference = reference_join(&q, &arrivals);
    let warm = first_at(events, Timestamp::ZERO + spec.window().length);
    let mut bufs = Buffers::new(events.len(), reference.len() * 3 / 2);

    let mut rss = RssWatch::start()?;
    let mut tracer = traced.then(|| Tracer::new(Instant::now()));
    if let Some(t) = tracer.as_mut() {
        setup_seconds(std::slice::from_ref(&builder), &mut Some(t))?;
    }
    let engine = builder.build().map_err(|e| format!("build: {e}"))?;
    let leg = Leg {
        engine: &engine,
        events,
        warm,
        chunk: 1024,
    };
    let mut report = CheckReport::default();
    let (mut sent, mut refused, mut timed, mut cpu) = (0u64, 0u64, 0u64, 0.0);
    let (mut tps, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let reps = ((seconds * REF_REPS_PER_SECOND).round() as usize).max(3);
    for rep in 0..reps {
        let trace_this = rep % 2 == 1 && tracer.is_some();
        let run = run_leg(
            &leg,
            &q,
            &arrivals,
            if trace_this { tracer.as_mut() } else { None },
            &mut rss,
            bufs,
        )?;
        // Every repetition is checked, traced or not.
        report.add(&check_leg(&q, &arrivals, &reference, &run));
        sent += run.sent as u64;
        refused += run.refused;
        if trace_this {
            traced_walls.push(run.wall_s);
            out.layers = Layers::default();
            leg_layers(&mut out.layers, &run);
        } else {
            timed += run.timed_arrivals as u64;
            cpu += run.cpu_s;
            tps.push(run.timed_arrivals as f64 / run.wall_s);
            plain_walls.push(run.wall_s);
            let ms: Vec<f64> = run
                .bufs
                .latency_ns
                .iter()
                .map(|&ns| ns as f64 / 1e6)
                .collect();
            p50.push(quantile(&ms, 0.5).unwrap_or(f64::NAN));
            p99.push(quantile(&ms, 0.99).unwrap_or(f64::NAN));
            out.latency_samples += ms.len();
        }
        bufs = run.bufs;
    }
    finish_outcome(&mut out, &report, sent, refused);
    out.throughput_tps = median(&tps).expect("at least one untraced repetition");
    out.cpu_us_per_arrival = cpu * 1e6 / timed.max(1) as f64;
    out.latency_p50_ms = median(&p50).expect("at least one untraced repetition");
    out.latency_p99_ms = median(&p99).expect("at least one untraced repetition");
    out.peak_rss_mb = rss.peak_delta_mb();
    out.notes.push(format!(
        "{} untraced repetitions of {} arrivals on {shards} shards",
        tps.len(),
        events.len()
    ));
    if let Some(tracer) = tracer {
        tracer_layers(&mut out.layers, &tracer);
        // One finish per repetition: report the typical one.
        let finish = median(&tracer.span_ms("engine.finish")).unwrap_or(0.0);
        out.layers.set("engine.finish_ms", finish);
        if let (Some(t), Some(p)) = (median(&traced_walls), median(&plain_walls)) {
            out.layers.set("bench.trace_overhead_frac", t / p - 1.0);
        }
        out.tracer = Some(tracer);
    }
    Ok(out)
}
