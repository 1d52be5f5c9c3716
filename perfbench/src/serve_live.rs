//! The open-loop serving workload, `serve_live`.
//!
//! Arrivals are sent on a fixed schedule (`RATE` per second of wall time)
//! that does not slow down when the registry does; each result's latency
//! runs from the moment its latest component was *due*, so a stall (a
//! checkpoint, say) shows in the latency of every arrival queued behind it.
//! A few percent of arrivals are late (`DisorderSpec`), some beyond the
//! registry's lateness bound. The registry is checkpointed to a file every
//! `CHECKPOINT_EVERY` arrivals; after the timed phase a fresh registry
//! re-registers the queries and restores the last checkpoint.

use crate::probe::{cpu_seconds, touched, RssWatch};
use crate::reference::{
    check, identify, reference_join, Arrivals, CheckReport, Expected, JoinQuery,
};
use crate::spans::{in_span, splitmix64, timed_call, Tracer};
use crate::stats::{median, quantile};
use crate::{elapsed_ns, median_setup, Layers, Outcome};
use jit_core::policy::ExecutionMode;
use jit_durable::{read_checkpoint, write_checkpoint, DisorderPolicy};
use jit_engine::EngineOutcome;
use jit_metrics::MetricsSnapshot;
use jit_serve::{QueryId, QueryRegistry, ServeOptions};
use jit_stream::arrival::ArrivalEvent;
use jit_stream::{DisorderSpec, Trace};
use jit_types::{BaseTuple, Catalog, Duration as EventDuration, SourceId, Timestamp, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered load: arrivals sent per second of wall time.
const RATE: f64 = 2000.0;
/// Event time advances one millisecond per arrival, so event time runs
/// `RATE / 1000` times faster than wall time.
const EVENT_MS_PER_ARRIVAL: u64 = 1;
/// Join-key domain of every source.
const KEYS: u64 = 2_000;
/// Standing queries registered.
const QUERIES: usize = 300;
/// Window lengths of the query family, in milliseconds of event time.
const WINDOWS_MS: [u64; 3] = [500, 1000, 1500];
/// Filter thresholds of the query family (`X.v > t`, v uniform in 0..100).
const THRESHOLDS: [i64; 4] = [0, 20, 40, 60];
/// Share of arrivals delayed, and the largest delay (event time).
const LATE_FRACTION: f64 = 0.03;
const MAX_DELAY_MS: u64 = 250;
/// The registry's lateness bound (event time): delays above it are drops.
const LATENESS_MS: u64 = 100;
/// Every registered query is polled once per this much wall time.
const POLL_EVERY: Duration = Duration::from_millis(2);
/// The registry is checkpointed after every this many arrivals.
const CHECKPOINT_EVERY: usize = 4000;

const SOURCES: [&str; 3] = ["A", "B", "C"];
const PAIRS: [(u16, u16); 3] = [(0, 1), (1, 2), (0, 2)];

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    for name in SOURCES {
        cat.add_source(name, vec!["k".into(), "v".into()]);
    }
    cat
}

/// Query `i` of the family: one of 3 source pairs joined on `k`, one of 4
/// filters on the first source's `v`, one of 3 windows — 36 distinct
/// queries, each registered under several spellings that canonicalize to
/// the same pipeline. Returns the text and the distinct query's index.
fn query(i: usize) -> (String, usize) {
    let pair = i % PAIRS.len();
    let threshold = (i / 3) % THRESHOLDS.len();
    let window = (i / 12) % WINDOWS_MS.len();
    let variant = i / 36;
    let (a, b) = (
        SOURCES[PAIRS[pair].0 as usize],
        SOURCES[PAIRS[pair].1 as usize],
    );
    let w = WINDOWS_MS[window];
    let predicate = if variant.is_multiple_of(2) {
        format!("{a}.k = {b}.k")
    } else {
        format!("{b}.k = {a}.k")
    };
    let text = format!(
        "SELECT * FROM {a} [RANGE {w} milliseconds], {b} [RANGE {w} milliseconds] WHERE {predicate} AND {a}.v > {}",
        THRESHOLDS[threshold]
    );
    let text = if (variant / 2) % 2 == 1 {
        text.replace("SELECT", "select")
            .replace("FROM", "from")
            .replace("RANGE", "range")
            .replace("WHERE", "where")
            .replace("AND", "and")
    } else {
        text
    };
    (
        text,
        pair + PAIRS.len() * (threshold + THRESHOLDS.len() * window),
    )
}

/// The benchmark's own reading of distinct query `d`.
fn join_query(d: usize) -> JoinQuery {
    let pair = PAIRS[d % 3];
    let threshold = THRESHOLDS[(d / 3) % THRESHOLDS.len()];
    let window = WINDOWS_MS[d / 12];
    JoinQuery {
        sources: vec![pair.0, pair.1],
        predicates: vec![((0, 0), (1, 0))],
        filters: vec![(0, 1, threshold)],
        window_ms: window,
    }
}

/// The arrival stream in send order: an in-order trace, then disorder.
fn generate(seed: u64, n: usize) -> Vec<ArrivalEvent> {
    let mut state = seed ^ 0x5EED_5E12_7E00_0001;
    let mut next = |modulus: u64| {
        state = splitmix64(state);
        state % modulus
    };
    let mut seqs = [0u64; 3];
    let events = (0..n as u64)
        .map(|i| {
            let source = next(3) as usize;
            let ts = Timestamp::from_millis((i + 1) * EVENT_MS_PER_ARRIVAL);
            let values = vec![Value::int(next(KEYS) as i64), Value::int(next(100) as i64)];
            let tuple = BaseTuple::new(SourceId(source as u16), seqs[source], ts, values);
            seqs[source] += 1;
            ArrivalEvent {
                ts,
                source: SourceId(source as u16),
                tuple: Arc::new(tuple),
            }
        })
        .collect();
    let disorder = DisorderSpec::new(
        LATE_FRACTION,
        EventDuration::from_millis(MAX_DELAY_MS),
        seed.wrapping_add(1),
    );
    disorder.apply(&Trace::new(events))
}

/// Which arrivals the reorder stage of distinct query `q`'s pipeline drops:
/// the pipeline sees the arrivals that pass its filters, and drops one
/// whose timestamp is under its released frontier (the largest accepted
/// timestamp minus the lateness bound).
fn late_drops(q: &JoinQuery, events: &[ArrivalEvent]) -> Vec<bool> {
    let mut frontier = 0u64;
    events
        .iter()
        .map(|e| {
            let routed = q
                .local_of(e.source.0)
                .is_some_and(|local| q.admits(local, e));
            if !routed {
                return false;
            }
            let ts = e.ts.as_millis();
            if ts < frontier {
                return true;
            }
            frontier = frontier.max(ts.saturating_sub(LATENESS_MS));
            false
        })
        .collect()
}

fn options() -> ServeOptions {
    ServeOptions {
        mode: ExecutionMode::Ref,
        disorder: DisorderPolicy::Bounded(EventDuration::from_millis(LATENESS_MS)),
        ..ServeOptions::default()
    }
}

/// A fresh registry with every query registered, in order.
fn register_all(
    texts: &[String],
    mut tracer: Option<&mut Tracer>,
) -> Result<(QueryRegistry, Vec<QueryId>), String> {
    let mut registry = QueryRegistry::with_options(catalog(), options());
    let mut ids = Vec::with_capacity(texts.len());
    for (i, text) in texts.iter().enumerate() {
        let id = timed_call(tracer.as_deref_mut(), "serve.register", i as u64, || {
            registry.register(text)
        });
        ids.push(id.map_err(|e| format!("register {text:?}: {e}"))?);
    }
    Ok((registry, ids))
}

/// The generated input and everything derived from it before set-up.
struct Input<'a> {
    arrivals: Arrivals<'a>,
    texts: Vec<String>,
    /// Distinct query of each registered query.
    family: Vec<usize>,
    queries: Vec<JoinQuery>,
    references: Vec<Vec<Expected>>,
    drops: Vec<Vec<bool>>,
    warm: usize,
    checkpoint: PathBuf,
}

/// The benchmark's record of one pass, allocated and touched before the
/// RSS baseline (see [`touched`]) and reused by the traced pass.
struct Record {
    /// Result keys per registered query, in delivery order.
    delivered: Vec<Vec<Option<u64>>>,
    /// Result latency from the due time of the latest component.
    latency_ns: Vec<u64>,
    /// How late each timed arrival was sent.
    lag_ns: Vec<u64>,
}

impl Record {
    fn new(input: &Input<'_>, count: usize) -> Self {
        let per_query: Vec<usize> = input
            .family
            .iter()
            .map(|&d| input.references[d].len() * 5 / 4 + 64)
            .collect();
        Record {
            delivered: per_query.iter().map(|&n| touched(n, Some(1))).collect(),
            latency_ns: touched(per_query.iter().sum(), 1),
            lag_ns: touched(count, 1),
        }
    }

    fn clear(&mut self) {
        self.delivered.iter_mut().for_each(Vec::clear);
        self.latency_ns.clear();
        self.lag_ns.clear();
    }
}

/// What one open-loop pass measured.
struct Pass {
    sent: usize,
    refused: u64,
    timed: usize,
    wall_s: f64,
    cpu_s: f64,
    rec: Record,
    backlog_max: u64,
    /// One outcome per pipeline (its first subscriber's).
    pipelines: Vec<EngineOutcome>,
    start: Vec<MetricsSnapshot>,
    checkpoints: Vec<u64>,
    arrivals_at_checkpoint: u64,
    num_pipelines: usize,
    report: Option<jit_serve::SharingReport>,
}

/// Send `count` arrivals (the first `input.warm` untimed) on the schedule.
fn open_loop(
    input: &Input<'_>,
    count: usize,
    mut tracer: Option<&mut Tracer>,
    rss: &mut RssWatch,
    mut rec: Record,
) -> Result<Pass, String> {
    let events = input.arrivals.events;
    rec.clear();
    let (mut registry, ids) = register_all(&input.texts, None)?;
    let representatives: Vec<QueryId> = {
        let mut seen = vec![false; input.queries.len()];
        ids.iter()
            .zip(&input.family)
            .filter(|(_, &d)| !std::mem::replace(&mut seen[d], true))
            .map(|(&id, _)| id)
            .collect()
    };
    let mut pass = Pass {
        sent: 0,
        refused: 0,
        timed: 0,
        wall_s: 0.0,
        cpu_s: 0.0,
        rec,
        backlog_max: 0,
        pipelines: Vec::new(),
        start: Vec::new(),
        checkpoints: Vec::new(),
        arrivals_at_checkpoint: 0,
        num_pipelines: registry.num_pipelines(),
        report: None,
    };
    let interval_ns = 1e9 / RATE;
    let due = |i: usize| (i as f64 * interval_ns) as u64;
    let warm = input.warm;
    let deliver = |pass: &mut Pass, q: usize, results: &[jit_types::Tuple], at: u64| {
        let jq = &input.queries[input.family[q]];
        for result in results {
            let id = identify(jq, &input.arrivals, result);
            pass.rec.delivered[q].push(id.map(|(key, _)| key));
            if let Some((_, last)) = id {
                if last as usize >= warm {
                    pass.rec
                        .latency_ns
                        .push(at.saturating_sub(due(last as usize)));
                }
            }
        }
    };

    let origin = Instant::now();
    let poll_ns = POLL_EVERY.as_nanos() as u64;
    let mut next_poll = poll_ns;
    let (mut cpu0, mut t0, mut last_rss) = (cpu_seconds()?, 0u64, 0u64);
    let mut i = 0;
    loop {
        let now = elapsed_ns(origin);
        if now >= next_poll {
            for (q, &id) in ids.iter().enumerate() {
                let results = timed_call(tracer.as_deref_mut(), "serve.poll", q as u64, || {
                    registry.poll_results(id)
                })
                .map_err(|e| format!("poll: {e}"))?;
                deliver(&mut pass, q, &results, now);
            }
            while next_poll <= now {
                next_poll += poll_ns;
            }
            if now - last_rss > 10_000_000 {
                rss.sample()?;
                last_rss = now;
            }
            continue;
        }
        if i < count && due(i) <= now {
            if i == warm {
                if tracer.is_some() {
                    for &id in &representatives {
                        let snap = registry
                            .metrics_snapshot(id)
                            .map_err(|e| format!("metrics: {e}"))?;
                        pass.start.push(snap);
                    }
                }
                cpu0 = cpu_seconds()?;
                t0 = now;
            }
            if i >= warm {
                pass.rec.lag_ns.push(now - due(i));
                let overdue = (now as f64 / interval_ns) as u64 + 1 - i as u64;
                pass.backlog_max = pass.backlog_max.max(overdue);
            }
            let tuple = Arc::clone(&events[i].tuple);
            let pushed = timed_call(tracer.as_deref_mut(), "serve.push", i as u64, || {
                registry.push(tuple)
            });
            if pushed.is_err() {
                pass.refused += 1;
            }
            i += 1;
            if i % CHECKPOINT_EVERY == 0 {
                let stats = in_span(tracer.as_deref_mut(), "durable.checkpoint", |t| {
                    let body = registry
                        .checkpoint()
                        .map_err(|e| format!("checkpoint: {e}"))?;
                    in_span(t, "durable.write", |_| {
                        write_checkpoint(&input.checkpoint, &body)
                    })
                    .map_err(|e| format!("write checkpoint: {e}"))
                })?;
                pass.checkpoints.push(stats.bytes);
                pass.arrivals_at_checkpoint = registry.arrivals();
            }
            continue;
        }
        if i == count {
            break;
        }
        let wake = due(i).min(next_poll);
        if wake > now {
            std::thread::sleep(Duration::from_nanos(wake - now));
        }
    }
    // Deliver what is ready, then end the stream.
    let now = elapsed_ns(origin);
    for (q, &id) in ids.iter().enumerate() {
        let results = registry
            .poll_results(id)
            .map_err(|e| format!("poll: {e}"))?;
        deliver(&mut pass, q, &results, now);
    }
    pass.report = Some(registry.sharing_report());
    let finished = in_span(tracer, "serve.finish", |_| registry.finish())
        .map_err(|e| format!("finish: {e}"))?;
    let end = elapsed_ns(origin);
    pass.wall_s = (end - t0) as f64 / 1e9;
    pass.cpu_s = cpu_seconds()? - cpu0;
    rss.sample()?;
    for (id, mut outcome) in finished {
        let q = ids
            .iter()
            .position(|&x| x == id)
            .ok_or("finish returned an unknown query")?;
        deliver(&mut pass, q, &outcome.results, end);
        if representatives.contains(&id) {
            outcome.results = Vec::new();
            pass.pipelines.push(outcome);
        }
    }
    pass.sent = i;
    pass.timed = i.saturating_sub(warm);
    Ok(pass)
}

/// Re-register every query on a fresh registry and restore the last
/// checkpoint. Returns the wall time and the restored registry's arrival
/// count and pipeline count.
fn restore(input: &Input<'_>, tracer: Option<&mut Tracer>) -> Result<(f64, u64, usize), String> {
    let start = Instant::now();
    let (mut registry, _) = register_all(&input.texts, None)?;
    in_span(tracer, "durable.restore", |t| {
        let body = in_span(t, "durable.read", |_| read_checkpoint(&input.checkpoint))
            .map_err(|e| format!("read checkpoint: {e}"))?;
        registry.restore(&body).map_err(|e| format!("restore: {e}"))
    })?;
    let seconds = start.elapsed().as_secs_f64();
    Ok((seconds, registry.arrivals(), registry.num_pipelines()))
}

fn check_pass(input: &Input<'_>, pass: &Pass) -> CheckReport {
    let mut report = CheckReport::default();
    for (q, delivered) in pass.rec.delivered.iter().enumerate() {
        let d = input.family[q];
        let drops = &input.drops[d];
        report.add(&check(
            &input.queries[d],
            &input.arrivals,
            &input.references[d],
            delivered,
            pass.sent,
            &|p| drops[p as usize],
        ));
    }
    report
}

pub fn run(seed: u64, seconds: f64, traced: bool, dir: &Path) -> Result<Outcome, String> {
    let warm = (WINDOWS_MS[WINDOWS_MS.len() - 1] / EVENT_MS_PER_ARRIVAL) as usize;
    let pass_seconds = if traced { seconds / 2.0 } else { seconds };
    let count = warm + (pass_seconds * RATE) as usize;
    let (texts, family): (Vec<String>, Vec<usize>) = (0..QUERIES).map(query).unzip();
    // Set-up is timed first, on the process's fresh heap.
    let setup_s = median_setup(|| {
        let start = Instant::now();
        let registry = register_all(&texts, None)?;
        let seconds = start.elapsed().as_secs_f64();
        drop(registry);
        Ok(seconds)
    })?;
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let events = generate(seed, count);
    let distinct = PAIRS.len() * THRESHOLDS.len() * WINDOWS_MS.len();
    let queries: Vec<JoinQuery> = (0..distinct).map(join_query).collect();
    let arrivals = Arrivals::new(&events);
    let references = queries
        .iter()
        .map(|q| reference_join(q, &arrivals))
        .collect();
    let drops: Vec<Vec<bool>> = queries.iter().map(|q| late_drops(q, &events)).collect();
    let input = Input {
        arrivals,
        texts,
        family,
        queries,
        references,
        drops,
        warm,
        checkpoint: dir.join(format!("serve-live-{seed}-{}.ckpt", std::process::id())),
    };

    let rec = Record::new(&input, count);
    let mut rss = RssWatch::start()?;

    let pass = open_loop(&input, count, None, &mut rss, rec)?;
    let report = check_pass(&input, &pass);
    out.throughput_tps = pass.timed as f64 / pass.wall_s;
    out.cpu_us_per_arrival = pass.cpu_s * 1e6 / pass.timed.max(1) as f64;
    out.set_latency(&pass.rec.latency_ns);
    let lag_ms: Vec<f64> = pass.rec.lag_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    out.gen_lag_p99_ms = quantile(&lag_ms, 0.99);
    out.peak_rss_mb = rss.peak_delta_mb();
    // The restore must bring back the checkpointed cut (a run too short to
    // take a checkpoint has nothing to restore).
    let checkpointed = !pass.checkpoints.is_empty();
    let restore_ok = if checkpointed {
        let (seconds, arrivals, pipelines) = restore(&input, None)?;
        out.restore_s = Some(seconds);
        arrivals == pass.arrivals_at_checkpoint && pipelines == pass.num_pipelines
    } else {
        true
    };

    // The program's own drop counts must match the reference model of the
    // reorder stage.
    let model_drops: u64 = pipeline_families(&input)
        .iter()
        .map(|&d| input.drops[d][..pass.sent].iter().filter(|&&x| x).count() as u64)
        .sum();
    let program_drops: u64 = pass.pipelines.iter().map(|o| o.snapshot.late_dropped).sum();
    let dropped_arrivals = (0..pass.sent)
        .filter(|&p| input.drops.iter().any(|d| d[p]))
        .count() as u64;
    out.attempted = pass.sent as u64 + report.expected;
    out.failed = pass.refused + dropped_arrivals + report.failures();
    out.correct = report.extra_invalid == 0
        && report.duplicates == 0
        && report.missing_unexplained == 0
        && pass.refused == 0
        && model_drops == program_drops
        && restore_ok;
    out.notes.push(format!(
        "{} queries on {} pipelines; {} checkpoints; {} arrivals late-dropped (pipeline drops: program {program_drops}, model {model_drops}); restore {}",
        QUERIES,
        pass.num_pipelines,
        pass.checkpoints.len(),
        dropped_arrivals,
        match (checkpointed, restore_ok) {
            (false, _) => "not measured (no checkpoint taken)",
            (true, true) => "ok",
            (true, false) => "MISMATCH",
        }
    ));

    if traced {
        let mut tracer = Tracer::new(Instant::now());
        median_setup(|| {
            register_all(&input.texts, Some(&mut tracer))?;
            Ok(0.0)
        })?;
        // The schedule fixes the wall time of an open loop, so the tracing
        // overhead shows in CPU per arrival.
        let per = |p: &Pass| p.cpu_s / p.timed.max(1) as f64;
        let plain = per(&pass);
        let traced_pass = open_loop(&input, count, Some(&mut tracer), &mut rss, pass.rec)?;
        if checkpointed {
            restore(&input, Some(&mut tracer))?;
        }
        out.layers = pass_layers(&traced_pass, &tracer);
        out.layers
            .set("bench.trace_overhead_frac", per(&traced_pass) / plain - 1.0);
        out.tracer = Some(tracer);
    }
    out.check = report;
    let _ = std::fs::remove_file(&input.checkpoint);
    Ok(out)
}

/// The distinct query of each pipeline, in the order `open_loop` keeps
/// pipeline outcomes (first subscriber's registration order).
fn pipeline_families(input: &Input<'_>) -> Vec<usize> {
    let mut seen = vec![false; input.queries.len()];
    input
        .family
        .iter()
        .filter(|&&d| !std::mem::replace(&mut seen[d], true))
        .copied()
        .collect()
}

fn pass_layers(pass: &Pass, tracer: &Tracer) -> Layers {
    let mut layers = Layers::default();
    let q = |v: &[f64], p: f64| quantile(v, p).unwrap_or(0.0);
    for (i, outcome) in pass.pipelines.iter().enumerate() {
        let end = &outcome.snapshot;
        let zero = MetricsSnapshot::zero();
        layers.add_counters(pass.start.get(i).unwrap_or(&zero), end);
        layers.add("exec.peak_state_bytes", end.steady_peak_memory_bytes as f64);
        layers.add("durable.late_arrivals", end.late_arrivals as f64);
        layers.add("durable.late_dropped", end.late_dropped as f64);
        layers.max("durable.reorder_peak", end.reorder_buffer_peak as f64);
    }
    let push = tracer.call_us("serve.push");
    layers.set("serve.push_us.p50", q(&push, 0.5));
    layers.set("serve.push_us.p99", q(&push, 0.99));
    layers.set("serve.poll_us.p50", q(&tracer.call_us("serve.poll"), 0.5));
    layers.set(
        "serve.register_us.p50",
        q(&tracer.call_us("serve.register"), 0.5),
    );
    let ckpt = tracer.span_ms("durable.checkpoint");
    layers.set("durable.checkpoint_ms.p50", q(&ckpt, 0.5));
    layers.set(
        "durable.checkpoint_ms.max",
        ckpt.iter().copied().fold(0.0, f64::max),
    );
    layers.set("durable.write_ms", q(&tracer.span_ms("durable.write"), 0.5));
    layers.set(
        "durable.checkpoint_bytes",
        median(
            &pass
                .checkpoints
                .iter()
                .map(|&b| b as f64)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0),
    );
    layers.set("durable.read_ms", q(&tracer.span_ms("durable.read"), 0.5));
    layers.set(
        "durable.restore_ms",
        q(&tracer.span_ms("durable.restore"), 0.5),
    );
    if let Some(r) = &pass.report {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        layers.set("serve.pipelines", r.pipelines as f64);
        layers.set(
            "serve.routed_per_arrival",
            ratio(r.routed as f64, r.arrivals as f64),
        );
        layers.set(
            "serve.classify_saved_frac",
            ratio(
                r.classifications_saved as f64,
                (r.classifications + r.classifications_saved) as f64,
            ),
        );
        layers.set(
            "serve.sharing_factor",
            ratio(r.isolated_state_bytes as f64, r.shared_state_bytes as f64),
        );
    }
    layers.set("bench.backlog_max", pass.backlog_max as f64);
    layers
}
