//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's side of each call into a layer's
//! public functions; nothing inside the program is instrumented. Coarse
//! operations (engine build, checkpoint, restore, finish) keep one record
//! each. Per-arrival calls (push, poll) would need one record per call, so
//! they feed a bounded per-name reservoir of durations instead and keep a
//! full span record only for every `SAMPLE_EVERY`-th arrival. Spans of one
//! arrival share its arrival index as their id; a coarse operation gets an
//! id of its own, which its children inherit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Keep the full span record of one arrival in this many.
const SAMPLE_EVERY: u64 = 1024;
/// Durations kept per call name (uniform reservoir sample beyond this).
const RESERVOIR: usize = 1 << 16;
/// Coarse-operation ids start here, above any arrival index.
const COARSE_ID_BASE: u64 = 1 << 48;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// Index of the enclosing span in the record, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle of an open coarse span.
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

/// A uniform sample of call durations (Algorithm R, deterministic RNG).
#[derive(Debug, Default)]
struct Reservoir {
    seen: u64,
    kept: Vec<u64>,
    rng: u64,
}

impl Reservoir {
    fn add(&mut self, value: u64) {
        self.seen += 1;
        if self.kept.len() < RESERVOIR {
            self.kept.push(value);
            return;
        }
        self.rng = splitmix64(self.rng);
        let slot = self.rng % self.seen;
        if (slot as usize) < RESERVOIR {
            self.kept[slot as usize] = value;
        }
    }
}

/// One step of the SplitMix64 generator.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The in-memory span record of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    calls: BTreeMap<&'static str, Reservoir>,
    next_coarse: u64,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            calls: BTreeMap::new(),
            next_coarse: COARSE_ID_BASE,
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a coarse span. It nests under the innermost open span and
    /// shares its id; a top-level coarse span gets a fresh id.
    pub fn open(&mut self, name: &'static str) -> Open {
        let parent = self.open.last().copied();
        let id = match parent {
            Some(p) => self.spans[p].id,
            None => {
                self.next_coarse += 1;
                self.next_coarse
            }
        };
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        Open(idx)
    }

    /// Close the innermost open span, which must be `handle`.
    pub fn close(&mut self, handle: Open) {
        let top = self.open.pop();
        assert_eq!(top, Some(handle.0), "spans must close innermost first");
        self.spans[handle.0].end_ns = self.now_ns();
    }

    /// Record one per-arrival call that ran from `start_ns` to `end_ns`.
    pub fn record_call(&mut self, name: &'static str, arrival: u64, start_ns: u64, end_ns: u64) {
        let duration = end_ns.saturating_sub(start_ns);
        self.calls.entry(name).or_default().add(duration);
        if arrival.is_multiple_of(SAMPLE_EVERY) {
            self.spans.push(Span {
                name,
                id: arrival,
                parent: self.open.last().copied(),
                start_ns,
                end_ns,
            });
        }
    }

    /// Durations in milliseconds of every coarse span named `name`
    /// (sampled per-arrival records excluded).
    pub fn span_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.id >= COARSE_ID_BASE)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Sampled durations in microseconds of the per-arrival call `name`.
    pub fn call_us(&self, name: &str) -> Vec<f64> {
        self.calls
            .get(name)
            .map(|r| r.kept.iter().map(|&ns| ns as f64 / 1e3).collect())
            .unwrap_or_default()
    }

    /// Write every span, with its self time, as one JSON object per line.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                span.name, span.id, parent, span.start_ns, span.end_ns, self_ns
            )?;
        }
        out.flush()
    }

    /// Self time in milliseconds of every coarse span named `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let selfs = self_times(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name && s.id >= COARSE_ID_BASE)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }
}

/// Run `f` as the per-arrival call `name` of arrival `id`, timed when
/// tracing.
pub fn timed_call<R>(
    tracer: Option<&mut Tracer>,
    name: &'static str,
    id: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        None => f(),
        Some(t) => {
            let start = t.now_ns();
            let r = f();
            let end = t.now_ns();
            t.record_call(name, id, start, end);
            r
        }
    }
}

/// Run `f` inside the coarse span `name` when tracing; `f` gets the tracer
/// back to open child spans.
pub fn in_span<R>(
    mut tracer: Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce(Option<&mut Tracer>) -> R,
) -> R {
    let open = tracer.as_deref_mut().map(|t| t.open(name));
    let r = f(tracer.as_deref_mut());
    if let (Some(t), Some(open)) = (tracer, open) {
        t.close(open);
    }
    r
}

/// Each span's duration minus the part of its interval that its direct
/// children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: COARSE_ID_BASE,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // checkpoint [0, 100) with its write child [60, 90).
        let spans = vec![
            span("checkpoint", None, 0, 100),
            span("write", Some(0), 60, 90),
        ];
        assert_eq!(self_times(&spans), vec![70, 30]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("restore", None, 0, 100),
            span("read", Some(0), 10, 50),
            span("read", Some(0), 40, 70),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent_and_grandchildren_ignored() {
        let spans = vec![
            span("outer", None, 10, 50),
            span("child", Some(0), 0, 20),
            span("grandchild", Some(1), 5, 15),
        ];
        // outer: 40 long, child covers [10, 20) of it.
        assert_eq!(self_times(&spans), vec![30, 10, 10]);
    }

    #[test]
    fn nested_spans_share_the_parent_id() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.open("durable.checkpoint");
        let inner = t.open("durable.write");
        t.close(inner);
        t.close(outer);
        let other = t.open("engine.finish");
        t.close(other);
        assert_eq!(t.spans[0].id, t.spans[1].id);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_ne!(t.spans[2].id, t.spans[0].id);
        assert_eq!(t.span_ms("durable.write").len(), 1);
    }

    #[test]
    fn per_arrival_calls_keep_sampled_spans_only() {
        let mut t = Tracer::new(Instant::now());
        for arrival in 0..3 * SAMPLE_EVERY {
            t.record_call("engine.push", arrival, 0, 1_000);
        }
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.call_us("engine.push").len() as u64, 3 * SAMPLE_EVERY);
        assert!(t.call_us("engine.push").iter().all(|&us| us == 1.0));
    }

    #[test]
    fn reservoir_is_bounded() {
        let mut r = Reservoir::default();
        for v in 0..(RESERVOIR as u64 * 3) {
            r.add(v);
        }
        assert_eq!(r.kept.len(), RESERVOIR);
        assert_eq!(r.seen, RESERVOIR as u64 * 3);
    }
}
