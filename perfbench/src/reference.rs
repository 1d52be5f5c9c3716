//! The benchmark's own reference join and result check.
//!
//! Semantics (the north star's, matching `Window::is_alive`): a result is
//! valid iff it holds one arrival of every source of the query, satisfies
//! every join predicate and constant filter, and its components lie within
//! one window of each other — `max ts − min ts < w`. The reference join
//! enumerates exactly those combinations over the generated input; the
//! check compares the program's delivered results against it and counts
//! missing, extra, duplicated and out-of-timestamp-order results.

use jit_stream::arrival::ArrivalEvent;
use jit_types::Tuple;
use std::collections::HashMap;

/// A join query over global sources, in the benchmark's own terms.
#[derive(Debug, Clone)]
pub struct JoinQuery {
    /// Global source id of each local source (FROM position).
    pub sources: Vec<u16>,
    /// Equi-join predicates `(local, column) = (local, column)`.
    pub predicates: Vec<((usize, u16), (usize, u16))>,
    /// Constant filters `local.column > threshold`.
    pub filters: Vec<(usize, u16, i64)>,
    /// Window length in milliseconds of event time.
    pub window_ms: u64,
}

impl JoinQuery {
    /// The `n`-source clique join of the synthetic workloads: source `i`'s
    /// column facing `j` equals source `j`'s column facing `i`.
    pub fn clique(n: usize, window_ms: u64) -> Self {
        let facing = |i: usize, j: usize| if j < i { j as u16 } else { (j - 1) as u16 };
        let mut predicates = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                predicates.push(((i, facing(i, j)), (j, facing(j, i))));
            }
        }
        JoinQuery {
            sources: (0..n as u16).collect(),
            predicates,
            filters: Vec::new(),
            window_ms,
        }
    }

    fn arity(&self) -> usize {
        self.sources.len()
    }

    fn bits(&self) -> u32 {
        64 / self.arity() as u32
    }

    /// Does the arrival pass this query's filters for local source `local`?
    pub fn admits(&self, local: usize, event: &ArrivalEvent) -> bool {
        self.filters
            .iter()
            .filter(|(l, _, _)| *l == local)
            .all(|&(_, col, threshold)| int(event, col).is_some_and(|v| v > threshold))
    }

    /// Local position of a global source in this query.
    pub fn local_of(&self, global: u16) -> Option<usize> {
        self.sources.iter().position(|&s| s == global)
    }
}

fn int(event: &ArrivalEvent, column: u16) -> Option<i64> {
    event.tuple.values.get(column as usize)?.as_int()
}

/// The generated input: arrivals in the order they are sent, addressable
/// by position and by `(source, seq)`.
pub struct Arrivals<'a> {
    pub events: &'a [ArrivalEvent],
    index_of: Vec<Vec<u32>>,
}

impl<'a> Arrivals<'a> {
    pub fn new(events: &'a [ArrivalEvent]) -> Self {
        let mut index_of: Vec<Vec<u32>> = Vec::new();
        for (idx, event) in events.iter().enumerate() {
            let source = event.source.0 as usize;
            if index_of.len() <= source {
                index_of.resize(source + 1, Vec::new());
            }
            let seq = event.tuple.seq as usize;
            let slots = &mut index_of[source];
            if slots.len() <= seq {
                slots.resize(seq + 1, u32::MAX);
            }
            slots[seq] = u32::try_from(idx).expect("input fits u32 positions");
        }
        Arrivals { events, index_of }
    }

    /// Send position of arrival `seq` of global source `source`.
    pub fn position(&self, source: u16, seq: u64) -> Option<u32> {
        let pos = *self.index_of.get(source as usize)?.get(seq as usize)?;
        (pos != u32::MAX).then_some(pos)
    }

    fn ts(&self, pos: u32) -> u64 {
        self.events[pos as usize].ts.as_millis()
    }
}

/// One reference result: its identity and the latest send position among
/// its components (it can only be produced once that arrival was sent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Expected {
    pub key: u64,
    pub last: u32,
}

/// Pack one arrival sequence number per local source into a result key.
fn pack(q: &JoinQuery, seqs: impl Iterator<Item = u64>) -> Option<u64> {
    let bits = q.bits();
    let mut key = 0u64;
    for (local, seq) in seqs.enumerate() {
        if bits < 64 && seq >> bits != 0 {
            return None;
        }
        key |= seq << (bits * local as u32);
    }
    Some(key)
}

/// The send positions of a key's components, if they all exist.
fn unpack(q: &JoinQuery, arrivals: &Arrivals<'_>, key: u64) -> Option<Vec<u32>> {
    let bits = q.bits();
    let mask = if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    (0..q.arity())
        .map(|local| {
            let seq = (key >> (bits * local as u32)) & mask;
            arrivals.position(q.sources[local], seq)
        })
        .collect()
}

/// Identify one delivered result: its key and the latest send position
/// among its components. `None` if it is not a combination of one known
/// arrival per source of `q` (an invalid result).
pub fn identify(q: &JoinQuery, arrivals: &Arrivals<'_>, result: &Tuple) -> Option<(u64, u32)> {
    let parts = result.parts();
    if parts.len() != q.arity() {
        return None;
    }
    let mut seqs = vec![u64::MAX; q.arity()];
    let mut last = 0u32;
    for part in parts {
        let local = part.source.0 as usize;
        if local >= q.arity() || seqs[local] != u64::MAX {
            return None;
        }
        seqs[local] = part.seq;
        last = last.max(arrivals.position(q.sources[local], part.seq)?);
    }
    Some((pack(q, seqs.into_iter())?, last))
}

/// Is a combination (send positions by local source) a valid result?
fn classify(q: &JoinQuery, arrivals: &Arrivals<'_>, pos: &[u32]) -> Validity {
    let ev = |local: usize| &arrivals.events[pos[local] as usize];
    let preds_hold = q.predicates.iter().all(|&((la, ca), (lb, cb))| {
        matches!((int(ev(la), ca), int(ev(lb), cb)), (Some(a), Some(b)) if a == b)
    });
    let filters_hold = (0..q.arity()).all(|l| q.admits(l, ev(l)));
    if !preds_hold || !filters_hold {
        return Validity::Invalid;
    }
    let ts = pos.iter().map(|&p| arrivals.ts(p));
    let span = ts.clone().max().unwrap_or(0) - ts.min().unwrap_or(0);
    if span < q.window_ms {
        Validity::Valid
    } else {
        Validity::SpanTooWide
    }
}

#[derive(Debug, PartialEq, Eq)]
enum Validity {
    Valid,
    SpanTooWide,
    Invalid,
}

/// Every valid result of `q` over the whole input, sorted by key.
///
/// Each combination is enumerated once, from its latest component in
/// `(ts, position)` order, against earlier components still inside the
/// window of it; hash indexes on the join columns keep this near-linear.
pub fn reference_join(q: &JoinQuery, arrivals: &Arrivals<'_>) -> Vec<Expected> {
    let n = q.arity();
    let mut order: Vec<(u64, u32, usize)> = Vec::new();
    for (pos, event) in arrivals.events.iter().enumerate() {
        if let Some(local) = q.local_of(event.source.0) {
            if q.admits(local, event) {
                order.push((event.ts.as_millis(), pos as u32, local));
            }
        }
    }
    order.sort_unstable();

    // index[local][column]: join value → positions, in processing order.
    let mut index: Vec<HashMap<u16, HashMap<i64, Vec<u32>>>> = vec![HashMap::new(); n];
    for &((la, ca), (lb, cb)) in &q.predicates {
        index[la].entry(ca).or_default();
        index[lb].entry(cb).or_default();
    }
    let mut all: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut out = Vec::new();
    let mut bound = vec![u32::MAX; n];
    for &(ts, pos, local) in &order {
        let rest: Vec<usize> = (0..n).filter(|&l| l != local).collect();
        bound.fill(u32::MAX);
        bound[local] = pos;
        let ctx = Enumerate {
            q,
            arrivals,
            index: &index,
            all: &all,
            rest: &rest,
            anchor_ts: ts,
        };
        ctx.extend(0, &mut bound, &mut out);
        for (col, map) in index[local].iter_mut() {
            if let Some(v) = int(&arrivals.events[pos as usize], *col) {
                map.entry(v).or_default().push(pos);
            }
        }
        all[local].push(pos);
    }
    out.sort_unstable();
    out
}

struct Enumerate<'a, 'b> {
    q: &'a JoinQuery,
    arrivals: &'a Arrivals<'b>,
    index: &'a [HashMap<u16, HashMap<i64, Vec<u32>>>],
    all: &'a [Vec<u32>],
    rest: &'a [usize],
    anchor_ts: u64,
}

impl Enumerate<'_, '_> {
    fn extend(&self, depth: usize, bound: &mut Vec<u32>, out: &mut Vec<Expected>) {
        let q = self.q;
        if depth == self.rest.len() {
            let seqs = bound
                .iter()
                .map(|&p| self.arrivals.events[p as usize].tuple.seq);
            let key = pack(q, seqs).expect("sequence numbers fit the result key");
            let last = *bound.iter().max().expect("non-empty query");
            out.push(Expected { key, last });
            return;
        }
        let p = self.rest[depth];
        let event = |pos: u32| &self.arrivals.events[pos as usize];
        // Probe through a predicate linking p to an already bound source.
        let link = q.predicates.iter().find_map(|&(a, b)| {
            let (mine, other) = if a.0 == p {
                (a, b)
            } else if b.0 == p {
                (b, a)
            } else {
                return None;
            };
            (bound[other.0] != u32::MAX).then_some((mine.1, other))
        });
        let empty = Vec::new();
        let candidates = match link {
            Some((col, (ol, oc))) => match int(event(bound[ol]), oc) {
                Some(v) => self.index[p][&col].get(&v).unwrap_or(&empty),
                None => &empty,
            },
            None => &self.all[p],
        };
        for &cand in candidates.iter().rev() {
            let ts = event(cand).ts.as_millis();
            if ts + q.window_ms <= self.anchor_ts {
                break;
            }
            let consistent = q.predicates.iter().all(|&((la, ca), (lb, cb))| {
                let other = if la == p { (lb, cb) } else if lb == p { (la, ca) } else { return true };
                let mine = if la == p { ca } else { cb };
                if bound[other.0] == u32::MAX {
                    return true;
                }
                matches!((int(event(cand), mine), int(event(bound[other.0]), other.1)), (Some(x), Some(y)) if x == y)
            });
            if consistent {
                bound[p] = cand;
                self.extend(depth + 1, bound, out);
                bound[p] = u32::MAX;
            }
        }
    }
}

/// What the check of one query's delivered results found.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CheckReport {
    /// Reference results the program could have produced (all their
    /// components were sent).
    pub expected: u64,
    pub delivered: u64,
    pub matched: u64,
    /// Expected results never delivered.
    pub missing: u64,
    /// Missing results none of whose components was dropped as late: these
    /// cannot be explained by the disorder policy.
    pub missing_unexplained: u64,
    /// Delivered results that satisfy the predicates but span a window or
    /// more (`max ts − min ts ≥ w`).
    pub extra_span: u64,
    /// Delivered results that are not a predicate-satisfying combination of
    /// sent arrivals at all.
    pub extra_invalid: u64,
    /// Deliveries beyond the first of the same result.
    pub duplicates: u64,
    /// Deliveries whose timestamp (latest component) is below an earlier
    /// delivery's.
    pub out_of_order: u64,
}

impl CheckReport {
    /// Result-side failures: missing, extra, duplicated, out of order.
    pub fn failures(&self) -> u64 {
        self.missing + self.extra_span + self.extra_invalid + self.duplicates + self.out_of_order
    }

    pub fn add(&mut self, other: &CheckReport) {
        self.expected += other.expected;
        self.delivered += other.delivered;
        self.matched += other.matched;
        self.missing += other.missing;
        self.missing_unexplained += other.missing_unexplained;
        self.extra_span += other.extra_span;
        self.extra_invalid += other.extra_invalid;
        self.duplicates += other.duplicates;
        self.out_of_order += other.out_of_order;
    }
}

/// Check delivered results (keys in delivery order, `None` for a result
/// [`identify`] rejected) against the reference, given that the first
/// `sent` arrivals were sent and `dropped(pos)` tells which of them the
/// program dropped as too late for this query.
pub fn check(
    q: &JoinQuery,
    arrivals: &Arrivals<'_>,
    reference: &[Expected],
    delivered: &[Option<u64>],
    sent: usize,
    dropped: &dyn Fn(u32) -> bool,
) -> CheckReport {
    let mut report = CheckReport {
        delivered: delivered.len() as u64,
        ..CheckReport::default()
    };
    let mut high = 0u64;
    let mut keys: Vec<u64> = Vec::with_capacity(delivered.len());
    for key in delivered {
        let Some(key) = *key else {
            report.extra_invalid += 1;
            continue;
        };
        if let Some(pos) = unpack(q, arrivals, key) {
            let ts = pos.iter().map(|&p| arrivals.ts(p)).max().unwrap_or(0);
            if ts < high {
                report.out_of_order += 1;
            }
            high = high.max(ts);
        }
        keys.push(key);
    }
    keys.sort_unstable();
    let before = keys.len();
    keys.dedup();
    report.duplicates = (before - keys.len()) as u64;

    let is_expected = |e: &Expected| (e.last as usize) < sent;
    report.expected = reference.iter().filter(|e| is_expected(e)).count() as u64;
    for &key in &keys {
        let found = reference
            .binary_search_by_key(&key, |e| e.key)
            .ok()
            .filter(|&i| is_expected(&reference[i]));
        if found.is_some() {
            report.matched += 1;
            continue;
        }
        let valid = unpack(q, arrivals, key)
            .filter(|pos| pos.iter().all(|&p| (p as usize) < sent))
            .map(|pos| classify(q, arrivals, &pos));
        match valid {
            Some(Validity::SpanTooWide) => report.extra_span += 1,
            _ => report.extra_invalid += 1,
        }
    }
    report.missing = report.expected - report.matched;
    if report.missing > 0 {
        for e in reference.iter().filter(|e| is_expected(e)) {
            if keys.binary_search(&e.key).is_ok() {
                continue;
            }
            let pos = unpack(q, arrivals, e.key).expect("reference keys name real arrivals");
            if !pos.iter().any(|&p| dropped(p)) {
                report.missing_unexplained += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_types::{BaseTuple, SourceId, Timestamp, Value};
    use std::sync::Arc;

    /// Events `(source, ts ms, values)`, sequence numbers assigned per
    /// source in order.
    fn events(rows: &[(u16, u64, &[i64])]) -> Vec<ArrivalEvent> {
        let mut seqs = HashMap::new();
        rows.iter()
            .map(|&(source, ts, values)| {
                let seq = seqs.entry(source).or_insert(0u64);
                let tuple = BaseTuple::new(
                    SourceId(source),
                    *seq,
                    Timestamp::from_millis(ts),
                    values.iter().map(|&v| Value::int(v)).collect(),
                );
                *seq += 1;
                ArrivalEvent {
                    ts: Timestamp::from_millis(ts),
                    source: SourceId(source),
                    tuple: Arc::new(tuple),
                }
            })
            .collect()
    }

    fn pair(window_ms: u64) -> JoinQuery {
        JoinQuery {
            sources: vec![0, 1],
            predicates: vec![((0, 0), (1, 0))],
            filters: Vec::new(),
            window_ms,
        }
    }

    fn key(q: &JoinQuery, seqs: &[u64]) -> u64 {
        pack(q, seqs.iter().copied()).unwrap()
    }

    #[test]
    fn span_equal_to_the_window_is_not_a_result() {
        let ev = events(&[
            (0, 0, &[1]),  // A0
            (1, 9, &[1]),  // B0: span 9 < 10
            (1, 10, &[1]), // B1: span 10 == w, invalid
            (0, 12, &[1]), // A1: joins B0 (3) and B1 (2)
            (0, 12, &[2]), // A2: no partner key
        ]);
        let arrivals = Arrivals::new(&ev);
        let q = pair(10);
        let got: Vec<u64> = reference_join(&q, &arrivals)
            .iter()
            .map(|e| e.key)
            .collect();
        let mut want = vec![key(&q, &[0, 0]), key(&q, &[1, 0]), key(&q, &[1, 1])];
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn filters_and_three_way_cliques() {
        let q = JoinQuery::clique(3, 100);
        // Clique columns: S0 (x0→S1, x1→S2), S1 (x0→S0, x1→S2), S2 (x0→S0, x1→S1).
        let ev = events(&[
            (0, 0, &[5, 5]),
            (1, 10, &[5, 5]),
            (2, 20, &[5, 5]),
            (2, 30, &[5, 6]),  // S2.x1 = 6 ≠ S1.x1 = 5
            (1, 99, &[5, 5]),  // joins S0@0 and S2@20 (span 99)
            (2, 100, &[5, 5]), // S0@0 is a window away: only with S1 … none
        ]);
        let arrivals = Arrivals::new(&ev);
        let got: Vec<u64> = reference_join(&q, &arrivals)
            .iter()
            .map(|e| e.key)
            .collect();
        let mut want = vec![key(&q, &[0, 0, 0]), key(&q, &[0, 1, 0])];
        want.sort_unstable();
        assert_eq!(got, want);

        let mut filtered = pair(1000);
        filtered.filters.push((0, 1, 5));
        let ev = events(&[(0, 0, &[1, 5]), (0, 1, &[1, 6]), (1, 2, &[1, 0])]);
        let arrivals = Arrivals::new(&ev);
        let got: Vec<u64> = reference_join(&filtered, &arrivals)
            .iter()
            .map(|e| e.key)
            .collect();
        assert_eq!(got, vec![key(&filtered, &[1, 0])]);
    }

    #[test]
    fn check_counts_every_failure_class() {
        let ev = events(&[
            (0, 0, &[1]),  // A0
            (1, 5, &[1]),  // B0
            (0, 8, &[1]),  // A1
            (1, 10, &[1]), // B1: with A0 span 10 (too wide), with A1 valid
            (0, 11, &[2]), // A2
            (1, 12, &[3]), // B2
        ]);
        let arrivals = Arrivals::new(&ev);
        let q = pair(10);
        let reference = reference_join(&q, &arrivals);
        assert_eq!(reference.len(), 3); // A0B0, A1B0, A1B1
        let delivered = vec![
            Some(key(&q, &[1, 1])), // A1B1 at ts 10
            Some(key(&q, &[0, 0])), // A0B0 at ts 5: out of order
            Some(key(&q, &[0, 0])), // duplicate, and out of order again
            Some(key(&q, &[0, 1])), // span == w
            Some(key(&q, &[2, 2])), // predicate fails
            None,                   // unidentifiable
        ];
        // A1B0 missing; A1 (position 2) was dropped.
        let report = check(&q, &arrivals, &reference, &delivered, ev.len(), &|p| p == 2);
        assert_eq!(
            report,
            CheckReport {
                expected: 3,
                delivered: 6,
                matched: 2,
                missing: 1,
                missing_unexplained: 0,
                extra_span: 1,
                extra_invalid: 2,
                duplicates: 1,
                out_of_order: 2,
            }
        );
        assert_eq!(report.failures(), 7);
        let strict = check(&q, &arrivals, &reference, &delivered, ev.len(), &|_| false);
        assert_eq!(strict.missing_unexplained, 1);
    }

    #[test]
    fn results_of_unsent_arrivals_are_not_expected() {
        let ev = events(&[(0, 0, &[1]), (1, 1, &[1]), (1, 2, &[1])]);
        let arrivals = Arrivals::new(&ev);
        let q = pair(10);
        let reference = reference_join(&q, &arrivals);
        let delivered = vec![Some(key(&q, &[0, 0]))];
        let report = check(&q, &arrivals, &reference, &delivered, 2, &|_| false);
        assert_eq!((report.expected, report.matched, report.missing), (1, 1, 0));
    }
}
