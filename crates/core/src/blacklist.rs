//! The producer-side blacklist.
//!
//! Section IV-B: when a producer handles `<suspend, {s}>`, it scans its
//! operator state, extracts the super-tuples of the MNS `s` (and, optionally,
//! tuples with identical join-attribute values — the "similar" tuples like
//! `a2` in the running example) and moves them to a blacklist. New arrivals
//! matching a blacklisted MNS are diverted straight into the blacklist
//! instead of being processed. On `<resume, {s}>` the entry's tuples are
//! moved back and joined only with the opposite tuples they have not been
//! joined with yet.

use jit_exec::state::StateIndexMode;
use jit_types::{ColumnRef, FastMap, Signature, Timestamp, Tuple, TupleKey, Value, Window};
use serde::{Content, Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Whether an entry suppresses production entirely or only marks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SuspendMode {
    /// Super-tuples are not produced at all (`<suspend, …>`).
    Suspend,
    /// Super-tuples are produced but marked (`<mark, …>`, Type II handling).
    Mark,
}

/// One suspended tuple.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlacklistedTuple {
    /// The suspended tuple (a super-tuple of the entry's MNS, or a similar
    /// tuple captured by signature).
    pub tuple: Tuple,
    /// The opposite-state tuples this tuple has already been joined with are
    /// exactly those inserted at or before this instant. `None` means the
    /// tuple was diverted on arrival and has never probed the opposite state.
    pub joined_up_to: Option<Timestamp>,
}

/// All tuples suspended on behalf of one MNS.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlacklistEntry {
    /// The MNS that justified the suspension (as received in the feedback).
    pub mns: Tuple,
    /// The join-attribute columns used to recognise similar tuples.
    pub signature_columns: Vec<ColumnRef>,
    /// The MNS's values on those columns.
    pub signature: Signature,
    /// Suspension vs mark-only.
    pub mode: SuspendMode,
    /// When the suspension was installed.
    pub suspended_at: Timestamp,
    /// The suspended tuples.
    pub tuples: Vec<BlacklistedTuple>,
}

impl BlacklistEntry {
    /// Does `tuple` belong to this entry — i.e. is it a super-tuple of the
    /// MNS, or (when `allow_similar`) does it carry the same join-attribute
    /// values?
    pub fn captures(&self, tuple: &Tuple, allow_similar: bool) -> bool {
        if self.mns.is_subtuple_of(tuple) {
            return true;
        }
        if allow_similar
            && !self.signature_columns.is_empty()
            && self.mns.sources().is_subset(tuple.sources())
        {
            return Signature::of(tuple, &self.signature_columns) == self.signature;
        }
        false
    }
}

/// The blacklist attached to one operator state.
///
/// # The index layer
///
/// Every arrival is probed against the blacklist (the producer-side
/// diversion check), so a linear scan over the entries is a per-arrival
/// cost term. Under [`StateIndexMode::Hashed`] (the default) the blacklist
/// keeps three hash indexes over its entries — by MNS identity, by the
/// identity of the MNS's first component (a super-tuple must carry that
/// component), and by signature over each distinct signature-column set —
/// so [`Blacklist::matching_entry`] examines only the candidate entries.
/// Each candidate list is ascending, so the lookup returns the least
/// capturing position over all lists: exactly the entry the linear scan
/// would have found. [`StateIndexMode::Scan`] restores the linear scan
/// itself. Neither mode changes the analytical byte accounting: index
/// bookkeeping is not charged, mirroring [`jit_exec::state::OperatorState`].
///
/// # Storage
///
/// Removals are not rare: every resumption removes an entry, and a
/// feedback-heavy run resumes thousands of times per window. Entries
/// therefore live in a slab, the layout [`crate::mns_buffer::MnsBuffer`]
/// uses. A removal leaves a `None` tombstone and unfiles just that entry
/// from the indexes, so positions stay stable and no index is rebuilt.
/// Once tombstones outnumber live entries, compaction repacks the slab in
/// order and rebuilds the indexes, amortised O(1) per removal. Relative
/// entry order never changes, so "first capturing entry" means the same
/// entry before and after a compaction. A min-heap of `(timestamp,
/// position)` over suspended tuples and non-Ø MNSs lets
/// [`Blacklist::purge`] visit only the entries holding something expired.
#[derive(Debug, Clone, Default)]
pub struct Blacklist {
    name: String,
    /// Slab of entries in insertion order; `None` marks a removed entry.
    slots: Vec<Option<BlacklistEntry>>,
    /// Number of `Some` slots.
    live: usize,
    bytes: usize,
    mode: StateIndexMode,
    /// MNS identity → entry position (live entries).
    by_key: FastMap<TupleKey, usize>,
    /// Positions of entries whose MNS is Ø (they capture every tuple).
    empty_entries: Vec<usize>,
    /// Non-empty entries keyed by the identity of their MNS's first
    /// component: any super-tuple of the MNS carries that component.
    by_component: FastMap<(u16, u64), Vec<usize>>,
    /// Similar-capture entries grouped by their signature's (sorted,
    /// deduplicated) column list, then by the signature itself.
    /// [`Signature::of`] depends only on that column list, so one probe
    /// signature per group answers for every entry in it.
    by_signature: FastMap<Vec<ColumnRef>, FastMap<Signature, Vec<usize>>>,
    /// Min-heap of `(timestamp, position)`: one item per suspended tuple and
    /// per non-Ø MNS. Items of removed entries are skipped when popped;
    /// compaction rebuilds the heap.
    expiry: BinaryHeap<Reverse<(Timestamp, usize)>>,
    /// Reusable probe signature for [`Blacklist::matching_entry`].
    probe_signature: Signature,
}

/// Remove `pos` from an ascending position list.
fn unfile(list: &mut Vec<usize>, pos: usize) {
    if let Ok(i) = list.binary_search(&pos) {
        list.remove(i);
    }
}

/// A signature's column list (sorted and deduplicated by construction).
fn columns_of(signature: &Signature) -> Vec<ColumnRef> {
    signature.0.iter().map(|&(col, _)| col).collect()
}

/// The first position in the ascending `list` whose entry captures `tuple`,
/// if it lies below `best` (the least capturing position found so far).
fn first_capture(
    slots: &[Option<BlacklistEntry>],
    list: &[usize],
    tuple: &Tuple,
    allow_similar: bool,
    best: Option<usize>,
) -> Option<usize> {
    list.iter()
        .take_while(|&&pos| best.is_none_or(|b| pos < b))
        .copied()
        .find(|&pos| {
            slots[pos]
                .as_ref()
                .is_some_and(|e| e.captures(tuple, allow_similar))
        })
        .or(best)
}

impl Blacklist {
    /// An empty blacklist with a diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        Blacklist {
            name: name.into(),
            ..Blacklist::default()
        }
    }

    /// Select how [`Blacklist::matching_entry`] and
    /// [`Blacklist::entry_index`] answer probes (default
    /// [`StateIndexMode::Hashed`]). The two modes return identical entries;
    /// only the number of entries examined differs.
    pub fn set_index_mode(&mut self, mode: StateIndexMode) {
        self.mode = mode;
    }

    /// The probing mode in effect.
    pub fn index_mode(&self) -> StateIndexMode {
        self.mode
    }

    /// File the live entry at `pos` in the hash indexes. Positions are
    /// filed in ascending order, which keeps every list ascending.
    fn file_entry(&mut self, pos: usize) {
        let Some(entry) = &self.slots[pos] else {
            return;
        };
        self.by_key.insert(entry.mns.key(), pos);
        if entry.mns.is_empty() {
            self.empty_entries.push(pos);
            return;
        }
        let first = &entry.mns.parts()[0];
        self.by_component
            .entry((first.source.0, first.seq))
            .or_default()
            .push(pos);
        if !entry.signature_columns.is_empty() {
            self.by_signature
                .entry(columns_of(&entry.signature))
                .or_default()
                .entry(entry.signature.clone())
                .or_default()
                .push(pos);
        }
    }

    /// Unfile the entry just taken out of slot `pos` from the hash indexes,
    /// dropping the lists it leaves empty.
    fn unfile_entry(&mut self, pos: usize, entry: &BlacklistEntry) {
        self.by_key.remove(&entry.mns.key());
        if entry.mns.is_empty() {
            unfile(&mut self.empty_entries, pos);
            return;
        }
        let first = &entry.mns.parts()[0];
        let component = (first.source.0, first.seq);
        if let Some(list) = self.by_component.get_mut(&component) {
            unfile(list, pos);
            if list.is_empty() {
                self.by_component.remove(&component);
            }
        }
        if entry.signature_columns.is_empty() {
            return;
        }
        let columns = columns_of(&entry.signature);
        if let Some(groups) = self.by_signature.get_mut(&columns) {
            if let Some(list) = groups.get_mut(&entry.signature) {
                unfile(list, pos);
                if list.is_empty() {
                    groups.remove(&entry.signature);
                }
            }
            if groups.is_empty() {
                self.by_signature.remove(&columns);
            }
        }
    }

    /// Push the expiry items of the entry at `pos`.
    fn schedule_expiry(&mut self, pos: usize) {
        let Some(entry) = &self.slots[pos] else {
            return;
        };
        let mns_ts = (!entry.mns.is_empty()).then(|| entry.mns.ts());
        let tuple_ts = entry.tuples.iter().map(|t| t.tuple.ts());
        for ts in mns_ts.into_iter().chain(tuple_ts) {
            self.expiry.push(Reverse((ts, pos)));
        }
    }

    /// Rebuild everything derived from the slab: the hash indexes and the
    /// expiry heap. Needed only after wholesale slab replacement —
    /// compaction and restore.
    fn rebuild_derived(&mut self) {
        self.by_key.clear();
        self.empty_entries.clear();
        self.by_component.clear();
        self.by_signature.clear();
        self.expiry.clear();
        for pos in 0..self.slots.len() {
            self.file_entry(pos);
            self.schedule_expiry(pos);
        }
    }

    /// Reclaim tombstones once they outnumber the live entries: repack the
    /// slab in order and rebuild the derived structures.
    fn maybe_compact(&mut self) {
        if self.slots.len() - self.live <= self.live.max(16) {
            return;
        }
        self.slots.retain(Option::is_some);
        self.rebuild_derived();
    }

    /// The blacklist's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of entries (distinct MNSs).
    pub fn num_entries(&self) -> usize {
        self.live
    }

    /// Total number of suspended tuples across all entries.
    pub fn num_tuples(&self) -> usize {
        self.iter().map(|e| e.tuples.len()).sum()
    }

    /// Is the blacklist empty?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Analytical size in bytes (MNSs plus suspended tuples).
    pub fn size_bytes(&self) -> usize {
        self.bytes
    }

    /// The live entries, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &BlacklistEntry> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// The entry at position `idx`. Positions come from
    /// [`Blacklist::upsert_entry`], [`Blacklist::entry_index`] or
    /// [`Blacklist::matching_entry`] and stay valid until the next removal
    /// ([`Blacklist::remove_entry`], [`Blacklist::purge`] or a restore).
    /// Panics on a position that is not live.
    pub fn entry(&self, idx: usize) -> &BlacklistEntry {
        // INVARIANT: the documented contract above — callers pass a position
        // returned by a lookup with no removal in between, so it is live.
        self.slots[idx].as_ref().expect("live blacklist entry")
    }

    /// Position of the entry for an MNS, if present.
    pub fn entry_index(&self, key: &TupleKey) -> Option<usize> {
        if self.mode == StateIndexMode::Hashed {
            return self.by_key.get(key).copied();
        }
        self.slots
            .iter()
            .position(|slot| slot.as_ref().is_some_and(|e| &e.mns.key() == key))
    }

    /// Create (or find) the entry for `mns`. Returns its position.
    pub fn upsert_entry(
        &mut self,
        mns: Tuple,
        signature_columns: Vec<ColumnRef>,
        mode: SuspendMode,
        now: Timestamp,
    ) -> usize {
        if let Some(idx) = self.entry_index(&mns.key()) {
            // Upgrade a mark-only entry to a full suspension if asked.
            if let (SuspendMode::Suspend, Some(entry)) = (mode, &mut self.slots[idx]) {
                entry.mode = SuspendMode::Suspend;
            }
            return idx;
        }
        let signature = Signature::of(&mns, &signature_columns);
        self.bytes += mns.size_bytes() + signature.size_bytes();
        let pos = self.slots.len();
        self.slots.push(Some(BlacklistEntry {
            mns,
            signature_columns,
            signature,
            mode,
            suspended_at: now,
            tuples: Vec::new(),
        }));
        self.live += 1;
        self.file_entry(pos);
        self.schedule_expiry(pos);
        pos
    }

    /// The earliest timestamp whose window expiry could make
    /// [`Blacklist::purge`] remove a tuple or an entry, or `None` when a
    /// purge provably removes nothing — the expiry heap's minimum.
    /// Conservative: items of removed entries, or of MNSs whose entry still
    /// holds live tuples, may report an instant at which a purge removes
    /// nothing, which charges nothing.
    pub fn next_expiry(&self) -> Option<Timestamp> {
        self.expiry.peek().map(|&Reverse((ts, _))| ts)
    }

    /// Add a suspended tuple to the entry at position `entry` (same
    /// contract as [`Blacklist::entry`]).
    pub fn add_tuple(&mut self, entry: usize, tuple: Tuple, joined_up_to: Option<Timestamp>) {
        self.expiry.push(Reverse((tuple.ts(), entry)));
        self.bytes += tuple.size_bytes();
        // INVARIANT: same live-position contract as `entry`.
        let slot = self.slots[entry].as_mut().expect("live blacklist entry");
        slot.tuples.push(BlacklistedTuple {
            tuple,
            joined_up_to,
        });
    }

    /// The first entry that captures an arriving tuple, if any.
    ///
    /// Under [`StateIndexMode::Hashed`] only the candidate entries surfaced
    /// by the hash indexes are verified, and no allocation is made; under
    /// [`StateIndexMode::Scan`] every entry is examined in order. Both
    /// return the lowest capturing position.
    pub fn matching_entry(&mut self, tuple: &Tuple, allow_similar: bool) -> Option<usize> {
        if self.live == 0 {
            return None;
        }
        if self.mode == StateIndexMode::Scan {
            return self.slots.iter().position(|slot| {
                slot.as_ref()
                    .is_some_and(|e| e.captures(tuple, allow_similar))
            });
        }
        let slots = &self.slots;
        let mut best = first_capture(slots, &self.empty_entries, tuple, allow_similar, None);
        for part in tuple.parts() {
            if let Some(list) = self.by_component.get(&(part.source.0, part.seq)) {
                best = first_capture(slots, list, tuple, allow_similar, best);
            }
        }
        if allow_similar {
            let probe = &mut self.probe_signature;
            for (columns, groups) in &self.by_signature {
                // Signature::of over the group's sorted, deduplicated
                // columns, formed in the reusable buffer.
                probe.0.clear();
                probe.0.extend(
                    columns
                        .iter()
                        .map(|&c| (c, tuple.value(c).cloned().unwrap_or(Value::Null))),
                );
                if let Some(list) = groups.get(&*probe) {
                    best = first_capture(slots, list, tuple, allow_similar, best);
                }
            }
        }
        best
    }

    /// Remove and return the entry for an MNS (resumption).
    pub fn remove_entry(&mut self, key: &TupleKey) -> Option<BlacklistEntry> {
        let pos = self.entry_index(key)?;
        let entry = self.slots[pos].take()?;
        self.live -= 1;
        self.bytes -= entry.mns.size_bytes() + entry.signature.size_bytes();
        self.bytes -= entry
            .tuples
            .iter()
            .map(|t| t.tuple.size_bytes())
            .sum::<usize>();
        self.unfile_entry(pos, &entry);
        self.maybe_compact();
        Some(entry)
    }

    /// Drop expired suspended tuples and entries that have become useless
    /// (MNS expired and no live tuples remain). Returns the number of tuples
    /// removed.
    ///
    /// O(expired) heap pops, plus one pass over each entry that holds an
    /// expired item; entries with nothing expired are not visited.
    pub fn purge(&mut self, window: Window, now: Timestamp) -> usize {
        let mut due = Vec::new();
        while let Some(&Reverse((ts, pos))) = self.expiry.peek() {
            if !window.is_expired(ts, now) {
                break;
            }
            self.expiry.pop();
            if self.slots[pos].is_some() {
                due.push(pos);
            }
        }
        if due.is_empty() {
            return 0;
        }
        due.sort_unstable();
        due.dedup();
        let mut removed = 0usize;
        let mut freed = 0usize;
        for pos in due {
            let Some(entry) = self.slots[pos].as_mut() else {
                continue;
            };
            entry.tuples.retain(|t| {
                if window.is_expired(t.tuple.ts(), now) {
                    removed += 1;
                    freed += t.tuple.size_bytes();
                    false
                } else {
                    true
                }
            });
            let dead = entry.tuples.is_empty()
                && !entry.mns.is_empty()
                && window.is_expired(entry.mns.ts(), now);
            if dead {
                if let Some(entry) = self.slots[pos].take() {
                    freed += entry.mns.size_bytes() + entry.signature.size_bytes();
                    self.live -= 1;
                    self.unfile_entry(pos, &entry);
                }
            }
        }
        self.bytes -= freed;
        self.maybe_compact();
        removed
    }

    /// Serialise the live entries, in order, for a durability checkpoint.
    /// The index mode, the slab layout, the hash indexes and the expiry
    /// heap are runtime configuration / derived structure and are not
    /// persisted, so a blacklist carrying tombstones checkpoints exactly
    /// like a freshly built one holding the same entries.
    pub fn checkpoint(&self) -> Content {
        Content::Map(vec![
            ("name".to_string(), Content::Str(self.name.clone())),
            (
                "entries".to_string(),
                Content::Seq(self.iter().map(Serialize::to_content).collect()),
            ),
        ])
    }

    /// Replace the entries with a checkpointed set, rebuilding the byte
    /// accounting, the hash indexes and the expiry heap. The checkpoint must
    /// carry the same diagnostic name (i.e. come from the same operator
    /// slot).
    pub fn restore_checkpoint(&mut self, content: &Content) -> Result<(), serde::Error> {
        let map = content
            .as_map()
            .ok_or_else(|| serde::Error::expected("object", "Blacklist"))?;
        let name: String = serde::field(map, "name", "Blacklist")?;
        if name != self.name {
            return Err(serde::Error::msg(format!(
                "blacklist mismatch: checkpoint holds `{name}`, plan expects `{}`",
                self.name
            )));
        }
        let entries: Vec<BlacklistEntry> = serde::field(map, "entries", "Blacklist")?;
        self.bytes = entries
            .iter()
            .map(|e| {
                e.mns.size_bytes()
                    + e.signature.size_bytes()
                    + e.tuples.iter().map(|t| t.tuple.size_bytes()).sum::<usize>()
            })
            .sum();
        self.live = entries.len();
        self.slots = entries.into_iter().map(Some).collect();
        self.rebuild_derived();
        Ok(())
    }
}

impl fmt::Display for Blacklist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{} entries, {} tuples, {} B]",
            self.name,
            self.num_entries(),
            self.num_tuples(),
            self.bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_types::{BaseTuple, Duration, SourceId, Value};
    use std::sync::Arc;

    fn tup(source: u16, seq: u64, ts_ms: u64, vals: &[i64]) -> Tuple {
        Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(source),
            seq,
            Timestamp::from_millis(ts_ms),
            vals.iter().map(|&v| Value::int(v)).collect(),
        )))
    }

    fn window() -> Window {
        Window::new(Duration::from_secs(60))
    }

    /// Signature column A.x1 — the "y" attribute of the running example.
    fn sig_cols() -> Vec<ColumnRef> {
        vec![ColumnRef::new(SourceId(0), 1)]
    }

    #[test]
    fn upsert_and_lookup() {
        let mut bl = Blacklist::new("B_A");
        let a1 = tup(0, 1, 1_000, &[7, 100]);
        let idx = bl.upsert_entry(a1.clone(), sig_cols(), SuspendMode::Suspend, a1.ts());
        assert_eq!(idx, 0);
        // Upserting the same MNS returns the same entry.
        let again = bl.upsert_entry(a1.clone(), sig_cols(), SuspendMode::Suspend, a1.ts());
        assert_eq!(again, 0);
        assert_eq!(bl.num_entries(), 1);
        assert_eq!(bl.entry_index(&a1.key()), Some(0));
        assert!(bl.to_string().contains("B_A"));
    }

    #[test]
    fn captures_supertuple_and_similar() {
        let mut bl = Blacklist::new("B_A");
        let a1 = tup(0, 1, 1_000, &[7, 100]);
        bl.upsert_entry(a1.clone(), sig_cols(), SuspendMode::Suspend, a1.ts());
        // a1 itself (and any super-tuple of it) is captured.
        assert_eq!(bl.matching_entry(&a1, false), Some(0));
        let b = tup(1, 1, 1_500, &[7]);
        let a1b = a1.join(&b).unwrap();
        assert_eq!(bl.matching_entry(&a1b, false), Some(0));
        // a2 shares the join attribute value 100 → similar (only with the flag).
        let a2 = tup(0, 2, 2_000, &[9, 100]);
        assert_eq!(bl.matching_entry(&a2, true), Some(0));
        assert_eq!(bl.matching_entry(&a2, false), None);
        // a3 has a different join value → never captured.
        let a3 = tup(0, 3, 2_000, &[7, 200]);
        assert_eq!(bl.matching_entry(&a3, true), None);
    }

    #[test]
    fn tuples_and_bytes_accounting() {
        let mut bl = Blacklist::new("B");
        let a1 = tup(0, 1, 0, &[7, 100]);
        let idx = bl.upsert_entry(a1.clone(), sig_cols(), SuspendMode::Suspend, a1.ts());
        bl.add_tuple(idx, a1.clone(), Some(Timestamp::from_millis(0)));
        bl.add_tuple(idx, tup(0, 2, 10, &[9, 100]), None);
        assert_eq!(bl.num_tuples(), 2);
        let bytes_with_tuples = bl.size_bytes();
        let entry = bl.remove_entry(&a1.key()).unwrap();
        assert_eq!(entry.tuples.len(), 2);
        assert_eq!(entry.tuples[0].joined_up_to, Some(Timestamp::ZERO));
        assert_eq!(entry.tuples[1].joined_up_to, None);
        assert!(bl.is_empty());
        assert!(bl.size_bytes() < bytes_with_tuples);
        assert_eq!(bl.size_bytes(), 0);
    }

    #[test]
    fn remove_missing_entry_is_none() {
        let mut bl = Blacklist::new("B");
        assert!(bl.remove_entry(&tup(0, 1, 0, &[1]).key()).is_none());
    }

    #[test]
    fn purge_drops_expired_tuples_and_dead_entries() {
        let mut bl = Blacklist::new("B");
        let a1 = tup(0, 1, 0, &[7, 100]);
        let idx = bl.upsert_entry(a1.clone(), sig_cols(), SuspendMode::Suspend, a1.ts());
        bl.add_tuple(idx, a1.clone(), Some(Timestamp::ZERO));
        let a2 = tup(0, 2, 50_000, &[9, 100]);
        bl.add_tuple(idx, a2, None);
        // At t = 70s, a1 (ts 0, window 60s) has expired but a2 is alive; the
        // entry stays because it still holds a live tuple.
        assert_eq!(bl.purge(window(), Timestamp::from_millis(70_000)), 1);
        assert_eq!(bl.num_entries(), 1);
        assert_eq!(bl.num_tuples(), 1);
        // Once a2 expires too, the entry disappears.
        assert_eq!(bl.purge(window(), Timestamp::from_millis(120_000)), 1);
        assert_eq!(bl.num_entries(), 0);
        assert_eq!(bl.size_bytes(), 0);
    }

    #[test]
    fn mark_entries_can_be_upgraded_to_suspend() {
        let mut bl = Blacklist::new("B");
        let a1 = tup(0, 1, 0, &[7, 100]);
        let idx = bl.upsert_entry(a1.clone(), sig_cols(), SuspendMode::Mark, a1.ts());
        assert_eq!(bl.entry(idx).mode, SuspendMode::Mark);
        bl.upsert_entry(a1.clone(), sig_cols(), SuspendMode::Suspend, a1.ts());
        assert_eq!(bl.entry(idx).mode, SuspendMode::Suspend);
    }

    /// The hashed index and the linear scan must pick the same entry for
    /// every probe, across upserts, removals and purges.
    #[test]
    fn hashed_and_scan_agree_on_matching_entry() {
        let mut hashed = Blacklist::new("H");
        let mut scan = Blacklist::new("S");
        scan.set_index_mode(StateIndexMode::Scan);
        assert_eq!(hashed.index_mode(), StateIndexMode::Hashed);
        assert_eq!(scan.index_mode(), StateIndexMode::Scan);
        // A mix of entries: several signatures, one signature-less entry,
        // and the Ø entry added last (so earlier entries win first-match).
        let mnss: Vec<Tuple> = (0..6)
            .map(|i| tup(0, i + 1, i * 1_000, &[i as i64, (i % 3) as i64 * 100]))
            .collect();
        for (i, mns) in mnss.iter().enumerate() {
            let cols = if i == 3 { vec![] } else { sig_cols() };
            let mode = if i % 2 == 0 {
                SuspendMode::Suspend
            } else {
                SuspendMode::Mark
            };
            hashed.upsert_entry(mns.clone(), cols.clone(), mode, mns.ts());
            scan.upsert_entry(mns.clone(), cols, mode, mns.ts());
        }
        hashed.upsert_entry(
            Tuple::empty(),
            vec![],
            SuspendMode::Suspend,
            Timestamp::ZERO,
        );
        scan.upsert_entry(
            Tuple::empty(),
            vec![],
            SuspendMode::Suspend,
            Timestamp::ZERO,
        );
        let probes: Vec<Tuple> = (0..12)
            .map(|i| tup(0, 20 + i, 5_000, &[i as i64 / 2, (i % 4) as i64 * 100]))
            .chain(mnss.iter().cloned())
            .collect();
        for allow_similar in [false, true] {
            for p in &probes {
                assert_eq!(
                    hashed.matching_entry(p, allow_similar),
                    scan.matching_entry(p, allow_similar),
                    "probe {p} similar={allow_similar}"
                );
            }
        }
        for mns in &mnss {
            assert_eq!(hashed.entry_index(&mns.key()), scan.entry_index(&mns.key()));
        }
        // Remove an entry (leaving a tombstone) and re-check agreement.
        hashed.remove_entry(&mnss[1].key());
        scan.remove_entry(&mnss[1].key());
        // Purge the oldest entries.
        hashed.purge(window(), Timestamp::from_millis(62_000));
        scan.purge(window(), Timestamp::from_millis(62_000));
        assert_agree(&mut hashed, &mut scan, &probes, "post-removal");

        // Past the compaction threshold: 90 more entries over two signature
        // column lists (one spelled in two orders), each holding a suspended
        // tuple, then interleaved removals and purges.
        let wide = vec![
            ColumnRef::new(SourceId(0), 1),
            ColumnRef::new(SourceId(0), 0),
        ];
        let wide_rev: Vec<ColumnRef> = wide.iter().rev().copied().collect();
        let vals = |i: u64| [(i % 5) as i64, (i % 7) as i64 * 100];
        let more: Vec<Tuple> = (0..90u64)
            .map(|i| tup(0, 100 + i, 10_000 + i * 500, &vals(i)))
            .collect();
        for (i, mns) in more.iter().enumerate() {
            let cols = [sig_cols(), wide.clone(), wide_rev.clone()][i % 3].clone();
            let held = tup(
                0,
                1_000 + i as u64,
                12_000 + i as u64 * 500,
                &vals(i as u64 + 1),
            );
            for bl in [&mut hashed, &mut scan] {
                let idx =
                    bl.upsert_entry(mns.clone(), cols.clone(), SuspendMode::Suspend, mns.ts());
                bl.add_tuple(idx, held.clone(), None);
            }
        }
        let b = tup(1, 9, 30_000, &[3]);
        let probes: Vec<Tuple> = (0..35u64)
            .map(|i| tup(0, 500 + i, 40_000, &vals(i)))
            .chain(more.iter().filter_map(|m| m.join(&b).ok()))
            .chain(more.iter().cloned())
            .collect();
        assert_agree(&mut hashed, &mut scan, &probes, "filled");
        for step in 0..9u64 {
            for k in [step * 7, step * 7 + 3] {
                let key = more[k as usize].key();
                assert_eq!(
                    hashed.remove_entry(&key).map(|e| e.tuples.len()),
                    scan.remove_entry(&key).map(|e| e.tuples.len())
                );
            }
            let now = Timestamp::from_millis(70_000 + step * 4_000);
            assert_eq!(hashed.purge(window(), now), scan.purge(window(), now));
            assert_agree(&mut hashed, &mut scan, &probes, &format!("step {step}"));
        }
        // Compaction ran (the slab is shorter than the 97 entries ever
        // inserted) and left tombstones bounded by the live count.
        assert!(hashed.slots.len() < 97);
        assert!(hashed.slots.len() - hashed.live <= hashed.live.max(16));
    }

    /// Both blacklists hold the same live entries and pick the same entry
    /// for every probe.
    fn assert_agree(h: &mut Blacklist, s: &mut Blacklist, probes: &[Tuple], label: &str) {
        assert_eq!(h.num_entries(), s.num_entries(), "{label}");
        assert_eq!(h.num_tuples(), s.num_tuples(), "{label}");
        assert_eq!(h.size_bytes(), s.size_bytes(), "{label}");
        assert_eq!(h.next_expiry(), s.next_expiry(), "{label}");
        for allow_similar in [false, true] {
            for p in probes {
                assert_eq!(
                    h.matching_entry(p, allow_similar),
                    s.matching_entry(p, allow_similar),
                    "{label}: probe {p} similar={allow_similar}"
                );
            }
        }
    }

    /// Tombstones are layout, not content: a blacklist that has seen
    /// removals and purges checkpoints exactly like a freshly built one
    /// holding the same live entries.
    #[test]
    fn checkpoint_ignores_tombstones() {
        let mut bl = Blacklist::new("B");
        for i in 0..10u64 {
            let mns = tup(0, i, i * 10_000, &[i as i64, (i % 3) as i64]);
            let cols = if i % 2 == 0 { sig_cols() } else { vec![] };
            let idx = bl.upsert_entry(mns.clone(), cols, SuspendMode::Suspend, mns.ts());
            bl.add_tuple(
                idx,
                tup(0, 100 + i, i * 10_000 + 5_000, &[1, 2]),
                Some(mns.ts()),
            );
        }
        bl.remove_entry(&tup(0, 4, 0, &[]).key());
        bl.remove_entry(&tup(0, 7, 0, &[]).key());
        // Expires entries 0 and 1 whole and entry 2's MNS but not its tuple.
        assert_eq!(bl.purge(window(), Timestamp::from_millis(81_000)), 2);
        assert!(bl.slots.len() > bl.num_entries(), "tombstones remain");

        let mut fresh = Blacklist::new("B");
        for e in bl.iter() {
            let idx = fresh.upsert_entry(
                e.mns.clone(),
                e.signature_columns.clone(),
                e.mode,
                e.suspended_at,
            );
            for t in &e.tuples {
                fresh.add_tuple(idx, t.tuple.clone(), t.joined_up_to);
            }
        }
        assert_eq!(fresh.slots.len(), fresh.num_entries());
        assert_eq!(bl.checkpoint(), fresh.checkpoint());
        assert_eq!(bl.size_bytes(), fresh.size_bytes());
        // Restoring the checkpoint reproduces it, layout aside.
        let mut restored = Blacklist::new("B");
        restored.restore_checkpoint(&bl.checkpoint()).unwrap();
        assert_eq!(restored.checkpoint(), fresh.checkpoint());
    }

    /// A super-tuple probe (components from several sources) is found via
    /// the component index.
    #[test]
    fn hashed_lookup_finds_entry_for_supertuple_probe() {
        let mut bl = Blacklist::new("B");
        let a1 = tup(0, 1, 1_000, &[7, 100]);
        bl.upsert_entry(a1.clone(), sig_cols(), SuspendMode::Suspend, a1.ts());
        let b = tup(1, 9, 1_500, &[7]);
        let a1b = a1.join(&b).unwrap();
        assert_eq!(bl.matching_entry(&a1b, false), Some(0));
        // A composite that does not contain a1 is not captured.
        let a2 = tup(0, 2, 1_000, &[7, 999]);
        let a2b = a2.join(&b).unwrap();
        assert_eq!(bl.matching_entry(&a2b, false), None);
    }

    #[test]
    fn checkpoint_round_trips_entries_and_bytes() {
        let mut bl = Blacklist::new("B");
        let a1 = tup(0, 1, 0, &[7, 100]);
        let idx = bl.upsert_entry(a1.clone(), sig_cols(), SuspendMode::Suspend, a1.ts());
        bl.add_tuple(idx, a1.clone(), Some(Timestamp::from_millis(5)));
        bl.add_tuple(idx, tup(0, 2, 10, &[9, 100]), None);
        bl.upsert_entry(tup(0, 3, 20, &[1, 200]), vec![], SuspendMode::Mark, a1.ts());
        let blob = bl.checkpoint();
        let mut restored = Blacklist::new("B");
        restored.restore_checkpoint(&blob).unwrap();
        assert_eq!(restored.num_entries(), bl.num_entries());
        assert_eq!(restored.num_tuples(), bl.num_tuples());
        assert_eq!(restored.size_bytes(), bl.size_bytes());
        assert_eq!(restored.entry(0).mode, SuspendMode::Suspend);
        assert_eq!(
            restored.entry(0).tuples[0].joined_up_to,
            Some(Timestamp::from_millis(5))
        );
        // The rebuilt indexes answer probes like the original.
        assert_eq!(
            restored.matching_entry(&a1, true),
            bl.matching_entry(&a1, true)
        );
        assert_eq!(restored.entry_index(&a1.key()), bl.entry_index(&a1.key()));
        // A checkpoint from a differently named blacklist is rejected.
        let mut other = Blacklist::new("C");
        assert!(other.restore_checkpoint(&blob).is_err());
    }

    #[test]
    fn empty_mns_entry_captures_everything_and_survives_purge() {
        let mut bl = Blacklist::new("B");
        let idx = bl.upsert_entry(
            Tuple::empty(),
            vec![],
            SuspendMode::Suspend,
            Timestamp::ZERO,
        );
        assert_eq!(bl.matching_entry(&tup(0, 1, 5, &[1]), false), Some(idx));
        // The Ø entry has no timestamp, so it is never purged by the window.
        assert_eq!(bl.purge(window(), Timestamp::from_millis(10_000_000)), 0);
        assert_eq!(bl.num_entries(), 1);
    }
}
