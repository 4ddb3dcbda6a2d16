//! Run-loop scheduling structures: per-PE ready queues and the indexed
//! actor heap.
//!
//! The run loop must repeatedly answer two questions:
//!
//! 1. *Which PE acts next?* Causal ordering across PEs requires stepping
//!    the PE whose next action has the earliest cycle time (ties broken
//!    by PE index).
//! 2. *Which context does that PE dispatch?* The ready context with the
//!    earliest `ready_at` (FIFO among ties).
//!
//! The original implementation answered both with linear scans — every
//! simulated instruction re-walked all PEs and their ready queues, so
//! blocked contexts were paid for on every step. This module replaces the
//! scans with:
//!
//! * a binary min-heap per PE over `(ready_at, arrival)` keys — dispatch
//!   is a pop, the earliest `ready_at` is a peek, and parked (blocked)
//!   contexts sit in *no* structure at all;
//! * one indexed min-heap of actor *hints*: exactly one entry per PE that
//!   may act, plus a per-PE position map. A hint is a lower bound on its
//!   PE's true next-action time, and every PE that can act has one.
//!   [`Scheduler::next_actor`] validates the root against the caller and
//!   corrects a stale hint in place, so the selected `(time, pe)` is
//!   always exactly what the linear scan would have chosen — including
//!   the tie-break. It peeks: the chosen entry stays in the heap, and
//!   the run loop re-keys it after the PE acts.
//!
//! Every key change is one sift. Keys are packed into one `u128`,
//! `(time << 64) | pe`, whose integer order is the `(time, pe)` order the
//! scheduler needs (no overflow at `time == u64::MAX`), and a sift picks
//! the lesser child without a branch on the comparison. Because each PE
//! owns at most one entry, the PE that acts next is the root, and
//! `Scheduler::min_other_hint` — the least key of every PE but one — is
//! the root or the lesser of its two children: O(1).
//!
//! Keeping exactly one entry per PE is what makes a hand-off between
//! PEs cheap: on multi-PE runs almost half of all steps hand off, and a
//! lazy heap with superseded entries paid three or four heap operations
//! for each.
//!
//! `Scheduler::wakes` counts the pushes that lowered some PE's key.
//! Nothing else lowers another PE's key while one PE acts, so a
//! `Scheduler::min_other_hint` bound stays valid for as long as the
//! counter stands still — the translated batch loop re-reads the bound
//! only when it moves (`crate::xlate`).
//!
//! The equivalence with the linear scan is locked by the property test
//! in `tests/sched_linear_equivalence.rs`, which keeps the scan as its
//! reference model, and by this module's own property on
//! `min_other_hint` and the wake counter.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::CtxId;

/// Ready-queue ordering key: earliest `ready_at` first, then arrival
/// order (FIFO among equal ready times), then context id (never reached
/// in practice — arrival numbers are unique).
/// One ready-queue entry: `(ready_at, arrival_seq, ctx)`.
pub(crate) type ReadyKey = (u64, u64, CtxId);

/// The scheduler's durable snapshot state: per-PE sorted ready entries
/// plus the arrival counter (see [`Scheduler::export_ready`]).
pub(crate) type ReadyState = (Vec<Vec<ReadyKey>>, u64);

/// An actor-heap key: the hint time in the high half, the PE in the low
/// half, so integer order is `(time, pe)` order.
fn pack(time: u64, pe: usize) -> u128 {
    (u128::from(time) << 64) | pe as u128
}

/// The `(time, pe)` of an actor-heap key.
#[allow(clippy::cast_possible_truncation)]
fn unpack(key: u128) -> (u64, usize) {
    ((key >> 64) as u64, key as u64 as usize)
}

/// The PE of an actor-heap key.
#[allow(clippy::cast_possible_truncation)]
fn pe_of(key: u128) -> usize {
    key as u64 as usize
}

/// Position-map value of a PE with no actor-heap entry.
const ABSENT: usize = usize::MAX;

/// The run loop's scheduling state: per-PE ready queues plus the actor
/// heap selecting which PE steps next.
#[derive(Debug, Default)]
pub struct Scheduler {
    ready: Vec<BinaryHeap<Reverse<ReadyKey>>>,
    /// Indexed min-heap of packed `(time, pe)` hints, at most one per
    /// PE. Invariant: every PE that can act has an entry whose time is
    /// ≤ its true next-action time.
    actors: Vec<u128>,
    /// `pos[pe]`: the index of `pe`'s entry in `actors`, or [`ABSENT`].
    pos: Vec<usize>,
    /// Pushes that lowered some PE's key (see `Scheduler::wakes`).
    wakes: u64,
    /// Monotone arrival counter for FIFO tie-breaking.
    seq: u64,
}

impl Scheduler {
    /// A scheduler for `pes` processing elements, all queues empty.
    #[must_use]
    pub fn new(pes: usize) -> Self {
        Self::restore_ready((0..pes).map(|_| Vec::new()).collect(), 0)
    }

    /// Number of PEs scheduled over.
    #[must_use]
    pub fn pes(&self) -> usize {
        self.ready.len()
    }

    /// `pe`'s current hint time, if it has an entry.
    fn hint(&self, pe: usize) -> Option<u64> {
        let p = self.pos[pe];
        (p != ABSENT).then(|| unpack(self.actors[p]).0)
    }

    /// Set `pe`'s hint to `time`, inserting an entry when it has none:
    /// one sift.
    fn set_hint(&mut self, pe: usize, time: u64) {
        let key = pack(time, pe);
        match self.pos[pe] {
            ABSENT => {
                self.actors.push(key);
                self.sift_up(self.actors.len() - 1);
            }
            p if key < self.actors[p] => {
                self.actors[p] = key;
                self.sift_up(p);
            }
            p => {
                self.actors[p] = key;
                self.sift_down(p);
            }
        }
    }

    /// Drop `pe`'s entry, if any: the last entry fills the hole and
    /// sifts from there.
    fn remove_hint(&mut self, pe: usize) {
        let p = std::mem::replace(&mut self.pos[pe], ABSENT);
        if p == ABSENT {
            return;
        }
        let removed = self.actors[p];
        let last = self.actors.pop().expect("a present entry");
        if p < self.actors.len() {
            self.actors[p] = last;
            if last < removed {
                self.sift_up(p);
            } else {
                self.sift_down(p);
            }
        }
    }

    /// Move the entry at `k` towards the root to its place.
    fn sift_up(&mut self, mut k: usize) {
        let key = self.actors[k];
        while k > 0 {
            let parent = (k - 1) / 2;
            let above = self.actors[parent];
            if above < key {
                break;
            }
            self.actors[k] = above;
            self.pos[pe_of(above)] = k;
            k = parent;
        }
        self.actors[k] = key;
        self.pos[pe_of(key)] = k;
    }

    /// Move the entry at `k` towards the leaves to its place.
    fn sift_down(&mut self, mut k: usize) {
        let key = self.actors[k];
        let len = self.actors.len();
        loop {
            let left = 2 * k + 1;
            if left >= len {
                break;
            }
            // The lesser child, chosen by arithmetic rather than a
            // branch on the comparison.
            let child = if left + 1 < len {
                left + usize::from(self.actors[left + 1] < self.actors[left])
            } else {
                left
            };
            let below = self.actors[child];
            if key < below {
                break;
            }
            self.actors[k] = below;
            self.pos[pe_of(below)] = k;
            k = child;
        }
        self.actors[k] = key;
        self.pos[pe_of(key)] = k;
    }

    /// Queue `ctx` as ready on `pe` from cycle `ready_at` on. Also
    /// lowers `pe`'s actor hint to `ready_at` when that is below it (or
    /// plants one): `ready_at` is a lower bound on the PE's new
    /// next-action time, which preserves the heap invariant even when
    /// the caller cannot see that PE's clock (the cross-PE wake path).
    /// A push that lowers a key counts as a wake (`Scheduler::wakes`).
    pub fn push_ready(&mut self, pe: usize, ctx: CtxId, ready_at: u64) {
        self.ready[pe].push(Reverse((ready_at, self.seq, ctx)));
        self.seq += 1;
        if self.hint(pe).is_none_or(|h| ready_at < h) {
            self.set_hint(pe, ready_at);
            self.wakes += 1;
        }
    }

    /// Number of contexts queued ready on `pe`.
    #[must_use]
    pub fn ready_len(&self, pe: usize) -> usize {
        self.ready[pe].len()
    }

    /// Earliest `ready_at` queued on `pe`, if any.
    #[must_use]
    pub fn min_ready_at(&self, pe: usize) -> Option<u64> {
        self.ready[pe].peek().map(|&Reverse((at, _, _))| at)
    }

    /// Dequeue the ready context on `pe` with the earliest `ready_at`
    /// (FIFO among ties) — the dispatch choice.
    pub fn pop_ready(&mut self, pe: usize) -> Option<CtxId> {
        self.ready[pe].pop().map(|Reverse((_, _, ctx))| ctx)
    }

    /// Re-key `pe`'s actor hint after its state changed (the caller
    /// passes the freshly computed next-action time, or `None` when the
    /// PE has nothing to do). Authoritative: it *replaces* the hint,
    /// with one sift, or drops the entry; an unchanged hint costs one
    /// compare.
    pub fn refresh(&mut self, pe: usize, time: Option<u64>) {
        match time {
            Some(t) if self.hint(pe) != Some(t) => self.set_hint(pe, t),
            Some(_) => {}
            None => self.remove_hint(pe),
        }
    }

    /// Drop every actor hint — used when entering the run loop, after
    /// arbitrary outside mutation. The caller re-plants each PE with
    /// [`Scheduler::refresh`]; no intermediate collection is built,
    /// keeping run-loop entry allocation-free.
    pub fn clear_actors(&mut self) {
        for &key in &self.actors {
            self.pos[pe_of(key)] = ABSENT;
        }
        self.actors.clear();
    }

    /// Export the scheduler's durable state for snapshots: per-PE ready
    /// entries `(ready_at, arrival, ctx)` in ascending key order, plus
    /// the arrival counter. The actor heap and the wake counter are
    /// deliberately *not* exported — the heap is a cache of hints that
    /// the run loop re-plants at entry, and [`Scheduler::next_actor`]
    /// returns the same choice for any hints satisfying the invariant.
    #[must_use]
    pub(crate) fn export_ready(&self) -> ReadyState {
        let mut out: Vec<Vec<ReadyKey>> = Vec::with_capacity(self.ready.len());
        for heap in &self.ready {
            let mut entries: Vec<ReadyKey> = heap.iter().map(|&Reverse(k)| k).collect();
            entries.sort_unstable();
            out.push(entries);
        }
        (out, self.seq)
    }

    /// Rebuild a scheduler from [`Scheduler::export_ready`] state. Ready
    /// entries keep their original arrival numbers, so FIFO tie-breaking
    /// is preserved exactly; the actor heap starts empty (the run loop
    /// re-plants every PE before scheduling).
    #[must_use]
    pub(crate) fn restore_ready(ready: Vec<Vec<ReadyKey>>, seq: u64) -> Self {
        let pes = ready.len();
        Scheduler {
            ready: ready
                .into_iter()
                .map(|entries| entries.into_iter().map(Reverse).collect())
                .collect(),
            actors: Vec::with_capacity(pes),
            pos: vec![ABSENT; pes],
            wakes: 0,
            seq,
        }
    }

    /// A lower bound on the next-action `(time, pe)` key of every PE
    /// *except* `exclude`, or `None` when no other PE can act. O(1):
    /// with at most one entry per PE, it is the root, or — when the root
    /// is `exclude`'s — the lesser of the root's two children. Because
    /// every hint obeys the heap invariant (`time` ≤ the PE's true
    /// next-action time), the returned key is a conservative bound —
    /// exact in the common case, since hints are re-keyed to exact times
    /// whenever a PE acts.
    ///
    /// The full `(time, pe)` key is returned because it is exactly what
    /// [`Scheduler::next_actor`] orders by: a caller racing `exclude`
    /// against this bound can therefore reproduce the serial tie-break
    /// (lowest PE index at equal times), not just the time.
    ///
    /// The translated engine's batch loop uses this to decide how far
    /// the acting PE may run *globally visible* instructions before
    /// another PE could observe the difference (`qm-sim::xlate`).
    #[must_use]
    pub(crate) fn min_other_hint(&self, exclude: usize) -> Option<(u64, usize)> {
        let key = match *self.actors.as_slice() {
            [] => return None,
            [root, ..] if pe_of(root) != exclude => root,
            [_] => return None,
            [_, a] => a,
            [_, a, b, ..] => a.min(b),
        };
        Some(unpack(key))
    }

    /// How many pushes so far lowered some PE's actor key (a wake, a
    /// fork or a `WAIT` re-queue that beat the PE's hint). Only such a
    /// push can lower another PE's key while one PE acts, so a
    /// `Scheduler::min_other_hint` bound read when this counter stood
    /// at `n` is still a lower bound while it stands at `n`.
    #[must_use]
    pub(crate) fn wakes(&self) -> u64 {
        self.wakes
    }

    /// The next `(pe, time)` to act, or `None` when no PE can.
    ///
    /// `eval` computes a PE's true next-action time right now, given the
    /// earliest `ready_at` queued on it (`None` when it cannot act). The
    /// root hint is validated against `eval` and, when stale, corrected
    /// in place (or dropped when the PE cannot act) until the root is
    /// exact. The returned pair is exactly the linear scan's choice:
    /// minimum time, ties to the lowest PE index.
    ///
    /// Nothing is consumed: the chosen PE keeps its exact entry, which
    /// the run loop re-keys with [`Scheduler::refresh`] after the PE
    /// acts, and asking again without acting returns the same pair.
    pub fn next_actor(
        &mut self,
        mut eval: impl FnMut(usize, Option<u64>) -> Option<u64>,
    ) -> Option<(usize, u64)> {
        while let Some(&root) = self.actors.first() {
            let (t, pe) = unpack(root);
            match eval(pe, self.min_ready_at(pe)) {
                Some(actual) if actual == t => return Some((pe, t)),
                // Stale lower bound: re-key at the exact time. The hint
                // invariant guarantees `actual > t`, so this terminates —
                // each correction strictly advances the PE's hint.
                Some(actual) => {
                    debug_assert!(actual > t, "pe {pe}: hint {t} above its true time {actual}");
                    self.actors[0] = pack(actual, pe);
                    self.sift_down(0);
                }
                None => self.remove_hint(pe),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use qm_core::rng::{check, Gen};

    use super::*;

    #[test]
    fn pop_ready_is_fifo_among_equal_ready_times() {
        let mut s = Scheduler::new(1);
        s.push_ready(0, 7, 5);
        s.push_ready(0, 8, 5);
        s.push_ready(0, 9, 3);
        assert_eq!(s.min_ready_at(0), Some(3));
        assert_eq!(s.pop_ready(0), Some(9), "earliest ready_at first");
        assert_eq!(s.pop_ready(0), Some(7), "FIFO among ties");
        assert_eq!(s.pop_ready(0), Some(8));
        assert_eq!(s.pop_ready(0), None);
    }

    #[test]
    fn next_actor_prefers_earliest_time_then_lowest_pe() {
        let mut s = Scheduler::new(3);
        s.push_ready(0, 0, 9);
        s.push_ready(1, 1, 4);
        s.push_ready(2, 2, 4);
        let clocks = [0u64; 3];
        let pick = s.next_actor(|pe, mr| mr.map(|r| r.max(clocks[pe])));
        assert_eq!(pick, Some((1, 4)), "tie between PE 1 and 2 goes to PE 1");
    }

    #[test]
    fn stale_hints_are_corrected_not_trusted() {
        let mut s = Scheduler::new(2);
        // The hint says 2, but the PE's clock has advanced to 10.
        s.push_ready(0, 0, 2);
        s.push_ready(1, 1, 7);
        let clocks = [10u64, 0];
        let eval = |pe: usize, mr: Option<u64>| mr.map(|r| r.max(clocks[pe]));
        assert_eq!(s.next_actor(eval), Some((1, 7)), "PE 0's true time is 10, so PE 1 wins");
        // Nothing was consumed: the same question gets the same answer,
        // and PE 0's hint was corrected in place.
        assert_eq!(s.next_actor(eval), Some((1, 7)));
        assert_eq!(s.min_other_hint(1), Some((10, 0)));
        // Once PE 1 has nothing left to do, PE 0's corrected entry is next.
        assert_eq!(s.pop_ready(1), Some(1));
        s.refresh(1, None);
        assert_eq!(s.next_actor(eval), Some((0, 10)));
    }

    #[test]
    fn export_restore_preserves_fifo_order_and_arrival_counter() {
        let mut s = Scheduler::new(2);
        s.push_ready(0, 7, 5);
        s.push_ready(0, 8, 5);
        s.push_ready(1, 9, 3);
        let (ready, seq) = s.export_ready();
        assert_eq!(seq, 3);
        let (again, _) = s.export_ready();
        assert_eq!(again, ready, "export is sorted, hence deterministic");
        let mut r = Scheduler::restore_ready(ready, seq);
        assert_eq!(r.pop_ready(0), Some(7), "FIFO among ties survives the round trip");
        assert_eq!(r.pop_ready(0), Some(8));
        assert_eq!(r.pop_ready(1), Some(9));
        r.push_ready(0, 10, 0);
        let (restored, seq) = r.export_ready();
        assert_eq!(seq, 4, "arrival counter continues from the snapshot");
        assert_eq!(restored[0], vec![(0, 3, 10)]);
    }

    #[test]
    fn exhausted_scheduler_reports_none() {
        let mut s = Scheduler::new(2);
        assert_eq!(s.next_actor(|_, _| None), None);
        s.push_ready(0, 0, 1);
        // The context blocked meanwhile: eval sees no runnable work.
        assert_eq!(s.next_actor(|_, _| None), None);
        assert_eq!(s.next_actor(|_, _| None), None, "stale hints drained, still none");
    }

    /// The heap's structure: the min-heap order holds and the position
    /// map indexes exactly the entries present.
    fn assert_well_formed(s: &Scheduler) {
        for k in 1..s.actors.len() {
            assert!(s.actors[(k - 1) / 2] < s.actors[k], "heap order broken at {k}");
        }
        for (k, &key) in s.actors.iter().enumerate() {
            assert_eq!(s.pos[pe_of(key)], k, "position map disagrees at {k}");
        }
        let present = s.pos.iter().filter(|&&p| p != ABSENT).count();
        assert_eq!(present, s.actors.len(), "one entry per PE, no strays");
    }

    /// The least `(hint, pe)` over every PE but `exclude`, by scan.
    fn linear_min_other(hints: &[Option<u64>], exclude: usize) -> Option<(u64, usize)> {
        (0..hints.len()).filter(|&pe| pe != exclude).filter_map(|pe| Some((hints[pe]?, pe))).min()
    }

    /// A hint time: small, or (one draw in four) within 64 of `u64::MAX`.
    fn hint_time(g: &mut Gen) -> u64 {
        let small: u64 = g.range(0..64);
        if g.below(4) == 0 {
            u64::MAX - small
        } else {
            small
        }
    }

    /// The property: driven through random pushes, re-keyings, actor
    /// choices and clears on 1, 2, 17 or 1024 PEs, the heap agrees with
    /// a linear model of the documented hint rules on every PE's hint,
    /// on `min_other_hint` for every PE (a sample of them at 1024 PEs)
    /// and on the wake counter.
    fn heap_matches_linear_model(g: &mut Gen) {
        let pes = *g.pick(&[1, 2, 17, 1024]);
        let mut s = Scheduler::new(pes);
        let mut hints: Vec<Option<u64>> = vec![None; pes];
        let mut wakes = 0u64;
        let steps: usize = g.range(1..300);
        for ctx in 0..steps {
            match g.weighted(&[8, 6, 4, 1]) {
                0 => {
                    let (pe, at) = (g.range(0..pes), hint_time(g));
                    s.push_ready(pe, ctx, at);
                    if hints[pe].is_none_or(|h| at < h) {
                        hints[pe] = Some(at);
                        wakes += 1;
                    }
                }
                1 => {
                    let pe = g.range(0..pes);
                    let time = (g.below(4) != 0).then(|| hint_time(g));
                    s.refresh(pe, time);
                    hints[pe] = time;
                }
                2 => {
                    // True next-action times: at or above each hint.
                    let truth: Vec<Option<u64>> = hints
                        .iter()
                        .map(|h| {
                            let h = (*h)?;
                            let ahead: u64 = g.range(0..3);
                            (g.below(5) != 0).then(|| h.saturating_add(ahead))
                        })
                        .collect();
                    let want = loop {
                        let Some((t, pe)) = linear_min_other(&hints, usize::MAX) else {
                            break None;
                        };
                        match truth[pe] {
                            Some(a) if a == t => break Some((pe, t)),
                            a => hints[pe] = a,
                        }
                    };
                    assert_eq!(s.next_actor(|pe, _| truth[pe]), want, "actor choice");
                }
                _ => {
                    s.clear_actors();
                    hints.fill(None);
                }
            }
            assert_well_formed(&s);
            assert_eq!(s.wakes(), wakes, "wake counter");
            for (pe, &h) in hints.iter().enumerate() {
                assert_eq!(s.hint(pe), h, "hint of pe {pe}");
            }
            let sample: Vec<usize> = if pes <= 17 {
                (0..pes).collect()
            } else {
                let mut v: Vec<usize> = s.actors.iter().take(3).map(|&k| pe_of(k)).collect();
                v.extend((0..4).map(|_| g.range(0..pes)));
                v
            };
            for i in sample {
                assert_eq!(s.min_other_hint(i), linear_min_other(&hints, i), "min_other_hint({i})");
            }
        }
    }

    #[test]
    fn heap_matches_linear_model_on_random_transitions() {
        check(96, heap_matches_linear_model);
    }
}
