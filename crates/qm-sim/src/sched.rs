//! Run-loop scheduling structures: per-PE ready queues and the min-clock
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
//! * one lazy min-heap of `(time, pe)` *actor candidates*. Entries are
//!   hints, maintained under the invariant that every runnable PE has at
//!   least one entry at or below its true next-action time. Stale entries
//!   are re-validated against the caller on pop and corrected, so the
//!   selected `(time, pe)` is always exactly what the linear scan would
//!   have chosen — including the tie-break — at `O(log)` cost.
//!
//! Each PE has exactly one *live* candidate at a time, tracked in
//! `planted`; heap entries that no longer match it are garbage and are
//! discarded unexamined when popped (lazy deletion). An earlier revision
//! instead re-pushed every corrected hint, so the heap's population never
//! shrank: every step re-popped and re-pushed all entries below the
//! advancing clock, making per-step cost grow with the total hints ever
//! planted — O(total contexts) per step at 1 PE, the superlinear
//! single-PE slowdown fixed by this design. With the live-candidate rule
//! the heap holds at most one live entry per PE plus already-superseded
//! garbage that each cost one O(log) pop, ever.
//!
//! The equivalence with the linear scan is locked by the property test
//! in `tests/sched_linear_equivalence.rs`, which keeps the scan as its
//! reference model.

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

/// The run loop's scheduling state: per-PE ready queues plus the actor
/// heap selecting which PE steps next.
#[derive(Debug, Default)]
pub struct Scheduler {
    ready: Vec<BinaryHeap<Reverse<ReadyKey>>>,
    /// Lazy candidates `(time, pe)`. Invariant: every PE that can act has
    /// an entry with `time` ≤ its true next-action time.
    actors: BinaryHeap<Reverse<(u64, usize)>>,
    /// The one *live* hint time per PE (`None` = no live hint). A heap
    /// entry `(t, pe)` with `t != planted[pe]` is garbage: superseded by
    /// a better hint or already consumed — dropped on pop without
    /// consulting the caller.
    planted: Vec<Option<u64>>,
    /// Monotone arrival counter for FIFO tie-breaking.
    seq: u64,
}

impl Scheduler {
    /// A scheduler for `pes` processing elements, all queues empty.
    #[must_use]
    pub fn new(pes: usize) -> Self {
        Scheduler {
            ready: (0..pes).map(|_| BinaryHeap::new()).collect(),
            actors: BinaryHeap::new(),
            planted: vec![None; pes],
            seq: 0,
        }
    }

    /// Improve `pe`'s live hint to the lower bound `t`: plants a heap
    /// entry only when `t` beats the current live hint, so a PE never
    /// owns more than one live entry (anything older becomes garbage).
    fn plant(&mut self, pe: usize, t: u64) {
        if self.planted[pe].is_none_or(|cur| t < cur) {
            self.planted[pe] = Some(t);
            self.actors.push(Reverse((t, pe)));
        }
    }

    /// Number of PEs scheduled over.
    #[must_use]
    pub fn pes(&self) -> usize {
        self.ready.len()
    }

    /// Queue `ctx` as ready on `pe` from cycle `ready_at` on. Also plants
    /// an actor-heap hint: `ready_at` is a lower bound on the PE's new
    /// next-action time, which preserves the heap invariant even when the
    /// caller cannot see that PE's clock (the cross-PE wake path).
    pub fn push_ready(&mut self, pe: usize, ctx: CtxId, ready_at: u64) {
        self.ready[pe].push(Reverse((ready_at, self.seq, ctx)));
        self.seq += 1;
        self.plant(pe, ready_at);
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

    /// Re-plant `pe`'s actor candidate after its state changed (the
    /// caller passes the freshly computed next-action time, or `None`
    /// when the PE has nothing to do). Authoritative: it *replaces* the
    /// live hint, retiring any previous entry to garbage — unless the
    /// hint is already exactly `time`, in which case its live heap entry
    /// is kept and nothing is pushed.
    pub fn refresh(&mut self, pe: usize, time: Option<u64>) {
        if self.planted[pe] == time {
            return;
        }
        self.planted[pe] = time;
        if let Some(t) = time {
            self.actors.push(Reverse((t, pe)));
        }
    }

    /// Drop every actor candidate — used when entering the run loop,
    /// after arbitrary outside mutation. The caller re-plants each PE
    /// with [`Scheduler::refresh`]; no intermediate collection is
    /// built, keeping run-loop entry allocation-free.
    pub fn clear_actors(&mut self) {
        self.actors.clear();
        self.planted.fill(None);
    }

    /// Export the scheduler's durable state for snapshots: per-PE ready
    /// entries `(ready_at, arrival, ctx)` in ascending key order, plus
    /// the arrival counter. The actor heap is deliberately *not*
    /// exported — it is a lazy cache of hints that [`Scheduler::rebuild`]
    /// reconstructs at run-loop entry, and [`Scheduler::next_actor`]
    /// returns the same choice for any hint multiset satisfying the
    /// invariant.
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
    /// is preserved exactly; the actor heap starts empty (callers run
    /// `rebuild` before scheduling).
    #[must_use]
    pub(crate) fn restore_ready(ready: Vec<Vec<ReadyKey>>, seq: u64) -> Self {
        let pes = ready.len();
        Scheduler {
            ready: ready
                .into_iter()
                .map(|entries| entries.into_iter().map(Reverse).collect())
                .collect(),
            actors: BinaryHeap::new(),
            planted: vec![None; pes],
            seq,
        }
    }

    /// A lower bound on the next-action `(time, pe)` key of every PE
    /// *except* `exclude`, or `None` when no other PE can act. O(log)
    /// amortized: garbage entries met on the way are drained (exactly as
    /// [`Scheduler::next_actor`] would), `exclude`'s own live entry is
    /// stepped over and re-planted untouched, and the first other live
    /// hint is returned *without* consuming it. Because every hint obeys
    /// the heap invariant (`time` ≤ the PE's true next-action time), the
    /// returned key is a conservative bound — exact in the common case,
    /// since hints are refreshed to exact times whenever a PE acts.
    ///
    /// The full `(time, pe)` key is returned because it is exactly what
    /// [`Scheduler::next_actor`]'s heap orders by: a caller racing
    /// `exclude` against this bound can therefore reproduce the serial
    /// tie-break (lowest PE index at equal times), not just the time.
    ///
    /// The translated engine's batch loop uses this to decide how far
    /// the acting PE may run *globally visible* instructions before
    /// another PE could observe the difference (`qm-sim::xlate`).
    pub(crate) fn min_other_hint(&mut self, exclude: usize) -> Option<(u64, usize)> {
        let mut stash = None;
        let hint = loop {
            match self.actors.peek() {
                None => break None,
                Some(&Reverse((t, pe))) => {
                    if self.planted[pe] != Some(t) {
                        self.actors.pop(); // garbage: superseded or consumed
                    } else if pe == exclude {
                        // At most one live entry per PE: step over it.
                        stash = self.actors.pop();
                    } else {
                        break Some((t, pe));
                    }
                }
            }
        };
        if let Some(e) = stash {
            self.actors.push(e);
        }
        hint
    }

    /// The next `(pe, time)` to act, or `None` when no PE can.
    ///
    /// `eval` computes a PE's true next-action time right now, given the
    /// earliest `ready_at` queued on it (`None` when it cannot act).
    /// Garbage entries (superseded or consumed hints) are dropped without
    /// consulting `eval`; the live hint is validated against `eval` and
    /// corrected when stale. The returned pair is exactly the linear
    /// scan's choice: minimum time, ties to the lowest PE index.
    ///
    /// The returned PE's live hint is *consumed* — callers must `refresh`
    /// it after acting (the run loop does, on every path) or `rebuild`
    /// before scheduling again (run-loop entry does).
    pub fn next_actor(
        &mut self,
        mut eval: impl FnMut(usize, Option<u64>) -> Option<u64>,
    ) -> Option<(usize, u64)> {
        while let Some(Reverse((t, pe))) = self.actors.pop() {
            if self.planted[pe] != Some(t) {
                continue; // garbage: superseded by a better hint
            }
            self.planted[pe] = None;
            let min_ready = self.min_ready_at(pe);
            match eval(pe, min_ready) {
                Some(actual) if actual == t => return Some((pe, t)),
                // Stale lower bound: re-plant at the exact time. The hint
                // invariant guarantees `actual > t`, so this terminates —
                // each correction strictly advances the PE's hint.
                Some(actual) => self.plant(pe, actual),
                None => {}
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
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
        let pick = s.next_actor(|pe, mr| mr.map(|r| r.max(clocks[pe])));
        assert_eq!(pick, Some((1, 7)), "PE 0's true time is 10, so PE 1 wins");
        // PE 0's corrected entry survives for the next round.
        let pick = s.next_actor(|pe, mr| mr.map(|r| r.max(clocks[pe])));
        assert_eq!(pick, Some((0, 10)));
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
}
