//! Translated execution: the simulator's one engine for the PE hot loop.
//!
//! Fetching and decoding costs two things per simulated instruction
//! that never change for a given code word: three `fetch_code` hash
//! lookups and a full decode. `XProgram` pays them *once per code
//! address*, caching the [`DecodedInstr`] (operands resolved, exec
//! function pointer bound) for every word of the loaded object. The run
//! loop then dispatches straight into the shared exec functions — the
//! same ones `Pe::step` runs — so the engine cannot disagree with the
//! `Pe::step` oracle on cycles, statistics, traces or
//! snapshot bytes. That bit-identity is the engine contract
//! (`docs/DETERMINISM.md`), pinned by the qm-workloads test
//! `tests/xlate_equivalence.rs` and the full sweep's `identical` flag.
//!
//! # Fallback ladder
//!
//! Translation needs no verifier certificate: it degrades — never
//! diverges — in three ways, each ending in `Pe::step`, which
//! reproduces the reference behaviour or error exactly:
//!
//! * **Per-slot**: a word that does not decode (data in the code
//!   segment, mid-immediate jump targets) gets no slot; executing from
//!   it falls back to `Pe::step`.
//! * **Per-epoch**: any store, host load or poke below `GLOBAL_BASE`
//!   bumps `SharedMemory::code_writes`; a stale `XProgram` is retranslated
//!   from *current* memory before its next use, so self-modifying code
//!   executes its new words exactly like `Pe::step`.
//! * **Per-run**: pathologically self-modifying programs (more than
//!   `MAX_RETRANSLATIONS` epochs) drop the translation for the rest of
//!   the run and execute every step on `Pe::step`, unbatched — a
//!   host-side throttle with no architectural effect. Tests put a run
//!   into this state on purpose to use `Pe::step` as the oracle.
//!
//! # The batched serial fast path
//!
//! Caching the decode is not enough for the target speed-up: in the
//! serial run loop the per-step scheduler bookkeeping costs more than
//! the decode did. When the acting PE just retired an instruction and
//! the run is untraced, `System::run_translated_batch` keeps stepping
//! that PE's context in a tight loop — channel operations included,
//! against the real kernel services — without re-proving the schedule
//! per step. Two rules
//! decide how far it may run, both inside the hard bound of the pause
//! limit and the next snapshot boundary, and a third decides where it
//! continues when the first rule stops it:
//!
//! * **Any step may run while this PE is provably next.** While the
//!   PE's `(clock, pe)` key compares below a conservative lower bound
//!   on every other PE's next-action key
//!   (`Scheduler::min_other_hint`, O(1) from the indexed actor heap —
//!   not an O(PEs) scan; the lexicographic compare wins equal-time ties
//!   by lower PE index, exactly as the heap does), the serial scheduler
//!   would dispatch this same PE anyway, so executing its next step — a
//!   `send`, a global `store`, even a `trap` — *is* the serial
//!   schedule. The bound is a minimum over other PEs' hints, and while
//!   this PE acts the only way any of those hints can fall is a
//!   `push_ready` that lowers a key: a channel transfer that wakes a
//!   context, a fork or a `WAIT` re-queue. `Scheduler::wakes` counts
//!   those pushes, so the bound is re-read only when the counter has
//!   moved since it was read — not after every non-sequential step (a
//!   third of matmul's instructions are sends and receives). A step that
//!   blocks or traps exits the batch to the outer loop's context-switch
//!   and kernel paths.
//! * **Local-only steps also run ahead of the global cycle order.** A
//!   step that provably touches nothing but the PE's own registers and
//!   local plane ([`DecodedInstr::is_local_only`] — ALU/compare,
//!   branches and `dup`s whose fill/queue addresses are local) commutes
//!   with every other PE's steps: PEs have no shared clock (each
//!   dispatch clamps to the *acting PE's* own cycles), so nothing
//!   another PE does can observe or be observed by it. Concretely, such
//!   a step reads and writes only state no other PE's step reads or
//!   writes — this PE's registers, clock and counters and its own
//!   local-plane words — and its cycle charge depends only on that
//!   state, since a local access never crosses the bus. The statistics
//!   it adds to are plain sums. Swapping it with an adjacent step of
//!   another PE therefore leaves the machine in the same state, and
//!   repeated swaps turn the batched order into the serial one. The
//!   paused/idle states still coincide with the serial schedule's: a
//!   pause at `limit` retires exactly the steps with start cycle below
//!   `limit` in either order, and a deadlock or completion can only be
//!   declared once no runnable work remains anywhere.
//!
//! * **Hand-off to the PE that is provably next.** Say the first rule
//!   stops PE `i` at the bound `(t, j)`: PE `j` holds the least hint of
//!   every PE but `i`, and `(clock_i, i) ≥ (t, j)`. If `j` has a
//!   running context and `t` equals `j`'s clock, the hint is exact,
//!   since a running PE's next-action time *is* its clock. Every other
//!   PE `k` then has a true key at or above its hint, which is above
//!   `(t, j)` because `k ≠ j`, and PE `i`'s key is above it too. So
//!   `(t, j)` is the unique least key, the serial scheduler's next pick
//!   at exactly cycle `t`. The outer loop would pick `j`, find it
//!   running (no dispatch), and step it. The batch does the same
//!   without leaving: it re-keys `i` at its exact clock, switches to
//!   `j`, and reads the bound for `j`. `j`'s first step passes that
//!   bound, because every other key, `i`'s included, is above `(t, j)`.
//!   So every hand-off retires at least one step, and the batch cannot
//!   loop. A hand-off needs `t` below the hard bound; otherwise the
//!   outer loop's pause or snapshot comes first. When `j` is not
//!   running, its next action is a dispatch, which only the outer loop
//!   performs, so the batch exits as before. Local-only steps that `i`
//!   ran ahead of the cycle order are unaffected: the outer loop would
//!   have made the same choice from the same state after the batch
//!   exited, so the two rules above still cover every step on either
//!   side of the hand-off.
//!
//! The local-only rule assumes no other PE can observe this PE's
//! private state, and two things violate that. `LeastLoaded` placement
//! tie-breaks forks on other PEs' clocks. A `trap #3` (HALT) ends the
//! run the moment it retires, and the outcome then sums every PE's
//! clock and counters — including steps that ran ahead of the halting
//! step in the cycle order. So under `LeastLoaded`, and for any
//! translation in which some code word may decode as a trap into the
//! halt entry (`#3` or an entry computed at run time; the scan covers
//! the object and every other populated code-segment word), *every*
//! batched step keeps the cycle-order bound. The batch is then exactly
//! the serial dispatch prefix, and clocks stay serial-exact at every
//! point another PE can observe them. A retranslation rescans, so a
//! halt stored into the code segment is seen before it can run. The
//! scan does not reach the data segment (`GLOBAL_BASE` and up): a
//! program that halts by executing words it stored there is outside
//! the bit-identity contract.
//!
//! One carve-out concerns the instruction budget: the budget error still fires at the exact
//! same retired-instruction count as on the oracle, but because
//! local-only steps may retire ahead of the global cycle order, the
//! machine state behind an *aborted* run (budget exhaustion — a host
//! safety valve, not an architectural event) may interleave
//! differently. Completed runs, pauses, snapshots, deadlocks and every
//! architectural observable are bit-identical (`docs/DETERMINISM.md`).

use qm_isa::decoded::DecodedInstr;
use qm_isa::UWord;

use crate::kernel::entry;
use crate::memory::SharedMemory;
use crate::system::System;

/// Retranslation budget per run: a program that rewrites its code
/// segment more than this many times executes on `Pe::step` from then
/// on (identical results, no translation churn).
pub(crate) const MAX_RETRANSLATIONS: u32 = 16;

/// The translation of the loaded object: one pre-decoded slot per code
/// word address in `base .. base + 4 * slots.len()`. Slots are
/// position-indexed, so computed jumps and mid-instruction targets
/// resolve exactly like `Pe::step`'s fetch at that address.
#[derive(Debug, Clone)]
pub(crate) struct XProgram {
    base: UWord,
    slots: Vec<Option<DecodedInstr>>,
    /// `SharedMemory::code_writes` at translation time; a mismatch means
    /// the code segment changed and this translation is stale.
    pub(crate) epoch: u64,
    /// Some code word may decode as a `trap` into the halt entry
    /// (`#3`, or an entry computed at run time): local-only steps then
    /// keep the cycle-order bound (see the module docs).
    pub(crate) may_halt: bool,
}

impl XProgram {
    /// Translate `len` code words starting at `base`, reading *current*
    /// memory through the same default-zero view `fetch_code` uses — a
    /// slot decodes exactly the words `Pe::step` would fetch at that
    /// address, or stays empty when decode fails there.
    pub(crate) fn translate(mem: &SharedMemory, base: UWord, len: usize, epoch: u64) -> XProgram {
        let decode_at = |addr: UWord| {
            #[allow(clippy::cast_sign_loss)]
            let word = |k: UWord| mem.peek_global(addr.wrapping_add(4 * k)) as u32;
            DecodedInstr::translate(&[word(0), word(1), word(2)]).ok()
        };
        let slots: Vec<_> =
            (0..len).map(|i| decode_at(base.wrapping_add(4 * i as UWord))).collect();
        // Code-segment words the object does not cover can still be
        // jumped to (and then run on `Pe::step`), so they count too.
        let end = base.wrapping_add(4 * len as UWord);
        let beyond = mem.code_addrs().filter(|a| !(base..end).contains(a)).filter_map(decode_at);
        let may_halt =
            slots.iter().flatten().copied().chain(beyond).any(|d| d.may_trap_to(entry::HALT));
        XProgram { base, slots, epoch, may_halt }
    }

    /// The slot for the instruction at `pc`, or `None` when `pc` is
    /// outside the translated range or the words there do not decode.
    #[inline]
    pub(crate) fn slot(&self, pc: UWord) -> Option<&DecodedInstr> {
        let off = pc.wrapping_sub(self.base);
        if off & 3 != 0 {
            return None;
        }
        self.slots.get((off / 4) as usize)?.as_ref()
    }
}

impl System {
    /// Make the cached translation match the current code segment:
    /// (re)translate when the code-write epoch moved, drop the
    /// translation for the run after [`MAX_RETRANSLATIONS`] epochs.
    /// Cheap when current (one counter compare).
    pub(crate) fn ensure_translation(&mut self) {
        let epoch = self.memory.code_writes;
        if self.xlate.as_ref().is_some_and(|xp| xp.epoch == epoch) {
            return;
        }
        if self.xlate_retrans >= MAX_RETRANSLATIONS {
            self.xlate = None;
            return;
        }
        let Some(obj) = self.symbol_snap.as_deref() else {
            self.xlate = None;
            return;
        };
        self.xlate_retrans += 1;
        self.xlate = Some(XProgram::translate(&self.memory, obj.base, obj.words.len(), epoch));
    }

    /// Run every remaining step on `Pe::step`, unbatched: the per-run
    /// fallback a program reaches after [`MAX_RETRANSLATIONS`] code
    /// epochs, entered on purpose. This is the test oracle the engine is
    /// checked against, not an execution option; the state is host-side,
    /// so a restored snapshot translates again until this is re-applied.
    #[doc(hidden)]
    pub fn use_step_oracle(&mut self) {
        self.xlate = None;
        self.xlate_retrans = MAX_RETRANSLATIONS;
    }
}

#[cfg(test)]
mod tests {
    use super::MAX_RETRANSLATIONS;
    use crate::{Simulation, VerifyLevel};

    /// Rewrites `add`'s immediate word `n` times, then reports the sum.
    fn rewriter(n: u32) -> String {
        format!(
            "main:   plus #0,#0 :r17
                    plus #0,#0 :r19
                    plus #add,#4 :r18
            loop:   store r18,r17
            add:    plus r19,#0x12345 :r19
                    plus r17,#1 :r17
                    lt r17,#{n} :r21
                    bne r21,@loop
                    send #0,r19
                    trap #2,#0"
        )
    }

    #[test]
    fn code_epochs_retranslate_then_fall_back_for_the_run() {
        let run = |n: u32| {
            let src = rewriter(n);
            let mut sys =
                Simulation::builder().assembly(&src).verify(VerifyLevel::Off).build().unwrap();
            let out = sys.run().unwrap();
            let sum = crate::Word::try_from((0..n).sum::<u32>()).unwrap();
            assert_eq!(out.output, vec![sum]);
            sys
        };
        // One translation at start plus one per epoch, within budget.
        let sys = run(3);
        assert_eq!(sys.xlate_retrans, 4);
        assert!(sys.xlate.is_some());
        // Past the budget the run ends on `Pe::step`.
        let sys = run(MAX_RETRANSLATIONS + 4);
        assert_eq!(sys.xlate_retrans, MAX_RETRANSLATIONS);
        assert!(sys.xlate.is_none(), "the translation was dropped for the run");
    }
}
