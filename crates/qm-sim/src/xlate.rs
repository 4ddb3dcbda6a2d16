//! Translated execution: the simulator's one engine for the PE hot loop.
//!
//! Fetching and decoding costs two things per simulated instruction
//! that never change for a given code word: three `fetch_code` hash
//! lookups and a full decode. `XProgram` pays them *once per code
//! address*, caching the [`DecodedInstr`] (operands resolved, exec
//! function pointer bound) for every populated word of the code
//! segment. The run loop then dispatches straight into the shared exec
//! functions — the same ones `Pe::step` runs — so the engine cannot
//! disagree with the `Pe::step` oracle on cycles, statistics, traces or
//! snapshots. That bit-identity is the engine contract
//! (`docs/DETERMINISM.md`), pinned by the qm-workloads test
//! `tests/xlate_equivalence.rs` and the full sweep's `identical` flag.
//!
//! # One translation per code image
//!
//! The code segment is read-only at run time (`qm_isa::mem`): a
//! `store`/`storb` into it faults, and the memory drops any other write
//! there. The code image therefore changes only through the host — a
//! load, a restore or a poke — and `System::run_until` retranslates on
//! entry when it did. Every fetch has a slot, built by the one fetch
//! rule [`DecodedInstr::fetch`]: the decoded instruction, or the fault
//! `Pe::step` raises there (a word that does not decode, or an
//! instruction whose immediate words would lie past the segment). Slots
//! cover every populated code word and the two words below the lowest
//! one, which can read it as an immediate. Every other code address
//! reads only zero words and shares one blank slot; a PC past the
//! segment gets the fetch fault. A misaligned PC uses its aligned word,
//! as `fetch_code` does. The engine never calls `Pe::step`; only the
//! oracle does ([`System::use_step_oracle`]).
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
//! decide how far it may run, both below the pause limit, and a third
//! decides where it continues when the first rule stops it:
//!
//! * **Any step may run while this PE is provably next.** While the
//!   PE's `(clock, pe)` key compares below a conservative lower bound
//!   on every other PE's next-action key
//!   (`Scheduler::min_other_hint`, O(1) from the indexed actor heap —
//!   not an O(PEs) scan; the lexicographic compare wins equal-time ties
//!   by lower PE index, exactly as the heap does), the serial scheduler
//!   would dispatch this same PE anyway, so executing its next step — a
//!   `send`, a global `store`, even a `trap` or a fault — *is* the
//!   serial schedule. The bound is a minimum over other PEs' hints, and
//!   while this PE acts the only way any of those hints can fall is a
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
//! * **Quiet channel transfers also run ahead of the cycle order.** In
//!   the thesis's message processor (§5.5, Fig. 5.17) a transfer that
//!   finds its peer's half already in the PE's message cache completes
//!   there and never uses the bus. A `send`/`recv` is *quiet*
//!   (`ChannelTable::quiet`) when its channel is not the host channel,
//!   its context holds no pending ack or ready value, a send finds no
//!   parked receiver and a free cache slot, a receive finds a cached
//!   value and no parked sender, no other PE's live marker is on the
//!   channel, and its operands fill from the local plane. Such a step
//!   touches only its channel `c` (the cache, `touched`, the high-water
//!   mark), its own PE and the transfer count, a plain sum; it wakes no
//!   one, so it leaves every other PE's key alone. It therefore commutes
//!   with every other PE's step that does not touch `c`, by the same
//!   argument as a local-only step. The steps that do touch `c` are the
//!   problem, and they are taken care of by *contact*: a quiet step
//!   ahead logs a channel undo record (next to the local-word log, under
//!   the same `MAX_UNDO`) and marks `c` with its PE and save. Only one
//!   PE can hold a live marker on `c`, since another PE's transfer on a
//!   marked channel is not quiet. Any channel operation in the cycle
//!   order — in the outer loop or the batch — on a channel with a live
//!   marker first rewinds the marking PE to that operation's key
//!   `(t, k)` (the outer loop's key `t` includes the dispatch), as a HALT
//!   does below, then proceeds. After the rewind the channel holds
//!   exactly the marking PE's transfers before `(t, k)`, which is what
//!   the serial schedule holds there, and that PE's key has fallen, so
//!   the bound is read again. While no PE holds a marker the check is
//!   one compare per in-order step, so a 1-PE run pays nothing. A
//!   contact costs a rewind and the redone steps, so a channel that is
//!   likely to meet another PE stays in the cycle order
//!   (`ChannelTable::contend`): one whose two ends a fork put on
//!   different PEs, and one a contact has rewound over. That choice
//!   only decides which steps wait for the cycle order, never what a
//!   step does.
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
//!   loop. A hand-off needs `t` below the pause limit; otherwise the
//!   outer loop's pause comes first. When `j` is not running, its next
//!   action is a dispatch, which only the outer loop performs, so the
//!   batch exits as before. Steps that `i` ran ahead
//!   of the cycle order are unaffected: the outer loop would have made
//!   the same choice from the same state after the batch exited, so the
//!   rules above still cover every step on either side of the
//!   hand-off.
//!
//! # Rewinding a run that ends early
//!
//! The local-only rule assumes nothing observes this PE's private state
//! before the serial schedule reaches it, and two things can.
//! `LeastLoaded` placement tie-breaks forks on other PEs' clocks, so
//! under it every batched step keeps the cycle-order bound. And a run
//! can end early: a `trap #3` (HALT) or a fault at PE `j`'s step from
//! cycle `t` ends it with every PE as it stands, including steps that
//! ran ahead of `(t, j)`. So before a PE's first step ahead of the
//! bound, the batch saves its state in a `RunAhead`, and it logs the
//! local words that step and every later one overwrites, and the quiet
//! transfers it makes. When the run ends at `(t, j)`,
//! `System::rewind_run_ahead` undoes each saved PE's records, newest
//! first, puts the PE back and replays its steps that precede `(t, j)`
//! in the cycle order; a contact does the same for one PE in the middle
//! of a run. Every step since the save is local-only or a quiet
//! transfer on a channel no other PE has touched since (a touch would
//! have been a contact), so it depends on nothing but the state the
//! undo put back and replays exactly; and no undo crosses another PE's
//! operation on the same channel. A PE's steps ahead all come from one
//! stretch of one batch — once ahead of the bound it stays ahead, since
//! the bound only falls while its clock rises — and it takes no further
//! step until it is provably next. So a save is dropped, and its
//! markers die with it, as soon as the PE is provably next again, since
//! every step it took is then in the serial past, and on every exit
//! from `run_until`, since a pause retires exactly the steps below the
//! limit in either order, contacts included. Past `MAX_UNDO` records
//! the PE waits for the cycle order like any other step, which bounds
//! the log.
//!
//! One carve-out concerns the instruction budget: the budget error still fires at the exact
//! same retired-instruction count as on the oracle, but because
//! local-only steps may retire ahead of the global cycle order, the
//! machine state behind an *aborted* run (budget exhaustion — a host
//! safety valve, not an architectural event) may interleave
//! differently. Completed runs, halts, faults, pauses, snapshots,
//! deadlocks and every architectural observable are bit-identical
//! (`docs/DETERMINISM.md`).

use qm_isa::decoded::DecodedInstr;
use qm_isa::mem::{CODE_BASE, CODE_LIMIT};
use qm_isa::pe::{Pe, StepResult};
use qm_isa::Opcode;
use qm_isa::UWord;

use crate::memory::SharedMemory;
use crate::msg::{ChanMark, ChanUndo};
use crate::system::System;
use crate::{CtxId, Word};

/// Most local words one PE's run-ahead may overwrite before it waits
/// for the cycle order.
const MAX_UNDO: usize = 1024;

/// What the engine runs at one code address: the decoded instruction,
/// or the fault `Pe::step` raises fetching there.
type Slot = Result<DecodedInstr, Box<str>>;

/// The translation of the code image: one slot per code word in
/// `slots`, starting at word `first`, and `blank` for every other code
/// address (see the module docs).
#[derive(Debug)]
pub(crate) struct XProgram {
    /// Word index (address / 4) of `slots[0]`.
    first: usize,
    slots: Vec<Slot>,
    /// The slot of a code address whose words all read as zero.
    blank: Slot,
}

impl XProgram {
    /// Translate the code segment as it stands in `mem`, through the
    /// default-zero view `fetch_code` uses.
    pub(crate) fn translate(mem: &SharedMemory) -> XProgram {
        #[allow(clippy::cast_sign_loss)]
        let decode = |pc: UWord| -> Slot {
            DecodedInstr::fetch(pc, |addr| mem.peek_global(addr) as u32).map_err(Into::into)
        };
        let (lo, hi) =
            mem.code_addrs().fold((CODE_LIMIT, CODE_BASE), |(lo, hi), a| (lo.min(a), hi.max(a)));
        let first = (lo as usize / 4).saturating_sub(2);
        // Empty when no code word is populated (`first` is then past
        // `hi`).
        let slots = (first..=hi as usize / 4).map(|w| decode((w * 4) as UWord)).collect();
        // Word 0 has no immediate operand, so a zero word decodes alike
        // wherever the segment's end cuts the stream short.
        let blank = DecodedInstr::fetch(CODE_BASE, |_| 0).map_err(Into::into);
        XProgram { first, slots, blank }
    }

    /// The slot of `pc`, or `None` past the code segment.
    #[inline]
    fn entry(&self, pc: UWord) -> Option<&Slot> {
        match self.slots.get((pc as usize / 4).wrapping_sub(self.first)) {
            Some(slot) => Some(slot),
            None => (pc < CODE_LIMIT).then_some(&self.blank),
        }
    }

    /// The instruction at `pc`, or `Err(pc)` when fetching there
    /// faults ([`XProgram::fault`] says how).
    #[inline]
    pub(crate) fn slot(&self, pc: UWord) -> Result<&DecodedInstr, UWord> {
        match self.entry(pc) {
            Some(Ok(d)) => Ok(d),
            _ => Err(pc),
        }
    }

    /// The fault message `Pe::step` returns fetching at `pc`, where
    /// [`XProgram::slot`] has no instruction.
    #[cold]
    pub(crate) fn fault(&self, pc: UWord) -> String {
        match self.entry(pc) {
            Some(Err(fault)) => fault.to_string(),
            _ => DecodedInstr::fetch(pc, |_| 0).expect_err("the PC lies past the code segment"),
        }
    }
}

/// A PE's state from before its first step ahead of the cycle order,
/// and what it has changed since (see the module docs): the local words
/// it overwrote and the quiet channel transfers it made.
#[derive(Debug, Clone)]
pub(crate) struct RunAhead {
    /// Whether `pe`, `busy`, `undo` and `chans` hold a save.
    active: bool,
    /// The number of this PE's latest save (wrapping); channel markers
    /// name it.
    save: u32,
    pe: Pe,
    busy: u64,
    /// Overwritten local words with their earlier contents, oldest
    /// first (`None`: never written).
    undo: Vec<(UWord, Option<Word>)>,
    /// Quiet channel transfers, oldest first.
    chans: Vec<ChanUndo>,
}

impl RunAhead {
    /// An empty save for `pe`.
    pub(crate) fn new(pe: &Pe) -> RunAhead {
        RunAhead {
            active: false,
            save: 0,
            pe: pe.clone(),
            busy: 0,
            undo: Vec::new(),
            chans: Vec::new(),
        }
    }

    /// Whether `mark` names this PE's active save.
    #[inline]
    fn holds(&self, mark: ChanMark) -> bool {
        self.active && self.save == mark.save
    }

    /// Whether this holds a save.
    pub(crate) fn is_active(&self) -> bool {
        self.active
    }

    /// Whether the two logs together hold `MAX_UNDO` records.
    #[inline]
    pub(crate) fn full(&self) -> bool {
        self.undo.len() + self.chans.len() >= MAX_UNDO
    }
}

impl System {
    /// Retranslate if the code image changed since the last translation
    /// (the oracle needs none).
    pub(crate) fn translate_if_changed(&mut self) {
        if self.memory.code_changed && !self.step_oracle {
            self.xlate = Some(XProgram::translate(&self.memory));
            self.memory.code_changed = false;
        }
    }

    /// Prepare PE `i`'s local-only step `d` to run ahead of the cycle
    /// order: save the PE on its first such step and log the local
    /// words `d` overwrites. False when the log is full.
    #[inline]
    pub(crate) fn run_ahead(&mut self, i: usize, d: &DecodedInstr) -> bool {
        if !self.ahead[i].active {
            self.save_for_rewind(i);
        }
        if !matches!(d.opcode(), Opcode::Dup1 | Opcode::Dup2) {
            return true;
        }
        let (save, pe, memory) = (&mut self.ahead[i], &self.pes[i].pe, &self.memory);
        if save.full() {
            return false;
        }
        save.undo.extend(d.dup_targets(pe).map(|addr| (addr, memory.local_word(i, addr))));
        true
    }

    /// Prepare PE `i`'s channel step `d` of context `ctx` to run ahead
    /// of the cycle order when it is quiet (`ChannelTable::quiet`) and
    /// its operands fill from the local plane: save the PE on its first
    /// step ahead, mark the channel and log the transfer. False when the
    /// step is not quiet or the log is full.
    #[inline]
    pub(crate) fn run_ahead_quiet(&mut self, i: usize, ctx: CtxId, d: &DecodedInstr) -> bool {
        let (pe, memory) = (&self.pes[i].pe, &self.memory);
        let Some(chan) = d.channel_operand(pe, |addr| memory.peek_word(i, addr)) else {
            return false;
        };
        let save = &self.ahead[i];
        if save.full() || !d.fills_local(pe) {
            return false;
        }
        let number = if save.active { save.save } else { save.save.wrapping_add(1) };
        let mark = ChanMark { pe: u32::try_from(i).expect("PE indices fit in u32"), save: number };
        let send = d.opcode() == Opcode::Send;
        let ahead = &self.ahead;
        let live = |m: ChanMark| ahead[m.pe as usize].holds(m);
        let Some(undo) = self.channels.quiet(ctx, chan, send, mark, live) else {
            return false;
        };
        if !self.ahead[i].active {
            self.save_for_rewind(i);
        }
        let save = &mut self.ahead[i];
        if save.chans.is_empty() {
            self.chan_saves += 1;
        }
        save.chans.push(undo);
        true
    }

    /// Start PE `i`'s save: its state before its first step ahead.
    #[cold]
    fn save_for_rewind(&mut self, i: usize) {
        self.loop_stats.saves += 1;
        let (save, unit) = (&mut self.ahead[i], &self.pes[i]);
        save.active = true;
        save.save = save.save.wrapping_add(1);
        save.pe.clone_from(&unit.pe);
        save.busy = unit.busy;
        save.undo.clear();
        save.chans.clear();
    }

    /// Drop PE `i`'s save, if any: every step it took is in the serial
    /// past. Its channel markers die with it.
    #[inline]
    pub(crate) fn settle(&mut self, i: usize) {
        let save = &mut self.ahead[i];
        if save.active {
            save.active = false;
            self.chan_saves -= usize::from(!save.chans.is_empty());
        }
    }

    /// PE `k`'s step `d`, whose cycle-order key is `(at, k)`, is about
    /// to run in the cycle order. When it is a channel operation on a
    /// channel whose marker is live, rewind the marking PE to `(at, k)`
    /// first, so the channel sees its transfers in the cycle order, and
    /// keep the channel in the cycle order from now on. True when it
    /// rewound a PE (whose heap hint then moved down).
    pub(crate) fn contact(&mut self, k: usize, at: u64, d: &DecodedInstr, xp: &XProgram) -> bool {
        let (pe, memory) = (&self.pes[k].pe, &self.memory);
        let Some(chan) = d.channel_operand(pe, |addr| memory.peek_word(k, addr)) else {
            return false;
        };
        let mark = self.channels.mark(chan);
        let m = mark.pe as usize;
        if !self.ahead[m].holds(mark) {
            return false;
        }
        self.loop_stats.rewinds_on_contact += 1;
        self.channels.contend(chan);
        self.rewind_pe(m, at, k, xp);
        let t = self.actor_time(m);
        self.sched.refresh(m, t);
        true
    }

    /// The run ended at PE `j`'s step with cycle-order key `(t, j)`, by a
    /// HALT or a fault: rewind every PE that ran ahead to `(t, j)`.
    pub(crate) fn rewind_run_ahead(&mut self, t: u64, j: usize) {
        let Some(xp) = self.xlate.take() else {
            return;
        };
        for k in 0..self.pes.len() {
            if self.ahead[k].active {
                self.loop_stats.rewinds_at_end += 1;
                self.rewind_pe(k, t, j, &xp);
            }
        }
        self.xlate = Some(xp);
    }

    /// Rewind PE `k`, which ran ahead, to the key `(t, j)`: undo its
    /// channel and local records newest first, restore the saved PE,
    /// replay its steps that precede `(t, j)` in the cycle order and
    /// settle it. Every step since the save was local-only or a quiet
    /// transfer on a channel no other PE has touched since, so it
    /// depends on nothing but the state the undo put back and replays
    /// exactly.
    #[cold]
    fn rewind_pe(&mut self, k: usize, t: u64, j: usize, xp: &XProgram) {
        self.settle(k);
        let save = &self.ahead[k];
        for &(addr, word) in save.undo.iter().rev() {
            self.memory.restore_local(k, addr, word);
        }
        for u in save.chans.iter().rev() {
            self.channels.undo(u);
        }
        let unit = &mut self.pes[k];
        let (now, then) = (&unit.pe.stats, &save.pe.stats);
        // A step ahead accesses memory only by local window fills and
        // `dup` writes, each one local access.
        self.memory.stats.local_accesses -=
            (now.window_misses - then.window_misses) + (now.mem_writes - then.mem_writes);
        self.instr_count -= now.instructions - then.instructions;
        unit.pe.clone_from(&save.pe);
        unit.busy = save.busy;
        let ctx_id = unit.current.expect("a PE that ran ahead is running");
        while (self.pes[k].pe.cycles, k) < (t, j) {
            let before = self.pes[k].pe.cycles;
            let Ok(&d) = xp.slot(self.pes[k].pe.regs.pc()) else {
                unreachable!("a replayed step ran before");
            };
            let result = self.step_pe(k, ctx_id, before, &d);
            debug_assert_eq!(result, StepResult::Continue);
            let unit = &mut self.pes[k];
            unit.busy += unit.pe.cycles - before;
            self.instr_count += 1;
        }
    }

    /// Run every step on `Pe::step`, unbatched, from now on: the test
    /// oracle the engine is checked against, not an execution option.
    /// The flag is host-side, so a restored snapshot runs on the engine
    /// until this is applied again.
    #[doc(hidden)]
    pub fn use_step_oracle(&mut self) {
        self.step_oracle = true;
    }
}

#[cfg(test)]
mod tests {
    use qm_isa::decoded::DecodedInstr;
    use qm_isa::mem::{CODE_BASE, CODE_LIMIT};

    use crate::snapshot::Snapshot;
    use crate::{SimError, Simulation, VerifyLevel};

    /// Stores into `add`'s immediate word on every iteration.
    const REWRITER: &str = "
main:   plus #0,#0 :r17
        plus #0,#0 :r19
        plus #add,#4 :r18
loop:   store r18,r17
add:    plus r19,#0x12345 :r19
        plus r17,#1 :r17
        lt r17,#20 :r21
        bne r21,@loop
        send #0,r19
        trap #2,#0";

    #[test]
    fn store_into_code_faults_on_engine_and_oracle() {
        let run = |oracle: bool| {
            let mut sys =
                Simulation::builder().assembly(REWRITER).verify(VerifyLevel::Off).build().unwrap();
            if oracle {
                sys.use_step_oracle();
            }
            let err = sys.run().unwrap_err();
            let imm = sys.symbol("add").unwrap() + 4;
            assert_eq!(
                err,
                SimError::Pe(format!("store into the read-only code segment at {imm:#010x}"))
            );
            (err, Snapshot::capture(&sys))
        };
        assert_eq!(run(false), run(true), "engine and oracle fault alike");
    }

    #[test]
    fn blank_code_decodes_alike_up_to_the_segment_end() {
        let at = |pc| format!("{:?}", DecodedInstr::fetch(pc, |_| 0));
        for pc in [CODE_LIMIT - 8, CODE_LIMIT - 4, CODE_LIMIT - 1] {
            assert_eq!(at(pc), at(CODE_BASE), "{pc:#x}");
        }
        assert_eq!(
            DecodedInstr::fetch(CODE_LIMIT, |_| 0).unwrap_err(),
            "fetch outside the code segment at 0x00100000"
        );
    }
}
