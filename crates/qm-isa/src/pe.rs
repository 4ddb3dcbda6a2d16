//! The processing element emulator (thesis §5.3–5.4).
//!
//! [`Pe`] executes one instruction per [`Pe::step`], accumulating a cycle
//! count from a configurable [`CycleModel`] (the thesis's 3-stage pipeline
//! sustains one simple instruction per cycle; memory traffic, immediate
//! words, taken branches and traps cost extra). Channel operations are
//! delegated to a [`Services`] implementation — the message processor in
//! `qm-sim` — and may *block*, in which case the instruction is left
//! un-executed for the kernel to retry after a context switch.

use crate::decoded::DecodedInstr;
use crate::isa::REG_DUMMY;
use crate::mem::DataPort;
use crate::regs::{RegisterFile, SavedRegisters};
use crate::{UWord, Word};

/// Per-instruction-class cycle costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleModel {
    /// Base cost of every instruction (pipeline issue slot).
    pub base: u64,
    /// Extra cost per immediate word operand (extra instruction fetch).
    pub imm_word: u64,
    /// Extra cost of a data-memory access (on top of [`DataPort`] cycles).
    pub mem_extra: u64,
    /// Extra cost of filling a window register from memory on a miss.
    pub window_miss: u64,
    /// Extra cost of a taken branch (pipeline refill).
    pub branch_taken: u64,
    /// Extra cost of a trap (kernel entry).
    pub trap: u64,
    /// Extra cost of a channel operation handled by the message processor.
    pub channel: u64,
    /// Base cost of a context switch (kernel scheduling work).
    pub context_switch: u64,
    /// Cost per window register rolled out on a context switch.
    pub rollout_per_reg: u64,
}

impl Default for CycleModel {
    fn default() -> Self {
        CycleModel {
            base: 1,
            imm_word: 1,
            mem_extra: 1,
            window_miss: 1,
            branch_taken: 1,
            trap: 4,
            channel: 2,
            context_switch: 8,
            rollout_per_reg: 1,
        }
    }
}

/// Why a step could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// `send` on a channel with no matching receiver yet.
    SendOn(Word),
    /// `recv` on a channel with no matching sender yet.
    RecvOn(Word),
}

/// Outcome of one [`Pe::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepResult {
    /// Instruction completed; PC advanced.
    Continue,
    /// A channel operation would block. The PC was *not* advanced: the
    /// instruction re-executes when the context resumes.
    Blocked(BlockReason),
    /// A `trap`/`ftrap` executed. The PC has advanced past the trap; the
    /// kernel services `entry` with `arg` and may deposit results via
    /// [`Pe::write_dst`] into `dst1`/`dst2`.
    Trap {
        /// Kernel entry point number (from `src1`).
        entry: Word,
        /// Argument (from `src2`).
        arg: Word,
        /// First result destination register.
        dst1: u8,
        /// Second result destination register.
        dst2: u8,
        /// True for `ftrap`.
        fast: bool,
    },
    /// `rett`/`fret` executed (kernel-mode return; the host kernel
    /// interprets it).
    Return {
        /// True for `fret`.
        fast: bool,
    },
    /// A fault: the PC lies outside the code segment, the words there
    /// do not decode, or a `store`/`storb` addressed the read-only code
    /// segment. The PC was not advanced.
    Error(String),
}

/// Outcome of a channel `send` as seen by the PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The transfer completed (or was accepted by the message processor).
    Done {
        /// Extra cycles charged by the message processor / bus.
        cycles: u64,
    },
    /// No receiver is waiting — rendezvous semantics require blocking.
    Block,
}

/// Outcome of a channel `recv` as seen by the PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvOutcome {
    /// A value arrived.
    Done {
        /// The received word.
        value: Word,
        /// Extra cycles charged by the message processor / bus.
        cycles: u64,
    },
    /// No sender is waiting.
    Block,
}

/// Channel services provided to the PE (implemented by the message
/// processor in `qm-sim`).
pub trait Services {
    /// Attempt to send `value` on `chan`.
    fn send(&mut self, pe: usize, chan: Word, value: Word) -> SendOutcome;
    /// Attempt to receive from `chan`.
    fn recv(&mut self, pe: usize, chan: Word) -> RecvOutcome;
}

/// Trivial services: sends are dropped, receives return zero. Useful for
/// testing channel-free code.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullServices;

impl Services for NullServices {
    fn send(&mut self, _pe: usize, _chan: Word, _value: Word) -> SendOutcome {
        SendOutcome::Done { cycles: 0 }
    }
    fn recv(&mut self, _pe: usize, _chan: Word) -> RecvOutcome {
        RecvOutcome::Done { value: 0, cycles: 0 }
    }
}

/// Buffered loop-back channels for unit tests: `send` enqueues, `recv`
/// dequeues or blocks on empty.
#[derive(Debug, Clone, Default)]
pub struct BufferedChannels {
    queues: std::collections::HashMap<Word, std::collections::VecDeque<Word>>,
}

impl BufferedChannels {
    /// New empty channel set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-load a value into a channel.
    pub fn push(&mut self, chan: Word, value: Word) {
        self.queues.entry(chan).or_default().push_back(value);
    }
}

impl Services for BufferedChannels {
    fn send(&mut self, _pe: usize, chan: Word, value: Word) -> SendOutcome {
        self.queues.entry(chan).or_default().push_back(value);
        SendOutcome::Done { cycles: 0 }
    }
    fn recv(&mut self, _pe: usize, chan: Word) -> RecvOutcome {
        match self.queues.get_mut(&chan).and_then(std::collections::VecDeque::pop_front) {
            Some(value) => RecvOutcome::Done { value, cycles: 0 },
            None => RecvOutcome::Block,
        }
    }
}

/// Execution statistics kept by a PE.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Window register reads satisfied by a physical register.
    pub window_hits: u64,
    /// Window register reads that had to touch memory.
    pub window_misses: u64,
    /// Data words read.
    pub mem_reads: u64,
    /// Data words written.
    pub mem_writes: u64,
    /// Channel sends completed.
    pub sends: u64,
    /// Channel receives completed.
    pub recvs: u64,
    /// Traps taken.
    pub traps: u64,
    /// Context switches performed.
    pub context_switches: u64,
    /// Window registers rolled out across all context switches.
    pub rollouts: u64,
}

impl PeStats {
    /// Field-wise difference `self - earlier`: the activity between two
    /// snapshots of the same PE's counters (e.g. one context residency
    /// slice). Saturates rather than wrapping if the snapshots are
    /// swapped.
    #[must_use]
    pub fn delta(&self, earlier: &PeStats) -> PeStats {
        PeStats {
            instructions: self.instructions.saturating_sub(earlier.instructions),
            window_hits: self.window_hits.saturating_sub(earlier.window_hits),
            window_misses: self.window_misses.saturating_sub(earlier.window_misses),
            mem_reads: self.mem_reads.saturating_sub(earlier.mem_reads),
            mem_writes: self.mem_writes.saturating_sub(earlier.mem_writes),
            sends: self.sends.saturating_sub(earlier.sends),
            recvs: self.recvs.saturating_sub(earlier.recvs),
            traps: self.traps.saturating_sub(earlier.traps),
            context_switches: self.context_switches.saturating_sub(earlier.context_switches),
            rollouts: self.rollouts.saturating_sub(earlier.rollouts),
        }
    }
}

/// A queue machine processing element.
#[derive(Debug, Clone)]
pub struct Pe {
    /// This PE's index in the multiprocessor.
    pub id: usize,
    /// Architectural registers.
    pub regs: RegisterFile,
    /// Cycle counter.
    pub cycles: u64,
    /// Cycle cost model.
    pub model: CycleModel,
    /// Statistics.
    pub stats: PeStats,
    last_result: Word,
}

impl Pe {
    /// Create a PE with the default cycle model.
    #[must_use]
    pub fn new(id: usize) -> Self {
        Pe {
            id,
            regs: RegisterFile::new(),
            cycles: 0,
            model: CycleModel::default(),
            stats: PeStats::default(),
            last_result: 0,
        }
    }

    /// Reset to start executing at `pc` with an operand queue page at `qp`
    /// (POM 0 = 256-word pages).
    pub fn reset(&mut self, pc: UWord, qp: UWord) {
        self.regs = RegisterFile::new();
        self.regs.set_pc(pc);
        self.regs.set_qp(qp);
        self.regs.set_pom(0);
        self.last_result = 0;
    }

    /// The result of the most recently completed value-producing
    /// instruction (consumed by `dup`).
    #[must_use]
    pub fn last_result(&self) -> Word {
        self.last_result
    }

    /// Reinstate a `last_result` captured by [`Pe::last_result`] — used by
    /// external serializers restoring a mid-run PE, so a `dup` issued
    /// right after restore sees the same value it would have uninterrupted.
    pub fn set_last_result(&mut self, value: Word) {
        self.last_result = value;
    }

    /// Write a result to a destination register with full window
    /// semantics (DUMMY discards; used by the kernel to deliver trap
    /// results).
    #[inline]
    pub fn write_dst(&mut self, dst: u8, value: Word) {
        if dst == REG_DUMMY {
            return;
        }
        if dst < 16 {
            self.regs.write_window(dst, value);
        } else {
            self.regs.write_global(dst, value);
        }
        self.last_result = value;
    }

    /// Execute one instruction: fetch it by [`DecodedInstr::fetch`]'s
    /// rule, which faults outside the code segment, and run it. The
    /// translated engine in `qm-sim` caches the [`DecodedInstr`] and
    /// calls [`Pe::step_decoded`] directly; both paths execute the same
    /// code, so they cannot disagree. A fault charges no cycles.
    pub fn step(&mut self, port: &mut dyn DataPort, svc: &mut dyn Services) -> StepResult {
        let id = self.id;
        match DecodedInstr::fetch(self.regs.pc(), |addr| port.fetch_code(id, addr)) {
            Ok(d) => self.step_decoded(&d, port, svc),
            Err(fault) => StepResult::Error(fault),
        }
    }

    /// Execute one pre-decoded instruction. `d` must be the translation
    /// of the code at the current PC; charging, statistics and blocking
    /// behaviour are identical to [`Pe::step`] on the same words.
    #[inline]
    pub fn step_decoded(
        &mut self,
        d: &DecodedInstr,
        port: &mut dyn DataPort,
        svc: &mut dyn Services,
    ) -> StepResult {
        self.cycles += self.model.base + (u64::from(d.size_words()) - 1) * self.model.imm_word;
        d.exec(self, port, svc)
    }

    /// Roll out the window registers and save the context's register
    /// state; charges context-switch cycles (§5.2 — this is the cost the
    /// thesis credits for the multiprocessor's better-than-linear
    /// speed-up: fewer resident contexts per PE means fewer roll-outs).
    pub fn switch_out(&mut self, port: &mut dyn DataPort) -> SavedRegisters {
        let rolls = self.regs.rollout();
        for &(addr, v) in &rolls {
            let extra = port.write_word(self.id, addr, v);
            self.cycles += self.model.rollout_per_reg + extra;
            self.stats.rollouts += 1;
        }
        self.cycles += self.model.context_switch;
        self.stats.context_switches += 1;
        self.regs.save()
    }

    /// Restore a previously saved context; presence bits start clear and
    /// operands refill lazily from the queue page.
    pub fn switch_in(&mut self, saved: &SavedRegisters) {
        self.regs.restore(saved);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Instruction, Opcode, SrcMode, REG_PC};
    use crate::mem::FlatMemory;

    #[test]
    fn pe_stats_delta_is_field_wise_and_saturating() {
        let earlier = PeStats { instructions: 10, sends: 2, ..PeStats::default() };
        let later = PeStats { instructions: 25, sends: 2, traps: 3, ..PeStats::default() };
        let d = later.delta(&earlier);
        assert_eq!(d.instructions, 15);
        assert_eq!(d.sends, 0);
        assert_eq!(d.traps, 3);
        assert_eq!(earlier.delta(&later).instructions, 0, "swapped snapshots saturate");
    }

    fn load_program(mem: &mut FlatMemory, instrs: &[Instruction]) {
        let mut words = Vec::new();
        for i in instrs {
            words.extend(i.encode().unwrap());
        }
        mem.load_words(0, &words);
    }

    fn basic(
        op: Opcode,
        src1: SrcMode,
        src2: SrcMode,
        dst1: u8,
        dst2: u8,
        qp_inc: u8,
    ) -> Instruction {
        Instruction::Basic { op, src1, src2, dst1, dst2, qp_inc, cont: false }
    }

    const QP0: UWord = 0x8000_0400;

    #[test]
    fn thesis_example_sequence() {
        // plus++ r0,r1 :r0,r2  then  dup1 :r30   (thesis §5.3.4)
        let mut mem = FlatMemory::new();
        load_program(
            &mut mem,
            &[
                basic(Opcode::Plus, SrcMode::Imm(2), SrcMode::Imm(3), 0, REG_DUMMY, 0),
                basic(Opcode::Plus, SrcMode::Imm(10), SrcMode::Imm(4), 1, REG_DUMMY, 0),
                basic(Opcode::Plus, SrcMode::Window(0), SrcMode::Window(1), 0, 2, 2),
                Instruction::Dup { two: false, off1: 30, off2: 0, cont: false },
            ],
        );
        let mut pe = Pe::new(0);
        pe.reset(0, QP0);
        let mut svc = NullServices;
        for _ in 0..4 {
            assert_eq!(pe.step(&mut mem, &mut svc), StepResult::Continue);
        }
        // After consuming 2, the sum 19 lands at new r0 and r2.
        assert_eq!(pe.regs.read_window(0), Some(19));
        assert_eq!(pe.regs.read_window(2), Some(19));
        // dup wrote the memory-resident queue slot 30 words past the front.
        assert_eq!(mem.peek(pe.regs.queue_slot_addr(30)), 19);
    }

    #[test]
    fn window_miss_fills_from_memory() {
        let mut mem = FlatMemory::new();
        // Queue page pre-loaded with operands (as after a context switch).
        mem.poke(QP0, 5);
        mem.poke(QP0 + 4, 7);
        load_program(
            &mut mem,
            &[basic(Opcode::Plus, SrcMode::Window(0), SrcMode::Window(1), 0, REG_DUMMY, 2)],
        );
        let mut pe = Pe::new(0);
        pe.reset(0, QP0);
        assert_eq!(pe.step(&mut mem, &mut NullServices), StepResult::Continue);
        assert_eq!(pe.regs.read_window(0), Some(12));
        assert_eq!(pe.stats.window_misses, 2);
        assert_eq!(pe.stats.window_hits, 0);
    }

    #[test]
    fn fetch_and_store() {
        let mut mem = FlatMemory::new();
        mem.poke(0x0010_0100, 99);
        load_program(
            &mut mem,
            &[
                basic(
                    Opcode::Fetch,
                    SrcMode::ImmWord(0x0010_0100),
                    SrcMode::Imm(0),
                    0,
                    REG_DUMMY,
                    0,
                ),
                basic(
                    Opcode::Store,
                    SrcMode::ImmWord(0x0010_0200),
                    SrcMode::Window(0),
                    REG_DUMMY,
                    REG_DUMMY,
                    1,
                ),
            ],
        );
        let mut pe = Pe::new(0);
        pe.reset(0, QP0);
        assert_eq!(pe.step(&mut mem, &mut NullServices), StepResult::Continue);
        assert_eq!(pe.step(&mut mem, &mut NullServices), StepResult::Continue);
        assert_eq!(mem.peek(0x0010_0200), 99);
        assert_eq!(pe.stats.mem_reads, 1);
        assert_eq!(pe.stats.mem_writes, 1);
    }

    #[test]
    fn branch_if_true_takes_byte_offset() {
        let mut mem = FlatMemory::new();
        load_program(
            &mut mem,
            &[
                // bne #-1 (true), skip one word forward.
                basic(Opcode::Bne, SrcMode::Imm(-1), SrcMode::Imm(4), REG_DUMMY, REG_DUMMY, 0),
                basic(Opcode::Plus, SrcMode::Imm(1), SrcMode::Imm(1), 17, REG_DUMMY, 0), // skipped
                basic(Opcode::Plus, SrcMode::Imm(2), SrcMode::Imm(2), 18, REG_DUMMY, 0),
            ],
        );
        let mut pe = Pe::new(0);
        pe.reset(0, QP0);
        assert_eq!(pe.step(&mut mem, &mut NullServices), StepResult::Continue);
        assert_eq!(pe.regs.pc(), 8, "branch skipped the second instruction");
        assert_eq!(pe.step(&mut mem, &mut NullServices), StepResult::Continue);
        assert_eq!(pe.regs.read_global(17), 0, "skipped instruction never ran");
        assert_eq!(pe.regs.read_global(18), 4);
    }

    #[test]
    fn branch_if_false_not_taken_on_true() {
        let mut mem = FlatMemory::new();
        load_program(
            &mut mem,
            &[basic(Opcode::Beq, SrcMode::Imm(-1), SrcMode::Imm(8), REG_DUMMY, REG_DUMMY, 0)],
        );
        let mut pe = Pe::new(0);
        pe.reset(0, QP0);
        pe.step(&mut mem, &mut NullServices);
        assert_eq!(pe.regs.pc(), 4, "fall through");
    }

    #[test]
    fn trap_reports_entry_and_destinations() {
        let mut mem = FlatMemory::new();
        load_program(&mut mem, &[basic(Opcode::Trap, SrcMode::Imm(3), SrcMode::Imm(7), 1, 2, 0)]);
        let mut pe = Pe::new(0);
        pe.reset(0, QP0);
        let r = pe.step(&mut mem, &mut NullServices);
        assert_eq!(r, StepResult::Trap { entry: 3, arg: 7, dst1: 1, dst2: 2, fast: false });
        // Kernel can deposit results:
        pe.write_dst(1, 1001);
        pe.write_dst(2, 1002);
        assert_eq!(pe.regs.read_window(1), Some(1001));
        assert_eq!(pe.regs.read_window(2), Some(1002));
    }

    #[test]
    fn recv_blocks_then_resumes() {
        let mut mem = FlatMemory::new();
        load_program(
            &mut mem,
            &[basic(Opcode::Recv, SrcMode::Imm(5), SrcMode::Imm(0), 0, REG_DUMMY, 0)],
        );
        let mut pe = Pe::new(0);
        pe.reset(0, QP0);
        let mut chans = BufferedChannels::new();
        assert_eq!(pe.step(&mut mem, &mut chans), StepResult::Blocked(BlockReason::RecvOn(5)));
        assert_eq!(pe.regs.pc(), 0, "PC unchanged while blocked");
        chans.push(5, 42);
        assert_eq!(pe.step(&mut mem, &mut chans), StepResult::Continue);
        assert_eq!(pe.regs.read_window(0), Some(42));
    }

    #[test]
    fn send_transfers_value() {
        let mut mem = FlatMemory::new();
        load_program(
            &mut mem,
            &[basic(Opcode::Send, SrcMode::Imm(9), SrcMode::Imm(13), REG_DUMMY, REG_DUMMY, 0)],
        );
        let mut pe = Pe::new(0);
        pe.reset(0, QP0);
        let mut chans = BufferedChannels::new();
        assert_eq!(pe.step(&mut mem, &mut chans), StepResult::Continue);
        match chans.recv(0, 9) {
            RecvOutcome::Done { value, .. } => assert_eq!(value, 13),
            RecvOutcome::Block => panic!("value not delivered"),
        }
    }

    #[test]
    fn context_switch_rolls_out_and_lazily_refills() {
        let mut mem = FlatMemory::new();
        let mut pe = Pe::new(0);
        pe.reset(0x40, QP0);
        pe.regs.write_window(0, 11);
        pe.regs.write_window(1, 22);
        let saved = pe.switch_out(&mut mem);
        assert_eq!(pe.stats.rollouts, 2);
        assert_eq!(mem.peek(QP0), 11);
        assert_eq!(mem.peek(QP0 + 4), 22);
        // Another context runs… then we come back.
        pe.switch_in(&saved);
        assert_eq!(pe.regs.pc(), 0x40);
        assert_eq!(pe.regs.read_window(0), None, "presence bits clear after switch");
        // A read refills from the rolled-out queue page.
        load_program(
            &mut mem,
            &[basic(Opcode::Plus, SrcMode::Window(0), SrcMode::Window(1), 0, REG_DUMMY, 2)],
        );
        pe.regs.set_pc(0);
        assert_eq!(pe.step(&mut mem, &mut NullServices), StepResult::Continue);
        assert_eq!(pe.regs.read_window(0), Some(33));
    }

    #[test]
    fn pc_destination_jumps() {
        let mut mem = FlatMemory::new();
        load_program(
            &mut mem,
            &[basic(Opcode::Plus, SrcMode::ImmWord(0x100), SrcMode::Imm(0), REG_PC, REG_DUMMY, 0)],
        );
        let mut pe = Pe::new(0);
        pe.reset(0, QP0);
        assert_eq!(pe.step(&mut mem, &mut NullServices), StepResult::Continue);
        assert_eq!(pe.regs.pc(), 0x100);
    }

    #[test]
    fn cycle_accounting_distinguishes_imm_words() {
        let mut mem = FlatMemory::new();
        load_program(
            &mut mem,
            &[
                basic(Opcode::Plus, SrcMode::Imm(1), SrcMode::Imm(2), REG_DUMMY, REG_DUMMY, 0),
                basic(Opcode::Plus, SrcMode::ImmWord(1), SrcMode::Imm(2), REG_DUMMY, REG_DUMMY, 0),
            ],
        );
        let mut pe = Pe::new(0);
        pe.reset(0, QP0);
        pe.step(&mut mem, &mut NullServices);
        let after_first = pe.cycles;
        pe.step(&mut mem, &mut NullServices);
        assert_eq!(after_first, pe.model.base);
        assert_eq!(pe.cycles - after_first, pe.model.base + pe.model.imm_word);
    }

    #[test]
    fn comparison_feeds_branch() {
        let mut mem = FlatMemory::new();
        load_program(
            &mut mem,
            &[
                basic(Opcode::Lt, SrcMode::Imm(3), SrcMode::Imm(5), 0, REG_DUMMY, 0),
                basic(Opcode::Bne, SrcMode::Window(0), SrcMode::Imm(4), REG_DUMMY, REG_DUMMY, 1),
                basic(Opcode::Plus, SrcMode::Imm(1), SrcMode::Imm(0), 17, REG_DUMMY, 0), // skipped
                basic(Opcode::Plus, SrcMode::Imm(2), SrcMode::Imm(0), 18, REG_DUMMY, 0),
            ],
        );
        let mut pe = Pe::new(0);
        pe.reset(0, QP0);
        for _ in 0..3 {
            assert_eq!(pe.step(&mut mem, &mut NullServices), StepResult::Continue);
        }
        assert_eq!(pe.regs.read_global(17), 0);
        assert_eq!(pe.regs.read_global(18), 2);
    }
}
