//! Pre-decoded instruction form shared by [`Pe::step`] and the
//! translated engine (`qm-sim::xlate`).
//!
//! [`DecodedInstr`] is the product of running [`Instruction::decode`]
//! once and resolving everything that never changes for a given code
//! word: the operand addressing modes (small and word immediates fold
//! into one [`XSrc::Imm`]), the destination registers, the queue
//! increment, the encoded length, and — the direct-threading part — a
//! per-instruction-class *exec function pointer*. Executing a decoded
//! instruction is one indirect call with no opcode dispatch.
//!
//! Both paths execute through [`Pe::step_decoded`]: [`Pe::step`]
//! translates on every step (`fetch → translate → exec`), the
//! translated engine caches the [`DecodedInstr`] per code address and
//! skips straight to `exec`. Because the exec bodies are the *same
//! functions*, cycle charging, statistics, fault draws and blocking
//! behaviour cannot drift between the two.

use crate::isa::{Instruction, Opcode, SrcMode, REG_DUMMY};
use crate::mem::{DataPort, CODE_LIMIT};
use crate::pe::{BlockReason, Pe, RecvOutcome, SendOutcome, Services, StepResult};
use crate::{Result, UWord, Word};

/// A resolved source operand. [`SrcMode::Imm`] and [`SrcMode::ImmWord`]
/// collapse to [`XSrc::Imm`]: after decode they are indistinguishable
/// (the word-count difference is charged from the decoded instruction's
/// stored word count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XSrc {
    /// Window register `r0…r15` (hit/miss resolved at read time).
    Window(u8),
    /// Global register `r16…r31`.
    Global(u8),
    /// Immediate value, already widened.
    Imm(Word),
}

type ExecFn = fn(&DecodedInstr, &mut Pe, &mut dyn DataPort, &mut dyn Services) -> StepResult;

/// One instruction, decoded once and ready for direct-threaded
/// execution. See the module docs for how the two paths share it.
#[derive(Debug, Clone, Copy)]
pub struct DecodedInstr {
    exec: ExecFn,
    op: Opcode,
    src1: XSrc,
    src2: XSrc,
    dst1: u8,
    dst2: u8,
    qp_inc: u8,
    /// Encoded length in words (1 + immediate words).
    words: u8,
    /// `dup` queue offsets (`off2` used only when `two`).
    off1: u8,
    off2: u8,
    two: bool,
}

impl DecodedInstr {
    /// Decode and pre-resolve the instruction starting at `words[0]`.
    /// Wraps [`Instruction::decode`], so it accepts and rejects exactly
    /// the same encodings with the same errors.
    ///
    /// # Errors
    ///
    /// Unknown opcode or missing immediate words.
    #[inline]
    pub fn translate(words: &[u32]) -> Result<DecodedInstr> {
        let (instr, used) = Instruction::decode(words)?;
        Ok(Self::from_instr(&instr, used))
    }

    /// Fetch and decode the instruction at `pc`, reading code words
    /// through `word` (an address to the word there, as
    /// [`DataPort::fetch_code`] reads it). This is the one fetch rule of
    /// [`Pe::step`] and of the translated engine. A PC at or above
    /// [`CODE_LIMIT`] faults; the instruction stream ends there, so an
    /// instruction whose immediate words would lie past it does not
    /// decode.
    ///
    /// # Errors
    ///
    /// The fault message [`Pe::step`] returns as [`StepResult::Error`]:
    /// "fetch outside the code segment at …" or the decode error.
    pub fn fetch(
        pc: UWord,
        mut word: impl FnMut(UWord) -> u32,
    ) -> std::result::Result<DecodedInstr, String> {
        if pc >= CODE_LIMIT {
            return Err(format!("fetch outside the code segment at {pc:#010x}"));
        }
        let mut words = [0; 3];
        let mut n = 0;
        for k in 0..3 {
            let addr = pc + 4 * k;
            if addr >= CODE_LIMIT {
                break;
            }
            words[n] = word(addr);
            n += 1;
        }
        Self::translate(&words[..n]).map_err(|e| e.to_string())
    }

    /// Pre-resolve an already-decoded instruction. `used` is the
    /// encoded length in words as reported by [`Instruction::decode`].
    #[must_use]
    pub fn from_instr(instr: &Instruction, used: usize) -> DecodedInstr {
        #[allow(clippy::cast_possible_truncation)]
        let words = used as u8;
        match *instr {
            Instruction::Dup { two, off1, off2, .. } => DecodedInstr {
                exec: exec_dup,
                op: if two { Opcode::Dup2 } else { Opcode::Dup1 },
                src1: XSrc::Imm(0),
                src2: XSrc::Imm(0),
                dst1: REG_DUMMY,
                dst2: REG_DUMMY,
                qp_inc: 0,
                words,
                off1,
                off2,
                two,
            },
            Instruction::Basic { op, src1, src2, dst1, dst2, qp_inc, .. } => {
                let exec: ExecFn = match op {
                    Opcode::Fetch | Opcode::Fchb => exec_mem_read,
                    Opcode::Store | Opcode::Storb => exec_mem_write,
                    Opcode::Send => exec_send,
                    Opcode::Recv => exec_recv,
                    Opcode::Bne | Opcode::Beq => exec_branch,
                    Opcode::Trap | Opcode::Ftrap => exec_trap,
                    Opcode::Fret | Opcode::Rett => exec_ret,
                    // Everything else is a pure ALU/compare op.
                    _ => exec_alu,
                };
                DecodedInstr {
                    exec,
                    op,
                    src1: xsrc(src1),
                    src2: xsrc(src2),
                    dst1,
                    dst2,
                    qp_inc,
                    words,
                    off1: 0,
                    off2: 0,
                    two: false,
                }
            }
        }
    }

    /// The operation.
    #[must_use]
    pub fn opcode(&self) -> Opcode {
        self.op
    }

    /// Encoded length in words (1 + immediate words).
    #[must_use]
    pub fn size_words(&self) -> u8 {
        self.words
    }

    /// True when execution always returns [`StepResult::Continue`] and
    /// never touches the [`Services`] implementation: `dup`, ALU and
    /// compare ops, memory accesses and branches. Channel ops can
    /// block, traps and returns hand control to the kernel — those are
    /// the scheduling points a batching run loop must surface.
    #[cfg(test)]
    fn is_sequential(&self) -> bool {
        !matches!(
            self.op,
            Opcode::Send
                | Opcode::Recv
                | Opcode::Trap
                | Opcode::Ftrap
                | Opcode::Fret
                | Opcode::Rett
        )
    }

    /// The queue-slot addresses a `dup` writes when executed from
    /// `pe`'s current register state; none for any other instruction.
    pub fn dup_targets<'a>(&'a self, pe: &'a Pe) -> impl Iterator<Item = UWord> + 'a {
        let offsets = match self.op {
            Opcode::Dup1 | Opcode::Dup2 => [Some(self.off1), self.two.then_some(self.off2)],
            _ => [None, None],
        };
        offsets.into_iter().flatten().map(|off| pe.regs.queue_slot_addr(u32::from(off)))
    }

    /// The channel a `send`/`recv` names when executed from `pe`'s
    /// current register state, read without side effects: a window
    /// miss reads its fill word through `word` (an address to the word
    /// there) instead of filling the register. `None` for any other
    /// instruction.
    #[must_use]
    #[inline]
    pub fn channel_operand(&self, pe: &Pe, word: impl FnOnce(UWord) -> Word) -> Option<Word> {
        if !matches!(self.op, Opcode::Send | Opcode::Recv) {
            return None;
        }
        Some(match self.src1 {
            XSrc::Window(n) => {
                pe.regs.read_window(n).unwrap_or_else(|| word(pe.regs.vreg_to_addr(n)))
            }
            XSrc::Global(n) => pe.regs.read_global(n),
            XSrc::Imm(v) => v,
        })
    }

    /// True when reading both source operands from `pe`'s current
    /// register state stays inside `pe`'s local plane: every window
    /// register is present or fills from a local address. Every queue
    /// slot lies in the queue pointer's page, so it is local exactly
    /// when the queue pointer is.
    #[must_use]
    #[inline]
    pub fn fills_local(&self, pe: &Pe) -> bool {
        let present = |src: XSrc| match src {
            XSrc::Window(n) => pe.regs.read_window(n).is_some(),
            XSrc::Global(_) | XSrc::Imm(_) => true,
        };
        crate::mem::is_local(pe.regs.qp()) || present(self.src1) && present(self.src2)
    }

    /// True when executing this instruction from `pe`'s *current*
    /// register state can only touch `pe`'s private local plane — never
    /// global memory, channels or the kernel. Window-miss fills read the
    /// queue page at [`crate::regs::RegisterFile::vreg_to_addr`] and
    /// `dup` writes the slots at
    /// [`crate::regs::RegisterFile::queue_slot_addr`]; both lie in the
    /// queue pointer's page, so they are local unless the program
    /// repointed its queue pointer at global space, which is checked
    /// against [`crate::mem::is_local`] before the claim is made.
    /// `fetch`/`store` are conservatively non-local (their target
    /// address is a computed operand value).
    ///
    /// Local-only steps commute with every other PE's steps: they read
    /// and write nothing another PE's step touches. That is what lets a
    /// batching run loop retire them ahead of the global cycle order
    /// (`qm-sim::xlate`).
    #[must_use]
    #[inline]
    pub fn is_local_only(&self, pe: &Pe) -> bool {
        match self.op {
            // The slots a `dup` writes lie in the queue pointer's page.
            Opcode::Dup1 | Opcode::Dup2 => crate::mem::is_local(pe.regs.qp()),
            Opcode::Fetch
            | Opcode::Fchb
            | Opcode::Store
            | Opcode::Storb
            | Opcode::Send
            | Opcode::Recv
            | Opcode::Trap
            | Opcode::Ftrap
            | Opcode::Fret
            | Opcode::Rett => false,
            // ALU/compare/branch: memory is reached only through
            // window-miss fills of the two source operands.
            _ => self.fills_local(pe),
        }
    }

    /// Run the exec function (the prologue cycle charge lives in
    /// [`Pe::step_decoded`], which is the only caller).
    #[inline]
    pub(crate) fn exec(
        &self,
        pe: &mut Pe,
        port: &mut dyn DataPort,
        svc: &mut dyn Services,
    ) -> StepResult {
        (self.exec)(self, pe, port, svc)
    }
}

#[inline]
fn xsrc(m: SrcMode) -> XSrc {
    match m {
        SrcMode::Window(n) => XSrc::Window(n),
        SrcMode::Global(n) => XSrc::Global(n),
        SrcMode::Imm(v) => XSrc::Imm(Word::from(v)),
        SrcMode::ImmWord(v) => XSrc::Imm(v),
    }
}

/// Read a resolved operand with the interpreter's exact charging:
/// window hits and misses count and cost identically to
/// `Pe::read_src`.
#[inline]
fn read_xsrc(pe: &mut Pe, src: XSrc, port: &mut dyn DataPort) -> Word {
    match src {
        XSrc::Window(n) => {
            if let Some(v) = pe.regs.read_window(n) {
                pe.stats.window_hits += 1;
                v
            } else {
                let addr = pe.regs.vreg_to_addr(n);
                let (v, extra) = port.read_word(pe.id, addr);
                pe.cycles += pe.model.window_miss + extra;
                pe.stats.window_misses += 1;
                pe.regs.fill_window(n, v);
                v
            }
        }
        XSrc::Global(n) => pe.regs.read_global(n),
        XSrc::Imm(v) => v,
    }
}

#[inline]
fn next_pc(pe: &Pe, d: &DecodedInstr) -> UWord {
    pe.regs.pc().wrapping_add(4 * UWord::from(d.words))
}

fn exec_dup(
    d: &DecodedInstr,
    pe: &mut Pe,
    port: &mut dyn DataPort,
    _: &mut dyn Services,
) -> StepResult {
    // dup writes the memory-resident queue page directly, even for
    // offsets < 16 (thesis §5.3.3).
    let next = next_pc(pe, d);
    let v = pe.last_result();
    let addr1 = pe.regs.queue_slot_addr(u32::from(d.off1));
    let extra = port.write_word(pe.id, addr1, v);
    pe.cycles += pe.model.mem_extra + extra;
    pe.stats.mem_writes += 1;
    if d.two {
        let addr2 = pe.regs.queue_slot_addr(u32::from(d.off2));
        let extra = port.write_word(pe.id, addr2, v);
        pe.cycles += pe.model.mem_extra + extra;
        pe.stats.mem_writes += 1;
    }
    pe.regs.set_pc(next);
    pe.stats.instructions += 1;
    StepResult::Continue
}

/// The shared non-early-return epilogue of a basic instruction:
/// advance the queue, set the PC, deposit the result (if any) and
/// retire.
#[inline]
fn finish(d: &DecodedInstr, pe: &mut Pe, pc_next: UWord, value: Option<Word>) -> StepResult {
    pe.regs.advance_qp(d.qp_inc);
    pe.regs.set_pc(pc_next);
    if let Some(v) = value {
        pe.write_dst(d.dst1, v);
        pe.write_dst(d.dst2, v);
        pe.set_last_result(v);
    }
    pe.stats.instructions += 1;
    StepResult::Continue
}

fn exec_alu(
    d: &DecodedInstr,
    pe: &mut Pe,
    port: &mut dyn DataPort,
    _: &mut dyn Services,
) -> StepResult {
    let next = next_pc(pe, d);
    let a = read_xsrc(pe, d.src1, port);
    let b = read_xsrc(pe, d.src2, port);
    let v = d.op.alu(a, b).expect("translation routes only pure ALU ops here");
    finish(d, pe, next, Some(v))
}

fn exec_mem_read(
    d: &DecodedInstr,
    pe: &mut Pe,
    port: &mut dyn DataPort,
    _: &mut dyn Services,
) -> StepResult {
    let next = next_pc(pe, d);
    let a = read_xsrc(pe, d.src1, port);
    let _b = read_xsrc(pe, d.src2, port);
    #[allow(clippy::cast_sign_loss)]
    let (v, extra) = if d.op == Opcode::Fetch {
        port.read_word(pe.id, a as UWord)
    } else {
        port.read_byte(pe.id, a as UWord)
    };
    pe.cycles += pe.model.mem_extra + extra;
    pe.stats.mem_reads += 1;
    finish(d, pe, next, Some(v))
}

fn exec_mem_write(
    d: &DecodedInstr,
    pe: &mut Pe,
    port: &mut dyn DataPort,
    _: &mut dyn Services,
) -> StepResult {
    let next = next_pc(pe, d);
    let a = read_xsrc(pe, d.src1, port);
    let b = read_xsrc(pe, d.src2, port);
    #[allow(clippy::cast_sign_loss)]
    let addr = a as UWord;
    if addr < CODE_LIMIT {
        return StepResult::Error(format!("store into the read-only code segment at {addr:#010x}"));
    }
    let extra = if d.op == Opcode::Store {
        port.write_word(pe.id, addr, b)
    } else {
        port.write_byte(pe.id, addr, b)
    };
    pe.cycles += pe.model.mem_extra + extra;
    pe.stats.mem_writes += 1;
    finish(d, pe, next, None)
}

fn exec_send(
    d: &DecodedInstr,
    pe: &mut Pe,
    port: &mut dyn DataPort,
    svc: &mut dyn Services,
) -> StepResult {
    let next = next_pc(pe, d);
    let a = read_xsrc(pe, d.src1, port);
    let b = read_xsrc(pe, d.src2, port);
    match svc.send(pe.id, a, b) {
        SendOutcome::Done { cycles } => {
            pe.cycles += pe.model.channel + cycles;
            pe.stats.sends += 1;
            finish(d, pe, next, None)
        }
        SendOutcome::Block => StepResult::Blocked(BlockReason::SendOn(a)),
    }
}

fn exec_recv(
    d: &DecodedInstr,
    pe: &mut Pe,
    port: &mut dyn DataPort,
    svc: &mut dyn Services,
) -> StepResult {
    let next = next_pc(pe, d);
    let a = read_xsrc(pe, d.src1, port);
    let _b = read_xsrc(pe, d.src2, port);
    match svc.recv(pe.id, a) {
        RecvOutcome::Done { value, cycles } => {
            pe.cycles += pe.model.channel + cycles;
            pe.stats.recvs += 1;
            finish(d, pe, next, Some(value))
        }
        RecvOutcome::Block => StepResult::Blocked(BlockReason::RecvOn(a)),
    }
}

fn exec_branch(
    d: &DecodedInstr,
    pe: &mut Pe,
    port: &mut dyn DataPort,
    _: &mut dyn Services,
) -> StepResult {
    let next = next_pc(pe, d);
    let a = read_xsrc(pe, d.src1, port);
    let b = read_xsrc(pe, d.src2, port);
    let mut pc_next = next;
    let taken = (a != 0) == (d.op == Opcode::Bne);
    if taken {
        #[allow(clippy::cast_sign_loss)]
        {
            pc_next = next.wrapping_add(b as UWord);
        }
        pe.cycles += pe.model.branch_taken;
    }
    finish(d, pe, pc_next, None)
}

fn exec_trap(
    d: &DecodedInstr,
    pe: &mut Pe,
    port: &mut dyn DataPort,
    _: &mut dyn Services,
) -> StepResult {
    let next = next_pc(pe, d);
    let a = read_xsrc(pe, d.src1, port);
    let b = read_xsrc(pe, d.src2, port);
    pe.cycles += pe.model.trap;
    pe.stats.traps += 1;
    pe.stats.instructions += 1;
    pe.regs.advance_qp(d.qp_inc);
    pe.regs.set_pc(next);
    StepResult::Trap { entry: a, arg: b, dst1: d.dst1, dst2: d.dst2, fast: d.op == Opcode::Ftrap }
}

fn exec_ret(
    d: &DecodedInstr,
    pe: &mut Pe,
    port: &mut dyn DataPort,
    _: &mut dyn Services,
) -> StepResult {
    let next = next_pc(pe, d);
    let _a = read_xsrc(pe, d.src1, port);
    let _b = read_xsrc(pe, d.src2, port);
    pe.stats.instructions += 1;
    pe.regs.set_pc(next);
    StepResult::Return { fast: d.op == Opcode::Fret }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::FlatMemory;
    use crate::pe::BufferedChannels;

    const QP0: UWord = 0x8000_0400;

    /// A broad instruction pool covering every exec class and operand
    /// mode; each is run through `Pe::step` (which itself goes through
    /// the decoded path) and through an explicitly pre-translated
    /// `step_decoded`, and the complete PE state must match.
    fn pool() -> Vec<Instruction> {
        use Opcode::*;
        let b = |op, src1, src2, dst1, dst2, qp_inc| Instruction::Basic {
            op,
            src1,
            src2,
            dst1,
            dst2,
            qp_inc,
            cont: false,
        };
        let mut v = vec![
            Instruction::Dup { two: false, off1: 30, off2: 0, cont: false },
            Instruction::Dup { two: true, off1: 3, off2: 250, cont: false },
            b(Fetch, SrcMode::ImmWord(0x0010_0100), SrcMode::Imm(0), 0, REG_DUMMY, 0),
            b(Fchb, SrcMode::ImmWord(0x0010_0101), SrcMode::Imm(0), 1, REG_DUMMY, 0),
            b(Store, SrcMode::ImmWord(0x0010_0200), SrcMode::Imm(7), REG_DUMMY, REG_DUMMY, 0),
            b(Storb, SrcMode::ImmWord(0x0010_0201), SrcMode::Imm(9), REG_DUMMY, REG_DUMMY, 0),
            b(Send, SrcMode::Imm(5), SrcMode::Imm(13), REG_DUMMY, REG_DUMMY, 0),
            b(Recv, SrcMode::Imm(5), SrcMode::Imm(0), 2, REG_DUMMY, 0),
            b(Recv, SrcMode::Imm(6), SrcMode::Imm(0), 2, REG_DUMMY, 0), // blocks
            b(Bne, SrcMode::Imm(-1), SrcMode::Imm(8), REG_DUMMY, REG_DUMMY, 0),
            b(Beq, SrcMode::Imm(-1), SrcMode::Imm(8), REG_DUMMY, REG_DUMMY, 0),
            b(Trap, SrcMode::Imm(3), SrcMode::Imm(7), 1, 2, 1),
            b(Ftrap, SrcMode::Imm(1), SrcMode::Imm(0), REG_DUMMY, REG_DUMMY, 0),
            b(Fret, SrcMode::Imm(0), SrcMode::Imm(0), REG_DUMMY, REG_DUMMY, 0),
            b(Rett, SrcMode::Imm(0), SrcMode::Imm(0), REG_DUMMY, REG_DUMMY, 0),
            b(Plus, SrcMode::Window(0), SrcMode::Window(1), 0, 2, 2), // misses then hits
            b(Plus, SrcMode::ImmWord(1000), SrcMode::Imm(1), 17, REG_DUMMY, 0),
        ];
        for &(op, _) in &Opcode::ALL {
            if op.alu(1, 2).is_some() {
                v.push(b(op, SrcMode::Imm(11), SrcMode::Imm(3), 4, REG_DUMMY, 0));
                v.push(b(op, SrcMode::Global(17), SrcMode::Imm(-2), 18, 5, 0));
            }
        }
        v
    }

    fn fresh(instr: &Instruction) -> (Pe, FlatMemory, BufferedChannels) {
        let mut mem = FlatMemory::new();
        mem.load_words(0, &instr.encode().unwrap());
        mem.poke(0x0010_0100, 0x1234_5678);
        mem.poke(QP0, 41);
        mem.poke(QP0 + 4, 43);
        let mut pe = Pe::new(0);
        pe.reset(0, QP0);
        pe.regs.write_global(17, -5);
        pe.set_last_result(77);
        let mut chans = BufferedChannels::new();
        chans.push(5, 42);
        (pe, mem, chans)
    }

    #[test]
    fn step_and_step_decoded_agree_on_every_class() {
        for instr in pool() {
            let (mut pe_a, mut mem_a, mut ch_a) = fresh(&instr);
            let (mut pe_b, mut mem_b, mut ch_b) = fresh(&instr);

            let ra = pe_a.step(&mut mem_a, &mut ch_a);

            let words = instr.encode().unwrap();
            let mut padded = [0u32; 3];
            padded[..words.len()].copy_from_slice(&words);
            let d = DecodedInstr::translate(&padded).unwrap();
            let rb = pe_b.step_decoded(&d, &mut mem_b, &mut ch_b);

            assert_eq!(ra, rb, "{instr}");
            assert_eq!(pe_a.regs, pe_b.regs, "{instr}");
            assert_eq!(pe_a.cycles, pe_b.cycles, "{instr}");
            assert_eq!(pe_a.stats, pe_b.stats, "{instr}");
            assert_eq!(pe_a.last_result(), pe_b.last_result(), "{instr}");
            // Every word the pool touches; the byte store at
            // 0x0010_0201 lands in the word at 0x0010_0200.
            for addr in [QP0, QP0 + 4, QP0 + 30 * 4, 0x0010_0100, 0x0010_0200] {
                assert_eq!(mem_a.peek(addr), mem_b.peek(addr), "{instr} @{addr:#x}");
            }
        }
    }

    #[test]
    fn locality_checks_match_every_address_they_stand_for() {
        // The queue-page shortcut of `is_local_only` and `fills_local`
        // must agree with checking each fill and `dup` address, with the
        // queue pointer on either side of the local base, under any page
        // mask and window presence.
        use crate::mem::is_local;
        let mut instrs = pool();
        instrs.push(Instruction::basic(Opcode::Send, SrcMode::Window(3), SrcMode::Window(15)));
        instrs.push(Instruction::basic(Opcode::Minus, SrcMode::Window(9), SrcMode::Global(20)));
        qm_core::rng::check(300, |g| {
            let mut pe = Pe::new(0);
            let qp = if g.below(2) == 0 { QP0 } else { 0x0010_0400 };
            pe.reset(0, qp.wrapping_add(4 * g.range(0u32..256)));
            pe.regs.set_pom(g.range(0u8..=255));
            for v in 0..16 {
                if g.below(2) == 0 {
                    pe.regs.write_window(v, 1);
                }
            }
            let fill = |src: XSrc| match src {
                XSrc::Window(n) => {
                    pe.regs.read_window(n).is_some() || is_local(pe.regs.vreg_to_addr(n))
                }
                XSrc::Global(_) | XSrc::Imm(_) => true,
            };
            for instr in &instrs {
                let d = DecodedInstr::from_instr(instr, instr.size_words());
                let fills = fill(d.src1) && fill(d.src2);
                assert_eq!(d.fills_local(&pe), fills, "{instr}");
                let local_only = match d.opcode() {
                    Opcode::Dup1 | Opcode::Dup2 => d.dup_targets(&pe).all(is_local),
                    Opcode::Fetch | Opcode::Fchb | Opcode::Store | Opcode::Storb => false,
                    _ if d.is_sequential() => fills,
                    _ => false,
                };
                assert_eq!(d.is_local_only(&pe), local_only, "{instr}");
            }
        });
    }

    #[test]
    fn translate_rejects_exactly_what_decode_rejects() {
        let bad = [0x3Fu32 << 26, 0, 0]; // unknown opcode 0o77
        assert_eq!(
            DecodedInstr::translate(&bad).unwrap_err().to_string(),
            Instruction::decode(&bad).unwrap_err().to_string(),
        );
        let truncated = [Instruction::basic(Opcode::Plus, SrcMode::ImmWord(1), SrcMode::Imm(0))
            .encode()
            .unwrap()[0]];
        assert_eq!(
            DecodedInstr::translate(&truncated).unwrap_err().to_string(),
            Instruction::decode(&truncated).unwrap_err().to_string(),
        );
    }

    #[test]
    fn sequential_classification() {
        let seq = [Opcode::Plus, Opcode::Fetch, Opcode::Store, Opcode::Bne, Opcode::Dup1];
        let non =
            [Opcode::Send, Opcode::Recv, Opcode::Trap, Opcode::Ftrap, Opcode::Fret, Opcode::Rett];
        for instr in pool() {
            let d = DecodedInstr::from_instr(&instr, instr.size_words());
            if seq.contains(&d.opcode()) {
                assert!(d.is_sequential(), "{instr}");
            }
            if non.contains(&d.opcode()) {
                assert!(!d.is_sequential(), "{instr}");
            }
        }
    }

    #[test]
    fn size_words_matches_encoding() {
        for instr in pool() {
            let d = DecodedInstr::from_instr(&instr, instr.size_words());
            assert_eq!(usize::from(d.size_words()), instr.size_words(), "{instr}");
        }
    }
}
