//! Abstract queue-state dataflow over assembled object code.
//!
//! The pass walks the control-flow graph of each context (instruction
//! granularity, discovered from the entry point and from constant fork
//! targets) carrying an abstract queue state: a 256-bit mask of *defined*
//! queue slots relative to the current front, the *known constants*
//! slots hold (the compiler stages fork targets through the window, so
//! constant propagation is what makes the fork graph statically
//! visible), plus a "previous instruction produced a value" bit for
//! `dup`. The transfer function
//! mirrors [`qm_isa::pe::Pe::step`] exactly — reads happen before the
//! queue pointer advances, destinations are written relative to the new
//! front, `dup` writes relative to the current front — and the join at
//! merge points is set intersection (a slot is defined only if it is
//! defined on every path), so every error this pass reports is a
//! violation on *some* path and every "defined" fact holds on *all*
//! paths.
//!
//! A transfer step allocates nothing beyond interning a value the pass
//! has not seen before, and it interns each produced value once. States
//! are `Copy`: constants are interned, so a state's slots are a ring of
//! 256 `u16` ids indexed from the front, and a queue-pointer advance
//! clears the consumed slots and moves the ring's head. The shared
//! [`Worklist`] steps straight-line runs in place on one working state
//! and stores an in-state only where the fixpoint reads it again. Each
//! step records its findings as compact [`Finding`]s in a log, and the
//! diagnostics pass renders the last step at each point instead of
//! stepping again: the worklist pops a point after every change to its
//! state, so that last step saw the fixpoint.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

use qm_isa::isa::{Instruction, Opcode, SrcMode, REG_DUMMY, REG_PC, REG_POM, REG_QP};
use qm_isa::{UWord, Word};

use crate::decoded::{DecodedCode, Succs};
use crate::diag::{Code, Diagnostic, Report};
use crate::domain::{concat, Consts, SET_CAP};
use crate::worklist::{Dataflow, Worklist};
use crate::{names, traps, VerifyOptions};

/// 256 definedness bits, one per queue slot relative to the front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Mask([u64; 4]);

impl Mask {
    pub(crate) const EMPTY: Mask = Mask([0; 4]);

    pub(crate) fn get(&self, i: u32) -> bool {
        i < 256 && self.0[(i / 64) as usize] >> (i % 64) & 1 == 1
    }

    pub(crate) fn set(&mut self, i: u32) {
        if i < 256 {
            self.0[(i / 64) as usize] |= 1 << (i % 64);
        }
    }

    /// The queue pointer advanced by `k`: every bit moves down `k`
    /// places (slot `k+n` becomes slot `n`), the top `k` bits clear.
    pub(crate) fn shift_down(&mut self, k: u32) {
        debug_assert!(k < 64);
        if k == 0 {
            return;
        }
        for i in 0..4 {
            let hi = if i + 1 < 4 { self.0[i + 1] << (64 - k) } else { 0 };
            self.0[i] = (self.0[i] >> k) | hi;
        }
    }

    pub(crate) fn intersect(&self, other: &Mask) -> Mask {
        Mask([
            self.0[0] & other.0[0],
            self.0[1] & other.0[1],
            self.0[2] & other.0[2],
            self.0[3] & other.0[3],
        ])
    }
}

/// Abstract value tracked through window slots for fork-target
/// discovery. The compiler stages fork targets through the window
/// (`plus #child,#0 :r0` … `trap+1 #0,r0`), and `while`/`if` lowerings
/// select between continuation addresses with `(a ∧ m) ∨ (b ∧ ¬m)`
/// where `m` is a comparison result (0 or −1 in this ISA); tracking
/// both idioms — sets, because selects nest — is what makes the fork
/// graph statically visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum AbsVal {
    /// A comparison result: 0 or −1 (the ISA's boolean convention).
    Bool,
    /// One of these constants. A singleton is an ordinary known
    /// constant; more than 16 decay to unknown.
    OneOf(Consts),
    /// `v ∧ bool` for `v` in the set: either 0 or one of the set.
    /// `or`-ing two `Gated` values assumes their gates are
    /// complementary, which is how the compiler emits `sel`; the
    /// queue-discipline checks do not depend on this assumption.
    Gated(Consts),
}

impl AbsVal {
    fn constant(v: Word) -> AbsVal {
        AbsVal::OneOf(Consts::one(v))
    }

    /// The single constant this value must be, if any.
    fn singleton(v: Option<AbsVal>) -> Option<Word> {
        match v {
            Some(AbsVal::OneOf(set)) => match set.as_slice() {
                &[c] => Some(c),
                _ => None,
            },
            _ => None,
        }
    }
}

/// Apply `f` across two value sets.
fn cross(xs: &Consts, ys: &Consts, f: impl Fn(Word, Word) -> Word) -> Option<AbsVal> {
    let mut out = [0; SET_CAP * SET_CAP];
    let mut n = 0;
    for &x in xs.as_slice() {
        for &y in ys.as_slice() {
            out[n] = f(x, y);
            n += 1;
        }
    }
    Consts::collect(&mut out[..n]).map(AbsVal::OneOf)
}

/// Constant-fold an ALU result; `None` when the opcode/operand shape is
/// not one the [`AbsVal`] domain models.
fn fold(op: Opcode, a: Option<AbsVal>, b: Option<AbsVal>) -> Option<AbsVal> {
    use AbsVal::{Bool, Gated, OneOf};
    if matches!(
        op,
        Opcode::Ge
            | Opcode::Ne
            | Opcode::Gt
            | Opcode::Lt
            | Opcode::Eq
            | Opcode::Le
            | Opcode::His
            | Opcode::Hi
            | Opcode::Lo
            | Opcode::Los
    ) {
        return Some(Bool);
    }
    match (op, a?, b?) {
        (Opcode::Plus, OneOf(x), OneOf(y)) => cross(&x, &y, Word::wrapping_add),
        (Opcode::Plus, v, OneOf(z)) | (Opcode::Plus, OneOf(z), v) if z.as_slice() == [0] => Some(v),
        (Opcode::Minus, OneOf(x), OneOf(y)) => cross(&x, &y, Word::wrapping_sub),
        (Opcode::Mul, OneOf(x), OneOf(y)) => cross(&x, &y, Word::wrapping_mul),
        (Opcode::And, OneOf(x), OneOf(y)) => cross(&x, &y, |p, q| p & q),
        (Opcode::And, OneOf(v), Bool) | (Opcode::And, Bool, OneOf(v)) => Some(Gated(v)),
        (Opcode::Or, OneOf(x), OneOf(y)) => cross(&x, &y, |p, q| p | q),
        (Opcode::Or, Gated(x), Gated(y)) => {
            Consts::collect(concat(&x, &y, &mut [0; 2 * SET_CAP])).map(OneOf)
        }
        (Opcode::Xor, OneOf(x), OneOf(y)) => cross(&x, &y, |p, q| p ^ q),
        (Opcode::Xor, Bool, OneOf(z)) | (Opcode::Xor, OneOf(z), Bool) if z.as_slice() == [-1] => {
            Some(Bool)
        }
        _ => None,
    }
}

/// Id of "no statically known value".
const UNKNOWN: u16 = 0;

/// The pass's interned [`AbsVal`]s. A state slot holds an id, so
/// states are small `Copy` arrays and two slots agree exactly when
/// their ids do.
#[derive(Default)]
struct Values {
    vals: Vec<AbsVal>,
    ids: HashMap<AbsVal, u16>,
}

impl Values {
    /// The id of `v`. Past `u16::MAX` distinct values a new value is
    /// tracked as unknown: sound, only less precise.
    fn id(&mut self, v: Option<AbsVal>) -> u16 {
        let Some(v) = v else { return UNKNOWN };
        if let Some(&id) = self.ids.get(&v) {
            return id;
        }
        let Ok(id) = u16::try_from(self.vals.len() + 1) else { return UNKNOWN };
        self.vals.push(v);
        self.ids.insert(v, id);
        id
    }

    fn get(&self, id: u16) -> Option<AbsVal> {
        id.checked_sub(1).map(|i| self.vals[usize::from(i)])
    }
}

/// Abstract state at one program point.
#[derive(Debug, Clone, Copy)]
pub(crate) struct State {
    /// Defined queue slots relative to the current front.
    defined: Mask,
    /// Per slot: the id of its known value. A ring: slot `n` relative
    /// to the front is `consts[head + n]`, wrapping at 256.
    consts: [u16; 256],
    /// Where the front is in `consts`.
    head: u8,
    /// A value-producing instruction has executed (so `dup` has a
    /// result to duplicate) on every path to this point.
    have_result: bool,
    /// Id of `last_result` when it is statically known.
    result_val: u16,
}

impl State {
    const ENTRY: State = State {
        defined: Mask::EMPTY,
        consts: [UNKNOWN; 256],
        head: 0,
        have_result: false,
        result_val: UNKNOWN,
    };

    /// The value id of slot `n` relative to the front.
    fn slot(&self, n: u8) -> u16 {
        self.consts[usize::from(self.head.wrapping_add(n))]
    }

    fn set_slot(&mut self, n: u8, id: u16) {
        self.consts[usize::from(self.head.wrapping_add(n))] = id;
    }

    /// Join `other` into this state; true when this state changed.
    fn join_from(&mut self, other: &State) -> bool {
        let defined = self.defined.intersect(&other.defined);
        let mut changed = defined != self.defined;
        self.defined = defined;
        for n in 0..=u8::MAX {
            let a = self.slot(n);
            if a != other.slot(n) && a != UNKNOWN {
                self.set_slot(n, UNKNOWN);
                changed = true;
            }
        }
        if self.have_result && !other.have_result {
            self.have_result = false;
            changed = true;
        }
        if self.result_val != other.result_val && self.result_val != UNKNOWN {
            self.result_val = UNKNOWN;
            changed = true;
        }
        changed
    }
}

/// One finding of a transfer step, kept compact so stepping allocates
/// nothing; [`QueuePass::diagnostic`] renders it.
#[derive(Debug, Clone, Copy)]
enum Finding {
    /// A constant fork target: a new context entry, not a diagnostic.
    Fork(UWord),
    Undecodable,
    UndefinedRead(u8),
    /// `+qp_inc` consumed the slots whose bits are set: they hold no
    /// value on some path.
    Underflow {
        qp_inc: u8,
        undefined: u8,
    },
    DupWithoutResult,
    DupOutsideWindow(u8),
    SlotOverwrite(u8),
    RunsOffEnd,
    IntoData(UWord),
    BranchRunsOffEnd,
    BadBranchTarget(UWord),
    RuntimeBranch,
    KernelReturn(Opcode),
    PointerWrite(u8),
    RuntimeTrapEntry,
    UnknownTrapEntry(Word),
    NoSecondResult {
        entry: Word,
        dst: u8,
    },
    NoResult {
        entry: Word,
        dst: u8,
    },
    BadForkTarget {
        entry: Word,
        target: Word,
    },
    RuntimeForkTarget(Word),
}

/// What one transfer step leaves at its program point for the
/// diagnostics pass.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Transfer {
    /// Defined slots after the step (the join-consistency lint's input).
    out_defined: Mask,
    succs: Succs,
    /// The step's findings: `log[findings.0..findings.1]`.
    findings: (usize, usize),
}

pub(crate) struct QueuePass<'a> {
    code: &'a DecodedCode<'a>,
    opts: &'a VerifyOptions,
    /// Transfer steps one context may take before the analysis stops
    /// short of a fixpoint.
    budget: usize,
    values: Values,
    /// Findings of every step of the current context.
    log: Vec<Finding>,
    /// `(to, from, defined)` per control-flow edge, for the join lint.
    edges: Vec<(UWord, UWord, Mask)>,
}

impl<'a> QueuePass<'a> {
    pub(crate) fn new(code: &'a DecodedCode<'a>, opts: &'a VerifyOptions, budget: usize) -> Self {
        QueuePass {
            code,
            opts,
            budget,
            values: Values::default(),
            log: Vec::new(),
            edges: Vec::new(),
        }
    }

    fn diag(&self, code: Code, addr: UWord, ctx: &str, msg: String) -> Diagnostic {
        Diagnostic::new(code, msg).in_ctx(ctx).at_pc(addr).at_line(self.code.obj.line_for(addr))
    }

    /// Render one finding of the step at `addr` (`None` for a fork).
    fn diagnostic(&self, f: Finding, addr: UWord, ctx: &str) -> Option<Diagnostic> {
        let (code, msg) = match f {
            Finding::Fork(_) => return None,
            Finding::Undecodable => (
                Code::Undecodable,
                format!("execution reaches an undecodable word: {}", self.code.decode_error(addr)),
            ),
            Finding::UndefinedRead(n) => (
                Code::UndefinedWindowRead,
                format!("read of r{n}: queue slot {n} holds no value on some path"),
            ),
            Finding::Underflow { qp_inc, undefined } => {
                let slots: Vec<u32> =
                    (0..u32::from(qp_inc)).filter(|&i| undefined >> i & 1 == 1).collect();
                (
                    Code::QueueUnderflow,
                    format!(
                        "queue underflow: +{qp_inc} consumes slot(s) {slots:?} that hold no \
                         value on some path"
                    ),
                )
            }
            Finding::DupWithoutResult => (
                Code::DupWithoutResult,
                "dup with no preceding value-producing instruction on some path".into(),
            ),
            Finding::DupOutsideWindow(off) => (
                Code::DupOutsideWindow,
                format!(
                    "dup offset {off} reaches outside the {}-word queue page",
                    self.opts.page_words
                ),
            ),
            Finding::SlotOverwrite(off) => {
                (Code::SlotOverwrite, format!("dup overwrites live queue slot {off}"))
            }
            Finding::RunsOffEnd => (
                Code::RunsOffEnd,
                "execution runs off the end of the code (no terminating trap)".into(),
            ),
            Finding::IntoData(next) => (
                Code::RunsOffEnd,
                format!("execution continues into non-instruction words at {next:#x}"),
            ),
            Finding::BranchRunsOffEnd => {
                (Code::RunsOffEnd, "branch fall-through runs off the end of the code".into())
            }
            Finding::BadBranchTarget(target) => (
                Code::BadBranchTarget,
                format!(
                    "branch target {target:#x} is outside the code or not an instruction start"
                ),
            ),
            Finding::RuntimeBranch => (
                Code::Unanalyzable,
                "branch offset depends on a runtime value; only the fall-through path is checked"
                    .into(),
            ),
            Finding::KernelReturn(op) => (
                Code::Unanalyzable,
                format!("kernel-mode return ({op}) in user code ends analysis"),
            ),
            Finding::PointerWrite(dst) => (
                Code::Unanalyzable,
                format!(
                    "write to r{dst} ({}) escapes static analysis; the path is not checked past \
                     this point",
                    match dst {
                        REG_PC => "pc",
                        REG_QP => "qp",
                        _ => "pom",
                    }
                ),
            ),
            Finding::RuntimeTrapEntry => (
                Code::Unanalyzable,
                "trap entry depends on a runtime value; results assumed written".into(),
            ),
            Finding::UnknownTrapEntry(entry) => (
                Code::Unanalyzable,
                format!("unknown kernel entry {entry}; the simulator would fault here"),
            ),
            Finding::NoSecondResult { entry, dst } => (
                Code::TrapArityMismatch,
                format!(
                    "{} (entry {entry}) never writes a second result, but dst2 is r{dst}",
                    traps::name(entry)
                ),
            ),
            Finding::NoResult { entry, dst } => (
                Code::TrapArityMismatch,
                format!(
                    "{} (entry {entry}) never writes a result, but dst1 is r{dst}",
                    traps::name(entry)
                ),
            ),
            Finding::BadForkTarget { entry, target } => (
                Code::BadForkTarget,
                format!("{} target {target:#x} is not a code entry point", traps::name(entry)),
            ),
            Finding::RuntimeForkTarget(entry) => (
                Code::Unanalyzable,
                format!(
                    "{} target depends on a runtime value; the child context is not checked",
                    traps::name(entry)
                ),
            ),
        };
        Some(self.diag(code, addr, ctx, msg))
    }

    /// Read one source operand: definedness check plus constant
    /// extraction.
    fn read_src(&mut self, mode: SrcMode, state: &State) -> Option<AbsVal> {
        match mode {
            SrcMode::Window(n) => {
                if !state.defined.get(u32::from(n)) {
                    self.log.push(Finding::UndefinedRead(n));
                }
                self.values.get(state.slot(n))
            }
            SrcMode::Global(_) => None,
            SrcMode::Imm(v) => Some(AbsVal::constant(Word::from(v))),
            SrcMode::ImmWord(v) => Some(AbsVal::constant(v)),
        }
    }

    /// Queue-pointer advance: underflow check plus the slot shift.
    fn advance(&mut self, state: &mut State, qp_inc: u8) {
        let undefined =
            (0..qp_inc).fold(0u8, |bits, i| bits | u8::from(!state.defined.get(u32::from(i))) << i);
        if undefined != 0 {
            self.log.push(Finding::Underflow { qp_inc, undefined });
        }
        state.defined.shift_down(u32::from(qp_inc));
        // The consumed front slots become the ring's last slots.
        for n in 0..qp_inc {
            state.set_slot(n, UNKNOWN);
        }
        state.head = state.head.wrapping_add(qp_inc);
    }

    /// Write a destination register (post-advance); `val` is the id of
    /// the written value. Returns `false` when the write makes the rest
    /// of the path unanalyzable (pc/qp/pom).
    fn write_dst(&mut self, state: &mut State, dst: u8, val: u16) -> bool {
        match dst {
            d if d < 16 => {
                state.defined.set(u32::from(d));
                state.set_slot(d, val);
                true
            }
            REG_PC | REG_QP | REG_POM => {
                self.log.push(Finding::PointerWrite(dst));
                false
            }
            _ => true, // plain global (incl. DUMMY): no queue effect
        }
    }

    /// The successor for straight-line flow, checking for running off
    /// the end of the code or into data words.
    fn fall_through(&mut self, addr: UWord, size: UWord, succs: &mut Succs) {
        let next = addr + size;
        if next >= self.code.end() {
            self.log.push(Finding::RunsOffEnd);
        } else if !self.code.is_instr_start(next) {
            self.log.push(Finding::IntoData(next));
        } else {
            succs.push(next);
        }
    }

    /// The transfer function at `addr`: turns the in-state `state` into
    /// the out-state and returns the step's successors and findings.
    fn step(&mut self, addr: UWord, state: &mut State) -> Transfer {
        let mut succs = Succs::default();
        let first = self.log.len();
        match self.code.instr_at(addr) {
            None => self.log.push(Finding::Undecodable),
            Some((&Instruction::Dup { two, off1, off2, .. }, size)) => {
                if !state.have_result {
                    self.log.push(Finding::DupWithoutResult);
                }
                let offs = [off1, off2];
                let offs = &offs[..if two { 2 } else { 1 }];
                // Both offsets are checked against the in-state before
                // either is written.
                for &off in offs {
                    if u32::from(off) >= self.opts.page_words {
                        self.log.push(Finding::DupOutsideWindow(off));
                    } else if state.defined.get(u32::from(off)) {
                        self.log.push(Finding::SlotOverwrite(off));
                    }
                }
                for &off in offs {
                    state.defined.set(u32::from(off));
                    state.set_slot(off, state.result_val);
                }
                self.fall_through(addr, size, &mut succs);
            }
            Some((&Instruction::Basic { op, src1, src2, dst1, dst2, qp_inc, .. }, size)) => {
                let a = self.read_src(src1, state);
                let b = self.read_src(src2, state);
                match op {
                    Opcode::Bne | Opcode::Beq => {
                        self.advance(state, qp_inc);
                        // Constant conditions fold: `beq #0,@l` is the
                        // unconditional-jump idiom, `bne #0,…` never fires.
                        let taken = AbsVal::singleton(a).map(|v| (v != 0) == (op == Opcode::Bne));
                        let next = addr + size;
                        if taken != Some(true) {
                            if self.code.is_instr_start(next) {
                                succs.push(next);
                            } else {
                                self.log.push(Finding::BranchRunsOffEnd);
                            }
                        }
                        if taken != Some(false) {
                            match AbsVal::singleton(b) {
                                Some(off) => {
                                    #[allow(clippy::cast_sign_loss)]
                                    let target = next.wrapping_add(off as UWord);
                                    if self.code.is_instr_start(target) {
                                        succs.push(target);
                                    } else {
                                        self.log.push(Finding::BadBranchTarget(target));
                                    }
                                }
                                None => self.log.push(Finding::RuntimeBranch),
                            }
                        }
                    }
                    Opcode::Trap | Opcode::Ftrap => {
                        self.advance(state, qp_inc);
                        self.step_trap(addr, size, a, b, dst1, dst2, state, &mut succs);
                    }
                    Opcode::Fret | Opcode::Rett => self.log.push(Finding::KernelReturn(op)),
                    _ => {
                        // ALU / compare / memory / channel: value-producing
                        // unless store/send.
                        self.advance(state, qp_inc);
                        let produces = !matches!(op, Opcode::Store | Opcode::Storb | Opcode::Send);
                        let mut analyzable = true;
                        if produces {
                            let val = self.values.id(fold(op, a, b));
                            analyzable &= self.write_dst(state, dst1, val);
                            analyzable &= self.write_dst(state, dst2, val);
                            state.have_result = true;
                            state.result_val = val;
                        }
                        if analyzable {
                            self.fall_through(addr, size, &mut succs);
                        }
                    }
                }
            }
        }
        Transfer { out_defined: state.defined, succs, findings: (first, self.log.len()) }
    }

    #[allow(clippy::too_many_arguments)]
    fn step_trap(
        &mut self,
        addr: UWord,
        size: UWord,
        entry: Option<AbsVal>,
        arg: Option<AbsVal>,
        dst1: u8,
        dst2: u8,
        out: &mut State,
        succs: &mut Succs,
    ) {
        let known = AbsVal::singleton(entry).map(|e| (e, traps::result_count(e)));
        let Some((entry, Some(results))) = known else {
            self.log.push(match known {
                Some((entry, _)) => Finding::UnknownTrapEntry(entry),
                None => Finding::RuntimeTrapEntry,
            });
            self.write_dst(out, dst1, UNKNOWN);
            self.write_dst(out, dst2, UNKNOWN);
            out.have_result = true;
            out.result_val = UNKNOWN;
            self.fall_through(addr, size, succs);
            return;
        };
        // Destinations the kernel entry never writes must be DUMMY —
        // anything else reads as expecting a result that never comes.
        if results < 2 && dst2 != REG_DUMMY {
            self.log.push(Finding::NoSecondResult { entry, dst: dst2 });
        }
        if results < 1 && dst1 != REG_DUMMY {
            self.log.push(Finding::NoResult { entry, dst: dst1 });
        }
        if results >= 1 {
            self.write_dst(out, dst1, UNKNOWN);
            out.have_result = true;
            out.result_val = UNKNOWN;
        }
        if results >= 2 {
            self.write_dst(out, dst2, UNKNOWN);
        }
        if traps::is_fork(entry) {
            match arg {
                Some(AbsVal::OneOf(targets)) => {
                    for &target in targets.as_slice() {
                        #[allow(clippy::cast_sign_loss)]
                        if self.code.is_instr_start(target as UWord) {
                            self.log.push(Finding::Fork(target as UWord));
                        } else {
                            self.log.push(Finding::BadForkTarget { entry, target });
                        }
                    }
                }
                _ => self.log.push(Finding::RuntimeForkTarget(entry)),
            }
        }
        if matches!(entry, traps::END | traps::HALT) {
            return; // terminal: no successor
        }
        self.fall_through(addr, size, succs);
    }

    /// Analyze one context rooted at `entry`; returns constant fork
    /// targets found (candidate further contexts).
    fn analyze_context(
        &mut self,
        work: &mut Worklist<'a, Self>,
        entry: UWord,
        ctx: &str,
        report: &mut Report,
        seen: &mut HashSet<(Code, UWord, String)>,
    ) -> BTreeSet<UWord> {
        self.log.clear();
        let stopped_at = work.solve(self, entry, State::ENTRY, self.budget);

        // Diagnostics over the fixpoint, once per program point, in
        // address order: each point's last step saw its fixpoint
        // in-state. A budget stop leaves no fixpoint, so every point
        // then steps again from the state it reached.
        if let Some(addr) = stopped_at {
            let d = self.diag(
                Code::Unanalyzable,
                addr,
                ctx,
                format!(
                    "analysis stopped after {} transfer steps without reaching a fixpoint; \
                     findings in this context may be incomplete",
                    self.budget
                ),
            );
            if seen.insert((d.code, addr, d.message.clone())) {
                report.push(d);
            }
        }
        let mut forks = BTreeSet::new();
        self.edges.clear();
        for (addr, i) in work.by_addr() {
            let transfer = match work.last(i) {
                Some(t) if stopped_at.is_none() => t,
                _ => self.step(addr, &mut work.state(i).clone()),
            };
            for &f in &self.log[transfer.findings.0..transfer.findings.1] {
                if let Finding::Fork(target) = f {
                    forks.insert(target);
                } else if let Some(d) = self.diagnostic(f, addr, ctx) {
                    if seen.insert((d.code, addr, d.message.clone())) {
                        report.push(d);
                    }
                }
            }
            for &succ in transfer.succs.as_slice() {
                self.edges.push((succ, addr, transfer.out_defined));
            }
        }

        // Join consistency: every edge into a point carries the same
        // live slots.
        self.edges.sort_unstable_by_key(|&(to, from, _)| (to, from));
        for inflow in self.edges.chunk_by(|x, y| x.0 == y.0) {
            let (to, _, first) = inflow[0];
            if inflow.iter().all(|&(_, _, m)| m == first) {
                continue;
            }
            let preds: Vec<String> = inflow
                .iter()
                .map(|&(_, from, _)| names::pc_span(&self.code.symbols, from))
                .collect();
            let d = self
                .diag(
                    Code::JoinDepthMismatch,
                    to,
                    ctx,
                    "paths reach this join with different live queue slots".into(),
                )
                .note(format!("joined from {}", preds.join(", ")));
            if seen.insert((d.code, to, d.message.clone())) {
                report.push(d);
            }
        }
        forks
    }

    /// Run the pass: analyze the context at `entry` and, transitively,
    /// every context reachable through constant fork targets.
    pub(crate) fn run(&mut self, entry: UWord, report: &mut Report) {
        let mut seen: HashSet<(Code, UWord, String)> = HashSet::new();
        let mut done: BTreeSet<UWord> = BTreeSet::new();
        let mut pending: VecDeque<UWord> = VecDeque::from([entry]);
        let mut work = Worklist::new(self.code);
        while let Some(e) = pending.pop_front() {
            if !done.insert(e) {
                continue;
            }
            let label = names::pc_span(&self.code.symbols, e);
            let forks = self.analyze_context(&mut work, e, &label, report, &mut seen);
            pending.extend(forks);
        }
    }
}

impl Dataflow for QueuePass<'_> {
    type State = State;
    type Step = Transfer;

    fn step(&mut self, addr: UWord, state: &mut State) -> Transfer {
        QueuePass::step(self, addr, state)
    }

    fn succs(step: &Transfer) -> Succs {
        step.succs
    }

    fn merge(&mut self, into: &mut State, from: &State, _joins: usize) -> bool {
        into.join_from(from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify_object, VerifyOptions};
    use qm_isa::asm::assemble;

    fn verify(src: &str) -> Report {
        verify_object(&assemble(src).unwrap(), &VerifyOptions::default())
    }

    fn codes(r: &Report) -> Vec<&'static str> {
        r.diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn mask_shift_moves_bits_down() {
        let mut m = Mask::EMPTY;
        m.set(0);
        m.set(2);
        m.set(65);
        m.set(255);
        m.shift_down(2);
        assert!(m.get(0), "bit 2 became bit 0");
        assert!(m.get(63), "bit 65 became bit 63");
        assert!(m.get(253));
        assert!(!m.get(255));
        m.shift_down(0);
        assert!(m.get(0));
    }

    #[test]
    fn clean_echo_program_verifies() {
        let r = verify(
            "main: recv #0,#0 :r0\n\
                   mul+1 r0,#3 :r0\n\
                   send+1 #0,r0\n\
                   trap #2,#0\n",
        );
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn underflow_is_an_error() {
        let r = verify("main: plus+2 #1,#2 :r0\n trap #2,#0\n");
        assert!(codes(&r).contains(&"QV0001"), "{}", r.render());
    }

    #[test]
    fn undefined_window_read_is_an_error() {
        let r = verify("main: plus r0,#1 :r1\n trap #2,#0\n");
        assert!(codes(&r).contains(&"QV0002"), "{}", r.render());
    }

    #[test]
    fn dup_outside_page_is_an_error() {
        let src = "main: plus #1,#0 :r0\n dup1 :r100\n trap #2,#0\n";
        let small = VerifyOptions { page_words: 64 };
        let r = verify_object(&assemble(src).unwrap(), &small);
        assert!(r.diags.iter().any(|d| d.code == Code::DupOutsideWindow), "{}", r.render());
        // The default 256-word page accepts the same offset.
        let r = verify(src);
        assert!(!r.diags.iter().any(|d| d.code == Code::DupOutsideWindow), "{}", r.render());
    }

    #[test]
    fn dup_without_result_and_overwrite_warn() {
        let r = verify("main: dup1 :r3\n trap #2,#0\n");
        assert!(codes(&r).contains(&"QV0005"), "{}", r.render());
        let r = verify("main: plus #1,#0 :r0\n dup1 :r0\n trap #2,#0\n");
        assert!(codes(&r).contains(&"QV0006"), "{}", r.render());
    }

    #[test]
    fn missing_terminator_runs_off_end() {
        let r = verify("main: plus #1,#0 :r0\n");
        assert!(codes(&r).contains(&"QV0104"), "{}", r.render());
    }

    #[test]
    fn falling_into_data_is_flagged() {
        let r = verify("main: plus #1,#0 :r0\n data: .word 7\n");
        assert!(codes(&r).contains(&"QV0104"), "{}", r.render());
    }

    #[test]
    fn bad_branch_target_is_an_error() {
        let r = verify("main: bne #-1,#0x1000\n trap #2,#0\n");
        assert!(codes(&r).contains(&"QV0102"), "{}", r.render());
    }

    #[test]
    fn branch_into_immediate_word_is_flagged() {
        // Target 8 is fetch's trailing immediate word, not an
        // instruction start — only assembler metadata can tell.
        let r = verify(
            "main: bne #-1,#4\n\
                   fetch #d,#0 :r0\n\
                   trap #2,#0\n\
             d:    .word 9\n",
        );
        assert!(codes(&r).contains(&"QV0102"), "{}", r.render());
    }

    #[test]
    fn join_depth_mismatch_warns() {
        let r = verify(
            "main: lt #1,#2 :r0\n\
                   bne r0,@skip\n\
                   plus #5,#0 :r1\n\
             skip: trap #2,#0\n",
        );
        assert!(codes(&r).contains(&"QV0004"), "{}", r.render());
        assert!(!r.has_errors(), "{}", r.render());
    }

    #[test]
    fn balanced_branch_paths_do_not_warn() {
        let r = verify(
            "main: lt #1,#2 :r0\n\
                   bne r0,@other\n\
                   plus #5,#0 :r1\n\
                   beq #0,@done\n\
             other: plus #6,#0 :r1\n\
             done: send r1,#0\n\
                   trap #2,#0\n",
        );
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn fork_spawns_child_analysis() {
        // The child reads r0 undefined — the finding is attributed to
        // the child context label.
        let r = verify(
            "main: trap #0,#child :r0,r1\n\
                   trap #2,#0\n\
             child: send r18,r0\n\
                    trap #2,#0\n",
        );
        let d = r.diags.iter().find(|d| d.code == Code::UndefinedWindowRead).expect("child diag");
        assert_eq!(d.ctx.as_deref(), Some("child"), "{}", r.render());
    }

    #[test]
    fn bad_fork_target_is_an_error() {
        let r = verify("main: trap #0,#0x700 :r0,r1\n trap #2,#0\n");
        assert!(codes(&r).contains(&"QV0105"), "{}", r.render());
    }

    #[test]
    fn ifork_second_destination_is_arity_mismatch() {
        let r = verify(
            "main: trap #1,#child :r0,r1\n\
                   trap #2,#0\n\
             child: trap #2,#0\n",
        );
        assert!(codes(&r).contains(&"QV0007"), "{}", r.render());
    }

    #[test]
    fn wait_with_destination_is_arity_mismatch() {
        let r = verify("main: trap #5,#10 :r0\n trap #2,#0\n");
        assert!(codes(&r).contains(&"QV0007"), "{}", r.render());
    }

    #[test]
    fn pc_write_ends_analysis_with_warning() {
        let r = verify("main: plus #8,#0 :pc\n trap #2,#0\n");
        assert!(codes(&r).contains(&"QV0101"), "{}", r.render());
        assert!(!r.has_errors(), "{}", r.render());
    }

    #[test]
    fn join_forgets_constants_that_disagree() {
        // r1 holds a received value on one path and the fork target on
        // the other, which reaches the join first: after the join the
        // target is unknown, so the fork is flagged rather than followed.
        let r = verify(
            "main:  lt #1,#2 :r0\n\
                    bne r0,@other\n\
                    recv #0,#0 :r1\n\
                    beq #0,@join\n\
             other: plus #kid,#0 :r1\n\
             join:  trap #0,r1 :r2,r3\n\
                    trap #2,#0\n\
             kid:   trap #2,#0\n",
        );
        assert!(
            r.diags.iter().any(|d| d.code == Code::Unanalyzable
                && d.message.contains("target depends on a runtime value")),
            "{}",
            r.render()
        );
        assert!(!r.diags.iter().any(|d| d.ctx.as_deref() == Some("kid")), "{}", r.render());
    }

    #[test]
    fn exhausted_round_budget_is_a_warning() {
        // The loop needs more than three transfer steps to reach its
        // fixpoint; a budget of three stops it short and says so.
        let obj = assemble(
            "main: plus #0,#0 :r0\n\
             loop: plus+1 r0,#1 :r0\n\
                   lt r0,#10 :r1\n\
                   bne r1,@loop\n\
                   trap #2,#0\n",
        )
        .unwrap();
        let code = DecodedCode::new(&obj);
        let opts = VerifyOptions::default();
        let mut report = Report::default();
        QueuePass::new(&code, &opts, 3).run(0, &mut report);
        let d = report
            .diags
            .iter()
            .find(|d| d.code == Code::Unanalyzable && d.message.contains("fixpoint"))
            .unwrap_or_else(|| panic!("budget warning: {}", report.render()));
        assert_eq!(d.pc, Some(12), "the stop is at the fourth step's point, the branch");
        assert_eq!(d.severity, crate::Severity::Warning);
        // With the default budget the same program reaches its fixpoint.
        let mut report = Report::default();
        QueuePass::new(&code, &opts, code.round_budget()).run(0, &mut report);
        assert!(
            !report.diags.iter().any(|d| d.message.contains("fixpoint")),
            "{}",
            report.render()
        );
    }

    #[test]
    fn loop_reaches_fixpoint() {
        // A self-consistent loop: each iteration consumes the counter
        // slot and produces a fresh one, so the mask at the head is
        // stable across the back edge and the analysis terminates.
        let r = verify(
            "main: plus #0,#0 :r0\n\
             loop: plus+1 r0,#1 :r0\n\
                   lt r0,#10 :r1\n\
                   bne r1,@loop\n\
                   trap #2,#0\n",
        );
        // The back edge carries {r0, r1} while loop entry carries {r0}:
        // the join lint may warn, but nothing is an error.
        assert!(!r.has_errors(), "{}", r.render());
    }
}
