//! The deep pass: whole-program abstract interpretation over object
//! code, producing *proof-carrying facts* about every reachable
//! instruction.
//!
//! Where the queue pass ([`crate::verify_object`]) proves per-context
//! *safety* (and rejects bad programs), the deep pass proves
//! per-program-point *locality* and whole-machine *channel* properties
//! that no single-context pass can see:
//!
//! * **Queue-pointer confinement.** `qp` starts inside the context's
//!   local queue page and every architectural path that could move it
//!   out of the local plane — a write to `qp`/`pom`/`pc`, a
//!   runtime-computed branch or fork target, a kernel-mode return —
//!   is detectable statically. If *no* statically reachable
//!   instruction does any of those, every window spill/fill and every
//!   `dup` in the program touches the local plane only, forever.
//!   Reachability is computed by this pass itself (branches are
//!   followed, unlike the wiring pass), so one escape anywhere voids
//!   all facts: incomplete reachability means some program point may
//!   be entered in states the analysis never saw.
//! * **Address ranges.** An interval/stride domain ([`crate::domain`])
//!   runs over every register and queue-slot value; at each
//!   `fetch`/`store` site the address operand's interval is an
//!   [`FactKind::AddrRange`] fact. In this machine's address map the
//!   local plane is `0x8000_0000..`, so a mem op whose address
//!   interval is entirely negative (as a signed word) is proven to
//!   touch only the accessing PE's own local plane.
//! * **Channel verdict + occupancy bounds.** The wiring pass's static
//!   fork-tree model is replayed two ways: *buffered* (maximal — any
//!   context stuck there is stuck under every schedule, so a stuck
//!   fixpoint is a **proven deadlock**), and *rendezvous* (capacity
//!   0 — completion proves **deadlock-freedom** provided every
//!   channel has a unique static sender and receiver instance, which
//!   forces the pairing and makes completion schedule-independent; a
//!   verdict at capacity 0 carries to every larger message-cache
//!   capacity). Anything else — a wiring bail, or completion that
//!   relies on buffering — is **unknown**. Per-channel
//!   [`FactKind::MaxQueueDepth`] bounds come from the allowance
//!   replay in the crate-private `wiring` module.
//!
//! The result is a versioned [`DeepReport`], serializable as a
//! `qm-api/v1` `deep_report` envelope. The simulator does not read it.
//!
//! **Trust base**: the kernel (trap handlers) always leaves `qp`
//! pointing into the context's local queue page — the same invariant
//! the simulator's scheduler relies on. The deep pass proves the *user
//! code* never breaks confinement; it does not re-verify the kernel.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use qm_core::json::{Envelope, JsonBuf};
use qm_isa::asm::Object;
use qm_isa::isa::{Instruction, Opcode, SrcMode, REG_DUMMY};
use qm_isa::{UWord, Word};

use crate::decoded::{DecodedCode, Succs};
use crate::diag::{Code, Diagnostic, Report};
use crate::domain::{fold, AbsV, Consts};
use crate::wiring::{
    depth_bounds, replay_buffered, replay_rendezvous, ChanId, EventKind, WiringPass,
};
use crate::worklist::{Dataflow, Worklist};
use crate::{names, VerifyOptions};

/// Serialization version of [`DeepReport`] (the `version` field of the
/// `deep_report` envelope body).
pub const DEEP_REPORT_VERSION: u32 = 1;

/// Fixpoint visits to one program point before joins start widening.
const WIDEN_AFTER: usize = 8;
/// Cap on distinct context entries followed through fork targets.
const MAX_CONTEXTS: usize = 64;

/// The whole-machine channel verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every schedule completes every context's channel events.
    DeadlockFree,
    /// Some context is statically guaranteed to block forever.
    Cyclic,
    /// The analysis cannot decide (wiring bail, shared endpoints, or
    /// completion that relies on message-cache buffering).
    Unknown,
}

impl Verdict {
    /// The stable diagnostic code carrying this verdict.
    #[must_use]
    pub fn code(self) -> Code {
        match self {
            Verdict::DeadlockFree => Code::DeepDeadlockFree,
            Verdict::Cyclic => Code::DeepCyclic,
            Verdict::Unknown => Code::DeepUnknown,
        }
    }

    /// The stable status string used in JSON.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::DeadlockFree => "proven-deadlock-free",
            Verdict::Cyclic => "proven-cyclic",
            Verdict::Unknown => "unknown",
        }
    }
}

/// One proof-carrying fact, keyed by `(ctx, pc)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fact {
    /// Context label (`main`, `kid`, …), shared by every fact about
    /// the context.
    pub ctx: Arc<str>,
    /// Program point the fact is about.
    pub pc: UWord,
    /// What is proven there.
    pub kind: FactKind,
}

/// What a [`Fact`] proves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactKind {
    /// Every memory access of this instruction stays in the accessing
    /// PE's local plane: a frontier may execute it without the runtime
    /// locality guard.
    ProvenLocal,
    /// The instruction commutes with any concurrently scheduled step of
    /// another PE (it is sequential and touches only private state):
    /// a translated batch may run through it without a clock check.
    CommutesWithNext,
    /// The address operand of this `fetch`/`store` lies in the interval
    /// (signed-word bounds; `stride` of representable values).
    AddrRange {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
        /// Step between representable values.
        stride: u32,
    },
    /// No schedule ever leaves more than `depth` values in flight on
    /// `chan` (keyed at the channel's first static send site).
    MaxQueueDepth {
        /// The channel, described as in wiring diagnostics.
        chan: String,
        /// The static occupancy bound.
        depth: u64,
    },
}

impl FactKind {
    fn name(&self) -> &'static str {
        match self {
            FactKind::ProvenLocal => "ProvenLocal",
            FactKind::CommutesWithNext => "CommutesWithNext",
            FactKind::AddrRange { .. } => "AddrRange",
            FactKind::MaxQueueDepth { .. } => "MaxQueueDepth",
        }
    }

    fn order(&self) -> u8 {
        match self {
            FactKind::ProvenLocal => 0,
            FactKind::CommutesWithNext => 1,
            FactKind::AddrRange { .. } => 2,
            FactKind::MaxQueueDepth { .. } => 3,
        }
    }
}

/// One edge of the whole-machine channel-traffic graph.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ChannelEdge {
    /// Sending context label (or `host`).
    pub from: String,
    /// Receiving context label (or `host`).
    pub to: String,
    /// The channel, described as in wiring diagnostics.
    pub chan: String,
}

/// The result of one deep verification: verdict, facts and the channel
/// graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeepReport {
    /// Serialization version ([`DEEP_REPORT_VERSION`]).
    pub version: u32,
    /// The entry the analysis was rooted at.
    pub entry: UWord,
    /// The queue pointer provably never leaves the local plane on any
    /// reachable path — the precondition of every locality fact.
    pub qp_confined: bool,
    /// The first reason confinement was lost, when it was
    /// (`pc 0x…: reason`).
    pub confinement_loss: Option<String>,
    /// The whole-machine channel verdict.
    pub verdict: Verdict,
    /// One-line justification of the verdict.
    pub verdict_why: String,
    /// All proof-carrying facts, sorted by `(ctx, pc, kind)`.
    pub facts: Vec<Fact>,
    /// The channel-traffic graph (sorted, deduped).
    pub graph: Vec<ChannelEdge>,
    /// Deep-pass diagnostics: the verdict as a note (or error, for a
    /// proven deadlock).
    pub report: Report,
}

impl DeepReport {
    /// True when the deep pass proved nothing fatal (a proven deadlock
    /// is the only error it can raise).
    #[must_use]
    pub fn deep_clean(&self) -> bool {
        !self.report.has_errors()
    }

    /// How many distinct code words carry a [`FactKind::ProvenLocal`]
    /// fact (the envelope's `proven_local` field).
    #[must_use]
    pub fn proven_local_count(&self) -> usize {
        let pcs: BTreeSet<UWord> =
            self.facts.iter().filter(|f| f.kind == FactKind::ProvenLocal).map(|f| f.pc).collect();
        pcs.len()
    }

    /// Serialize as a `qm-api/v1` `deep_report` envelope.
    #[must_use]
    pub fn to_json(&self) -> String {
        Envelope::render("deep_report", |j| self.write_envelope_body(j))
    }

    /// Write the `data` body of the `deep_report` envelope into an open
    /// object (shared with `qm-serve`, which embeds it in job results).
    pub fn write_envelope_body(&self, j: &mut JsonBuf) {
        j.u64_field("version", u64::from(self.version));
        j.u64_field("entry", u64::from(self.entry));
        j.bool_field("qp_confined", self.qp_confined);
        if let Some(loss) = &self.confinement_loss {
            j.str_field("confinement_loss", loss);
        }
        j.key("verdict");
        j.begin_obj();
        j.str_field("status", self.verdict.as_str());
        j.str_field("code", self.verdict.code().as_str());
        j.str_field("why", &self.verdict_why);
        j.end_obj();
        j.u64_field("proven_local", self.proven_local_count() as u64);
        j.key("facts");
        j.begin_arr();
        for f in &self.facts {
            j.begin_obj();
            j.str_field("ctx", &f.ctx);
            j.u64_field("pc", u64::from(f.pc));
            j.str_field("kind", f.kind.name());
            match &f.kind {
                FactKind::AddrRange { lo, hi, stride } => {
                    j.i64_field("lo", *lo);
                    j.i64_field("hi", *hi);
                    j.u64_field("stride", u64::from(*stride));
                }
                FactKind::MaxQueueDepth { chan, depth } => {
                    j.str_field("chan", chan);
                    j.u64_field("depth", *depth);
                }
                FactKind::ProvenLocal | FactKind::CommutesWithNext => {}
            }
            j.end_obj();
        }
        j.end_arr();
        j.key("graph");
        j.begin_arr();
        for e in &self.graph {
            j.begin_obj();
            j.str_field("from", &e.from);
            j.str_field("to", &e.to);
            j.str_field("chan", &e.chan);
            j.end_obj();
        }
        j.end_arr();
        j.key("report");
        j.begin_obj();
        self.report.write_envelope_body(j);
        j.end_obj();
    }
}

/// Abstract state at one program point: the 16 window slots, the plain
/// globals `r17..r28` (at index `n - 16`), and the last produced result.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DState {
    /// A ring: window slot `n` is `slots[(head + n) % 16]`.
    slots: [AbsV; 16],
    head: u8,
    globals: [AbsV; 13],
    result: AbsV,
}

impl DState {
    const ENTRY: DState =
        DState { slots: [AbsV::Top; 16], head: 0, globals: [AbsV::Top; 13], result: AbsV::Top };

    fn slot_index(&self, n: u8) -> usize {
        usize::from(self.head.wrapping_add(n) % 16)
    }

    /// Window slot `n` (relative to the front).
    fn slot(&self, n: u8) -> &AbsV {
        &self.slots[self.slot_index(n)]
    }

    fn set_slot(&mut self, n: u8, v: AbsV) {
        self.slots[self.slot_index(n)] = v;
    }

    /// Join (or, with `widen`, widen) `other` into this state; true when
    /// this state changed.
    fn merge_from(&mut self, other: &DState, widen: bool) -> bool {
        let mut changed = false;
        let mut merge = |a: &mut AbsV, b: &AbsV| {
            let m = if widen { a.widen(b) } else { a.join(b) };
            if m != *a {
                *a = m;
                changed = true;
            }
        };
        for n in 0..16 {
            let i = self.slot_index(n);
            merge(&mut self.slots[i], other.slot(n));
        }
        for (a, b) in self.globals.iter_mut().zip(&other.globals) {
            merge(a, b);
        }
        merge(&mut self.result, &other.result);
        changed
    }
}

/// Why a path leaves the analysis: the confinement loss at one
/// instruction, rendered into [`DeepReport::confinement_loss`].
#[derive(Debug, Clone, Copy)]
enum Escape {
    RunsOff,
    Undecodable,
    BranchRunsOff,
    BadBranchTarget(UWord),
    RuntimeBranch(Opcode),
    KernelReturn(Opcode),
    PointerWrite(u8),
    RuntimeTrapEntry,
    UnknownTrapEntry(Word),
    BadForkTarget(UWord),
    RuntimeForkTarget,
    Budget,
}

impl std::fmt::Display for Escape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Escape::RunsOff => write!(f, "execution runs off the code or into data words"),
            Escape::Undecodable => write!(f, "execution reaches an undecodable word"),
            Escape::BranchRunsOff => write!(f, "branch fall-through runs off the code"),
            Escape::BadBranchTarget(t) => {
                write!(f, "branch target {t:#x} is not an instruction start")
            }
            Escape::RuntimeBranch(op) => {
                write!(f, "`{op}`: branch offset depends on a runtime value")
            }
            Escape::KernelReturn(op) => write!(f, "`{op}`: kernel-mode return in user code"),
            Escape::PointerWrite(d) => {
                write!(f, "write to r{d} moves the queue or program pointer")
            }
            Escape::RuntimeTrapEntry => write!(f, "trap: kernel entry depends on a runtime value"),
            Escape::UnknownTrapEntry(e) => write!(f, "trap: unknown kernel entry {e}"),
            Escape::BadForkTarget(t) => write!(f, "fork target {t:#x} is not a code entry point"),
            Escape::RuntimeForkTarget => write!(f, "fork target depends on a runtime value"),
            Escape::Budget => write!(f, "analysis budget exceeded"),
        }
    }
}

/// Everything one transfer step says besides the out-state.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DStep {
    succs: Succs,
    /// Constant fork targets, all code entry points.
    forks: Option<Consts>,
    /// Confinement loss at this instruction; ends the path.
    escape: Option<Escape>,
    /// A `fetch`/`store` here: its address operand value.
    mem: Option<AbsV>,
}

/// What one context's fixpoint produced.
struct CtxOut {
    label: Arc<str>,
    /// Program points, ascending.
    visited: Vec<UWord>,
    /// Per mem-op site, ascending: (pc, address value).
    mem: Vec<(UWord, AbsV)>,
    escapes: Vec<(UWord, String)>,
    forks: BTreeSet<UWord>,
}

struct DeepPass<'a> {
    code: &'a DecodedCode<'a>,
    /// Transfer steps one context may take.
    budget: usize,
}

impl<'a> DeepPass<'a> {
    fn read_src(mode: SrcMode, state: &DState) -> AbsV {
        match mode {
            SrcMode::Window(n) => *state.slot(n),
            SrcMode::Global(n) if (17..=28).contains(&n) => state.globals[usize::from(n - 16)],
            SrcMode::Global(_) => AbsV::Top,
            SrcMode::Imm(v) => AbsV::OneOf(Consts::one(Word::from(v))),
            SrcMode::ImmWord(v) => AbsV::OneOf(Consts::one(v)),
        }
    }

    fn advance(state: &mut DState, qp_inc: u8) {
        // The consumed front slots come back empty at the ring's end.
        for n in 0..qp_inc {
            state.set_slot(n, AbsV::Top);
        }
        state.head = state.head.wrapping_add(qp_inc) % 16;
    }

    /// Write a destination (post-advance). `Err` is the confinement
    /// escape for `pc`/`qp`/`pom`.
    fn write_dst(state: &mut DState, dst: u8, v: AbsV) -> Result<(), Escape> {
        match dst {
            d if d < 16 => {
                state.set_slot(d, v);
                Ok(())
            }
            REG_DUMMY => Ok(()),
            d if d < 29 => {
                state.globals[usize::from(d - 16)] = v;
                Ok(())
            }
            d => Err(Escape::PointerWrite(d)),
        }
    }

    fn fall_through(&self, addr: UWord, size: UWord, out: &mut DStep) {
        let next = addr + size;
        if !self.code.is_instr_start(next) {
            out.escape = Some(Escape::RunsOff);
        } else {
            out.succs.push(next);
        }
    }

    /// The transfer function at `addr`: turns the in-state `state` into
    /// the out-state and returns what else the step found.
    #[allow(clippy::too_many_lines)]
    fn step(&self, addr: UWord, state: &mut DState) -> DStep {
        let mut out = DStep::default();
        let Some((instr, size)) = self.code.instr_at(addr) else {
            out.escape = Some(Escape::Undecodable);
            return out;
        };
        match *instr {
            Instruction::Dup { two, off1, off2, .. } => {
                // Offsets past the resident window spill to the local
                // queue page — still private state under confinement,
                // and invisible to `SrcMode::Window` reads.
                let offs = [off1, off2];
                for &off in &offs[..if two { 2 } else { 1 }] {
                    if off < 16 {
                        state.set_slot(off, state.result);
                    }
                }
                self.fall_through(addr, size, &mut out);
            }
            Instruction::Basic { op, src1, src2, dst1, dst2, qp_inc, .. } => {
                let a = Self::read_src(src1, state);
                let b = Self::read_src(src2, state);
                match op {
                    Opcode::Bne | Opcode::Beq => {
                        Self::advance(state, qp_inc);
                        let taken = a.singleton().map(|v| (v != 0) == (op == Opcode::Bne));
                        let next = addr + size;
                        if taken != Some(true) {
                            if self.code.is_instr_start(next) {
                                out.succs.push(next);
                            } else {
                                out.escape = Some(Escape::BranchRunsOff);
                            }
                        }
                        if taken != Some(false) {
                            match b.singleton() {
                                Some(off) => {
                                    #[allow(clippy::cast_sign_loss)]
                                    let target = next.wrapping_add(off as UWord);
                                    if self.code.is_instr_start(target) {
                                        out.succs.push(target);
                                    } else {
                                        out.escape = Some(Escape::BadBranchTarget(target));
                                    }
                                }
                                None => out.escape = Some(Escape::RuntimeBranch(op)),
                            }
                        }
                    }
                    Opcode::Trap | Opcode::Ftrap => {
                        Self::advance(state, qp_inc);
                        self.step_trap(addr, size, &a, &b, dst1, dst2, state, &mut out);
                    }
                    Opcode::Fret | Opcode::Rett => out.escape = Some(Escape::KernelReturn(op)),
                    Opcode::Send => {
                        Self::advance(state, qp_inc);
                        self.fall_through(addr, size, &mut out);
                    }
                    Opcode::Recv => {
                        Self::advance(state, qp_inc);
                        if let Err(e) = Self::write_dst(state, dst1, AbsV::Top)
                            .and_then(|()| Self::write_dst(state, dst2, AbsV::Top))
                        {
                            out.escape = Some(e);
                        } else {
                            state.result = AbsV::Top;
                            self.fall_through(addr, size, &mut out);
                        }
                    }
                    Opcode::Fetch | Opcode::Fchb | Opcode::Store | Opcode::Storb => {
                        Self::advance(state, qp_inc);
                        let is_store = matches!(op, Opcode::Store | Opcode::Storb);
                        out.mem = Some(a);
                        if is_store {
                            self.fall_through(addr, size, &mut out);
                        } else if let Err(e) = Self::write_dst(state, dst1, AbsV::Top)
                            .and_then(|()| Self::write_dst(state, dst2, AbsV::Top))
                        {
                            out.escape = Some(e);
                        } else {
                            state.result = AbsV::Top;
                            self.fall_through(addr, size, &mut out);
                        }
                    }
                    _ => {
                        // ALU / compare.
                        Self::advance(state, qp_inc);
                        let v = fold(op, &a, &b);
                        if let Err(e) = Self::write_dst(state, dst1, v)
                            .and_then(|()| Self::write_dst(state, dst2, v))
                        {
                            out.escape = Some(e);
                        } else {
                            state.result = v;
                            self.fall_through(addr, size, &mut out);
                        }
                    }
                }
            }
        }
        if out.escape.is_some() {
            out.succs.clear();
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn step_trap(
        &self,
        addr: UWord,
        size: UWord,
        entry: &AbsV,
        arg: &AbsV,
        dst1: u8,
        dst2: u8,
        state: &mut DState,
        out: &mut DStep,
    ) {
        let Some(entry) = entry.singleton() else {
            out.escape = Some(Escape::RuntimeTrapEntry);
            return;
        };
        let Some(results) = crate::traps::result_count(entry) else {
            out.escape = Some(Escape::UnknownTrapEntry(entry));
            return;
        };
        if crate::traps::is_fork(entry) {
            let AbsV::OneOf(targets) = arg else {
                out.escape = Some(Escape::RuntimeForkTarget);
                return;
            };
            #[allow(clippy::cast_sign_loss)]
            let bad =
                targets.as_slice().iter().position(|&t| !self.code.is_instr_start(t as UWord));
            if let Some(i) = bad {
                // The targets before the bad one are still followed.
                out.forks = (i > 0).then(|| targets.prefix(i));
                #[allow(clippy::cast_sign_loss)]
                let t = targets.as_slice()[i] as UWord;
                out.escape = Some(Escape::BadForkTarget(t));
                return;
            }
            out.forks = Some(*targets);
        }
        if results >= 1 {
            if let Err(e) = Self::write_dst(state, dst1, AbsV::Top) {
                out.escape = Some(e);
                return;
            }
            state.result = AbsV::Top;
        }
        if results >= 2 {
            if let Err(e) = Self::write_dst(state, dst2, AbsV::Top) {
                out.escape = Some(e);
                return;
            }
        }
        if matches!(entry, crate::traps::END | crate::traps::HALT) {
            return; // terminal: no successor
        }
        self.fall_through(addr, size, out);
    }

    /// Run one context to its fixpoint and collect, from each point's
    /// last step, its mem site, forks and escape. The worklist pops a
    /// point after every change to its state, so that last step saw the
    /// fixpoint; only a budget stop steps every point again.
    fn analyze_context(&mut self, work: &mut Worklist<'a, Self>, entry: UWord) -> CtxOut {
        // Widening makes a budget stop unreachable; treat a hit as an
        // escape rather than silently under-approximating.
        let budget_escape = work
            .solve(self, entry, DState::ENTRY, self.budget)
            .map(|addr| (addr, Escape::Budget.to_string()));

        let order = work.by_addr();
        let mut outcome = CtxOut {
            label: names::pc_span(&self.code.symbols, entry).into(),
            visited: order.iter().map(|&(addr, _)| addr).collect(),
            mem: Vec::new(),
            escapes: Vec::new(),
            forks: BTreeSet::new(),
        };
        let stopped = budget_escape.is_some();
        outcome.escapes.extend(budget_escape);
        for (addr, i) in order {
            let step = match work.last(i) {
                Some(step) if !stopped => step,
                _ => self.step(addr, &mut work.state(i).clone()),
            };
            if let Some(reason) = step.escape {
                outcome.escapes.push((addr, reason.to_string()));
            }
            if let Some(v) = step.mem {
                outcome.mem.push((addr, v));
            }
            #[allow(clippy::cast_sign_loss)]
            outcome.forks.extend(step.forks.iter().flat_map(|f| f.as_slice()).map(|&t| t as UWord));
        }
        outcome
    }
}

impl Dataflow for DeepPass<'_> {
    type State = DState;
    type Step = DStep;

    fn step(&mut self, addr: UWord, state: &mut DState) -> DStep {
        DeepPass::step(self, addr, state)
    }

    fn succs(step: &DStep) -> Succs {
        step.succs
    }

    /// Joins past the [`WIDEN_AFTER`]-th widen.
    fn merge(&mut self, into: &mut DState, from: &DState, joins: usize) -> bool {
        into.merge_from(from, joins > WIDEN_AFTER)
    }
}

/// True for the instruction classes whose memory traffic is confined to
/// window spills/fills once `qp` confinement holds.
fn confined_class(instr: &Instruction) -> bool {
    match instr {
        Instruction::Dup { .. } => true,
        Instruction::Basic { op, .. } => {
            matches!(op, Opcode::Bne | Opcode::Beq) || op.alu(0, 1).is_some()
        }
    }
}

/// Deep-verify an object from its `main` symbol (or base address).
pub fn deep_verify(obj: &Object, opts: &VerifyOptions) -> DeepReport {
    let entry = obj.symbol("main").unwrap_or_else(|| obj.base());
    deep_verify_at(obj, entry, opts)
}

/// Deep-verify an object with an explicit entry point.
pub fn deep_verify_at(obj: &Object, entry: UWord, opts: &VerifyOptions) -> DeepReport {
    // One decoded table serves both tiers.
    let code = DecodedCode::new(obj);
    deep_report(&code, entry, opts, code.round_budget())
}

/// Both tiers over decoded code, each worklist context limited to
/// `budget` transfer steps.
#[allow(clippy::too_many_lines)]
pub(crate) fn deep_report(
    code: &DecodedCode,
    entry: UWord,
    opts: &VerifyOptions,
    budget: usize,
) -> DeepReport {
    let obj = code.obj;
    // One wiring model serves both tiers.
    let model = WiringPass::new(code).build_model(entry);
    // The deep tier is a superset: its report embeds every shallow
    // finding, so callers gate (Strict/Warn) on one report no matter
    // which tier ran.
    let mut report = crate::shallow_report(code, &model, entry, opts, budget);
    let mut pass = DeepPass { code, budget };
    let mut work = Worklist::new(code);

    // Whole-program value/locality interpretation: every context
    // reachable through constant fork targets.
    let mut done: BTreeSet<UWord> = BTreeSet::new();
    let mut pending: VecDeque<UWord> = VecDeque::from([entry]);
    let mut ctxs: Vec<(UWord, CtxOut)> = Vec::new();
    let mut overflow_escape = None;
    while let Some(e) = pending.pop_front() {
        if !done.insert(e) {
            continue;
        }
        if ctxs.len() >= MAX_CONTEXTS {
            overflow_escape = Some((e, format!("fork tree beyond {MAX_CONTEXTS} entries")));
            break;
        }
        let out = pass.analyze_context(&mut work, e);
        pending.extend(out.forks.iter().copied());
        ctxs.push((e, out));
    }

    let mut escapes: Vec<(String, UWord, String)> = Vec::new();
    for (_, c) in &ctxs {
        for (pc, why) in &c.escapes {
            escapes.push((c.label.to_string(), *pc, why.clone()));
        }
    }
    if let Some((e, why)) = overflow_escape {
        escapes.push((names::pc_span(&code.symbols, e), e, why));
    }
    escapes.sort();
    escapes.dedup();
    let qp_confined = escapes.is_empty();
    let confinement_loss = escapes.first().map(|(ctx, pc, why)| format!("{ctx} at {pc:#x}: {why}"));

    // Facts. Gated on confinement: one escape means reachability is
    // incomplete, so per-point joins (and the class argument) say
    // nothing about the paths the analysis never saw.
    let mut facts: Vec<Fact> = Vec::new();
    if qp_confined {
        // Global per-pc address joins (a pc shared by several contexts
        // must be local under every one of them).
        let mut global_mem: BTreeMap<UWord, AbsV> = BTreeMap::new();
        for (_, c) in &ctxs {
            for &(pc, v) in &c.mem {
                global_mem.entry(pc).and_modify(|old| *old = old.join(&v)).or_insert(v);
            }
        }
        for (_, c) in &ctxs {
            for &pc in &c.visited {
                let Some((instr, _)) = code.instr_at(pc) else { continue };
                if confined_class(instr) || global_mem.get(&pc).is_some_and(AbsV::proven_local_addr)
                {
                    let ctx = &c.label;
                    facts.push(Fact { ctx: Arc::clone(ctx), pc, kind: FactKind::ProvenLocal });
                    facts.push(Fact { ctx: Arc::clone(ctx), pc, kind: FactKind::CommutesWithNext });
                }
            }
            for &(pc, v) in &c.mem {
                if let Some((lo, hi, stride)) = v.bounds() {
                    facts.push(Fact {
                        ctx: Arc::clone(&c.label),
                        pc,
                        kind: FactKind::AddrRange { lo, hi, stride },
                    });
                }
            }
        }
    }

    // Channel model: verdict, occupancy bounds, traffic graph — from
    // the wiring pass's static fork-tree model.
    let inst_label = |i: usize| {
        names::ctx_label(i, Some(&names::pc_span(&code.symbols, model.instances[i].entry)))
    };
    let mut graph: Vec<ChannelEdge> = Vec::new();
    let (verdict, why) = if let Some((_, bail)) = &model.bail {
        (Verdict::Unknown, format!("wiring model undecidable: {}", bail.reason))
    } else {
        // Traffic graph from the complete event model.
        let mut senders: BTreeMap<ChanId, BTreeSet<usize>> = BTreeMap::new();
        let mut receivers: BTreeMap<ChanId, BTreeSet<usize>> = BTreeMap::new();
        for (i, inst) in model.instances.iter().enumerate() {
            for ev in &inst.events {
                match (ev.kind, ev.chan) {
                    (EventKind::Send, ChanId::Host) => graph.push(ChannelEdge {
                        from: inst_label(i),
                        to: "host".into(),
                        chan: ChanId::Host.describe(),
                    }),
                    (EventKind::Recv, ChanId::Host) => graph.push(ChannelEdge {
                        from: "host".into(),
                        to: inst_label(i),
                        chan: ChanId::Host.describe(),
                    }),
                    (EventKind::Send, c) => {
                        senders.entry(c).or_default().insert(i);
                    }
                    (EventKind::Recv, c) => {
                        receivers.entry(c).or_default().insert(i);
                    }
                }
            }
        }
        for (c, ss) in &senders {
            if let Some(rs) = receivers.get(c) {
                for &s in ss {
                    for &r in rs {
                        graph.push(ChannelEdge {
                            from: inst_label(s),
                            to: inst_label(r),
                            chan: c.describe(),
                        });
                    }
                }
            }
        }
        graph.sort();
        graph.dedup();

        // Occupancy bounds, keyed at each channel's first send site.
        for (c, depth) in depth_bounds(&model.instances) {
            let site = model.instances.iter().enumerate().find_map(|(i, inst)| {
                inst.events
                    .iter()
                    .find(|ev| ev.kind == EventKind::Send && ev.chan == c)
                    .map(|ev| (i, ev.pc))
            });
            if let Some((i, pc)) = site {
                facts.push(Fact {
                    ctx: inst_label(i).into(),
                    pc,
                    kind: FactKind::MaxQueueDepth { chan: c.describe(), depth: depth as u64 },
                });
            }
        }

        // Verdict.
        let idx = replay_buffered(&model.instances);
        let stuck: Vec<usize> = (0..model.instances.len())
            .filter(|&i| idx[i] < model.instances[i].events.len())
            .collect();
        if let Some(&first) = stuck.first() {
            let ev = model.instances[first].events[idx[first]];
            let mut d = Diagnostic::new(
                Code::DeepCyclic,
                format!(
                    "{} context(s) statically guaranteed to block: no schedule completes their \
                     channel events",
                    stuck.len()
                ),
            )
            .in_ctx(inst_label(first))
            .at_pc(ev.pc)
            .at_line(obj.line_for(ev.pc));
            for &i in &stuck {
                let e = model.instances[i].events[idx[i]];
                d = d.note(format!(
                    "{} blocks on {} of {}",
                    inst_label(i),
                    if e.kind == EventKind::Send { "a send" } else { "a recv" },
                    e.chan.describe()
                ));
            }
            report.push(d);
            (Verdict::Cyclic, "buffered replay sticks: guaranteed deadlock".into())
        } else {
            let unique = senders
                .iter()
                .all(|(c, ss)| ss.len() <= 1 && receivers.get(c).is_none_or(|rs| rs.len() <= 1))
                && receivers.values().all(|rs| rs.len() <= 1);
            let rdv = replay_rendezvous(&model.instances);
            let rdv_done =
                (0..model.instances.len()).all(|i| rdv[i] == model.instances[i].events.len());
            if unique && rdv_done {
                (
                    Verdict::DeadlockFree,
                    "rendezvous replay completes with unique channel endpoints".into(),
                )
            } else if unique {
                (Verdict::Unknown, "completion relies on message-cache buffering".into())
            } else {
                (Verdict::Unknown, "some channel has multiple static endpoints".into())
            }
        }
    };
    if verdict != Verdict::Cyclic {
        report
            .push(Diagnostic::new(verdict.code(), format!("channel verdict: {why}")).at_pc(entry));
    }
    report.sort();

    facts.sort_by(|a, b| (&a.ctx, a.pc, a.kind.order()).cmp(&(&b.ctx, b.pc, b.kind.order())));
    facts.dedup();

    DeepReport {
        version: DEEP_REPORT_VERSION,
        entry,
        qp_confined,
        confinement_loss,
        verdict,
        verdict_why: why,
        facts,
        graph,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qm_isa::asm::assemble;

    fn deep(src: &str) -> DeepReport {
        deep_verify(&assemble(src).unwrap(), &VerifyOptions::default())
    }

    fn proven_local(r: &DeepReport, pc: UWord) -> bool {
        r.facts.iter().any(|f| f.pc == pc && f.kind == FactKind::ProvenLocal)
    }

    #[test]
    fn straight_line_kernel_is_fully_proven() {
        let r = deep(
            "main: recv #0,#0 :r0\n\
                   mul+1 r0,#3 :r0\n\
                   send+1 #0,r0\n\
                   trap #2,#0\n",
        );
        assert!(r.qp_confined, "{:?}", r.confinement_loss);
        assert!(proven_local(&r, 4), "the mul is proven local");
        assert!(!proven_local(&r, 0), "recv is never proven");
        assert_eq!(r.proven_local_count(), 1);
        assert!(r
            .facts
            .iter()
            .any(|f| f.pc == 4 && f.kind == FactKind::ProvenLocal && &*f.ctx == "main"));
        assert!(r.facts.iter().any(|f| f.pc == 4 && f.kind == FactKind::CommutesWithNext));
        // Host-only traffic: rendezvous trivially completes.
        assert_eq!(r.verdict, Verdict::DeadlockFree, "{}", r.verdict_why);
        assert!(r.deep_clean());
        assert!(r.report.is_clean(), "verdict note keeps the report clean");
        assert!(r.graph.iter().any(|e| e.to == "host"), "host edges in the graph");
    }

    #[test]
    fn pc_write_breaks_confinement() {
        let r = deep("main: plus #8,#0 :pc\n trap #2,#0\n");
        assert!(!r.qp_confined);
        assert!(
            r.confinement_loss.as_deref().unwrap_or("").contains("r31"),
            "{:?}",
            r.confinement_loss
        );
        assert!(r.facts.iter().all(|f| matches!(f.kind, FactKind::MaxQueueDepth { .. })));
        assert_eq!(r.proven_local_count(), 0);
    }

    #[test]
    fn branches_are_no_obstacle_to_locality() {
        // The wiring pass bails on any branch; the deep interpreter
        // follows both arms, so locality facts survive — only the
        // channel verdict degrades to unknown.
        let r = deep(
            "main: plus #0,#0 :r0\n\
             loop: plus+1 r0,#1 :r0\n\
                   lt r0,#10 :r1\n\
                   bne r1,@loop\n\
                   trap #2,#0\n",
        );
        assert!(r.qp_confined, "{:?}", r.confinement_loss);
        assert!(r.proven_local_count() >= 4, "ALU and branch pcs all proven");
        assert_eq!(r.verdict, Verdict::Unknown, "{}", r.verdict_why);
        assert!(r.verdict_why.contains("wiring"), "{}", r.verdict_why);
        assert!(r.deep_clean());
        // The embedded shallow tier contributes a QV0004 join warning
        // for this loop shape, but the deep verdicts themselves stay
        // notes: no errors anywhere.
        assert!(!r.report.has_errors(), "QV0403 is a note: {}", r.report.render());
    }

    #[test]
    fn local_store_addresses_are_proven() {
        // 0x8000_0040 as a signed word: in the local plane.
        let r = deep(
            "main: plus #-2147483584,#0 :r0\n\
                   store+1 r0,#5\n\
                   trap #2,#0\n",
        );
        assert!(r.qp_confined);
        let store_pc = 8; // plus with an ImmWord operand is 2 words
        assert!(proven_local(&r, store_pc), "{:?}", r.facts);
        assert!(r.facts.iter().any(|f| f.pc == store_pc
            && matches!(f.kind, FactKind::AddrRange { lo, hi, .. }
                if lo == -2_147_483_584 && hi == -2_147_483_584)));
    }

    #[test]
    fn global_store_addresses_are_not_proven() {
        let r = deep(
            "main: fetch #d,#0 :r0\n\
                   store+1 #d,r0\n\
                   trap #2,#0\n\
             d:    .word 7\n",
        );
        assert!(r.qp_confined);
        // Both mem ops target code-plane addresses: AddrRange facts
        // exist, but nothing is proven local.
        assert!(r.facts.iter().any(|f| matches!(f.kind, FactKind::AddrRange { .. })));
        assert_eq!(r.proven_local_count(), 0);
    }

    #[test]
    fn crossed_rendezvous_verdict_is_cyclic() {
        let r = deep(
            "main:   trap #0,#peer :r0,r1\n\
                     recv r1,#0 :r2\n\
                     send r0,#1\n\
                     trap #2,#0\n\
             peer:   recv r17,#0 :r0\n\
                     send+1 r18,r0\n\
                     trap #2,#0\n",
        );
        assert_eq!(r.verdict, Verdict::Cyclic);
        assert!(!r.deep_clean(), "a proven deadlock is an error");
        // The shallow wiring tier also flags the deadlock (QV02xx); the
        // deep verdict error rides alongside it in the embedded report.
        let d = r.report.errors().find(|d| d.code == Code::DeepCyclic).expect("QV0402");
        assert!(d.notes.iter().any(|n| n.contains("blocks on")), "{}", r.report.render());
    }

    #[test]
    fn buffer_reliant_completion_is_unknown() {
        // Both contexts send before receiving: drains buffered (no
        // deadlock proof), sticks under rendezvous (no freedom proof).
        let r = deep(
            "main: trap #0,#kid :r0,r1\n\
                   send r0,#1\n\
                   recv r1,#0 :r2\n\
                   trap #2,#0\n\
             kid:  send r18,#2\n\
                   recv r17,#0 :r0\n\
                   trap #2,#0\n",
        );
        assert_eq!(r.verdict, Verdict::Unknown);
        assert!(r.verdict_why.contains("buffering"), "{}", r.verdict_why);
        assert!(r.deep_clean());
    }

    #[test]
    fn pipelined_fork_is_proven_deadlock_free() {
        let r = deep(
            "main:   trap #0,#stage :r0,r1\n\
                     send r0,#21\n\
                     recv r1,#0 :r2\n\
                     send+1 #0,r2\n\
                     trap #2,#0\n\
             stage:  recv r17,#0 :r0\n\
                     mul+1 r0,#2 :r0\n\
                     send+1 r18,r0\n\
                     trap #2,#0\n",
        );
        assert_eq!(r.verdict, Verdict::DeadlockFree, "{}", r.verdict_why);
        assert!(r.graph.iter().any(|e| e.chan.contains("in-channel")), "{:?}", r.graph);
    }

    #[test]
    fn depth_bound_fact_tracks_eager_sends() {
        let r = deep(
            "main: send #9,#1\n\
                   send #9,#2\n\
                   send #9,#3\n\
                   recv #9,#0 :r0\n\
                   recv+1 #9,#0 :r0\n\
                   recv+1 #9,#0 :r0\n\
                   trap #2,#0\n",
        );
        let depth = r.facts.iter().find_map(|f| match &f.kind {
            FactKind::MaxQueueDepth { chan, depth } if chan.contains('9') => Some(*depth),
            _ => None,
        });
        assert_eq!(depth, Some(3), "{:?}", r.facts);
    }

    #[test]
    fn deep_report_envelope_is_stable_json() {
        let r = deep(
            "main: recv #0,#0 :r0\n\
                   mul+1 r0,#3 :r0\n\
                   send+1 #0,r0\n\
                   trap #2,#0\n",
        );
        let json = r.to_json();
        assert!(json.starts_with("{\"schema\":\"qm-api/v1\",\"kind\":\"deep_report\""), "{json}");
        assert!(json.contains("\"version\":1"), "{json}");
        assert!(json.contains("\"qp_confined\":true"), "{json}");
        assert!(json.contains("\"status\":\"proven-deadlock-free\""), "{json}");
        assert!(json.contains("\"code\":\"QV0401\""), "{json}");
        assert!(json.contains("\"kind\":\"ProvenLocal\""), "{json}");
        qm_core::json::parse(&json).expect("valid JSON");
    }

    #[test]
    fn fork_targets_are_followed_for_locality() {
        // The child's ALU work is proven even though it is a separate
        // context, and context labels key the facts.
        let r = deep(
            "main: trap #0,#kid :r0,r1\n\
                   recv r1,#0 :r2\n\
                   trap #2,#0\n\
             kid:  plus #1,#2 :r0\n\
                   send+1 r18,r0\n\
                   trap #2,#0\n",
        );
        assert!(r.qp_confined);
        assert!(
            r.facts.iter().any(|f| &*f.ctx == "kid" && f.kind == FactKind::ProvenLocal),
            "{:?}",
            r.facts
        );
    }
}
