//! Splice/channel wiring lints over the static fork tree.
//!
//! The pass symbolically executes each context *instance* (every fork
//! site creates one — two `rfork`s of the same label are two instances
//! with distinct channels) tracking which channel each register and
//! queue slot holds, then checks the resulting wiring: receives on
//! channels nobody sends on, channels sent on but never read, channels
//! received in more than one context, and wait-for cycles that are
//! statically guaranteed to deadlock.
//!
//! The deadlock check replays the per-instance send/receive sequences
//! with *buffered* sends (strictly more permissive than the machine's
//! rendezvous semantics) — any context still stuck at that fixpoint is
//! guaranteed stuck under rendezvous too, so the cycle lint is an
//! error, never a false alarm.
//!
//! **Decidability limit**: the pass is sound only when every instance
//! is a statically bounded straight line. Branches, runtime-computed
//! channels or fork targets, and recursive fork chains (how OCCAM
//! loops compile) make splice wiring undecidable pre-execution; any
//! such feature switches the whole pass off rather than risk a false
//! positive (the queue-discipline pass still runs). The switch-off is
//! no longer silent: a `QV0303` note names the offending instruction,
//! so Warn-level runs can see why wiring lints (and the deep pass's
//! channel facts) are missing.

use std::collections::{BTreeMap, HashMap};

use qm_isa::isa::{Instruction, Opcode, SrcMode, REG_DUMMY};
use qm_isa::{UWord, Word};

use crate::decoded::DecodedCode;
use crate::diag::{Code, Diagnostic, Report};
use crate::{names, traps};

const REG_IN_CHAN: u8 = 17;
const REG_OUT_CHAN: u8 = 18;
/// Channel id 0 is the host (always ready on both sides).
const HOST_CHANNEL: Word = 0;
/// Cap on context instances — beyond this the fork tree is treated as
/// statically unbounded and the pass switches off.
const MAX_INSTANCES: usize = 64;
/// Cap on symbolically executed instructions per instance.
const MAX_STEPS: usize = 65536;

/// A statically identified channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum ChanId {
    /// The host channel (sends and receives always succeed).
    Host,
    /// A literal nonzero channel number in the program text.
    Lit(Word),
    /// The in-channel allocated when instance `n` was forked.
    In(usize),
    /// The out-channel allocated when instance `n` was forked
    /// (`rfork`/`rfork_local` only — `ifork` children inherit).
    Out(usize),
    /// A channel allocated by a `chan` trap (allocation order index).
    Fresh(usize),
}

impl ChanId {
    pub(crate) fn describe(self) -> String {
        match self {
            ChanId::Host => "the host channel".into(),
            ChanId::Lit(v) => format!("channel {v}"),
            ChanId::In(n) => format!("the in-channel of ctx{n}"),
            ChanId::Out(n) => format!("the out-channel of ctx{n}"),
            ChanId::Fresh(n) => format!("chan-trap channel #{n}"),
        }
    }
}

/// Abstract value: a known constant, a known channel, or anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sym {
    Top,
    Const(Word),
    Chan(ChanId),
}

/// The queue window of one instance: what each slot relative to the
/// front holds. A ring of 256 slots (every offset a `dup` can name):
/// slot `n` is `slots[head + n]`, wrapping, so a queue-pointer advance
/// clears the consumed slots and moves `head`.
struct Window {
    slots: [Sym; 256],
    head: u8,
}

impl Window {
    fn get(&self, n: u8) -> Sym {
        self.slots[usize::from(self.head.wrapping_add(n))]
    }

    fn set(&mut self, n: u8, v: Sym) {
        self.slots[usize::from(self.head.wrapping_add(n))] = v;
    }

    /// The queue pointer advanced by `k`: slot `k + n` becomes slot `n`,
    /// and the consumed slots come back empty at the far end.
    fn advance(&mut self, k: u8) {
        for n in 0..k {
            self.set(n, Sym::Top);
        }
        self.head = self.head.wrapping_add(k);
    }
}

impl Sym {
    /// Interpret the value as a channel operand.
    fn as_chan(self) -> Option<ChanId> {
        match self {
            Sym::Const(HOST_CHANNEL) => Some(ChanId::Host),
            Sym::Const(v) => Some(ChanId::Lit(v)),
            Sym::Chan(c) => Some(c),
            Sym::Top => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    Send,
    Recv,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub(crate) kind: EventKind,
    pub(crate) chan: ChanId,
    pub(crate) pc: UWord,
}

pub(crate) struct Instance {
    pub(crate) entry: UWord,
    /// Entry addresses on the fork chain from the root, including this
    /// instance — the recursion guard.
    ancestry: Vec<UWord>,
    /// Initial in/out channel globals.
    r17: Sym,
    r18: Sym,
    pub(crate) events: Vec<Event>,
}

/// Where and why one instance escaped static analysis, naming the
/// offending instruction — the raw material of the `QV0303` note and
/// of the deep pass's `unknown` channel verdict.
#[derive(Debug, Clone)]
pub(crate) struct Bail {
    pub(crate) pc: UWord,
    pub(crate) reason: String,
}

/// The statically decided fork tree: every context instance with its
/// channel event sequence, or the bail that stopped the analysis.
/// Shared between the default wiring lints and the deep pass.
pub(crate) struct WiringModel {
    pub(crate) instances: Vec<Instance>,
    /// `(instance id, bail)` when some instance escaped analysis; the
    /// event model is then incomplete and carries no guarantees.
    pub(crate) bail: Option<(usize, Bail)>,
}

pub(crate) struct WiringPass<'a> {
    code: &'a DecodedCode<'a>,
}

impl<'a> WiringPass<'a> {
    pub(crate) fn new(code: &'a DecodedCode<'a>) -> Self {
        WiringPass { code }
    }

    fn ctx_label(&self, inst: usize, entry: UWord) -> String {
        names::ctx_label(inst, Some(&names::pc_span(&self.code.symbols, entry)))
    }

    /// Symbolically execute one instance. Returns the [`Bail`] naming
    /// the offending instruction when the instance (and hence the whole
    /// pass) is not statically decidable.
    #[allow(clippy::too_many_lines)]
    fn exec_instance(
        &self,
        instances: &mut Vec<Instance>,
        id: usize,
        fresh_chans: &mut usize,
    ) -> Result<(), Bail> {
        let mut pc = instances[id].entry;
        let ancestry = instances[id].ancestry.clone();
        // r16..r31 (index n-16); r16 (DUMMY) reads as Top.
        let mut globals = [Sym::Top; 16];
        globals[(REG_IN_CHAN - 16) as usize] = instances[id].r17;
        globals[(REG_OUT_CHAN - 16) as usize] = instances[id].r18;
        let mut slots = Window { slots: [Sym::Top; 256], head: 0 };
        let mut last_result = Sym::Top;

        let read = |mode: SrcMode, slots: &Window, globals: &[Sym; 16]| match mode {
            SrcMode::Window(n) => slots.get(n),
            SrcMode::Global(n) if n > 16 => globals[(n - 16) as usize],
            SrcMode::Global(_) => Sym::Top,
            SrcMode::Imm(v) => Sym::Const(Word::from(v)),
            SrcMode::ImmWord(v) => Sym::Const(v),
        };

        for _ in 0..MAX_STEPS {
            let Some((instr, size)) = self.code.instr_at(pc) else {
                return Err(Bail { pc, reason: "execution reaches an undecodable word".into() });
            };
            match *instr {
                Instruction::Dup { two, off1, off2, .. } => {
                    slots.set(off1, last_result);
                    if two {
                        slots.set(off2, last_result);
                    }
                    pc += size;
                }
                Instruction::Basic { op, src1, src2, dst1, dst2, qp_inc, .. } => {
                    let a = read(src1, &slots, &globals);
                    let b = read(src2, &slots, &globals);
                    let advance = |slots: &mut Window| slots.advance(qp_inc);
                    let write =
                        |dst: u8, v: Sym, slots: &mut Window, globals: &mut [Sym; 16]| -> bool {
                            match dst {
                                d if d < 16 => {
                                    slots.set(d, v);
                                    true
                                }
                                REG_DUMMY => true,
                                d if d < 29 => {
                                    globals[(d - 16) as usize] = v;
                                    true
                                }
                                _ => false, // pom/qp/pc written: undecidable
                            }
                        };
                    let reg_write_bail = |pc| Bail {
                        pc,
                        reason: "destination writes the queue or program pointer".into(),
                    };
                    match op {
                        Opcode::Bne | Opcode::Beq => {
                            return Err(Bail {
                                pc,
                                reason: format!("`{op}`: branches make the splice undecidable"),
                            })
                        }
                        Opcode::Fret | Opcode::Rett => {
                            return Err(Bail {
                                pc,
                                reason: format!("`{op}`: kernel-mode return in user code"),
                            })
                        }
                        Opcode::Trap | Opcode::Ftrap => {
                            advance(&mut slots);
                            let Sym::Const(entry_no) = a else {
                                return Err(Bail {
                                    pc,
                                    reason: format!(
                                        "`{op}`: kernel entry depends on a runtime value"
                                    ),
                                });
                            };
                            match entry_no {
                                traps::END | traps::HALT => return Ok(()),
                                traps::NOW => {
                                    if !write(dst1, Sym::Top, &mut slots, &mut globals) {
                                        return Err(reg_write_bail(pc));
                                    }
                                    last_result = Sym::Top;
                                }
                                traps::WAIT => {}
                                traps::CHAN => {
                                    let c = Sym::Chan(ChanId::Fresh(*fresh_chans));
                                    *fresh_chans += 1;
                                    if !write(dst1, c, &mut slots, &mut globals) {
                                        return Err(reg_write_bail(pc));
                                    }
                                    last_result = c;
                                }
                                e if traps::is_fork(e) => {
                                    let Sym::Const(target) = b else {
                                        return Err(Bail {
                                            pc,
                                            reason: format!(
                                                "`{op}`: fork target depends on a runtime value"
                                            ),
                                        });
                                    };
                                    #[allow(clippy::cast_sign_loss)]
                                    let target = target as UWord;
                                    if ancestry.contains(&target)
                                        || instances.len() >= MAX_INSTANCES
                                    {
                                        // Recursive fork chain (OCCAM
                                        // loop) or unbounded tree.
                                        return Err(Bail {
                                            pc,
                                            reason: format!(
                                                "`{op}`: recursive fork chain or fork tree \
                                                 beyond {MAX_INSTANCES} instances"
                                            ),
                                        });
                                    }
                                    let child = instances.len();
                                    let c_in = Sym::Chan(ChanId::In(child));
                                    let (c_out, child_out) = if e == traps::IFORK {
                                        (Sym::Top, globals[(REG_OUT_CHAN - 16) as usize])
                                    } else {
                                        let c = Sym::Chan(ChanId::Out(child));
                                        (c, c)
                                    };
                                    let mut child_ancestry = ancestry.clone();
                                    child_ancestry.push(target);
                                    instances.push(Instance {
                                        entry: target,
                                        ancestry: child_ancestry,
                                        r17: c_in,
                                        r18: child_out,
                                        events: Vec::new(),
                                    });
                                    if !write(dst1, c_in, &mut slots, &mut globals) {
                                        return Err(reg_write_bail(pc));
                                    }
                                    if e != traps::IFORK
                                        && !write(dst2, c_out, &mut slots, &mut globals)
                                    {
                                        return Err(reg_write_bail(pc));
                                    }
                                    last_result = c_in;
                                }
                                _ => {
                                    return Err(Bail {
                                        pc,
                                        reason: format!("`{op}`: unknown kernel entry {entry_no}"),
                                    })
                                }
                            }
                            pc += size;
                        }
                        Opcode::Send | Opcode::Recv => {
                            advance(&mut slots);
                            let Some(chan) = a.as_chan() else {
                                return Err(Bail {
                                    pc,
                                    reason: format!(
                                        "`{op}`: channel operand is not statically known"
                                    ),
                                });
                            };
                            let kind =
                                if op == Opcode::Send { EventKind::Send } else { EventKind::Recv };
                            instances[id].events.push(Event { kind, chan, pc });
                            if op == Opcode::Recv {
                                last_result = Sym::Top;
                                if !write(dst1, Sym::Top, &mut slots, &mut globals)
                                    || !write(dst2, Sym::Top, &mut slots, &mut globals)
                                {
                                    return Err(reg_write_bail(pc));
                                }
                            }
                            pc += size;
                        }
                        _ => {
                            // ALU / compare / memory.
                            advance(&mut slots);
                            let produces = !matches!(op, Opcode::Store | Opcode::Storb);
                            if produces {
                                // Fold enough arithmetic to track channel
                                // values through the move idiom
                                // (`plus c,#0`) and constant math.
                                let v = match (op, a, b) {
                                    (_, Sym::Const(x), Sym::Const(y)) => {
                                        op.alu(x, y).map_or(Sym::Top, Sym::Const)
                                    }
                                    (Opcode::Plus | Opcode::Or | Opcode::Xor, s, Sym::Const(0))
                                    | (Opcode::Plus | Opcode::Or | Opcode::Xor, Sym::Const(0), s) => {
                                        s
                                    }
                                    _ => Sym::Top,
                                };
                                if !write(dst1, v, &mut slots, &mut globals)
                                    || !write(dst2, v, &mut slots, &mut globals)
                                {
                                    return Err(reg_write_bail(pc));
                                }
                                last_result = v;
                            }
                            pc += size;
                        }
                    }
                }
            }
        }
        Err(Bail { pc, reason: format!("instance exceeds the {MAX_STEPS}-step symbolic budget") })
    }

    /// Build the static fork-tree model rooted at `entry`: symbolically
    /// execute every instance, collecting channel events, until done or
    /// until some instance escapes analysis (recorded as the bail).
    pub(crate) fn build_model(&self, entry: UWord) -> WiringModel {
        let mut instances = vec![Instance {
            entry,
            ancestry: vec![entry],
            r17: Sym::Chan(ChanId::Host),
            r18: Sym::Chan(ChanId::Host),
            events: Vec::new(),
        }];
        let mut fresh = 0usize;
        let mut i = 0;
        while i < instances.len() {
            if let Err(bail) = self.exec_instance(&mut instances, i, &mut fresh) {
                return WiringModel { bail: Some((i, bail)), instances };
            }
            i += 1;
        }
        WiringModel { instances, bail: None }
    }

    /// The `QV0303` note for a bailed model: names the instruction that
    /// made the splice undecidable, so Warn-level runs can see why the
    /// wiring lints (and the deep pass's channel facts) are missing.
    pub(crate) fn bail_note(&self, model: &WiringModel) -> Option<Diagnostic> {
        let (id, bail) = model.bail.as_ref()?;
        Some(
            Diagnostic::new(
                Code::WiringUndecidable,
                format!("wiring analysis gave up: {}", bail.reason),
            )
            .in_ctx(self.ctx_label(*id, model.instances[*id].entry))
            .at_pc(bail.pc)
            .at_line(self.code.obj.line_for(bail.pc))
            .note("splice lints and channel facts are unavailable for this program"),
        )
    }

    /// The wiring lints over `model` (this pass's [`build_model`]).
    ///
    /// [`build_model`]: Self::build_model
    pub(crate) fn lint(&self, model: &WiringModel, report: &mut Report) {
        if let Some(note) = self.bail_note(model) {
            report.push(note);
            return; // not statically decidable: no wiring lints
        }
        let instances = &model.instances;

        // Endpoint lints.
        let mut senders: HashMap<ChanId, Vec<(usize, UWord)>> = HashMap::new();
        let mut receivers: HashMap<ChanId, Vec<(usize, UWord)>> = HashMap::new();
        for (id, inst) in instances.iter().enumerate() {
            for ev in &inst.events {
                if ev.chan == ChanId::Host {
                    continue;
                }
                match ev.kind {
                    EventKind::Send => senders.entry(ev.chan).or_default().push((id, ev.pc)),
                    EventKind::Recv => receivers.entry(ev.chan).or_default().push((id, ev.pc)),
                }
            }
        }
        for (&chan, rs) in &receivers {
            if !senders.contains_key(&chan) {
                let &(id, pc) = &rs[0];
                report.push(
                    Diagnostic::new(
                        Code::DanglingChannel,
                        format!("recv on {}, which no context ever sends on", chan.describe()),
                    )
                    .in_ctx(self.ctx_label(id, instances[id].entry))
                    .at_pc(pc)
                    .at_line(self.code.obj.line_for(pc)),
                );
            }
            let mut ctxs: Vec<usize> = rs.iter().map(|&(id, _)| id).collect();
            ctxs.sort_unstable();
            ctxs.dedup();
            if ctxs.len() > 1 {
                let names: Vec<String> =
                    ctxs.iter().map(|&c| self.ctx_label(c, instances[c].entry)).collect();
                report.push(
                    Diagnostic::new(
                        Code::DoublyConnectedChannel,
                        format!("{} is received in {} contexts", chan.describe(), ctxs.len()),
                    )
                    .in_ctx(self.ctx_label(ctxs[0], instances[ctxs[0]].entry))
                    .at_pc(rs[0].1)
                    .at_line(self.code.obj.line_for(rs[0].1))
                    .note(format!("receivers: {}", names.join(", "))),
                );
            }
        }
        for (&chan, ss) in &senders {
            if !receivers.contains_key(&chan) {
                let &(id, pc) = &ss[0];
                report.push(
                    Diagnostic::new(
                        Code::ChannelNeverRead,
                        format!("send on {}, which no context ever receives from", chan.describe()),
                    )
                    .in_ctx(self.ctx_label(id, instances[id].entry))
                    .at_pc(pc)
                    .at_line(self.code.obj.line_for(pc)),
                );
            }
        }

        self.deadlock_lint(instances, report);
    }

    /// Replay the send/receive sequences with buffered sends; anything
    /// stuck at the fixpoint is a guaranteed runtime deadlock.
    fn deadlock_lint(&self, instances: &[Instance], report: &mut Report) {
        let n = instances.len();
        let idx = replay_buffered(instances);
        let stuck: Vec<usize> = (0..n).filter(|&i| idx[i] < instances[i].events.len()).collect();
        if stuck.is_empty() {
            return;
        }
        // Wait-for edges: i → j when j still has a future send on the
        // channel i is stuck receiving on.
        let waits_on = |i: usize| instances[i].events[idx[i]].chan;
        let mut edges: HashMap<usize, Vec<usize>> = HashMap::new();
        for &i in &stuck {
            let c = waits_on(i);
            let mut future_senders: Vec<usize> = Vec::new();
            for &j in &stuck {
                let has_future_send = instances[j].events[idx[j]..]
                    .iter()
                    .any(|e| e.kind == EventKind::Send && e.chan == c);
                if has_future_send {
                    future_senders.push(j);
                }
            }
            if future_senders.is_empty() {
                let pc = instances[i].events[idx[i]].pc;
                report.push(
                    Diagnostic::new(
                        Code::DanglingChannel,
                        format!(
                            "recv on {} can never be satisfied: no remaining sender",
                            waits_on(i).describe()
                        ),
                    )
                    .in_ctx(self.ctx_label(i, instances[i].entry))
                    .at_pc(pc)
                    .at_line(self.code.obj.line_for(pc)),
                );
            }
            edges.insert(i, future_senders);
        }

        // Any cycle in the wait-for graph is a guaranteed deadlock.
        if let Some(cycle) = find_cycle(&stuck, &edges) {
            let mut d = Diagnostic::new(
                Code::StaticDeadlock,
                format!("wait-for cycle: {} context(s) statically deadlocked", cycle.len()),
            )
            .in_ctx(self.ctx_label(cycle[0], instances[cycle[0]].entry))
            .at_pc(instances[cycle[0]].events[idx[cycle[0]]].pc)
            .at_line(self.code.obj.line_for(instances[cycle[0]].events[idx[cycle[0]]].pc));
            for (k, &i) in cycle.iter().enumerate() {
                let j = cycle[(k + 1) % cycle.len()];
                d = d.note(names::wait_line(
                    &self.ctx_label(i, instances[i].entry),
                    &self.ctx_label(j, instances[j].entry),
                    &format!("recv on {}", waits_on(i).describe()),
                ));
            }
            report.push(d);
        }
    }
}

/// Replay the instances' event sequences under buffered sends (a send
/// always completes into an unbounded per-channel buffer; a receive
/// needs an in-flight value), optionally admitting receives on one
/// channel at most `k` times. Returns the per-instance next-event
/// cursor and the per-channel in-flight counts at the fixpoint.
///
/// Buffered semantics are monotone (progress anywhere never disables an
/// event elsewhere), so the fixpoint is schedule-independent and
/// maximal: it completes every event any runtime schedule could, which
/// is what makes "stuck here ⇒ stuck at runtime" sound.
fn replay_with_allowance(
    instances: &[Instance],
    limited: Option<(ChanId, usize)>,
) -> (Vec<usize>, HashMap<ChanId, usize>) {
    let n = instances.len();
    let mut idx = vec![0usize; n];
    let mut buf: HashMap<ChanId, usize> = HashMap::new();
    let mut allowance = limited.map(|(_, k)| k);
    loop {
        let mut progress = false;
        for (i, inst) in instances.iter().enumerate() {
            while idx[i] < inst.events.len() {
                let ev = inst.events[idx[i]];
                let ok = match (ev.kind, ev.chan) {
                    (_, ChanId::Host) => true,
                    (EventKind::Send, c) => {
                        *buf.entry(c).or_insert(0) += 1;
                        true
                    }
                    (EventKind::Recv, c) => {
                        let gated = limited.is_some_and(|(lc, _)| lc == c);
                        if gated && allowance == Some(0) {
                            false
                        } else {
                            match buf.get_mut(&c) {
                                Some(k) if *k > 0 => {
                                    *k -= 1;
                                    if gated {
                                        allowance = allowance.map(|a| a - 1);
                                    }
                                    true
                                }
                                _ => false,
                            }
                        }
                    }
                };
                if ok {
                    idx[i] += 1;
                    progress = true;
                } else {
                    break;
                }
            }
        }
        if !progress {
            break;
        }
    }
    (idx, buf)
}

/// The plain buffered replay: per-instance next-event cursors at the
/// maximal fixpoint.
pub(crate) fn replay_buffered(instances: &[Instance]) -> Vec<usize> {
    replay_with_allowance(instances, None).0
}

/// Receive-count cap above which exact depth bounds are skipped; the
/// bound then falls back to the channel's total send count (still
/// sound, just looser).
const DEPTH_REPLAY_CAP: usize = 256;

/// Static per-channel queue-occupancy bounds: for each non-host
/// channel, the most values that can ever sit sent-but-unreceived.
///
/// For each channel `c` and each receive allowance `k`, the buffered
/// fixpoint with receives on `c` capped at `k` maximizes the sends on
/// `c` any schedule could complete with only `k` receives done
/// (monotonicity again); the bound is the max over `k` of the fixpoint
/// in-flight count. Any runtime instant with `j` receives collected is
/// dominated by the `k = j` fixpoint, so observed high-water marks can
/// never exceed these bounds, at any message-cache capacity.
pub(crate) fn depth_bounds(instances: &[Instance]) -> BTreeMap<ChanId, usize> {
    let mut sends: BTreeMap<ChanId, usize> = BTreeMap::new();
    let mut recvs: BTreeMap<ChanId, usize> = BTreeMap::new();
    for inst in instances {
        for ev in &inst.events {
            if ev.chan == ChanId::Host {
                continue;
            }
            match ev.kind {
                EventKind::Send => *sends.entry(ev.chan).or_insert(0) += 1,
                EventKind::Recv => *recvs.entry(ev.chan).or_insert(0) += 1,
            }
        }
    }
    let mut out = BTreeMap::new();
    for (&c, &total_sends) in &sends {
        let total_recvs = recvs.get(&c).copied().unwrap_or(0);
        let bound = if total_recvs > DEPTH_REPLAY_CAP {
            total_sends
        } else {
            let mut best = 0usize;
            for k in 0..=total_recvs {
                let (_, buf) = replay_with_allowance(instances, Some((c, k)));
                best = best.max(buf.get(&c).copied().unwrap_or(0));
            }
            best
        };
        out.insert(c, bound);
    }
    out
}

/// Replay under pure rendezvous (message-cache capacity 0): a send and
/// its matching receive complete together; host events always complete.
///
/// Completion of this replay is only schedule-independent when every
/// channel has at most one statically known sender instance and one
/// receiver instance — the pairing is then forced, so every schedule
/// performs the same hand-offs in the same per-channel order. The deep
/// pass checks that uniqueness before trusting a completed replay, and
/// a deadlock-free verdict at capacity 0 carries to every larger
/// message-cache capacity (extra buffering only admits more schedules).
pub(crate) fn replay_rendezvous(instances: &[Instance]) -> Vec<usize> {
    let n = instances.len();
    let mut idx = vec![0usize; n];
    loop {
        let mut progress = false;
        for (i, inst) in instances.iter().enumerate() {
            while idx[i] < inst.events.len() && inst.events[idx[i]].chan == ChanId::Host {
                idx[i] += 1;
                progress = true;
            }
        }
        for i in 0..n {
            if idx[i] >= instances[i].events.len() {
                continue;
            }
            let ev = instances[i].events[idx[i]];
            if ev.kind != EventKind::Send || ev.chan == ChanId::Host {
                continue;
            }
            for j in 0..n {
                if j == i || idx[j] >= instances[j].events.len() {
                    continue;
                }
                let peer = instances[j].events[idx[j]];
                if peer.kind == EventKind::Recv && peer.chan == ev.chan {
                    idx[i] += 1;
                    idx[j] += 1;
                    progress = true;
                    break;
                }
            }
        }
        if !progress {
            break;
        }
    }
    idx
}

/// First cycle found in the wait-for graph, as a node list.
pub(crate) fn find_cycle(
    nodes: &[usize],
    edges: &HashMap<usize, Vec<usize>>,
) -> Option<Vec<usize>> {
    // Iterative DFS with a path stack; graphs here are tiny.
    for &start in nodes {
        let mut path: Vec<usize> = vec![start];
        let mut iters: Vec<usize> = vec![0];
        while let (Some(&node), Some(it)) = (path.last(), iters.last_mut()) {
            let succs = edges.get(&node).map_or(&[][..], Vec::as_slice);
            if *it >= succs.len() {
                path.pop();
                iters.pop();
                continue;
            }
            let next = succs[*it];
            *it += 1;
            if let Some(pos) = path.iter().position(|&p| p == next) {
                return Some(path[pos..].to_vec());
            }
            if path.len() < nodes.len() {
                path.push(next);
                iters.push(0);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use crate::diag::Code;
    use crate::{verify_object, VerifyOptions};
    use qm_isa::asm::assemble;

    fn verify(src: &str) -> crate::Report {
        verify_object(&assemble(src).unwrap(), &VerifyOptions::default())
    }

    #[test]
    fn crossed_rendezvous_is_a_static_deadlock() {
        // The runtime fixture from tests/deadlock_report.rs: parent
        // receives from the child's *out* channel before sending the
        // value the child is waiting for on its *in* channel.
        let r = verify(
            "main:   trap #0,#peer :r0,r1\n\
                     recv r1,#0 :r2\n\
                     send r0,#1\n\
                     trap #2,#0\n\
             peer:   recv r17,#0 :r0\n\
                     send+1 r18,r0\n\
                     trap #2,#0\n",
        );
        let d = r.diags.iter().find(|d| d.code == Code::StaticDeadlock).expect("deadlock lint");
        assert!(d.notes.iter().any(|l| l.contains("waits for")), "{}", r.render());
        assert!(
            d.notes.iter().any(|l| l.contains("ctx0 (main)")),
            "wait lines use canonical labels: {}",
            r.render()
        );
    }

    #[test]
    fn pipelined_fork_is_clean() {
        let r = verify(
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
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn chan_trap_channel_without_sender_is_dangling() {
        let r = verify(
            "main: trap #6,#0 :r19\n\
                   recv r19,#0 :r0\n\
                   trap #2,#0\n",
        );
        assert!(r.diags.iter().any(|d| d.code == Code::DanglingChannel), "{}", r.render());
    }

    #[test]
    fn send_without_receiver_warns() {
        let r = verify(
            "main: trap #6,#0 :r19\n\
                   send r19,#7\n\
                   trap #2,#0\n",
        );
        assert!(r.diags.iter().any(|d| d.code == Code::ChannelNeverRead), "{}", r.render());
        assert!(!r.has_errors(), "{}", r.render());
    }

    #[test]
    fn branchy_programs_suppress_wiring_lints() {
        // The recv on a chan-trap channel would be dangling, but the
        // branch makes the splice undecidable — no wiring lint, only
        // queue-pass findings.
        let r = verify(
            "main: trap #6,#0 :r19\n\
                   lt #1,#2 :r0\n\
                   bne r0,@skip\n\
             skip: recv r19,#0 :r1\n\
                   trap #2,#0\n",
        );
        assert!(!r.diags.iter().any(|d| d.code == Code::DanglingChannel), "{}", r.render());
    }

    #[test]
    fn wiring_bail_is_a_note_naming_the_instruction() {
        // Same program: the bail now surfaces as a QV0303 note at the
        // branch, and the report stays clean (Strict still accepts it).
        let r = verify(
            "main: trap #6,#0 :r19\n\
                   lt #1,#2 :r0\n\
                   bne r0,@skip\n\
             skip: recv r19,#0 :r1\n\
                   trap #2,#0\n",
        );
        let d = r.diags.iter().find(|d| d.code == Code::WiringUndecidable).expect("QV0303 note");
        assert_eq!(d.severity, crate::Severity::Note);
        assert!(d.message.contains("bne"), "names the instruction: {}", d.message);
        assert!(d.pc.is_some(), "carries the program point");
        assert!(r.is_clean(), "a bail note keeps the report clean: {}", r.render());
    }

    #[test]
    fn runtime_channel_bail_names_the_send() {
        // A send on a runtime-computed channel (loaded from memory).
        let r = verify(
            "main: fetch #c,#0 :r0\n\
                   send+1 r0,#7\n\
                   trap #2,#0\n\
             c:    .word 3\n",
        );
        let d = r.diags.iter().find(|d| d.code == Code::WiringUndecidable).expect("QV0303 note");
        assert!(d.message.contains("send"), "{}", d.message);
    }

    #[test]
    fn depth_bounds_track_eager_sends() {
        // One context fills channel 9 three deep before draining it:
        // the static bound is exactly 3.
        let obj = assemble(
            "main: send #9,#1\n\
                   send #9,#2\n\
                   send #9,#3\n\
                   recv #9,#0 :r0\n\
                   recv+1 #9,#0 :r0\n\
                   recv+1 #9,#0 :r0\n\
                   trap #2,#0\n",
        )
        .unwrap();
        let code = crate::decoded::DecodedCode::new(&obj);
        let pass = super::WiringPass::new(&code);
        let model = pass.build_model(obj.symbol("main").unwrap());
        assert!(model.bail.is_none());
        let bounds = super::depth_bounds(&model.instances);
        assert_eq!(bounds.get(&super::ChanId::Lit(9)), Some(&3));
    }

    #[test]
    fn rendezvous_replay_distinguishes_buffer_reliant_programs() {
        // Both contexts send before receiving: drains buffered, sticks
        // under rendezvous (send blocks until the peer receives).
        let obj = assemble(
            "main: trap #0,#kid :r0,r1\n\
                   send r0,#1\n\
                   recv r1,#0 :r2\n\
                   trap #2,#0\n\
             kid:  send r18,#2\n\
                   recv r17,#0 :r0\n\
                   trap #2,#0\n",
        )
        .unwrap();
        let code = crate::decoded::DecodedCode::new(&obj);
        let pass = super::WiringPass::new(&code);
        let model = pass.build_model(obj.symbol("main").unwrap());
        assert!(model.bail.is_none());
        let buffered = super::replay_buffered(&model.instances);
        assert!(
            (0..2).all(|i| buffered[i] == model.instances[i].events.len()),
            "buffered replay drains"
        );
        let rdv = super::replay_rendezvous(&model.instances);
        assert!(
            (0..2).any(|i| rdv[i] < model.instances[i].events.len()),
            "rendezvous replay sticks: both sides send first"
        );
    }

    #[test]
    fn ifork_child_inherits_out_channel() {
        // parent → ifork child; the child sends on the inherited host
        // out-channel: nothing dangles.
        let r = verify(
            "main:  trap #1,#cont :r0\n\
                    send r0,#5\n\
                    trap #2,#0\n\
             cont:  recv r17,#0 :r0\n\
                    send+1 r18,r0\n\
                    trap #2,#0\n",
        );
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn doubly_connected_channel_warns() {
        // Both children receive on the same chan-trap channel.
        let r = verify(
            "main: trap #6,#0 :r19\n\
                   trap #0,#kid :r0,r1\n\
                   trap #0,#kid :r2,r3\n\
                   send r19,#1\n\
                   send r19,#2\n\
                   send r0,#0\n\
                   send r2,#0\n\
                   recv r1,#0 :r4\n\
                   recv+1 r3,#0 :r4\n\
                   trap #2,#0\n\
             kid:  trap #6,#0 :r19\n\
                   recv r17,#0 :r0\n\
                   send+1 r18,r0\n\
                   trap #2,#0\n",
        );
        // NOTE: each kid's r19 chan-trap overwrites its own global copy;
        // the shared channel is main's r19, which the kids cannot see —
        // so this program instead dangles. Keep it simple: check the
        // multi-receiver lint directly with literal channels.
        let _ = r;
        let r = verify(
            "main: trap #0,#kid :r0,r1\n\
                   trap #0,#kid :r2,r3\n\
                   send #9,#1\n\
                   send r0,#0\n\
                   send r2,#0\n\
                   recv r1,#0 :r4\n\
                   recv+1 r3,#0 :r4\n\
                   trap #2,#0\n\
             kid:  recv #9,#0 :r0\n\
                   recv+1 r17,#0 :r1\n\
                   send+1 r18,r0\n\
                   trap #2,#0\n",
        );
        assert!(r.diags.iter().any(|d| d.code == Code::DoublyConnectedChannel), "{}", r.render());
    }
}
