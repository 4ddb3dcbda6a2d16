//! Instruction emission: context graph → typed [`Instruction`]s pushed
//! into a qm-isa [`Listing`], which is linked into object code directly
//! and printed as assembly text by qm-isa.
//!
//! Implements the §3.6 queue-position construction: instruction `i`
//! consumes its operands at absolute queue positions `o_i … o_i+A−1`
//! where `o_i = Σ_{j<i} A(v_j)`, and every producer stores its result at
//! its consumers' operand positions (relative to the post-consumption
//! queue front). Up to two small offsets ride in the instruction's
//! destination fields; further (or large) offsets are written by `dup`
//! instructions; the two results of `rfork` are staged through the
//! scratch globals `r19`/`r20`.

use qm_isa::asm::{Item, LabelRef, Listing};
use qm_isa::isa::REG_DUMMY;
use qm_isa::{Instruction, Opcode, SrcMode};

use crate::codegen::CodegenError;
use crate::graph::{Actor, ChanRef, ContextGraph, NodeId};

/// Maximum queue offset a result can be stored at (queue page size − 1).
pub const MAX_OFFSET: usize = 255;

/// Emit one context into a fresh listing, starting with `label:` and
/// ending with the context-terminating `trap #2,#0`.
///
/// `priorities` selects the Fig. 4.20 scheduling heuristic; plain
/// topological order otherwise (the Table 6.6 ablation).
///
/// # Errors
///
/// [`CodegenError::PageOverflow`] if a result offset exceeds the queue
/// page.
pub fn emit_context<'a>(
    label: &'a str,
    graph: &'a ContextGraph,
    priorities: bool,
) -> Result<Listing<'a>, CodegenError> {
    let mut listing = Listing::default();
    Emitter::default().emit(&mut listing, label, graph, priorities)?;
    Ok(listing)
}

/// Scratch tables for emitting contexts, reused from one context to the
/// next so a whole program's emission allocates only as its largest
/// context grows them.
#[derive(Debug, Default)]
pub(crate) struct Emitter {
    /// Dead-code flags per node.
    dead: Vec<bool>,
    /// Per node: value reads plus control successors not yet dead.
    live_uses: Vec<usize>,
    /// Dead-code worklist.
    work: Vec<NodeId>,
    /// Per live node: its first operand's absolute queue position.
    base: Vec<usize>,
    /// Result offsets of the node being emitted.
    offs: Vec<usize>,
}

impl Emitter {
    /// Append the context's label and instructions to `out`; see
    /// [`emit_context`]. On error `out` ends in a partial context.
    pub(crate) fn emit<'a>(
        &mut self,
        out: &mut Listing<'a>,
        label: &'a str,
        graph: &'a ContextGraph,
        priorities: bool,
    ) -> Result<(), CodegenError> {
        self.dead_code(graph);

        // --- Schedule live nodes; keep End last. ---
        let mut order = graph.schedule(priorities);
        order.retain(|&i| !self.dead[i]);
        if let Some(end_pos) = order.iter().position(|&i| *graph.payload(i) == Actor::End) {
            let end = order.remove(end_pos);
            order.push(end);
        }

        // --- Queue positions. ---
        self.base.clear();
        self.base.resize(graph.len(), usize::MAX);
        let mut acc = 0usize;
        for &id in &order {
            self.base[id] = acc;
            acc += graph.payload(id).value_ins();
        }

        out.push(Item::Label(label));
        for &id in &order {
            let actor = graph.payload(id);
            let op = |op, src1, src2| basic(op, actor.value_ins(), src1, src2);
            // Output 0's offsets; none for actors without a result.
            self.rel_offsets(graph, label, id, 0)?;
            let offs = &self.offs;
            let (value, read) = match actor {
                Actor::Const(v) => (op(Opcode::Plus, SrcMode::imm(*v), ZERO), None),
                Actor::Label(l) => (op(Opcode::Plus, ZERO, ZERO), Some(LabelRef::Abs(l.as_str()))),
                Actor::Copy => (op(Opcode::Plus, R0, ZERO), None),
                Actor::Neg => (op(Opcode::Minus, ZERO, R0), None),
                Actor::Not => (op(Opcode::Xor, R0, SrcMode::Imm(-1)), None),
                Actor::Bin(bin) => (op(*bin, R0, R1), None),
                Actor::Fetch => (op(Opcode::Fetch, R0, ZERO), None),
                Actor::Recv(cr) => (op(Opcode::Recv, chan(*cr), ZERO), None),
                Actor::Store => (op(Opcode::Store, R0, R1), None),
                Actor::Send(cr) => {
                    let v = if *cr == ChanRef::Value { R1 } else { R0 };
                    (op(Opcode::Send, chan(*cr), v), None)
                }
                Actor::Wait => (op(Opcode::Trap, SrcMode::Imm(5), R0), None),
                Actor::End => (op(Opcode::Trap, SrcMode::Imm(2), ZERO), None),
                Actor::Fork { iterative, local } => {
                    // `ifork` yields its in channel, `rfork` in and out.
                    let (entry, dst2) = match (iterative, local) {
                        (true, _) => (1, REG_DUMMY),
                        (false, local) => (if *local { 7 } else { 0 }, SCRATCH2),
                    };
                    let fork = op(Opcode::Trap, SrcMode::Imm(entry), R0);
                    out.push(instr(with_dsts(fork, SCRATCH1, dst2)));
                    staged(out, SCRATCH1, offs);
                    self.rel_offsets(graph, label, id, 1)?;
                    staged(out, SCRATCH2, &self.offs);
                    continue;
                }
                Actor::ChanNew | Actor::Now => {
                    let entry = if *actor == Actor::ChanNew { 6 } else { 4 };
                    let trap = op(Opcode::Trap, SrcMode::Imm(entry), ZERO);
                    // One small offset rides in the trap; more go through r19.
                    if offs.len() > 1 || offs.iter().any(|&o| o >= 16) {
                        out.push(instr(with_dsts(trap, SCRATCH1, REG_DUMMY)));
                        staged(out, SCRATCH1, offs);
                        continue;
                    }
                    (trap, None)
                }
            };
            emit_value(out, value, read, offs);
        }
        Ok(())
    }

    /// Dead-code elimination: drop pure producers nobody reads. One
    /// reverse worklist pass: a pure node dies when its last live reader
    /// or control successor does.
    fn dead_code(&mut self, graph: &ContextGraph) {
        let n = graph.len();
        self.dead.clear();
        self.dead.resize(n, false);
        self.live_uses.clear();
        self.live_uses.resize(n, 0);
        for id in 0..n {
            for p in graph.preds(id) {
                self.live_uses[p] += 1;
            }
        }
        self.work.clear();
        for id in 0..n {
            if self.live_uses[id] == 0 && graph.payload(id).is_pure() {
                self.work.push(id);
            }
        }
        while let Some(id) = self.work.pop() {
            self.dead[id] = true;
            for p in graph.preds(id) {
                self.live_uses[p] -= 1;
                if self.live_uses[p] == 0 && graph.payload(p).is_pure() {
                    self.work.push(p);
                }
            }
        }
    }

    /// The result offsets of output `out` of `id` into `self.offs`,
    /// ascending and without repeats, relative to the node's
    /// post-consumption front.
    fn rel_offsets(
        &mut self,
        graph: &ContextGraph,
        label: &str,
        id: NodeId,
        out: u8,
    ) -> Result<(), CodegenError> {
        let front = self.base[id] + graph.payload(id).value_ins();
        self.offs.clear();
        for (c, slot) in graph.consumers(id, out) {
            if !self.dead[c] {
                self.offs.push(self.base[c] + slot - front);
            }
        }
        self.offs.sort_unstable();
        self.offs.dedup();
        match self.offs.last() {
            Some(&max) if max > MAX_OFFSET => {
                Err(CodegenError::PageOverflow { label: label.to_string(), offset: max })
            }
            _ => Ok(()),
        }
    }
}

/// Window registers `r0`/`r1`: the instruction's first two operands.
const R0: SrcMode = SrcMode::Window(0);
const R1: SrcMode = SrcMode::Window(1);
/// The immediate `#0`.
const ZERO: SrcMode = SrcMode::Imm(0);
/// The scratch globals `r19`/`r20` that stage kernel results.
const SCRATCH1: u8 = 19;
const SCRATCH2: u8 = 20;

/// A basic instruction consuming `value_ins` queue words, with no
/// destinations and no continue flag.
fn basic(op: Opcode, value_ins: usize, src1: SrcMode, src2: SrcMode) -> Instruction {
    let qp_inc = value_ins as u8;
    Instruction::Basic { op, src1, src2, dst1: REG_DUMMY, dst2: REG_DUMMY, qp_inc, cont: false }
}

/// `instr` with its destination registers set.
fn with_dsts(mut instr: Instruction, d1: u8, d2: u8) -> Instruction {
    if let Instruction::Basic { dst1, dst2, .. } = &mut instr {
        (*dst1, *dst2) = (d1, d2);
    }
    instr
}

/// A listing item for an instruction that names no label.
fn instr<'a>(instr: Instruction) -> Item<'a> {
    Item::Instr(instr, [None; 2])
}

/// The channel operand: the context's own in (`r17`) or out (`r18`)
/// channel, or the first queue operand.
fn chan(cr: ChanRef) -> SrcMode {
    match cr {
        ChanRef::InReg => SrcMode::Global(17),
        ChanRef::OutReg => SrcMode::Global(18),
        ChanRef::Value => R0,
    }
}

/// Copy a kernel result out of scratch register `reg` to `offsets`, if
/// anything reads it.
fn staged(out: &mut Listing<'_>, reg: u8, offsets: &[usize]) {
    if !offsets.is_empty() {
        emit_value(out, basic(Opcode::Plus, 0, SrcMode::Global(reg), ZERO), None, offsets);
    }
}

/// Emit a value-producing instruction, reading `label` as its first
/// source if given, plus the `dup`s distributing its result to every
/// offset (ascending). Up to two offsets < 16 ride in the destination
/// fields; the rest go through `dup1`/`dup2` with the continue flag
/// linking the group. An instruction without a result has no offsets.
fn emit_value<'a>(
    out: &mut Listing<'a>,
    base: Instruction,
    label: Option<LabelRef<'a>>,
    offsets: &[usize],
) {
    let direct = offsets.iter().take(2).filter(|&&o| o < 16).count();
    let (direct, rest) = offsets.split_at(direct);
    let dst = |i: usize| direct.get(i).map_or(REG_DUMMY, |&o| o as u8);
    let mut base = with_dsts(base, dst(0), dst(1));
    if let Instruction::Basic { cont, .. } = &mut base {
        *cont = !rest.is_empty();
    }
    out.push(Item::Instr(base, [label, None]));
    let mut chunks = rest.chunks(2).peekable();
    while let Some(chunk) = chunks.next() {
        let cont = chunks.peek().is_some();
        let (off1, off2) = (chunk[0] as u8, chunk.get(1).map_or(0, |&o| o as u8));
        out.push(instr(Instruction::Dup { two: chunk.len() == 2, off1, off2, cont }));
    }
}

/// Wire every sink (no value consumer, no control successor) into the
/// `End` node so the context terminates only after all side effects.
/// Call once, after the graph is complete; `end` must be the last node.
/// Pure producers that nobody reads are dead code, not side effects:
/// leaving them unwired lets the emitter's dead-code pass drop them.
pub fn wire_end(graph: &mut ContextGraph, end: NodeId) {
    for id in 0..graph.len() {
        if id != end && !graph.has_succ(id) && !graph.payload(id).is_pure() {
            graph.add_ctrl(id, end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Actor, ChanRef, ContextGraph, ValueRef};
    use qm_core::rng::Gen;
    use qm_isa::Opcode;

    /// The fixpoint dead-code pass the worklist replaced, kept as its
    /// oracle: rescan every node until no pure node loses its last live
    /// reader or control successor.
    fn dead_fixpoint(graph: &ContextGraph) -> Vec<bool> {
        let n = graph.len();
        let mut dead = vec![false; n];
        loop {
            let mut changed = false;
            for id in 0..n {
                if dead[id] || !graph.payload(id).is_pure() {
                    continue;
                }
                let read = (0..n).any(|c| !dead[c] && graph.vins(c).iter().any(|v| v.node == id));
                let followed = (0..n).any(|c| !dead[c] && graph.ctrl_preds(c).any(|p| p == id));
                if !read && !followed {
                    dead[id] = true;
                    changed = true;
                }
            }
            if !changed {
                return dead;
            }
        }
    }

    /// Whether a path of value or control edges leads from `from` to `to`.
    fn reaches(g: &ContextGraph, from: NodeId, to: NodeId) -> bool {
        let mut seen = vec![false; g.len()];
        let mut stack = vec![to];
        while let Some(x) = stack.pop() {
            if x == from {
                return true;
            }
            if !std::mem::replace(&mut seen[x], true) {
                stack.extend(g.preds(x));
            }
        }
        false
    }

    /// A random context graph of up to 40 nodes over every actor kind,
    /// pure and effectful. Value inputs and control predecessors point
    /// back to random earlier nodes (repeats included); a few extra
    /// control edges point either way, like the backward edges input
    /// sequencing adds, without closing a cycle.
    fn random_graph(g: &mut Gen) -> ContextGraph {
        let palette = [
            Actor::Const(1),
            Actor::Label("l".into()),
            Actor::Copy,
            Actor::Neg,
            Actor::Not,
            Actor::Bin(Opcode::Plus),
            Actor::Fetch,
            Actor::Store,
            Actor::Recv(ChanRef::InReg),
            Actor::Recv(ChanRef::Value),
            Actor::Send(ChanRef::OutReg),
            Actor::Send(ChanRef::Value),
            Actor::Fork { iterative: false, local: false },
            Actor::Fork { iterative: true, local: true },
            Actor::ChanNew,
            Actor::Now,
            Actor::Wait,
        ];
        let mut graph = ContextGraph::new();
        let n = g.range(1..=40usize);
        for id in 0..n {
            let producers: Vec<ValueRef> = (0..id)
                .flat_map(|p| {
                    let outs = graph.payload(p).value_outs();
                    (0..outs).map(move |out| ValueRef { node: p, out })
                })
                .collect();
            let mut actor = g.pick(&palette).clone();
            if producers.is_empty() && actor.value_ins() > 0 {
                actor = Actor::Const(0);
            }
            let vins: Vec<ValueRef> = (0..actor.value_ins()).map(|_| *g.pick(&producers)).collect();
            let ctrl: Vec<NodeId> =
                if id == 0 { Vec::new() } else { g.vec(0..=3, |g| g.below(id as u64) as usize) };
            graph.add(actor, &vins, &ctrl);
        }
        for _ in 0..g.range(0..=8usize) {
            let (from, to) = (g.below(n as u64) as usize, g.below(n as u64) as usize);
            if from != to && !reaches(&graph, to, from) {
                graph.add_ctrl(from, to);
            }
        }
        graph
    }

    #[test]
    fn worklist_dead_code_matches_the_fixpoint_oracle() {
        qm_core::rng::check(300, |g| {
            let mut graph = random_graph(g);
            if g.below(2) == 0 {
                let end = graph.add(Actor::End, &[], &[]);
                wire_end(&mut graph, end);
            }
            let mut emitter = Emitter::default();
            emitter.dead_code(&graph);
            assert_eq!(emitter.dead, dead_fixpoint(&graph), "{}", crate::draw::to_dot("g", &graph));
        });
    }

    fn finish(mut g: ContextGraph) -> ContextGraph {
        let end = g.add(Actor::End, &[], &[]);
        wire_end(&mut g, end);
        g
    }

    #[test]
    fn straight_line_emission() {
        let mut g = ContextGraph::new();
        let a = g.add(Actor::Const(2), &[], &[]);
        let b = g.add(Actor::Const(3), &[], &[]);
        let s = g.add(Actor::Bin(Opcode::Plus), &[ValueRef::of(a), ValueRef::of(b)], &[]);
        let _ = g.add(Actor::Send(ChanRef::OutReg), &[ValueRef::of(s)], &[]);
        let g = finish(g);
        let listing = emit_context("t", &g, true).unwrap();
        let asm = listing.to_string();
        assert!(asm.starts_with("t: "), "{asm}");
        assert!(asm.contains("plus+2 r0,r1"), "{asm}");
        assert!(asm.contains("send+1 r18,r0"), "{asm}");
        assert!(asm.trim_end().ends_with("trap #2,#0"), "{asm}");
        // The printed text assembles to the linked listing.
        assert_eq!(qm_isa::asm::assemble(&asm).unwrap(), listing.link().unwrap());
    }

    #[test]
    fn dead_constants_are_dropped() {
        let mut g = ContextGraph::new();
        let _unused = g.add(Actor::Const(42), &[], &[]);
        let asm = emit_context("t", &finish(g), true).unwrap().to_string();
        assert!(!asm.contains("#42"), "{asm}");
    }

    #[test]
    fn fanout_uses_dst_fields_then_dups() {
        // A value consumed by many sends lands in several queue slots.
        let mut g = ContextGraph::new();
        let v = g.add(Actor::Const(7), &[], &[]);
        let c = g.add(Actor::Const(1), &[], &[]);
        // 4 sends each consuming (chan, value): offsets spread out.
        let mut prev = None;
        for _ in 0..4 {
            let ctrl: Vec<_> = prev.into_iter().collect();
            prev = Some(g.add(
                Actor::Send(ChanRef::Value),
                &[ValueRef::of(c), ValueRef::of(v)],
                &ctrl,
            ));
        }
        let asm = emit_context("t", &finish(g), true).unwrap().to_string();
        qm_isa::asm::assemble(&asm).unwrap();
        assert!(asm.contains("dup"), "wide fanout needs dups: {asm}");
    }

    #[test]
    fn rfork_stages_through_scratch() {
        let mut g = ContextGraph::new();
        let l = g.add(Actor::Label("child".into()), &[], &[]);
        let f = g.add(Actor::Fork { iterative: false, local: false }, &[ValueRef::of(l)], &[]);
        let arg = g.add(Actor::Const(5), &[], &[]);
        let _s = g.add(
            Actor::Send(ChanRef::Value),
            &[ValueRef { node: f, out: 0 }, ValueRef::of(arg)],
            &[],
        );
        let _r = g.add(Actor::Recv(ChanRef::Value), &[ValueRef { node: f, out: 1 }], &[]);
        let g = finish(g);
        // Dummy child label target so assembly resolves.
        let end = g.len();
        let _ = end;
        let asm = emit_context("t", &g, true).unwrap().to_string();
        assert!(asm.contains("trap+1 #0,r0 :r19,r20"), "{asm}");
        assert!(asm.contains("plus r19,#0"), "{asm}");
        assert!(asm.contains("plus r20,#0"), "{asm}");
        let full = format!("{asm}child: trap #2,#0\n");
        qm_isa::asm::assemble(&full).unwrap();
    }

    #[test]
    fn offsets_beyond_page_are_rejected() {
        // 200 sends of one constant: consumer slots span past 255.
        let mut g = ContextGraph::new();
        let v = g.add(Actor::Const(9), &[], &[]);
        let c = g.add(Actor::Const(1), &[], &[]);
        let mut prev = None;
        for _ in 0..200 {
            let ctrl: Vec<_> = prev.into_iter().collect();
            prev = Some(g.add(
                Actor::Send(ChanRef::Value),
                &[ValueRef::of(c), ValueRef::of(v)],
                &ctrl,
            ));
        }
        let err = emit_context("t", &finish(g), true).unwrap_err();
        let CodegenError::PageOverflow { ref label, offset } = err else { panic!("{err:?}") };
        assert_eq!((label.as_str(), offset > MAX_OFFSET), ("t", true));
        assert_eq!(
            err.to_string(),
            format!(
                "codegen error: context t too large: result offset {offset} exceeds the queue page"
            )
        );
    }

    #[test]
    fn end_waits_for_stores() {
        let mut g = ContextGraph::new();
        let addr = g.add(Actor::Const(0x0010_0000), &[], &[]);
        let v = g.add(Actor::Const(1), &[], &[]);
        let _st = g.add(Actor::Store, &[ValueRef::of(addr), ValueRef::of(v)], &[]);
        let asm = emit_context("t", &finish(g), true).unwrap().to_string();
        let store_line = asm.lines().position(|l| l.contains("store")).unwrap();
        let end_line = asm.lines().position(|l| l.contains("trap")).unwrap();
        assert!(store_line < end_line, "{asm}");
    }
}
