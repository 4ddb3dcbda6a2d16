//! Assembly emission: context graph → queue machine instructions.
//!
//! Implements the §3.6 queue-position construction: instruction `i`
//! consumes its operands at absolute queue positions `o_i … o_i+A−1`
//! where `o_i = Σ_{j<i} A(v_j)`, and every producer stores its result at
//! its consumers' operand positions (relative to the post-consumption
//! queue front). Up to two small offsets ride in the instruction's
//! destination fields; further (or large) offsets are written by `dup`
//! instructions; the two results of `rfork` are staged through the
//! scratch globals `r19`/`r20`.

use std::fmt::{self, Display, Write as _};

use crate::graph::{Actor, ChanRef, ContextGraph, NodeId};

/// Emission failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmitError {
    /// A result offset exceeds the queue page: the context is too large
    /// for one page.
    PageOverflow {
        /// Label of the context.
        label: String,
        /// The largest result offset.
        offset: usize,
    },
}

impl EmitError {
    /// The description without the "emit error" prefix.
    pub(crate) fn describe(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmitError::PageOverflow { label, offset } => write!(
                f,
                "context {label} too large: result offset {offset} exceeds the queue page"
            ),
        }
    }
}

impl Display for EmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("emit error: ")?;
        self.describe(f)
    }
}

impl std::error::Error for EmitError {}

/// Maximum queue offset a result can be stored at (queue page size − 1).
pub const MAX_OFFSET: usize = 255;

/// Emit one context as assembly text, starting with `label:` and ending
/// with the context-terminating `trap #2,#0`.
///
/// `priorities` selects the Fig. 4.20 scheduling heuristic; plain
/// topological order otherwise (the Table 6.6 ablation).
///
/// # Errors
///
/// [`EmitError`] if a result offset exceeds the queue page.
pub fn emit_context(
    label: &str,
    graph: &ContextGraph,
    priorities: bool,
) -> Result<String, EmitError> {
    let mut text = String::new();
    Emitter::default().emit(&mut text, label, graph, priorities)?;
    Ok(text)
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
    /// Append the context's assembly text to `out`; see [`emit_context`].
    /// On error `out` ends in a partial context.
    pub(crate) fn emit(
        &mut self,
        out: &mut String,
        label: &str,
        graph: &ContextGraph,
        priorities: bool,
    ) -> Result<(), EmitError> {
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

        let mut w = Lines { out, label, first: true };
        for &id in &order {
            let actor = graph.payload(id);
            let qp = Qp(actor.value_ins());
            // Output 0's offsets; none for actors without a result.
            self.rel_offsets(graph, label, id, 0)?;
            let offs = &self.offs;
            match actor {
                Actor::Const(v) => emit_value(&mut w, format_args!("plus #{v},#0"), offs),
                Actor::Label(l) => emit_value(&mut w, format_args!("plus #{l},#0"), offs),
                Actor::Copy => emit_value(&mut w, "plus+1 r0,#0", offs),
                Actor::Neg => emit_value(&mut w, "minus+1 #0,r0", offs),
                Actor::Not => emit_value(&mut w, "xor+1 r0,#-1", offs),
                Actor::Bin(op) => {
                    emit_value(&mut w, format_args!("{}+2 r0,r1", op.mnemonic()), offs)
                }
                Actor::Fetch => emit_value(&mut w, "fetch+1 r0,#0", offs),
                Actor::Store => w.line("store+2 r0,r1"),
                Actor::Recv(cr) => {
                    let base = match cr {
                        ChanRef::InReg => "recv r17,#0",
                        ChanRef::OutReg => "recv r18,#0",
                        ChanRef::Value => "recv+1 r0,#0",
                    };
                    emit_value(&mut w, base, offs);
                }
                Actor::Send(cr) => w.line(match cr {
                    ChanRef::InReg => "send+1 r17,r0",
                    ChanRef::OutReg => "send+1 r18,r0",
                    ChanRef::Value => "send+2 r0,r1",
                }),
                Actor::Fork { iterative: true, .. } => {
                    w.line(format_args!("trap{qp} #1,r0 :r19"));
                    if !offs.is_empty() {
                        emit_value(&mut w, "plus r19,#0", offs);
                    }
                }
                Actor::Fork { iterative: false, local } => {
                    let entry = if *local { 7 } else { 0 };
                    w.line(format_args!("trap{qp} #{entry},r0 :r19,r20"));
                    if !offs.is_empty() {
                        emit_value(&mut w, "plus r19,#0", offs);
                    }
                    self.rel_offsets(graph, label, id, 1)?;
                    if !self.offs.is_empty() {
                        emit_value(&mut w, "plus r20,#0", &self.offs);
                    }
                }
                Actor::ChanNew | Actor::Now => {
                    let entry = if *actor == Actor::ChanNew { 6 } else { 4 };
                    match offs.as_slice() {
                        [] => w.line(format_args!("trap #{entry},#0")),
                        [single] if *single < 16 => {
                            w.line(format_args!("trap #{entry},#0 :r{single}"));
                        }
                        _ => {
                            w.line(format_args!("trap #{entry},#0 :r19"));
                            emit_value(&mut w, "plus r19,#0", offs);
                        }
                    }
                }
                Actor::Wait => w.line(format_args!("trap{qp} #5,r0")),
                Actor::End => w.line(format_args!("trap{qp} #2,#0")),
            }
        }
        if w.first {
            // A graph with nothing live is one empty line.
            out.push('\n');
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
    ) -> Result<(), EmitError> {
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
                Err(EmitError::PageOverflow { label: label.to_string(), offset: max })
            }
            _ => Ok(()),
        }
    }
}

/// Assembly lines written straight into the output text: the first
/// carries the context's label, the rest are indented.
struct Lines<'a> {
    out: &'a mut String,
    label: &'a str,
    first: bool,
}

impl Lines<'_> {
    fn line(&mut self, text: impl Display) {
        // Writing into a `String` cannot fail.
        let _ = if std::mem::take(&mut self.first) {
            writeln!(self.out, "{}: {text}", self.label)
        } else {
            writeln!(self.out, "    {text}")
        };
    }
}

/// A queue-pointer increment suffix: `+N`, or nothing for 0.
struct Qp(usize);

impl Display for Qp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 > 0 {
            write!(f, "+{}", self.0)
        } else {
            Ok(())
        }
    }
}

/// Emit a value-producing instruction plus the `dup`s distributing its
/// result to every offset (ascending). Up to two offsets < 16 ride in
/// the destination fields; the rest go through `dup1`/`dup2` with the
/// continue flag linking the group.
fn emit_value(w: &mut Lines<'_>, base: impl Display, offsets: &[usize]) {
    let direct = offsets.iter().take(2).filter(|&&o| o < 16).count();
    let (direct, rest) = offsets.split_at(direct);
    let cont = if rest.is_empty() { "" } else { " >" };
    match direct {
        [] => w.line(format_args!("{base}{cont}")),
        [a] => w.line(format_args!("{base} :r{a}{cont}")),
        [a, b] => w.line(format_args!("{base} :r{a},r{b}{cont}")),
        _ => unreachable!("take(2)"),
    }
    let mut chunks = rest.chunks(2).peekable();
    while let Some(chunk) = chunks.next() {
        let more = if chunks.peek().is_some() { " >" } else { "" };
        match chunk {
            [a] => w.line(format_args!("dup1 :r{a}{more}")),
            [a, b] => w.line(format_args!("dup2 :r{a},r{b}{more}")),
            _ => unreachable!("chunks(2)"),
        }
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
        let asm = emit_context("t", &finish(g), true).unwrap();
        assert!(asm.starts_with("t: "), "{asm}");
        assert!(asm.contains("plus+2 r0,r1"), "{asm}");
        assert!(asm.contains("send+1 r18,r0"), "{asm}");
        assert!(asm.trim_end().ends_with("trap #2,#0"), "{asm}");
        // It must assemble.
        qm_isa::asm::assemble(&asm).unwrap();
    }

    #[test]
    fn dead_constants_are_dropped() {
        let mut g = ContextGraph::new();
        let _unused = g.add(Actor::Const(42), &[], &[]);
        let asm = emit_context("t", &finish(g), true).unwrap();
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
        let asm = emit_context("t", &finish(g), true).unwrap();
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
        let asm = emit_context("t", &g, true).unwrap();
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
        let EmitError::PageOverflow { ref label, offset } = err;
        assert_eq!((label.as_str(), offset > MAX_OFFSET), ("t", true));
        assert_eq!(
            err.to_string(),
            format!(
                "emit error: context t too large: result offset {offset} exceeds the queue page"
            )
        );
        assert_eq!(
            crate::codegen::CodegenError::from(err).to_string(),
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
        let asm = emit_context("t", &finish(g), true).unwrap();
        let store_line = asm.lines().position(|l| l.contains("store")).unwrap();
        let end_line = asm.lines().position(|l| l.contains("trap")).unwrap();
        assert!(store_line < end_line, "{asm}");
    }
}
