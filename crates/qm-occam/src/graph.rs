//! Per-context acyclic data-flow graphs (thesis §4.5–4.7).
//!
//! A [`ContextGraph`] holds the actors of one context: nodes carry
//! *value* inputs (which become queue operands) and *control*
//! dependencies (the control-token arcs of §4.6 — they sequence side
//! effects but "do not appear in the queue machine instruction sequence").
//! Nodes may produce up to two distinct values (`rfork` yields both the
//! in and out channel of the new context).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use qm_core::dfg::schedule::ActorClass;
use qm_isa::Opcode;

/// Node index within a [`ContextGraph`].
pub type NodeId = usize;

/// A reference to one output value of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValueRef {
    /// Producing node.
    pub node: NodeId,
    /// Output index (0 or 1).
    pub out: u8,
}

impl ValueRef {
    /// Output 0 of `node`.
    #[must_use]
    pub fn of(node: NodeId) -> Self {
        ValueRef { node, out: 0 }
    }
}

/// How a channel operation names its channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChanRef {
    /// The context's own *in* channel (global register `r17`).
    InReg,
    /// The context's own *out* channel (global register `r18`).
    OutReg,
    /// A run-time channel identifier consumed as the first queue operand.
    Value,
}

/// Data-flow actors of the code generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Actor {
    /// Integer constant.
    Const(i32),
    /// Address of a labelled context body.
    Label(String),
    /// Identity (used to fan out single-consumer values such as fork
    /// channels).
    Copy,
    /// Arithmetic negation (lowered to `minus #0,r0`).
    Neg,
    /// Bitwise complement (lowered to `xor r0,#-1`).
    Not,
    /// Two-operand ALU/compare operation.
    Bin(Opcode),
    /// Memory read; value input = address.
    Fetch,
    /// Memory write; value inputs = address, value. No result.
    Store,
    /// Channel receive.
    Recv(ChanRef),
    /// Channel send; value inputs = optional channel id, then the value.
    /// No result.
    Send(ChanRef),
    /// Context creation; value input = code address. `rfork` produces
    /// (in, out); `ifork` produces (in).
    Fork {
        /// `ifork` (inherits the caller's out channel).
        iterative: bool,
        /// Pin the child to the forking PE (continuation contexts the
        /// parent immediately blocks on).
        local: bool,
    },
    /// Allocate a fresh program channel (kernel entry 6).
    ChanNew,
    /// Read the clock (kernel entry 4).
    Now,
    /// Suspend until the clock reaches the operand (kernel entry 5).
    Wait,
    /// Terminate the context (kernel entry 2). Always scheduled last.
    End,
}

impl Actor {
    /// Number of queue operands consumed.
    #[must_use]
    pub fn value_ins(&self) -> usize {
        match self {
            Actor::Const(_)
            | Actor::Label(_)
            | Actor::ChanNew
            | Actor::Now
            | Actor::End
            | Actor::Recv(ChanRef::InReg | ChanRef::OutReg) => 0,
            Actor::Copy
            | Actor::Neg
            | Actor::Not
            | Actor::Fetch
            | Actor::Recv(ChanRef::Value)
            | Actor::Send(ChanRef::InReg | ChanRef::OutReg)
            | Actor::Fork { .. }
            | Actor::Wait => 1,
            Actor::Bin(_) | Actor::Store | Actor::Send(ChanRef::Value) => 2,
        }
    }

    /// Number of values produced.
    #[must_use]
    pub fn value_outs(&self) -> u8 {
        match self {
            Actor::Store | Actor::Send(_) | Actor::Wait | Actor::End => 0,
            Actor::Fork { iterative: false, .. } => 2,
            _ => 1,
        }
    }

    /// True for side-effect-free producers: with no reader they are dead
    /// code.
    pub(crate) fn is_pure(&self) -> bool {
        matches!(
            self,
            Actor::Const(_)
                | Actor::Label(_)
                | Actor::Copy
                | Actor::Neg
                | Actor::Not
                | Actor::Bin(_)
                | Actor::Fetch
        )
    }

    /// Scheduling class (§4.7 priorities).
    #[must_use]
    pub fn class(&self) -> ActorClass {
        match self {
            Actor::Fork { .. } => ActorClass::Fork,
            Actor::Send(_) => ActorClass::Send,
            Actor::Store => ActorClass::Store,
            Actor::Fetch => ActorClass::Fetch,
            Actor::Recv(_) => ActorClass::Receive,
            Actor::Wait => ActorClass::Wait,
            _ => ActorClass::Other,
        }
    }
}

/// End-of-list marker in the edge arena.
const NIL: usize = usize::MAX;

/// One cell of an adjacency list: the node at the far end of an edge
/// (plus the operand slot for value edges) and the next cell.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Link {
    node: NodeId,
    slot: usize,
    next: usize,
}

/// First and last cell of an adjacency list kept in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct List {
    head: usize,
    tail: usize,
}

impl List {
    const EMPTY: List = List { head: NIL, tail: NIL };

    fn is_empty(self) -> bool {
        self.head == NIL
    }
}

/// A node: actor + ordered value inputs, plus the heads of its
/// adjacency lists (consumers, control predecessors and successors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GNode {
    /// The actor.
    pub actor: Actor,
    vins: [ValueRef; 2],
    n_vins: u8,
    /// `(consumer, slot)` cells per output.
    uses: [List; 2],
    /// Control-token predecessors.
    preds: List,
    /// Control-token successors.
    succs: List,
}

impl GNode {
    /// Ordered operand producers.
    #[must_use]
    pub fn vins(&self) -> &[ValueRef] {
        &self.vins[..usize::from(self.n_vins)]
    }
}

/// The data-flow graph of one context, indexed both ways: every node
/// lists its operand producers, the `(consumer, slot)` pairs reading each
/// of its outputs, and its control predecessors and successors. The
/// lists live in one edge arena and are filled as edges are added, so no
/// query scans the graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ContextGraph {
    nodes: Vec<GNode>,
    links: Vec<Link>,
}

impl ContextGraph {
    /// Empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a cell for `(node, slot)` to `list`, a list of a node of
    /// the graph owning `links`.
    fn append(links: &mut Vec<Link>, list: &mut List, node: NodeId, slot: usize) {
        let cell = links.len();
        links.push(Link { node, slot, next: NIL });
        if list.is_empty() {
            list.head = cell;
        } else {
            links[list.tail].next = cell;
        }
        list.tail = cell;
    }

    /// The cells of `list`, in insertion order.
    fn cells(&self, list: List) -> impl Iterator<Item = &Link> + '_ {
        std::iter::successors((list.head != NIL).then(|| &self.links[list.head]), |l| {
            (l.next != NIL).then(|| &self.links[l.next])
        })
    }

    fn link_ctrl(&mut self, from: NodeId, to: NodeId) {
        let ContextGraph { nodes, links } = self;
        Self::append(links, &mut nodes[from].succs, to, 0);
        Self::append(links, &mut nodes[to].preds, from, 0);
    }

    /// Add a node.
    ///
    /// # Panics
    ///
    /// Panics if operand count or output indices don't match the actor,
    /// or if an input refers to a node that does not exist yet.
    pub fn add(&mut self, actor: Actor, vins: &[ValueRef], ctrl: &[NodeId]) -> NodeId {
        let id = self.nodes.len();
        assert_eq!(vins.len(), actor.value_ins(), "operand count for {actor:?}");
        for v in vins {
            assert!(v.node < id, "value input {v:?} does not exist yet");
            assert!(v.out < self.nodes[v.node].actor.value_outs(), "bad output index {v:?}");
        }
        for &c in ctrl {
            assert!(c < id, "control input {c} does not exist yet");
        }
        let mut ins = [ValueRef::of(0); 2];
        ins[..vins.len()].copy_from_slice(vins);
        #[allow(clippy::cast_possible_truncation)]
        self.nodes.push(GNode {
            actor,
            vins: ins,
            n_vins: vins.len() as u8,
            uses: [List::EMPTY; 2],
            preds: List::EMPTY,
            succs: List::EMPTY,
        });
        let ContextGraph { nodes, links } = self;
        for (slot, v) in vins.iter().enumerate() {
            Self::append(links, &mut nodes[v.node].uses[usize::from(v.out)], id, slot);
        }
        for &c in ctrl {
            self.link_ctrl(c, id);
        }
        id
    }

    /// Add a control edge `from → to` after construction. Unlike value
    /// edges, control edges may point "backwards" in id order (the §4.5
    /// input sequencing reorders prologue receives); [`Self::schedule`]
    /// checks overall acyclicity.
    ///
    /// # Panics
    ///
    /// Panics on a self-edge.
    pub fn add_ctrl(&mut self, from: NodeId, to: NodeId) {
        assert_ne!(from, to, "control self-edge");
        if !self.ctrl_preds(to).any(|p| p == from) {
            self.link_ctrl(from, to);
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node at `id`.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &GNode {
        &self.nodes[id]
    }

    /// All `(consumer, slot)` pairs reading output `out` of `node`, in
    /// ascending consumer order.
    pub fn consumers(&self, node: NodeId, out: u8) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.cells(self.nodes[node].uses[usize::from(out)]).map(|l| (l.node, l.slot))
    }

    /// Control-token predecessors of `id` (order-only constraints), in
    /// the order they were added.
    pub fn ctrl_preds(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.cells(self.nodes[id].preds).map(|l| l.node)
    }

    /// True when some node reads a value of `id` or follows it by a
    /// control edge.
    pub(crate) fn has_succ(&self, id: NodeId) -> bool {
        let n = &self.nodes[id];
        !(n.uses[0].is_empty() && n.uses[1].is_empty() && n.succs.is_empty())
    }

    /// Every value consumer and control successor of `id`, ascending and
    /// without repeats, in `out` (cleared first).
    fn succs_into(&self, id: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        let n = &self.nodes[id];
        for list in [n.uses[0], n.uses[1], n.succs] {
            out.extend(self.cells(list).map(|l| l.node));
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Schedule the nodes: Kahn's algorithm over value+control edges,
    /// selecting by the §4.7 actor priorities when `priorities` is true
    /// (plain FIFO topological order otherwise). Ties go to the node
    /// that became ready first; the ready set is a binary heap keyed on
    /// `(priority, earliest readied)`.
    ///
    /// # Panics
    ///
    /// Never — ids are topological by construction, so a complete order
    /// always exists.
    #[must_use]
    pub fn schedule(&self, priorities: bool) -> Vec<NodeId> {
        let n = self.nodes.len();
        let mut succs = Vec::new();
        let mut remaining = vec![0usize; n];
        for id in 0..n {
            self.succs_into(id, &mut succs);
            for &s in &succs {
                remaining[s] += 1;
            }
        }
        let priority =
            |id: NodeId| if priorities { self.nodes[id].actor.class().priority() } else { 0 };
        let mut ready = BinaryHeap::with_capacity(n);
        let mut readied = 0usize;
        for id in (0..n).filter(|&id| remaining[id] == 0) {
            ready.push((priority(id), Reverse(readied), id));
            readied += 1;
        }
        let mut out = Vec::with_capacity(n);
        while let Some((_, _, v)) = ready.pop() {
            out.push(v);
            self.succs_into(v, &mut succs);
            for &s in &succs {
                remaining[s] -= 1;
                if remaining[s] == 0 {
                    ready.push((priority(s), Reverse(readied), s));
                    readied += 1;
                }
            }
        }
        debug_assert_eq!(out.len(), n, "graph must be acyclic");
        out
    }

    /// The input-sequencing weights `W(v)` of §4.5 for the given input
    /// nodes: `W(v) = Σ_{u : v ∈ I*(u)} C(u)` with `C(u) = |P*(u)|` over
    /// value+control predecessors. Returns the inputs sorted by
    /// descending weight (ties by original position).
    #[must_use]
    pub fn input_order(&self, inputs: &[NodeId]) -> Vec<NodeId> {
        let n = self.nodes.len();
        // Bit of each input node in the I* rows (its first position).
        let mut input_bit = vec![usize::MAX; n];
        for (pos, &v) in inputs.iter().enumerate().rev() {
            input_bit[v] = pos;
        }
        // P* (ancestors including self) and I* (inputs among them) as
        // bitset rows, by a forward pass: ids are topological.
        let (pw, iw) = (n.div_ceil(64), inputs.len().div_ceil(64));
        let mut pstar = vec![0u64; n * pw];
        let mut istar = vec![0u64; n * iw];
        for (i, node) in self.nodes.iter().enumerate() {
            let (before, row) = pstar.split_at_mut(i * pw);
            let row = &mut row[..pw];
            row[i / 64] |= 1 << (i % 64);
            let (ibefore, irow) = istar.split_at_mut(i * iw);
            let irow = &mut irow[..iw];
            if input_bit[i] != usize::MAX {
                irow[input_bit[i] / 64] |= 1 << (input_bit[i] % 64);
            }
            // Backward control edges (added by later passes) cannot exist
            // yet when this runs; guard anyway.
            let preds = node.vins().iter().map(|v| v.node).chain(self.ctrl_preds(i));
            for pred in preds.filter(|&p| p < i) {
                for (d, s) in row.iter_mut().zip(&before[pred * pw..(pred + 1) * pw]) {
                    *d |= s;
                }
                for (d, s) in irow.iter_mut().zip(&ibefore[pred * iw..(pred + 1) * iw]) {
                    *d |= s;
                }
            }
        }
        let sizes: Vec<usize> = pstar
            .chunks_exact(pw.max(1))
            .map(|row| row.iter().map(|w| w.count_ones() as usize).sum())
            .collect();
        let mut weighted: Vec<(usize, NodeId, usize)> = inputs
            .iter()
            .enumerate()
            .map(|(pos, &v)| {
                let bit = input_bit[v];
                let w: usize = (0..n)
                    .filter(|&u| istar[u * iw + bit / 64] & (1 << (bit % 64)) != 0)
                    .map(|u| sizes[u])
                    .sum();
                (pos, v, w)
            })
            .collect();
        weighted.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        weighted.into_iter().map(|(_, v, _)| v).collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use qm_core::rng::{check, Gen};

    /// The O(n²) Kahn schedule the heap replaced, kept as its oracle: the
    /// ready list is scanned for the highest priority, earliest readied.
    fn schedule_oracle(g: &ContextGraph, priorities: bool) -> Vec<NodeId> {
        let preds = |i: NodeId| {
            let mut p: Vec<NodeId> =
                g.node(i).vins().iter().map(|v| v.node).chain(g.ctrl_preds(i)).collect();
            p.sort_unstable();
            p.dedup();
            p
        };
        let mut remaining: Vec<usize> = (0..g.len()).map(|i| preds(i).len()).collect();
        let mut succs: Vec<Vec<NodeId>> = vec![Vec::new(); g.len()];
        for i in 0..g.len() {
            for p in preds(i) {
                succs[p].push(i);
            }
        }
        let priority = |i: NodeId| g.node(i).actor.class().priority();
        let mut ready: Vec<NodeId> = (0..g.len()).filter(|&i| remaining[i] == 0).collect();
        let mut out = Vec::new();
        while !ready.is_empty() {
            let pick = if priorities {
                ready
                    .iter()
                    .enumerate()
                    .max_by(|(ia, &a), (ib, &b)| priority(a).cmp(&priority(b)).then(ib.cmp(ia)))
                    .map(|(i, _)| i)
                    .expect("non-empty")
            } else {
                0
            };
            let v = ready.remove(pick);
            out.push(v);
            for &s in &succs[v] {
                remaining[s] -= 1;
                if remaining[s] == 0 {
                    ready.push(s);
                }
            }
        }
        out
    }

    /// Whether a path of value or control edges leads from `from` to `to`
    /// (found by scanning, independently of the graph's index).
    fn reaches(g: &ContextGraph, from: NodeId, to: NodeId) -> bool {
        let mut seen = vec![false; g.len()];
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            if x == to {
                return true;
            }
            if std::mem::replace(&mut seen[x], true) {
                continue;
            }
            for y in 0..g.len() {
                if g.node(y).vins().iter().any(|v| v.node == x) || g.ctrl_preds(y).any(|p| p == x) {
                    stack.push(y);
                }
            }
        }
        false
    }

    /// A random context graph of up to 40 nodes over every actor kind, so
    /// priorities tie often. Value inputs and control predecessors point
    /// back to random earlier nodes (repeats included); a few extra
    /// control edges point either way, like the backward edges input
    /// sequencing adds, without closing a cycle.
    pub(crate) fn random_graph(g: &mut Gen) -> ContextGraph {
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
                    let outs = graph.node(p).actor.value_outs();
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
    fn index_matches_a_scan_of_the_inputs() {
        check(200, |g| {
            let graph = random_graph(g);
            for id in 0..graph.len() {
                for out in 0..2u8 {
                    let scanned: Vec<(NodeId, usize)> = (0..graph.len())
                        .flat_map(|c| {
                            let vins = graph.node(c).vins();
                            (0..vins.len())
                                .filter(move |&s| vins[s] == ValueRef { node: id, out })
                                .map(move |s| (c, s))
                        })
                        .collect();
                    assert_eq!(graph.consumers(id, out).collect::<Vec<_>>(), scanned);
                }
                let mut succs: Vec<NodeId> =
                    graph.cells(graph.nodes[id].succs).map(|l| l.node).collect();
                let mut scanned: Vec<NodeId> = (0..graph.len())
                    .flat_map(|c| graph.ctrl_preds(c).filter(move |&p| p == id).map(move |_| c))
                    .collect();
                succs.sort_unstable();
                scanned.sort_unstable();
                assert_eq!(succs, scanned, "control successors of {id}");
            }
        });
    }

    #[test]
    fn heap_schedule_matches_the_kahn_oracle() {
        check(300, |g| {
            let graph = random_graph(g);
            for priorities in [false, true] {
                assert_eq!(
                    graph.schedule(priorities),
                    schedule_oracle(&graph, priorities),
                    "priorities {priorities}:\n{}",
                    crate::draw::to_dot("g", &graph)
                );
            }
        });
    }

    #[test]
    fn actor_arities() {
        assert_eq!(Actor::Const(1).value_ins(), 0);
        assert_eq!(Actor::Bin(Opcode::Plus).value_ins(), 2);
        assert_eq!(Actor::Send(ChanRef::Value).value_ins(), 2);
        assert_eq!(Actor::Send(ChanRef::OutReg).value_ins(), 1);
        assert_eq!(Actor::Fork { iterative: false, local: false }.value_outs(), 2);
        assert_eq!(Actor::Fork { iterative: true, local: true }.value_outs(), 1);
        assert_eq!(Actor::Store.value_outs(), 0);
    }

    #[test]
    fn schedule_respects_dependencies() {
        let mut g = ContextGraph::new();
        let a = g.add(Actor::Const(1), &[], &[]);
        let b = g.add(Actor::Const(2), &[], &[]);
        let sum = g.add(Actor::Bin(Opcode::Plus), &[ValueRef::of(a), ValueRef::of(b)], &[]);
        let end = g.add(Actor::End, &[], &[sum]);
        for priorities in [false, true] {
            let order = g.schedule(priorities);
            let pos = |x: NodeId| order.iter().position(|&v| v == x).unwrap();
            assert!(pos(a) < pos(sum));
            assert!(pos(b) < pos(sum));
            assert!(pos(sum) < pos(end));
        }
    }

    #[test]
    fn priorities_front_load_forks() {
        let mut g = ContextGraph::new();
        let r = g.add(Actor::Recv(ChanRef::InReg), &[], &[]);
        let lbl = g.add(Actor::Label("x".into()), &[], &[]);
        let f = g.add(Actor::Fork { iterative: false, local: false }, &[ValueRef::of(lbl)], &[]);
        let order = g.schedule(true);
        let pos = |x: NodeId| order.iter().position(|&v| v == x).unwrap();
        assert!(pos(f) < pos(r), "fork path beats the receive");
        let _ = (r, f);
    }

    #[test]
    fn control_edges_constrain_order() {
        let mut g = ContextGraph::new();
        let addr = g.add(Actor::Const(0x0010_0000), &[], &[]);
        let v = g.add(Actor::Const(7), &[], &[]);
        let store = g.add(Actor::Store, &[ValueRef::of(addr), ValueRef::of(v)], &[]);
        let addr2 = g.add(Actor::Const(0x0010_0000), &[], &[]);
        let fetch = g.add(Actor::Fetch, &[ValueRef::of(addr2)], &[store]);
        let order = g.schedule(true);
        let pos = |x: NodeId| order.iter().position(|&n| n == x).unwrap();
        assert!(pos(store) < pos(fetch), "fetch is control-sequenced after the store");
    }

    #[test]
    fn consumers_finds_all_uses() {
        let mut g = ContextGraph::new();
        let a = g.add(Actor::Const(1), &[], &[]);
        let _n1 = g.add(Actor::Neg, &[ValueRef::of(a)], &[]);
        let _n2 = g.add(Actor::Copy, &[ValueRef::of(a)], &[]);
        assert_eq!(g.consumers(a, 0).count(), 2);
    }

    #[test]
    fn input_order_matches_table_4_5_shape() {
        // Rebuild Fig. 4.14: e ← ((a+b) × (−c)) ÷ d with recv inputs.
        let mut g = ContextGraph::new();
        let a = g.add(Actor::Recv(ChanRef::InReg), &[], &[]);
        let b = g.add(Actor::Recv(ChanRef::InReg), &[], &[]);
        let c = g.add(Actor::Recv(ChanRef::InReg), &[], &[]);
        let d = g.add(Actor::Recv(ChanRef::InReg), &[], &[]);
        let sum = g.add(Actor::Bin(Opcode::Plus), &[ValueRef::of(a), ValueRef::of(b)], &[]);
        let neg = g.add(Actor::Neg, &[ValueRef::of(c)], &[]);
        let mul = g.add(Actor::Bin(Opcode::Mul), &[ValueRef::of(sum), ValueRef::of(neg)], &[]);
        let div = g.add(Actor::Bin(Opcode::Div), &[ValueRef::of(mul), ValueRef::of(d)], &[]);
        let _e = g.add(Actor::Send(ChanRef::OutReg), &[ValueRef::of(div)], &[]);
        let order = g.input_order(&[a, b, c, d]);
        // Table 4.5: W(a)=W(b) > W(c) > W(d) → order a, b, c, d.
        assert_eq!(order, vec![a, b, c, d]);
    }

    #[test]
    #[should_panic(expected = "operand count")]
    fn arity_mismatch_is_rejected() {
        let mut g = ContextGraph::new();
        let a = g.add(Actor::Const(1), &[], &[]);
        let _ = g.add(Actor::Bin(Opcode::Plus), &[ValueRef::of(a)], &[]);
    }
}
