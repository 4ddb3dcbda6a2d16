//! Acyclic data-flow graphs and their queue-machine interpretation
//! (thesis §3.6 and §4.5–4.7).
//!
//! * [`Dag`] — the one data-flow graph of the workspace. A node carries a
//!   payload, at most two *ordered* value inputs (the labelled edges
//!   `(v, w, l)` of the thesis definition, each naming one output of its
//!   producer) and control dependencies (the control-token arcs of §4.6,
//!   which order side effects but never reach the queue). The thesis
//!   models build `Dag<Op>`; the OCCAM compiler's per-context graph is a
//!   `Dag` of its actors.
//! * `π_G` — the path-induced partial order; any linearisation respecting
//!   it is a valid instruction order ([`Dag::topo_order`],
//!   [`Dag::respects_partial_order`]).
//! * [`Dag::schedule_by`] — the ready-set scheduling heuristic of
//!   Fig. 4.20 with caller-supplied priorities; [`schedule`] holds the
//!   §4.7 actor classes.
//! * [`analysis`] — the depth-first list of Fig. 4.13 and `P*(v)`,
//!   `I*(v)`, `C(v)` and the input-sequencing weights `W(v)` of
//!   Fig. 4.15–4.16.
//! * [`to_indexed_program`](Dag::to_indexed_program) — the §3.6
//!   construction turning a DAG + linearisation into a valid indexed queue
//!   machine instruction sequence.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::expr::Op;
use crate::indexed::{IndexedInstruction, IndexedProgram};
use crate::{ModelError, Result, Word};

/// Identifier of a node within a [`Dag`].
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
}

/// A node: payload + ordered value inputs, plus the heads of its
/// adjacency lists (consumers per output, control predecessors and
/// successors).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Node<N> {
    payload: N,
    vins: [ValueRef; 2],
    n_vins: u8,
    uses: [List; 2],
    preds: List,
    succs: List,
}

/// A directed acyclic graph indexed both ways: every node lists its
/// operand producers, the `(consumer, slot)` pairs reading each of its
/// outputs, and its control predecessors and successors. The lists live
/// in one edge arena and are filled as edges are added, so no query
/// scans the graph.
///
/// Ids are topological for value edges and for the control edges given
/// to [`Dag::add`]: a node's inputs must already exist when it is added,
/// which is what makes cycles unrepresentable there. Only
/// [`Dag::add_ctrl`] can point backwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dag<N> {
    nodes: Vec<Node<N>>,
    links: Vec<Link>,
}

impl<N> Default for Dag<N> {
    fn default() -> Self {
        Dag { nodes: Vec::new(), links: Vec::new() }
    }
}

impl<N> Dag<N> {
    /// An empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a cell for `(node, slot)` to `list`, a list of a node of
    /// the graph owning `links`.
    fn append(links: &mut Vec<Link>, list: &mut List, node: NodeId, slot: usize) {
        let cell = links.len();
        links.push(Link { node, slot, next: NIL });
        if list.head == NIL {
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
        let Dag { nodes, links } = self;
        Self::append(links, &mut nodes[from].succs, to, 0);
        Self::append(links, &mut nodes[to].preds, from, 0);
    }

    /// Add a node with its ordered value inputs and its control
    /// predecessors.
    ///
    /// # Panics
    ///
    /// Panics on more than two value inputs, an output index above 1, or
    /// an input that does not exist yet.
    pub fn add(&mut self, payload: N, vins: &[ValueRef], ctrl: &[NodeId]) -> NodeId {
        let id = self.nodes.len();
        assert!(vins.len() <= 2, "at most two value inputs");
        for v in vins {
            assert!(v.node < id && v.out < 2, "value input {v:?} does not exist yet");
        }
        for &c in ctrl {
            assert!(c < id, "control input {c} does not exist yet");
        }
        let mut ins = [ValueRef::of(0); 2];
        ins[..vins.len()].copy_from_slice(vins);
        #[allow(clippy::cast_possible_truncation)]
        self.nodes.push(Node {
            payload,
            vins: ins,
            n_vins: vins.len() as u8,
            uses: [List::EMPTY; 2],
            preds: List::EMPTY,
            succs: List::EMPTY,
        });
        let Dag { nodes, links } = self;
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
    /// input sequencing reorders prologue receives); the caller keeps the
    /// graph acyclic.
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

    /// True when the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Payload of node `v`.
    #[must_use]
    pub fn payload(&self, v: NodeId) -> &N {
        &self.nodes[v].payload
    }

    /// The ordered operand producers of `v`.
    #[must_use]
    pub fn vins(&self, v: NodeId) -> &[ValueRef] {
        &self.nodes[v].vins[..usize::from(self.nodes[v].n_vins)]
    }

    /// All `(consumer, slot)` pairs reading output `out` of `v`, in
    /// ascending consumer order.
    pub fn consumers(&self, v: NodeId, out: u8) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.cells(self.nodes[v].uses[usize::from(out)]).map(|l| (l.node, l.slot))
    }

    /// Control-token predecessors of `v` (order-only constraints), in
    /// the order they were added.
    pub fn ctrl_preds(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.cells(self.nodes[v].preds).map(|l| l.node)
    }

    /// The immediate predecessors `P(v)`: every operand producer, then
    /// every control predecessor (repeats kept).
    pub fn preds(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.vins(v).iter().map(|r| r.node).chain(self.ctrl_preds(v))
    }

    /// True when some node reads a value of `v` or follows it by a
    /// control edge; a node without successors is a sink.
    #[must_use]
    pub fn has_succ(&self, v: NodeId) -> bool {
        let n = &self.nodes[v];
        [n.uses[0], n.uses[1], n.succs].iter().any(|l| l.head != NIL)
    }

    /// Every value consumer and control successor of `v`, ascending and
    /// without repeats, in `out` (cleared first).
    fn succs_into(&self, v: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        let n = &self.nodes[v];
        for list in [n.uses[0], n.uses[1], n.succs] {
            out.extend(self.cells(list).map(|l| l.node));
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Iterate over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        0..self.nodes.len()
    }

    /// A canonical topological order: the identity while every edge
    /// points forward in id order, else the first-readied-first order of
    /// [`Self::schedule_by`] under equal priorities.
    #[must_use]
    pub fn topo_order(&self) -> Vec<NodeId> {
        if self.node_ids().all(|v| self.ctrl_preds(v).all(|p| p < v)) {
            self.node_ids().collect()
        } else {
            self.schedule_by(|_| 0)
        }
    }

    /// Check that `order` contains every node exactly once and never
    /// places a node before one of its predecessors — i.e. it satisfies
    /// `∀ i < j: ¬(v_j π_G v_i)`.
    #[must_use]
    pub fn respects_partial_order(&self, order: &[NodeId]) -> bool {
        if order.len() != self.len() {
            return false;
        }
        let mut position = vec![usize::MAX; self.len()];
        for (i, &v) in order.iter().enumerate() {
            if v >= self.len() || position[v] != usize::MAX {
                return false;
            }
            position[v] = i;
        }
        self.node_ids().all(|v| self.preds(v).all(|p| position[p] < position[v]))
    }

    /// The ready-set scheduling heuristic of Fig. 4.20: Kahn's algorithm
    /// over value and control edges that repeatedly emits the
    /// highest-priority ready node (larger priority value = emitted
    /// first). Ties go to the node that became ready first; the ready set
    /// is a binary heap keyed on `(priority, earliest readied)`.
    ///
    /// Returns a linearisation that satisfies `π_G` by construction.
    pub fn schedule_by<F>(&self, mut priority: F) -> Vec<NodeId>
    where
        F: FnMut(&N) -> i32,
    {
        let n = self.nodes.len();
        let mut succs = Vec::new();
        let mut remaining = vec![0usize; n];
        for v in 0..n {
            self.succs_into(v, &mut succs);
            for &s in &succs {
                remaining[s] += 1;
            }
        }
        let mut ready = BinaryHeap::with_capacity(n);
        let mut readied = 0usize;
        for v in (0..n).filter(|&v| remaining[v] == 0) {
            ready.push((priority(&self.nodes[v].payload), Reverse(readied), v));
            readied += 1;
        }
        let mut out = Vec::with_capacity(n);
        while let Some((_, _, v)) = ready.pop() {
            out.push(v);
            self.succs_into(v, &mut succs);
            for &s in &succs {
                remaining[s] -= 1;
                if remaining[s] == 0 {
                    ready.push((priority(&self.nodes[s].payload), Reverse(readied), s));
                    readied += 1;
                }
            }
        }
        debug_assert_eq!(out.len(), n, "graph must be acyclic");
        out
    }
}

impl Dag<Op> {
    /// Evaluate the graph directly: every node computes once; node values
    /// fan out along edges. The unique sink's value is returned.
    ///
    /// # Errors
    ///
    /// * [`ModelError::MalformedGraph`] if the graph does not have exactly
    ///   one sink (node without consumers) or an arity mismatch;
    /// * [`ModelError::DivideByZero`] from arithmetic.
    pub fn evaluate(&self, env: &dyn Fn(&str) -> Word) -> Result<Word> {
        let mut values: Vec<Option<Word>> = vec![None; self.len()];
        for v in self.node_ids() {
            let op = self.payload(v);
            if self.vins(v).len() != op.arity().operands() {
                return Err(ModelError::MalformedGraph(format!(
                    "node {v} ({op}) has {} inputs, arity needs {}",
                    self.vins(v).len(),
                    op.arity().operands()
                )));
            }
            let args: Vec<Word> =
                self.vins(v).iter().map(|p| values[p.node].expect("topological ids")).collect();
            values[v] = Some(op.apply(&args, env)?);
        }
        let sinks: Vec<NodeId> = self.node_ids().filter(|&v| !self.has_succ(v)).collect();
        match sinks.as_slice() {
            [s] => Ok(values[*s].expect("computed")),
            _ => Err(ModelError::MalformedGraph(format!(
                "expected exactly one sink, found {}",
                sinks.len()
            ))),
        }
    }

    /// The §3.6 construction: turn a linearisation of this graph into a
    /// valid indexed queue machine instruction sequence.
    ///
    /// For instruction `i` in the order, operands occupy absolute queue
    /// positions `o_i … o_i + A(v_i) − 1` where `o_i = Σ_{j<i} A(v_j)`;
    /// each edge `(v_i, v_j, l)` contributes the absolute index `o_j + l`
    /// (stored relative to the post-consumption front). The unique sink's
    /// result is placed at the final front so evaluation terminates with
    /// the result at the head of the queue.
    ///
    /// # Errors
    ///
    /// [`ModelError::MalformedGraph`] if `order` violates `π_G`, if
    /// arities mismatch, or if the graph does not have exactly one sink.
    pub fn to_indexed_program(&self, order: &[NodeId]) -> Result<IndexedProgram> {
        if !self.respects_partial_order(order) {
            return Err(ModelError::MalformedGraph(
                "instruction order violates the graph partial order".into(),
            ));
        }
        for v in self.node_ids() {
            if self.vins(v).len() != self.payload(v).arity().operands() {
                return Err(ModelError::MalformedGraph(format!("node {v} arity mismatch")));
            }
        }
        let sinks: Vec<NodeId> = self.node_ids().filter(|&v| !self.has_succ(v)).collect();
        let [sink] = sinks.as_slice() else {
            return Err(ModelError::MalformedGraph(format!(
                "expected exactly one sink, found {}",
                sinks.len()
            )));
        };

        // o[k] = absolute queue index of the first operand of order[k].
        let mut offset_of_position = Vec::with_capacity(order.len());
        let mut acc = 0usize;
        let mut position = vec![0usize; self.len()];
        for (k, &v) in order.iter().enumerate() {
            position[v] = k;
            offset_of_position.push(acc);
            acc += self.payload(v).arity().operands();
        }
        let final_front = acc;

        let instructions = order
            .iter()
            .map(|&v| {
                // Front after this instruction consumes its operands:
                let front = offset_of_position[position[v]] + self.payload(v).arity().operands();
                let mut offsets: Vec<usize> = self
                    .consumers(v, 0)
                    .map(|(consumer, slot)| offset_of_position[position[consumer]] + slot - front)
                    .collect();
                if v == *sink {
                    offsets.push(final_front - front);
                }
                offsets.sort_unstable();
                IndexedInstruction::new(self.payload(v).clone(), offsets)
            })
            .collect();
        Ok(IndexedProgram::new(instructions))
    }

    /// Build the data-flow graph of a [`crate::expr::ParseTree`],
    /// combining *identical subtrees* into shared nodes (the Fig. 3.6
    /// transformation from parse tree to DAG).
    #[must_use]
    pub fn from_parse_tree(tree: &crate::expr::ParseTree) -> Self {
        use std::collections::HashMap;
        let mut dag = Dag::new();
        let mut memo: HashMap<String, NodeId> = HashMap::new();
        fn go(
            t: &crate::expr::ParseTree,
            dag: &mut Dag<Op>,
            memo: &mut HashMap<String, NodeId>,
        ) -> NodeId {
            let key = t.to_string();
            if let Some(&id) = memo.get(&key) {
                return id;
            }
            let mut inputs = Vec::new();
            if let Some(l) = t.left() {
                inputs.push(ValueRef::of(go(l, dag, memo)));
            }
            if let Some(r) = t.right() {
                inputs.push(ValueRef::of(go(r, dag, memo)));
            }
            let id = dag.add(t.op().clone(), &inputs, &[]);
            memo.insert(key, id);
            id
        }
        go(tree, &mut dag, &mut memo);
        dag
    }
}

pub mod analysis {
    //! Predecessor/input-set analysis and input sequencing (thesis §4.5).

    use std::cmp::Reverse;

    use super::{Dag, NodeId};

    /// The depth-first list of Fig. 4.13: all successors of a node precede
    /// it in the list; all predecessors follow it.
    ///
    /// Unmarked start nodes are chosen in ascending id order, matching the
    /// thesis's worked example (Fig. 4.14).
    #[must_use]
    pub fn depth_first_list<N>(dag: &Dag<N>) -> Vec<NodeId> {
        let mut marked = vec![false; dag.len()];
        let mut list = Vec::with_capacity(dag.len());
        fn search<N>(n: NodeId, dag: &Dag<N>, marked: &mut [bool], list: &mut Vec<NodeId>) {
            marked[n] = true;
            let mut succs = Vec::new();
            dag.succs_into(n, &mut succs);
            for m in succs {
                if !marked[m] {
                    search(m, dag, marked, list);
                }
            }
            list.push(n);
        }
        for v in dag.node_ids() {
            if !marked[v] {
                search(v, dag, &mut marked, &mut list);
            }
        }
        list
    }

    /// The Fig. 4.15 computation for every node of a graph, over value
    /// and control predecessors: `P*(v)`, all predecessors of `v`
    /// including `v` itself, and `I*(v)`, the inputs among them, held as
    /// one bitset row per node.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Analysis {
        inputs: Vec<NodeId>,
        /// Per input position, its bit in the `I*` rows: a repeated input
        /// shares the bit of its first position.
        bit: Vec<usize>,
        /// Nodes, and words per `P*` row and per `I*` row.
        n: usize,
        pw: usize,
        iw: usize,
        /// `P*` rows, bit `u` = node `u`.
        pstar: Vec<u64>,
        /// `I*` rows, bit `k` = `inputs[k]`.
        istar: Vec<u64>,
    }

    /// Run the Fig. 4.15 computation with `inputs` as the graph inputs
    /// (the set `I` of the §4.5 DAG definition).
    #[must_use]
    pub fn analyse<N>(dag: &Dag<N>, inputs: &[NodeId]) -> Analysis {
        let n = dag.len();
        // Bit of each input node in the I* rows (its first position).
        let mut input_bit = vec![usize::MAX; n];
        for (pos, &v) in inputs.iter().enumerate().rev() {
            input_bit[v] = pos;
        }
        let (pw, iw) = (n.div_ceil(64), inputs.len().div_ceil(64));
        let mut pstar = vec![0u64; n * pw];
        let mut istar = vec![0u64; n * iw];
        // Predecessors first: a topological order visits them before v.
        for v in dag.topo_order() {
            pstar[v * pw + v / 64] |= 1 << (v % 64);
            if input_bit[v] != usize::MAX {
                istar[v * iw + input_bit[v] / 64] |= 1 << (input_bit[v] % 64);
            }
            for p in dag.preds(v) {
                for k in 0..pw {
                    pstar[v * pw + k] |= pstar[p * pw + k];
                }
                for k in 0..iw {
                    istar[v * iw + k] |= istar[p * iw + k];
                }
            }
        }
        let bit = inputs.iter().map(|&v| input_bit[v]).collect();
        Analysis { inputs: inputs.to_vec(), bit, n, pw, iw, pstar, istar }
    }

    /// The set bits of `row`, ascending.
    fn bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
        row.iter()
            .enumerate()
            .flat_map(|(i, &w)| (0..64).filter(move |b| w & (1 << b) != 0).map(move |b| i * 64 + b))
    }

    impl Analysis {
        /// `P*(v)`, ascending.
        pub fn predecessors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
            bits(&self.pstar[v * self.pw..(v + 1) * self.pw])
        }

        /// `I*(v)`, the required input set of `v`, in the order of the
        /// inputs.
        pub fn required_inputs(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
            bits(&self.istar[v * self.iw..(v + 1) * self.iw]).map(|k| self.inputs[k])
        }

        /// `C(v) = |P*(v)|` — the cost of computing `v`.
        #[must_use]
        pub fn cost(&self, v: NodeId) -> usize {
            self.pstar[v * self.pw..(v + 1) * self.pw].iter().map(|w| w.count_ones() as usize).sum()
        }

        /// The input weights `W(v) = Σ_{u : v ∈ I*(u)} C(u)` and the input
        /// sequence sorted by descending weight (Fig. 4.16) — the
        /// heuristic order maximising work possible before the context
        /// must wait for its next input. Ties keep the order of the
        /// inputs, making the result deterministic.
        #[must_use]
        pub fn input_sequence(&self) -> Vec<(NodeId, usize)> {
            let costs: Vec<usize> = (0..self.n).map(|u| self.cost(u)).collect();
            let mut seq: Vec<(NodeId, usize)> = self
                .inputs
                .iter()
                .zip(&self.bit)
                .map(|(&v, &bit)| {
                    let w = (0..self.n)
                        .filter(|&u| self.istar[u * self.iw + bit / 64] & (1 << (bit % 64)) != 0)
                        .map(|u| costs[u])
                        .sum();
                    (v, w)
                })
                .collect();
            // A stable sort: ties keep the order of the inputs.
            seq.sort_by_key(|&(_, w)| Reverse(w));
            seq
        }
    }
}

pub mod schedule {
    //! Actor priorities for the Fig. 4.20 instruction-sequencing heuristic.

    /// The priority classes of §4.7, highest first: forks, sends, stores,
    /// ordinary operators, fetches, receives, waits.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub enum ActorClass {
        /// `wait` — may suspend the context (lowest priority).
        Wait,
        /// `receive` — may block the context.
        Receive,
        /// `fetch`/`fetchb` — grows the queue.
        Fetch,
        /// Everything not explicitly mentioned.
        Other,
        /// `store`/`storeb` — shrinks the queue.
        Store,
        /// `send` — enables a child context to proceed.
        Send,
        /// `rfork`/`ifork` — creates parallelism (highest priority).
        Fork,
    }

    impl ActorClass {
        /// Numeric priority: larger = emitted earlier.
        #[must_use]
        pub fn priority(self) -> i32 {
            match self {
                ActorClass::Wait => 0,
                ActorClass::Receive => 1,
                ActorClass::Fetch => 2,
                ActorClass::Other => 3,
                ActorClass::Store => 4,
                ActorClass::Send => 5,
                ActorClass::Fork => 6,
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::schedule::ActorClass;
    use super::*;
    use crate::expr::ParseTree;
    use crate::rng::{check, Gen};
    use std::collections::BTreeSet;

    /// Add a node reading output 0 of each of `ins`, with no control
    /// edges.
    pub(crate) fn add<N>(g: &mut Dag<N>, payload: N, ins: &[NodeId]) -> NodeId {
        let vins: Vec<ValueRef> = ins.iter().map(|&v| ValueRef::of(v)).collect();
        g.add(payload, &vins, &[])
    }

    fn env(n: &str) -> Word {
        match n {
            "a" => 12,
            "b" => 4,
            "c" => 3,
            "d" => 5,
            _ => 0,
        }
    }

    /// The Fig. 3.6(b) graph for `d ← a/(a+b) + (a+b)·c`.
    pub(crate) fn fig_3_6_graph() -> Dag<Op> {
        let mut g = Dag::new();
        let a = add(&mut g, Op::Fetch("a".into()), &[]);
        let b = add(&mut g, Op::Fetch("b".into()), &[]);
        let c = add(&mut g, Op::Fetch("c".into()), &[]);
        let sum = add(&mut g, Op::Add, &[a, b]);
        let div = add(&mut g, Op::Div, &[a, sum]);
        let mul = add(&mut g, Op::Mul, &[sum, c]);
        let _root = add(&mut g, Op::Add, &[div, mul]);
        g
    }

    /// Every value consumer and control successor of `v`.
    fn succs<N>(g: &Dag<N>, v: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        g.succs_into(v, &mut out);
        out
    }

    /// `v π_G w` — true when `v = w` or a path leads from `v` to `w`.
    fn precedes<N>(g: &Dag<N>, v: NodeId, w: NodeId) -> bool {
        let mut stack = vec![v];
        let mut seen = vec![false; g.len()];
        while let Some(n) = stack.pop() {
            if n == w {
                return true;
            }
            if !std::mem::replace(&mut seen[n], true) {
                stack.extend(succs(g, n));
            }
        }
        false
    }

    /// All linearisations of a small DAG, to check that *every* valid
    /// order yields a correct indexed program.
    pub(crate) fn all_linearisations<N>(dag: &Dag<N>) -> Vec<Vec<NodeId>> {
        assert!(dag.len() <= 10, "too many nodes to enumerate linearisations");
        let succs: Vec<Vec<NodeId>> = dag.node_ids().map(|v| succs(dag, v)).collect();
        let mut remaining = vec![0usize; dag.len()];
        for &s in succs.iter().flatten() {
            remaining[s] += 1;
        }
        let mut ready: BTreeSet<NodeId> = dag.node_ids().filter(|&v| remaining[v] == 0).collect();
        fn rec(
            succs: &[Vec<NodeId>],
            remaining: &mut [usize],
            ready: &mut BTreeSet<NodeId>,
            prefix: &mut Vec<NodeId>,
            out: &mut Vec<Vec<NodeId>>,
        ) {
            if prefix.len() == succs.len() {
                out.push(prefix.clone());
                return;
            }
            for v in ready.clone() {
                ready.remove(&v);
                prefix.push(v);
                for &s in &succs[v] {
                    remaining[s] -= 1;
                    if remaining[s] == 0 {
                        ready.insert(s);
                    }
                }
                rec(succs, remaining, ready, prefix, out);
                for &s in &succs[v] {
                    remaining[s] += 1;
                    ready.remove(&s);
                }
                prefix.pop();
                ready.insert(v);
            }
        }
        let mut out = Vec::new();
        rec(&succs, &mut remaining, &mut ready, &mut Vec::new(), &mut out);
        out
    }

    /// The O(n²) Kahn schedule the heap replaced, kept as its oracle: the
    /// ready list is scanned for the highest priority, earliest readied.
    fn schedule_oracle<N>(g: &Dag<N>, priority: impl Fn(&N) -> i32) -> Vec<NodeId> {
        let preds: Vec<BTreeSet<NodeId>> = g.node_ids().map(|v| g.preds(v).collect()).collect();
        let mut remaining: Vec<usize> = preds.iter().map(BTreeSet::len).collect();
        let mut ready: Vec<NodeId> = g.node_ids().filter(|&v| remaining[v] == 0).collect();
        let mut out = Vec::new();
        while !ready.is_empty() {
            let pick = ready
                .iter()
                .enumerate()
                .max_by(|(ia, &a), (ib, &b)| {
                    priority(g.payload(a)).cmp(&priority(g.payload(b))).then(ib.cmp(ia))
                })
                .map(|(i, _)| i)
                .expect("non-empty");
            let v = ready.remove(pick);
            out.push(v);
            for s in g.node_ids().filter(|&s| preds[s].contains(&v)) {
                remaining[s] -= 1;
                if remaining[s] == 0 {
                    ready.push(s);
                }
            }
        }
        out
    }

    /// The Fig. 4.15 sets of one node, as the thesis computes them.
    struct NodeSets {
        predecessors: BTreeSet<NodeId>,
        required_inputs: BTreeSet<NodeId>,
        cost: usize,
    }

    /// The set-based Fig. 4.15 computation the bitset rows replaced, kept
    /// as their oracle: walk the depth-first list from the end, so every
    /// node's predecessors are done before it.
    fn analyse_oracle<N>(dag: &Dag<N>, inputs: &[NodeId]) -> Vec<NodeSets> {
        let mut out: Vec<NodeSets> = dag
            .node_ids()
            .map(|_| NodeSets {
                predecessors: BTreeSet::new(),
                required_inputs: BTreeSet::new(),
                cost: 0,
            })
            .collect();
        for &v in analysis::depth_first_list(dag).iter().rev() {
            let mut preds = BTreeSet::from([v]);
            let mut ins: BTreeSet<NodeId> = inputs.iter().copied().filter(|&i| i == v).collect();
            for m in dag.preds(v) {
                preds.extend(out[m].predecessors.iter().copied());
                ins.extend(out[m].required_inputs.iter().copied());
            }
            out[v] = NodeSets { cost: preds.len(), predecessors: preds, required_inputs: ins };
        }
        out
    }

    /// `W(v) = Σ_{u : v ∈ I*(u)} C(u)` over the oracle's sets, by
    /// descending weight, ties in input order.
    fn input_sequence_oracle(sets: &[NodeSets], inputs: &[NodeId]) -> Vec<(NodeId, usize)> {
        let mut seq: Vec<(NodeId, usize)> = inputs
            .iter()
            .map(|&v| {
                (v, sets.iter().filter(|s| s.required_inputs.contains(&v)).map(|s| s.cost).sum())
            })
            .collect();
        seq.sort_by_key(|&(_, w)| Reverse(w));
        seq
    }

    const CLASSES: [ActorClass; 7] = [
        ActorClass::Wait,
        ActorClass::Receive,
        ActorClass::Fetch,
        ActorClass::Other,
        ActorClass::Store,
        ActorClass::Send,
        ActorClass::Fork,
    ];

    /// A random graph of up to `max` nodes with payloads from `palette`,
    /// so priorities tie often. Value inputs (either output) and control
    /// predecessors point back to random earlier nodes, repeats included;
    /// a few extra control edges point either way, like the backward
    /// edges input sequencing adds, without closing a cycle.
    fn random_graph<N: Clone>(g: &mut Gen, palette: &[N], max: usize) -> Dag<N> {
        let mut graph = Dag::new();
        let n = g.range(1..=max);
        for id in 0..n {
            let below = |g: &mut Gen| g.below(id as u64) as usize;
            let (vins, ctrl) = if id == 0 {
                (Vec::new(), Vec::new())
            } else {
                let vins = g.vec(0..=2, |g| ValueRef { node: below(g), out: g.range(0..=1u8) });
                (vins, g.vec(0..=3, below))
            };
            graph.add(g.pick(palette).clone(), &vins, &ctrl);
        }
        for _ in 0..g.range(0..=8usize) {
            let (from, to) = (g.below(n as u64) as usize, g.below(n as u64) as usize);
            if from != to && !precedes(&graph, to, from) {
                graph.add_ctrl(from, to);
            }
        }
        graph
    }

    /// Priority class of an operator, indexing a random weight table.
    fn op_class(op: &Op) -> usize {
        match op {
            Op::Literal(_) => 0,
            Op::Fetch(_) => 1,
            Op::Neg => 2,
            Op::Not => 3,
            Op::Add => 4,
            Op::Sub => 5,
            Op::Mul => 6,
            Op::Div => 7,
        }
    }

    /// A random `Dag<Op>` of `1..=max` operators without division, whose
    /// sinks trailing `Add`s fold into one (the shape
    /// `to_indexed_program` requires).
    pub(crate) fn random_op_dag(g: &mut Gen, max: usize) -> Dag<Op> {
        let mut dag = Dag::new();
        for _ in 0..g.range(1..=max) {
            let n = dag.len() as u64;
            let kind = if n == 0 { g.below(2) } else { g.below(5) };
            let (op, ins) = match kind {
                0 => (Op::Literal(g.range(-9..=9)), vec![]),
                1 => (Op::Fetch(g.pick(&["a", "b", "c"]).to_string()), vec![]),
                2 => (if g.below(2) == 0 { Op::Neg } else { Op::Not }, vec![g.below(n)]),
                _ => (g.pick(&[Op::Add, Op::Sub, Op::Mul]).clone(), vec![g.below(n), g.below(n)]),
            };
            let ins: Vec<NodeId> = ins.into_iter().map(|v| v as usize).collect();
            add(&mut dag, op, &ins);
        }
        loop {
            let sinks: Vec<NodeId> = dag.node_ids().filter(|&v| !dag.has_succ(v)).collect();
            let [x, y, ..] = sinks[..] else { return dag };
            add(&mut dag, Op::Add, &[x, y]);
        }
    }

    #[test]
    fn graph_evaluation_matches_expression() {
        let g = fig_3_6_graph();
        #[allow(clippy::identity_op)]
        let expected = (12 / 16) + 16 * 3; // a/(a+b) truncates to 0
        assert_eq!(g.evaluate(&env).unwrap(), expected);
    }

    #[test]
    fn partial_order_properties() {
        let g = fig_3_6_graph();
        // Reflexive.
        for v in g.node_ids() {
            assert!(precedes(&g, v, v));
        }
        // a π_G div, a π_G root; c does not precede div.
        assert!(precedes(&g, 0, 4));
        assert!(precedes(&g, 0, 6));
        assert!(!precedes(&g, 2, 4));
        // Antisymmetric: no two distinct nodes precede each other.
        for v in g.node_ids() {
            for w in g.node_ids() {
                if v != w && precedes(&g, v, w) {
                    assert!(!precedes(&g, w, v));
                }
            }
        }
    }

    #[test]
    fn indexed_program_from_graph_matches_table_3_4() {
        let g = fig_3_6_graph();
        let program = g.to_indexed_program(&g.topo_order()).unwrap();
        assert_eq!(program, crate::indexed::table_3_4_program());
    }

    #[test]
    fn every_linearisation_evaluates_correctly() {
        let g = fig_3_6_graph();
        let expected = g.evaluate(&env).unwrap();
        let linearisations = all_linearisations(&g);
        assert!(linearisations.len() > 1);
        for order in linearisations {
            let p = g.to_indexed_program(&order).unwrap();
            assert_eq!(p.evaluate(&env).unwrap(), expected, "order {order:?}");
        }
    }

    #[test]
    fn invalid_order_is_rejected() {
        let g = fig_3_6_graph();
        let mut order = g.topo_order();
        order.swap(0, 3); // puts add before its operand fetch
        assert!(g.to_indexed_program(&order).is_err());
    }

    #[test]
    fn from_parse_tree_shares_common_subexpressions() {
        let tree = ParseTree::parse_infix("a/(a+b) + (a+b)*c").unwrap();
        assert_eq!(tree.node_count(), 11);
        let dag = Dag::from_parse_tree(&tree);
        assert_eq!(dag.len(), 7, "a and a+b are shared");
        assert_eq!(dag.evaluate(&env).unwrap(), tree.evaluate(&env).unwrap());
    }

    /// The Fig. 4.14 graph, e ← ((a+b) × (−c)) ÷ d, nodes added
    /// a,b,+,c,−,×,d,÷,e.
    fn fig_4_14_graph() -> Dag<&'static str> {
        let mut g = Dag::new();
        let a = add(&mut g, "a", &[]);
        let b = add(&mut g, "b", &[]);
        let plus = add(&mut g, "+", &[a, b]);
        let c = add(&mut g, "c", &[]);
        let neg = add(&mut g, "-", &[c]);
        let mul = add(&mut g, "*", &[plus, neg]);
        let d = add(&mut g, "d", &[]);
        let div = add(&mut g, "/", &[mul, d]);
        add(&mut g, "e", &[div]);
        g
    }

    #[test]
    fn depth_first_list_of_fig_4_14() {
        let g = fig_4_14_graph();
        let list: Vec<&str> =
            analysis::depth_first_list(&g).iter().map(|&v| *g.payload(v)).collect();
        assert_eq!(list, vec!["e", "/", "*", "+", "a", "b", "-", "c", "d"]);
    }

    #[test]
    fn table_4_4_costs_and_input_sets() {
        let g = fig_4_14_graph();
        let (a, b, plus, c, neg, mul, d, div, e) = (0, 1, 2, 3, 4, 5, 6, 7, 8);
        let info = analysis::analyse(&g, &[a, b, c, d]);
        // Table 4.4 costs.
        let costs: Vec<usize> = [a, plus, neg, mul, div, e].map(|v| info.cost(v)).to_vec();
        assert_eq!(costs, vec![1, 3, 2, 6, 8, 9]);
        // Table 4.4 input sets.
        assert_eq!(info.required_inputs(mul).collect::<Vec<_>>(), vec![a, b, c]);
        assert_eq!(info.required_inputs(e).collect::<Vec<_>>(), vec![a, b, c, d]);
        assert_eq!(info.predecessors(mul).collect::<Vec<_>>(), vec![a, b, plus, c, neg, mul]);
        // Table 4.5 weights.
        let weights: Vec<(&str, usize)> =
            info.input_sequence().iter().map(|&(v, w)| (*g.payload(v), w)).collect();
        assert_eq!(weights, vec![("a", 27), ("b", 27), ("c", 26), ("d", 18)]);
    }

    #[test]
    fn schedule_respects_partial_order_and_priorities() {
        // Fork and receive both ready: fork must come first.
        let mut g: Dag<ActorClass> = Dag::new();
        let recv = add(&mut g, ActorClass::Receive, &[]);
        let fork = add(&mut g, ActorClass::Fork, &[]);
        add(&mut g, ActorClass::Other, &[recv]);
        let order = g.schedule_by(|c| c.priority());
        assert!(g.respects_partial_order(&order));
        assert_eq!(order[0], fork, "fork outranks receive");
    }

    #[test]
    fn schedule_emits_all_nodes_once() {
        let g = fig_3_6_graph();
        let order = g.schedule_by(|_| 0);
        assert!(g.respects_partial_order(&order));
    }

    #[test]
    fn evaluate_detects_multiple_sinks() {
        let mut g: Dag<Op> = Dag::new();
        add(&mut g, Op::Literal(1), &[]);
        add(&mut g, Op::Literal(2), &[]);
        assert!(matches!(g.evaluate(&|_| 0), Err(ModelError::MalformedGraph(_))));
    }

    #[test]
    fn index_matches_a_scan_of_the_inputs() {
        check(200, |g| {
            let graph = random_graph(g, &CLASSES, 40);
            for id in graph.node_ids() {
                let mut readers = Vec::new();
                for out in 0..2u8 {
                    let scanned: Vec<(NodeId, usize)> = graph
                        .node_ids()
                        .flat_map(|c| {
                            let vins = graph.vins(c);
                            (0..vins.len())
                                .filter(move |&s| vins[s] == ValueRef { node: id, out })
                                .map(move |s| (c, s))
                        })
                        .collect();
                    assert_eq!(graph.consumers(id, out).collect::<Vec<_>>(), scanned);
                    readers.extend(scanned.iter().map(|&(c, _)| c));
                }
                let mut ctrl: Vec<NodeId> =
                    graph.cells(graph.nodes[id].succs).map(|l| l.node).collect();
                let mut scanned: Vec<NodeId> = graph
                    .node_ids()
                    .flat_map(|c| graph.ctrl_preds(c).filter(move |&p| p == id).map(move |_| c))
                    .collect();
                ctrl.sort_unstable();
                scanned.sort_unstable();
                assert_eq!(ctrl, scanned, "control successors of {id}");
                readers.extend(scanned);
                assert_eq!(graph.has_succ(id), !readers.is_empty(), "successors of {id}");
            }
            assert!(graph.respects_partial_order(&graph.topo_order()));
        });
    }

    #[test]
    fn heap_schedule_matches_the_kahn_oracle() {
        check(300, |g| {
            let graph = random_graph(g, &CLASSES, 40);
            let priorities: [fn(&ActorClass) -> i32; 2] = [|_| 0, |c| c.priority()];
            for priority in priorities {
                let order = graph.schedule_by(priority);
                assert!(graph.respects_partial_order(&order));
                assert_eq!(order, schedule_oracle(&graph, priority), "{graph:?}");
            }
            // Thesis-model graphs under random per-operator priorities.
            let dag = random_op_dag(g, 30);
            let weights: [i32; 8] = std::array::from_fn(|_| g.range(0..16));
            let order = dag.schedule_by(|op| weights[op_class(op)]);
            assert!(dag.respects_partial_order(&order));
            assert_eq!(order, schedule_oracle(&dag, |op| weights[op_class(op)]), "{dag:?}");
        });
    }

    #[test]
    fn input_weights_match_the_fig_4_15_oracle() {
        // Up to 150 nodes and 70 inputs, so rows span several words.
        check(150, |g| {
            let graph = random_graph(g, &CLASSES, 150);
            let n = graph.len() as u64;
            let inputs: Vec<NodeId> = g.vec(0..=70, |g| g.below(n) as usize);
            let rows = analysis::analyse(&graph, &inputs);
            let sets = analyse_oracle(&graph, &inputs);
            for v in graph.node_ids() {
                let p: BTreeSet<NodeId> = rows.predecessors(v).collect();
                let i: BTreeSet<NodeId> = rows.required_inputs(v).collect();
                assert_eq!(p, sets[v].predecessors, "P*({v})");
                assert_eq!(i, sets[v].required_inputs, "I*({v})");
                assert_eq!(rows.cost(v), sets[v].cost, "C({v})");
            }
            assert_eq!(rows.input_sequence(), input_sequence_oracle(&sets, &inputs));
        });
    }
}
