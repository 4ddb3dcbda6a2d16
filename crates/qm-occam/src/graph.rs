//! Per-context acyclic data-flow graphs (thesis §4.5–4.7).
//!
//! A [`ContextGraph`] is a [`qm_core::dfg::Dag`] over the actors of one
//! context: nodes carry *value* inputs (which become queue operands) and
//! *control* dependencies (the control-token arcs of §4.6 — they sequence
//! side effects but "do not appear in the queue machine instruction
//! sequence"). Nodes may produce up to two distinct values (`rfork`
//! yields both the in and out channel of the new context).

use std::ops::Deref;

use qm_core::dfg::schedule::ActorClass;
use qm_core::dfg::Dag;
pub use qm_core::dfg::{NodeId, ValueRef};
use qm_isa::Opcode;

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

/// The data-flow graph of one context: a [`Dag`] of actors whose
/// [`add`](ContextGraph::add) checks each actor's operand count and
/// output indices. Everything else — the edge index, the Fig. 4.20
/// scheduler and the §4.5 analysis — is the [`Dag`]'s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ContextGraph(Dag<Actor>);

impl Deref for ContextGraph {
    type Target = Dag<Actor>;

    fn deref(&self) -> &Dag<Actor> {
        &self.0
    }
}

impl ContextGraph {
    /// Empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node.
    ///
    /// # Panics
    ///
    /// Panics if operand count or output indices don't match the actor,
    /// or if an input refers to a node that does not exist yet.
    pub fn add(&mut self, actor: Actor, vins: &[ValueRef], ctrl: &[NodeId]) -> NodeId {
        assert_eq!(vins.len(), actor.value_ins(), "operand count for {actor:?}");
        for v in vins {
            assert!(v.node < self.len(), "value input {v:?} does not exist yet");
            assert!(v.out < self.payload(v.node).value_outs(), "bad output index {v:?}");
        }
        self.0.add(actor, vins, ctrl)
    }

    /// Add a control edge `from → to` after construction; see
    /// [`Dag::add_ctrl`].
    pub fn add_ctrl(&mut self, from: NodeId, to: NodeId) {
        self.0.add_ctrl(from, to);
    }

    /// Schedule the nodes by [`Dag::schedule_by`], with the §4.7 actor
    /// priorities when `priorities` is true (plain first-readied-first
    /// topological order otherwise).
    #[must_use]
    pub fn schedule(&self, priorities: bool) -> Vec<NodeId> {
        self.schedule_by(|a| if priorities { a.class().priority() } else { 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qm_core::dfg::analysis;

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
        let seq = analysis::analyse(&g, &[a, b, c, d]).input_sequence();
        // Table 4.5: W(a)=W(b) > W(c) > W(d) → order a, b, c, d.
        assert_eq!(seq, vec![(a, 27), (b, 27), (c, 26), (d, 18)]);
    }

    #[test]
    #[should_panic(expected = "operand count")]
    fn arity_mismatch_is_rejected() {
        let mut g = ContextGraph::new();
        let a = g.add(Actor::Const(1), &[], &[]);
        let _ = g.add(Actor::Bin(Opcode::Plus), &[ValueRef::of(a)], &[]);
    }
}
