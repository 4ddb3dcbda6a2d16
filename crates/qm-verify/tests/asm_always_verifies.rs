//! Pipeline properties over the compiler's own back half: random
//! acyclic data-flow graphs of context actors (folded to one sink, sent
//! on channel 0), emitted by `qm_occam::emit::emit_context` with the
//! Fig. 4.20 priorities on and off, then linked:
//!
//! `ContextGraph` → `emit_context` → `Listing::link` → `verify_object` /
//! `deep_verify`.
//!
//! Every linked listing equals the object the assembler makes from its
//! printed text.
//!
//! [`check_pipeline`] pins that every such program passes the static
//! verifier under `Strict` (no findings at all).
//! [`pipeline_program_is_deep_clean`] pins the deep pass's shape
//! invariants (see [`check_shape`]) and that straight-line compiler
//! output analyzes deep-clean, confined and provably local. Both draw
//! from the one generator, [`build_graph`]; hand-written fork, channel
//! and deadlock fixtures cover the corners the generator cannot reach.

use std::collections::BTreeSet;

use qm_core::rng::check;
use qm_isa::asm::{assemble, Item, Object};
use qm_isa::Opcode;
use qm_occam::emit::{emit_context, wire_end};
use qm_occam::graph::{Actor, ChanRef, ContextGraph, NodeId, ValueRef};
use qm_verify::deep::{Fact, FactKind};
use qm_verify::{deep_verify, verify_object, Code, DeepReport, Verdict, VerifyOptions};

/// Raw node spec: (kind selector, literal byte, two input selectors).
type Spec = (u8, i8, usize, usize);

const FETCH_NAMES: [&str; 3] = ["a", "b", "c"];

/// A context graph under construction: the value nodes operators may
/// read, and the names of the data words its fetches read.
#[derive(Default)]
struct Builder {
    graph: ContextGraph,
    vals: Vec<NodeId>,
    names: BTreeSet<&'static str>,
}

/// A finished context graph and the data words it reads.
struct Program {
    graph: ContextGraph,
    names: BTreeSet<&'static str>,
}

impl Builder {
    /// A fetch of the zero-initialised data word `d_<name>`.
    fn fetch(&mut self, name: &'static str) -> NodeId {
        self.names.insert(name);
        let addr = self.graph.add(Actor::Label(format!("d_{name}")), &[], &[]);
        self.op(Actor::Fetch, &[addr])
    }

    /// A value node reading output 0 of each of `ins`.
    fn op(&mut self, actor: Actor, ins: &[NodeId]) -> NodeId {
        let vins: Vec<ValueRef> = ins.iter().map(|&v| ValueRef::of(v)).collect();
        let v = self.graph.add(actor, &vins, &[]);
        self.vals.push(v);
        v
    }

    /// Fold every sink into one with trailing adds, send it on channel
    /// 0, then end the context after every side effect.
    fn finish(mut self) -> Program {
        loop {
            let sinks: Vec<NodeId> =
                self.vals.iter().copied().filter(|&v| !self.graph.has_succ(v)).collect();
            match sinks[..] {
                [x, y, ..] => self.op(Actor::Bin(Opcode::Plus), &[x, y]),
                [sink] => {
                    let chan = self.graph.add(Actor::Const(0), &[], &[]);
                    let vins = [ValueRef::of(chan), ValueRef::of(sink)];
                    self.graph.add(Actor::Send(ChanRef::Value), &vins, &[]);
                    let end = self.graph.add(Actor::End, &[], &[]);
                    wire_end(&mut self.graph, end);
                    return Program { graph: self.graph, names: self.names };
                }
                [] => unreachable!("the last value node is a sink"),
            };
        }
    }
}

/// Build a context graph from raw specs; inputs always point at earlier
/// value nodes, so the graph is acyclic by construction.
fn build_graph(specs: &[Spec]) -> Program {
    let mut b = Builder::default();
    for &(kind, lit, x, y) in specs {
        let n = b.vals.len();
        let pick = |i: usize| b.vals[i % n];
        match kind {
            0 => b.op(Actor::Const(i32::from(lit)), &[]),
            1 => b.fetch(FETCH_NAMES[lit.unsigned_abs() as usize % FETCH_NAMES.len()]),
            2 if n > 0 => {
                let (actor, v) = (if lit % 2 == 0 { Actor::Neg } else { Actor::Not }, pick(x));
                b.op(actor, &[v])
            }
            _ if n > 1 => {
                let op = match lit.rem_euclid(3) {
                    0 => Opcode::Plus,
                    1 => Opcode::Minus,
                    _ => Opcode::Mul,
                };
                let ins = [pick(x), pick(y)];
                b.op(Actor::Bin(op), &ins)
            }
            _ => b.op(Actor::Const(1), &[]),
        };
    }
    b.finish()
}

/// The listing of `p` with the Fig. 4.20 priorities on or off,
/// followed by its data words: its printed text and its linked object,
/// which must equal the text's assembled object.
fn assemble_program(p: &Program, priorities: bool) -> (String, Object) {
    let data: Vec<String> = p.names.iter().map(|name| format!("d_{name}")).collect();
    let mut listing = emit_context("main", &p.graph, priorities).expect("fits the queue page");
    for label in &data {
        listing.push(Item::Label(label));
        listing.push(Item::Word(0));
    }
    let src = listing.to_string();
    let obj = listing.link().unwrap_or_else(|e| panic!("emitted program links: {e}\n{src}"));
    let assembled = assemble(&src).unwrap_or_else(|e| panic!("printed text assembles: {e}\n{src}"));
    assert_eq!(obj, assembled, "linked listing and assembled text differ:\n{src}");
    (src, obj)
}

/// Emit, assemble and Strict-verify one program under both priority
/// settings; panics (via assert) on any finding. Shared by the property
/// and the pinned regression cases.
fn check_pipeline(p: &Program) {
    for priorities in [false, true] {
        let (src, obj) = assemble_program(p, priorities);
        let report = verify_object(&obj, &VerifyOptions::default());
        assert!(report.is_clean(), "Strict verification of:\n{src}\n{}", report.render());
    }
}

#[test]
fn scheduler_assembler_pipeline_always_verifies() {
    check(64, |g| {
        let specs = g.vec(1..32, |g| (g.range(0..4), g.range(..), g.range(..), g.range(..)));
        check_pipeline(&build_graph(&specs));
    });
}

// Pinned seeds: deterministic shapes that once exercised interesting
// corners (wide fanout through dup chains, unary chains, shared
// subexpressions), kept as plain tests so they run on every build.

#[test]
fn pinned_table_3_4_program_lowers_and_verifies() {
    // d ← a/(a+b) + (a+b)·c, the Fig. 3.6(b) graph.
    let mut b = Builder::default();
    let (a, bb, c) = (b.fetch("a"), b.fetch("b"), b.fetch("c"));
    let sum = b.op(Actor::Bin(Opcode::Plus), &[a, bb]);
    let div = b.op(Actor::Bin(Opcode::Div), &[a, sum]);
    let mul = b.op(Actor::Bin(Opcode::Mul), &[sum, c]);
    b.op(Actor::Bin(Opcode::Plus), &[div, mul]);
    check_pipeline(&b.finish());
}

#[test]
fn pinned_shared_subexpression_fanout() {
    // (a+b) used by three consumers — fanout forces a dup chain.
    let mut b = Builder::default();
    let (a, bb) = (b.fetch("a"), b.fetch("b"));
    let s = b.op(Actor::Bin(Opcode::Plus), &[a, bb]);
    let n = b.op(Actor::Neg, &[s]);
    let m = b.op(Actor::Bin(Opcode::Mul), &[s, s]);
    let t = b.op(Actor::Bin(Opcode::Plus), &[n, m]);
    b.op(Actor::Bin(Opcode::Minus), &[t, s]);
    check_pipeline(&b.finish());
}

#[test]
fn pinned_unary_tower() {
    // A long Neg/Not tower: every instruction consumes the previous
    // result immediately (offset 0 throughout).
    let mut b = Builder::default();
    let mut v = b.op(Actor::Const(5), &[]);
    for i in 0..12 {
        v = b.op(if i % 2 == 0 { Actor::Neg } else { Actor::Not }, &[v]);
    }
    check_pipeline(&b.finish());
}

#[test]
fn pinned_two_independent_chains() {
    // Two chains whose interleaving depends on the priorities (the
    // fetch ranks below the constant); both interleavings must verify.
    let mut b = Builder::default();
    let mut l = b.op(Actor::Const(2), &[]);
    for _ in 0..4 {
        l = b.op(Actor::Neg, &[l]);
    }
    let mut r = b.fetch("c");
    for _ in 0..4 {
        r = b.op(Actor::Not, &[r]);
    }
    b.op(Actor::Bin(Opcode::Minus), &[l, r]);
    check_pipeline(&b.finish());
}

// The deep tier, on the same generator.

fn fact_key(f: &Fact) -> (String, u32, u8) {
    let order = match &f.kind {
        FactKind::ProvenLocal => 0,
        FactKind::CommutesWithNext => 1,
        FactKind::AddrRange { .. } => 2,
        FactKind::MaxQueueDepth { .. } => 3,
    };
    (f.ctx.to_string(), f.pc, order)
}

/// The deep-pass invariants that hold for *every* analyzed object,
/// clean or not:
///
/// * the deep report embeds every shallow finding (superset tier);
/// * exactly one verdict diagnostic, agreeing with `verdict`;
/// * the fact list is sorted by `(ctx, pc, kind)` and duplicate-free;
/// * every `ProvenLocal` fact names a word-aligned pc.
fn check_shape(obj: &Object, dr: &DeepReport) {
    let opts = VerifyOptions::default();

    let shallow = verify_object(obj, &opts);
    for d in &shallow.diags {
        assert!(
            dr.report.diags.iter().any(|x| x == d),
            "shallow finding {:?} missing from the deep report",
            d.code
        );
    }

    let verdicts: Vec<_> = dr
        .report
        .diags
        .iter()
        .filter(|d| matches!(d.code, Code::DeepDeadlockFree | Code::DeepCyclic | Code::DeepUnknown))
        .collect();
    assert_eq!(verdicts.len(), 1, "one verdict diagnostic per report");
    assert_eq!(verdicts[0].code, dr.verdict.code(), "verdict field and diagnostic agree");

    let keys: Vec<_> = dr.facts.iter().map(fact_key).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "facts sorted by (ctx, pc, kind)");
    sorted.dedup();
    assert_eq!(keys.len(), sorted.len(), "no duplicate facts");

    for f in dr.facts.iter().filter(|f| f.kind == FactKind::ProvenLocal) {
        assert_eq!(f.pc & 3, 0, "fact pcs are word-aligned");
    }
}

/// The property: the program the chain builds from `specs` keeps the
/// shape invariants under both priority settings, and — the emitter's
/// straight-line output being fully provable — analyzes deep-clean,
/// confined, never cyclic, with every ALU op proven local.
fn pipeline_program_is_deep_clean(specs: &[Spec]) {
    let p = build_graph(specs);
    // Constants, labels, negations and binary operators each emit one
    // ALU instruction; dup chains for fanout can only add more.
    let alu_ops = p
        .graph
        .node_ids()
        .filter(|&v| {
            matches!(
                p.graph.payload(v),
                Actor::Const(_) | Actor::Label(_) | Actor::Neg | Actor::Not | Actor::Bin(_)
            )
        })
        .count();
    for priorities in [false, true] {
        let (src, obj) = assemble_program(&p, priorities);
        let dr = deep_verify(&obj, &VerifyOptions::default());
        check_shape(&obj, &dr);
        assert!(dr.deep_clean(), "{src}\n{}", dr.report.render());
        assert!(dr.qp_confined, "{src}\n{:?}", dr.confinement_loss);
        assert_ne!(dr.verdict, Verdict::Cyclic);
        assert!(
            dr.proven_local_count() >= alu_ops,
            "{} proven < {alu_ops} ALU ops\n{src}",
            dr.proven_local_count()
        );
    }
}

#[test]
fn deep_shape_holds_on_random_pipeline_programs() {
    check(48, |g| {
        let specs = g.vec(1..24, |g| (g.range(0..4), g.range(..), g.range(..), g.range(..)));
        pipeline_program_is_deep_clean(&specs);
    });
}

/// Fixed spec vectors: straight chains, shared fanout, literal-only
/// graphs, fetch-heavy graphs.
fn pinned_specs() -> Vec<Vec<Spec>> {
    vec![
        vec![(0, 5, 0, 0)],
        vec![(1, 0, 0, 0), (1, 1, 0, 0), (3, 0, 0, 1)],
        vec![(0, 2, 0, 0), (2, 0, 0, 0), (2, 1, 1, 0), (2, 0, 2, 0)],
        vec![(1, 2, 0, 0), (0, -7, 0, 0), (3, 2, 0, 1), (3, 1, 2, 1), (3, 0, 3, 2)],
        vec![
            (1, 0, 0, 0),
            (1, 1, 0, 0),
            (3, 0, 0, 1),
            (2, 0, 2, 0),
            (3, 2, 2, 2),
            (3, 1, 4, 2),
            (3, 0, 5, 2),
        ],
        vec![(0, 1, 0, 0), (0, 2, 0, 0), (0, 3, 0, 0), (3, 0, 0, 1), (3, 2, 3, 2), (2, 1, 4, 0)],
    ]
}

#[test]
fn deep_shape_holds_on_pinned_pipeline_programs() {
    for specs in pinned_specs() {
        pipeline_program_is_deep_clean(&specs);
    }
}

#[test]
fn deep_shape_holds_on_channel_and_fork_fixtures() {
    // Hand-written programs covering the corners the pipeline generator
    // cannot reach: forks, channel traffic, a proven deadlock, and a
    // shallow-broken program (underflow) — the shape invariants hold on
    // every one of them.
    for src in [
        // Deep-clean two-context pipeline (proven deadlock-free).
        "main:   trap #0,#stage :r0,r1\n\
                 send r0,#21\n\
                 recv r1,#0 :r2\n\
                 send+1 #0,r2\n\
                 trap #2,#0\n\
         stage:  recv r17,#0 :r0\n\
                 mul+1 r0,#2 :r0\n\
                 send+1 r18,r0\n\
                 trap #2,#0\n",
        // Crossed rendezvous: a statically proven deadlock.
        "main:   trap #0,#kid :r0,r1\n\
                 recv r1,#0 :r2\n\
                 send+1 r0,r2\n\
                 trap #2,#0\n\
         kid:    recv r17,#0 :r0\n\
                 send+1 r18,r0\n\
                 trap #2,#0\n",
        // Queue-discipline error (shallow QV0001) — superset embedding.
        "main: plus+2 #1,#2 :r0\n trap #2,#0\n",
        // Self-buffered literal channel (verdict stays unknown).
        "main: send #5,#1\n send #5,#2\n recv #5,#0 :r0\n recv #5,#0 :r1\n\
               plus+2 r0,r1 :r2\n send+1 #0,r2\n trap #2,#0\n",
    ] {
        let obj = qm_isa::asm::assemble(src).expect("fixture assembles");
        let dr = deep_verify(&obj, &VerifyOptions::default());
        check_shape(&obj, &dr);
    }
}
