//! Pipeline properties over the repo's own chain: random acyclic
//! data-flow graphs (folded to a single sink), linearised by
//! `schedule_by`, then §3.6 construction, reference lowering and the
//! assembler:
//!
//! `Dag` → `schedule_by` → `to_indexed_program` → `lower` → `assemble`
//! → `verify_object` / `sequence::check_indexed` / `deep_verify`.
//!
//! [`check_pipeline`] pins that every such program passes the static
//! verifier under `Strict` (no findings at all) and that its
//! instruction order is a valid sequence for the source DFG, under
//! random per-operator priorities. [`pipeline_program_is_deep_clean`]
//! pins the deep pass's shape invariants (see [`check_shape`]) and that
//! straight-line compiler output analyzes deep-clean, confined and
//! provably local. Both draw from the one generator, [`build_dag`];
//! hand-written fork, channel and deadlock fixtures cover the corners
//! the generator cannot reach.

use qm_core::dfg::Dag;
use qm_core::expr::Op;
use qm_core::indexed::table_3_4_program;
use qm_core::rng::check;
use qm_core::Word;
use qm_verify::deep::{Fact, FactKind};
use qm_verify::lower::{lower, lower_and_assemble};
use qm_verify::sequence::check_indexed;
use qm_verify::{deep_verify, verify_object, Code, DeepReport, Verdict, VerifyOptions};

/// Raw node spec: (kind selector, literal byte, two input selectors).
type Spec = (u8, i8, usize, usize);

const FETCH_NAMES: [&str; 3] = ["a", "b", "c"];

/// Build a DAG from raw specs; inputs always point at earlier nodes so
/// the graph is acyclic by construction, and trailing `Add` nodes fold
/// every sink into one (the shape `to_indexed_program` requires).
fn build_dag(specs: &[Spec]) -> Dag<Op> {
    let mut dag: Dag<Op> = Dag::new();
    for &(kind, lit, x, y) in specs {
        let n = dag.len();
        match kind {
            0 => {
                dag.add_node(Op::Literal(Word::from(lit)), &[]);
            }
            1 => {
                let name = FETCH_NAMES[lit.unsigned_abs() as usize % FETCH_NAMES.len()];
                dag.add_node(Op::Fetch(name.to_string()), &[]);
            }
            2 if n > 0 => {
                let op = if lit % 2 == 0 { Op::Neg } else { Op::Not };
                dag.add_node(op, &[x % n]);
            }
            _ if dag.len() > 1 => {
                let op = match lit.rem_euclid(3) {
                    0 => Op::Add,
                    1 => Op::Sub,
                    _ => Op::Mul,
                };
                let n = dag.len();
                dag.add_node(op, &[x % n, y % n]);
            }
            _ => {
                dag.add_node(Op::Literal(1), &[]);
            }
        }
    }
    loop {
        let sinks: Vec<usize> = dag.node_ids().filter(|&v| dag.succs(v).is_empty()).collect();
        if sinks.len() <= 1 {
            break;
        }
        dag.add_node(Op::Add, &[sinks[0], sinks[1]]);
    }
    dag
}

/// Priority class of an operator, indexing the random weight table so
/// different weight draws explore different valid linearisations.
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

fn env(name: &str) -> Word {
    match name {
        "a" => 3,
        "b" => -2,
        _ => 7,
    }
}

/// Run the whole pipeline for one DAG + weight table; panics (via
/// assert) on any violation. Shared by the property and the pinned
/// regression cases.
fn check_pipeline(dag: &Dag<Op>, weights: &[i32; 8]) {
    let order = dag.schedule_by(|op| weights[op_class(op)]);
    assert!(dag.respects_partial_order(&order), "schedule_by must respect pi_G");

    let program = dag.to_indexed_program(&order).expect("single-sink DAG lowers");
    let seq = check_indexed(dag, &order, &program);
    assert!(!seq.has_errors(), "valid-sequence check: {}", seq.render());

    // The indexed program computes the same value the graph does.
    let want = dag.evaluate(&env).expect("no division in generated ops");
    let got = program.evaluate(&env).expect("indexed evaluation succeeds");
    assert_eq!(want, got, "indexed program computes the graph's value\n{program}");

    let src = lower(&program).expect("offsets fit the dup range");
    let obj = lower_and_assemble(&program).expect("lowered program assembles");
    let report = verify_object(&obj, &VerifyOptions::default());
    assert!(report.is_clean(), "Strict verification of:\n{src}\n{}", report.render());
}

#[test]
fn scheduler_assembler_pipeline_always_verifies() {
    check(64, |g| {
        let specs = g.vec(1..32, |g| (g.range(0..4), g.range(..), g.range(..), g.range(..)));
        let mut weights = [0i32; 8];
        for w in &mut weights {
            *w = g.range(0..16);
        }
        check_pipeline(&build_dag(&specs), &weights);
    });
}

// Pinned seeds: deterministic shapes that once exercised interesting
// corners (wide fanout through dup chains, unary chains, shared
// subexpressions), kept as plain tests so they run on every build.

#[test]
fn pinned_table_3_4_program_lowers_and_verifies() {
    let p = table_3_4_program();
    let obj = lower_and_assemble(&p).expect("assembles");
    let report = verify_object(&obj, &VerifyOptions::default());
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn pinned_shared_subexpression_fanout() {
    // (a+b) used by three consumers — fanout forces a dup chain.
    let mut dag: Dag<Op> = Dag::new();
    let a = dag.add_node(Op::Fetch("a".into()), &[]);
    let b = dag.add_node(Op::Fetch("b".into()), &[]);
    let s = dag.add_node(Op::Add, &[a, b]);
    let n = dag.add_node(Op::Neg, &[s]);
    let m = dag.add_node(Op::Mul, &[s, s]);
    let t = dag.add_node(Op::Add, &[n, m]);
    let _ = dag.add_node(Op::Sub, &[t, s]);
    for weights in [[0; 8], [7, 3, 1, 0, 5, 2, 6, 4], [1, 2, 3, 4, 5, 6, 7, 8]] {
        check_pipeline(&dag, &weights);
    }
}

#[test]
fn pinned_unary_tower() {
    // A long Neg/Not tower: every instruction consumes the previous
    // result immediately (offset 0 throughout).
    let mut dag: Dag<Op> = Dag::new();
    let mut v = dag.add_node(Op::Literal(5), &[]);
    for i in 0..12 {
        let op = if i % 2 == 0 { Op::Neg } else { Op::Not };
        v = dag.add_node(op, &[v]);
    }
    check_pipeline(&dag, &[0; 8]);
}

#[test]
fn pinned_two_independent_chains() {
    // Two chains whose interleaving depends on the weight table; both
    // interleavings must verify.
    let mut dag: Dag<Op> = Dag::new();
    let mut l = dag.add_node(Op::Literal(2), &[]);
    for _ in 0..4 {
        l = dag.add_node(Op::Neg, &[l]);
    }
    let mut r = dag.add_node(Op::Fetch("c".into()), &[]);
    for _ in 0..4 {
        r = dag.add_node(Op::Not, &[r]);
    }
    let _ = dag.add_node(Op::Sub, &[l, r]);
    check_pipeline(&dag, &[0, 0, 9, 1, 0, 0, 0, 0]);
    check_pipeline(&dag, &[0, 9, 1, 9, 0, 0, 0, 0]);
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
fn check_shape(obj: &qm_isa::asm::Object, dr: &DeepReport) {
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
/// shape invariants, and — our own straight-line lowering being fully
/// provable — analyzes deep-clean, confined, never cyclic, with every
/// ALU op proven local.
fn pipeline_program_is_deep_clean(specs: &[Spec]) {
    let dag = build_dag(specs);
    let order = dag.schedule_by(|_| 0);
    let program = dag.to_indexed_program(&order).expect("single-sink DAG lowers");
    let obj = lower_and_assemble(&program).expect("lowered program assembles");
    let dr = deep_verify(&obj, &VerifyOptions::default());
    check_shape(&obj, &dr);

    assert!(dr.deep_clean(), "{}", dr.report.render());
    assert!(dr.qp_confined, "{:?}", dr.confinement_loss);
    assert_ne!(dr.verdict, Verdict::Cyclic);
    // Every ALU op the graph holds lowers to one proven-local
    // instruction; dup chains for fanout can only add more.
    let alu_ops = dag.node_ids().filter(|&v| !matches!(dag.payload(v), Op::Fetch(_))).count();
    assert!(
        dr.proven_local_count() >= alu_ops,
        "{} proven < {alu_ops} ALU ops",
        dr.proven_local_count()
    );
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
