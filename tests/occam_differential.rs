//! Differential testing of the OCCAM pipeline: a program runs through
//! the reference interpreter (the oracle) and through compile → assemble
//! → multiprocessor simulation, and screen output and final array
//! contents must match exactly. One property, [`run_differential`],
//! checks this on 1, 2 and 3 PEs, with the default options and with
//! every optimization off, and also checks that compiling twice yields
//! the same assembly and that the translated engine and the `Pe::step`
//! oracle (`System::use_step_oracle`) agree on cycles, instructions and
//! `state_digest` — on the splicing channels `par` compiles to, too —
//! and that a run paused mid-way, captured in a snapshot and
//! restored, finishes exactly as the uninterrupted run did.
//! Every object it compiles must also pass the Strict static verifier
//! and the deep pass, and no channel's runtime high-water mark may
//! exceed the deep pass's `MaxQueueDepth` bound for it.
//!
//! Its inputs are random programs from one generator ([`random_program`]),
//! the shrunk failures that generator once found (the `seed_` tests,
//! transcribed with the AST constructors below) and hand-written
//! programs of the same shapes: zero-count replicators, `par` branches
//! that only conditionally write, `if` chains with no true guard, and
//! `par` write ordering.
//!
//! Generated programs keep `par` branches independent (disjoint
//! reads/writes, no host output inside `par`) so the sequential oracle is
//! a valid model of the concurrent execution.

use queue_machine::core::rng::{check, checksum, Gen};
use queue_machine::occam::ast::{BinOp, Decl, Expr, Lvalue, Process, Replicator};
use queue_machine::occam::interp::Interp;
use queue_machine::occam::sema::SymKind;
use queue_machine::occam::{codegen, parse, sema, Options};
use queue_machine::sim::config::SystemConfig;
use queue_machine::sim::snapshot::Snapshot;
use queue_machine::sim::system::{RunOutcome, RunStatus, System};
use queue_machine::sim::Word;
use queue_machine::verify::{deep_verify, verify_object, DeepReport, FactKind, VerifyOptions};

const ARRAY_LEN: i32 = 8;

/// The property: the oracle and the compiled program agree on every
/// machine size and option set. Returns how many of its runs compared at
/// least one `MaxQueueDepth` bound against the runtime high-water marks.
fn run_differential(program: &Process) -> usize {
    let resolved = sema::analyse(program).expect("programs are well-scoped");
    let oracle = Interp::new(&resolved, vec![]).run().expect("oracle runs");
    let no_opts = Options {
        live_value_analysis: false,
        input_sequencing: false,
        priority_scheduling: false,
        loop_unrolling: false,
    };
    let mut compared = 0;
    for (pes, opts) in [(1, Options::default()), (2, Options::default()), (3, no_opts)] {
        let asm = codegen::generate(&resolved, &opts).expect("compiles");
        let again = codegen::generate(&resolved, &opts).expect("compiles");
        assert_eq!(asm, again, "codegen is deterministic");
        let object = queue_machine::isa::asm::assemble(&asm).expect("assembles");
        let vopts = VerifyOptions::default();
        let report = verify_object(&object, &vopts);
        assert!(
            report.is_clean(),
            "Strict verify rejects (pes={pes}):\n{}\n{asm}",
            report.render()
        );
        let deep = deep_verify(&object, &vopts);
        assert!(deep.deep_clean(), "deep verify rejects (pes={pes}):\n{}", deep.report.render());
        let build = || {
            let mut sys = System::new(SystemConfig::with_pes(pes));
            sys.load_object(&object);
            sys.spawn_main(object.symbol("main").expect("main"));
            sys
        };
        let (mut sys, mut stepped) = (build(), build());
        stepped.use_step_oracle();
        let out = sys.run().unwrap_or_else(|e| panic!("simulation failed (pes={pes}): {e}\n{asm}"));
        let on_oracle = stepped.run().expect("the Pe::step oracle runs it too");
        assert_eq!(
            (out.elapsed_cycles, out.instructions),
            (on_oracle.elapsed_cycles, on_oracle.instructions),
            "engine and Pe::step oracle diverged (pes={pes})\n{asm}"
        );
        assert_eq!(
            Snapshot::capture(&sys).state_digest(),
            Snapshot::capture(&stepped).state_digest(),
            "engine and Pe::step oracle digests diverged (pes={pes})\n{asm}"
        );
        assert_eq!(out.output, oracle.output, "screen output diverged (pes={pes})\n{asm}");
        check_snapshot_resume(&build, &sys, &out, &format!("pes={pes}\n{asm}"));
        if check_occupancy(&deep, &out.channel_high_water, &format!("pes={pes}\n{asm}")) {
            compared += 1;
        }
        for (name, kind) in &resolved.syms {
            if let SymKind::Array { addr, len } = kind {
                let expected = &oracle.arrays[name];
                for i in 0..*len {
                    let got = sys.memory.peek_global(addr + 4 * i);
                    assert_eq!(
                        got, expected[i as usize],
                        "{name}[{i}] diverged (pes={pes})\n{asm}"
                    );
                }
            }
        }
    }
    compared
}

/// The snapshot oracle: pause a fresh run at a cycle drawn from the
/// program's own cycle range (fixed by a checksum of the run's
/// description, so a failure replays), `capture` it, `restore` a fresh
/// system from the snapshot, and finish. Cycles, instructions, output
/// and `state_digest` must equal the uninterrupted run's.
fn check_snapshot_resume(build: &dyn Fn() -> System, whole: &System, out: &RunOutcome, what: &str) {
    let pause = checksum(what.as_bytes()) % out.elapsed_cycles.max(1);
    let mut first = build();
    let (resumed, done) = match first.run_until(pause).expect("the first leg runs") {
        RunStatus::Paused { .. } => {
            let mut resumed = System::restore(&Snapshot::capture(&first));
            let done = resumed.run().expect("the resumed leg runs");
            (resumed, done)
        }
        RunStatus::Done(done) => (first, done),
    };
    assert_eq!(
        (done.elapsed_cycles, done.instructions, &done.output),
        (out.elapsed_cycles, out.instructions, &out.output),
        "resuming from a snapshot taken at cycle {pause} changed the run ({what})"
    );
    assert_eq!(
        Snapshot::capture(&resumed).state_digest(),
        Snapshot::capture(whole).state_digest(),
        "resuming from a snapshot taken at cycle {pause} changed the digest ({what})"
    );
}

/// Every runtime high-water mark is at most the deep pass's
/// `MaxQueueDepth` bound for its channel. A literal channel (`channel
/// 5`) keeps its number at run time and compares directly; fork-allocated
/// channels are numbered dynamically, so they compare the largest mark
/// against the largest bound (the id mapping of
/// `crates/qm-bench/tests/deep_cross_validation.rs`). The host channel
/// bypasses the table and has no mark. Returns whether there was any
/// bound to compare: the deep pass has none when the wiring model bails.
fn check_occupancy(deep: &DeepReport, marks: &[(Word, u64)], what: &str) -> bool {
    let facts: Vec<(Option<Word>, u64)> = deep
        .facts
        .iter()
        .filter_map(|f| match &f.kind {
            FactKind::MaxQueueDepth { chan, depth } if chan != "the host channel" => {
                Some((chan.strip_prefix("channel ").and_then(|v| v.parse().ok()), *depth))
            }
            _ => None,
        })
        .collect();
    let literal: Vec<Word> = facts.iter().filter_map(|&(id, _)| id).collect();
    for &(id, bound) in &facts {
        if let Some(id) = id {
            let mark = marks.iter().find(|&&(c, _)| c == id).map_or(0, |&(_, m)| m);
            assert!(mark <= bound, "channel {id} high-water {mark} > bound {bound} ({what})");
        }
    }
    if let Some(bound) = facts.iter().filter(|(id, _)| id.is_none()).map(|&(_, d)| d).max() {
        let mark =
            marks.iter().filter(|(c, _)| !literal.contains(c)).map(|&(_, m)| m).max().unwrap_or(0);
        assert!(mark <= bound, "dynamic-channel high-water {mark} > bound {bound} ({what})");
    }
    !facts.is_empty()
}

/// [`run_differential`] on OCCAM source text.
fn run_source(src: &str) {
    let _ =
        run_differential(&parse::parse(src).unwrap_or_else(|e| panic!("parse failed: {e}\n{src}")));
}

fn c(v: i32) -> Expr {
    Expr::Const(v)
}
fn var(n: &str) -> Expr {
    Expr::Var(n.into())
}
fn idx(a: &str, e: Expr) -> Expr {
    Expr::Index(a.into(), Box::new(e))
}
fn neg(e: Expr) -> Expr {
    Expr::Neg(Box::new(e))
}
fn not(e: Expr) -> Expr {
    Expr::Not(Box::new(e))
}
fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
    Expr::bin(op, a, b)
}
fn assign_var(n: &str, e: Expr) -> Process {
    Process::Assign(Lvalue::Var(n.into()), e)
}
fn assign_idx(a: &str, i: Expr, e: Expr) -> Process {
    Process::Assign(Lvalue::Index(a.into(), Box::new(i)), e)
}
fn out(e: Expr) -> Process {
    Process::Output("screen".into(), e)
}
fn seq(ps: Vec<Process>) -> Process {
    Process::Seq(None, ps)
}
fn seqr(v: &str, start: i32, count: i32, ps: Vec<Process>) -> Process {
    Process::Seq(Some(Replicator { var: v.into(), start: c(start), count: c(count) }), ps)
}
fn par(ps: Vec<Process>) -> Process {
    Process::Par(None, ps)
}
fn ifp(branches: Vec<(Expr, Process)>) -> Process {
    Process::If(branches)
}

/// The declaration frame every generated program shares, around `body`
/// and followed by scalar dumps to `screen`.
fn program(body: Vec<Process>) -> Process {
    let mut ps = body;
    ps.push(out(var("v0")));
    ps.push(out(var("v1")));
    ps.push(out(var("v2")));
    Process::Scope(
        vec![
            Decl::Scalar("v0".into()),
            Decl::Scalar("v1".into()),
            Decl::Scalar("v2".into()),
            Decl::Array("a0".into(), ARRAY_LEN as u32),
            Decl::Array("a1".into(), ARRAY_LEN as u32),
        ],
        vec![],
        Box::new(Process::Seq(None, ps)),
    )
}

/// Variables a generated fragment may read/write.
struct Scope<'a> {
    scalars: &'a [&'a str],
    arrays: &'a [&'a str],
}

fn masked(index: Expr) -> Box<Expr> {
    Box::new(bin(BinOp::And, index, c(ARRAY_LEN - 1)))
}

fn random_expr(g: &mut Gen, scope: &Scope, depth: u32) -> Expr {
    let choice = if depth == 0 { 0 } else { g.weighted(&[3, 1, 1, 3, 2]) };
    let sub = |g: &mut Gen| random_expr(g, scope, depth - 1);
    match choice {
        0 if g.below(2) == 0 => c(g.range(-9..10)),
        0 => var(g.pick::<&str>(scope.scalars)),
        1 => neg(sub(g)),
        2 => not(sub(g)),
        3 => {
            let op = *g.pick(&[
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Mod,
                BinOp::And,
                BinOp::Or,
                BinOp::Shl,
                BinOp::Shr,
                BinOp::Lt,
                BinOp::Ge,
                BinOp::Eq,
            ]);
            bin(op, sub(g), sub(g))
        }
        _ => Expr::Index(g.pick(scope.arrays).to_string(), masked(sub(g))),
    }
}

fn random_stmt(g: &mut Gen, scope: &Scope, depth: u32, allow_output: bool) -> Process {
    let choice = if depth == 0 { 0 } else { g.weighted(&[3, 2, 2, 2]) };
    let e = |g: &mut Gen| random_expr(g, scope, 2);
    let sub = |g: &mut Gen| random_stmt(g, scope, depth - 1, allow_output);
    match choice {
        0 => match g.below(if allow_output { 3 } else { 2 }) {
            0 => assign_var(g.pick::<&str>(scope.scalars), e(g)),
            1 => {
                let a = *g.pick(scope.arrays);
                let (i, x) = (e(g), e(g));
                Process::Assign(Lvalue::Index(a.to_string(), masked(i)), x)
            }
            _ => out(e(g)),
        },
        1 => seq(g.vec(1..4, sub)),
        2 => ifp(vec![(e(g), sub(g)), (c(-1), sub(g))]),
        _ => {
            let (start, count) = (g.range(0..3), g.range(0..5));
            let body = g.vec(1..3, sub);
            let tag = g.range(0u32..1000);
            seqr(&format!("r{depth}_{tag}"), start, count, body)
        }
    }
}

/// A whole program: independent `par` halves plus sequential code around
/// them, inside the shared frame.
fn random_program(g: &mut Gen) -> Process {
    let full = Scope { scalars: &["v0", "v1", "v2"], arrays: &["a0", "a1"] };
    let before = random_stmt(g, &full, 2, true);
    let b0 = random_stmt(g, &Scope { scalars: &["v0"], arrays: &["a0"] }, 2, false);
    let b1 = random_stmt(g, &Scope { scalars: &["v1"], arrays: &["a1"] }, 2, false);
    let after = random_stmt(g, &full, 2, true);
    program(vec![before, par(vec![b0, b1]), after])
}

/// Runs of [`random_programs_match_the_oracle`] (of 144) that must
/// compare at least one occupancy bound; 18 do.
const OCCUPANCY_FLOOR: usize = 12;

#[test]
fn random_programs_match_the_oracle() {
    let compared = std::cell::Cell::new(0);
    check(48, |g| compared.set(compared.get() + run_differential(&random_program(g))));
    // The occupancy cross-check compares nothing when the wiring model
    // bails, which it does on most generated programs; this floor keeps
    // it from going vacuous unnoticed.
    let compared = compared.get();
    println!("{compared} of {} runs compared MaxQueueDepth bounds", 48 * 3);
    assert!(compared >= OCCUPANCY_FLOOR, "only {compared} runs compared MaxQueueDepth bounds");
}

#[test]
fn differential_smoke() {
    // One fixed program through the same path (fast signal when the
    // harness itself breaks).
    run_source(
        "\
var v0, v1, v2, s:
var a0[8], a1[8]:
seq
  seq i = [0 for 8]
    a0[i] := i * i
  par
    v0 := a0[3] + 1
    v1 := 9
  v2 := v0 * v1
  screen ! v2
",
    );
}

/// Seed 65a8ebac: nested `if` with an all-false guard list inside `par`.
#[test]
fn seed_nested_if_false_guards_in_par() {
    run_differential(&program(vec![
        assign_var("v0", c(0)),
        par(vec![
            ifp(vec![
                (
                    c(0),
                    ifp(vec![
                        (c(0), assign_var("v0", c(0))),
                        (
                            c(-1),
                            assign_idx(
                                "a0",
                                bin(BinOp::And, c(-1), c(7)),
                                idx("a0", bin(BinOp::And, var("v0"), c(7))),
                            ),
                        ),
                    ]),
                ),
                (
                    c(-1),
                    ifp(vec![
                        (
                            not(not(c(5))),
                            assign_idx(
                                "a0",
                                bin(BinOp::And, c(9), c(7)),
                                neg(idx("a0", bin(BinOp::And, var("v0"), c(7)))),
                            ),
                        ),
                        (
                            c(-1),
                            assign_idx(
                                "a0",
                                bin(BinOp::And, c(-6), c(7)),
                                neg(bin(BinOp::Shr, c(-7), var("v0"))),
                            ),
                        ),
                    ]),
                ),
            ]),
            assign_var("v1", neg(c(0))),
        ]),
        assign_idx(
            "a1",
            bin(BinOp::And, neg(bin(BinOp::Shr, c(7), c(2))), c(7)),
            not(idx("a0", bin(BinOp::And, c(-4), c(7)))),
        ),
    ]));
}

/// Seed fe8d3dd6: `if` chain inside `par` where a guard reads the other
/// half's scalar.
#[test]
fn seed_if_chain_guard_reads_in_par() {
    run_differential(&program(vec![
        assign_var("v1", c(0)),
        par(vec![
            assign_var("v0", idx("a0", bin(BinOp::And, bin(BinOp::Mul, c(0), c(0)), c(7)))),
            ifp(vec![
                (
                    c(0),
                    assign_idx(
                        "a1",
                        bin(BinOp::And, c(0), c(7)),
                        neg(bin(BinOp::Add, var("v1"), var("v1"))),
                    ),
                ),
                (
                    c(-1),
                    ifp(vec![
                        (
                            var("v1"),
                            assign_idx(
                                "a1",
                                bin(BinOp::And, not(not(c(4))), c(7)),
                                idx("a1", bin(BinOp::And, bin(BinOp::And, c(-8), var("v1")), c(7))),
                            ),
                        ),
                        (
                            c(-1),
                            assign_idx(
                                "a1",
                                bin(BinOp::And, idx("a1", bin(BinOp::And, var("v1"), c(7))), c(7)),
                                bin(BinOp::Mod, c(-1), c(-9)),
                            ),
                        ),
                    ]),
                ),
            ]),
        ]),
        assign_idx("a0", bin(BinOp::And, idx("a0", bin(BinOp::And, var("v1"), c(7))), c(7)), c(-6)),
    ]));
}

/// Seed 6abec181: one-shot replicator before a `par` whose second branch
/// writes an array the tail then reads.
#[test]
fn seed_one_shot_replicator_then_par() {
    run_differential(&program(vec![
        seqr("r2_0", 0, 1, vec![seq(vec![out(c(0)), assign_var("v2", neg(c(1)))])]),
        par(vec![
            assign_var("v0", c(0)),
            seq(vec![assign_idx(
                "a1",
                bin(BinOp::And, var("v1"), c(7)),
                bin(BinOp::Add, bin(BinOp::Ge, c(5), c(-2)), c(-6)),
            )]),
        ]),
        seq(vec![
            out(bin(
                BinOp::Add,
                idx("a1", bin(BinOp::And, c(8), c(7))),
                bin(BinOp::Sub, var("v0"), c(8)),
            )),
            assign_idx(
                "a0",
                bin(BinOp::And, bin(BinOp::Div, c(1), bin(BinOp::And, c(5), c(-6))), c(7)),
                not(not(var("v1"))),
            ),
            ifp(vec![
                (
                    idx("a1", bin(BinOp::And, var("v1"), c(7))),
                    out(neg(idx("a0", bin(BinOp::And, c(-5), c(7))))),
                ),
                (c(-1), assign_var("v2", idx("a0", bin(BinOp::And, neg(c(-3)), c(7))))),
            ]),
        ]),
    ]));
}

/// Seed b8f48b65: replicators before, inside and after a `par` with a
/// conditional replicated branch.
#[test]
fn seed_replicators_around_conditional_par() {
    run_differential(&program(vec![
        seq(vec![
            ifp(vec![
                (c(0), assign_var("v0", c(0))),
                (c(-1), assign_var("v0", neg(idx("a0", bin(BinOp::And, c(0), c(7)))))),
            ]),
            seqr(
                "r1_0",
                0,
                3,
                vec![
                    assign_var("v0", idx("a0", bin(BinOp::And, c(0), c(7)))),
                    assign_idx(
                        "a0",
                        bin(
                            BinOp::And,
                            idx(
                                "a0",
                                bin(BinOp::And, idx("a0", bin(BinOp::And, c(0), c(7))), c(7)),
                            ),
                            c(7),
                        ),
                        neg(var("v0")),
                    ),
                ],
            ),
        ]),
        par(vec![
            assign_idx("a0", bin(BinOp::And, c(0), c(7)), neg(not(var("v0")))),
            ifp(vec![
                (
                    bin(
                        BinOp::Lt,
                        idx("a1", bin(BinOp::And, var("v1"), c(7))),
                        bin(BinOp::Sub, var("v1"), var("v1")),
                    ),
                    seqr(
                        "r1_135",
                        2,
                        4,
                        vec![assign_var(
                            "v1",
                            bin(
                                BinOp::Div,
                                bin(BinOp::Add, var("v1"), var("v1")),
                                bin(BinOp::Shr, c(-8), var("v1")),
                            ),
                        )],
                    ),
                ),
                (c(-1), assign_var("v1", c(-8))),
            ]),
        ]),
        seq(vec![
            seqr(
                "r1_333",
                0,
                4,
                vec![
                    assign_var("v1", bin(BinOp::Add, c(7), not(c(-7)))),
                    assign_idx(
                        "a1",
                        bin(
                            BinOp::And,
                            bin(BinOp::Or, idx("a0", bin(BinOp::And, var("v0"), c(7))), c(-3)),
                            c(7),
                        ),
                        var("v2"),
                    ),
                ],
            ),
            assign_idx(
                "a0",
                bin(
                    BinOp::And,
                    bin(
                        BinOp::Or,
                        bin(BinOp::Ge, var("v0"), var("v1")),
                        idx("a1", bin(BinOp::And, var("v1"), c(7))),
                    ),
                    c(7),
                ),
                idx("a1", bin(BinOp::And, var("v1"), c(7))),
            ),
            assign_idx(
                "a1",
                bin(
                    BinOp::And,
                    idx("a1", bin(BinOp::And, idx("a1", bin(BinOp::And, c(1), c(7))), c(7))),
                    c(7),
                ),
                idx("a0", bin(BinOp::And, var("v0"), c(7))),
            ),
        ]),
    ]));
}

/// Seed 0f653a94: zero-count replicators nested inside a `par` branch.
#[test]
fn seed_zero_count_replicators_in_par() {
    run_differential(&program(vec![
        assign_var("v0", c(0)),
        par(vec![
            assign_var("v0", c(0)),
            seqr("r2_0", 0, 0, vec![seqr("r1_0", 0, 0, vec![assign_var("v1", c(0))])]),
        ]),
        ifp(vec![
            (c(0), assign_var("v0", c(0))),
            (
                c(-1),
                assign_idx(
                    "a0",
                    bin(BinOp::And, bin(BinOp::Add, c(0), c(0)), c(7)),
                    bin(BinOp::Or, var("v0"), c(-6)),
                ),
            ),
        ]),
    ]));
}

/// Seed c385c57d: `par` writing an array read before and after it.
#[test]
fn seed_par_array_write_ordering() {
    run_differential(&program(vec![
        assign_var("v2", bin(BinOp::Or, idx("a1", bin(BinOp::And, var("v0"), c(7))), c(0))),
        par(vec![
            assign_var("v0", c(0)),
            assign_idx("a1", bin(BinOp::And, bin(BinOp::Mul, c(0), c(0)), c(7)), neg(c(-1))),
        ]),
        seq(vec![assign_idx("a0", bin(BinOp::And, c(0), c(7)), c(0))]),
    ]));
}

#[test]
fn zero_count_replicated_seq_is_a_no_op() {
    run_source(
        "\
var v:
seq
  v := 7
  seq i = [0 for 0]
    v := 99
  screen ! v
",
    );
}

#[test]
fn zero_count_replicated_par_is_a_no_op() {
    run_source(
        "\
var v:
var a[8]:
seq
  v := 7
  par i = [0 for 0]
    a[i /\\ 7] := 99
  screen ! v
  screen ! a[0]
",
    );
}

#[test]
fn nested_zero_count_replicators_inside_par() {
    // Shape of seed 0f653a94: a par branch that is itself a zero-count
    // replicated seq wrapping another zero-count replicated seq.
    run_source(
        "\
var v0, v1:
seq
  v0 := 0
  par
    v0 := 0
    seq i = [0 for 0]
      seq j = [0 for 0]
        v1 := 5
  screen ! v0
  screen ! v1
",
    );
}

#[test]
fn one_count_replicators_run_exactly_once() {
    run_source(
        "\
var v:
var a[8]:
seq
  seq i = [0 for 1]
    v := 3
  par i = [2 for 1]
    a[i /\\ 7] := 41
  screen ! v
  screen ! a[2]
",
    );
}

#[test]
fn if_with_no_true_guard_inside_par_writes_nothing() {
    // Shape of seeds 65a8ebac / fe8d3dd6: an if chain inside a par branch
    // whose guards are all false — the branch must complete without
    // writing, and the sibling branch's write must land.
    run_source(
        "\
var v0, v1:
seq
  v0 := 5
  par
    if
      0 <> 0
        v0 := 9
      1 < 0
        v0 := 8
    v1 := 1
  screen ! v0
  screen ! v1
",
    );
}

#[test]
fn nested_if_false_then_default_inside_par() {
    run_source(
        "\
var v0, v1:
var a0[8]:
seq
  v0 := 0
  par
    if
      0 <> 0
        v0 := 0
      true
        if
          v0 <> 0
            a0[1] := 10
          true
            a0[2] := 20
    v1 := 0 - 1
  screen ! a0[1]
  screen ! a0[2]
  screen ! v1
",
    );
}

#[test]
fn par_branches_write_disjoint_array_slots_in_order() {
    // Shape of seed c385c57d / b8f48b65: the tail after a par must observe
    // every branch's writes, and writes before the par must not be
    // clobbered by branches that do not touch them.
    run_source(
        "\
var v0:
var a0[8], a1[8]:
seq
  a0[1] := 10
  par
    seq
      a0[2] := 20
      a0[3] := a0[2] + 1
    a1[2] := 30
  a0[4] := a0[3] + a1[2]
  screen ! a0[1]
  screen ! a0[4]
",
    );
}

#[test]
fn conditionally_writing_par_branch_then_tail_read() {
    // A par branch whose only write is guarded by a false condition; the
    // tail reads the would-be target and must see the pre-par value.
    run_source(
        "\
var v0, v1:
var a0[8]:
seq
  a0[3] := 77
  par
    if
      1 = 2
        a0[3] := 0
    v1 := 4
  v0 := a0[3]
  screen ! v0
  screen ! v1
",
    );
}

#[test]
fn replicated_par_with_conditional_writes() {
    run_source(
        "\
var v:
var a[8]:
seq
  seq i = [0 for 8]
    a[i /\\ 7] := 0 - 1
  par i = [0 for 4]
    if
      i >= 2
        a[i /\\ 7] := i * 10
  v := (((a[0] + a[1]) + a[2]) + a[3])
  screen ! v
",
    );
}

#[test]
fn nested_par_inside_par_branch() {
    run_source(
        "\
var v0, v1, v2:
var a0[8], a1[8]:
seq
  par
    par
      v0 := 1
      a0[0] := 11
    seq
      v1 := 2
      a1[0] := 22
  v2 := v0 + v1
  screen ! v2
  screen ! a0[0]
  screen ! a1[0]
",
    );
}
