//! Property-based tests over the core execution models: for *any*
//! expression, the queue machine, the stack machine, the indexed queue
//! machine (via a DAG) and direct recursion all agree; encodings round
//! trip; schedules respect the partial order.

use queue_machine::core::dfg::Dag;
use queue_machine::core::expr::{Op, ParseTree};
use queue_machine::core::rng::{check, Gen};
use queue_machine::core::{simple, stack};
use queue_machine::isa::{Instruction, Opcode, SrcMode};

/// A random expression parse tree at most `depth` levels deep (division
/// avoided so every tree evaluates without faults; values stay small to
/// dodge overflow asymmetries in intermediate prints).
fn tree(g: &mut Gen, depth: u32) -> ParseTree {
    let choice = if depth == 0 { 0 } else { g.weighted(&[2, 1, 1, 1, 1, 1]) };
    let sub = |g: &mut Gen| tree(g, depth - 1);
    match choice {
        0 if g.below(2) == 0 => ParseTree::var(&format!("v{}", g.range(0..6))),
        0 => ParseTree::lit(g.range(-20..20)),
        1 => ParseTree::unary(Op::Neg, sub(g)),
        2 => ParseTree::unary(Op::Not, sub(g)),
        3 => ParseTree::binary(Op::Add, sub(g), sub(g)),
        4 => ParseTree::binary(Op::Sub, sub(g), sub(g)),
        _ => ParseTree::binary(Op::Mul, sub(g), sub(g)),
    }
}

/// The generator's depth bound.
const DEPTH: u32 = 6;

fn env(name: &str) -> i32 {
    match name {
        "v0" => 3,
        "v1" => -7,
        "v2" => 11,
        "v3" => 0,
        "v4" => 25,
        _ => -1,
    }
}

/// Thesis §3.3: the level-order queue program computes every
/// expression a stack machine can.
#[test]
fn queue_stack_and_direct_agree() {
    check(256, |g| {
        let tree = tree(g, DEPTH);
        let direct = tree.evaluate(&env).unwrap();
        assert_eq!(simple::evaluate_tree(&tree, &env).unwrap(), direct);
        assert_eq!(stack::evaluate_tree(&tree, &env).unwrap(), direct);
    });
}

/// Thesis §3.6: the DAG-generated indexed program agrees too, for the
/// canonical linearisation and for the priority schedule.
#[test]
fn indexed_queue_machine_agrees() {
    check(256, |g| {
        let tree = tree(g, DEPTH);
        let direct = tree.evaluate(&env).unwrap();
        let dag = Dag::from_parse_tree(&tree);
        assert_eq!(dag.evaluate(&env).unwrap(), direct);
        let p = dag.to_indexed_program(&dag.topo_order()).unwrap();
        assert_eq!(p.evaluate(&env).unwrap(), direct);
        // A second, distinct linearisation (plain FIFO schedule).
        let order = dag.schedule_by(|_| 0);
        let p2 = dag.to_indexed_program(&order).unwrap();
        assert_eq!(p2.evaluate(&env).unwrap(), direct);
    });
}

/// The DAG never grows past the tree, and sharing only helps.
#[test]
fn dag_no_larger_than_tree() {
    check(256, |g| {
        let tree = tree(g, DEPTH);
        assert!(Dag::from_parse_tree(&tree).len() <= tree.node_count());
    });
}

/// Infix printing round-trips through the parser.
#[test]
fn display_parse_round_trip() {
    check(256, |g| {
        let tree = tree(g, DEPTH);
        let reparsed = ParseTree::parse_infix(&tree.to_string()).unwrap();
        assert_eq!(reparsed.evaluate(&env).unwrap(), tree.evaluate(&env).unwrap());
    });
}

/// Every queue program's depth equals the number of live values.
#[test]
fn queue_depth_bounded_by_leaves() {
    check(256, |g| {
        let ops = queue_machine::core::level_order_sequence(&tree(g, DEPTH));
        let depth = simple::max_queue_depth(&ops, &env).unwrap();
        let leaves = ops.iter().filter(|o| o.arity().operands() == 0).count();
        assert!(depth <= leaves.max(1));
    });
}

/// A random (valid) source operand.
fn src(g: &mut Gen) -> SrcMode {
    match g.below(4) {
        0 => SrcMode::Window(g.range(0..16)),
        1 => SrcMode::Global(g.range(16..32)),
        2 => SrcMode::Imm(g.range(-15..=15)),
        _ => SrcMode::ImmWord(g.range(..)),
    }
}

/// A random (valid) instruction. dup1 ignores its second offset at
/// execution time but still encodes it, so the model round-trips for
/// arbitrary `off2`; the generator keeps the full range (the pinned
/// regression case, a dup1 with `off2 = 1`, lives in the `qm-isa` unit
/// tests).
fn instruction(g: &mut Gen) -> Instruction {
    if g.below(2) == 0 {
        let opcodes: Vec<Opcode> =
            Opcode::ALL.iter().map(|&(op, _)| op).filter(|op| !op.is_dup()).collect();
        Instruction::Basic {
            op: *g.pick(&opcodes),
            src1: src(g),
            src2: src(g),
            dst1: g.range(0..32),
            dst2: g.range(0..32),
            qp_inc: g.range(0..8),
            cont: g.below(2) == 1,
        }
    } else {
        Instruction::Dup {
            two: g.below(2) == 1,
            off1: g.range(..),
            off2: g.range(..),
            cont: g.below(2) == 1,
        }
    }
}

/// Every instruction encodes and decodes to itself.
#[test]
fn instruction_encode_decode_round_trip() {
    check(512, |g| {
        let instr = instruction(g);
        let words = instr.encode().unwrap();
        let (decoded, used) = Instruction::decode(&words).unwrap();
        assert_eq!(used, words.len());
        assert_eq!(decoded, instr);
    });
}

/// Decoded and printed instructions re-assemble to the identical words.
#[test]
fn disassembly_round_trips_through_assembler() {
    check(512, |g| {
        let (mut words, mut lines) = (Vec::new(), Vec::new());
        for i in g.vec(1..20, instruction) {
            let encoded = i.encode().unwrap();
            lines.push(Instruction::decode(&encoded).unwrap().0.to_string());
            words.extend(encoded);
        }
        let text = lines.join("\n");
        let obj = queue_machine::isa::asm::assemble(&text).unwrap();
        assert_eq!(obj.words(), &words[..]);
    });
}

/// The Fig. 4.20 scheduler emits a valid linearisation for any priority
/// assignment.
#[test]
fn schedules_respect_partial_order() {
    check(64, |g| {
        let tree = tree(g, DEPTH);
        let seed: u64 = g.range(..);
        let dag = Dag::from_parse_tree(&tree);
        let order = dag.schedule_by(|op| {
            // An arbitrary but deterministic pseudo-priority.
            let h = format!("{op}{seed}").len() as i32;
            h % 7
        });
        assert!(dag.respects_partial_order(&order));
        let p = dag.to_indexed_program(&order).unwrap();
        assert_eq!(p.evaluate(&env).unwrap(), tree.evaluate(&env).unwrap());
    });
}
