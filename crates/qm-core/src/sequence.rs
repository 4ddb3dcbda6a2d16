//! Valid-sequence checking (thesis §3.6), kept as a test oracle for the
//! construction [`Dag::to_indexed_program`].
//!
//! A linear instruction order is *valid* for an acyclic data-flow graph
//! when it is a topological order under `π_G` and every actor finds its
//! operands — in operand-slot order — exactly where its predecessors'
//! result indices put them. The check replays the program over an
//! abstract queue of *node identities*, not values: each consumed slot
//! must hold precisely the producer the graph names for that operand
//! position, results must land on holes, and the run must end with the
//! sink's value alone at the front. Unlike comparing evaluated results,
//! it catches the swapped operands of a commutative `Add` or `Mul`.

use crate::dfg::{Dag, NodeId};
use crate::expr::Op;
use crate::IndexedProgram;

/// Check that `program` is a valid sequence for `dag` linearised as
/// `order`; the error names the first violation.
pub(crate) fn check_valid_sequence(
    dag: &Dag<Op>,
    order: &[NodeId],
    program: &IndexedProgram,
) -> Result<(), String> {
    if order.len() != dag.len() || program.len() != order.len() {
        return Err(format!(
            "length mismatch: graph has {} node(s), order {}, program {}",
            dag.len(),
            order.len(),
            program.len()
        ));
    }
    if !dag.respects_partial_order(order) {
        return Err("instruction order violates the graph partial order π_G".into());
    }
    let mut queue: Vec<Option<NodeId>> = Vec::new();
    let mut front = 0usize;
    for (k, (&v, instr)) in order.iter().zip(&program.instructions).enumerate() {
        if instr.op != *dag.payload(v) {
            let want = dag.payload(v);
            return Err(format!("instruction {k} is `{}` but node {v} is `{want}`", instr.op));
        }
        let arity = instr.op.arity().operands();
        if dag.vins(v).len() != arity {
            return Err(format!("node {v} has {} inputs, arity needs {arity}", dag.vins(v).len()));
        }
        for (slot, want) in dag.vins(v).iter().enumerate() {
            let got = queue.get(front + slot).copied().flatten();
            if got != Some(want.node) {
                return Err(format!(
                    "instruction {k} (node {v}) operand {slot} should be node {}'s result but \
                     queue position {} holds {got:?}",
                    want.node,
                    front + slot
                ));
            }
        }
        front += arity;
        for &off in &instr.result_offsets {
            let idx = front + off;
            if queue.len() <= idx {
                queue.resize(idx + 1, None);
            }
            if queue[idx].replace(v).is_some() {
                return Err(format!(
                    "instruction {k} (node {v}) result offset {off} lands on live queue \
                     position {idx}"
                ));
            }
        }
    }
    let live: Vec<usize> = (front..queue.len()).filter(|&i| queue[i].is_some()).collect();
    let sink = dag.node_ids().find(|&v| !dag.has_succ(v));
    match (live.as_slice(), sink) {
        ([one], Some(s)) if *one == front && queue[*one] == Some(s) => Ok(()),
        _ => Err(format!(
            "program must end with exactly the sink's value at the queue front; {} live slot(s) \
             remain",
            live.len()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::tests::{add, all_linearisations, fig_3_6_graph, random_op_dag};
    use crate::indexed::{table_3_4_program, IndexedInstruction};
    use crate::rng::check;

    /// The Table 3.4 graph, d ← a/(a+b) + (a+b)·c, in its id order.
    fn table_3_4_dag() -> (Dag<Op>, Vec<NodeId>) {
        let g = fig_3_6_graph();
        let order = g.topo_order();
        (g, order)
    }

    #[test]
    fn construction_output_is_valid() {
        let (g, order) = table_3_4_dag();
        let p = g.to_indexed_program(&order).unwrap();
        check_valid_sequence(&g, &order, &p).unwrap();
    }

    #[test]
    fn thesis_table_3_4_is_valid() {
        let (g, order) = table_3_4_dag();
        check_valid_sequence(&g, &order, &table_3_4_program()).unwrap();
    }

    #[test]
    fn wrong_offset_is_detected() {
        let (g, order) = table_3_4_dag();
        let mut p = g.to_indexed_program(&order).unwrap();
        // Shift one producer's result: a consumer now reads the wrong
        // node (or a hole).
        p.instructions[1].result_offsets[0] += 1;
        let err = check_valid_sequence(&g, &order, &p).unwrap_err();
        assert!(err.contains("operand") || err.contains("live"), "{err}");
    }

    #[test]
    fn wrong_op_is_detected() {
        let (g, order) = table_3_4_dag();
        let mut p = g.to_indexed_program(&order).unwrap();
        p.instructions[3] =
            IndexedInstruction::new(Op::Sub, p.instructions[3].result_offsets.clone());
        let err = check_valid_sequence(&g, &order, &p).unwrap_err();
        assert!(err.contains("instruction 3 is `sub` but node 3 is `add`"), "{err}");
    }

    #[test]
    fn non_topological_order_is_rejected() {
        let (g, mut order) = table_3_4_dag();
        let p = g.to_indexed_program(&order).unwrap();
        order.swap(0, 3); // sum before its operand a
        assert!(check_valid_sequence(&g, &order, &p).unwrap_err().contains("π_G"));
    }

    #[test]
    fn swapped_commutative_operands_are_detected() {
        // a, b, a+b: a lands on slot 0 and b on slot 1. Swapping them
        // evaluates to the same sum but feeds the operands out of order.
        for op in [Op::Add, Op::Mul] {
            let mut g = Dag::new();
            let a = add(&mut g, Op::Fetch("a".into()), &[]);
            let b = add(&mut g, Op::Fetch("b".into()), &[]);
            add(&mut g, op, &[a, b]);
            let order = g.topo_order();
            let mut p = g.to_indexed_program(&order).unwrap();
            assert_eq!(p.instructions[a].result_offsets, [0]);
            assert_eq!(p.instructions[b].result_offsets, [1]);
            p.instructions[a].result_offsets[0] = 1;
            p.instructions[b].result_offsets[0] = 0;
            let env = |n: &str| if n == "a" { 3 } else { 5 };
            assert_eq!(p.evaluate(&env), g.evaluate(&env), "evaluation cannot tell");
            let err = check_valid_sequence(&g, &order, &p).unwrap_err();
            assert!(err.contains("operand 0 should be node 0's result"), "{err}");
        }
    }

    #[test]
    fn every_linearisation_of_random_graphs_is_a_valid_sequence() {
        let env = |n: &str| match n {
            "a" => 3,
            "b" => -2,
            _ => 7,
        };
        check(100, |g| {
            let dag = random_op_dag(g, 4);
            let want = dag.evaluate(&env).unwrap();
            for order in all_linearisations(&dag) {
                let p = dag.to_indexed_program(&order).unwrap();
                check_valid_sequence(&dag, &order, &p).unwrap();
                assert_eq!(p.evaluate(&env).unwrap(), want, "order {order:?}\n{p}");
            }
        });
    }
}
