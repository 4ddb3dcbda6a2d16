//! The stack machine comparator (thesis §3.2, Table 3.1).
//!
//! A stack machine pops its operands from the top of an operand stack and
//! pushes the result back. Its program for an expression is the post-order
//! traversal of the parse tree. Used throughout Chapter 3 as the baseline
//! the queue machine is compared against.

use crate::expr::{Op, ParseTree};
use crate::{ModelError, Result, Word};

/// One state in a stack machine evaluation (mirror of
/// [`crate::simple::State`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct State {
    /// Index of the next operator.
    pub next: usize,
    /// Stack contents, bottom first (top of stack is the last element).
    pub stack: Vec<Word>,
}

/// Trace of a stack machine evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Every machine state, including the final one.
    pub states: Vec<State>,
    /// Final result.
    pub result: Word,
}

/// Evaluate an operator sequence on the stack machine.
///
/// For binary operators the *first* popped value is the right operand (it
/// was pushed last), matching the usual post-order convention.
///
/// # Errors
///
/// Same failure modes as [`crate::simple::evaluate`].
pub fn evaluate(ops: &[Op], env: &dyn Fn(&str) -> Word) -> Result<Word> {
    Ok(trace(ops, env)?.result)
}

/// Evaluate an operator sequence, recording every machine state.
///
/// # Errors
///
/// Same failure modes as [`crate::simple::evaluate`].
pub fn trace(ops: &[Op], env: &dyn Fn(&str) -> Word) -> Result<Trace> {
    let mut stack: Vec<Word> = Vec::new();
    let mut states = Vec::with_capacity(ops.len() + 1);
    for (i, op) in ops.iter().enumerate() {
        states.push(State { next: i, stack: stack.clone() });
        let needed = op.arity().operands();
        if stack.len() < needed {
            return Err(ModelError::OperandUnderflow { at: i, needed, available: stack.len() });
        }
        let split = stack.len() - needed;
        let args: Vec<Word> = stack.split_off(split);
        stack.push(op.apply(&args, env)?);
    }
    states.push(State { next: ops.len(), stack: stack.clone() });
    if stack.len() != 1 {
        return Err(ModelError::ResidualOperands { left: stack.len() });
    }
    Ok(Trace { states, result: stack[0] })
}

/// Compile a parse tree to its stack program (post-order traversal) and
/// evaluate it.
///
/// # Errors
///
/// Same failure modes as [`crate::simple::evaluate`].
pub fn evaluate_tree(tree: &ParseTree, env: &dyn Fn(&str) -> Word) -> Result<Word> {
    evaluate(&tree.post_order(), env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ParseTree;

    /// Maximum stack depth needed to evaluate `ops`.
    fn max_stack_depth(ops: &[Op], env: &dyn Fn(&str) -> Word) -> Result<usize> {
        let t = trace(ops, env)?;
        Ok(t.states.iter().map(|s| s.stack.len()).max().unwrap_or(0))
    }

    fn env(n: &str) -> Word {
        match n {
            "a" => 2,
            "b" => 3,
            "c" => 20,
            "d" => 6,
            "e" => 7,
            _ => 0,
        }
    }

    #[test]
    fn table_3_1_stack_evaluation() {
        let tree = ParseTree::parse_infix("a*b + (c-d)/e").unwrap();
        assert_eq!(evaluate_tree(&tree, &env).unwrap(), 2 * 3 + (20 - 6) / 7);
    }

    #[test]
    fn subtraction_operand_order() {
        let tree = ParseTree::parse_infix("c-d").unwrap();
        assert_eq!(evaluate_tree(&tree, &env).unwrap(), 14);
    }

    #[test]
    fn stack_and_queue_agree_on_examples() {
        for src in ["a", "-a", "a-b", "a*b+c", "a/(a+b)+(a+b)*c", "((a+b)*(-c))/d"] {
            let tree = ParseTree::parse_infix(src).unwrap();
            let direct = tree.evaluate(&env).unwrap();
            assert_eq!(evaluate_tree(&tree, &env).unwrap(), direct, "stack vs direct for {src}");
            assert_eq!(
                crate::simple::evaluate_tree(&tree, &env).unwrap(),
                direct,
                "queue vs direct for {src}"
            );
        }
    }

    #[test]
    fn table_3_1_intermediate_stack_states() {
        // Stack contents from Table 3.1 (top of stack printed first there;
        // we store bottom-first): a | b,a | ab | c,ab | …
        let tree = ParseTree::parse_infix("a*b + (c-d)/e").unwrap();
        let t = trace(&tree.post_order(), &env).unwrap();
        let stacks: Vec<Vec<Word>> = t.states.iter().map(|s| s.stack.clone()).collect();
        assert_eq!(
            stacks,
            vec![
                vec![],
                vec![2],
                vec![2, 3],
                vec![6],
                vec![6, 20],
                vec![6, 20, 6],
                vec![6, 14],
                vec![6, 14, 7],
                vec![6, 2],
                vec![8],
            ]
        );
    }

    #[test]
    fn underflow_detected() {
        assert!(evaluate(&[Op::Neg], &|_| 0).is_err());
    }

    #[test]
    fn stack_depth_of_right_chain_grows() {
        // a + (b + (c + d)) needs 4 stack slots but the equivalent left
        // chain needs only 2: classic stack-machine asymmetry.
        let right = ParseTree::parse_infix("a+(b+(c+d))").unwrap();
        let left = ParseTree::parse_infix("((a+b)+c)+d").unwrap();
        assert_eq!(max_stack_depth(&right.post_order(), &env).unwrap(), 4);
        assert_eq!(max_stack_depth(&left.post_order(), &env).unwrap(), 2);
    }
}
