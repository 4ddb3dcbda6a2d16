//! The indexed queue machine execution model (thesis §3.5).
//!
//! An indexed queue machine still consumes operands only from the **front**
//! of the operand queue, but each instruction carries a set of *result
//! indices*: offsets (from the front of the queue after the instruction's
//! operands have been removed) at which copies of the result are stored.
//! This lets common subexpressions fan out without re-computation, which is
//! exactly what evaluating an acyclic *data-flow graph* (rather than a
//! tree) requires.

use crate::expr::Op;
use crate::{ModelError, Result, Word};

/// An indexed queue machine instruction: an operator plus the offsets
/// (relative to the post-consumption queue front) where its result is
/// stored.
///
/// An empty `result_offsets` set is allowed — the result is discarded —
/// matching the formal definition's "possibly empty set of non-negative
/// integers".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexedInstruction {
    /// The operator to apply.
    pub op: Op,
    /// Offsets from the queue front (after operand removal) receiving
    /// copies of the result.
    pub result_offsets: Vec<usize>,
}

impl IndexedInstruction {
    /// Construct an instruction.
    #[must_use]
    pub fn new(op: Op, result_offsets: Vec<usize>) -> Self {
        IndexedInstruction { op, result_offsets }
    }
}

impl std::fmt::Display for IndexedInstruction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.op.mnemonic())?;
        if !self.result_offsets.is_empty() {
            let offs: Vec<String> = self.result_offsets.iter().map(ToString::to_string).collect();
            write!(f, " :{}", offs.join(","))?;
        }
        Ok(())
    }
}

/// A complete indexed queue machine program.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IndexedProgram {
    /// The instructions, in execution order.
    pub instructions: Vec<IndexedInstruction>,
}

/// One state in the evaluation of an indexed program: the queue is a sparse
/// array of slots (`None` = the ε "hole" of the formal model) plus the
/// index of the current front.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct State {
    /// Index of the next instruction.
    pub next: usize,
    /// Queue slots from the current front onwards (`None` = hole).
    pub queue: Vec<Option<Word>>,
    /// Absolute index of the queue front (`r_i` in the thesis).
    pub front: usize,
}

/// Trace of an indexed program evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// All machine states including the final one.
    pub states: Vec<State>,
    /// The result left at the front of the queue.
    pub result: Word,
}

impl IndexedProgram {
    /// Create a program from instructions.
    #[must_use]
    pub fn new(instructions: Vec<IndexedInstruction>) -> Self {
        IndexedProgram { instructions }
    }

    /// Evaluate the program.
    ///
    /// # Errors
    ///
    /// * [`ModelError::HoleAtFront`] if an operand slot was never written;
    /// * [`ModelError::Overwrite`] if a result lands on a live slot (the
    ///   "must not overwrite" rule of §3.5);
    /// * [`ModelError::ResidualOperands`] if more than one live value
    ///   remains at the end;
    /// * [`ModelError::DivideByZero`] from arithmetic.
    pub fn evaluate(&self, env: &dyn Fn(&str) -> Word) -> Result<Word> {
        Ok(self.trace(env)?.result)
    }

    /// Evaluate the program, recording every state.
    ///
    /// # Errors
    ///
    /// See [`IndexedProgram::evaluate`].
    pub fn trace(&self, env: &dyn Fn(&str) -> Word) -> Result<Trace> {
        let mut queue: Vec<Option<Word>> = Vec::new();
        let mut front = 0usize;
        let mut states = Vec::with_capacity(self.instructions.len() + 1);
        let snapshot = |queue: &Vec<Option<Word>>, front: usize, next: usize| State {
            next,
            queue: queue[front.min(queue.len())..].to_vec(),
            front,
        };
        for (i, instr) in self.instructions.iter().enumerate() {
            states.push(snapshot(&queue, front, i));
            let needed = instr.op.arity().operands();
            let mut args = Vec::with_capacity(needed);
            for k in 0..needed {
                let idx = front + k;
                match queue.get(idx).copied().flatten() {
                    Some(v) => args.push(v),
                    None => return Err(ModelError::HoleAtFront { at: i, index: idx }),
                }
            }
            front += needed;
            let value = instr.op.apply(&args, env)?;
            for &off in &instr.result_offsets {
                let idx = front + off;
                if queue.len() <= idx {
                    queue.resize(idx + 1, None);
                }
                if queue[idx].is_some() {
                    return Err(ModelError::Overwrite { at: i, index: idx });
                }
                queue[idx] = Some(value);
            }
        }
        states.push(snapshot(&queue, front, self.instructions.len()));
        // Exactly one live value, at the front.
        let live: Vec<usize> =
            (0..queue.len()).filter(|&i| i >= front && queue[i].is_some()).collect();
        if live.len() != 1 || live[0] != front {
            return Err(ModelError::ResidualOperands { left: live.len() });
        }
        Ok(Trace { states, result: queue[front].expect("checked live") })
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// True when the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }
}

impl std::fmt::Display for IndexedProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for instr in &self.instructions {
            writeln!(f, "{instr}")?;
        }
        Ok(())
    }
}

/// Build the Table 3.4 program for `d ← a/(a+b) + (a+b)·c` directly.
///
/// This is the worked example of §3.5: seven instructions instead of the
/// eleven a simple queue machine would need, because `a + b` is computed
/// once and fanned out by result indices.
#[cfg(test)]
pub(crate) fn table_3_4_program() -> IndexedProgram {
    IndexedProgram::new(vec![
        IndexedInstruction::new(Op::Fetch("a".into()), vec![0, 2]),
        IndexedInstruction::new(Op::Fetch("b".into()), vec![1]),
        IndexedInstruction::new(Op::Fetch("c".into()), vec![5]),
        IndexedInstruction::new(Op::Add, vec![1, 2]),
        IndexedInstruction::new(Op::Div, vec![2]),
        IndexedInstruction::new(Op::Mul, vec![1]),
        IndexedInstruction::new(Op::Add, vec![0]),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(n: &str) -> Word {
        match n {
            "a" => 12,
            "b" => 4,
            "c" => 3,
            _ => 0,
        }
    }

    #[test]
    fn table_3_4_evaluates_correctly() {
        // d ← a/(a+b) + (a+b)c with a=12, b=4, c=3:
        //   12/16 + 16*3 = 0 + 48 = 48 (integer division).
        let p = table_3_4_program();
        #[allow(clippy::identity_op)]
        let expected = (12 / 16) + 16 * 3; // a/(a+b) truncates to 0
        assert_eq!(p.evaluate(&env).unwrap(), expected);
    }

    #[test]
    fn table_3_4_uses_seven_instructions() {
        assert_eq!(table_3_4_program().len(), 7);
    }

    #[test]
    fn simple_queue_is_a_special_case() {
        // A simple-queue program is an indexed program where every result
        // goes to the first free slot past the live region. Rebuild the
        // Table 3.1 program in indexed form.
        let p = IndexedProgram::new(vec![
            IndexedInstruction::new(Op::Fetch("c".into()), vec![0]),
            IndexedInstruction::new(Op::Fetch("d".into()), vec![1]),
            IndexedInstruction::new(Op::Fetch("a".into()), vec![2]),
            IndexedInstruction::new(Op::Fetch("b".into()), vec![3]),
            IndexedInstruction::new(Op::Sub, vec![2]),
            IndexedInstruction::new(Op::Fetch("e".into()), vec![3]),
            IndexedInstruction::new(Op::Mul, vec![2]),
            IndexedInstruction::new(Op::Div, vec![1]),
            IndexedInstruction::new(Op::Add, vec![0]),
        ]);
        let env = |n: &str| match n {
            "a" => 2,
            "b" => 3,
            "c" => 20,
            "d" => 6,
            "e" => 7,
            _ => 0,
        };
        assert_eq!(p.evaluate(&env).unwrap(), 8);
    }

    #[test]
    fn hole_at_front_is_detected() {
        // add consumes two slots but only slot 1 was written.
        let p = IndexedProgram::new(vec![
            IndexedInstruction::new(Op::Fetch("a".into()), vec![1]),
            IndexedInstruction::new(Op::Fetch("b".into()), vec![2]),
            IndexedInstruction::new(Op::Add, vec![0]),
        ]);
        assert!(matches!(p.evaluate(&env), Err(ModelError::HoleAtFront { at: 2, index: 0 })));
    }

    #[test]
    fn overwrite_is_detected() {
        let p = IndexedProgram::new(vec![
            IndexedInstruction::new(Op::Fetch("a".into()), vec![0]),
            IndexedInstruction::new(Op::Fetch("b".into()), vec![0]),
        ]);
        assert!(matches!(p.evaluate(&env), Err(ModelError::Overwrite { at: 1, index: 0 })));
    }

    #[test]
    fn discarded_results_are_allowed() {
        let p = IndexedProgram::new(vec![
            IndexedInstruction::new(Op::Fetch("a".into()), vec![]),
            IndexedInstruction::new(Op::Fetch("b".into()), vec![0]),
        ]);
        assert_eq!(p.evaluate(&env).unwrap(), 4);
    }

    #[test]
    fn display_formats_offsets() {
        let i = IndexedInstruction::new(Op::Add, vec![1, 2]);
        assert_eq!(i.to_string(), "add :1,2");
    }

    #[test]
    fn max_live_slots_of_table_3_4() {
        // Queue occupancy peaks at 4 live values (a, b, a, c before add).
        let t = table_3_4_program().trace(&env).unwrap();
        let live = t.states.iter().map(|s| s.queue.iter().filter(|v| v.is_some()).count());
        assert_eq!(live.max(), Some(4));
    }
}
