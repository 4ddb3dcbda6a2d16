//! Queue machine execution models.
//!
//! This crate implements the theory of Chapters 3 and 4 of Preiss,
//! *Data Flow on a Queue Machine*:
//!
//! * [`expr`] — binary expression parse trees (nullary / unary / binary
//!   operators) and a tiny infix expression parser for building them.
//! * [`level_order`] — the level-order precedence relation `π_T`, the
//!   *level-order conjugate tree*, and the linear-time level-order traversal
//!   obtained by an in-order walk of the conjugate (thesis Fig. 3.3).
//! * [`simple`] — the simple queue machine execution model `E(I)`: operands
//!   are taken from the **front** of a FIFO operand queue and results are
//!   appended at the **rear**.
//! * [`stack`] — the classical stack machine comparator (post-order
//!   traversal), used as the baseline throughout Chapter 3.
//! * [`enumerate`] — exhaustive enumeration of all unary–binary parse-tree
//!   shapes with a given node count (used by the Table 3.2/3.3 studies).
//! * [`pipeline`] — cycle models for `n`-stage pipelined ALUs under the
//!   thesis's case 1 (non-overlapped fetch) and case 2 (overlapped fetch)
//!   assumptions.
//! * [`indexed`] — the indexed queue machine: results may be stored at any
//!   offset from the front of the queue, operands are still consumed from
//!   the front only.
//! * [`dfg`] — acyclic data-flow graphs, the one graph type of the
//!   workspace (the OCCAM compiler's per-context graphs are `Dag`s too):
//!   the partial order `π_G`, generation of valid indexed-queue-machine
//!   instruction sequences, the input sequencing relation `π_I` (with
//!   `P*`, `I*`, `C(v)`, `W(v)`), and the priority-based instruction
//!   scheduling heuristic of Fig. 4.20.
//! * [`json`] — infrastructure, not thesis theory: the workspace's shared
//!   JSON writer/parser and the versioned `qm-api/v1` report envelope
//!   (it lives here, at the bottom of the crate graph, so every crate's
//!   renderer uses the same escaping and float formatting).
//! * [`alloc_count`] — test infrastructure: the counting global allocator
//!   behind the workspace's allocation-bound tests.
//! * [`rng`] — infrastructure too: the SplitMix64 mixer behind fault
//!   draws and snapshot checksums, and the seeded property harness
//!   ([`rng::check`]) every randomized test in the workspace runs on.
//!
//! # Quick example
//!
//! Evaluate `f ← a·b + (c − d)/e` on both machines and observe that the
//! queue machine sequence is a permutation of the stack machine sequence:
//!
//! ```
//! use qm_core::expr::ParseTree;
//! use qm_core::{simple, stack};
//!
//! let tree = ParseTree::parse_infix("a*b + (c-d)/e").unwrap();
//! let env = |name: &str| match name {
//!     "a" => 2, "b" => 3, "c" => 20, "d" => 6, "e" => 7, _ => 0,
//! };
//! let queue_result = simple::evaluate_tree(&tree, &env).unwrap();
//! let stack_result = stack::evaluate_tree(&tree, &env).unwrap();
//! assert_eq!(queue_result, 2 * 3 + (20 - 6) / 7);
//! assert_eq!(queue_result, stack_result);
//! ```

pub mod alloc_count;
pub mod dfg;
pub mod enumerate;
pub mod expr;
pub mod indexed;
pub mod json;
pub mod level_order;
pub mod pipeline;
pub mod rng;
#[cfg(test)]
mod sequence;
pub mod simple;
pub mod stack;

pub use expr::{Arity, Op, ParseTree};
pub use indexed::{IndexedInstruction, IndexedProgram};
pub use level_order::level_order_sequence;

/// Machine word used by every execution model in this workspace.
///
/// The thesis machine is a 32-bit two's-complement word machine; all
/// arithmetic in the models wraps exactly like the hardware would.
pub type Word = i32;

/// Errors produced by the execution models in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// An instruction required more operands than the queue/stack held.
    OperandUnderflow {
        /// Instruction index in the sequence being evaluated.
        at: usize,
        /// Operands required by the instruction.
        needed: usize,
        /// Operands actually available.
        available: usize,
    },
    /// Evaluation finished with a queue/stack that did not hold exactly the
    /// single result value.
    ResidualOperands {
        /// Number of values left over.
        left: usize,
    },
    /// An indexed-queue instruction read a queue slot that was never
    /// written (a "hole" reached the front of the queue).
    HoleAtFront {
        /// Instruction index in the sequence being evaluated.
        at: usize,
        /// Absolute queue index of the hole.
        index: usize,
    },
    /// An indexed-queue instruction attempted to overwrite a slot that was
    /// already written and not yet consumed.
    Overwrite {
        /// Instruction index in the sequence being evaluated.
        at: usize,
        /// Absolute queue index of the collision.
        index: usize,
    },
    /// An indexed-queue instruction stored a result at an index before the
    /// current front of the queue.
    StoreBehindFront {
        /// Instruction index in the sequence being evaluated.
        at: usize,
        /// Absolute queue index of the attempted store.
        index: usize,
        /// Absolute index of the queue front at that time.
        front: usize,
    },
    /// An expression failed to parse.
    Parse(String),
    /// Division by zero during evaluation.
    DivideByZero,
    /// A data-flow graph was malformed (see message).
    MalformedGraph(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::OperandUnderflow { at, needed, available } => write!(
                f,
                "instruction {at} needed {needed} operand(s) but only {available} available"
            ),
            ModelError::ResidualOperands { left } => {
                write!(f, "evaluation left {left} residual operand(s)")
            }
            ModelError::HoleAtFront { at, index } => {
                write!(f, "instruction {at} read unwritten queue slot {index}")
            }
            ModelError::Overwrite { at, index } => {
                write!(f, "instruction {at} overwrote live queue slot {index}")
            }
            ModelError::StoreBehindFront { at, index, front } => {
                write!(f, "instruction {at} stored at index {index} behind queue front {front}")
            }
            ModelError::Parse(msg) => write!(f, "parse error: {msg}"),
            ModelError::DivideByZero => write!(f, "division by zero"),
            ModelError::MalformedGraph(msg) => write!(f, "malformed data-flow graph: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, ModelError>;
