//! Facade crate re-exporting the whole queue-machine workspace.
//!
//! A reproduction of Preiss, *Data Flow on a Queue Machine* (University of
//! Toronto Ph.D. thesis / ISCA 1985): pseudo-static data flow executed on
//! indexed queue machines.
//!
//! * [`core`] — execution models and data-flow-graph theory (Chapter 3).
//! * [`occam`] — the OCCAM compiler (Chapter 4).
//! * [`isa`] — the processing-element ISA, assembler and emulator
//!   (Chapter 5).
//! * [`verify`] — the static queue-discipline verifier and lint pass
//!   over assembled object code.
//! * [`sim`] — the multiprocessor simulator and kernel (Chapters 5–6).
//! * [`workloads`] — the four thesis benchmark programs (Chapter 6).
//! * [`serve`] — the simulator as a multi-tenant HTTP service speaking
//!   the versioned `qm-api/v1` envelope (`docs/API.md`).
//!
//! The [`prelude`] re-exports the handful of types almost every user
//! touches — `use queue_machine::prelude::*;` and go.
//!
//! # Quickstart
//!
//! ```
//! use queue_machine::core::expr::ParseTree;
//! use queue_machine::core::{simple, stack};
//!
//! let tree = ParseTree::parse_infix("a*b + (c-d)/e")?;
//! let env = |n: &str| match n { "a" => 2, "b" => 3, "c" => 20, "d" => 6, "e" => 7, _ => 0 };
//! assert_eq!(simple::evaluate_tree(&tree, &env)?, stack::evaluate_tree(&tree, &env)?);
//! # Ok::<(), queue_machine::core::ModelError>(())
//! ```

pub use qm_core as core;
pub use qm_isa as isa;
pub use qm_occam as occam;
pub use qm_serve as serve;
pub use qm_sim as sim;
pub use qm_verify as verify;
pub use qm_workloads as workloads;

/// The types most programs start from, under one import.
///
/// ```
/// use queue_machine::prelude::*;
///
/// let r = WorkloadRun::with_pes(2).run(&matmul(4)).unwrap();
/// assert!(r.correct);
/// ```
pub mod prelude {
    pub use qm_occam::{compile, Options};
    pub use qm_sim::config::SystemConfig;
    pub use qm_sim::snapshot::Snapshot;
    pub use qm_sim::system::{RunOutcome, RunStatus, System};
    pub use qm_sim::{SimError, Simulation};
    pub use qm_verify::{verify_object, Report, VerifyLevel, VerifyOptions};
    pub use qm_workloads::{
        cholesky, congruence, fft, matmul, reduction, BenchResult, Workload, WorkloadRun,
    };
}
