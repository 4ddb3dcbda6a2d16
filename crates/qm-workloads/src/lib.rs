//! The four thesis benchmark programs (Chapter 6): matrix multiplication,
//! Fast Fourier Transform, Cholesky decomposition and the congruence
//! transformation — each as an OCCAM source (compiled by [`qm_occam`] and
//! executed on [`qm_sim`]) plus a bit-exact Rust reference used to verify
//! the simulated run.
//!
//! The thesis does not reproduce its benchmark sources; these are our own
//! implementations of the four named algorithms (DESIGN.md substitution
//! #3), written to expose the same kind of parallelism the thesis
//! describes (row/column-parallel `par` replication over contexts).
//! The ISA is a 32-bit integer machine, so FFT and Cholesky use Q6
//! fixed-point arithmetic; the references implement the *identical*
//! fixed-point operations so results compare exactly.
//!
//! ```
//! use qm_workloads::{matmul, WorkloadRun};
//! let w = matmul(4);
//! let r = WorkloadRun::with_pes(2).run(&w).unwrap();
//! assert!(r.correct);
//! ```

// Named here as well as in Cargo.toml so a bare `rustc` build that
// passes the verifier's rlib only through `-L` (benchmark/run.py) still
// resolves it.
extern crate qm_verify;

pub mod cache;
pub mod cholesky;
pub mod congruence;
pub mod data;
pub mod fft;
pub mod fixed;
pub mod matmul;
pub mod reduction;
pub mod runner;

pub use cache::{CompileCache, Lang};
pub use cholesky::cholesky;
pub use congruence::congruence;
pub use fft::fft;
pub use matmul::matmul;
pub use reduction::reduction;
pub use runner::{speedup_curve, BenchResult, CurvePoint, WorkloadError, WorkloadRun};

/// A benchmark: OCCAM source, host-initialised input arrays, and the
/// expected contents of the result arrays.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable name.
    pub name: String,
    /// OCCAM source text.
    pub source: String,
    /// `(array base name, contents)` poked into global memory before the
    /// run (the thesis host loads programs and data the same way).
    pub inputs: Vec<(String, Vec<i32>)>,
    /// `(array base name, contents)` that must hold after the run.
    pub expected: Vec<(String, Vec<i32>)>,
    /// Values the program must send to the host channel (checksums).
    pub expected_output: Vec<i32>,
}
