//! Static queue-discipline verifier for queue machine object code.
//!
//! The thesis's correctness story is *static*: an instruction sequence
//! is executable only if it is a valid sequence for its acyclic DFG
//! (§3.6), and a spliced program only runs if its contexts and channels
//! are wired consistently. The simulator discovers violations
//! dynamically — as deadlocks or garbage reads; this crate proves their
//! absence (or pinpoints them) at load time, in the spirit of classic
//! bytecode verification. Valid sequences themselves are made by
//! construction — `qm_occam`'s emitter lays out the §3.6 queue
//! positions over a `qm_core::dfg::Dag` — so this crate checks the
//! object code they become:
//!
//! * `queue` *(internal)* / [`verify_object`] — abstract queue-state
//!   dataflow per context: definedness of every queue slot at every
//!   program point, underflow, out-of-page `dup` offsets, join
//!   consistency, trap-ABI arity, control-flow sanity.
//! * `wiring` *(internal)* — splice/channel lints over the fork tree:
//!   dangling channels, channels never read, statically guaranteed
//!   wait-for cycles (reported in the same shape as `qm-sim`'s runtime
//!   deadlock reports).
//! * [`deep`] / [`deep_verify`] — the second, deeper tier: whole-program
//!   abstract interpretation (interval/stride value domain in
//!   [`domain`]) proving queue-pointer confinement, per-site address
//!   ranges, static channel-occupancy bounds and a definite channel
//!   verdict; emits the proven facts as a report.
//! * [`names`] — the one formatting helper for context/PC labels shared
//!   with `qm-sim`'s runtime diagnostics.
//!
//! ```
//! use qm_isa::asm::assemble;
//! use qm_verify::{verify_object, VerifyOptions};
//!
//! let obj = assemble(
//!     "main: recv #0,#0 :r0\n\
//!            mul+1 r0,#3 :r0\n\
//!            send+1 #0,r0\n\
//!            trap #2,#0\n",
//! ).unwrap();
//! let report = verify_object(&obj, &VerifyOptions::default());
//! assert!(report.is_clean(), "{}", report.render());
//! ```

mod decoded;
pub mod deep;
pub mod diag;
pub mod domain;
pub mod names;
mod queue;
pub mod traps;
mod wiring;
mod worklist;

pub use deep::{deep_verify, deep_verify_at, DeepReport, Fact, FactKind, Verdict};
pub use diag::{Code, Diagnostic, FastPathCertificate, Report, Severity};

use qm_isa::asm::Object;
use qm_isa::UWord;

/// How strictly the simulator treats verification findings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum VerifyLevel {
    /// Do not run the verifier.
    Off,
    /// Run the verifier and report findings, but never reject.
    #[default]
    Warn,
    /// Reject any program with error-severity findings before it runs.
    Strict,
}

/// Tunables for a verification run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyOptions {
    /// Queue page size in words: the window `dup` offsets may reach.
    /// Must match the simulator's `queue_page_words`.
    pub page_words: u32,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions { page_words: 256 }
    }
}

/// Verify an object starting from its `main` symbol (or the base
/// address when no `main` exists), following constant fork targets into
/// every statically reachable context.
pub fn verify_object(obj: &Object, opts: &VerifyOptions) -> Report {
    let entry = obj.symbol("main").unwrap_or_else(|| obj.base());
    verify_object_at(obj, entry, opts)
}

/// Verify an object with an explicit entry point.
pub fn verify_object_at(obj: &Object, entry: UWord, opts: &VerifyOptions) -> Report {
    let code = decoded::DecodedCode::new(obj);
    let wiring = wiring::WiringPass::new(&code);
    shallow_report(&code, &wiring.build_model(entry), entry, opts, code.round_budget())
}

/// The shallow tier's report — queue pass, then wiring lints — over an
/// object already decoded and a wiring model already built from
/// `entry`, with `budget` transfer steps per context. The deep tier
/// calls it with the pieces it reuses.
fn shallow_report(
    code: &decoded::DecodedCode,
    model: &wiring::WiringModel,
    entry: UWord,
    opts: &VerifyOptions,
    budget: usize,
) -> Report {
    let mut report = Report::with_symbols(code.symbols.clone());
    queue::QueuePass::new(code, opts, budget).run(entry, &mut report);
    wiring::WiringPass::new(code).lint(model, &mut report);
    report.sort();
    report
}
