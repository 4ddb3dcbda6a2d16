//! Queue machine multiprocessor simulator (thesis §5.5–5.6 and Chapter 6).
//!
//! The simulated system is a set of queue-machine processing elements
//! (from [`qm_isa`]) grouped into partitions of a shared, segmented bus
//! connected in a ring (Fig. 5.18). Each PE has a dedicated *message
//! processor* with a message cache implementing blocking channel
//! rendezvous (Figs 5.13–5.17); a multiprocessing kernel (Chapter 6,
//! reimplemented in Rust per `DESIGN.md` substitution #1) creates,
//! schedules and retires *contexts* — the dynamic data-flow graph splicing
//! mechanism of Chapter 4.
//!
//! * [`config`] — system size, bus/kernel cost parameters and
//!   scheduling policy.
//! * [`msg`] — channel table / message-cache state machines.
//! * [`memory`] — the shared, partitioned memory with ring-bus costs.
//! * [`kernel`] — context records, state machine, kernel entry points.
//! * [`sched`] — the run loop's ready queues and min-clock actor heap.
//! * [`system`] — the top-level simulator and run loop.
//! * [`xlate`] — translated execution, the run loop's engine.
//! * [`builder`] — fluent construction: [`Simulation::builder()`].
//! * [`snapshot`] — in-memory capture/restore of complete machine
//!   state with deterministic-replay guarantees, and its architectural
//!   digest.
//! * [`report`] — the stable `qm-api/v1` JSON wire format for
//!   [`RunOutcome`] and architectural state digests (the contract `qm-serve` serves over HTTP).
//! * [`trace`] — structured event tracing: typed simulator events, the
//!   sink trait, an in-memory recorder and a Chrome trace-event exporter.
//! * [`amdahl`] — the analytic speed-up models of Figs 6.6–6.7.
//! * [`determinism`] — the determinism contract (`docs/DETERMINISM.md`).
//!
//! # Example
//!
//! Run a two-context program where the main context forks a child that
//! doubles a value:
//!
//! ```
//! use qm_sim::{Simulation, SystemConfig};
//!
//! let src = "
//! main:   trap #0,#child :r0,r1   ; rfork → c_in, c_out
//!         send r0,#21             ; argument
//!         recv r1,#0 :r2          ; result
//!         send+3 #0,r2            ; report to host (channel 0)
//!         trap #3,#0              ; halt
//! child:  recv r17,#0 :r0         ; r17 = my in channel
//!         mul+1 r0,#2 :r0
//!         send+1 r18,r0           ; r18 = my out channel
//!         trap #2,#0              ; end context
//! ";
//! let mut sys = Simulation::builder()
//!     .config(SystemConfig::with_pes(2))
//!     .assembly(src)
//!     .build()
//!     .unwrap();
//! let outcome = sys.run().unwrap();
//! assert_eq!(outcome.output, vec![42]);
//! ```

pub mod amdahl;
pub mod builder;
pub mod config;
pub mod kernel;
pub mod memory;
pub mod msg;
pub mod report;
pub mod sched;
pub mod snapshot;
pub mod system;
pub mod trace;
pub mod xlate;

/// The full determinism contract (`docs/DETERMINISM.md`), embedded so
/// `cargo doc` renders it next to the API it governs and the
/// `-D warnings` doc gate lints it alongside the code.
#[doc = include_str!("../../../docs/DETERMINISM.md")]
pub mod determinism {}

pub use builder::{SimBuilder, Simulation};
pub use config::SystemConfig;
// Convenience duplicates of `qm_verify`'s types; the documented way in
// is `qm_verify::{VerifyLevel, VerifyOptions}` (or the facade prelude).
#[doc(hidden)]
pub use qm_verify::{VerifyLevel, VerifyOptions};
pub use snapshot::Snapshot;
pub use system::{BlockedCtx, RunLoopStats, RunOutcome, RunStatus, SimError, System};
pub use trace::{ChromeTrace, Recorder, TraceEvent, TraceRecord, TraceSink, Tracer};

/// Machine word, shared with the rest of the workspace.
pub type Word = qm_isa::Word;
/// Unsigned word / address.
pub type UWord = qm_isa::UWord;
/// Context identifier.
pub type CtxId = usize;
