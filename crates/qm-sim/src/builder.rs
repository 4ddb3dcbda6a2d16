//! Fluent construction of a simulation: [`Simulation::builder()`].
//!
//! Building a runnable system used to take a scatter of calls —
//! `System::new`, `set_trace_sink`, `load_object`, `push_input`,
//! `spawn_main` — in an order the caller had to get right. The builder
//! consolidates them behind one fluent chain:
//!
//! ```
//! use qm_sim::{Simulation, SystemConfig};
//!
//! let src = "
//! main:   recv #0,#0 :r0
//!         mul+1 r0,#3 :r0
//!         send+1 #0,r0
//!         trap #2,#0
//! ";
//! let mut sys = Simulation::builder()
//!     .config(SystemConfig::with_pes(2))
//!     .assembly(src)
//!     .input(14)
//!     .build()
//!     .unwrap();
//! assert_eq!(sys.run().unwrap().output, vec![42]);
//! ```
//!
//! The pre-existing piecewise methods remain as thin delegates (and for
//! post-build mutation such as workload memory initialisation).

use qm_isa::asm::{assemble, Object};
use qm_verify::{verify_object_at, VerifyLevel, VerifyOptions};

use crate::config::SystemConfig;
use crate::system::{SimError, System};
use crate::trace::TraceSink;
use crate::Word;

/// Alias for [`System`] so construction reads as `Simulation::builder()`;
/// the two names are interchangeable.
pub type Simulation = System;

/// Fluent builder for a [`System`]; obtained from [`System::builder`].
///
/// Defaults: a 1-PE [`SystemConfig`], no trace sink, no program, no
/// inputs. When a program is given (via
/// [`object`](Self::object) or [`assembly`](Self::assembly)) the root
/// context is spawned at the `main` label — or the object's base when no
/// such label exists — unless [`no_spawn`](Self::no_spawn) defers it.
#[must_use = "call .build() to obtain the System"]
pub struct SimBuilder {
    cfg: SystemConfig,
    sink: Option<Box<dyn TraceSink>>,
    object: Option<Object>,
    assembly: Option<String>,
    inputs: Vec<Word>,
    spawn: bool,
    verify: VerifyLevel,
}

impl System {
    /// Start building a simulation (see [`crate::builder`]).
    pub fn builder() -> SimBuilder {
        SimBuilder {
            cfg: SystemConfig::default(),
            sink: None,
            object: None,
            assembly: None,
            inputs: Vec::new(),
            spawn: true,
            verify: VerifyLevel::default(),
        }
    }
}

impl SimBuilder {
    /// Use `cfg` as the system configuration.
    pub fn config(mut self, cfg: SystemConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Shorthand for `.config(SystemConfig::with_pes(pes))`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ pes ≤ 1024` (from
    /// [`SystemConfig::with_pes`]).
    pub fn pes(self, pes: usize) -> Self {
        self.config(SystemConfig::with_pes(pes))
    }

    /// Install `sink` as the trace sink (see [`crate::trace`]).
    pub fn trace(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Load the pre-assembled `obj`. Mutually exclusive with
    /// [`assembly`](Self::assembly).
    pub fn object(mut self, obj: &Object) -> Self {
        self.object = Some(obj.clone());
        self
    }

    /// Assemble and load `src`. Mutually exclusive with
    /// [`object`](Self::object).
    pub fn assembly(mut self, src: &str) -> Self {
        self.assembly = Some(src.to_string());
        self
    }

    /// Pre-load host input words (read by `recv` on channel 0), appended
    /// to any given earlier.
    pub fn inputs(mut self, values: &[Word]) -> Self {
        self.inputs.extend_from_slice(values);
        self
    }

    /// Pre-load one host input word.
    pub fn input(mut self, value: Word) -> Self {
        self.inputs.push(value);
        self
    }

    /// Load the program but spawn nothing (the caller will
    /// [`System::spawn_main`] later, e.g. after initialising memory).
    pub fn no_spawn(mut self) -> Self {
        self.spawn = false;
        self
    }

    /// How strictly to statically verify the program before anything
    /// runs (default [`VerifyLevel::Warn`]). The `qm-verify` passes run
    /// over the object code at the entry point, before the
    /// root context is spawned, with the page size taken from the
    /// system configuration:
    ///
    /// * [`VerifyLevel::Off`] — skip verification entirely.
    /// * [`VerifyLevel::Warn`] — print any findings to stderr and build
    ///   anyway.
    /// * [`VerifyLevel::Strict`] — fail the build with
    ///   [`SimError::Verify`] when the verifier finds anything at all,
    ///   warnings included.
    pub fn verify(mut self, level: VerifyLevel) -> Self {
        self.verify = level;
        self
    }

    /// Assemble (if needed), construct the system, install the sink,
    /// load the program, queue the inputs and spawn the root
    /// context.
    ///
    /// # Errors
    ///
    /// [`SimError::Asm`] when the source does not assemble, or when both
    /// a source and an object were given.
    /// [`SimError::Verify`] when [`verify`](Self::verify) is
    /// [`VerifyLevel::Strict`] and the static verifier found anything.
    pub fn build(self) -> Result<System, SimError> {
        let obj = match (self.object, self.assembly) {
            (Some(_), Some(_)) => {
                return Err(SimError::Asm(
                    "both .object() and .assembly() given; pick one".to_string(),
                ))
            }
            (Some(obj), None) => Some(obj),
            (None, Some(src)) => Some(assemble(&src).map_err(|e| SimError::Asm(e.to_string()))?),
            (None, None) => None,
        };
        let page_words = self.cfg.queue_page_words;
        let mut sys = System::new(self.cfg);
        if let Some(sink) = self.sink {
            sys.set_trace_sink(sink);
        }
        for v in self.inputs {
            sys.push_input(v);
        }
        if let Some(obj) = obj {
            sys.load_object(&obj);
            let entry = obj.symbol("main").unwrap_or_else(|| obj.base());
            if self.verify != VerifyLevel::Off {
                let report = verify_object_at(&obj, entry, &VerifyOptions { page_words });
                if !report.is_clean() {
                    if self.verify == VerifyLevel::Strict {
                        return Err(SimError::Verify { report });
                    }
                    eprint!("{}", report.render());
                }
            }
            if self.spawn {
                sys.spawn_main(entry);
            }
        }
        Ok(sys)
    }
}

impl std::fmt::Debug for SimBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimBuilder")
            .field("cfg", &self.cfg)
            .field("trace", &self.sink.is_some())
            .field("object", &self.object.is_some())
            .field("assembly", &self.assembly.is_some())
            .field("inputs", &self.inputs)
            .field("spawn", &self.spawn)
            .field("verify", &self.verify)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ECHO: &str = "
main:   recv #0,#0 :r0
        mul+1 r0,#3 :r0
        send+1 #0,r0
        trap #2,#0
";

    #[test]
    fn builder_matches_piecewise_construction() {
        let mut built = Simulation::builder()
            .config(SystemConfig::with_pes(2))
            .assembly(ECHO)
            .input(14)
            .build()
            .unwrap();
        let mut manual = System::with_assembly(SystemConfig::with_pes(2), ECHO).unwrap();
        manual.push_input(14);
        let a = built.run().unwrap();
        let b = manual.run().unwrap();
        assert_eq!(a, b, "builder and piecewise construction are equivalent");
        assert_eq!(a.output, vec![42]);
    }

    #[test]
    fn builder_accepts_preassembled_objects() {
        let obj = qm_isa::asm::assemble(ECHO).unwrap();
        let mut sys = Simulation::builder().pes(2).object(&obj).inputs(&[14]).build().unwrap();
        assert_eq!(sys.symbol("main"), obj.symbol("main"), "symbols are retained");
        assert_eq!(sys.run().unwrap().output, vec![42]);
    }

    #[test]
    fn builder_rejects_conflicting_programs() {
        let obj = qm_isa::asm::assemble(ECHO).unwrap();
        let err = Simulation::builder().object(&obj).assembly(ECHO).build().unwrap_err();
        assert!(matches!(err, SimError::Asm(_)), "got {err:?}");
    }

    #[test]
    fn no_spawn_defers_the_root_context() {
        let mut sys = Simulation::builder().assembly(ECHO).no_spawn().input(14).build().unwrap();
        let main = sys.symbol("main").unwrap();
        sys.spawn_main(main);
        assert_eq!(sys.run().unwrap().output, vec![42]);
    }

    #[test]
    fn trace_sink_installs_through_the_builder() {
        let rec = crate::trace::Recorder::new(1024);
        let mut sys =
            Simulation::builder().assembly(ECHO).input(1).trace(rec.sink()).build().unwrap();
        sys.run().unwrap();
        assert!(!rec.records().is_empty(), "events flowed to the builder-installed sink");
    }

    // Reads two queue slots nothing ever produced: the verifier proves
    // the underflow statically (QV0001/QV0002 territory).
    const UNDERFLOW: &str = "
main:   plus+2 r0,r1 :r0
        send+1 #0,r0
        trap #2,#0
";

    #[test]
    fn strict_verification_rejects_bad_programs() {
        let err = Simulation::builder()
            .assembly(UNDERFLOW)
            .verify(VerifyLevel::Strict)
            .build()
            .unwrap_err();
        let SimError::Verify { report } = &err else {
            panic!("expected SimError::Verify, got {err:?}");
        };
        assert!(report.has_errors(), "{}", report.render());
        let text = err.to_string();
        assert!(text.contains("static verification rejected"), "{text}");
        assert!(text.contains("QV00"), "diagnostic codes surface in Display: {text}");
    }

    #[test]
    fn warn_verification_reports_but_still_builds() {
        // Default level is Warn: findings go to stderr, the build works.
        let sys = Simulation::builder().assembly(UNDERFLOW).build();
        assert!(sys.is_ok(), "{:?}", sys.err());
    }

    #[test]
    fn verify_off_skips_the_verifier() {
        let sys = Simulation::builder().assembly(UNDERFLOW).verify(VerifyLevel::Off).build();
        assert!(sys.is_ok(), "{:?}", sys.err());
    }

    #[test]
    fn strict_verification_accepts_clean_programs() {
        let mut sys = Simulation::builder()
            .assembly(ECHO)
            .verify(VerifyLevel::Strict)
            .input(14)
            .build()
            .unwrap();
        assert_eq!(sys.run().unwrap().output, vec![42]);
    }

    #[test]
    fn every_verify_level_runs_the_engine() {
        // The verify level decides whether to verify, not which engine
        // runs: a program Strict would reject still translates.
        for (src, verify) in
            [(ECHO, VerifyLevel::Off), (ECHO, VerifyLevel::Warn), (UNDERFLOW, VerifyLevel::Off)]
        {
            let mut sys =
                Simulation::builder().assembly(src).input(14).verify(verify).build().unwrap();
            // UNDERFLOW may fault on its first step; that step still
            // ran through the translation.
            let _ = sys.run_until(1);
            assert!(sys.xlate.is_some(), "{verify:?} build runs translated");
        }
    }

    #[test]
    fn engine_matches_the_step_oracle() {
        let build = || Simulation::builder().pes(2).assembly(ECHO).input(14).build().unwrap();
        let (mut engine, mut oracle) = (build(), build());
        oracle.use_step_oracle();
        let a = engine.run().unwrap();
        let b = oracle.run().unwrap();
        assert!(oracle.xlate.is_none(), "the oracle never translates");
        assert_eq!(a, b, "engine and oracle agree on the complete outcome");
        assert_eq!(
            crate::snapshot::Snapshot::capture(&engine).state_digest(),
            crate::snapshot::Snapshot::capture(&oracle).state_digest(),
            "and on the final machine state"
        );
    }

    #[test]
    fn snapshots_hand_off_between_engine_and_oracle() {
        for oracle_first in [true, false] {
            let mut sys = Simulation::builder().pes(2).assembly(ECHO).input(14).build().unwrap();
            if oracle_first {
                sys.use_step_oracle();
            }
            sys.run_until(4).unwrap();
            let mut resumed = System::restore(&crate::snapshot::Snapshot::capture(&sys)).unwrap();
            if !oracle_first {
                resumed.use_step_oracle();
            }
            let direct = sys.run().unwrap();
            assert_eq!(resumed.run().unwrap(), direct, "oracle first: {oracle_first}");
            assert_eq!(
                crate::snapshot::Snapshot::capture(&sys).state_digest(),
                crate::snapshot::Snapshot::capture(&resumed).state_digest()
            );
        }
    }
}
