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

use std::path::PathBuf;
use std::sync::{Mutex, OnceLock, PoisonError};

use qm_isa::asm::{assemble, Object};
use qm_isa::UWord;
use qm_verify::{verify_object_at, Report, VerifyLevel, VerifyOptions};

use crate::config::SystemConfig;
use crate::snapshot::Snapshot;
use crate::system::{SimError, System};
use crate::trace::TraceSink;
use crate::Word;

/// Alias for [`System`] so construction reads as `Simulation::builder()`;
/// the two names are interchangeable.
pub type Simulation = System;

/// Verification is a pure function of (object, entry, page size), and
/// harnesses that sweep one program across many machine shapes re-verify
/// it per point. A small process-wide memo makes the repeats free.
/// `Object` is `Eq` but not `Hash`, so this is a bounded linear scan —
/// entries are whole programs, so more than a handful is rare.
const VERIFY_MEMO_CAP: usize = 128;

fn verify_memoized(obj: &Object, entry: UWord, page_words: u32) -> Report {
    type Memo = Vec<(Object, UWord, u32, Report)>;
    static MEMO: OnceLock<Mutex<Memo>> = OnceLock::new();
    let memo = MEMO.get_or_init(Mutex::default);
    let guard = memo.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((.., report)) =
        guard.iter().find(|(o, e, p, _)| *e == entry && *p == page_words && o == obj)
    {
        return report.clone();
    }
    drop(guard);
    let report = verify_object_at(obj, entry, &VerifyOptions { page_words });
    let mut guard = memo.lock().unwrap_or_else(PoisonError::into_inner);
    if guard.len() >= VERIFY_MEMO_CAP {
        drop(guard.remove(0));
    }
    guard.push((obj.clone(), entry, page_words, report.clone()));
    report
}

/// Fluent builder for a [`System`]; obtained from [`System::builder`].
///
/// Defaults: a 1-PE [`SystemConfig`], no trace sink, no program, no
/// inputs. When a program is given (via
/// [`object`](Self::object) or [`assembly`](Self::assembly)) the root
/// context is spawned at the `main` label — or the object's base when no
/// such label exists — unless [`no_spawn`](Self::no_spawn) or an
/// explicit [`entry`](Self::entry) overrides that.
#[must_use = "call .build() to obtain the System"]
pub struct SimBuilder {
    cfg: SystemConfig,
    sink: Option<Box<dyn TraceSink>>,
    object: Option<Object>,
    assembly: Option<String>,
    inputs: Vec<Word>,
    entry: Option<String>,
    spawn: bool,
    verify: VerifyLevel,
    snap_every: Option<u64>,
    snap_dir: Option<String>,
    resume_from: Option<PathBuf>,
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
            entry: None,
            spawn: true,
            verify: VerifyLevel::default(),
            snap_every: None,
            snap_dir: None,
            resume_from: None,
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

    /// Spawn the root context at `label` instead of `main`. Unlike the
    /// `main` default, a missing explicit label is a build error.
    pub fn entry(mut self, label: &str) -> Self {
        self.entry = Some(label.to_string());
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
    /// over the object code at the resolved entry point, before the
    /// root context is spawned, with the page size taken from the
    /// system configuration:
    ///
    /// * [`VerifyLevel::Off`] — skip verification entirely.
    /// * [`VerifyLevel::Warn`] — print any findings to stderr and build
    ///   anyway.
    /// * [`VerifyLevel::Strict`] — fail the build with
    ///   [`SimError::Verify`] when the verifier finds anything at all,
    ///   warnings included.
    ///
    /// A [`resume_from`](Self::resume_from) build skips verification:
    /// the snapshot's program was verified when it was first built and
    /// is already mid-run.
    pub fn verify(mut self, level: VerifyLevel) -> Self {
        self.verify = level;
        self
    }

    /// Write an automatic snapshot every `n` cycles while running (see
    /// [`System::set_snapshot_cadence`]). Files named
    /// `qm-snap-<cycle>.snap` land in the directory given by
    /// [`snapshot_dir`](Self::snapshot_dir) (default: the current
    /// directory).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn snapshot_every(mut self, n: u64) -> Self {
        assert!(n > 0, "snapshot cadence must be positive");
        self.snap_every = Some(n);
        self
    }

    /// Directory automatic snapshots are written into (used with
    /// [`snapshot_every`](Self::snapshot_every)).
    pub fn snapshot_dir(mut self, dir: impl Into<String>) -> Self {
        self.snap_dir = Some(dir.into());
        self
    }

    /// Resume from a snapshot file instead of building a fresh system.
    /// The restored run continues bit-identically to the captured one.
    /// Mutually exclusive with [`object`](Self::object),
    /// [`assembly`](Self::assembly), [`inputs`](Self::inputs) and
    /// [`entry`](Self::entry) — the snapshot already carries the program
    /// and its pending inputs, so overriding any of them would break the
    /// replay guarantee. A trace sink and a snapshot
    /// cadence may still be installed (host-side observers, not machine
    /// state).
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume_from = Some(path.into());
        self
    }

    /// Assemble (if needed), construct the system, install the sink,
    /// load the program, queue the inputs and spawn the root
    /// context.
    ///
    /// # Errors
    ///
    /// [`SimError::Asm`] when the source does not assemble, when both a
    /// source and an object were given, or when an explicit
    /// [`entry`](Self::entry) label is absent from the program.
    /// [`SimError::Verify`] when [`verify`](Self::verify) is
    /// [`VerifyLevel::Strict`] and the static verifier found anything.
    /// [`SimError::Snapshot`] when [`resume_from`](Self::resume_from)
    /// was combined with program or input options, or the snapshot
    /// cannot be read.
    pub fn build(self) -> Result<System, SimError> {
        if let Some(path) = &self.resume_from {
            if self.object.is_some()
                || self.assembly.is_some()
                || !self.inputs.is_empty()
                || self.entry.is_some()
                || !self.spawn
            {
                return Err(SimError::Snapshot(
                    "resume_from() carries the complete machine state; it cannot be \
                     combined with object/assembly/inputs/entry/no_spawn"
                        .to_string(),
                ));
            }
            let snap = Snapshot::read_from(path).map_err(|e| SimError::Snapshot(e.to_string()))?;
            let mut sys = System::restore(&snap).map_err(|e| SimError::Snapshot(e.to_string()))?;
            if let Some(sink) = self.sink {
                sys.set_trace_sink(sink);
            }
            if let Some(every) = self.snap_every {
                sys.set_snapshot_cadence(every, self.snap_dir.unwrap_or_else(|| ".".to_string()));
            }
            return Ok(sys);
        }
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
            let entry = match &self.entry {
                Some(label) => obj
                    .symbol(label)
                    .ok_or_else(|| SimError::Asm(format!("entry label {label:?} not found")))?,
                None => obj.symbol("main").unwrap_or_else(|| obj.base()),
            };
            if self.verify != VerifyLevel::Off {
                let report = verify_memoized(&obj, entry, page_words);
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
        } else if self.entry.is_some() {
            return Err(SimError::Asm("entry label given but no program loaded".to_string()));
        }
        if let Some(every) = self.snap_every {
            sys.set_snapshot_cadence(every, self.snap_dir.unwrap_or_else(|| ".".to_string()));
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
            .field("entry", &self.entry)
            .field("spawn", &self.spawn)
            .field("verify", &self.verify)
            .field("snap_every", &self.snap_every)
            .field("snap_dir", &self.snap_dir)
            .field("resume_from", &self.resume_from)
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
    fn builder_rejects_missing_entry_label() {
        let err = Simulation::builder().assembly(ECHO).entry("nowhere").build().unwrap_err();
        assert!(matches!(err, SimError::Asm(ref m) if m.contains("nowhere")), "got {err:?}");
        let err = Simulation::builder().entry("main").build().unwrap_err();
        assert!(matches!(err, SimError::Asm(_)), "entry without a program: {err:?}");
    }

    #[test]
    fn explicit_entry_spawns_elsewhere() {
        let src = "
main:   send+1 #0,#1
        trap #2,#0
alt:    send+1 #0,#2
        trap #2,#0
";
        let mut sys = Simulation::builder().assembly(src).entry("alt").build().unwrap();
        assert_eq!(sys.run().unwrap().output, vec![2]);
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

    #[test]
    fn resume_from_rejects_program_options() {
        let err = Simulation::builder()
            .resume_from("/nonexistent.snap")
            .assembly(ECHO)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, SimError::Snapshot(ref m) if m.contains("cannot be combined")),
            "got {err:?}"
        );
        let err = Simulation::builder()
            .resume_from("/nonexistent.snap")
            .entry("main")
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::Snapshot(_)), "got {err:?}");
    }

    #[test]
    fn resume_from_reports_unreadable_files() {
        let err = Simulation::builder().resume_from("/nonexistent/qm.snap").build().unwrap_err();
        assert!(matches!(err, SimError::Snapshot(_)), "got {err:?}");
    }

    #[test]
    fn resume_from_round_trips_through_a_file() {
        let mut sys = Simulation::builder().pes(2).assembly(ECHO).input(14).build().unwrap();
        let status = sys.run_until(4).unwrap();
        assert!(matches!(status, crate::system::RunStatus::Paused { .. }));
        let dir = std::env::temp_dir().join(format!("qm-builder-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mid.snap");
        crate::snapshot::Snapshot::capture(&sys).write_to(&path).unwrap();
        let mut resumed = Simulation::builder().resume_from(&path).build().unwrap();
        let direct = sys.run().unwrap();
        assert_eq!(resumed.run().unwrap(), direct, "resumed run matches the uninterrupted one");
        assert_eq!(direct.output, vec![42]);
        std::fs::remove_dir_all(&dir).ok();
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
        let dir = std::env::temp_dir().join(format!("qm-builder-xlate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for oracle_first in [true, false] {
            let mut sys = Simulation::builder().pes(2).assembly(ECHO).input(14).build().unwrap();
            if oracle_first {
                sys.use_step_oracle();
            }
            sys.run_until(4).unwrap();
            let path = dir.join("cross.snap");
            crate::snapshot::Snapshot::capture(&sys).write_to(&path).unwrap();
            let mut resumed = Simulation::builder().resume_from(&path).build().unwrap();
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
        std::fs::remove_dir_all(&dir).ok();
    }
}
