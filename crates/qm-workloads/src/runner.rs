//! Compile–load–run–verify driver shared by tests and the benchmark
//! harness.
//!
//! [`WorkloadRun`] is the single entry point: configure once (system
//! config and compiler options), then
//! [`prepare`](WorkloadRun::prepare) or [`run`](WorkloadRun::run) any
//! number of workloads. Each distinct (source, options, page size) is compiled
//! and verified once per process, through one shared
//! [`CompileCache`], so sweeps that run a workload across many machine
//! shapes pay the front end and the verifier once.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use qm_occam::{sema::SymKind, Options};
use qm_sim::config::SystemConfig;
use qm_sim::system::{RunOutcome, System};
use qm_sim::{Simulation, VerifyLevel};

use crate::cache::{CompileCache, Entry, Lang};
use crate::Workload;

/// Driver failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// The OCCAM source failed to compile.
    Compile(String),
    /// The simulation faulted.
    Sim(String),
    /// An input/expected array name did not resolve.
    Array(String),
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::Compile(m) => write!(f, "compile: {m}"),
            WorkloadError::Sim(m) => write!(f, "sim: {m}"),
            WorkloadError::Array(m) => write!(f, "array: {m}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Result of one benchmark run.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Number of PEs simulated.
    pub pes: usize,
    /// Raw simulator outcome (cycles, statistics…).
    pub outcome: RunOutcome,
    /// True when every expected array and the host output matched.
    pub correct: bool,
    /// Human-readable mismatch descriptions (empty when correct).
    pub mismatches: Vec<String>,
}

/// One point of a Fig. 6.8-style speed-up curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// PEs simulated.
    pub pes: usize,
    /// Wall-clock cycles.
    pub cycles: u64,
    /// Throughput ratio `cycles(1 PE) / cycles(n PEs)`.
    pub throughput_ratio: f64,
}

/// The process-wide cache behind [`WorkloadRun::prepare`].
fn programs() -> &'static CompileCache {
    static PROGRAMS: OnceLock<CompileCache> = OnceLock::new();
    PROGRAMS.get_or_init(CompileCache::new)
}

fn find_array(syms: &HashMap<String, SymKind>, base: &str) -> Result<(u32, u32), WorkloadError> {
    let mut hits = syms.iter().filter_map(|(name, kind)| {
        let stem = name.split('.').next().unwrap_or(name);
        match kind {
            SymKind::Array { addr, len } if stem == base => Some((*addr, *len)),
            _ => None,
        }
    });
    let Some(hit) = hits.next() else {
        return Err(WorkloadError::Array(format!("no array named {base}")));
    };
    if hits.next().is_some() {
        return Err(WorkloadError::Array(format!("array name {base} is ambiguous")));
    }
    Ok(hit)
}

/// One configured workload execution: the system configuration and
/// compiler options, applied to any workload via [`run`](Self::run) or [`prepare`](Self::prepare).
///
/// ```
/// use qm_workloads::{matmul, WorkloadRun};
///
/// let w = matmul(4);
/// let r = WorkloadRun::with_pes(2).run(&w).unwrap();
/// assert!(r.correct);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WorkloadRun {
    /// System configuration (PE count, costs, placement, capacity).
    pub cfg: SystemConfig,
    /// Compiler options.
    pub opts: Options,
}

impl WorkloadRun {
    /// A run on the default 1-PE configuration.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A run on `pes` PEs with default costs and options.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ pes ≤ 1024` (from [`SystemConfig::with_pes`]).
    #[must_use]
    pub fn with_pes(pes: usize) -> Self {
        WorkloadRun { cfg: SystemConfig::with_pes(pes), ..Self::default() }
    }

    /// Use `cfg` as the system configuration.
    #[must_use]
    pub fn config(mut self, cfg: SystemConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Use `opts` as the compiler options.
    #[must_use]
    pub fn options(mut self, opts: Options) -> Self {
        self.opts = opts;
        self
    }

    /// Compile `w`, load it, initialise its input arrays and spawn the
    /// main context — everything short of `run`. Callers that need to
    /// touch the system first (e.g. install a trace sink) use this, then
    /// run and verify themselves (compare the output arrays against
    /// [`Workload::expected`], as [`run`](Self::run) does).
    ///
    /// The program comes from the process-wide [`CompileCache`], so it
    /// is compiled and statically verified once; the returned entry is
    /// the shared one. Verifier findings print to stderr on every call,
    /// as [`VerifyLevel::Warn`] does in the builder.
    ///
    /// # Errors
    ///
    /// [`WorkloadError`] on compile faults or unresolvable input arrays.
    pub fn prepare(&self, w: &Workload) -> Result<(System, Arc<Entry>), WorkloadError> {
        let (entry, _) = programs()
            .lookup(Lang::Occam, &w.source, &self.opts, self.cfg.queue_page_words)
            .map_err(WorkloadError::Compile)?;
        if !entry.report.is_clean() {
            eprint!("{}", entry.report.render());
        }
        let sys = self.prepare_compiled(w, &entry.object, &entry.syms)?;
        Ok((sys, entry))
    }

    /// [`prepare`](Self::prepare) minus the compile: load an
    /// already-compiled `w`, initialise its input arrays and spawn the
    /// main context. This is the entry point for executors that keep
    /// their own [`CompileCache`] (e.g. `qm-serve`'s) — the
    /// `object`/`syms` pair must come from compiling `w.source` under
    /// these options, or array addresses will not line up. It does not
    /// verify: the caller's cache already holds the report.
    ///
    /// # Errors
    ///
    /// [`WorkloadError`] on unresolvable input arrays or a missing
    /// `main` context.
    pub fn prepare_compiled(
        &self,
        w: &Workload,
        object: &qm_isa::asm::Object,
        syms: &HashMap<String, SymKind>,
    ) -> Result<System, WorkloadError> {
        if object.symbol("main").is_none() {
            return Err(WorkloadError::Compile("no main context".into()));
        }
        let mut sys = Simulation::builder()
            .config(self.cfg.clone())
            .object(object)
            .verify(VerifyLevel::Off)
            .no_spawn()
            .build()
            .map_err(|e| WorkloadError::Sim(e.to_string()))?;
        for (base, values) in &w.inputs {
            let (addr, len) = find_array(syms, base)?;
            if values.len() as u32 != len {
                return Err(WorkloadError::Array(format!(
                    "{base}: {} values for a {len}-word array",
                    values.len()
                )));
            }
            for (i, &v) in values.iter().enumerate() {
                #[allow(clippy::cast_possible_truncation)]
                sys.memory.poke_global(addr + 4 * i as u32, v);
            }
        }
        let main = object.symbol("main").expect("checked above");
        sys.spawn_main(main);
        Ok(sys)
    }

    /// Compile `w`, initialise its input arrays, run, and verify the
    /// result arrays and host output.
    ///
    /// # Errors
    ///
    /// [`WorkloadError`] on compile/simulation faults (verification
    /// *mismatches* are reported in [`BenchResult::correct`], not as
    /// errors).
    pub fn run(&self, w: &Workload) -> Result<BenchResult, WorkloadError> {
        let (mut sys, compiled) = self.prepare(w)?;
        let outcome = sys.run().map_err(|e| WorkloadError::Sim(e.to_string()))?;
        self.evaluate(w, &sys, &compiled.syms, outcome)
    }

    /// Check the result arrays and host output of a finished run against
    /// the workload's expectations. Public so external executors that
    /// drive the system themselves (e.g. `qm-serve`'s time-sliced job
    /// runner, which pauses between [`prepare`](Self::prepare) and
    /// completion) can produce the same [`BenchResult`] as
    /// [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Array`] if an expected array name does not
    /// resolve in `syms`.
    pub fn evaluate(
        &self,
        w: &Workload,
        sys: &System,
        syms: &HashMap<String, SymKind>,
        outcome: RunOutcome,
    ) -> Result<BenchResult, WorkloadError> {
        let mut mismatches = Vec::new();
        for (base, expect) in &w.expected {
            let (addr, _len) = find_array(syms, base)?;
            for (i, &want) in expect.iter().enumerate() {
                #[allow(clippy::cast_possible_truncation)]
                let got = sys.memory.peek_global(addr + 4 * i as u32);
                if got != want {
                    mismatches.push(format!("{base}[{i}]: got {got}, want {want}"));
                }
            }
        }
        if outcome.output != w.expected_output {
            mismatches.push(format!(
                "host output: got {:?}, want {:?}",
                outcome.output, w.expected_output
            ));
        }
        Ok(BenchResult { pes: self.cfg.pes, correct: mismatches.is_empty(), mismatches, outcome })
    }
}

/// Run `w` at each PE count and report throughput ratios relative to one
/// PE (the Fig. 6.8/6.10–6.12 curves).
///
/// # Errors
///
/// [`WorkloadError`] if any run fails; panics if any run is incorrect
/// (a wrong parallel run would make the curve meaningless).
///
/// # Panics
///
/// See above.
pub fn speedup_curve(
    w: &Workload,
    pe_counts: &[usize],
    opts: &Options,
) -> Result<Vec<CurvePoint>, WorkloadError> {
    let mut base_cycles = None;
    let mut out = Vec::new();
    for &pes in pe_counts {
        let r = WorkloadRun::with_pes(pes).options(*opts).run(w)?;
        assert!(r.correct, "{} on {pes} PEs: {:?}", w.name, r.mismatches);
        let cycles = r.outcome.elapsed_cycles;
        let base = *base_cycles.get_or_insert(cycles);
        #[allow(clippy::cast_precision_loss)]
        out.push(CurvePoint { pes, cycles, throughput_ratio: base as f64 / cycles as f64 });
    }
    Ok(out)
}
