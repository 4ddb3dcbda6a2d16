//! Deterministic replay and divergence bisection on top of
//! `qm_sim::snapshot`.
//!
//! Because a snapshot restores bit-identically and every run is
//! deterministic, two configuration [`Variant`]s launched from the *same*
//! mid-run snapshot either stay digest-identical forever or split at one
//! well-defined cycle. [`bisect`] finds that cycle by binary search: each
//! probe restores both variants fresh from the snapshot, runs them
//! forward to a candidate cycle and compares architectural
//! [state digests](qm_sim::snapshot::Snapshot::state_digest) — O(log n)
//! full replays instead of a lock-step walk. The result is a
//! [`DivergenceReport`]: the first divergent cycle plus each variant's
//! final outcome and wait-for state at the split, in the same spirit as
//! the deadlock reports.
//!
//! `bin/replay.rs` drives this as a demo (round-robin vs local placement
//! of matmul from a shared checkpoint). [`smoke`] is the capture,
//! restore and resume check that the `smoke_passes` unit test runs.

use std::fmt;

use qm_sim::config::Placement;
use qm_sim::snapshot::Snapshot;
use qm_sim::system::{RunOutcome, RunStatus, System};
use qm_workloads::WorkloadRun;

/// One way of continuing a run from a shared snapshot: an optional
/// placement-policy override applied after restore. Two variants with no
/// overrides are the degenerate (never-diverging) case.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Display name, e.g. `round-robin`.
    pub name: String,
    /// Placement-policy override (`None` keeps the snapshot's policy).
    pub placement: Option<Placement>,
}

impl Variant {
    /// A variant that continues the snapshot unchanged.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Variant { name: name.into(), placement: None }
    }

    /// The same variant with a placement-policy override.
    #[must_use]
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = Some(placement);
        self
    }

    /// Restore the snapshot and apply this variant's overrides.
    #[must_use]
    pub fn instantiate(&self, snap: &Snapshot) -> System {
        let mut sys = System::restore(snap);
        if let Some(placement) = self.placement {
            sys.set_placement(placement);
        }
        sys
    }
}

/// The architectural state digest of `variant` run forward from `snap`
/// to cycle `k`. Runs that die before `k` (a deadlock or an instruction
/// budget) die deterministically too, so their digest is a checksum of
/// the structured error — still comparable, so bisection keeps working
/// across the death cycle.
#[must_use]
pub fn digest_at(snap: &Snapshot, variant: &Variant, k: u64) -> u64 {
    let mut sys = variant.instantiate(snap);
    match sys.run_until(k) {
        Ok(_) => Snapshot::capture(&sys).state_digest(),
        Err(e) => qm_core::rng::checksum(e.to_string().as_bytes()),
    }
}

/// One variant's side of a [`DivergenceReport`].
#[derive(Debug, Clone)]
pub struct VariantReport {
    /// The variant's display name.
    pub name: String,
    /// Its final result when run from the snapshot to completion.
    pub outcome: Result<RunOutcome, String>,
    /// Cycles elapsed when the run finished (or died).
    pub final_cycles: u64,
    /// Wait-for lines (blocked contexts) at the first divergent cycle (at
    /// the capture cycle when the variants never diverge).
    pub wait_for_at_split: Vec<String>,
}

/// The verdict of [`bisect`]: where two variants' executions split, and
/// what each side looked like there and at the end.
#[derive(Debug, Clone)]
pub struct DivergenceReport {
    /// Cycle the shared snapshot was captured at.
    pub captured_at: u64,
    /// First cycle at which the variants' architectural digests differ
    /// (`None`: they ran to identical conclusions).
    pub first_divergent_cycle: Option<u64>,
    /// Per-variant detail, in the order passed to [`bisect`].
    pub variants: Vec<VariantReport>,
}

impl DivergenceReport {
    /// Serialise as a `qm-api/v1` `divergence_report` envelope (see
    /// `docs/API.md`): the capture cycle, the first divergent cycle
    /// (`null` when the variants never diverge) and per-variant detail —
    /// outcome (an embedded `run_outcome` body, or the error string for
    /// runs that died) and wait-for state at the split.
    #[must_use]
    pub fn to_json(&self) -> String {
        use qm_core::json::Envelope;
        Envelope::render("divergence_report", |j| {
            j.u64_field("captured_at", self.captured_at);
            j.key("first_divergent_cycle");
            match self.first_divergent_cycle {
                Some(c) => j.u64_val(c),
                None => j.null_val(),
            }
            j.key("variants");
            j.begin_arr();
            for v in &self.variants {
                j.begin_obj();
                j.str_field("name", &v.name);
                j.u64_field("final_cycles", v.final_cycles);
                match &v.outcome {
                    Ok(o) => {
                        j.key("outcome");
                        j.begin_obj();
                        qm_sim::report::write_run_outcome(j, o);
                        j.end_obj();
                    }
                    Err(e) => j.str_field("error", e),
                }
                j.key("wait_for_at_split");
                j.begin_arr();
                for line in &v.wait_for_at_split {
                    j.str_val(line);
                }
                j.end_arr();
                j.end_obj();
            }
            j.end_arr();
        })
    }
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "divergence report — shared snapshot captured at cycle {}", self.captured_at)?;
        match self.first_divergent_cycle {
            Some(c) => writeln!(f, "first divergent cycle: {c}")?,
            None => writeln!(f, "no divergence: both variants ran to identical states")?,
        }
        for v in &self.variants {
            writeln!(f, "variant {:?}:", v.name)?;
            match &v.outcome {
                Ok(o) => writeln!(
                    f,
                    "  finished at cycle {} (output {:?}, {} instructions)",
                    v.final_cycles, o.output, o.instructions
                )?,
                Err(e) => writeln!(f, "  died at cycle {}: {e}", v.final_cycles)?,
            }
            if v.wait_for_at_split.is_empty() {
                writeln!(f, "  no contexts blocked on channels at the split")?;
            } else {
                writeln!(f, "  wait-for at split:")?;
                for line in &v.wait_for_at_split {
                    writeln!(f, "    {line}")?;
                }
            }
        }
        Ok(())
    }
}

/// Probe one variant at the first divergent cycle (or the capture cycle)
/// and run it to completion for the report.
fn variant_report(snap: &Snapshot, variant: &Variant, split: u64) -> VariantReport {
    let mut probe = variant.instantiate(snap);
    // A probe that dies before the split is still informative: the
    // wait-for state below describes the death scene.
    let _ = probe.run_until(split);
    let wait_for_at_split: Vec<String> =
        probe.wait_for_report().iter().map(ToString::to_string).collect();
    let mut full = variant.instantiate(snap);
    let outcome = full.run().map_err(|e| e.to_string());
    VariantReport {
        name: variant.name.clone(),
        final_cycles: full.elapsed_cycles(),
        outcome,
        wait_for_at_split,
    }
}

/// Binary-search the first cycle at which `a` and `b`, launched from the
/// same snapshot, differ in architectural state.
///
/// The search invariant comes from determinism: digests are equal at the
/// capture cycle by construction, and past the split the executions have
/// materially different histories, so "digest equal at `k`" is monotone
/// in `k` over the searched range.
#[must_use]
pub fn bisect(snap: &Snapshot, a: &Variant, b: &Variant) -> DivergenceReport {
    let captured_at = snap.cycle();
    let report_a = variant_report(snap, a, captured_at);
    let report_b = variant_report(snap, b, captured_at);
    // Probe one cycle past the later finisher: beyond both completions
    // the digests are frozen at their final values.
    let hi = report_a.final_cycles.max(report_b.final_cycles) + 1;
    if digest_at(snap, a, hi) == digest_at(snap, b, hi) {
        return DivergenceReport {
            captured_at,
            first_divergent_cycle: None,
            variants: vec![report_a, report_b],
        };
    }
    let (mut lo, mut hi) = (captured_at, hi);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if digest_at(snap, a, mid) == digest_at(snap, b, mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    DivergenceReport {
        captured_at,
        first_divergent_cycle: Some(hi),
        variants: vec![variant_report(snap, a, hi), variant_report(snap, b, hi)],
    }
}

/// Capture cycle of [`smoke`]'s placement pair: matmul(4) on 2 PEs has
/// not yet placed all of its forks.
const EARLY_CAPTURE: u64 = 100;

/// Prepare a workload, run it to `pause_at` and capture the snapshot the
/// replay demo and smoke test branch from.
///
/// # Errors
///
/// A message if the workload fails to build or finishes before
/// `pause_at` (nothing left to branch).
pub fn capture_workload(
    run: &WorkloadRun,
    w: &qm_workloads::Workload,
    pause_at: u64,
) -> Result<Snapshot, String> {
    let (mut sys, _) = run.prepare(w).map_err(|e| e.to_string())?;
    match sys.run_until(pause_at).map_err(|e| e.to_string())? {
        RunStatus::Paused { .. } => Ok(Snapshot::capture(&sys)),
        RunStatus::Done(_) => {
            Err(format!("{} finished before cycle {pause_at}; nothing to branch", w.name))
        }
    }
}

/// The snapshot smoke check: a mid-run capture must restore to a system
/// that captures to the same snapshot and resumes bit-identically to
/// the uninterrupted run, and a round-robin/local placement pair from a
/// snapshot captured before the forks are placed must bisect to a
/// divergence.
///
/// # Errors
///
/// A description of the first failed invariant.
pub fn smoke() -> Result<(), String> {
    let w = qm_workloads::matmul(4);
    let run = WorkloadRun::with_pes(2);
    let baseline = run.run(&w).map_err(|e| e.to_string())?;
    if !baseline.correct {
        return Err(format!("baseline run verified incorrect: {:?}", baseline.mismatches));
    }

    // Restore and resume from a mid-run capture point.
    let snap = capture_workload(&run, &w, baseline.outcome.elapsed_cycles / 2)?;
    let mut resumed = System::restore(&snap);
    if Snapshot::capture(&resumed) != snap {
        return Err("capture(restore(snapshot)) is not the identity".into());
    }
    let outcome = resumed.run().map_err(|e| e.to_string())?;
    if outcome != baseline.outcome {
        return Err("resumed outcome differs from the uninterrupted run".into());
    }

    // A continuation that places the remaining forks locally must
    // diverge from the spreading one, detectably. The capture comes
    // before those forks are placed: once every rfork has run, placement
    // no longer matters.
    let early = capture_workload(&run, &w, EARLY_CAPTURE)?;
    let spread = Variant::new("round-robin");
    let local = Variant::new("local").with_placement(Placement::Local);
    let report = bisect(&early, &spread, &local);
    let Some(split) = report.first_divergent_cycle else {
        return Err("local placement failed to diverge from round-robin".into());
    };
    if split <= report.captured_at {
        return Err(format!(
            "first divergent cycle {split} not after the capture cycle {}",
            report.captured_at
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_snapshot() -> Snapshot {
        let run = WorkloadRun::with_pes(2);
        let w = qm_workloads::matmul(4);
        let full = run.run(&w).expect("baseline").outcome.elapsed_cycles;
        capture_workload(&run, &w, full / 2).expect("captures mid-run")
    }

    #[test]
    fn identical_variants_never_diverge() {
        let snap = shared_snapshot();
        let report = bisect(&snap, &Variant::new("a"), &Variant::new("b"));
        assert_eq!(report.first_divergent_cycle, None);
        assert_eq!(
            report.variants[0].outcome, report.variants[1].outcome,
            "identical continuations end identically"
        );
    }

    #[test]
    fn local_placement_diverges_after_the_capture_cycle() {
        let run = WorkloadRun::with_pes(2);
        let snap = capture_workload(&run, &qm_workloads::matmul(4), EARLY_CAPTURE)
            .expect("captures before the forks are placed");
        let spread = Variant::new("round-robin");
        let local = Variant::new("local").with_placement(Placement::Local);
        let report = bisect(&snap, &spread, &local);
        let split = report.first_divergent_cycle.expect("local placement diverges");
        assert!(split > report.captured_at, "divergence is after the branch point");
        // Bisection found the *first* divergent cycle: equal one cycle
        // before, different at the split.
        assert_eq!(digest_at(&snap, &spread, split - 1), digest_at(&snap, &local, split - 1));
        assert_ne!(digest_at(&snap, &spread, split), digest_at(&snap, &local, split));
        let text = report.to_string();
        assert!(text.contains("first divergent cycle"), "{text}");
        assert!(text.contains("variant \"local\""), "{text}");
    }

    #[test]
    fn engine_never_diverges_from_the_oracle_from_a_shared_snapshot() {
        // The engine-vs-oracle twin of `identical_variants_never_diverge`:
        // restore the snapshot twice, put one copy on the `Pe::step`
        // oracle, and compare digests at probes through to completion.
        let snap = shared_snapshot();
        let digest = |oracle: bool, k: u64| {
            let mut sys = System::restore(&snap);
            if oracle {
                sys.use_step_oracle();
            }
            let status = sys.run_until(k).expect("runs");
            (Snapshot::capture(&sys).state_digest(), matches!(status, RunStatus::Done(_)))
        };
        let mut k = snap.cycle();
        loop {
            k += 97;
            let engine = digest(false, k);
            assert_eq!(engine, digest(true, k), "the engine split from the oracle by cycle {k}");
            if engine.1 {
                break;
            }
        }
    }

    #[test]
    fn digest_probes_are_pure() {
        let snap = shared_snapshot();
        let v = Variant::new("probe");
        let k = snap.cycle() + 40;
        assert_eq!(digest_at(&snap, &v, k), digest_at(&snap, &v, k));
    }

    #[test]
    fn smoke_passes() {
        smoke().expect("smoke invariants hold");
    }
}
