//! The snapshot subsystem's defining invariant, end to end:
//! *restore-then-run is bit-identical to an uninterrupted run* —
//! metrics and trace events included. One property,
//! [`resume_matches`], checks it for any pause point; its inputs are
//! random PE counts × placements × pause cycles, fixed pause points
//! under round-robin and least-loaded placement, and every pause
//! boundary of a short run.

use qm_core::rng::check;
use qm_sim::config::Placement;
use qm_sim::snapshot::Snapshot;
use qm_sim::system::RunStatus;
use qm_sim::trace::{Recorder, TraceRecord};
use qm_sim::{RunOutcome, SimError, Simulation, System, SystemConfig};

/// Fork–join pipeline: main forks two children and folds their results.
/// Enough cross-PE traffic (sends, forks, context switches) that a
/// mid-run capture lands on interesting state.
const PIPELINE: &str = "
main:   trap #0,#sq :r0,r1
        trap #0,#dbl :r2,r3
        send r0,#5
        send r2,#4
        recv r1,#0 :r4
        recv r3,#0 :r5
        plus+2 r4,r5 :r6
        send+4 #0,r6
        trap #2,#0
sq:     recv r17,#0 :r0
        mul+1 r0,r0 :r0
        send+1 r18,r0
        trap #2,#0
dbl:    recv r17,#0 :r0
        mul+1 r0,#2 :r0
        send+1 r18,r0
        trap #2,#0
";

const RR: Placement = Placement::RoundRobin;
const LL: Placement = Placement::LeastLoaded;

fn build(pes: usize, placement: Placement, rec: Option<&Recorder>) -> System {
    let cfg = SystemConfig { placement, ..SystemConfig::with_pes(pes) };
    let mut b = Simulation::builder().config(cfg).assembly(PIPELINE);
    if let Some(rec) = rec {
        b = b.trace(rec.sink());
    }
    b.build().expect("assembles")
}

/// Run to the end, pausing at `pause_at`: capture, restore and resume.
/// The restored system must re-capture to an equal snapshot. Returns
/// the stitched result and, with `traced`, the trace records of both
/// halves.
fn interrupted(
    pes: usize,
    placement: Placement,
    pause_at: u64,
    traced: bool,
) -> (Result<RunOutcome, SimError>, Vec<TraceRecord>) {
    let first = Recorder::new(1 << 16);
    let mut sys = build(pes, placement, traced.then_some(&first));
    let result = match sys.run_until(pause_at) {
        Ok(RunStatus::Done(outcome)) => Ok(outcome),
        Err(e) => Err(e),
        Ok(RunStatus::Paused { .. }) => {
            let snap = Snapshot::capture(&sys);
            drop(sys); // the restored system is all that survives
            let recaptured = Snapshot::capture(&System::restore(&snap));
            assert_eq!(recaptured, snap, "identical re-capture");
            let mut resumed = System::restore(&snap);
            let second = Recorder::new(1 << 16);
            if traced {
                resumed.set_trace_sink(second.sink());
            }
            let result = resumed.run();
            let mut records = first.records();
            records.extend(second.records());
            return (result, records);
        }
    };
    (result, first.records())
}

/// The property: paused at `pause_at` and resumed from a snapshot, the run
/// ends exactly as the uninterrupted one does — the same metrics, or
/// (for runs that end in an error) the same structured error — untraced
/// and traced, with the same trace stream. Returns the shared result.
fn resume_matches(pes: usize, placement: Placement, pause_at: u64) -> Result<RunOutcome, SimError> {
    let baseline = build(pes, placement, None).run();
    let (result, _) = interrupted(pes, placement, pause_at, false);
    assert_eq!(result, baseline, "outcome at pause {pause_at}");
    let rec = Recorder::new(1 << 16);
    assert_eq!(build(pes, placement, Some(&rec)).run(), baseline, "tracing is pure observation");
    let (result, records) = interrupted(pes, placement, pause_at, true);
    assert_eq!(result, baseline, "traced outcome at pause {pause_at}");
    assert_eq!(records, rec.records(), "trace stream at pause {pause_at}");
    baseline
}

#[test]
fn random_capture_points_resume_identically() {
    check(48, |g| {
        let pes = g.range(1..=8);
        let placement = match g.below(3) {
            0 => RR,
            1 => LL,
            _ => Placement::Local,
        };
        resume_matches(pes, placement, g.range(0..2_000)).ok();
    });
}

#[test]
fn fault_free_resume_is_bit_identical_including_traces() {
    for pause_at in [1, 30, 60, 90, 150, 400] {
        let out = resume_matches(4, RR, pause_at).expect("runs");
        assert!(!out.output.is_empty(), "workload produces output");
    }
}

#[test]
fn least_loaded_resume_is_bit_identical_including_traces() {
    for pause_at in [1, 25, 55, 120, 300, 700] {
        let out = resume_matches(2, LL, pause_at).expect("runs");
        assert!(!out.output.is_empty(), "workload produces output");
    }
}

#[test]
fn every_pause_boundary_resumes_identically() {
    // Exhaustively walk the pause boundaries of the whole (short) run:
    // no cycle k may exist where capture/restore perturbs the future.
    let horizon = build(2, RR, None).run().expect("baseline runs").elapsed_cycles;
    for pause_at in 0..=horizon {
        resume_matches(2, RR, pause_at).expect("runs");
    }
}

#[test]
fn snapshot_of_a_finished_run_restores_the_outcome() {
    let mut sys = build(2, RR, None);
    let outcome = sys.run().expect("runs");
    let snap = Snapshot::capture(&sys);
    let mut restored = System::restore(&snap);
    assert_eq!(restored.run().expect("trivially re-finishes"), outcome);
}
