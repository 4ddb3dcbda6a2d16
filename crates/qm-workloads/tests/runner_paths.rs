//! Driver-level tests: error paths, configuration sweeps, and cross-size
//! workload checks that don't belong to any single workload module.

use qm_sim::config::{Placement, SystemConfig};
use qm_sim::snapshot::Snapshot;
use qm_sim::system::{RunStatus, System};
use qm_workloads::{
    cholesky, congruence, fft, matmul, reduction, BenchResult, Workload, WorkloadError, WorkloadRun,
};

/// [`WorkloadRun::run`], but paused at cycle `pause_at`, captured in a
/// [`Snapshot`] and finished on a system restored from it. By the
/// snapshot replay guarantee the result is bit-identical to a plain
/// run; a run that completes before `pause_at` is a plain run.
fn run_with_checkpoint(
    run: &WorkloadRun,
    w: &Workload,
    pause_at: u64,
) -> Result<BenchResult, WorkloadError> {
    let (mut sys, compiled) = run.prepare(w)?;
    let sim = |e: qm_sim::SimError| WorkloadError::Sim(e.to_string());
    let (sys, outcome) = match sys.run_until(pause_at).map_err(sim)? {
        RunStatus::Done(outcome) => (sys, outcome),
        RunStatus::Paused { .. } => {
            let mut restored = System::restore(&Snapshot::capture(&sys));
            let outcome = restored.run().map_err(sim)?;
            (restored, outcome)
        }
    };
    run.evaluate(w, &sys, &compiled.syms, outcome)
}

#[test]
fn unknown_input_array_is_reported() {
    let mut w = matmul(3);
    w.inputs.push(("nonexistent".into(), vec![1, 2, 3]));
    match WorkloadRun::new().run(&w) {
        Err(WorkloadError::Array(msg)) => assert!(msg.contains("nonexistent")),
        other => panic!("expected array error, got {other:?}"),
    }
}

#[test]
fn wrong_input_length_is_reported() {
    let mut w = matmul(3);
    w.inputs[0].1.pop();
    match WorkloadRun::new().run(&w) {
        Err(WorkloadError::Array(msg)) => assert!(msg.contains("values"), "{msg}"),
        other => panic!("expected length error, got {other:?}"),
    }
}

#[test]
fn incorrect_expectations_are_mismatches_not_errors() {
    let mut w = matmul(3);
    w.expected_output = vec![123_456_789];
    let r = WorkloadRun::new().run(&w).expect("run completes");
    assert!(!r.correct);
    assert!(r.mismatches.iter().any(|m| m.contains("host output")), "{:?}", r.mismatches);
}

#[test]
fn compile_errors_surface() {
    let w = Workload {
        name: "broken".into(),
        source: "x := 1\n".into(), // undeclared
        inputs: vec![],
        expected: vec![],
        expected_output: vec![],
    };
    assert!(matches!(WorkloadRun::new().run(&w), Err(WorkloadError::Compile(_))));
}

#[test]
fn every_workload_handles_single_pe_rendezvous() {
    // The harshest configuration: one PE, pure rendezvous channels.
    let cfg = || SystemConfig { channel_capacity: 0, ..SystemConfig::with_pes(1) };
    for w in [matmul(3), fft(4), cholesky(3), congruence(3), reduction(8)] {
        let r =
            WorkloadRun::new().config(cfg()).run(&w).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(r.correct, "{}: {:?}", w.name, r.mismatches);
    }
}

#[test]
fn odd_pe_counts_work() {
    for pes in [3, 5, 7] {
        let r = WorkloadRun::with_pes(pes).run(&matmul(4)).unwrap();
        assert!(r.correct, "{pes} PEs: {:?}", r.mismatches);
    }
}

#[test]
fn workload_sizes_scale() {
    for n in [2, 5, 9] {
        let r = WorkloadRun::with_pes(4).run(&matmul(n)).unwrap();
        assert!(r.correct, "matmul {n}: {:?}", r.mismatches);
    }
    for n in [4, 16, 32] {
        let r = WorkloadRun::with_pes(4).run(&fft(n)).unwrap();
        assert!(r.correct, "fft {n}: {:?}", r.mismatches);
    }
    for n in [2, 6, 9] {
        let r = WorkloadRun::with_pes(4).run(&cholesky(n)).unwrap();
        assert!(r.correct, "cholesky {n}: {:?}", r.mismatches);
    }
}

#[test]
fn compiled_code_requires_full_queue_pages() {
    // The compiler lays out queue positions assuming the architectural
    // maximum page of 256 words; a 64-word page silently wraps live
    // slots (exactly what the hardware would do) and corrupts results.
    // This pins the documented contract: compiled workloads run on
    // 256-word pages; smaller pages are for hand-written code whose
    // queue span fits (see qm-isa's von_neumann tests).
    let cfg = SystemConfig { queue_page_words: 64, ..SystemConfig::with_pes(2) };
    let r = WorkloadRun::new().config(cfg).run(&matmul(3)).unwrap();
    assert!(!r.correct, "a 64-word page should corrupt matmul's wide main context");
    let cfg = SystemConfig { queue_page_words: 256, ..SystemConfig::with_pes(2) };
    let r = WorkloadRun::new().config(cfg).run(&matmul(3)).unwrap();
    assert!(r.correct, "{:?}", r.mismatches);
}

#[test]
fn statistics_scale_with_problem_size() {
    let small = WorkloadRun::new().run(&matmul(3)).unwrap();
    let large = WorkloadRun::new().run(&matmul(6)).unwrap();
    assert!(large.outcome.instructions > small.outcome.instructions);
    assert!(large.outcome.elapsed_cycles > small.outcome.elapsed_cycles);
    assert!(large.outcome.channel_transfers >= small.outcome.channel_transfers);
}

#[test]
fn checkpointed_run_is_bit_identical_fault_free() {
    // run_with_checkpoint pauses mid-run, pushes the state through a
    // full snapshot round trip, and finishes on the restored system —
    // the outcome must be indistinguishable from a plain run.
    let w = matmul(3);
    let plain = WorkloadRun::with_pes(2).run(&w).unwrap();
    assert!(plain.correct, "{:?}", plain.mismatches);
    for pause_at in [1, plain.outcome.elapsed_cycles / 2, plain.outcome.elapsed_cycles * 2] {
        let ck = run_with_checkpoint(&WorkloadRun::with_pes(2), &w, pause_at).unwrap();
        assert!(ck.correct, "pause {pause_at}: {:?}", ck.mismatches);
        assert_eq!(ck.outcome, plain.outcome, "pause {pause_at}");
    }
}

#[test]
fn checkpointed_run_is_bit_identical_under_least_loaded() {
    // Same invariant under load-counting placement, whose fork
    // decisions read other PEs' clocks: the restored run must place
    // every later fork exactly where the uninterrupted one did.
    let w = matmul(3);
    let run = || {
        let cfg = SystemConfig { placement: Placement::LeastLoaded, ..SystemConfig::with_pes(2) };
        WorkloadRun::new().config(cfg)
    };
    let plain = run().run(&w).unwrap();
    assert!(plain.correct, "{:?}", plain.mismatches);
    for pause_at in [3, plain.outcome.elapsed_cycles / 2] {
        let ck = run_with_checkpoint(&run(), &w, pause_at).unwrap();
        assert_eq!(ck.outcome, plain.outcome, "pause {pause_at}");
    }
}

#[test]
fn a_loaded_program_is_shared_not_copied() {
    // The cache entry, the prepared system and its snapshots hold one
    // object: a restored system reads the very words the cache holds.
    let (sys, entry) = WorkloadRun::with_pes(2).prepare(&matmul(3)).unwrap();
    let words = entry.object.words().as_ptr();
    assert_eq!(sys.object().expect("loaded").words().as_ptr(), words);
    let restored = System::restore(&Snapshot::capture(&sys));
    assert_eq!(restored.object().expect("restored").words().as_ptr(), words);
}
