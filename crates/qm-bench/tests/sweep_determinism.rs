//! Determinism harness for the parallel sweep runner: parallel cycle
//! counts must be bit-identical to serial runs, and both must match the
//! pre-optimisation seed's golden values (locking the scheduler rewrite
//! to the old linear-scan semantics). Snapshot round trips on worker
//! threads must be invisible too, and the `sweep` binary's flags parse
//! strictly.

use qm_bench::sweep::{
    channel_ablation_grid, run_parallel, run_serial, same_metrics, SweepFlags, SweepPoint,
};
use qm_sim::config::{Placement, SystemConfig};
use qm_sim::snapshot::Snapshot;
use qm_sim::system::{RunStatus, System};
use qm_workloads::{BenchResult, Workload, WorkloadError, WorkloadRun};

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

/// Fig. 6.8 golden values from the seed simulator: matmul 8×8 cycles at
/// 1/2/4/8 PEs (see `EXPERIMENTS.md`).
const MATMUL8_GOLDEN_CYCLES: [(usize, u64); 4] =
    [(1, 56_108), (2, 28_420), (4, 15_897), (8, 8_477)];

/// Seed golden values for the message-cache ablation (matmul 6×6 on
/// 4 PEs): `(capacity, cycles, context switches)`.
const CHANNEL_ABLATION_GOLDEN: [(usize, u64, u64); 6] = [
    (0, 12_314, 543),
    (1, 11_052, 359),
    (2, 10_638, 276),
    (4, 9_750, 177),
    (8, 8_630, 9),
    (16, 8_630, 9),
];

fn matmul8_grid() -> Vec<SweepPoint> {
    MATMUL8_GOLDEN_CYCLES
        .iter()
        .map(|&(pes, _)| {
            SweepPoint::new(
                format!("golden/matmul8/{pes}pe"),
                qm_workloads::matmul(8),
                SystemConfig::with_pes(pes),
            )
        })
        .collect()
}

#[test]
fn fig6_8_matmul_matches_seed_golden_cycles() {
    let serial = run_serial(&matmul8_grid());
    for (r, &(pes, cycles)) in serial.iter().zip(&MATMUL8_GOLDEN_CYCLES) {
        assert!(r.metrics.correct, "matmul8 on {pes} PEs verified incorrect");
        assert_eq!(r.pes, pes);
        assert_eq!(r.metrics.cycles, cycles, "matmul8 on {pes} PEs drifted from the seed");
    }
}

#[test]
fn parallel_matmul_grid_is_bit_identical_to_serial() {
    let grid = matmul8_grid();
    let serial = run_serial(&grid);
    for threads in [2, 4] {
        let parallel = run_parallel(&grid, threads);
        assert!(
            same_metrics(&serial, &parallel),
            "parallel({threads}) metrics diverged from serial"
        );
        // Beyond cycles: every deterministic metric, field by field.
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.metrics, p.metrics, "{}", s.id);
        }
    }
}

#[test]
fn channel_ablation_grid_matches_seed_and_is_deterministic() {
    let grid: Vec<SweepPoint> = channel_ablation_grid().into_iter().map(|(_, p)| p).collect();
    let serial = run_serial(&grid);
    for (r, &(cap, cycles, switches)) in serial.iter().zip(&CHANNEL_ABLATION_GOLDEN) {
        assert!(r.metrics.correct, "capacity {cap} verified incorrect");
        assert_eq!(r.metrics.cycles, cycles, "capacity {cap} cycles drifted from the seed");
        assert_eq!(r.metrics.switches, switches, "capacity {cap} switches drifted");
    }
    let parallel = run_parallel(&grid, 4);
    assert!(same_metrics(&serial, &parallel), "ablation grid not deterministic under threads");
}

fn least_loaded() -> SystemConfig {
    SystemConfig { placement: Placement::LeastLoaded, ..SystemConfig::with_pes(2) }
}

#[test]
fn checkpointed_runs_are_bit_identical_on_worker_threads() {
    // The snapshot replay guarantee, exercised the way the sweep runner
    // would: capture-at-k + restore + run-to-completion on worker
    // threads, compared against plain single-threaded runs — under
    // round-robin and under least-loaded placement.
    let w = qm_workloads::matmul(4);
    let plain_rr = WorkloadRun::with_pes(2).run(&w).unwrap();
    let ll = || WorkloadRun::new().config(least_loaded());
    let plain_ll = ll().run(&w).unwrap();

    std::thread::scope(|scope| {
        for worker in 0..3u64 {
            let (w, rr, ll_run) = (&w, &plain_rr, &plain_ll);
            scope.spawn(move || {
                let pause = rr.outcome.elapsed_cycles * (worker + 1) / 4;
                let ck = run_with_checkpoint(&WorkloadRun::with_pes(2), w, pause).unwrap();
                assert_eq!(ck.outcome, rr.outcome, "round-robin, pause {pause}");
                let pause = ll_run.outcome.elapsed_cycles * (worker + 1) / 4;
                let ck = run_with_checkpoint(&ll(), w, pause).unwrap();
                assert_eq!(ck.outcome, ll_run.outcome, "least-loaded, pause {pause}");
            });
        }
    });
}

#[test]
fn sweep_flags_parse_and_reject_like_the_bins() {
    let ok = SweepFlags::parse(["--deterministic"].into_iter().map(String::from)).unwrap();
    assert!(ok.deterministic);

    // The checkpoint flags are retired: they fail like any unknown flag.
    let retired = |flag: &str, value: &str| vec![format!("--{flag}"), value.to_string()];
    for bad in [
        vec!["--smoke".to_string()], // no reduced grid exists
        retired("resume", "x"),
        retired("interrupt-after", "2"),
        vec!["--frobnicate".to_string()],
    ] {
        assert!(SweepFlags::parse(bad.clone().into_iter()).is_err(), "{bad:?} must be rejected");
    }
}
