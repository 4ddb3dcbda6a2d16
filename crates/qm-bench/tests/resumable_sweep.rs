//! Resumable-sweep determinism: interrupting a checkpointed sweep and
//! resuming it must be invisible in the output — same metrics, and with
//! deterministic rendering the same `BENCH_sweep.json` bytes — whether
//! the passes ran serially or across threads.

use std::path::PathBuf;
use std::time::Duration;

use qm_bench::checkpoint::Checkpoint;
use qm_bench::sweep::{
    run_oracle, run_resumable, run_serial, same_metrics, SweepFlags, SweepPoint, SweepProgress,
    SweepReport,
};
use qm_sim::config::{Placement, SystemConfig};
use qm_sim::snapshot::SnapshotError;
use qm_workloads::WorkloadRun;

fn tiny_grid() -> Vec<SweepPoint> {
    vec![
        SweepPoint::new("resume/matmul4/1pe", qm_workloads::matmul(4), SystemConfig::with_pes(1)),
        SweepPoint::new("resume/matmul4/2pe", qm_workloads::matmul(4), SystemConfig::with_pes(2)),
        SweepPoint::new("resume/matmul4/least-loaded", qm_workloads::matmul(4), least_loaded())
            .with_config("placement=least-loaded"),
    ]
}

fn least_loaded() -> SystemConfig {
    SystemConfig { placement: Placement::LeastLoaded, ..SystemConfig::with_pes(2) }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("qm-resume-{}-{name}.chkpt", std::process::id()))
}

/// Render the grid's deterministic report exactly as the `sweep` bin
/// does in `--resume --deterministic` mode.
fn deterministic_json(grid: &[SweepPoint], results: Vec<qm_bench::sweep::PointResult>) -> String {
    let serial = run_oracle(grid);
    let report = SweepReport::new(2, &serial, Duration::ZERO, results, Duration::ZERO);
    assert!(report.identical, "checkpointed metrics diverged from a fresh oracle pass");
    report.to_json_deterministic()
}

#[test]
fn interrupted_and_resumed_sweep_is_byte_identical_to_uninterrupted() {
    let grid = tiny_grid();

    // Uninterrupted checkpointed run.
    let once = tmp("uninterrupted");
    let _ = std::fs::remove_file(&once);
    let SweepProgress::Complete(full) = run_resumable(&grid, 1, &once, None).unwrap() else {
        panic!("no interrupt requested, sweep must complete");
    };

    // Interrupt after every single point, resuming each time.
    let stepped = tmp("stepped");
    let _ = std::fs::remove_file(&stepped);
    for done in 1..grid.len() {
        match run_resumable(&grid, 1, &stepped, Some(1)).unwrap() {
            SweepProgress::Interrupted { completed, total } => {
                assert_eq!((completed, total), (done, grid.len()));
            }
            SweepProgress::Complete(_) => panic!("interrupt budget of 1 must not finish"),
        }
        // The checkpoint on disk already holds every completed point.
        assert_eq!(Checkpoint::load(&stepped).unwrap().len(), done);
    }
    let SweepProgress::Complete(resumed) = run_resumable(&grid, 1, &stepped, Some(1)).unwrap()
    else {
        panic!("final resume completes the last point");
    };

    assert!(same_metrics(&full, &resumed));
    assert!(same_metrics(&full, &run_serial(&grid)), "checkpointed == fresh");
    assert_eq!(
        deterministic_json(&grid, full),
        deterministic_json(&grid, resumed),
        "interrupted+resumed JSON must be byte-identical to uninterrupted"
    );

    let _ = std::fs::remove_file(&once);
    let _ = std::fs::remove_file(&stepped);
}

#[test]
fn parallel_resumable_matches_serial_resumable() {
    let grid = tiny_grid();
    let serial_path = tmp("serial");
    let parallel_path = tmp("parallel");
    let _ = std::fs::remove_file(&serial_path);
    let _ = std::fs::remove_file(&parallel_path);

    let SweepProgress::Complete(serial) = run_resumable(&grid, 1, &serial_path, None).unwrap()
    else {
        panic!("serial resumable completes");
    };
    // Interrupt the parallel run once mid-flight, then let it finish.
    match run_resumable(&grid, 3, &parallel_path, Some(2)).unwrap() {
        SweepProgress::Interrupted { completed, total } => {
            assert_eq!((completed, total), (2, grid.len()));
        }
        SweepProgress::Complete(_) => panic!("interrupt budget of 2 must not finish"),
    }
    let SweepProgress::Complete(parallel) = run_resumable(&grid, 3, &parallel_path, None).unwrap()
    else {
        panic!("parallel resume completes");
    };
    assert!(same_metrics(&serial, &parallel), "threads must not change resumable results");

    let _ = std::fs::remove_file(&serial_path);
    let _ = std::fs::remove_file(&parallel_path);
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
                let ck = WorkloadRun::with_pes(2).run_with_checkpoint(w, pause).unwrap();
                assert_eq!(ck.outcome, rr.outcome, "round-robin, pause {pause}");
                let pause = ll_run.outcome.elapsed_cycles * (worker + 1) / 4;
                let ck = ll().run_with_checkpoint(w, pause).unwrap();
                assert_eq!(ck.outcome, ll_run.outcome, "least-loaded, pause {pause}");
            });
        }
    });
}

#[test]
fn checkpoints_from_another_grid_are_rejected() {
    let grid = tiny_grid();
    let path = tmp("othergrid");
    let _ = std::fs::remove_file(&path);
    match run_resumable(&grid, 1, &path, Some(1)).unwrap() {
        SweepProgress::Interrupted { .. } => {}
        SweepProgress::Complete(_) => panic!("interrupted"),
    }
    let other = vec![grid[0].clone()];
    match run_resumable(&other, 1, &path, None) {
        Err(SnapshotError::Malformed(msg)) => assert!(msg.contains("grid"), "{msg}"),
        other => panic!("expected a grid mismatch, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_checkpoints_error_instead_of_panicking() {
    let grid = tiny_grid();
    let path = tmp("corrupt");
    std::fs::write(&path, b"qm-chkptgarbage that is long enough to parse").unwrap();
    assert!(run_resumable(&grid, 1, &path, None).is_err());
    std::fs::write(&path, b"definitely not a checkpoint file").unwrap();
    assert!(matches!(run_resumable(&grid, 1, &path, None), Err(SnapshotError::BadMagic)));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sweep_flags_parse_and_reject_like_the_bins() {
    let ok = SweepFlags::parse(
        ["--resume", "ck.bin", "--interrupt-after", "3", "--deterministic"]
            .into_iter()
            .map(String::from),
    )
    .unwrap();
    assert_eq!(ok.resume, Some(PathBuf::from("ck.bin")));
    assert_eq!(ok.interrupt_after, Some(3));
    assert!(ok.deterministic);

    for bad in [
        vec!["--smoke"],                // no reduced grid exists
        vec!["--interrupt-after", "2"], // requires --resume
        vec!["--interrupt-after", "two", "--resume", "x"],
        vec!["--resume"], // missing path
        vec!["--frobnicate"],
    ] {
        assert!(
            SweepFlags::parse(bad.iter().map(ToString::to_string)).is_err(),
            "{bad:?} must be rejected"
        );
    }
}
