//! Regenerate `BENCH_sweep.json`: run the full evaluation grid twice —
//! in parallel on the translated engine, serially on the `Pe::step`
//! oracle — prove both passes bit-identical, and record wall times
//! (schema `qm-bench-sweep/v5`, see `EXPERIMENTS.md`).
//!
//! Usage: `sweep [--resume <path>] [--interrupt-after <n>] [--deterministic]`
//!
//! With `--resume` the parallel pass checkpoints every completed point
//! to the given file and a rerun picks up where it left off;
//! `--interrupt-after <n>` stops after `n` newly completed points
//! (simulating being killed mid-sweep). `--deterministic` zeroes every
//! wall-clock field of the JSON so an interrupted-and-resumed sweep
//! emits a file byte-identical to an uninterrupted one. The report's
//! `identical` flag proves engine == oracle for the whole grid (see
//! `docs/DETERMINISM.md`).

use std::time::Instant;

use qm_bench::sweep::{
    full_grid, run_oracle, run_parallel, PointResult, SweepFlags, SweepProgress, SweepReport,
};

fn main() {
    let flags = SweepFlags::parse(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("usage: sweep [--resume <path>] [--interrupt-after <n>] [--deterministic]");
        eprintln!("{msg}");
        std::process::exit(2);
    });
    let grid = full_grid();
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("sweep: {} points, {} worker threads", grid.len(), threads);

    // The "parallel" pass: checkpointed when resuming, plain otherwise.
    let t1 = Instant::now();
    let parallel: Vec<PointResult> = if let Some(path) = &flags.resume {
        let progress = qm_bench::sweep::run_resumable(&grid, threads, path, flags.interrupt_after)
            .unwrap_or_else(|e| {
                eprintln!("checkpoint {}: {e}", path.display());
                std::process::exit(1);
            });
        match progress {
            SweepProgress::Interrupted { completed, total } => {
                println!(
                    "interrupted: {completed}/{total} points checkpointed to {} — rerun to resume",
                    path.display()
                );
                return;
            }
            SweepProgress::Complete(results) => results,
        }
    } else {
        run_parallel(&grid, threads)
    };
    let parallel_wall = t1.elapsed();
    println!("parallel:   {:>9.1} ms", parallel_wall.as_secs_f64() * 1e3);

    // Serial oracle pass: besides the engine-vs-oracle proof, in resume
    // mode this independently re-derives every metric the checkpoint
    // file persisted.
    let t0 = Instant::now();
    let serial = run_oracle(&grid);
    let serial_wall = t0.elapsed();
    println!("serial:     {:>9.1} ms (oracle)", serial_wall.as_secs_f64() * 1e3);

    let report = SweepReport::new(threads, &serial, serial_wall, parallel, parallel_wall);
    assert!(report.identical, "the engine diverged from the Pe::step oracle");
    assert!(report.points.iter().all(|p| p.metrics.correct), "a sweep point verified incorrect");
    println!(
        "speed-up: {:>9.2}x   ({:.1} points/s, all {} points bit-identical)",
        report.speedup(),
        report.points_per_sec(),
        report.points.len(),
    );

    let json = if flags.deterministic { report.to_json_deterministic() } else { report.to_json() };
    let path = "BENCH_sweep.json";
    std::fs::write(path, json).expect("write BENCH_sweep.json");
    println!("wrote {path}");
}
