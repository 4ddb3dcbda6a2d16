//! Regenerate `BENCH_sweep.json`: run the full evaluation grid twice —
//! in parallel on the translated engine, serially on the `Pe::step`
//! oracle — prove both passes bit-identical, and record wall times
//! (schema `qm-bench-sweep/v5`, see `EXPERIMENTS.md`).
//!
//! Usage: `sweep [--deterministic]`
//!
//! `--deterministic` zeroes every wall-clock field of the JSON so that
//! reruns emit a byte-identical file (CI regenerates the committed one
//! and diffs it). The report's `identical` flag proves engine == oracle
//! for the whole grid (see `docs/DETERMINISM.md`).

use std::time::Instant;

use qm_bench::sweep::{full_grid, run_oracle, run_parallel, SweepFlags, SweepReport};

fn main() {
    let flags = SweepFlags::parse(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("usage: sweep [--deterministic]");
        eprintln!("{msg}");
        std::process::exit(2);
    });
    let grid = full_grid();
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("sweep: {} points, {} worker threads", grid.len(), threads);

    let t1 = Instant::now();
    let parallel = run_parallel(&grid, threads);
    let parallel_wall = t1.elapsed();
    println!("parallel:   {:>9.1} ms", parallel_wall.as_secs_f64() * 1e3);

    // Serial oracle pass: the reference the parallel engine pass must
    // match point for point.
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
