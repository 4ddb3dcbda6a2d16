//! Continuous performance gate over `BENCH_baseline.json`.
//!
//! ```text
//! perf_gate                      gate against BENCH_baseline.json (exit 1 on fail)
//! perf_gate --refresh            re-measure and rewrite the baseline
//! perf_gate --smoke              single-run measurement, cycles pinned, timing informative
//! perf_gate --baseline <path>    use a different baseline file
//! perf_gate --tolerance <pct>    override the +5% default
//! ```
//!
//! Measurements are normalised by a host-speed probe that calls no
//! simulator code (see `qm_bench::perf`), so a gate run on a slower
//! machine than the one that produced the baseline still passes — only
//! a change in simulator work per cycle fails it.
//! `--smoke` is for environments too noisy to enforce timing (it still
//! hard-fails on cycle-count drift, which is machine-independent).
//!
//! A second, separate check times matmul(16) on 16 PEs against 1 PE in
//! the same process and fails when the per-instruction cost ratio
//! exceeds `MULTI_PE_RATIO_BOUND` (`qm_bench::perf::multi_pe_ratio`); it
//! reads nothing from the baseline file and `--refresh` leaves it out.

use std::process::ExitCode;

use qm_bench::perf::{
    gate, measure, merge_min, multi_pe_ratio, PerfBaseline, MULTI_PE_RATIO_BOUND, RATIO_RUNS, RUNS,
    TOLERANCE,
};

/// Re-measurement passes granted to points that fail on timing alone.
const RETRIES: usize = 2;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perf_gate: {msg}");
    eprintln!("usage: perf_gate [--refresh | --smoke] [--baseline <path>] [--tolerance <pct>]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut refresh = false;
    let mut smoke = false;
    let mut baseline_path = String::from("BENCH_baseline.json");
    let mut tolerance = TOLERANCE;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--refresh" => refresh = true,
            "--smoke" => smoke = true,
            "--baseline" => match args.next() {
                Some(p) => baseline_path = p,
                None => return usage("--baseline needs a path"),
            },
            "--tolerance" => match args.next().and_then(|t| t.parse::<f64>().ok()) {
                Some(pct) if pct > 0.0 => tolerance = pct / 100.0,
                _ => return usage("--tolerance needs a positive percentage"),
            },
            other => return usage(&format!("unknown flag {other:?}")),
        }
    }
    if refresh && smoke {
        return usage("--refresh and --smoke are mutually exclusive");
    }

    let runs = if smoke { 1 } else { RUNS };
    eprintln!("perf_gate: measuring {runs} run(s) per point...");
    let mut now = measure(runs);

    if refresh {
        let json = now.to_json();
        if let Err(e) = std::fs::write(&baseline_path, &json) {
            eprintln!("perf_gate: cannot write {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("{json}");
        eprintln!("perf_gate: baseline refreshed -> {baseline_path}");
        return ExitCode::SUCCESS;
    }

    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "perf_gate: cannot read {baseline_path}: {e}\n\
                 perf_gate: run `perf_gate --refresh` to create it"
            );
            return ExitCode::FAILURE;
        }
    };
    let baseline = match PerfBaseline::parse(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perf_gate: {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "calibration: {:.1} ns/item now vs {:.1} baseline (informative; the gate \
         compares calibration-relative costs)",
        now.calibration_ns_per_item, baseline.calibration_ns_per_item
    );

    // Timing-only failures get re-measured and merged (per-figure
    // minima): a host-noise burst has to hit the same point in every
    // pass to produce a false failure, while a genuine regression
    // cannot measure its way back under the bound. Cycle-count drift
    // is deterministic and is never retried.
    if !smoke {
        for retry in 1..=RETRIES {
            let timing_failures =
                gate(&now, &baseline, tolerance).iter().any(|l| !l.ok && l.ratio.is_finite());
            if !timing_failures {
                break;
            }
            eprintln!("perf_gate: timing failure — re-measuring (retry {retry}/{RETRIES})...");
            merge_min(&mut now, &measure(RUNS));
        }
    }

    let mut failed = false;
    for line in gate(&now, &baseline, tolerance) {
        // Timing verdicts are informative under --smoke; cycle-count
        // drift (ratio NaN) always fails.
        let timing_enforced = !smoke || !line.ratio.is_finite();
        let verdict = if line.ok {
            "ok  "
        } else if timing_enforced {
            failed = true;
            "FAIL"
        } else {
            "warn"
        };
        println!("{verdict} {:<22} x{:.2}  {}", line.id, line.ratio, line.detail);
    }

    // The multi-PE ratio: a timing verdict, so re-measured like one and
    // informative under --smoke.
    let mut ratio = multi_pe_ratio(if smoke { 1 } else { RATIO_RUNS });
    for retry in 1..=RETRIES {
        if smoke || ratio <= MULTI_PE_RATIO_BOUND {
            break;
        }
        eprintln!("perf_gate: ratio above its bound — re-measuring (retry {retry}/{RETRIES})...");
        ratio = ratio.min(multi_pe_ratio(RATIO_RUNS));
    }
    let verdict = if ratio <= MULTI_PE_RATIO_BOUND {
        "ok  "
    } else if smoke {
        "warn"
    } else {
        failed = true;
        "FAIL"
    };
    println!(
        "{verdict} {:<22} x{ratio:.2}  matmul(16) ns/instr, 16 PEs / 1 PE (bound {MULTI_PE_RATIO_BOUND:.2})",
        "ratio/matmul16/16pe"
    );
    if failed {
        eprintln!(
            "perf_gate: FAILED (tolerance +{:.0}%) — if the change is intended, \
             refresh the baseline with `cargo run --release -p qm-bench --bin perf_gate -- --refresh`",
            tolerance * 100.0
        );
        return ExitCode::FAILURE;
    }
    println!("perf_gate: OK (tolerance +{:.0}%)", tolerance * 100.0);
    ExitCode::SUCCESS
}
