//! Statically verify every bundled workload's compiled object code.
//!
//! Usage: `verify_workloads [--strict] [--deep] [--json]`
//!
//! Compiles each Chapter-6 workload (several problem sizes) with the
//! OCCAM compiler and runs the `qm-verify` static passes over the
//! object code. With `--strict` any diagnostic at all — warnings
//! included — fails the run; this is the CI `verify-workloads` gate,
//! keeping the compiler's output clean under the verifier's abstract
//! queue-state and channel-wiring models.
//!
//! With `--deep` the whole-program tier runs instead: abstract
//! interpretation over the object code, proof-carrying fact extraction
//! and the channel-verdict upgrade. A workload fails the deep gate only
//! on error-severity findings (a statically proven deadlock); verdicts
//! and fact counts are printed so the CI log shows how much of each
//! program the analysis could prove.

use std::process::exit;

use qm_verify::{deep_verify, verify_object, VerifyOptions};
use qm_workloads::{cholesky, congruence, fft, matmul, reduction, Workload};

fn grid() -> Vec<Workload> {
    vec![
        matmul(2),
        matmul(4),
        fft(4),
        fft(8),
        cholesky(3),
        cholesky(4),
        congruence(3),
        congruence(4),
        reduction(4),
        reduction(8),
    ]
}

fn main() {
    let mut strict = false;
    let mut deep = false;
    let mut json = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--strict" => strict = true,
            "--deep" => deep = true,
            "--json" => json = true,
            other => {
                eprintln!("usage: verify_workloads [--strict] [--deep] [--json]");
                eprintln!("unknown flag `{other}`");
                exit(2);
            }
        }
    }

    let mut rejected = false;
    for w in grid() {
        let compiled =
            qm_occam::compile(&w.source, &qm_occam::Options::default()).unwrap_or_else(|e| {
                eprintln!("{}: compile failed: {e}", w.name);
                exit(2);
            });
        let reject = if deep {
            let dr = deep_verify(&compiled.object, &VerifyOptions::default());
            if json {
                println!("{}", dr.to_json());
            } else if dr.report.has_errors() {
                print!("{}", dr.report.render());
            }
            let reject = !dr.deep_clean();
            println!(
                "{:<16} {} context(s): verdict {} | qp-confined {} | {} proven-local word(s), {} fact(s) — {}",
                w.name,
                compiled.context_count,
                dr.verdict.as_str(),
                if dr.qp_confined { "yes" } else { "NO" },
                dr.proven_local_count(),
                dr.facts.len(),
                if reject { "REJECTED" } else { "ok" }
            );
            reject
        } else {
            let report = verify_object(&compiled.object, &VerifyOptions::default());
            if json {
                println!("{}", report.to_json());
            } else if !report.diags.is_empty() {
                print!("{}", report.render());
            }
            let reject = report.has_errors() || (strict && !report.is_clean());
            println!(
                "{:<16} {} context(s): {} — {}",
                w.name,
                compiled.context_count,
                report.summary(),
                if reject { "REJECTED" } else { "ok" }
            );
            reject
        };
        rejected |= reject;
    }
    if rejected {
        println!("verify-workloads: FAILED");
        exit(1);
    }
    if deep {
        println!("verify-workloads: all workloads analyze deep-clean");
    } else {
        println!("verify-workloads: all workloads verify clean");
    }
}
