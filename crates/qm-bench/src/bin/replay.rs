//! Deterministic replay and divergence bisection from a shared snapshot.
//!
//! Default mode is a demonstration: checkpoint the 6×6 matmul on 4 PEs
//! early in its run, before its forks are placed, branch a round-robin
//! and a local-placement continuation from the same snapshot,
//! binary-search the first cycle their architectural state digests
//! differ and print the structured divergence report (final outcomes,
//! wait-for state at the split).
//!
//! `replay --json` prints the same report as a `qm-api/v1`
//! `divergence_report` envelope (`docs/API.md`) instead of prose.

use qm_bench::replay::{bisect, capture_workload, Variant};
use qm_sim::config::Placement;
use qm_workloads::WorkloadRun;

fn usage(got: &str) -> ! {
    eprintln!("usage: replay [--json]  (got {got:?})");
    std::process::exit(2);
}

fn main() {
    let mut json = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            other => usage(other),
        }
    }
    demo(json);
}

fn demo(json: bool) {
    let w = qm_workloads::matmul(6);
    let run = WorkloadRun::with_pes(4);
    let full = run.run(&w).expect("baseline run").outcome.elapsed_cycles;
    // Early enough that forks are still to be placed: from a capture
    // after the last rfork, the two placements never diverge.
    let snap = capture_workload(&run, &w, 200).expect("early capture");
    if !json {
        println!(
            "captured {} on 4 PEs at cycle {} (uninterrupted run: {} cycles)",
            w.name,
            snap.cycle(),
            full
        );
    }

    let spread = Variant::new("round-robin");
    let local = Variant::new("local").with_placement(Placement::Local);
    let report = bisect(&snap, &spread, &local);
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{report}");
    }
    assert!(
        report.first_divergent_cycle.is_some(),
        "local placement must diverge from the round-robin continuation"
    );
}
