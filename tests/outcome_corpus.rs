//! Golden digest of every `RunOutcome` over a fixed grid of workload runs.
//!
//! The grid runs matmul, cholesky, fft and reduction at small sizes on
//! 1, 2, 4 and 16 PEs under each of the three placements (48 runs). One
//! checksum covers the `Debug` text of every outcome field: host output,
//! cycles, instructions, context counts, channel transfers and high
//! water marks, memory statistics and the per-PE reports. Any change to
//! what the simulator does on any of those runs moves the digest; the
//! engine's internals may change freely, this constant may not.

use queue_machine::core::rng::checksum;
use queue_machine::sim::config::{Placement, SystemConfig};
use queue_machine::workloads::{cholesky, fft, matmul, reduction, WorkloadRun};

/// Digest of every outcome of [`outcomes_text`], in grid order.
const OUTCOME_DIGEST: u64 = 0x8868_f90e_22dc_d1dc;

/// The `Debug` text of every outcome field, one run per line.
fn outcomes_text() -> String {
    let mut all = String::new();
    for w in [matmul(4), cholesky(4), fft(8), reduction(16)] {
        for pes in [1, 2, 4, 16] {
            for placement in [Placement::RoundRobin, Placement::LeastLoaded, Placement::Local] {
                let cfg = SystemConfig { placement, ..SystemConfig::with_pes(pes) };
                let r = WorkloadRun::new()
                    .config(cfg)
                    .run(&w)
                    .unwrap_or_else(|e| panic!("{} on {pes} PEs: {e}", w.name));
                assert!(r.correct, "{} on {pes} PEs ({placement:?}): {:?}", w.name, r.mismatches);
                let o = &r.outcome;
                all.push_str(&format!(
                    "{} {pes} {placement:?}: {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?}\n",
                    w.name,
                    o.output,
                    o.elapsed_cycles,
                    o.instructions,
                    o.contexts_created,
                    o.peak_live_contexts,
                    o.channel_transfers,
                    o.channel_high_water,
                    o.mem,
                    o.pes,
                ));
            }
        }
    }
    all
}

#[test]
fn outcomes_match_the_pinned_digest() {
    let text = outcomes_text();
    let got = checksum(text.as_bytes());
    assert_eq!(got, OUTCOME_DIGEST, "outcome digest moved: {got:#018x}\n{text}");
}
