//! Golden digest of every `RunOutcome` over a fixed grid of workload runs.
//!
//! The grid runs matmul, cholesky, fft and reduction at small sizes on
//! 1, 2, 4 and 16 PEs under each of the three placements (48 runs). One
//! checksum covers the `Debug` text of every outcome field: host output,
//! cycles, instructions, context counts, channel transfers and high
//! water marks, memory statistics and the per-PE reports. Any change to
//! what the simulator does on any of those runs moves the digest; the
//! engine's internals may change freely, this constant may not.
//!
//! A second constant pins `Snapshot::state_digest` on the same grid:
//! the digest of each finished machine, and of the same run paused at
//! half its cycles, when ready queues and blocked channels still hold
//! work. The digest is a hash of the captured architectural state, so
//! this pin also holds the digest's own encoding fixed across commits.

use queue_machine::core::rng::checksum;
use queue_machine::sim::config::{Placement, SystemConfig};
use queue_machine::sim::snapshot::Snapshot;
use queue_machine::sim::system::RunStatus;
use queue_machine::workloads::{cholesky, fft, matmul, reduction, WorkloadRun};

/// Digest of every outcome of [`grid_text`], in grid order.
const OUTCOME_DIGEST: u64 = 0x8868_f90e_22dc_d1dc;

/// Digest of every final and half-way `state_digest` of [`grid_text`],
/// in grid order.
const STATE_DIGEST: u64 = 0x4d29_1942_30a2_bc46;

/// `r`'s value, or a panic naming the run `at`.
fn ok<T, E: std::fmt::Display>(r: Result<T, E>, at: &str) -> T {
    r.unwrap_or_else(|e| panic!("{at}: {e}"))
}

/// The `Debug` text of every outcome field, one run per line, and the
/// final and half-way state digests of each run, one run per line.
fn grid_text() -> (String, String) {
    let (mut all, mut states) = (String::new(), String::new());
    for w in [matmul(4), cholesky(4), fft(8), reduction(16)] {
        for pes in [1, 2, 4, 16] {
            for placement in [Placement::RoundRobin, Placement::LeastLoaded, Placement::Local] {
                let cfg = SystemConfig { placement, ..SystemConfig::with_pes(pes) };
                let run = WorkloadRun::new().config(cfg);
                let at = format!("{} on {pes} PEs ({placement:?})", w.name);
                let (mut sys, entry) = ok(run.prepare(&w), &at);
                let outcome = ok(sys.run(), &at);
                let last = Snapshot::capture(&sys).state_digest();
                let r = ok(run.evaluate(&w, &sys, &entry.syms, outcome), &at);
                assert!(r.correct, "{at}: {:?}", r.mismatches);

                let (mut half, _) = ok(run.prepare(&w), &at);
                let status = half.run_until(r.outcome.elapsed_cycles / 2);
                assert!(matches!(status, Ok(RunStatus::Paused { .. })), "{at}: {status:?}");
                let mid = Snapshot::capture(&half).state_digest();
                states.push_str(&format!(
                    "{} {pes} {placement:?}: {mid:#018x} {last:#018x}\n",
                    w.name
                ));

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
    (all, states)
}

#[test]
fn outcomes_match_the_pinned_digest() {
    let (text, states) = grid_text();
    let got = checksum(text.as_bytes());
    assert_eq!(got, OUTCOME_DIGEST, "outcome digest moved: {got:#018x}\n{text}");
    let got = checksum(states.as_bytes());
    assert_eq!(got, STATE_DIGEST, "state digest moved: {got:#018x}\n{states}");
}
