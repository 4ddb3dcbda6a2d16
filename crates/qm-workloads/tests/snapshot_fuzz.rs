//! The snapshot decoder and restore path driven with hostile input.
//!
//! Every `qm-snap/v4` section carries a checksum, so plain bit flips
//! almost never get past `Snapshot::decode`. The mutator is therefore
//! structure-aware: it takes a mid-run snapshot of a bundled workload,
//! changes one to four bytes of one section body and rewrites that
//! section's checksum. Every mutant then goes through
//! `Snapshot::decode`, `System::restore` and a bounded `run_until`, and
//! no stage may panic: each ends in a value or a typed error. A failing
//! case replays from the `Gen::new(seed, size)` the harness reports.

use std::cell::Cell;

use qm_core::rng::{check, checksum, Gen};
use qm_sim::snapshot::Snapshot;
use qm_sim::system::RunStatus;
use qm_sim::System;
use qm_workloads::WorkloadRun;

/// Header bytes before the section table: magic, version and count.
const HEADER_LEN: usize = 16;
/// One table entry: tag u32, offset u64, length u64, checksum u64.
const ENTRY_LEN: usize = 28;

/// Cycles a restored mutant may run past the cycle it was captured at.
const RUN_CYCLES: u64 = 2_000;

/// Mid-run snapshots of three bundled workloads, with the cycle each
/// was captured at.
fn seeds() -> Vec<(Vec<u8>, u64)> {
    [
        (qm_workloads::matmul(4), 4, 1_500),
        (qm_workloads::cholesky(4), 2, 1_000),
        (qm_workloads::fft(8), 8, 600),
    ]
    .into_iter()
    .map(|(w, pes, pause)| {
        let (mut sys, _) = WorkloadRun::with_pes(pes).prepare(&w).expect("prepares");
        let RunStatus::Paused { .. } = sys.run_until(pause).expect("runs") else {
            panic!("{pes}-PE run finished before cycle {pause}");
        };
        (Snapshot::capture(&sys).encode(), pause)
    })
    .collect()
}

/// The `(offset, length)` of section `i`'s body and the offset of its
/// table entry.
fn section(bytes: &[u8], i: usize) -> (usize, usize, usize) {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let entry = HEADER_LEN + ENTRY_LEN * i;
    let field =
        |at: usize| u64::from_le_bytes(bytes[entry + at..entry + at + 8].try_into().unwrap());
    let payload = HEADER_LEN + ENTRY_LEN * count;
    (payload + usize::try_from(field(4)).unwrap(), usize::try_from(field(12)).unwrap(), entry)
}

/// One seed with one to four bytes of one section body changed and
/// that section's checksum rewritten to match.
fn mutant(g: &mut Gen, seeds: &[(Vec<u8>, u64)]) -> (Vec<u8>, u64) {
    let (seed, cycle) = g.pick(seeds);
    let mut bytes = seed.clone();
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let (start, len, entry) = section(&bytes, g.range(0..count));
    if len > 0 {
        for _ in 0..g.range(1..=4) {
            bytes[start + g.range(0..len)] = g.range(0..=u8::MAX);
        }
    }
    let sum = checksum(&bytes[start..start + len]);
    bytes[entry + 20..entry + 28].copy_from_slice(&sum.to_le_bytes());
    (bytes, *cycle)
}

#[test]
fn seeds_restore_and_finish() {
    for (bytes, cycle) in seeds() {
        let mut sys =
            System::restore(&Snapshot::decode(&bytes).expect("decodes")).expect("restores");
        assert!(matches!(sys.run().expect("finishes"), out if out.elapsed_cycles > cycle));
    }
}

#[test]
fn mutated_snapshots_decode_restore_and_run_without_panicking() {
    let seeds = seeds();
    let (decoded, restored, fetch_faults) = (Cell::new(0), Cell::new(0), Cell::new(0));
    check(2_000, |g| {
        let (bytes, cycle) = mutant(g, &seeds);
        let Ok(snap) = Snapshot::decode(&bytes) else { return };
        decoded.set(decoded.get() + 1);
        let Ok(mut sys) = System::restore(&snap) else { return };
        restored.set(restored.get() + 1);
        if let Err(e) = sys.run_until(cycle + RUN_CYCLES) {
            if e.to_string().contains("fetch outside the code segment") {
                fetch_faults.set(fetch_faults.get() + 1);
            }
        }
    });
    // The mutator must reach every stage, and a mutated PC the fetch
    // fault.
    assert!(decoded.get() > 500, "only {} of 2000 mutants decoded", decoded.get());
    assert!(restored.get() > 500, "only {} of 2000 mutants restored", restored.get());
    assert!(fetch_faults.get() > 0, "no mutant reached the fetch fault");
}
