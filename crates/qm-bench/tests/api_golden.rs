//! Golden-file tests pinning the exact bytes of every `qm-api/v1`
//! envelope kind.
//!
//! The envelope is a *wire contract*: `qm-serve` clients, sweep-file
//! consumers and the CI smoke jobs all parse these shapes. Field
//! additions are compatible (and require updating the golden files
//! here, consciously); renames, removals or retypes are not — they
//! require bumping to `qm-api/v2`, per `docs/API.md`. If one of these
//! assertions fails, the wire format drifted: decide which of the two
//! outcomes you meant, and either fix the code or update the golden
//! file *and* the API document together.
//!
//! Inputs are fixed structs and static verification (no simulation
//! timing), so the bytes cannot wobble with cost-model tuning.

use qm_bench::replay::{DivergenceReport, VariantReport};
use qm_isa::pe::PeStats;
use qm_sim::memory::MemStats;
use qm_sim::system::{PeReport, RunOutcome};
use qm_verify::{deep_verify, verify_object, VerifyOptions};

/// A fully-populated outcome with recognisable values in every field.
fn fixed_outcome() -> RunOutcome {
    RunOutcome {
        output: vec![7, -3],
        elapsed_cycles: 1234,
        instructions: 567,
        contexts_created: 8,
        peak_live_contexts: 3,
        channel_transfers: 21,
        channel_high_water: vec![(0, 2), (5, 1)],
        mem: MemStats { local_accesses: 400, remote_accesses: 50, bus_cycles: 150 },
        pes: vec![PeReport {
            cycles: 1234,
            busy_cycles: 1100,
            stats: PeStats {
                instructions: 567,
                window_hits: 500,
                window_misses: 67,
                mem_reads: 200,
                mem_writes: 100,
                sends: 21,
                recvs: 21,
                traps: 9,
                context_switches: 4,
                rollouts: 2,
            },
        }],
    }
}

#[test]
fn run_outcome_envelope_is_pinned() {
    assert_eq!(
        fixed_outcome().to_json(),
        include_str!("golden/run_outcome.json").trim_end(),
        "run_outcome wire format drifted — see the module docs before updating the golden file"
    );
}

#[test]
fn verify_report_envelope_is_pinned() {
    // A fixed program with a queue-discipline error (QV0001: consuming
    // two slots that were never produced). Static verification has no
    // timing, so the diagnostic — code, pc, line, notes — is exact.
    let obj = qm_isa::asm::assemble("main: plus+2 #1,#2 :r0\n trap #2,#0\n").expect("assembles");
    let report = verify_object(&obj, &VerifyOptions::default());
    assert!(!report.is_clean(), "the fixture program must produce a diagnostic");
    assert_eq!(
        report.to_json(),
        include_str!("golden/verify_report.json").trim_end(),
        "verify_report wire format drifted"
    );
}

#[test]
fn deep_report_envelope_is_pinned() {
    // A fixed two-context pipeline: confinement holds, the channel
    // verdict is proven deadlock-free, and every fact kind appears.
    // Deep verification is static, so the bytes are exact.
    let obj = qm_isa::asm::assemble(
        "main:   trap #0,#stage :r0,r1\n\
                 send r0,#21\n\
                 recv r1,#0 :r2\n\
                 send+1 #0,r2\n\
                 trap #2,#0\n\
         stage:  recv r17,#0 :r0\n\
                 mul+1 r0,#2 :r0\n\
                 send+1 r18,r0\n\
                 trap #2,#0\n",
    )
    .expect("assembles");
    let report = deep_verify(&obj, &VerifyOptions::default());
    assert!(report.deep_clean(), "the fixture program must analyze clean");
    assert_eq!(
        report.to_json(),
        include_str!("golden/deep_report.json").trim_end(),
        "deep_report wire format drifted — see the module docs before updating the golden file"
    );
}

#[test]
fn divergence_report_envelope_is_pinned() {
    let report = DivergenceReport {
        captured_at: 1000,
        first_divergent_cycle: Some(1250),
        variants: vec![
            VariantReport {
                name: "fault-free".to_string(),
                outcome: Ok(fixed_outcome()),
                final_cycles: 2000,
                wait_for_at_split: Vec::new(),
            },
            VariantReport {
                name: "fault-injected".to_string(),
                outcome: Err("sim: pe 0 faulted".to_string()),
                final_cycles: 1500,
                wait_for_at_split: vec!["ctx 3 waits on channel 2".to_string()],
            },
        ],
    };
    assert_eq!(
        report.to_json(),
        include_str!("golden/divergence_report.json").trim_end(),
        "divergence_report wire format drifted"
    );
}

#[test]
fn state_digest_envelope_is_pinned() {
    assert_eq!(
        qm_sim::report::state_digest_json(0x0123_4567_89ab_cdef, 42),
        include_str!("golden/state_digest.json").trim_end(),
        "state_digest wire format drifted"
    );
}
