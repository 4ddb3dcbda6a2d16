//! Stable `qm-api/v1` wire format for simulator results.
//!
//! Every result type the simulator hands to callers — [`RunOutcome`]
//! and the architectural
//! [`state_digest`](crate::snapshot::Snapshot::state_digest) — gains a
//! `to_json()` rendering into the versioned envelope of
//! [`qm_core::json`]:
//!
//! ```json
//! {"schema":"qm-api/v1","kind":"run_outcome","data":{…}}
//! ```
//!
//! This is the serving contract: `qm-serve` answers HTTP requests with
//! these envelopes, `qm-bench` bins embed the same bodies in their
//! sweep files, and the golden-file tests in
//! `crates/qm-bench/tests/api_golden.rs` pin the exact bytes so wire
//! drift fails CI. Field additions keep `qm-api/v1`; renames, removals
//! or retypes require bumping the envelope version (`docs/API.md` has
//! the full rules and per-kind field tables).

use qm_core::json::{Envelope, JsonBuf};

use crate::system::{PeReport, RunOutcome};

/// Render a 64-bit architectural state digest as its canonical wire
/// form: a fixed-width, zero-padded hex string (`"0x" + 16 digits`),
/// never a JSON number (53-bit mantissas would corrupt it in
/// double-precision clients).
#[must_use]
pub fn digest_hex(digest: u64) -> String {
    format!("{digest:#018x}")
}

/// The `state_digest` envelope: the digest of a
/// [`Snapshot`](crate::snapshot::Snapshot) at a given cycle.
#[must_use]
pub fn state_digest_json(digest: u64, cycle: u64) -> String {
    Envelope::render("state_digest", |j| {
        j.str_field("digest", &digest_hex(digest));
        j.u64_field("cycle", cycle);
    })
}

fn write_pe(j: &mut JsonBuf, p: &PeReport) {
    j.begin_obj();
    j.u64_field("cycles", p.cycles);
    j.u64_field("busy_cycles", p.busy_cycles);
    j.u64_field("instructions", p.stats.instructions);
    j.u64_field("window_hits", p.stats.window_hits);
    j.u64_field("window_misses", p.stats.window_misses);
    j.u64_field("mem_reads", p.stats.mem_reads);
    j.u64_field("mem_writes", p.stats.mem_writes);
    j.u64_field("sends", p.stats.sends);
    j.u64_field("recvs", p.stats.recvs);
    j.u64_field("traps", p.stats.traps);
    j.u64_field("context_switches", p.stats.context_switches);
    j.u64_field("rollouts", p.stats.rollouts);
    j.end_obj();
}

/// Write the `data` body of a [`RunOutcome`] (shared between its own
/// envelope and the job-result envelope `qm-serve` returns).
pub fn write_run_outcome(j: &mut JsonBuf, o: &RunOutcome) {
    j.key("output");
    j.begin_arr();
    for &w in &o.output {
        j.i64_val(i64::from(w));
    }
    j.end_arr();
    j.u64_field("elapsed_cycles", o.elapsed_cycles);
    j.u64_field("instructions", o.instructions);
    j.u64_field("contexts_created", o.contexts_created);
    j.u64_field("peak_live_contexts", o.peak_live_contexts);
    j.u64_field("channel_transfers", o.channel_transfers);
    j.key("channel_high_water");
    j.begin_arr();
    for &(chan, mark) in &o.channel_high_water {
        j.begin_obj();
        j.i64_field("chan", i64::from(chan));
        j.u64_field("mark", mark);
        j.end_obj();
    }
    j.end_arr();
    j.key("mem");
    j.begin_obj();
    j.u64_field("local_accesses", o.mem.local_accesses);
    j.u64_field("remote_accesses", o.mem.remote_accesses);
    j.u64_field("bus_cycles", o.mem.bus_cycles);
    j.end_obj();
    j.key("pes");
    j.begin_arr();
    for p in &o.pes {
        write_pe(j, p);
    }
    j.end_arr();
}

impl RunOutcome {
    /// Serialise as a `qm-api/v1` `run_outcome` envelope.
    #[must_use]
    pub fn to_json(&self) -> String {
        Envelope::render("run_outcome", |j| write_run_outcome(j, self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_hex_is_fixed_width() {
        assert_eq!(digest_hex(0), "0x0000000000000000");
        assert_eq!(digest_hex(u64::MAX), "0xffffffffffffffff");
        assert_eq!(digest_hex(0x1234), "0x0000000000001234");
    }

    #[test]
    fn state_digest_envelope_shape() {
        let json = state_digest_json(0xABC, 42);
        assert_eq!(
            json,
            "{\"schema\":\"qm-api/v1\",\"kind\":\"state_digest\",\
             \"data\":{\"digest\":\"0x0000000000000abc\",\"cycle\":42}}"
        );
    }

    #[test]
    fn run_outcome_envelope_from_a_real_run() {
        let src = "
main:   send+3 #0,#7
        trap #3,#0
";
        let mut sys = crate::Simulation::builder().assembly(src).build().unwrap();
        let outcome = sys.run().unwrap();
        let json = outcome.to_json();
        assert!(json.starts_with("{\"schema\":\"qm-api/v1\",\"kind\":\"run_outcome\""), "{json}");
        assert!(json.contains("\"output\":[7]"), "{json}");
        assert!(json.contains(&format!("\"elapsed_cycles\":{}", outcome.elapsed_cycles)), "{json}");
        assert!(json.contains("\"mem\":{\"local_accesses\":"), "{json}");
        // The body parses back with the shared parser.
        let v = qm_core::json::parse(&json).expect("valid JSON");
        assert_eq!(v.get("kind").and_then(qm_core::json::JsonValue::as_str), Some("run_outcome"));
    }
}
