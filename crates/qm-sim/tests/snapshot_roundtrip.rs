//! Hardening and canonical-bytes tests for the `qm-snap/v4` format via
//! the public API: corrupt inputs yield structured errors (never
//! panics), and capture → encode → decode → restore → capture is
//! byte-identical — including for mid-run states with blocked contexts
//! and a placement policy that reads other PEs' clocks.
//!
//! (Dependency-free on purpose: part of the offline test gate.)

use qm_sim::config::Placement;
use qm_sim::snapshot::{Snapshot, SnapshotError};
use qm_sim::system::RunStatus;
use qm_sim::{Simulation, System, SystemConfig};

/// Fork–join with a child per PE; enough channel traffic to leave
/// blocked contexts at most capture points.
const FORK_JOIN: &str = "
main:   trap #0,#child :r0,r1
        trap #0,#child :r2,r3
        send r0,#20
        send r2,#1
        recv r1,#0 :r4
        recv r3,#0 :r5
        plus+2 r4,r5 :r6
        send+4 #0,r6
        trap #2,#0
child:  recv r17,#0 :r0
        mul+1 r0,#2 :r0
        send+1 r18,r0
        trap #2,#0
";

fn paused_system() -> System {
    let mut sys = Simulation::builder()
        .config(SystemConfig { placement: Placement::LeastLoaded, ..SystemConfig::with_pes(4) })
        .assembly(FORK_JOIN)
        .build()
        .expect("assembles");
    let status = sys.run_until(60).expect("partial run");
    assert!(matches!(status, RunStatus::Paused { .. }), "workload outlives the pause point");
    sys
}

#[test]
fn mid_run_capture_round_trips_byte_identically() {
    let sys = paused_system();
    let snap = Snapshot::capture(&sys);
    assert!(snap.cycle() > 0, "capture is genuinely mid-run");
    let bytes = snap.encode();
    assert_eq!(bytes, snap.encode(), "encode is deterministic");

    let decoded = Snapshot::decode(&bytes).expect("decodes");
    assert_eq!(decoded, snap, "decode inverts encode");

    let restored = System::restore(&decoded).expect("restores");
    let recaptured = Snapshot::capture(&restored);
    assert_eq!(recaptured, snap, "capture after restore reproduces the snapshot");
    assert_eq!(recaptured.encode(), bytes, "… byte for byte");
}

#[test]
fn digests_agree_across_the_round_trip_and_track_progress() {
    let sys = paused_system();
    let snap = Snapshot::capture(&sys);
    let restored = System::restore(&snap).expect("restores");
    assert_eq!(
        Snapshot::capture(&restored).state_digest(),
        snap.state_digest(),
        "restore preserves the architectural digest"
    );
    let mut advanced = System::restore(&snap).expect("restores");
    advanced.run().expect("finishes");
    assert_ne!(
        Snapshot::capture(&advanced).state_digest(),
        snap.state_digest(),
        "running to completion changes the digest"
    );
}

#[test]
fn wrong_magic_is_rejected() {
    let mut bytes = Snapshot::capture(&paused_system()).encode();
    bytes[0] = b'X';
    assert_eq!(Snapshot::decode(&bytes), Err(SnapshotError::BadMagic));
    assert_eq!(Snapshot::decode(b"not a snapshot at all..."), Err(SnapshotError::BadMagic));
}

#[test]
fn unknown_versions_are_rejected_with_the_version() {
    let mut bytes = Snapshot::capture(&paused_system()).encode();
    // 3 is the previous layout, which carried the automatic snapshot
    // cadence; it is refused rather than migrated.
    for version in [3, 0x2A] {
        bytes[8] = version;
        assert_eq!(Snapshot::decode(&bytes), Err(SnapshotError::UnknownVersion(version.into())));
    }
}

#[test]
fn every_truncation_point_errors_instead_of_panicking() {
    let bytes = Snapshot::capture(&paused_system()).encode();
    for len in 0..bytes.len() {
        let err = Snapshot::decode(&bytes[..len]).expect_err("truncated input must not decode");
        assert!(
            matches!(err, SnapshotError::Truncated(_) | SnapshotError::ChecksumMismatch { .. }),
            "truncation to {len} bytes gave {err:?}"
        );
    }
}

#[test]
fn every_single_byte_flip_is_detected() {
    let bytes = Snapshot::capture(&paused_system()).encode();
    // Flipping any payload byte must surface as *some* structured error
    // (usually a checksum mismatch; table/header flips hit the earlier
    // guards). Step a few bytes at a time to keep the test quick.
    for i in (0..bytes.len()).step_by(7) {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x40;
        if let Err(e) = Snapshot::decode(&corrupt) {
            let _ = e.to_string(); // Display never panics either
        } else {
            // A flip inside the version/count/table that still decodes
            // would be a hole in the armour — only the magic's case
            // variations could legitimately survive, and they cannot.
            panic!("flip at byte {i} went undetected");
        }
    }
}
