//! Capture → restore → capture reproduces the snapshot exactly, through
//! the public API — including for mid-run states with blocked contexts
//! and a placement policy that reads other PEs' clocks — and the
//! architectural digest survives the round trip.
//!
//! (Dependency-free on purpose: part of the offline test gate.)

use qm_sim::config::Placement;
use qm_sim::snapshot::Snapshot;
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
fn mid_run_capture_round_trips_to_an_equal_snapshot() {
    let sys = paused_system();
    let snap = Snapshot::capture(&sys);
    assert!(snap.cycle() > 0, "capture is genuinely mid-run");
    assert_eq!(Snapshot::capture(&sys), snap, "capture is deterministic");

    let recaptured = Snapshot::capture(&System::restore(&snap));
    assert_eq!(recaptured, snap, "capture after restore reproduces the snapshot");
}

#[test]
fn digests_agree_across_the_round_trip_and_track_progress() {
    let sys = paused_system();
    let snap = Snapshot::capture(&sys);
    let restored = System::restore(&snap);
    assert_eq!(
        Snapshot::capture(&restored).state_digest(),
        snap.state_digest(),
        "restore preserves the architectural digest"
    );
    let mut advanced = System::restore(&snap);
    advanced.run().expect("finishes");
    assert_ne!(
        Snapshot::capture(&advanced).state_digest(),
        snap.state_digest(),
        "running to completion changes the digest"
    );
}
