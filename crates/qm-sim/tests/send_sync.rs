//! Thread-mobility audit for the serving layer.
//!
//! `qm-serve` moves work between threads: job specs cross worker
//! boundaries, and a preempted job's paused `System` is parked by one
//! worker and resumed in place by another. That only stays
//! sound if these types keep their auto traits, so this test pins them —
//! losing `Send` on `System` (e.g. by storing an `Rc` or a non-`Send`
//! trait object) becomes a compile failure here, not a runtime surprise
//! in the server.

use qm_sim::snapshot::Snapshot;
use qm_sim::system::{RunOutcome, SimError, System};
use qm_sim::SystemConfig;

fn assert_send<T: Send>() {}
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn serving_types_are_thread_mobile() {
    // A System owns a `Box<dyn TraceSink>` (Send, not Sync), so the
    // whole machine is Send — movable into a worker thread — but
    // deliberately not Sync: concurrent shared access to a running
    // simulation is never sound.
    assert_send::<System>();

    // Everything that crosses worker threads by value or by Arc.
    assert_send_sync::<Snapshot>();
    assert_send_sync::<SystemConfig>();
    assert_send_sync::<RunOutcome>();
    assert_send_sync::<SimError>();
    assert_send_sync::<qm_verify::Report>();
}
