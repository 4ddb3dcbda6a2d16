//! Proof that the simulator's steady-state path performs **zero heap
//! allocations per step** once warm.
//!
//! The test installs a counting `#[global_allocator]` (this file is its
//! own test binary, so the counter sees nothing but this test and the
//! libtest harness), runs a two-context channel ping-pong long enough
//! for every pool to reach its high-water mark — scheduler heap,
//! channel wait queues, per-context ack/ready slots, memory pages — and
//! then asserts that further simulation windows allocate nothing.
//!
//! The workload deliberately exercises the whole hot path on every
//! iteration: a send that blocks, a context switch (window rollout to
//! the memory queue page), a rendezvous wake, a scheduler re-plant and
//! a dispatch (window restore). A regression anywhere on that path — a
//! per-step `Vec`, a cloned map, a rebuilt report — shows up as a
//! non-zero count in *every* measurement window.
//!
//! The ping-pong reuses one warm channel pair, so a second workload
//! forks a child over two fresh channels on every iteration, as the
//! bundled workloads do, and bounds the allocations per channel
//! created: the channel queues must draw on pooled storage, not
//! allocate per channel.
//!
//! This file holds exactly one `#[test]` so no sibling test can
//! allocate concurrently with a measurement window. Harness bookkeeping
//! on other threads is still theoretically possible, so each ping-pong
//! configuration takes the minimum over three consecutive windows: a
//! real per-step allocation pollutes all three; stray noise cannot. The
//! fork workload's bound (under one allocation per 100 channels) leaves
//! room for such noise in every window.

use qm_core::alloc_count::CountingAlloc;
use qm_sim::config::SystemConfig;
use qm_sim::system::{RunStatus, System};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

/// Main forks one echo child, then ping-pongs a value through a channel
/// pair tens of thousands of times. Channel ids and the loop counter
/// live in globals (not consumed on read); each received value passes
/// through a window slot so the queue-register path is exercised too.
/// The final iteration sends 0, which the child echoes and treats as
/// its retire signal.
const PING_PONG: &str = "
main:   trap #0,#child :r0,r1
        plus r0,#0 :r19          ; to-child channel
        plus r1,#0 :r20          ; from-child channel
        plus #40000,#0 :r17      ; ping count
loop:   send r19,#5
        recv r20,#0 :r2
        plus r2,#0 :r21          ; drain the window slot
        minus r17,#1 :r17
        bne r17,@loop
        send r19,#0              ; poison pill
        recv r20,#0 :r2
        plus r2,#0 :r21
        trap #2,#0
child:  plus r17,#0 :r25         ; inbound channel
        plus r18,#0 :r26         ; outbound channel
cl:     recv r25,#0 :r2
        plus r2,#0 :r27
        send r26,r27             ; echo
        bne r27,@cl              ; a 0 echo means retire
        trap #2,#0
";

/// Warm the system up, then assert that three consecutive simulation
/// windows of `window` cycles each allocate nothing (minimum over the
/// three, to discount test-harness noise from other threads).
fn assert_zero_steady_state(pes: usize, capacity: usize) {
    let mut cfg = SystemConfig::with_pes(pes);
    cfg.channel_capacity = capacity;
    let mut sys = System::with_assembly(cfg, PING_PONG).expect("assembles");

    let warmup = 60_000;
    let window = 150_000;
    match sys.run_until(warmup).expect("warm-up runs") {
        RunStatus::Paused { .. } => {}
        RunStatus::Done(_) => panic!("workload must outlive the warm-up window"),
    }

    let mut deltas = [0u64; 3];
    for (i, d) in deltas.iter_mut().enumerate() {
        let limit = warmup + window * (i as u64 + 1);
        let before = GLOBAL.count();
        match sys.run_until(limit).expect("measurement window runs") {
            RunStatus::Paused { .. } => {}
            RunStatus::Done(_) => panic!("workload must outlive window {i}"),
        }
        *d = GLOBAL.count() - before;
    }
    let min = *deltas.iter().min().expect("three windows");
    assert_eq!(
        min, 0,
        "steady-state path allocated (pes={pes} capacity={capacity}): \
         window deltas {deltas:?} over {window}-cycle windows"
    );

    // The program still completes correctly after the instrumented
    // windows — the measurement did not wedge the machine.
    match sys.run_until(u64::MAX).expect("completes") {
        RunStatus::Done(out) => assert!(out.output.is_empty()),
        RunStatus::Paused { .. } => unreachable!("u64::MAX cannot pause"),
    }
}

/// Global word where [`FORKS`] keeps its remaining-iteration count, so
/// the test can tell how many channels a window created.
const COUNTER: u32 = 0x0010_0000;

/// The run_big pattern: each iteration forks a child over two fresh
/// channels, sends it five values (which wait in the message cache
/// while the cache has room) and collects the child's sum. Every
/// channel is used once and never again, so a table that allocated
/// per channel would allocate on every iteration.
const FORKS: &str = "
main:   plus #10000,#0 :r17      ; iterations
loop:   store #1048576,r17       ; publish the count (COUNTER)
        trap #0,#child :r0,r1
        plus r0,#0 :r19          ; to-child channel
        plus r1,#0 :r20          ; from-child channel
        send r19,#1
        send r19,#2
        send r19,#3
        send r19,#4
        send r19,#5
        recv r20,#0 :r2
        plus r2,#0 :r21
        minus r17,#1 :r17
        bne r17,@loop
        store #1048576,#0
        trap #2,#0
child:  plus r17,#0 :r25         ; inbound channel
        plus r18,#0 :r26         ; outbound channel
        plus #0,#0 :r27
        plus #5,#0 :r24          ; values to collect
cl:     recv r25,#0 :r2
        plus r2,r27 :r27
        minus r24,#1 :r24
        bne r24,@cl
        send r26,r27             ; the sum, 15
        trap #2,#0
";

/// Past a warm-up, assert that three consecutive windows of `window`
/// cycles each create at least 2,000 channels and make fewer than one
/// allocation per 100 of them. Not zero: the context table and the
/// per-context and per-channel slabs still grow (by doubling) with
/// every fork.
fn assert_fresh_channels_allocation_free(pes: usize, capacity: usize) {
    let mut cfg = SystemConfig::with_pes(pes);
    cfg.channel_capacity = capacity;
    let mut sys = System::with_assembly(cfg, FORKS).expect("assembles");
    let remaining = |sys: &System| i64::from(sys.memory.peek_global(COUNTER));

    let warmup = 100_000;
    let window = 300_000;
    match sys.run_until(warmup).expect("warm-up runs") {
        RunStatus::Paused { .. } => {}
        RunStatus::Done(_) => panic!("workload must outlive the warm-up window"),
    }
    for i in 0..3u64 {
        let left = remaining(&sys);
        let before = GLOBAL.count();
        match sys.run_until(warmup + window * (i + 1)).expect("measurement window runs") {
            RunStatus::Paused { .. } => {}
            RunStatus::Done(_) => panic!("workload must outlive window {i}"),
        }
        let allocs = GLOBAL.count() - before;
        let channels = 2 * (left - remaining(&sys));
        assert!(channels >= 2_000, "window {i} created only {channels} channels");
        assert!(
            allocs * 100 < channels.unsigned_abs(),
            "fresh channels allocate (pes={pes} capacity={capacity}): {allocs} allocations \
             over {channels} channels in window {i}"
        );
    }
    match sys.run_until(u64::MAX).expect("completes") {
        RunStatus::Done(out) => assert!(out.output.is_empty()),
        RunStatus::Paused { .. } => unreachable!("u64::MAX cannot pause"),
    }
    assert_eq!(remaining(&sys), 0, "every iteration ran");
}

#[test]
fn steady_state_makes_zero_allocations_per_step() {
    // One PE: every transfer context-switches (the cholesky/1pe regime
    // the scheduler fix targets). Two PEs: cross-PE rendezvous and
    // wake-ups. Capacity 0 forces pure rendezvous; capacity 8 exercises
    // the buffered message-cache path.
    for (pes, capacity) in [(1, 0), (1, 8), (2, 0), (2, 8)] {
        assert_zero_steady_state(pes, capacity);
    }
    // Fresh channels on every fork: parked senders at capacity 0,
    // cached values at capacity 8.
    for (pes, capacity) in [(1, 0), (1, 8), (2, 0), (2, 8)] {
        assert_fresh_channels_allocation_free(pes, capacity);
    }
}
