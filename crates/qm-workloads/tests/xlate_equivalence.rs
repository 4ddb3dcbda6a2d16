//! Engine ≡ oracle: the translated engine against the `Pe::step` oracle
//! (`System::use_step_oracle`). One property, [`engine_matches_oracle`],
//! demands bit-identity of outcomes (or the identical structured error),
//! state digests and snapshots, and that a snapshot captured
//! mid-run on either one restores and finishes on the other with the
//! oracle's result (the engine ≡ oracle clause of
//! `docs/DETERMINISM.md`).
//!
//! Its inputs are random workloads × PE counts (1–128) × channel
//! capacities × placements × pause points, a fixed grid of the
//! same, and hand-written programs that end in every fault the engine
//! can raise — stores into the read-only code segment, fetches outside
//! it and words that do not decode — plus a program Strict verification
//! rejects and halts that cut another PE's run-ahead short, including a
//! halt right after a dispatch. Channel *contacts* — an operation in the
//! cycle order on a channel another PE ran ahead on with quiet
//! transfers — get their own programs: receivers on two PEs taking
//! turns, a channel passed on to a third PE, capacities 0 and 1, halts
//! and faults while quiet transfers are ahead, and a pause at every
//! cycle of a contact window. Each asserts through
//! `System::run_loop_stats` that a contact really happened.

use qm_core::rng::check;
use qm_sim::config::Placement;
use qm_sim::snapshot::Snapshot;
use qm_sim::system::RunStatus;
use qm_sim::{RunLoopStats, RunOutcome, Simulation, System, SystemConfig};
use qm_verify::VerifyLevel;
use qm_workloads::{Workload, WorkloadRun};

/// The property. Builds the same system four times: a full run on the
/// engine and on the oracle must agree bit for bit, and a run paused at
/// `pause_at` on either one must finish on the other exactly as the
/// oracle's full run did. Returns the shared outcome.
fn engine_matches_oracle(
    label: &str,
    build: impl Fn() -> System,
    pause_at: u64,
) -> Result<RunOutcome, String> {
    let (mut engine, mut oracle) = (build(), build());
    oracle.use_step_oracle();
    let a = engine.run().map_err(|e| e.to_string());
    let b = oracle.run().map_err(|e| e.to_string());
    assert_eq!(a, b, "{label}: outcomes diverged");
    let snap_a = Snapshot::capture(&engine);
    let snap_b = Snapshot::capture(&oracle);
    assert_eq!(snap_a.state_digest(), snap_b.state_digest(), "{label}: digests diverged");
    assert_eq!(snap_a, snap_b, "{label}: snapshots diverged");

    for oracle_first in [true, false] {
        let mut sys = build();
        if oracle_first {
            sys.use_step_oracle();
        }
        match sys.run_until(pause_at).map_err(|e| e.to_string()) {
            Ok(RunStatus::Done(outcome)) => {
                assert_eq!(Ok(outcome), b, "{label}: finished before the pause");
            }
            Ok(RunStatus::Paused { .. }) => {
                let mut restored = System::restore(&Snapshot::capture(&sys));
                // The oracle is host-side, not machine state: the
                // snapshot carries none, so the continuation picks its
                // own.
                if !oracle_first {
                    restored.use_step_oracle();
                }
                let out = restored.run().map_err(|e| e.to_string());
                assert_eq!(out, b, "{label}: continuation diverged (oracle first: {oracle_first})");
            }
            Err(e) => assert_eq!(Err(e), b, "{label}: failed before the pause"),
        }
    }
    b
}

fn template(pes: usize, capacity: usize, placement: Placement) -> WorkloadRun {
    let mut cfg = SystemConfig::with_pes(pes);
    cfg.channel_capacity = capacity;
    cfg.placement = placement;
    WorkloadRun::new().config(cfg)
}

fn workload_agrees(
    label: &str,
    w: &Workload,
    pes: usize,
    capacity: usize,
    placement: Placement,
    pause_at: u64,
) -> Result<RunOutcome, String> {
    let build = || template(pes, capacity, placement).prepare(w).expect("prepare").0;
    engine_matches_oracle(label, build, pause_at)
}

/// The default channel capacity.
const CAP: usize = 8;

/// The default placement.
const RR: Placement = Placement::RoundRobin;

#[test]
fn engine_matches_oracle_on_random_configurations() {
    check(24, |g| {
        let (name, w) = match g.below(3) {
            0 => ("matmul", qm_workloads::matmul(g.range(2..=6))),
            1 => ("reduction", qm_workloads::reduction(g.range(4..=24))),
            _ => ("cholesky", qm_workloads::cholesky(g.range(2..=7))),
        };
        let (pes, capacity) = (g.range(1..=128), g.range(0..9));
        let placement = match g.below(3) {
            0 => Placement::RoundRobin,
            1 => Placement::LeastLoaded,
            _ => Placement::Local,
        };
        let pause_at = g.range(1..50_000);
        let label = format!("{name}/{pes}pe/cap{capacity}/{placement:?}/pause{pause_at}");
        workload_agrees(&label, &w, pes, capacity, placement, pause_at).ok();
    });
}

#[test]
fn engine_matches_oracle_across_pe_counts() {
    let w = qm_workloads::matmul(4);
    for pes in [1, 2, 7, 128] {
        workload_agrees(&format!("matmul4/{pes}pe"), &w, pes, CAP, RR, 1_000).ok();
    }
}

#[test]
fn engine_matches_oracle_across_workloads() {
    for (label, w) in
        [("reduction16", qm_workloads::reduction(16)), ("cholesky6", qm_workloads::cholesky(6))]
    {
        workload_agrees(label, &w, 4, CAP, RR, 500).ok();
    }
}

#[test]
fn engine_matches_oracle_under_tight_capacity() {
    let w = qm_workloads::matmul(4);
    workload_agrees("matmul4/4pe/cap2", &w, 4, 2, RR, 1_000).ok();
}

#[test]
fn engine_matches_oracle_under_least_loaded() {
    // Load-counting placement reads other PEs' clocks at every fork, the
    // one placement that makes a batch record the clocks it observed.
    let w = qm_workloads::matmul(4);
    let ll = Placement::LeastLoaded;
    workload_agrees("matmul4/2pe/least-loaded", &w, 2, CAP, ll, 1_000).ok();
    workload_agrees("matmul4/128pe/least-loaded", &w, 128, CAP, ll, 1_000).ok();
}

#[test]
fn snapshots_hand_off_mid_run() {
    // The pause must land inside the run, under either spreading
    // placement.
    let w = qm_workloads::matmul(4);
    for placement in [RR, Placement::LeastLoaded] {
        let out = workload_agrees("matmul4/2pe/handoff", &w, 2, CAP, placement, 2_000);
        let out = out.expect("matmul(4) runs");
        assert!(out.elapsed_cycles > 2_000, "the pause fell after the end of the run");
    }
}

/// Assemble `src` and build it with verification off, so programs the
/// Strict verifier would reject reach the engine too.
fn unverified(src: &str) -> impl Fn() -> System + '_ {
    move || Simulation::builder().assembly(src).verify(VerifyLevel::Off).build().expect("builds")
}

/// The fault a store into the code segment raises at `addr`.
fn code_store_fault(addr: u32) -> String {
    format!("processing element fault: store into the read-only code segment at {addr:#010x}")
}

#[test]
fn store_into_code_faults_identically() {
    // The store would rewrite `slot` before it runs; the code segment is
    // read-only, so both paths fault at the store instead.
    let src = "
main:   fetch #alt,#0 :r18
        store #slot,r18
slot:   plus #1,#0 :r17
        send #0,r17
        trap #2,#0
alt:    plus #2,#0 :r17
";
    let slot = qm_isa::asm::assemble(src).expect("assembles").symbol("slot").expect("slot");
    let err = engine_matches_oracle("code-write", unverified(src), 3).unwrap_err();
    assert_eq!(err, code_store_fault(slot));
}

#[test]
fn repeated_stores_into_code_fault_at_the_first() {
    // A loop that would rewrite `add`'s immediate word twenty times
    // faults on its first store.
    let src = "
main:   plus #0,#0 :r17
        plus #0,#0 :r19
        plus #add,#4 :r18
loop:   store r18,r17
add:    plus r19,#0x12345 :r19
        plus r17,#1 :r17
        lt r17,#20 :r21
        bne r21,@loop
        send #0,r19
        trap #2,#0
";
    let add = qm_isa::asm::assemble(src).expect("assembles").symbol("add").expect("add");
    let err = engine_matches_oracle("code-writes", unverified(src), 60).unwrap_err();
    assert_eq!(err, code_store_fault(add + 4));
}

#[test]
fn stored_halt_faults_where_the_oracle_does() {
    // After a short loop, main builds the encoding of `trap #3,#0` from
    // two immediates, neither of which decodes as a halt, and stores it
    // over its own next instruction. By then the child, on the other
    // PE, has run ahead of the cycle order through its long local loop,
    // whose second half writes a queue word the oracle's child never
    // reaches. The store faults, and the run must end with the child
    // where the oracle left it, not where it ran ahead to.
    // (When stores into code still ran, the engine executed the stored
    // halt only after the child's whole loop.)
    let halt = qm_isa::asm::assemble("trap #3,#0").expect("assembles").words()[0];
    let src = format!(
        "main:   trap #0,#idle :r0,r1
        trap #0,#child :r0,r1
        plus #0,#0 :r17
mainl:  plus r17,#1 :r17
        lt r17,#10 :r21
        bne r21,@mainl
        plus #{:#x},#0x40000000 :r18
        store #slot,r18
slot:   trap #2,#0
child:  plus #0,#0 :r17
childl: plus r17,#1 :r17
        lt r17,#500 :r21
        bne r21,@early
        dup1 :r5
early:  lt r17,#1000 :r21
        bne r21,@childl
        trap #2,#0
idle:   trap #2,#0
",
        halt.wrapping_sub(0x4000_0000)
    );
    let slot = qm_isa::asm::assemble(&src).expect("assembles").symbol("slot").expect("slot");
    let build = || {
        Simulation::builder()
            .assembly(&src)
            .config(SystemConfig::with_pes(2))
            .verify(VerifyLevel::Off)
            .build()
            .expect("builds")
    };
    let err = engine_matches_oracle("stored-halt", build, 20).unwrap_err();
    assert_eq!(err, code_store_fault(slot));
}

#[test]
fn strict_rejected_program_fails_identically() {
    // The builder's UNDERFLOW case: Strict refuses it, Off runs it.
    let src = "
main:   plus+2 r0,r1 :r0
        send+1 #0,r0
        trap #2,#0
";
    let strict = Simulation::builder().assembly(src).verify(VerifyLevel::Strict).build();
    assert!(strict.is_err(), "Strict verification rejects the program");
    engine_matches_oracle("underflow", unverified(src), 1).ok();
}

#[test]
fn every_fetch_runs_or_faults_identically() {
    // Code the host loaded past the object's end runs like the object.
    let past_end = "
main:   plus #end,#8 :r31
end:    .word 0
";
    let obj = qm_isa::asm::assemble(past_end).expect("assembles");
    let tail = qm_isa::asm::assemble("send #0,#5\n trap #2,#0").expect("assembles");
    let build = || {
        let mut sys = System::new(SystemConfig::with_pes(1));
        sys.load_object(&obj);
        sys.memory.load_words(obj.symbol("end").expect("end") + 8, tail.words());
        sys.spawn_main(obj.base());
        sys
    };
    let out = engine_matches_oracle("past-end", build, 2).expect("runs");
    assert_eq!(out.output, vec![5], "the loaded code ran");
    // A misaligned jump target runs the aligned word and carries on.
    let misaligned = "
main:   plus #tgt,#2 :r31
        send #0,#1
        trap #2,#0
tgt:    send #0,#7
        trap #2,#0
";
    let out = engine_matches_oracle("misaligned", unverified(misaligned), 2).expect("runs");
    assert_eq!(out.output, vec![7], "the misaligned target ran");
    // A jump onto a data word and one into the middle of an immediate:
    // neither decodes, and both must fail with the oracle's error.
    let data = "
main:   send #0,#1
        bne #-1,@data
        trap #2,#0
data:   .word 0xFFFFFFFF
";
    let mid_imm = "
main:   send #0,#1
        plus #imm,#4 :r31
imm:    plus #0xFC000000,#0 :r17
        trap #2,#0
";
    for (label, src) in [("data-word", data), ("mid-immediate", mid_imm)] {
        let err = engine_matches_oracle(label, unverified(src), 2).unwrap_err();
        assert!(err.contains("unknown opcode"), "{label}: {err}");
    }
    // A jump into the data segment faults at the fetch.
    let to_data = "
main:   send #0,#1
        plus #0x00100000,#0 :r31
";
    let err = engine_matches_oracle("to-data", unverified(to_data), 2).unwrap_err();
    assert_eq!(err, "processing element fault: fetch outside the code segment at 0x00100000");
}

#[test]
fn halt_stops_every_pe_where_the_oracle_does() {
    // One context halts while another, on the other PE, runs a long
    // register-only loop: the halt must stop that loop at the oracle's
    // cycle, not after a batch that ran ahead of the cycle order. The
    // halt entry is an immediate in one program and computed in the
    // other, and either context may be the one that halts.
    let spin = |name: &str, n: u32, tail: &str| {
        format!(
            "{name}: plus #0,#0 :r17
{name}l: plus r17,#1 :r17
        lt r17,#{n} :r21
        bne r21,@{name}l
        {tail}"
        )
    };
    for (label, halt) in [("imm", "trap #3,#0"), ("computed", "plus #3,#0 :r20\n trap r20,#0")] {
        for main_halts in [true, false] {
            let (main_n, child_n) = if main_halts { (10, 1000) } else { (1000, 10) };
            let (main_tail, child_tail) =
                if main_halts { (halt, "trap #2,#0") } else { ("trap #2,#0", halt) };
            // Round-robin placement: the first fork lands on PE 0, the
            // second on PE 1.
            let src = format!(
                "main:   trap #0,#idle :r0,r1\n trap #0,#child :r0,r1\n{}\n{}\nidle: trap #2,#0\n",
                spin("m", main_n, main_tail),
                spin("child", child_n, child_tail)
            );
            let label = format!("halt-{label}/main-halts-{main_halts}");
            let build = || {
                Simulation::builder()
                    .assembly(&src)
                    .config(SystemConfig::with_pes(2))
                    .verify(VerifyLevel::Off)
                    .build()
                    .expect("builds")
            };
            let out = engine_matches_oracle(&label, build, 20).expect("runs");
            assert!(out.instructions < 2000, "{label}: the halt cut the long loop short");
        }
    }
    // The halt word sits past the object's end, loaded there by the
    // host: the translation covers it all the same.
    let src = format!(
        "main:   trap #0,#idle :r0,r1\n trap #0,#child :r0,r1\n{}\n{}\nidle: trap #2,#0\nend: .word 0\n",
        spin("m", 10, "plus #end,#4 :r31"),
        spin("child", 1000, "trap #2,#0")
    );
    let obj = qm_isa::asm::assemble(&src).expect("assembles");
    let halt = qm_isa::asm::assemble("trap #3,#0").expect("assembles");
    let build = || {
        let mut sys = System::new(SystemConfig::with_pes(2));
        sys.load_object(&obj);
        sys.memory.load_words(obj.symbol("end").expect("end") + 4, halt.words());
        sys.spawn_main(obj.base());
        sys
    };
    let out = engine_matches_oracle("halt-past-end", build, 20).expect("runs");
    assert!(out.instructions < 2000, "halt-past-end: the halt cut the long loop short");
}

/// `src` on `pes` PEs with channel capacity `capacity`, round-robin
/// placement and verification off: the first fork lands on PE 0, the
/// next on PE 1, and so on.
fn on_pes(src: &str, pes: usize, capacity: usize) -> impl Fn() -> System + '_ {
    move || {
        let mut cfg = SystemConfig::with_pes(pes);
        cfg.channel_capacity = capacity;
        Simulation::builder()
            .assembly(src)
            .config(cfg)
            .verify(VerifyLevel::Off)
            .build()
            .expect("builds")
    }
}

/// The engine's run-loop counters over a full run.
fn engine_stats(build: impl Fn() -> System) -> RunLoopStats {
    let mut sys = build();
    sys.run().ok();
    sys.run_loop_stats()
}

/// A child that receives a channel on its input, then `turns` times
/// spins `spin` iterations and receives one value from that channel,
/// and finally sends the sum of the values on its output.
fn turn_taker(name: &str, spin: u32, turns: u32) -> String {
    format!(
        "{name}: recv r17,#0 :r19
        plus #0,#0 :r22
        plus #0,#0 :r23
{name}o: plus #0,#0 :r24
{name}s: plus r24,#1 :r24
        lt r24,#{spin} :r25
        bne r25,@{name}s
        recv r19,#0 :r26
        plus r22,r26 :r22
        plus r23,#1 :r23
        lt r23,#{turns} :r25
        bne r25,@{name}o
        send r18,r22
        trap #2,#0
"
    )
}

#[test]
fn receivers_on_two_pes_take_turns_on_one_channel() {
    // Main fills one channel with six distinct powers of two, then hands
    // it to two children on PEs 1 and 2. The slower spinner runs ahead
    // of the cycle order and takes its values quietly; the faster one's
    // receives come earlier in the cycle order, so each of them must
    // first rewind the other PE. The sums name which values each took.
    let src = turns_program();
    let out = engine_matches_oracle("turns", on_pes(&src, 3, CAP), 150).expect("runs");
    assert_eq!(out.output.iter().sum::<i32>(), 63, "every value was taken once");
    let stats = engine_stats(on_pes(&src, 3, CAP));
    assert!(stats.rewinds_on_contact > 0, "no contact: {stats:?}");
}

#[test]
fn a_channel_passed_on_to_a_third_pe_meets_its_first_owner() {
    // Main fills a channel and passes it to a child on PE 1, which
    // passes it on to a grandchild on PE 2; main and the grandchild then
    // both take values from it, each spinning between turns.
    let src = format!(
        "main:   trap #0,#idle :r0,r1
        trap #6,#0 :r19
        send r19,#1
        send r19,#2
        send r19,#4
        send r19,#8
        send r19,#16
        send r19,#32
        trap #0,#a :r20,r21
        send r20,r19
        plus #0,#0 :r22
        plus #0,#0 :r23
mo:     plus #0,#0 :r24
ms:     plus r24,#1 :r24
        lt r24,#31 :r25
        bne r25,@ms
        recv r19,#0 :r26
        plus r22,r26 :r22
        plus r23,#1 :r23
        lt r23,#3 :r25
        bne r25,@mo
        send #0,r22
        recv r21,#0 :r24
        send #0,r24
        trap #2,#0
idle:   trap #2,#0
a:      recv r17,#0 :r19
        trap #0,#b :r20,r21
        send r20,r19
        recv r21,#0 :r22
        send r18,r22
        trap #2,#0
{}",
        turn_taker("b", 17, 3)
    );
    let out = engine_matches_oracle("passed-on", on_pes(&src, 3, CAP), 200).expect("runs");
    assert_eq!(out.output.iter().sum::<i32>(), 63, "every value was taken once");
    let stats = engine_stats(on_pes(&src, 3, CAP));
    assert!(stats.rewinds_on_contact > 0, "no contact: {stats:?}");
}

#[test]
fn paced_sends_to_two_receivers_at_capacity_zero_and_one() {
    // Main hands one channel to two children, then sends six values on
    // it, spinning before each. At capacity 0 every transfer is a
    // rendezvous, which is never quiet; at capacity 1 a receiver that
    // ran ahead can take the one cached value quietly, and main's next
    // send, earlier in the cycle order, must rewind it first.
    let send_paced: String = [1, 2, 4, 8, 16, 32]
        .iter()
        .enumerate()
        .map(|(k, v)| {
            format!(
                "        plus #0,#0 :r24
p{k}:     plus r24,#1 :r24
        lt r24,#9 :r25
        bne r25,@p{k}
        send r19,#{v}
"
            )
        })
        .collect();
    let src = format!(
        "main:   trap #0,#idle :r0,r1
        trap #6,#0 :r19
        trap #0,#a :r20,r21
        trap #0,#b :r22,r23
        send r20,r19
        send r22,r19
{send_paced}        recv r21,#0 :r24
        send #0,r24
        recv r23,#0 :r24
        send #0,r24
        trap #2,#0
idle:   trap #2,#0
{}{}",
        turn_taker("a", 29, 3),
        turn_taker("b", 13, 3)
    );
    for capacity in [0, 1] {
        let label = format!("paced/cap{capacity}");
        let out = engine_matches_oracle(&label, on_pes(&src, 3, capacity), 150).expect("runs");
        assert_eq!(out.output.iter().sum::<i32>(), 63, "{label}: every value was taken once");
    }
    let rendezvous = engine_stats(on_pes(&src, 3, 0));
    assert_eq!(rendezvous.rewinds_on_contact, 0, "a rendezvous is never quiet: {rendezvous:?}");
    let cached = engine_stats(on_pes(&src, 3, 1));
    assert!(cached.rewinds_on_contact > 0, "no contact: {cached:?}");
}

#[test]
fn halts_and_faults_rewind_another_pes_quiet_transfers() {
    // The child on PE 1 runs ahead through quiet transfers on a channel
    // of its own, and sends main a value on the way, on a channel main
    // allocated and passed to it. Main's receive of that value comes
    // earlier in the cycle order than the child's send, so it rewinds
    // the child and blocks. Main then ends the run, by a
    // halt or a fault, while the child again holds quiet transfers ahead
    // of the cycle order: the run must end with the child's channel,
    // transfer count and high-water mark where the oracle left them.
    let child = "c:      recv r17,#0 :r18
        trap #6,#0 :r19
        plus #0,#0 :r23
c1:     send r19,r23
        recv r19,#0 :r26
        plus r23,#1 :r23
        lt r23,#40 :r25
        bne r25,@c1
        send r18,r23
c2:     send r19,r23
        send r19,r23
        recv r19,#0 :r26
        recv r19,#0 :r26
        plus r23,#1 :r23
        lt r23,#400 :r25
        bne r25,@c2
        trap #2,#0
";
    for (label, end) in [("halt", "trap #3,#0"), ("fault", "store #main,r26")] {
        let src = format!(
            "main:   trap #0,#idle :r0,r1
        trap #0,#c :r20,r21
        trap #6,#0 :r22
        send r20,r22
        plus #0,#0 :r24
ms:     plus r24,#1 :r24
        lt r24,#30 :r25
        bne r25,@ms
        recv r22,#0 :r26
        send #0,r26
        {end}
idle:   trap #2,#0
{child}"
        );
        let result = engine_matches_oracle(label, on_pes(&src, 2, CAP), 300);
        match label {
            "halt" => assert_eq!(result.expect("halts").output, vec![40]),
            _ => assert!(result.unwrap_err().contains("read-only code segment"), "{label}"),
        }
        let stats = engine_stats(on_pes(&src, 2, CAP));
        assert!(stats.rewinds_on_contact > 0 && stats.rewinds_at_end > 0, "{label}: {stats:?}");
    }
}

/// The six-value, two-receiver program of
/// [`receivers_on_two_pes_take_turns_on_one_channel`].
fn turns_program() -> String {
    format!(
        "main:   trap #0,#idle :r0,r1
        trap #6,#0 :r19
        send r19,#1
        send r19,#2
        send r19,#4
        send r19,#8
        send r19,#16
        send r19,#32
        trap #0,#a :r20,r21
        trap #0,#b :r22,r23
        send r20,r19
        send r22,r19
        recv r21,#0 :r24
        send #0,r24
        recv r23,#0 :r24
        send #0,r24
        trap #2,#0
idle:   trap #2,#0
{}{}",
        turn_taker("a", 40, 3),
        turn_taker("b", 23, 3)
    )
}

#[test]
fn pausing_at_every_cycle_of_a_contact_window_matches_the_oracle() {
    // Pause the run-ahead-heavy turn-taking run at every cycle of the
    // window in which its receivers meet on the shared channel: each
    // paused engine must equal the oracle paused at the same cycle, and
    // each snapshot must restore and finish as the uninterrupted run.
    let src = turns_program();
    let build = on_pes(&src, 3, CAP);
    let full = {
        let mut oracle = build();
        oracle.use_step_oracle();
        oracle.run().expect("runs")
    };
    let mut contacts = 0;
    for limit in 300..700 {
        let (mut engine, mut oracle) = (build(), build());
        oracle.use_step_oracle();
        let a = engine.run_until(limit).expect("runs");
        let b = oracle.run_until(limit).expect("runs");
        assert_eq!(a, b, "pause at {limit}");
        let snap = Snapshot::capture(&engine);
        assert_eq!(snap, Snapshot::capture(&oracle), "snapshot at {limit}");
        contacts += engine.run_loop_stats().rewinds_on_contact;
        let mut restored = System::restore(&snap);
        assert_eq!(restored.run().expect("finishes"), full, "finish from {limit}");
    }
    assert!(contacts > 0, "the window holds no contact");
}

#[test]
fn run_loop_stats_count_scheduling_and_stay_out_of_snapshots() {
    let w = qm_workloads::matmul(4);
    let build = |pes| template(pes, CAP, RR).prepare(&w).expect("prepare").0;
    // One PE is always the next to act: nothing stops at the cycle-order
    // bound, hands off, runs ahead or rewinds.
    let mut one = build(1);
    one.run().expect("runs");
    let s = one.run_loop_stats();
    assert!(s.outer_steps > 0, "{s:?}");
    assert_eq!(s, RunLoopStats { outer_steps: s.outer_steps, ..RunLoopStats::default() });
    // Four PEs run ahead and hand off; every hand-off and every exit for
    // a PE that was not running follows a stop at the bound.
    let mut four = build(4);
    four.run().expect("runs");
    let s = four.run_loop_stats();
    assert!(s.handoffs > 0 && s.saves > 0 && s.exits_not_running > 0, "{s:?}");
    let stops = s.stops_channel + s.stops_global + s.stops_trap + s.stops_full_log;
    assert!(stops >= s.handoffs + s.exits_not_running, "{s:?}");
    assert_eq!(s.rewinds_at_end, 0, "matmul ends without a halt: {s:?}");
    // The counters are host-side: pausing more often changes them but
    // not the machine state, and a restored system starts from zero.
    let (mut once, mut thrice) = (build(4), build(4));
    once.run_until(3_000).expect("runs");
    for limit in [1_000, 2_000, 3_000] {
        thrice.run_until(limit).expect("runs");
    }
    assert_ne!(once.run_loop_stats(), thrice.run_loop_stats());
    let snap = Snapshot::capture(&thrice);
    assert_eq!(Snapshot::capture(&once), snap);
    let mut restored = System::restore(&snap);
    assert_eq!(restored.run_loop_stats(), RunLoopStats::default());
    assert_eq!(Snapshot::capture(&restored).state_digest(), snap.state_digest());
    assert_eq!(restored.run().expect("finishes"), build(4).run().expect("runs"));
}

#[test]
fn a_halt_right_after_a_dispatch_cuts_run_ahead_at_the_dispatch() {
    // Main forks a halting child onto PE 0 and a long local loop onto
    // PE 1, then ends. PE 0 dispatches the child at cycle `t` and the
    // child halts as its first step, which starts only after the
    // dispatch cost. In the cycle order that step is keyed `(t, 0)`, so
    // the loop's steps from `t` on never ran; the rewind must not replay
    // the ones that fall inside the dispatch.
    let src = "main:   trap #0,#h :r0,r1
        trap #0,#c :r0,r1
        trap #2,#0
h:      trap #3,#0
c:      plus #0,#0 :r17
cl:     plus r17,#1 :r17
        lt r17,#1000 :r21
        bne r21,@cl
        trap #2,#0
";
    for (label, pes) in [("halt-after-dispatch/2pe", 2), ("halt-after-dispatch/3pe", 3)] {
        let out = engine_matches_oracle(label, on_pes(src, pes, CAP), 5).expect("halts");
        assert!(out.instructions < 1000, "{label}: the halt cut the loop short");
    }
}
