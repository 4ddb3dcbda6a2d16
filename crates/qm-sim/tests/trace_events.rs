//! Integration coverage for the structured trace layer: a multi-context
//! program recorded end-to-end, the Chrome exporter's JSON shape, and the
//! guarantee that tracing never perturbs the simulation.

use qm_sim::config::SystemConfig;
use qm_sim::msg::ChanDir;
use qm_sim::system::System;
use qm_sim::trace::{ChromeTrace, Recorder, TraceEvent, TraceRecord};

/// Four children each double a value; main scatters and gathers.
const FAN_OUT: &str = "
main:   trap #0,#child :r0,r1
        trap #0,#child :r2,r3
        trap #0,#child :r4,r5
        trap #0,#child :r6,r7
        send r0,#1
        send r2,#2
        send r4,#3
        send r6,#4
        recv r1,#0 :r8
        recv r3,#0 :r9
        recv r5,#0 :r10
        recv r7,#0 :r11
        plus r8,r9 :r12
        plus r10,r11 :r13
        plus r12,r13 :r14
        send #0,r14
        trap #2,#0
child:  recv r17,#0 :r0
        mul+1 r0,#2 :r0
        send+1 r18,r0
        trap #2,#0
";

/// The recorded events that match `f`.
fn matching(rec: &Recorder, f: impl Fn(&TraceEvent) -> bool) -> Vec<TraceRecord> {
    rec.records().into_iter().filter(|r| f(&r.event)).collect()
}

fn traced_system(pes: usize, capacity: usize) -> (System, Recorder) {
    let mut cfg = SystemConfig::with_pes(pes);
    cfg.channel_capacity = capacity;
    let mut sys = System::with_assembly(cfg, FAN_OUT).unwrap();
    let rec = Recorder::new(1 << 16);
    sys.set_trace_sink(rec.sink());
    (sys, rec)
}

#[test]
fn fan_out_run_produces_a_complete_event_stream() {
    let (mut sys, rec) = traced_system(4, 8);
    let out = sys.run().unwrap();
    assert_eq!(out.output, vec![20]);

    let forks = matching(&rec, |e| matches!(e, TraceEvent::Fork { .. }));
    assert_eq!(forks.len(), 4, "one fork event per child");
    for f in &forks {
        assert!(matches!(f.event, TraceEvent::Fork { parent: 0, .. }));
    }

    let retires = matching(&rec, |e| matches!(e, TraceEvent::CtxRetire { .. }));
    assert_eq!(retires.len(), 5, "main and all four children retire");

    // Every completed channel transfer shows up as a send and a recv
    // event; child results plus the host report.
    let sends = matching(&rec, |e| matches!(e, TraceEvent::ChanSend { .. }));
    let recvs = matching(&rec, |e| matches!(e, TraceEvent::ChanRecv { .. }));
    assert_eq!(sends.len() as u64, out.pes.iter().map(|p| p.stats.sends).sum::<u64>());
    assert_eq!(recvs.len() as u64, out.pes.iter().map(|p| p.stats.recvs).sum::<u64>());

    // With message-cache slots free, scattered sends park as cache hits.
    let hits = matching(&rec, |e| matches!(e, TraceEvent::CacheHit { .. }));
    assert!(!hits.is_empty(), "capacity-8 sends park in the message cache");

    // Kernel traps cover the forks, the retires and the halt-free end.
    let traps = matching(&rec, |e| matches!(e, TraceEvent::KernelTrap { .. }));
    assert_eq!(traps.len() as u64, out.pes.iter().map(|p| p.stats.traps).sum::<u64>());

    // Every block names the channel it parked on and is eventually
    // matched by a wake on the same channel (no lost wakeups).
    let blocks = matching(&rec, |e| matches!(e, TraceEvent::CtxBlock { .. }));
    let wakes = matching(&rec, |e| matches!(e, TraceEvent::CtxWake { .. }));
    for b in &blocks {
        let TraceEvent::CtxBlock { ctx, chan, dir, pc, .. } = b.event else { unreachable!() };
        assert!(pc > 0, "blocked PC recorded");
        let _ = (ctx, chan, dir);
    }
    assert!(
        wakes.len() <= blocks.len(),
        "every wake corresponds to a block ({} wakes, {} blocks)",
        wakes.len(),
        blocks.len()
    );
    assert_eq!(rec.dropped(), 0);
}

#[test]
fn pure_rendezvous_run_records_rendezvous_events() {
    let (mut sys, rec) = traced_system(2, 0);
    let out = sys.run().unwrap();
    assert_eq!(out.output, vec![20]);
    let rendezvous = matching(&rec, |e| matches!(e, TraceEvent::Rendezvous { .. }));
    assert!(!rendezvous.is_empty(), "capacity-0 transfers complete as rendezvous");
    let spills = matching(&rec, |e| matches!(e, TraceEvent::CacheSpill { .. }));
    let hits = matching(&rec, |e| matches!(e, TraceEvent::CacheHit { .. }));
    assert!(hits.is_empty(), "no cache slots, no hits");
    // A blocked send on an empty rendezvous channel parks as a spill.
    assert!(!spills.is_empty(), "sender-first transfers spill to the blocked queue");
    for s in &spills {
        assert!(matches!(s.event, TraceEvent::CacheSpill { senders: 1, .. }));
    }
    let blocks = matching(&rec, |e| matches!(e, TraceEvent::CtxBlock { dir: ChanDir::Send, .. }));
    assert!(!blocks.is_empty(), "the spilling sender blocks");
}

#[test]
fn tracing_never_perturbs_the_run() {
    for (pes, capacity) in [(1, 8), (2, 0), (4, 8)] {
        let mut cfg = SystemConfig::with_pes(pes);
        cfg.channel_capacity = capacity;
        let mut plain = System::with_assembly(cfg.clone(), FAN_OUT).unwrap();
        let untraced = plain.run().unwrap();
        let mut cfg2 = SystemConfig::with_pes(pes);
        cfg2.channel_capacity = capacity;
        let mut sys = System::with_assembly(cfg2, FAN_OUT).unwrap();
        let rec = Recorder::new(1 << 16);
        sys.set_trace_sink(rec.sink());
        let traced = sys.run().unwrap();
        assert_eq!(untraced, traced, "pes={pes} capacity={capacity}");
    }
}

#[test]
fn chrome_export_is_well_formed_and_lane_complete() {
    let mut cfg = SystemConfig::with_pes(4);
    cfg.channel_capacity = 8;
    let mut sys = System::with_assembly(cfg, FAN_OUT).unwrap();
    let chrome = ChromeTrace::new();
    sys.set_trace_sink(chrome.sink());
    sys.run().unwrap();

    let json = chrome.to_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.trim_end().ends_with('}'));
    // Balanced slices: every B has an E (to_json closes stragglers).
    assert_eq!(
        json.matches("\"ph\":\"B\"").count(),
        json.matches("\"ph\":\"E\"").count(),
        "balanced duration slices"
    );
    // One process lane per PE that did work, named contexts.
    assert!(json.contains("\"name\":\"PE 0\""));
    assert!(json.contains("\"name\":\"ctx0\""));
    assert!(json.contains("\"name\":\"process_name\""));
    assert!(json.contains("\"name\":\"thread_name\""));
    // Instant events carry thread scope.
    assert!(json.contains("\"ph\":\"i\""));
    assert!(json.contains("\"s\":\"t\""));
    // Braces balance (cheap structural sanity without a JSON parser).
    let opens = json.matches('{').count();
    let closes = json.matches('}').count();
    assert_eq!(opens, closes, "balanced braces");
    // No trailing comma before the closing bracket.
    assert!(!json.contains(",\n]"));
}
