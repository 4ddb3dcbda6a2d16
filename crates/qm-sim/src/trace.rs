//! Structured event tracing and metrics (replaces the old
//! `System::trace` stderr flag).
//!
//! The simulator emits typed [`TraceEvent`]s — context dispatch / block /
//! wake / retire, forks, channel sends / receives / rendezvous,
//! message-cache hits and spills, ring-bus transfers and kernel traps —
//! into a [`TraceSink`] installed with
//! [`System::set_trace_sink`](crate::System::set_trace_sink). Three sinks
//! are provided:
//!
//! * none installed — the default: event construction is skipped entirely
//!   (a single branch on an `Option`), so an untraced run pays nothing;
//! * [`Recorder`] — a bounded in-memory ring buffer, queryable from tests
//!   through a cloneable handle;
//! * [`ChromeTrace`] — a Chrome trace-event JSON exporter (one process
//!   lane per PE, one thread lane per context) loadable in Perfetto or
//!   `chrome://tracing`.
//!
//! Modules that cannot reach the sink directly (the channel table, the
//! shared memory) buffer events in a [`TraceBuffer`]; the run loop drains
//! them after every step, stamping the acting PE's cycle clock.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex};

use crate::msg::ChanDir;
use crate::{CtxId, UWord, Word};

/// Which kernel fork service created a context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForkKind {
    /// `trap #0` — recursive fork, fresh in/out channels, spread by the
    /// placement policy.
    Recursive,
    /// `trap #1` — iterative fork, inherits the parent's out channel.
    Iterative,
    /// `trap #7` — recursive fork pinned to the forking PE.
    Local,
}

/// One structured simulator event. Every variant is `Copy`: recording an
/// event never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A context started (or resumed) executing on its PE.
    CtxDispatch {
        /// The dispatched context.
        ctx: CtxId,
        /// Program counter it resumes at.
        pc: UWord,
        /// True when the context never left the PE (window registers
        /// intact — the §5.2 fast path).
        resident: bool,
    },
    /// The running context blocked on a channel rendezvous.
    CtxBlock {
        /// The blocking context.
        ctx: CtxId,
        /// Channel it is parked on.
        chan: Word,
        /// Whether it was sending or receiving.
        dir: ChanDir,
        /// PC of the blocked instruction (re-executed on resume).
        pc: UWord,
        /// Instructions retired in the residency slice that just ended.
        instructions: u64,
    },
    /// A blocked context was re-readied by a channel partner.
    CtxWake {
        /// The woken context.
        ctx: CtxId,
        /// Channel the rendezvous completed on.
        chan: Word,
        /// Earliest cycle the context may resume.
        at: u64,
    },
    /// A context terminated (`trap #2`).
    CtxRetire {
        /// The terminating context.
        ctx: CtxId,
        /// Instructions retired in its final residency slice.
        instructions: u64,
    },
    /// The kernel created a context.
    Fork {
        /// Which fork service ran.
        kind: ForkKind,
        /// The forking context.
        parent: CtxId,
        /// The new context.
        child: CtxId,
        /// PE the child was placed on.
        child_pe: usize,
        /// Child entry point.
        pc: UWord,
    },
    /// A send completed (value accepted by the channel layer).
    ChanSend {
        /// Sending context.
        ctx: CtxId,
        /// Channel sent on (0 = host).
        chan: Word,
        /// The transferred word.
        value: Word,
    },
    /// A receive completed (value delivered to the context).
    ChanRecv {
        /// Receiving context.
        ctx: CtxId,
        /// Channel received on (0 = host).
        chan: Word,
        /// The transferred word.
        value: Word,
    },
    /// A sender and receiver met on a channel: one of them had been
    /// parked and is now released.
    Rendezvous {
        /// Channel the rendezvous completed on.
        chan: Word,
        /// Sending context.
        sender: CtxId,
        /// Receiving context.
        receiver: CtxId,
        /// The transferred word.
        value: Word,
    },
    /// A send was absorbed by a free message-cache slot (§5.5): the
    /// sender continues without blocking.
    CacheHit {
        /// Sending context.
        ctx: CtxId,
        /// Channel the value parked on.
        chan: Word,
        /// The parked word.
        value: Word,
        /// Cache occupancy after parking.
        buffered: usize,
    },
    /// The message cache was full: the sender spills to the blocked
    /// queue.
    CacheSpill {
        /// Spilling context.
        ctx: CtxId,
        /// The full channel.
        chan: Word,
        /// The word that could not be parked.
        value: Word,
        /// Senders now parked behind the cache (including this one).
        senders: usize,
    },
    /// A word access crossed the ring bus.
    BusTransfer {
        /// Global address accessed.
        addr: UWord,
        /// Bus cycles charged.
        cycles: u64,
    },
    /// A kernel entry was invoked (`trap #n`).
    KernelTrap {
        /// Trapping context.
        ctx: CtxId,
        /// Kernel entry number.
        entry: Word,
        /// Entry name (`rfork`, `end`, …).
        name: &'static str,
        /// The trap argument word.
        arg: Word,
    },
}

/// A recorded event with its timestamp and originating PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// The acting PE's cycle clock when the event was recorded.
    pub cycle: u64,
    /// The acting PE.
    pub pe: usize,
    /// The event.
    pub event: TraceEvent,
}

/// Receives every [`TraceRecord`] the simulator emits.
pub trait TraceSink: Send {
    /// Consume one record.
    fn record(&mut self, rec: &TraceRecord);
}

/// A sink that discards everything — useful for measuring the cost of
/// event *construction* alone (with no sink at all, construction is
/// skipped too).
#[derive(Debug, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn record(&mut self, _rec: &TraceRecord) {}
}

/// The simulator-side dispatcher: holds the installed sink, if any.
/// With no sink, [`Tracer::emit`] is a single branch and the event
/// closure never runs.
#[derive(Default)]
pub struct Tracer {
    sink: Option<Box<dyn TraceSink>>,
}

impl Tracer {
    /// A tracer with no sink (the default): emits nothing.
    #[must_use]
    pub fn off() -> Self {
        Tracer { sink: None }
    }

    /// A tracer feeding `sink`.
    #[must_use]
    pub fn new(sink: Box<dyn TraceSink>) -> Self {
        Tracer { sink: Some(sink) }
    }

    /// Whether a sink is installed.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emit the event built by `f` — `f` only runs when a sink is
    /// installed.
    #[inline]
    pub fn emit(&mut self, cycle: u64, pe: usize, f: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink.as_mut() {
            sink.record(&TraceRecord { cycle, pe, event: f() });
        }
    }

    /// Forward an already-built record (used when draining
    /// [`TraceBuffer`]s).
    #[inline]
    pub fn record(&mut self, rec: &TraceRecord) {
        if let Some(sink) = self.sink.as_mut() {
            sink.record(rec);
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("enabled", &self.enabled()).finish()
    }
}

/// Deferred event storage for modules that have no sink access (the
/// channel table, the shared memory). Disabled by default; the run loop
/// enables it alongside the sink and drains it after every step.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    enabled: bool,
    pending: Vec<TraceEvent>,
}

impl TraceBuffer {
    /// Enable or disable buffering. While disabled, [`push`](Self::push)
    /// is a single branch.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        if !on {
            self.pending.clear();
        }
    }

    /// Buffer the event built by `f` — `f` only runs while enabled.
    #[inline]
    pub fn push(&mut self, f: impl FnOnce() -> TraceEvent) {
        if self.enabled {
            self.pending.push(f());
        }
    }

    /// Take everything buffered since the last drain. Replaces the
    /// backing storage; prefer [`drain`](Self::drain) on hot paths.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.pending)
    }

    /// Drain everything buffered since the last drain, keeping the
    /// backing storage — the buffer reaches a steady-state capacity and
    /// never allocates again.
    pub fn drain(&mut self) -> std::vec::Drain<'_, TraceEvent> {
        self.pending.drain(..)
    }

    /// Whether anything is buffered (a cheap pre-check before `take`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

// ---------------------------------------------------------------------
// Recorder: bounded in-memory ring buffer with a cloneable query handle.
// ---------------------------------------------------------------------

#[derive(Debug)]
struct RecorderBuf {
    capacity: usize,
    records: VecDeque<TraceRecord>,
    dropped: u64,
}

/// Handle to an in-memory ring-buffer recorder. Clone it, install
/// [`Recorder::sink`] on the system, run, then query the records here.
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Arc<Mutex<RecorderBuf>>,
}

impl Recorder {
    /// A recorder keeping at most `capacity` records (oldest dropped
    /// first).
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "recorder capacity must be positive");
        Recorder {
            inner: Arc::new(Mutex::new(RecorderBuf {
                capacity,
                records: VecDeque::new(),
                dropped: 0,
            })),
        }
    }

    /// A sink feeding this recorder (install with `set_trace_sink`).
    #[must_use]
    pub fn sink(&self) -> Box<dyn TraceSink> {
        Box::new(RecorderSink { inner: Arc::clone(&self.inner) })
    }

    /// Snapshot of the retained records, oldest first.
    ///
    /// # Panics
    ///
    /// Panics if a sink holder panicked while recording.
    #[must_use]
    pub fn records(&self) -> Vec<TraceRecord> {
        self.inner.lock().expect("recorder poisoned").records.iter().copied().collect()
    }

    /// Records whose event matches `f`.
    #[cfg(test)]
    pub(crate) fn matching(&self, f: impl Fn(&TraceEvent) -> bool) -> Vec<TraceRecord> {
        self.records().into_iter().filter(|r| f(&r.event)).collect()
    }

    /// Number of records dropped to the capacity bound.
    ///
    /// # Panics
    ///
    /// Panics if a sink holder panicked while recording.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("recorder poisoned").dropped
    }
}

struct RecorderSink {
    inner: Arc<Mutex<RecorderBuf>>,
}

impl TraceSink for RecorderSink {
    fn record(&mut self, rec: &TraceRecord) {
        let mut buf = self.inner.lock().expect("recorder poisoned");
        if buf.records.len() == buf.capacity {
            buf.records.pop_front();
            buf.dropped += 1;
        }
        buf.records.push_back(*rec);
    }
}

// ---------------------------------------------------------------------
// Chrome trace-event JSON exporter.
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct ChromeBuf {
    /// Pre-rendered JSON event objects (without trailing commas).
    events: Vec<String>,
    /// Open duration slice per PE: `(ctx, since)`.
    open: HashMap<usize, (CtxId, u64)>,
    /// Context lanes seen per PE.
    threads: HashSet<(usize, CtxId)>,
    pes: HashSet<usize>,
    bus_lanes: HashSet<usize>,
    last_ts: u64,
}

/// Thread lane used for bus-transfer instants (no owning context).
const BUS_TID: u64 = 1_000_000;

impl ChromeBuf {
    fn slice_begin(&mut self, pe: usize, ctx: CtxId, ts: u64, resident: bool) {
        if self.open.contains_key(&pe) {
            // Unbalanced dispatch (e.g. a WAIT re-ready): self-heal by
            // closing the previous slice here.
            self.slice_end(pe, ts);
        }
        self.threads.insert((pe, ctx));
        let tag = if resident { "run (resident)" } else { "run" };
        self.events.push(format!(
            "{{\"name\":\"{tag}\",\"cat\":\"ctx\",\"ph\":\"B\",\"ts\":{ts},\"pid\":{pe},\"tid\":{ctx}}}"
        ));
        self.open.insert(pe, (ctx, ts));
    }

    fn slice_end(&mut self, pe: usize, ts: u64) {
        if let Some((ctx, since)) = self.open.remove(&pe) {
            // Chrome drops zero-width slices rendered at identical B/E
            // timestamps in some viewers; they are still valid JSON.
            let ts = ts.max(since);
            self.events.push(format!("{{\"ph\":\"E\",\"ts\":{ts},\"pid\":{pe},\"tid\":{ctx}}}"));
        }
    }

    fn instant(&mut self, pe: usize, tid: u64, ts: u64, name: &str, args: &str) {
        self.events.push(format!(
            "{{\"name\":\"{name}\",\"cat\":\"sim\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":{pe},\"tid\":{tid},\"args\":{{{args}}}}}"
        ));
    }

    fn record(&mut self, rec: &TraceRecord) {
        let ts = rec.cycle;
        let pe = rec.pe;
        self.pes.insert(pe);
        self.last_ts = self.last_ts.max(ts);
        match rec.event {
            TraceEvent::CtxDispatch { ctx, pc, resident } => {
                self.slice_begin(pe, ctx, ts, resident);
                let _ = pc;
            }
            TraceEvent::CtxBlock { ctx, chan, dir, pc, instructions } => {
                self.threads.insert((pe, ctx));
                self.instant(
                    pe,
                    ctx as u64,
                    ts,
                    &format!("block:{dir}"),
                    &format!("\"chan\":{chan},\"pc\":{pc},\"instructions\":{instructions}"),
                );
                self.slice_end(pe, ts);
            }
            TraceEvent::CtxWake { ctx, chan, at } => {
                self.threads.insert((pe, ctx));
                self.instant(pe, ctx as u64, ts, "wake", &format!("\"chan\":{chan},\"at\":{at}"));
            }
            TraceEvent::CtxRetire { ctx, instructions } => {
                self.threads.insert((pe, ctx));
                self.instant(
                    pe,
                    ctx as u64,
                    ts,
                    "retire",
                    &format!("\"instructions\":{instructions}"),
                );
                self.slice_end(pe, ts);
            }
            TraceEvent::Fork { kind, parent, child, child_pe, pc } => {
                self.threads.insert((pe, parent));
                self.instant(
                    pe,
                    parent as u64,
                    ts,
                    &format!("fork:{kind:?}"),
                    &format!("\"child\":{child},\"child_pe\":{child_pe},\"pc\":{pc}"),
                );
            }
            TraceEvent::ChanSend { ctx, chan, value } => {
                self.threads.insert((pe, ctx));
                self.instant(
                    pe,
                    ctx as u64,
                    ts,
                    "send",
                    &format!("\"chan\":{chan},\"value\":{value}"),
                );
            }
            TraceEvent::ChanRecv { ctx, chan, value } => {
                self.threads.insert((pe, ctx));
                self.instant(
                    pe,
                    ctx as u64,
                    ts,
                    "recv",
                    &format!("\"chan\":{chan},\"value\":{value}"),
                );
            }
            TraceEvent::Rendezvous { chan, sender, receiver, value } => {
                self.instant(
                    pe,
                    sender as u64,
                    ts,
                    "rendezvous",
                    &format!("\"chan\":{chan},\"sender\":{sender},\"receiver\":{receiver},\"value\":{value}"),
                );
            }
            TraceEvent::CacheHit { ctx, chan, value, buffered } => {
                self.threads.insert((pe, ctx));
                self.instant(
                    pe,
                    ctx as u64,
                    ts,
                    "cache-hit",
                    &format!("\"chan\":{chan},\"value\":{value},\"buffered\":{buffered}"),
                );
            }
            TraceEvent::CacheSpill { ctx, chan, value, senders } => {
                self.threads.insert((pe, ctx));
                self.instant(
                    pe,
                    ctx as u64,
                    ts,
                    "cache-spill",
                    &format!("\"chan\":{chan},\"value\":{value},\"senders\":{senders}"),
                );
            }
            TraceEvent::BusTransfer { addr, cycles } => {
                self.bus_lanes.insert(pe);
                self.instant(
                    pe,
                    BUS_TID,
                    ts,
                    "bus",
                    &format!("\"addr\":{addr},\"cycles\":{cycles}"),
                );
            }
            TraceEvent::KernelTrap { ctx, entry, name, arg } => {
                self.threads.insert((pe, ctx));
                self.instant(
                    pe,
                    ctx as u64,
                    ts,
                    &format!("trap:{name}"),
                    &format!("\"entry\":{entry},\"arg\":{arg}"),
                );
            }
        }
    }

    fn to_json(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        let mut pes: Vec<_> = self.pes.iter().copied().collect();
        pes.sort_unstable();
        for pe in &pes {
            parts.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pe},\"args\":{{\"name\":\"PE {pe}\"}}}}"
            ));
        }
        let mut threads: Vec<_> = self.threads.iter().copied().collect();
        threads.sort_unstable();
        for (pe, ctx) in threads {
            let label = qm_verify::names::ctx_label(ctx, None);
            parts.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pe},\"tid\":{ctx},\"args\":{{\"name\":\"{label}\"}}}}"
            ));
        }
        let mut buses: Vec<_> = self.bus_lanes.iter().copied().collect();
        buses.sort_unstable();
        for pe in buses {
            parts.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pe},\"tid\":{BUS_TID},\"args\":{{\"name\":\"ring bus\"}}}}"
            ));
        }
        parts.extend(self.events.iter().cloned());
        // Close any slice still open at export time.
        let mut open: Vec<_> = self.open.iter().map(|(&pe, &(ctx, _))| (pe, ctx)).collect();
        open.sort_unstable();
        for (pe, ctx) in open {
            let ts = self.last_ts;
            parts.push(format!("{{\"ph\":\"E\",\"ts\":{ts},\"pid\":{pe},\"tid\":{ctx}}}"));
        }
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(&parts.join(",\n"));
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

/// Handle to a Chrome trace-event JSON builder. Clone it, install
/// [`ChromeTrace::sink`] on the system, run, then serialise with
/// [`ChromeTrace::to_json`]. One process lane per PE, one thread lane per
/// context (plus a per-PE "ring bus" lane); the timestamp unit is one
/// simulated cycle.
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    inner: Arc<Mutex<ChromeBuf>>,
}

impl ChromeTrace {
    /// An empty trace builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink feeding this builder (install with `set_trace_sink`).
    #[must_use]
    pub fn sink(&self) -> Box<dyn TraceSink> {
        Box::new(ChromeSink { inner: Arc::clone(&self.inner) })
    }

    /// Serialise everything recorded so far as Chrome trace-event JSON.
    ///
    /// # Panics
    ///
    /// Panics if a sink holder panicked while recording.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.inner.lock().expect("chrome trace poisoned").to_json()
    }

    /// Number of events recorded (excluding metadata).
    ///
    /// # Panics
    ///
    /// Panics if a sink holder panicked while recording.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("chrome trace poisoned").events.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct ChromeSink {
    inner: Arc<Mutex<ChromeBuf>>,
}

impl TraceSink for ChromeSink {
    fn record(&mut self, rec: &TraceRecord) {
        self.inner.lock().expect("chrome trace poisoned").record(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_never_builds_events() {
        let mut t = Tracer::off();
        t.emit(0, 0, || panic!("event closure must not run with no sink"));
        assert!(!t.enabled());
    }

    #[test]
    fn recorder_retains_records_in_order() {
        let rec = Recorder::new(16);
        let mut t = Tracer::new(rec.sink());
        t.emit(5, 0, || TraceEvent::CtxDispatch { ctx: 0, pc: 0x40, resident: false });
        t.emit(9, 1, || TraceEvent::ChanSend { ctx: 0, chan: 2, value: 7 });
        let rs = rec.records();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].cycle, 5);
        assert_eq!(rs[1].pe, 1);
        assert!(matches!(rs[1].event, TraceEvent::ChanSend { value: 7, .. }));
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn recorder_ring_buffer_drops_oldest() {
        let rec = Recorder::new(2);
        let mut t = Tracer::new(rec.sink());
        for i in 0..5u64 {
            t.emit(i, 0, || TraceEvent::CtxRetire { ctx: 0, instructions: i });
        }
        let rs = rec.records();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].cycle, 3);
        assert_eq!(rs[1].cycle, 4);
        assert_eq!(rec.dropped(), 3);
    }

    #[test]
    fn trace_buffer_is_inert_until_enabled() {
        let mut b = TraceBuffer::default();
        b.push(|| panic!("must not run while disabled"));
        assert!(b.is_empty());
        b.set_enabled(true);
        b.push(|| TraceEvent::BusTransfer { addr: 0x100, cycles: 3 });
        assert_eq!(b.take().len(), 1);
        assert!(b.is_empty());
    }

    #[test]
    fn chrome_trace_balances_slices_and_names_lanes() {
        let ct = ChromeTrace::new();
        let mut t = Tracer::new(ct.sink());
        t.emit(10, 0, || TraceEvent::CtxDispatch { ctx: 1, pc: 0x40, resident: false });
        t.emit(20, 0, || TraceEvent::CtxBlock {
            ctx: 1,
            chan: 3,
            dir: ChanDir::Recv,
            pc: 0x44,
            instructions: 4,
        });
        t.emit(25, 0, || TraceEvent::CtxDispatch { ctx: 2, pc: 0x80, resident: false });
        // Leave ctx 2 open: to_json must close it.
        let json = ct.to_json();
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
        assert!(json.contains("\"name\":\"PE 0\""));
        // Lane labels route through qm_verify::names::ctx_label, the
        // same spelling deadlock wait-for reports use.
        assert!(json.contains("\"name\":\"ctx1\""));
        assert!(json.contains("block:recv"));
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn chrome_trace_self_heals_unbalanced_dispatch() {
        let ct = ChromeTrace::new();
        let mut t = Tracer::new(ct.sink());
        t.emit(1, 0, || TraceEvent::CtxDispatch { ctx: 1, pc: 0, resident: false });
        // A second dispatch with no intervening block (WAIT re-ready).
        t.emit(5, 0, || TraceEvent::CtxDispatch { ctx: 1, pc: 8, resident: true });
        t.emit(9, 0, || TraceEvent::CtxRetire { ctx: 1, instructions: 3 });
        let json = ct.to_json();
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
    }
}
