//! Capture and restore of the complete machine state.
//!
//! A [`Snapshot`] is the simulator's *instantaneous description*: every
//! PE (window registers, presence bits, globals, clock, statistics),
//! the context and channel tables, both memory planes, the scheduler's
//! ready queues and the run-loop scalars. The defining invariant, pinned
//! by the resume property in `tests/snapshot_resume.rs`:
//!
//! > **Restore-then-run is bit-identical to an uninterrupted run** —
//! > metrics and trace events included.
//!
//! Two design points make that invariant cheap to keep:
//!
//! * Snapshots are only taken at run-loop *step boundaries* (between
//!   instructions), where the deferred trace buffers are empty and no
//!   transfer is half-done — [`System::run_until`] pauses exactly there.
//! * The scheduler's lazy actor heap is *not* state: the run loop
//!   rebuilds it on entry, and its selection is invariant over any hint
//!   multiset (see [`crate::sched`]). Only the ready queues and the
//!   arrival counter are captured.
//!
//! A snapshot is an in-memory value with no byte form:
//! [`Snapshot::capture`] is the only way to make one, and
//! [`System::restore`] and [`Snapshot::state_digest`] read it. Every
//! collection is captured in a canonical (sorted) order, so equal
//! machine states capture to equal snapshots, and `capture → restore →
//! capture` reproduces the snapshot exactly.

use qm_isa::asm::Object;
use qm_isa::pe::{CycleModel, PeStats};
use qm_isa::regs::WINDOW_SIZE;

use crate::config::SystemConfig;
use crate::kernel::{Context, CtxState};
use crate::memory::MemStats;
use crate::msg::ChannelSnap;
use crate::sched::Scheduler;
use crate::system::System;
use crate::{CtxId, UWord, Word};
use qm_core::rng::Checksum;

/// Little-endian writer of the digest's canonical section bytes, which
/// folds them into a running [`Checksum`] instead of storing them.
#[derive(Debug, Default)]
struct Writer(Checksum);

impl Writer {
    #[inline]
    fn u8(&mut self, v: u8) {
        self.0.update(&[v]);
    }

    #[inline]
    fn u32(&mut self, v: u32) {
        self.0.update(&v.to_le_bytes());
    }

    #[inline]
    fn u64(&mut self, v: u64) {
        self.0.update(&v.to_le_bytes());
    }

    #[inline]
    fn i32(&mut self, v: i32) {
        self.0.update(&v.to_le_bytes());
    }

    #[inline]
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    #[inline]
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
}

/// One PE's complete captured state (registers, clock, statistics,
/// residency bookkeeping).
#[derive(Debug, Clone, PartialEq, Eq)]
struct PeSnap {
    window: [Word; WINDOW_SIZE],
    presence: [bool; WINDOW_SIZE],
    globals: [Word; 16],
    cycles: u64,
    model: CycleModel,
    stats: PeStats,
    last_result: Word,
    current: Option<CtxId>,
    busy: u64,
    slice_base: PeStats,
}

/// One context record's captured state.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CtxSnap {
    globals: [Word; 16],
    state: CtxState,
    pe: usize,
    queue_page: UWord,
    ready_at: u64,
}

/// A complete, self-contained capture of a [`System`] at a step
/// boundary. Obtain one with [`Snapshot::capture`]; turn it back into a
/// running system with [`System::restore`]. Equality compares every
/// field, configuration and loaded object included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    cfg: SystemConfig,
    global_mem: Vec<(UWord, Word)>,
    local_mem: Vec<Vec<(UWord, Word)>>,
    mem_stats: MemStats,
    channels: Vec<ChannelSnap>,
    next_chan: Word,
    output: Vec<Word>,
    input: Vec<Word>,
    transfers: u64,
    pes: Vec<PeSnap>,
    contexts: Vec<CtxSnap>,
    ready: Vec<Vec<(u64, u64, CtxId)>>,
    sched_seq: u64,
    pages: Vec<(UWord, Vec<UWord>)>,
    rr: u64,
    halted: bool,
    live: u64,
    created: u64,
    peak_live: u64,
    instr_count: u64,
    /// The loaded program: the system's own handle, shared, not copied.
    object: Option<Object>,
}

impl Snapshot {
    /// Capture the complete state of `sys`. Meaningful at step
    /// boundaries: freshly built, paused by [`System::run_until`], or
    /// finished. Every collection is exported in canonical order, so
    /// capturing the same state twice yields equal snapshots.
    #[must_use]
    pub fn capture(sys: &System) -> Snapshot {
        let (global_mem, local_mem) = sys.memory.export_planes();
        let (ready, sched_seq) = sys.sched.export_ready();
        Snapshot {
            cfg: sys.cfg.clone(),
            global_mem,
            local_mem,
            mem_stats: sys.memory.stats,
            channels: sys.channels.export_channels(),
            next_chan: sys.channels.next_id(),
            output: sys.channels.output.clone(),
            input: sys.channels.input.iter().copied().collect(),
            transfers: sys.channels.transfers,
            pes: sys
                .pes
                .iter()
                .map(|u| {
                    let (window, presence, globals) = u.pe.regs.full_state();
                    PeSnap {
                        window,
                        presence,
                        globals,
                        cycles: u.pe.cycles,
                        model: u.pe.model,
                        stats: u.pe.stats,
                        last_result: u.pe.last_result(),
                        current: u.current,
                        busy: u.busy,
                        slice_base: u.slice_base,
                    }
                })
                .collect(),
            contexts: sys
                .contexts
                .iter()
                .map(|c| CtxSnap {
                    globals: c.saved.globals,
                    state: c.state,
                    pe: c.pe,
                    queue_page: c.queue_page,
                    ready_at: c.ready_at,
                })
                .collect(),
            ready,
            sched_seq,
            pages: sys.pages.iter().map(|p| p.export_state()).collect(),
            rr: sys.rr as u64,
            halted: sys.halted,
            live: sys.live as u64,
            created: sys.created,
            peak_live: sys.peak_live,
            instr_count: sys.instr_count,
            object: sys.object.clone(),
        }
    }

    /// Simulated time of the capture: the furthest-ahead PE clock.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.pes.iter().map(|p| p.cycles).max().unwrap_or(0)
    }

    /// Digest of the *architectural* state only: memory, channels, PEs,
    /// contexts, scheduler, pages and the run-loop scalars — excluding
    /// the configuration, which differs *by construction* between two
    /// variants replayed from a shared snapshot. Two
    /// variants have diverged observably exactly when their digests
    /// differ; the `qm-bench` replay bin binary-searches this predicate
    /// for the first divergent cycle.
    ///
    /// The section encoders write straight into the checksum, so no byte
    /// buffer is built: the digest is [`qm_core::rng::checksum`] of the
    /// canonical little-endian bytes the encoders produce.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        let mut w = Writer::default();
        self.sec_memory(&mut w);
        self.sec_channels(&mut w);
        self.sec_pes(&mut w);
        self.sec_contexts(&mut w);
        self.sec_sched(&mut w);
        self.sec_pages(&mut w);
        self.sec_system(&mut w);
        w.0.finish()
    }

    // ---- section encoders of state_digest, in canonical order ----

    fn sec_memory(&self, w: &mut Writer) {
        enc_mem_plane(w, &self.global_mem);
        w.usize(self.local_mem.len());
        for plane in &self.local_mem {
            enc_mem_plane(w, plane);
        }
        w.u64(self.mem_stats.local_accesses);
        w.u64(self.mem_stats.remote_accesses);
        w.u64(self.mem_stats.bus_cycles);
    }

    fn sec_channels(&self, w: &mut Writer) {
        w.usize(self.channels.len());
        for c in &self.channels {
            w.i32(c.chan);
            w.usize(c.buffer.len());
            for &(v, pe) in &c.buffer {
                w.i32(v);
                w.usize(pe);
            }
            w.usize(c.senders.len());
            for &(ctx, pe, v) in &c.senders {
                w.usize(ctx);
                w.usize(pe);
                w.i32(v);
            }
            w.usize(c.receivers.len());
            for &(ctx, pe) in &c.receivers {
                w.usize(ctx);
                w.usize(pe);
            }
            w.usize(c.acked.len());
            for &ctx in &c.acked {
                w.usize(ctx);
            }
            w.usize(c.ready.len());
            for &(ctx, v, pe) in &c.ready {
                w.usize(ctx);
                w.i32(v);
                w.usize(pe);
            }
            w.u64(c.high_water);
        }
        w.i32(self.next_chan);
        enc_words(w, &self.output);
        enc_words(w, &self.input);
        w.u64(self.transfers);
    }

    fn sec_pes(&self, w: &mut Writer) {
        w.usize(self.pes.len());
        for p in &self.pes {
            for &v in &p.window {
                w.i32(v);
            }
            for &b in &p.presence {
                w.bool(b);
            }
            for &v in &p.globals {
                w.i32(v);
            }
            w.u64(p.cycles);
            enc_model(w, &p.model);
            enc_stats(w, &p.stats);
            w.i32(p.last_result);
            match p.current {
                Some(c) => {
                    w.bool(true);
                    w.usize(c);
                }
                None => w.bool(false),
            }
            w.u64(p.busy);
            enc_stats(w, &p.slice_base);
        }
    }

    fn sec_contexts(&self, w: &mut Writer) {
        w.usize(self.contexts.len());
        for c in &self.contexts {
            for &v in &c.globals {
                w.i32(v);
            }
            w.u8(match c.state {
                CtxState::Ready => 0,
                CtxState::Running => 1,
                CtxState::Blocked => 2,
                CtxState::Dead => 3,
            });
            w.usize(c.pe);
            w.u32(c.queue_page);
            w.u64(c.ready_at);
        }
    }

    fn sec_sched(&self, w: &mut Writer) {
        w.usize(self.ready.len());
        for entries in &self.ready {
            w.usize(entries.len());
            for &(at, seq, ctx) in entries {
                w.u64(at);
                w.u64(seq);
                w.usize(ctx);
            }
        }
        w.u64(self.sched_seq);
    }

    fn sec_pages(&self, w: &mut Writer) {
        w.usize(self.pages.len());
        for (next, free) in &self.pages {
            w.u32(*next);
            enc_u32s(w, free);
        }
    }

    fn sec_system(&self, w: &mut Writer) {
        w.u64(self.rr);
        w.bool(self.halted);
        w.u64(self.live);
        w.u64(self.created);
        w.u64(self.peak_live);
        w.u64(self.instr_count);
    }
}

fn enc_model(w: &mut Writer, m: &CycleModel) {
    for v in [
        m.base,
        m.imm_word,
        m.mem_extra,
        m.window_miss,
        m.branch_taken,
        m.trap,
        m.channel,
        m.context_switch,
        m.rollout_per_reg,
    ] {
        w.u64(v);
    }
}

fn enc_stats(w: &mut Writer, s: &PeStats) {
    for v in [
        s.instructions,
        s.window_hits,
        s.window_misses,
        s.mem_reads,
        s.mem_writes,
        s.sends,
        s.recvs,
        s.traps,
        s.context_switches,
        s.rollouts,
    ] {
        w.u64(v);
    }
}

fn enc_mem_plane(w: &mut Writer, plane: &[(UWord, Word)]) {
    w.usize(plane.len());
    for &(a, v) in plane {
        w.u32(a);
        w.i32(v);
    }
}

fn enc_words(w: &mut Writer, words: &[Word]) {
    w.usize(words.len());
    for &v in words {
        w.i32(v);
    }
}

fn enc_u32s(w: &mut Writer, vals: &[u32]) {
    w.usize(vals.len());
    for &v in vals {
        w.u32(v);
    }
}

impl System {
    /// Rebuild a running system from a snapshot. The result continues
    /// bit-identically to the captured run: same metrics, same trace
    /// events (once a sink is reinstalled — sinks are host-side
    /// observers, not machine state).
    ///
    /// A snapshot only comes from [`Snapshot::capture`] of a real
    /// machine, so it always describes a consistent one; debug builds
    /// still check capture's invariants on every restore.
    #[must_use]
    pub fn restore(snap: &Snapshot) -> System {
        debug_assert_eq!(inconsistency(snap), None, "restore of an inconsistent snapshot");
        let mut sys = System::new(snap.cfg.clone());
        sys.memory.restore_planes(snap.global_mem.clone(), snap.local_mem.clone());
        sys.memory.stats = snap.mem_stats;
        sys.channels.restore_channels(snap.channels.clone(), snap.next_chan);
        sys.channels.output = snap.output.clone();
        sys.channels.input = snap.input.iter().copied().collect();
        sys.channels.transfers = snap.transfers;
        for (unit, p) in sys.pes.iter_mut().zip(&snap.pes) {
            unit.pe.regs.restore_full(p.window, p.presence, p.globals);
            unit.pe.cycles = p.cycles;
            unit.pe.model = p.model;
            unit.pe.stats = p.stats;
            unit.pe.set_last_result(p.last_result);
            unit.current = p.current;
            unit.busy = p.busy;
            unit.slice_base = p.slice_base;
        }
        sys.contexts = snap
            .contexts
            .iter()
            .map(|c| Context {
                saved: qm_isa::regs::SavedRegisters { globals: c.globals },
                state: c.state,
                pe: c.pe,
                queue_page: c.queue_page,
                ready_at: c.ready_at,
            })
            .collect();
        sys.sched = Scheduler::restore_ready(snap.ready.clone(), snap.sched_seq);
        for (alloc, (next, free)) in sys.pages.iter_mut().zip(&snap.pages) {
            alloc.restore_state(*next, free.clone());
        }
        sys.object = snap.object.clone();
        #[allow(clippy::cast_possible_truncation)]
        {
            sys.rr = snap.rr as usize;
            sys.live = snap.live as usize;
        }
        sys.halted = snap.halted;
        sys.created = snap.created;
        sys.peak_live = snap.peak_live;
        sys.instr_count = snap.instr_count;
        sys
    }
}

/// What makes `snap` describe an impossible machine, if anything: wrong
/// table sizes, out-of-range PE or context indices, bad page geometry,
/// counters near overflow, or a context held twice by the channels.
/// Capture never produces one; restore checks it in debug builds.
fn inconsistency(snap: &Snapshot) -> Option<String> {
    let cfg = &snap.cfg;
    if !(1..=1024).contains(&cfg.pes) {
        return Some(format!("unsupported PE count {}", cfg.pes));
    }
    if !(1..=1024).contains(&cfg.partitions) {
        return Some(format!("unsupported partition count {}", cfg.partitions));
    }
    // Clocks and counters only ever grow by small steps: one this
    // close to overflowing would be a corrupt capture.
    let counters = [
        snap.mem_stats.local_accesses,
        snap.mem_stats.remote_accesses,
        snap.mem_stats.bus_cycles,
        snap.transfers,
        snap.instr_count,
    ];
    let per_pe = snap.pes.iter().flat_map(|p| {
        let s = &p.stats;
        [p.cycles, p.busy, s.instructions, s.window_hits, s.window_misses, s.mem_reads]
            .into_iter()
            .chain([s.mem_writes, s.sends, s.recvs, s.traps, s.context_switches, s.rollouts])
    });
    if counters.into_iter().chain(per_pe).any(|v| v >= 1 << 62) {
        return Some("a clock or counter at or past 2^62".into());
    }
    // Every step adds a few of these; bounding them keeps every sum
    // of a run far from overflow.
    let model = |m: &CycleModel| {
        [m.base, m.imm_word, m.mem_extra, m.window_miss, m.branch_taken, m.trap, m.channel]
            .into_iter()
            .chain([m.context_switch, m.rollout_per_reg])
    };
    let (b, k) = (&cfg.bus, &cfg.kernel);
    let costs = [b.mem_same_partition, b.mem_remote_base, b.mem_per_segment, b.chan_local]
        .into_iter()
        .chain([b.chan_same_partition, b.chan_remote_base, b.chan_per_segment])
        .chain([k.fork, k.end, k.dispatch])
        .chain(model(&cfg.cycle_model))
        .chain(snap.pes.iter().flat_map(|p| model(&p.model)));
    if costs.into_iter().any(|c| c >= 1 << 32) {
        return Some("a cycle cost at or past 2^32".into());
    }
    if !cfg.queue_page_words.is_power_of_two() || cfg.queue_page_words > 256 {
        return Some(format!("bad queue page size {}", cfg.queue_page_words));
    }
    let pes = cfg.pes;
    let ctxs = snap.contexts.len();
    if snap.pes.len() != pes {
        return Some(format!("{} PE records for a {pes}-PE config", snap.pes.len()));
    }
    if snap.local_mem.len() != pes || snap.ready.len() != pes || snap.pages.len() != pes {
        return Some("per-PE table sizes disagree with the config".into());
    }
    for (i, p) in snap.pes.iter().enumerate() {
        if let Some(c) = p.current {
            if c >= ctxs {
                return Some(format!("pe{i} runs nonexistent context {c}"));
            }
        }
    }
    for (id, c) in snap.contexts.iter().enumerate() {
        if c.pe >= pes {
            return Some(format!("ctx{id} bound to nonexistent pe{}", c.pe));
        }
    }
    for (pe, entries) in snap.ready.iter().enumerate() {
        for &(_, _, ctx) in entries {
            if ctx >= ctxs {
                return Some(format!("pe{pe} ready queue names nonexistent context {ctx}"));
            }
        }
    }
    // Capture writes channels in ascending id order, once each.
    if let Some(w) = snap.channels.windows(2).find(|w| w[0].chan >= w[1].chan) {
        return Some(format!("chan {} listed after chan {}", w[1].chan, w[0].chan));
    }
    // A context waits on at most one channel, holding at most one of
    // a parked send, a parked receive, an ack or a ready value.
    let mut held = vec![false; ctxs];
    for c in &snap.channels {
        let refs = c
            .senders
            .iter()
            .map(|&(ctx, _, _)| ctx)
            .chain(c.receivers.iter().map(|&(ctx, _)| ctx))
            .chain(c.acked.iter().copied())
            .chain(c.ready.iter().map(|&(ctx, _, _)| ctx));
        for ctx in refs {
            if ctx >= ctxs {
                return Some(format!("chan {} names nonexistent context {ctx}", c.chan));
            }
            if std::mem::replace(&mut held[ctx], true) {
                return Some(format!("chan {} names context {ctx} held elsewhere", c.chan));
            }
        }
        let parked = c.senders.iter().map(|&(ctx, _, _)| ctx);
        for ctx in parked.chain(c.receivers.iter().map(|&(ctx, _)| ctx)) {
            if snap.contexts[ctx].state != CtxState::Blocked {
                return Some(format!("chan {} parks context {ctx}, which is not blocked", c.chan));
            }
        }
        let pe_refs = c
            .buffer
            .iter()
            .map(|&(_, pe)| pe)
            .chain(c.senders.iter().map(|&(_, pe, _)| pe))
            .chain(c.receivers.iter().map(|&(_, pe)| pe))
            .chain(c.ready.iter().map(|&(_, _, pe)| pe));
        for pe in pe_refs {
            if pe >= pes {
                return Some(format!("chan {} names nonexistent pe{pe}", c.chan));
            }
        }
    }

    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Placement;

    fn mid_run_system() -> System {
        let src = "
main:   trap #0,#child :r0,r1
        send r0,#21
        recv r1,#0 :r2
        send+3 #0,r2
        trap #2,#0
child:  recv r17,#0 :r0
        mul+1 r0,#2 :r0
        send+1 r18,r0
        trap #2,#0
";
        let mut sys = System::with_assembly(SystemConfig::with_pes(2), src).unwrap();
        let status = sys.run_until(20).unwrap();
        assert!(matches!(status, crate::system::RunStatus::Paused { .. }));
        sys
    }

    #[test]
    fn capture_restore_capture_is_identical() {
        let sys = mid_run_system();
        let snap = Snapshot::capture(&sys);
        assert_eq!(Snapshot::capture(&sys), snap, "capture is deterministic");
        let again = Snapshot::capture(&System::restore(&snap));
        assert_eq!(again, snap, "capture after restore reproduces the snapshot");
    }

    #[test]
    fn state_digest_tracks_architecture_not_config() {
        let sys = mid_run_system();
        let a = Snapshot::capture(&sys);
        let mut local = System::restore(&a);
        local.set_placement(Placement::Local);
        let b = Snapshot::capture(&local);
        assert_ne!(a, b, "the snapshots differ (placement changed)");
        assert_eq!(a.state_digest(), b.state_digest(), "… but not architecturally yet");
        let mut advanced = System::restore(&a);
        advanced.run().unwrap();
        let c = Snapshot::capture(&advanced);
        assert_ne!(a.state_digest(), c.state_digest(), "running changes the digest");
    }

    #[test]
    fn restore_rejects_a_context_held_twice() {
        let mut base = Snapshot::capture(&mid_run_system());
        assert!(base.contexts.len() >= 2, "the crafted records name contexts 0 and 1");
        base.contexts[0].state = CtxState::Blocked;
        base.contexts[1].state = CtxState::Blocked;
        let chan = |chan| ChannelSnap {
            chan,
            buffer: vec![],
            senders: vec![],
            receivers: vec![],
            acked: vec![],
            ready: vec![],
            high_water: 0,
        };
        let check = |base: &Snapshot, channels: Vec<ChannelSnap>| {
            let mut snap = base.clone();
            snap.channels = channels;
            inconsistency(&snap)
        };
        // Context 0 parked as a sender on channel 1, context 1 as a
        // receiver on channel 2, both blocked: consistent.
        let mut one = chan(1);
        one.senders.push((0, 0, 7));
        let mut two = chan(2);
        two.receivers.push((1, 1));
        assert_eq!(check(&base, vec![one.clone(), two.clone()]), None);

        let mut acked = one.clone();
        acked.acked.push(0);
        let mut ready = two.clone();
        ready.ready.push((1, 5, 0));
        let mut parked_twice = two.clone();
        parked_twice.senders.push((0, 0, 9));
        let mut queued_twice = one.clone();
        queued_twice.senders.push((0, 0, 8));
        let cases = [
            ("a sender that is also acked", vec![acked, two.clone()]),
            ("a parked receiver holding a ready value", vec![one.clone(), ready]),
            ("a context parked on two channels", vec![one.clone(), parked_twice]),
            ("a context twice in one queue", vec![queued_twice, two.clone()]),
            ("a channel listed twice", vec![one.clone(), chan(1), two.clone()]),
            ("channels out of order", vec![two.clone(), one.clone()]),
        ];
        for (what, channels) in cases {
            assert!(check(&base, channels).is_some(), "consistency check accepted {what}");
        }
        let mut ready_but_parked = base.clone();
        ready_but_parked.contexts[1].state = CtxState::Ready;
        assert!(
            check(&ready_but_parked, vec![one, two]).is_some(),
            "consistency check accepted a parked context that is not blocked"
        );
    }

    #[test]
    fn cycle_reports_the_furthest_pe_clock() {
        let sys = mid_run_system();
        let snap = Snapshot::capture(&sys);
        assert_eq!(snap.cycle(), sys.elapsed_cycles());
        assert!(snap.cycle() > 0);
    }
}
