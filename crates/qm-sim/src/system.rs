//! The top-level multiprocessor simulator and its run loop.
//!
//! Each PE advances an independent cycle clock; the simulator always steps
//! the PE whose clock is furthest behind, so cross-PE interactions
//! (channel wakes) are causally ordered. A context that blocks on a
//! channel rendezvous is switched out (window registers rolled into its
//! queue page — the §5.2 cost at the heart of the thesis's speed-up
//! behaviour) and the PE dispatches the next ready context.
//!
//! Selecting the furthest-behind PE and its earliest-ready context is
//! delegated to [`crate::sched::Scheduler`] — priority heaps, so blocked
//! contexts cost nothing per step instead of being re-scanned each cycle.

use qm_isa::asm::Object;
use qm_isa::decoded::DecodedInstr;
use qm_isa::pe::{BlockReason, Pe, PeStats, RecvOutcome, SendOutcome, Services, StepResult};
use qm_isa::Word as IsaWord;

use crate::config::{Placement, SystemConfig};
use crate::kernel::{entry, Context, CtxState, PageAllocator, REG_OUT_CHAN};
use crate::memory::{MemStats, SharedMemory};
use crate::msg::{CacheState, ChanDir, ChannelTable, RecvResult, SendResult, HOST_CHANNEL};
use crate::sched::Scheduler;
use crate::trace::{ForkKind, TraceEvent, TraceRecord, TraceSink, Tracer};
use crate::{CtxId, UWord, Word};

/// One context stuck in a deadlock: what it waits for and where it
/// stopped (the wait-for report of [`SimError::Deadlock`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedCtx {
    /// The blocked context.
    pub ctx: CtxId,
    /// Canonical label for the context from
    /// [`qm_verify::names::ctx_label`] — `ctx1`, or `ctx1 (child)` when
    /// a program symbol covers the blocked PC. Traces and the static
    /// deadlock lint use the same helper, so the spellings agree.
    pub label: String,
    /// PE it is bound to.
    pub pe: usize,
    /// Channel it waits on.
    pub chan: Word,
    /// Whether it is blocked sending or receiving.
    pub dir: ChanDir,
    /// PC of the blocked instruction (re-executed if ever woken).
    pub pc: UWord,
    /// The value a blocked sender is offering (`None` for receivers).
    pub value: Option<Word>,
    /// Observable state of the channel's message-cache entry.
    pub chan_state: CacheState,
}

impl std::fmt::Display for BlockedCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} on pe{}: {} on chan {} at pc {:#x}",
            self.label, self.pe, self.dir, self.chan, self.pc
        )?;
        if let Some(v) = self.value {
            write!(f, " (offering {v})")?;
        }
        write!(f, " [channel {:?}]", self.chan_state)
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Live contexts exist but none can run.
    Deadlock {
        /// Wait-for report: every context parked on a channel, with the
        /// channel, direction, blocked PC and cache occupancy.
        blocked: Vec<BlockedCtx>,
    },
    /// The `max_instructions` safety valve fired.
    InstructionBudget,
    /// A PE hit an undecodable instruction.
    Pe(String),
    /// A trap named an unknown kernel entry.
    UnknownTrap(Word),
    /// Assembly failed while building the system.
    Asm(String),
    /// Static verification rejected the program before it ran (builder
    /// [`verify(VerifyLevel::Strict)`](crate::builder::SimBuilder::verify)).
    Verify {
        /// The verifier's findings (render with
        /// [`Report::render`](qm_verify::Report::render) for the full
        /// rustc-style diagnostics).
        report: qm_verify::Report,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { blocked } => {
                write!(f, "deadlock: {} context(s) blocked on channels", blocked.len())?;
                for b in blocked {
                    write!(f, "\n  {b}")?;
                }
                Ok(())
            }
            SimError::InstructionBudget => write!(f, "instruction budget exhausted"),
            SimError::Pe(msg) => write!(f, "processing element fault: {msg}"),
            SimError::UnknownTrap(n) => write!(f, "unknown kernel entry {n}"),
            SimError::Asm(msg) => write!(f, "assembly failed: {msg}"),
            SimError::Verify { report } => {
                write!(f, "static verification rejected the program: {}", report.summary())?;
                for line in report.render().lines() {
                    write!(f, "\n  {line}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Per-PE results of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeReport {
    /// Final value of the PE's cycle clock.
    pub cycles: u64,
    /// Cycles spent actually executing (excludes idle skips).
    pub busy_cycles: u64,
    /// Detailed PE statistics.
    pub stats: PeStats,
}

/// Results of a completed run (the raw material of Tables 6.2–6.5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Words the program sent to the host channel.
    pub output: Vec<Word>,
    /// Wall-clock cycles: the maximum over all PE clocks.
    pub elapsed_cycles: u64,
    /// Total instructions retired.
    pub instructions: u64,
    /// Contexts created over the whole run.
    pub contexts_created: u64,
    /// Peak simultaneously-live contexts (the exposed parallelism).
    pub peak_live_contexts: u64,
    /// Completed channel transfers.
    pub channel_transfers: u64,
    /// Peak in-flight occupancy per channel `(id, mark)`, ascending by
    /// id, channels that never held a value omitted — the runtime
    /// observation bounded from above by the deep verifier's static
    /// `MaxQueueDepth` facts (see `docs/VERIFY.md`).
    pub channel_high_water: Vec<(Word, u64)>,
    /// Memory/bus traffic.
    pub mem: MemStats,
    /// Per-PE breakdown.
    pub pes: Vec<PeReport>,
}

/// Result of a bounded run ([`System::run_until`]): either the program
/// finished (with its outcome) or the limit was reached first and the
/// system paused at a clean step boundary — safe to snapshot via
/// [`Snapshot::capture`](crate::snapshot::Snapshot::capture).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// The program ran to completion before the limit.
    Done(RunOutcome),
    /// The limit was reached; `cycle` is the time of the next pending
    /// action (≥ the limit). Calling [`System::run`] or
    /// [`System::run_until`] again continues exactly where the
    /// uninterrupted run would have.
    Paused {
        /// Cycle time of the next pending action.
        cycle: u64,
    },
}

/// Host-side counters of the run loop's scheduling decisions (see
/// [`System::run_loop_stats`]), cumulative since the system was built or
/// restored. They are not machine state: no [`RunOutcome`], snapshot or
/// `state_digest` carries them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunLoopStats {
    /// Steps dispatched by the outer loop (each re-proves the schedule
    /// from the actor heap).
    pub outer_steps: u64,
    /// Batches handed in place to the PE that is provably next.
    pub handoffs: u64,
    /// PE states saved before a first step ahead of the cycle order.
    pub saves: u64,
    /// PEs rewound because a HALT or fault ended the run.
    pub rewinds_at_end: u64,
    /// PEs rewound because another PE's in-order channel operation met
    /// their marker.
    pub rewinds_on_contact: u64,
    /// Batch stops at the cycle-order bound on a channel operation that
    /// was not quiet.
    pub stops_channel: u64,
    /// Batch stops at the bound on a global fetch or store, or an
    /// operand or `dup` outside the local plane; under `LeastLoaded`
    /// placement, which never runs ahead, on any other step too.
    pub stops_global: u64,
    /// Batch stops at the bound on a trap, a return or a fault.
    pub stops_trap: u64,
    /// Batch stops at the bound because the PE's undo log was full.
    pub stops_full_log: u64,
    /// Batch exits at the bound because the PE holding it was not
    /// running at its hint, so no hand-off was possible.
    pub exits_not_running: u64,
}

pub(crate) struct PeUnit {
    pub(crate) pe: Pe,
    pub(crate) current: Option<CtxId>,
    pub(crate) busy: u64,
    /// Stats snapshot at the last dispatch: the delta against the live
    /// counters is the activity of the current residency slice.
    pub(crate) slice_base: PeStats,
}

/// The queue machine multiprocessor.
///
/// Fields are `pub(crate)` so [`crate::snapshot`] can capture and
/// restore the complete machine state; outside the crate the public API
/// is unchanged.
pub struct System {
    pub(crate) cfg: SystemConfig,
    /// The shared memory (public for workload initialisation).
    pub memory: SharedMemory,
    pub(crate) channels: ChannelTable,
    pub(crate) pes: Vec<PeUnit>,
    pub(crate) sched: Scheduler,
    pub(crate) contexts: Vec<Context>,
    pub(crate) pages: Vec<PageAllocator>,
    /// The loaded program. Cloning an [`Object`] copies a pointer, so
    /// the system, the program cache it came from and every snapshot
    /// share one copy of its words and symbols.
    pub(crate) object: Option<Object>,
    pub(crate) rr: usize,
    pub(crate) halted: bool,
    pub(crate) live: usize,
    pub(crate) created: u64,
    pub(crate) peak_live: u64,
    pub(crate) tracer: Tracer,
    /// Instructions retired by the run loop so far — persistent (and
    /// snapshotted) so the `max_instructions` budget spans pause/resume
    /// exactly like an uninterrupted run.
    pub(crate) instr_count: u64,
    /// Translation of the code image (`None` until the first
    /// `run_until`). Host-side, not machine state: it is *not*
    /// snapshotted.
    pub(crate) xlate: Option<crate::xlate::XProgram>,
    /// Per PE, its state from before it ran ahead of the cycle order
    /// (`crate::xlate`); host-side and settled on every `run_until` exit.
    pub(crate) ahead: Vec<crate::xlate::RunAhead>,
    /// PEs whose active save holds quiet channel transfers: while it is
    /// zero, no channel marker is live and in-order steps skip the
    /// contact check.
    pub(crate) chan_saves: usize,
    /// Host-side run-loop counters ([`System::run_loop_stats`]).
    pub(crate) loop_stats: RunLoopStats,
    /// The cycle-order key `(cycle, pe)` of the step a HALT or fault
    /// ended the run at, until `run_until` rewinds the PEs that ran
    /// ahead of it.
    pub(crate) ended_at: Option<(u64, usize)>,
    /// Every step goes through `Pe::step`, unbatched
    /// ([`System::use_step_oracle`]).
    pub(crate) step_oracle: bool,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cfg", &self.cfg)
            .field("contexts", &self.contexts.len())
            .field("live", &self.live)
            .field("halted", &self.halted)
            .field("tracing", &self.tracer.enabled())
            .finish_non_exhaustive()
    }
}

struct Svc<'a> {
    channels: &'a mut ChannelTable,
    contexts: &'a mut [Context],
    sched: &'a mut Scheduler,
    cfg: &'a SystemConfig,
    tracer: &'a mut Tracer,
    ctx: CtxId,
    time: u64,
}

impl Svc<'_> {
    fn wake(&mut self, w: CtxId, chan: Word, at: u64) {
        let c = &mut self.contexts[w];
        debug_assert_eq!(c.state, CtxState::Blocked);
        c.state = CtxState::Ready;
        c.ready_at = at;
        let pe = c.pe;
        self.sched.push_ready(pe, w, at);
        self.tracer.emit(self.time, pe, || TraceEvent::CtxWake { ctx: w, chan, at });
    }
}

impl Services for Svc<'_> {
    fn send(&mut self, pe: usize, chan: IsaWord, value: IsaWord) -> SendOutcome {
        let ctx = self.ctx;
        match self.channels.send(ctx, pe, chan, value) {
            SendResult::Done { woke } => {
                self.tracer.emit(self.time, pe, || TraceEvent::ChanSend { ctx, chan, value });
                let cycles = match woke {
                    Some(w) => {
                        let to_pe = self.contexts[w].pe;
                        let c = self.cfg.chan_cost(pe, to_pe);
                        self.wake(w, chan, self.time + c);
                        c
                    }
                    None if chan == HOST_CHANNEL => self.cfg.bus.chan_local,
                    None => 0, // resumed after ack: cost was charged at match
                };
                SendOutcome::Done { cycles }
            }
            SendResult::Block => SendOutcome::Block,
        }
    }

    fn recv(&mut self, pe: usize, chan: IsaWord) -> RecvOutcome {
        let ctx = self.ctx;
        match self.channels.recv(ctx, pe, chan) {
            RecvResult::Done { value, woke, from_pe } => {
                self.tracer.emit(self.time, pe, || TraceEvent::ChanRecv { ctx, chan, value });
                let cycles = match (woke, from_pe) {
                    (Some(w), Some(spe)) => {
                        let c = self.cfg.chan_cost(spe, pe);
                        self.wake(w, chan, self.time + c);
                        c
                    }
                    (None, Some(spe)) => self.cfg.chan_cost(spe, pe),
                    _ => self.cfg.bus.chan_local,
                };
                RecvOutcome::Done { value, cycles }
            }
            RecvResult::Block => RecvOutcome::Block,
        }
    }
}

impl System {
    /// An empty system: load code and spawn a main context before
    /// running.
    #[must_use]
    pub fn new(cfg: SystemConfig) -> Self {
        let memory = SharedMemory::new(&cfg);
        let pes: Vec<PeUnit> = (0..cfg.pes)
            .map(|i| {
                let mut pe = Pe::new(i);
                pe.model = cfg.cycle_model;
                PeUnit { pe, current: None, busy: 0, slice_base: PeStats::default() }
            })
            .collect();
        let pages = (0..cfg.pes).map(|_| PageAllocator::new(cfg.queue_page_words)).collect();
        let ahead = pes.iter().map(|u| crate::xlate::RunAhead::new(&u.pe)).collect();
        System {
            sched: Scheduler::new(cfg.pes),
            memory,
            channels: ChannelTable::new(cfg.channel_capacity),
            pes,
            contexts: Vec::new(),
            pages,
            object: None,
            rr: 0,
            halted: false,
            live: 0,
            created: 0,
            peak_live: 0,
            tracer: Tracer::off(),
            instr_count: 0,
            xlate: None,
            ahead,
            chan_saves: 0,
            loop_stats: RunLoopStats::default(),
            ended_at: None,
            step_oracle: false,
            cfg,
        }
    }

    /// Install a trace sink: every simulator event (context dispatch /
    /// block / wake / retire, forks, channel traffic, message-cache hits
    /// and spills, bus transfers, kernel traps) is delivered to it. See
    /// [`crate::trace`] for the provided sinks. With no sink installed
    /// (the default) events are never even constructed.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.tracer = Tracer::new(sink);
        self.channels.trace.set_enabled(true);
        self.memory.trace.set_enabled(true);
    }

    /// Assemble `src`, load it, and spawn the main context at label
    /// `main` (or the first instruction when no such label exists).
    ///
    /// # Errors
    ///
    /// [`SimError::Asm`] when the source does not assemble.
    pub fn with_assembly(cfg: SystemConfig, src: &str) -> Result<Self, SimError> {
        System::builder().config(cfg).assembly(src).build()
    }

    /// Load an assembled object into code memory and keep it for
    /// symbol lookup and snapshots.
    pub fn load_object(&mut self, obj: &Object) {
        self.memory.load_words(obj.base(), obj.words());
        self.object = Some(obj.clone());
    }

    /// The loaded program, when one was loaded.
    #[must_use]
    pub fn object(&self) -> Option<&Object> {
        self.object.as_ref()
    }

    /// Address of a label in the loaded object.
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<UWord> {
        self.object.as_ref().and_then(|o| o.symbol(name))
    }

    /// Pre-load host input (read by `recv` on channel 0).
    pub fn push_input(&mut self, value: Word) {
        self.channels.input.push_back(value);
    }

    /// Spawn the root context at `entry` on PE 0 with host channels.
    pub fn spawn_main(&mut self, pc: UWord) {
        let page = self.pages[0].alloc();
        let pom = self.pages[0].pom();
        let ctx = Context::new(pc, 0, page, pom, HOST_CHANNEL, HOST_CHANNEL, 0);
        let id = self.contexts.len();
        self.contexts.push(ctx);
        self.sched.push_ready(0, id, 0);
        self.live += 1;
        self.created += 1;
        self.peak_live = self.peak_live.max(self.live as u64);
    }

    /// System configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    fn choose_pe(&mut self, parent: usize) -> usize {
        match self.cfg.placement {
            Placement::Local => parent,
            Placement::RoundRobin => {
                // Plain rotation, parent included: a forking parent
                // usually blocks right after, so its PE is as good a
                // target as any (skipping it desynchronises the rotation
                // and measurably hurts — see ablation_placement).
                let pe = self.rr % self.cfg.pes;
                self.rr += 1;
                pe
            }
            Placement::LeastLoaded => {
                // Least busy: the PE whose clock is furthest behind, with
                // queued-work count and PE number as tie-breakers. (Pure
                // context counting converges every iteration chain onto
                // one PE, because a chain keeps only one context alive.)
                // Every Ready context sits in exactly one ready queue and
                // every Running context is some PE's current, so the load
                // is a queue length plus a running bit — no context scan.
                (0..self.cfg.pes)
                    .min_by_key(|&i| {
                        let running = self.pes[i]
                            .current
                            .is_some_and(|c| self.contexts[c].state == CtxState::Running);
                        let load = self.sched.ready_len(i) + usize::from(running);
                        (load, self.pes[i].pe.cycles, i)
                    })
                    .unwrap_or(parent)
            }
        }
    }

    /// Earliest cycle PE `pe` can act: its clock while a context is
    /// running, else the earliest queued `ready_at` clamped to the clock,
    /// or `None` when nothing can run there. A PE whose resident context
    /// is blocked only acts when some context (possibly that one,
    /// re-woken) is ready.
    pub(crate) fn actor_time(&self, pe: usize) -> Option<u64> {
        let cycles = self.pes[pe].pe.cycles;
        if self.is_running(pe) {
            Some(cycles)
        } else {
            self.sched.min_ready_at(pe).map(|r| r.max(cycles))
        }
    }

    /// Re-plant every PE's actor hint from current state (run-loop
    /// entry: spawns/loads may have happened in any order outside it).
    fn rebuild_actors(&mut self) {
        self.sched.clear_actors();
        for pe in 0..self.cfg.pes {
            let t = self.actor_time(pe);
            self.sched.refresh(pe, t);
        }
    }

    /// Which PE should act next: `(pe, at)` or `None` when nothing can
    /// run — the heap-backed equivalent of scanning every PE for the
    /// minimum [`Self::actor_time`] (ties to the lowest PE index).
    fn next_actor(&mut self) -> Option<(usize, u64)> {
        let Self { sched, pes, contexts, .. } = self;
        sched.next_actor(|pe, min_ready| {
            let unit = &pes[pe];
            let running = unit.current.is_some_and(|c| contexts[c].state == CtxState::Running);
            if running {
                Some(unit.pe.cycles)
            } else {
                min_ready.map(|r| r.max(unit.pe.cycles))
            }
        })
    }

    fn dispatch(&mut self, i: usize) {
        // The ready context with the earliest ready_at (FIFO ties).
        let ctx_id = self.sched.pop_ready(i).expect("dispatch called with ready work");
        if self.pes[i].current == Some(ctx_id) {
            // The blocked context never left the PE: resume in place with
            // its window registers intact (§5.2 — the effect behind the
            // better-than-linear multiprocessor curves: lightly loaded
            // PEs skip the roll-out entirely).
            let ctx = &mut self.contexts[ctx_id];
            ctx.state = CtxState::Running;
            let unit = &mut self.pes[i];
            unit.pe.cycles = unit.pe.cycles.max(ctx.ready_at) + 1;
            unit.slice_base = unit.pe.stats;
            let (cycles, pc) = (unit.pe.cycles, unit.pe.regs.pc());
            self.tracer.emit(cycles, i, || TraceEvent::CtxDispatch {
                ctx: ctx_id,
                pc,
                resident: true,
            });
            return;
        }
        // Evict a blocked resident context first.
        if let Some(resident) = self.pes[i].current.take() {
            let saved = self.pes[i].pe.switch_out(&mut self.memory);
            self.contexts[resident].saved = saved;
        }
        let ctx = &mut self.contexts[ctx_id];
        ctx.state = CtxState::Running;
        let unit = &mut self.pes[i];
        unit.pe.cycles = unit.pe.cycles.max(ctx.ready_at) + self.cfg.kernel.dispatch;
        unit.pe.switch_in(&ctx.saved);
        unit.current = Some(ctx_id);
        unit.slice_base = unit.pe.stats;
        let (cycles, pc) = (unit.pe.cycles, unit.pe.regs.pc());
        self.tracer.emit(cycles, i, || TraceEvent::CtxDispatch {
            ctx: ctx_id,
            pc,
            resident: false,
        });
    }

    fn block_current(&mut self, i: usize) {
        let ctx_id = self.pes[i].current.expect("blocking the running context");
        // A channel wake may already have arrived for a WAIT-style block;
        // only mark Blocked if nothing re-readied us (normal case).
        if self.contexts[ctx_id].state == CtxState::Running {
            self.contexts[ctx_id].state = CtxState::Blocked;
        }
        if self.sched.ready_len(i) == 0 {
            // Nothing else to run: stay resident, keep the window
            // registers live, skip the roll-out.
            return;
        }
        let saved = self.pes[i].pe.switch_out(&mut self.memory);
        self.contexts[ctx_id].saved = saved;
        self.pes[i].current = None;
    }

    fn handle_trap(
        &mut self,
        i: usize,
        entry_no: Word,
        arg: Word,
        dst1: u8,
        dst2: u8,
    ) -> Result<(), SimError> {
        if self.tracer.enabled() {
            if let Some(ctx) = self.pes[i].current {
                let cycles = self.pes[i].pe.cycles;
                self.tracer.emit(cycles, i, || TraceEvent::KernelTrap {
                    ctx,
                    entry: entry_no,
                    name: entry::name(entry_no),
                    arg,
                });
            }
        }
        #[allow(clippy::cast_sign_loss)]
        match entry_no {
            entry::RFORK | entry::IFORK | entry::RFORK_LOCAL => {
                let parent_out = self.pes[i].pe.regs.read_global(REG_OUT_CHAN);
                // iforks continue an iteration chain and local rforks are
                // continuations the parent blocks on: both stay on the
                // forking PE. Plain rfork spreads load.
                let child_pe = if entry_no == entry::RFORK { self.choose_pe(i) } else { i };
                let c_in = self.channels.allocate();
                let c_out =
                    if entry_no == entry::IFORK { parent_out } else { self.channels.allocate() };
                if child_pe != i {
                    // Both ends of these channels are on different PEs,
                    // so a transfer on them would meet the other PE:
                    // keep them in the cycle order.
                    self.channels.contend(c_in);
                    self.channels.contend(c_out);
                }
                let page = self.pages[child_pe].alloc();
                let pom = self.pages[child_pe].pom();
                self.pes[i].pe.cycles += self.cfg.kernel.fork;
                let at = self.pes[i].pe.cycles;
                let ctx = Context::new(arg as UWord, child_pe, page, pom, c_in, c_out, at);
                let id = self.contexts.len();
                self.contexts.push(ctx);
                self.sched.push_ready(child_pe, id, at);
                self.live += 1;
                self.created += 1;
                self.peak_live = self.peak_live.max(self.live as u64);
                self.pes[i].pe.write_dst(dst1, c_in);
                if entry_no != entry::IFORK {
                    self.pes[i].pe.write_dst(dst2, c_out);
                }
                if self.tracer.enabled() {
                    if let Some(parent) = self.pes[i].current {
                        let kind = match entry_no {
                            entry::IFORK => ForkKind::Iterative,
                            entry::RFORK_LOCAL => ForkKind::Local,
                            _ => ForkKind::Recursive,
                        };
                        self.tracer.emit(at, i, || TraceEvent::Fork {
                            kind,
                            parent,
                            child: id,
                            child_pe,
                            pc: arg as UWord,
                        });
                    }
                }
                Ok(())
            }
            entry::END => {
                let ctx_id = self.pes[i].current.take().expect("END from a running context");
                let ctx = &mut self.contexts[ctx_id];
                ctx.state = CtxState::Dead;
                self.pages[i].free(ctx.queue_page);
                self.live -= 1;
                self.pes[i].pe.cycles += self.cfg.kernel.end;
                if self.tracer.enabled() {
                    let unit = &self.pes[i];
                    let instructions = unit.pe.stats.delta(&unit.slice_base).instructions;
                    let cycles = unit.pe.cycles;
                    self.tracer
                        .emit(cycles, i, || TraceEvent::CtxRetire { ctx: ctx_id, instructions });
                }
                Ok(())
            }
            entry::HALT => {
                self.halted = true;
                Ok(())
            }
            entry::NOW => {
                #[allow(clippy::cast_possible_wrap, clippy::cast_possible_truncation)]
                let now = self.pes[i].pe.cycles as Word;
                self.pes[i].pe.write_dst(dst1, now);
                Ok(())
            }
            entry::CHAN => {
                let id = self.channels.allocate();
                self.pes[i].pe.write_dst(dst1, id);
                Ok(())
            }
            entry::WAIT => {
                // A negative target lies before cycle 0: already due.
                let target = u64::try_from(arg).unwrap_or(0);
                if target > self.pes[i].pe.cycles {
                    let ctx_id = self.pes[i].current.expect("WAIT from a running context");
                    self.contexts[ctx_id].ready_at = target;
                    self.block_current(i);
                    self.contexts[ctx_id].state = CtxState::Ready;
                    self.sched.push_ready(i, ctx_id, target);
                }
                Ok(())
            }
            other => Err(SimError::UnknownTrap(other)),
        }
    }

    /// Run to completion: until the system halts (`trap #3`) or every
    /// context has terminated.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] when live contexts exist but none can make
    /// progress; [`SimError::InstructionBudget`] past the configured
    /// instruction limit; [`SimError::Pe`]/[`SimError::UnknownTrap`] on
    /// faults.
    pub fn run(&mut self) -> Result<RunOutcome, SimError> {
        match self.run_until(u64::MAX)? {
            RunStatus::Done(outcome) => Ok(outcome),
            RunStatus::Paused { .. } => unreachable!("a u64::MAX limit cannot pause"),
        }
    }

    /// Run until the program completes or the next pending action would
    /// happen at or after `limit` cycles, whichever comes first. Pausing
    /// happens only at step boundaries (no instruction, trap or transfer
    /// is half-done), so the paused system can be snapshotted and a
    /// restored copy continues bit-identically to an uninterrupted run —
    /// the invariant pinned by `tests/snapshot_resume.rs`.
    ///
    /// # Errors
    ///
    /// As [`System::run`].
    pub fn run_until(&mut self, limit: u64) -> Result<RunStatus, SimError> {
        self.translate_if_changed();
        self.rebuild_actors();
        let paused = self.run_steps(limit);
        if let Some((t, j)) = self.ended_at.take() {
            self.rewind_run_ahead(t, j);
        }
        for k in 0..self.pes.len() {
            self.settle(k);
        }
        debug_assert_eq!(self.chan_saves, 0, "every save settled");
        Ok(match paused? {
            Some(cycle) => RunStatus::Paused { cycle },
            None => RunStatus::Done(self.outcome()),
        })
    }

    /// The run loop of [`System::run_until`], on a current translation:
    /// the cycle it paused at, or `None` when the program completed.
    fn run_steps(&mut self, limit: u64) -> Result<Option<u64>, SimError> {
        while !self.halted && self.live > 0 {
            let Some((i, t)) = self.next_actor() else {
                return Err(SimError::Deadlock { blocked: self.deadlock_report() });
            };
            if t >= limit {
                // The next run_until re-plants every hint via
                // rebuild_actors.
                return Ok(Some(t));
            }
            if !self.is_running(i) {
                self.dispatch(i);
            }
            let ctx_id = self.pes[i].current.expect("dispatched");
            let before = self.pes[i].pe.cycles;
            self.loop_stats.outer_steps += 1;
            // PE `i` holds the least key: every step it ran ahead is now
            // in the serial past.
            self.settle(i);
            let result = if self.step_oracle {
                self.step_on_oracle(i, ctx_id, before)
            } else {
                let xp = self.xlate.as_ref().expect("translated on entry");
                match xp.slot(self.pes[i].pe.regs.pc()) {
                    Ok(&d) => {
                        // The step's cycle-order key is `(t, i)`, the
                        // dispatch included.
                        if self.chan_saves > 0 {
                            let xp = self.xlate.take().expect("translated on entry");
                            self.contact(i, t, &d, &xp);
                            self.xlate = Some(xp);
                        }
                        self.step_pe(i, ctx_id, before, &d)
                    }
                    Err(pc) => StepResult::Error(xp.fault(pc)),
                }
            };
            let continued = matches!(result, StepResult::Continue);
            self.retire(i, ctx_id, (t, before), result, self.tracer.enabled())?;
            // The acting PE's next-action time changed: re-key its heap
            // hint (other PEs were hinted by push_ready on wakes).
            let t = self.actor_time(i);
            self.sched.refresh(i, t);
            // After a sequential retire in an untraced engine run, keep
            // stepping this context in a tight loop up to the first cycle
            // at which the per-step checks above could choose differently.
            if continued && !self.tracer.enabled() && !self.step_oracle {
                self.run_translated_batch(i, limit)?;
            }
        }
        Ok(None)
    }

    /// PE `i`, the memory and the kernel services for a step of
    /// context `ctx_id` starting at cycle `time`.
    #[inline(always)]
    fn step_parts(
        &mut self,
        i: usize,
        ctx_id: CtxId,
        time: u64,
    ) -> (&mut Pe, &mut SharedMemory, Svc<'_>) {
        let svc = Svc {
            channels: &mut self.channels,
            contexts: &mut self.contexts,
            sched: &mut self.sched,
            cfg: &self.cfg,
            tracer: &mut self.tracer,
            ctx: ctx_id,
            time,
        };
        (&mut self.pes[i].pe, &mut self.memory, svc)
    }

    /// Execute PE `i`'s next instruction `d` for context `ctx_id`,
    /// starting at cycle `before`.
    #[inline(always)]
    pub(crate) fn step_pe(
        &mut self,
        i: usize,
        ctx_id: CtxId,
        before: u64,
        d: &DecodedInstr,
    ) -> StepResult {
        let (pe, memory, mut svc) = self.step_parts(i, ctx_id, before);
        pe.step_decoded(d, memory, &mut svc)
    }

    /// [`System::step_pe`] on the `Pe::step` oracle: fetch and decode
    /// from memory.
    fn step_on_oracle(&mut self, i: usize, ctx_id: CtxId, before: u64) -> StepResult {
        let (pe, memory, mut svc) = self.step_parts(i, ctx_id, before);
        pe.step(memory, &mut svc)
    }

    /// Retire one step of PE `i`'s context `ctx_id` whose cycle-order
    /// key is `(at, i)` and whose instruction started at cycle `before`
    /// (later than `at` when the step began with a dispatch): apply its
    /// outcome (park a blocked context, serve
    /// a trap), then charge the PE's busy time and count the instruction
    /// against the budget; with `traced`, drain the step's buffered bus
    /// events first. The one retire path for the outer loop and the
    /// batch alike; forced inline because a call per retired step
    /// measurably slowed the batch, which passes a constant `false`
    /// (it only runs untraced) so the drain folds away there.
    ///
    /// # Errors
    ///
    /// [`SimError::Pe`] on an undecodable instruction, trap failures
    /// and [`SimError::InstructionBudget`].
    #[inline(always)]
    fn retire(
        &mut self,
        i: usize,
        ctx_id: CtxId,
        (at, before): (u64, u64),
        result: StepResult,
        traced: bool,
    ) -> Result<(), SimError> {
        match result {
            StepResult::Continue | StepResult::Return { .. } => {}
            StepResult::Blocked(reason) => self.park(i, ctx_id, reason),
            StepResult::Trap { entry: e, arg, dst1, dst2, .. } => {
                let served = self.handle_trap(i, e, arg, dst1, dst2);
                if served.is_err() || self.halted {
                    self.ended_at = Some((at, i));
                }
                served?;
            }
            StepResult::Error(msg) => {
                self.ended_at = Some((at, i));
                return Err(SimError::Pe(msg));
            }
        }
        let unit = &mut self.pes[i];
        let after = unit.pe.cycles;
        unit.busy += after - before;
        if traced {
            self.drain_buffered_events(i, after);
        }
        self.instr_count += 1;
        if self.instr_count > self.cfg.max_instructions {
            return Err(SimError::InstructionBudget);
        }
        Ok(())
    }

    /// Park PE `i`'s context `ctx_id` after a step that blocked on a
    /// channel (the PC still names the blocked instruction).
    fn park(&mut self, i: usize, ctx_id: CtxId, reason: BlockReason) {
        // Charge the failed poll one base cycle so spinning is
        // never free, then switch out.
        self.pes[i].pe.cycles += 1;
        if self.tracer.enabled() {
            let (chan, dir) = match reason {
                BlockReason::SendOn(c) => (c, ChanDir::Send),
                BlockReason::RecvOn(c) => (c, ChanDir::Recv),
            };
            let unit = &self.pes[i];
            let instructions = unit.pe.stats.delta(&unit.slice_base).instructions;
            // The PC was not advanced: it still names the
            // blocked instruction, re-executed on resume.
            let (cycles, pc) = (unit.pe.cycles, unit.pe.regs.pc());
            self.tracer.emit(cycles, i, || TraceEvent::CtxBlock {
                ctx: ctx_id,
                chan,
                dir,
                pc,
                instructions,
            });
        }
        self.block_current(i);
    }

    /// Whether PE `pe`'s resident context is running (not blocked).
    fn is_running(&self, pe: usize) -> bool {
        self.pes[pe].current.is_some_and(|c| self.contexts[c].state == CtxState::Running)
    }

    /// Retire as many further steps of running contexts as the serial
    /// schedule allows, without per-step scheduling, starting with PE
    /// `i`'s. Called only right after that context retired an
    /// instruction and continued, in an untraced engine run. See
    /// `crate::xlate` for the batching rules (any step runs while this
    /// PE is provably the serial scheduler's next pick; local-only steps
    /// additionally run ahead of the global cycle order, saved for a
    /// rewind; the batch hands off to the PE that stopped it when that
    /// PE is provably next) and the equivalence argument behind each.
    ///
    /// Each iteration re-checks everything that depends on the acting
    /// PE itself: the pause limit and whether it is provably next —
    /// anything else exits to the outer loop, which re-proves the
    /// schedule from scratch. Every step
    /// retires through [`Self::retire`], so the budget error fires at
    /// exactly the retired count the outer loop would raise it; a step
    /// that blocks, traps or faults ends the batch.
    ///
    /// # Errors
    ///
    /// As [`Self::retire`].
    pub(crate) fn run_translated_batch(
        &mut self,
        mut i: usize,
        limit: u64,
    ) -> Result<(), SimError> {
        // Moved out for the batch, so its slots stay borrowed across the
        // `&mut self` steps; nothing below reads `self.xlate`.
        let xp = self.xlate.take().expect("translated on entry");
        let mut ctx_id = self.pes[i].current.expect("batched context is running");
        // `LeastLoaded` forks tie-break on other PEs' *clocks*, so a PE
        // whose clock ran ahead through local-only steps would be
        // observed. Then every step keeps the cycle-order bound, which
        // makes the batch exactly the serial dispatch prefix.
        let may_run_ahead = self.cfg.placement != Placement::LeastLoaded;
        // Lower bound on every other PE's next-action `(time, pe)` heap
        // key (`None`: no other PE can act). It stays valid while the
        // scheduler's wake counter stands at `seen`: only a push that
        // lowers some PE's key can lower the bound.
        let mut bound = self.sched.min_other_hint(i);
        let mut seen = self.sched.wakes();
        let mut retired = false;
        let mut outcome = Ok(());
        loop {
            let unit = &self.pes[i];
            let before = unit.pe.cycles;
            if before >= limit {
                break;
            }
            let slot = xp.slot(unit.pe.regs.pc());
            if self.sched.wakes() != seen {
                seen = self.sched.wakes();
                bound = self.sched.min_other_hint(i);
            }
            // The serial scheduler picks the least `(time, pe)` key, and
            // a running PE's key is `(cycles, pe)`: this PE is provably
            // next exactly while its key compares below every other PE's
            // — including winning the equal-time tie by lower index, as
            // the heap would.
            if let Some((t, j)) = bound.filter(|&b| (before, i) >= b) {
                let ahead = match slot {
                    Ok(d) if may_run_ahead => {
                        if d.is_local_only(&unit.pe) {
                            self.run_ahead(i, d)
                        } else {
                            self.run_ahead_quiet(i, ctx_id, d)
                        }
                    }
                    _ => false,
                };
                if !ahead {
                    self.note_stop(i, slot);
                    // PE `j` holds the least other hint. When `j` runs
                    // and that hint is its clock, the hint is exact and
                    // `(t, j)` is the serial scheduler's next pick: hand
                    // the batch to `j` instead of leaving it.
                    if t >= limit {
                        break;
                    }
                    if self.pes[j].pe.cycles != t || !self.is_running(j) {
                        self.loop_stats.exits_not_running += 1;
                        break;
                    }
                    self.loop_stats.handoffs += 1;
                    self.sched.refresh(i, Some(before));
                    i = j;
                    // `j` is next: every step it ran ahead is in the
                    // serial past.
                    self.settle(i);
                    ctx_id = self.pes[j].current.expect("running PE has a context");
                    bound = self.sched.min_other_hint(i);
                    retired = false;
                    continue;
                }
            } else {
                // Within a batch a PE's steps in the cycle order come
                // before its steps ahead of it (the bound only falls
                // while its clock rises), and the outer loop or the
                // hand-off settled it when it took the batch.
                debug_assert!(!self.ahead[i].is_active(), "an in-order PE holds no save");
                // A channel operation in the cycle order first rewinds a
                // PE that ran ahead on its channel; that PE's key fell,
                // so the bound is read again.
                if self.chan_saves > 0 {
                    if let Ok(d) = slot {
                        if self.contact(i, before, d, &xp) {
                            bound = self.sched.min_other_hint(i);
                        }
                    }
                }
            }
            let result = match slot {
                Ok(d) => self.step_pe(i, ctx_id, before, d),
                Err(pc) => StepResult::Error(xp.fault(pc)),
            };
            let continued = matches!(result, StepResult::Continue | StepResult::Return { .. });
            retired = true;
            if let Err(e) = self.retire(i, ctx_id, (before, before), result, false) {
                outcome = Err(e);
                break;
            }
            if !continued {
                break;
            }
        }
        self.xlate = Some(xp);
        if retired {
            // Keep the acting PE's heap hint tight: its clock moved
            // across the batch but was last re-keyed before it. A PE
            // that retired nothing since it took the batch over (or a
            // zero-step batch) still has an exact hint.
            let t = self.actor_time(i);
            self.sched.refresh(i, t);
        }
        outcome
    }

    /// Count a batch stop at the cycle-order bound by the kind of PE
    /// `i`'s step that could not run ahead.
    #[cold]
    fn note_stop(&mut self, i: usize, slot: Result<&DecodedInstr, UWord>) {
        use qm_isa::Opcode;
        let stats = &mut self.loop_stats;
        let Ok(d) = slot else {
            stats.stops_trap += 1;
            return;
        };
        match d.opcode() {
            Opcode::Trap | Opcode::Ftrap | Opcode::Fret | Opcode::Rett => stats.stops_trap += 1,
            _ if self.ahead[i].full() => stats.stops_full_log += 1,
            Opcode::Send | Opcode::Recv => stats.stops_channel += 1,
            _ => stats.stops_global += 1,
        }
    }

    /// The run loop's scheduling counters so far: outer-loop steps,
    /// in-batch hand-offs, run-ahead saves and rewinds, and why batches
    /// stopped at the cycle-order bound. Host-side diagnostics, counted
    /// only where a batch stops or hands off, never per batched step;
    /// a restored system starts from zero.
    #[must_use]
    pub fn run_loop_stats(&self) -> RunLoopStats {
        self.loop_stats
    }

    /// Wall-clock cycles elapsed so far: the maximum over all PE clocks.
    /// Valid mid-run (e.g. on a paused system), unlike
    /// [`RunOutcome::elapsed_cycles`] which exists only at completion.
    #[must_use]
    pub fn elapsed_cycles(&self) -> u64 {
        self.pes.iter().map(|u| u.pe.cycles).max().unwrap_or(0)
    }

    /// The wait-for report of every context currently parked on a
    /// channel — the same records a [`SimError::Deadlock`] would carry,
    /// but available on demand for a live (e.g. paused or restored)
    /// system. Used by the `qm-bench` replay bin's divergence reports.
    #[must_use]
    pub fn wait_for_report(&self) -> Vec<BlockedCtx> {
        self.deadlock_report()
    }

    /// Override the context placement policy mid-run. Placement only
    /// affects future fork decisions, so this is safe on a restored
    /// snapshot — the replay bin uses it to run two placement variants
    /// from one captured state.
    pub fn set_placement(&mut self, placement: Placement) {
        self.cfg.placement = placement;
    }

    /// Forward events buffered by the channel table and the memory system
    /// during the step PE `i` just executed, stamped with its clock.
    /// Draining keeps the buffers' capacity, so a traced run settles into
    /// zero allocation per step.
    fn drain_buffered_events(&mut self, i: usize, cycle: u64) {
        for ev in self.channels.trace.drain() {
            self.tracer.record(&TraceRecord { cycle, pe: i, event: ev });
        }
        for ev in self.memory.trace.drain() {
            self.tracer.record(&TraceRecord { cycle, pe: i, event: ev });
        }
    }

    /// PC a context would resume at: live registers when it is resident
    /// on its PE, its saved registers otherwise.
    fn ctx_pc(&self, id: CtxId) -> UWord {
        let pe = self.contexts[id].pe;
        if self.pes[pe].current == Some(id) {
            self.pes[pe].pe.regs.pc()
        } else {
            let mut r = qm_isa::regs::RegisterFile::new();
            r.restore(&self.contexts[id].saved);
            r.pc()
        }
    }

    /// The wait-for report for a detected deadlock: every context parked
    /// on a channel, with direction, blocked PC and channel occupancy.
    /// Contexts are labelled through [`qm_verify::names::ctx_label`]
    /// with the symbol covering the blocked PC, matching trace lanes and
    /// the static deadlock lint.
    fn deadlock_report(&self) -> Vec<BlockedCtx> {
        // The `(name, address)` table the `qm_verify::names` helpers
        // take, built only when a report is made.
        let syms: Vec<(String, UWord)> = self
            .object
            .iter()
            .flat_map(|o| o.symbols().iter().map(|(n, &a)| (n.clone(), a)))
            .collect();
        self.channels
            .blocked_infos()
            .into_iter()
            .map(|b| {
                let pc = self.ctx_pc(b.ctx);
                let sym = qm_verify::names::nearest_symbol(&syms, pc).map(|(n, _)| n);
                BlockedCtx {
                    ctx: b.ctx,
                    label: qm_verify::names::ctx_label(b.ctx, sym),
                    pe: self.contexts[b.ctx].pe,
                    chan: b.chan,
                    dir: b.dir,
                    pc,
                    value: b.value,
                    chan_state: self.channels.state(b.chan),
                }
            })
            .collect()
    }

    fn outcome(&self) -> RunOutcome {
        let pes: Vec<PeReport> = self
            .pes
            .iter()
            .map(|u| PeReport { cycles: u.pe.cycles, busy_cycles: u.busy, stats: u.pe.stats })
            .collect();
        RunOutcome {
            output: self.channels.output.clone(),
            elapsed_cycles: pes.iter().map(|p| p.cycles).max().unwrap_or(0),
            instructions: pes.iter().map(|p| p.stats.instructions).sum(),
            contexts_created: self.created,
            peak_live_contexts: self.peak_live,
            channel_transfers: self.channels.transfers,
            channel_high_water: self.channels.high_waters(),
            mem: self.memory.stats,
            pes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_src(pes: usize, src: &str) -> RunOutcome {
        let mut sys = System::with_assembly(SystemConfig::with_pes(pes), src).unwrap();
        sys.run().unwrap()
    }

    #[test]
    fn straight_line_program_reports_output() {
        let out = run_src(
            1,
            "main: plus #20,#22 :r0\n\
                   send+1 #0,r0\n\
                   trap #2,#0\n",
        );
        assert_eq!(out.output, vec![42]);
        assert_eq!(out.contexts_created, 1);
        assert!(out.elapsed_cycles > 0);
    }

    #[test]
    fn fork_and_join_across_pes() {
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
        for pes in [1, 2, 4] {
            let out = run_src(pes, src);
            assert_eq!(out.output, vec![42], "{pes} PEs");
            assert_eq!(out.contexts_created, 2);
        }
    }

    #[test]
    fn ifork_child_inherits_out_channel() {
        // main rforks A; A iforks B; B sends the final result directly on
        // the inherited out channel back to main (Fig. 4.6's iteration
        // pattern).
        let src = "
main:   trap #0,#a :r0,r1
        send r0,#5
        recv r1,#0 :r2
        send+3 #0,r2
        trap #2,#0
a:      recv r17,#0 :r0          ; receive 5
        plus+1 r0,#1 :r0         ; 6
        trap #1,#b :r1           ; ifork b (inherits out channel)
        send r1,r0
        trap+2 #2,#0
b:      recv r17,#0 :r0          ; receive 6
        mul+1 r0,#7 :r0          ; 42
        send+1 r18,r0            ; straight to main
        trap #2,#0
";
        let out = run_src(2, src);
        assert_eq!(out.output, vec![42]);
        assert_eq!(out.contexts_created, 3);
    }

    #[test]
    fn rendezvous_blocks_sender_until_receiver() {
        // Child computes long before main receives; the channel must hold
        // the rendezvous.
        let src = "
main:   trap #0,#child :r0,r1
        send r0,#1
        plus #0,#0 :r17
        plus #0,#0 :r17
        plus #0,#0 :r17
        recv r1,#0 :r2
        send+3 #0,r2
        trap #2,#0
child:  recv r17,#0 :r0
        plus+1 r0,#9 :r0
        send+1 r18,r0
        trap #2,#0
";
        let out = run_src(2, src);
        assert_eq!(out.output, vec![10]);
    }

    #[test]
    fn piecewise_built_system_translates() {
        // System::new + load_object + spawn_main, no builder: the first
        // step must already run on the translation, not on Pe::step.
        let obj = qm_isa::asm::assemble("main: send #0,#7\n trap #2,#0\n").unwrap();
        let mut sys = System::new(SystemConfig::with_pes(1));
        sys.load_object(&obj);
        sys.spawn_main(obj.base());
        assert!(sys.xlate.is_none(), "nothing translates before the first step");
        sys.run_until(1).unwrap();
        assert!(sys.xlate.is_some(), "a piecewise-built system holds a translation");
        assert_eq!(sys.run().unwrap().output, vec![7]);
    }

    #[test]
    fn reloading_code_retranslates() {
        // Run, load a different object at the same base, run again: the
        // second run executes the new words, exactly as the oracle does.
        let first = qm_isa::asm::assemble("main: send #0,#7\n trap #2,#0\n").unwrap();
        let second =
            qm_isa::asm::assemble("main: plus #5,#6 :r0\n send+1 #0,r0\n trap #2,#0\n").unwrap();
        assert_eq!(first.base(), second.base());
        let run = |oracle: bool| {
            let mut sys = System::new(SystemConfig::with_pes(1));
            if oracle {
                sys.use_step_oracle();
            }
            sys.load_object(&first);
            sys.spawn_main(first.base());
            assert_eq!(sys.run().unwrap().output, vec![7]);
            sys.load_object(&second);
            sys.spawn_main(second.base());
            let out = sys.run().unwrap();
            (out, crate::snapshot::Snapshot::capture(&sys))
        };
        let engine = run(false);
        assert_eq!(engine.0.output, vec![7, 11]);
        assert_eq!(engine, run(true));
    }

    #[test]
    fn halt_stops_everything() {
        let out = run_src(
            1,
            "main: send #0,#7\n\
                   trap #3,#0\n\
                   send #0,#8\n",
        );
        assert_eq!(out.output, vec![7], "instruction after halt never ran");
    }

    #[test]
    fn clean_runs_never_scan_channel_diagnostics() {
        // The blocked-context reports walk every touched channel — fine
        // from an error path, a hot-path regression anywhere else. A run
        // that completes (with plenty of blocking traffic on the way)
        // must never trigger a scan; a deadlocked one scans to build its
        // report.
        let src = "
main:   trap #0,#child :r0,r1
        send r0,#1
        recv r1,#0 :r2
        send+3 #0,r2
        trap #2,#0
child:  recv r17,#0 :r0
        plus+1 r0,#9 :r0
        send+1 r18,r0
        trap #2,#0
";
        let mut cfg = SystemConfig::with_pes(1);
        cfg.channel_capacity = 0;
        let mut sys = System::with_assembly(cfg, src).unwrap();
        sys.run().unwrap();
        assert_eq!(sys.channels.diag_scan_count(), 0, "clean run reached a diagnostic scan");

        let mut sys =
            System::with_assembly(SystemConfig::with_pes(1), "main: recv #1,#0 :r0\n").unwrap();
        sys.run().unwrap_err();
        assert!(sys.channels.diag_scan_count() > 0, "deadlock report scans channels");
    }

    #[test]
    fn deadlock_is_detected() {
        let src = "main: recv #1,#0 :r0\n      trap #2,#0\n";
        let mut sys = System::with_assembly(SystemConfig::with_pes(1), src).unwrap();
        let main_pc = sys.symbol("main").unwrap();
        match sys.run() {
            Err(SimError::Deadlock { blocked }) => {
                assert_eq!(blocked.len(), 1);
                let b = &blocked[0];
                assert_eq!(b.ctx, 0);
                assert_eq!(b.pe, 0);
                assert_eq!(b.chan, 1);
                assert_eq!(b.dir, ChanDir::Recv);
                assert_eq!(b.value, None);
                assert_eq!(b.pc, main_pc, "the blocked PC names the un-advanced recv instruction");
                assert_eq!(b.chan_state, CacheState::ReceiverBlocked { receivers: 1 });
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn deadlock_report_includes_parked_senders() {
        // Two contexts: main sends on a channel nobody reads; the child
        // receives on a channel nobody writes. Capacity 0 (pure
        // rendezvous) so the send genuinely parks.
        let src = "
main:   trap #0,#child :r0,r1
        send #55,#9
        trap #2,#0
child:  recv #66,#0 :r0
        trap #2,#0
";
        let mut cfg = SystemConfig::with_pes(1);
        cfg.channel_capacity = 0;
        let mut sys = System::with_assembly(cfg, src).unwrap();
        let err = sys.run().unwrap_err();
        let SimError::Deadlock { blocked } = &err else {
            panic!("expected deadlock, got {err:?}");
        };
        assert_eq!(blocked.len(), 2);
        let sender = blocked.iter().find(|b| b.dir == ChanDir::Send).expect("parked sender");
        assert_eq!(sender.chan, 55);
        assert_eq!(sender.value, Some(9));
        assert!(matches!(sender.chan_state, CacheState::SenderBlocked { senders: 1, .. }));
        let receiver = blocked.iter().find(|b| b.dir == ChanDir::Recv).expect("parked receiver");
        assert_eq!(receiver.chan, 66);
        let report = err.to_string();
        assert!(report.contains("send on chan 55"), "report: {report}");
        assert!(report.contains("recv on chan 66"), "report: {report}");
        assert!(report.contains("offering 9"), "report: {report}");
    }

    #[test]
    fn recorder_sees_the_whole_context_lifecycle() {
        use crate::trace::{Recorder, TraceEvent};
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
        let rec = Recorder::new(4096);
        let mut sys = System::with_assembly(SystemConfig::with_pes(2), src).unwrap();
        sys.set_trace_sink(rec.sink());
        let out = sys.run().unwrap();
        assert_eq!(out.output, vec![42]);
        let dispatches = rec.matching(|e| matches!(e, TraceEvent::CtxDispatch { .. }));
        assert!(!dispatches.is_empty(), "dispatch events recorded");
        assert!(matches!(
            dispatches[0].event,
            TraceEvent::CtxDispatch { ctx: 0, resident: false, .. }
        ));
        let forks = rec.matching(|e| matches!(e, TraceEvent::Fork { .. }));
        assert_eq!(forks.len(), 1);
        assert!(matches!(
            forks[0].event,
            TraceEvent::Fork { parent: 0, child: 1, kind: crate::trace::ForkKind::Recursive, .. }
        ));
        let retires = rec.matching(|e| matches!(e, TraceEvent::CtxRetire { .. }));
        assert_eq!(retires.len(), 2, "both contexts retire");
        let rendezvous = rec.matching(|e| matches!(e, TraceEvent::Rendezvous { .. }));
        assert!(!rendezvous.is_empty(), "the blocked transfer completes as a rendezvous");
        assert_eq!(rec.dropped(), 0);
        // Timestamps never decrease per PE.
        for pe in 0..2 {
            let cycles: Vec<u64> =
                rec.records().iter().filter(|r| r.pe == pe).map(|r| r.cycle).collect();
            assert!(cycles.windows(2).all(|w| w[0] <= w[1]), "pe{pe} timestamps sorted");
        }
    }

    #[test]
    fn tracing_does_not_change_the_simulation() {
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
        let untraced = run_src(2, src);
        let rec = crate::trace::Recorder::new(4096);
        let mut sys = System::with_assembly(SystemConfig::with_pes(2), src).unwrap();
        sys.set_trace_sink(rec.sink());
        let traced = sys.run().unwrap();
        assert_eq!(untraced, traced, "tracing is pure observation");
    }

    #[test]
    fn host_input_feeds_channel_zero() {
        let src = "
main:   recv #0,#0 :r0
        mul+1 r0,#3 :r0
        send+1 #0,r0
        trap #2,#0
";
        let mut sys = System::with_assembly(SystemConfig::with_pes(1), src).unwrap();
        sys.push_input(14);
        let out = sys.run().unwrap();
        assert_eq!(out.output, vec![42]);
    }

    #[test]
    fn now_and_wait() {
        let src = "
main:   trap #4,#0 :r17          ; now → r17
        trap #5,#200             ; wait until cycle 200
        trap #4,#0 :r18          ; now again
        his r18,#200 :r0
        send+1 #0,r0
        trap #2,#0
";
        let out = run_src(1, src);
        assert_eq!(out.output, vec![-1], "second reading is past the deadline");
    }

    #[test]
    fn negative_wait_targets_are_already_due() {
        let prog = |target: &str| {
            format!(
                "main:   trap #5,#{target}
        trap #4,#0 :r17
        send #0,r17
        trap #2,#0
"
            )
        };
        // Negative targets once read as cycles near `u64::MAX`: `-1`
        // panicked `run`, `-2` overflowed the clock and `-100` ran for
        // 2^64 cycles. Each is now the same no-op as a target of 0.
        let due = run_src(1, &prog("0"));
        for target in ["-1", "-2"] {
            let out = run_src(1, &prog(target));
            assert_eq!(out.output, due.output, "wait #{target}");
            assert_eq!(out.elapsed_cycles, due.elapsed_cycles, "wait #{target}");
        }
        // `i32::MIN` takes an immediate word, which costs one cycle more.
        let out = run_src(1, &prog("-2147483648"));
        assert_eq!(out.elapsed_cycles, due.elapsed_cycles + 1, "wait #i32::MIN");
        assert_eq!(out.output, vec![due.output[0] + 1], "wait #i32::MIN");
    }

    #[test]
    fn parallel_children_spread_over_pes() {
        // Four children each double a value; main gathers.
        let src = "
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
        plus+2 r8,r9 :r0         ; wait: consumed r0..r7? no — see below
        trap #3,#0
child:  recv r17,#0 :r0
        mul+1 r0,#2 :r0
        send+1 r18,r0
        trap #2,#0
";
        // NOTE: r8..r11 hold 2,4,6,8; the final plus only sanity-checks
        // the first two.
        let out = run_src(4, src);
        assert_eq!(out.contexts_created, 5);
        assert!(out.peak_live_contexts >= 2);
        let _ = out;
    }

    #[test]
    fn local_rfork_stays_on_forking_pe() {
        // trap #7 pins the child; with 2 PEs everything runs on PE 0.
        let src = "
main:   trap #7,#child :r0,r1
        send r0,#5
        recv r1,#0 :r2
        send+3 #0,r2
        trap #2,#0
child:  recv r17,#0 :r0
        plus+1 r0,#1 :r0
        send+1 r18,r0
        trap #2,#0
";
        let mut sys = System::with_assembly(SystemConfig::with_pes(2), src).unwrap();
        let out = sys.run().unwrap();
        assert_eq!(out.output, vec![6]);
        assert_eq!(out.pes[1].stats.instructions, 0, "PE 1 never ran anything");
    }

    #[test]
    fn chan_trap_allocates_distinct_channels() {
        // trap #6 twice, send on one, receive from it; the ids differ.
        let src = "
main:   trap #6,#0 :r17
        trap #6,#0 :r18
        ne r17,r18 :r0
        send+1 #0,r0
        trap #7,#echo :r1,r2
        send r1,r17              ; tell the child which channel to use
        send r17,#33             ; then rendezvous over it
        recv r2,#0 :r3
        send+4 #0,r3
        trap #2,#0
echo:   recv r17,#0 :r0          ; the program channel id
        recv+1 r0,#0 :r1         ; value over the program channel
        plus+1 r1,#9 :r1
        send+1 r18,r1
        trap #2,#0
";
        let mut sys = System::with_assembly(SystemConfig::with_pes(1), src).unwrap();
        let out = sys.run().unwrap();
        assert_eq!(out.output, vec![-1, 42]);
    }

    #[test]
    fn blocked_context_stays_resident_when_pe_is_idle() {
        // Main blocks on a recv while both children (placed by round
        // robin on PE 0 and PE 1) work. Main resumes on PE 0 afterwards;
        // the total switch count stays low because blocked contexts stay
        // resident whenever their PE has nothing else ready.
        let src = "
main:   trap #0,#child :r0,r1
        trap #0,#child :r2,r3
        send r0,#3
        send r2,#4
        recv r1,#0 :r4
        recv r3,#0 :r5
        plus+4 r4,r5 :r6
        send #0,r6
        trap #2,#0
child:  recv r17,#0 :r0
        mul+1 r0,r0 :r0
        send+1 r18,r0
        trap #2,#0
";
        let mut sys = System::with_assembly(SystemConfig::with_pes(2), src).unwrap();
        let out = sys.run().unwrap();
        assert_eq!(out.output, vec![25]);
        let total_switches: u64 = out.pes.iter().map(|p| p.stats.context_switches).sum();
        assert!(total_switches <= 2, "resident blocking keeps switches rare: {total_switches}");
    }

    #[test]
    fn run_until_pauses_then_finishes_identically() {
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
        let uninterrupted = run_src(2, src);
        let mut sys = System::with_assembly(SystemConfig::with_pes(2), src).unwrap();
        // Pause at every cycle boundary in turn: the stitched-together
        // run must end with the exact same outcome.
        let mut limit = 1;
        let outcome = loop {
            match sys.run_until(limit).unwrap() {
                RunStatus::Done(out) => break out,
                RunStatus::Paused { cycle } => {
                    assert!(cycle >= limit, "paused at {cycle} before limit {limit}");
                    limit = cycle + 1;
                }
            }
        };
        assert_eq!(outcome, uninterrupted, "pausing is invisible to the results");
    }

    #[test]
    fn run_until_zero_pauses_immediately_without_stepping() {
        let src = "main: send #0,#7\n      trap #2,#0\n";
        let mut sys = System::with_assembly(SystemConfig::with_pes(1), src).unwrap();
        assert!(matches!(sys.run_until(0).unwrap(), RunStatus::Paused { .. }));
        assert_eq!(sys.instr_count, 0, "nothing retired before the limit");
        let out = sys.run().unwrap();
        assert_eq!(out.output, vec![7]);
    }

    #[test]
    fn more_pes_do_not_slow_down_parallel_work() {
        let src = "
main:   trap #0,#child :r0,r1
        trap #0,#child :r2,r3
        send r0,#10
        send r2,#20
        recv r1,#0 :r4
        recv r3,#0 :r5
        plus r4,r5 :r6
        send+6 #0,r6
        trap #2,#0
child:  recv r17,#0 :r0
        mul+1 r0,r0 :r0
        mul r0,r0 :r1
        mul r1,r1 :r2
        plus+3 r0,r2 :r0
        send+1 r18,r0
        trap #2,#0
";
        let one = run_src(1, src);
        let two = run_src(2, src);
        assert_eq!(one.output, two.output);
        assert!(
            two.elapsed_cycles <= one.elapsed_cycles,
            "{} vs {}",
            two.elapsed_cycles,
            one.elapsed_cycles
        );
    }
}
