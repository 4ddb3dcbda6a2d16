//! Channels and the message processor (thesis §5.5).
//!
//! Every PE owns a message processor whose *message cache* holds in-flight
//! channel transfers. A channel provides an unbuffered, simplex rendezvous
//! (§4.2): `send` blocks until a matching `recv` arrives and vice versa.
//! The state machines of Figs 5.16–5.17 (interprocessor and
//! intraprocessor transfers) reduce, at the context level, to the four
//! per-channel queues modelled here:
//!
//! * a sender arrives first → its value parks in the message cache and the
//!   sending context blocks (`waiting_senders`);
//! * a receiver arrives first → the receiving context blocks
//!   (`waiting_receivers`);
//! * the second party completes the transfer, waking the first: the woken
//!   sender finds an *acknowledgement* (`acked`), the woken receiver finds
//!   its *value ready* (`ready`), so the re-executed instruction completes
//!   without re-transferring.
//!
//! Channel 0 is the host channel: sends to it append to the program
//! output; receives read pre-loaded host input.
//!
//! # Hot-path layout
//!
//! Channels live in a dense slab indexed by channel id (ids are handed
//! out sequentially from 1), with a spill map for out-of-range ids a
//! program might conjure arithmetically — so the steady-state send/recv
//! path is an array index, not a hash probe. A woken context's pending
//! acknowledgement or delivered value is a *per-context* slot (a blocked
//! context re-executes exactly one channel instruction, so it can hold
//! at most one of either): flat `Vec`s indexed by context id replace the
//! old per-channel `HashSet`/`HashMap`, leaving zero hash-map traffic
//! per transfer.
//!
//! A channel's three queues (cached values, parked senders, parked
//! receivers) are `(head, tail, len)` handles into three table-wide
//! `CellPool`s, one per kind: doubly linked cells in one `Vec` each,
//! plus a free list, like the fixed bank of message-cache slots of
//! §5.5 (Fig. 5.15) that every channel draws from. A cell freed by a
//! transfer on one channel is the next one any channel takes, so a
//! fork's two fresh channels cost no allocation once the pools reach
//! their peak occupancy, and a channel record is 64 bytes. That is
//! what lets a warmed-up system run allocation-free per step, on warm
//! channels and fresh ones alike (pinned by
//! `tests/steady_state_alloc.rs`).
//!
//! # Transfers ahead of the cycle order
//!
//! The table also decides which transfers the batched run loop may
//! retire ahead of the cycle order (`crate::xlate`): a *quiet* one
//! (`ChannelTable::quiet`) completes in the message cache without
//! waking anyone. It marks its channel with the run-ahead save that made
//! it and hands back a `ChanUndo` record, which `ChannelTable::undo`
//! applies when that PE is rewound. Markers, like the `contended`
//! hint, are host-side: snapshots carry neither.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::trace::{TraceBuffer, TraceEvent};
use crate::{CtxId, Word};

/// Channel ids below this live in the dense slab; anything else (ids a
/// program fabricated out of range, or negative) spills to a map.
const DENSE_LIMIT: Word = 1 << 16;

/// The host channel identifier.
pub const HOST_CHANNEL: Word = 0;

/// Which half of a rendezvous a context is performing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChanDir {
    /// Offering a value.
    Send,
    /// Awaiting a value.
    Recv,
}

impl std::fmt::Display for ChanDir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChanDir::Send => write!(f, "send"),
            ChanDir::Recv => write!(f, "recv"),
        }
    }
}

/// One context parked on a channel (the raw material of the deadlock
/// wait-for report).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockedInfo {
    /// The parked context.
    pub ctx: CtxId,
    /// PE it was running on when it parked.
    pub pe: usize,
    /// Channel it waits on.
    pub chan: Word,
    /// Whether it is a parked sender or receiver.
    pub dir: ChanDir,
    /// The value a parked sender is offering (`None` for receivers).
    pub value: Option<Word>,
}

/// Observable message-cache entry states (the context-level reduction of
/// the Fig. 5.16/5.17 transfer state machines; Tables 5.3–5.4 give the
/// per-operation transitions, exercised by this module's tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheState {
    /// No transfer in flight.
    Empty,
    /// Values parked in cache slots (or delivered-but-uncollected),
    /// nobody blocked.
    ValueHeld {
        /// Parked values.
        buffered: usize,
    },
    /// Cache full and senders blocked behind it.
    SenderBlocked {
        /// Values in the cache.
        buffered: usize,
        /// Parked senders.
        senders: usize,
    },
    /// Receivers blocked waiting for a sender.
    ReceiverBlocked {
        /// Parked receivers.
        receivers: usize,
    },
}

/// Result of offering a send to the channel table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendResult {
    /// Transfer complete (a receiver was waiting, or the host took it).
    /// If a blocked receiver was woken it is reported here.
    Done {
        /// Context to wake, with the PE that hosts it (if any).
        woke: Option<CtxId>,
    },
    /// No receiver yet: the sender must block.
    Block,
}

/// Result of offering a receive to the channel table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvResult {
    /// A value was obtained. If a blocked sender was woken it is reported.
    Done {
        /// The transferred word.
        value: Word,
        /// Context to wake (the parked sender, if any).
        woke: Option<CtxId>,
        /// PE of the peer context that sent the value (for bus costing);
        /// `None` when the value came from the host.
        from_pe: Option<usize>,
    },
    /// No sender yet: the receiver must block.
    Block,
}

#[derive(Debug, Default)]
struct Channel {
    /// Message-cache slots holding values already accepted from senders
    /// (Fig. 5.15); `(value, sending PE)` cells in the table's `values`
    /// pool.
    buffer: Queue,
    /// Parked senders, cells in the table's `senders` pool.
    waiting_senders: Queue,
    /// Parked receivers, cells in the table's `receivers` pool.
    waiting_receivers: Queue,
    /// Delivered-but-uncollected values homed on this channel (the
    /// values themselves sit in the table's per-context `ready` slots;
    /// this count backs [`ChannelTable::state`]).
    ready_count: usize,
    /// Whether `send`/`recv` ever touched this channel. Dense slots exist
    /// for every id below the allocation mark, but exports and state
    /// queries treat untouched ones as nonexistent — exactly the set the
    /// previous map-of-channels representation contained.
    touched: bool,
    /// Peak in-flight occupancy (`buffer` + `ready_count`) this channel
    /// ever reached — the runtime counterpart of the static
    /// `MaxQueueDepth` bound `qm-verify`'s deep pass proves. Updated
    /// only on the two occupancy-raising paths (a value parking in the
    /// cache, a value delivered to a woken receiver), so the hot path
    /// stays allocation-free and untouched channels cost nothing.
    high_water: u64,
    /// The run-ahead save whose quiet transfers last touched this
    /// channel (host-side, never snapshotted; see
    /// [`ChannelTable::quiet`]).
    mark: ChanMark,
    /// Quiet transfers on this channel would likely meet another PE
    /// ([`ChannelTable::contend`]); they stay in the cycle order
    /// (host-side, like `mark`).
    contended: bool,
}

/// A queue's handle into a [`CellPool`]: its first and last cells and its
/// length. The ends are meaningful only while `len > 0`, so the default
/// (all zero) is the empty queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Queue {
    head: u32,
    tail: u32,
    len: u32,
}

impl Queue {
    #[inline]
    fn len(self) -> usize {
        self.len as usize
    }

    #[inline]
    fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// One pooled queue element, linked both ways to its neighbours (a free
/// cell links only `next`, into the free list).
#[derive(Debug, Clone, Copy)]
struct Cell<T> {
    val: T,
    prev: u32,
    next: u32,
}

/// End of the free list.
const NIL: u32 = u32::MAX;

/// Table-wide storage for one kind of channel queue: every channel's
/// queue of that kind is a doubly linked list of cells in one `Vec`, and
/// a cell freed on any channel is the next one any channel takes. So the
/// pool grows only to the peak number of elements live at once, and a
/// warm table allocates nothing however many channels come and go.
#[derive(Debug)]
struct CellPool<T> {
    cells: Vec<Cell<T>>,
    /// Head of the free list (`NIL` when every cell is live).
    free: u32,
}

impl<T> Default for CellPool<T> {
    fn default() -> Self {
        CellPool { cells: Vec::new(), free: NIL }
    }
}

impl<T: Copy> CellPool<T> {
    /// Store `cell`, in a cell from the free list if it has one.
    #[inline]
    fn take(&mut self, cell: Cell<T>) -> u32 {
        if self.free == NIL {
            let i = u32::try_from(self.cells.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("fewer than 2^32 - 1 queued elements");
            self.cells.push(cell);
            i
        } else {
            let i = self.free;
            let c = &mut self.cells[i as usize];
            self.free = c.next;
            *c = cell;
            i
        }
    }

    /// Free cell `i`, returning what it held and its neighbours.
    #[inline]
    fn release(&mut self, i: u32) -> Cell<T> {
        let c = &mut self.cells[i as usize];
        let held = *c;
        c.next = self.free;
        self.free = i;
        held
    }

    fn push_back(&mut self, q: &mut Queue, val: T) {
        let i = self.take(Cell { val, prev: q.tail, next: NIL });
        if q.len == 0 {
            q.head = i;
        } else {
            self.cells[q.tail as usize].next = i;
        }
        q.tail = i;
        q.len += 1;
    }

    fn push_front(&mut self, q: &mut Queue, val: T) {
        let i = self.take(Cell { val, prev: NIL, next: q.head });
        if q.len == 0 {
            q.tail = i;
        } else {
            self.cells[q.head as usize].prev = i;
        }
        q.head = i;
        q.len += 1;
    }

    fn pop_front(&mut self, q: &mut Queue) -> Option<T> {
        if q.len == 0 {
            return None;
        }
        let c = self.release(q.head);
        q.head = c.next;
        q.len -= 1;
        Some(c.val)
    }

    fn pop_back(&mut self, q: &mut Queue) -> Option<T> {
        if q.len == 0 {
            return None;
        }
        let c = self.release(q.tail);
        q.tail = c.prev;
        q.len -= 1;
        Some(c.val)
    }

    fn front(&self, q: Queue) -> Option<T> {
        (q.len > 0).then(|| self.cells[q.head as usize].val)
    }

    /// `q`'s elements, front to back.
    fn iter(&self, q: Queue) -> impl Iterator<Item = T> + '_ {
        let mut at = q.head;
        (0..q.len).map(move |_| {
            let c = &self.cells[at as usize];
            at = c.next;
            c.val
        })
    }

    /// Empty the pool (every queue into it must be dropped too).
    fn clear(&mut self) {
        self.cells.clear();
        self.free = NIL;
    }
}

/// A PE's run-ahead save, as a channel marker: the acting PE and the
/// number of its save (wrapping). A marker is live only while that save
/// is active, so settling the save clears every marker it left for
/// free; a stale marker that a wrapped number makes look live costs at
/// most a needless rewind or a transfer kept in the cycle order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ChanMark {
    pub(crate) pe: u32,
    pub(crate) save: u32,
}

/// How to take back one quiet transfer ([`ChannelTable::undo`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChanUndo {
    chan: Word,
    /// A receive, which took `(value, from_pe)` from the front of the
    /// cache; otherwise a send, which appended one value.
    recv: bool,
    value: Word,
    from_pe: u32,
    /// The send was the channel's first use.
    fresh: bool,
    /// The send raised the channel's high-water mark (by one).
    raised: bool,
}

impl Channel {
    /// Record the occupancy after a value entered the cache or a ready
    /// slot.
    #[inline]
    fn note_occupancy(&mut self) {
        self.high_water = self.high_water.max((self.buffer.len() + self.ready_count) as u64);
    }
}

/// One channel's complete state in deterministic order, produced by
/// [`ChannelTable::export_channels`] for snapshot serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ChannelSnap {
    pub(crate) chan: Word,
    /// Cached `(value, sending PE)` slots, FIFO order.
    pub(crate) buffer: Vec<(Word, usize)>,
    /// Parked senders `(ctx, pe, value)`, FIFO order.
    pub(crate) senders: Vec<(CtxId, usize, Word)>,
    /// Parked receivers `(ctx, pe)`, FIFO order.
    pub(crate) receivers: Vec<(CtxId, usize)>,
    /// Contexts holding an uncollected send acknowledgement, sorted.
    pub(crate) acked: Vec<CtxId>,
    /// Delivered-but-uncollected values `(ctx, value, from_pe)`, sorted.
    pub(crate) ready: Vec<(CtxId, Word, usize)>,
    /// Peak in-flight occupancy the channel ever reached (a run
    /// statistic: carried so a resumed run reports the same
    /// [`RunOutcome`](crate::RunOutcome) high-water marks as the
    /// uninterrupted one).
    pub(crate) high_water: u64,
}

/// The system-wide channel table (union of all message caches).
#[derive(Debug, Default)]
pub struct ChannelTable {
    /// Dense channel slab: slot `i` is channel id `i` (0, the host
    /// channel, is never stored — its slot stays untouched).
    dense: Vec<Channel>,
    /// Channels whose id falls outside `1..DENSE_LIMIT`.
    spill: HashMap<Word, Channel>,
    /// Every channel's message-cache values.
    values: CellPool<(Word, usize)>,
    /// Every channel's parked senders `(ctx, pe, value)`.
    senders: CellPool<(CtxId, usize, Word)>,
    /// Every channel's parked receivers `(ctx, pe)`.
    receivers: CellPool<(CtxId, usize)>,
    /// Per-context pending send acknowledgement: the channel it was
    /// earned on, consumed by the re-executed send. A blocked context
    /// re-executes exactly one instruction, so one slot suffices.
    acks: Vec<Option<Word>>,
    /// Per-context delivered-but-uncollected value `(chan, value,
    /// sending PE)`, consumed by the re-executed receive.
    ready: Vec<Option<(Word, Word, usize)>>,
    /// Diagnostic-collection scan counter: bumped by the wait-for report
    /// path ([`ChannelTable::blocked_infos`]), which walks every channel.
    /// Stays zero across a clean run — the run loop only reaches them
    /// from error paths, a property pinned by a system test.
    pub(crate) diag_scans: AtomicU64,
    next_id: Word,
    /// Message-cache slots per channel: a send completes immediately
    /// while a slot is free. 0 = pure rendezvous (the §4.2 abstract
    /// semantics); >0 models the dedicated message-cache hardware of
    /// §5.5 that parks in-flight values so the sending PE can continue.
    pub capacity: usize,
    /// Values sent to the host channel.
    pub output: Vec<Word>,
    /// Values the host offers to receivers on channel 0.
    pub input: VecDeque<Word>,
    /// Total completed transfers.
    pub transfers: u64,
    /// Deferred cache-level trace events (rendezvous, cache hits and
    /// spills), drained by the run loop after each step. Inert unless the
    /// system installs a trace sink.
    pub trace: TraceBuffer,
}

impl ChannelTable {
    /// A fresh table with the given per-channel message-cache capacity;
    /// channel ids start at 1 (0 is the host).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        ChannelTable { next_id: 1, capacity, ..Self::default() }
    }

    /// Allocate a fresh channel identifier.
    pub fn allocate(&mut self) -> Word {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        id
    }

    /// The (touched) slot for `chan`, creating it on first use. A free
    /// function over the storage fields so callers can hold the slot and
    /// the per-context arrays at once (disjoint borrows).
    fn slot<'a>(
        dense: &'a mut Vec<Channel>,
        spill: &'a mut HashMap<Word, Channel>,
        chan: Word,
    ) -> &'a mut Channel {
        if (1..DENSE_LIMIT).contains(&chan) {
            #[allow(clippy::cast_sign_loss)]
            let i = chan as usize;
            if i >= dense.len() {
                dense.resize_with(i + 1, Channel::default);
            }
            let c = &mut dense[i];
            c.touched = true;
            c
        } else {
            let c = spill.entry(chan).or_default();
            c.touched = true;
            c
        }
    }

    /// Whether context `ctx`, running on the PE `mark` names, can
    /// complete a send (`send`) or a receive on `chan` *quietly*,
    /// touching nothing but the channel's cache, its own PE and the
    /// transfer count: `chan` is not the host channel, `ctx` holds no
    /// pending ack or ready value, a send finds no parked receiver and a
    /// free cache slot, a receive finds a cached value and no parked
    /// sender, no other PE's live marker (`live`) is on the channel and
    /// the channel is not contended. If so, marks the channel with
    /// `mark` and returns the record that undoes the transfer the step
    /// is about to make; the step itself still runs through
    /// [`ChannelTable::send`]/[`ChannelTable::recv`].
    pub(crate) fn quiet(
        &mut self,
        ctx: CtxId,
        chan: Word,
        send: bool,
        mark: ChanMark,
        live: impl FnOnce(ChanMark) -> bool,
    ) -> Option<ChanUndo> {
        // Out-of-range ids live in the spill map, whose entries count as
        // touched from creation: they never run ahead.
        if !(1..DENSE_LIMIT).contains(&chan)
            || matches!(self.acks.get(ctx), Some(Some(_)))
            || matches!(self.ready.get(ctx), Some(Some(_)))
        {
            return None;
        }
        #[allow(clippy::cast_sign_loss)]
        let i = chan as usize;
        if i >= self.dense.len() {
            if !send {
                return None;
            }
            self.dense.resize_with(i + 1, Channel::default);
        }
        let c = &mut self.dense[i];
        if c.contended || c.mark.pe != mark.pe && live(c.mark) {
            return None;
        }
        let undo = if send {
            if !c.waiting_receivers.is_empty() || c.buffer.len() >= self.capacity {
                return None;
            }
            let occupancy = (c.buffer.len() + c.ready_count + 1) as u64;
            let (fresh, raised) = (!c.touched, occupancy > c.high_water);
            ChanUndo { chan, recv: false, value: 0, from_pe: 0, fresh, raised }
        } else {
            if !c.waiting_senders.is_empty() {
                return None;
            }
            let (value, from_pe) = self.values.front(c.buffer)?;
            let from_pe = u32::try_from(from_pe).expect("PE indices fit in u32");
            ChanUndo { chan, recv: true, value, from_pe, fresh: false, raised: false }
        };
        c.mark = mark;
        Some(undo)
    }

    /// Take back the quiet transfer `u` recorded by
    /// [`ChannelTable::quiet`]; records of one channel are undone newest
    /// first.
    pub(crate) fn undo(&mut self, u: &ChanUndo) {
        #[allow(clippy::cast_sign_loss)]
        let c = &mut self.dense[u.chan as usize];
        if u.recv {
            self.values.push_front(&mut c.buffer, (u.value, u.from_pe as usize));
        } else {
            self.values.pop_back(&mut c.buffer);
            c.high_water -= u64::from(u.raised);
            c.touched &= !u.fresh;
            self.transfers -= 1;
        }
    }

    /// Keep `chan`'s transfers in the cycle order from now on: its ends
    /// are on different PEs, or a contact on it made a PE redo its steps
    /// ahead, so a quiet transfer on it would likely cost a rewind.
    pub(crate) fn contend(&mut self, chan: Word) {
        if (1..DENSE_LIMIT).contains(&chan) {
            #[allow(clippy::cast_sign_loss)]
            let i = chan as usize;
            if i >= self.dense.len() {
                self.dense.resize_with(i + 1, Channel::default);
            }
            self.dense[i].contended = true;
        }
    }

    /// The marker on `chan` (the default, never live, when it has none).
    #[inline]
    pub(crate) fn mark(&self, chan: Word) -> ChanMark {
        #[allow(clippy::cast_sign_loss)]
        let c = (1..DENSE_LIMIT).contains(&chan).then(|| self.dense.get(chan as usize)).flatten();
        c.map_or_else(ChanMark::default, |c| c.mark)
    }

    /// The slot for `chan` if `send`/`recv` ever touched it.
    fn get(&self, chan: Word) -> Option<&Channel> {
        if (1..DENSE_LIMIT).contains(&chan) {
            #[allow(clippy::cast_sign_loss)]
            self.dense.get(chan as usize).filter(|c| c.touched)
        } else {
            self.spill.get(&chan)
        }
    }

    /// Touched channels in ascending id order (export/report walks).
    fn iter_touched(&self) -> impl Iterator<Item = (Word, &Channel)> {
        #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
        let dense =
            self.dense.iter().enumerate().filter(|(_, c)| c.touched).map(|(i, c)| (i as Word, c));
        dense.chain(self.spill.iter().map(|(&chan, c)| (chan, c)))
    }

    /// The per-context slot for `ctx`, growing the array on demand
    /// (context ids are dense and never recycled).
    fn ctx_slot<T>(slots: &mut Vec<Option<T>>, ctx: CtxId) -> &mut Option<T> {
        if ctx >= slots.len() {
            slots.resize_with(ctx + 1, || None);
        }
        &mut slots[ctx]
    }

    /// Offer a send of `value` on `chan` by context `ctx` running on `pe`.
    pub fn send(&mut self, ctx: CtxId, pe: usize, chan: Word, value: Word) -> SendResult {
        if chan == HOST_CHANNEL {
            self.output.push(value);
            self.transfers += 1;
            return SendResult::Done { woke: None };
        }
        if self.acks.get(ctx).is_some_and(|a| *a == Some(chan)) {
            // Our earlier parked value was taken while we were blocked.
            self.acks[ctx] = None;
            return SendResult::Done { woke: None };
        }
        let capacity = self.capacity;
        let c = Self::slot(&mut self.dense, &mut self.spill, chan);
        if let Some((receiver, _rpe)) = self.receivers.pop_front(&mut c.waiting_receivers) {
            c.ready_count += 1;
            c.note_occupancy();
            let slot = Self::ctx_slot(&mut self.ready, receiver);
            debug_assert!(slot.is_none(), "a context holds at most one delivered value");
            *slot = Some((chan, value, pe));
            self.transfers += 1;
            self.trace.push(|| TraceEvent::Rendezvous { chan, sender: ctx, receiver, value });
            return SendResult::Done { woke: Some(receiver) };
        }
        if c.buffer.len() < capacity {
            self.values.push_back(&mut c.buffer, (value, pe));
            c.note_occupancy();
            self.transfers += 1;
            let buffered = c.buffer.len();
            self.trace.push(|| TraceEvent::CacheHit { ctx, chan, value, buffered });
            return SendResult::Done { woke: None };
        }
        if !self.senders.iter(c.waiting_senders).any(|(s, _, _)| s == ctx) {
            self.senders.push_back(&mut c.waiting_senders, (ctx, pe, value));
            let senders = c.waiting_senders.len();
            self.trace.push(|| TraceEvent::CacheSpill { ctx, chan, value, senders });
        }
        SendResult::Block
    }

    /// Offer a receive on `chan` by context `ctx` running on `pe`.
    pub fn recv(&mut self, ctx: CtxId, pe: usize, chan: Word) -> RecvResult {
        if chan == HOST_CHANNEL {
            return match self.input.pop_front() {
                Some(value) => {
                    self.transfers += 1;
                    RecvResult::Done { value, woke: None, from_pe: None }
                }
                None => RecvResult::Block,
            };
        }
        if let Some(slot) = self.ready.get_mut(ctx) {
            if let Some((rchan, value, from_pe)) = *slot {
                if rchan == chan {
                    *slot = None;
                    let c = Self::slot(&mut self.dense, &mut self.spill, chan);
                    c.ready_count -= 1;
                    return RecvResult::Done { value, woke: None, from_pe: Some(from_pe) };
                }
            }
        }
        let c = Self::slot(&mut self.dense, &mut self.spill, chan);
        if let Some((value, from_pe)) = self.values.pop_front(&mut c.buffer) {
            // A freed slot admits the next parked sender, if any.
            let woke = if let Some((sender, spe, v)) =
                self.senders.pop_front(&mut c.waiting_senders)
            {
                self.values.push_back(&mut c.buffer, (v, spe));
                let slot = Self::ctx_slot(&mut self.acks, sender);
                debug_assert!(slot.is_none(), "a context holds at most one pending ack");
                *slot = Some(chan);
                self.transfers += 1;
                let buffered = c.buffer.len();
                self.trace.push(|| TraceEvent::CacheHit { ctx: sender, chan, value: v, buffered });
                Some(sender)
            } else {
                None
            };
            return RecvResult::Done { value, woke, from_pe: Some(from_pe) };
        }
        if let Some((sender, spe, value)) = self.senders.pop_front(&mut c.waiting_senders) {
            let slot = Self::ctx_slot(&mut self.acks, sender);
            debug_assert!(slot.is_none(), "a context holds at most one pending ack");
            *slot = Some(chan);
            self.transfers += 1;
            self.trace.push(|| TraceEvent::Rendezvous { chan, sender, receiver: ctx, value });
            return RecvResult::Done { value, woke: Some(sender), from_pe: Some(spe) };
        }
        if !self.receivers.iter(c.waiting_receivers).any(|(r, _)| r == ctx) {
            self.receivers.push_back(&mut c.waiting_receivers, (ctx, pe));
        }
        RecvResult::Block
    }

    /// Observable state of one channel's message-cache entry — the
    /// states of the Fig. 5.16/5.17 transfer state machines at context
    /// granularity.
    #[must_use]
    pub fn state(&self, chan: Word) -> CacheState {
        let Some(c) = self.get(chan) else {
            return CacheState::Empty;
        };
        if !c.waiting_receivers.is_empty() {
            CacheState::ReceiverBlocked { receivers: c.waiting_receivers.len() }
        } else if !c.waiting_senders.is_empty() {
            CacheState::SenderBlocked { buffered: c.buffer.len(), senders: c.waiting_senders.len() }
        } else if !c.buffer.is_empty() || c.ready_count > 0 {
            CacheState::ValueHeld { buffered: c.buffer.len() + c.ready_count }
        } else {
            CacheState::Empty
        }
    }

    /// Every context parked on a channel, with the channel, direction and
    /// (for senders) the offered value — sorted by context id. Consumed
    /// by the deadlock wait-for reports, which render these
    /// records into text at the edge (there is no stringly-typed
    /// variant). Walks every channel, so it is diagnostic-only: the run
    /// loop must never reach it outside an error path (the `diag_scans`
    /// counter pins that).
    #[must_use]
    #[cold]
    pub fn blocked_infos(&self) -> Vec<BlockedInfo> {
        self.diag_scans.fetch_add(1, Ordering::Relaxed);
        let mut out: Vec<BlockedInfo> = self
            .iter_touched()
            .flat_map(|(chan, c)| {
                let senders = self.senders.iter(c.waiting_senders).map(move |(ctx, pe, value)| {
                    BlockedInfo { ctx, pe, chan, dir: ChanDir::Send, value: Some(value) }
                });
                let receivers = self.receivers.iter(c.waiting_receivers).map(move |(ctx, pe)| {
                    BlockedInfo { ctx, pe, chan, dir: ChanDir::Recv, value: None }
                });
                senders.chain(receivers)
            })
            .collect();
        out.sort_unstable_by_key(|b| (b.ctx, b.chan));
        out
    }

    /// Every touched channel's peak in-flight occupancy, ascending by
    /// channel id, channels that never held a value omitted. This is
    /// the runtime observation the static `MaxQueueDepth` facts of
    /// `qm-verify`'s deep pass bound from above (a send collected
    /// directly from a parked sender never enters the cache, so the
    /// observed mark can run below the static bound but never above
    /// it).
    #[must_use]
    pub fn high_waters(&self) -> Vec<(Word, u64)> {
        let mut out: Vec<(Word, u64)> = self
            .iter_touched()
            .filter(|(_, c)| c.high_water > 0)
            .map(|(chan, c)| (chan, c.high_water))
            .collect();
        out.sort_unstable_by_key(|&(chan, _)| chan);
        out
    }

    /// Total full-table diagnostic scans performed so far (see
    /// `diag_scans`).
    #[cfg(test)]
    pub(crate) fn diag_scan_count(&self) -> u64 {
        self.diag_scans.load(Ordering::Relaxed)
    }

    /// The next channel id [`ChannelTable::allocate`] would hand out
    /// (snapshot state).
    #[must_use]
    pub(crate) fn next_id(&self) -> Word {
        self.next_id
    }

    /// Export every channel's complete state for snapshots, in
    /// deterministic order: channels sorted by id, the ack set and
    /// ready map sorted by context. Queue orders (FIFO) are preserved
    /// verbatim. Empty-but-allocated entries are included so a restored
    /// table is structurally identical to the captured one.
    #[must_use]
    pub(crate) fn export_channels(&self) -> Vec<ChannelSnap> {
        // Regroup the per-context ack/ready slots by channel. Context ids
        // ascend during the walk, so the per-channel lists come out
        // sorted by context — the order the snapshot format requires.
        let mut acked_by: HashMap<Word, Vec<CtxId>> = HashMap::new();
        for (ctx, a) in self.acks.iter().enumerate() {
            if let Some(chan) = a {
                acked_by.entry(*chan).or_default().push(ctx);
            }
        }
        let mut ready_by: HashMap<Word, Vec<(CtxId, Word, usize)>> = HashMap::new();
        for (ctx, r) in self.ready.iter().enumerate() {
            if let Some((chan, v, pe)) = r {
                ready_by.entry(*chan).or_default().push((ctx, *v, *pe));
            }
        }
        let mut out: Vec<ChannelSnap> = self
            .iter_touched()
            .map(|(chan, c)| ChannelSnap {
                chan,
                buffer: self.values.iter(c.buffer).collect(),
                senders: self.senders.iter(c.waiting_senders).collect(),
                receivers: self.receivers.iter(c.waiting_receivers).collect(),
                acked: acked_by.remove(&chan).unwrap_or_default(),
                ready: ready_by.remove(&chan).unwrap_or_default(),
                high_water: c.high_water,
            })
            .collect();
        out.sort_unstable_by_key(|s| s.chan);
        debug_assert!(
            acked_by.is_empty() && ready_by.is_empty(),
            "every ack/ready slot belongs to a touched channel"
        );
        out
    }

    /// Replace the table's channels and allocation cursor with snapshot
    /// state (the inverse of [`ChannelTable::export_channels`]).
    pub(crate) fn restore_channels(&mut self, snaps: Vec<ChannelSnap>, next_id: Word) {
        self.next_id = next_id;
        self.dense.clear();
        self.spill.clear();
        self.acks.clear();
        self.ready.clear();
        self.values.clear();
        self.senders.clear();
        self.receivers.clear();
        for s in snaps {
            for &ctx in &s.acked {
                *Self::ctx_slot(&mut self.acks, ctx) = Some(s.chan);
            }
            for &(ctx, v, pe) in &s.ready {
                *Self::ctx_slot(&mut self.ready, ctx) = Some((s.chan, v, pe));
            }
            let c = Self::slot(&mut self.dense, &mut self.spill, s.chan);
            for v in s.buffer {
                self.values.push_back(&mut c.buffer, v);
            }
            for v in s.senders {
                self.senders.push_back(&mut c.waiting_senders, v);
            }
            for v in s.receivers {
                self.receivers.push_back(&mut c.waiting_receivers, v);
            }
            c.ready_count = s.ready.len();
            c.high_water = s.high_water;
        }
    }

    /// Contexts currently blocked on any channel.
    #[cfg(test)]
    fn blocked_contexts(&self) -> Vec<CtxId> {
        self.diag_scans.fetch_add(1, Ordering::Relaxed);
        let mut out: Vec<CtxId> = self
            .iter_touched()
            .flat_map(|(_, c)| {
                self.senders
                    .iter(c.waiting_senders)
                    .map(|(s, _, _)| s)
                    .chain(self.receivers.iter(c.waiting_receivers).map(|(r, _)| r))
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sender_first_rendezvous() {
        let mut t = ChannelTable::new(0);
        let ch = t.allocate();
        assert_eq!(t.send(1, 0, ch, 99), SendResult::Block, "sender parks and blocks");
        // Re-offer while still blocked: stays blocked, no duplicate queue entry.
        assert_eq!(t.send(1, 0, ch, 99), SendResult::Block);
        match t.recv(2, 1, ch) {
            RecvResult::Done { value, woke, from_pe } => {
                assert_eq!(value, 99);
                assert_eq!(woke, Some(1), "parked sender wakes");
                assert_eq!(from_pe, Some(0));
            }
            RecvResult::Block => panic!("receiver should complete"),
        }
        // The woken sender re-executes its send and finds the ack.
        assert_eq!(t.send(1, 0, ch, 99), SendResult::Done { woke: None });
    }

    #[test]
    fn receiver_first_rendezvous() {
        let mut t = ChannelTable::new(0);
        let ch = t.allocate();
        assert_eq!(t.recv(2, 1, ch), RecvResult::Block);
        assert_eq!(t.send(1, 0, ch, 7), SendResult::Done { woke: Some(2) });
        // Woken receiver re-executes recv and finds the value ready.
        match t.recv(2, 1, ch) {
            RecvResult::Done { value, woke: None, from_pe: Some(0) } => assert_eq!(value, 7),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sequenced_pair_on_one_channel() {
        // Fig. 4.3: two values in order over a single channel.
        let mut t = ChannelTable::new(0);
        let ch = t.allocate();
        assert_eq!(t.send(1, 0, ch, 10), SendResult::Block);
        assert!(matches!(t.recv(2, 0, ch), RecvResult::Done { value: 10, .. }));
        assert_eq!(t.send(1, 0, ch, 10), SendResult::Done { woke: None }, "ack consumed");
        assert_eq!(t.send(1, 0, ch, 20), SendResult::Block);
        assert!(matches!(t.recv(2, 0, ch), RecvResult::Done { value: 20, .. }));
        assert_eq!(t.transfers, 2);
    }

    #[test]
    fn host_channel_collects_output() {
        let mut t = ChannelTable::new(0);
        assert_eq!(t.send(1, 0, HOST_CHANNEL, 5), SendResult::Done { woke: None });
        assert_eq!(t.send(1, 0, HOST_CHANNEL, 6), SendResult::Done { woke: None });
        assert_eq!(t.output, vec![5, 6]);
    }

    #[test]
    fn host_channel_provides_input() {
        let mut t = ChannelTable::new(0);
        t.input.push_back(11);
        assert!(matches!(
            t.recv(1, 0, HOST_CHANNEL),
            RecvResult::Done { value: 11, woke: None, from_pe: None }
        ));
        assert_eq!(t.recv(1, 0, HOST_CHANNEL), RecvResult::Block);
    }

    #[test]
    fn distinct_channels_do_not_interfere() {
        let mut t = ChannelTable::new(0);
        let a = t.allocate();
        let b = t.allocate();
        assert_ne!(a, b);
        assert_eq!(t.send(1, 0, a, 1), SendResult::Block);
        assert_eq!(t.recv(2, 0, b), RecvResult::Block);
        assert_eq!(t.blocked_contexts(), vec![1, 2]);
    }

    /// Walk the Table 5.3/5.4-style transition table for one cache entry
    /// under rendezvous (capacity 0) semantics.
    #[test]
    fn cache_entry_state_transitions_rendezvous() {
        let mut t = ChannelTable::new(0);
        let ch = t.allocate();
        assert_eq!(t.state(ch), CacheState::Empty);
        // send on Empty → sender blocks.
        t.send(1, 0, ch, 5);
        assert_eq!(t.state(ch), CacheState::SenderBlocked { buffered: 0, senders: 1 });
        // recv on SenderBlocked → transfer completes, back to Empty
        // (the woken sender's ack is not a held value).
        t.recv(2, 0, ch);
        t.send(1, 0, ch, 5); // consume the ack
        assert_eq!(t.state(ch), CacheState::Empty);
        // recv on Empty → receiver blocks.
        t.recv(2, 0, ch);
        assert_eq!(t.state(ch), CacheState::ReceiverBlocked { receivers: 1 });
        // send on ReceiverBlocked → value delivered (held for pickup).
        t.send(1, 0, ch, 9);
        assert_eq!(t.state(ch), CacheState::ValueHeld { buffered: 1 });
        // The woken receiver collects → Empty.
        assert!(matches!(t.recv(2, 0, ch), RecvResult::Done { value: 9, .. }));
        assert_eq!(t.state(ch), CacheState::Empty);
    }

    /// With message-cache slots, sends park values without blocking
    /// until the cache fills (§5.5 hardware behaviour).
    #[test]
    fn cache_entry_state_transitions_buffered() {
        let mut t = ChannelTable::new(2);
        let ch = t.allocate();
        assert_eq!(t.send(1, 0, ch, 10), SendResult::Done { woke: None });
        assert_eq!(t.state(ch), CacheState::ValueHeld { buffered: 1 });
        assert_eq!(t.send(1, 0, ch, 11), SendResult::Done { woke: None });
        assert_eq!(t.state(ch), CacheState::ValueHeld { buffered: 2 });
        // Cache full: third send blocks.
        assert_eq!(t.send(1, 0, ch, 12), SendResult::Block);
        assert_eq!(t.state(ch), CacheState::SenderBlocked { buffered: 2, senders: 1 });
        // A receive frees a slot, pulls the parked value in, wakes the
        // sender, and delivers FIFO.
        match t.recv(2, 0, ch) {
            RecvResult::Done { value, woke, .. } => {
                assert_eq!(value, 10);
                assert_eq!(woke, Some(1));
            }
            RecvResult::Block => panic!("value was buffered"),
        }
        assert_eq!(t.state(ch), CacheState::ValueHeld { buffered: 2 });
        assert!(matches!(t.recv(2, 0, ch), RecvResult::Done { value: 11, .. }));
        assert!(matches!(t.recv(2, 0, ch), RecvResult::Done { value: 12, .. }));
        // Consume the ack before the entry is fully idle.
        assert_eq!(t.send(1, 0, ch, 12), SendResult::Done { woke: None });
        assert_eq!(t.state(ch), CacheState::Empty);
    }

    #[test]
    fn buffered_preserves_fifo_across_many_values() {
        let mut t = ChannelTable::new(4);
        let ch = t.allocate();
        for v in 0..4 {
            assert_eq!(t.send(1, 0, ch, v), SendResult::Done { woke: None });
        }
        for v in 0..4 {
            assert!(matches!(t.recv(2, 0, ch), RecvResult::Done { value, .. } if value == v));
        }
        assert_eq!(t.state(ch), CacheState::Empty);
    }

    #[test]
    fn blocked_infos_reports_direction_and_value() {
        let mut t = ChannelTable::new(0);
        let a = t.allocate();
        let b = t.allocate();
        assert_eq!(t.send(1, 0, a, 41), SendResult::Block);
        assert_eq!(t.recv(2, 1, b), RecvResult::Block);
        let infos = t.blocked_infos();
        assert_eq!(
            infos,
            vec![
                BlockedInfo { ctx: 1, pe: 0, chan: a, dir: ChanDir::Send, value: Some(41) },
                BlockedInfo { ctx: 2, pe: 1, chan: b, dir: ChanDir::Recv, value: None },
            ]
        );
    }

    #[test]
    fn cache_events_are_buffered_when_enabled() {
        let mut t = ChannelTable::new(1);
        t.trace.set_enabled(true);
        let ch = t.allocate();
        t.send(1, 0, ch, 10); // parks in the free slot → hit
        t.send(1, 0, ch, 11); // cache full → spill
        t.recv(2, 0, ch); // frees a slot, re-parks the spilled value → hit
        let events = t.trace.take();
        assert!(matches!(events[0], TraceEvent::CacheHit { ctx: 1, value: 10, buffered: 1, .. }));
        assert!(matches!(events[1], TraceEvent::CacheSpill { ctx: 1, value: 11, senders: 1, .. }));
        assert!(matches!(events[2], TraceEvent::CacheHit { ctx: 1, value: 11, .. }));
        // A sender-first rendezvous (the parked 11 collected directly).
        t.recv(2, 0, ch);
        assert!(t.trace.take().is_empty(), "buffer drain leaves nothing behind");
    }

    #[test]
    fn rendezvous_events_name_both_parties() {
        let mut t = ChannelTable::new(0);
        t.trace.set_enabled(true);
        let ch = t.allocate();
        t.recv(2, 1, ch);
        t.send(1, 0, ch, 9); // receiver-first rendezvous
        let events = t.trace.take();
        assert!(matches!(
            events[..],
            [TraceEvent::Rendezvous { sender: 1, receiver: 2, value: 9, .. }]
        ));
    }

    #[test]
    fn channel_export_restore_round_trips_every_queue() {
        let mut t = ChannelTable::new(1);
        let a = t.allocate();
        t.send(1, 0, a, 10); // fills the single cache slot
        t.send(2, 1, a, 20); // parks sender 2
        let b = t.allocate();
        t.recv(3, 0, b); // parks receiver 3
        let c = t.allocate();
        t.recv(4, 1, c);
        t.send(5, 0, c, 30); // wakes 4 with a ready value
        let d = t.allocate();
        t.send(6, 0, d, 40);
        t.recv(7, 1, d); // wakes 6 with an ack
        let snaps = t.export_channels();
        assert_eq!(snaps.len(), 4, "all four channels exported, sorted");
        assert!(snaps.windows(2).all(|w| w[0].chan < w[1].chan));

        let mut u = ChannelTable::new(1);
        u.restore_channels(snaps.clone(), t.next_id());
        assert_eq!(u.next_id(), t.next_id());
        assert_eq!(u.export_channels(), snaps, "re-export is byte-for-byte stable");
        // The restored table behaves like the original: the woken
        // receiver finds its value, the woken sender finds its ack, the
        // parked pair stays parked.
        assert!(matches!(u.recv(4, 1, c), RecvResult::Done { value: 30, .. }));
        assert_eq!(u.send(6, 0, d, 40), SendResult::Done { woke: None });
        assert_eq!(u.blocked_contexts(), vec![2, 3]);
        assert_eq!(u.allocate(), t.allocate(), "allocation cursor continues in step");
    }

    #[test]
    fn high_water_tracks_peak_occupancy() {
        let mut t = ChannelTable::new(2);
        let ch = t.allocate();
        assert!(t.high_waters().is_empty(), "untouched channels report nothing");
        t.send(1, 0, ch, 10);
        t.send(1, 0, ch, 11); // cache now holds 2
        assert_eq!(t.high_waters(), vec![(ch, 2)]);
        t.recv(2, 0, ch);
        t.recv(2, 0, ch);
        t.send(1, 0, ch, 12); // refills to 1: peak stays 2
        assert_eq!(t.high_waters(), vec![(ch, 2)]);
        // A receiver-first rendezvous counts the delivered value.
        let other = t.allocate();
        t.recv(3, 0, other);
        t.send(1, 0, other, 9);
        assert_eq!(t.high_waters(), vec![(ch, 2), (other, 1)]);
        // A sender-first rendezvous hands the value over directly: the
        // observed mark stays below any occupancy, as the static bound
        // permits.
        let mut r = ChannelTable::new(0);
        let c = r.allocate();
        r.send(1, 0, c, 5);
        r.recv(2, 0, c);
        assert!(r.high_waters().is_empty());
    }

    #[test]
    fn high_water_survives_export_restore() {
        let mut t = ChannelTable::new(2);
        let ch = t.allocate();
        t.send(1, 0, ch, 10);
        t.send(1, 0, ch, 11);
        t.recv(2, 0, ch);
        let snaps = t.export_channels();
        let mut u = ChannelTable::new(2);
        u.restore_channels(snaps, t.next_id());
        assert_eq!(u.high_waters(), vec![(ch, 2)]);
    }

    #[test]
    fn multiple_senders_queue_fifo() {
        let mut t = ChannelTable::new(0);
        let ch = t.allocate();
        assert_eq!(t.send(1, 0, ch, 100), SendResult::Block);
        assert_eq!(t.send(2, 0, ch, 200), SendResult::Block);
        assert!(matches!(t.recv(3, 0, ch), RecvResult::Done { value: 100, woke: Some(1), .. }));
        assert!(matches!(t.recv(3, 0, ch), RecvResult::Done { value: 200, woke: Some(2), .. }));
    }

    /// Random queue operations on handles sharing one pool agree with a
    /// `VecDeque` per handle after every step, and the pool holds no
    /// more cells than were ever live at once (freed cells are reused).
    fn pool_matches_vecdeque_model(g: &mut qm_core::rng::Gen) {
        let handles = g.range(1..=4usize);
        let mut pool = CellPool::<u32>::default();
        let mut queues = vec![Queue::default(); handles];
        let mut model = vec![VecDeque::new(); handles];
        let (mut live, mut peak) = (0usize, 0usize);
        for step in 0..g.range(0..200u32) {
            let h = g.range(0..handles);
            let (q, m) = (&mut queues[h], &mut model[h]);
            match g.weighted(&[3, 2, 3, 2, 1]) {
                0 => {
                    pool.push_back(q, step);
                    m.push_back(step);
                }
                1 => {
                    pool.push_front(q, step);
                    m.push_front(step);
                }
                2 => assert_eq!(pool.pop_front(q), m.pop_front(), "pop_front"),
                3 => assert_eq!(pool.pop_back(q), m.pop_back(), "pop_back"),
                _ => assert_eq!(pool.front(*q), m.front().copied(), "front"),
            }
            live = model.iter().map(VecDeque::len).sum();
            peak = peak.max(live);
            for (q, m) in queues.iter().zip(&model) {
                assert_eq!(q.len(), m.len(), "len");
                assert_eq!(q.is_empty(), m.is_empty(), "is_empty");
                assert!(pool.iter(*q).eq(m.iter().copied()), "iteration order");
            }
            assert!(pool.cells.len() <= peak, "{} cells for a peak of {peak}", pool.cells.len());
        }
        assert!(live <= peak);
    }

    #[test]
    fn cell_pool_matches_a_vecdeque_per_queue() {
        qm_core::rng::check(256, pool_matches_vecdeque_model);
    }

    /// Random legal traffic (a context whose offer blocked re-offers the
    /// same transfer until it completes), then quiet transfers and their
    /// undo records applied newest first: the table exports and reports
    /// exactly what it did before the quiet steps.
    fn quiet_then_undo_restores_the_table(g: &mut qm_core::rng::Gen) {
        let capacity = *g.pick(&[0usize, 1, 8]);
        let mut t = ChannelTable::new(capacity);
        // Channels 1..=4, the last one never touched by the traffic.
        let chans: Vec<Word> = (0..4).map(|_| t.allocate()).collect();
        let ctxs = 6;
        let mut pending: Vec<Option<(Word, bool, Word)>> = vec![None; ctxs];
        let offer = |t: &mut ChannelTable, ctx: CtxId, (chan, send, value): (Word, bool, Word)| {
            if send {
                t.send(ctx, ctx % 2, chan, value) == SendResult::Block
            } else {
                t.recv(ctx, ctx % 2, chan) == RecvResult::Block
            }
        };
        let op = |g: &mut qm_core::rng::Gen, ctx: CtxId, pending: &[Option<(Word, bool, Word)>]| {
            pending[ctx]
                .unwrap_or_else(|| (*g.pick(&chans[..3]), g.below(2) == 0, g.range(-100..100)))
        };
        for _ in 0..g.range(0..80u32) {
            let ctx = g.range(0..ctxs);
            let o = op(g, ctx, &pending);
            pending[ctx] = offer(&mut t, ctx, o).then_some(o);
        }

        let states = |t: &ChannelTable| chans.iter().map(|&c| t.state(c)).collect::<Vec<_>>();
        let before = (t.export_channels(), states(&t), t.transfers, t.blocked_contexts());
        let mark = ChanMark { pe: 0, save: 1 };
        let mut log = Vec::new();
        for _ in 0..g.range(1..6u32) {
            let ctx = g.range(0..ctxs);
            let (mut chan, send, value) = op(g, ctx, &pending);
            if pending[ctx].is_none() && g.below(4) == 0 {
                chan = chans[3];
            }
            let Some(u) = t.quiet(ctx, chan, send, mark, |_| false) else { continue };
            assert!(!offer(&mut t, ctx, (chan, send, value)), "a quiet transfer completes");
            if pending[ctx].is_some_and(|(c, s, _)| (c, s) == (chan, send)) {
                pending[ctx] = None;
            }
            log.push(u);
        }
        for u in log.iter().rev() {
            t.undo(u);
        }
        let after = (t.export_channels(), states(&t), t.transfers, t.blocked_contexts());
        assert_eq!(after, before, "capacity {capacity}, {} quiet transfers undone", log.len());
    }

    #[test]
    fn undoing_quiet_transfers_restores_exports_and_states() {
        qm_core::rng::check(256, quiet_then_undo_restores_the_table);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_channel_record_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Channel>(), 64);
    }
}
