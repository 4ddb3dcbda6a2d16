//! Versioned snapshot/restore of the complete machine state (`qm-snap/v4`).
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
//! A snapshot is an in-memory value: [`Snapshot::capture`] and
//! [`Snapshot::decode`] make one, [`Snapshot::encode`] and
//! [`System::restore`] read one. Where the bytes are kept is the
//! caller's business.
//!
//! # Wire format (`qm-snap/v4`)
//!
//! Little-endian throughout:
//!
//! ```text
//! magic   8 bytes  "qm-snap\0"
//! version u32      4
//! count   u32      number of sections
//! table   count × { tag u32, offset u64, length u64, checksum u64 }
//! payload concatenated section bodies (offsets relative to here)
//! ```
//!
//! Checksums are [`rng::checksum`] over each section body. Decoding
//! rejects a wrong magic, an unknown version, truncated or overlapping
//! sections and checksum mismatches with a structured
//! [`SnapshotError`] — never a panic. Every collection is serialized in
//! a canonical (sorted) order, so `capture → encode → decode → restore
//! → capture → encode` reproduces the bytes exactly.
//!
//! Versioning policy: the version is bumped on any layout change; old
//! versions are not migrated (a snapshot is a working artifact of one
//! simulator build, not an archive format). Decode reports
//! [`SnapshotError::UnknownVersion`] so callers can fail cleanly.

use std::collections::HashMap;

use qm_isa::asm::Object;
use qm_isa::pe::{CycleModel, PeStats};
use qm_isa::regs::WINDOW_SIZE;

use crate::config::{BusCosts, KernelCosts, Placement, SystemConfig};
use crate::kernel::{Context, CtxState};
use crate::memory::MemStats;
use crate::msg::ChannelSnap;
use crate::sched::Scheduler;
use crate::system::System;
use crate::{CtxId, UWord, Word};
use qm_core::rng;

/// Snapshot format version (`qm-snap/v4`: v3 without the automatic
/// snapshot cadence in the SYSTEM section, which now holds only the six
/// run-loop scalars).
pub const VERSION: u32 = 4;

const MAGIC: [u8; 8] = *b"qm-snap\0";
const HEADER_LEN: usize = 16;
const TABLE_ENTRY_LEN: usize = 28;

/// Section tags of the `qm-snap/v4` layout.
mod tag {
    pub const CONFIG: u32 = 1;
    pub const MEMORY: u32 = 2;
    pub const CHANNELS: u32 = 3;
    pub const PES: u32 = 4;
    pub const CONTEXTS: u32 = 5;
    pub const SCHED: u32 = 6;
    pub const PAGES: u32 = 7;
    pub const SYSTEM: u32 = 8;
    pub const SYMBOLS: u32 = 9;
    pub const ALL: [u32; 9] =
        [CONFIG, MEMORY, CHANNELS, PES, CONTEXTS, SCHED, PAGES, SYSTEM, SYMBOLS];

    pub fn name(t: u32) -> &'static str {
        match t {
            CONFIG => "config",
            MEMORY => "memory",
            CHANNELS => "channels",
            PES => "pes",
            CONTEXTS => "contexts",
            SCHED => "sched",
            PAGES => "pages",
            SYSTEM => "system",
            SYMBOLS => "symbols",
            _ => "unknown",
        }
    }
}

/// Structured snapshot failure. Decoding never panics on hostile input:
/// every malformation maps to one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input does not start with the `qm-snap\0` magic.
    BadMagic,
    /// The input's format version is not [`VERSION`].
    UnknownVersion(u32),
    /// The input ended inside the named structure.
    Truncated(&'static str),
    /// A section body does not match its table checksum.
    ChecksumMismatch {
        /// Tag of the corrupt section.
        section: u32,
    },
    /// The input parsed but describes an impossible machine (bad
    /// cross-references, out-of-range enum values, duplicate sections…).
    Malformed(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a qm-snap file (bad magic)"),
            SnapshotError::UnknownVersion(v) => {
                write!(f, "unknown snapshot version {v} (this build reads v{VERSION})")
            }
            SnapshotError::Truncated(what) => write!(f, "snapshot truncated in {what}"),
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section '{}'", tag::name(*section))
            }
            SnapshotError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Little-endian wire primitives of the snapshot sections, and of the
/// streaming `Snapshot::state_digest`, which writes the same bytes
/// into a running checksum.
pub(crate) mod wire {
    use super::SnapshotError;
    use qm_core::rng::Checksum;

    /// Where a [`Writer`] puts its bytes: a buffer, or a running
    /// [`Checksum`] that folds them in as they come.
    pub trait Sink {
        /// Append `bytes`.
        fn put(&mut self, bytes: &[u8]);
    }

    impl Sink for Vec<u8> {
        #[inline]
        fn put(&mut self, bytes: &[u8]) {
            self.extend_from_slice(bytes);
        }
    }

    impl Sink for Checksum {
        #[inline]
        fn put(&mut self, bytes: &[u8]) {
            self.update(bytes);
        }
    }

    /// Append-only little-endian writer into a [`Sink`]: a byte buffer
    /// by default.
    #[derive(Debug, Default)]
    pub struct Writer<S = Vec<u8>> {
        buf: S,
    }

    impl Writer {
        /// An empty writer.
        #[must_use]
        pub fn new() -> Self {
            Writer::default()
        }

        /// Consume the writer, yielding its buffer.
        #[must_use]
        pub fn into_bytes(self) -> Vec<u8> {
            self.buf
        }
    }

    impl Writer<Checksum> {
        /// A writer that hashes instead of storing: what it is given
        /// folds into the same [`Checksum`] as the buffered bytes would.
        #[must_use]
        pub fn hashing() -> Self {
            Writer { buf: Checksum::new() }
        }

        /// The checksum of everything written so far: `rng::checksum`
        /// of the bytes a buffering writer would hold.
        #[must_use]
        pub fn sum(&self) -> u64 {
            self.buf.finish()
        }
    }

    impl<S: Sink> Writer<S> {
        /// Append one byte.
        pub fn u8(&mut self, v: u8) {
            self.buf.put(&[v]);
        }

        /// Append a little-endian `u32`.
        pub fn u32(&mut self, v: u32) {
            self.buf.put(&v.to_le_bytes());
        }

        /// Append a little-endian `u64`.
        pub fn u64(&mut self, v: u64) {
            self.buf.put(&v.to_le_bytes());
        }

        /// Append a little-endian `i32` (machine word).
        pub fn i32(&mut self, v: i32) {
            self.buf.put(&v.to_le_bytes());
        }

        /// Append a `usize` as `u64`.
        pub fn usize(&mut self, v: usize) {
            self.u64(v as u64);
        }

        /// Append a bool as one byte (0/1).
        pub fn bool(&mut self, v: bool) {
            self.u8(u8::from(v));
        }

        /// Append a length-prefixed UTF-8 string.
        pub fn str(&mut self, s: &str) {
            self.usize(s.len());
            self.buf.put(s.as_bytes());
        }
    }

    /// Bounds-checked little-endian reader over a byte slice.
    #[derive(Debug)]
    pub struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        /// A reader over `buf`, positioned at the start.
        #[must_use]
        pub fn new(buf: &'a [u8]) -> Self {
            Reader { buf, pos: 0 }
        }

        /// Bytes not yet consumed.
        #[must_use]
        pub fn remaining(&self) -> usize {
            self.buf.len() - self.pos
        }

        fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
            if self.remaining() < n {
                return Err(SnapshotError::Truncated("wire value"));
            }
            let s = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }

        /// Read one byte.
        pub fn u8(&mut self) -> Result<u8, SnapshotError> {
            Ok(self.take(1)?[0])
        }

        /// Read a little-endian `u32`.
        pub fn u32(&mut self) -> Result<u32, SnapshotError> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
        }

        /// Read a little-endian `u64`.
        pub fn u64(&mut self) -> Result<u64, SnapshotError> {
            Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
        }

        /// Read a little-endian `i32` (machine word).
        pub fn i32(&mut self) -> Result<i32, SnapshotError> {
            Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
        }

        /// Read a `u64` into a `usize`.
        pub fn usize(&mut self) -> Result<usize, SnapshotError> {
            usize::try_from(self.u64()?)
                .map_err(|_| SnapshotError::Malformed("usize overflow".into()))
        }

        /// Read a bool; any byte other than 0/1 is malformed.
        pub fn bool(&mut self) -> Result<bool, SnapshotError> {
            match self.u8()? {
                0 => Ok(false),
                1 => Ok(true),
                b => Err(SnapshotError::Malformed(format!("bad bool byte {b:#x}"))),
            }
        }

        /// Read a sequence length whose elements each occupy at least
        /// `min_elem` bytes — rejecting lengths the remaining input
        /// cannot possibly hold, so hostile lengths cannot force huge
        /// allocations.
        pub fn len(&mut self, min_elem: usize) -> Result<usize, SnapshotError> {
            let n = self.usize()?;
            if min_elem > 0 && n > self.remaining() / min_elem {
                return Err(SnapshotError::Truncated("sequence"));
            }
            Ok(n)
        }

        /// Read a length-prefixed UTF-8 string.
        pub fn str(&mut self) -> Result<String, SnapshotError> {
            let n = self.len(1)?;
            let bytes = self.take(n)?;
            String::from_utf8(bytes.to_vec())
                .map_err(|_| SnapshotError::Malformed("invalid utf-8 string".into()))
        }
    }
}

use wire::{Reader, Sink, Writer};

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

/// The loaded object's symbol information (words, sorted symbol table,
/// base address). Immutable once loaded, so [`System`] caches one behind
/// an `Arc` at load time and every capture clones the pointer —
/// snapshot cost does not scale with program size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ObjSnap {
    pub(crate) base: UWord,
    pub(crate) words: Vec<u32>,
    pub(crate) symbols: Vec<(String, UWord)>,
}

impl ObjSnap {
    /// The snapshot view of a loaded object: code words plus the symbol
    /// table sorted by `(name, address)` (the canonical export order).
    pub(crate) fn of(obj: &Object) -> Self {
        let mut syms: Vec<(String, UWord)> =
            obj.symbols().iter().map(|(k, &v)| (k.clone(), v)).collect();
        syms.sort_unstable();
        ObjSnap { base: obj.base(), words: obj.words().to_vec(), symbols: syms }
    }
}

/// A complete, self-contained capture of a [`System`] at a step
/// boundary. Obtain one with [`Snapshot::capture`] or
/// [`Snapshot::decode`]; turn it back into a
/// running system with [`System::restore`].
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
    symbols: Option<std::sync::Arc<ObjSnap>>,
}

impl Snapshot {
    /// Capture the complete state of `sys`. Meaningful at step
    /// boundaries: freshly built, paused by [`System::run_until`], or
    /// finished. Every collection is exported in canonical order, so
    /// capturing the same state twice yields identical bytes.
    #[must_use]
    pub fn capture(sys: &System) -> Snapshot {
        let (global_mem, local_mem) = sys.memory.export_planes();
        let (ready, sched_seq) = sys.sched.export_ready();
        // The object is immutable after load: share the cached snapshot
        // view instead of re-copying names and code words per capture.
        let symbols = sys.symbol_snap.clone();
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
            symbols,
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
    /// buffer is built: the digest is [`rng::checksum`] of the bytes
    /// those encoders would have written.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        let mut w = Writer::hashing();
        self.sec_memory(&mut w);
        self.sec_channels(&mut w);
        self.sec_pes(&mut w);
        self.sec_contexts(&mut w);
        self.sec_sched(&mut w);
        self.sec_pages(&mut w);
        self.sec_system(&mut w);
        w.sum()
    }

    /// Serialize to the `qm-snap/v4` byte format. Deterministic: equal
    /// snapshots encode to equal bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut bodies: Vec<(u32, Vec<u8>)> = Vec::with_capacity(tag::ALL.len());
        for t in tag::ALL {
            let mut w = Writer::new();
            match t {
                tag::CONFIG => self.sec_config(&mut w),
                tag::MEMORY => self.sec_memory(&mut w),
                tag::CHANNELS => self.sec_channels(&mut w),
                tag::PES => self.sec_pes(&mut w),
                tag::CONTEXTS => self.sec_contexts(&mut w),
                tag::SCHED => self.sec_sched(&mut w),
                tag::PAGES => self.sec_pages(&mut w),
                tag::SYSTEM => self.sec_system(&mut w),
                tag::SYMBOLS => self.sec_symbols(&mut w),
                _ => unreachable!("tag::ALL is exhaustive"),
            }
            bodies.push((t, w.into_bytes()));
        }
        let payload_len: usize = bodies.iter().map(|(_, b)| b.len()).sum();
        let mut out = Vec::with_capacity(HEADER_LEN + TABLE_ENTRY_LEN * bodies.len() + payload_len);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        #[allow(clippy::cast_possible_truncation)]
        out.extend_from_slice(&(bodies.len() as u32).to_le_bytes());
        let mut offset: u64 = 0;
        for (t, body) in &bodies {
            out.extend_from_slice(&t.to_le_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(body.len() as u64).to_le_bytes());
            out.extend_from_slice(&rng::checksum(body).to_le_bytes());
            offset += body.len() as u64;
        }
        for (_, body) in &bodies {
            out.extend_from_slice(body);
        }
        out
    }

    /// Parse `qm-snap/v4` bytes back into a snapshot.
    ///
    /// # Errors
    ///
    /// Structured [`SnapshotError`]s for a wrong magic, unknown version,
    /// truncated input or sections, checksum mismatches and semantic
    /// malformations. Never panics on arbitrary input.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated("header"));
        }
        if bytes[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(SnapshotError::UnknownVersion(version));
        }
        let count = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
        if count > 64 {
            return Err(SnapshotError::Malformed(format!("absurd section count {count}")));
        }
        let table_end = HEADER_LEN + TABLE_ENTRY_LEN * count;
        if bytes.len() < table_end {
            return Err(SnapshotError::Truncated("section table"));
        }
        let payload = &bytes[table_end..];
        let mut sections: HashMap<u32, &[u8]> = HashMap::new();
        for i in 0..count {
            let e = &bytes[HEADER_LEN + TABLE_ENTRY_LEN * i..];
            let t = u32::from_le_bytes(e[0..4].try_into().expect("4 bytes"));
            let off = u64::from_le_bytes(e[4..12].try_into().expect("8 bytes"));
            let len = u64::from_le_bytes(e[12..20].try_into().expect("8 bytes"));
            let sum = u64::from_le_bytes(e[20..28].try_into().expect("8 bytes"));
            let end = off.checked_add(len).filter(|&e| e <= payload.len() as u64);
            let Some(end) = end else {
                return Err(SnapshotError::Truncated(tag::name(t)));
            };
            #[allow(clippy::cast_possible_truncation)]
            let body = &payload[off as usize..end as usize];
            if rng::checksum(body) != sum {
                return Err(SnapshotError::ChecksumMismatch { section: t });
            }
            if sections.insert(t, body).is_some() {
                return Err(SnapshotError::Malformed(format!(
                    "duplicate section '{}'",
                    tag::name(t)
                )));
            }
        }
        fn open<'a>(
            sections: &HashMap<u32, &'a [u8]>,
            t: u32,
        ) -> Result<Reader<'a>, SnapshotError> {
            sections.get(&t).copied().map(Reader::new).ok_or_else(|| {
                SnapshotError::Malformed(format!("missing section '{}'", tag::name(t)))
            })
        }
        fn close(r: &Reader, t: u32) -> Result<(), SnapshotError> {
            if r.remaining() != 0 {
                return Err(SnapshotError::Malformed(format!(
                    "trailing bytes in section '{}'",
                    tag::name(t)
                )));
            }
            Ok(())
        }

        let mut snap = Snapshot {
            cfg: SystemConfig::default(),
            global_mem: Vec::new(),
            local_mem: Vec::new(),
            mem_stats: MemStats::default(),
            channels: Vec::new(),
            next_chan: 1,
            output: Vec::new(),
            input: Vec::new(),
            transfers: 0,
            pes: Vec::new(),
            contexts: Vec::new(),
            ready: Vec::new(),
            sched_seq: 0,
            pages: Vec::new(),
            rr: 0,
            halted: false,
            live: 0,
            created: 0,
            peak_live: 0,
            instr_count: 0,
            symbols: None,
        };
        let mut r = open(&sections, tag::CONFIG)?;
        snap.cfg = dec_config(&mut r)?;
        close(&r, tag::CONFIG)?;

        let mut r = open(&sections, tag::MEMORY)?;
        snap.global_mem = dec_mem_plane(&mut r)?;
        let planes = r.len(8)?;
        snap.local_mem = (0..planes).map(|_| dec_mem_plane(&mut r)).collect::<Result<_, _>>()?;
        snap.mem_stats =
            MemStats { local_accesses: r.u64()?, remote_accesses: r.u64()?, bus_cycles: r.u64()? };
        close(&r, tag::MEMORY)?;

        let mut r = open(&sections, tag::CHANNELS)?;
        let n = r.len(4)?;
        snap.channels = (0..n).map(|_| dec_channel(&mut r)).collect::<Result<_, _>>()?;
        snap.next_chan = r.i32()?;
        snap.output = dec_words(&mut r)?;
        snap.input = dec_words(&mut r)?;
        snap.transfers = r.u64()?;
        close(&r, tag::CHANNELS)?;

        let mut r = open(&sections, tag::PES)?;
        let n = r.len(16)?;
        snap.pes = (0..n).map(|_| dec_pe(&mut r)).collect::<Result<_, _>>()?;
        close(&r, tag::PES)?;

        let mut r = open(&sections, tag::CONTEXTS)?;
        let n = r.len(16)?;
        snap.contexts = (0..n).map(|_| dec_ctx(&mut r)).collect::<Result<_, _>>()?;
        close(&r, tag::CONTEXTS)?;

        let mut r = open(&sections, tag::SCHED)?;
        let pes = r.len(8)?;
        snap.ready = (0..pes)
            .map(|_| {
                let n = r.len(24)?;
                (0..n)
                    .map(|_| Ok((r.u64()?, r.u64()?, r.usize()?)))
                    .collect::<Result<Vec<_>, SnapshotError>>()
            })
            .collect::<Result<_, _>>()?;
        snap.sched_seq = r.u64()?;
        close(&r, tag::SCHED)?;

        let mut r = open(&sections, tag::PAGES)?;
        let n = r.len(12)?;
        snap.pages = (0..n)
            .map(|_| {
                let next = r.u32()?;
                let free = dec_u32s(&mut r)?;
                Ok((next, free))
            })
            .collect::<Result<_, SnapshotError>>()?;
        close(&r, tag::PAGES)?;

        let mut r = open(&sections, tag::SYSTEM)?;
        snap.rr = r.u64()?;
        snap.halted = r.bool()?;
        snap.live = r.u64()?;
        snap.created = r.u64()?;
        snap.peak_live = r.u64()?;
        snap.instr_count = r.u64()?;
        close(&r, tag::SYSTEM)?;

        let mut r = open(&sections, tag::SYMBOLS)?;
        if r.bool()? {
            let base = r.u32()?;
            let words = dec_u32s(&mut r)?;
            let n = r.len(12)?;
            let symbols = (0..n)
                .map(|_| Ok((r.str()?, r.u32()?)))
                .collect::<Result<Vec<_>, SnapshotError>>()?;
            snap.symbols = Some(std::sync::Arc::new(ObjSnap { base, words, symbols }));
        }
        close(&r, tag::SYMBOLS)?;
        Ok(snap)
    }

    // ---- section encoders (canonical order; reused by state_digest) ----

    fn sec_config(&self, w: &mut Writer<impl Sink>) {
        let c = &self.cfg;
        w.usize(c.pes);
        w.usize(c.partitions);
        for v in [
            c.bus.mem_same_partition,
            c.bus.mem_remote_base,
            c.bus.mem_per_segment,
            c.bus.chan_local,
            c.bus.chan_same_partition,
            c.bus.chan_remote_base,
            c.bus.chan_per_segment,
            c.kernel.fork,
            c.kernel.end,
            c.kernel.dispatch,
        ] {
            w.u64(v);
        }
        enc_model(w, &c.cycle_model);
        w.u8(match c.placement {
            Placement::RoundRobin => 0,
            Placement::LeastLoaded => 1,
            Placement::Local => 2,
        });
        w.u32(c.queue_page_words);
        w.usize(c.channel_capacity);
        w.u64(c.max_instructions);
    }

    fn sec_memory(&self, w: &mut Writer<impl Sink>) {
        enc_mem_plane(w, &self.global_mem);
        w.usize(self.local_mem.len());
        for plane in &self.local_mem {
            enc_mem_plane(w, plane);
        }
        w.u64(self.mem_stats.local_accesses);
        w.u64(self.mem_stats.remote_accesses);
        w.u64(self.mem_stats.bus_cycles);
    }

    fn sec_channels(&self, w: &mut Writer<impl Sink>) {
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

    fn sec_pes(&self, w: &mut Writer<impl Sink>) {
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

    fn sec_contexts(&self, w: &mut Writer<impl Sink>) {
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

    fn sec_sched(&self, w: &mut Writer<impl Sink>) {
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

    fn sec_pages(&self, w: &mut Writer<impl Sink>) {
        w.usize(self.pages.len());
        for (next, free) in &self.pages {
            w.u32(*next);
            enc_u32s(w, free);
        }
    }

    fn sec_system(&self, w: &mut Writer<impl Sink>) {
        w.u64(self.rr);
        w.bool(self.halted);
        w.u64(self.live);
        w.u64(self.created);
        w.u64(self.peak_live);
        w.u64(self.instr_count);
    }

    fn sec_symbols(&self, w: &mut Writer<impl Sink>) {
        match &self.symbols {
            Some(o) => {
                w.bool(true);
                w.u32(o.base);
                enc_u32s(w, &o.words);
                w.usize(o.symbols.len());
                for (name, addr) in &o.symbols {
                    w.str(name);
                    w.u32(*addr);
                }
            }
            None => w.bool(false),
        }
    }
}

fn enc_model(w: &mut Writer<impl Sink>, m: &CycleModel) {
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

fn dec_model(r: &mut Reader) -> Result<CycleModel, SnapshotError> {
    Ok(CycleModel {
        base: r.u64()?,
        imm_word: r.u64()?,
        mem_extra: r.u64()?,
        window_miss: r.u64()?,
        branch_taken: r.u64()?,
        trap: r.u64()?,
        channel: r.u64()?,
        context_switch: r.u64()?,
        rollout_per_reg: r.u64()?,
    })
}

fn enc_stats(w: &mut Writer<impl Sink>, s: &PeStats) {
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

fn dec_stats(r: &mut Reader) -> Result<PeStats, SnapshotError> {
    Ok(PeStats {
        instructions: r.u64()?,
        window_hits: r.u64()?,
        window_misses: r.u64()?,
        mem_reads: r.u64()?,
        mem_writes: r.u64()?,
        sends: r.u64()?,
        recvs: r.u64()?,
        traps: r.u64()?,
        context_switches: r.u64()?,
        rollouts: r.u64()?,
    })
}

fn enc_mem_plane(w: &mut Writer<impl Sink>, plane: &[(UWord, Word)]) {
    w.usize(plane.len());
    for &(a, v) in plane {
        w.u32(a);
        w.i32(v);
    }
}

fn dec_mem_plane(r: &mut Reader) -> Result<Vec<(UWord, Word)>, SnapshotError> {
    let n = r.len(8)?;
    (0..n).map(|_| Ok((r.u32()?, r.i32()?))).collect()
}

fn enc_words(w: &mut Writer<impl Sink>, words: &[Word]) {
    w.usize(words.len());
    for &v in words {
        w.i32(v);
    }
}

fn dec_words(r: &mut Reader) -> Result<Vec<Word>, SnapshotError> {
    let n = r.len(4)?;
    (0..n).map(|_| r.i32()).collect()
}

fn enc_u32s(w: &mut Writer<impl Sink>, vals: &[u32]) {
    w.usize(vals.len());
    for &v in vals {
        w.u32(v);
    }
}

fn dec_u32s(r: &mut Reader) -> Result<Vec<u32>, SnapshotError> {
    let n = r.len(4)?;
    (0..n).map(|_| r.u32()).collect()
}

fn dec_config(r: &mut Reader) -> Result<SystemConfig, SnapshotError> {
    let pes = r.usize()?;
    let partitions = r.usize()?;
    let bus = BusCosts {
        mem_same_partition: r.u64()?,
        mem_remote_base: r.u64()?,
        mem_per_segment: r.u64()?,
        chan_local: r.u64()?,
        chan_same_partition: r.u64()?,
        chan_remote_base: r.u64()?,
        chan_per_segment: r.u64()?,
    };
    let kernel = KernelCosts { fork: r.u64()?, end: r.u64()?, dispatch: r.u64()? };
    let cycle_model = dec_model(r)?;
    let placement = match r.u8()? {
        0 => Placement::RoundRobin,
        1 => Placement::LeastLoaded,
        2 => Placement::Local,
        b => return Err(SnapshotError::Malformed(format!("bad placement byte {b:#x}"))),
    };
    Ok(SystemConfig {
        pes,
        partitions,
        bus,
        kernel,
        cycle_model,
        placement,
        queue_page_words: r.u32()?,
        channel_capacity: r.usize()?,
        max_instructions: r.u64()?,
    })
}

fn dec_channel(r: &mut Reader) -> Result<ChannelSnap, SnapshotError> {
    let chan = r.i32()?;
    let n = r.len(12)?;
    let buffer =
        (0..n).map(|_| Ok((r.i32()?, r.usize()?))).collect::<Result<Vec<_>, SnapshotError>>()?;
    let n = r.len(20)?;
    let senders = (0..n)
        .map(|_| Ok((r.usize()?, r.usize()?, r.i32()?)))
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let n = r.len(16)?;
    let receivers =
        (0..n).map(|_| Ok((r.usize()?, r.usize()?))).collect::<Result<Vec<_>, SnapshotError>>()?;
    let n = r.len(8)?;
    let acked = (0..n).map(|_| r.usize()).collect::<Result<Vec<_>, _>>()?;
    let n = r.len(16)?;
    let ready = (0..n)
        .map(|_| Ok((r.usize()?, r.i32()?, r.usize()?)))
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let high_water = r.u64()?;
    Ok(ChannelSnap { chan, buffer, senders, receivers, acked, ready, high_water })
}

fn dec_pe(r: &mut Reader) -> Result<PeSnap, SnapshotError> {
    let mut window = [0; WINDOW_SIZE];
    for v in &mut window {
        *v = r.i32()?;
    }
    let mut presence = [false; WINDOW_SIZE];
    for b in &mut presence {
        *b = r.bool()?;
    }
    let mut globals = [0; 16];
    for v in &mut globals {
        *v = r.i32()?;
    }
    Ok(PeSnap {
        window,
        presence,
        globals,
        cycles: r.u64()?,
        model: dec_model(r)?,
        stats: dec_stats(r)?,
        last_result: r.i32()?,
        current: r.bool()?.then(|| r.usize()).transpose()?,
        busy: r.u64()?,
        slice_base: dec_stats(r)?,
    })
}

fn dec_ctx(r: &mut Reader) -> Result<CtxSnap, SnapshotError> {
    let mut globals = [0; 16];
    for v in &mut globals {
        *v = r.i32()?;
    }
    let state = match r.u8()? {
        0 => CtxState::Ready,
        1 => CtxState::Running,
        2 => CtxState::Blocked,
        3 => CtxState::Dead,
        b => return Err(SnapshotError::Malformed(format!("bad context state byte {b:#x}"))),
    };
    Ok(CtxSnap { globals, state, pe: r.usize()?, queue_page: r.u32()?, ready_at: r.u64()? })
}

impl System {
    /// Rebuild a running system from a snapshot. The result continues
    /// bit-identically to the captured run: same metrics, same trace
    /// events (once a sink is reinstalled — sinks are host-side
    /// observers, not machine state).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] when the snapshot's cross-references
    /// don't describe a consistent machine (wrong plane counts,
    /// out-of-range PE or context indices, bad page geometry).
    pub fn restore(snap: &Snapshot) -> Result<System, SnapshotError> {
        let cfg = &snap.cfg;
        let bad = |msg: String| Err(SnapshotError::Malformed(msg));
        if !(1..=1024).contains(&cfg.pes) {
            return bad(format!("unsupported PE count {}", cfg.pes));
        }
        if !(1..=1024).contains(&cfg.partitions) {
            return bad(format!("unsupported partition count {}", cfg.partitions));
        }
        // Clocks and counters only ever grow by small steps: one this
        // close to overflowing came from a corrupt snapshot.
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
            return bad("a clock or counter at or past 2^62".into());
        }
        // Every step adds a few of these; bounding them keeps every sum
        // of a run far from overflow.
        let model = |m: &qm_isa::pe::CycleModel| {
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
            return bad("a cycle cost at or past 2^32".into());
        }
        if !cfg.queue_page_words.is_power_of_two() || cfg.queue_page_words > 256 {
            return bad(format!("bad queue page size {}", cfg.queue_page_words));
        }
        let pes = cfg.pes;
        let ctxs = snap.contexts.len();
        if snap.pes.len() != pes {
            return bad(format!("{} PE records for a {pes}-PE config", snap.pes.len()));
        }
        if snap.local_mem.len() != pes || snap.ready.len() != pes || snap.pages.len() != pes {
            return bad("per-PE table sizes disagree with the config".into());
        }
        for (i, p) in snap.pes.iter().enumerate() {
            if let Some(c) = p.current {
                if c >= ctxs {
                    return bad(format!("pe{i} runs nonexistent context {c}"));
                }
            }
        }
        for (id, c) in snap.contexts.iter().enumerate() {
            if c.pe >= pes {
                return bad(format!("ctx{id} bound to nonexistent pe{}", c.pe));
            }
        }
        for (pe, entries) in snap.ready.iter().enumerate() {
            for &(_, _, ctx) in entries {
                if ctx >= ctxs {
                    return bad(format!("pe{pe} ready queue names nonexistent context {ctx}"));
                }
            }
        }
        // Capture writes channels in ascending id order, once each.
        if let Some(w) = snap.channels.windows(2).find(|w| w[0].chan >= w[1].chan) {
            return bad(format!("chan {} listed after chan {}", w[1].chan, w[0].chan));
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
                    return bad(format!("chan {} names nonexistent context {ctx}", c.chan));
                }
                if std::mem::replace(&mut held[ctx], true) {
                    return bad(format!("chan {} names context {ctx} held elsewhere", c.chan));
                }
            }
            let parked = c.senders.iter().map(|&(ctx, _, _)| ctx);
            for ctx in parked.chain(c.receivers.iter().map(|&(ctx, _)| ctx)) {
                if snap.contexts[ctx].state != CtxState::Blocked {
                    return bad(format!(
                        "chan {} parks context {ctx}, which is not blocked",
                        c.chan
                    ));
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
                    return bad(format!("chan {} names nonexistent pe{pe}", c.chan));
                }
            }
        }

        let mut sys = System::new(cfg.clone());
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
        if let Some(o) = &snap.symbols {
            sys.set_symbols(Object::from_parts(
                o.words.clone(),
                o.symbols.iter().cloned().collect(),
                o.base,
            ));
            // Share the snapshot's view directly; set_symbols derived an
            // identical one, this just drops the duplicate storage.
            sys.symbol_snap = Some(o.clone());
        }
        #[allow(clippy::cast_possible_truncation)]
        {
            sys.rr = snap.rr as usize;
            sys.live = snap.live as usize;
        }
        sys.halted = snap.halted;
        sys.created = snap.created;
        sys.peak_live = snap.peak_live;
        sys.instr_count = snap.instr_count;
        Ok(sys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn wire_round_trips_every_primitive() {
        let mut w = Writer::new();
        w.u8(0xAB);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.i32(-42);
        w.usize(7);
        w.bool(true);
        w.bool(false);
        w.str("qm-snap");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i32().unwrap(), -42);
        assert_eq!(r.usize().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "qm-snap");
        assert_eq!(r.remaining(), 0);
        assert!(matches!(r.u8(), Err(SnapshotError::Truncated(_))));
    }

    #[test]
    fn hostile_lengths_are_rejected_not_allocated() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // a sequence length no input can hold
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.len(8), Err(SnapshotError::Truncated(_))));
    }

    #[test]
    fn capture_encode_decode_restore_capture_is_byte_identical() {
        let sys = mid_run_system();
        let snap = Snapshot::capture(&sys);
        let bytes = snap.encode();
        let decoded = Snapshot::decode(&bytes).unwrap();
        assert_eq!(decoded, snap, "decode inverts encode");
        let restored = System::restore(&decoded).unwrap();
        let again = Snapshot::capture(&restored);
        assert_eq!(again, snap, "capture after restore reproduces the snapshot");
        assert_eq!(again.encode(), bytes, "… down to the exact bytes");
    }

    #[test]
    fn decode_rejects_corruption_with_structured_errors() {
        let bytes = Snapshot::capture(&mid_run_system()).encode();

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert_eq!(Snapshot::decode(&wrong_magic), Err(SnapshotError::BadMagic));

        let mut future = bytes.clone();
        future[8] = 99;
        assert_eq!(Snapshot::decode(&future), Err(SnapshotError::UnknownVersion(99)));

        assert!(matches!(Snapshot::decode(&bytes[..4]), Err(SnapshotError::Truncated(_))));
        assert!(matches!(
            Snapshot::decode(&bytes[..bytes.len() / 2]),
            Err(SnapshotError::Truncated(_) | SnapshotError::ChecksumMismatch { .. })
        ));

        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(Snapshot::decode(&flipped), Err(SnapshotError::ChecksumMismatch { .. })));

        assert_eq!(Snapshot::decode(&[]), Err(SnapshotError::Truncated("header")));
    }

    #[test]
    fn state_digest_tracks_architecture_not_config() {
        let sys = mid_run_system();
        let a = Snapshot::capture(&sys);
        let mut local = System::restore(&a).unwrap();
        local.set_placement(Placement::Local);
        let b = Snapshot::capture(&local);
        assert_ne!(a, b, "the snapshots differ (placement changed)");
        assert_eq!(a.state_digest(), b.state_digest(), "… but not architecturally yet");
        let mut advanced = System::restore(&a).unwrap();
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
        let restore = |base: &Snapshot, channels: Vec<ChannelSnap>| {
            let mut snap = base.clone();
            snap.channels = channels;
            System::restore(&snap).map(|_| ())
        };
        // Context 0 parked as a sender on channel 1, context 1 as a
        // receiver on channel 2, both blocked: consistent.
        let mut one = chan(1);
        one.senders.push((0, 0, 7));
        let mut two = chan(2);
        two.receivers.push((1, 1));
        assert_eq!(restore(&base, vec![one.clone(), two.clone()]), Ok(()));

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
            assert!(
                matches!(restore(&base, channels), Err(SnapshotError::Malformed(_))),
                "restore accepted {what}"
            );
        }
        let mut ready_but_parked = base.clone();
        ready_but_parked.contexts[1].state = CtxState::Ready;
        assert!(
            matches!(restore(&ready_but_parked, vec![one, two]), Err(SnapshotError::Malformed(_))),
            "restore accepted a parked context that is not blocked"
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
