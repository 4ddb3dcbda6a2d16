//! Shared, partitioned memory with ring-bus access costs.
//!
//! Implements [`qm_isa::mem::DataPort`] over:
//!
//! * a single **global** space (code + shared data) whose addresses are
//!   homed at a partition (see [`qm_isa::mem`]); accesses from another
//!   partition cross the ring bus and cost more;
//! * one **local** space per PE (queue pages, kernel records), free of bus
//!   traffic and invisible to other PEs.

use std::collections::HashMap;

use qm_isa::mem::{global_home, is_local, DataPort, CODE_LIMIT, LOCAL_BASE};

use crate::config::SystemConfig;
use crate::trace::{TraceBuffer, TraceEvent};
use crate::{UWord, Word};

/// Words per directly mapped local page (4 KiB of address span).
const LP_PAGE_WORDS: usize = 1024;
/// Directly mapped pages per local plane: 4 MiB of span above
/// [`LOCAL_BASE`], comfortably covering every kernel allocation (queue
/// pages are bump-allocated densely from `LOCAL_BASE + 0x1000`).
/// Addresses beyond the span — programs *can* compute wild local
/// addresses — spill to an exact map.
const LP_MAX_PAGES: usize = 1024;

/// One 4 KiB page of a memory plane: backing words plus a per-word
/// presence bitmap, so the *populated set* (which addresses have ever
/// been written) is tracked exactly like the `HashMap` plane this
/// replaced — snapshots export identical `(address, value)` pairs.
#[derive(Debug, Clone)]
struct PlanePage {
    words: [Word; LP_PAGE_WORDS],
    present: [u64; LP_PAGE_WORDS / 64],
}

impl PlanePage {
    fn new() -> Box<PlanePage> {
        Box::new(PlanePage { words: [0; LP_PAGE_WORDS], present: [0; LP_PAGE_WORDS / 64] })
    }
}

/// One PE's private memory plane. The kernel allocates queue pages and
/// context records densely just above [`LOCAL_BASE`], so the hot path
/// (window-miss fills, `dup` queue writes) is a direct page-offset
/// array access instead of a hash lookup; presence bitmaps preserve the
/// exact populated-set semantics of a map (absent words read as 0 but
/// are not exported). Addresses outside the mapped span fall back to
/// [`LocalPlane::spill`].
#[derive(Debug, Clone, Default)]
pub(crate) struct LocalPlane {
    /// Directly mapped pages, grown on demand, indexed by
    /// `(addr - LOCAL_BASE) / 4096`.
    pages: Vec<Option<Box<PlanePage>>>,
    /// Exact store for addresses beyond the mapped span.
    spill: HashMap<UWord, Word>,
}

impl LocalPlane {
    /// `(page, slot)` for a mapped local address, `None` for spill.
    #[inline]
    fn index(addr: UWord) -> Option<(usize, usize)> {
        if addr < LOCAL_BASE {
            return None;
        }
        let idx = (addr.wrapping_sub(LOCAL_BASE) >> 2) as usize;
        let page = idx / LP_PAGE_WORDS;
        (page < LP_MAX_PAGES).then_some((page, idx % LP_PAGE_WORDS))
    }

    /// The word at `addr`, or `None` when never written (reads as 0).
    #[inline]
    pub(crate) fn get(&self, addr: UWord) -> Option<Word> {
        match Self::index(addr) {
            Some((p, s)) => {
                let page = self.pages.get(p)?.as_ref()?;
                (page.present[s / 64] >> (s % 64) & 1 == 1).then(|| page.words[s])
            }
            None => self.spill.get(&(addr & !3)).copied(),
        }
    }

    /// Write the word at `addr`, marking it populated.
    #[inline]
    pub(crate) fn insert(&mut self, addr: UWord, value: Word) {
        match Self::index(addr) {
            Some((p, s)) => {
                if self.pages.len() <= p {
                    self.pages.resize_with(p + 1, || None);
                }
                let page = self.pages[p].get_or_insert_with(PlanePage::new);
                page.present[s / 64] |= 1 << (s % 64);
                page.words[s] = value;
            }
            None => {
                self.spill.insert(addr & !3, value);
            }
        }
    }

    /// Mark the word at `addr` never written again (it reads as 0).
    fn remove(&mut self, addr: UWord) {
        match Self::index(addr) {
            Some((p, s)) => {
                if let Some(Some(page)) = self.pages.get_mut(p) {
                    page.present[s / 64] &= !(1 << (s % 64));
                }
            }
            None => {
                self.spill.remove(&(addr & !3));
            }
        }
    }

    /// Every populated `(address, value)` pair, sorted by address.
    fn export(&self) -> MemPlane {
        let mut out: MemPlane = Vec::new();
        for (p, page) in self.pages.iter().enumerate() {
            let Some(page) = page else { continue };
            for s in 0..LP_PAGE_WORDS {
                if page.present[s / 64] >> (s % 64) & 1 == 1 {
                    #[allow(clippy::cast_possible_truncation)]
                    let addr = LOCAL_BASE + 4 * (p * LP_PAGE_WORDS + s) as UWord;
                    out.push((addr, page.words[s]));
                }
            }
        }
        // Mapped pairs are already ascending and every spill address is
        // above the mapped span, but sort anyway: export is cold and the
        // ordering contract (snapshot byte determinism) must not lean on
        // that layout detail.
        out.extend(self.spill.iter().map(|(&a, &w)| (a, w)));
        out.sort_unstable();
        out
    }
}

/// Directly mapped pages in the global data plane: 4 MiB of span above
/// [`GLOBAL_BASE`](qm_isa::mem::GLOBAL_BASE), covering every compiler
/// allocation (`qm-occam` bump-allocates data densely from
/// `DATA_BASE == GLOBAL_BASE`). Wild addresses spill to the exact map.
const GP_MAX_PAGES: usize = 1024;

/// The shared global space: code plus shared data. The data region just
/// above [`GLOBAL_BASE`](qm_isa::mem::GLOBAL_BASE) — where the compiler
/// bump-allocates arrays and scalars — is directly mapped like
/// [`LocalPlane`], so the `fetch`/`store` hot path is a page-offset
/// array access; presence bitmaps preserve the exact populated-set
/// semantics of the map this replaced. The code segment (below
/// `GLOBAL_BASE`) and wild computed addresses stay in the exact map:
/// code is position-indexed by the translation anyway, and
/// `Pe::step`'s `fetch_code` pays the same hash lookup it always did.
#[derive(Debug, Clone, Default)]
pub(crate) struct GlobalPlane {
    /// Directly mapped data pages, grown on demand, indexed by
    /// `(addr - GLOBAL_BASE) / 4096`.
    pages: Vec<Option<Box<PlanePage>>>,
    /// Exact store for the code segment and addresses beyond the span.
    map: HashMap<UWord, Word>,
}

impl GlobalPlane {
    /// `(page, slot)` for a mapped data address, `None` for the map.
    #[inline]
    fn index(addr: UWord) -> Option<(usize, usize)> {
        if addr < qm_isa::mem::GLOBAL_BASE {
            return None; // code segment
        }
        let idx = (addr.wrapping_sub(qm_isa::mem::GLOBAL_BASE) >> 2) as usize;
        let page = idx / LP_PAGE_WORDS;
        (page < GP_MAX_PAGES).then_some((page, idx % LP_PAGE_WORDS))
    }

    /// The word at `addr`, or `None` when never written (reads as 0).
    #[inline]
    pub(crate) fn get(&self, addr: UWord) -> Option<Word> {
        match Self::index(addr) {
            Some((p, s)) => {
                let page = self.pages.get(p)?.as_ref()?;
                (page.present[s / 64] >> (s % 64) & 1 == 1).then(|| page.words[s])
            }
            None => self.map.get(&(addr & !3)).copied(),
        }
    }

    /// Write the word at `addr`, marking it populated.
    #[inline]
    pub(crate) fn insert(&mut self, addr: UWord, value: Word) {
        match Self::index(addr) {
            Some((p, s)) => {
                if self.pages.len() <= p {
                    self.pages.resize_with(p + 1, || None);
                }
                let page = self.pages[p].get_or_insert_with(PlanePage::new);
                page.present[s / 64] |= 1 << (s % 64);
                page.words[s] = value;
            }
            None => {
                self.map.insert(addr & !3, value);
            }
        }
    }

    /// Every populated `(address, value)` pair, sorted by address.
    fn export(&self) -> MemPlane {
        let mut out: MemPlane = self.map.iter().map(|(&a, &w)| (a, w)).collect();
        for (p, page) in self.pages.iter().enumerate() {
            let Some(page) = page else { continue };
            for s in 0..LP_PAGE_WORDS {
                if page.present[s / 64] >> (s % 64) & 1 == 1 {
                    #[allow(clippy::cast_possible_truncation)]
                    let addr = qm_isa::mem::GLOBAL_BASE + 4 * (p * LP_PAGE_WORDS + s) as UWord;
                    out.push((addr, page.words[s]));
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// Memory traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Word accesses served within the requester's partition.
    pub local_accesses: u64,
    /// Word accesses that crossed the ring bus.
    pub remote_accesses: u64,
    /// Total bus cycles consumed by remote accesses.
    pub bus_cycles: u64,
}

/// One memory plane exported for snapshots: populated `(address, value)`
/// pairs, sorted by address.
pub(crate) type MemPlane = Vec<(UWord, Word)>;

/// The multiprocessor memory system.
#[derive(Debug)]
pub struct SharedMemory {
    global: GlobalPlane,
    locals: Vec<LocalPlane>,
    config: SystemConfig,
    /// Traffic statistics.
    pub stats: MemStats,
    /// Deferred bus-transfer trace events, drained by the run loop after
    /// each step. Inert unless the system installs a trace sink.
    pub trace: TraceBuffer,
    /// Set when the code image may differ from the one last translated:
    /// at creation, on a restore and on every host write below
    /// `CODE_LIMIT`. Nothing writes code at run time, so the run loop
    /// reads this once per `run_until`.
    pub(crate) code_changed: bool,
}

impl SharedMemory {
    /// Memory for the given system configuration.
    #[must_use]
    pub fn new(config: &SystemConfig) -> Self {
        SharedMemory {
            global: GlobalPlane::default(),
            locals: vec![LocalPlane::default(); config.pes],
            config: config.clone(),
            stats: MemStats::default(),
            trace: TraceBuffer::default(),
            code_changed: true,
        }
    }

    fn cost(&mut self, pe: usize, addr: UWord) -> u64 {
        if is_local(addr) || addr < qm_isa::mem::GLOBAL_BASE {
            self.stats.local_accesses += 1;
            0
        } else {
            let home = global_home(addr);
            let c = self.config.mem_cost(pe, home);
            if self.config.partition_of(pe) == home % self.config.partitions.max(1) {
                self.stats.local_accesses += 1;
            } else {
                self.stats.remote_accesses += 1;
                self.stats.bus_cycles += c;
                self.trace.push(|| TraceEvent::BusTransfer { addr, cycles: c });
            }
            c
        }
    }

    /// Load raw words into global memory (code or data).
    ///
    /// # Panics
    ///
    /// Panics if `base` is not word-aligned.
    pub fn load_words(&mut self, base: UWord, words: &[u32]) {
        assert_eq!(base & 3, 0);
        for (i, &w) in words.iter().enumerate() {
            #[allow(clippy::cast_possible_wrap, clippy::cast_possible_truncation)]
            self.poke_global(base + 4 * i as UWord, w as Word);
        }
    }

    /// Peek a global word (host-side inspection, no cost).
    #[must_use]
    pub fn peek_global(&self, addr: UWord) -> Word {
        self.global.get(addr & !3).unwrap_or(0)
    }

    /// Poke a global word (host-side initialisation, no cost). This is
    /// the only way to change the code segment.
    pub fn poke_global(&mut self, addr: UWord, value: Word) {
        self.code_changed |= addr < CODE_LIMIT;
        self.global.insert(addr & !3, value);
    }

    /// Addresses of the populated code-segment words, unordered.
    pub(crate) fn code_addrs(&self) -> impl Iterator<Item = UWord> + '_ {
        self.global.map.keys().copied().filter(|&a| a < CODE_LIMIT)
    }

    /// Peek a PE-local word.
    #[must_use]
    pub fn peek_local(&self, pe: usize, addr: UWord) -> Word {
        self.locals[pe].get(addr & !3).unwrap_or(0)
    }

    /// The word PE `pe` reads at `addr`, local or global, without cost
    /// or statistics.
    pub(crate) fn peek_word(&self, pe: usize, addr: UWord) -> Word {
        if is_local(addr) {
            self.peek_local(pe, addr)
        } else {
            self.peek_global(addr)
        }
    }

    /// PE `pe`'s local word at `addr`, or `None` when never written.
    pub(crate) fn local_word(&self, pe: usize, addr: UWord) -> Option<Word> {
        self.locals[pe].get(addr & !3)
    }

    /// Put back a local word read by [`SharedMemory::local_word`],
    /// without cost or statistics.
    pub(crate) fn restore_local(&mut self, pe: usize, addr: UWord, word: Option<Word>) {
        match word {
            Some(value) => self.locals[pe].insert(addr & !3, value),
            None => self.locals[pe].remove(addr),
        }
    }

    /// Export every populated word for snapshots: the global plane and
    /// each PE-local plane as `(address, value)` pairs sorted by address
    /// (deterministic bytes regardless of map iteration order).
    #[must_use]
    pub(crate) fn export_planes(&self) -> (MemPlane, Vec<MemPlane>) {
        (self.global.export(), self.locals.iter().map(LocalPlane::export).collect())
    }

    /// Replace the memory planes with snapshot state (the inverse of
    /// [`SharedMemory::export_planes`]); `locals` must have one plane per
    /// PE.
    pub(crate) fn restore_planes(&mut self, global: MemPlane, locals: Vec<MemPlane>) {
        debug_assert_eq!(locals.len(), self.locals.len());
        self.code_changed = true;
        self.global = GlobalPlane::default();
        for (a, w) in global {
            self.global.insert(a, w);
        }
        self.locals = locals
            .into_iter()
            .map(|plane| {
                let mut lp = LocalPlane::default();
                for (a, w) in plane {
                    lp.insert(a, w);
                }
                lp
            })
            .collect();
    }
}

impl DataPort for SharedMemory {
    fn read_word(&mut self, pe: usize, addr: UWord) -> (Word, u64) {
        let cost = self.cost(pe, addr);
        let a = addr & !3;
        let v = if is_local(addr) {
            self.locals[pe].get(a).unwrap_or(0)
        } else {
            self.global.get(a).unwrap_or(0)
        };
        (v, cost)
    }

    fn write_word(&mut self, pe: usize, addr: UWord, value: Word) -> u64 {
        let cost = self.cost(pe, addr);
        let a = addr & !3;
        if is_local(addr) {
            self.locals[pe].insert(a, value);
        } else if addr >= CODE_LIMIT {
            self.global.insert(a, value);
        }
        // The code segment is read-only at run time: `store` and `storb`
        // fault before they get here, and a queue-page write (`dup`, or
        // a roll-out on a context switch) into it, possible only after a
        // program pointed its queue pointer there, is dropped.
        cost
    }

    fn read_byte(&mut self, pe: usize, addr: UWord) -> (Word, u64) {
        let (word, cost) = self.read_word(pe, addr & !3);
        let shift = (addr & 3) * 8;
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_wrap)]
        (((word as u32 >> shift) & 0xFF) as Word, cost)
    }

    fn write_byte(&mut self, pe: usize, addr: UWord, value: Word) -> u64 {
        let aligned = addr & !3;
        let (old, _) = self.read_word(pe, aligned);
        let shift = (addr & 3) * 8;
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_wrap)]
        let merged = {
            let old = old as u32;
            ((old & !(0xFFu32 << shift)) | (((value as u32) & 0xFF) << shift)) as Word
        };
        self.write_word(pe, aligned, merged)
    }

    fn fetch_code(&mut self, _pe: usize, addr: UWord) -> u32 {
        // Code is pure and replicated per PE (thesis: pseudo-static
        // instruction space) — no bus traffic.
        #[allow(clippy::cast_sign_loss)]
        {
            self.global.get(addr & !3).unwrap_or(0) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qm_isa::mem::LOCAL_BASE;

    #[test]
    fn locals_are_private_per_pe() {
        let cfg = SystemConfig::with_pes(2);
        let mut m = SharedMemory::new(&cfg);
        m.write_word(0, LOCAL_BASE + 0x100, 7);
        assert_eq!(m.read_word(0, LOCAL_BASE + 0x100).0, 7);
        assert_eq!(m.read_word(1, LOCAL_BASE + 0x100).0, 0, "PE 1 sees its own plane");
    }

    #[test]
    fn global_memory_is_shared() {
        let cfg = SystemConfig::with_pes(2);
        let mut m = SharedMemory::new(&cfg);
        m.write_word(0, 0x0010_0000, 42);
        assert_eq!(m.read_word(1, 0x0010_0000).0, 42);
    }

    #[test]
    fn remote_access_costs_bus_cycles() {
        let cfg = SystemConfig::with_pes(8); // 4 partitions
        let mut m = SharedMemory::new(&cfg);
        // Partition 0 home (addr bits 27:24 = 0) accessed from PE 0 (cheap)
        // and PE 7 in partition 3 (remote).
        let (_, c_near) = m.read_word(0, 0x0010_0000);
        let (_, c_far) = m.read_word(7, 0x0010_0000);
        assert!(c_near < c_far, "near {c_near} vs far {c_far}");
        assert!(m.stats.remote_accesses > 0);
        assert!(m.stats.bus_cycles >= c_far);
    }

    #[test]
    fn remote_accesses_emit_bus_events_when_traced() {
        let cfg = SystemConfig::with_pes(8);
        let mut m = SharedMemory::new(&cfg);
        m.read_word(7, 0x0010_0000); // remote, but tracing disabled
        assert!(m.trace.take().is_empty());
        m.trace.set_enabled(true);
        m.read_word(0, 0x0010_0000); // near access: no bus event
        let (_, far_cost) = m.read_word(7, 0x0010_0000);
        let events = m.trace.take();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0],
            crate::trace::TraceEvent::BusTransfer { addr: 0x0010_0000, cycles } if cycles == far_cost
        ));
    }

    #[test]
    fn local_accesses_are_free() {
        let cfg = SystemConfig::with_pes(2);
        let mut m = SharedMemory::new(&cfg);
        assert_eq!(m.write_word(1, LOCAL_BASE + 4, 1), 0);
        assert_eq!(m.stats.bus_cycles, 0);
    }

    #[test]
    fn byte_operations_merge_within_words() {
        let cfg = SystemConfig::with_pes(1);
        let mut m = SharedMemory::new(&cfg);
        m.write_word(0, 0x0010_0010, 0x11223344);
        m.write_byte(0, 0x0010_0011, 0xAB);
        assert_eq!(m.read_word(0, 0x0010_0010).0, 0x1122_AB44);
        assert_eq!(m.read_byte(0, 0x0010_0011).0, 0xAB);
    }

    #[test]
    fn code_fetch_is_free_and_global() {
        let cfg = SystemConfig::with_pes(4);
        let mut m = SharedMemory::new(&cfg);
        m.load_words(0, &[0xCAFE_F00D]);
        assert_eq!(m.fetch_code(3, 0), 0xCAFE_F00D);
        assert_eq!(m.stats.remote_accesses, 0);
    }
}
