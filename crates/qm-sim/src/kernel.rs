//! Multiprocessing kernel data structures (thesis §6.2).
//!
//! The thesis kernel is written in Concurrent Euclid and entered through
//! `trap` instructions at memory-mapped entry points (Table 6.1); here the
//! same services are implemented in the simulator host (substitution #1 in
//! `DESIGN.md`) with explicit cycle charges so kernel overhead remains
//! visible in the results. The context state machine is Fig. 6.4.

use qm_isa::regs::SavedRegisters;

use crate::{UWord, Word};

/// Kernel entry point numbers (`trap #n` — our rendering of Table 6.1).
pub mod entry {
    use crate::Word;

    /// Recursive fork: create a context with fresh in/out channels.
    /// `arg` = code address; results: `dst1` = in channel, `dst2` = out.
    pub const RFORK: Word = 0;
    /// Iterative fork: create a context inheriting the caller's out
    /// channel. `arg` = code address; result: `dst1` = in channel.
    pub const IFORK: Word = 1;
    /// Terminate the calling context.
    pub const END: Word = 2;
    /// Halt the whole system.
    pub const HALT: Word = 3;
    /// Read the global cycle clock into `dst1` (the `now` actor).
    pub const NOW: Word = 4;
    /// Suspend the caller until the clock reaches `arg` (the `wait`
    /// actor). A target at or below the current cycle is already due
    /// and does not suspend; that includes every negative `arg`, which
    /// is a cycle before the run began (raw assembly is untrusted, so
    /// `arg` may be any word).
    pub const WAIT: Word = 5;
    /// Allocate a fresh channel identifier into `dst1` (used for OCCAM
    /// `chan` declarations).
    pub const CHAN: Word = 6;
    /// Recursive fork pinned to the forking PE — used for continuation
    /// contexts (loop entries, `if` branches) whose parent immediately
    /// blocks waiting for them.
    pub const RFORK_LOCAL: Word = 7;

    /// Human-readable name of a kernel entry (trace events, deadlock
    /// reports).
    #[must_use]
    pub fn name(n: Word) -> &'static str {
        match n {
            RFORK => "rfork",
            IFORK => "ifork",
            END => "end",
            HALT => "halt",
            NOW => "now",
            WAIT => "wait",
            CHAN => "chan",
            RFORK_LOCAL => "rfork-local",
            _ => "unknown",
        }
    }
}

/// Context life-cycle states (Fig. 6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtxState {
    /// Eligible to run, queued on its PE.
    Ready,
    /// Currently executing on its PE.
    Running,
    /// Blocked on a channel rendezvous.
    Blocked,
    /// Terminated; resources freed.
    Dead,
}

/// Global register holding a context's *in* channel id (`r17`).
pub const REG_IN_CHAN: u8 = 17;
/// Global register holding a context's *out* channel id (`r18`).
pub const REG_OUT_CHAN: u8 = 18;

/// A context record: the state of one process evaluating an acyclic
/// data-flow graph (§4.2).
#[derive(Debug, Clone)]
pub struct Context {
    /// Saved registers (PC, QP, POM and the channel registers live in the
    /// globals).
    pub saved: SavedRegisters,
    /// Life-cycle state.
    pub state: CtxState,
    /// The PE this context is bound to (its queue page lives there).
    pub pe: usize,
    /// Base address of its operand queue page (PE-local).
    pub queue_page: UWord,
    /// Earliest time the context may (re)start.
    pub ready_at: u64,
}

impl Context {
    /// Create a context record starting at `pc` on `pe` with queue page
    /// `queue_page`, channel registers `in_chan`/`out_chan`, page offset
    /// mask `pom`.
    #[must_use]
    pub fn new(
        pc: UWord,
        pe: usize,
        queue_page: UWord,
        pom: u8,
        in_chan: Word,
        out_chan: Word,
        ready_at: u64,
    ) -> Self {
        let mut regs = qm_isa::regs::RegisterFile::new();
        regs.set_pc(pc);
        regs.set_qp(queue_page);
        regs.set_pom(pom);
        regs.write_global(REG_IN_CHAN, in_chan);
        regs.write_global(REG_OUT_CHAN, out_chan);
        Context { saved: regs.save(), state: CtxState::Ready, pe, queue_page, ready_at }
    }
}

/// Per-PE queue page allocator (kernel memory map, Fig. 6.3: local memory
/// past the kernel area is carved into fixed-size queue pages).
#[derive(Debug, Clone)]
pub struct PageAllocator {
    next: UWord,
    free: Vec<UWord>,
    page_bytes: UWord,
}

impl PageAllocator {
    /// Allocator handing out `page_words`-word pages from the PE-local
    /// region.
    ///
    /// # Panics
    ///
    /// Panics unless `page_words` is a power of two ≤ 256.
    #[must_use]
    pub fn new(page_words: u32) -> Self {
        assert!(page_words.is_power_of_two() && page_words <= 256);
        PageAllocator {
            next: qm_isa::mem::LOCAL_BASE + 0x1000,
            free: Vec::new(),
            page_bytes: page_words * 4,
        }
    }

    /// POM value selecting this allocator's page size.
    #[must_use]
    pub fn pom(&self) -> u8 {
        let words = self.page_bytes / 4;
        let m = words.trailing_zeros();
        #[allow(clippy::cast_possible_truncation)]
        {
            ((0xFFu32 << m) & 0xFF) as u8
        }
    }

    /// Allocate a page (page-size aligned).
    pub fn alloc(&mut self) -> UWord {
        if let Some(p) = self.free.pop() {
            return p;
        }
        let p = self.next;
        self.next += self.page_bytes;
        p
    }

    /// Return a page to the free list.
    pub fn free(&mut self, page: UWord) {
        self.free.push(page);
    }

    /// Allocator state for snapshots: the bump cursor and the free list
    /// in its exact (LIFO) order, so a restored allocator hands out the
    /// same pages in the same order.
    #[must_use]
    pub(crate) fn export_state(&self) -> (UWord, Vec<UWord>) {
        (self.next, self.free.clone())
    }

    /// Restore state captured by [`PageAllocator::export_state`] onto an
    /// allocator of the same page size.
    pub(crate) fn restore_state(&mut self, next: UWord, free: Vec<UWord>) {
        self.next = next;
        self.free = free;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_carries_channel_registers() {
        let c = Context::new(0x40, 2, 0x8000_1000, 0, 7, 9, 0);
        let mut regs = qm_isa::regs::RegisterFile::new();
        regs.restore(&c.saved);
        assert_eq!(regs.pc(), 0x40);
        assert_eq!(regs.qp(), 0x8000_1000);
        assert_eq!(regs.read_global(REG_IN_CHAN), 7);
        assert_eq!(regs.read_global(REG_OUT_CHAN), 9);
        assert_eq!(c.state, CtxState::Ready);
    }

    #[test]
    fn entry_names_cover_all_services() {
        assert_eq!(entry::name(entry::RFORK), "rfork");
        assert_eq!(entry::name(entry::WAIT), "wait");
        assert_eq!(entry::name(entry::RFORK_LOCAL), "rfork-local");
        assert_eq!(entry::name(99), "unknown");
    }

    #[test]
    fn page_allocator_recycles() {
        let mut a = PageAllocator::new(256);
        let p1 = a.alloc();
        let p2 = a.alloc();
        assert_eq!(p2 - p1, 1024);
        assert_eq!(p1 % 1024, 0, "pages are page-aligned");
        a.free(p1);
        assert_eq!(a.alloc(), p1);
    }

    #[test]
    fn pom_matches_page_size() {
        assert_eq!(PageAllocator::new(256).pom(), 0x00);
        assert_eq!(PageAllocator::new(32).pom(), 0xE0);
        assert_eq!(PageAllocator::new(1).pom(), 0xFF);
    }
}
