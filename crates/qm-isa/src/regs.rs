//! PE register file: window registers, globals, queue paging (§5.2–5.3).
//!
//! The operand queue lives in a page of memory addressed by the queue
//! pointer `QP` (register 30). The first 16 queue elements are shadowed by
//! 16 physical *window registers*, each with a presence bit. Virtual
//! register `r0` always names the front of the queue; the physical
//! register backing it rotates as `QP` advances (Fig. 5.3). The 8-bit page
//! offset mask `POM` (register 29) selects the queue page size — a power
//! of two between 1 and 256 words — by choosing which page-offset bits
//! increment and which stay fixed (Fig. 5.5).

use crate::isa::{REG_PC, REG_POM, REG_QP};
use crate::{UWord, Word};

/// Number of window registers.
pub const WINDOW_SIZE: usize = 16;

/// The PE register file.
///
/// Laid out structure-of-arrays style for the simulator's hot path: the
/// window values are one flat array and the 16 presence bits are a
/// single `u16` mask, so clearing consumed registers, counting present
/// ones and rolling out on a context switch are word operations instead
/// of per-element flag walks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterFile {
    /// Physical window registers (rotating).
    window: [Word; WINDOW_SIZE],
    /// Presence bits, one per physical window register (bit `i` =
    /// physical register `i`).
    presence: u16,
    /// Global registers `r16…r31` (index 0 = r16).
    globals: [Word; 16],
}

/// Window registers rolled out on a context switch: up to
/// [`WINDOW_SIZE`] `(address, value)` pairs in ascending virtual-register
/// order, in a fixed-size buffer — built without heap allocation, the
/// property the simulator's steady-state allocation test pins.
#[derive(Debug, Clone, Copy)]
pub struct Rollout {
    entries: [(UWord, Word); WINDOW_SIZE],
    len: usize,
}

impl Rollout {
    /// The rolled-out `(address, value)` pairs.
    #[must_use]
    pub fn as_slice(&self) -> &[(UWord, Word)] {
        &self.entries[..self.len]
    }

    /// Number of registers rolled out.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing was present to roll out.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::ops::Deref for Rollout {
    type Target = [(UWord, Word)];

    fn deref(&self) -> &Self::Target {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a Rollout {
    type Item = &'a (UWord, Word);
    type IntoIter = std::slice::Iter<'a, (UWord, Word)>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl Default for RegisterFile {
    fn default() -> Self {
        Self::new()
    }
}

/// State captured on a context switch (window contents are rolled out to
/// the memory-resident queue page, so only the globals need saving).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SavedRegisters {
    /// Global registers `r16…r31`.
    pub globals: [Word; 16],
}

impl RegisterFile {
    /// A register file with everything zeroed and all presence bits clear.
    #[must_use]
    pub fn new() -> Self {
        RegisterFile { window: [0; WINDOW_SIZE], presence: 0, globals: [0; 16] }
    }

    /// The queue pointer (`r30`).
    #[must_use]
    pub fn qp(&self) -> UWord {
        #[allow(clippy::cast_sign_loss)]
        {
            self.globals[usize::from(REG_QP - 16)] as UWord
        }
    }

    /// Set the queue pointer.
    pub fn set_qp(&mut self, qp: UWord) {
        #[allow(clippy::cast_possible_wrap)]
        {
            self.globals[usize::from(REG_QP - 16)] = qp as Word;
        }
    }

    /// The page offset mask (`r29`, low 8 bits significant).
    #[must_use]
    pub fn pom(&self) -> u8 {
        #[allow(clippy::cast_sign_loss)]
        {
            (self.globals[usize::from(REG_POM - 16)] as UWord & 0xFF) as u8
        }
    }

    /// Set the page offset mask.
    pub fn set_pom(&mut self, pom: u8) {
        self.globals[usize::from(REG_POM - 16)] = Word::from(pom);
    }

    /// The program counter (`r31`).
    #[must_use]
    pub fn pc(&self) -> UWord {
        #[allow(clippy::cast_sign_loss)]
        {
            self.globals[usize::from(REG_PC - 16)] as UWord
        }
    }

    /// Set the program counter.
    pub fn set_pc(&mut self, pc: UWord) {
        #[allow(clippy::cast_possible_wrap)]
        {
            self.globals[usize::from(REG_PC - 16)] = pc as Word;
        }
    }

    /// Virtual window register number → physical register number
    /// (Fig. 5.3): `(vreg + QP[5:2]) mod 16`.
    #[must_use]
    pub fn vreg_to_phys(&self, vreg: u8) -> usize {
        debug_assert!(vreg < 16);
        ((usize::from(vreg)) + ((self.qp() as usize >> 2) & 0xF)) & 0xF
    }

    /// Memory address of virtual window register `vreg` (Fig. 5.5).
    ///
    /// POM bit `i` set selects page-offset bit `i+2` from `QP` unchanged
    /// (fixed — outside the wrapping page); clear selects it from
    /// `QP + 4·vreg` (incrementing — inside the page).
    #[must_use]
    pub fn vreg_to_addr(&self, vreg: u8) -> UWord {
        debug_assert!(vreg < 16);
        self.queue_slot_addr(u32::from(vreg))
    }

    /// Memory address of the queue slot `offset` words past the front
    /// (generalisation of [`RegisterFile::vreg_to_addr`] used by `dup`,
    /// whose offsets reach 255).
    #[must_use]
    pub fn queue_slot_addr(&self, offset: u32) -> UWord {
        let qp = self.qp();
        let qoff = qp & 0x3FF;
        let sum = qoff.wrapping_add(4 * offset);
        let mask = (u32::from(self.pom()) << 2) | 0x3; // POM guards bits [9:2]
        let page_off = (qoff & mask) | (sum & !mask & 0x3FF);
        (qp & !0x3FF) | page_off
    }

    /// Advance the queue pointer by `inc` words, wrapping within the
    /// POM-selected page, and clear the presence bits of the consumed
    /// window registers.
    pub fn advance_qp(&mut self, inc: u8) {
        debug_assert!(inc <= 7);
        for v in 0..inc {
            let phys = self.vreg_to_phys(v);
            self.presence &= !(1u16 << phys);
        }
        let qp = self.qp();
        let qoff = qp & 0x3FF;
        let sum = qoff.wrapping_add(4 * u32::from(inc));
        let mask = (u32::from(self.pom()) << 2) | 0x3;
        let page_off = (qoff & mask) | (sum & !mask & 0x3FF);
        self.set_qp((qp & !0x3FF) | page_off);
    }

    /// Read a window register if its presence bit is set.
    #[must_use]
    pub fn read_window(&self, vreg: u8) -> Option<Word> {
        let phys = self.vreg_to_phys(vreg);
        (self.presence & (1u16 << phys) != 0).then(|| self.window[phys])
    }

    /// Write a window register and set its presence bit.
    pub fn write_window(&mut self, vreg: u8, value: Word) {
        let phys = self.vreg_to_phys(vreg);
        self.window[phys] = value;
        self.presence |= 1u16 << phys;
    }

    /// Fill a window register from memory *without* marking it more
    /// recent than memory (presence set; used on a read miss).
    pub fn fill_window(&mut self, vreg: u8, value: Word) {
        self.write_window(vreg, value);
    }

    /// Read a global register `r16…r31`.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is not in `16..32`.
    #[must_use]
    pub fn read_global(&self, reg: u8) -> Word {
        assert!((16..32).contains(&reg));
        self.globals[usize::from(reg - 16)]
    }

    /// Write a global register `r16…r31`.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is not in `16..32`.
    pub fn write_global(&mut self, reg: u8, value: Word) {
        assert!((16..32).contains(&reg));
        self.globals[usize::from(reg - 16)] = value;
    }

    /// Roll out all present window registers for a context switch: returns
    /// `(address, value)` pairs to write back to the memory-resident queue
    /// page, clearing every presence bit. The pairs come back in a
    /// fixed-size [`Rollout`] buffer — no heap allocation, so context
    /// switches stay off the allocator in steady state.
    pub fn rollout(&mut self) -> Rollout {
        let mut out = Rollout { entries: [(0, 0); WINDOW_SIZE], len: 0 };
        if self.presence == 0 {
            return out;
        }
        for v in 0..16u8 {
            let phys = self.vreg_to_phys(v);
            if self.presence & (1u16 << phys) != 0 {
                out.entries[out.len] = (self.vreg_to_addr(v), self.window[phys]);
                out.len += 1;
            }
        }
        self.presence = 0;
        out
    }

    /// Number of presence bits currently set.
    #[cfg(test)]
    fn present_count(&self) -> usize {
        self.presence.count_ones() as usize
    }

    /// Snapshot the globals for a context switch.
    #[must_use]
    pub fn save(&self) -> SavedRegisters {
        SavedRegisters { globals: self.globals }
    }

    /// Restore globals saved by [`RegisterFile::save`]; presence bits
    /// start cleared, so operands refill lazily from the queue page
    /// (§5.2: "operands are automatically restored by the normal
    /// execution mechanism").
    pub fn restore(&mut self, saved: &SavedRegisters) {
        self.globals = saved.globals;
        self.presence = 0;
    }

    /// Complete mid-run state — window contents, presence bits, globals —
    /// for external serialization (simulator snapshots). Unlike
    /// [`RegisterFile::save`], nothing is rolled out or cleared: the
    /// triple reproduces the file bit-for-bit via
    /// [`RegisterFile::restore_full`].
    #[must_use]
    pub fn full_state(&self) -> ([Word; WINDOW_SIZE], [bool; WINDOW_SIZE], [Word; 16]) {
        let mut presence = [false; WINDOW_SIZE];
        for (i, p) in presence.iter_mut().enumerate() {
            *p = self.presence & (1u16 << i) != 0;
        }
        (self.window, presence, self.globals)
    }

    /// Restore the exact state captured by [`RegisterFile::full_state`].
    pub fn restore_full(
        &mut self,
        window: [Word; WINDOW_SIZE],
        presence: [bool; WINDOW_SIZE],
        globals: [Word; 16],
    ) {
        self.window = window;
        self.presence = 0;
        for (i, &p) in presence.iter().enumerate() {
            if p {
                self.presence |= 1u16 << i;
            }
        }
        self.globals = globals;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vreg_rotation_follows_qp() {
        let mut r = RegisterFile::new();
        r.set_qp(0x8000_0000);
        assert_eq!(r.vreg_to_phys(0), 0);
        assert_eq!(r.vreg_to_phys(15), 15);
        r.advance_qp(2);
        assert_eq!(r.vreg_to_phys(0), 2, "front moved two registers on");
        assert_eq!(r.vreg_to_phys(14), 0, "physical 0 is now r14");
    }

    #[test]
    fn window_value_survives_qp_advance_under_new_name() {
        let mut r = RegisterFile::new();
        r.set_qp(0x8000_0000);
        r.write_window(2, 77);
        r.advance_qp(2);
        assert_eq!(r.read_window(0), Some(77), "r2 became r0");
    }

    #[test]
    fn consumed_registers_lose_presence() {
        let mut r = RegisterFile::new();
        r.set_qp(0x8000_0000);
        r.write_window(0, 1);
        r.write_window(1, 2);
        r.advance_qp(2);
        assert_eq!(r.present_count(), 0);
        // The slots 14/15 (old 0/1) read as absent.
        assert_eq!(r.read_window(14), None);
        assert_eq!(r.read_window(15), None);
    }

    #[test]
    fn addresses_advance_with_qp() {
        let mut r = RegisterFile::new();
        r.set_qp(0x8000_0000);
        r.set_pom(0x00); // 256-word page
        assert_eq!(r.vreg_to_addr(0), 0x8000_0000);
        assert_eq!(r.vreg_to_addr(3), 0x8000_000C);
        r.advance_qp(1);
        assert_eq!(r.vreg_to_addr(0), 0x8000_0004);
    }

    #[test]
    fn pom_wraps_the_page() {
        let mut r = RegisterFile::new();
        // POM = 0b1110_0000: three fixed bits → 2^5 = 32-word page.
        r.set_pom(0b1110_0000);
        r.set_qp(0x8000_0000 + 31 * 4); // last word of the 32-word page
        assert_eq!(r.vreg_to_addr(0), 0x8000_0000 + 31 * 4);
        assert_eq!(r.vreg_to_addr(1), 0x8000_0000, "wraps to page start");
        r.advance_qp(2);
        assert_eq!(r.qp(), 0x8000_0004, "QP wrapped within the 32-word page");
    }

    #[test]
    fn full_page_wrap_at_256_words() {
        let mut r = RegisterFile::new();
        r.set_pom(0x00);
        r.set_qp(0x8000_0000 + 255 * 4);
        r.advance_qp(1);
        assert_eq!(r.qp(), 0x8000_0000);
    }

    #[test]
    fn rollout_writes_only_present_registers() {
        let mut r = RegisterFile::new();
        r.set_qp(0x8000_0100);
        r.write_window(0, 10);
        r.write_window(5, 50);
        let out = r.rollout();
        assert_eq!(out.as_slice(), [(0x8000_0100, 10), (0x8000_0114, 50)]);
        assert_eq!(out.len(), 2);
        assert_eq!(r.present_count(), 0);
        assert!(r.rollout().is_empty(), "second rollout is empty");
    }

    #[test]
    fn save_restore_round_trip() {
        let mut r = RegisterFile::new();
        r.set_pc(0x1234);
        r.set_qp(0x8000_0000);
        r.write_global(17, -5);
        r.write_window(0, 9);
        let saved = r.save();
        let mut other = RegisterFile::new();
        other.restore(&saved);
        assert_eq!(other.pc(), 0x1234);
        assert_eq!(other.read_global(17), -5);
        assert_eq!(other.present_count(), 0, "presence bits start clear after restore");
    }

    #[test]
    fn full_state_round_trips_presence_and_window() {
        let mut r = RegisterFile::new();
        r.set_qp(0x8000_0000);
        r.set_pc(0x40);
        r.write_window(0, 11);
        r.write_window(3, 33);
        r.write_global(20, -7);
        let (w, p, g) = r.full_state();
        let mut other = RegisterFile::new();
        other.restore_full(w, p, g);
        assert_eq!(other, r, "full_state/restore_full is exact, presence included");
        assert_eq!(other.read_window(3), Some(33));
        assert_eq!(other.present_count(), 2);
    }

    #[test]
    fn special_register_accessors() {
        let mut r = RegisterFile::new();
        r.set_pom(0xF0);
        assert_eq!(r.pom(), 0xF0);
        assert_eq!(r.read_global(REG_POM), 0xF0);
        r.write_global(REG_QP, 0x100);
        assert_eq!(r.qp(), 0x100);
    }
}
