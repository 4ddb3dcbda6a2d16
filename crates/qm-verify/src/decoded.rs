//! The per-word tables every pass shares.
//!
//! The queue pass, the wiring model and the deep pass all walk the same
//! object words. Each word is decoded once, here, into a per-word
//! table: the instruction that starts at the word (when it decodes),
//! its size, and whether the word is a valid control-flow target. The
//! table also holds the address-sorted symbol table the passes label
//! contexts with. One verification call builds it once and hands it to
//! every pass.

use qm_isa::asm::Object;
use qm_isa::isa::Instruction;
use qm_isa::UWord;

/// One object word, decoded.
struct Entry {
    /// The instruction starting at this word and its size in bytes.
    instr: Option<(Instruction, UWord)>,
    /// A valid branch/fork target: an instruction start recorded by
    /// the linker.
    start: bool,
}

pub(crate) struct DecodedCode<'a> {
    pub(crate) obj: &'a Object,
    base: UWord,
    end: UWord,
    entries: Vec<Entry>,
    /// Symbols sorted by address, for context labels.
    pub(crate) symbols: Vec<(String, UWord)>,
}

impl<'a> DecodedCode<'a> {
    pub(crate) fn new(obj: &'a Object) -> Self {
        let words = obj.words();
        let entries: Vec<Entry> = (0..words.len())
            .map(|i| {
                #[allow(clippy::cast_possible_truncation)]
                let instr = Instruction::decode(&words[i..(i + 3).min(words.len())])
                    .ok()
                    .map(|(instr, used)| (instr, 4 * used as UWord));
                Entry { instr, start: false }
            })
            .collect();
        let mut symbols: Vec<(String, UWord)> =
            obj.symbols().iter().map(|(n, &a)| (n.clone(), a)).collect();
        symbols.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        let mut code = DecodedCode {
            obj,
            base: obj.base(),
            end: obj.base() + obj.size_bytes(),
            entries,
            symbols,
        };
        for &addr in obj.instr_addrs() {
            if let Some(i) = code.index(addr) {
                code.entries[i].start = true;
            }
        }
        code
    }

    /// One past the last code byte.
    pub(crate) fn end(&self) -> UWord {
        self.end
    }

    /// Number of object words: the size of a dense per-word table.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Transfer steps a worklist analysis may take over one context of
    /// this code before it gives up on reaching a fixpoint.
    pub(crate) fn round_budget(&self) -> usize {
        300 * self.len().max(1)
    }

    /// The word index of `addr`, when it is an aligned address inside
    /// the code.
    pub(crate) fn index(&self, addr: UWord) -> Option<usize> {
        if addr < self.base || addr >= self.end || !(addr - self.base).is_multiple_of(4) {
            return None;
        }
        Some(((addr - self.base) / 4) as usize)
    }

    /// The instruction at `addr` and its size in bytes, when `addr` is
    /// inside the code, aligned and decodable.
    pub(crate) fn instr_at(&self, addr: UWord) -> Option<(&Instruction, UWord)> {
        let (instr, size) = self.entries[self.index(addr)?].instr.as_ref()?;
        Some((instr, *size))
    }

    /// A valid branch/fork target.
    pub(crate) fn is_instr_start(&self, addr: UWord) -> bool {
        self.index(addr).is_some_and(|i| self.entries[i].start)
    }

    /// Why [`instr_at`](Self::instr_at) has nothing at `addr`.
    pub(crate) fn decode_error(&self, addr: UWord) -> String {
        let Some(i) = self.index(addr) else {
            return if addr < self.base || addr >= self.end {
                format!("address {addr:#x} is outside the code")
            } else {
                format!("address {addr:#x} is not word-aligned")
            };
        };
        let words = self.obj.words();
        Instruction::decode(&words[i..(i + 3).min(words.len())])
            .map_or_else(|e| e.to_string(), |_| String::new())
    }
}

/// The successors of one transfer step: at most two program points
/// (fall-through and branch target).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Succs {
    addrs: [UWord; 2],
    len: u8,
}

impl Succs {
    pub(crate) fn push(&mut self, addr: UWord) {
        self.addrs[usize::from(self.len)] = addr;
        self.len += 1;
    }

    pub(crate) fn clear(&mut self) {
        self.len = 0;
    }

    pub(crate) fn as_slice(&self) -> &[UWord] {
        &self.addrs[..usize::from(self.len)]
    }
}
