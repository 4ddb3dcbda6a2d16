//! Assembler and disassembler for the queue machine assembly language
//! (thesis §5.3.4).
//!
//! Syntax, one instruction per line:
//!
//! ```text
//! [label:] opcode[+n|++…] [src1[,src2]] [:dst1[,dst2]] [>]   ; comment
//! ```
//!
//! * QP increment: `plus+2 …` or (thesis style) `plus++ …`.
//! * Sources: `rN` registers (or the names `dummy`, `nar`, `pom`, `qp`,
//!   `pc`), `#n` immediates (decimal or `0x…`), `#label` for the absolute
//!   address of a label, `@label` for a PC-relative byte offset (branches).
//! * Destinations: `rN` (for `dup`, `N` may reach 255).
//! * `>` sets the continue flag.
//! * Directives: `.word n|label`, `.space n` (n zero words).
//!
//! ```
//! let obj = qm_isa::asm::assemble("loop: plus+1 r0,#1 :r0\n bne r0,@loop").unwrap();
//! assert_eq!(obj.words().len(), 3); // bne needs an immediate offset word
//! ```

use std::collections::HashMap;

use crate::isa::{Instruction, Opcode, SrcMode, REG_DUMMY};
use crate::{IsaError, Result, UWord, Word};

/// Output of the assembler: raw words plus the symbol table.
///
/// Freshly assembled objects also carry *verification metadata* — the
/// byte address of every instruction start and a map from instruction
/// addresses back to source lines — consumed by static analyses
/// (`qm-verify`) to walk the code without guessing where data words end
/// and instructions begin, and to report diagnostics against the
/// original source. Objects rebuilt from raw parts (snapshots) have no
/// metadata; see [`Object::has_verify_meta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Object {
    words: Vec<u32>,
    symbols: HashMap<String, UWord>,
    base: UWord,
    /// Byte addresses of instruction starts, ascending (excludes data
    /// words, `.space` fill and trailing immediate words).
    instr_addrs: Vec<UWord>,
    /// `(instruction address, 1-based source line)` pairs, ascending.
    line_map: Vec<(UWord, usize)>,
}

impl Object {
    /// Reassemble an object from its parts (words, symbol table, base
    /// address). The inverse of the accessors below; used by external
    /// serializers (e.g. simulator snapshots) to round-trip an object
    /// without re-running the assembler. Such objects carry no
    /// verification metadata.
    #[must_use]
    pub fn from_parts(words: Vec<u32>, symbols: HashMap<String, UWord>, base: UWord) -> Self {
        Object { words, symbols, base, instr_addrs: Vec::new(), line_map: Vec::new() }
    }

    /// True when the assembler recorded verification metadata
    /// ([`instr_addrs`](Self::instr_addrs) / [`line_for`](Self::line_for)).
    /// False for objects rebuilt by [`Object::from_parts`].
    #[must_use]
    pub fn has_verify_meta(&self) -> bool {
        !self.instr_addrs.is_empty()
    }

    /// Byte addresses of instruction starts, ascending. Empty when the
    /// object carries no verification metadata.
    #[must_use]
    pub fn instr_addrs(&self) -> &[UWord] {
        &self.instr_addrs
    }

    /// 1-based source line of the instruction at `addr`, when known.
    #[must_use]
    pub fn line_for(&self, addr: UWord) -> Option<usize> {
        self.line_map.binary_search_by_key(&addr, |&(a, _)| a).ok().map(|i| self.line_map[i].1)
    }

    /// The encoded instruction/data words.
    #[must_use]
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Byte address of a label.
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<UWord> {
        self.symbols.get(name).copied()
    }

    /// All defined symbols.
    #[must_use]
    pub fn symbols(&self) -> &HashMap<String, UWord> {
        &self.symbols
    }

    /// Base (load) address of the object.
    #[must_use]
    pub fn base(&self) -> UWord {
        self.base
    }

    /// Size in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> UWord {
        #[allow(clippy::cast_possible_truncation)]
        {
            (self.words.len() as UWord) * 4
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum SrcSpec<'a> {
    Mode(SrcMode),
    AbsLabel(&'a str),
    RelLabel(&'a str),
}

/// The operands of one side of a statement: the first two, plus how
/// many were written (more than two is reported when encoding).
#[derive(Debug, Clone, Copy)]
struct Operands<T> {
    first: [T; 2],
    len: usize,
}

impl<T: Copy> Operands<T> {
    fn new(fill: T) -> Self {
        Operands { first: [fill; 2], len: 0 }
    }

    fn push(&mut self, v: T) {
        if self.len < 2 {
            self.first[self.len] = v;
        }
        self.len += 1;
    }

    /// The kept operands (all of them when there are at most two).
    fn kept(&self) -> &[T] {
        &self.first[..self.len.min(2)]
    }

    fn get(&self, i: usize) -> Option<T> {
        self.kept().get(i).copied()
    }
}

#[derive(Debug, Clone, Copy)]
enum Item<'a> {
    Instr {
        line: usize,
        op: Opcode,
        srcs: Operands<SrcSpec<'a>>,
        dsts: Operands<u8>,
        qp_inc: u8,
        cont: bool,
    },
    Word(WordSpec<'a>),
    Space(usize),
}

#[derive(Debug, Clone, Copy)]
enum WordSpec<'a> {
    Value(Word),
    Label(&'a str),
}

/// Assemble a source text at base address [`crate::mem::CODE_BASE`].
///
/// # Errors
///
/// [`IsaError::Asm`] with a line number for any syntax or range problem.
pub fn assemble(src: &str) -> Result<Object> {
    assemble_at(src, crate::mem::CODE_BASE)
}

/// Assemble at an explicit base address.
///
/// # Errors
///
/// See [`assemble`].
pub fn assemble_at(src: &str, base: UWord) -> Result<Object> {
    let err = |line: usize, msg: String| IsaError::Asm { line, msg };

    // Pass 1: parse lines into items and lay out labels. Labels and
    // operands borrow from `src` until the final symbol table.
    let mut items: Vec<Item<'_>> = Vec::new();
    let mut symbols: HashMap<&str, UWord> = HashMap::new();
    let mut pc = base;
    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno + 1;
        let mut text = raw;
        if let Some(pos) = text.find(';') {
            text = &text[..pos];
        }
        let mut text = text.trim();
        // Labels (possibly several) before the statement.
        while let Some(colon) = text.find(':') {
            let (name, rest) = text.split_at(colon);
            // A label's colon is adjacent to the identifier; an operand
            // colon (`dup1 :r30`) is preceded by whitespace.
            if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                break;
            }
            if symbols.insert(name, pc).is_some() {
                return Err(err(line, format!("duplicate label {name}")));
            }
            text = rest[1..].trim();
        }
        if text.is_empty() {
            continue;
        }
        let item = parse_statement(text, line)?;
        pc += 4 * item_size(&item) as UWord;
        items.push(item);
    }

    // Pass 2: encode with resolved labels.
    let n_instrs = items.iter().filter(|i| matches!(i, Item::Instr { .. })).count();
    let mut words: Vec<u32> = Vec::with_capacity(items.iter().map(item_size).sum());
    let mut instr_addrs: Vec<UWord> = Vec::with_capacity(n_instrs);
    let mut line_map: Vec<(UWord, usize)> = Vec::with_capacity(n_instrs);
    let lookup = |name: &str, line: usize| -> Result<UWord> {
        symbols.get(name).copied().ok_or_else(|| err(line, format!("undefined label {name}")))
    };
    let mut addr = base;
    for item in &items {
        let size = item_size(item) as UWord;
        match *item {
            Item::Word(spec) => {
                let v = match spec {
                    WordSpec::Value(v) => v,
                    #[allow(clippy::cast_possible_wrap)]
                    WordSpec::Label(name) => lookup(name, 0)? as Word,
                };
                #[allow(clippy::cast_sign_loss)]
                words.push(v as u32);
            }
            Item::Space(n) => words.extend(std::iter::repeat_n(0u32, n)),
            Item::Instr { line, op, srcs, dsts, qp_inc, cont } => {
                instr_addrs.push(addr);
                line_map.push((addr, line));
                let next_pc = addr + 4 * size;
                let resolve = |spec: SrcSpec<'_>| -> Result<SrcMode> {
                    Ok(match spec {
                        SrcSpec::Mode(m) => m,
                        #[allow(clippy::cast_possible_wrap)]
                        SrcSpec::AbsLabel(name) => SrcMode::ImmWord(lookup(name, line)? as Word),
                        #[allow(clippy::cast_possible_wrap)]
                        SrcSpec::RelLabel(name) => {
                            let target = lookup(name, line)?;
                            SrcMode::ImmWord(target.wrapping_sub(next_pc) as Word)
                        }
                    })
                };
                let instr = if op.is_dup() {
                    let two = op == Opcode::Dup2;
                    // dup2 stores at both offsets; dup1 stores at the first
                    // but may carry a (don't-care) second offset in the
                    // encoding, so accept one or two destinations.
                    let ok = if two { dsts.len == 2 } else { (1..=2).contains(&dsts.len) };
                    if !ok || srcs.len > 0 {
                        let need = if two { "2" } else { "1 or 2" };
                        return Err(err(
                            line,
                            format!("{op} takes no sources and {need} destination(s)"),
                        ));
                    }
                    Instruction::Dup {
                        two,
                        off1: dsts.first[0],
                        off2: dsts.get(1).unwrap_or(0),
                        cont,
                    }
                } else {
                    if srcs.len > 2 {
                        return Err(err(line, "at most two sources".into()));
                    }
                    if dsts.len > 2 {
                        return Err(err(line, "at most two destinations".into()));
                    }
                    if dsts.kept().iter().any(|&d| d > 31) {
                        return Err(err(line, "destination register > r31".into()));
                    }
                    let src1 = srcs.get(0).map_or(Ok(SrcMode::Imm(0)), resolve)?;
                    let src2 = srcs.get(1).map_or(Ok(SrcMode::Imm(0)), resolve)?;
                    Instruction::Basic {
                        op,
                        src1,
                        src2,
                        dst1: dsts.get(0).unwrap_or(REG_DUMMY),
                        dst2: dsts.get(1).unwrap_or(REG_DUMMY),
                        qp_inc,
                        cont,
                    }
                };
                let before = words.len();
                instr.encode_into(&mut words).map_err(|e| err(line, e.to_string()))?;
                debug_assert_eq!((words.len() - before) as UWord, size, "size estimate must match");
            }
        }
        addr += 4 * size;
    }
    let symbols = symbols.into_iter().map(|(name, addr)| (name.to_string(), addr)).collect();
    Ok(Object { words, symbols, base, instr_addrs, line_map })
}

fn item_size(item: &Item<'_>) -> usize {
    match item {
        Item::Word(_) => 1,
        Item::Space(n) => *n,
        Item::Instr { op, srcs, .. } => {
            if op.is_dup() {
                1
            } else {
                1 + srcs
                    .kept()
                    .iter()
                    .filter(|s| {
                        matches!(
                            s,
                            SrcSpec::AbsLabel(_)
                                | SrcSpec::RelLabel(_)
                                | SrcSpec::Mode(SrcMode::ImmWord(_))
                        )
                    })
                    .count()
            }
        }
    }
}

fn parse_statement(text: &str, line: usize) -> Result<Item<'_>> {
    let err = |msg: String| IsaError::Asm { line, msg };
    if let Some(rest) = text.strip_prefix(".word") {
        let arg = rest.trim();
        return if let Some(v) = parse_int(arg) {
            Ok(Item::Word(WordSpec::Value(v)))
        } else if arg.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') && !arg.is_empty() {
            Ok(Item::Word(WordSpec::Label(arg)))
        } else {
            Err(err(format!("bad .word argument {arg:?}")))
        };
    }
    if let Some(rest) = text.strip_prefix(".space") {
        let n: usize = rest
            .trim()
            .parse()
            .map_err(|_| err(format!("bad .space argument {:?}", rest.trim())))?;
        return Ok(Item::Space(n));
    }

    // Mnemonic with optional +n / ++… suffix.
    let (head, tail) = match text.find(char::is_whitespace) {
        Some(i) => text.split_at(i),
        None => (text, ""),
    };
    let mut cont = false;
    let mut tail = tail.trim();
    if let Some(stripped) = tail.strip_suffix('>') {
        cont = true;
        tail = stripped.trim();
    }
    let (mnemonic, qp_inc) = if let Some(plus) = head.find('+') {
        let (m, suffix) = head.split_at(plus);
        let inc = if suffix.chars().all(|c| c == '+') {
            suffix.len()
        } else {
            suffix[1..].parse::<usize>().map_err(|_| err(format!("bad QP increment {suffix:?}")))?
        };
        (m, inc)
    } else {
        (head, 0)
    };
    if qp_inc > 7 {
        return Err(err(format!("QP increment {qp_inc} > 7")));
    }
    let Some(op) = Opcode::from_mnemonic(mnemonic) else {
        return Err(err(format!("unknown mnemonic {mnemonic:?}")));
    };

    // Operands: sources before ':', destinations after.
    let (src_part, dst_part) = match tail.find(':') {
        Some(i) => (&tail[..i], &tail[i + 1..]),
        None => (tail, ""),
    };
    let mut srcs = Operands::new(SrcSpec::Mode(SrcMode::Imm(0)));
    for tok in src_part.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        srcs.push(parse_src(tok, line)?);
    }
    let mut dsts = Operands::new(0);
    for tok in dst_part.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        dsts.push(parse_reg(tok, 255).ok_or_else(|| err(format!("bad destination {tok:?}")))?);
    }
    #[allow(clippy::cast_possible_truncation)]
    Ok(Item::Instr { line, op, srcs, dsts, qp_inc: qp_inc as u8, cont })
}

fn parse_src(tok: &str, line: usize) -> Result<SrcSpec<'_>> {
    let err = |msg: String| IsaError::Asm { line, msg };
    if let Some(rest) = tok.strip_prefix('#') {
        if let Some(v) = parse_int(rest) {
            return Ok(SrcSpec::Mode(if (-15..=15).contains(&v) {
                #[allow(clippy::cast_possible_truncation)]
                SrcMode::Imm(v as i8)
            } else {
                SrcMode::ImmWord(v)
            }));
        }
        return Ok(SrcSpec::AbsLabel(rest));
    }
    if let Some(rest) = tok.strip_prefix('@') {
        return Ok(SrcSpec::RelLabel(rest));
    }
    if let Some(reg) = parse_reg(tok, 31) {
        return Ok(SrcSpec::Mode(if reg < 16 {
            SrcMode::Window(reg)
        } else {
            SrcMode::Global(reg)
        }));
    }
    Err(err(format!("bad source operand {tok:?}")))
}

fn parse_reg(tok: &str, max: u16) -> Option<u8> {
    let named = match tok {
        "dummy" => Some(16u8),
        "nar" => Some(28),
        "pom" => Some(29),
        "qp" => Some(30),
        "pc" => Some(31),
        _ => None,
    };
    if let Some(r) = named {
        return Some(r);
    }
    let rest = tok.strip_prefix('r')?;
    let n: u16 = rest.parse().ok()?;
    (n <= max).then_some(n as u8)
}

/// A numeric literal: decimal, or `0x` hex (any 32-bit pattern), with an
/// optional leading `-`. The sign applies to the whole magnitude, so
/// `-2147483648` is `i32::MIN`; decimal magnitudes outside the `Word`
/// range do not parse (the operand is then read as a label).
fn parse_int(s: &str) -> Option<Word> {
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        #[allow(clippy::cast_possible_wrap)]
        let v = u32::from_str_radix(hex, 16).ok()? as Word;
        return Some(if neg { v.wrapping_neg() } else { v });
    }
    let v = body.parse::<i64>().ok()?;
    Word::try_from(if neg { v.checked_neg()? } else { v }).ok()
}

/// Disassemble a block of instruction words into assembly text, one
/// instruction per line.
#[must_use]
pub fn disassemble(words: &[u32]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < words.len() {
        match Instruction::decode(&words[i..]) {
            Ok((instr, used)) => {
                out.push(instr.to_string());
                i += used;
            }
            Err(_) => {
                out.push(format!(".word {:#010x}", words[i]));
                i += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Instruction, Opcode, SrcMode};

    #[test]
    fn thesis_example_assembles() {
        // §5.3.4: plus++ r0,r1 :r0,r2 >  /  dup1 :r30
        let obj = assemble("plus++ r0,r1 :r0,r2 >\ndup1 :r30\n").unwrap();
        assert_eq!(obj.words().len(), 2);
        let (i0, _) = Instruction::decode(obj.words()).unwrap();
        assert_eq!(
            i0,
            Instruction::Basic {
                op: Opcode::Plus,
                src1: SrcMode::Window(0),
                src2: SrcMode::Window(1),
                dst1: 0,
                dst2: 2,
                qp_inc: 2,
                cont: true,
            }
        );
        let (i1, _) = Instruction::decode(&obj.words()[1..]).unwrap();
        assert_eq!(i1, Instruction::Dup { two: false, off1: 30, off2: 0, cont: false });
    }

    #[test]
    fn numeric_qp_suffix() {
        let a = assemble("plus+2 r0,r1 :r0").unwrap();
        let b = assemble("plus++ r0,r1 :r0").unwrap();
        assert_eq!(a.words(), b.words());
    }

    #[test]
    fn labels_and_absolute_references() {
        let obj = assemble(
            "start: plus #0,#0\n\
             here:  fetch #data,#0 :r0\n\
             data:  .word 77\n",
        )
        .unwrap();
        assert_eq!(obj.symbol("start"), Some(0));
        assert_eq!(obj.symbol("here"), Some(4));
        // fetch takes 2 words (imm word), so data is at 4 + 8 = 12.
        assert_eq!(obj.symbol("data"), Some(12));
        assert_eq!(obj.words()[2], 12, "imm word holds the label address");
        assert_eq!(obj.words()[3], 77);
    }

    #[test]
    fn relative_branch_offsets() {
        let obj = assemble(
            "loop: plus+1 r0,#1 :r0\n\
                   bne r0,@loop\n",
        )
        .unwrap();
        // bne is at byte 4, two words → next pc = 12; loop = 0 → offset −12.
        #[allow(clippy::cast_possible_wrap)]
        let off = obj.words()[2] as i32;
        assert_eq!(off, -12);
    }

    #[test]
    fn forward_reference_resolves() {
        let obj = assemble(
            "beq r0,@end\n\
             plus #1,#2 :r17\n\
             end: plus #0,#0\n",
        )
        .unwrap();
        #[allow(clippy::cast_possible_wrap)]
        let off = obj.words()[1] as i32;
        // beq: 2 words (0..8); next pc 8; end at 12 → offset 4.
        assert_eq!(off, 4);
    }

    #[test]
    fn named_registers() {
        let obj = assemble("plus qp,#0 :r17\nplus pc,#0 :dummy").unwrap();
        let (i0, _) = Instruction::decode(obj.words()).unwrap();
        match i0 {
            Instruction::Basic { src1: SrcMode::Global(30), dst1: 17, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comments_and_blank_lines() {
        let obj = assemble("; header\n\n  plus #1,#1 ; add\n").unwrap();
        assert_eq!(obj.words().len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("plus #1,#1\nbogus r0\n").unwrap_err();
        match e {
            IsaError::Asm { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_label_rejected() {
        assert!(assemble("x: plus #0,#0\nx: plus #0,#0\n").is_err());
    }

    #[test]
    fn undefined_label_rejected() {
        assert!(assemble("bne r0,@nowhere\n").is_err());
    }

    #[test]
    fn hex_and_big_immediates() {
        let obj = assemble("fetch #0x80000400,#0 :r0").unwrap();
        assert_eq!(obj.words().len(), 2);
        assert_eq!(obj.words()[1], 0x8000_0400);
        let obj = assemble("plus #100,#0 :r0").unwrap();
        assert_eq!(obj.words().len(), 2, "100 exceeds small-immediate range");
    }

    #[test]
    fn extreme_immediates_round_trip() {
        for (src, value) in [
            ("plus #-2147483648,#0 :r0", i32::MIN),
            ("plus #2147483647,#0 :r0", i32::MAX),
            ("plus #0x80000000,#0 :r0", i32::MIN),
            ("plus #-0x80000000,#0 :r0", i32::MIN),
            (".word -2147483648", i32::MIN),
        ] {
            let obj = assemble(src).unwrap_or_else(|e| panic!("{src}: {e}"));
            #[allow(clippy::cast_sign_loss)]
            let want = value as u32;
            assert_eq!(obj.words().last(), Some(&want), "{src}");
            let text = disassemble(obj.words()).join("\n");
            let again = assemble(&text).unwrap_or_else(|e| panic!("{src} -> {text}: {e}"));
            assert_eq!(again.words(), obj.words(), "{src} -> {text}");
        }
        // Decimal magnitudes beyond the word range are not numbers.
        assert!(assemble("plus #2147483648,#0 :r0").is_err());
        assert!(assemble("plus #-2147483649,#0 :r0").is_err());
        assert!(assemble("plus #-9223372036854775808,#0 :r0").is_err());
    }

    #[test]
    fn space_directive() {
        let obj = assemble("a: .space 3\nb: .word 9").unwrap();
        assert_eq!(obj.symbol("b"), Some(12));
        assert_eq!(obj.words(), &[0, 0, 0, 9]);
    }

    #[test]
    fn disassemble_round_trips_text() {
        let src = "plus+2 r0,r1 :r0,r2 >\ndup1 :r30\nminus #0,r0 :r1\n";
        let obj = assemble(src).unwrap();
        let lines = disassemble(obj.words());
        let rejoined = lines.join("\n");
        let obj2 = assemble(&rejoined).unwrap();
        assert_eq!(obj.words(), obj2.words());
    }

    #[test]
    fn dup_validates_operand_counts() {
        assert!(assemble("dup1 r0 :r1").is_err(), "dup takes no sources");
        assert!(assemble("dup2 :r1").is_err(), "dup2 needs two destinations");
        assert!(assemble("dup1 :r200").is_ok(), "dup offsets reach 255");
        assert!(assemble("dup1 :r1,r2,r3").is_err(), "at most two destinations");
    }

    #[test]
    fn verification_metadata_maps_instructions_and_lines() {
        let obj = assemble(
            "start: plus #0,#0\n\
             here:  fetch #data,#0 :r0\n\
             data:  .word 77\n",
        )
        .unwrap();
        assert!(obj.has_verify_meta());
        // plus at 0 (1 word), fetch at 4 (2 words: the imm word at 8 is
        // not an instruction start), data at 12 is data, not code.
        assert_eq!(obj.instr_addrs(), &[0, 4]);
        assert_eq!(obj.line_for(0), Some(1));
        assert_eq!(obj.line_for(4), Some(2));
        assert_eq!(obj.line_for(8), None, "immediate word is not an instruction");
        assert_eq!(obj.line_for(12), None, "data word is not an instruction");
        let bare = Object::from_parts(obj.words().to_vec(), obj.symbols().clone(), obj.base());
        assert!(!bare.has_verify_meta(), "from_parts objects carry no metadata");
    }

    #[test]
    fn dup1_second_offset_round_trips() {
        // dup1 ignores its second offset when executed, but the bits are
        // architecturally present; text and binary forms must both carry
        // them (a shrunk failure of the instruction round-trip property
        // in tests/property_models.rs:
        // Dup { two: false, off1: 0, off2: 1, cont: false }).
        let obj = assemble("dup1 :r0,r1\n").unwrap();
        let (i, _) = Instruction::decode(obj.words()).unwrap();
        assert_eq!(i, Instruction::Dup { two: false, off1: 0, off2: 1, cont: false });
        let lines = disassemble(obj.words());
        assert_eq!(lines, vec!["dup1 :r0,r1".to_string()]);
        let obj2 = assemble(&lines.join("\n")).unwrap();
        assert_eq!(obj.words(), obj2.words());
    }
}
