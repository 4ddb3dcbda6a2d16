//! Assembler, linker and printer for the queue machine assembly
//! language (thesis §5.3.4).
//!
//! A [`Listing`] is where text and code meet: labels, instructions and
//! data directives on numbered lines. [`assemble`] parses text into a
//! listing and [`Listing::link`]s it into an [`Object`]; the OCCAM
//! compiler builds its listing directly and links it the same way, and a
//! listing's `Display` prints the text. Only qm-isa knows the syntax:
//! this module and [`Instruction`]'s `Display`.
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
use std::fmt::{self, Write as _};
use std::sync::Arc;

use crate::isa::{write_num, Instruction, Opcode, SrcMode, REG_DUMMY};
use crate::mem::{CODE_BASE, CODE_LIMIT};
use crate::{IsaError, Result, UWord, Word};

/// Output of [`Listing::link`]: raw words plus the symbol table.
///
/// Linked objects also carry *verification metadata* — the
/// byte address of every instruction start and a map from instruction
/// addresses back to source lines — consumed by static analyses
/// (`qm-verify`) to walk the code without guessing where data words end
/// and instructions begin, and to report diagnostics against the
/// original source.
///
/// An object is immutable once linked, and its parts sit behind one
/// shared allocation: `Clone` copies a pointer, so a program cache, the
/// simulator that loaded the program and every snapshot of that
/// simulator hold the same words and symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Object(Arc<Parts>);

#[derive(Debug, PartialEq, Eq)]
struct Parts {
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
    /// Byte addresses of instruction starts, ascending. Empty for an
    /// object of data directives alone.
    #[must_use]
    pub fn instr_addrs(&self) -> &[UWord] {
        &self.0.instr_addrs
    }

    /// 1-based source line of the instruction at `addr`, when known.
    #[must_use]
    pub fn line_for(&self, addr: UWord) -> Option<usize> {
        let map = &self.0.line_map;
        map.binary_search_by_key(&addr, |&(a, _)| a).ok().map(|i| map[i].1)
    }

    /// The encoded instruction/data words.
    #[must_use]
    pub fn words(&self) -> &[u32] {
        &self.0.words
    }

    /// Byte address of a label.
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<UWord> {
        self.0.symbols.get(name).copied()
    }

    /// All defined symbols.
    #[must_use]
    pub fn symbols(&self) -> &HashMap<String, UWord> {
        &self.0.symbols
    }

    /// Base (load) address of the object.
    #[must_use]
    pub fn base(&self) -> UWord {
        self.0.base
    }

    /// Size in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> UWord {
        #[allow(clippy::cast_possible_truncation)]
        {
            (self.0.words.len() as UWord) * 4
        }
    }
}

/// A label named by a source operand, resolved by [`Listing::link`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelRef<'a> {
    /// `#label`: the label's byte address.
    Abs(&'a str),
    /// `@label`: the label's address relative to the next instruction
    /// (branch offsets).
    Rel(&'a str),
}

/// One entry of a [`Listing`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item<'a> {
    /// `name:` — the address of whatever follows.
    Label(&'a str),
    /// An instruction. A basic instruction's source `i` is the label
    /// `labels[i]` when one is given: a full-word immediate filled in by
    /// [`Listing::link`].
    Instr(Instruction, [Option<LabelRef<'a>>; 2]),
    /// `.word n`.
    Word(Word),
    /// `.word label`: the label's byte address.
    WordLabel(&'a str),
    /// `.space n`: `n` zero words.
    Space(usize),
}

/// A program as the assembler's parser and the OCCAM compiler's emitter
/// both produce it: labels, instructions and data directives, each on a
/// 1-based source line. [`link`](Listing::link) turns it into an
/// [`Object`]; `Display` prints it as assembly text, which
/// [`assemble`] reads back to the same object, lines included.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Listing<'a> {
    /// `(line, item)` pairs, lines ascending.
    items: Vec<(usize, Item<'a>)>,
    /// Lines ended so far: the next item goes on line `line + 1`.
    line: usize,
}

impl<'a> Listing<'a> {
    /// Append `item`. A label shares the line of the statement that
    /// follows it; every other item ends its line.
    pub fn push(&mut self, mut item: Item<'a>) {
        if let Item::Instr(Instruction::Basic { src1, src2, .. }, labels) = &mut item {
            for (src, label) in [src1, src2].into_iter().zip(labels.iter()) {
                if label.is_some() {
                    *src = SrcMode::ImmWord(0);
                }
            }
        }
        let ends = !matches!(item, Item::Label(_));
        self.items.push((self.line + 1, item));
        self.line += usize::from(ends);
    }

    /// Lay the listing out at [`CODE_BASE`], resolve its labels and
    /// encode it.
    ///
    /// # Errors
    ///
    /// [`IsaError::Asm`] at the offending line for a duplicate or
    /// undefined label, an object that would end past [`CODE_LIMIT`]
    /// (checked before anything is allocated) or an instruction field
    /// out of range.
    pub fn link(&self) -> Result<Object> {
        let err = |line: usize, msg: String| IsaError::Asm { line, msg };
        let base = CODE_BASE;
        let max_words = ((CODE_LIMIT - base) / 4) as usize;

        // Pass 1: lay out labels and bound the object's size.
        let mut symbols: HashMap<&str, UWord> = HashMap::new();
        let (mut len, mut n_instrs) = (0usize, 0usize);
        for (line, item) in &self.items {
            let size = match item {
                Item::Label(name) => {
                    if symbols.insert(name, base + 4 * len as UWord).is_some() {
                        return Err(err(*line, format!("duplicate label {name}")));
                    }
                    continue;
                }
                Item::Instr(instr, _) => {
                    n_instrs += 1;
                    instr.size_words()
                }
                Item::Word(_) | Item::WordLabel(_) => 1,
                Item::Space(n) => *n,
            };
            len = len.checked_add(size).filter(|&l| l <= max_words).ok_or_else(|| {
                err(*line, format!("object ends past the code segment at {CODE_LIMIT:#x}"))
            })?;
        }

        // Pass 2: encode with resolved labels.
        let mut words: Vec<u32> = Vec::with_capacity(len);
        let mut instr_addrs: Vec<UWord> = Vec::with_capacity(n_instrs);
        let mut line_map: Vec<(UWord, usize)> = Vec::with_capacity(n_instrs);
        let lookup = |name: &str, line: usize| -> Result<UWord> {
            symbols.get(name).copied().ok_or_else(|| err(line, format!("undefined label {name}")))
        };
        for (line, item) in &self.items {
            let line = *line;
            let addr = base + 4 * words.len() as UWord;
            match item {
                Item::Label(_) => {}
                Item::Word(v) => words.push(*v as u32),
                Item::WordLabel(name) => words.push(lookup(name, line)?),
                Item::Space(n) => words.resize(words.len() + n, 0),
                Item::Instr(instr, labels) => {
                    instr_addrs.push(addr);
                    line_map.push((addr, line));
                    let mut instr = instr.clone();
                    let next_pc = addr + 4 * instr.size_words() as UWord;
                    if let Instruction::Basic { src1, src2, .. } = &mut instr {
                        for (src, label) in [src1, src2].into_iter().zip(labels) {
                            match *label {
                                Some(LabelRef::Abs(name)) => {
                                    *src = SrcMode::ImmWord(lookup(name, line)? as Word);
                                }
                                Some(LabelRef::Rel(name)) => {
                                    let offset = lookup(name, line)?.wrapping_sub(next_pc);
                                    *src = SrcMode::ImmWord(offset as Word);
                                }
                                None => {}
                            }
                        }
                    }
                    instr.encode_into(&mut words).map_err(|e| err(line, e.to_string()))?;
                }
            }
        }
        let symbols = symbols.into_iter().map(|(name, addr)| (name.to_string(), addr)).collect();
        Ok(Object(Arc::new(Parts { words, symbols, base, instr_addrs, line_map })))
    }
}

impl fmt::Display for Listing<'_> {
    /// One text line per listing line: its labels as `name:`, then its
    /// statement, indented four spaces when no label precedes it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Each line is built in `text` and written whole.
        let (mut line, mut text) = (1, String::with_capacity(64));
        for (at, item) in &self.items {
            for _ in line..*at {
                text.push('\n');
                f.write_str(&text)?;
                text.clear();
            }
            line = *at;
            text.push_str(match (text.is_empty(), item) {
                (false, _) => " ",
                (true, Item::Label(_)) => "",
                (true, _) => "    ",
            });
            match item {
                Item::Label(name) => write!(text, "{name}:"),
                Item::Instr(instr, labels) => {
                    instr.write_with(&mut text, |t, i, src| match labels[i] {
                        Some(LabelRef::Abs(name)) => write!(t, "#{name}"),
                        Some(LabelRef::Rel(name)) => write!(t, "@{name}"),
                        None => src.write_to(t),
                    })
                }
                Item::Word(v) => write_num(&mut text, ".word ", *v),
                Item::WordLabel(name) => write!(text, ".word {name}"),
                Item::Space(n) => write!(text, ".space {n}"),
            }?;
        }
        if !text.is_empty() {
            text.push('\n');
            f.write_str(&text)?;
        }
        Ok(())
    }
}

/// Assemble a source text at base address [`CODE_BASE`]: parse it into
/// a [`Listing`], then [`link`](Listing::link) it.
///
/// # Errors
///
/// [`IsaError::Asm`] with a line number for any syntax or range problem.
pub fn assemble(src: &str) -> Result<Object> {
    parse(src)?.link()
}

/// Parse a source text into a listing, every item on the line it was
/// written on. Labels and operands borrow from `src`.
fn parse(src: &str) -> Result<Listing<'_>> {
    let mut listing = Listing::default();
    for (lineno, raw) in src.lines().enumerate() {
        listing.line = lineno;
        let text = raw.find(';').map_or(raw, |pos| &raw[..pos]);
        let mut text = text.trim();
        // Labels (possibly several) before the statement.
        while let Some(colon) = text.find(':') {
            let (name, rest) = text.split_at(colon);
            // A label's colon is adjacent to the identifier; an operand
            // colon (`dup1 :r30`) is preceded by whitespace.
            if !is_ident(name) {
                break;
            }
            listing.push(Item::Label(name));
            text = rest[1..].trim();
        }
        if !text.is_empty() {
            listing.push(parse_statement(text, lineno + 1)?);
        }
    }
    Ok(listing)
}

fn is_ident(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_statement(text: &str, line: usize) -> Result<Item<'_>> {
    let err = |msg: String| IsaError::Asm { line, msg };
    if let Some(rest) = text.strip_prefix(".word") {
        let arg = rest.trim();
        return if let Some(v) = parse_int(arg) {
            Ok(Item::Word(v))
        } else if is_ident(arg) {
            Ok(Item::WordLabel(arg))
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
    // Two of each over defaults, and how many were written (more than
    // two is an error, so a third may overwrite the second).
    let (mut srcs, mut n_srcs) = ([(SrcMode::Imm(0), None); 2], 0);
    for tok in src_part.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        srcs[n_srcs.min(1)] = parse_src(tok, line)?;
        n_srcs += 1;
    }
    let (mut dsts, mut n_dsts) = ([REG_DUMMY; 2], 0);
    for tok in dst_part.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        dsts[n_dsts.min(1)] =
            parse_reg(tok, 255).ok_or_else(|| err(format!("bad destination {tok:?}")))?;
        n_dsts += 1;
    }
    if op.is_dup() {
        let two = op == Opcode::Dup2;
        // dup2 stores at both offsets; dup1 stores at the first but may
        // carry a (don't-care) second offset in the encoding, so accept
        // one or two destinations.
        let ok = if two { n_dsts == 2 } else { (1..=2).contains(&n_dsts) };
        if !ok || n_srcs > 0 {
            let need = if two { "2" } else { "1 or 2" };
            return Err(err(format!("{op} takes no sources and {need} destination(s)")));
        }
        let off2 = if n_dsts == 2 { dsts[1] } else { 0 };
        return Ok(Item::Instr(Instruction::Dup { two, off1: dsts[0], off2, cont }, [None; 2]));
    }
    if n_srcs > 2 {
        return Err(err("at most two sources".into()));
    }
    if n_dsts > 2 {
        return Err(err("at most two destinations".into()));
    }
    if dsts.iter().any(|&d| d > 31) {
        return Err(err("destination register > r31".into()));
    }
    let [(src1, label1), (src2, label2)] = srcs;
    let [dst1, dst2] = dsts;
    let qp_inc = qp_inc as u8;
    let instr = Instruction::Basic { op, src1, src2, dst1, dst2, qp_inc, cont };
    Ok(Item::Instr(instr, [label1, label2]))
}

/// A source operand, and the label it names if any.
fn parse_src(tok: &str, line: usize) -> Result<(SrcMode, Option<LabelRef<'_>>)> {
    if let Some(rest) = tok.strip_prefix('#') {
        return Ok(match parse_int(rest) {
            Some(v) => (SrcMode::imm(v), None),
            None => (SrcMode::ImmWord(0), Some(LabelRef::Abs(rest))),
        });
    }
    if let Some(rest) = tok.strip_prefix('@') {
        return Ok((SrcMode::ImmWord(0), Some(LabelRef::Rel(rest))));
    }
    match parse_reg(tok, 31) {
        Some(reg) if reg < 16 => Ok((SrcMode::Window(reg), None)),
        Some(reg) => Ok((SrcMode::Global(reg), None)),
        None => Err(IsaError::Asm { line, msg: format!("bad source operand {tok:?}") }),
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Instruction, Opcode, SrcMode};

    /// Disassemble a block of instruction words into assembly text, one
    /// instruction per line.
    fn disassemble(words: &[u32]) -> Vec<String> {
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
        // Operands and `.word` both report the line that names the label.
        for src in ["main: trap #3,#0\n plus #nowhere,#0", "main: trap #3,#0\n .word nowhere"] {
            let e = assemble(src).unwrap_err();
            assert_eq!(e.to_string(), "assembly error at line 2: undefined label nowhere", "{src}");
        }
    }

    #[test]
    fn objects_end_inside_the_code_segment() {
        let limit = (CODE_LIMIT / 4) as usize;
        let fits = assemble(&format!("main: trap #3,#0\n .space {}", limit - 1)).unwrap();
        assert_eq!(fits.size_bytes(), CODE_LIMIT);
        for n in [limit, 1 << 30, usize::MAX] {
            let e = assemble(&format!("main: trap #3,#0\n .space {n}")).unwrap_err();
            assert_eq!(
                e.to_string(),
                "assembly error at line 2: object ends past the code segment at 0x100000",
                ".space {n}"
            );
        }
    }

    #[test]
    fn printed_listing_reassembles_to_the_same_object() {
        let src = "; header\n\
                   start: fetch #data,#0 :r0 ; comment\n\
                   \n\
                   a: b:  bne r0,@start\n\
                   dup2 :r3,r4 >\n\
                   tail:\n\
                   data: .word 77\n\
                   .word start\n\
                   .space 2\n";
        let listing = parse(src).unwrap();
        let printed = listing.to_string();
        assert_eq!(
            printed,
            "\nstart: fetch #data,#0 :r0\n\na: b: bne r0,@start\n    dup2 :r3,r4 >\ntail:\n\
             data: .word 77\n    .word start\n    .space 2\n"
        );
        let obj = listing.link().unwrap();
        assert_eq!(assemble(&printed).unwrap(), obj, "same words, symbols and lines");
        assert_eq!(obj.line_for(8), Some(4), "bne follows the two-word fetch");
    }

    #[test]
    fn pushed_items_number_their_lines() {
        let mut listing = Listing::default();
        listing.push(Item::Label("main"));
        listing.push(Item::Instr(
            Instruction::basic(Opcode::Plus, SrcMode::Imm(0), SrcMode::Imm(0)),
            [Some(LabelRef::Abs("main")), None],
        ));
        listing.push(Item::Instr(
            Instruction::basic(Opcode::Trap, SrcMode::Imm(2), SrcMode::Imm(0)),
            [None; 2],
        ));
        let text = listing.to_string();
        assert_eq!(text, "main: plus #main,#0\n    trap #2,#0\n");
        assert_eq!(listing.link().unwrap(), assemble(&text).unwrap());
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
        // plus at 0 (1 word), fetch at 4 (2 words: the imm word at 8 is
        // not an instruction start), data at 12 is data, not code.
        assert_eq!(obj.instr_addrs(), &[0, 4]);
        assert_eq!(obj.line_for(0), Some(1));
        assert_eq!(obj.line_for(4), Some(2));
        assert_eq!(obj.line_for(8), None, "immediate word is not an instruction");
        assert_eq!(obj.line_for(12), None, "data word is not an instruction");
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
