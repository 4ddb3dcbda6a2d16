//! Instruction set of the queue machine PE (thesis §5.3, Tables 5.1–5.2).
//!
//! All instructions are one 32-bit word, optionally followed by immediate
//! constant words. Two formats exist:
//!
//! **Basic format** (Fig. 5.6) — four-address:
//!
//! ```text
//! 31      26 25    20 19    14 13   9 8    4 3    1 0
//! [ opcode ] [ src1 ] [ src2 ] [dst1 ] [dst2 ] [qp+ ] [c]
//! ```
//!
//! **Dup format** (Fig. 5.7) — two 8-bit queue offsets:
//!
//! ```text
//! 31      26 25        18 17        10 9ꞏꞏꞏ1 0
//! [ opcode ] [  dst1 8b  ] [  dst2 8b  ] [ 0 ] [c]
//! ```
//!
//! Source operand modes (Table 5.1): `00nnnn` window register, `01nnnn`
//! global register, `110000` immediate word follows, `1nnnnn` small
//! immediate −15…15.

use crate::{IsaError, Result, Word};

/// Register number of the DUMMY destination (results written here are
/// discarded). By the thesis convention this is `R16`, the first global.
pub const REG_DUMMY: u8 = 16;
/// Register number of the NAK address register.
pub const REG_NAR: u8 = 28;
/// Register number of the page offset mask.
pub const REG_POM: u8 = 29;
/// Register number of the queue pointer.
pub const REG_QP: u8 = 30;
/// Register number of the program counter.
pub const REG_PC: u8 = 31;

/// Operation codes (Table 5.2, octal). `mul`/`div`/`mod` fill the space
/// the thesis explicitly reserves in the arithmetic class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // the variants mirror Table 5.2 one-to-one
pub enum Opcode {
    Dup1,
    Dup2,
    Send,
    Store,
    Storb,
    Recv,
    Fetch,
    Fchb,
    Or,
    And,
    Xor,
    Lshift,
    Rshift,
    Plus,
    Minus,
    Mul,
    Div,
    Mod,
    Ge,
    Ne,
    Gt,
    Lt,
    Eq,
    Le,
    His,
    Hi,
    Lo,
    Los,
    Bne,
    Beq,
    Ftrap,
    Trap,
    Fret,
    Rett,
}

impl Opcode {
    /// All opcodes with their octal codes, Table 5.2 order.
    pub const ALL: [(Opcode, u8); 34] = [
        (Opcode::Dup1, 0o00),
        (Opcode::Dup2, 0o04),
        (Opcode::Send, 0o10),
        (Opcode::Store, 0o11),
        (Opcode::Storb, 0o13),
        (Opcode::Recv, 0o14),
        (Opcode::Fetch, 0o15),
        (Opcode::Fchb, 0o17),
        (Opcode::Or, 0o20),
        (Opcode::And, 0o21),
        (Opcode::Xor, 0o22),
        (Opcode::Lshift, 0o23),
        (Opcode::Rshift, 0o24),
        (Opcode::Plus, 0o30),
        (Opcode::Minus, 0o31),
        (Opcode::Mul, 0o32),
        (Opcode::Div, 0o33),
        (Opcode::Mod, 0o34),
        (Opcode::Ge, 0o41),
        (Opcode::Ne, 0o42),
        (Opcode::Gt, 0o43),
        (Opcode::Lt, 0o45),
        (Opcode::Eq, 0o46),
        (Opcode::Le, 0o47),
        (Opcode::His, 0o50),
        (Opcode::Hi, 0o52),
        (Opcode::Lo, 0o54),
        (Opcode::Los, 0o56),
        (Opcode::Bne, 0o62),
        (Opcode::Beq, 0o66),
        (Opcode::Ftrap, 0o70),
        (Opcode::Trap, 0o71),
        (Opcode::Fret, 0o74),
        (Opcode::Rett, 0o75),
    ];

    /// Dense decode table indexed by the 6-bit opcode value, built at
    /// compile time from [`Opcode::ALL`]. Decode sits on the simulator's
    /// hottest path (once per simulated instruction), so the lookup must
    /// not scan the table.
    const FROM_CODE: [Option<Opcode>; 64] = {
        let mut t = [None; 64];
        let mut i = 0;
        while i < Self::ALL.len() {
            let (op, code) = Self::ALL[i];
            t[code as usize] = Some(op);
            i += 1;
        }
        t
    };

    /// [`Opcode::code`] by variant, filled at compile time from
    /// [`Opcode::ALL`].
    const CODE: [u8; 34] = {
        let mut t = [0; 34];
        let mut i = 0;
        while i < Self::ALL.len() {
            let (op, code) = Self::ALL[i];
            t[op as usize] = code;
            i += 1;
        }
        t
    };

    /// The 6-bit opcode value.
    #[must_use]
    pub fn code(self) -> u8 {
        Self::CODE[self as usize]
    }

    /// Decode a 6-bit opcode value.
    #[inline]
    #[must_use]
    pub fn from_code(code: u8) -> Option<Opcode> {
        if code < 64 {
            Self::FROM_CODE[code as usize]
        } else {
            None
        }
    }

    /// Assembly mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Dup1 => "dup1",
            Opcode::Dup2 => "dup2",
            Opcode::Send => "send",
            Opcode::Store => "store",
            Opcode::Storb => "storb",
            Opcode::Recv => "recv",
            Opcode::Fetch => "fetch",
            Opcode::Fchb => "fchb",
            Opcode::Or => "or",
            Opcode::And => "and",
            Opcode::Xor => "xor",
            Opcode::Lshift => "lshift",
            Opcode::Rshift => "rshift",
            Opcode::Plus => "plus",
            Opcode::Minus => "minus",
            Opcode::Mul => "mul",
            Opcode::Div => "div",
            Opcode::Mod => "mod",
            Opcode::Ge => "ge",
            Opcode::Ne => "ne",
            Opcode::Gt => "gt",
            Opcode::Lt => "lt",
            Opcode::Eq => "eq",
            Opcode::Le => "le",
            Opcode::His => "his",
            Opcode::Hi => "hi",
            Opcode::Lo => "lo",
            Opcode::Los => "los",
            Opcode::Bne => "bne",
            Opcode::Beq => "beq",
            Opcode::Ftrap => "ftrap",
            Opcode::Trap => "trap",
            Opcode::Fret => "fret",
            Opcode::Rett => "rett",
        }
    }

    /// Look up an opcode by mnemonic.
    #[must_use]
    pub fn from_mnemonic(m: &str) -> Option<Opcode> {
        Some(match m {
            "dup1" => Opcode::Dup1,
            "dup2" => Opcode::Dup2,
            "send" => Opcode::Send,
            "store" => Opcode::Store,
            "storb" => Opcode::Storb,
            "recv" => Opcode::Recv,
            "fetch" => Opcode::Fetch,
            "fchb" => Opcode::Fchb,
            "or" => Opcode::Or,
            "and" => Opcode::And,
            "xor" => Opcode::Xor,
            "lshift" => Opcode::Lshift,
            "rshift" => Opcode::Rshift,
            "plus" => Opcode::Plus,
            "minus" => Opcode::Minus,
            "mul" => Opcode::Mul,
            "div" => Opcode::Div,
            "mod" => Opcode::Mod,
            "ge" => Opcode::Ge,
            "ne" => Opcode::Ne,
            "gt" => Opcode::Gt,
            "lt" => Opcode::Lt,
            "eq" => Opcode::Eq,
            "le" => Opcode::Le,
            "his" => Opcode::His,
            "hi" => Opcode::Hi,
            "lo" => Opcode::Lo,
            "los" => Opcode::Los,
            "bne" => Opcode::Bne,
            "beq" => Opcode::Beq,
            "ftrap" => Opcode::Ftrap,
            "trap" => Opcode::Trap,
            "fret" => Opcode::Fret,
            "rett" => Opcode::Rett,
            _ => return None,
        })
    }

    /// True for the `dup` instruction format.
    #[must_use]
    pub fn is_dup(self) -> bool {
        matches!(self, Opcode::Dup1 | Opcode::Dup2)
    }

    /// Apply a pure two-operand ALU/compare operation.
    ///
    /// Returns `None` for operations with side effects (memory, channel,
    /// branch, trap, dup), whose semantics live in the PE emulator.
    /// Division by zero yields 0 with no fault (the emulator raises a NAK
    /// separately if configured to).
    #[inline]
    #[must_use]
    pub fn alu(self, a: Word, b: Word) -> Option<Word> {
        let bool_word = |v: bool| if v { -1 } else { 0 };
        #[allow(clippy::cast_sign_loss)]
        let (ua, ub) = (a as u32, b as u32);
        Some(match self {
            Opcode::Or => a | b,
            Opcode::And => a & b,
            Opcode::Xor => a ^ b,
            Opcode::Lshift => a.wrapping_shl(b.rem_euclid(32) as u32),
            Opcode::Rshift => a.wrapping_shr(b.rem_euclid(32) as u32),
            Opcode::Plus => a.wrapping_add(b),
            Opcode::Minus => a.wrapping_sub(b),
            Opcode::Mul => a.wrapping_mul(b),
            Opcode::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            Opcode::Mod => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            Opcode::Ge => bool_word(a >= b),
            Opcode::Ne => bool_word(a != b),
            Opcode::Gt => bool_word(a > b),
            Opcode::Lt => bool_word(a < b),
            Opcode::Eq => bool_word(a == b),
            Opcode::Le => bool_word(a <= b),
            Opcode::His => bool_word(ua >= ub),
            Opcode::Hi => bool_word(ua > ub),
            Opcode::Lo => bool_word(ua < ub),
            Opcode::Los => bool_word(ua <= ub),
            _ => return None,
        })
    }
}

impl std::fmt::Display for Opcode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A source operand specifier (Table 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SrcMode {
    /// One of the 16 virtual window registers `r0…r15`.
    Window(u8),
    /// One of the 16 global registers `r16…r31` (stored as 16…31).
    Global(u8),
    /// Small immediate constant, −15…15.
    Imm(i8),
    /// Full-word immediate following the instruction; the value is kept
    /// alongside for convenience but is encoded as a separate word.
    ImmWord(Word),
}

impl SrcMode {
    /// Encode to the 6-bit source field. An [`SrcMode::ImmWord`]'s value
    /// is *not* part of the field — the caller emits it as the next word.
    ///
    /// # Errors
    ///
    /// Out-of-range register numbers or immediates.
    pub fn encode(self) -> Result<u8> {
        match self {
            SrcMode::Window(n) if n < 16 => Ok(n),
            SrcMode::Window(n) => Err(IsaError::Encode(format!("window register {n} > 15"))),
            SrcMode::Global(n) if (16..32).contains(&n) => Ok(0b01_0000 | (n - 16)),
            SrcMode::Global(n) => {
                Err(IsaError::Encode(format!("global register {n} not in 16..32")))
            }
            SrcMode::Imm(v) if (-15..=15).contains(&v) =>
            {
                #[allow(clippy::cast_sign_loss)]
                Ok(0b10_0000 | ((v as u8) & 0b1_1111))
            }
            SrcMode::Imm(v) => {
                Err(IsaError::Encode(format!("small immediate {v} not in -15..=15")))
            }
            SrcMode::ImmWord(_) => Ok(0b11_0000),
        }
    }

    /// Decode a 6-bit source field. [`SrcMode::ImmWord`] is returned with
    /// a placeholder value of 0; the caller patches in the following word.
    #[inline]
    #[must_use]
    pub fn decode(field: u8) -> SrcMode {
        let field = field & 0b11_1111;
        match field >> 4 {
            0b00 => SrcMode::Window(field & 0xF),
            0b01 => SrcMode::Global(16 + (field & 0xF)),
            _ => {
                if field == 0b11_0000 {
                    SrcMode::ImmWord(0)
                } else {
                    // Sign-extend the low 5 bits.
                    let v = ((field & 0b1_1111) << 3) as i8 >> 3;
                    SrcMode::Imm(v)
                }
            }
        }
    }

    /// Write the operand in assembly syntax (`rN` or `#n`).
    pub(crate) fn write_to(self, w: &mut impl std::fmt::Write) -> std::fmt::Result {
        match self {
            SrcMode::Window(n) | SrcMode::Global(n) => write_num(w, "r", n.into()),
            SrcMode::Imm(v) => write_num(w, "#", v.into()),
            SrcMode::ImmWord(v) => write_num(w, "#", v),
        }
    }

    /// True when an immediate word follows the instruction.
    #[must_use]
    pub fn needs_word(self) -> bool {
        matches!(self, SrcMode::ImmWord(_))
    }

    /// The immediate `#v`: small when it fits −15…15, else a full word.
    #[must_use]
    pub fn imm(v: Word) -> SrcMode {
        match i8::try_from(v) {
            Ok(small) if (-15..=15).contains(&small) => SrcMode::Imm(small),
            _ => SrcMode::ImmWord(v),
        }
    }
}

impl std::fmt::Display for SrcMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.write_to(f)
    }
}

/// Write `prefix`, then `n` in decimal; a single digit skips the integer
/// formatter (the printer writes many small register numbers).
pub(crate) fn write_num(w: &mut impl std::fmt::Write, prefix: &str, n: Word) -> std::fmt::Result {
    w.write_str(prefix)?;
    match u8::try_from(n) {
        Ok(d) if d < 10 => w.write_char(char::from(b'0' + d)),
        _ => write!(w, "{n}"),
    }
}

/// A decoded instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instruction {
    /// The four-address basic format.
    Basic {
        /// Operation.
        op: Opcode,
        /// First source operand.
        src1: SrcMode,
        /// Second source operand.
        src2: SrcMode,
        /// First destination register (16 = DUMMY = discard).
        dst1: u8,
        /// Second destination register (16 = DUMMY = discard).
        dst2: u8,
        /// Words removed from the queue front (0–7).
        qp_inc: u8,
        /// Continue flag: the next instruction uses this result;
        /// no context switch may intervene.
        cont: bool,
    },
    /// The `dup` format: store the previous result at queue offsets.
    Dup {
        /// `dup2` stores at both offsets; `dup1` only at the first.
        two: bool,
        /// First queue word offset (0–255).
        off1: u8,
        /// Second queue word offset (0–255), used by `dup2`.
        off2: u8,
        /// Continue flag.
        cont: bool,
    },
}

impl Instruction {
    /// Shorthand for a basic instruction with no destinations and no
    /// queue increment.
    #[must_use]
    pub fn basic(op: Opcode, src1: SrcMode, src2: SrcMode) -> Self {
        Instruction::Basic {
            op,
            src1,
            src2,
            dst1: REG_DUMMY,
            dst2: REG_DUMMY,
            qp_inc: 0,
            cont: false,
        }
    }

    /// Total encoded size in words (1 + immediate words).
    #[must_use]
    pub fn size_words(&self) -> usize {
        match self {
            Instruction::Basic { src1, src2, .. } => {
                1 + usize::from(src1.needs_word()) + usize::from(src2.needs_word())
            }
            Instruction::Dup { .. } => 1,
        }
    }

    /// Encode the instruction into one or more 32-bit words.
    ///
    /// # Errors
    ///
    /// Field values out of range.
    pub fn encode(&self) -> Result<Vec<u32>> {
        let mut out = Vec::with_capacity(3);
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// Append the instruction's words to `out`; see [`Self::encode`]. On
    /// error `out` is unchanged.
    ///
    /// # Errors
    ///
    /// Field values out of range.
    pub(crate) fn encode_into(&self, out: &mut Vec<u32>) -> Result<()> {
        match *self {
            Instruction::Basic { op, src1, src2, dst1, dst2, qp_inc, cont } => {
                if op.is_dup() {
                    return Err(IsaError::Encode("dup uses the dup format".into()));
                }
                if dst1 > 31 || dst2 > 31 {
                    return Err(IsaError::Encode(format!(
                        "destination out of range: {dst1},{dst2}"
                    )));
                }
                if qp_inc > 7 {
                    return Err(IsaError::Encode(format!("qp increment {qp_inc} > 7")));
                }
                let mut word = u32::from(op.code()) << 26;
                word |= u32::from(src1.encode()?) << 20;
                word |= u32::from(src2.encode()?) << 14;
                word |= u32::from(dst1) << 9;
                word |= u32::from(dst2) << 4;
                word |= u32::from(qp_inc) << 1;
                word |= u32::from(cont);
                out.push(word);
                if let SrcMode::ImmWord(v) = src1 {
                    #[allow(clippy::cast_sign_loss)]
                    out.push(v as u32);
                }
                if let SrcMode::ImmWord(v) = src2 {
                    #[allow(clippy::cast_sign_loss)]
                    out.push(v as u32);
                }
                Ok(())
            }
            Instruction::Dup { two, off1, off2, cont } => {
                let op = if two { Opcode::Dup2 } else { Opcode::Dup1 };
                let mut word = u32::from(op.code()) << 26;
                word |= u32::from(off1) << 18;
                word |= u32::from(off2) << 10;
                word |= u32::from(cont);
                out.push(word);
                Ok(())
            }
        }
    }

    /// Decode an instruction starting at `words[0]`; immediate words are
    /// taken from the following slice entries. Returns the instruction
    /// and the number of words consumed.
    ///
    /// # Errors
    ///
    /// Unknown opcode, or missing immediate words.
    pub fn decode(words: &[u32]) -> Result<(Instruction, usize)> {
        let Some(&w) = words.first() else {
            return Err(IsaError::Decode { word: 0, msg: "empty instruction stream".into() });
        };
        let code = ((w >> 26) & 0x3F) as u8;
        let Some(op) = Opcode::from_code(code) else {
            return Err(IsaError::Decode { word: w, msg: format!("unknown opcode {code:#o}") });
        };
        if op.is_dup() {
            let two = op == Opcode::Dup2;
            return Ok((
                Instruction::Dup {
                    two,
                    off1: ((w >> 18) & 0xFF) as u8,
                    // dup1 ignores the second offset at execution time, but
                    // the bits are still architecturally present in the
                    // word; preserve them so decode is a faithful inverse
                    // of encode for every Dup value.
                    off2: ((w >> 10) & 0xFF) as u8,
                    cont: w & 1 != 0,
                },
                1,
            ));
        }
        let mut used = 1usize;
        let mut take_imm = |mode: SrcMode| -> Result<SrcMode> {
            if let SrcMode::ImmWord(_) = mode {
                let Some(&v) = words.get(used) else {
                    return Err(IsaError::Decode { word: w, msg: "missing immediate word".into() });
                };
                used += 1;
                #[allow(clippy::cast_possible_wrap)]
                Ok(SrcMode::ImmWord(v as Word))
            } else {
                Ok(mode)
            }
        };
        let src1 = take_imm(SrcMode::decode(((w >> 20) & 0x3F) as u8))?;
        let src2 = take_imm(SrcMode::decode(((w >> 14) & 0x3F) as u8))?;
        Ok((
            Instruction::Basic {
                op,
                src1,
                src2,
                dst1: ((w >> 9) & 0x1F) as u8,
                dst2: ((w >> 4) & 0x1F) as u8,
                qp_inc: ((w >> 1) & 0x7) as u8,
                cont: w & 1 != 0,
            },
            used,
        ))
    }

    /// Write the instruction in assembly syntax, with `src(f, i, mode)`
    /// writing source operand `i` (0 or 1).
    pub(crate) fn write_with<W: std::fmt::Write>(
        &self,
        f: &mut W,
        src: impl Fn(&mut W, usize, SrcMode) -> std::fmt::Result,
    ) -> std::fmt::Result {
        match self {
            Instruction::Basic { op, src1, src2, dst1, dst2, qp_inc, cont } => {
                f.write_str(op.mnemonic())?;
                if *qp_inc > 0 {
                    write_num(f, "+", (*qp_inc).into())?;
                }
                f.write_str(" ")?;
                src(f, 0, *src1)?;
                f.write_str(",")?;
                src(f, 1, *src2)?;
                if *dst1 != REG_DUMMY || *dst2 != REG_DUMMY {
                    write_num(f, " :r", (*dst1).into())?;
                }
                if *dst2 != REG_DUMMY {
                    write_num(f, ",r", (*dst2).into())?;
                }
                f.write_str(if *cont { " >" } else { "" })
            }
            Instruction::Dup { two, off1, off2, cont } => {
                f.write_str(if *two { "dup2" } else { "dup1" })?;
                write_num(f, " :r", (*off1).into())?;
                // dup1 ignores the second offset, but it is encoded in the
                // word; keep it visible so the disassembly reassembles to
                // the same bits.
                if *two || *off2 != 0 {
                    write_num(f, ",r", (*off2).into())?;
                }
                f.write_str(if *cont { " >" } else { "" })
            }
        }
    }
}

impl std::fmt::Display for Instruction {
    /// Thesis assembly syntax: `opcode+n src1,src2 :dst1,dst2 >`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.write_with(f, |f, _, src| src.write_to(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_codes_are_unique_and_round_trip() {
        for &(op, code) in &Opcode::ALL {
            assert_eq!(op.code(), code);
            assert_eq!(Opcode::from_code(code), Some(op));
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op));
        }
        let mut codes: Vec<u8> = Opcode::ALL.iter().map(|&(_, c)| c).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), Opcode::ALL.len());
    }

    #[test]
    fn table_5_2_octal_assignments() {
        assert_eq!(Opcode::Dup1.code(), 0o00);
        assert_eq!(Opcode::Dup2.code(), 0o04);
        assert_eq!(Opcode::Send.code(), 0o10);
        assert_eq!(Opcode::Store.code(), 0o11);
        assert_eq!(Opcode::Storb.code(), 0o13);
        assert_eq!(Opcode::Recv.code(), 0o14);
        assert_eq!(Opcode::Fetch.code(), 0o15);
        assert_eq!(Opcode::Fchb.code(), 0o17);
        assert_eq!(Opcode::Plus.code(), 0o30);
        assert_eq!(Opcode::Minus.code(), 0o31);
        assert_eq!(Opcode::Ge.code(), 0o41);
        assert_eq!(Opcode::Bne.code(), 0o62);
        assert_eq!(Opcode::Beq.code(), 0o66);
        assert_eq!(Opcode::Ftrap.code(), 0o70);
        assert_eq!(Opcode::Trap.code(), 0o71);
        assert_eq!(Opcode::Fret.code(), 0o74);
        assert_eq!(Opcode::Rett.code(), 0o75);
    }

    #[test]
    fn src_mode_encode_decode_round_trip() {
        let modes = [
            SrcMode::Window(0),
            SrcMode::Window(15),
            SrcMode::Global(16),
            SrcMode::Global(31),
            SrcMode::Imm(-15),
            SrcMode::Imm(0),
            SrcMode::Imm(15),
            SrcMode::ImmWord(0),
        ];
        for m in modes {
            let enc = m.encode().unwrap();
            assert_eq!(SrcMode::decode(enc), m, "mode {m:?}");
        }
    }

    #[test]
    fn dup_encode_decode_round_trips_for_all_field_values() {
        // dup1's second offset is a don't-care for execution but is
        // preserved in the word; decode must return exactly what encode
        // was given for every combination (regression seed:
        // Dup { two: false, off1: 0, off2: 1, cont: false }).
        for two in [false, true] {
            for (off1, off2) in [(0, 0), (0, 1), (30, 0), (7, 255), (255, 255)] {
                for cont in [false, true] {
                    let i = Instruction::Dup { two, off1, off2, cont };
                    let words = i.encode().unwrap();
                    let (d, used) = Instruction::decode(&words).unwrap();
                    assert_eq!(used, 1);
                    assert_eq!(d, i);
                }
            }
        }
    }

    #[test]
    fn src_mode_rejects_out_of_range() {
        assert!(SrcMode::Window(16).encode().is_err());
        assert!(SrcMode::Global(5).encode().is_err());
        assert!(SrcMode::Imm(16).encode().is_err());
        assert!(SrcMode::Imm(-16).encode().is_err());
    }

    #[test]
    fn basic_instruction_round_trip() {
        let i = Instruction::Basic {
            op: Opcode::Plus,
            src1: SrcMode::Window(0),
            src2: SrcMode::Window(1),
            dst1: 0,
            dst2: 2,
            qp_inc: 2,
            cont: true,
        };
        let words = i.encode().unwrap();
        assert_eq!(words.len(), 1);
        let (decoded, used) = Instruction::decode(&words).unwrap();
        assert_eq!(used, 1);
        assert_eq!(decoded, i);
    }

    #[test]
    fn immediate_word_round_trip() {
        let i = Instruction::Basic {
            op: Opcode::Fetch,
            src1: SrcMode::ImmWord(0x1234_5678),
            src2: SrcMode::Imm(0),
            dst1: 0,
            dst2: REG_DUMMY,
            qp_inc: 0,
            cont: false,
        };
        let words = i.encode().unwrap();
        assert_eq!(words.len(), 2);
        let (decoded, used) = Instruction::decode(&words).unwrap();
        assert_eq!(used, 2);
        assert_eq!(decoded, i);
    }

    #[test]
    fn two_immediate_words_round_trip() {
        let i = Instruction::Basic {
            op: Opcode::Store,
            src1: SrcMode::ImmWord(-7),
            src2: SrcMode::ImmWord(42),
            dst1: REG_DUMMY,
            dst2: REG_DUMMY,
            qp_inc: 0,
            cont: false,
        };
        let words = i.encode().unwrap();
        assert_eq!(words.len(), 3);
        let (decoded, used) = Instruction::decode(&words).unwrap();
        assert_eq!(used, 3);
        assert_eq!(decoded, i);
    }

    #[test]
    fn dup_round_trip() {
        let i = Instruction::Dup { two: true, off1: 0, off2: 255, cont: false };
        let words = i.encode().unwrap();
        let (decoded, used) = Instruction::decode(&words).unwrap();
        assert_eq!(used, 1);
        assert_eq!(decoded, i);
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(Opcode::Plus.alu(2, 3), Some(5));
        assert_eq!(Opcode::Minus.alu(2, 3), Some(-1));
        assert_eq!(Opcode::Mul.alu(-4, 3), Some(-12));
        assert_eq!(Opcode::Div.alu(7, 2), Some(3));
        assert_eq!(Opcode::Div.alu(7, 0), Some(0));
        assert_eq!(Opcode::Lshift.alu(1, 4), Some(16));
        assert_eq!(Opcode::Rshift.alu(-16, 2), Some(-4), "arithmetic shift sign-extends");
        assert_eq!(Opcode::Xor.alu(0b1010, 0b0110), Some(0b1100));
        // Boolean encoding: all ones true, all zeroes false.
        assert_eq!(Opcode::Lt.alu(1, 2), Some(-1));
        assert_eq!(Opcode::Lt.alu(2, 1), Some(0));
        assert_eq!(Opcode::Lo.alu(-1, 1), Some(0), "unsigned: 0xFFFFFFFF is large");
        assert_eq!(Opcode::Hi.alu(-1, 1), Some(-1));
        assert_eq!(Opcode::Fetch.alu(0, 0), None, "memory ops are not pure ALU");
    }

    #[test]
    fn thesis_idioms() {
        // xor r, #-1 = bitwise complement; minus #0, r = negate.
        assert_eq!(Opcode::Xor.alu(0b1010, -1), Some(!0b1010));
        assert_eq!(Opcode::Minus.alu(0, 5), Some(-5));
        // plus r, #0 = move.
        assert_eq!(Opcode::Plus.alu(17, 0), Some(17));
    }

    #[test]
    fn display_matches_thesis_syntax() {
        let i = Instruction::Basic {
            op: Opcode::Plus,
            src1: SrcMode::Window(0),
            src2: SrcMode::Window(1),
            dst1: 0,
            dst2: 2,
            qp_inc: 2,
            cont: true,
        };
        assert_eq!(i.to_string(), "plus+2 r0,r1 :r0,r2 >");
        let d = Instruction::Dup { two: false, off1: 30, off2: 0, cont: false };
        assert_eq!(d.to_string(), "dup1 :r30");
    }

    #[test]
    fn size_in_words() {
        let i = Instruction::basic(Opcode::Plus, SrcMode::ImmWord(1), SrcMode::ImmWord(2));
        assert_eq!(i.size_words(), 3);
        let d = Instruction::Dup { two: false, off1: 0, off2: 0, cont: false };
        assert_eq!(d.size_words(), 1);
    }
}
