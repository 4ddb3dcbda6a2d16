//! The queue machine processing element (thesis Chapter 5).
//!
//! * [`isa`] — the 32-bit instruction set: four-address basic format,
//!   `dup` format, source operand modes (Table 5.1) and the opcode set
//!   (Table 5.2).
//! * [`asm`] — assembler, linker and printer for the thesis assembly
//!   syntax (`opcode[+n] [src1[,src2]] [:dst1[,dst2]] [>]`).
//! * [`regs`] — the register file: 16 sliding *window registers* with
//!   presence bits, 16 global registers (PC, QP, POM, NAR among them),
//!   virtual→physical register translation and queue paging (Figs 5.1–5.5).
//! * [`mem`] — the memory interface: address-space map and the
//!   [`mem::DataPort`] trait by which the PE reaches memory (locally flat
//!   in unit tests, bus-arbitrated in `qm-sim`).
//! * [`pe`] — the cycle-counting processing element emulator, with kernel
//!   and channel services abstracted behind [`pe::Services`].
//!
//! # Example: assemble and run a tiny program
//!
//! ```
//! use qm_isa::asm::assemble;
//! use qm_isa::pe::{Pe, NullServices, StepResult};
//! use qm_isa::mem::FlatMemory;
//!
//! // (2+3)+0 → discarded, then trap #3 (halt).
//! let obj = assemble(
//!     "start: plus #2,#3 :r0\n\
//!             plus+1 r0,#0 :dummy\n\
//!             trap #3,#0\n",
//! )?;
//! let mut mem = FlatMemory::new();
//! mem.load_words(qm_isa::mem::CODE_BASE, obj.words());
//! let mut pe = Pe::new(0);
//! pe.reset(qm_isa::mem::CODE_BASE, 0x8000_0400);
//! let mut svc = NullServices::default();
//! loop {
//!     match pe.step(&mut mem, &mut svc) {
//!         StepResult::Continue => {}
//!         StepResult::Trap { entry: 3, .. } => break,
//!         other => panic!("unexpected {other:?}"),
//!     }
//! }
//! # Ok::<(), qm_isa::IsaError>(())
//! ```

pub mod asm;
pub mod decoded;
pub mod isa;
pub mod mem;
pub mod pe;
pub mod regs;

pub use decoded::{DecodedInstr, XSrc};
pub use isa::{Instruction, Opcode, SrcMode};
pub use pe::{CycleModel, Pe, StepResult};

/// Machine word (32-bit, two's complement) — same as [`qm_core::Word`].
pub type Word = i32;

/// Unsigned view of a machine word (addresses, encodings).
pub type UWord = u32;

/// Errors from the assembler, encoder and emulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsaError {
    /// Assembly source was malformed.
    Asm {
        /// 1-based source line.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// An instruction word could not be decoded.
    Decode {
        /// The offending word.
        word: u32,
        /// What went wrong.
        msg: String,
    },
    /// A field value was out of range while encoding.
    Encode(String),
}

impl std::fmt::Display for IsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IsaError::Asm { line, msg } => write!(f, "assembly error at line {line}: {msg}"),
            IsaError::Decode { word, msg } => {
                write!(f, "cannot decode {word:#010x}: {msg}")
            }
            IsaError::Encode(msg) => write!(f, "cannot encode: {msg}"),
        }
    }
}

impl std::error::Error for IsaError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, IsaError>;
