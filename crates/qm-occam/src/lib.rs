//! OCCAM compiler for the indexed queue machine (thesis Chapter 4).
//!
//! The compiler mirrors the thesis's pass structure (Fig. 4.21):
//!
//! * [`lex`] / [`parse`] — *scanparse*: OCCAM text → syntax tree.
//! * [`sema`] — *semantic*: scope checking, renaming, array layout.
//! * [`ift`] — *dataflow*: the Intermediate Form Table with I/O/E sets,
//!   use/definition chains and live-value analysis (Tables 4.1–4.3,
//!   Figs 4.11–4.12).
//! * [`graph`] / [`codegen`] — *grapher*: per-context acyclic data-flow
//!   graphs (a [`qm_core::dfg::Dag`] of actors) with control-token
//!   sequencing for side effects (§4.6), inputs ordered by the §4.5
//!   weights `W(v)` of [`qm_core::dfg::analysis`], and the dynamic
//!   graph-splicing protocol (`rfork`/`ifork`/channel sends) for `while`,
//!   `if`, `par`, replication and procedure calls (§4.2).
//! * [`emit`] — *sequencer* + *coder*: the Fig. 4.20 priority scheduling
//!   heuristic ([`qm_core::dfg::Dag::schedule_by`]), queue-position
//!   assignment (§3.6) and instruction emission into one
//!   [`qm_isa::asm::Listing`].
//!
//! [`compile`] links that listing straight into object code runnable on
//! [`qm_sim`](../qm_sim/index.html); no text is parsed on the way.
//! The assembly text ([`Compiled::asm`], [`codegen::generate`]) is the
//! listing printed by qm-isa, which [`qm_isa::asm::assemble`] reads back
//! to the same object.
//!
//! # Limits
//!
//! A program may nest at most [`parse::MAX_NESTING`] (64) levels:
//! constructs, declaration scopes, expression levels and the bodies of
//! called procedures, counted from the outermost process. Every pass
//! after the parser walks the syntax tree recursively; at the cap each
//! fits a 2 MiB thread stack with room to spare, debug builds included,
//! so a deeper program fails with [`CompileError::Parse`] at its
//! offending line instead of overflowing the compiling thread's stack.
//! Source length is the caller's to bound: `qm-serve` takes request
//! bodies of at most 1 MiB. The bundled workloads nest 13 to 18 levels.
//!
//! # Example
//!
//! ```
//! let src = "\
//! var sum:
//! seq
//!   sum := 0
//!   seq k = [1 for 10]
//!     sum := sum + k
//!   screen ! sum
//! ";
//! let compiled = qm_occam::compile(src, &qm_occam::Options::default())?;
//! assert!(compiled.asm.contains("send")); // reports on the host channel
//! # Ok::<(), qm_occam::CompileError>(())
//! ```

pub mod ast;
pub mod codegen;
pub mod draw;
pub mod emit;
pub mod graph;
pub mod ift;
pub mod interp;
pub mod lex;
pub mod parse;
pub mod sema;

/// Compiler options (the Table 6.6 optimization toggles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Options {
    /// Live-value analysis: prune context interfaces down to live values
    /// (off = transmit every scalar in scope).
    pub live_value_analysis: bool,
    /// Input sequencing: order context inputs by the `π_I` weights of
    /// §4.5 (off = declaration order).
    pub input_sequencing: bool,
    /// Instruction scheduling: the Fig. 4.20 actor-priority heuristic
    /// (off = plain topological order).
    pub priority_scheduling: bool,
    /// Unroll small constant-bound `seq` replications of primitive
    /// statements into their enclosing context — the §4.3 context-size
    /// trade-off, biased toward larger acyclic graphs.
    pub loop_unrolling: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            live_value_analysis: true,
            input_sequencing: true,
            priority_scheduling: true,
            loop_unrolling: true,
        }
    }
}

/// A compiled program.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// Queue machine assembly text (one context per label): the printed
    /// listing the object was linked from.
    pub asm: String,
    /// Linked object code.
    pub object: qm_isa::asm::Object,
    /// Number of contexts emitted (code-generating graph partitions).
    pub context_count: usize,
    /// Bytes of global data allocated to arrays.
    pub data_bytes: u32,
    /// Resolved symbol table (array addresses etc.).
    pub syms: std::collections::HashMap<String, sema::SymKind>,
}

/// Compilation failure from any pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Lexing/parsing failed.
    Parse(String),
    /// Semantic analysis failed.
    Sema(String),
    /// Code generation failed, or its output does not fit the code
    /// segment.
    Codegen(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(m) => write!(f, "parse: {m}"),
            CompileError::Sema(m) => write!(f, "sema: {m}"),
            CompileError::Codegen(m) => write!(f, "codegen: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compile OCCAM source to queue-machine object code: the emitted
/// listing is linked directly, and printed for [`Compiled::asm`].
///
/// # Errors
///
/// [`CompileError`] naming the failing pass.
pub fn compile(src: &str, options: &Options) -> Result<Compiled, CompileError> {
    let ast = parse::parse(src).map_err(|e| CompileError::Parse(e.to_string()))?;
    let resolved = sema::analyse(&ast).map_err(|e| CompileError::Sema(e.to_string()))?;
    let linked = codegen::with_listing(&resolved, options, |listing, n| {
        let object = listing.link().map_err(|e| e.to_string())?;
        Ok((object, listing.to_string(), n))
    });
    let (object, asm, context_count) =
        linked.map_err(|e| e.to_string()).and_then(|r| r).map_err(CompileError::Codegen)?;
    Ok(Compiled {
        asm,
        object,
        context_count,
        data_bytes: resolved.data_bytes,
        syms: resolved.syms,
    })
}
