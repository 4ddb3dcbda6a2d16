//! Golden digests of the front end's output over a fixed corpus.
//!
//! The corpus is the benchmark's `compile_cold` deck (matmul,
//! congruence and cholesky at 2–5, fft at 4 and 8, reduction at 4, 8
//! and 16, each under all 16 option masks: 272 programs), plus five
//! larger programs under the default mask and under mask 7 (every
//! optimisation but loop unrolling): matmul(12), matmul(16),
//! congruence(16), fft(32) and reduction(64). Of these, matmul(12),
//! matmul(16) and congruence(16) overflow a queue page when unrolled and
//! take `generate`'s retry without unrolling.
//!
//! One checksum covers every `codegen::generate` text, one every
//! `Object`: its words, its symbols sorted by name, its instruction
//! addresses and the source line of each instruction. The object digest
//! holds twice over: for the object `compile` links from its emitted
//! listing, and for the assembler's object from the printed text, so the
//! assembler is the emitter's oracle. `compile`'s text is `generate`'s,
//! and its context count is the number of `trap #2,#0` lines in it. The
//! code generator and the assembler may change freely inside; these
//! digests may not.
//!
//! A second test checks the queue-page retry itself: which of the large
//! programs overflow when unrolled, that the overflow is reported as a
//! typed error, and that the retry's output is the unrolling-free one.

use queue_machine::core::rng::checksum;
use queue_machine::isa::asm::{assemble, Object};
use queue_machine::occam::emit::emit_context;
use queue_machine::occam::sema::Resolved;
use queue_machine::occam::{codegen, compile, parse, sema, Options};
use queue_machine::workloads::{cholesky, congruence, fft, matmul, reduction, Workload};

/// Digest of every `generate` text, in corpus order.
const TEXT_DIGEST: u64 = 0x66ba_75dd_29a0_133f;
/// Digest of every assembled object, in corpus order.
const OBJECT_DIGEST: u64 = 0x8cca_79b2_0b4c_9e97;

fn options(mask: u8) -> Options {
    Options {
        live_value_analysis: mask & 1 != 0,
        input_sequencing: mask & 2 != 0,
        priority_scheduling: mask & 4 != 0,
        loop_unrolling: mask & 8 != 0,
    }
}

/// The `(program, mask)` pairs, in a fixed order.
fn corpus() -> Vec<(Workload, u8)> {
    let deck = (2..=5)
        .map(matmul)
        .chain((2..=5).map(congruence))
        .chain((2..=5).map(cholesky))
        .chain([4, 8].map(fft))
        .chain([4, 8, 16].map(reduction));
    let mut out: Vec<(Workload, u8)> =
        deck.flat_map(|w| (0..16).map(move |mask| (w.clone(), mask))).collect();
    let large = [matmul(12), matmul(16), congruence(16), fft(32), reduction(64)];
    for w in large {
        out.push((w.clone(), 15));
        out.push((w, 7));
    }
    out
}

fn resolve(w: &Workload) -> Resolved {
    sema::analyse(&parse::parse(&w.source).expect("parses")).expect("resolves")
}

/// The object's words, sorted symbols, instruction addresses and the
/// line of each instruction, as little-endian bytes.
fn object_bytes(obj: &Object, out: &mut Vec<u8>) {
    for w in obj.words() {
        out.extend(w.to_le_bytes());
    }
    let mut symbols: Vec<(&String, &u32)> = obj.symbols().iter().collect();
    symbols.sort();
    for (name, addr) in symbols {
        out.extend(name.as_bytes());
        out.push(0);
        out.extend(addr.to_le_bytes());
    }
    for &addr in obj.instr_addrs() {
        let line = obj.line_for(addr).expect("every instruction has a line");
        out.extend(addr.to_le_bytes());
        out.extend((line as u64).to_le_bytes());
    }
    out.push(b'\n');
}

#[test]
fn front_end_output_matches_the_golden_digests() {
    let corpus = corpus();
    assert_eq!(corpus.len(), 282);
    let (mut texts, mut emitted, mut assembled) = (Vec::new(), Vec::new(), Vec::new());
    for (w, mask) in &corpus {
        let (at, opts) = (format!("{} mask {mask}", w.name), options(*mask));
        let text = codegen::generate(&resolve(w), &opts).unwrap_or_else(|e| panic!("{at}: {e}"));
        let obj = assemble(&text).unwrap_or_else(|e| panic!("{at}: {e}"));
        let compiled = compile(&w.source, &opts).unwrap_or_else(|e| panic!("{at}: {e}"));
        assert!(compiled.asm == text, "{at}: compile prints generate's text");
        assert!(compiled.object == obj, "{at}: the emitted object is the assembled one");
        assert_eq!(compiled.context_count, text.matches("trap #2,#0").count(), "{at}");
        texts.extend(text.as_bytes());
        texts.push(b'\n');
        object_bytes(&compiled.object, &mut emitted);
        object_bytes(&obj, &mut assembled);
    }
    let digests = (checksum(&texts), checksum(&emitted), checksum(&assembled));
    assert_eq!(
        digests,
        (TEXT_DIGEST, OBJECT_DIGEST, OBJECT_DIGEST),
        "front-end output changed: (text, emitted object, assembled object) digests are \
         ({:#018x}, {:#018x}, {:#018x})",
        digests.0,
        digests.1,
        digests.2
    );
}

/// The first, unrolled attempt at the program: `Err` when a context
/// overflows its queue page.
fn unrolled_attempt(resolved: &Resolved) -> Result<(), codegen::CodegenError> {
    let opts = Options::default();
    let graphs = codegen::context_graphs(resolved, &opts).expect("builds");
    for (label, graph) in &graphs {
        emit_context(label, graph, opts.priority_scheduling)?;
    }
    Ok(())
}

#[test]
fn page_overflow_retries_without_unrolling() {
    let large = [(matmul(12), true), (matmul(16), true), (congruence(16), true)]
        .into_iter()
        .chain([(fft(32), false), (reduction(64), false)]);
    for (w, overflows) in large {
        let resolved = resolve(&w);
        let first = unrolled_attempt(&resolved);
        assert_eq!(first.is_err(), overflows, "{}: {first:?}", w.name);
        if let Err(e) = first {
            assert!(e.to_string().ends_with("exceeds the queue page"), "{}: {e}", w.name);
            let rolled = Options { loop_unrolling: false, ..Options::default() };
            assert_eq!(
                codegen::generate(&resolved, &Options::default()),
                codegen::generate(&resolved, &rolled),
                "{}: the retry compiles without unrolling",
                w.name
            );
        }
    }
}
