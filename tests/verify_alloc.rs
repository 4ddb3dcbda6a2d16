//! Bound on the verifier's heap traffic: the shallow tier makes at most
//! [`MAX_SHALLOW_ALLOCS_PER_WORD`] allocations per object word and the
//! deep tier at most [`MAX_DEEP_ALLOCS_PER_WORD`].
//!
//! The queue and deep passes step every program point under abstract
//! states that are plain `Copy` values, so a transfer step allocates
//! nothing, and the wiring model keeps each instance's queue window in a
//! fixed ring; what remains is per-program setup (the decoded-code
//! table, the dense state tables, the symbol table) and the report
//! itself, whose deep facts share one context label per context. The
//! bounds sit at about twice the measured figures (shallow 0.18–0.27,
//! deep 0.36–0.47 on the two programs below). A regression that puts a
//! map, a `Vec` or a `String` back into a per-step or per-advance path
//! fails here: rebuilding the wiring window as a `BTreeMap` on every
//! queue advance cost the shallow tier 1.06–1.47 allocations per word,
//! and cloning the label into every fact cost the deep tier 1.62–1.81.
//!
//! The test installs a counting `#[global_allocator]`; this file is its
//! own test binary and holds exactly one `#[test]`, so no sibling test
//! allocates during a measurement. Each figure is the minimum over three
//! calls, which filters out stray harness bookkeeping.

use queue_machine::core::alloc_count::CountingAlloc;
use queue_machine::isa::asm::Object;
use queue_machine::occam::{compile, Options};
use queue_machine::verify::{deep_verify, verify_object, VerifyOptions};
use queue_machine::workloads::{cholesky, matmul};

/// Allocations per object word the shallow tier may make.
const MAX_SHALLOW_ALLOCS_PER_WORD: f64 = 0.5;
/// Allocations per object word the deep tier (which embeds the shallow
/// report) may make.
const MAX_DEEP_ALLOCS_PER_WORD: f64 = 1.0;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

/// Allocations per object word of `f(obj)`: the minimum over three calls.
fn allocs_per_word<R>(obj: &Object, f: impl Fn(&Object) -> R) -> f64 {
    let mut best = u64::MAX;
    for _ in 0..3 {
        let before = GLOBAL.count();
        let r = f(obj);
        let after = GLOBAL.count();
        drop(r);
        best = best.min(after - before);
    }
    #[allow(clippy::cast_precision_loss)]
    let per_word = best as f64 / obj.words().len() as f64;
    per_word
}

#[test]
fn verifier_allocations_per_word_are_bounded() {
    let opts = VerifyOptions::default();
    for w in [matmul(5), cholesky(4)] {
        let obj = compile(&w.source, &Options::default()).expect("compiles").object;
        let shallow = allocs_per_word(&obj, |o| verify_object(o, &opts));
        let deep = allocs_per_word(&obj, |o| deep_verify(o, &opts));
        println!("{}: shallow {shallow:.2}, deep {deep:.2} allocations per word", w.name);
        assert!(
            shallow <= MAX_SHALLOW_ALLOCS_PER_WORD,
            "{}: verify_object makes {shallow:.2} allocations per word \
             (bound {MAX_SHALLOW_ALLOCS_PER_WORD})",
            w.name
        );
        assert!(
            deep <= MAX_DEEP_ALLOCS_PER_WORD,
            "{}: deep_verify makes {deep:.2} allocations per word (bound {MAX_DEEP_ALLOCS_PER_WORD})",
            w.name
        );
    }
}
