//! Bound on the front end's heap traffic: `codegen::generate` makes at
//! most [`MAX_ALLOCS_PER_NODE`] allocations per data-flow graph node,
//! and both `asm::assemble` and linking the emitted listing at most
//! [`MAX_ALLOCS_PER_LINE`] per source line.
//!
//! The context graphs keep their consumer and successor lists as edges
//! are added, the emitter pushes every context's instructions into one
//! `Listing` whose labels borrow from the graphs, `generate` prints that
//! listing into one `String`, and the parser borrows labels from the
//! text and keeps operands in fixed arrays. A regression that puts a
//! per-node scan result, a per-line `format!` or a per-instruction `Vec`
//! back costs several allocations per node or line and fails here.
//!
//! The test installs a counting `#[global_allocator]`; this file is its
//! own test binary and holds exactly one `#[test]`, so no sibling test
//! allocates during a measurement. Each figure is the minimum over three
//! calls, which filters out stray harness bookkeeping.

use queue_machine::core::alloc_count::CountingAlloc;
use queue_machine::isa::asm::assemble;
use queue_machine::occam::{codegen, parse, sema, Options};
use queue_machine::workloads::{cholesky, congruence, fft, matmul};

/// Allocations `generate` may make per graph node.
const MAX_ALLOCS_PER_NODE: f64 = 6.0;
/// Allocations `assemble` may make per source line.
const MAX_ALLOCS_PER_LINE: f64 = 1.5;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

/// Allocations made by `f()`: the minimum over three calls.
fn allocs<R>(f: impl Fn() -> R) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..3 {
        let before = GLOBAL.count();
        let r = f();
        let after = GLOBAL.count();
        drop(r);
        best = best.min(after - before);
    }
    best
}

#[test]
#[allow(clippy::cast_precision_loss)]
fn front_end_allocations_are_bounded() {
    let opts = Options::default();
    for w in [matmul(5), congruence(5), cholesky(4), fft(8)] {
        let resolved = sema::analyse(&parse::parse(&w.source).expect("parses")).expect("resolves");
        let nodes: usize = codegen::context_graphs(&resolved, &opts)
            .expect("builds")
            .iter()
            .map(|(_, g)| g.len())
            .sum();
        let text = codegen::generate(&resolved, &opts).expect("generates");
        let lines = text.lines().count();
        let per_node = allocs(|| codegen::generate(&resolved, &opts)) as f64 / nodes as f64;
        let per_line = allocs(|| assemble(&text)) as f64 / lines as f64;
        let link = codegen::with_listing(&resolved, &opts, |listing, _| allocs(|| listing.link()))
            .expect("generates") as f64
            / lines as f64;
        println!(
            "{}: generate {per_node:.2} allocations per node ({nodes} nodes), \
             assemble {per_line:.2} and link {link:.2} per line ({lines} lines)",
            w.name
        );
        assert!(
            per_node <= MAX_ALLOCS_PER_NODE,
            "{}: generate makes {per_node:.2} allocations per node (bound {MAX_ALLOCS_PER_NODE})",
            w.name
        );
        assert!(
            per_line <= MAX_ALLOCS_PER_LINE,
            "{}: assemble makes {per_line:.2} allocations per line (bound {MAX_ALLOCS_PER_LINE})",
            w.name
        );
        assert!(
            link <= MAX_ALLOCS_PER_LINE,
            "{}: linking makes {link:.2} allocations per line (bound {MAX_ALLOCS_PER_LINE})",
            w.name
        );
    }
}
