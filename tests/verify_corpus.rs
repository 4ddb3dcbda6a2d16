//! Golden digests of the verifier's output over a fixed corpus of
//! compiled programs.
//!
//! The corpus is the benchmark's `compile_cold` deck: matmul,
//! congruence and cholesky at 2–5, fft at 4 and 8, and reduction at 4,
//! 8 and 16, each compiled under all 16 option masks (272 objects). One
//! checksum covers every shallow `Report` JSON, one every `DeepReport`
//! JSON, so any change to any finding, fact, verdict or ordering in any
//! of them moves a digest. The verifier's internals may change freely;
//! these digests may not.

use queue_machine::core::rng::checksum;
use queue_machine::isa::asm::Object;
use queue_machine::occam::{compile, Options};
use queue_machine::verify::{deep_verify, verify_object, VerifyOptions};
use queue_machine::workloads::{cholesky, congruence, fft, matmul, reduction};

/// Digest of every `verify_object(..).to_json()`, in corpus order.
const SHALLOW_DIGEST: u64 = 0x0846_0c8f_7e05_33af;
/// Digest of every `deep_verify(..).to_json()`, in corpus order.
const DEEP_DIGEST: u64 = 0xaddc_9eae_d51b_b570;

fn options(mask: u8) -> Options {
    Options {
        live_value_analysis: mask & 1 != 0,
        input_sequencing: mask & 2 != 0,
        priority_scheduling: mask & 4 != 0,
        loop_unrolling: mask & 8 != 0,
    }
}

/// The 272 objects, in a fixed order.
fn corpus() -> Vec<Object> {
    let workloads = (2..=5)
        .map(matmul)
        .chain((2..=5).map(congruence))
        .chain((2..=5).map(cholesky))
        .chain([4, 8].map(fft))
        .chain([4, 8, 16].map(reduction));
    let mut out = Vec::new();
    for w in workloads {
        for mask in 0..16 {
            let c = compile(&w.source, &options(mask))
                .unwrap_or_else(|e| panic!("{} mask {mask}: {e}", w.name));
            out.push(c.object);
        }
    }
    out
}

/// One checksum over the newline-joined JSON of every object.
fn digest(objects: &[Object], json: impl Fn(&Object) -> String) -> u64 {
    let mut all = String::new();
    for obj in objects {
        all.push_str(&json(obj));
        all.push('\n');
    }
    checksum(all.as_bytes())
}

#[test]
fn verifier_reports_match_the_golden_digests() {
    let objects = corpus();
    assert_eq!(objects.len(), 272);
    let opts = VerifyOptions::default();
    let shallow = digest(&objects, |o| verify_object(o, &opts).to_json());
    let deep = digest(&objects, |o| deep_verify(o, &opts).to_json());
    assert_eq!(
        (shallow, deep),
        (SHALLOW_DIGEST, DEEP_DIGEST),
        "verifier output changed: (shallow, deep) digests are ({shallow:#018x}, {deep:#018x})"
    );
}
