//! Seed inputs for the two request decoders, and the seeded mutator
//! that the fuzz and allocation tests draw hostile variants from.

use qm_core::rng::Gen;
use qm_serve::http::MAX_BODY_BYTES;

const GOLDENS: [&str; 5] = [
    include_str!("../../../qm-bench/tests/golden/deep_report.json"),
    include_str!("../../../qm-bench/tests/golden/divergence_report.json"),
    include_str!("../../../qm-bench/tests/golden/run_outcome.json"),
    include_str!("../../../qm-bench/tests/golden/state_digest.json"),
    include_str!("../../../qm-bench/tests/golden/verify_report.json"),
];

/// Valid job submissions, one per program kind.
pub const SUBMISSIONS: [&str; 3] = [
    r#"{"workload":"matmul","param":4,"pes":2,"tenant":"alice"}"#,
    r#"{"occam":"var x:\nseq\n  x := 1 -- \"é€😀\" \u0041\\\n  skip","verify":"warn","deep":true,"max_cycles":100000,"slice_cycles":50}"#,
    r#"{"assembly":"main: send+3 #0,#7\n trap #3,#0","verify":"off","backend":"translated","shards":0,"pes":null}"#,
];

/// A `job` envelope as `GET /v1/jobs/:id` returns it, with the
/// `run_outcome` and `verify_report` goldens as its result.
fn job_envelope() -> String {
    let outcome = GOLDENS[2].trim_end();
    let outcome = &outcome[outcome.find(r#""data":"#).unwrap() + 7..outcome.len() - 1];
    format!(
        r#"{{"schema":"qm-api/v1","kind":"job","data":{{"id":1,"tenant":"alice","status":"done","slices":3,"cache_hit":false,"result":{{"cycles":1234,"state_digest":"0x9f63c2b11a04e7d8","correct":true,"mismatches":["c[0] = 1, want 2"],"outcome":{outcome},"verify":{}}},"error":{{"code":"x","message":"tab\there"}}}}}}"#,
        GOLDENS[4].trim_end()
    )
}

/// Valid JSON documents: the goldens, a `job` envelope and the
/// submissions.
pub fn json_seeds() -> Vec<Vec<u8>> {
    let mut seeds: Vec<Vec<u8>> = GOLDENS.iter().map(|g| g.as_bytes().to_vec()).collect();
    seeds.push(job_envelope().into_bytes());
    seeds.extend(SUBMISSIONS.iter().map(|s| s.as_bytes().to_vec()));
    seeds
}

/// Valid whole HTTP requests: a `POST` per submission and two `GET`s.
pub fn http_seeds() -> Vec<Vec<u8>> {
    let mut seeds: Vec<Vec<u8>> = SUBMISSIONS
        .iter()
        .map(|body| {
            format!(
                "POST /v1/jobs HTTP/1.1\r\nHost: 127.0.0.1:8713\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        })
        .collect();
    seeds.push(b"GET /v1/jobs/17?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n".to_vec());
    seeds.push(b"GET /v1/health HTTP/1.1\n\n".to_vec());
    seeds
}

/// A random byte range of `bytes` (possibly empty).
fn span(g: &mut Gen, len: usize) -> (usize, usize) {
    let a = g.range(0..=len);
    (a, g.range(a..=len))
}

/// One seed with one to four mutations applied.
pub fn mutant(g: &mut Gen, seeds: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = g.pick(seeds).clone();
    for _ in 0..g.range(1..=4) {
        match g.below(4) {
            0 if !bytes.is_empty() => {
                let i = g.range(0..bytes.len());
                bytes[i] ^= 1 << g.below(8);
            }
            1 => bytes.truncate(g.range(0..=bytes.len())),
            2 => {
                // Splice a range of any seed over a range of this one.
                let donor = g.pick(seeds);
                let (a, b) = span(g, donor.len());
                let (c, d) = span(g, bytes.len());
                bytes.splice(c..d, donor[a..b].iter().copied());
            }
            _ => {
                // Inflate the first number at or after a random offset:
                // lengths, sizes and counts.
                let from = g.range(0..=bytes.len());
                if let Some(start) = bytes[from..].iter().position(u8::is_ascii_digit) {
                    let start = from + start;
                    let end = bytes[start..]
                        .iter()
                        .position(|b| !b.is_ascii_digit())
                        .map_or(bytes.len(), |n| start + n);
                    let big = g.pick(&[MAX_BODY_BYTES, MAX_BODY_BYTES + 1, usize::MAX]).to_string();
                    let big = if g.below(2) == 0 { big } else { format!("{}9", g.range(0u64..)) };
                    bytes.splice(start..end, big.into_bytes());
                }
            }
        }
    }
    bytes
}

#[allow(dead_code)] // only untrusted_input.rs nests programs
/// `k` nested levels of `open` (one per line, each indented below the
/// last) around `leaf`.
fn nested(k: usize, open: impl Fn(usize) -> String, leaf: &str) -> String {
    let mut src = String::new();
    for i in 0..k {
        src += &format!("{}{}\n", "  ".repeat(i), open(i));
    }
    src + &format!("{}{leaf}\n", "  ".repeat(k))
}

/// Builds a program that nests one construct `k` deep.
pub type Nest = fn(usize) -> String;

/// Program builders that nest one construct `k` deep, one per
/// construct the OCCAM nesting budget covers: expressions
/// (parentheses, unary operators, operator chains, index brackets),
/// constructs (`seq`, `par`, `if`, `while`, replicators, declaration
/// scopes, procedure bodies) and chains of procedure calls.
#[allow(dead_code)] // only untrusted_input.rs nests programs
pub const HOSTILE_STRUCTURES: [(&str, Nest); 14] = [
    ("parentheses", |k| assign(&format!("{}1{}", "(".repeat(k), ")".repeat(k)))),
    ("unary minus", |k| assign(&format!("{}x", "- ".repeat(k)))),
    ("not", |k| assign(&format!("{}x", "not ".repeat(k)))),
    ("left operator chain", |k| assign(&format!("x{}", " + x".repeat(k)))),
    ("right operator chain", |k| assign(&format!("{}x{}", "x * (".repeat(k), ")".repeat(k)))),
    ("index", |k| assign(&format!("{}0{}", "v[".repeat(k), "]".repeat(k)))),
    ("seq", |k| nested(k, |_| "seq".into(), "skip")),
    ("par", |k| nested(k, |_| "par".into(), "skip")),
    ("if", |k| nested(2 * k, |i| if i % 2 == 0 { "if" } else { "true" }.into(), "skip")),
    ("while", |k| {
        let body = |i: usize| format!("while x < {i}\n{}x := 1", "  ".repeat(i + 1));
        format!("var x:\n{}", nested(k, body, "skip"))
    }),
    ("replicator", |k| nested(k, |i| format!("seq i{i} = [0 for 2]"), "skip")),
    ("scope", |k| {
        let mut src = String::new();
        for i in 0..k {
            src += &format!("{0}seq\n{1}var y{i}:\n", "  ".repeat(i), "  ".repeat(i + 1));
        }
        src + &format!("{}skip\n", "  ".repeat(k))
    }),
    ("procedure body", |k| {
        let mut src = String::new();
        for i in 0..k {
            src += &format!("{}proc p{i}() =\n", "  ".repeat(i));
        }
        src += &format!("{}skip\n", "  ".repeat(k));
        for i in (0..k).rev() {
            src += &format!("{}p{i}()\n", "  ".repeat(i));
        }
        src
    }),
    ("call chain", |k| {
        let mut src = String::from("proc p0() =\n  skip\n");
        for i in 1..k {
            src += &format!("proc p{i}() =\n  p{}()\n", i - 1);
        }
        src + &format!("p{}()\n", k.max(1) - 1)
    }),
];

/// `x := expr` in a scope declaring `x` and an array `v`.
#[allow(dead_code)] // only untrusted_input.rs nests programs
fn assign(expr: &str) -> String {
    format!("var x, v[4]:\nx := {expr}\n")
}
