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
