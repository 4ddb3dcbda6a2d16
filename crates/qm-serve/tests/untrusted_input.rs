//! The two decoders every request passes through, driven with hostile
//! input: `http::read_request` (framing) and `qm_core::json::parse`
//! (bodies, here also through `api::parse_job`).
//!
//! The fuzzers take valid inputs (the `qm-api/v1` goldens, a `job`
//! envelope, job submissions and whole HTTP requests) and apply seeded
//! bit flips, truncations, splices and number inflation. Every mutant
//! must decode to `Ok` or a typed error and must never panic. A failing
//! case replays from the `Gen::new(seed, size)` the harness reports.

use std::io::Cursor;
use std::time::{Duration, Instant};

use qm_core::json;
use qm_core::rng::{check, Gen};
use qm_serve::api::parse_job;
use qm_serve::http::{read_request, MAX_BODY_BYTES};
use qm_serve::Program;

const GOLDENS: [&str; 5] = [
    include_str!("../../qm-bench/tests/golden/deep_report.json"),
    include_str!("../../qm-bench/tests/golden/divergence_report.json"),
    include_str!("../../qm-bench/tests/golden/run_outcome.json"),
    include_str!("../../qm-bench/tests/golden/state_digest.json"),
    include_str!("../../qm-bench/tests/golden/verify_report.json"),
];

const SUBMISSIONS: [&str; 3] = [
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

fn json_seeds() -> Vec<Vec<u8>> {
    let mut seeds: Vec<Vec<u8>> = GOLDENS.iter().map(|g| g.as_bytes().to_vec()).collect();
    seeds.push(job_envelope().into_bytes());
    seeds.extend(SUBMISSIONS.iter().map(|s| s.as_bytes().to_vec()));
    seeds
}

fn http_seeds() -> Vec<Vec<u8>> {
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
fn mutant(g: &mut Gen, seeds: &[Vec<u8>]) -> Vec<u8> {
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

/// JSON decoding of `bytes` must end in a value or a typed error that
/// points inside the input.
fn decode_json(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    if let Err(e) = json::parse(&text) {
        assert!(e.at <= text.len(), "{e} is past the end of {} bytes", text.len());
    }
    if let Err(e) = parse_job(bytes) {
        assert_eq!((e.status, e.code), (400, "bad_request"), "{}", e.message);
    }
}

#[test]
fn seeds_decode_cleanly() {
    for seed in json_seeds() {
        let text = String::from_utf8(seed).unwrap();
        json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
    }
    for body in SUBMISSIONS {
        parse_job(body.as_bytes()).unwrap();
    }
    for seed in http_seeds() {
        read_request(&mut Cursor::new(&seed)).unwrap();
    }
}

#[test]
fn json_parse_survives_mutated_documents() {
    let seeds = json_seeds();
    check(4000, |g| decode_json(&mutant(g, &seeds)));
}

#[test]
fn read_request_survives_mutated_requests() {
    let seeds = http_seeds();
    check(4000, |g| {
        let bytes = mutant(g, &seeds);
        if let Ok(req) = read_request(&mut Cursor::new(&bytes)) {
            assert!(req.body.len() <= MAX_BODY_BYTES);
            decode_json(&req.body);
        }
    });
}

/// The whole-body cost of `parse_job` is linear: a body at the
/// `MAX_BODY_BYTES` cap, almost all of it one `occam` string, decodes
/// in milliseconds even in a debug build. A parser that re-scans the
/// rest of the document per character takes tens of seconds on it.
#[test]
fn a_max_size_occam_body_parses_in_linear_time() {
    const LINE: &str = r#"  x := x + 1 -- \"é€😀\" \u0041\n"#;
    let (head, tail) = (r#"{"occam":""#, r#""}"#);
    let lines = (MAX_BODY_BYTES - head.len() - tail.len()) / LINE.len();
    let pad = MAX_BODY_BYTES - head.len() - tail.len() - lines * LINE.len();
    let body = format!("{head}{}{}{tail}", LINE.repeat(lines), " ".repeat(pad));
    assert_eq!(body.len(), MAX_BODY_BYTES);

    let start = Instant::now();
    let spec = parse_job(body.as_bytes()).expect("a valid submission");
    let elapsed = start.elapsed();
    let Program::Occam(src) = spec.program else { panic!("an occam job") };
    assert_eq!(src, "  x := x + 1 -- \"é€😀\" A\n".repeat(lines) + &" ".repeat(pad));
    assert!(elapsed < Duration::from_secs(2), "parse_job took {elapsed:?}");
}
