//! The two decoders every request passes through, driven with hostile
//! input: `http::read_request` (framing) and `qm_core::json::parse`
//! (bodies, here also through `api::parse_job`).
//!
//! The fuzzers take valid inputs (the `qm-api/v1` goldens, a `job`
//! envelope, job submissions and whole HTTP requests) and apply seeded
//! bit flips, truncations, splices and number inflation. Every mutant
//! must decode to `Ok` or a typed error and must never panic. A failing
//! case replays from the `Gen::new(seed, size)` the harness reports.
//!
//! Hostile programs get one more check: two tenants whose programs
//! collide under a 64-bit checksum must each get their own result.

use std::io::Cursor;
use std::time::{Duration, Instant};

use qm_core::json::{self, JsonValue};
use qm_core::rng::{check, checksum, mix, Gen};
use qm_serve::api::parse_job;
use qm_serve::http::{read_request, request, MAX_BODY_BYTES};
use qm_serve::{Program, ServeConfig, Server};

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

/// The bytes a program cache keyed by `checksum` once hashed for an
/// assembly job at the default options and page size: a kind tag, the
/// four option bits and the page words (16 bytes, so the text starts on
/// a chunk boundary), then the text.
fn checksummed_key(text: &str) -> Vec<u8> {
    let opts = qm_occam::Options::default();
    let page_words = qm_sim::SystemConfig::default().queue_page_words;
    let mut key = b"asm\0".to_vec();
    key.extend(
        [
            opts.live_value_analysis,
            opts.input_sequencing,
            opts.priority_scheduling,
            opts.loop_unrolling,
        ]
        .map(u8::from),
    );
    key.extend(u64::from(page_words).to_le_bytes());
    key.extend(text.as_bytes());
    key
}

/// `checksum`'s running state after whole 8-byte chunks of `bytes`.
fn fold(bytes: &[u8]) -> u64 {
    bytes
        .chunks_exact(8)
        .fold(0x51CC_5EED_0000_0001, |h, c| mix(h ^ u64::from_le_bytes(c.try_into().unwrap())))
}

/// Two assembly programs that send 7 and 9 to the host and share one
/// `checksum` key. Each ends in a 16-byte comment. The second's first
/// comment chunk is a counter; its last chunk undoes the difference
/// `checksum` folds in, `b2 = mix(h_B ^ b1) ^ h_A1 ^ a2`, and is kept
/// once it is printable JSON-safe text.
fn colliding_programs() -> (String, String) {
    let body = |value: u32| {
        let mut text = format!("main: send+3 #0,#{value}\n trap #3,#0 ;");
        while text.len() % 8 != 0 {
            text.push(' ');
        }
        text
    };
    let (a1, a2) = (*b"collide:", *b"tenant A");
    let a = body(7) + std::str::from_utf8(&[a1, a2].concat()).unwrap();
    let h_a1 = fold(&checksummed_key(&a)[..checksummed_key(&a).len() - 8]);
    let h_b = fold(&checksummed_key(&body(9)));
    let safe = |c: &u8| (b' '..=b'~').contains(c) && !b"\"\\".contains(c);
    for n in 0u32.. {
        let b1 = format!("{n:08}");
        let b1_word = u64::from_le_bytes(b1.as_bytes().try_into().unwrap());
        let b2 = (mix(h_b ^ b1_word) ^ h_a1 ^ u64::from_le_bytes(a2)).to_le_bytes();
        if b2.iter().all(safe) {
            let b = body(9) + &b1 + std::str::from_utf8(&b2).unwrap();
            return (a, b);
        }
    }
    unreachable!("the counter space holds a collision")
}

/// Submit `text` as a Warn-verified assembly job and wait for it:
/// `(host output, cache_hit)`.
fn run_assembly(addr: &str, text: &str) -> (JsonValue, JsonValue) {
    let body = format!(r#"{{"assembly":"{}","verify":"warn"}}"#, text.replace('\n', "\\n"));
    let (status, reply) = request(addr, "POST", "/v1/jobs", &body).unwrap();
    assert_eq!(status, 202, "{reply}");
    let id = json::parse(&reply).unwrap().get("data").and_then(|d| d.get("id")?.as_u64()).unwrap();
    for _ in 0..3000 {
        let (_, reply) = request(addr, "GET", &format!("/v1/jobs/{id}"), "").unwrap();
        let data = json::parse(&reply).unwrap().get("data").cloned().unwrap();
        if data.get("status").and_then(JsonValue::as_str) == Some("done") {
            let output = data.get("result").and_then(|r| r.get("outcome")?.get("output").cloned());
            return (output.unwrap(), data.get("cache_hit").cloned().unwrap());
        }
        assert_ne!(data.get("status").and_then(JsonValue::as_str), Some("failed"), "{reply}");
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("job {id} did not settle");
}

/// One tenant cannot make the program cache answer another tenant's
/// job with its own program: a hit needs the same text, not the same
/// 64-bit sum.
#[test]
fn programs_with_colliding_checksums_keep_their_own_results() {
    let (a, b) = colliding_programs();
    assert_ne!(a, b);
    assert_eq!(a.len(), b.len());
    let (key_a, key_b) = (checksummed_key(&a), checksummed_key(&b));
    assert_eq!(mix(fold(&key_a) ^ key_a.len() as u64), checksum(&key_a), "fold() replays checksum");
    assert_eq!(checksum(&key_a), checksum(&key_b), "the two keys collide");

    let server = Server::start(&ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let num = |n: f64| JsonValue::Arr(vec![JsonValue::Num(n)]);
    assert_eq!(run_assembly(&addr, &a), (num(7.0), JsonValue::Bool(false)));
    assert_eq!(run_assembly(&addr, &b), (num(9.0), JsonValue::Bool(false)), "{b:?}");
    server.shutdown();
}
