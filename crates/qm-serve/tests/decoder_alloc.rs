//! Bound on the heap bytes the two request decoders allocate per input
//! byte: `http::read_request` at most [`MAX_HTTP_BYTES_PER_BYTE`] and
//! `json::parse` plus `api::parse_job` at most
//! [`MAX_JSON_BYTES_PER_BYTE`], beyond a fixed [`ALLOWANCE`] per call
//! for the small buffers and strings any input gets.
//!
//! The inputs are the seeds and seeded mutants of `untrusted_input.rs`
//! (the shared `inputs` module), a request whose body sits at the
//! `MAX_BODY_BYTES` cap, and that request's head alone, which declares
//! the body and sends none of it. A decoder that sizes a buffer from a
//! declared length before the bytes arrive fails here: reading the body
//! into `vec![0; content_length]` let that 51-byte head allocate 1 MiB.
//! The measured figures sit at about half the bounds: `read_request`
//! allocates 2.0 bytes per byte on the cap-size request (4.0 before it
//! kept the arriving bytes in one buffer and copied the body out of
//! it once), and the JSON
//! decoders up to 7.4 bytes per byte beyond the allowance on the
//! mutants (11 before objects and arrays were built in one exact
//! allocation each).
//!
//! The test installs a counting `#[global_allocator]`; this file is its
//! own test binary and holds exactly one `#[test]`, so no sibling test
//! allocates during a measurement. Each figure is the minimum over two
//! calls, which filters out stray harness bookkeeping.

mod inputs;

use std::io::Cursor;

use inputs::{http_seeds, json_seeds, mutant};
use qm_core::alloc_count::CountingAlloc;
use qm_core::json;
use qm_core::rng::check;
use qm_serve::api::parse_job;
use qm_serve::http::{read_request, MAX_BODY_BYTES};

/// Heap bytes `read_request` may allocate per input byte.
const MAX_HTTP_BYTES_PER_BYTE: u64 = 4;
/// Heap bytes `json::parse` plus `parse_job` may allocate per input byte.
const MAX_JSON_BYTES_PER_BYTE: u64 = 15;
/// Heap bytes either decoder may allocate on any input, even an empty
/// one.
const ALLOWANCE: u64 = 2048;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

/// Heap bytes `f` allocates: the minimum over two calls.
fn allocated<R>(f: impl Fn() -> R) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..2 {
        let before = GLOBAL.bytes();
        let r = f();
        let after = GLOBAL.bytes();
        drop(r);
        best = best.min(after - before);
    }
    best
}

/// Panic unless `f` allocates within `per_byte` bytes per byte of
/// `input` plus the allowance.
fn bounded<R>(what: &str, input: &[u8], per_byte: u64, f: impl Fn() -> R) {
    let bytes = allocated(f);
    let bound = per_byte * input.len() as u64 + ALLOWANCE;
    assert!(
        bytes <= bound,
        "{what} allocated {bytes} bytes on {} input bytes (bound {bound}): {:?}",
        input.len(),
        String::from_utf8_lossy(&input[..input.len().min(200)])
    );
}

fn http(input: &[u8]) {
    bounded("read_request", input, MAX_HTTP_BYTES_PER_BYTE, || {
        read_request(&mut Cursor::new(input))
    });
}

fn json(input: &[u8]) {
    let text = String::from_utf8_lossy(input);
    bounded("json::parse", input, MAX_JSON_BYTES_PER_BYTE, || json::parse(&text));
    bounded("parse_job", input, MAX_JSON_BYTES_PER_BYTE, || parse_job(input));
}

#[test]
fn decoders_allocate_in_proportion_to_their_input() {
    let head = format!("POST /v1/jobs HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n");
    http(head.as_bytes());
    let (open, close) = (r#"{"occam":""#, r#""}"#);
    let body = format!("{open}{}{close}", "x".repeat(MAX_BODY_BYTES - open.len() - close.len()));
    http(format!("{head}{body}").as_bytes());
    json(body.as_bytes());

    let (http_seeds, json_seeds) = (http_seeds(), json_seeds());
    for seed in &http_seeds {
        http(seed);
    }
    for seed in &json_seeds {
        json(seed);
    }
    check(2000, |g| http(&mutant(g, &http_seeds)));
    check(2000, |g| json(&mutant(g, &json_seeds)));
}
