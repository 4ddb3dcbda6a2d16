//! Integration tests against a real listening server: routing, error
//! envelopes, job lifecycle and health counters over actual sockets.

use qm_core::json::{parse, JsonValue};
use qm_serve::http::request;
use qm_serve::{ServeConfig, Server};

fn start() -> (Server, String) {
    let server = Server::start(&ServeConfig::default()).expect("bind ephemeral port");
    let addr = server.addr().to_string();
    (server, addr)
}

fn wait_done(addr: &str, id: u64) -> JsonValue {
    for _ in 0..3000 {
        let (status, body) = request(addr, "GET", &format!("/v1/jobs/{id}"), "").unwrap();
        assert_eq!(status, 200, "{body}");
        let v = parse(&body).unwrap();
        let data = v.get("data").cloned().unwrap();
        match data.get("status").and_then(JsonValue::as_str) {
            Some("done" | "failed") => return data,
            _ => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    }
    panic!("job {id} did not settle");
}

fn submit(addr: &str, body: &str) -> (u16, JsonValue) {
    let (status, text) = request(addr, "POST", "/v1/jobs", body).unwrap();
    (status, parse(&text).unwrap())
}

#[test]
fn assembly_job_round_trips_over_http() {
    let (server, addr) = start();
    let (status, v) =
        submit(&addr, r#"{"assembly":"main: send+3 #0,#7\n trap #3,#0","verify":"warn"}"#);
    assert_eq!(status, 202, "{v:?}");
    assert_eq!(v.get("kind").and_then(JsonValue::as_str), Some("job"));
    let id = v.get("data").and_then(|d| d.get("id")).and_then(JsonValue::as_u64).unwrap();

    let done = wait_done(&addr, id);
    assert_eq!(done.get("status").and_then(JsonValue::as_str), Some("done"), "{done:?}");
    let result = done.get("result").expect("result");
    assert!(result.get("cycles").and_then(JsonValue::as_u64).unwrap() > 0);
    let outcome = result.get("outcome").expect("embedded run_outcome body");
    assert_eq!(
        outcome.get("output"),
        Some(&JsonValue::Arr(vec![JsonValue::Num(7.0)])),
        "host output over the wire"
    );
    // Raw programs have no expectations to check.
    assert_eq!(result.get("correct"), Some(&JsonValue::Null));
    // verify=warn embeds the full verify_report envelope.
    let verify = result.get("verify").expect("verify report");
    assert_eq!(verify.get("kind").and_then(JsonValue::as_str), Some("verify_report"));
    server.shutdown();
}

#[test]
fn error_envelopes_cover_the_failure_paths() {
    let (server, addr) = start();

    let (status, v) = submit(&addr, "{not json");
    assert_eq!(status, 400);
    assert_eq!(v.get("kind").and_then(JsonValue::as_str), Some("error"));
    assert_eq!(
        v.get("data").and_then(|d| d.get("code")).and_then(JsonValue::as_str),
        Some("bad_request")
    );

    let (status, body) = request(&addr, "GET", "/v1/jobs/999", "").unwrap();
    assert_eq!(status, 404, "{body}");
    let (status, body) = request(&addr, "GET", "/v1/nope", "").unwrap();
    assert_eq!(status, 404, "{body}");
    let (status, body) = request(&addr, "POST", "/v1/health", "").unwrap();
    assert_eq!(status, 405, "{body}");

    // A compile failure surfaces on the job, not the submission.
    let (status, v) = submit(&addr, r#"{"occam":"this is not occam"}"#);
    assert_eq!(status, 202, "{v:?}");
    let id = v.get("data").and_then(|d| d.get("id")).and_then(JsonValue::as_u64).unwrap();
    let done = wait_done(&addr, id);
    assert_eq!(done.get("status").and_then(JsonValue::as_str), Some("failed"));
    assert_eq!(
        done.get("error").and_then(|e| e.get("code")).and_then(JsonValue::as_str),
        Some("compile_error"),
        "{done:?}"
    );
    server.shutdown();
}

#[test]
fn a_store_into_code_fails_the_job_with_the_fault() {
    // Whole and in one-cycle slices (each slice a pause and an in-place resume),
    // the fault settles the job as failed: no panic, no 5xx.
    let (server, addr) = start();
    let program = r#""assembly":"main: plus #1,#2 :r17\n plus r17,#3 :r17\n store #main,r17\n trap #3,#0","verify":"off""#;
    for slicing in ["", r#","slice_cycles":1"#] {
        let (status, v) = submit(&addr, &format!("{{{program}{slicing}}}"));
        assert_eq!(status, 202, "{v:?}");
        let id = v.get("data").and_then(|d| d.get("id")).and_then(JsonValue::as_u64).unwrap();
        let done = wait_done(&addr, id);
        assert_eq!(done.get("status").and_then(JsonValue::as_str), Some("failed"), "{done:?}");
        let error = done.get("error").expect("error");
        assert_eq!(error.get("code").and_then(JsonValue::as_str), Some("sim_error"), "{done:?}");
        let message = error.get("message").and_then(JsonValue::as_str).unwrap_or_default();
        assert!(
            message.contains("store into the read-only code segment at 0x00000000"),
            "{message}"
        );
        if !slicing.is_empty() {
            assert!(done.get("slices").and_then(JsonValue::as_u64).unwrap() > 1, "{done:?}");
        }
    }
    server.shutdown();
}

#[test]
fn health_reports_progress_and_cache_counters() {
    let (server, addr) = start();
    let (status, body) = request(&addr, "GET", "/v1/health", "").unwrap();
    assert_eq!(status, 200);
    let v = parse(&body).unwrap();
    assert_eq!(v.get("kind").and_then(JsonValue::as_str), Some("health"));
    let data = v.get("data").unwrap();
    assert_eq!(data.get("status").and_then(JsonValue::as_str), Some("ok"));
    assert_eq!(
        data.get("jobs").and_then(|jobs| jobs.get("accepted")).and_then(JsonValue::as_u64),
        Some(0)
    );

    let (_, v) = submit(&addr, r#"{"workload":"reduction","param":8}"#);
    let id = v.get("data").and_then(|d| d.get("id")).and_then(JsonValue::as_u64).unwrap();
    wait_done(&addr, id);
    let (_, body) = request(&addr, "GET", "/v1/health", "").unwrap();
    let v = parse(&body).unwrap();
    let data = v.get("data").unwrap();
    assert_eq!(
        data.get("jobs").and_then(|jobs| jobs.get("done")).and_then(JsonValue::as_u64),
        Some(1),
        "{body}"
    );
    assert_eq!(
        data.get("cache").and_then(|c| c.get("misses")).and_then(JsonValue::as_u64),
        Some(1),
        "{body}"
    );
    server.shutdown();
}

#[test]
fn admission_control_rejects_with_429() {
    // Zero caps make the rejection paths deterministic over HTTP (the
    // counting logic itself is unit-tested in qm_serve::jobs, where no
    // worker can drain the queue mid-assertion).
    let cfg = ServeConfig { tenant_cap: 0, ..ServeConfig::default() };
    let server = Server::start(&cfg).expect("bind");
    let (status, v) = submit(&server.addr().to_string(), r#"{"workload":"matmul","param":4}"#);
    assert_eq!(status, 429, "{v:?}");
    assert_eq!(
        v.get("data").and_then(|d| d.get("code")).and_then(JsonValue::as_str),
        Some("tenant_busy")
    );
    server.shutdown();

    let cfg = ServeConfig { queue_cap: 0, ..ServeConfig::default() };
    let server = Server::start(&cfg).expect("bind");
    let (status, v) = submit(&server.addr().to_string(), r#"{"workload":"matmul","param":4}"#);
    assert_eq!(status, 429, "{v:?}");
    assert_eq!(
        v.get("data").and_then(|d| d.get("code")).and_then(JsonValue::as_str),
        Some("queue_full")
    );
    server.shutdown();
}
