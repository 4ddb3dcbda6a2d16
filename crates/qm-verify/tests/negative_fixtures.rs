//! Negative fixtures: each program under `tests/fixtures/` is rejected
//! with exactly the diagnostic code its name promises.

use qm_isa::asm::assemble;
use qm_verify::{verify_object, Code, Report, Severity, VerifyOptions};

fn verify_src(src: &str, opts: &VerifyOptions) -> Report {
    verify_object(&assemble(src).expect("fixture assembles"), opts)
}

/// The distinct error-severity codes of a report, sorted.
fn error_codes(r: &Report) -> Vec<Code> {
    let mut codes: Vec<Code> =
        r.diags.iter().filter(|d| d.severity == Severity::Error).map(|d| d.code).collect();
    codes.sort();
    codes.dedup();
    codes
}

#[test]
fn underflow_fixture_is_rejected_with_qv0001() {
    let r = verify_src(include_str!("fixtures/underflow.s"), &VerifyOptions::default());
    assert_eq!(error_codes(&r), vec![Code::QueueUnderflow], "{}", r.render());
    assert_eq!(Code::QueueUnderflow.as_str(), "QV0001");
    assert!(r.has_errors());
}

#[test]
fn out_of_window_fixture_is_rejected_with_qv0003() {
    let src = include_str!("fixtures/out_of_window.s");
    let small = VerifyOptions { page_words: 64 };
    let r = verify_src(src, &small);
    assert_eq!(error_codes(&r), vec![Code::DupOutsideWindow], "{}", r.render());
    assert_eq!(Code::DupOutsideWindow.as_str(), "QV0003");
    // The same program is in-window under the default 256-word page.
    let r = verify_src(src, &VerifyOptions::default());
    assert!(!r.has_errors(), "{}", r.render());
}

#[test]
fn dangling_channel_fixture_is_rejected_with_qv0201() {
    let r = verify_src(include_str!("fixtures/dangling_channel.s"), &VerifyOptions::default());
    assert_eq!(error_codes(&r), vec![Code::DanglingChannel], "{}", r.render());
    assert_eq!(Code::DanglingChannel.as_str(), "QV0201");
}

#[test]
fn waitfor_cycle_fixture_is_rejected_with_qv0202() {
    let r = verify_src(include_str!("fixtures/waitfor_cycle.s"), &VerifyOptions::default());
    assert_eq!(error_codes(&r), vec![Code::StaticDeadlock], "{}", r.render());
    assert_eq!(Code::StaticDeadlock.as_str(), "QV0202");
    let d = r.diags.iter().find(|d| d.code == Code::StaticDeadlock).unwrap();
    assert!(
        d.notes.iter().any(|n| n.contains("waits for")),
        "cycle notes spell the wait-for edges: {}",
        r.render()
    );
}

#[test]
fn fixtures_render_stable_codes_in_json() {
    let r = verify_src(include_str!("fixtures/underflow.s"), &VerifyOptions::default());
    assert!(r.render_json().contains("\"code\":\"QV0001\""), "{}", r.render_json());
}

#[test]
fn a_data_only_object_is_rejected_at_its_entry() {
    // `.word`/`.space` alone links to an object with no instruction
    // start. The walk from the entry decodes the first word (a zero
    // word is a `dup`), and falling through to the next word leaves the
    // instructions the linker recorded.
    let r = verify_src("d: .space 3\n", &VerifyOptions::default());
    assert_eq!(
        r.to_json(),
        r#"{"schema":"qm-api/v1","kind":"verify_report","data":{"clean":false,"errors":1,"warnings":1,"notes":1,"fast_path":{"eligible":false,"blocking":2,"passes":["queue","wiring"]},"diags":[{"code":"QV0303","severity":"note","message":"wiring analysis gave up: execution reaches an undecodable word","ctx":"ctx0 (d)","pc":12,"notes":["splice lints and channel facts are unavailable for this program"]},{"code":"QV0005","severity":"warning","message":"dup with no preceding value-producing instruction on some path","ctx":"d","pc":0},{"code":"QV0104","severity":"error","message":"execution continues into non-instruction words at 0x4","ctx":"d","pc":0}]}}"#
    );
    let r = verify_src("main: .word 7\n", &VerifyOptions::default());
    assert_eq!(error_codes(&r), vec![Code::RunsOffEnd], "{}", r.render());
}
