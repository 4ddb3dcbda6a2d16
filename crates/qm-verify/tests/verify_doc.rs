//! Keeps `docs/VERIFY.md` honest, the way `determinism_doc.rs` does
//! for the determinism contract: the document must name the real API
//! surface it describes, every test file its pinning table cites must
//! exist in the tree, and its diagnostic-code table must list exactly
//! the codes the verifier can emit — at the severities they default to.

use qm_verify::Code;

const DOC: &str = include_str!("../../../docs/VERIFY.md");

/// API anchors the contract describes: each must appear backticked (as
/// part of a path or call) so prose drift can't mask a rename.
const API_ANCHORS: [&str; 9] = [
    "qm_verify::verify_object",
    "qm_verify::deep_verify",
    "deep_verify_at",
    "FactKind::AddrRange",
    "MaxQueueDepth",
    "DeepReport::proven_local_count",
    "qm_sim::xlate",
    "channel_high_water",
    "DeepReport::deep_clean",
];

#[test]
fn the_contract_names_the_real_api_surface() {
    let missing: Vec<&str> = API_ANCHORS.iter().filter(|a| !DOC.contains(**a)).copied().collect();
    assert!(missing.is_empty(), "docs/VERIFY.md no longer mentions: {missing:?}");
}

/// The repository root, whether the test runs under cargo (cwd is the
/// crate dir) or the offline harness (cwd is the repo root).
fn repo_root() -> std::path::PathBuf {
    let base = std::path::PathBuf::from(option_env!("CARGO_MANIFEST_DIR").unwrap_or("."));
    for cand in [base.join("../.."), base] {
        if cand.join("docs/VERIFY.md").exists() {
            return cand;
        }
    }
    panic!("repository root not found from the test's working directory");
}

#[test]
fn every_cited_test_file_exists() {
    let root = repo_root();
    let mut cited = 0;
    for token in DOC.split('`').skip(1).step_by(2) {
        if !(token.starts_with("crates/") || token.starts_with("tests/")) {
            continue;
        }
        cited += 1;
        assert!(root.join(token).exists(), "docs/VERIFY.md cites `{token}`, which does not exist");
    }
    assert!(cited >= 8, "the pinning table shrank to {cited} citations — update the doc test");
}

#[test]
fn the_code_table_matches_the_verifier() {
    // Every emittable code appears in the table with its default
    // severity in the next column; no stale rows for removed codes.
    let codes = [
        Code::QueueUnderflow,
        Code::UndefinedWindowRead,
        Code::DupOutsideWindow,
        Code::JoinDepthMismatch,
        Code::DupWithoutResult,
        Code::SlotOverwrite,
        Code::TrapArityMismatch,
        Code::Unanalyzable,
        Code::BadBranchTarget,
        Code::Undecodable,
        Code::RunsOffEnd,
        Code::BadForkTarget,
        Code::DanglingChannel,
        Code::StaticDeadlock,
        Code::ChannelNeverRead,
        Code::DoublyConnectedChannel,
        Code::WiringUndecidable,
        Code::DeepDeadlockFree,
        Code::DeepCyclic,
        Code::DeepUnknown,
    ];
    for code in codes {
        let row = DOC
            .lines()
            .find(|l| l.starts_with(&format!("| `{code}` |")))
            .unwrap_or_else(|| panic!("docs/VERIFY.md has no table row for {code}"));
        let sev = match code.severity() {
            qm_verify::Severity::Error => "error",
            qm_verify::Severity::Warning => "warn",
            qm_verify::Severity::Note => "note",
        };
        assert!(
            row.contains(&format!("| {sev} |")),
            "docs/VERIFY.md row for {code} disagrees with its default severity ({sev}): {row}"
        );
        assert!(
            row.contains(code.description()),
            "docs/VERIFY.md row for {code} drifted from Code::description(): {row}"
        );
    }
    // Skip the pass-range rows (`QV00xx` …); only concrete codes count.
    let rows = DOC.lines().filter(|l| l.starts_with("| `QV") && !l.contains("xx`")).count();
    assert_eq!(rows, codes.len(), "the code table has rows for codes the verifier cannot emit");
}

#[test]
fn the_contract_covers_every_promised_section() {
    for heading in [
        "## The shallow tier",
        "## The deep tier",
        "### Queue-pointer confinement",
        "### Value analysis: intervals with stride",
        "### Channel verdict and occupancy bounds",
        "## Facts are analysis only",
        "## Diagnostic codes",
        "## How each suite pins this contract",
    ] {
        assert!(DOC.contains(heading), "docs/VERIFY.md lost the section {heading:?}");
    }
}

#[test]
fn facts_documented_as_analysis_only() {
    // The load-bearing sentences: the simulator never consumes the
    // facts, and no run can change the code image they describe.
    assert!(DOC.contains("The simulator does not read the facts"));
    assert!(DOC.contains("never fed back into a simulation"));
    assert!(DOC.contains("which no run can change"));
    // And no verifier result decides which engine runs.
    assert!(DOC.contains("No verifier result gates the engine"));
}
