//! The `repro` binary's command line: a known subcommand prints its
//! table exactly as the committed `THESIS_TABLES.txt` holds it, and
//! anything else prints usage and exits 2.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run repro")
}

#[test]
fn a_subcommand_prints_its_committed_table() {
    let out = repro(&["table3_1"]);
    assert!(out.status.success());
    let committed = include_str!("../../../THESIS_TABLES.txt");
    let table = String::from_utf8(out.stdout).unwrap();
    assert!(committed.starts_with(&table), "table3_1 drifted from THESIS_TABLES.txt");
}

#[test]
fn unknown_subcommands_print_usage_and_exit_2() {
    for args in [&["table9_9"][..], &[], &["--all", "table3_1"]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage: repro"), "{args:?}");
    }
}
