//! Every public function in library code has a consumer: some other
//! library file, a binary, an example or the benchmark names it, or its
//! own file does outside its tests. A function that only tests call is
//! test code; it belongs in a test module or `#[cfg(test)]`.
//!
//! The scan is textual and approximate: it matches names, not paths, so
//! a common name such as `new` always counts as used. Comments are
//! skipped; a file's test module is taken to start at its
//! `#[cfg(test)] mod` line.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

/// Public functions that only tests call, each kept public for the
/// reason given.
const ALLOWED: &[(&str, &str)] = &[
    ("max_queue_depth", "thesis §3 queue-depth model, checked by tests/property_models.rs"),
    ("weighted", "a method of the property harness `rng::Gen`, which serves tests"),
    ("reset", "starts a bare PE without a System: crates/qm-isa/tests/von_neumann.rs"),
    ("emit_context", "drives the emitter on random graphs in qm-verify's asm_always_verifies.rs"),
    ("read_request", "blocking HTTP framing, fuzzed and allocation-bounded in qm-serve's tests"),
    ("run_loop_stats", "scheduling counters read by qm-workloads' xlate_equivalence.rs"),
    ("description", "the code table of docs/VERIFY.md is checked against it (verify_doc.rs)"),
    ("state_digest_json", "the documented `state_digest` envelope, pinned by api_golden.rs"),
];

fn rs_files(dir: &Path, skip_bin: bool, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries {
        let path = entry.expect("entry").path();
        if path.is_dir() {
            if !(skip_bin && path.ends_with("bin")) {
                rs_files(&path, skip_bin, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The file's lines with comments removed, up to its test module.
fn code_lines(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("source reads");
    let lines: Vec<&str> = text.lines().collect();
    let end = (0..lines.len())
        .find(|&i| {
            lines[i].trim() == "#[cfg(test)]"
                && lines.get(i + 1).is_some_and(|l| l.trim_start().starts_with("mod "))
        })
        .unwrap_or(lines.len());
    lines[..end].iter().map(|l| l.split("//").next().unwrap_or("").to_string()).collect()
}

fn idents(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_alphanumeric() || c == '_')).filter(|w| !w.is_empty())
}

#[test]
fn every_public_function_has_a_consumer() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut libs, mut consumers) = (vec![root.join("src/lib.rs")], Vec::new());
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ lists") {
        let src = krate.expect("entry").path().join("src");
        rs_files(&src, true, &mut libs);
        rs_files(&src.join("bin"), false, &mut consumers);
    }
    rs_files(&root.join("examples"), false, &mut consumers);
    rs_files(&root.join("benchmark/src"), false, &mut consumers);

    let code: HashMap<&PathBuf, Vec<String>> = libs.iter().map(|p| (p, code_lines(p))).collect();
    let mut named: HashSet<String> = HashSet::new();
    for path in &consumers {
        named.extend(code_lines(path).iter().flat_map(|l| idents(l).map(String::from)));
    }
    // How many library files name each identifier.
    let mut files_naming: HashMap<&str, usize> = HashMap::new();
    for lines in code.values() {
        let words: HashSet<&str> = lines.iter().flat_map(|l| idents(l)).collect();
        for word in words {
            *files_naming.entry(word).or_default() += 1;
        }
    }
    let mut unused: Vec<(String, String)> = Vec::new();
    for (path, lines) in &code {
        let mut own: HashMap<&str, usize> = HashMap::new();
        for word in lines.iter().flat_map(|l| idents(l)) {
            *own.entry(word).or_default() += 1;
        }
        for line in lines {
            let line = line.trim_start();
            let Some(rest) = line.strip_prefix("pub fn ").or(line.strip_prefix("pub const fn "))
            else {
                continue;
            };
            let name = idents(rest).next().expect("a function name");
            if !(named.contains(name) || own[name] > 1 || files_naming[name] > 1) {
                let file = path.strip_prefix(root).expect("in the repo").display().to_string();
                unused.push((name.to_string(), file));
            }
        }
    }
    unused.sort();
    let allowed: Vec<&str> = ALLOWED.iter().map(|&(name, _)| name).collect();
    let unexplained: Vec<&(String, String)> =
        unused.iter().filter(|(name, _)| !allowed.contains(&name.as_str())).collect();
    assert!(
        unexplained.is_empty(),
        "public functions that only tests name (delete them, make them test code, or give \
         them a consumer): {unexplained:?}"
    );
    let stale: Vec<&str> =
        allowed.into_iter().filter(|a| !unused.iter().any(|(name, _)| name == a)).collect();
    assert!(stale.is_empty(), "allow-list entries that now have a consumer: {stale:?}");
    assert!(libs.len() > 50 && consumers.len() > 10, "the scan found the sources");
}
