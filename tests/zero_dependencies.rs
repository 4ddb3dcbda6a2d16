//! The workspace builds and tests offline from a fresh clone: the
//! committed `Cargo.lock` resolves every package to a path in the
//! repository, none to a registry or a git source.

#[test]
fn lockfile_has_no_external_sources() {
    let lock = include_str!("../Cargo.lock");
    let external: Vec<&str> = lock.lines().filter(|l| l.starts_with("source =")).collect();
    assert!(external.is_empty(), "Cargo.lock resolves packages outside the repo: {external:?}");
    assert!(lock.contains("name = \"queue-machine\""), "Cargo.lock is the workspace's lockfile");
}

/// The benchmark builds each library with bare `rustc` from the link
/// lists in `benchmark/run.py`'s `LIBS`, not from Cargo.toml. A crate
/// that library code names must therefore be in its link list or in an
/// `extern crate` line of its `lib.rs` (found through `-L`); otherwise
/// Cargo builds the workspace and the benchmark's build fails.
#[test]
fn benchmark_link_lists_cover_every_library_import() {
    let run_py = include_str!("../benchmark/run.py");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let workspace: Vec<String> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ lists")
        .map(|e| e.expect("entry").file_name().to_string_lossy().replace('-', "_"))
        .collect();
    let libs = &run_py[run_py.find("LIBS = [").expect("run.py defines LIBS")..];
    let libs = &libs[..libs.find("\n]").expect("LIBS ends")];
    let mut checked = 0;
    for entry in libs.split('(').skip(1) {
        let quoted: Vec<&str> = entry.split('"').skip(1).step_by(2).collect();
        let [name, src, deps @ ..] = quoted.as_slice() else { panic!("bad LIBS entry {entry}") };
        let lib_rs = std::fs::read_to_string(root.join(src)).expect("lib.rs reads");
        let externs: Vec<&str> = lib_rs
            .lines()
            .filter_map(|l| l.trim().strip_prefix("extern crate "))
            .map(|l| l.trim_end_matches(';').trim())
            .collect();
        let mut dirs = vec![root.join(src).parent().expect("src dir").to_path_buf()];
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(&dir).expect("src dir lists") {
                let path = entry.expect("entry").path();
                if path.is_dir() {
                    if !path.ends_with("bin") {
                        dirs.push(path);
                    }
                    continue;
                }
                if path.extension().is_none_or(|e| e != "rs") {
                    continue;
                }
                let text = std::fs::read_to_string(&path).expect("source reads");
                let code = text.lines().map(|l| l.split("//").next().unwrap_or(""));
                for ident in
                    code.flat_map(|l| l.split(|c: char| !(c.is_alphanumeric() || c == '_')))
                {
                    let named = workspace.iter().any(|w| w == ident);
                    let linked =
                        ident == *name || deps.contains(&ident) || externs.contains(&ident);
                    assert!(
                        !named || linked,
                        "{} names `{ident}`, which benchmark/run.py does not link into {name}",
                        path.display()
                    );
                }
            }
        }
        checked += 1;
    }
    assert!(checked >= 7, "LIBS lists {checked} libraries");
}
