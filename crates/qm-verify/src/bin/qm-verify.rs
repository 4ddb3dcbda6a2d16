//! Static queue-discipline verifier CLI.
//!
//! Usage: `qm-verify [--strict] [--deep] [--json] [--page-words <n>]
//! [--entry <symbol>] <file>...`
//!
//! Each file is loaded by extension — `.s`/`.asm` is assembled,
//! `.occ`/`.occam` is compiled with the bundled OCCAM compiler — and the
//! resulting object code is verified: abstract queue-state dataflow over
//! every statically reachable context, then channel-wiring lints.
//! `--deep` runs the second tier as well: whole-program value/locality
//! abstract interpretation, per-site address ranges, static channel
//! occupancy bounds, and a definite channel verdict, printing the
//! proven-fact summary after the diagnostics. Diagnostics print
//! rustc-style with program-point spans (`--json` switches to one
//! `qm-api/v1` envelope per file — `verify_report`, or `deep_report`
//! under `--deep` — the same wire format `qm-serve` returns; see
//! `docs/API.md`).
//!
//! Exit status: 0 when every file is accepted, 1 when any diagnostic of
//! error severity is found (`--strict` also rejects warnings), 2 on
//! usage, I/O, assembly, or compile errors.

use std::process::exit;

use qm_verify::{deep_verify_at, verify_object_at, Report, VerifyOptions};

struct Args {
    strict: bool,
    deep: bool,
    json: bool,
    opts: VerifyOptions,
    entry: Option<String>,
    files: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        strict: false,
        deep: false,
        json: false,
        opts: VerifyOptions::default(),
        entry: None,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--strict" => args.strict = true,
            "--deep" => args.deep = true,
            "--json" => args.json = true,
            "--page-words" => {
                let v = it.next().ok_or("--page-words needs a value")?;
                args.opts.page_words =
                    v.parse().map_err(|_| format!("bad --page-words value `{v}`"))?;
            }
            "--entry" => args.entry = Some(it.next().ok_or("--entry needs a symbol")?.to_string()),
            "--help" | "-h" => {
                println!(
                    "usage: qm-verify [--strict] [--deep] [--json] [--page-words <n>] \
                     [--entry <symbol>] <file>..."
                );
                exit(0);
            }
            f if !f.starts_with('-') => args.files.push(f.to_string()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.files.is_empty() {
        return Err("no input files".into());
    }
    Ok(args)
}

/// Load one input file into object code, by extension.
fn load(path: &str) -> Result<qm_isa::asm::Object, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let lower = path.to_ascii_lowercase();
    if lower.ends_with(".occ") || lower.ends_with(".occam") {
        qm_occam::compile(&src, &qm_occam::Options::default())
            .map(|c| c.object)
            .map_err(|e| format!("{path}: {e}"))
    } else if lower.ends_with(".s") || lower.ends_with(".asm") {
        qm_isa::asm::assemble(&src).map_err(|e| format!("{path}: {e}"))
    } else {
        Err(format!("{path}: unknown extension (expected .s, .asm, .occ, or .occam)"))
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|msg| {
        eprintln!(
            "usage: qm-verify [--strict] [--deep] [--json] [--page-words <n>] \
             [--entry <symbol>] <file>..."
        );
        eprintln!("{msg}");
        exit(2);
    });

    let mut rejected = false;
    for path in &args.files {
        let obj = load(path).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            exit(2);
        });
        let entry = match &args.entry {
            Some(sym) => {
                let Some(entry) = obj.symbol(sym) else {
                    eprintln!("error: {path}: no symbol `{sym}`");
                    exit(2);
                };
                entry
            }
            None => obj.symbol("main").unwrap_or_else(|| obj.base()),
        };
        let deep = args.deep.then(|| deep_verify_at(&obj, entry, &args.opts));
        let report: Report = match &deep {
            Some(d) => d.report.clone(),
            None => verify_object_at(&obj, entry, &args.opts),
        };
        if args.json {
            match &deep {
                Some(d) => println!("{}", d.to_json()),
                None => println!("{}", report.to_json()),
            }
        } else if !report.diags.is_empty() {
            print!("{}", report.render());
        }
        let reject = report.has_errors() || (args.strict && !report.is_clean());
        rejected |= reject;
        if !args.json {
            if let Some(d) = &deep {
                println!(
                    "{path}: deep: verdict {} ({}); qp {}; {} proven-local site(s), {} fact(s)",
                    d.verdict.as_str(),
                    d.verdict_why,
                    if d.qp_confined { "confined" } else { "escapes" },
                    d.proven_local_count(),
                    d.facts.len(),
                );
            }
            println!("{path}: {} — {}", report.summary(), if reject { "rejected" } else { "ok" });
        }
    }
    exit(i32::from(rejected));
}
