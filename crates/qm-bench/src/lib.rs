//! Shared helpers for the table/figure regeneration harness.
//!
//! Each `bin/` target regenerates one table or figure of the thesis
//! evaluation (see `DESIGN.md` for the index); this crate provides the
//! common text-table formatting, the standard benchmark set and the
//! [`sweep`] runner the bins are built on.

pub mod checkpoint;
pub mod perf;
pub mod replay;
pub mod sweep;

use qm_occam::Options;
use qm_workloads::{Workload, WorkloadRun};

/// Render rows as a fixed-width text table with a header rule.
#[must_use]
pub fn text_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| (*s).to_string()).collect();
    let mut out = fmt_row(&head);
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// The four thesis workloads at their benchmark sizes (8×8 matrices,
/// 16-point FFT).
#[must_use]
pub fn thesis_workloads() -> Vec<Workload> {
    vec![
        qm_workloads::matmul(8),
        qm_workloads::fft(16),
        qm_workloads::cholesky(8),
        qm_workloads::congruence(8),
    ]
}

/// PE counts simulated throughout Chapter 6.
pub const PE_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Default compiler options (all optimizations on).
#[must_use]
pub fn default_options() -> Options {
    Options::default()
}

/// Run one workload over [`PE_COUNTS`] and print its statistics table
/// (Tables 6.2–6.5 format) followed by the throughput-ratio curve
/// (Figs 6.8/6.10–6.12 format).
///
/// # Panics
///
/// Panics if any run fails or verifies incorrect.
pub fn report_workload(w: &Workload, table_name: &str, fig_name: &str) {
    println!("{table_name} — statistics for the {} program\n", w.name);
    let mut stat_rows = Vec::new();
    let mut curve_rows = Vec::new();
    let mut base: Option<u64> = None;
    for &pes in &PE_COUNTS {
        let r = WorkloadRun::with_pes(pes).run(w).expect("benchmark run");
        assert!(r.correct, "{} on {pes} PEs: {:?}", w.name, r.mismatches);
        let o = &r.outcome;
        stat_rows.push(vec![
            pes.to_string(),
            o.elapsed_cycles.to_string(),
            o.instructions.to_string(),
            o.contexts_created.to_string(),
            o.peak_live_contexts.to_string(),
            o.channel_transfers.to_string(),
            o.pes.iter().map(|p| p.stats.context_switches).sum::<u64>().to_string(),
            o.mem.remote_accesses.to_string(),
        ]);
        let b = *base.get_or_insert(o.elapsed_cycles);
        #[allow(clippy::cast_precision_loss)]
        let ratio = b as f64 / o.elapsed_cycles as f64;
        curve_rows.push(vec![pes.to_string(), o.elapsed_cycles.to_string(), format!("{ratio:.2}")]);
    }
    println!(
        "{}",
        text_table(
            &[
                "PEs",
                "cycles",
                "instrs",
                "contexts",
                "peak live",
                "transfers",
                "switches",
                "remote mem"
            ],
            &stat_rows
        )
    );
    println!("{fig_name} — system throughput ratio vs number of processors\n");
    println!("{}", text_table(&["PEs", "cycles", "throughput ratio"], &curve_rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_aligns_columns() {
        let t = text_table(
            &["n", "value"],
            &[vec!["1".into(), "10".into()], vec!["100".into(), "2".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('n'));
        assert!(lines[1].starts_with('-'));
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn workload_set_is_complete() {
        let names: Vec<String> = thesis_workloads().into_iter().map(|w| w.name).collect();
        assert_eq!(names.len(), 4);
        assert!(names[0].contains("matmul"));
        assert!(names[1].contains("fft"));
        assert!(names[2].contains("cholesky"));
        assert!(names[3].contains("congruence"));
    }
}
