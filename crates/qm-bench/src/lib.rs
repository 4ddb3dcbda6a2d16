//! Shared helpers for the thesis-evaluation harness.
//!
//! The `repro` binary regenerates every table and figure of the thesis
//! evaluation, one subcommand each (see `DESIGN.md` for the index);
//! `sweep`, `perf_gate`, `replay`, `trace_export` and `verify_workloads`
//! are the other binaries. This crate provides the common text-table
//! formatting, the standard benchmark set, the [`sweep`] runner, the
//! [`perf`] gate and the [`replay`] driver they are built on.

pub mod perf;
pub mod replay;
pub mod sweep;

use qm_workloads::Workload;

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
