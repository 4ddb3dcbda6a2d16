//! Continuous performance gate: measure the simulator's per-cycle host
//! cost on a fixed point set and compare against a committed baseline
//! (`BENCH_baseline.json`, schema `qm-bench-perf/v1`).
//!
//! Raw wall times are useless across machines — and on shared CI
//! runners even across *minutes* — so the gated statistic is
//! normalised twice:
//!
//! 1. **Per simulated cycle.** Simulation work scales with cycles, and
//!    cycles are deterministic (pinned bit-exactly by the gate), so
//!    `ns/cycle` is the machine-dependent residual. Only the
//!    simulation loop is timed; compiling the workload is untimed
//!    setup.
//! 2. **By an interleaved calibration probe.** A fixed piece of host
//!    work — sort pseudo-random words, index a sample of them in a
//!    `BTreeMap`, fold them — measures how fast the host runs
//!    *immediately before each timed run*. The gated figure is the
//!    ratio `point ns/cycle ÷ probe ns/item` (`rel_cost`): host speed,
//!    CPU throttling and noisy neighbours multiply both halves of a
//!    pair and cancel, so the same baseline gates on fast laptops and
//!    oversubscribed CI containers alike. The probe calls no
//!    repository code, so no change to the simulator moves it: a
//!    uniform slowdown of the simulator shows in every point, and a
//!    uniform speed-up cannot make an unchanged point read slower.
//!
//! What remains is a genuine change in simulator work per cycle —
//! exactly what the scheduler-scan
//! regression this gate was built against would show (it was ~8× on
//! `perf/cholesky/1pe`, vs the 5% default tolerance). Each figure is
//! the minimum over [`RUNS`] pairs, the standard robust estimator for
//! "how fast can this code go" under scheduler noise.
//!
//! The gate also pins every point's cycle count bit-exactly: a cycles
//! mismatch means the simulation itself changed, which is a different
//! failure (and a louder one) than a slowdown.

use std::collections::BTreeMap;
use std::time::Instant;

use qm_sim::config::SystemConfig;

use crate::sweep::{f3, json_escape, run_point, SweepPoint};

/// Measurement pairs per figure; the minimum is kept.
pub const RUNS: usize = 5;

/// Default relative tolerance of the gate (fail above +5%).
pub const TOLERANCE: f64 = 0.05;

/// Words the calibration probe sorts; every seventh is indexed.
const PROBE_ITEMS: u32 = 100_000;

/// One gated figure: a point's deterministic cycle count and its
/// measured per-cycle host cost.
#[derive(Debug, Clone)]
pub struct PerfPoint {
    /// The grid point's id, e.g. `perf/cholesky/1pe`.
    pub id: String,
    /// Simulated cycles — deterministic, compared bit-exactly.
    pub cycles: u64,
    /// Host nanoseconds per simulated cycle (minimum over [`RUNS`];
    /// informative only — raw wall time is not gated).
    pub ns_per_cycle: f64,
    /// The gated figure: this point's ns/cycle divided by the
    /// interleaved calibration probe's ns/item (minimum over [`RUNS`]
    /// pairs). Host-independent.
    pub rel_cost: f64,
}

/// A full measurement: the calibration figure plus every gated point.
/// Both the committed baseline and a fresh gate run have this shape.
#[derive(Debug, Clone)]
pub struct PerfBaseline {
    /// Calibration probe ns/item on the host that produced this
    /// measurement (minimum over all pairs; informative only —
    /// `rel_cost` already embeds its own per-pair calibration).
    pub calibration_ns_per_item: f64,
    /// Gated points, in grid order.
    pub points: Vec<PerfPoint>,
}

/// The points the gate times: the 1-PE regime the scheduler fix
/// targets (densest context switching — where the superlinear scan
/// lived), its multi-PE counterparts, and one point per remaining
/// thesis workload family. Deliberately small: the whole gate (with
/// [`RUNS`] repeats and calibration) is a few seconds of wall time.
#[must_use]
pub fn gate_grid() -> Vec<SweepPoint> {
    let mk = |family: &str, w: qm_workloads::Workload, pes: usize| {
        SweepPoint::new(format!("perf/{family}/{pes}pe"), w, SystemConfig::with_pes(pes))
    };
    vec![
        mk("cholesky", qm_workloads::cholesky(8), 1),
        mk("cholesky", qm_workloads::cholesky(8), 2),
        mk("matmul8", qm_workloads::matmul(8), 1),
        mk("matmul8", qm_workloads::matmul(8), 8),
        mk("congruence", qm_workloads::congruence(8), 1),
        mk("reduction", qm_workloads::reduction(64), 1),
        mk("fft", qm_workloads::fft(16), 8),
    ]
}

#[allow(clippy::cast_precision_loss)]
fn per_cycle(ns: u128, cycles: u64) -> f64 {
    ns as f64 / (cycles.max(1) as f64)
}

/// Run the calibration probe once: `(wall ns per item, checksum)`.
/// The probe is fixed host work that calls no repository code; the
/// checksum keeps the optimiser from discarding it and lets a test pin
/// that the work itself never varies.
#[allow(clippy::cast_precision_loss)]
fn calibration_run() -> (f64, u64) {
    let t = Instant::now();
    let mut x: u32 = 12345;
    let mut v: Vec<u32> = (0..PROBE_ITEMS)
        .map(|_| {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            x
        })
        .collect();
    v.sort_unstable();
    let index: BTreeMap<u32, usize> =
        v.iter().step_by(7).enumerate().map(|(i, &e)| (e, i)).collect();
    let fold = v.iter().fold(0u64, |a, &e| a.wrapping_mul(31).wrapping_add(u64::from(e)));
    let sum = std::hint::black_box(fold ^ index.len() as u64);
    (t.elapsed().as_nanos() as f64 / f64::from(PROBE_ITEMS), sum)
}

/// Run one gate point with only the simulation loop timed (compilation
/// and memory initialisation are untimed setup): `(wall ns, cycles)`.
///
/// # Panics
///
/// Panics if the fixed workload fails to build or run.
fn timed_point(p: &SweepPoint) -> (u128, u64) {
    let run = qm_workloads::WorkloadRun::new().config(p.cfg.clone()).options(p.opts);
    let (mut sys, _) = run.prepare(&p.workload).unwrap_or_else(|e| panic!("{}: {e}", p.id));
    let t = Instant::now();
    let out = sys.run().unwrap_or_else(|e| panic!("{}: {e}", p.id));
    (t.elapsed().as_nanos(), out.elapsed_cycles)
}

/// Measure every gate point: one untimed correctness run, then `runs`
/// interleaved (calibration, point) timing pairs, keeping per-figure
/// minima.
///
/// # Panics
///
/// Panics if any fixed workload fails to run or verifies incorrect, or
/// if a point's cycle count varies between runs (determinism is a
/// prerequisite of the schema).
#[must_use]
pub fn measure(runs: usize) -> PerfBaseline {
    let runs = runs.max(1);
    let mut calib_best = f64::INFINITY;
    let points = gate_grid()
        .iter()
        .map(|p| {
            // Correctness and the pinned cycle count come from a full
            // verified run, outside the timing pairs.
            let r = run_point(p);
            assert!(r.metrics.correct, "{}: result incorrect", p.id);
            let cycles = r.metrics.cycles;

            // Minima are taken independently over the point's own
            // interleaved calibration runs, then divided: each side
            // only has to dodge a noise burst once in `runs` attempts,
            // where a min-of-ratios would need one *pair* with both
            // sides clean simultaneously.
            let mut best_ns = f64::INFINITY;
            let mut best_calib = f64::INFINITY;
            for _ in 0..runs {
                best_calib = best_calib.min(calibration_run().0);
                let (ns, timed_cycles) = timed_point(p);
                assert_eq!(timed_cycles, cycles, "{}: cycle count varies between runs", p.id);
                best_ns = best_ns.min(per_cycle(ns, cycles));
            }
            calib_best = calib_best.min(best_calib);
            PerfPoint {
                id: p.id.clone(),
                cycles,
                ns_per_cycle: best_ns,
                rel_cost: best_ns / best_calib,
            }
        })
        .collect();
    PerfBaseline { calibration_ns_per_item: calib_best, points }
}

impl PerfBaseline {
    /// Serialise as `BENCH_baseline.json` (schema `qm-bench-perf/v2`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"qm-bench-perf/v2\",\n");
        out.push_str(&format!(
            "  \"calibration_ns_per_item\": {},\n",
            f3(self.calibration_ns_per_item)
        ));
        out.push_str("  \"points\": [\n");
        let rows: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    "    {{\"id\": \"{}\", \"cycles\": {}, \"ns_per_cycle\": {}, \
                     \"rel_cost\": {:.4}}}",
                    json_escape(&p.id),
                    p.cycles,
                    f3(p.ns_per_cycle),
                    p.rel_cost,
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parse a `qm-bench-perf/v2` file (the exact shape
    /// [`to_json`](Self::to_json) writes; this is a schema reader, not
    /// a general JSON parser).
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed field.
    pub fn parse(text: &str) -> Result<PerfBaseline, String> {
        if !text.contains("\"schema\": \"qm-bench-perf/v2\"") {
            return Err("not a qm-bench-perf/v2 file".into());
        }
        let calibration_ns_per_item =
            field_f64(text, "calibration_ns_per_item").ok_or("missing calibration_ns_per_item")?;
        let mut points = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if !line.starts_with('{') || !line.contains("\"id\"") {
                continue;
            }
            let id = field_str(line, "id").ok_or_else(|| format!("point without id: {line}"))?;
            let cycles =
                field_f64(line, "cycles").ok_or_else(|| format!("{id}: missing cycles"))?;
            let ns_per_cycle = field_f64(line, "ns_per_cycle")
                .ok_or_else(|| format!("{id}: missing ns_per_cycle"))?;
            let rel_cost =
                field_f64(line, "rel_cost").ok_or_else(|| format!("{id}: missing rel_cost"))?;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            points.push(PerfPoint { id, cycles: cycles as u64, ns_per_cycle, rel_cost });
        }
        if points.is_empty() {
            return Err("no points in baseline".into());
        }
        Ok(PerfBaseline { calibration_ns_per_item, points })
    }
}

fn field_f64(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &text[text.find(&pat)? + pat.len()..];
    let rest = rest.trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn field_str(text: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let rest = &text[text.find(&pat)? + pat.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Fold measurement `b` into `a`, keeping per-figure minima (matched
/// by point id; points only in one input are kept as-is). Used by the
/// gate's retry pass: re-measuring and merging gives transient host
/// noise a second chance to get out of the way, while a genuine
/// regression survives every merge.
pub fn merge_min(a: &mut PerfBaseline, b: &PerfBaseline) {
    a.calibration_ns_per_item = a.calibration_ns_per_item.min(b.calibration_ns_per_item);
    for p in &mut a.points {
        if let Some(q) = b.points.iter().find(|q| q.id == p.id) {
            p.ns_per_cycle = p.ns_per_cycle.min(q.ns_per_cycle);
            p.rel_cost = p.rel_cost.min(q.rel_cost);
        }
    }
}

/// Timing runs per side of the multi-PE ratio check; the minimum is
/// kept.
pub const RATIO_RUNS: usize = 7;

/// Bound of the multi-PE ratio check: 1.56, the median ratio measured
/// when quiet channel transfers began to run ahead of the cycle order
/// (Intel Xeon, 2-vCPU shared host), plus 15%. The run loop before that
/// change measured 1.69–2.36 on the same host (median 2.07).
pub const MULTI_PE_RATIO_BOUND: f64 = 1.79;

/// The multi-PE ratio check's figure: host ns per retired instruction
/// of matmul(16) on 16 PEs divided by the same on 1 PE. Both runs retire
/// the same instructions, so the ratio is the run loop's scheduling
/// overhead at 16 PEs, and host speed cancels out of it. The two sides
/// are timed in interleaved pairs, `runs` of them, and each side keeps
/// its minimum. Gated against [`MULTI_PE_RATIO_BOUND`], apart from
/// `BENCH_baseline.json`.
///
/// # Panics
///
/// Panics if matmul(16) fails to build or run.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn multi_pe_ratio(runs: usize) -> f64 {
    let w = qm_workloads::matmul(16);
    let per_instr = |pes: usize| {
        let run = qm_workloads::WorkloadRun::with_pes(pes);
        let (mut sys, _) = run.prepare(&w).unwrap_or_else(|e| panic!("matmul(16): {e}"));
        let t = Instant::now();
        let out = sys.run().unwrap_or_else(|e| panic!("matmul(16) on {pes} PEs: {e}"));
        t.elapsed().as_nanos() as f64 / out.instructions.max(1) as f64
    };
    let (mut one, mut sixteen) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..runs.max(1) {
        one = one.min(per_instr(1));
        sixteen = sixteen.min(per_instr(16));
    }
    sixteen / one
}

/// One gate comparison line: the point, its slowdown ratio
/// (`> 1 + tolerance` fails), and whether it passed.
#[derive(Debug, Clone)]
pub struct GateLine {
    /// Point id.
    pub id: String,
    /// `rel_cost now / rel_cost baseline` — 1.0 means unchanged.
    pub ratio: f64,
    /// Human-readable verdict for the report.
    pub detail: String,
    /// Whether this point is within tolerance (and cycles match).
    pub ok: bool,
}

/// Compare a fresh measurement against the committed baseline on the
/// calibration-relative `rel_cost` figures. `tolerance` is relative
/// (0.05 = fail above +5% relative cost).
#[must_use]
pub fn gate(now: &PerfBaseline, baseline: &PerfBaseline, tolerance: f64) -> Vec<GateLine> {
    now.points
        .iter()
        .map(|p| {
            let Some(b) = baseline.points.iter().find(|b| b.id == p.id) else {
                return GateLine {
                    id: p.id.clone(),
                    ratio: f64::NAN,
                    detail: "not in baseline — refresh BENCH_baseline.json".into(),
                    ok: false,
                };
            };
            if b.cycles != p.cycles {
                return GateLine {
                    id: p.id.clone(),
                    ratio: f64::NAN,
                    detail: format!(
                        "cycle count changed: {} baseline vs {} now — the simulation \
                         itself changed; refresh the baseline if intended",
                        b.cycles, p.cycles
                    ),
                    ok: false,
                };
            }
            let ratio = p.rel_cost / b.rel_cost;
            GateLine {
                id: p.id.clone(),
                ratio,
                detail: format!(
                    "rel cost {:.2} vs {:.2} baseline ({:.1} ns/cycle raw)",
                    p.rel_cost, b.rel_cost, p.ns_per_cycle
                ),
                ok: ratio <= 1.0 + tolerance,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfBaseline {
        PerfBaseline {
            calibration_ns_per_item: 100.0,
            points: vec![
                PerfPoint {
                    id: "perf/a/1pe".into(),
                    cycles: 1000,
                    ns_per_cycle: 50.0,
                    rel_cost: 0.5,
                },
                PerfPoint {
                    id: "perf/b/2pe".into(),
                    cycles: 2000,
                    ns_per_cycle: 80.0,
                    rel_cost: 0.8,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let b = sample();
        let parsed = PerfBaseline::parse(&b.to_json()).expect("parses");
        assert_eq!(parsed.points.len(), 2);
        assert_eq!(parsed.points[0].id, "perf/a/1pe");
        assert_eq!(parsed.points[0].cycles, 1000);
        assert!((parsed.calibration_ns_per_item - 100.0).abs() < 1e-9);
        assert!((parsed.points[1].ns_per_cycle - 80.0).abs() < 1e-9);
        assert!((parsed.points[1].rel_cost - 0.8).abs() < 1e-9);
    }

    #[test]
    fn gate_ignores_host_speed_and_catches_relative_regressions() {
        let base = sample();
        // A slower host moves raw ns/cycle but not rel_cost: passes.
        let mut now = sample();
        now.calibration_ns_per_item = 200.0;
        for p in &mut now.points {
            p.ns_per_cycle *= 2.0;
        }
        assert!(gate(&now, &base, TOLERANCE).iter().all(|l| l.ok));

        // A genuine 50% relative regression fails only that point.
        now.points[0].rel_cost *= 1.5;
        let lines = gate(&now, &base, TOLERANCE);
        assert!(!lines[0].ok && lines[0].ratio > 1.4);
        assert!(lines[1].ok);
    }

    #[test]
    fn gate_pins_cycles_bit_exactly() {
        let base = sample();
        let mut now = sample();
        now.points[1].cycles += 1;
        let lines = gate(&now, &base, TOLERANCE);
        assert!(lines[0].ok);
        assert!(!lines[1].ok && lines[1].detail.contains("cycle count changed"));
    }

    #[test]
    fn gate_flags_points_missing_from_the_baseline() {
        let base = sample();
        let mut now = sample();
        now.points[0].id = "perf/new/1pe".into();
        let lines = gate(&now, &base, TOLERANCE);
        assert!(!lines[0].ok && lines[0].detail.contains("not in baseline"));
    }

    #[test]
    fn calibration_program_is_deterministic() {
        let (ns1, sum1) = calibration_run();
        let (ns2, sum2) = calibration_run();
        assert_eq!(sum1, sum2, "the calibration probe does the same work every run");
        assert!(ns1 > 0.0 && ns2 > 0.0, "calibration probe is timed: {ns1} {ns2}");
    }

    #[test]
    fn grid_ids_are_unique_and_prefixed() {
        let grid = gate_grid();
        let mut ids: Vec<&str> = grid.iter().map(|p| p.id.as_str()).collect();
        assert!(ids.iter().all(|i| i.starts_with("perf/")));
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), grid.len());
    }

    #[test]
    fn gate_points_match_the_oracle() {
        let grid = gate_grid();
        assert_eq!(grid.len(), 7);
        // Spot-check one point against the `Pe::step` oracle; the full
        // grid is pinned against the baseline by the gate itself and by
        // the sweep's `identical` flag.
        let oracle = crate::sweep::run_oracle(&grid[..1]);
        assert_eq!(run_point(&grid[0]).metrics, oracle[0].metrics, "engine changed the simulation");
    }
}
