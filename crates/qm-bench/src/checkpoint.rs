//! Point-granularity sweep checkpoints: the persistence layer behind
//! `--resume`.
//!
//! A sweep is a grid of independent points, so the natural checkpoint
//! unit is one completed [`PointResult`]: after every point the runner
//! rewrites the checkpoint file, and a resumed run simply skips every
//! point id the file already holds. Nothing about a half-finished
//! *simulation* is stored here — mid-run machine state is the snapshot
//! subsystem's job (`qm_sim::snapshot`); this file only remembers which
//! grid points are done and what they produced.
//!
//! The container reuses the snapshot wire primitives
//! ([`qm_sim::snapshot::wire`]) and error type under its own magic:
//!
//! ```text
//! "qm-chkpt" | u32 version = 6 | u64 grid hash | u32 count
//!   count × { id, workload, config, pes, 8 metric u64s, correct, wall nanos }
//! u64 checksum (over everything above)
//! ```
//!
//! The grid hash — a [`qm_core::rng::checksum`] over the newline-joined
//! point ids — pins a checkpoint to the exact grid that produced it, so
//! resuming a `BENCH_sweep.json` run against another grid (or a grid
//! from an older binary with different points) fails loudly instead of
//! silently merging unrelated results. Decoding validates magic,
//! version, checksum and framing the same way snapshot decoding does:
//! corrupt or truncated files surface as structured
//! [`SnapshotError`]s, never panics.

use std::path::Path;

use qm_sim::snapshot::wire::{Reader, Writer};
use qm_sim::snapshot::SnapshotError;

use crate::sweep::{PointMetrics, PointResult, SweepPoint};

/// File magic: 8 bytes, deliberately different from the machine
/// snapshot's `qm-snap\0`.
const MAGIC: [u8; 8] = *b"qm-chkpt";

/// Checkpoint container version. Bump on any layout change; old files
/// are rejected, not migrated (they are cheap to regenerate).
pub const VERSION: u32 = 6;

/// Completed results of a (possibly interrupted) sweep over one grid.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    grid_hash: u64,
    completed: Vec<PointResult>,
}

/// The identity of a grid: a checksum over its point ids, in order.
#[must_use]
pub fn grid_hash(points: &[SweepPoint]) -> u64 {
    let ids: Vec<&str> = points.iter().map(|p| p.id.as_str()).collect();
    qm_core::rng::checksum(ids.join("\n").as_bytes())
}

impl Checkpoint {
    /// An empty checkpoint pinned to `points`.
    #[must_use]
    pub fn for_grid(points: &[SweepPoint]) -> Checkpoint {
        Checkpoint { grid_hash: grid_hash(points), completed: Vec::new() }
    }

    /// Number of completed points recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.completed.len()
    }

    /// Whether no point has completed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.completed.is_empty()
    }

    /// Whether the point with this id has already completed.
    #[must_use]
    pub fn contains(&self, id: &str) -> bool {
        self.completed.iter().any(|r| r.id == id)
    }

    /// Record one completed point.
    pub fn record(&mut self, r: PointResult) {
        self.completed.push(r);
    }

    /// Fail unless this checkpoint was produced by exactly `points`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] on a grid-hash mismatch.
    pub fn check_grid(&self, points: &[SweepPoint]) -> Result<(), SnapshotError> {
        if self.grid_hash == grid_hash(points) {
            Ok(())
        } else {
            Err(SnapshotError::Malformed(
                "checkpoint was produced by a different sweep grid".into(),
            ))
        }
    }

    /// The results reordered to match `points` — `None` while any grid
    /// point is still missing (completion order in the file reflects the
    /// schedule that ran, which a parallel pass does not preserve).
    #[must_use]
    pub fn in_grid_order(&self, points: &[SweepPoint]) -> Option<Vec<PointResult>> {
        points.iter().map(|p| self.completed.iter().find(|r| r.id == p.id).cloned()).collect()
    }

    /// Serialise to the `qm-chkpt` container.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.grid_hash);
        #[allow(clippy::cast_possible_truncation)]
        w.u32(self.completed.len() as u32);
        for r in &self.completed {
            w.str(&r.id);
            w.str(&r.workload);
            w.str(&r.config);
            w.usize(r.pes);
            let m = &r.metrics;
            w.u64(m.cycles);
            w.u64(m.instructions);
            w.u64(m.contexts);
            w.u64(m.peak_live);
            w.u64(m.transfers);
            w.u64(m.switches);
            w.u64(m.remote_accesses);
            w.u64(m.bus_cycles);
            w.bool(m.correct);
            w.u64(u64::try_from(r.wall.as_nanos()).unwrap_or(u64::MAX));
        }
        let mut out = Vec::with_capacity(MAGIC.len() + 4 + w.as_bytes().len() + 8);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(w.as_bytes());
        let sum = qm_core::rng::checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decode a `qm-chkpt` container, validating magic, version,
    /// trailing checksum and framing.
    ///
    /// # Errors
    ///
    /// Structured [`SnapshotError`]s on any corruption — wrong magic,
    /// unknown version, bit flips, truncation, trailing garbage.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, SnapshotError> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(SnapshotError::Truncated("checkpoint header"));
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        if qm_core::rng::checksum(body) != stored {
            return Err(SnapshotError::ChecksumMismatch { section: 0 });
        }
        let mut r = Reader::new(&body[MAGIC.len()..]);
        let version = r.u32()?;
        if version != VERSION {
            return Err(SnapshotError::UnknownVersion(version));
        }
        let grid = r.u64()?;
        let count = r.u32()?;
        let mut completed = Vec::with_capacity(count.min(4096) as usize);
        for _ in 0..count {
            let id = r.str()?;
            let workload = r.str()?;
            let config = r.str()?;
            let pes = r.usize()?;
            let mut m = [0u64; 8];
            for v in &mut m {
                *v = r.u64()?;
            }
            let correct = r.bool()?;
            let wall_nanos = r.u64()?;
            completed.push(PointResult {
                id,
                workload,
                config,
                pes,
                metrics: PointMetrics {
                    cycles: m[0],
                    instructions: m[1],
                    contexts: m[2],
                    peak_live: m[3],
                    transfers: m[4],
                    switches: m[5],
                    remote_accesses: m[6],
                    bus_cycles: m[7],
                    correct,
                },
                wall: std::time::Duration::from_nanos(wall_nanos),
            });
        }
        if r.remaining() != 0 {
            return Err(SnapshotError::Malformed(format!(
                "{} trailing bytes after the last checkpoint record",
                r.remaining()
            )));
        }
        Ok(Checkpoint { grid_hash: grid, completed })
    }

    /// Write the checkpoint to `path` (whole-file rewrite — sweep
    /// checkpoints are a few KB, so atomicity games are not worth it).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failures.
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        std::fs::write(path, self.encode())
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))
    }

    /// Read a checkpoint back from `path`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failures, otherwise as
    /// [`decode`](Self::decode).
    pub fn load(path: &Path) -> Result<Checkpoint, SnapshotError> {
        let bytes = std::fs::read(path)
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))?;
        Checkpoint::decode(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run_point;
    use qm_sim::config::SystemConfig;

    fn grid() -> Vec<SweepPoint> {
        vec![
            SweepPoint::new("ck/a", qm_workloads::matmul(3), SystemConfig::with_pes(1)),
            SweepPoint::new("ck/b", qm_workloads::matmul(3), SystemConfig::with_pes(2))
                .with_config("pes=2"),
        ]
    }

    #[test]
    fn encode_decode_round_trips_results_exactly() {
        let points = grid();
        let mut ck = Checkpoint::for_grid(&points);
        assert!(ck.is_empty());
        for p in &points {
            ck.record(run_point(p));
        }
        let back = Checkpoint::decode(&ck.encode()).expect("decodes");
        back.check_grid(&points).expect("same grid");
        assert_eq!(back.len(), 2);
        let ordered = back.in_grid_order(&points).expect("complete");
        for (orig, round) in ck.completed.iter().zip(&ordered) {
            assert_eq!(orig.id, round.id);
            assert_eq!(orig.workload, round.workload);
            assert_eq!(orig.config, round.config);
            assert_eq!(orig.pes, round.pes);
            assert_eq!(orig.metrics, round.metrics);
            assert_eq!(orig.wall, round.wall);
        }
    }

    #[test]
    fn partial_checkpoints_report_missing_points() {
        let points = grid();
        let mut ck = Checkpoint::for_grid(&points);
        ck.record(run_point(&points[1]));
        assert!(ck.contains("ck/b") && !ck.contains("ck/a"));
        assert!(ck.in_grid_order(&points).is_none(), "a is still missing");
    }

    #[test]
    fn grid_hash_pins_the_checkpoint_to_its_grid() {
        let points = grid();
        let ck = Checkpoint::for_grid(&points);
        ck.check_grid(&points).expect("own grid passes");
        let other = vec![points[0].clone()];
        assert!(matches!(ck.check_grid(&other), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn corruption_is_rejected_with_structured_errors() {
        let points = grid();
        let mut ck = Checkpoint::for_grid(&points);
        ck.record(run_point(&points[0]));
        let bytes = ck.encode();

        assert!(matches!(Checkpoint::decode(b"shrt"), Err(SnapshotError::Truncated(_))));
        let mut magic = bytes.clone();
        magic[0] ^= 0xFF;
        assert!(matches!(Checkpoint::decode(&magic), Err(SnapshotError::BadMagic)));
        for i in (8..bytes.len()).step_by(11) {
            let mut flip = bytes.clone();
            flip[i] ^= 0x10;
            assert!(Checkpoint::decode(&flip).is_err(), "flip at byte {i} went undetected");
        }
        assert!(Checkpoint::decode(&bytes[..bytes.len() - 3]).is_err(), "truncation");
    }
}
