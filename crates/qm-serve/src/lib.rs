//! `qm-serve` — the queue-machine simulator as a multi-tenant service.
//!
//! One process serves simulation jobs over a tiny hand-rolled HTTP/1.1
//! surface (`std::net` only — this workspace takes no external
//! dependencies):
//!
//! - `POST /v1/jobs` — submit OCCAM source, raw assembly or a bundled
//!   workload, plus system knobs (`pes`, `verify`, `deep`,
//!   `max_cycles`, `slice_cycles`). Answers `202` with a `job` envelope.
//!   The legacy `shards` (0..=64) and `backend` (`interp` or
//!   `translated`) fields are still validated and then ignored: every
//!   job runs on the one engine and the serial scheduler, and results
//!   never depended on either.
//! - `GET /v1/jobs/:id` — poll a job; finished jobs carry the full
//!   `run_outcome` body, the architectural state digest and the verify
//!   report.
//! - `GET /v1/health` — queue and compile-cache counters.
//!
//! Every response is a `qm-api/v1` envelope (`docs/API.md`).
//!
//! Three mechanisms make the service multi-tenant rather than a REPL:
//!
//! - a **content-hashed compile cache** ([`cache`]): identical programs
//!   compile and verify once; later submissions skip straight to
//!   execution (determinism makes the cached artifacts exact);
//! - a **bounded FIFO queue with per-tenant in-flight caps** ([`jobs`]):
//!   admission control at submit time, fair drain order after;
//! - **in-memory preemption** ([`jobs`]): long jobs run in cycle
//!   slices, their paused machines parked and requeued between slices,
//!   so short jobs are never starved — and pausing at a step boundary
//!   changes no architectural state (`docs/DETERMINISM.md`), so slicing
//!   cannot change results.

pub mod api;
pub mod cache;
pub mod http;
pub mod jobs;
pub mod server;

pub use api::{ApiError, JobSpec, Program};
pub use cache::CompileCache;
pub use jobs::{ExecConfig, JobQueue};
pub use server::{ServeConfig, Server};
