//! Job lifecycle: a bounded FIFO queue with per-tenant in-flight caps,
//! and the time-sliced executor that runs one preemption slice per
//! claim.
//!
//! Preemption parks the paused [`System`] itself: a slice stops with
//! [`System::run_until`] at a step boundary, the boxed machine rides the
//! job's [`Continuation`] to the FIFO tail, and the next worker (any
//! worker — a paused `System` is `Send`) calls `run_until` on the same
//! machine. Nothing is captured, encoded or retranslated between slices.
//! Pausing and continuing changes no architectural state, so a job's
//! result — cycle count, outputs, [`Snapshot::state_digest`] — is
//! independent of how often it was preempted or which threads ran its
//! slices. `serve_http`'s end-to-end test asserts exactly that over the
//! wire.
//!
//! Parked machines are bounded by admission: paused jobs wait in the
//! FIFO, which [`JobQueue::submit`] caps at `queue_cap`, and at most one
//! more per worker is requeued past that cap, so no more than
//! `queue_cap` + workers jobs are parked at once.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

use qm_sim::config::SystemConfig;
use qm_sim::snapshot::Snapshot;
use qm_sim::system::{RunOutcome, RunStatus, System};
use qm_verify::{DeepReport, VerifyLevel};
use qm_workloads::cache::Entry;
use qm_workloads::{CompileCache, Lang, Workload, WorkloadRun};

use crate::api::{bundled_workload, ApiError, JobSpec, Program};

/// Server-wide execution defaults (per-job overrides in [`JobSpec`]).
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Preemption slice in cycles; `0` disables slicing (each job runs
    /// to completion or budget in one claim).
    pub slice_cycles: u64,
    /// Watchdog cycle budget: a job still running at this simulated
    /// cycle fails with `budget_exhausted`.
    pub max_cycles: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { slice_cycles: 0, max_cycles: 100_000_000 }
    }
}

/// Job identifier, allocated sequentially from 1.
pub type JobId = u64;

/// Lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing a slice right now.
    Running,
    /// Preempted mid-run; its machine is parked, waiting at the FIFO tail.
    Paused,
    /// Finished; `result` is populated.
    Done,
    /// Rejected or crashed; `error` is populated.
    Failed,
}

impl Status {
    /// Wire name (`docs/API.md`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Queued => "queued",
            Status::Running => "running",
            Status::Paused => "paused",
            Status::Done => "done",
            Status::Failed => "failed",
        }
    }
}

/// A finished job's payload.
#[derive(Debug)]
pub struct JobResult {
    /// The simulator outcome.
    pub outcome: RunOutcome,
    /// Architectural state digest at completion.
    pub state_digest: u64,
    /// Workload jobs: whether results matched expectations.
    pub correct: Option<bool>,
    /// Workload jobs: mismatch descriptions (empty when correct).
    pub mismatches: Vec<String>,
    /// The `verify_report` envelope (absent when verification was off).
    pub verify_json: Option<String>,
}

/// A preempted job: its paused machine, parked until a worker claims
/// the job again.
#[derive(Debug)]
pub struct Continuation {
    sys: Box<System>,
    /// Cycle the next slice resumes at (the pause point).
    resume_at: u64,
    /// Workload jobs carry their workload and compile-cache entry so the
    /// final slice can evaluate correctness.
    workload: Option<(Workload, Arc<Entry>)>,
    verify_json: Option<String>,
}

/// One executor step's verdict.
#[derive(Debug)]
pub enum Step {
    /// Ran to completion.
    Done(JobResult),
    /// Preempted; requeue with this continuation.
    Paused(Continuation),
    /// Failed with a stable error code and a message.
    Failed(&'static str, String),
}

/// What [`execute_slice`] hands back to the queue.
#[derive(Debug)]
pub struct StepReport {
    /// The verdict.
    pub step: Step,
    /// Set on the first slice: whether the compile cache answered.
    pub cache_hit: Option<bool>,
}

/// A claimed unit of work: the job's spec and, for resumed jobs, its
/// continuation.
#[derive(Debug)]
pub struct WorkUnit {
    /// Job id (for logging; completion goes through the queue).
    pub id: JobId,
    spec: JobSpec,
    cont: Option<Continuation>,
}

/// One tracked job.
#[derive(Debug)]
pub struct Job {
    /// Identifier.
    pub id: JobId,
    /// The validated submission.
    pub spec: JobSpec,
    /// Lifecycle state.
    pub status: Status,
    /// Executor slices consumed so far.
    pub slices: u64,
    /// Whether the compile cache answered the first slice.
    pub cache_hit: bool,
    /// Populated when `status == Done`.
    pub result: Option<JobResult>,
    /// Populated when `status == Failed` (code, message).
    pub error: Option<(&'static str, String)>,
    cont: Option<Continuation>,
}

/// Finished jobs kept for `GET /v1/jobs/:id` before eviction.
const RETAIN_FINISHED: usize = 1024;

#[derive(Debug, Default)]
struct QueueState {
    jobs: HashMap<JobId, Job>,
    fifo: VecDeque<JobId>,
    finished: VecDeque<JobId>,
    inflight: HashMap<String, usize>,
    next_id: JobId,
    accepted: u64,
    done: u64,
    failed: u64,
    shutdown: bool,
}

/// Queue counter snapshot for `GET /v1/health`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Jobs waiting for a worker (fresh or preempted).
    pub queued: u64,
    /// Jobs executing a slice right now.
    pub running: u64,
    /// Jobs accepted since startup.
    pub accepted: u64,
    /// Jobs finished successfully.
    pub done: u64,
    /// Jobs failed.
    pub failed: u64,
}

/// The bounded, fair-share job queue.
#[derive(Debug)]
pub struct JobQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    queue_cap: usize,
    tenant_cap: usize,
}

impl JobQueue {
    /// A queue admitting at most `queue_cap` waiting jobs, at most
    /// `tenant_cap` of them in flight per tenant.
    #[must_use]
    pub fn new(queue_cap: usize, tenant_cap: usize) -> Self {
        JobQueue {
            state: Mutex::new(QueueState::default()),
            cv: Condvar::new(),
            queue_cap,
            tenant_cap,
        }
    }

    /// Admit a job, or reject with `429 queue_full` / `429 tenant_busy`.
    /// Preempted jobs re-enter the FIFO without passing these checks —
    /// admission control happens once, at submission.
    ///
    /// # Errors
    ///
    /// [`ApiError`] when a capacity bound would be exceeded.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, ApiError> {
        let mut s = self.state.lock().expect("queue lock");
        if s.shutdown {
            return Err(ApiError::new(503, "shutting_down", "the server is shutting down"));
        }
        if s.fifo.len() >= self.queue_cap {
            return Err(ApiError::new(
                429,
                "queue_full",
                format!("the job queue is full ({} waiting)", s.fifo.len()),
            ));
        }
        let inflight = s.inflight.get(&spec.tenant).copied().unwrap_or(0);
        if inflight >= self.tenant_cap {
            return Err(ApiError::new(
                429,
                "tenant_busy",
                format!("tenant {:?} already has {inflight} jobs in flight", spec.tenant),
            ));
        }
        s.next_id += 1;
        let id = s.next_id;
        s.accepted += 1;
        *s.inflight.entry(spec.tenant.clone()).or_insert(0) += 1;
        s.jobs.insert(
            id,
            Job {
                id,
                spec,
                status: Status::Queued,
                slices: 0,
                cache_hit: false,
                result: None,
                error: None,
                cont: None,
            },
        );
        s.fifo.push_back(id);
        drop(s);
        self.cv.notify_one();
        Ok(id)
    }

    /// Block until a job is available (returning its work unit) or the
    /// queue shuts down (returning `None`).
    pub fn claim(&self) -> Option<WorkUnit> {
        let mut s = self.state.lock().expect("queue lock");
        loop {
            if let Some(id) = s.fifo.pop_front() {
                let job = s.jobs.get_mut(&id).expect("queued job exists");
                job.status = Status::Running;
                let cont = job.cont.take();
                let spec = job.spec.clone();
                return Some(WorkUnit { id, spec, cont });
            }
            if s.shutdown {
                return None;
            }
            s = self.cv.wait(s).expect("queue lock");
        }
    }

    /// Record the outcome of one executed slice.
    pub fn complete(&self, id: JobId, report: StepReport) {
        let mut s = self.state.lock().expect("queue lock");
        let job = s.jobs.get_mut(&id).expect("running job exists");
        job.slices += 1;
        if let Some(hit) = report.cache_hit {
            job.cache_hit = hit;
        }
        let tenant = job.spec.tenant.clone();
        let finished = match report.step {
            Step::Paused(cont) => {
                job.status = Status::Paused;
                job.cont = Some(cont);
                s.fifo.push_back(id);
                false
            }
            Step::Done(result) => {
                job.status = Status::Done;
                job.result = Some(result);
                s.done += 1;
                true
            }
            Step::Failed(code, message) => {
                job.status = Status::Failed;
                job.error = Some((code, message));
                s.failed += 1;
                true
            }
        };
        if finished {
            if let Some(n) = s.inflight.get_mut(&tenant) {
                *n -= 1;
                if *n == 0 {
                    s.inflight.remove(&tenant);
                }
            }
            s.finished.push_back(id);
            while s.finished.len() > RETAIN_FINISHED {
                if let Some(old) = s.finished.pop_front() {
                    s.jobs.remove(&old);
                }
            }
        }
        drop(s);
        self.cv.notify_one();
    }

    /// Run `f` over the job, if it is still tracked.
    pub fn with_job<R>(&self, id: JobId, f: impl FnOnce(&Job) -> R) -> Option<R> {
        let s = self.state.lock().expect("queue lock");
        s.jobs.get(&id).map(f)
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        let s = self.state.lock().expect("queue lock");
        let running = s.jobs.values().filter(|j| j.status == Status::Running).count() as u64;
        QueueStats {
            queued: s.fifo.len() as u64,
            running,
            accepted: s.accepted,
            done: s.done,
            failed: s.failed,
        }
    }

    /// Wake every worker and make further `claim`s return `None`.
    /// In-flight slices finish; queued jobs stay queued.
    pub fn shutdown(&self) {
        self.state.lock().expect("queue lock").shutdown = true;
        self.cv.notify_all();
    }
}

fn system_config(spec: &JobSpec) -> SystemConfig {
    SystemConfig::with_pes(spec.pes)
}

/// `build_entry`'s success: the cache entry, the hit flag, and the
/// bundled workload (when the job named one) for reference checking.
type Built = (Arc<Entry>, bool, Option<Workload>);

/// Compile (or assemble) and verify through the cache, producing the
/// entry and the hit flag. A bundled workload is its generated OCCAM
/// source, so it shares an entry with a raw submission of that source.
fn build_entry(spec: &JobSpec, cache: &CompileCache) -> Result<Built, (&'static str, String)> {
    let page_words = system_config(spec).queue_page_words;
    let lookup = |lang, text: &str| {
        cache
            .lookup(lang, text, &qm_occam::Options::default(), page_words)
            .map_err(|m| ("compile_error", m))
    };
    match &spec.program {
        Program::Occam(src) => lookup(Lang::Occam, src).map(|(entry, hit)| (entry, hit, None)),
        Program::Assembly(src) => {
            lookup(Lang::Assembly, src).map(|(entry, hit)| (entry, hit, None))
        }
        Program::Workload { name, param } => {
            let w = bundled_workload(name, *param).map_err(|e| ("bad_request", e.message))?;
            let (entry, hit) = lookup(Lang::Occam, &w.source)?;
            Ok((entry, hit, Some(w)))
        }
    }
}

/// Execute one preemption slice of `unit`: build the system or resume
/// the parked one, run until the slice limit, and report done / paused /
/// failed.
#[must_use]
pub fn execute_slice(unit: WorkUnit, cache: &CompileCache, defaults: &ExecConfig) -> StepReport {
    let spec = &unit.spec;
    let slice = spec.slice_cycles.unwrap_or(defaults.slice_cycles);
    let budget = spec.max_cycles.unwrap_or(defaults.max_cycles);

    // Build the system (first slice) or take back the parked one.
    let (mut sys, resume_at, workload, verify_json, cache_hit) = match unit.cont {
        None => {
            let (entry, hit, workload) = match build_entry(spec, cache) {
                Ok(v) => v,
                Err((code, msg)) => {
                    return StepReport { step: Step::Failed(code, msg), cache_hit: None };
                }
            };
            if spec.verify == VerifyLevel::Strict && entry.report.has_errors() {
                return StepReport {
                    step: Step::Failed(
                        "verify_rejected",
                        "strict verification found error-severity findings (see the \
                         verify report; resubmit with \"verify\":\"warn\" to run anyway)"
                            .to_string(),
                    ),
                    cache_hit: Some(hit),
                };
            }
            // Deep tier: reuse the entry's stored analysis (a deep
            // cache hit) or run it once and store it for every later
            // deep job on the same program. The deep report replaces
            // the shallow envelope in the job result.
            let deep = spec.deep.then(|| cache.deep_report(&entry));
            if spec.verify == VerifyLevel::Strict && deep.is_some_and(|d| !d.deep_clean()) {
                return StepReport {
                    step: Step::Failed(
                        "verify_rejected",
                        "strict deep verification found error-severity findings (a \
                         statically proven deadlock; see the deep report)"
                            .to_string(),
                    ),
                    cache_hit: Some(hit),
                };
            }
            let verify_json = (spec.verify != VerifyLevel::Off)
                .then(|| deep.map_or_else(|| entry.report.to_json(), DeepReport::to_json));
            let built = if let Some(w) = &workload {
                let run = WorkloadRun { cfg: system_config(spec), ..WorkloadRun::default() };
                run.prepare_compiled(w, &entry.object, &entry.syms).map_err(|e| e.to_string())
            } else {
                qm_sim::Simulation::builder()
                    .config(system_config(spec))
                    .object(&entry.object)
                    .verify(VerifyLevel::Off)
                    .build()
                    .map_err(|e| e.to_string())
            };
            match built {
                Ok(sys) => (Box::new(sys), 0, workload.map(|w| (w, entry)), verify_json, Some(hit)),
                Err(msg) => {
                    return StepReport {
                        step: Step::Failed("sim_error", msg),
                        cache_hit: Some(hit),
                    };
                }
            }
        }
        Some(cont) => (cont.sys, cont.resume_at, cont.workload, cont.verify_json, None),
    };

    let limit = if slice == 0 { budget } else { budget.min(resume_at.saturating_add(slice)) };
    let step = match sys.run_until(limit) {
        Err(e) => Step::Failed("sim_error", e.to_string()),
        Ok(RunStatus::Paused { cycle }) if cycle >= budget => Step::Failed(
            "budget_exhausted",
            format!("still running at cycle {cycle} with a budget of {budget}"),
        ),
        Ok(RunStatus::Paused { cycle }) => {
            Step::Paused(Continuation { sys, resume_at: cycle, workload, verify_json })
        }
        Ok(RunStatus::Done(outcome)) => {
            let state_digest = Snapshot::capture(&sys).state_digest();
            let (correct, mismatches) = match &workload {
                None => (None, Vec::new()),
                Some((w, entry)) => {
                    let run = WorkloadRun { cfg: system_config(spec), ..WorkloadRun::default() };
                    match run.evaluate(w, &sys, &entry.syms, outcome.clone()) {
                        Ok(bench) => (Some(bench.correct), bench.mismatches),
                        Err(e) => (Some(false), vec![e.to_string()]),
                    }
                }
            };
            Step::Done(JobResult { outcome, state_digest, correct, mismatches, verify_json })
        }
    };
    StepReport { step, cache_hit }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Program;

    fn spec(program: Program) -> JobSpec {
        JobSpec {
            program,
            tenant: "t".into(),
            pes: 1,
            verify: VerifyLevel::Warn,
            deep: false,
            max_cycles: None,
            slice_cycles: None,
        }
    }

    fn drain_one(queue: &JobQueue, cache: &CompileCache, defaults: &ExecConfig) {
        let unit = queue.claim().expect("work available");
        let id = unit.id;
        let report = execute_slice(unit, cache, defaults);
        queue.complete(id, report);
    }

    #[test]
    fn capacity_bounds_are_enforced() {
        let q = JobQueue::new(2, 1);
        q.submit(spec(Program::Assembly("main: trap #3,#0".into()))).unwrap();
        // Tenant cap first: same tenant, queue not yet full.
        let err = q.submit(spec(Program::Assembly("x".into()))).unwrap_err();
        assert_eq!(err.code, "tenant_busy");
        // Queue cap: a second tenant fills the queue, a third bounces.
        let mut other = spec(Program::Assembly("y".into()));
        other.tenant = "u".into();
        q.submit(other).unwrap();
        let mut third = spec(Program::Assembly("z".into()));
        third.tenant = "v".into();
        assert_eq!(q.submit(third).unwrap_err().code, "queue_full");
    }

    #[test]
    fn assembly_job_runs_to_done() {
        let q = JobQueue::new(8, 8);
        let cache = CompileCache::new();
        let defaults = ExecConfig::default();
        let id =
            q.submit(spec(Program::Assembly("main: send+3 #0,#7\n trap #3,#0".into()))).unwrap();
        drain_one(&q, &cache, &defaults);
        q.with_job(id, |j| {
            assert_eq!(j.status, Status::Done);
            let r = j.result.as_ref().expect("result");
            assert_eq!(r.outcome.output, vec![7]);
            assert!(r.verify_json.is_some());
        })
        .unwrap();
        assert_eq!(q.stats().done, 1);
    }

    /// Resuming in place keeps host-side state a fresh machine would
    /// not have — the translation, the channel contention hints, the
    /// run-loop counters — so slicing is checked where that state is
    /// busiest: many PEs with quiet channel transfers running ahead, and
    /// 1-cycle slices that pause inside contact windows.
    #[test]
    fn sliced_run_matches_unsliced_bit_for_bit() {
        let cases: [(&str, usize, usize, u64); 5] = [
            ("matmul", 4, 1, 500),
            ("matmul", 4, 1, 1),
            ("fft", 8, 8, 40),
            ("fft", 8, 8, 1),
            ("congruence", 4, 16, 1),
        ];
        let cache = CompileCache::new();
        let defaults = ExecConfig::default();
        for (name, param, pes, slice) in cases {
            let q = JobQueue::new(8, 8);
            let mut whole = spec(Program::Workload { name: name.into(), param });
            whole.pes = pes;
            let mut sliced = whole.clone();
            sliced.slice_cycles = Some(slice);
            let id_whole = q.submit(whole).unwrap();
            let id_sliced = q.submit(sliced).unwrap();
            // Drain until both jobs settle (the sliced one requeues itself).
            while q.stats().done + q.stats().failed < 2 {
                drain_one(&q, &cache, &defaults);
            }
            let result = |id| {
                q.with_job(id, |j| {
                    let r = j.result.as_ref().unwrap_or_else(|| panic!("{:?}", j.error));
                    assert_eq!(r.correct, Some(true), "{name}({param}) on {pes} PEs");
                    (j.slices, r.state_digest, r.outcome.clone())
                })
                .unwrap()
            };
            let (whole_slices, d1, o1) = result(id_whole);
            let (slices, d2, o2) = result(id_sliced);
            let case = format!("{name}({param}) on {pes} PEs in {slice}-cycle slices");
            assert_eq!(whole_slices, 1);
            assert!(slices > 2, "{case}: must be preempted more than once, ran {slices} slices");
            assert_eq!((d1, &o1), (d2, &o2), "{case}: preemption must not change the result");
            let (mut oracle, _) = WorkloadRun::with_pes(pes)
                .prepare(&bundled_workload(name, param).unwrap())
                .unwrap();
            oracle.use_step_oracle();
            let want = oracle.run().unwrap();
            assert_eq!(
                (Snapshot::capture(&oracle).state_digest(), &want),
                (d2, &o2),
                "{case}: the sliced engine run must equal the Pe::step oracle"
            );
        }
    }

    #[test]
    fn sliced_job_matches_the_step_oracle() {
        let cache = CompileCache::new();
        let q = JobQueue::new(8, 8);
        // The retired backend field is an unknown field and changes
        // nothing; slicing runs the preempt → resume path too.
        let body = br#"{"workload":"matmul","param":4,"verify":"warn","backend":"interp","slice_cycles":500}"#;
        let id = q.submit(crate::api::parse_job(body).unwrap()).unwrap();
        let defaults = ExecConfig::default();
        while q.stats().done + q.stats().failed < 1 {
            drain_one(&q, &cache, &defaults);
        }
        let (slices, got) = q
            .with_job(id, |j| {
                let r = j.result.as_ref().expect("job result");
                (j.slices, (r.state_digest, r.outcome.elapsed_cycles, r.correct))
            })
            .unwrap();
        assert!(slices > 1, "the job must have been preempted at least once");
        let (mut oracle, _) = WorkloadRun::new().prepare(&qm_workloads::matmul(4)).unwrap();
        oracle.use_step_oracle();
        let cycles = oracle.run().unwrap().elapsed_cycles;
        let want = (Snapshot::capture(&oracle).state_digest(), cycles, Some(true));
        assert_eq!(got, want, "the engine must be bit-identical to the Pe::step oracle");
    }

    #[test]
    fn legacy_shards_field_is_accepted_and_changes_nothing() {
        let cache = CompileCache::new();
        let q = JobQueue::new(8, 8);
        let body = |shards| {
            let json = format!(r#"{{"workload":"matmul","param":4,"pes":8,"shards":{shards}}}"#);
            crate::api::parse_job(json.as_bytes()).expect("unknown fields are ignored")
        };
        let serial = q.submit(body(0)).unwrap();
        let legacy = q.submit(body(4)).unwrap();
        let defaults = ExecConfig::default();
        while q.stats().done + q.stats().failed < 2 {
            drain_one(&q, &cache, &defaults);
        }
        let result = |id| {
            q.with_job(id, |j| {
                let r = j.result.as_ref().expect("result");
                (r.outcome.elapsed_cycles, r.state_digest, r.correct)
            })
            .unwrap()
        };
        let a = result(serial);
        assert_eq!(a, result(legacy), "the ignored shards field must not change the result");
        assert_eq!(a.2, Some(true));
    }

    #[test]
    fn budget_exhaustion_fails_cleanly() {
        let q = JobQueue::new(8, 8);
        let cache = CompileCache::new();
        let mut s = spec(Program::Workload { name: "matmul".into(), param: 4 });
        s.max_cycles = Some(100);
        let id = q.submit(s).unwrap();
        drain_one(&q, &cache, &ExecConfig::default());
        q.with_job(id, |j| {
            assert_eq!(j.status, Status::Failed);
            assert_eq!(j.error.as_ref().unwrap().0, "budget_exhausted");
        })
        .unwrap();
    }

    #[test]
    fn strict_verification_rejects_bad_assembly() {
        let q = JobQueue::new(8, 8);
        let cache = CompileCache::new();
        // A program that underflows its queue: consumes with no producer.
        let mut s = spec(Program::Assembly("main: plus+2 #1,#2 :r0\n trap #2,#0".into()));
        s.verify = VerifyLevel::Strict;
        let id = q.submit(s).unwrap();
        drain_one(&q, &cache, &ExecConfig::default());
        q.with_job(id, |j| {
            assert_eq!(j.status, Status::Failed, "{:?}", j.error);
            assert_eq!(j.error.as_ref().unwrap().0, "verify_rejected");
        })
        .unwrap();
    }

    #[test]
    fn deep_jobs_reuse_the_stored_analysis_and_match_shallow_runs() {
        let q = JobQueue::new(8, 8);
        let cache = CompileCache::new();
        let defaults = ExecConfig::default();
        let shallow = spec(Program::Workload { name: "reduction".into(), param: 8 });
        let mut deep = shallow.clone();
        deep.deep = true;
        let id_shallow = q.submit(shallow).unwrap();
        let id_deep_a = q.submit(deep.clone()).unwrap();
        let id_deep_b = q.submit(deep).unwrap();
        for _ in 0..3 {
            drain_one(&q, &cache, &defaults);
        }
        let digest =
            |id| q.with_job(id, |j| j.result.as_ref().expect("done").state_digest).unwrap();
        assert_eq!(
            digest(id_shallow),
            digest(id_deep_a),
            "the deep analysis must not change results"
        );
        assert_eq!(digest(id_deep_a), digest(id_deep_b));
        let deep_json = q
            .with_job(id_deep_a, |j| j.result.as_ref().unwrap().verify_json.clone().unwrap())
            .unwrap();
        assert!(deep_json.contains("\"kind\":\"deep_report\""), "{deep_json}");
        let shallow_json = q
            .with_job(id_shallow, |j| j.result.as_ref().unwrap().verify_json.clone().unwrap())
            .unwrap();
        assert!(shallow_json.contains("\"kind\":\"verify_report\""), "{shallow_json}");
        let s = cache.stats();
        assert_eq!(
            (s.deep_hits, s.deep_misses),
            (1, 1),
            "the second deep job reuses the stored analysis"
        );
    }

    #[test]
    fn identical_resubmission_hits_the_cache() {
        let q = JobQueue::new(8, 8);
        let cache = CompileCache::new();
        let defaults = ExecConfig::default();
        let a = q.submit(spec(Program::Workload { name: "reduction".into(), param: 8 })).unwrap();
        drain_one(&q, &cache, &defaults);
        let b = q.submit(spec(Program::Workload { name: "reduction".into(), param: 8 })).unwrap();
        drain_one(&q, &cache, &defaults);
        assert_eq!(q.with_job(a, |j| j.cache_hit), Some(false));
        assert_eq!(q.with_job(b, |j| j.cache_hit), Some(true));
        assert_eq!(cache.stats().hits, 1);
        let (da, db) = (
            q.with_job(a, |j| j.result.as_ref().unwrap().state_digest).unwrap(),
            q.with_job(b, |j| j.result.as_ref().unwrap().state_digest).unwrap(),
        );
        assert_eq!(da, db, "a cache hit must not change results");
    }
}
