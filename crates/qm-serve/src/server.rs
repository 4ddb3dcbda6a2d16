//! The serving loop: a listener thread, a small connection-handler pool
//! and a fixed pool of job workers, all over `std` primitives.
//!
//! Connections and jobs are deliberately decoupled: a `POST /v1/jobs`
//! only parses, admits and enqueues (microseconds), so the HTTP pool
//! stays responsive no matter how long simulations run. Workers drain
//! the job queue one preemption slice at a time, so a long job cannot
//! starve the short ones queued behind it.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use qm_core::json::Envelope;
use qm_sim::report::digest_hex;
use qm_workloads::CompileCache;

use crate::api::{parse_job, ApiError};
use crate::http::{read_request, write_response, HttpError, Request};
use crate::jobs::{execute_slice, ExecConfig, Job, JobQueue};

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port (the bound address
    /// is reported by [`Server::addr`]).
    pub addr: String,
    /// Job-worker threads (simulation parallelism).
    pub workers: usize,
    /// Connection-handler threads.
    pub http_workers: usize,
    /// Default preemption slice in cycles (`0` = no slicing); jobs can
    /// override per-submission.
    pub slice_cycles: u64,
    /// Default watchdog cycle budget; jobs can override downward or up.
    pub max_cycles: u64,
    /// Maximum queued jobs.
    pub queue_cap: usize,
    /// Maximum in-flight jobs per tenant.
    pub tenant_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            http_workers: 2,
            slice_cycles: 0,
            max_cycles: ExecConfig::default().max_cycles,
            queue_cap: 256,
            tenant_cap: 8,
        }
    }
}

struct Shared {
    queue: JobQueue,
    cache: CompileCache,
    defaults: ExecConfig,
    workers: usize,
    conns: Mutex<Vec<TcpStream>>,
    conns_cv: Condvar,
    stopping: AtomicBool,
}

/// A running server; dropping it *without* calling
/// [`shutdown`](Self::shutdown) leaves the threads running detached.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving. Returns once the listener is accepting.
    ///
    /// # Errors
    ///
    /// `io::Error` if the address cannot be bound.
    pub fn start(cfg: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: JobQueue::new(cfg.queue_cap, cfg.tenant_cap),
            cache: CompileCache::new(),
            defaults: ExecConfig { slice_cycles: cfg.slice_cycles, max_cycles: cfg.max_cycles },
            workers: cfg.workers,
            conns: Mutex::new(Vec::new()),
            conns_cv: Condvar::new(),
            stopping: AtomicBool::new(false),
        });

        let mut threads = Vec::new();
        for i in 0..cfg.workers.max(1) {
            let s = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("qm-serve-job-{i}"))
                    .spawn(move || job_worker(&s))?,
            );
        }
        for i in 0..cfg.http_workers.max(1) {
            let s = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("qm-serve-http-{i}"))
                    .spawn(move || http_worker(&s))?,
            );
        }
        {
            let s = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("qm-serve-accept".to_string())
                    .spawn(move || accept_loop(&listener, &s))?,
            );
        }
        Ok(Server { shared, addr, threads })
    }

    /// The bound address (useful with an ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wake every pool thread and join them. In-flight
    /// slices finish; queued jobs are dropped with the queue.
    pub fn shutdown(mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.queue.shutdown();
        self.shared.conns_cv.notify_all();
        // The accept loop is blocked in accept(); poke it awake.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
                shared.conns.lock().expect("conn lock").push(stream);
                shared.conns_cv.notify_one();
            }
            Err(_) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

fn http_worker(shared: &Shared) {
    loop {
        let stream = {
            let mut conns = shared.conns.lock().expect("conn lock");
            loop {
                if let Some(stream) = conns.pop() {
                    break stream;
                }
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
                conns = shared.conns_cv.wait(conns).expect("conn lock");
            }
        };
        serve_connection(shared, stream);
    }
}

fn job_worker(shared: &Shared) {
    while let Some(unit) = shared.queue.claim() {
        let id = unit.id;
        let report = execute_slice(unit, &shared.cache, &shared.defaults);
        shared.queue.complete(id, report);
    }
}

fn serve_connection(shared: &Shared, stream: TcpStream) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    let (status, body) = match read_request(&mut reader) {
        Ok(req) => route(shared, &req),
        Err(HttpError::TooLarge(what)) => {
            let e = ApiError::new(413, "payload_too_large", format!("{what} exceeds the cap"));
            (e.status, e.to_json())
        }
        Err(e) => {
            let e = ApiError::new(400, "bad_request", e.to_string());
            (e.status, e.to_json())
        }
    };
    let _ = write_response(&mut writer, status, &body);
}

fn route(shared: &Shared, req: &Request) -> (u16, String) {
    let result = match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/jobs") => post_job(shared, &req.body),
        ("GET", "/v1/health") => Ok((200, health_json(shared))),
        ("GET", path) if path.starts_with("/v1/jobs/") => get_job(shared, path),
        ("GET", "/v1/jobs") | ("POST", "/v1/health") => {
            Err(ApiError::new(405, "method_not_allowed", "see docs/API.md for the v1 surface"))
        }
        _ => Err(ApiError::new(404, "not_found", "unknown route (the API is rooted at /v1)")),
    };
    result.unwrap_or_else(|e| (e.status, e.to_json()))
}

fn post_job(shared: &Shared, body: &[u8]) -> Result<(u16, String), ApiError> {
    let spec = parse_job(body)?;
    let id = shared.queue.submit(spec)?;
    let json = shared
        .queue
        .with_job(id, job_json)
        .ok_or_else(|| ApiError::new(500, "internal", "job vanished between submit and render"))?;
    Ok((202, json))
}

fn get_job(shared: &Shared, path: &str) -> Result<(u16, String), ApiError> {
    let id: u64 = path["/v1/jobs/".len()..]
        .parse()
        .map_err(|_| ApiError::new(400, "bad_request", "job ids are integers"))?;
    let json = shared.queue.with_job(id, job_json).ok_or_else(|| {
        ApiError::new(404, "not_found", format!("no job {id} (evicted or never submitted)"))
    })?;
    Ok((200, json))
}

/// Render a job as the `qm-api/v1` `job` envelope.
fn job_json(job: &Job) -> String {
    Envelope::render("job", |j| {
        j.u64_field("id", job.id);
        j.str_field("tenant", &job.spec.tenant);
        j.str_field("status", job.status.as_str());
        j.u64_field("slices", job.slices);
        j.bool_field("cache_hit", job.cache_hit);
        if let Some(r) = &job.result {
            j.key("result");
            j.begin_obj();
            j.u64_field("cycles", r.outcome.elapsed_cycles);
            j.str_field("state_digest", &digest_hex(r.state_digest));
            match r.correct {
                Some(c) => j.bool_field("correct", c),
                None => {
                    j.key("correct");
                    j.null_val();
                }
            }
            if !r.mismatches.is_empty() {
                j.key("mismatches");
                j.begin_arr();
                for m in &r.mismatches {
                    j.str_val(m);
                }
                j.end_arr();
            }
            j.key("outcome");
            j.begin_obj();
            qm_sim::report::write_run_outcome(j, &r.outcome);
            j.end_obj();
            if let Some(v) = &r.verify_json {
                j.key("verify");
                j.raw(v);
            }
            j.end_obj();
        }
        if let Some((code, message)) = &job.error {
            j.key("error");
            j.begin_obj();
            j.str_field("code", code);
            j.str_field("message", message);
            j.end_obj();
        }
    })
}

fn health_json(shared: &Shared) -> String {
    let q = shared.queue.stats();
    let c = shared.cache.stats();
    Envelope::render("health", |j| {
        j.str_field("status", "ok");
        j.u64_field("workers", shared.workers as u64);
        j.key("jobs");
        j.begin_obj();
        j.u64_field("accepted", q.accepted);
        j.u64_field("queued", q.queued);
        j.u64_field("running", q.running);
        j.u64_field("done", q.done);
        j.u64_field("failed", q.failed);
        j.end_obj();
        j.key("cache");
        j.begin_obj();
        j.u64_field("hits", c.hits);
        j.u64_field("misses", c.misses);
        j.u64_field("deep_hits", c.deep_hits);
        j.u64_field("deep_misses", c.deep_misses);
        j.u64_field("entries", c.entries);
        j.end_obj();
    })
}
