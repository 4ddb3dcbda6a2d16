//! The serving loop: a listener thread, a small connection-handler pool
//! and a fixed pool of job workers, all over `std` primitives.
//!
//! Connections and jobs are deliberately decoupled: a `POST /v1/jobs`
//! only parses, admits and enqueues (microseconds), so the HTTP pool
//! stays responsive no matter how long simulations run. Workers drain
//! the job queue one preemption slice at a time, so a long job cannot
//! starve the short ones queued behind it.
//!
//! Connections are persistent, and the handler pool serves them in
//! arrival order from one FIFO. A handler keeps each connection's
//! unanswered bytes with it and parses a request only once all of it
//! is in, so it never waits on one client while another waits for a
//! handler: when others wait, it reads only what has already arrived,
//! and puts the connection back at the end of the queue after each
//! response and whenever nothing more has come. A handler that finds
//! every queued connection silent waits in `poll(2)` for any of them to
//! speak, one `POLL` (1 ms) at most, and moves those that did to the
//! front. A handler with no other connection to serve blocks on its
//! own, one `POLL` at a time. Every wait is bounded: a request must
//! arrive whole within `REQUEST_DEADLINE` (10 s) of its first byte, and
//! a connection idle for `IDLE_TIMEOUT` (5 s) is closed, so clients that
//! connect and say nothing, or say part of a request and stop, cannot
//! hold the pool.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qm_core::json::Envelope;
use qm_sim::report::digest_hex;
use qm_workloads::CompileCache;

use crate::api::{parse_job, ApiError};
use crate::http::{parse_request, read_some, write_response, HttpError, Request};
use crate::jobs::{execute_slice, ExecConfig, Job, JobQueue};

/// Longest a connection may wait for its next request before the server
/// closes it.
const IDLE_TIMEOUT: Duration = Duration::from_secs(5);
/// Longest a request may take to arrive, from its first byte to its
/// last; past it the connection gets a `400` and is closed.
const REQUEST_DEADLINE: Duration = Duration::from_secs(10);
/// Most buffer a connection keeps between requests; a large request's
/// buffer shrinks back to this once answered.
const KEPT_BUF_BYTES: usize = 64 * 1024;
/// Longest a handler blocks on one read or one wait for a queued
/// connection before it looks up: to let newly queued connections in,
/// and to notice shutdown and the bounds.
const POLL: Duration = Duration::from_millis(1);

/// Stack size of a job worker thread, which compiles, verifies and runs
/// submitted programs. The OCCAM parser's nesting budget
/// (`qm_occam::parse::MAX_NESTING`) keeps every compiler pass well
/// inside it, debug builds included.
pub const WORKER_STACK_BYTES: usize = 2 << 20;

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
    /// Open connections waiting for a handler, oldest first.
    conns: Mutex<VecDeque<Conn>>,
    conns_cv: Condvar,
    stopping: AtomicBool,
}

/// An open client connection.
struct Conn {
    stream: TcpStream,
    /// Bytes received and not yet answered: part of the next request,
    /// or more.
    buf: Vec<u8>,
    /// When the connection was accepted or last answered a request.
    idle_since: Instant,
    /// When the first byte of the request in `buf` arrived.
    started: Instant,
    /// The socket is in non-blocking mode.
    nonblocking: bool,
}

/// What a handler hands back when it lets a connection go.
enum Release {
    /// The connection is closed.
    Closed,
    /// Answered; put back while others wait.
    Answered(Conn),
    /// Nothing more has arrived; put back while others wait.
    Silent(Conn),
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
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
            conns: Mutex::new(VecDeque::new()),
            conns_cv: Condvar::new(),
            stopping: AtomicBool::new(false),
        });

        let mut threads = Vec::new();
        for i in 0..cfg.workers.max(1) {
            let s = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("qm-serve-job-{i}"))
                    .stack_size(WORKER_STACK_BYTES)
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
    /// slices finish; queued jobs are dropped with the queue. Open
    /// connections are closed within a few milliseconds, without
    /// waiting for their clients.
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
        let accepted = listener.accept();
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _)) = accepted else { continue };
        let setup = stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(POLL)))
            .and_then(|()| stream.set_write_timeout(Some(REQUEST_DEADLINE)));
        if setup.is_err() {
            continue;
        }
        let now = Instant::now();
        let conn =
            Conn { stream, buf: Vec::new(), idle_since: now, started: now, nonblocking: false };
        shared.conns.lock().expect("conn lock").push_back(conn);
        shared.conns_cv.notify_one();
    }
}

fn http_worker(shared: &Shared) {
    // Connections this handler has put back silent in a row. Once they
    // outnumber those still queued, it has found every queued connection
    // silent, and it waits for one of them to speak instead of spinning.
    let mut silent = 0;
    loop {
        let (conn, queued) = {
            let mut conns = shared.conns.lock().expect("conn lock");
            loop {
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(conn) = conns.pop_front() {
                    break (conn, conns.len());
                }
                conns = shared.conns_cv.wait(conns).expect("conn lock");
            }
        };
        let back = match serve_connection(shared, conn) {
            Release::Closed => {
                silent = 0;
                continue;
            }
            Release::Answered(conn) => {
                silent = 0;
                conn
            }
            Release::Silent(conn) => {
                silent += 1;
                conn
            }
        };
        shared.conns.lock().expect("conn lock").push_back(back);
        shared.conns_cv.notify_one();
        if silent > queued {
            await_queued(shared);
            silent = 0;
        }
    }
}

/// Wait up to one `POLL` for a queued connection to have bytes (or an
/// end) to read, and move those that do to the front of the queue,
/// keeping their order.
#[cfg(unix)]
fn await_queued(shared: &Shared) {
    use std::os::fd::AsRawFd;
    let fds: Vec<_> =
        shared.conns.lock().expect("conn lock").iter().map(|c| c.stream.as_raw_fd()).collect();
    let ready = readable(&fds, POLL);
    if ready.is_empty() {
        return;
    }
    let mut conns = shared.conns.lock().expect("conn lock");
    let (mut first, rest): (VecDeque<Conn>, VecDeque<Conn>) =
        conns.drain(..).partition(|c| ready.contains(&c.stream.as_raw_fd()));
    first.extend(rest);
    *conns = first;
}

/// Without `poll(2)`, sleep one `POLL` and let the handler look again.
#[cfg(not(unix))]
fn await_queued(_: &Shared) {
    std::thread::sleep(POLL);
}

fn job_worker(shared: &Shared) {
    while let Some(unit) = shared.queue.claim() {
        let id = unit.id;
        let report = execute_slice(unit, &shared.cache, &shared.defaults);
        shared.queue.complete(id, report);
    }
}

/// Other connections wait for a handler.
fn others_wait(shared: &Shared) -> bool {
    !shared.conns.lock().expect("conn lock").is_empty()
}

/// Answer the requests on `conn` as they arrive, until it closes or, when
/// other connections wait for a handler, it is answered or silent.
fn serve_connection(shared: &Shared, mut conn: Conn) -> Release {
    loop {
        let (status, body, close) = match parse_request(&conn.buf) {
            Ok(None) => match receive(shared, &mut conn) {
                Received::Some => continue,
                Received::Nothing => return Release::Silent(conn),
                Received::Closed => return Release::Closed,
            },
            Ok(Some((req, used))) => {
                conn.buf.drain(..used);
                let (status, body) = route(shared, &req);
                (status, body, req.close)
            }
            Err(HttpError::TooLarge(what)) => {
                let e = ApiError::new(413, "payload_too_large", format!("{what} exceeds the cap"));
                (e.status, e.to_json(), true)
            }
            Err(e) => {
                let e = ApiError::new(400, "bad_request", e.to_string());
                (e.status, e.to_json(), true)
            }
        };
        if !answer(&mut conn, status, &body, close) {
            return Release::Closed;
        }
        if others_wait(shared) {
            return Release::Answered(conn);
        }
    }
}

/// Put `conn`'s socket in blocking or non-blocking mode.
fn set_blocking(conn: &mut Conn, block: bool) -> io::Result<()> {
    if conn.nonblocking == block {
        conn.stream.set_nonblocking(!block)?;
        conn.nonblocking = !block;
    }
    Ok(())
}

/// Write a response on `conn`; `false` when the connection is done.
fn answer(conn: &mut Conn, status: u16, body: &str, close: bool) -> bool {
    if set_blocking(conn, true).is_err()
        || write_response(&mut conn.stream, status, body, close).is_err()
        || close
    {
        return false;
    }
    let now = Instant::now();
    conn.idle_since = now;
    conn.started = now;
    conn.buf.shrink_to(KEPT_BUF_BYTES);
    true
}

/// What one look for more of a request found.
enum Received {
    /// Bytes arrived, or a blocking read timed out: look again.
    Some,
    /// Nothing has arrived, and others wait.
    Nothing,
    /// The connection is done (any answer it was owed is sent).
    Closed,
}

/// Read more of the next request into `conn.buf`. While other
/// connections wait, take only bytes that have already arrived;
/// otherwise block for up to one `POLL`.
fn receive(shared: &Shared, conn: &mut Conn) -> Received {
    let between = conn.buf.is_empty();
    if shared.stopping.load(Ordering::SeqCst) {
        return Received::Closed;
    }
    if between && conn.idle_since.elapsed() >= IDLE_TIMEOUT {
        return Received::Closed;
    }
    if !between && conn.started.elapsed() >= REQUEST_DEADLINE {
        let late = format!("the request did not arrive within {} s", REQUEST_DEADLINE.as_secs());
        let e = ApiError::new(400, "bad_request", late);
        answer(conn, e.status, &e.to_json(), true);
        return Received::Closed;
    }
    let block = !others_wait(shared);
    if set_blocking(conn, block).is_err() {
        return Received::Closed;
    }
    match read_some(&mut conn.stream, &mut conn.buf) {
        Ok(0) if between => Received::Closed,
        Ok(0) => {
            let e = ApiError::new(400, "bad_request", "connection closed mid-request");
            answer(conn, e.status, &e.to_json(), true);
            Received::Closed
        }
        Ok(_) => {
            if between {
                conn.started = Instant::now();
            }
            Received::Some
        }
        Err(e) if e.kind() == io::ErrorKind::Interrupted || (block && is_timeout(&e)) => {
            Received::Some
        }
        Err(e) if is_timeout(&e) => Received::Nothing,
        Err(_) => Received::Closed,
    }
}

/// The descriptors among `fds` that have bytes, an end or an error to
/// read, waiting up to `timeout` for the first: `poll(2)`, which `std`
/// does not wrap.
#[cfg(unix)]
fn readable(fds: &[std::os::fd::RawFd], timeout: Duration) -> Vec<std::os::fd::RawFd> {
    use std::os::raw::{c_int, c_short};
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    #[cfg(target_os = "linux")]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::os::raw::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: c_int) -> c_int;
    }
    const POLLIN: c_short = 1;

    let mut polled: Vec<PollFd> =
        fds.iter().map(|&fd| PollFd { fd, events: POLLIN, revents: 0 }).collect();
    let ms = timeout.as_millis().clamp(1, 1000) as c_int;
    // SAFETY: `polled` is a live, exclusively borrowed array of
    // `polled.len()` `pollfd`s laid out as the C struct; `poll` writes
    // only their `revents` and keeps no pointer past the call. A
    // descriptor closed or reused since it was read costs at most a
    // spurious or missed wake-up, never memory.
    let n = unsafe { poll(polled.as_mut_ptr(), polled.len() as Nfds, ms) };
    if n <= 0 {
        return Vec::new();
    }
    polled.iter().filter(|p| p.revents != 0).map(|p| p.fd).collect()
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
