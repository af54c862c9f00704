//! The epoll readiness loop: one reactor thread owning every socket.
//!
//! All sockets are nonblocking and registered with a single `epoll`
//! instance (raw `libc` FFI — no bindings crate). The reactor accepts,
//! reads request bytes into per-connection buffers, and advances each
//! connection's parse state machine (`Conn::step`): head bytes
//! accumulate until the blank line, then `Content-Length` body bytes,
//! then the parsed request is dispatched per
//! [`handlers::disposition`] — inline on the reactor for cheap endpoints,
//! or enqueued to the owner shard's worker ([`crate::shard::run_worker`])
//! with backpressure (`429` + `Retry-After` once `queue_depth` jobs are
//! outstanding) and a per-request deadline budget. Workers hand finished
//! responses back over a completion channel and kick [`WakeFd`] (an
//! `eventfd`) so a parked `epoll_wait` returns immediately.
//!
//! Every connection carries a deadline: accept→first-byte (`idle`),
//! first-byte→complete head (`header`), head→complete body (`body`), and
//! between keep-alive requests (`idle` again). A sweep on every loop tick
//! closes violators — a slow-loris client holding a half-written head
//! gets a best-effort `408` and its socket closed, without ever occupying
//! a shard worker.

use crate::handlers::{self, Disposition, ServeState};
use crate::http::{self, Request, Response};
use crate::metrics::Endpoint;
use crate::shard::{fnv1a, Completion, Job, JobCtx, Scatter};
use qmatch_core::trace::{Phase, Span};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Raw Linux syscall surface: exactly the six calls the reactor needs.
mod sys {
    use std::os::raw::{c_int, c_uint, c_void};

    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLL_CLOEXEC: c_int = 0x80000;
    pub const EFD_NONBLOCK: c_int = 0x800;
    pub const EFD_CLOEXEC: c_int = 0x80000;

    /// Mirrors `struct epoll_event`; packed on x86_64 per the kernel ABI.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }
}

use sys::EpollEvent;

fn last_err() -> std::io::Error {
    std::io::Error::last_os_error()
}

/// A thin owner of one `epoll` instance.
struct Poller {
    epfd: RawFd,
}

impl Poller {
    fn new() -> std::io::Result<Poller> {
        // SAFETY: `epoll_create1` takes no pointers; it returns a new fd
        // (or -1, handled below) that this `Poller` then owns exclusively.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(last_err());
        }
        Ok(Poller { epfd })
    }

    fn ctl(
        &self,
        op: std::os::raw::c_int,
        fd: RawFd,
        events: u32,
        token: u64,
    ) -> std::io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `self.epfd` is the epoll fd this `Poller` owns and keeps
        // open until `Drop`. `fd` is borrowed: every caller holds its owner
        // (the listener, a connection's `TcpStream` or the `WakeFd`) across
        // the call, so it is open; a bad fd would only make the call fail.
        // `ev` is a live `epoll_event` with the kernel's layout on this
        // stack frame; the kernel only reads it.
        if unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
            return Err(last_err());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, events, token)
    }

    fn modify(&self, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, events, token)
    }

    fn remove(&self, fd: RawFd) -> std::io::Result<()> {
        // The event argument is ignored for DEL but must be non-null on
        // pre-2.6.9 kernels; pass one unconditionally.
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits up to `timeout_ms` and fills `events`; a signal interrupting
    /// the wait reports zero events (the caller's loop re-enters).
    fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> std::io::Result<usize> {
        // SAFETY: `self.epfd` is the owned, open epoll fd. The kernel writes
        // at most `events.len()` entries through the pointer, and `events`
        // is an exclusively borrowed slice of exactly that many
        // `EpollEvent`s, which match the kernel's `epoll_event` layout.
        let n = unsafe {
            sys::epoll_wait(
                self.epfd,
                events.as_mut_ptr(),
                events.len() as std::os::raw::c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = last_err();
            if err.kind() == ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `self.epfd` was opened by `Poller::new`, is owned by this
        // value alone (it is never copied out or cloned) and is closed only
        // here, once.
        unsafe { sys::close(self.epfd) };
    }
}

/// An `eventfd` that lets shard workers kick a parked `epoll_wait`.
#[derive(Debug)]
pub struct WakeFd {
    fd: RawFd,
}

impl WakeFd {
    /// A fresh nonblocking eventfd.
    pub fn new() -> std::io::Result<WakeFd> {
        // SAFETY: `eventfd` takes no pointers; it returns a new fd (or -1,
        // handled below) that this `WakeFd` then owns exclusively.
        let fd = unsafe { sys::eventfd(0, sys::EFD_NONBLOCK | sys::EFD_CLOEXEC) };
        if fd < 0 {
            return Err(last_err());
        }
        Ok(WakeFd { fd })
    }

    /// The raw fd (for epoll registration).
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Signals the reactor. Saturating the eventfd counter means a wake is
    /// already pending, which is all that matters — errors are ignored.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: `self.fd` is the eventfd this `WakeFd` owns, open until
        // `Drop`. The buffer is `one`, a live `u64` on this stack frame, and
        // the count is its exact size (eventfd writes are 8 bytes); the
        // kernel only reads it.
        unsafe {
            sys::write(
                self.fd,
                (&one as *const u64).cast(),
                std::mem::size_of::<u64>(),
            )
        };
    }

    /// Consumes all pending wake signals.
    pub fn drain(&self) {
        let mut buf: u64 = 0;
        loop {
            // SAFETY: `self.fd` is the owned, open eventfd. The kernel
            // writes at most `size_of::<u64>()` bytes into `buf`, a live,
            // exclusively borrowed `u64` of exactly that size.
            let n = unsafe {
                sys::read(
                    self.fd,
                    (&mut buf as *mut u64).cast(),
                    std::mem::size_of::<u64>(),
                )
            };
            if n <= 0 {
                break;
            }
        }
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        // SAFETY: `self.fd` was opened by `WakeFd::new`, is owned by this
        // value alone (shared only through an `Arc`, so `Drop` runs once)
        // and is closed only here.
        unsafe { sys::close(self.fd) };
    }
}

/// The reactor's timeout and admission knobs (all come from
/// `ServerConfig`).
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// First byte → complete request head.
    pub header: Duration,
    /// Complete head → complete body.
    pub body: Duration,
    /// Accept → first byte, and between keep-alive requests.
    pub idle: Duration,
    /// Parsed request → response (jobs expired in the queue answer `503`).
    pub request: Duration,
    /// Max queued-or-executing shard jobs before new ones answer `429`.
    pub queue_depth: usize,
}

/// How far one `Conn::step` got.
enum Step {
    /// Need more bytes (or mid-request); nothing to do.
    Wait,
    /// A complete request was parsed.
    Request(Box<Request>),
    /// The head failed to parse; answer 400 and close.
    BadRequest(&'static str),
    /// The declared body exceeds the ingest limit; answer 413 and close
    /// without draining the body (the old worker-pool server's behavior).
    TooLarge {
        /// The configured `max_input_bytes`.
        limit: u64,
        /// The declared `Content-Length`.
        actual: u64,
    },
}

/// Parse progress of the connection's current request.
enum Reading {
    /// Between requests; the next byte starts a head.
    Idle,
    /// Accumulating head bytes until `\r\n\r\n`.
    Head,
    /// Head parsed; waiting for `need` body bytes.
    Body { head: http::Head, need: usize },
}

/// One client connection's sockets, buffers, and state machine.
struct Conn {
    stream: TcpStream,
    /// Received, not-yet-consumed bytes.
    buf: Vec<u8>,
    /// Rendered, not-yet-written response bytes.
    out: Vec<u8>,
    out_pos: usize,
    reading: Reading,
    /// A dispatched request is awaiting its completion; parsing pauses.
    in_flight: bool,
    /// Keep-alive disposition of the in-flight request.
    req_keep_alive: bool,
    close_after_write: bool,
    /// Registered epoll interest includes `EPOLLOUT`.
    want_write: bool,
    deadline: Instant,
}

impl Conn {
    fn new(stream: TcpStream, idle: Duration) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            reading: Reading::Idle,
            in_flight: false,
            req_keep_alive: false,
            close_after_write: false,
            want_write: false,
            deadline: Instant::now() + idle,
        }
    }

    fn out_pending(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Advances the parse state machine by one transition.
    fn step(&mut self, timing: &Timing, max_input_bytes: usize) -> Step {
        match &self.reading {
            Reading::Idle => {
                if self.buf.is_empty() {
                    return Step::Wait;
                }
                self.reading = Reading::Head;
                self.deadline = Instant::now() + timing.header;
                self.step(timing, max_input_bytes)
            }
            Reading::Head => {
                let Some(end) = http::find_head_end(&self.buf) else {
                    if self.buf.len() > http::MAX_HEAD_BYTES {
                        return Step::BadRequest("request head too large");
                    }
                    return Step::Wait;
                };
                let Ok(text) = std::str::from_utf8(&self.buf[..end]) else {
                    return Step::BadRequest("request head is not UTF-8");
                };
                let head = match http::parse_head(text) {
                    Ok(head) => head,
                    Err(detail) => return Step::BadRequest(detail),
                };
                self.buf.drain(..end + 4);
                let need = head.content_length.unwrap_or(0);
                if need > max_input_bytes {
                    return Step::TooLarge {
                        limit: max_input_bytes as u64,
                        actual: need as u64,
                    };
                }
                // An Expect: 100-continue client holds the body until the
                // interim response; answer before waiting for body bytes.
                if need > 0
                    && head
                        .headers
                        .iter()
                        .any(|(k, v)| k == "expect" && v.eq_ignore_ascii_case("100-continue"))
                {
                    self.out.extend_from_slice(b"HTTP/1.1 100 Continue\r\n\r\n");
                }
                self.reading = Reading::Body { head, need };
                self.deadline = Instant::now() + timing.body;
                self.step(timing, max_input_bytes)
            }
            Reading::Body { need, .. } => {
                let need = *need;
                if self.buf.len() < need {
                    return Step::Wait;
                }
                let body: Vec<u8> = self.buf.drain(..need).collect();
                let Reading::Body { head, .. } =
                    std::mem::replace(&mut self.reading, Reading::Idle)
                else {
                    unreachable!("matched Body above");
                };
                self.deadline = Instant::now() + timing.idle;
                Step::Request(Box::new(Request {
                    method: head.method,
                    path: head.path,
                    query: head.query,
                    headers: head.headers,
                    body,
                    keep_alive: head.keep_alive,
                }))
            }
        }
    }
}

/// Epoll token namespace: connections use a monotone counter (never a raw
/// fd — fds are reused by the kernel, and a stale completion must not be
/// deliverable to a different, newer connection).
const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// How long a parked `epoll_wait` sleeps between deadline sweeps.
const TICK_MS: i32 = 100;
/// Grace period for draining in-flight work after shutdown is requested.
const DRAIN_LIMIT: Duration = Duration::from_secs(5);

/// Runs the reactor until shutdown (handle or signal) and all dispatched
/// work has drained.
pub fn run(
    listener: TcpListener,
    state: Arc<ServeState>,
    senders: Vec<Sender<Job>>,
    completions: Receiver<Completion>,
    wake: Arc<WakeFd>,
    shutdown: Arc<AtomicBool>,
    timing: Timing,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    poller.add(listener.as_raw_fd(), sys::EPOLLIN, TOKEN_LISTENER)?;
    poller.add(wake.fd(), sys::EPOLLIN, TOKEN_WAKE)?;
    let mut reactor = Reactor {
        poller,
        listener,
        state,
        senders,
        completions,
        wake,
        shutdown,
        timing,
        conns: HashMap::new(),
        next_token: 0,
        outstanding: 0,
        draining: false,
        drain_since: Instant::now(),
    };
    reactor.run()
}

struct Reactor {
    poller: Poller,
    listener: TcpListener,
    state: Arc<ServeState>,
    /// One job channel per shard, index-aligned with the registry.
    senders: Vec<Sender<Job>>,
    completions: Receiver<Completion>,
    wake: Arc<WakeFd>,
    shutdown: Arc<AtomicBool>,
    timing: Timing,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Requests dispatched to shards and not yet completed — the
    /// backpressure admission counter.
    outstanding: usize,
    draining: bool,
    drain_since: Instant,
}

impl Reactor {
    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed) || crate::server::signal_received()
    }

    fn run(&mut self) -> std::io::Result<()> {
        let mut events = [EpollEvent { events: 0, data: 0 }; 256];
        loop {
            if self.stopping() {
                if !self.draining {
                    self.draining = true;
                    self.drain_since = Instant::now();
                    let _ = self.poller.remove(self.listener.as_raw_fd());
                }
                // Quiesced connections go first; in-flight ones finish.
                let idle: Vec<u64> = self
                    .conns
                    .iter()
                    .filter(|(_, c)| !c.in_flight && !c.out_pending())
                    .map(|(t, _)| *t)
                    .collect();
                for token in idle {
                    self.close_conn(token);
                }
                let drained = self.outstanding == 0 && self.conns.is_empty();
                if drained || self.drain_since.elapsed() > DRAIN_LIMIT {
                    return Ok(());
                }
            }
            let n = self.poller.wait(&mut events, TICK_MS)?;
            for ev in events.iter().take(n) {
                // Copy out of the (possibly packed) struct before use.
                let flags = ev.events;
                let token = ev.data;
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.wake.drain(),
                    _ => self.conn_ready(token, flags),
                }
            }
            self.drain_completions();
            self.sweep_deadlines();
        }
    }

    fn accept_ready(&mut self) {
        if self.draining {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .add(stream.as_raw_fd(), sys::EPOLLIN, token)
                        .is_err()
                    {
                        continue; // dropping the stream closes it
                    }
                    self.conns
                        .insert(token, Conn::new(stream, self.timing.idle));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    fn conn_ready(&mut self, token: u64, flags: u32) {
        if flags & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            self.close_conn(token);
            return;
        }
        if flags & sys::EPOLLIN != 0 {
            let mut chunk = [0u8; 16 * 1024];
            let mut closed = false;
            {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                loop {
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => {
                            closed = true;
                            break;
                        }
                        Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => {
                            closed = true;
                            break;
                        }
                    }
                }
            }
            if closed {
                self.close_conn(token);
                return;
            }
            self.advance_conn(token);
        }
        if flags & sys::EPOLLOUT != 0 {
            self.flush_conn(token);
        }
    }

    /// Runs the parse state machine until it needs more bytes, dispatching
    /// every complete request (pipelined requests included, in order).
    fn advance_conn(&mut self, token: u64) {
        loop {
            let step = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.in_flight || conn.close_after_write {
                    break;
                }
                conn.step(&self.timing, self.state.limits.max_input_bytes)
            };
            match step {
                Step::Wait => break,
                Step::Request(req) => self.dispatch(token, *req),
                Step::BadRequest(detail) => {
                    let response = handlers::error(400, "bad_request", detail);
                    self.parse_reject(token, response);
                    break;
                }
                Step::TooLarge { limit, actual } => {
                    self.state.metrics.add_rejected_by_limits();
                    let response = handlers::error(
                        413,
                        "limit_exceeded",
                        format!(
                            "request body of {actual} bytes exceeds the \
                             max_input_bytes ingestion limit ({limit})"
                        ),
                    );
                    self.parse_reject(token, response);
                    break;
                }
            }
        }
        self.flush_conn(token);
    }

    /// Answers a wire-level parse failure: no `X-Request-Id` (there is no
    /// request to correlate), counted under `Endpoint::Other`, connection
    /// closed after the error is written.
    fn parse_reject(&mut self, token: u64, response: Response) {
        self.state
            .metrics
            .record(Endpoint::Other, response.status, 0);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.out.extend_from_slice(&response.render(false));
        conn.close_after_write = true;
    }

    fn dispatch(&mut self, token: u64, req: Request) {
        let started = Instant::now();
        let request_id = req
            .header("x-request-id")
            .map(str::to_owned)
            .unwrap_or_else(|| self.state.metrics.next_request_id());
        // The numeric correlation id for trace spans: minted ids map back
        // to their counter value, client-supplied ids hash stably.
        let rid = request_id
            .strip_prefix("q-")
            .and_then(|n| n.parse::<u64>().ok())
            .unwrap_or_else(|| fnv1a(request_id.as_bytes()));
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.req_keep_alive = req.keep_alive;
        }
        let body_len = req.body.len() as u64;
        match handlers::disposition(&req, &self.state.registry) {
            Disposition::Inline => {
                let state = self.state.clone();
                let (endpoint, response) = handlers::handle(&req, &state);
                self.respond(
                    token,
                    endpoint,
                    response,
                    &request_id,
                    started,
                    rid,
                    body_len,
                );
            }
            Disposition::Shard { shard, endpoint } => {
                if self.reject_if_saturated(token, &req, endpoint, &request_id, started, rid) {
                    return;
                }
                let ctx = JobCtx {
                    token,
                    request_id,
                    rid,
                    started,
                    enqueued: Instant::now(),
                    deadline: started + self.timing.request,
                    body_len,
                };
                if self.senders[shard]
                    .send(Job::Exec {
                        req: Box::new(req),
                        ctx,
                        endpoint,
                    })
                    .is_ok()
                {
                    self.mark_in_flight(token);
                }
            }
            Disposition::Scatter => {
                let endpoint = Endpoint::MatchTopk;
                if self.reject_if_saturated(token, &req, endpoint, &request_id, started, rid) {
                    return;
                }
                // Validate on the reactor so a bad query never occupies the
                // match queue; the plan carries the source artifact.
                let plan = match handlers::validate_topk(&req, &self.state.registry) {
                    Ok(plan) => plan,
                    Err(response) => {
                        let response = handlers::finalize(&req.path, endpoint, response);
                        self.respond(
                            token,
                            endpoint,
                            response,
                            &request_id,
                            started,
                            rid,
                            body_len,
                        );
                        return;
                    }
                };
                let shards = self.senders.len();
                let scatter = Arc::new(Scatter {
                    plan,
                    ctx: JobCtx {
                        token,
                        request_id,
                        rid,
                        started,
                        enqueued: Instant::now(),
                        deadline: started + self.timing.request,
                        body_len,
                    },
                    remaining: AtomicUsize::new(shards),
                    expired: AtomicBool::new(false),
                    partials: Mutex::new(Vec::new()),
                });
                for sender in &self.senders {
                    let _ = sender.send(Job::Partial {
                        scatter: scatter.clone(),
                    });
                }
                self.mark_in_flight(token);
            }
        }
    }

    /// Sheds one request with `429` + `Retry-After` when `queue_depth`
    /// shard jobs are already outstanding. Returns true when shed.
    fn reject_if_saturated(
        &mut self,
        token: u64,
        req: &Request,
        endpoint: Endpoint,
        request_id: &str,
        started: Instant,
        rid: u64,
    ) -> bool {
        if self.outstanding < self.timing.queue_depth {
            return false;
        }
        self.state.metrics.add_rejected_backpressure();
        let response = handlers::error(
            429,
            "backpressure",
            "the match queue is full; retry shortly",
        )
        .with_header("retry-after", "1");
        let response = handlers::finalize(&req.path, endpoint, response);
        self.respond(
            token,
            endpoint,
            response,
            request_id,
            started,
            rid,
            req.body.len() as u64,
        );
        true
    }

    fn mark_in_flight(&mut self, token: u64) {
        self.outstanding += 1;
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.in_flight = true;
        }
    }

    /// Records the request and queues the rendered response. The request
    /// counters and the `X-Request-Id` header are appended here — exactly
    /// once per request, wherever the response was produced.
    #[allow(clippy::too_many_arguments)]
    fn respond(
        &mut self,
        token: u64,
        endpoint: Endpoint,
        response: Response,
        request_id: &str,
        started: Instant,
        rid: u64,
        body_len: u64,
    ) {
        let elapsed = started.elapsed();
        self.state
            .metrics
            .record(endpoint, response.status, elapsed.as_micros() as u64);
        self.state.metrics.record_phase(&Span {
            rows: 1,
            cells: body_len,
            wall: elapsed,
            request: rid,
            ..Span::empty(Phase::Request)
        });
        let response = response.with_header("x-request-id", request_id.to_owned());
        let stopping = self.stopping();
        let idle = self.timing.idle;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let keep = conn.req_keep_alive && !stopping;
        conn.out.extend_from_slice(&response.render(keep));
        if !keep {
            conn.close_after_write = true;
        }
        conn.deadline = Instant::now() + idle;
    }

    /// Delivers finished shard work back to its connection.
    fn drain_completions(&mut self) {
        while let Ok(done) = self.completions.try_recv() {
            self.outstanding -= 1;
            let token = done.ctx.token;
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.in_flight = false;
            } else {
                continue; // connection died while its job ran
            }
            self.respond(
                token,
                done.endpoint,
                done.response,
                &done.ctx.request_id,
                done.ctx.started,
                done.ctx.rid,
                done.ctx.body_len,
            );
            // The client may have pipelined the next request already.
            self.advance_conn(token);
        }
    }

    /// Writes as much pending output as the socket accepts, updating the
    /// `EPOLLOUT` interest to match what is left.
    fn flush_conn(&mut self, token: u64) {
        let mut close = false;
        let mut rewire = None;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            while conn.out_pos < conn.out.len() {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => {
                        close = true;
                        break;
                    }
                    Ok(n) => conn.out_pos += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        close = true;
                        break;
                    }
                }
            }
            if !close && conn.out_pos == conn.out.len() {
                conn.out.clear();
                conn.out_pos = 0;
                if conn.close_after_write {
                    close = true;
                }
            }
            if !close {
                let want_write = conn.out_pending();
                if want_write != conn.want_write {
                    conn.want_write = want_write;
                    let events = sys::EPOLLIN | if want_write { sys::EPOLLOUT } else { 0 };
                    rewire = Some((conn.stream.as_raw_fd(), events));
                }
            }
        }
        if close {
            self.close_conn(token);
            return;
        }
        if let Some((fd, events)) = rewire {
            if self.poller.modify(fd, events, token).is_err() {
                self.close_conn(token);
            }
        }
    }

    /// Closes connections past their deadline. A connection mid-request
    /// (head or body partially received — the slow-loris shape) gets a
    /// best-effort `408` first; in-flight connections are exempt (their
    /// budget is the request deadline, enforced at the shard).
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        let expired: Vec<(u64, bool)> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.in_flight && now >= c.deadline)
            .map(|(t, c)| {
                (
                    *t,
                    matches!(c.reading, Reading::Head | Reading::Body { .. }),
                )
            })
            .collect();
        for (token, mid_request) in expired {
            if mid_request {
                self.state.metrics.record(Endpoint::Other, 408, 0);
                let wire = handlers::error(
                    408,
                    "request_timeout",
                    "closed while waiting for the rest of the request",
                )
                .render(false);
                // Best effort: the client may not be reading; the close is
                // the real enforcement.
                if let Some(conn) = self.conns.get_mut(&token) {
                    let _ = conn.stream.write(&wire);
                }
            }
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.remove(conn.stream.as_raw_fd());
            // Dropping the stream closes the fd. An in-flight completion
            // for this token finds no connection and is discarded (the
            // outstanding counter is decremented on receipt either way).
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wakefd_rouses_epoll_and_drains() {
        let wake = WakeFd::new().expect("eventfd");
        let poller = Poller::new().expect("epoll");
        poller.add(wake.fd(), sys::EPOLLIN, 7).expect("add");
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        // Nothing pending: the wait times out empty.
        assert_eq!(poller.wait(&mut events, 0).expect("wait"), 0);
        wake.wake();
        wake.wake(); // coalesces into one readiness event
        let n = poller.wait(&mut events, 1000).expect("wait");
        assert_eq!(n, 1);
        let token = events[0].data;
        assert_eq!(token, 7);
        wake.drain();
        assert_eq!(poller.wait(&mut events, 0).expect("wait"), 0, "drained");
        // Interest can be rewired and removed.
        poller.modify(wake.fd(), sys::EPOLLIN, 9).expect("modify");
        poller.remove(wake.fd()).expect("remove");
        wake.wake();
        assert_eq!(
            poller.wait(&mut events, 0).expect("wait"),
            0,
            "deregistered"
        );
    }

    #[test]
    fn conn_state_machine_parses_incrementally() {
        let timing = Timing {
            header: Duration::from_secs(5),
            body: Duration::from_secs(5),
            idle: Duration::from_secs(5),
            request: Duration::from_secs(5),
            queue_depth: 8,
        };
        // A loopback pair gives the Conn a real (unused) stream.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let mut conn = Conn::new(client, timing.idle);
        assert!(matches!(conn.step(&timing, 1024), Step::Wait), "no bytes");
        conn.buf.extend_from_slice(b"POST /match?k=1 HTTP/1.1\r\n");
        assert!(matches!(conn.step(&timing, 1024), Step::Wait), "head open");
        conn.buf.extend_from_slice(b"content-length: 4\r\n\r\nab");
        assert!(matches!(conn.step(&timing, 1024), Step::Wait), "body short");
        conn.buf.extend_from_slice(b"cdGET /next HTTP/1.1\r\n\r\n");
        let Step::Request(req) = conn.step(&timing, 1024) else {
            panic!("complete request expected");
        };
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/match");
        assert_eq!(req.body, b"abcd");
        // The pipelined follow-up is intact and parses next.
        let Step::Request(next) = conn.step(&timing, 1024) else {
            panic!("pipelined request expected");
        };
        assert_eq!(next.path, "/next");
        assert!(matches!(conn.step(&timing, 1024), Step::Wait));
        // Parse failures and oversized bodies surface as terminal steps.
        conn.buf.extend_from_slice(b"BOGUS\r\n\r\n");
        assert!(matches!(conn.step(&timing, 1024), Step::BadRequest(_)));
        conn.reading = Reading::Idle;
        conn.buf.clear();
        conn.buf
            .extend_from_slice(b"PUT /schemas/x HTTP/1.1\r\ncontent-length: 9999\r\n\r\n");
        let Step::TooLarge { limit, actual } = conn.step(&timing, 1024) else {
            panic!("oversized body expected");
        };
        assert_eq!((limit, actual), (1024, 9999));
    }
}
