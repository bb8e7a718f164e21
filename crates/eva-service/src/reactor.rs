//! The event-driven service core: one IO thread multiplexing every session.
//!
//! A single thread around an epoll [`Poller`] (the vendored `polling`
//! crate) serves every connection: non-blocking sockets feed each
//! connection's [`FrameAssembler`], completed frames drive its
//! [`SessionMachine`], and `Inputs` rounds become jobs on the shared
//! [`Scheduler`] — a FIFO queue drained by one evaluation worker per
//! available core, or fewer when the peak-memory budget admits fewer. Worker
//! completions come back over a wake pipe, so the reactor sleeps in
//! `epoll_wait` whenever nothing is ready.
//!
//! The reactor alone owns the serving state, for the length of one serve
//! call:
//!
//! * **admission** counts the admitted connections in its own table
//!   against [`ServerConfig::max_sessions`](crate::ServerConfig::max_sessions);
//!   a slot frees when its connection leaves the table;
//! * **shutdown wake-up**: the run publishes its wake pipe to the server,
//!   and [`EvaServer::begin_shutdown`] writes one byte into it, as a
//!   completion does;
//! * **drain**: once shutdown has begun and the last connection has
//!   closed, the run joins the scheduler's workers and returns, so
//!   `serve_forever` returning is the drain point.
//!
//! The protocol's resource rules are reactor state:
//!
//! * the per-message read **deadline** is a reactor timer, armed from
//!   the server's config at admission and re-armed on every write
//!   and every completed frame (disarmed while an evaluation is in flight);
//! * **frame bounds** are checked against announced frame headers inside
//!   the assembler, before payload bytes are accepted: each tag may carry
//!   no more than a conforming client of the loaded program sends;
//! * **reads pause** while a completed frame waits to be stepped (and
//!   while the session's evaluation is in flight), so pipelined frames
//!   wait in the peer's socket, not in server memory;
//! * the **error-frame-before-close** rule is a draining close state:
//!   the frame is queued, the peer's in-flight bytes are read and discarded
//!   for a bounded window so the close is a FIN rather than an RST, then
//!   the socket is dropped;
//! * **panic containment** covers both the session machine (around every
//!   frame step) and the evaluation workers (inside the scheduler); either
//!   way the session dies with the `internal error` frame and a
//!   [`ServerStats::session_panics`](crate::ServerStats::session_panics)
//!   count, never the server.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use polling::{Event, Interest, Poller};

use crate::error::ServiceError;
use crate::protocol::{encode_payload, Message, READ_CHUNK_BYTES};
use crate::sched::{Completion, JobOutcome, Scheduler};
use crate::server::{EvaServer, SessionReport};
use crate::session::{FrameAssembler, SessionMachine, Step};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// How long an errored connection keeps draining the peer's in-flight bytes
/// before closing: long enough for the peer to read the error frame, short
/// enough that a trickling peer cannot hold the slot.
const ERROR_DRAIN_WINDOW: Duration = Duration::from_millis(500);

/// Hard cap on a closing connection's lifetime when the peer neither drains
/// our error frame nor hangs up and no write timeout is configured.
const DEFAULT_CLOSE_CAP: Duration = Duration::from_secs(30);

/// Close state: the connection no longer speaks protocol, it only flushes
/// its remaining output and (for error closes) drains the peer's in-flight
/// bytes so the close is a FIN.
#[derive(Debug)]
struct Closing {
    /// Reads are discarded (rather than refused) until this instant; the
    /// socket closes once output is flushed and either the peer hit EOF or
    /// this window passed. Clean closes set it to "now".
    drain_until: Instant,
    /// The socket closes at this instant no matter what.
    hard: Instant,
}

/// One multiplexed connection.
struct Conn {
    token: u64,
    /// Session id (0 for busy-rejected connections, which never get one).
    id: u64,
    addr: SocketAddr,
    stream: TcpStream,
    assembler: FrameAssembler,
    /// `None` for busy-rejected connections (no session was admitted): the
    /// connections holding a session slot are the table's `Some`s.
    machine: Option<SessionMachine>,
    /// Completed frames not yet fed to the machine (one frame per step).
    /// Reads pause while this is non-empty, so it holds at most the frames
    /// one read chunk completed.
    pending: VecDeque<crate::session::Frame>,
    /// An error raised while reading (oversized frame, bound refusal, socket
    /// error) that the step sweep turns into an error close — *after* the
    /// frames that completed before it, preserving one-frame-at-a-time
    /// ordering.
    pending_error: Option<ServiceError>,
    /// Outgoing bytes not yet written (`out[out_pos..]` is unsent).
    out: Vec<u8>,
    out_pos: usize,
    /// The session's read-deadline budget (`None` for busy-rejected
    /// connections and when the config disables the deadline).
    budget: Option<Duration>,
    /// When the current message's budget expires (None while disarmed).
    expires: Option<Instant>,
    closing: Option<Closing>,
    /// Result recorded when the close was initiated (the session's slot
    /// value in `serve_sessions` mode).
    result: Option<Result<SessionReport, ServiceError>>,
    slot: Option<usize>,
    eof: bool,
    /// An evaluation job is in flight for this connection (reads pause).
    evaluating: bool,
    /// Whether the fd is currently registered with the poller, and with
    /// what interest. A connection with nothing to wait for is deregistered
    /// outright so unmaskable `EPOLLHUP` events cannot spin the loop.
    registered: Option<Interest>,
}

impl Conn {
    fn has_output(&self) -> bool {
        self.out_pos < self.out.len()
    }

    fn queue_frames(&mut self, frames: &[(u8, Vec<u8>)]) {
        for (tag, payload) in frames {
            self.out.push(*tag);
            self.out
                .extend_from_slice(&(payload.len() as u64).to_le_bytes());
            self.out.extend_from_slice(payload);
        }
    }

    /// Reads wait while an evaluation is in flight or a completed frame is
    /// unstepped (epoll is level-triggered, so readable interest drops too).
    fn read_paused(&self) -> bool {
        self.evaluating || !self.pending.is_empty()
    }

    /// Re-arms the per-message deadline (fresh budget from now).
    fn arm_deadline(&mut self, now: Instant) {
        self.expires = self.budget.map(|budget| now + budget);
    }

    /// The readiness this connection currently needs, or `None` to be
    /// deregistered entirely.
    fn desired_interest(&self, now: Instant) -> Option<Interest> {
        let readable = if let Some(closing) = &self.closing {
            !self.eof && now < closing.drain_until
        } else {
            !self.eof && !self.read_paused()
        };
        let writable = self.has_output();
        if !readable && !writable {
            return None;
        }
        Some(Interest { readable, writable })
    }

    /// The next instant this connection needs the reactor to look at it
    /// even without IO readiness.
    fn next_timer(&self) -> Option<Instant> {
        match &self.closing {
            Some(closing) => {
                if self.has_output() {
                    Some(closing.hard)
                } else if self.eof {
                    None // closes immediately in the sweep
                } else {
                    Some(closing.drain_until.min(closing.hard))
                }
            }
            None => self.expires,
        }
    }
}

/// How a serve call terminates.
enum Mode {
    /// Accept exactly this many connections, then run them to completion.
    Sessions(usize),
    /// Accept until [`EvaServer::begin_shutdown`], then drain.
    Forever,
}

/// The event loop. One instance serves one listener;
/// [`EvaServer::serve_sessions`] and [`EvaServer::serve_forever`] each
/// construct one per call.
pub(crate) struct Reactor {
    server: EvaServer,
    poller: Poller,
}

impl Reactor {
    pub(crate) fn new(server: EvaServer) -> Result<Self, ServiceError> {
        Ok(Self {
            server,
            poller: Poller::new()?,
        })
    }

    pub(crate) fn serve_sessions(
        self,
        listener: &TcpListener,
        sessions: usize,
    ) -> Result<Vec<Result<SessionReport, ServiceError>>, ServiceError> {
        let mut slots: Vec<Option<Result<SessionReport, ServiceError>>> =
            (0..sessions).map(|_| None).collect();
        self.run(listener, Mode::Sessions(sessions), &mut slots)?;
        Ok(slots
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    Err(ServiceError::Protocol(
                        "session ended without a recorded result".into(),
                    ))
                })
            })
            .collect())
    }

    pub(crate) fn serve_forever(self, listener: &TcpListener) -> Result<(), ServiceError> {
        let mut slots = Vec::new();
        self.run(listener, Mode::Forever, &mut slots)
    }

    fn run(
        self,
        listener: &TcpListener,
        mode: Mode,
        slots: &mut [Option<Result<SessionReport, ServiceError>>],
    ) -> Result<(), ServiceError> {
        let server = &self.server;
        let poller = &self.poller;
        listener.set_nonblocking(true)?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;

        // The wake pipe: evaluation workers write one byte per completion,
        // and begin_shutdown one, so a reactor parked in epoll_wait notices
        // finished jobs and shutdown immediately.
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        poller.add(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
        server.publish_wake(Some(wake_tx.try_clone()?));
        let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
        let scheduler = Scheduler::new(
            workers.min(server.eval_slots()),
            server.sched_gauges(),
            Box::new(move || {
                // Best effort: a full pipe already guarantees a pending wake.
                let _ = (&wake_tx).write(&[1u8]);
            }),
        );

        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut events: Vec<Event> = Vec::new();
        let mut next_token = FIRST_CONN_TOKEN;
        let mut accepted = 0usize;
        let mut accepting = true;
        let result = loop {
            // Observe shutdown before testing for termination: with no open
            // connection nothing would ever wake a wait entered after the
            // listener is deregistered.
            if accepting && matches!(mode, Mode::Forever) && server.is_shutting_down() {
                accepting = false;
                let _ = poller.delete(listener.as_raw_fd());
            }
            // Termination: every accepted session has fully closed.
            let done = match mode {
                Mode::Sessions(n) => accepted == n && conns.is_empty(),
                Mode::Forever => !accepting && conns.is_empty(),
            };
            if done {
                break Ok(());
            }

            let now = Instant::now();
            let timeout = conns
                .values()
                .filter_map(Conn::next_timer)
                .min()
                .map(|at| at.saturating_duration_since(now));
            if let Err(err) = poller.wait(&mut events, timeout) {
                break Err(err.into());
            }

            let now = Instant::now();
            let mut accept_ready = false;
            for event in &events {
                match event.token {
                    TOKEN_LISTENER => accept_ready = true,
                    TOKEN_WAKE => drain_wake_pipe(&wake_rx),
                    token => {
                        if let Some(conn) = conns.get_mut(&token) {
                            if event.readable || event.closed {
                                read_conn(conn);
                            }
                        }
                    }
                }
            }

            if accept_ready && accepting {
                match self.accept_ready(
                    listener,
                    &mode,
                    &mut conns,
                    &mut next_token,
                    &mut accepted,
                    &mut accepting,
                    now,
                ) {
                    Ok(()) => {}
                    Err(err) => break Err(err),
                }
            }

            for completion in scheduler.drain_completions() {
                let Completion { token, outcome } = completion;
                if let Some(conn) = conns.get_mut(&token) {
                    self.handle_completion(conn, outcome, &scheduler, now);
                }
            }

            // Protocol sweep: advance machines, flush output, fire timers,
            // and close whatever is due.
            let mut closed: Vec<u64> = Vec::new();
            for conn in conns.values_mut() {
                self.step_conn(conn, &scheduler, now);
                self.flush_conn(conn, now);
                self.check_timers(conn, now);
                if close_due(conn, now) {
                    closed.push(conn.token);
                }
            }
            for token in closed {
                let mut conn = conns.remove(&token).expect("token from sweep");
                if conn.registered.is_some() {
                    let _ = poller.delete(conn.stream.as_raw_fd());
                }
                if let Some(slot) = conn.slot {
                    slots[slot] = conn.result.take();
                } else if matches!(mode, Mode::Forever) {
                    if let Some(Err(err)) = &conn.result {
                        if conn.machine.is_some() {
                            eprintln!(
                                "eva-service: session {} from {} failed: {err}",
                                conn.id, conn.addr
                            );
                        }
                    }
                }
            }
            for conn in conns.values_mut() {
                sync_interest(poller, conn, now);
            }
        };
        let _ = listener.set_nonblocking(false);
        if accepting {
            let _ = poller.delete(listener.as_raw_fd());
        }
        // Scheduler drop joins the workers: in-flight evaluations complete
        // before serve returns, so shutdown drains rather than aborts.
        drop(scheduler);
        server.publish_wake(None);
        result
    }

    /// Accepts every connection currently queued on the listener.
    #[allow(clippy::too_many_arguments)]
    fn accept_ready(
        &self,
        listener: &TcpListener,
        mode: &Mode,
        conns: &mut HashMap<u64, Conn>,
        next_token: &mut u64,
        accepted: &mut usize,
        accepting: &mut bool,
        now: Instant,
    ) -> Result<(), ServiceError> {
        let mut admitted = conns.values().filter(|c| c.machine.is_some()).count();
        loop {
            let (stream, addr) = match listener.accept() {
                Ok(pair) => pair,
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(err) => return Err(err.into()),
            };
            if matches!(mode, Mode::Forever) && self.server.is_shutting_down() {
                // A client arriving after begin_shutdown.
                drop(stream);
                *accepting = false;
                let _ = self.poller.delete(listener.as_raw_fd());
                return Ok(());
            }
            let slot = match mode {
                Mode::Sessions(_) => Some(*accepted),
                Mode::Forever => None,
            };
            let token = *next_token;
            *next_token += 1;
            let admit = admitted < self.server.config().max_sessions.max(1);
            admitted += usize::from(admit);
            let conn = self.admit_conn(stream, addr, token, slot, admit, now);
            conns.insert(token, conn);
            if let Mode::Sessions(n) = mode {
                *accepted += 1;
                if *accepted == *n {
                    *accepting = false;
                    let _ = self.poller.delete(listener.as_raw_fd());
                    return Ok(());
                }
            }
        }
    }

    /// Builds the connection state for one accepted socket: with `admit`,
    /// a session with a machine and an armed deadline, otherwise a busy
    /// rejection already in its draining close.
    fn admit_conn(
        &self,
        stream: TcpStream,
        addr: SocketAddr,
        token: u64,
        slot: Option<usize>,
        admit: bool,
        now: Instant,
    ) -> Conn {
        let server = &self.server;
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(true).ok();
        let mut conn = Conn {
            token,
            id: 0,
            addr,
            stream,
            assembler: FrameAssembler::new(),
            machine: None,
            pending: VecDeque::new(),
            pending_error: None,
            out: Vec::new(),
            out_pos: 0,
            budget: None,
            expires: None,
            closing: None,
            result: None,
            slot,
            eof: false,
            evaluating: false,
            registered: None,
        };
        if admit {
            // A session's id is its ordinal among the server's sessions.
            conn.id = server.counters().started.fetch_add(1, Ordering::Relaxed) + 1;
            conn.budget = server.config().read_deadline;
            conn.machine = Some(SessionMachine::new(server.clone()));
            conn.arm_deadline(now);
        } else {
            server
                .counters()
                .busy_rejected
                .fetch_add(1, Ordering::Relaxed);
            // The `busy:` prefix is what clients classify as transient.
            let message = format!(
                "busy: server is at its {}-session limit; retry with backoff",
                server.config().max_sessions.max(1)
            );
            conn.queue_frames(&[encode_payload(&Message::Error(message.clone()))]);
            conn.result = Some(Err(ServiceError::Protocol(message)));
            conn.closing = Some(self.closing_state(now, ERROR_DRAIN_WINDOW));
        }
        conn
    }

    fn closing_state(&self, now: Instant, drain: Duration) -> Closing {
        let cap = self
            .server
            .config()
            .write_timeout
            .unwrap_or(DEFAULT_CLOSE_CAP);
        Closing {
            drain_until: now + drain,
            hard: now + cap + drain,
        }
    }

    /// Initiates an error close: count it, queue the error frame (unless the
    /// peer is already gone) and enter the draining state.
    fn fail_conn(&self, conn: &mut Conn, err: ServiceError, now: Instant) {
        self.server
            .counters()
            .failed
            .fetch_add(1, Ordering::Relaxed);
        // Error-frame-before-close: tell the peer what went wrong, except
        // when the error *is* that the peer is gone.
        let drain = match &err {
            ServiceError::Disconnected => Duration::ZERO,
            _ => {
                conn.queue_frames(&[encode_payload(&Message::Error(err.to_string()))]);
                ERROR_DRAIN_WINDOW
            }
        };
        conn.result = Some(Err(err));
        conn.closing = Some(self.closing_state(now, drain));
        conn.expires = None;
    }

    /// Initiates a panic close: count it separately, log it, answer with the
    /// `internal error` frame.
    fn panic_conn(&self, conn: &mut Conn, message: &str, now: Instant) {
        self.server
            .counters()
            .panicked
            .fetch_add(1, Ordering::Relaxed);
        let id = conn.id;
        eprintln!("eva-service: session {id} panicked: {message}");
        conn.queue_frames(&[encode_payload(&Message::Error(
            "internal error: the session worker crashed".into(),
        ))]);
        conn.result = Some(Err(ServiceError::Execution(format!(
            "session {id} panicked: {message}"
        ))));
        conn.closing = Some(self.closing_state(now, ERROR_DRAIN_WINDOW));
        conn.expires = None;
    }

    /// Feeds one session-machine step's outcome back into the connection.
    fn apply_step(
        &self,
        conn: &mut Conn,
        step: Result<Step, ServiceError>,
        scheduler: &Scheduler,
        now: Instant,
    ) {
        match step {
            Ok(Step::Continue) => conn.arm_deadline(now),
            Ok(Step::Reply(frames)) => {
                conn.queue_frames(&frames);
                conn.arm_deadline(now);
            }
            Ok(Step::Evaluate(run)) => {
                conn.evaluating = true;
                conn.expires = None;
                scheduler.submit(conn.token, run);
            }
            Ok(Step::Close(report)) => {
                let counters = self.server.counters();
                counters.completed.fetch_add(1, Ordering::Relaxed);
                if report.resumed {
                    counters.resumed.fetch_add(1, Ordering::Relaxed);
                }
                counters
                    .evaluations
                    .fetch_add(report.evaluations as u64, Ordering::Relaxed);
                conn.result = Some(Ok(report));
                conn.closing = Some(self.closing_state(now, Duration::ZERO));
                conn.expires = None;
            }
            Err(err) => self.fail_conn(conn, err, now),
        }
    }

    /// Routes a finished evaluation back into its session.
    fn handle_completion(
        &self,
        conn: &mut Conn,
        outcome: JobOutcome,
        scheduler: &Scheduler,
        now: Instant,
    ) {
        conn.evaluating = false;
        if conn.closing.is_some() {
            // The connection died while its job ran; nothing to deliver.
            return;
        }
        match outcome {
            JobOutcome::Done(result) => {
                let Some(machine) = conn.machine.as_mut() else {
                    return;
                };
                let step = match catch_unwind(AssertUnwindSafe(|| machine.on_job_done(result))) {
                    Ok(step) => step,
                    Err(payload) => {
                        let message = crate::server::panic_message(payload.as_ref());
                        self.panic_conn(conn, &message, now);
                        return;
                    }
                };
                self.apply_step(conn, step, scheduler, now);
            }
            JobOutcome::Panicked(message) => self.panic_conn(conn, &message, now),
        }
    }

    /// Advances one connection's protocol state: one pending frame per
    /// machine step, then the EOF transition once the peer is done sending.
    fn step_conn(&self, conn: &mut Conn, scheduler: &Scheduler, now: Instant) {
        while conn.closing.is_none() && !conn.evaluating {
            let Some(machine) = conn.machine.as_mut() else {
                return;
            };
            if let Some(frame) = conn.pending.pop_front() {
                let step = match catch_unwind(AssertUnwindSafe(|| machine.on_frame(frame))) {
                    Ok(step) => step,
                    Err(payload) => {
                        let message = crate::server::panic_message(payload.as_ref());
                        self.panic_conn(conn, &message, now);
                        return;
                    }
                };
                self.apply_step(conn, step, scheduler, now);
                continue;
            }
            if let Some(err) = conn.pending_error.take() {
                self.fail_conn(conn, err, now);
                return;
            }
            if conn.eof {
                // A clean EOF sits exactly between frames; anything else is
                // a mid-frame disconnect.
                let step = if conn.assembler.is_idle() {
                    machine.on_eof()
                } else {
                    Err(ServiceError::Disconnected)
                };
                self.apply_step(conn, step, scheduler, now);
            }
            return;
        }
    }

    /// Writes as much queued output as the socket accepts.
    fn flush_conn(&self, conn: &mut Conn, now: Instant) {
        while conn.has_output() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => return,
                Ok(n) => {
                    conn.out_pos += n;
                    if conn.closing.is_none() {
                        // The server answered: fresh budget for the next
                        // message.
                        conn.arm_deadline(now);
                    }
                }
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(err) => {
                    // The peer is unreachable; no error frame can be
                    // delivered, so close immediately.
                    conn.out.clear();
                    conn.out_pos = 0;
                    if conn.closing.is_none() {
                        self.server
                            .counters()
                            .failed
                            .fetch_add(1, Ordering::Relaxed);
                        conn.result = Some(Err(ServiceError::Io(err)));
                    }
                    conn.closing = Some(Closing {
                        drain_until: now,
                        hard: now,
                    });
                    conn.expires = None;
                    return;
                }
            }
        }
        if conn.out_pos > 0 {
            conn.out.clear();
            conn.out_pos = 0;
        }
    }

    /// Fires the per-message deadline timer.
    fn check_timers(&self, conn: &mut Conn, now: Instant) {
        if conn.closing.is_some() || conn.evaluating {
            return;
        }
        if let (Some(expires), Some(budget)) = (conn.expires, conn.budget) {
            if now >= expires {
                let err = ServiceError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!("deadline: no complete message within {budget:?}"),
                ));
                self.fail_conn(conn, err, now);
            }
        }
    }
}

/// Whether a closing connection is due to be dropped.
fn close_due(conn: &Conn, now: Instant) -> bool {
    let Some(closing) = &conn.closing else {
        return false;
    };
    if now >= closing.hard {
        return true;
    }
    !conn.has_output() && (conn.eof || now >= closing.drain_until)
}

fn drain_wake_pipe(wake_rx: &UnixStream) {
    let mut sink = [0u8; 256];
    loop {
        match (&*wake_rx).read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return, // WouldBlock: drained
        }
    }
}

/// Reads what is available on one connection into its frame assembler,
/// until a frame completes (or discards it all, when the connection is
/// draining to close).
fn read_conn(conn: &mut Conn) {
    if conn.eof || (conn.read_paused() && conn.closing.is_none()) {
        return;
    }
    let mut buf = [0u8; READ_CHUNK_BYTES];
    loop {
        let n = match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.eof = true;
                return;
            }
            Ok(n) => n,
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(err) => {
                if conn.closing.is_none() && conn.pending_error.is_none() {
                    conn.pending_error = Some(ServiceError::Io(err));
                }
                conn.eof = true;
                return;
            }
        };
        if conn.closing.is_some() || conn.pending_error.is_some() {
            continue; // draining: bytes are read so the close is a FIN
        }
        let Some(machine) = conn.machine.as_mut() else {
            continue;
        };
        let push = conn.assembler.push(
            &buf[..n],
            &mut |tag, len| machine.admit(tag, len),
            &mut conn.pending,
        );
        if let Err(err) = push {
            // Oversized frame or bound refusal: the step sweep turns this
            // into the error-frame-before-close path once the frames that
            // completed before it have been served.
            conn.pending_error = Some(err);
            return;
        }
        if !conn.pending.is_empty() {
            return; // paused until the sweep steps the frame
        }
    }
}

/// Reconciles the poller registration with what the connection needs now.
fn sync_interest(poller: &Poller, conn: &mut Conn, now: Instant) {
    let desired = conn.desired_interest(now);
    let fd = conn.stream.as_raw_fd();
    let applied = match (conn.registered, desired) {
        (None, Some(interest)) => poller.add(fd, conn.token, interest).is_ok(),
        (Some(current), Some(interest)) if current != interest => {
            poller.modify(fd, conn.token, interest).is_ok()
        }
        (Some(_), None) => {
            let _ = poller.delete(fd);
            true
        }
        _ => return,
    };
    if applied {
        conn.registered = desired;
    }
}
