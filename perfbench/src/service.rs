//! The two service workloads: an in-process `EvaServer` on the reactor
//! transport and one closed-loop client thread per hardware thread, over
//! localhost TCP.
//!
//! `service_warm` is the read side of `eva-wire`/`eva-service`: clients
//! resume a session whose keys the server caches and send queries back to
//! back. `service_cold` is the write side: every session brings a fresh key
//! set, uploads it, asks one query and leaves.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eva_core::{compile, CompilerOptions};
use eva_service::{EvaClient, EvaServer, ServerStats, ServiceError};

use crate::cases::{square_plus_x, Case};
use crate::inproc::{median_phases, Exec, Session};
use crate::json::Json;
use crate::layers;
use crate::run::{digest, Config, Outcome, Tally};
use crate::stats::{median, supported_tail};
use crate::sys;
use crate::trace::{merge, Span, Tracer};

/// Which side of the service a workload exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Warm,
    Cold,
}

/// How often an untraced run sets the service up from scratch. A set-up
/// takes 30–60 ms, so twenty cost a second; `setup_s` is their median, and
/// on `service_warm` they supply the cold sessions `cold_session_s` is the
/// median of.
const SETUP_REPS: usize = 20;
/// Checked warm-up queries per warm client before the timed window.
const WARMUPS: usize = 5;
/// In-process queries a traced run times to split a round trip.
const INPROC_QUERIES: usize = 200;

type Connection = EvaClient<TcpStream>;

/// Ends a session politely.
fn say_goodbye(connection: Connection) -> Result<(), String> {
    connection
        .finish()
        .map(drop)
        .map_err(|e| format!("goodbye: {e}"))
}

/// A server on its own thread, serving until stopped.
struct Server {
    control: EvaServer,
    addr: SocketAddr,
    thread: JoinHandle<Result<(), ServiceError>>,
}

impl Server {
    /// Compiles the case and serves it on an ephemeral localhost port: one
    /// executor thread per evaluation, default limits, no disk store.
    fn start(case: &Case, tracer: &mut Tracer) -> Result<Server, String> {
        let (compiled, _) = tracer.time("compile", None, |_| {
            compile(&case.program, &CompilerOptions::default())
        });
        let compiled = compiled.map_err(|e| format!("compile: {e}"))?;
        let (server, _) = tracer.time("server_load", None, |_| EvaServer::new(compiled));
        let control = server
            .map_err(|e| format!("server load: {e}"))?
            .with_threads(1);
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let server = control.clone();
        let thread = std::thread::spawn(move || server.serve_forever(&listener));
        Ok(Server {
            control,
            addr,
            thread,
        })
    }

    /// Stops the reactor and returns the final counters. `last` is a session
    /// that is still open: the reactor only notices a shutdown between
    /// events, and one asked for while no connection is open can leave it
    /// parked in `epoll_wait` for good, its listener already deregistered.
    /// Asking while `last` is open and closing `last` afterwards gives it an
    /// event to wake on.
    fn stop(self, last: Connection) -> Result<ServerStats, String> {
        self.control.begin_shutdown();
        say_goodbye(last)?;
        self.thread
            .join()
            .map_err(|_| "the server thread panicked".to_string())?
            .map_err(|e| format!("serve_forever: {e}"))?;
        Ok(self.control.stats())
    }
}

/// What one client thread measured, or several pooled.
#[derive(Default)]
struct ClientReport {
    tally: Tally,
    connect_s: Vec<f64>,
    handshake_cold_s: Vec<f64>,
    handshake_warm_s: Vec<f64>,
    /// Cold sessions, timed or not: connect to first checked answer.
    cold_session_s: Vec<f64>,
    /// Timed `evaluate` calls with spans off, and with spans kept.
    plain_s: Vec<f64>,
    traced_s: Vec<f64>,
    timed_correct: u64,
    sessions: u64,
    resumed_sessions: u64,
    window: Option<(Instant, Instant)>,
    spans: Vec<Span>,
}

impl ClientReport {
    /// Pools another client's measurements into this one.
    fn absorb(&mut self, other: ClientReport) {
        self.tally.absorb(other.tally);
        self.connect_s.extend(other.connect_s);
        self.handshake_cold_s.extend(other.handshake_cold_s);
        self.handshake_warm_s.extend(other.handshake_warm_s);
        self.cold_session_s.extend(other.cold_session_s);
        self.plain_s.extend(other.plain_s);
        self.traced_s.extend(other.traced_s);
        self.timed_correct += other.timed_correct;
        self.sessions += other.sessions;
        self.resumed_sessions += other.resumed_sessions;
        if let Some((start, end)) = other.window {
            // The clients' windows open together at the barrier; the run's
            // window closes when the last of them does.
            self.window = Some(match self.window {
                None => (start, end),
                Some((s, e)) => (s.min(start), e.max(end)),
            });
        }
        self.spans = merge(vec![std::mem::take(&mut self.spans), other.spans]);
    }
}

/// One client thread.
struct Client<'a> {
    cfg: &'a Config,
    case: &'a Case,
    addr: SocketAddr,
    /// Which client of the run this is, and which set-up it belongs to: both
    /// go into its key seeds so that no two sessions share keys by accident.
    index: usize,
    rep: usize,
    tracer: Tracer,
    report: ClientReport,
}

impl Client<'_> {
    fn connect(&mut self) -> Result<TcpStream, String> {
        let (stream, s) = self
            .tracer
            .time("connect", None, |_| TcpStream::connect(self.addr));
        let stream = stream.map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        self.report.connect_s.push(s);
        Ok(stream)
    }

    /// One checked `evaluate` round trip: its seconds and whether the answer
    /// was right.
    fn evaluate(&mut self, connection: &mut Connection) -> (f64, bool) {
        let id = (self.index as u64) << 32 | self.report.tally.attempted;
        let (answer, s) = self.tracer.time("roundtrip", Some(id), |_| {
            connection
                .evaluate(&self.case.inputs)
                .map_err(|e| e.to_string())
        });
        let answer = answer.as_ref().map_err(String::as_str);
        (s, self.report.tally.record(self.case, answer))
    }

    /// A brand-new client: connect, full handshake with keys this server has
    /// never seen, one query. Returns the session still open, with the
    /// query's seconds and verdict.
    fn cold_session(&mut self) -> Result<(Connection, f64, bool), String> {
        let key_seed = self
            .cfg
            .seed
            .wrapping_mul(1_000_003)
            .wrapping_add((self.rep * 64 + self.index) as u64 * 1_000_000_007)
            .wrapping_add(self.report.sessions);
        let start = Instant::now();
        let stream = self.connect()?;
        let (connection, s) = self.tracer.time("handshake_cold", None, |_| {
            EvaClient::handshake(stream, Some(key_seed))
        });
        let mut connection = connection.map_err(|e| format!("cold handshake: {e}"))?;
        self.report.handshake_cold_s.push(s);
        let (roundtrip_s, correct) = self.evaluate(&mut connection);
        self.report
            .cold_session_s
            .push(start.elapsed().as_secs_f64());
        self.report.sessions += 1;
        Ok((connection, roundtrip_s, correct))
    }

    /// The timed window: `one` back to back until the run's seconds are up.
    /// `one` returns the seconds of the query it made and its verdict. A
    /// traced run keeps spans for every other call, so that the same run
    /// shows what keeping them costs.
    fn timed_window(
        &mut self,
        quick_cap: u64,
        mut one: impl FnMut(&mut Self) -> Result<(f64, bool), String>,
    ) -> Result<(), String> {
        let min_calls = if self.cfg.trace { 2 } else { 1 };
        let start = Instant::now();
        let mut calls = 0;
        let mut result = Ok(());
        while calls < min_calls || start.elapsed().as_secs_f64() < self.cfg.seconds {
            let keep_spans = self.cfg.trace && calls % 2 == 1;
            self.tracer.set_enabled(keep_spans);
            match one(self) {
                Ok((seconds, correct)) => {
                    self.report.timed_correct += u64::from(correct);
                    if keep_spans {
                        self.report.traced_s.push(seconds);
                    } else {
                        self.report.plain_s.push(seconds);
                    }
                }
                Err(why) => {
                    result = Err(why);
                    break;
                }
            }
            calls += 1;
            if self.cfg.quick && calls >= quick_cap {
                break;
            }
        }
        self.report.window = Some((start, Instant::now()));
        self.tracer.set_enabled(self.cfg.trace);
        result
    }

    /// `service_warm`: a cold session mints the ticket, a second session
    /// resumes it, and after the warm-ups the timed window is `evaluate`
    /// calls back to back on that one session.
    fn run_warm(&mut self, ready: &Barrier, timed: bool) -> Result<(), String> {
        let warmups = if self.cfg.quick { 1 } else { WARMUPS };
        let set_up = |me: &mut Self| -> Result<Connection, String> {
            let (cold, _, _) = me.cold_session()?;
            let ticket = cold
                .resumption_ticket()
                .ok_or("a seeded session minted no ticket")?;
            say_goodbye(cold)?;
            let stream = me.connect()?;
            let (warm, s) = me.tracer.time("handshake_warm", None, |_| {
                EvaClient::handshake_resuming(stream, ticket)
            });
            let mut warm = warm.map_err(|e| format!("warm handshake: {e}"))?;
            me.report.handshake_warm_s.push(s);
            if !warm.resumed() {
                return Err("the server no longer held the session's keys".into());
            }
            me.report.sessions += 1;
            me.report.resumed_sessions += 1;
            for _ in 0..warmups {
                me.evaluate(&mut warm);
            }
            Ok(warm)
        };
        // Reach the barrier whatever happened, or the others wait forever.
        let warm = set_up(self);
        ready.wait();
        let mut warm = warm?;
        if timed {
            self.timed_window(5, |me| Ok(me.evaluate(&mut warm)))?;
        }
        say_goodbye(warm)
    }

    /// `service_cold`: one warm-up session, then the timed window is whole
    /// sessions back to back.
    fn run_cold(&mut self, ready: &Barrier, timed: bool) -> Result<(), String> {
        let warmed = self
            .cold_session()
            .and_then(|(connection, _, _)| say_goodbye(connection));
        ready.wait();
        warmed?;
        if timed {
            self.timed_window(2, |me| {
                let (connection, seconds, correct) = me.cold_session()?;
                say_goodbye(connection)?;
                Ok((seconds, correct))
            })?;
        }
        Ok(())
    }
}

/// Samples the server's evaluation queue depth until told to stop and
/// returns the deepest it saw.
fn watch_queue(control: &EvaServer, stop: &AtomicBool) -> u64 {
    let mut deepest = 0;
    while !stop.load(Ordering::Relaxed) {
        deepest = deepest.max(control.stats().queue_depth);
        std::thread::sleep(Duration::from_millis(2));
    }
    deepest
}

/// Runs one service workload.
pub fn run(mode: Mode, cfg: &Config) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, 0, cfg.trace);
    let mut out = Outcome::default();
    let clients = sys::nproc();
    let reps = if cfg.trace || cfg.quick {
        1
    } else {
        SETUP_REPS
    };

    let mut setup_s = Vec::new();
    let mut pooled = ClientReport::default();
    let mut seen = ServerStats::default();
    let mut deepest_queue = 0;
    let mut cpu_window = ((0.0, 0.0), (0.0, 0.0));
    for rep in 0..reps {
        let timed = rep + 1 == reps;
        let rep_start = Instant::now();
        let (case, _) = tracer.time("build", None, |_| square_plus_x(cfg.seed));
        let server = Server::start(&case, &mut tracer)?;
        let ready = Barrier::new(clients + 1);
        let stop_watching = AtomicBool::new(false);
        let reports = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|index| {
                    let (case, ready, addr) = (&case, &ready, server.addr);
                    scope.spawn(move || {
                        let mut client = Client {
                            cfg,
                            case,
                            addr,
                            index,
                            rep,
                            tracer: Tracer::new(epoch, index + 1, cfg.trace),
                            report: ClientReport::default(),
                        };
                        let result = match mode {
                            Mode::Warm => client.run_warm(ready, timed),
                            Mode::Cold => client.run_cold(ready, timed),
                        };
                        client.report.spans = client.tracer.into_spans();
                        result.map(|()| client.report)
                    })
                })
                .collect();
            // Every client is connected and warm: set-up ends here.
            ready.wait();
            setup_s.push(rep_start.elapsed().as_secs_f64());
            cpu_window.0 = sys::cpu_seconds().unwrap_or_default();
            let watcher = (cfg.trace && timed)
                .then(|| scope.spawn(|| watch_queue(&server.control, &stop_watching)));
            let reports: Vec<Result<ClientReport, String>> = handles
                .into_iter()
                .map(|handle| {
                    handle
                        .join()
                        .unwrap_or_else(|_| Err("a client thread panicked".into()))
                })
                .collect();
            cpu_window.1 = sys::cpu_seconds().unwrap_or_default();
            stop_watching.store(true, Ordering::Relaxed);
            if let Some(watcher) = watcher {
                deepest_queue = watcher.join().unwrap_or(0);
            }
            reports
        });
        // One fully deterministic session, outside every timed region: the
        // same seed shows the same answer bit for bit, and the server has a
        // session open when it is told to stop.
        let stream = TcpStream::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
        let mut last = EvaClient::handshake_deterministic(stream, cfg.seed)
            .map_err(|e| format!("deterministic handshake: {e}"))?;
        let answer = last.evaluate(&case.inputs).map_err(|e| e.to_string());
        if let Ok(outputs) = &answer {
            out.detail
                .insert("output_digest", Json::Str(digest(outputs)));
        }
        out.tally
            .record(&case, answer.as_ref().map_err(String::as_str));
        let stats = server.stop(last)?;
        for report in reports {
            pooled.absorb(report?);
        }
        seen.sessions_completed += stats.sessions_completed;
        seen.resumed_sessions += stats.resumed_sessions;
        seen.evaluations += stats.evaluations;
        seen.sessions_failed += stats.sessions_failed;
        seen.session_panics += stats.session_panics;
        seen.busy_rejections += stats.busy_rejections;
    }

    // The server must have served exactly what was sent — the clients'
    // sessions and queries plus each set-up's deterministic session — and
    // failed, refused or panicked on nothing.
    let sent = ServerStats {
        sessions_completed: pooled.sessions + reps as u64,
        resumed_sessions: pooled.resumed_sessions,
        evaluations: pooled.tally.attempted + reps as u64,
        ..ServerStats::default()
    };
    out.tally.absorb(std::mem::take(&mut pooled.tally));
    if seen != sent {
        eprintln!("server counters {seen:?} differ from what the clients sent {sent:?}");
        out.tally.attempted += 1;
        out.tally.failed += 1;
    }

    let (window_start, window_end) = pooled.window.ok_or("no client ran a timed window")?;
    let window_s = (window_end - window_start).as_secs_f64();
    let timed_queries = (pooled.plain_s.len() + pooled.traced_s.len()) as f64;
    let d = &mut out.detail;
    d.insert("timed_queries", Json::Num(timed_queries));
    d.insert("clients", Json::Num(clients as f64));
    d.insert("worst_error", Json::Num(out.tally.worst_error));
    if !cfg.trace {
        let m = &mut out.metrics;
        m.insert("setup_s", median(&setup_s));
        m.insert("query_s", median(&pooled.plain_s));
        m.insert("throughput_qps", pooled.timed_correct as f64 / window_s);
        m.insert("cold_session_s", median(&pooled.cold_session_s));
        m.insert("peak_rss_mb", sys::peak_rss_mb()?);
        return Ok(out);
    }

    // Where a round trip goes: the same program run in process gives the
    // client's and the executor's share, the wire encodings theirs, and what
    // is left is the service itself — syscalls, the reactor, the scheduler.
    let all_s: Vec<f64> = pooled
        .plain_s
        .iter()
        .chain(&pooled.traced_s)
        .copied()
        .collect();
    let roundtrip_s = median(&all_s);
    let (mut session, keygen_s) =
        Session::set_up(square_plus_x, Exec::Serial, cfg.seed, &mut tracer)?;
    let mut phases = Vec::new();
    for id in 0..=INPROC_QUERIES as u64 {
        let (answer, p) = session.query(&mut tracer, u64::MAX - id);
        out.tally
            .record(&session.case, answer.as_ref().map_err(String::as_str));
        // The first query is the cold one.
        if id > 0 {
            phases.push(p);
        }
    }
    let phases = median_phases(&phases);
    let mut bench = layers::measure(
        square_plus_x,
        &session.compiled,
        cfg,
        phases.execute_s,
        1,
        &mut tracer,
        &mut out,
    )?;
    let wire_s = bench.service_wire_s(&session.compiled)?;
    let user_s = cpu_window.1 .0 - cpu_window.0 .0;
    let system_s = cpu_window.1 .1 - cpu_window.0 .1;
    let m = &mut out.metrics;
    m.insert("keygen_s", keygen_s);
    m.insert("encrypt_s", phases.encrypt_s);
    m.insert("execute_s", phases.execute_s);
    m.insert("decrypt_s", phases.decrypt_s);
    m.insert("roundtrip_s", roundtrip_s);
    m.insert(
        "service_overhead_s",
        roundtrip_s - phases.encrypt_s - phases.execute_s - phases.decrypt_s - wire_s,
    );
    m.insert(
        "trace_overhead_share",
        median(&pooled.traced_s) / median(&pooled.plain_s) - 1.0,
    );
    m.insert("cpu_user_s", user_s / timed_queries);
    m.insert("cpu_sys_s", system_s / timed_queries);
    m.insert(
        "sys_share",
        system_s / (user_s + system_s).max(f64::MIN_POSITIVE),
    );

    let tail = |values: &[f64]| {
        supported_tail(values).map_or(Json::Null, |(percentile, seconds)| {
            Json::obj([
                ("percentile", Json::Num(percentile)),
                ("seconds", Json::Num(seconds)),
                ("samples", Json::Num(values.len() as f64)),
            ])
        })
    };
    let d = &mut out.detail;
    d.insert("wire_s", Json::Num(wire_s));
    d.insert("connect_s", Json::Num(median(&pooled.connect_s)));
    d.insert(
        "handshake_cold_s",
        Json::Num(median(&pooled.handshake_cold_s)),
    );
    if !pooled.handshake_warm_s.is_empty() {
        d.insert(
            "handshake_warm_s",
            Json::Num(median(&pooled.handshake_warm_s)),
        );
    }
    d.insert("cold_session_s", Json::Num(median(&pooled.cold_session_s)));
    d.insert("query_tail", tail(&all_s));
    d.insert("cold_session_tail", tail(&pooled.cold_session_s));
    d.insert("max_queue_depth", Json::Num(deepest_queue as f64));
    d.insert(
        "server_stats",
        Json::obj(
            [
                ("evaluations", seen.evaluations),
                ("sessions_completed", seen.sessions_completed),
                ("resumed_sessions", seen.resumed_sessions),
                ("sessions_failed", seen.sessions_failed),
                ("session_panics", seen.session_panics),
                ("busy_rejections", seen.busy_rejections),
            ]
            .map(|(name, count)| (name, Json::Num(count as f64))),
        ),
    );
    out.spans = merge(vec![pooled.spans, tracer.into_spans()]);
    Ok(out)
}
