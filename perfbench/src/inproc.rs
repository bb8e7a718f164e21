//! The two in-process workloads: a client that holds its own keys and runs
//! the compiled program itself, one query at a time.
//!
//! `sobel_serial` and `lenet_parallel` differ only in the program and in
//! which executor runs it, so both are one [`InProcess`] description driven
//! by the same loop.

use std::time::Instant;

use eva_backend::{execute_parallel, EncryptedContext};
use eva_core::{compile, CompiledProgram, CompilerOptions};

use crate::cases::{Case, Values};
use crate::json::Json;
use crate::layers;
use crate::run::{digest, Config, Outcome};
use crate::stats::median;
use crate::sys;
use crate::trace::Tracer;

/// Which of `eva-backend`'s executors runs the program.
#[derive(Debug, Clone, Copy)]
pub enum Exec {
    Serial,
    /// `execute_parallel` with this many threads.
    Parallel(usize),
}

impl Exec {
    pub fn threads(self) -> usize {
        match self {
            Exec::Serial => 1,
            Exec::Parallel(threads) => threads,
        }
    }
}

/// An in-process workload.
pub struct InProcess {
    pub build: fn(u64) -> Case,
    pub exec: Exec,
    /// Checked queries run before the timed window. The first is the cold
    /// one: Galois keys are brought into evaluation order on first use.
    pub warmups: usize,
    /// Fewest timed queries, however long they take.
    pub min_timed: usize,
    /// How often an untraced run sets up from scratch; `setup_s` and
    /// `cold_session_s` are medians over these.
    pub setup_reps: usize,
}

/// A compiled program with the keys to run it.
pub struct Session {
    pub case: Case,
    pub compiled: CompiledProgram,
    context: EncryptedContext,
    exec: Exec,
}

/// Seconds the parts of one query took.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    pub encrypt_s: f64,
    pub execute_s: f64,
    pub decrypt_s: f64,
    pub total_s: f64,
}

impl Session {
    /// Builds the program, compiles it with the default options and
    /// generates every key it needs from `seed`. Also returns the seconds
    /// key generation took.
    pub fn set_up(
        build: fn(u64) -> Case,
        exec: Exec,
        seed: u64,
        tracer: &mut Tracer,
    ) -> Result<(Session, f64), String> {
        let (case, _) = tracer.time("build", None, |_| build(seed));
        let (compiled, _) = tracer.time("compile", None, |_| {
            compile(&case.program, &CompilerOptions::default())
        });
        let compiled = compiled.map_err(|e| format!("compile: {e}"))?;
        let (context, keygen_s) = tracer.time("keygen", None, |_| {
            EncryptedContext::setup(&compiled, Some(seed))
        });
        let context = context.map_err(|e| format!("key generation: {e}"))?;
        let session = Session {
            case,
            compiled,
            context,
            exec,
        };
        Ok((session, keygen_s))
    }

    /// One query as its user sees it: encrypt the inputs, evaluate, decrypt
    /// the outputs. An error from any step is the answer.
    pub fn query(&mut self, tracer: &mut Tracer, id: u64) -> (Result<Values, String>, Phases) {
        let mut phases = Phases {
            encrypt_s: 0.0,
            execute_s: 0.0,
            decrypt_s: 0.0,
            total_s: 0.0,
        };
        let (answer, total_s) = tracer.time("query", Some(id), |tracer| {
            let (bindings, s) = tracer.time("encrypt", Some(id), |_| {
                self.context
                    .encrypt_inputs(&self.compiled, &self.case.inputs)
            });
            phases.encrypt_s = s;
            let bindings = bindings.map_err(|e| format!("encrypt: {e}"))?;
            let (values, s) = tracer.time("execute", Some(id), |_| match self.exec {
                Exec::Serial => self.context.execute_serial(&self.compiled, bindings),
                Exec::Parallel(threads) => {
                    execute_parallel(self.context.evaluation(), &self.compiled, bindings, threads)
                }
            });
            phases.execute_s = s;
            let values = values.map_err(|e| format!("execute: {e}"))?;
            let (outputs, s) = tracer.time("decrypt", Some(id), |_| {
                self.context.decrypt_outputs(&self.compiled, &values)
            });
            phases.decrypt_s = s;
            outputs.map_err(|e| format!("decrypt: {e}"))
        });
        phases.total_s = total_s;
        (answer, phases)
    }
}

/// Medians of the phases of a list of queries.
pub fn median_phases(queries: &[Phases]) -> Phases {
    let of = |pick: fn(&Phases) -> f64| median(&queries.iter().map(pick).collect::<Vec<_>>());
    Phases {
        encrypt_s: of(|p| p.encrypt_s),
        execute_s: of(|p| p.execute_s),
        decrypt_s: of(|p| p.decrypt_s),
        total_s: of(|p| p.total_s),
    }
}

/// Runs one in-process workload.
pub fn run(workload: &InProcess, cfg: &Config) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut tracer = Tracer::new(start, 0, cfg.trace);
    let mut out = Outcome::default();
    let mut next_id = 0u64;
    let mut next_query = || {
        next_id += 1;
        next_id
    };

    // Set up from scratch, several times when set-up time is what is being
    // measured; the last set-up is the one the timed queries run against.
    let reps = if cfg.trace || cfg.quick {
        1
    } else {
        workload.setup_reps
    };
    let warmups = if cfg.quick { 1 } else { workload.warmups };
    let mut setup_s = Vec::new();
    let mut cold_session_s = Vec::new();
    let mut session = None;
    let mut keygen_s = 0.0;
    for _ in 0..reps {
        // Free the previous set-up's keys first, or peak memory would count
        // two key sets where a user holds one.
        drop(session.take());
        let rep_start = Instant::now();
        let mut fresh;
        (fresh, keygen_s) = Session::set_up(workload.build, workload.exec, cfg.seed, &mut tracer)?;
        for warmup in 0..warmups {
            let (answer, phases) = fresh.query(&mut tracer, next_query());
            if warmup == 0 {
                // A brand-new client's wait for its first answer: key
                // generation and the cold first query.
                cold_session_s.push(keygen_s + phases.total_s);
                if let Ok(outputs) = &answer {
                    out.detail
                        .insert("output_digest", Json::Str(digest(outputs)));
                }
            }
            out.tally
                .record(&fresh.case, answer.as_ref().map_err(String::as_str));
        }
        setup_s.push(rep_start.elapsed().as_secs_f64());
        session = Some(fresh);
    }
    let mut session = session.expect("at least one set-up");

    // The timed window: back-to-back queries, closed loop, one client. A
    // traced run keeps spans for every other query, so that the same run
    // shows what keeping them costs.
    let min_timed = if cfg.quick { 1 } else { workload.min_timed };
    let min_timed = if cfg.trace {
        min_timed.next_multiple_of(2)
    } else {
        min_timed
    };
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut correct = 0u64;
    let cpu_before = sys::cpu_seconds()?;
    let window = Instant::now();
    while plain.len() + traced.len() < min_timed || window.elapsed().as_secs_f64() < cfg.seconds {
        let keep_spans = cfg.trace && (plain.len() + traced.len()) % 2 == 1;
        tracer.set_enabled(keep_spans);
        let (answer, phases) = session.query(&mut tracer, next_query());
        if out
            .tally
            .record(&session.case, answer.as_ref().map_err(String::as_str))
        {
            correct += 1;
        }
        (if keep_spans { &mut traced } else { &mut plain }).push(phases);
    }
    let window_s = window.elapsed().as_secs_f64();
    let cpu_after = sys::cpu_seconds()?;
    tracer.set_enabled(cfg.trace);

    let queries = (plain.len() + traced.len()) as f64;
    out.detail.insert("timed_queries", Json::Num(queries));
    let list = |values: &[f64]| Json::Arr(values.iter().copied().map(Json::Num).collect());
    out.detail.insert("setup_samples_s", list(&setup_s));
    out.detail
        .insert("cold_session_samples_s", list(&cold_session_s));
    out.detail
        .insert("worst_error", Json::Num(out.tally.worst_error));
    if !cfg.trace {
        let m = &mut out.metrics;
        m.insert("setup_s", median(&setup_s));
        m.insert("query_s", median_phases(&plain).total_s);
        m.insert("throughput_qps", correct as f64 / window_s);
        m.insert("cold_session_s", median(&cold_session_s));
        m.insert("peak_rss_mb", sys::peak_rss_mb()?);
        return Ok(out);
    }

    let all: Vec<Phases> = plain.iter().chain(&traced).copied().collect();
    let phases = median_phases(&all);
    let m = &mut out.metrics;
    m.insert("keygen_s", keygen_s);
    m.insert("encrypt_s", phases.encrypt_s);
    m.insert("execute_s", phases.execute_s);
    m.insert("decrypt_s", phases.decrypt_s);
    m.insert("roundtrip_s", phases.total_s);
    // Nothing sits between an in-process client and the executor, so what a
    // query takes beyond its three phases is the harness itself.
    let beyond_phases: Vec<f64> = all
        .iter()
        .map(|p| p.total_s - p.encrypt_s - p.execute_s - p.decrypt_s)
        .collect();
    m.insert("service_overhead_s", median(&beyond_phases));
    m.insert(
        "trace_overhead_share",
        median_phases(&traced).total_s / median_phases(&plain).total_s - 1.0,
    );
    let (user, system) = (cpu_after.0 - cpu_before.0, cpu_after.1 - cpu_before.1);
    m.insert("cpu_user_s", user / queries);
    m.insert("cpu_sys_s", system / queries);
    m.insert("sys_share", system / (user + system).max(f64::MIN_POSITIVE));
    layers::measure(
        workload.build,
        &session.compiled,
        cfg,
        phases.execute_s,
        workload.exec.threads(),
        &mut tracer,
        &mut out,
    )?;
    out.spans = tracer.into_spans();
    Ok(out)
}
