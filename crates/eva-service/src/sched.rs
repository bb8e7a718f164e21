//! The shared cross-session evaluation scheduler: a pool of worker threads
//! draining one FIFO job queue.
//!
//! Under the reactor, sessions no longer own a thread, so their evaluations
//! meet in one place — this queue. One server serves one compiled program,
//! so every job has the same predicted cost and the same peak-memory
//! forecast: ordering by cost would tie on every job, and summing forecast
//! bytes against the memory budget is a fixed cap on concurrent jobs. The
//! load gate computes that cap once ([`eval_slots`]) and the reactor sizes
//! the pool to `min(available cores, slots)`, so jobs simply run in
//! submission order on however many workers the budget admits.
//!
//! Workers run each job under `catch_unwind`: a panicking evaluation is
//! contained, reported as a panic outcome on the completion queue, and the
//! worker survives to take the next job.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::error::ServiceError;
use crate::protocol::ValuePayload;

/// The boxed evaluation closure a session hands to the scheduler: it runs
/// on a worker thread and yields the session's named output values.
pub(crate) type EvalRun =
    Box<dyn FnOnce() -> Result<Vec<(String, ValuePayload)>, ServiceError> + Send>;

/// How many evaluations of one program the memory budget admits at once:
/// `n` jobs fit iff `n · peak_bytes ≤ budget`, and at least one always runs
/// (the load gate already refused a program whose *single* evaluation
/// exceeds the budget). Unbounded without a budget or with a zero forecast.
pub(crate) fn eval_slots(budget: Option<u64>, peak_bytes: u64) -> usize {
    match budget {
        Some(budget) if peak_bytes > 0 => {
            usize::try_from(budget / peak_bytes).map_or(usize::MAX, |slots| slots.max(1))
        }
        _ => usize::MAX,
    }
}

/// Live gauges the scheduler maintains and [`crate::ServerStats`] exposes.
/// Plain atomics: the reactor samples them on its hot path and session
/// submissions update them concurrently, so neither side may take a lock.
#[derive(Debug, Default)]
pub(crate) struct SchedGauges {
    /// Jobs queued and waiting for a worker.
    pub(crate) queue_depth: AtomicU64,
    /// Jobs currently being evaluated by a worker.
    pub(crate) jobs_inflight: AtomicU64,
}

/// What one evaluation job produced.
#[derive(Debug)]
pub(crate) enum JobOutcome {
    /// The evaluation ran to completion (successfully or with an error).
    Done(Result<Vec<(String, ValuePayload)>, ServiceError>),
    /// The evaluation panicked; the payload is the rendered panic message.
    Panicked(String),
}

/// A finished job, keyed back to the connection that submitted it.
#[derive(Debug)]
pub(crate) struct Completion {
    /// The submitting connection's reactor token.
    pub(crate) token: u64,
    /// The job's outcome.
    pub(crate) outcome: JobOutcome,
}

/// One queued evaluation.
struct Job {
    /// The submitting connection's reactor token (echoed in the completion).
    token: u64,
    run: EvalRun,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    shutting_down: bool,
}

struct SchedShared {
    queue: Mutex<QueueState>,
    /// Signals workers: a job arrived or shutdown began.
    work: Condvar,
    completions: Mutex<VecDeque<Completion>>,
    gauges: Arc<SchedGauges>,
    /// Invoked once per queued completion, so the reactor can be woken.
    wake: Box<dyn Fn() + Send + Sync>,
}

/// The worker pool + queue handle owned by one reactor run. Dropping the
/// scheduler shuts the workers down after they drain the queue.
pub(crate) struct Scheduler {
    shared: Arc<SchedShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Scheduler {
    /// Spawns `workers` evaluation workers (at least one). `wake` is invoked
    /// after every completion is queued — the reactor passes a closure that
    /// writes one byte into its wake pipe.
    pub(crate) fn new(
        workers: usize,
        gauges: Arc<SchedGauges>,
        wake: Box<dyn Fn() + Send + Sync>,
    ) -> Self {
        let shared = Arc::new(SchedShared {
            queue: Mutex::new(QueueState::default()),
            work: Condvar::new(),
            completions: Mutex::new(VecDeque::new()),
            gauges,
            wake,
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self { shared, workers }
    }

    /// Queues one evaluation job for the connection `token`.
    pub(crate) fn submit(&self, token: u64, run: EvalRun) {
        let mut queue = self.shared.queue.lock().expect("scheduler queue poisoned");
        queue.jobs.push_back(Job { token, run });
        self.shared
            .gauges
            .queue_depth
            .store(queue.jobs.len() as u64, Ordering::Relaxed);
        drop(queue);
        self.shared.work.notify_one();
    }

    /// Drains every completion queued since the last call.
    pub(crate) fn drain_completions(&self) -> Vec<Completion> {
        let mut completions = self
            .shared
            .completions
            .lock()
            .expect("completion queue poisoned");
        completions.drain(..).collect()
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shared
            .queue
            .lock()
            .expect("scheduler queue poisoned")
            .shutting_down = true;
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            // worker_loop contains job panics, so a join error is
            // unreachable in practice; never propagate from a destructor.
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &SchedShared) {
    loop {
        let Job { token, run } = {
            let mut queue = shared.queue.lock().expect("scheduler queue poisoned");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    shared
                        .gauges
                        .queue_depth
                        .store(queue.jobs.len() as u64, Ordering::Relaxed);
                    shared.gauges.jobs_inflight.fetch_add(1, Ordering::Relaxed);
                    break job;
                }
                if queue.shutting_down {
                    return;
                }
                queue = shared.work.wait(queue).expect("scheduler queue poisoned");
            }
        };
        let outcome = match catch_unwind(AssertUnwindSafe(run)) {
            Ok(result) => JobOutcome::Done(result),
            Err(payload) => JobOutcome::Panicked(crate::server::panic_message(payload.as_ref())),
        };
        shared.gauges.jobs_inflight.fetch_sub(1, Ordering::Relaxed);
        shared
            .completions
            .lock()
            .expect("completion queue poisoned")
            .push_back(Completion { token, outcome });
        (shared.wake)();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    fn noop_wake() -> Box<dyn Fn() + Send + Sync> {
        Box::new(|| {})
    }

    fn noop_run() -> EvalRun {
        Box::new(|| Ok(Vec::new()))
    }

    /// A job that holds its worker until `gate` is set.
    fn gated_run(gate: &Arc<AtomicUsize>) -> EvalRun {
        let gate = Arc::clone(gate);
        Box::new(move || {
            while gate.load(Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(Vec::new())
        })
    }

    fn wait_for_completions(sched: &Scheduler, n: usize) -> Vec<Completion> {
        let mut all = Vec::new();
        for _ in 0..500 {
            all.extend(sched.drain_completions());
            if all.len() >= n {
                return all;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("only {} of {n} completions arrived", all.len());
    }

    #[test]
    fn jobs_complete_and_are_keyed_by_token() {
        let sched = Scheduler::new(2, Arc::default(), noop_wake());
        for t in 0..8 {
            sched.submit(t, noop_run());
        }
        let completions = wait_for_completions(&sched, 8);
        let mut tokens: Vec<u64> = completions.iter().map(|c| c.token).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_dispatch_in_submission_order() {
        // One worker, and the queue is pre-loaded while the worker is held
        // busy by a gate job — so dispatch order is purely the queue's.
        let order: Arc<Mutex<Vec<u64>>> = Arc::default();
        let gate: Arc<AtomicUsize> = Arc::default();
        let sched = Scheduler::new(1, Arc::default(), noop_wake());
        sched.submit(99, gated_run(&gate));
        for t in [1u64, 2, 3, 4] {
            let order = Arc::clone(&order);
            sched.submit(
                t,
                Box::new(move || {
                    order.lock().unwrap().push(t);
                    Ok(Vec::new())
                }),
            );
        }
        gate.store(1, Ordering::SeqCst);
        wait_for_completions(&sched, 5);
        assert_eq!(*order.lock().unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn a_budget_admits_as_many_evaluations_as_fit() {
        // Each job forecasts 60 of a 100-byte budget: 60 + 60 > 100, so
        // evaluations run one at a time.
        assert_eq!(eval_slots(Some(100), 60), 1);
        assert_eq!(eval_slots(Some(120), 60), 2);
    }

    #[test]
    fn an_over_budget_forecast_still_admits_one_evaluation() {
        // A forecast alone above the budget still runs when nothing else
        // does (the load-time gate owns that refusal).
        assert_eq!(eval_slots(Some(10), 1_000_000), 1);
    }

    #[test]
    fn no_budget_or_a_zero_forecast_is_unbounded() {
        assert_eq!(eval_slots(None, 60), usize::MAX);
        assert_eq!(eval_slots(Some(100), 0), usize::MAX);
    }

    #[test]
    fn panicking_jobs_are_contained_and_reported() {
        let sched = Scheduler::new(1, Arc::default(), noop_wake());
        sched.submit(5, Box::new(|| panic!("injected evaluation panic")));
        // The worker survives to run the next job.
        sched.submit(6, noop_run());
        let completions = wait_for_completions(&sched, 2);
        let panicked = completions.iter().find(|c| c.token == 5).unwrap();
        match &panicked.outcome {
            JobOutcome::Panicked(msg) => assert!(msg.contains("injected evaluation panic")),
            other => panic!("expected a panic outcome, got {other:?}"),
        }
        assert!(matches!(
            completions.iter().find(|c| c.token == 6).unwrap().outcome,
            JobOutcome::Done(Ok(_))
        ));
    }

    #[test]
    fn gauges_track_queue_depth_and_inflight() {
        let gauges: Arc<SchedGauges> = Arc::default();
        let gate: Arc<AtomicUsize> = Arc::default();
        let sched = Scheduler::new(1, Arc::clone(&gauges), noop_wake());
        sched.submit(1, gated_run(&gate));
        sched.submit(2, noop_run());
        sched.submit(3, noop_run());
        // One job running, two queued behind the single worker.
        for _ in 0..500 {
            if gauges.jobs_inflight.load(Ordering::Relaxed) == 1
                && gauges.queue_depth.load(Ordering::Relaxed) == 2
            {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(gauges.jobs_inflight.load(Ordering::Relaxed), 1);
        assert_eq!(gauges.queue_depth.load(Ordering::Relaxed), 2);
        gate.store(1, Ordering::SeqCst);
        wait_for_completions(&sched, 3);
        assert_eq!(gauges.jobs_inflight.load(Ordering::Relaxed), 0);
        assert_eq!(gauges.queue_depth.load(Ordering::Relaxed), 0);
    }
}
