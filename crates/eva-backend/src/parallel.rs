//! The parallel executor (paper Section 6.1).
//!
//! The EVA executor schedules the DAG of FHE instructions asynchronously: a
//! node becomes *ready* once all of its parents have been computed, ready
//! nodes are executed by a pool of worker threads, and a node's value is
//! *retired* (its memory released) as soon as its last consumer has used it.
//! The original system uses the Galois parallel runtime; this reproduction
//! uses a dependence-counting scheduler over crossbeam scoped threads with the
//! same two properties: cross-kernel parallelism and memory reuse.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crossbeam::queue::SegQueue;
use parking_lot::{Condvar, Mutex, RwLock};

use eva_core::analysis::Schedule;
use eva_core::{CompiledProgram, EvaError, NodeId, NodeKind};

use crate::encrypted::{EvaluationContext, NodeValue};

struct Shared<'a> {
    context: &'a EvaluationContext,
    program: &'a eva_core::Program,
    /// The lowered program: live consumers to notify, and the rotation
    /// fan-out groups executed hoisted by whichever worker claims one first.
    schedule: &'a Schedule,
    values: Vec<RwLock<Option<NodeValue>>>,
    pending_parents: Vec<AtomicUsize>,
    remaining_uses: Vec<AtomicUsize>,
    ready: SegQueue<NodeId>,
    remaining_nodes: AtomicUsize,
    error: Mutex<Option<EvaError>>,
    /// One claim flag per fan-out group: every member lands in the ready
    /// queue when the shared source completes, the first worker to pop any
    /// member CAS-claims the group and executes it whole, and later pops of
    /// the remaining members no-op.
    group_claimed: Vec<AtomicBool>,
    /// Guards the sleep/wake handshake: a worker only blocks on [`Shared::wake`]
    /// while holding this lock *after* re-checking the ready queue and the
    /// termination conditions, and every producer notifies while holding the
    /// same lock, so a wakeup can never slip between the check and the wait.
    wake_lock: Mutex<()>,
    wake: Condvar,
}

impl<'a> Shared<'a> {
    fn fail(&self, err: EvaError) {
        let mut slot = self.error.lock();
        if slot.is_none() {
            *slot = Some(err);
        }
        drop(slot);
        // Unblock everyone so the workers can observe the failure and exit.
        self.remaining_nodes.store(0, Ordering::SeqCst);
        let _guard = self.wake_lock.lock();
        self.wake.notify_all();
    }

    fn failed(&self) -> bool {
        self.error.lock().is_some()
    }

    /// Bookkeeping after `id`'s value has been stored: retire the parents
    /// whose last consumer this was, hand the value to its consumers, and
    /// count the node done.
    fn complete(&self, id: NodeId, parents: &[NodeId]) {
        for &a in parents {
            if self.remaining_uses[a].fetch_sub(1, Ordering::SeqCst) == 1 {
                *self.values[a].write() = None;
            }
        }
        for &child in &self.schedule.consumers[id] {
            if self.pending_parents[child].fetch_sub(1, Ordering::SeqCst) == 1 {
                self.ready.push(child);
                // Taking the wake lock orders this notification after any worker
                // that found the queue empty but has not yet gone to sleep.
                let _guard = self.wake_lock.lock();
                self.wake.notify_one();
            }
        }
        if self.remaining_nodes.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last node: rouse every sleeping worker so they can exit.
            let _guard = self.wake_lock.lock();
            self.wake.notify_all();
        }
    }
}

/// Executes a compiled program using `num_threads` worker threads, retiring
/// each value as soon as its last consumer has run.
///
/// # Errors
///
/// Returns [`EvaError`] if the program is cyclic or a live input is unbound,
/// and propagates node-execution errors from the CKKS backend.
pub fn execute_parallel(
    context: &EvaluationContext,
    compiled: &CompiledProgram,
    mut bindings: HashMap<NodeId, NodeValue>,
    num_threads: usize,
) -> Result<HashMap<NodeId, NodeValue>, EvaError> {
    let program = &compiled.program;
    // Only nodes that reach an output participate: dead branches are not
    // covered by the compiler's prime budget or exact-scale annotations.
    let schedule = Schedule::new(program)?;
    let counters = |counts: &[usize]| counts.iter().map(|&c| AtomicUsize::new(c)).collect();
    let shared = Shared {
        context,
        program,
        schedule: &schedule,
        values: (0..program.len()).map(|_| RwLock::new(None)).collect(),
        pending_parents: counters(&schedule.parent_counts),
        remaining_uses: counters(&schedule.use_counts),
        ready: SegQueue::new(),
        remaining_nodes: AtomicUsize::new(schedule.steps.len()),
        error: Mutex::new(None),
        group_claimed: (0..schedule.fanouts.len())
            .map(|_| AtomicBool::new(false))
            .collect(),
        wake_lock: Mutex::new(()),
        wake: Condvar::new(),
    };

    // Bound inputs and materialized constants complete immediately (no
    // worker runs yet, so this only fills the ready queue). Every
    // instruction has at least one parent, so all ready instructions are
    // discovered through these completions and the workers' own.
    for id in schedule.steps.iter().map(|step| step.node) {
        let value = match &program.node(id).kind {
            NodeKind::Input { name } => bindings.remove(&id).ok_or_else(|| {
                EvaError::Execution(format!("input node {id} ({name:?}) was not bound"))
            })?,
            NodeKind::Constant { value } => NodeValue::Plain(value.to_vector(program.vec_size())),
            NodeKind::Instruction { .. } => continue,
        };
        *shared.values[id].write() = Some(value);
        shared.complete(id, &[]);
    }

    crossbeam::thread::scope(|scope| {
        for _ in 0..num_threads.max(1) {
            scope.spawn(|_| worker(&shared));
        }
    })
    .map_err(|_| EvaError::Execution("a worker thread panicked".into()))?;

    if let Some(err) = shared.error.lock().take() {
        return Err(err);
    }

    let mut outputs = HashMap::new();
    for output in program.outputs() {
        let value = shared.values[output.node]
            .read()
            .clone()
            .ok_or_else(|| EvaError::Execution(format!("output {:?} not computed", output.name)))?;
        outputs.insert(output.node, value);
    }
    Ok(outputs)
}

/// Pops the next ready node, blocking on the condvar (no timeout polling)
/// until one appears or the execution terminates. Returns `None` on shutdown
/// (all nodes done or a failure was recorded).
fn next_ready(shared: &Shared<'_>) -> Option<NodeId> {
    // Fast path: check for shutdown and grab work without touching the lock.
    if shared.failed() || shared.remaining_nodes.load(Ordering::SeqCst) == 0 {
        let _guard = shared.wake_lock.lock();
        shared.wake.notify_all();
        return None;
    }
    if let Some(id) = shared.ready.pop() {
        return Some(id);
    }
    let mut guard = shared.wake_lock.lock();
    loop {
        if shared.failed() || shared.remaining_nodes.load(Ordering::SeqCst) == 0 {
            shared.wake.notify_all();
            return None;
        }
        // Re-check under the lock: a producer pushes and then notifies while
        // holding the lock, so either the pop below sees the node or the wait
        // below observes the notification.
        if let Some(id) = shared.ready.pop() {
            return Some(id);
        }
        shared.wake.wait(&mut guard);
    }
}

/// Executes one claimed rotation fan-out group hoisted and performs every
/// member's bookkeeping (value store, parent retire, child notification,
/// node-count decrement) on behalf of the workers that popped — or will
/// pop — the other members.
fn execute_group(shared: &Shared<'_>, g: usize) {
    let fanout = &shared.schedule.fanouts[g];
    let result = {
        let guard = shared.values[fanout.source].read();
        let source = guard
            .as_ref()
            .expect("fan-out source is live until every member retires it");
        shared
            .context
            .execute_rotation_group(shared.program, &fanout.members, source)
    };
    match result {
        Ok(results) => {
            for (&(member, _), value) in fanout.members.iter().zip(results) {
                *shared.values[member].write() = Some(value);
                // Each member retires its (shared) parent once, exactly as
                // the unhoisted path would.
                shared.complete(member, &[fanout.source]);
            }
        }
        Err(err) => shared.fail(err),
    }
}

fn worker(shared: &Shared<'_>) {
    loop {
        let Some(id) = next_ready(shared) else {
            return;
        };

        // Fan-out members are executed as a whole group by whichever worker
        // claims the group first; everyone else drops the node on the floor
        // (the owner does all of its bookkeeping).
        if let Some(g) = shared.schedule.group_of[id] {
            if !shared.group_claimed[g as usize].swap(true, Ordering::SeqCst) {
                execute_group(shared, g as usize);
            }
            continue;
        }

        // Gather argument values (shared read locks).
        let program = shared.program;
        let mut parents: Vec<NodeId> = program.args(id).to_vec();
        let guards: Vec<_> = parents.iter().map(|&a| shared.values[a].read()).collect();
        let arg_refs: Vec<&NodeValue> = guards
            .iter()
            .map(|g| {
                g.as_ref()
                    .expect("parent value is live until all uses retire")
            })
            .collect();
        let result = shared.context.execute_node(program, id, &arg_refs);
        drop(guards);

        match result {
            Ok(value) => {
                *shared.values[id].write() = Some(value);
                // One retire per distinct parent, matching the use counts.
                parents.sort_unstable();
                parents.dedup();
                shared.complete(id, &parents);
            }
            Err(err) => {
                shared.fail(err);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encrypted::{run_encrypted, EncryptedContext};
    use crate::reference::run_reference;
    use eva_core::{compile, CompilerOptions, Opcode as Op, Program};

    fn wide_program() -> Program {
        // Eight independent chains that rejoin at the end: a good shape for
        // exercising cross-kernel parallelism.
        let mut p = Program::new("wide", 8);
        let x = p.input_cipher("x", 30);
        let w = p.input_vector("w", 20);
        let mut partials = Vec::new();
        for i in 0..8 {
            let rot = p.instruction(Op::RotateLeft(i % 4), &[x]);
            let prod = p.instruction(Op::Multiply, &[rot, w]);
            partials.push(prod);
        }
        let mut acc = partials[0];
        for &part in &partials[1..] {
            acc = p.instruction(Op::Add, &[acc, part]);
        }
        p.output("out", acc, 30);
        p
    }

    #[test]
    fn parallel_matches_serial_and_reference() {
        let program = wide_program();
        let compiled = compile(&program, &CompilerOptions::default()).unwrap();
        let inputs: HashMap<String, Vec<f64>> = [
            (
                "x".to_string(),
                vec![0.5, -0.25, 1.0, 2.0, 0.125, -1.5, 0.75, 0.0],
            ),
            (
                "w".to_string(),
                vec![1.0, 2.0, -1.0, 0.5, 0.25, -2.0, 1.5, 3.0],
            ),
        ]
        .into_iter()
        .collect();
        let expected = run_reference(&compiled.program, &inputs).unwrap();
        let serial = run_encrypted(&compiled, &inputs).unwrap();

        let mut ctx = EncryptedContext::setup(&compiled, Some(7)).unwrap();
        let bindings = ctx.encrypt_inputs(&compiled, &inputs).unwrap();
        let values = execute_parallel(ctx.evaluation(), &compiled, bindings, 2).unwrap();
        let parallel = ctx.decrypt_outputs(&compiled, &values).unwrap();

        for ((a, b), c) in parallel["out"]
            .iter()
            .zip(&serial["out"])
            .zip(&expected["out"])
        {
            assert!((a - b).abs() < 1e-3, "parallel vs serial: {a} vs {b}");
            assert!((a - c).abs() < 1e-2, "parallel vs reference: {a} vs {c}");
        }
    }

    #[test]
    fn unbound_input_is_detected() {
        let program = wide_program();
        let compiled = compile(&program, &CompilerOptions::default()).unwrap();
        let ctx = EncryptedContext::setup(&compiled, Some(1)).unwrap();
        let result = execute_parallel(ctx.evaluation(), &compiled, HashMap::new(), 2);
        assert!(result.is_err());
    }
}
