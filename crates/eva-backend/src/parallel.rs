//! The parallel executor (paper Section 6.1).
//!
//! The EVA executor schedules the DAG of FHE instructions asynchronously: a
//! node becomes *ready* once all of its parents have been computed, ready
//! nodes are executed by a pool of worker threads, and a node's value is
//! *retired* (its memory released) as soon as its last consumer has used it.
//! The original system uses the Galois parallel runtime; this reproduction
//! is a dependence-counting scheduler over scoped threads with the same two
//! properties: cross-kernel parallelism and memory reuse.
//!
//! # A key switch is scheduled as its pieces
//!
//! Key switches are most of the work and, left whole, the narrowest part of
//! the DAG: a rotation fan-out is one source feeding `k` rotations, a
//! relinearization sits alone on the critical path. But a switch at level
//! `l` is `l` independent digit lifts followed by one independent key apply
//! per rotation or relinearization, so the scheduler runs those, not the
//! switch. The [`Schedule`] groups the encrypted relinearizations and
//! non-zero rotations of one source into a **switch site** (a
//! [`SwitchSite`], often of one member);
//! the board keeps only each site's run. When the source's value lands,
//! the site's `l` **digit tasks** are queued; its members wait for the
//! decomposition instead of for the source, and when the last digit lands
//! they become ordinary ready nodes that apply their key to the shared
//! digits. The decomposition goes when its last member is
//! done, the source when its last consumer is — members included, so the
//! digits never outlive or outrun what they were lifted from.
//!
//! Workers take ready nodes before digit tasks, and digit tasks site by
//! site. A new decomposition (`l(l+1)·N·8` bytes) is therefore started only
//! by a worker that found no node to run, which means every decomposition
//! already resident has a job in flight on some other worker: at most one
//! per worker is ever resident. Each worker owns the [`KeySwitchScratch`]
//! its key applies use.
//!
//! All bookkeeping is one `Board` behind one mutex and one condition
//! variable; it knows nothing about threads, so tests drive it by hand
//! through the orders threads could produce. The calling thread is worker
//! zero, so [`EvaluationContext::execute_serial`] is a run at one thread:
//! the worker loop on the caller, no thread spawned. The board also keeps
//! the [`MemoryAudit`]: a value is counted when stored, before its parents
//! retire, and un-counted when retired; decomposition digits are not
//! counted.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

use eva_ckks::{KeySwitchDecomposition, KeySwitchScratch};
use eva_core::analysis::{Schedule, SwitchSite};
use eva_core::{CompiledProgram, EvaError, NodeId, NodeKind, Program};
use eva_poly::RnsPoly;

use crate::encrypted::{EvaluationContext, MemoryAudit, NodeValue};

/// The run of one of the schedule's switch sites (see the module docs).
struct Site {
    members_left: usize,
    /// The digits as they land, in any order.
    digits: Vec<Option<RnsPoly>>,
    /// All of them, from the last digit's landing to the last member's.
    decomposition: Option<Arc<KeySwitchDecomposition>>,
}

/// One piece of work, with the operands it reads.
enum Job {
    /// Execute node `id`; a switch-site member brings its site's digits.
    Node {
        id: NodeId,
        args: Vec<Arc<NodeValue>>,
        digits: Option<Arc<KeySwitchDecomposition>>,
    },
    /// Lift digit `digit` of `site`'s source.
    Digit {
        site: usize,
        digit: usize,
        source: Arc<NodeValue>,
    },
}

/// What a finished [`Job`] produced.
enum Done {
    Node(NodeId, NodeValue),
    Digit(usize, usize, RnsPoly),
}

/// What a completion retired; dropped after the board's lock is released.
#[derive(Default)]
struct Retired {
    values: Vec<Arc<NodeValue>>,
    digits: Option<Arc<KeySwitchDecomposition>>,
}

/// The running counts behind a [`MemoryAudit`]: what the board holds right
/// now, and the peak it has held.
#[derive(Default)]
struct Held {
    values: usize,
    ciphertexts: usize,
    bytes: usize,
    peak: MemoryAudit,
}

impl Held {
    fn add(&mut self, value: &NodeValue) {
        self.values += 1;
        self.ciphertexts += usize::from(matches!(value, NodeValue::Cipher(_)));
        self.bytes += value.memory_bytes();
        let peak = &mut self.peak;
        peak.peak_live_values = peak.peak_live_values.max(self.values);
        peak.peak_live_ciphertexts = peak.peak_live_ciphertexts.max(self.ciphertexts);
        peak.peak_bytes = peak.peak_bytes.max(self.bytes);
    }

    fn remove(&mut self, value: &NodeValue) {
        self.values -= 1;
        self.ciphertexts -= usize::from(matches!(value, NodeValue::Cipher(_)));
        self.bytes -= value.memory_bytes();
    }
}

/// The state of one execution: what is ready, what everything else waits
/// for, and the values computed so far.
struct Board<'a> {
    program: &'a Program,
    schedule: &'a Schedule,
    /// Ready nodes and ready digit tasks `(site, digit)`, both first in
    /// first out.
    nodes: VecDeque<NodeId>,
    digits: VecDeque<(usize, usize)>,
    /// Per node: parents not yet computed; a site member's one parent
    /// counts as computed when its site's decomposition is.
    pending: Vec<usize>,
    /// Per node: consumers (and program outputs) that have not used it yet.
    uses: Vec<usize>,
    unfinished: usize,
    values: Vec<Option<Arc<NodeValue>>>,
    /// Per site of the schedule, in its order.
    sites: Vec<Site>,
    held: Held,
    error: Option<EvaError>,
}

impl<'a> Board<'a> {
    fn new(program: &'a Program, schedule: &'a Schedule) -> Self {
        let site = |site: &SwitchSite| Site {
            members_left: site.members.len(),
            digits: Vec::new(),
            decomposition: None,
        };
        Board {
            program,
            schedule,
            nodes: VecDeque::new(),
            digits: VecDeque::new(),
            pending: schedule.parent_counts.clone(),
            uses: schedule.use_counts.clone(),
            unfinished: schedule.steps.len(),
            values: vec![None; program.len()],
            sites: schedule.sites.iter().map(site).collect(),
            held: Held::default(),
            error: None,
        }
    }

    fn finished(&self) -> bool {
        self.error.is_some() || self.unfinished == 0
    }

    fn fail(&mut self, err: EvaError) {
        self.error.get_or_insert(err);
    }

    /// The next job, if anything is ready. Nodes go first: a digit task
    /// starts or extends a resident decomposition, a node may finish one.
    fn take(&mut self) -> Option<Job> {
        if let Some(id) = self.nodes.pop_front() {
            let live = |&a: &NodeId| self.values[a].clone();
            let args = self
                .program
                .args(id)
                .iter()
                .map(live)
                .collect::<Option<_>>();
            return Some(Job::Node {
                id,
                args: args.expect("a parent's value is live until all of its uses retire"),
                digits: self.schedule.site_of[id].map(|site| {
                    let digits = self.sites[site].decomposition.clone();
                    digits.expect("a member waits for its site's decomposition")
                }),
            });
        }
        let (site, digit) = self.digits.pop_front()?;
        let source = self.values[self.schedule.sites[site].source].clone();
        Some(Job::Digit {
            site,
            digit,
            source: source.expect("a site's members keep its source live"),
        })
    }

    /// One dependence of `id` is satisfied; the last one makes it ready.
    fn release(&mut self, id: NodeId) {
        self.pending[id] -= 1;
        if self.pending[id] == 0 {
            self.nodes.push_back(id);
        }
    }

    /// Node `id` has produced `value`: stores and counts it, retires the
    /// parents — and the site decomposition — whose last use this was,
    /// releases its consumers and, if it is the source of a switch site,
    /// queues the site's digit tasks instead of releasing the members.
    fn node_done(&mut self, id: NodeId, value: NodeValue) -> Retired {
        let mut retired = Retired::default();
        let schedule = self.schedule;
        // A member's one argument is its site's source.
        let sourced = schedule.consumers[id]
            .iter()
            .find_map(|&child| schedule.site_of[child]);
        if let Some(site) = sourced {
            match &value {
                NodeValue::Cipher(ct) => {
                    self.sites[site].digits = vec![None; ct.level()];
                    self.digits
                        .extend((0..ct.level()).map(|digit| (site, digit)));
                }
                NodeValue::Plain(_) => self.fail(EvaError::Execution(format!(
                    "node {id} is relinearized or rotated encrypted but is a plaintext"
                ))),
            }
        }
        // A result coexists with its not-yet-retired parents for an
        // instant: the peak is sampled before the retirements.
        self.held.add(&value);
        self.values[id] = Some(Arc::new(value));
        // One retire per distinct parent, matching the use counts.
        let mut parents = self.program.args(id).to_vec();
        parents.sort_unstable();
        parents.dedup();
        for a in parents {
            self.uses[a] -= 1;
            if self.uses[a] == 0 {
                if let Some(value) = self.values[a].take() {
                    self.held.remove(&value);
                    retired.values.push(value);
                }
            }
        }
        if let Some(site) = schedule.site_of[id] {
            let site = &mut self.sites[site];
            site.members_left -= 1;
            if site.members_left == 0 {
                retired.digits = site.decomposition.take();
            }
        }
        for &child in &schedule.consumers[id] {
            if schedule.site_of[child].is_none() {
                self.release(child);
            }
        }
        self.unfinished -= 1;
        retired
    }

    /// Digit `digit` of `site` has been lifted; the last one to land
    /// completes the decomposition and releases the members.
    fn digit_done(&mut self, site: usize, digit: usize, lifted: RnsPoly) {
        let digits = &mut self.sites[site].digits;
        digits[digit] = Some(lifted);
        if digits.iter().all(Option::is_some) {
            let digits = digits.drain(..).flatten().collect();
            let decomposition = KeySwitchDecomposition::from_digits(digits);
            self.sites[site].decomposition = Some(Arc::new(decomposition));
            let schedule = self.schedule;
            for &member in &schedule.sites[site].members {
                self.release(member);
            }
        }
    }
}

/// The board, and where workers with nothing to do sleep.
struct Monitor<'a> {
    board: Mutex<Board<'a>>,
    wake: Condvar,
}

impl Monitor<'_> {
    /// Records what the calling worker has just finished and hands it its
    /// next job, sleeping until there is one. `None` once every node is done
    /// or one has failed.
    ///
    /// Jobs only appear here, under the lock, and whoever takes one while
    /// more are ready wakes one sleeper, who does the same: no job waits
    /// while a worker sleeps.
    fn next(&self, done: Option<Result<Done, EvaError>>) -> Option<Job> {
        let mut board = self
            .board
            .lock()
            .expect("no worker panics holding the board");
        let retired = match done {
            Some(Ok(Done::Node(id, value))) => board.node_done(id, value),
            Some(Ok(Done::Digit(site, digit, lifted))) => {
                board.digit_done(site, digit, lifted);
                Retired::default()
            }
            Some(Err(err)) => {
                board.fail(err);
                Retired::default()
            }
            None => Retired::default(),
        };
        let job = loop {
            if board.finished() {
                self.wake.notify_all();
                break None;
            }
            if let Some(job) = board.take() {
                if !board.nodes.is_empty() || !board.digits.is_empty() {
                    self.wake.notify_one();
                }
                break Some(job);
            }
            board = self
                .wake
                .wait(board)
                .expect("no worker panics holding the board");
        };
        // Free what was retired without holding the lock.
        drop(board);
        drop(retired);
        job
    }
}

impl Job {
    fn run(
        self,
        context: &EvaluationContext,
        program: &Program,
        scratch: &mut KeySwitchScratch,
    ) -> Result<Done, EvaError> {
        match self {
            Job::Node {
                id,
                args,
                digits: Some(digits),
            } => context
                .execute_switch_member(program, id, &args[0], &digits, scratch)
                .map(|value| Done::Node(id, value)),
            Job::Node {
                id,
                args,
                digits: None,
            } => {
                let args: Vec<&NodeValue> = args.iter().map(|a| &**a).collect();
                context
                    .execute_instruction(program, id, &args)
                    .map(|value| Done::Node(id, value))
            }
            Job::Digit {
                site,
                digit,
                source,
            } => context
                .key_switch_digit(&source, digit)
                .map(|lifted| Done::Digit(site, digit, lifted)),
        }
    }
}

fn worker(monitor: &Monitor<'_>, context: &EvaluationContext, program: &Program) {
    let mut scratch = KeySwitchScratch::default();
    let mut done = None;
    while let Some(job) = monitor.next(done.take()) {
        // A panicking kernel must still report in, or the others would wait
        // for its node forever; its message (a failed exact-scale check
        // names the node) becomes the run's error.
        let run = AssertUnwindSafe(|| job.run(context, program, &mut scratch));
        done = Some(catch_unwind(run).unwrap_or_else(|payload| {
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("no message");
            Err(EvaError::Execution(format!("a kernel panicked: {message}")))
        }));
    }
}

/// Executes a compiled program on `num_threads` workers, the calling thread
/// among them, retiring each value as soon as its last consumer has run.
///
/// # Errors
///
/// Returns [`EvaError`] if the program is cyclic or a live input is unbound,
/// and propagates node-execution errors from the CKKS backend.
pub fn execute_parallel(
    context: &EvaluationContext,
    compiled: &CompiledProgram,
    bindings: HashMap<NodeId, NodeValue>,
    num_threads: usize,
) -> Result<HashMap<NodeId, NodeValue>, EvaError> {
    run(context, compiled, bindings, num_threads).map(|(outputs, _)| outputs)
}

/// The executor: runs `compiled` on `threads` workers — the calling thread
/// is worker zero, the rest are scoped threads — and returns the outputs
/// with the board's [`MemoryAudit`].
pub(crate) fn run(
    context: &EvaluationContext,
    compiled: &CompiledProgram,
    mut bindings: HashMap<NodeId, NodeValue>,
    threads: usize,
) -> Result<(HashMap<NodeId, NodeValue>, MemoryAudit), EvaError> {
    let program = &compiled.program;
    // Only nodes that reach an output participate: dead branches are not
    // covered by the compiler's prime budget or exact-scale annotations.
    let schedule = Schedule::new(program, context.context().slot_count())?;
    let mut board = Board::new(program, &schedule);

    // Bound inputs and materialized constants complete immediately (no
    // worker runs yet, so this only fills the ready queues). Every
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
        board.node_done(id, value);
    }

    let monitor = Monitor {
        board: Mutex::new(board),
        wake: Condvar::new(),
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| worker(&monitor, context, program));
        }
        worker(&monitor, context, program);
    });
    let mut board = monitor
        .board
        .into_inner()
        .expect("no worker panics holding the board");
    if let Some(err) = board.error.take() {
        return Err(err);
    }

    let mut outputs = HashMap::new();
    for output in program.outputs() {
        let value = board.values[output.node]
            .as_deref()
            .cloned()
            .ok_or_else(|| EvaError::Execution(format!("output {:?} not computed", output.name)))?;
        outputs.insert(output.node, value);
    }
    Ok((outputs, board.held.peak))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encrypted::{run_encrypted, EncryptedContext};
    use crate::reference::run_reference;
    use eva_ckks::{Ciphertext, GaloisKeys};
    use eva_core::{compile, CompilerOptions, Opcode as Op, Program};
    use eva_poly::PolyForm;

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

    /// LeNet's shape in small: a convolution (a fan-out of eight rotations
    /// of the input, weighted and summed), a squaring activation (the
    /// compiler adds its relinearization) and a fully-connected layer (a
    /// rotate-and-add tree four rotations deep, each a site of one).
    fn lenet_shaped() -> CompiledProgram {
        let mut p = Program::new("lenet_shaped", 32);
        let x = p.input_cipher("x", 30);
        let w = p.input_vector("w", 20);
        let mut acc = p.instruction(Op::Multiply, &[x, w]);
        for step in 1..=8 {
            let rot = p.instruction(Op::RotateLeft(step), &[x]);
            let tap = p.instruction(Op::Multiply, &[rot, w]);
            acc = p.instruction(Op::Add, &[acc, tap]);
        }
        let mut sum = p.instruction(Op::Multiply, &[acc, acc]);
        for depth in 0..4 {
            let rot = p.instruction(Op::RotateLeft(1 << depth), &[sum]);
            sum = p.instruction(Op::Add, &[sum, rot]);
        }
        p.output("out", sum, 30);
        let mut compiled = compile(&p, &CompilerOptions::default()).unwrap();
        let ops = compiled.program.opcode_histogram();
        assert_eq!(ops["relinearize"], 1);
        // The compiler's primes stay NTT-friendly for any smaller power of
        // two; a small insecure ring keeps the thread sweep in milliseconds.
        compiled.parameters.degree = 1024;
        compiled.parameters.secure = false;
        compiled
    }

    fn lenet_shaped_inputs() -> HashMap<String, Vec<f64>> {
        let x = (0..32).map(|i| (i as f64) / 32.0 - 0.5).collect();
        let w = (0..32).map(|i| ((i % 5) as f64) / 4.0 - 0.5).collect();
        HashMap::from([("x".to_string(), x), ("w".to_string(), w)])
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

    #[test]
    fn thread_sweep_is_bit_identical_to_serial_on_a_lenet_shaped_program() {
        let compiled = lenet_shaped();
        let inputs = lenet_shaped_inputs();
        let mut ctx = EncryptedContext::setup(&compiled, Some(19)).unwrap();
        let bindings = ctx.encrypt_inputs(&compiled, &inputs).unwrap();
        let serial = ctx.execute_serial(&compiled, bindings.clone()).unwrap();
        let expected = run_reference(&compiled.program, &inputs).unwrap();
        let decrypted = ctx.decrypt_outputs(&compiled, &serial).unwrap();
        for (a, b) in decrypted["out"].iter().zip(&expected["out"]) {
            assert!((a - b).abs() < 1e-2, "serial vs reference: {a} vs {b}");
        }
        for threads in [1, 2, 3, 8] {
            let parallel =
                execute_parallel(ctx.evaluation(), &compiled, bindings.clone(), threads).unwrap();
            assert_eq!(parallel.len(), serial.len());
            for (node, value) in &serial {
                let (NodeValue::Cipher(s), NodeValue::Cipher(p)) = (value, &parallel[node]) else {
                    panic!("output {node} is not a ciphertext on both sides");
                };
                assert_eq!(s.polys(), p.polys(), "{threads} threads: output {node}");
                assert_eq!(s.scale_log2().to_bits(), p.scale_log2().to_bits());
            }
        }
    }

    #[test]
    fn a_failing_member_ends_the_run_with_its_error() {
        // The same program on a server that was sent no Galois keys: the
        // first rotation to apply one fails, and every worker must return.
        let compiled = lenet_shaped();
        let mut ctx = EncryptedContext::setup(&compiled, Some(23)).unwrap();
        let bindings = ctx
            .encrypt_inputs(&compiled, &lenet_shaped_inputs())
            .unwrap();
        let keyless =
            EvaluationContext::from_parts(ctx.context().clone(), None, GaloisKeys::default());
        for threads in [1, 3] {
            let err = execute_parallel(&keyless, &compiled, bindings.clone(), threads).unwrap_err();
            assert!(err.to_string().contains("Galois"), "{err}");
        }
    }

    /// A kernel panic reaches the caller as an error that keeps its
    /// message, on the calling thread as on a worker.
    #[cfg(debug_assertions)]
    #[test]
    fn a_failed_exact_scale_check_names_itself_serial_and_parallel() {
        let mut compiled = lenet_shaped();
        let squaring = (0..compiled.program.len())
            .find(|&id| {
                let args = compiled.program.args(id);
                compiled.program.opcode(id) == Some(Op::Multiply) && args[0] == args[1]
            })
            .expect("the activation squares");
        let nudged = compiled.program.node(squaring).scale_log2 + 0.5;
        compiled.program.set_scale_log2(squaring, nudged);
        let mut ctx = EncryptedContext::setup(&compiled, Some(29)).unwrap();
        let bindings = ctx
            .encrypt_inputs(&compiled, &lenet_shaped_inputs())
            .unwrap();
        let serial = ctx.execute_serial(&compiled, bindings.clone());
        let parallel = execute_parallel(ctx.evaluation(), &compiled, bindings, 2);
        for err in [serial.unwrap_err(), parallel.unwrap_err()] {
            let text = err.to_string();
            assert!(
                text.contains("deviates from the compiler's exact annotation"),
                "{text}"
            );
        }
    }

    // ---- the board, driven by hand --------------------------------------

    const FAKE_LEVEL: usize = 3;

    /// A stand-in value of the node's type: the board reads a value's kind
    /// and level and nothing else.
    fn fake_value(program: &Program, id: NodeId) -> NodeValue {
        if !program.node(id).ty.is_cipher() {
            return NodeValue::Plain(Vec::new());
        }
        let poly = RnsPoly::zero(4, FAKE_LEVEL, PolyForm::Ntt);
        NodeValue::Cipher(Ciphertext::from_parts(vec![poly; 2], 0.0, FAKE_LEVEL))
    }

    fn fake_digit() -> RnsPoly {
        RnsPoly::zero(4, FAKE_LEVEL + 1, PolyForm::Ntt)
    }

    fn seeded<'a>(program: &'a Program, schedule: &'a Schedule) -> Board<'a> {
        let mut board = Board::new(program, schedule);
        for step in &schedule.steps {
            if program.opcode(step.node).is_none() {
                board.node_done(step.node, fake_value(program, step.node));
            }
        }
        board
    }

    /// Sites whose digits occupy memory: being lifted, landed, or assembled.
    fn resident_sites(board: &Board<'_>, in_flight: &[Job]) -> usize {
        (0..board.sites.len())
            .filter(|&s| {
                let site = &board.sites[s];
                let lifting = |job: &Job| matches!(job, Job::Digit { site, .. } if *site == s);
                site.decomposition.is_some()
                    || site.digits.iter().any(Option::is_some)
                    || in_flight.iter().any(lifting)
            })
            .count()
    }

    /// Plays `workers` workers against the board in an order drawn from
    /// `seed` — who takes a job and who finishes one next is arbitrary, as
    /// it is between threads — checking after every event what must hold in
    /// every interleaving. `fail_at` makes that node's job fail.
    fn play(program: &Program, workers: usize, seed: u64, fail_at: Option<NodeId>) {
        let schedule = Schedule::new(program, 1 << 14).unwrap();
        let mut board = seeded(program, &schedule);
        let mut state = seed;
        let mut draw = move |below: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % below
        };
        let mut in_flight: Vec<Job> = Vec::new();
        let mut completions = vec![0usize; program.len()];
        let mut most_resident = 0;
        loop {
            // A worker only asks for work while the run is on (`next`).
            let ready = !board.nodes.is_empty() || !board.digits.is_empty();
            let can_take = ready && !board.finished() && in_flight.len() < workers;
            if !can_take && in_flight.is_empty() {
                break;
            }
            if can_take && (in_flight.is_empty() || draw(2) == 0) {
                in_flight.push(board.take().expect("something is ready"));
            } else {
                match in_flight.swap_remove(draw(in_flight.len())) {
                    Job::Node { id, .. } if fail_at == Some(id) => {
                        board.fail(EvaError::Execution(format!("node {id} failed")));
                    }
                    Job::Node { id, args, digits } => {
                        assert_eq!(args.len(), program.args(id).len());
                        assert_eq!(digits.is_some(), schedule.site_of[id].is_some());
                        completions[id] += 1;
                        let was_last = schedule.site_of[id]
                            .is_some_and(|site| board.sites[site].members_left == 1);
                        drop((args, digits));
                        let retired = board.node_done(id, fake_value(program, id));
                        assert_eq!(retired.digits.is_some(), was_last, "node {id}");
                        let freed = |v: &Arc<NodeValue>| Arc::strong_count(v) == 1;
                        assert!(retired.values.iter().all(freed), "node {id}");
                    }
                    Job::Digit { site, digit, .. } => board.digit_done(site, digit, fake_digit()),
                }
            }

            assert!(completions.iter().all(|&c| c <= 1), "a node ran twice");
            most_resident = most_resident.max(resident_sites(&board, &in_flight));
            for (site, run) in schedule.sites.iter().zip(&board.sites) {
                // The digits live exactly as long as a member needs them ...
                if run.members_left == 0 {
                    assert!(run.decomposition.is_none() && run.digits.is_empty());
                }
                // ... and the source as long as the digits and the members.
                let produced =
                    completions[site.source] == 1 || program.opcode(site.source).is_none();
                if produced && board.values[site.source].is_none() {
                    assert_eq!(run.members_left, 0, "source {} went early", site.source);
                }
            }
        }
        assert!(
            most_resident <= workers,
            "{most_resident} resident decompositions on {workers} workers"
        );
        if let Some(id) = fail_at {
            let err = board.error.expect("the failure is recorded");
            assert_eq!(
                err.to_string(),
                format!("execution error: node {id} failed")
            );
            return;
        }
        assert_eq!(board.unfinished, 0, "the run stalled");
        for step in &schedule.steps {
            let id = step.node;
            let ran = usize::from(program.opcode(id).is_some());
            assert_eq!(completions[id], ran, "node {id}");
            let is_output = program.outputs().iter().any(|o| o.node == id);
            assert_eq!(board.values[id].is_some(), is_output, "node {id}");
        }
    }

    /// Two fan-outs and a lone rotation over two sources, joined at the end.
    fn two_sources() -> Program {
        let mut p = Program::new("two_sources", 8);
        let x = p.input_cipher("x", 30);
        let y = p.input_cipher("y", 30);
        let mut sum = p.instruction(Op::Add, &[x, y]);
        for (source, steps) in [(x, 1..=3), (y, 1..=2), (sum, 4..=4)] {
            for step in steps {
                let rot = p.instruction(Op::RotateLeft(step), &[source]);
                sum = p.instruction(Op::Add, &[sum, rot]);
            }
        }
        p.output("out", sum, 30);
        p
    }

    #[test]
    fn every_interleaving_completes_each_node_once_and_bounds_the_digits() {
        let lenet = lenet_shaped().program;
        let two = two_sources();
        for seed in 0..200 {
            for workers in [1, 2, 3, 8] {
                play(&lenet, workers, seed, None);
                play(&two, workers, seed, None);
            }
        }
    }

    #[test]
    fn a_failure_stops_the_board_from_any_interleaving() {
        let two = two_sources();
        let schedule = Schedule::new(&two, 1 << 14).unwrap();
        let members: Vec<NodeId> = (0..two.len())
            .filter(|&id| schedule.site_of[id].is_some())
            .collect();
        assert_eq!(members.len(), 6);
        for seed in 0..50 {
            for &member in &members {
                play(&two, 2, seed, Some(member));
            }
        }
    }

    #[test]
    fn digits_land_in_any_order_and_two_sites_interleave() {
        let two = two_sources();
        let schedule = Schedule::new(&two, 1 << 14).unwrap();
        let mut board = seeded(&two, &schedule);
        // x = 0, y = 1, x + y = 2; x's fan-out is site 0, y's site 1.
        let (x, y) = (0, 1);
        let site_from = |source| schedule.sites.iter().position(|s| s.source == source);
        let (sx, sy) = (site_from(x).unwrap(), site_from(y).unwrap());
        assert_eq!(board.sites[sx].members_left, 3);
        assert_eq!(board.sites[sy].members_left, 2);

        // The one ready node goes before any digit; the digits follow site
        // by site.
        assert!(matches!(board.take(), Some(Job::Node { id: 2, .. })));
        let mut lifts = Vec::new();
        while let Some(Job::Digit { site, digit, .. }) = board.take() {
            lifts.push((site, digit));
        }
        let in_order: Vec<_> = [sx, sy]
            .into_iter()
            .flat_map(|s| (0..FAKE_LEVEL).map(move |d| (s, d)))
            .collect();
        assert_eq!(lifts, in_order);

        // They land interleaved and backwards: no member moves before its
        // own site's last digit, whatever the other site has.
        for digit in (1..FAKE_LEVEL).rev() {
            board.digit_done(sy, digit, fake_digit());
            board.digit_done(sx, digit, fake_digit());
        }
        assert!(board.nodes.is_empty());
        board.digit_done(sy, 0, fake_digit());
        assert_eq!(board.nodes.len(), 2, "y's two rotations");
        assert!(board.sites[sy].decomposition.is_some());
        assert!(board.sites[sx].decomposition.is_none());
        board.digit_done(sx, 0, fake_digit());
        assert_eq!(board.nodes.len(), 5);

        // y's members run; y (also read by x + y, still in flight) stays
        // until all three consumers are done, the digits go with the second
        // member.
        let members: Vec<NodeId> = board.nodes.iter().copied().take(2).collect();
        for (i, &member) in members.iter().enumerate() {
            let Some(Job::Node { id, digits, .. }) = board.take() else {
                panic!("a member is ready");
            };
            assert_eq!(id, member);
            assert!(digits.is_some());
            drop(digits);
            let retired = board.node_done(id, fake_value(&two, id));
            assert_eq!(retired.digits.is_some(), i == 1);
            assert!(retired.values.is_empty());
            assert!(board.values[y].is_some());
        }
        let retired = board.node_done(2, fake_value(&two, 2));
        assert_eq!(retired.values.len(), 1, "y retires; x has members to go");
        assert!(board.values[y].is_none() && board.values[x].is_some());
    }
}
