//! A persistent worker pool for per-shard protocol work.
//!
//! [`ShardExecutor`] is created once per
//! [`crate::simulation::Simulation`] and reused for every parallel stage of
//! every round. A fault-free round without cross-shard traffic runs three
//! batches:
//!
//! * **intra consensus** — one task per committee, led by the next round's
//!   beacon, PoW admissions and VRF table (a recovery adds a retry batch of
//!   the committees it re-led);
//! * **selection** — the next round's VRF sortition, one task per group of
//!   eight proofs, each evaluated and the group checked as one batch;
//! * **block application** — one task per shard, the SMT commit included.
//!
//! Cross-shard traffic adds the inter phase's batch, one task per source
//! committee. Construction runs two batches before the first round: the
//! genesis draw's proof groups and the genesis UTXO sets, one task per
//! shard. Every batch returns its results in index order.
//!
//! # Determinism
//!
//! Tasks may run on any worker in any interleaving, but:
//!
//! * every task is a pure function of its explicitly captured inputs (each
//!   gets its own seed and hands back its own books), and
//! * [`ShardExecutor::execute`] returns results indexed by *submission order*,
//!   never completion order.
//!
//! Together these make round output byte-identical for any worker count,
//! which the determinism tests in `simulation.rs` assert for 1/2/8 workers —
//! and, through a test-only mode that runs every batch's tasks in a seeded
//! permuted order, for any order the tasks happen to run in.
//!
//! # Why the pool persists
//!
//! The workers are spawned once, with the executor, and park between
//! batches; the `unsafe` lifetime erasure of the scoped jobs is what that
//! costs. An executor without it was measured against this one: it spawned
//! `std::thread::scope` threads for each batch, the caller waited on the
//! scope, tasks were handed out in index order and a task's panic was
//! resumed on the caller. Over 10 alternated pairs of `benchmark/` runs a
//! workload (seeds 1–10, 2-vCPU container) its `round_wall_ms_p50` read
//! 18.37 → 21.36 ms on `local-8x16`, 20.79 → 23.57 ms on `xshard-8x16` and
//! 19.79 → 22.46 ms on `faulty-driven-8x16`, slower in 9, 9 and 10 of the
//! pairs, with `allocs_per_round` −0.1 %: a round runs three or four
//! batches, and spawning and joining the threads of each costs more than
//! waking parked ones.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;

/// A type-erased job shipped to a worker thread.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Counts outstanding tasks of one `execute` batch and wakes the submitter
/// when the last one finishes.
struct BatchLatch {
    remaining: Mutex<usize>,
    all_done: Condvar,
}

impl BatchLatch {
    fn new(count: usize) -> Self {
        BatchLatch {
            remaining: Mutex::new(count),
            all_done: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut remaining = self.remaining.lock().expect("latch poisoned");
        *remaining -= 1;
        if *remaining == 0 {
            self.all_done.notify_all();
        }
    }

    fn wait(&self) {
        let mut remaining = self.remaining.lock().expect("latch poisoned");
        while *remaining > 0 {
            remaining = self.all_done.wait(remaining).expect("latch poisoned");
        }
    }
}

/// A persistent pool of worker threads executing borrowed, indexed task
/// batches with deterministic result order.
pub struct ShardExecutor {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    worker_count: usize,
    batches_executed: AtomicUsize,
    /// Seed of the order a batch's tasks are handed out in (`None`: index
    /// order). Test-only: see [`ShardExecutor::permute_batches`].
    #[cfg(test)]
    permutation: Option<u64>,
}

impl ShardExecutor {
    /// Creates the pool. `worker_threads == 0` sizes the pool from the
    /// machine's available parallelism; `worker_threads == 1` runs every batch
    /// inline on the caller thread (no workers are spawned).
    pub fn new(worker_threads: usize) -> Self {
        let worker_count = if worker_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            worker_threads
        };
        if worker_count <= 1 {
            return ShardExecutor {
                sender: None,
                workers: Vec::new(),
                worker_count: 1,
                batches_executed: AtomicUsize::new(0),
                #[cfg(test)]
                permutation: None,
            };
        }
        let (sender, receiver) = channel::<Job>();
        let receiver = std::sync::Arc::new(Mutex::new(receiver));
        let workers = (0..worker_count)
            .map(|i| {
                let receiver = std::sync::Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("cycledger-shard-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only while popping; run the job outside.
                        let job = {
                            let guard = receiver.lock().expect("job queue poisoned");
                            guard.recv()
                        };
                        match job {
                            Ok(job) => job(),
                            Err(_) => break, // Sender dropped: shut down.
                        }
                    })
                    .expect("spawning a shard worker")
            })
            .collect();
        ShardExecutor {
            sender: Some(sender),
            workers,
            worker_count,
            batches_executed: AtomicUsize::new(0),
            #[cfg(test)]
            permutation: None,
        }
    }

    /// Number of worker threads the pool sized itself to (1 for inline mode).
    pub fn worker_count(&self) -> usize {
        self.worker_count
    }

    /// Number of batches that ran at least one task so far, inline ones
    /// included (a batch with no task is no barrier and is not counted).
    pub fn batches_executed(&self) -> usize {
        self.batches_executed.load(Ordering::Relaxed)
    }

    /// Hands every later batch's tasks out in an order drawn from `seed`
    /// and the batch's number instead of index order; results still come
    /// back by index. A round whose output depends on the order its tasks
    /// run in fails the determinism tests under this mode.
    #[cfg(test)]
    pub(crate) fn permute_batches(&mut self, seed: u64) {
        self.permutation = Some(seed);
    }

    /// Runs a batch of tasks, returning their results in submission order.
    ///
    /// Tasks may borrow from the caller's stack (`'env`): `execute` does not
    /// return until every task has finished, so the borrows remain valid for
    /// the tasks' whole lifetime — the same contract `std::thread::scope`
    /// offers, amortised over a persistent pool. A panicking task poisons
    /// nothing: the panic is caught on the worker, carried back, and resumed
    /// on the caller thread after the batch completes.
    pub fn execute<'env, T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        if tasks.is_empty() {
            return Vec::new();
        }
        self.batches_executed.fetch_add(1, Ordering::Relaxed);
        #[cfg(test)]
        if let Some(seed) = self.permutation {
            return self.run_permuted(tasks, seed ^ self.batches_executed() as u64);
        }
        self.run(tasks)
    }

    /// [`execute`](Self::execute) with `lead` as the batch's first task,
    /// ahead of `tasks`: one barrier, and the lead's result beside the
    /// others'. The lead goes first so the longest piece of a batch never
    /// starts last.
    pub fn execute_led<'env, A, T, L, F>(
        &self,
        lead: L,
        tasks: impl IntoIterator<Item = F>,
    ) -> (A, Vec<T>)
    where
        A: Send + 'env,
        T: Send + 'env,
        L: FnOnce() -> A + Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        enum Job<L, F> {
            Lead(L),
            Task(F),
        }
        enum Done<A, T> {
            Lead(A),
            Task(T),
        }
        let jobs = std::iter::once(Job::Lead(lead)).chain(tasks.into_iter().map(Job::Task));
        let jobs: Vec<_> = jobs
            .map(|job| {
                move || match job {
                    Job::Lead(lead) => Done::Lead(lead()),
                    Job::Task(task) => Done::Task(task()),
                }
            })
            .collect();
        let mut done = self.execute(jobs).into_iter();
        let Some(Done::Lead(led)) = done.next() else {
            unreachable!("the lead is submitted first")
        };
        let results = done.map(|result| match result {
            Done::Task(result) => result,
            Done::Lead(_) => unreachable!("one lead per batch"),
        });
        (led, results.collect())
    }

    /// Runs a non-empty batch, results in submission order.
    fn run<'env, T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let task_count = tasks.len();
        let sender = match &self.sender {
            Some(sender) if task_count > 1 => sender,
            _ => {
                // Inline mode (single worker, singleton batch, or no pool).
                return tasks.into_iter().map(|task| task()).collect();
            }
        };

        // One result slot per task, written exactly once by the worker that
        // runs the task — index-addressed, so no ordering is ever lost.
        let slots: Vec<Mutex<Option<std::thread::Result<T>>>> =
            (0..task_count).map(|_| Mutex::new(None)).collect();
        let latch = BatchLatch::new(task_count);

        {
            /// Erases the job's borrow lifetime so it can cross the `'static`
            /// channel into the persistent workers.
            ///
            /// # Safety
            /// The caller must not let any borrow captured by `job` end
            /// before the job has finished running.
            unsafe fn erase<'a>(job: Box<dyn FnOnce() + Send + 'a>) -> Job {
                std::mem::transmute(job)
            }

            let slots = &slots;
            let latch = &latch;
            for (index, task) in tasks.into_iter().enumerate() {
                let job = Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(task));
                    *slots[index].lock().expect("result slot poisoned") = Some(result);
                    latch.count_down();
                });
                // SAFETY: the job borrows `slots`, `latch`, and whatever the
                // caller's tasks borrow ('env). `execute` blocks on the latch
                // until every job has run to completion before any of those
                // borrows go out of scope, and the jobs hold no references
                // afterwards — exactly the guarantee a scoped spawn provides.
                let job: Job = unsafe { erase(job) };
                if sender.send(job).is_err() {
                    // Workers are gone (shutdown race): account for the task
                    // so the latch cannot deadlock. The send only fails after
                    // `Drop`, so this is unreachable in normal operation.
                    latch.count_down();
                }
            }
            latch.wait();
        }

        let mut results = Vec::with_capacity(task_count);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for slot in slots {
            match slot.into_inner().expect("result slot poisoned") {
                Some(Ok(value)) => results.push(value),
                Some(Err(payload)) => panic = Some(payload),
                None => panic!("shard executor lost a task result"),
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        results
    }

    /// [`run`](Self::run) with the tasks handed out in an order drawn from
    /// `seed` (a Fisher-Yates shuffle under splitmix64), their results put
    /// back in index order.
    #[cfg(test)]
    fn run_permuted<'env, T, F>(&self, tasks: Vec<F>, mut seed: u64) -> Vec<T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let mut tasks: Vec<(usize, F)> = tasks.into_iter().enumerate().collect();
        for i in (1..tasks.len()).rev() {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            tasks.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
        }
        let permuted = tasks.into_iter().map(|(i, task)| move || (i, task()));
        let mut results = self.run(permuted.collect());
        results.sort_unstable_by_key(|&(i, _)| i);
        results.into_iter().map(|(_, result)| result).collect()
    }
}

impl Drop for ShardExecutor {
    fn drop(&mut self) {
        // Closing the channel makes every worker's `recv` fail and exit.
        self.sender.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for ShardExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardExecutor")
            .field("worker_count", &self.worker_count)
            .field("batches_executed", &self.batches_executed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        for workers in [1, 2, 8] {
            let executor = ShardExecutor::new(workers);
            let inputs: Vec<usize> = (0..32).collect();
            let tasks: Vec<_> = inputs
                .iter()
                .map(|&i| {
                    move || {
                        // Vary per-task runtime to shake up completion order.
                        if i % 3 == 0 {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                        i * 10
                    }
                })
                .collect();
            let results = executor.execute(tasks);
            assert_eq!(results, (0..32).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn tasks_can_borrow_caller_state() {
        let executor = ShardExecutor::new(4);
        let data: Vec<Vec<u64>> = (0..8).map(|i| vec![i; 100]).collect();
        let tasks: Vec<_> = data
            .iter()
            .map(|row| move || row.iter().sum::<u64>())
            .collect();
        let sums = executor.execute(tasks);
        assert_eq!(sums, (0..8).map(|i| i * 100).collect::<Vec<u64>>());
    }

    #[test]
    fn tasks_can_mutate_disjoint_borrows() {
        let executor = ShardExecutor::new(4);
        let mut shards: Vec<u64> = vec![0; 16];
        let tasks: Vec<_> = shards
            .iter_mut()
            .enumerate()
            .map(|(i, shard)| move || *shard = i as u64 + 1)
            .collect();
        let _: Vec<()> = executor.execute(tasks);
        assert_eq!(shards, (1..=16).collect::<Vec<u64>>());
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let executor = ShardExecutor::new(3);
        for round in 0..20u64 {
            let tasks: Vec<_> = (0..5).map(|i| move || round * 100 + i).collect();
            let results = executor.execute(tasks);
            assert_eq!(results, (0..5).map(|i| round * 100 + i).collect::<Vec<_>>());
        }
        assert_eq!(executor.batches_executed(), 20);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        for workers in [1, 2] {
            let executor = ShardExecutor::new(workers);
            let results: Vec<u8> = executor.execute(Vec::<fn() -> u8>::new());
            assert!(results.is_empty());
            assert_eq!(executor.batches_executed(), 0, "no task, no barrier");
            // An inline batch is a batch all the same.
            assert_eq!(executor.execute(vec![|| 1u8]), [1]);
            assert_eq!(executor.batches_executed(), 1);
        }
    }

    #[test]
    fn a_led_batch_is_one_batch_with_the_lead_beside_the_results() {
        for workers in [1, 2, 8] {
            let executor = ShardExecutor::new(workers);
            let tasks = (0..9u64).map(|i| move || i * 3);
            let (led, results) = executor.execute_led(|| "lead", tasks);
            assert_eq!(led, "lead");
            assert_eq!(results, (0..9).map(|i| i * 3).collect::<Vec<_>>());
            // A lead alone still runs, and is a batch of its own.
            let (led, none) = executor.execute_led(|| 7, Vec::<fn() -> u8>::new());
            assert_eq!((led, none.len()), (7, 0));
            assert_eq!(executor.batches_executed(), 2, "{workers} workers");
        }
    }

    #[test]
    fn a_permuted_batch_runs_out_of_order_and_returns_by_index() {
        for workers in [1, 2, 8] {
            let mut executor = ShardExecutor::new(workers);
            executor.permute_batches(5);
            let started = Mutex::new(Vec::new());
            let started_ref = &started;
            let tasks: Vec<_> = (0..32usize)
                .map(|i| {
                    move || {
                        started_ref.lock().unwrap().push(i);
                        i * 10
                    }
                })
                .collect();
            let results = executor.execute(tasks);
            assert_eq!(results, (0..32).map(|i| i * 10).collect::<Vec<_>>());
            let started = started.into_inner().unwrap();
            assert_eq!(started.len(), 32);
            if workers == 1 {
                // Inline: the start order is the permutation itself.
                assert_ne!(started, (0..32).collect::<Vec<_>>(), "not index order");
            }
        }
    }

    #[test]
    fn auto_sizing_uses_available_parallelism() {
        let executor = ShardExecutor::new(0);
        assert!(executor.worker_count() >= 1);
    }

    #[test]
    fn task_panics_propagate_after_the_batch_completes() {
        let executor = ShardExecutor::new(4);
        let finished = std::sync::atomic::AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..6)
                .map(|i| {
                    let finished = &finished;
                    let task: Box<dyn FnOnce() -> usize + Send> = Box::new(move || {
                        if i == 3 {
                            panic!("task 3 exploded");
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                        i
                    });
                    task
                })
                .collect();
            executor.execute(tasks)
        }));
        assert!(outcome.is_err(), "the panic must surface on the caller");
        assert_eq!(finished.load(Ordering::SeqCst), 5, "other tasks still ran");
        // The pool survives a panicking batch.
        let results = executor.execute(vec![|| 1, || 2]);
        assert_eq!(results, vec![1, 2]);
    }
}
