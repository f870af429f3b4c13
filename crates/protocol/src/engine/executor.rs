//! A persistent worker pool for per-shard protocol work.
//!
//! [`ShardExecutor`] is created once per
//! [`crate::simulation::Simulation`] and reused for every parallel stage of
//! every round: per-committee stages (intra- and inter-committee consensus,
//! recovery retries, score-list certification, block application) submit one
//! borrowed closure per committee, VRF sortition goes through
//! [`ShardExecutor::map_chunked`], its verification submits one closure per
//! group of proofs, and all receive the results in index order.
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
//! which the determinism tests in `simulation.rs` assert for 1/2/8 workers.

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
        }
    }

    /// Number of worker threads the pool sized itself to (1 for inline mode).
    pub fn worker_count(&self) -> usize {
        self.worker_count
    }

    /// Number of `execute` batches run so far (observability for tests).
    pub fn batches_executed(&self) -> usize {
        self.batches_executed.load(Ordering::Relaxed)
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
        self.batches_executed.fetch_add(1, Ordering::Relaxed);
        let task_count = tasks.len();
        if task_count == 0 {
            return Vec::new();
        }
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

    /// Maps a pure function over `items` as one [`execute`](Self::execute)
    /// batch of contiguous, index-ordered chunks and concatenates the chunk
    /// results, so `out[i] == f(&items[i])` whatever ran where.
    ///
    /// This is the batch shape for many small independent items (one VRF
    /// evaluation per node) where a task per item would
    /// drown in queue traffic. The chunk count derives from
    /// [`worker_count`](Self::worker_count): `CHUNKS_PER_WORKER` chunks per
    /// worker to even out stragglers, never more than one per item. In
    /// inline mode that is a single chunk, which `execute` runs on the
    /// caller thread — the serial loop, not a second code path.
    pub fn map_chunked<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        let chunks = if self.worker_count == 1 {
            1
        } else {
            self.worker_count * CHUNKS_PER_WORKER
        };
        // At least one item per chunk, so short inputs make fewer chunks.
        let chunk_len = items.len().div_ceil(chunks).max(1);
        let f = &f;
        let tasks: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| move || chunk.iter().map(f).collect::<Vec<T>>())
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for part in self.execute(tasks) {
            out.extend(part);
        }
        out
    }
}

/// Chunks per worker in [`ShardExecutor::map_chunked`]: enough that one slow
/// chunk cannot leave the other workers idle for long, few enough that the
/// per-job queue cost stays invisible next to ~200 µs items.
const CHUNKS_PER_WORKER: usize = 4;

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
        let executor = ShardExecutor::new(2);
        let results: Vec<u8> = executor.execute(Vec::<fn() -> u8>::new());
        assert!(results.is_empty());
    }

    #[test]
    fn auto_sizing_uses_available_parallelism() {
        let executor = ShardExecutor::new(0);
        assert!(executor.worker_count() >= 1);
    }

    #[test]
    fn map_chunked_keeps_index_order_at_any_width() {
        // 37 is prime: no chunk count divides it, so the last chunk is short.
        let items: Vec<u64> = (0..37).collect();
        let expected: Vec<u64> = items.iter().map(|i| i * i + 1).collect();
        for workers in [1, 2, 3, 8, 64] {
            let executor = ShardExecutor::new(workers);
            let mapped = executor.map_chunked(&items, |&i| {
                if i % 5 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                }
                i * i + 1
            });
            assert_eq!(mapped, expected, "{workers} workers");
            assert_eq!(executor.batches_executed(), 1, "one batch per map");
        }
    }

    #[test]
    fn map_chunked_handles_empty_and_tiny_inputs() {
        for workers in [1, 2, 8] {
            let executor = ShardExecutor::new(workers);
            let none: Vec<u8> = executor.map_chunked(&[] as &[u8], |&b| b);
            assert!(none.is_empty());
            // Fewer items than workers: one chunk per item, none empty.
            assert_eq!(executor.map_chunked(&[7u8], |&b| b + 1), vec![8]);
            assert_eq!(
                executor.map_chunked(&[1u8, 2, 3], |&b| b * 2),
                vec![2, 4, 6]
            );
        }
    }

    #[test]
    fn map_chunked_propagates_a_panicking_item() {
        for workers in [1, 4] {
            let executor = ShardExecutor::new(workers);
            let items: Vec<usize> = (0..20).collect();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                executor.map_chunked(&items, |&i| {
                    if i == 13 {
                        panic!("item 13 exploded");
                    }
                    i
                })
            }));
            assert!(outcome.is_err(), "{workers} workers");
            // The pool survives.
            assert_eq!(executor.map_chunked(&items, |&i| i), items);
        }
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
