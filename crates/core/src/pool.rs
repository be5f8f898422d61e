//! Persistent worker pool with per-submission queues and round-robin
//! fairness — the only executor in boomflow.
//!
//! Every parallel phase drains through a [`WorkPool`]: a solo campaign
//! or sweep creates one sized by `--jobs` for the whole run, and the
//! campaign service (`boomflow serve`) shares one process-wide pool
//! across all admitted requests. Each submission gets its own queue and
//! the workers take one job from each non-empty queue in turn, so a
//! small campaign never starves behind a big one that was admitted
//! first. The pool's worker count therefore bounds every simulation
//! thread: batched lanes run one after another inside the task that
//! owns the batch, and no task ever submits to a pool, so nested
//! submissions cannot deadlock.
//!
//! Submissions are *scoped*: [`WorkPool::run_scoped`] accepts closures
//! borrowing the caller's stack and blocks until every task of the
//! submission has run (or been cancelled), which is what makes the
//! lifetime erasure inside sound. Task panics are caught and contained
//! to the task; the submission still completes.

use crate::sync::lock;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A type-erased, lifetime-erased task. Safety: see [`WorkPool::run_scoped`].
type Job = Box<dyn FnOnce() + Send>;

/// Completion tracker of one submission: queued-plus-running task count
/// and the condvar the submitter blocks on.
struct Done {
    remaining: Mutex<usize>,
    cv: Condvar,
}

impl Done {
    /// Marks one task finished (run, skipped, or dropped) and wakes the
    /// submitter when the submission is drained.
    fn complete_one(&self) {
        let mut g = lock(&self.remaining);
        *g -= 1;
        if *g == 0 {
            self.cv.notify_all();
        }
    }
}

/// One submission's pending jobs plus its completion tracker.
struct BatchSlot {
    jobs: VecDeque<Job>,
    done: Arc<Done>,
}

/// The pool's shared queue state: submissions in round-robin order.
struct Inner {
    batches: VecDeque<BatchSlot>,
    shutdown: bool,
}

/// Persistent worker pool. See the module docs.
pub struct WorkPool {
    inner: Arc<PoolShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

struct PoolShared {
    state: Mutex<Inner>,
    work_cv: Condvar,
    /// When set, queued-but-unstarted jobs are dropped (their
    /// submissions still complete) — the graceful-shutdown drain.
    cancelled: AtomicBool,
}

impl std::fmt::Debug for WorkPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkPool").field("workers", &lock(&self.workers).len()).finish()
    }
}

impl WorkPool {
    /// Spawns a pool of `workers` persistent threads (at least 1).
    pub fn new(workers: usize) -> WorkPool {
        let inner = Arc::new(PoolShared {
            state: Mutex::new(Inner { batches: VecDeque::new(), shutdown: false }),
            work_cv: Condvar::new(),
            cancelled: AtomicBool::new(false),
        });
        let workers = (1..=workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        WorkPool { inner, workers: Mutex::new(workers) }
    }

    /// Drops every queued-but-unstarted job across all submissions:
    /// running jobs finish, skipped jobs count as complete, and every
    /// blocked submitter returns. Used by the server's graceful
    /// shutdown — completed points are already journaled, so the
    /// skipped remainder is exactly what a resume re-simulates.
    pub fn cancel_pending(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
        let mut g = lock(&self.inner.state);
        for batch in &mut g.batches {
            while let Some(job) = batch.jobs.pop_front() {
                drop(job);
                batch.done.complete_one();
            }
        }
        g.batches.clear();
        self.inner.work_cv.notify_all();
    }

    /// Whether [`WorkPool::cancel_pending`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::SeqCst)
    }

    /// Runs every task on the pool and blocks until all of them have
    /// finished. Tasks may borrow from the caller's stack: the pool
    /// erases the closure lifetimes internally, which is sound because
    /// this call does not return until every erased closure has been
    /// consumed (run, or dropped by [`WorkPool::cancel_pending`]) — a
    /// task panic is caught per task and still counts as consumed.
    pub fn run_scoped<T: Send>(&self, tasks: Vec<T>, run: impl Fn(T) + Sync) {
        if tasks.is_empty() {
            return;
        }
        if self.is_cancelled() {
            // Late submission during shutdown: consume without running.
            return;
        }
        let run = &run;
        let done = Arc::new(Done { remaining: Mutex::new(tasks.len()), cv: Condvar::new() });
        let jobs: VecDeque<Job> = tasks
            .into_iter()
            .map(|t| {
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || run(t));
                // SAFETY: this call blocks below until `done.remaining`
                // reaches 0, and the count only reaches 0 once every job
                // has been consumed (executed or dropped). The borrows
                // captured by `job` — `run` and the task values — are
                // therefore live for as long as any erased closure
                // exists. The transmute only erases the lifetime; the
                // vtable and layout are unchanged.
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) }
            })
            .collect();
        {
            let mut g = lock(&self.inner.state);
            g.batches.push_back(BatchSlot { jobs, done: Arc::clone(&done) });
        }
        self.inner.work_cv.notify_all();

        let mut g = lock(&done.remaining);
        while *g > 0 {
            g = match done.cv.wait(g) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        drop(g);
        // Empty batch slots are garbage-collected by the workers; a slot
        // whose submission completed while the pool was idle is removed
        // here so it cannot accumulate.
        lock(&self.inner.state).batches.retain(|b| !b.jobs.is_empty());
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let mut g = lock(&shared.state);
        let (job, done) = 'find: loop {
            // Round-robin: take one job from the front batch, then
            // rotate that batch to the back so the next take serves the
            // next submission. Drained slots are dropped in passing.
            while let Some(mut batch) = g.batches.pop_front() {
                if let Some(job) = batch.jobs.pop_front() {
                    let done = Arc::clone(&batch.done);
                    if !batch.jobs.is_empty() {
                        g.batches.push_back(batch);
                    }
                    break 'find (job, done);
                }
            }
            if g.shutdown {
                return;
            }
            g = match shared.work_cv.wait(g) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        };
        drop(g);
        // A panicking task must never strand its submitter: contain the
        // panic and still count the job as complete.
        let _ = catch_unwind(AssertUnwindSafe(job));
        done.complete_one();
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        lock(&self.inner.state).shutdown = true;
        self.inner.work_cv.notify_all();
        for h in lock(&self.workers).drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scoped_tasks_all_run_exactly_once() {
        for workers in [1usize, 2, 3, 5, 32] {
            let pool = WorkPool::new(workers);
            for n in [1usize, 2, 7, 64, 97] {
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                pool.run_scoped((0..n).collect(), |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "workers={workers} n={n}: some task ran zero or multiple times"
                );
            }
        }
    }

    #[test]
    fn panicking_task_does_not_strand_submission() {
        let pool = WorkPool::new(2);
        let ok = AtomicUsize::new(0);
        pool.run_scoped((0..6).collect::<Vec<usize>>(), |i| {
            if i % 2 == 0 {
                panic!("task {i} dies");
            }
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn round_robin_interleaves_submissions() {
        // Two submissions of slow tasks on one worker: the completion
        // order must alternate between them rather than finishing all of
        // one first.
        let pool = Arc::new(WorkPool::new(1));
        let order = Arc::new(Mutex::new(Vec::<(u8, usize)>::new()));
        let mut handles = Vec::new();
        for tag in 0u8..2 {
            let pool = Arc::clone(&pool);
            let order = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                // Stagger the second submission so both are queued while
                // the worker drains.
                if tag == 1 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                pool.run_scoped((0..4).collect::<Vec<usize>>(), |i| {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    lock(&order).push((tag, i));
                });
            }));
        }
        for h in handles {
            h.join().expect("submitter");
        }
        let order = lock(&order).clone();
        assert_eq!(order.len(), 8);
        // Fairness: within the first half of completions, both
        // submissions must appear (a FIFO pool would finish all of tag 0
        // first).
        let first_half: Vec<u8> = order.iter().take(4).map(|&(t, _)| t).collect();
        assert!(
            first_half.contains(&0) && first_half.contains(&1),
            "round-robin must interleave submissions, got order {order:?}"
        );
    }

    #[test]
    fn cancel_pending_unblocks_submitters() {
        let pool = Arc::new(WorkPool::new(1));
        let gate = Arc::new(AtomicBool::new(false));
        let started = Arc::new(AtomicBool::new(false));
        let (p2, g2, s2) = (Arc::clone(&pool), Arc::clone(&gate), Arc::clone(&started));
        let slow = std::thread::spawn(move || {
            p2.run_scoped(vec![()], |()| {
                s2.store(true, Ordering::Release);
                while !g2.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            });
        });
        // The only worker must be blocked before the second submission
        // arrives, or it could take that submission first.
        while !started.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        // Queue a second submission behind the blocked worker, then
        // cancel: it must return without running its task.
        let (p3, ran) = (Arc::clone(&pool), Arc::new(AtomicUsize::new(0)));
        let ran2 = Arc::clone(&ran);
        let waiter = std::thread::spawn(move || {
            p3.run_scoped(vec![()], |()| {
                ran2.fetch_add(1, Ordering::Relaxed);
            });
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        pool.cancel_pending();
        waiter.join().expect("cancelled submitter returns");
        assert_eq!(ran.load(Ordering::Relaxed), 0, "cancelled job must not run");
        gate.store(true, Ordering::Release);
        slow.join().expect("blocked submitter returns");
    }
}
