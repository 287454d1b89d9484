//! The engine's executor pool.
//!
//! A [`ChipPool`] of `w` workers is the calling thread plus `w − 1`
//! persistent OS threads. The engine owns one with a worker per executor
//! and runs each forward pass as one task per executor ([`ChipPool::run`]
//! sends task `i` to worker `i` when the counts match, and runs task 0 on
//! the caller), so the executor threads live as long as the engine. They
//! are the engine's only threads: each simulated chip's kernels run
//! serially on the executor that steps it.
//!
//! The pool is std-only (mpsc channels plus a `Mutex`/`Condvar` latch):
//! the workspace vendors no concurrency crates.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// A type-erased unit of work shipped to a worker thread.
type Job = Box<dyn FnOnce() + Send>;

/// Completion latch for one [`ChipPool::run`] call: counts outstanding
/// tasks down to zero and carries the first panic payload, if any.
struct Latch {
    state: Mutex<LatchState>,
    cv: Condvar,
}

struct LatchState {
    remaining: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl Latch {
    fn new(remaining: usize) -> Latch {
        Latch { state: Mutex::new(LatchState { remaining, panic: None }), cv: Condvar::new() }
    }

    fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        s.remaining -= 1;
        if s.panic.is_none() {
            s.panic = panic;
        }
        if s.remaining == 0 {
            self.cv.notify_all();
        }
    }

    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while s.remaining > 0 {
            s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        s.panic.take()
    }
}

/// The engine's persistent executor threads.
///
/// [`ChipPool::run`] runs one share of the tasks on the calling thread and
/// blocks it until every task has finished, so tasks may borrow the
/// caller's stack — the scoped-pool pattern — while the other workers live
/// for the pool's lifetime (no per-pass thread spawns on the decode hot
/// path).
pub(crate) struct ChipPool {
    /// Workers 1.. (worker 0 is whichever thread calls `run`).
    senders: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl ChipPool {
    /// A pool of `workers` (`workers >= 1`): the calling thread of each
    /// [`ChipPool::run`], plus `workers − 1` spawned persistent threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or the OS refuses to spawn a thread.
    #[must_use]
    pub(crate) fn new(workers: usize) -> ChipPool {
        assert!(workers >= 1, "a chip pool needs at least one worker");
        let mut senders = Vec::with_capacity(workers - 1);
        let mut handles = Vec::with_capacity(workers - 1);
        for w in 1..workers {
            let (tx, rx) = channel::<Job>();
            let builder = std::thread::Builder::new().name(format!("esti-chip-worker-{w}"));
            let handle = match builder.spawn(move || {
                while let Ok(job) = rx.recv() {
                    job();
                }
            }) {
                Ok(h) => h,
                Err(e) => panic!("failed to spawn chip worker thread: {e}"),
            };
            senders.push(tx);
            handles.push(handle);
        }
        ChipPool { senders, handles }
    }

    /// Number of workers, the caller included: the engine's executor
    /// count.
    #[must_use]
    pub(crate) fn workers(&self) -> usize {
        self.senders.len() + 1
    }

    /// Runs `tasks` across the workers (round-robin: task `i` on worker
    /// `i mod workers`, worker 0 being the calling thread) and blocks until
    /// all of them have completed. Tasks may borrow from the caller's
    /// scope.
    ///
    /// # Panics
    ///
    /// If a task panics, the first payload is re-raised on the caller
    /// *after* every other task has finished — workers never hold borrows
    /// past this call.
    pub(crate) fn run<'scope>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        if tasks.is_empty() {
            return;
        }
        let workers = self.workers();
        let latch = Arc::new(Latch::new(tasks.len()));
        let mut lost_worker = false;
        let mut mine = Vec::with_capacity(tasks.len().div_ceil(workers));
        for (i, task) in tasks.into_iter().enumerate() {
            if i % workers == 0 {
                mine.push(task);
                continue;
            }
            if lost_worker {
                // Account for the undispatched task so `wait` terminates.
                latch.complete(None);
                continue;
            }
            let latch_t = Arc::clone(&latch);
            let wrapped: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(task));
                latch_t.complete(result.err());
            });
            // SAFETY: the job borrows only for 'scope; this call does not
            // return until the latch has counted every dispatched job
            // complete (including the lost-worker path below), so no worker
            // can touch the borrow after `run` returns. Erasing the
            // lifetime to ship the job through the 'static channel is the
            // standard scoped-pool argument.
            let job: Job = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(wrapped)
            };
            if let Err(e) = self.senders[i % workers - 1].send(job) {
                // The worker's receiver is gone (thread died). The failed
                // send hands the job back inside the error; dropping it
                // without running it means completing its latch slot here.
                drop(e);
                latch.complete(None);
                lost_worker = true;
            }
        }
        // Worker 0's share runs here, while the others run theirs.
        for task in mine {
            latch.complete(catch_unwind(AssertUnwindSafe(task)).err());
        }
        let panic = latch.wait();
        assert!(!lost_worker, "chip pool lost a worker thread");
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for ChipPool {
    fn drop(&mut self) {
        // Closing the channels ends each worker's recv loop.
        self.senders.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_executes_every_task_and_blocks_until_done() {
        let pool = ChipPool::new(3);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..10)
            .map(|_| {
                let c = &counter;
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(tasks);
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn pool_is_reusable_across_runs() {
        let pool = ChipPool::new(2);
        for round in 0..5 {
            let mut out = vec![0usize; 4];
            let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
            let mut rest = out.as_mut_slice();
            for i in 0..4 {
                let (cell, tail) = rest.split_at_mut(1);
                rest = tail;
                tasks.push(Box::new(move || cell[0] = round + i));
            }
            pool.run(tasks);
            assert_eq!(out, vec![round, round + 1, round + 2, round + 3]);
        }
    }

    #[test]
    fn panic_in_a_task_propagates_after_the_rest_finish() {
        let pool = ChipPool::new(2);
        let done = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let d = &done;
            pool.run(vec![
                Box::new(|| panic!("task boom")),
                Box::new(move || {
                    d.fetch_add(1, Ordering::SeqCst);
                }),
            ]);
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        assert_eq!(done.load(Ordering::SeqCst), 1, "healthy tasks still ran");
        // The pool survives a panicking task.
        let ok = AtomicUsize::new(0);
        let o = &ok;
        pool.run(vec![Box::new(move || {
            o.fetch_add(1, Ordering::SeqCst);
        })]);
        assert_eq!(ok.load(Ordering::SeqCst), 1);
    }
}
