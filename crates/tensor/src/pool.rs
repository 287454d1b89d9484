//! Deterministic intra-chip worker pool.
//!
//! A [`ChipPool`] of `w` workers is the calling thread plus `w − 1`
//! persistent OS threads. One *simulated chip* uses one to parallelize its
//! GEMM kernels: the runtime installs the chip's pool around the chip's
//! work ([`with_worker_pool`]); the kernel dispatchers in [`crate::ops`] and
//! [`crate::quant`] then split each matmul's **output rows** into disjoint
//! bands, one band per worker, the first on the calling thread.
//!
//! The same pool type also carries the chips themselves: the runtime's
//! engine owns one [`ChipPool`] with a worker per executor and runs each
//! forward pass as one task per executor ([`ChipPool::run`] sends task `i`
//! to worker `i` when the counts match, and runs task 0 on the caller), so
//! the executor threads live as long as the engine.
//!
//! # Determinism contract
//!
//! Row-banded partitioning never changes arithmetic: every output element
//! is computed by exactly one worker, running exactly the serial kernel on
//! its band — the same single chain of mul-then-add steps in strictly
//! ascending `k` order the serial path runs. Band boundaries only decide
//! *who* computes an element, never *how*, so results are bit-identical
//! for every worker count (including no pool at all). The conformance
//! suite asserts this for 1, 2, and N workers.
//!
//! The pool is std-only (mpsc channels plus a `Mutex`/`Condvar` latch):
//! the workspace vendors no concurrency crates.

use std::any::Any;
use std::cell::RefCell;
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

/// A persistent pool of worker threads owned by one simulated chip.
///
/// [`ChipPool::run`] runs one share of the tasks on the calling thread and
/// blocks it until every task has finished, so tasks may borrow the
/// caller's stack — the scoped-pool pattern — while the other workers live
/// for the pool's lifetime (no per-matmul thread spawns on the decode hot
/// path).
///
/// # Examples
///
/// ```
/// use esti_tensor::pool::ChipPool;
///
/// let pool = ChipPool::new(2);
/// let mut halves = [0u64, 0u64];
/// let (a, b) = halves.split_at_mut(1);
/// pool.run(vec![
///     Box::new(|| a[0] = (0..50u64).sum()),
///     Box::new(|| b[0] = (50..100u64).sum()),
/// ]);
/// assert_eq!(halves[0] + halves[1], (0..100u64).sum());
/// ```
pub struct ChipPool {
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
    pub fn new(workers: usize) -> ChipPool {
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

    /// Number of workers, the caller included — the row-band count kernels
    /// split over.
    #[must_use]
    pub fn workers(&self) -> usize {
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
    pub fn run<'scope>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
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

thread_local! {
    /// The pool the *current thread's* kernel calls parallelize over.
    static ACTIVE: RefCell<Option<Arc<ChipPool>>> = const { RefCell::new(None) };
}

/// Runs `f` with `pool` installed as the calling thread's active worker
/// pool; kernel dispatchers ([`crate::ops::matmul`] and the int8 GEMMs)
/// split their output rows across it for the duration. The previous
/// installation is restored on exit, panic or not. `None` forces the
/// serial path (useful to scope a region back to one thread).
pub fn with_worker_pool<R>(pool: Option<Arc<ChipPool>>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<ChipPool>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            ACTIVE.with(|a| *a.borrow_mut() = prev);
        }
    }
    let prev = ACTIVE.with(|a| a.borrow_mut().take());
    ACTIVE.with(|a| *a.borrow_mut() = pool);
    let _restore = Restore(prev);
    f()
}

/// The row-band count a kernel on this thread would split over (1 = no
/// pool installed — the serial path).
#[must_use]
pub fn active_workers() -> usize {
    ACTIVE.with(|a| a.borrow().as_ref().map_or(1, |p| p.workers()))
}

/// Multiply-accumulate ops below which a band is not worth a dispatch:
/// tiny decode-step matmuls stay serial rather than paying the latch.
const MIN_BAND_MACS: usize = 16 * 1024;

/// Splits the `m` output rows of a strided GEMM into disjoint bands — one
/// per active worker — and runs `body(r0, rows, band)` on each, where
/// `band` is the output sub-slice starting at row `r0`. With no pool
/// installed (or too little work) this is exactly one serial `body` call.
///
/// Each element of `out` is written by exactly one band, and `body` runs
/// the identical serial kernel on every band, so the result is
/// bit-identical at any worker count (see the module docs).
pub(crate) fn partition_rows<F>(m: usize, k: usize, n: usize, out: &mut [f32], o_stride: usize, body: F)
where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    let pool = ACTIVE.with(|a| a.borrow().clone());
    let workers = pool.as_ref().map_or(1, |p| p.workers());
    let max_bands = if k == 0 || n == 0 { 1 } else { (m * k * n / MIN_BAND_MACS).max(1) };
    let bands = workers.min(m.max(1)).min(max_bands);
    let Some(pool) = pool.filter(|_| bands > 1) else {
        body(0, m, out);
        return;
    };
    let per = m.div_ceil(bands);
    let body = &body;
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(bands);
    let mut rest = out;
    let mut r0 = 0;
    while r0 < m {
        let rows = per.min(m - r0);
        // A band owns rows [r0, r0 + rows); the final band keeps the
        // buffer's tail so a short last output row stays addressable.
        let take = if r0 + rows < m { rows * o_stride } else { rest.len() };
        let (band, tail) = rest.split_at_mut(take);
        rest = tail;
        tasks.push(Box::new(move || body(r0, rows, band)));
        r0 += rows;
    }
    pool.run(tasks);
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

    #[test]
    fn with_worker_pool_installs_and_restores() {
        assert_eq!(active_workers(), 1);
        let pool = Arc::new(ChipPool::new(4));
        with_worker_pool(Some(Arc::clone(&pool)), || {
            assert_eq!(active_workers(), 4);
            // Nested install shadows, then restores, the outer pool.
            with_worker_pool(None, || assert_eq!(active_workers(), 1));
            assert_eq!(active_workers(), 4);
        });
        assert_eq!(active_workers(), 1);
    }

    #[test]
    fn partition_rows_covers_every_row_exactly_once() {
        let pool = Arc::new(ChipPool::new(3));
        with_worker_pool(Some(pool), || {
            let (m, n) = (103, 40);
            // Enough work to clear the MIN_BAND_MACS cutoff.
            let k = 8;
            let mut out = vec![0.0f32; m * n];
            partition_rows(m, k, n, &mut out, n, |r0, rows, band| {
                for r in 0..rows {
                    for c in 0..n {
                        band[r * n + c] += (r0 + r) as f32;
                    }
                }
            });
            for r in 0..m {
                for c in 0..n {
                    assert_eq!(out[r * n + c], r as f32, "row {r} col {c}");
                }
            }
        });
    }

    #[test]
    fn partition_rows_serial_without_a_pool() {
        let mut out = vec![0.0f32; 6];
        let calls = AtomicUsize::new(0);
        partition_rows(3, 100, 2, &mut out, 2, |r0, rows, _band| {
            calls.fetch_add(1, Ordering::SeqCst);
            assert_eq!((r0, rows), (0, 3));
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }
}
