//! A persistent work-stealing thread pool.
//!
//! The paper's runtime executes rule applications on "a parallel work
//! stealing scheduler" whose sequential/parallel switch-over points are
//! exposed to the autotuner (§5.2). This module is that scheduler's
//! equivalent: a lazily initialized global [`Pool`] of worker threads
//! fed through one shared `crossbeam`-style injector, with per-worker
//! deques that refill in batches and steal from each other when dry.
//!
//! Design points:
//!
//! * **Persistent workers.** Threads are spawned once (on first use)
//!   and parked between batches, replacing the fresh
//!   `crossbeam::thread::scope` spawns the old `parallel_map` paid on
//!   every call. The hardware thread count is queried once and cached.
//! * **One injector, one steal order.** A batch is split into
//!   contiguous chunks pushed onto a single global injector. An idle
//!   worker takes work from the injector first (batch-refilling its own
//!   deque), then steals from its peers' deques. The schedule decides
//!   only *where* a chunk runs, never *what* it computes: callers that
//!   merge results by task index are bit-identical to a sequential run.
//! * **Caller participation.** [`Pool::run_indexed`] blocks until the
//!   batch completes, but the calling thread executes queued tasks
//!   while it waits. This both uses the caller as an extra worker and
//!   makes nested batches (a pool task that itself calls
//!   `run_indexed`) deadlock-free: the inner caller drains work
//!   instead of sleeping while holding a worker slot.
//! * **Depth-aware admission.** A batch submitted from *inside* a pool
//!   task (nested `parallel_map` in a batched trial, say) runs inline
//!   on the submitting thread instead of re-enqueueing: the outer
//!   batch already occupies every worker, so re-splitting nested work
//!   only adds queue churn and oversubscription on small machines.
//! * **Panic propagation.** A panicking task aborts its batch's
//!   remaining tasks (best effort), and the panic payload is re-thrown
//!   on the calling thread once the batch has drained, mirroring the
//!   behaviour of scoped threads.
//!
//! The pool runs *tasks*, not futures: closures over an index range.
//! Data-parallel helpers ([`crate::parallel::parallel_map`]) are built
//! on top and keep the tunable `sequential_cutoff` semantics the
//! autotuner relies on.

#![deny(unsafe_op_in_unsafe_fn)]

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use pb_trace::{Event, EventKind};
use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

thread_local! {
    /// How many pool tasks are currently executing on this thread
    /// (a worker running a job, or a blocked submitter helping).
    /// Batches submitted at depth >= 1 run inline — see
    /// [`Pool::run_indexed`].
    static TASK_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Increments the thread's task depth for its lifetime (panic-safe:
/// the decrement runs during unwinding too, so a panicking task does
/// not poison the thread's depth).
struct DepthGuard;

impl DepthGuard {
    fn enter() -> DepthGuard {
        TASK_DEPTH.with(|d| d.set(d.get() + 1));
        DepthGuard
    }
}

impl Drop for DepthGuard {
    fn drop(&mut self) {
        TASK_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// How many pool tasks are executing on the current thread right now
/// (0 outside the pool). Exposed so schedulers and tests can observe
/// the depth-aware admission policy.
pub fn current_task_depth() -> usize {
    TASK_DEPTH.with(Cell::get)
}

/// One schedulable unit: a contiguous index range of some batch.
struct Job {
    /// The batch this job belongs to. Shared ownership, because the
    /// job that finishes a batch still signals its condvar after the
    /// submitter may have seen the count reach zero and returned.
    batch: Arc<BatchState>,
    start: usize,
    end: usize,
}

/// Shared bookkeeping for one `run_indexed` call.
struct BatchState {
    /// The task closure, as a raw wide pointer so `BatchState` can be
    /// stored behind `'static` jobs. Valid while the submitter blocks,
    /// which it does until every job has decremented `remaining`; a
    /// job dereferences it only before its decrement.
    task: *const (dyn Fn(usize) + Sync),
    /// Jobs not yet finished.
    remaining: AtomicUsize,
    /// Set by the first panicking job; later jobs in the batch
    /// early-exit instead of doing work whose result will be thrown
    /// away by the propagated panic.
    poisoned: AtomicBool,
    /// The first panic payload, re-thrown on the submitting thread.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Signals the submitter when `remaining` reaches zero.
    done_lock: Mutex<()>,
    done: Condvar,
    /// Trace sequence of the batch's `pool_batch` span, or 0 when the
    /// batch is untraced. Jobs key their `pool_job`/`pool_steal`
    /// events under it so the merged log nests them deterministically.
    trace_seq: u64,
}

// SAFETY: see the field docs — the task pointer is only dereferenced
// while the submitting thread (which owns the closure) blocks; every
// other field is `Sync`.
unsafe impl Send for BatchState {}
unsafe impl Sync for BatchState {}

impl BatchState {
    fn execute(&self, start: usize, end: usize) {
        if !self.poisoned.load(Ordering::Relaxed) {
            let job_start = if self.trace_seq != 0 {
                pb_trace::now_ns()
            } else {
                0
            };
            let _depth = DepthGuard::enter();
            // SAFETY: the submitter keeps the closure alive until the
            // batch completes (it blocks in `run_indexed`).
            let task = unsafe { &*self.task };
            let result = catch_unwind(AssertUnwindSafe(|| {
                for i in start..end {
                    if self.poisoned.load(Ordering::Relaxed) {
                        break;
                    }
                    task(i);
                }
            }));
            if let Err(payload) = result {
                self.poisoned.store(true, Ordering::Relaxed);
                let mut slot = self.panic.lock().expect("panic slot poisoned");
                slot.get_or_insert(payload);
            }
            if self.trace_seq != 0 {
                pb_trace::record(Event::span(
                    EventKind::PoolJob,
                    self.trace_seq,
                    start as u64,
                    job_start,
                    [start as u64, end as u64, 0, 0],
                ));
            }
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.done_lock.lock().expect("done lock poisoned");
            self.done.notify_all();
        }
    }
}

/// State shared between the pool handle and its worker threads.
struct Shared {
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    /// Sleeping workers wait here; submitters notify on new work.
    sleep_lock: Mutex<()>,
    wake: Condvar,
    /// Set by [`Pool::drop`]; workers exit once the queues drain.
    shutdown: AtomicBool,
}

impl Shared {
    /// Takes one job from anywhere: the injector first (refilling
    /// `local` in a batch when the thread has a deque), then the other
    /// workers' deques.
    fn find_job(&self, local: Option<&Worker<Job>>) -> Option<Job> {
        loop {
            let stolen = match local {
                Some(worker) => self.injector.steal_batch_and_pop(worker),
                None => self.injector.steal(),
            };
            match stolen {
                Steal::Success(job) => return Some(job),
                Steal::Retry => continue,
                Steal::Empty => break,
            }
        }
        for stealer in &self.stealers {
            if let Steal::Success(job) = stealer.steal() {
                let seq = job.batch.trace_seq;
                if seq != 0 {
                    pb_trace::record(Event::instant(
                        EventKind::PoolSteal,
                        seq,
                        job.start as u64,
                        [job.start as u64, job.end as u64, 0, 0],
                    ));
                }
                return Some(job);
            }
        }
        None
    }
}

/// Cumulative **top-level** batch counters for one pool: how many
/// batches were dispatched to the queues vs run inline, and how many
/// tasks they carried. Relaxed atomics, updated once per top-level
/// submission — batches submitted from *inside* a pool task (nested
/// parallelism running under the depth-aware admission policy) are
/// deliberately not counted, so worker threads never touch these
/// shared cache lines from their inner loops. Every field is a
/// counter, so a window of traffic is the difference of two snapshots
/// ([`PoolBatchStats::delta_since`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolBatchStats {
    /// Batches fanned out across the worker queues.
    pub dispatched: u64,
    /// Batches run inline on the submitting thread (nested submission,
    /// single-thread budget, or a single-task batch).
    pub inline: u64,
    /// Total tasks across all batches.
    pub tasks: u64,
}

impl PoolBatchStats {
    /// The traffic between an `earlier` snapshot of the same pool's
    /// stats and this one (field-wise difference).
    pub fn delta_since(&self, earlier: &PoolBatchStats) -> PoolBatchStats {
        PoolBatchStats {
            dispatched: self.dispatched.saturating_sub(earlier.dispatched),
            inline: self.inline.saturating_sub(earlier.inline),
            tasks: self.tasks.saturating_sub(earlier.tasks),
        }
    }

    /// Folds another delta into this one (field-wise sum).
    pub fn absorb(&mut self, other: &PoolBatchStats) {
        self.dispatched += other.dispatched;
        self.inline += other.inline;
        self.tasks += other.tasks;
    }
}

/// A work-stealing thread pool (see the module docs).
pub struct Pool {
    shared: Arc<Shared>,
    /// Cached hardware thread budget (including the calling thread).
    threads: usize,
    dispatched: AtomicU64,
    inline: AtomicU64,
    tasks: AtomicU64,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish()
    }
}

/// The environment variable overriding the global pool's thread count
/// (useful for determinism tests on small machines and for pinning CI).
pub const THREADS_ENV: &str = "PB_POOL_THREADS";

static GLOBAL: OnceLock<Pool> = OnceLock::new();

impl Pool {
    /// The lazily initialized process-wide pool.
    ///
    /// Sized to `std::thread::available_parallelism()` unless the
    /// `PB_POOL_THREADS` environment variable overrides it. The first
    /// caller fixes the size for the life of the process.
    pub fn global() -> &'static Pool {
        GLOBAL.get_or_init(|| {
            let threads = std::env::var(THREADS_ENV)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                });
            Pool::with_threads(threads)
        })
    }

    /// Creates a pool with an explicit thread budget of `threads`
    /// (counting the submitting thread: `threads - 1` workers are
    /// spawned, and `threads < 2` means "run everything inline").
    pub fn with_threads(threads: usize) -> Pool {
        let threads = threads.max(1);
        let workers: Vec<Worker<Job>> = (1..threads).map(|_| Worker::new_fifo()).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers: workers.iter().map(Worker::stealer).collect(),
            shutdown: AtomicBool::new(false),
            sleep_lock: Mutex::new(()),
            wake: Condvar::new(),
        });
        for worker in workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("pb-pool-worker".into())
                .spawn(move || worker_loop(&shared, worker))
                .expect("failed to spawn pool worker");
        }
        Pool {
            shared,
            threads,
            dispatched: AtomicU64::new(0),
            inline: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
        }
    }

    /// The pool's thread budget (cached; no syscall per query).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Cumulative batch counters since the pool was created.
    pub fn batch_stats(&self) -> PoolBatchStats {
        PoolBatchStats {
            dispatched: self.dispatched.load(Ordering::Relaxed),
            inline: self.inline.load(Ordering::Relaxed),
            tasks: self.tasks.load(Ordering::Relaxed),
        }
    }

    /// Counts one top-level batch of `count` tasks against the stats.
    /// Also called by [`crate::parallel::parallel_gen`] for top-level
    /// batches its cutoff short-circuits before they reach the pool,
    /// so the counters see all top-level batch traffic, not just what
    /// dispatched.
    pub(crate) fn count_batch(&self, count: usize, dispatched: bool) {
        if dispatched {
            self.dispatched.fetch_add(1, Ordering::Relaxed);
        } else {
            self.inline.fetch_add(1, Ordering::Relaxed);
        }
        self.tasks.fetch_add(count as u64, Ordering::Relaxed);
    }

    /// Runs `task(i)` for every `i` in `0..count` and blocks until all
    /// calls complete. Calls may run concurrently and in any order;
    /// the caller's thread participates.
    ///
    /// # Panics
    ///
    /// If any `task(i)` panics, the first panic payload is re-thrown
    /// here after the batch drains (remaining tasks are skipped on a
    /// best-effort basis).
    pub fn run_indexed<F>(&self, count: usize, task: F)
    where
        F: Fn(usize) + Sync,
    {
        if count == 0 {
            return;
        }
        // Depth-aware admission: a batch submitted from *inside* a pool
        // task runs inline on the submitting thread instead of
        // re-enqueueing. The outer batch has already fanned out across
        // the pool, so splitting nested batches again only adds queue
        // traffic and oversubscribes small machines; inline execution
        // keeps exactly one task per worker. (Results are unchanged —
        // `run_indexed` makes no ordering promises either way.)
        if current_task_depth() >= 1 {
            // Not counted in the batch stats: nested submissions come
            // from worker inner loops, where shared-atomic updates
            // would ping-pong cache lines across the pool.
            // Inline execution still counts as running pool tasks, so
            // further nesting observes (and keeps) the right depth.
            let _depth = DepthGuard::enter();
            for i in 0..count {
                task(i);
            }
            return;
        }
        let tracing = pb_trace::enabled();
        let (trace_seq, batch_start) = if tracing {
            (pb_trace::next_seq(), pb_trace::now_ns())
        } else {
            (0, 0)
        };
        // Top-level degenerate batches run inline *without* marking
        // task depth: their tasks occupy no worker, so parallelism
        // nested inside them should still fan out across the idle pool.
        if self.threads < 2 || count == 1 {
            self.count_batch(count, false);
            for i in 0..count {
                task(i);
            }
            if tracing {
                pb_trace::record(Event::span(
                    EventKind::PoolBatch,
                    trace_seq,
                    0,
                    batch_start,
                    [count as u64, 1, 0, 0],
                ));
            }
            return;
        }
        self.count_batch(count, true);

        // Split into more chunks than threads so idle workers can
        // steal from long-running ones.
        let chunks = count.min(self.threads * 4);
        let chunk_len = count.div_ceil(chunks);
        let chunks = count.div_ceil(chunk_len);

        let task_obj: &(dyn Fn(usize) + Sync) = &task;
        // SAFETY: the transmute only erases the wide reference's
        // lifetime so jobs can carry it through the 'static queues
        // (same pointee type, same vtable). Sound because this
        // function does not return until every job of the batch has
        // executed, so the borrow outlives every dereference.
        let task_ptr: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task_obj) };
        let state = Arc::new(BatchState {
            task: task_ptr,
            remaining: AtomicUsize::new(chunks),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            done_lock: Mutex::new(()),
            done: Condvar::new(),
            trace_seq,
        });

        let mut start = 0;
        while start < count {
            let end = (start + chunk_len).min(count);
            self.shared.injector.push(Job {
                batch: Arc::clone(&state),
                start,
                end,
            });
            start = end;
        }
        {
            let _guard = self.shared.sleep_lock.lock().expect("sleep lock poisoned");
            self.shared.wake.notify_all();
        }

        // Help: execute queued jobs (ours or anyone's) while waiting.
        while state.remaining.load(Ordering::Acquire) != 0 {
            match self.shared.find_job(None) {
                Some(job) => job.batch.execute(job.start, job.end),
                None => {
                    let guard = self.shared.sleep_lock.lock().expect("sleep lock poisoned");
                    // Re-check under the lock: a worker may have
                    // finished the last job before we locked.
                    if state.remaining.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    drop(guard);
                    let guard = state.done_lock.lock().expect("done lock poisoned");
                    if state.remaining.load(Ordering::Acquire) != 0 {
                        // Timed wait: our remaining jobs might be
                        // *queued* (not running) if workers raced to
                        // sleep; wake up periodically to help.
                        let _ = state
                            .done
                            .wait_timeout(guard, Duration::from_millis(1))
                            .expect("done condvar poisoned");
                    }
                }
            }
        }

        if tracing {
            pb_trace::record(Event::span(
                EventKind::PoolBatch,
                trace_seq,
                0,
                batch_start,
                [count as u64, chunks as u64, 1, 0],
            ));
        }

        let payload = state.panic.lock().expect("panic slot poisoned").take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    /// Signals workers to drain and exit, so non-global pools (tests,
    /// ad-hoc instances) do not leak threads. The process-wide pool
    /// from [`Pool::global`] lives in a static and is never dropped.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        let _guard = self.shared.sleep_lock.lock().expect("sleep lock poisoned");
        self.shared.wake.notify_all();
    }
}

fn worker_loop(shared: &Shared, local: Worker<Job>) {
    loop {
        if let Some(job) = local.pop().or_else(|| shared.find_job(Some(&local))) {
            job.batch.execute(job.start, job.end);
            continue;
        }
        // Drain-then-exit: only stop once no work is reachable, so a
        // dropped pool still completes any in-flight batch.
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let guard = shared.sleep_lock.lock().expect("sleep lock poisoned");
        if shared.injector.is_empty() {
            // Timed wait so a notify racing ahead of this lock cannot
            // strand a worker while jobs sit queued.
            let _ = shared
                .wake
                .wait_timeout(guard, Duration::from_millis(10))
                .expect("wake condvar poisoned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::thread::ThreadId;

    #[test]
    fn runs_every_index_exactly_once() {
        let pool = Pool::with_threads(4);
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        pool.run_indexed(1000, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn many_small_batches_complete() {
        // The job that finishes a batch often runs on a worker just as
        // the submitter sees the batch drained and returns; its
        // completion signal must not touch the submitter's stack. A
        // plain run passes either way; under AddressSanitizer
        // (`RUSTFLAGS=-Zsanitizer=address cargo +nightly test
        // --target x86_64-unknown-linux-gnu`, with
        // `ASAN_OPTIONS=detect_stack_use_after_return=1`) a regression
        // reports a stack-use-after-return here.
        let pool = Pool::with_threads(3);
        let count = AtomicU64::new(0);
        for _ in 0..20_000 {
            pool.run_indexed(6, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(count.load(Ordering::Relaxed), 6 * 20_000);
    }

    #[test]
    fn single_thread_budget_runs_inline() {
        let pool = Pool::with_threads(1);
        let caller = std::thread::current().id();
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        pool.run_indexed(64, |_| {
            seen.lock().unwrap().insert(std::thread::current().id());
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 1);
        assert!(seen.contains(&caller));
    }

    #[test]
    fn work_actually_spreads_across_threads() {
        let pool = Pool::with_threads(4);
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        pool.run_indexed(256, |_| {
            seen.lock().unwrap().insert(std::thread::current().id());
            // Enough work per task that workers wake before it's over.
            std::thread::sleep(Duration::from_micros(200));
        });
        // Even on a single-core host the 3 workers plus the caller
        // timeshare; requiring >= 2 distinct threads keeps the test
        // robust while still proving jobs leave the calling thread.
        assert!(seen.into_inner().unwrap().len() >= 2);
    }

    #[test]
    fn panic_propagates_to_caller() {
        let pool = Pool::with_threads(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(100, |i| {
                if i == 37 {
                    panic!("task 37 exploded");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "task 37 exploded");
        // The pool survives a panicked batch.
        let count = AtomicU64::new(0);
        pool.run_indexed(10, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn nested_batches_do_not_deadlock() {
        let pool = Pool::with_threads(3);
        let count = AtomicU64::new(0);
        pool.run_indexed(8, |_| {
            pool.run_indexed(8, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn nested_batches_run_inline_on_the_submitting_task() {
        let pool = Pool::with_threads(4);
        // Every inner task must execute on the thread of the outer task
        // that submitted it (depth-aware admission), at depth 2.
        let violations = AtomicU64::new(0);
        pool.run_indexed(16, |_| {
            assert_eq!(current_task_depth(), 1);
            let submitter = std::thread::current().id();
            pool.run_indexed(16, |_| {
                if std::thread::current().id() != submitter || current_task_depth() != 2 {
                    violations.fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert_eq!(violations.load(Ordering::Relaxed), 0);
        // Depth unwinds once the batch completes.
        assert_eq!(current_task_depth(), 0);
    }

    #[test]
    fn top_level_single_task_batches_do_not_mark_depth() {
        // A degenerate top-level batch runs inline but occupies no
        // worker, so parallelism nested inside it must still fan out.
        let pool = Pool::with_threads(4);
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        pool.run_indexed(1, |_| {
            assert_eq!(current_task_depth(), 0, "inline top-level task");
            pool.run_indexed(64, |_| {
                seen.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(Duration::from_micros(200));
            });
        });
        assert!(
            seen.into_inner().unwrap().len() >= 2,
            "nested batch under a single-task top-level batch must still fan out"
        );
    }

    #[test]
    fn depth_unwinds_after_a_panicking_task() {
        let pool = Pool::with_threads(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(4, |i| {
                if i == 0 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        assert_eq!(current_task_depth(), 0, "panic must not leak depth");
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = Pool::with_threads(4);
        pool.run_indexed(0, |_| panic!("must not run"));
        assert_eq!(pool.batch_stats(), PoolBatchStats::default());
    }

    #[test]
    fn batch_stats_track_dispatch_and_inline() {
        let pool = Pool::with_threads(4);
        pool.run_indexed(64, |_| {});
        let after_dispatch = pool.batch_stats();
        assert_eq!(after_dispatch.dispatched, 1);
        assert_eq!(after_dispatch.tasks, 64);
        // A single-task batch runs inline and is counted; nested
        // batches run inline on the submitting task and are *not*
        // counted (worker inner loops must not touch the shared
        // counters).
        pool.run_indexed(1, |_| {});
        pool.run_indexed(2, |_| {
            pool.run_indexed(3, |_| {});
        });
        let stats = pool.batch_stats();
        assert_eq!(stats.dispatched, 2);
        assert_eq!(stats.inline, 1, "only the degenerate top-level batch");
        assert_eq!(stats.tasks, 64 + 1 + 2);
    }

    #[test]
    fn batch_stats_delta_since_windows_the_counters() {
        let pool = Pool::with_threads(4);
        pool.run_indexed(64, |_| {});
        let snap = pool.batch_stats();
        pool.run_indexed(1, |_| {});
        pool.run_indexed(32, |_| {});
        let delta = pool.batch_stats().delta_since(&snap);
        assert_eq!(delta.dispatched, 1);
        assert_eq!(delta.inline, 1);
        assert_eq!(delta.tasks, 33);
        let mut acc = PoolBatchStats::default();
        acc.absorb(&delta);
        acc.absorb(&snap.delta_since(&PoolBatchStats::default()));
        assert_eq!(acc.tasks, 64 + 33);
    }

    #[test]
    fn dropping_a_pool_stops_its_workers() {
        let pool = Pool::with_threads(3);
        let count = AtomicU64::new(0);
        pool.run_indexed(16, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
        let weak = Arc::downgrade(&pool.shared);
        drop(pool);
        // Workers hold the only other Arc<Shared> references; once
        // they exit, the weak handle dangles.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while weak.upgrade().is_some() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(
            weak.upgrade().is_none(),
            "worker threads must exit after the pool is dropped"
        );
    }

    #[test]
    fn global_pool_threads_are_cached_and_positive() {
        let a = Pool::global().threads();
        let b = Pool::global().threads();
        assert_eq!(a, b);
        assert!(a >= 1);
        assert!(std::ptr::eq(Pool::global(), Pool::global()));
    }
}
