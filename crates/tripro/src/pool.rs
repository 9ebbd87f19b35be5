//! Persistent worker pool: the concurrency backbone for the kernel launch
//! loop (`gpu`), the join driver (`query::Engine::drive`) and store
//! construction.
//!
//! The seed implementation spawned a fresh `std::thread::scope` for every
//! kernel launch and every join, which put thread spawn/teardown on the
//! exact path the paper's §5.3 amortisation argument claims is cheap. This
//! pool is built once per process (the resident "device" plus driver
//! workers) and parks its threads between parallel regions, so a join pays
//! only a condvar wake per region instead of N `clone()`d thread stacks.
//!
//! ## Execution model: help-first broadcast
//!
//! [`WorkerPool::run_with`] runs a closure on the *calling* thread plus up
//! to `helpers` idle pool workers. Work distribution inside the closure is
//! the caller's business (all call sites claim chunks off an atomic
//! counter), so a helper that never wakes costs nothing but parallelism.
//! Two properties make this deadlock-free under nesting:
//!
//! * the caller always participates, so a region completes even when every
//!   pool worker is busy in an enclosing region;
//! * a nested `run_with` that finds the broadcast slot occupied simply runs
//!   inline — it never waits for workers that may transitively wait on it.

use crate::fault;
use crate::obs;
use crate::sync::{lock, wait, Condvar, Mutex};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Erased pointer to the region closure. Only ever dereferenced through
/// [`Job::call`] while the owning [`WorkerPool::run_with`] frame is alive.
#[derive(Clone, Copy)]
struct JobPtr(*const ());

// The pointee is a `Sync` closure borrowed by `run_with`, which does not
// return until every worker that claimed the job has finished running it
// (tracked by `Job::active`).
// SAFETY: the pointer never dangles while a worker can observe it.
unsafe impl Send for JobPtr {}

/// One broadcast parallel region.
struct Job {
    ptr: JobPtr,
    /// Monomorphised trampoline that re-types `ptr` and calls the closure.
    call: unsafe fn(JobPtr, usize),
    /// Region identity; guards against a worker finishing into a newer job.
    epoch: u64,
    /// Still accepting helper claims.
    open: bool,
    /// Next helper index to hand out (the caller owns index 0).
    next_idx: usize,
    /// Helper indices are handed out in `1..limit`.
    limit: usize,
    /// Helpers currently executing the closure.
    active: usize,
    /// First panic payload observed in a helper, re-raised by the caller.
    panic: Option<Box<dyn Any + Send>>,
    /// When the region was posted — each helper claim records the post→claim
    /// gap into the pool queue-wait histogram.
    posted: Instant,
}

#[derive(Default)]
struct State {
    job: Option<Job>,
    epoch: u64,
    /// Live worker threads (spawned lazily, never torn down).
    workers: usize,
}

struct Shared {
    // LOCK-RANK(40): the pool's single job/worker mutex; above the serve
    // tier's locks (10–30) because workers are dispatched from there, and
    // below the cache locks (50–70) that job closures may take.
    state: Mutex<State>,
    /// Workers park here between regions.
    work_cv: Condvar,
    /// The caller parks here while helpers drain.
    done_cv: Condvar,
}

/// A persistent pool of parked worker threads executing broadcast regions.
pub struct WorkerPool {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = lock(&self.shared.state);
        f.debug_struct("WorkerPool")
            .field("workers", &st.workers)
            .field("busy", &st.job.is_some())
            .finish()
    }
}

impl WorkerPool {
    /// An empty pool; workers are spawned on demand by [`run_with`].
    ///
    /// [`run_with`]: WorkerPool::run_with
    pub fn new() -> Self {
        Self {
            shared: Arc::new(Shared {
                state: Mutex::new(State::default()),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
            }),
        }
    }

    /// Number of live worker threads.
    pub fn workers(&self) -> usize {
        lock(&self.shared.state).workers
    }

    /// Grow the pool to at least `n` workers (best effort: a failed spawn
    /// leaves the pool smaller, never broken, because the caller of every
    /// region participates in it).
    fn ensure_workers(&self, n: usize) {
        let mut st = lock(&self.shared.state);
        while st.workers < n {
            let shared = Arc::clone(&self.shared);
            let spawned = std::thread::Builder::new()
                .name("tripro-pool".into())
                .spawn(move || worker_loop(&shared));
            if spawned.is_err() {
                break;
            }
            st.workers += 1;
        }
    }

    /// Run `f` on the calling thread plus up to `helpers` pool workers.
    ///
    /// `f` is invoked once per participating thread with a distinct index
    /// (the caller gets 0, helpers get `1..=helpers`); indices say nothing
    /// about work division — call sites claim work via shared atomics.
    /// Returns once every participant has finished. If the broadcast slot
    /// is occupied by another region (nested use), `f(0)` runs inline.
    pub fn run_with<F: Fn(usize) + Sync>(&self, helpers: usize, f: F) {
        if helpers == 0 {
            f(0);
            return;
        }
        self.ensure_workers(helpers);

        /// Re-type the erased pointer and run the closure.
        unsafe fn trampoline<F: Fn(usize) + Sync>(ptr: JobPtr, idx: usize) {
            // SAFETY: `ptr` was derived from `&f` in the `run_with` frame
            // below, which outlives every call (it blocks on `done_cv`
            // until `active == 0` and the job is closed to new claims).
            let f = unsafe { &*(ptr.0 as *const F) };
            f(idx);
        }

        let epoch = {
            let mut st = lock(&self.shared.state);
            if st.job.is_some() || st.workers == 0 {
                // Slot busy (nested region) or no workers could spawn:
                // degrade to inline execution rather than queueing.
                drop(st);
                f(0);
                return;
            }
            st.epoch += 1;
            let epoch = st.epoch;
            st.job = Some(Job {
                ptr: JobPtr(&f as *const F as *const ()),
                call: trampoline::<F>,
                epoch,
                open: true,
                next_idx: 1,
                limit: helpers + 1,
                active: 0,
                panic: None,
                posted: Instant::now(),
            });
            self.shared.work_cv.notify_all();
            epoch
        };

        // The caller is participant 0. Panics are deferred until helpers
        // have drained — unwinding past the wait would dangle `ptr`.
        let caller_result = catch_unwind(AssertUnwindSafe(|| f(0)));

        let helper_panic = {
            let mut st = lock(&self.shared.state);
            if let Some(job) = st.job.as_mut() {
                if job.epoch == epoch {
                    job.open = false;
                }
            }
            while st
                .job
                .as_ref()
                .is_some_and(|j| j.epoch == epoch && j.active > 0)
            {
                st = wait(&self.shared.done_cv, st);
            }
            match st.job.take() {
                Some(job) if job.epoch == epoch => job.panic,
                other => {
                    st.job = other;
                    None
                }
            }
        };

        if let Err(payload) = caller_result {
            resume_unwind(payload);
        }
        if let Some(payload) = helper_panic {
            resume_unwind(payload);
        }
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

fn worker_loop(shared: &Shared) {
    let mut st = lock(&shared.state);
    loop {
        let claim = match st.job.as_mut() {
            Some(job) if job.open && job.next_idx < job.limit => {
                let idx = job.next_idx;
                job.next_idx += 1;
                job.active += 1;
                // Queue wait (post → claim) and occupancy (workers active
                // on the job at this claim, caller included) — §5.2
                // pipelining telemetry, recorded once per claim.
                obs::pool_wait_histogram().record_duration(job.posted.elapsed());
                obs::pool_occupancy_histogram().record(job.active as u64 + 1);
                Some((job.ptr, job.call, job.epoch, idx))
            }
            _ => None,
        };
        match claim {
            Some((ptr, call, epoch, idx)) => {
                drop(st);
                // The claim above incremented `active` under the lock, so
                // the `run_with` frame owning `ptr` cannot return (and the
                // closure cannot be dropped) until the decrement below.
                let result = catch_unwind(AssertUnwindSafe(|| {
                    // An Err-armed dispatch failpoint makes this helper
                    // decline the claim (the caller participant still
                    // completes the region); Delay models queue latency
                    // and Panic a worker dying mid-job, contained here.
                    if fault::failpoint(fault::POOL_DISPATCH).is_ok() {
                        // SAFETY: `ptr` outlives this call per the above,
                        // and the closure is `Sync` so concurrent worker
                        // calls are allowed.
                        unsafe { call(ptr, idx) }
                    }
                }));
                if result.is_err() {
                    // The worker thread survives the panic (contained by
                    // the catch above); the payload is re-raised in the
                    // region's caller, never lost.
                    obs::panic_counter("pool").fetch_add(1, Ordering::Relaxed);
                }
                st = lock(&shared.state);
                if let Some(job) = st.job.as_mut() {
                    if job.epoch == epoch {
                        job.active -= 1;
                        if let Err(payload) = result {
                            job.panic.get_or_insert(payload);
                        }
                        shared.done_cv.notify_all();
                    }
                }
            }
            None => {
                st = wait(&shared.work_cv, st);
            }
        }
    }
}

/// The process-wide pool shared by the kernel launch loop, the join driver
/// and store construction. One resident set of worker threads per process
/// mirrors the paper's §5.2 setup — a fixed CPU pool plus device — and
/// lets the decode cache stay warm across joins without any per-call
/// thread churn.
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(WorkerPool::new)
}

/// Hardware threads available to this process: the width the batch
/// executor models the device with. Asked of the OS once, because `std`
/// re-reads the cgroup files on every call (~20 µs) and the per-request
/// query paths would otherwise pay that each time.
pub fn device_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn runs_all_participants_work() {
        let pool = WorkerPool::new();
        let next = AtomicUsize::new(0);
        let sum = AtomicU64::new(0);
        pool.run_with(3, |_| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= 1000 {
                return;
            }
            sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 500_500);
        assert!(pool.workers() >= 1);
    }

    #[test]
    fn zero_helpers_runs_inline() {
        let pool = WorkerPool::new();
        let hits = AtomicUsize::new(0);
        pool.run_with(0, |idx| {
            assert_eq!(idx, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert_eq!(pool.workers(), 0, "no threads spawned for inline runs");
    }

    #[test]
    fn pool_is_reused_across_regions() {
        let pool = WorkerPool::new();
        for _ in 0..50 {
            let next = AtomicUsize::new(0);
            pool.run_with(2, |_| while next.fetch_add(1, Ordering::Relaxed) < 10 {});
        }
        // Lazily grown once, then parked and reused: never more threads
        // than the widest region requested.
        assert!(pool.workers() <= 2, "workers: {}", pool.workers());
    }

    #[test]
    fn nested_regions_complete() {
        let pool = WorkerPool::new();
        let total = AtomicU64::new(0);
        let outer_next = AtomicUsize::new(0);
        pool.run_with(3, |_| loop {
            let i = outer_next.fetch_add(1, Ordering::Relaxed);
            if i >= 8 {
                return;
            }
            // Nested region: must run (inline or helped), never deadlock.
            let inner_next = AtomicUsize::new(0);
            pool.run_with(2, |_| {
                while inner_next.fetch_add(1, Ordering::Relaxed) < 25 {
                    total.fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 25);
    }

    #[test]
    fn distinct_indices_handed_out() {
        let pool = WorkerPool::new();
        let seen = Mutex::new(Vec::new());
        pool.run_with(3, |idx| {
            lock(&seen).push(idx);
        });
        let mut ids = lock(&seen).clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), lock(&seen).len(), "duplicate participant idx");
        assert!(ids.contains(&0), "caller participates");
    }

    #[test]
    fn helper_panic_propagates_to_caller() {
        let pool = WorkerPool::new();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_with(2, |idx| {
                if idx == 0 {
                    // Caller waits for helpers to finish first.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                } else {
                    panic!("helper boom");
                }
            });
        }));
        // The panic may have run on a helper (propagated) or the helpers
        // may never have woken in time (region completes cleanly) — but the
        // pool itself must stay usable either way.
        let _ = result;
        let next = AtomicUsize::new(0);
        pool.run_with(2, |_| while next.fetch_add(1, Ordering::Relaxed) < 5 {});
        assert!(next.load(Ordering::Relaxed) >= 5);
    }
}
