//! Synchronisation helpers shared across the engine, plus the
//! deterministic interleaving harness that model-checks the protocols
//! built on them.
//!
//! Three layers live here:
//!
//! * [`lock`]/[`wait`] — the poison-recovering `Mutex`/`Condvar` wrappers
//!   every non-test module uses instead of raw `.lock()`. They are also
//!   the anchor the `lock_order`/`condvar_wait_loop` lints key on.
//! * [`model`] — a dependency-free, loom-in-spirit bounded-exhaustive
//!   schedule explorer. Concurrency protocols (the pool job handoff) are
//!   written as small op programs over virtual threads, and every
//!   interleaving up to a bound
//!   is executed with invariants checked after each atomic step. The
//!   model is sequentially consistent — weak-memory effects are covered
//!   statically by the `atomic_ordering` lint and dynamically by the
//!   Miri/ThreadSanitizer CI jobs.
//! * A `tripro_shuttle` stress shim — compiled only under
//!   `RUSTFLAGS="--cfg tripro_shuttle"`, it injects seeded yield/spin
//!   jitter into `lock`/`wait` so the real-thread stress tests explore
//!   more interleavings per run (`TRIPRO_SCHED_SEED` picks the schedule).

use std::sync::MutexGuard;
pub use std::sync::{Condvar, Mutex};

/// Acquire a mutex, recovering from poisoning instead of panicking.
///
/// A poisoned mutex means another thread panicked while holding the guard.
/// The data this crate protects with mutexes (cache maps, decoder states,
/// result accumulators) is kept internally consistent at every await-free
/// mutation step, so continuing with the inner value is sound — and the
/// no-panic discipline of the query path (xtask lint L1) must not be
/// undermined by the lock acquisition itself.
pub fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    #[cfg(tripro_shuttle)]
    shuttle::yield_point();
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Block on a condition variable, recovering from poisoning like [`lock`].
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    #[cfg(tripro_shuttle)]
    shuttle::yield_point();
    // tripro_lint::allow(condvar_wait_loop): this IS the wait primitive —
    // the predicate loop lives at every call site, where L7 enforces it.
    let waited = cv.wait(guard);
    let guard = waited.unwrap_or_else(std::sync::PoisonError::into_inner);
    #[cfg(tripro_shuttle)]
    shuttle::yield_point();
    guard
}

/// Seeded schedule-perturbation shim for real-thread stress runs.
///
/// Gated behind `--cfg tripro_shuttle` so release binaries never pay for
/// it. Each call advances a global xorshift-style state and occasionally
/// yields the OS scheduler or spins, which de-correlates thread timing
/// and drives stress tests through interleavings the fair scheduler would
/// rarely produce. `TRIPRO_SCHED_SEED` (u64) selects the jitter schedule.
#[cfg(tripro_shuttle)]
mod shuttle {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;

    static STATE: AtomicU64 = AtomicU64::new(0x243f_6a88_85a3_08d3);

    fn seed() -> u64 {
        static SEED: OnceLock<u64> = OnceLock::new();
        *SEED.get_or_init(|| {
            std::env::var("TRIPRO_SCHED_SEED")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0x9e37_79b9_7f4a_7c15)
        })
    }

    pub(super) fn yield_point() {
        // ORDERING: Relaxed — the state is a jitter source; losing or
        // reordering an update only changes which pseudo-random schedule
        // is explored, never correctness.
        let raw = STATE.fetch_add(seed() | 1, Ordering::Relaxed);
        let mut x = raw ^ (raw >> 33);
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 29;
        match x % 8 {
            0..=2 => std::thread::yield_now(),
            3 => {
                for _ in 0..(x % 64) {
                    std::hint::spin_loop();
                }
            }
            _ => {}
        }
    }
}

pub mod model {
    //! Bounded-exhaustive deterministic interleaving explorer.
    //!
    //! A protocol under test is expressed as a [`Model`]: a set of virtual
    //! threads, each a straight-line program of [`Op`]s over a shared
    //! state `S`. [`Model::explore`] then runs *every* schedule (which
    //! enabled thread takes the next atomic step) up to a bound, checking
    //! a per-step invariant and an end-of-run check, and reports the first
    //! failing schedule as a replayable thread-index trace.
    //!
    //! The memory model is sequential consistency: an [`Op::Step`] closure
    //! is one indivisible action. Model fine-grained races by splitting
    //! them into several steps (e.g. a read step and a write step); weak
    //! memory reordering is out of scope here and covered by the
    //! `atomic_ordering` lint plus the TSan/Miri CI jobs.
    //!
    //! Deadlocks are detected structurally: a state where no thread can
    //! run but a non-daemon thread is unfinished is reported with every
    //! thread's position. Condvars have no spurious wakeups in the model —
    //! [`Op::WaitWhile`] encodes the predicate re-check loop that real
    //! call sites are required (by lint L7) to have, and the harness's own
    //! tests show a naked single-shot wait losing a notification.

    /// Selects a mutex or condvar index from the current state, so ops can
    /// address e.g. `slots[claimed % N]` where `claimed` was chosen at
    /// runtime. Use [`at`] for a constant index.
    pub type Sel<S> = Box<dyn Fn(&S) -> usize>;

    /// Constant index selector.
    pub fn at<S>(i: usize) -> Sel<S> {
        Box::new(move |_| i)
    }

    /// An indivisible state mutation: `(state, thread_id)`.
    pub type StepFn<S> = Box<dyn Fn(&mut S, usize)>;

    /// One atomic action of a virtual thread.
    pub enum Op<S> {
        /// Acquire the selected mutex (blocks while another thread owns
        /// it; re-entry by the owner is reported as a violation).
        Lock(Sel<S>),
        /// Release the selected mutex (a violation if not held).
        Unlock(Sel<S>),
        /// One indivisible state mutation; receives `(state, thread_id)`.
        Step(StepFn<S>),
        /// The predicate wait loop: while `parked_while` holds, release
        /// the mutex and park on the condvar; on each wakeup re-acquire
        /// and re-check. Advances only once the predicate is false while
        /// the mutex is held. Must be executed with the mutex held.
        WaitWhile {
            cv: Sel<S>,
            mutex: Sel<S>,
            parked_while: Box<dyn Fn(&S) -> bool>,
        },
        /// A single-shot wait with no predicate re-check — the bug class
        /// L7 forbids. Exists so tests can prove the explorer catches the
        /// lost-wakeup it allows.
        WaitNaked { cv: Sel<S>, mutex: Sel<S> },
        /// Wake every thread parked on the condvar.
        NotifyAll(Sel<S>),
        /// Wake the longest-parked thread on the condvar.
        NotifyOne(Sel<S>),
    }

    /// Build a [`Op::Step`].
    pub fn step<S>(f: impl Fn(&mut S, usize) + 'static) -> Op<S> {
        Op::Step(Box::new(f))
    }

    /// Build a [`Op::WaitWhile`] with constant condvar/mutex indices.
    pub fn wait_while<S>(
        cv: usize,
        mutex: usize,
        parked_while: impl Fn(&S) -> bool + 'static,
    ) -> Op<S> {
        Op::WaitWhile {
            cv: at(cv),
            mutex: at(mutex),
            parked_while: Box::new(parked_while),
        }
    }

    /// One virtual thread: a straight-line op program. Daemon threads
    /// (e.g. pool workers that would park forever) may be left parked or
    /// unfinished at the end of a run without it counting as a deadlock.
    pub struct Thread<S> {
        pub ops: Vec<Op<S>>,
        pub daemon: bool,
    }

    impl<S> Thread<S> {
        pub fn new(ops: Vec<Op<S>>) -> Self {
            Self { ops, daemon: false }
        }

        pub fn daemon(ops: Vec<Op<S>>) -> Self {
            Self { ops, daemon: true }
        }
    }

    /// A protocol model: virtual threads over `mutexes` locks and
    /// `condvars` condition variables.
    pub struct Model<S> {
        pub threads: Vec<Thread<S>>,
        pub mutexes: usize,
        pub condvars: usize,
    }

    /// A schedule that broke an invariant, deadlocked, or misused a
    /// primitive. `schedule` lists the thread index that took each step,
    /// so the failure replays deterministically.
    #[derive(Debug, Clone)]
    pub struct Violation {
        pub schedule: Vec<usize>,
        pub message: String,
    }

    impl std::fmt::Display for Violation {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{} (schedule {:?})", self.message, self.schedule)
        }
    }

    /// Outcome of an exhaustive exploration.
    #[derive(Debug, Clone, Copy)]
    pub struct Report {
        /// Complete schedules executed.
        pub schedules: usize,
        /// False if `max_schedules` stopped the search before the
        /// schedule space was exhausted.
        pub complete: bool,
    }

    /// Per-run status of one virtual thread.
    #[derive(Clone, Copy, PartialEq)]
    enum RunState {
        Ready,
        /// Parked on (condvar, mutex-to-reacquire).
        Parked(usize, usize),
        /// Woken; must re-acquire the mutex before continuing.
        Reacquire(usize),
    }

    /// Ceiling on steps within a single run — a backstop against model
    /// bugs; legitimate finite programs sit far below it.
    const STEP_CAP: usize = 100_000;

    impl<S> Model<S> {
        /// Run every schedule (up to `max_schedules`), checking
        /// `invariant` after each step of each run and `final_check` at
        /// each run's quiescence. Returns the first violating schedule,
        /// or a [`Report`] if all explored schedules pass.
        pub fn explore(
            &self,
            init: impl Fn() -> S,
            invariant: impl Fn(&S) -> Result<(), String>,
            final_check: impl Fn(&S) -> Result<(), String>,
            max_schedules: usize,
        ) -> Result<Report, Violation> {
            let mut prefix: Vec<usize> = Vec::new();
            let mut schedules = 0usize;
            loop {
                let run = self.run_one(&prefix, &init, &invariant, &final_check);
                match run {
                    RunOutcome::Violation(v) => return Err(v),
                    RunOutcome::Done(chosen) => {
                        schedules += 1;
                        if schedules >= max_schedules {
                            return Ok(Report {
                                schedules,
                                complete: false,
                            });
                        }
                        // Advance to the lexicographically next schedule:
                        // bump the deepest choice point that still has an
                        // untried alternative.
                        let mut next = chosen;
                        let mut advanced = false;
                        while let Some((n, c)) = next.pop() {
                            if c + 1 < n {
                                next.push((n, c + 1));
                                advanced = true;
                                break;
                            }
                        }
                        if !advanced {
                            return Ok(Report {
                                schedules,
                                complete: true,
                            });
                        }
                        prefix = next.iter().map(|&(_, c)| c).collect();
                    }
                }
            }
        }

        fn run_one(
            &self,
            prefix: &[usize],
            init: &impl Fn() -> S,
            invariant: &impl Fn(&S) -> Result<(), String>,
            final_check: &impl Fn(&S) -> Result<(), String>,
        ) -> RunOutcome {
            let n = self.threads.len();
            let mut state = init();
            let mut pc = vec![0usize; n];
            let mut status = vec![RunState::Ready; n];
            let mut owner: Vec<Option<usize>> = vec![None; self.mutexes];
            // FIFO waitsets per condvar.
            let mut waitset: Vec<Vec<usize>> = vec![Vec::new(); self.condvars];
            let mut chosen: Vec<(usize, usize)> = Vec::new();
            let mut schedule: Vec<usize> = Vec::new();

            let finished = |pc: &[usize], t: usize| pc[t] >= self.threads[t].ops.len();

            for step_no in 0..STEP_CAP {
                let runnable: Vec<usize> = (0..n)
                    .filter(|&t| {
                        if finished(&pc, t) {
                            return false;
                        }
                        match status[t] {
                            RunState::Parked(_, _) => false,
                            RunState::Reacquire(m) => owner[m].is_none(),
                            RunState::Ready => match self.threads[t].ops.get(pc[t]) {
                                Some(Op::Lock(sel)) => {
                                    let m = sel(&state);
                                    // Enabled when free — or when self-owned,
                                    // so the re-entry violation surfaces.
                                    owner.get(m).is_some_and(|o| o.is_none() || *o == Some(t))
                                }
                                Some(_) => true,
                                None => false,
                            },
                        }
                    })
                    .collect();

                if runnable.is_empty() {
                    let stuck: Vec<usize> = (0..n)
                        .filter(|&t| !self.threads[t].daemon && !finished(&pc, t))
                        .collect();
                    if stuck.is_empty() {
                        break; // quiescent: all non-daemons done, daemons parked
                    }
                    let detail: Vec<String> = stuck
                        .iter()
                        .map(|&t| match status[t] {
                            RunState::Parked(cv, _) => {
                                format!("t{t} parked on cv{cv} at op {}", pc[t])
                            }
                            RunState::Reacquire(m) => {
                                format!("t{t} blocked re-acquiring m{m} at op {}", pc[t])
                            }
                            RunState::Ready => format!("t{t} blocked at op {}", pc[t]),
                        })
                        .collect();
                    return RunOutcome::Violation(Violation {
                        schedule,
                        message: format!("deadlock: {}", detail.join("; ")),
                    });
                }

                let pick = prefix
                    .get(step_no)
                    .copied()
                    .unwrap_or(0)
                    .min(runnable.len() - 1);
                chosen.push((runnable.len(), pick));
                let t = runnable[pick];
                schedule.push(t);

                if let Some(v) = self.exec_step(
                    t,
                    &mut state,
                    &mut pc,
                    &mut status,
                    &mut owner,
                    &mut waitset,
                ) {
                    return RunOutcome::Violation(Violation {
                        schedule,
                        message: v,
                    });
                }
                if let Err(msg) = invariant(&state) {
                    return RunOutcome::Violation(Violation {
                        schedule,
                        message: format!("invariant violated: {msg}"),
                    });
                }
            }

            if let Err(msg) = final_check(&state) {
                return RunOutcome::Violation(Violation {
                    schedule,
                    message: format!("final check failed: {msg}"),
                });
            }
            RunOutcome::Done(chosen)
        }

        /// Execute one atomic step of thread `t`. Returns an error message
        /// on primitive misuse (re-entry, unlock-without-hold, …).
        fn exec_step(
            &self,
            t: usize,
            state: &mut S,
            pc: &mut [usize],
            status: &mut [RunState],
            owner: &mut [Option<usize>],
            waitset: &mut [Vec<usize>],
        ) -> Option<String> {
            if let RunState::Reacquire(m) = status[t] {
                owner[m] = Some(t);
                status[t] = RunState::Ready;
                // A woken WaitWhile re-checks its predicate under the lock
                // and may park again; WaitNaked just proceeds.
                if let Some(Op::WaitWhile {
                    cv, parked_while, ..
                }) = self.threads[t].ops.get(pc[t])
                {
                    if parked_while(state) {
                        let cvi = cv(state);
                        owner[m] = None;
                        waitset.get_mut(cvi)?.push(t);
                        status[t] = RunState::Parked(cvi, m);
                        return None;
                    }
                }
                pc[t] += 1;
                return None;
            }

            let op = self.threads[t].ops.get(pc[t])?;
            match op {
                Op::Lock(sel) => {
                    let m = sel(state);
                    match owner.get(m).copied() {
                        Some(Some(o)) if o == t => {
                            return Some(format!(
                                "t{t} re-locks m{m} it already holds (self-deadlock)"
                            ))
                        }
                        Some(None) => owner[m] = Some(t),
                        _ => return Some(format!("t{t} locks unknown or busy m{m}")),
                    }
                    pc[t] += 1;
                }
                Op::Unlock(sel) => {
                    let m = sel(state);
                    if owner.get(m).copied() != Some(Some(t)) {
                        return Some(format!("t{t} unlocks m{m} it does not hold"));
                    }
                    owner[m] = None;
                    pc[t] += 1;
                }
                Op::Step(f) => {
                    f(state, t);
                    pc[t] += 1;
                }
                Op::WaitWhile {
                    cv,
                    mutex,
                    parked_while,
                } => {
                    let m = mutex(state);
                    if owner.get(m).copied() != Some(Some(t)) {
                        return Some(format!("t{t} waits without holding m{m}"));
                    }
                    if parked_while(state) {
                        let cvi = cv(state);
                        owner[m] = None;
                        waitset.get_mut(cvi)?.push(t);
                        status[t] = RunState::Parked(cvi, m);
                    } else {
                        pc[t] += 1;
                    }
                }
                Op::WaitNaked { cv, mutex } => {
                    let m = mutex(state);
                    if owner.get(m).copied() != Some(Some(t)) {
                        return Some(format!("t{t} waits without holding m{m}"));
                    }
                    let cvi = cv(state);
                    owner[m] = None;
                    waitset.get_mut(cvi)?.push(t);
                    status[t] = RunState::Parked(cvi, m);
                    pc[t] += 1; // a naked wait proceeds on any wakeup
                }
                Op::NotifyAll(sel) => {
                    let cvi = sel(state);
                    if let Some(ws) = waitset.get_mut(cvi) {
                        for w in ws.drain(..) {
                            if let RunState::Parked(_, m) = status[w] {
                                status[w] = RunState::Reacquire(m);
                            }
                        }
                    }
                    pc[t] += 1;
                }
                Op::NotifyOne(sel) => {
                    let cvi = sel(state);
                    if let Some(ws) = waitset.get_mut(cvi) {
                        if !ws.is_empty() {
                            let w = ws.remove(0);
                            if let RunState::Parked(_, m) = status[w] {
                                status[w] = RunState::Reacquire(m);
                            }
                        }
                    }
                    pc[t] += 1;
                }
            }
            None
        }
    }

    enum RunOutcome {
        Done(Vec<(usize, usize)>),
        Violation(Violation),
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// Two threads taking two locks in opposite orders: the explorer
        /// must find the deadlocking interleaving.
        #[test]
        fn finds_lock_order_deadlock() {
            let model: Model<()> = Model {
                threads: vec![
                    Thread::new(vec![
                        Op::Lock(at(0)),
                        Op::Lock(at(1)),
                        Op::Unlock(at(1)),
                        Op::Unlock(at(0)),
                    ]),
                    Thread::new(vec![
                        Op::Lock(at(1)),
                        Op::Lock(at(0)),
                        Op::Unlock(at(0)),
                        Op::Unlock(at(1)),
                    ]),
                ],
                mutexes: 2,
                condvars: 0,
            };
            let err = model
                .explore(|| (), |_| Ok(()), |_| Ok(()), 10_000)
                .expect_err("opposite lock orders must deadlock somewhere");
            assert!(err.message.contains("deadlock"), "{err}");
            assert!(!err.schedule.is_empty());
        }

        /// Same locks, same order: exhaustively clean.
        #[test]
        fn consistent_order_is_clean() {
            let mk = || {
                Thread::new(vec![
                    Op::Lock(at(0)),
                    Op::Lock(at(1)),
                    Op::Unlock(at(1)),
                    Op::Unlock(at(0)),
                ])
            };
            let model: Model<()> = Model {
                threads: vec![mk(), mk()],
                mutexes: 2,
                condvars: 0,
            };
            let report = model
                .explore(|| (), |_| Ok(()), |_| Ok(()), 100_000)
                .expect("consistent order cannot deadlock");
            assert!(report.complete, "space must be exhausted");
            assert!(report.schedules > 1);
        }

        /// A naked single-shot wait loses the notification when the
        /// producer runs first; the predicate-loop version cannot.
        #[test]
        fn naked_wait_loses_wakeup_and_wait_while_does_not() {
            let consumer_naked = Thread::new(vec![
                Op::Lock(at(0)),
                Op::WaitNaked {
                    cv: at(0),
                    mutex: at(0),
                },
                Op::Unlock(at(0)),
            ]);
            let producer = || {
                Thread::new(vec![
                    Op::Lock(at(0)),
                    step(|s: &mut bool, _| *s = true),
                    Op::NotifyAll(at(0)),
                    Op::Unlock(at(0)),
                ])
            };
            let model = Model {
                threads: vec![consumer_naked, producer()],
                mutexes: 1,
                condvars: 1,
            };
            let err = model
                .explore(|| false, |_| Ok(()), |_| Ok(()), 10_000)
                .expect_err("producer-first schedule must strand the consumer");
            assert!(err.message.contains("deadlock"), "{err}");

            let consumer_loop = Thread::new(vec![
                Op::Lock(at(0)),
                wait_while(0, 0, |s: &bool| !*s),
                Op::Unlock(at(0)),
            ]);
            let model = Model {
                threads: vec![consumer_loop, producer()],
                mutexes: 1,
                condvars: 1,
            };
            let report = model
                .explore(|| false, |_| Ok(()), |_| Ok(()), 10_000)
                .expect("predicate loop never strands");
            assert!(report.complete);
        }

        /// An unlocked read-modify-write (two separate steps) loses an
        /// update under some schedule; the locked version never does.
        #[test]
        fn detects_lost_update_and_validates_locked_version() {
            #[derive(Default)]
            struct S {
                counter: u32,
                scratch: [u32; 2],
            }
            let racy = |_t: usize| {
                Thread::new(vec![
                    step(move |s: &mut S, t| s.scratch[t] = s.counter),
                    step(move |s: &mut S, t| s.counter = s.scratch[t] + 1),
                ])
            };
            let model = Model {
                threads: vec![racy(0), racy(1)],
                mutexes: 0,
                condvars: 0,
            };
            let err = model
                .explore(
                    S::default,
                    |_| Ok(()),
                    |s| {
                        if s.counter == 2 {
                            Ok(())
                        } else {
                            Err(format!("lost update: counter={}", s.counter))
                        }
                    },
                    10_000,
                )
                .expect_err("unlocked RMW must lose an update somewhere");
            assert!(err.message.contains("lost update"), "{err}");

            let locked = || {
                Thread::new(vec![
                    Op::Lock(at(0)),
                    step(move |s: &mut S, t| s.scratch[t] = s.counter),
                    step(move |s: &mut S, t| s.counter = s.scratch[t] + 1),
                    Op::Unlock(at(0)),
                ])
            };
            let model = Model {
                threads: vec![locked(), locked()],
                mutexes: 1,
                condvars: 0,
            };
            let report = model
                .explore(
                    S::default,
                    |_| Ok(()),
                    |s| {
                        if s.counter == 2 {
                            Ok(())
                        } else {
                            Err(format!("lost update: counter={}", s.counter))
                        }
                    },
                    100_000,
                )
                .expect("locked RMW is atomic");
            assert!(report.complete);
        }

        /// Misuse diagnostics: re-entry and unlock-without-hold.
        #[test]
        fn reports_primitive_misuse() {
            let model: Model<()> = Model {
                threads: vec![Thread::new(vec![Op::Lock(at(0)), Op::Lock(at(0))])],
                mutexes: 1,
                condvars: 0,
            };
            let err = model
                .explore(|| (), |_| Ok(()), |_| Ok(()), 100)
                .expect_err("re-entry must be reported");
            assert!(err.message.contains("re-locks"), "{err}");

            let model: Model<()> = Model {
                threads: vec![Thread::new(vec![Op::Unlock(at(0))])],
                mutexes: 1,
                condvars: 0,
            };
            let err = model
                .explore(|| (), |_| Ok(()), |_| Ok(()), 100)
                .expect_err("unlock without hold must be reported");
            assert!(err.message.contains("does not hold"), "{err}");
        }

        /// Daemon threads left parked do not count as deadlock.
        #[test]
        fn parked_daemons_are_quiescent() {
            let model: Model<bool> = Model {
                threads: vec![
                    Thread::daemon(vec![
                        Op::Lock(at(0)),
                        wait_while(0, 0, |_s: &bool| true), // parks forever
                        Op::Unlock(at(0)),
                    ]),
                    Thread::new(vec![Op::Lock(at(0)), Op::Unlock(at(0))]),
                ],
                mutexes: 1,
                condvars: 1,
            };
            let report = model
                .explore(|| false, |_| Ok(()), |_| Ok(()), 10_000)
                .expect("a parked daemon is not a deadlock");
            assert!(report.complete);
        }
    }
}
