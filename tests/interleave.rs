//! Bounded-exhaustive interleaving tests for the engine's concurrency
//! protocols, using the deterministic model explorer in `tripro::sync::model`.
//!
//! A test expresses one real protocol — the pool job handoff — as a small
//! op program over virtual threads and runs *every* schedule up to a bound,
//! checking invariants after each atomic step; a seeded-bug self-test
//! proves the explorer catches a torn write.
//! A failing schedule is reported as a replayable thread-index trace. The
//! model is sequentially consistent; weak-memory concerns are handled by
//! the `atomic_ordering` lint and the Miri/TSan CI jobs (see
//! docs/concurrency.md).

use tripro::sync::model::{at, step, wait_while, Model, Op, Thread};

/// The worker pool's job handoff (crates/tripro/src/pool.rs): the caller
/// posts a job epoch under the state mutex and notifies the work condvar;
/// workers park in a predicate loop keyed on the epoch, run the job, then
/// decrement `active` and notify the done condvar the caller waits on.
/// Exhaustively: no lost wakeup, no lost job, no stranded caller —
/// including the schedule where the caller posts before any worker parks.
#[test]
fn pool_job_handoff_is_lost_wakeup_free() {
    #[derive(Default)]
    struct S {
        epoch: u32,
        active: u32,
        done_work: u32,
    }
    const M: usize = 0; // state mutex
    const WORK: usize = 0; // work condvar
    const DONE: usize = 1; // done condvar
    const WORKERS: u32 = 2;

    let caller = Thread::new(vec![
        Op::Lock(at(M)),
        step(|s: &mut S, _| {
            s.epoch += 1;
            s.active = WORKERS;
        }),
        Op::NotifyAll(at(WORK)),
        wait_while(DONE, M, |s: &S| s.active > 0),
        Op::Unlock(at(M)),
    ]);
    let worker = || {
        Thread::daemon(vec![
            Op::Lock(at(M)),
            wait_while(WORK, M, |s: &S| s.epoch == 0),
            step(|s: &mut S, _| {
                s.done_work += 1;
                s.active -= 1;
            }),
            Op::NotifyOne(at(DONE)),
            Op::Unlock(at(M)),
        ])
    };

    let model = Model {
        threads: vec![caller, worker(), worker()],
        mutexes: 1,
        condvars: 2,
    };
    let report = model
        .explore(
            S::default,
            |_| Ok(()),
            |s| {
                if s.done_work == WORKERS && s.active == 0 {
                    Ok(())
                } else {
                    Err(format!(
                        "handoff incomplete: done_work={} active={}",
                        s.done_work, s.active
                    ))
                }
            },
            2_000_000,
        )
        .expect("pool handoff must complete under every schedule");
    assert!(report.complete, "schedule space not exhausted");
}

/// Seeded-bug check: a two-word record written in two unlocked steps while
/// a reader looks at it — the explorer must find a schedule where the
/// reader observes a torn record. This is the harness's proof-of-life: it
/// demonstrably catches the defect class that locking a multi-word
/// publication exists to rule out.
#[test]
fn explorer_catches_lockless_torn_write() {
    #[derive(Default)]
    struct S {
        slot: (u32, u32),
        torn_seen: Option<(u32, u32)>,
    }
    let buggy_writer = Thread::new(vec![
        step(|s: &mut S, _| s.slot.0 = 7),
        step(|s: &mut S, _| s.slot.1 = 7),
    ]);
    let scraper = Thread::new(vec![step(|s: &mut S, _| {
        if s.slot.0 != s.slot.1 {
            s.torn_seen = Some(s.slot);
        }
    })]);
    let model = Model {
        threads: vec![buggy_writer, scraper],
        mutexes: 0,
        condvars: 0,
    };
    let err = model
        .explore(
            S::default,
            |s| match s.torn_seen {
                None => Ok(()),
                Some(r) => Err(format!("scraper observed torn record {r:?}")),
            },
            |_| Ok(()),
            100_000,
        )
        .expect_err("a lockless two-step write must tear under some schedule");
    assert!(err.message.contains("torn"), "{err}");
    assert!(
        !err.schedule.is_empty(),
        "violation must carry a replayable schedule"
    );
}
