//! Chaos tests: seeded fault schedules injected into loopback serve runs.
//!
//! Each test arms the process-global failpoint registry ([`tripro::fault`])
//! with a deterministic schedule, drives a real TCP server with retrying
//! clients, and asserts the three robustness invariants:
//!
//! 1. **No hangs** — every run finishes under a watchdog that aborts the
//!    process (printing the schedule) if it stalls.
//! 2. **No leaked work** — after the run drains, the admission ledger
//!    balances (`admitted == completed + deadline_expired + failed`) and
//!    the worker pool still executes fresh work.
//! 3. **Byte-identical results** — any request that resolves to `Ids`
//!    (first try or after retries) matches the fault-free reference
//!    exactly; faults may fail a request, never corrupt it.
//!
//! The registry is process-global, so every test serializes on one mutex
//! and clears the registry at entry and exit. `CHAOS_SEEDS` scales the
//! seeded-schedule sweep (default 4 locally; CI's nightly chaos job runs
//! 32).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use tripro::fault::{self, mix64, FaultAction, Trigger};
use tripro::{Engine, ExecStats, ObjectStore, Paradigm, QueryConfig, StoreConfig};
use tripro_serve::{
    partition_source, Client, Coordinator, CoordinatorConfig, ErrorCode, QueryReply, Request,
    RetryPolicy, RetryingClient, ServeConfig, Server, ShardMap, ShardView,
};
use tripro_synth::{DatasetConfig, VesselConfig};

/// One registry per process: chaos tests must not interleave schedules.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    // A panicking test (some deliberately panic inside server threads)
    // must not poison the suite.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn stores() -> &'static (Arc<ObjectStore>, Arc<ObjectStore>) {
    static STORES: OnceLock<(Arc<ObjectStore>, Arc<ObjectStore>)> = OnceLock::new();
    STORES.get_or_init(|| {
        let block = tripro_synth::generate(&DatasetConfig {
            nuclei_count: 16,
            vessel_count: 1,
            vessel: VesselConfig {
                levels: 2,
                grid: 12,
                ..Default::default()
            },
            seed: 0xC405,
            ..Default::default()
        });
        let target =
            ObjectStore::build(&block.nuclei_a, &StoreConfig::default()).expect("encode a");
        let source =
            ObjectStore::build(&block.nuclei_b, &StoreConfig::default()).expect("encode b");
        (Arc::new(target), Arc::new(source))
    })
}

/// The request set every run drives, with fault-free reference results.
fn reference() -> &'static Vec<(Request, Vec<u32>)> {
    static REF: OnceLock<Vec<(Request, Vec<u32>)>> = OnceLock::new();
    REF.get_or_init(|| {
        let (target, source) = stores();
        let cfg = QueryConfig::new(Paradigm::FilterProgressiveRefine, tripro::Accel::Aabb);
        let stats = ExecStats::new();
        let engine = Engine::new(target, source);
        (0..target.len() as u32)
            .flat_map(|t| {
                vec![
                    (
                        Request::Intersect {
                            target: t,
                            deadline_ms: u32::MAX,
                        },
                        engine.intersect_one(t, &cfg, &stats).unwrap(),
                    ),
                    (
                        Request::Nn {
                            target: t,
                            deadline_ms: u32::MAX,
                        },
                        engine
                            .nn_one(t, &cfg, &stats)
                            .unwrap()
                            .into_iter()
                            .collect(),
                    ),
                ]
            })
            .collect()
    })
}

/// Aborts the whole process (printing `desc`) if not disarmed in time —
/// a hang in a chaos run must fail loudly, not eat the CI time budget.
struct Watchdog {
    done: Arc<AtomicBool>,
}

impl Watchdog {
    fn arm(desc: String, timeout: Duration) -> Watchdog {
        let done = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&done);
        std::thread::spawn(move || {
            let deadline = Instant::now() + timeout;
            while Instant::now() < deadline {
                if flag.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            eprintln!("CHAOS WATCHDOG: hang detected — {desc}");
            eprintln!("armed schedule at hang:");
            for s in fault::snapshot() {
                eprintln!(
                    "  {} = {:?}[{:?}] hits={} fired={}",
                    s.site, s.action, s.trigger, s.hits, s.fired
                );
            }
            std::process::abort();
        });
        Watchdog { done }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Relaxed);
    }
}

fn start_server() -> Server {
    let (target, source) = stores();
    Server::start(
        Arc::clone(target),
        Arc::clone(source),
        ServeConfig::default(),
    )
    .expect("start server")
}

/// Poll until a node's admission ledger balances; panics (with the
/// snapshot) if it never does — that means a response path leaked a
/// request. Servers and coordinators keep the same ledger.
fn await_balanced(stats: impl Fn() -> tripro::ServiceSnapshot, context: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = stats();
        let accounted = s.completed + s.deadline_expired + s.failed;
        if s.admitted == accounted {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{context}: ledger never balanced: admitted {} vs accounted {accounted} ({s:?})",
            s.admitted
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn await_balanced_ledger(server: &Server, context: &str) {
    await_balanced(|| server.stats(), context);
}

/// Prove the process-wide pool still has all its workers: a fresh
/// broadcast job with helpers must complete (a leaked/parked worker would
/// hang it, tripping the watchdog).
fn assert_pool_alive() {
    let hits = std::sync::atomic::AtomicUsize::new(0);
    tripro::pool::global().run_with(2, |_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert!(
        hits.load(Ordering::Relaxed) >= 1,
        "pool ran no participants"
    );
}

fn connect_retrying(addr: std::net::SocketAddr, seed: u64) -> Option<RetryingClient> {
    let policy = RetryPolicy {
        max_retries: 3,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(50),
        seed,
    };
    // Connection setup itself can hit serve.read faults (the Hello
    // roundtrip); retry it like any transient.
    for _ in 0..30 {
        match RetryingClient::connect(addr, policy.clone()) {
            Ok(c) => return Some(c),
            Err(_) => std::thread::sleep(Duration::from_millis(3)),
        }
    }
    None
}

/// The acceptance-critical path: a deliberately panicking query must come
/// back as a typed `Internal` error over the wire while the same server
/// run keeps answering neighbouring queries correctly.
#[test]
fn panicking_query_returns_internal_and_server_keeps_serving() {
    let _guard = serial();
    fault::clear();
    let _wd = Watchdog::arm("panicking_query".into(), Duration::from_secs(120));

    let server = start_server();
    let addr = server.addr();
    // The 2nd executed request panics inside the batch executor.
    fault::set(fault::SERVE_EXEC, FaultAction::Panic, Trigger::Nth(2));

    let reference = reference();
    let mut client = Client::connect(addr).expect("connect");
    let mut internal = 0u64;
    for (req, want) in reference.iter().take(8) {
        match client.query(req).expect("query transport") {
            QueryReply::Ids(ids) => assert_eq!(&ids, want, "post-panic result diverged"),
            QueryReply::Error { code, message, .. } => {
                assert_eq!(code, ErrorCode::Internal, "unexpected error: {message}");
                internal += 1;
            }
            other => panic!("engine never answers these requests with {other:?}"),
        }
    }
    assert_eq!(internal, 1, "exactly the injected panic must surface");
    assert_eq!(fault::fired(fault::SERVE_EXEC), 1);

    fault::clear();
    await_balanced_ledger(&server, "panicking_query");
    let s = server.stats();
    assert_eq!(s.panics, 1, "contained panic must be counted ({s:?})");
    assert_eq!(s.failed, 1, "contained panic accounts as failed ({s:?})");
    server.shutdown();
    assert_pool_alive();
}

/// Regression for the short-write bug: a `write()` that accepts fewer
/// bytes than the frame must be continued, not treated as success. With
/// every first write truncated to 3 bytes, all responses must still
/// arrive byte-identical.
#[test]
fn partial_writes_are_completed_not_truncated() {
    let _guard = serial();
    fault::clear();
    let _wd = Watchdog::arm("partial_writes".into(), Duration::from_secs(120));

    let server = start_server();
    let addr = server.addr();
    fault::set(fault::SERVE_WRITE, FaultAction::Partial(3), Trigger::Always);

    let reference = reference();
    let mut client = Client::connect(addr).expect("connect");
    for (req, want) in reference.iter().take(12) {
        match client.query(req).expect("query transport") {
            QueryReply::Ids(ids) => assert_eq!(&ids, want, "truncated response for {req:?}"),
            QueryReply::Error { code, message, .. } => {
                panic!("unexpected error under partial writes: {code:?} {message}")
            }
            other => panic!("engine never answers these requests with {other:?}"),
        }
    }
    assert!(
        fault::fired(fault::SERVE_WRITE) >= 12,
        "partial-write action never fired"
    );

    fault::clear();
    await_balanced_ledger(&server, "partial_writes");
    server.shutdown();
}

/// One seeded schedule: 2–3 sites armed with actions and triggers drawn
/// from the seed's splitmix64 stream.
fn arm_schedule(seed: u64) -> String {
    let mut r = mix64(seed ^ 0x5eed_f001);
    let mut desc = String::new();
    let mut arm = |site: &str, action: FaultAction, trigger: Trigger| {
        fault::set(site, action, trigger);
        desc.push_str(&format!("{site}={action:?}[{trigger:?}]; "));
    };

    // Always one socket-level fault (the retry client's bread and butter).
    r = mix64(r);
    match r % 3 {
        0 => arm(
            fault::SERVE_READ,
            FaultAction::Err,
            Trigger::Prob {
                per_mille: 60 + (r >> 32) as u16 % 120,
                seed: r,
            },
        ),
        1 => arm(
            fault::SERVE_WRITE,
            FaultAction::Disconnect,
            Trigger::Every(7 + (r >> 16) % 6),
        ),
        _ => arm(
            fault::SERVE_WRITE,
            FaultAction::Partial(1 + (r >> 8) as usize % 6),
            Trigger::Every(2),
        ),
    }

    // Always one engine-level fault.
    r = mix64(r);
    match r % 3 {
        0 => arm(
            fault::DECODE_LOD,
            FaultAction::Err,
            Trigger::Prob {
                per_mille: 40 + (r >> 32) as u16 % 80,
                seed: r,
            },
        ),
        1 => arm(fault::CACHE_INSERT, FaultAction::Err, Trigger::Every(3)),
        // A helper declining its claim: the batch executor's caller
        // participant still has to complete the region alone.
        _ => arm(
            fault::POOL_DISPATCH,
            FaultAction::Err,
            Trigger::Every(4 + (r >> 16) % 4),
        ),
    }

    // Sometimes a contained panic in the executor.
    r = mix64(r);
    if r % 2 == 0 {
        arm(
            fault::SERVE_EXEC,
            FaultAction::Panic,
            Trigger::Nth(3 + (r >> 24) % 9),
        );
    }
    desc
}

/// The sweep: every seeded schedule must drain with a balanced ledger,
/// no hang, and only correct-or-failed outcomes (never corrupted ones).
#[test]
fn seeded_fault_schedules_drain_clean() {
    let _guard = serial();
    fault::clear();

    let seeds: u64 = std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);

    let reference = reference();
    for i in 0..seeds {
        let seed = mix64(0xC4A0_5000 + i);
        let schedule = arm_schedule(seed);
        let _wd = Watchdog::arm(
            format!("seed {i} ({seed:#x}): {schedule}"),
            Duration::from_secs(180),
        );
        let server = start_server();
        let addr = server.addr();

        let mut resolved = 0u64;
        let mut failed = 0u64;
        let mut exhausted = 0u64;
        let mut client = connect_retrying(addr, seed);
        for (req, want) in reference.iter() {
            let Some(c) = client.as_mut() else { break };
            match c.query(req) {
                Ok((QueryReply::Ids(ids), _)) => {
                    // The core chaos invariant: a request that resolves
                    // must resolve *correctly*, retries and all.
                    assert_eq!(&ids, want, "seed {i}: corrupted result ({schedule})");
                    resolved += 1;
                }
                Ok((QueryReply::Error { .. }, _)) => failed += 1,
                Ok((other, _)) => {
                    panic!("engine never answers these requests with {other:?}")
                }
                Err(_) => {
                    // Retry budget exhausted: reconnect and move on.
                    exhausted += 1;
                    client = connect_retrying(addr, mix64(seed ^ exhausted));
                }
            }
        }
        drop(client);

        // Tear down while still armed? No: clear first so drain paths and
        // the final probe run fault-free.
        fault::clear();
        await_balanced_ledger(&server, &format!("seed {i} ({schedule})"));

        // The server must still serve correct results on a clean line.
        let mut probe = Client::connect(addr).expect("post-chaos connect");
        let (req, want) = &reference[0];
        let got = probe.query(req).expect("post-chaos query");
        assert_eq!(
            got.ids(),
            Some(want.as_slice()),
            "seed {i}: server degraded after chaos ({schedule})"
        );
        server.shutdown();
        assert_pool_alive();

        eprintln!(
            "[chaos] seed {i}: {resolved} resolved, {failed} failed, \
             {exhausted} exhausted ({schedule})"
        );
        assert!(
            resolved > 0,
            "seed {i}: nothing resolved — schedule too hostile to be useful ({schedule})"
        );
    }
}

// ---------------------------------------------------------------------
// Sharded scatter-gather chaos: a coordinator fronting loopback shards
// ---------------------------------------------------------------------

/// In-process 3-shard cluster built from fresh seeded stores (the shared
/// `stores()` keep their `Arc`s, so the cluster rebuilds its own source
/// objects to partition).
fn start_cluster() -> (Arc<ObjectStore>, Vec<Server>, Coordinator) {
    let block = tripro_synth::generate(&DatasetConfig {
        nuclei_count: 12,
        vessel_count: 0,
        seed: 0x00C4_05C1,
        ..Default::default()
    });
    let target =
        Arc::new(ObjectStore::build(&block.nuclei_a, &StoreConfig::default()).expect("encode a"));
    let objects = ObjectStore::build(&block.nuclei_b, &StoreConfig::default())
        .expect("encode b")
        .into_objects();
    let map = ShardMap::new(1, ShardMap::cell_for(&target), 3);
    let source_total = objects.len() as u64;
    let mut shards = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..3 {
        let full = ObjectStore::from_objects(objects.clone(), 32 << 20);
        let (local, ids) = partition_source(full, &map, i, 32 << 20);
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            shard: Some(ShardView {
                map,
                index: i,
                source_total,
            }),
            source_ids: Some(ids),
            ..Default::default()
        };
        let s = Server::start(Arc::clone(&target), Arc::new(local), cfg).expect("start shard");
        addrs.push(s.addr().to_string());
        shards.push(s);
    }
    let coord = Coordinator::start(
        Arc::clone(&target),
        CoordinatorConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: addrs,
            epoch: 1,
            ..Default::default()
        },
    )
    .expect("start coordinator");
    (target, shards, coord)
}

fn await_balanced_coordinator(coord: &Coordinator, context: &str) {
    await_balanced(|| coord.stats(), &format!("{context} (coordinator)"));
}

/// Disconnect-mid-join chaos for the sharded tier: with `serve.read` and
/// `serve.write` failpoints periodically killing connections on every
/// node (shard engines *and* coordinator), scatter-gather queries must
/// resolve correctly or fail with a typed error — never hang, never
/// corrupt — and every admission ledger must balance after the run.
#[test]
fn shard_disconnects_mid_join_degrade_typed_and_ledgers_balance() {
    let _guard = serial();
    fault::clear();
    let _wd = Watchdog::arm(
        "shard disconnects mid-join".into(),
        Duration::from_secs(180),
    );

    let (target, shards, coord) = start_cluster();
    let addr = coord.addr();

    // Fault-free reference, computed through the coordinator itself.
    let mut reference = Vec::new();
    {
        let mut c = Client::connect(addr).expect("reference connect");
        for t in 0..target.len() as u32 {
            for req in [
                Request::Intersect {
                    target: t,
                    deadline_ms: u32::MAX,
                },
                Request::Nn {
                    target: t,
                    deadline_ms: u32::MAX,
                },
                Request::Knn {
                    target: t,
                    k: 3,
                    deadline_ms: u32::MAX,
                },
            ] {
                let want = match c.query(&req).expect("reference query") {
                    QueryReply::Ids(ids) => ids,
                    other => panic!("fault-free cluster answered {other:?}"),
                };
                reference.push((req, want));
            }
        }
    }

    fault::set(
        fault::SERVE_READ,
        FaultAction::Disconnect,
        Trigger::Every(5),
    );
    fault::set(fault::SERVE_WRITE, FaultAction::Err, Trigger::Every(7));

    let mut resolved = 0u64;
    let mut failed = 0u64;
    let mut exhausted = 0u64;
    let mut client = connect_retrying(addr, 0x00C4_05C2);
    for (req, want) in &reference {
        let Some(c) = client.as_mut() else { break };
        match c.query(req) {
            Ok((QueryReply::Ids(ids), _)) => {
                assert_eq!(&ids, want, "corrupted scatter-gather result for {req:?}");
                resolved += 1;
            }
            Ok((QueryReply::Error { .. }, _)) => failed += 1,
            Ok((other, _)) => panic!("unexpected reply {other:?}"),
            Err(_) => {
                exhausted += 1;
                client = connect_retrying(addr, mix64(0x00C4_05C3 ^ exhausted));
            }
        }
    }
    drop(client);
    assert!(
        fault::fired(fault::SERVE_READ) > 0,
        "disconnect schedule never fired"
    );

    fault::clear();
    await_balanced_coordinator(&coord, "shard disconnects");
    for (i, s) in shards.iter().enumerate() {
        await_balanced_ledger(s, &format!("shard {i} after disconnect chaos"));
    }

    // A clean line through the whole tier must still answer correctly.
    let mut probe = Client::connect(addr).expect("post-chaos connect");
    let (req, want) = &reference[0];
    let got = probe.query(req).expect("post-chaos query");
    assert_eq!(
        got.ids(),
        Some(want.as_slice()),
        "cluster degraded after chaos"
    );

    coord.shutdown();
    for s in shards {
        s.shutdown();
    }
    assert_pool_alive();

    eprintln!(
        "[chaos] cluster: {resolved} resolved, {failed} failed, {exhausted} exhausted \
         of {} requests",
        reference.len()
    );
    assert!(resolved > 0, "nothing resolved — schedule too hostile");
}

/// A shard process dying outright (not just flaky I/O) must degrade to a
/// typed error within the request deadline — the "no hang" acceptance
/// condition — and the coordinator must keep serving afterwards.
#[test]
fn dead_shard_yields_typed_error_within_deadline() {
    let _guard = serial();
    fault::clear();
    let _wd = Watchdog::arm("dead shard".into(), Duration::from_secs(120));

    let (_target, mut shards, coord) = start_cluster();
    let addr = coord.addr();

    // Kill the middle shard after startup validation succeeded.
    shards.remove(1).shutdown();

    let mut c = Client::connect(addr).expect("connect");
    let t0 = Instant::now();
    // NN scatters to all shards, so it must route through the corpse.
    match c
        .query(&Request::Nn {
            target: 0,
            deadline_ms: 5_000,
        })
        .expect("transport must survive a dead backend")
    {
        QueryReply::Error { code, .. } => {
            assert!(
                matches!(
                    code,
                    ErrorCode::Internal | ErrorCode::DeadlineExceeded | ErrorCode::Overloaded
                ),
                "dead shard surfaced as {code:?}"
            );
        }
        other => panic!("dead shard must fail the scatter, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "dead-shard error took {:?} — deadline not enforced",
        t0.elapsed()
    );

    // Queries routed only to live shards must still succeed.
    let mut health = Client::connect(addr).expect("reconnect");
    health.health().expect("coordinator must stay live");

    await_balanced_coordinator(&coord, "dead shard");
    coord.shutdown();
    for s in shards {
        s.shutdown();
    }
    assert_pool_alive();
}
