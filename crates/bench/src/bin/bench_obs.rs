//! Observability overhead guard: the same join workload with span tracing
//! disabled vs enabled, interleaved, emitted as `BENCH_obs.json`.
//!
//! ```sh
//! TRIPRO_SCALE=tiny cargo run --release -p tripro-bench --bin bench_obs
//! # -> target/harness/BENCH_obs.json
//! ```
//!
//! Registry metrics are always on (they are part of both baselines); what
//! this guard bounds is the *marginal* cost of span tracing — the budget in
//! `docs/observability.md` is under 2% on the join workload. Each side of
//! a rep repeats the join until it has run for at least [`MIN_SIDE`], the
//! sides are interleaved off/on so thermal or cache drift hits both
//! equally, and the overhead is the median of the paired per-rep ratios
//! (pairing cancels the drift a rep's sides share; medians shrug off a
//! single noisy rep where means do not). Each rep also times the disabled
//! side twice: when those two identical sides differ by more than the
//! budget across reps, the host is too noisy to resolve it and the verdict
//! is `UNRESOLVED`, not a pass or a failure.
//!
//! The same guard also bounds the fault-injection gate ([`tripro::fault`]):
//! one leg runs with a failpoint armed on an *unused* site, which forces
//! every instrumented hot-path site down its registry-lookup slow path
//! (the worst case short of actually injecting faults). Both the fully
//! disarmed gate (baseline) and the armed-on-miss case must stay inside
//! the same <2% budget.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tripro::fault::{self, FaultAction, Trigger};
use tripro::obs;
use tripro::{Accel, ObjectStore, Paradigm, StoreConfig, TraceConfig};
use tripro_bench::harness::{threads, Scale, TestId, Workloads};
use tripro_serve::{
    partition_source, Client, Coordinator, CoordinatorConfig, Request, ServeConfig, Server,
    ShardMap, ShardView, TraceContext,
};

/// Overhead budget for enabled span tracing, in percent.
const BUDGET_PCT: f64 = 2.0;
/// Interleaved repetitions per side.
const REPS: usize = 5;
/// Shortest timed span of one side of a rep: a single join at the CI scale
/// takes a few milliseconds, far too little to resolve 2%.
const MIN_SIDE: Duration = Duration::from_millis(100);
/// Shard fanout of the distributed leg's loopback cluster.
const CLUSTER_SHARDS: u32 = 3;

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    xs.get(xs.len() / 2).copied().unwrap_or(0.0)
}

/// Seconds per run of `once` (which returns its own timed seconds),
/// repeated until the runs add up to at least [`MIN_SIDE`].
fn per_run(mut once: impl FnMut() -> f64) -> f64 {
    let (mut total, mut n) = (0.0, 0u32);
    while total < MIN_SIDE.as_secs_f64() && n < 100_000 {
        total += once();
        n += 1;
    }
    total / f64::from(n.max(1))
}

/// The per-rep ratios `b[i] / a[i] − 1`, in percent.
fn paired_pct(b: &[f64], a: &[f64]) -> Vec<f64> {
    b.iter()
        .zip(a)
        .filter(|&(_, &a)| a > 0.0)
        .map(|(&b, &a)| (b - a) / a * 100.0)
        .collect()
}

/// A loopback 3-shard cluster over the harness stores, for the
/// distributed tracing leg: shards + coordinator in-process, queried over
/// real TCP so trace propagation pays its true wire cost.
struct LoopCluster {
    shards: Vec<Server>,
    coord: Coordinator,
    n_targets: u32,
}

impl LoopCluster {
    fn start(w: &Workloads) -> LoopCluster {
        const CACHE: usize = 64 << 20;
        let store_cfg = StoreConfig::default();
        let target =
            Arc::new(ObjectStore::build(&w.raw_nuclei_a, &store_cfg).expect("encode target"));
        let source_objects = ObjectStore::build(&w.raw_nuclei_b, &store_cfg)
            .expect("encode source")
            .into_objects();
        let map = ShardMap::new(1, ShardMap::cell_for(&target), CLUSTER_SHARDS);
        let source_total = source_objects.len() as u64;
        let mut shards = Vec::new();
        let mut addrs = Vec::new();
        for i in 0..CLUSTER_SHARDS {
            let full = ObjectStore::from_objects(source_objects.clone(), CACHE);
            let (local, ids) = partition_source(full, &map, i, CACHE);
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
        let n_targets = target.len() as u32;
        LoopCluster {
            shards,
            coord,
            n_targets,
        }
    }

    /// One pass of kNN joins over every target, optionally traced.
    fn run(&self, client: &mut Client, trace: Option<&TraceContext>) -> f64 {
        let t0 = Instant::now();
        for t in 0..self.n_targets {
            client
                .query_traced(
                    &Request::Knn {
                        target: t,
                        k: 3,
                        deadline_ms: u32::MAX,
                    },
                    trace,
                )
                .expect("cluster query");
        }
        t0.elapsed().as_secs_f64()
    }

    fn shutdown(self) {
        self.coord.shutdown();
        for s in self.shards {
            s.shutdown();
        }
    }
}

fn main() {
    let scale = Scale::from_env();
    let n_threads = threads();
    let w = Workloads::generate(scale);
    let test = TestId::IntNN;
    let paradigm = Paradigm::FilterProgressiveRefine;
    let accel = Accel::Aabb;
    let lods = w.profile_lods(test, accel);

    // A high slow threshold keeps the slow log empty (its sort is off the
    // hot path anyway, but the guard measures steady-state tracing, not
    // log churn).
    obs::tracer().configure(&TraceConfig {
        enabled: false,
        slow_threshold: Duration::from_secs(3600),
        ..TraceConfig::default()
    });

    let run = |enabled: bool| -> f64 {
        obs::tracer().set_enabled(enabled);
        w.clear_caches();
        let cell = w.run_with_threads(test, paradigm, accel, Some(lods.clone()), n_threads);
        obs::tracer().set_enabled(false);
        cell.seconds
    };
    // Arm a failpoint on a site no production code evaluates: `armed()`
    // flips true and every real site pays the registry-miss slow path.
    let run_fault_armed = || -> f64 {
        fault::set("bench.unused", FaultAction::Err, Trigger::Always);
        w.clear_caches();
        let cell = w.run_with_threads(test, paradigm, accel, Some(lods.clone()), n_threads);
        fault::clear();
        cell.seconds
    };

    // Warm all paths (allocators, decode cache shape, lazily-bound
    // metric handles) before timing.
    let _ = run(false);
    let _ = run(true);
    let _ = run_fault_armed();

    let mut off = Vec::with_capacity(REPS);
    let mut on = Vec::with_capacity(REPS);
    let mut fault_armed = Vec::with_capacity(REPS);
    let mut off_again = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let a = per_run(|| run(false));
        let b = per_run(|| run(true));
        let c = per_run(&run_fault_armed);
        let d = per_run(|| run(false));
        eprintln!(
            "[bench_obs] rep {rep} (s per join): disabled {a:.6}, enabled {b:.6}, \
             fault-armed {c:.6}, disabled again {d:.6}"
        );
        off.push(a);
        on.push(b);
        fault_armed.push(c);
        off_again.push(d);
    }

    // Distributed leg: the same budget applied to the cluster path —
    // trace-context propagation, per-shard stats summaries and coordinator
    // stitching must stay inside the tracing budget end to end. The
    // untraced side sends no trace context with the tracer disabled, so
    // the coordinator skips propagation entirely; the traced side samples
    // every request.
    let cluster = LoopCluster::start(&w);
    let mut client = Client::connect(cluster.coord.addr()).expect("connect coordinator");
    let ctx = TraceContext {
        trace_id: 0x0b5_0b5,
        sampled: true,
    };
    let run_cluster = |client: &mut Client, traced: bool| -> f64 {
        obs::tracer().set_enabled(traced);
        let s = cluster.run(client, traced.then_some(&ctx));
        obs::tracer().set_enabled(false);
        s
    };
    let _ = run_cluster(&mut client, false);
    let _ = run_cluster(&mut client, true);
    let mut cl_off = Vec::with_capacity(REPS);
    let mut cl_on = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let a = run_cluster(&mut client, false);
        let b = run_cluster(&mut client, true);
        eprintln!("[bench_obs] cluster rep {rep}: untraced {a:.4}s, traced {b:.4}s");
        cl_off.push(a);
        cl_on.push(b);
    }
    drop(client);
    cluster.shutdown();

    // Every overhead is the median of the *paired* per-rep ratios (each
    // side divided by the disabled side interleaved with it), not the ratio
    // of independent medians — pairing cancels the drift both sides share.
    // (Computed before `median` sorts the sides in place.)
    let overhead_pct = median(&mut paired_pct(&on, &off));
    let fault_overhead_pct = median(&mut paired_pct(&fault_armed, &off));
    let cluster_trace_overhead_pct = median(&mut paired_pct(&cl_on, &cl_off));
    // Two identical sides: the spread of their paired ratios is what the
    // host's noise alone does to a ratio.
    let noise = paired_pct(&off_again, &off);
    let noise_spread_pct = noise.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        - noise.iter().copied().fold(f64::INFINITY, f64::min);
    let resolved = noise_spread_pct <= BUDGET_PCT;
    let pass = overhead_pct < BUDGET_PCT
        && fault_overhead_pct < BUDGET_PCT
        && cluster_trace_overhead_pct < BUDGET_PCT;
    let verdict = match (resolved, pass) {
        (false, _) => "UNRESOLVED",
        (true, true) => "PASS",
        (true, false) => "OVER BUDGET",
    };
    let med_off = median(&mut off);
    let med_on = median(&mut on);
    let med_fault = median(&mut fault_armed);
    let med_cl_off = median(&mut cl_off);
    let med_cl_on = median(&mut cl_on);
    eprintln!(
        "[bench_obs] tracing overhead: {overhead_pct:+.2}% \
         (disabled {med_off:.6}s, enabled {med_on:.6}s per join, budget {BUDGET_PCT}%)"
    );
    eprintln!(
        "[bench_obs] fault-gate overhead (armed, registry miss): \
         {fault_overhead_pct:+.2}% ({med_fault:.6}s per join, budget {BUDGET_PCT}%)"
    );
    eprintln!(
        "[bench_obs] noise: disabled vs disabled paired ratios spread \
         {noise_spread_pct:.2}% (must be <= {BUDGET_PCT}% to resolve the budget)"
    );
    eprintln!(
        "[bench_obs] cluster tracing overhead (3-shard loopback, \
         propagation + stitching): {cluster_trace_overhead_pct:+.2}% \
         (untraced {med_cl_off:.4}s, traced {med_cl_on:.4}s, budget {BUDGET_PCT}%) -> {verdict}"
    );

    let json = format!(
        concat!(
            "{{\"scale\":\"{:?}\",\"threads\":{},\"test\":\"{}\",",
            "\"paradigm\":\"FPR\",\"accel\":\"AABB\",\"reps\":{},",
            "\"seconds_disabled\":{:.6},\"seconds_enabled\":{:.6},",
            "\"seconds_faults_armed\":{:.6},",
            "\"seconds_cluster\":{:.6},\"seconds_cluster_traced\":{:.6},",
            "\"overhead_pct\":{:.4},\"fault_overhead_pct\":{:.4},",
            "\"cluster_trace_overhead_pct\":{:.4},\"noise_spread_pct\":{:.4},",
            "\"budget_pct\":{:.1},\"resolved\":{},\"pass\":{},\"verdict\":\"{}\"}}\n"
        ),
        scale,
        n_threads,
        test.label(),
        REPS,
        med_off,
        med_on,
        med_fault,
        med_cl_off,
        med_cl_on,
        overhead_pct,
        fault_overhead_pct,
        cluster_trace_overhead_pct,
        noise_spread_pct,
        BUDGET_PCT,
        resolved,
        pass,
        verdict
    );
    let dir = std::path::Path::new("target/harness");
    std::fs::create_dir_all(dir).expect("create target/harness");
    let path = dir.join("BENCH_obs.json");
    std::fs::write(&path, &json).expect("write BENCH_obs.json");
    eprintln!("[bench_obs] wrote {}", path.display());
    println!("{json}");
}
