//! `tripro-load` — load generator for a running `tripro serve` instance.
//!
//! ```sh
//! tripro serve --target A --source B --addr 127.0.0.1:3750 &
//! tripro-load --addr 127.0.0.1:3750 --clients 8 --requests 200
//! # -> target/harness/BENCH_serve.json
//! ```
//!
//! Two driving modes:
//!
//! * **closed-loop** (default): each of `--clients` connections issues its
//!   next request as soon as the previous one completes — measures service
//!   capacity under full concurrency.
//! * **open-loop** (`--rate RPS`): requests are scheduled on a fixed global
//!   arrival clock split across clients, regardless of completions — the
//!   arrival process the admission controller is designed for. Under an
//!   offered rate beyond capacity the server must shed (`Overloaded`), not
//!   collapse.
//!
//! `Overloaded` and `DeadlineExceeded` replies are expected outcomes and
//! counted separately; transport or protocol failures make the run exit
//! nonzero. The JSON summary (hand-rolled, the workspace is
//! dependency-free) lands in `target/harness/BENCH_serve.json`.

use std::time::{Duration, Instant};
use tripro::obs::{MetricSnapshot, MetricValue};
use tripro_serve::{Client, ErrorCode, QueryReply, Request, RetryPolicy, RetryingClient};

/// Request kinds the generator can mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Contains,
    Intersect,
    Within,
    Nn,
    Knn,
}

impl OpKind {
    fn parse(s: &str) -> Option<OpKind> {
        Some(match s {
            "contains" => OpKind::Contains,
            "intersect" => OpKind::Intersect,
            "within" => OpKind::Within,
            "nn" => OpKind::Nn,
            "knn" => OpKind::Knn,
            _ => return None,
        })
    }
}

/// Per-thread outcome tally.
#[derive(Default)]
struct Tally {
    ok: u64,
    /// Successful replies flagged partial (a shard failed under a
    /// coordinator's `--allow-partial` kNN).
    partial: u64,
    overloaded: u64,
    deadline_expired: u64,
    errors: u64,
    /// Retries spent across all requests (transient failures re-attempted).
    retries: u64,
    /// Reconnects after transport-level resets.
    reconnects: u64,
    /// Requests still `Overloaded` after their whole retry budget.
    gave_up: u64,
    /// Replies compared against the `--verify` reference endpoint.
    verified: u64,
    /// Compared replies that diverged from the reference (fails the run).
    mismatches: u64,
    /// Total backoff slept across all retries, seconds.
    retry_backoff_s: f64,
    /// First-attempt latencies (requests answered without a retry),
    /// seconds — comparable across runs regardless of retry policy.
    latencies: Vec<f64>,
    /// Wall-clock per request including retries and backoff, seconds.
    all_latencies: Vec<f64>,
}

struct Args {
    /// Endpoints to drive; clients round-robin across them. One entry for
    /// a single engine or coordinator, several to spread load over shards.
    addrs: Vec<String>,
    clients: usize,
    requests: usize,
    rate: f64,
    deadline_ms: u32,
    within_d: f64,
    knn_k: u32,
    mix: Vec<OpKind>,
    retries: u32,
    retry_base_ms: u64,
    retry_max_ms: u64,
    seed: u64,
    shutdown: bool,
    /// Reference endpoint: every successful reply from the driven
    /// endpoint is compared against this one's answer for the same
    /// request; any divergence fails the run. The byte-identity gate for
    /// a coordinator fronting shards vs a single engine.
    verify: Option<String>,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        addrs: vec!["127.0.0.1:3750".to_string()],
        clients: 4,
        requests: 100,
        rate: 0.0,
        deadline_ms: u32::MAX,
        within_d: 1.0,
        knn_k: 3,
        mix: vec![
            OpKind::Intersect,
            OpKind::Within,
            OpKind::Nn,
            OpKind::Knn,
            OpKind::Contains,
        ],
        retries: 4,
        retry_base_ms: 10,
        retry_max_ms: 2_000,
        seed: 0x3D50,
        shutdown: false,
        verify: None,
        out: "target/harness/BENCH_serve.json".to_string(),
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let val = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--addr" => {
                a.addrs = val(&mut i)?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if a.addrs.is_empty() {
                    return Err("--addr needs at least one host:port".to_string());
                }
            }
            "--clients" => a.clients = val(&mut i)?.parse().map_err(|_| "bad --clients")?,
            "--requests" => a.requests = val(&mut i)?.parse().map_err(|_| "bad --requests")?,
            "--rate" => a.rate = val(&mut i)?.parse().map_err(|_| "bad --rate")?,
            "--deadline-ms" => {
                a.deadline_ms = val(&mut i)?.parse().map_err(|_| "bad --deadline-ms")?;
            }
            "--within-d" => a.within_d = val(&mut i)?.parse().map_err(|_| "bad --within-d")?,
            "--k" => a.knn_k = val(&mut i)?.parse().map_err(|_| "bad --k")?,
            "--mix" => {
                let spec = val(&mut i)?;
                a.mix = spec
                    .split(',')
                    .map(|s| OpKind::parse(s.trim()).ok_or_else(|| format!("bad op {s:?}")))
                    .collect::<Result<_, _>>()?;
                if a.mix.is_empty() {
                    return Err("--mix needs at least one op".to_string());
                }
            }
            "--retries" => a.retries = val(&mut i)?.parse().map_err(|_| "bad --retries")?,
            "--retry-base-ms" => {
                a.retry_base_ms = val(&mut i)?.parse().map_err(|_| "bad --retry-base-ms")?;
            }
            "--retry-max-ms" => {
                a.retry_max_ms = val(&mut i)?.parse().map_err(|_| "bad --retry-max-ms")?;
            }
            "--seed" => a.seed = val(&mut i)?.parse().map_err(|_| "bad --seed")?,
            "--shutdown" => a.shutdown = true,
            "--verify" => a.verify = Some(val(&mut i)?),
            "--out" => a.out = val(&mut i)?,
            "--help" | "-h" => {
                eprintln!(
                    "usage: tripro-load --addr HOST:PORT[,HOST:PORT...] [--clients N] [--requests R] \
                     [--rate RPS] [--deadline-ms MS] [--mix a,b,...] [--within-d D] \
                     [--k K] [--retries N] [--retry-base-ms MS] [--retry-max-ms MS] \
                     [--seed S] [--shutdown] [--verify HOST:PORT] [--out FILE]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    if a.clients == 0 || a.requests == 0 {
        return Err("--clients and --requests must be positive".to_string());
    }
    Ok(a)
}

/// Deterministic request stream: splitmix64 over (client, seq).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn request_for(a: &Args, n_targets: u64, client: usize, seq: usize) -> Request {
    let r = mix64(((client as u64) << 32) ^ seq as u64);
    let kind = a.mix[seq % a.mix.len()];
    let target = (r % n_targets.max(1)) as u32;
    let deadline_ms = a.deadline_ms;
    match kind {
        OpKind::Intersect => Request::Intersect {
            target,
            deadline_ms,
        },
        OpKind::Within => Request::Within {
            target,
            d: a.within_d,
            deadline_ms,
        },
        OpKind::Nn => Request::Nn {
            target,
            deadline_ms,
        },
        OpKind::Knn => Request::Knn {
            target,
            k: a.knn_k,
            deadline_ms,
        },
        OpKind::Contains => {
            // A pseudo-random probe point in a unit-ish cube; misses are as
            // informative as hits for service latency.
            let f = |v: u64| (v & 0xFFFF) as f64 / 65536.0 * 4.0 - 2.0;
            Request::Contains {
                p: [f(r), f(r >> 16), f(r >> 32)],
                deadline_ms,
            }
        }
    }
}

fn drive_client(a: &Args, n_targets: u64, client: usize, start: Instant) -> Result<Tally, String> {
    let policy = RetryPolicy {
        max_retries: a.retries,
        base_backoff: Duration::from_millis(a.retry_base_ms),
        max_backoff: Duration::from_millis(a.retry_max_ms),
        // Per-client jitter streams stay disjoint but seed-deterministic.
        seed: a.seed ^ ((client as u64) << 17),
    };
    // Round-robin endpoint assignment: client i drives endpoint i mod N.
    let addr = &a.addrs[client % a.addrs.len()];
    let mut c =
        RetryingClient::connect(addr, policy.clone()).map_err(|e| format!("connect: {e}"))?;
    let mut verify = match &a.verify {
        Some(v) => {
            Some(RetryingClient::connect(v, policy).map_err(|e| format!("verify connect: {e}"))?)
        }
        None => None,
    };
    let mut t = Tally::default();
    // Open-loop: this client owns every a.clients-th slot of the global
    // arrival clock.
    let interval = (a.rate > 0.0).then(|| Duration::from_secs_f64(a.clients as f64 / a.rate));
    for seq in 0..a.requests {
        if let Some(iv) = interval {
            let due = start + iv.mul_f64(seq as f64) + iv.mul_f64(client as f64 / a.clients as f64);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let req = request_for(a, n_targets, client, seq);
        let t0 = Instant::now();
        match c.query(&req) {
            Ok((reply, oc)) => {
                t.retries += u64::from(oc.retries);
                t.reconnects += u64::from(oc.reconnects);
                t.retry_backoff_s += oc.backoff.as_secs_f64();
                let elapsed = t0.elapsed().as_secs_f64();
                t.all_latencies.push(elapsed);
                if oc.attempts == 1 {
                    t.latencies.push(elapsed);
                }
                // Byte-identity gate: a complete (non-partial) answer must
                // match the reference endpoint's answer exactly.
                if let (Some(v), Some(ids)) = (verify.as_mut(), reply.ids()) {
                    if !matches!(reply, QueryReply::PartialIds(_)) {
                        match v.query(&req) {
                            Ok((vreply, _)) => {
                                t.verified += 1;
                                if vreply.ids() != Some(ids) {
                                    t.mismatches += 1;
                                    eprintln!(
                                        "[tripro-load] MISMATCH on {req:?}: {:?} vs reference \
                                         {:?}",
                                        reply, vreply
                                    );
                                }
                            }
                            Err(e) => return Err(format!("verify endpoint died: {e}")),
                        }
                    }
                }
                match reply {
                    QueryReply::Ids(_) | QueryReply::Scored { partial: false, .. } => t.ok += 1,
                    QueryReply::PartialIds(_) | QueryReply::Scored { partial: true, .. } => {
                        t.ok += 1;
                        t.partial += 1;
                    }
                    QueryReply::Error { code, .. } => match code {
                        ErrorCode::Overloaded => {
                            t.overloaded += 1;
                            if oc.retries > 0 {
                                t.gave_up += 1;
                            }
                        }
                        ErrorCode::DeadlineExceeded => t.deadline_expired += 1,
                        _ => {
                            t.errors += 1;
                            eprintln!("[tripro-load] server error: {code:?}");
                        }
                    },
                }
            }
            Err(e) => return Err(format!("client {client} seq {seq}: {e}")),
        }
    }
    Ok(t)
}

/// `(sum, count)` of one metric family over a `Metrics` snapshot (a
/// counter contributes its value as `sum`). On a coordinator's federated
/// snapshot only the exact `node="cluster"` aggregates are taken, so
/// nothing is counted once per node and once more in the total.
fn family_total(snapshot: &[MetricSnapshot], family: &str) -> (f64, f64) {
    let mut total = (0.0, 0.0);
    for s in snapshot.iter().filter(|s| s.name == family) {
        if s.labels.contains("node=") && !s.labels.contains("node=\"cluster\"") {
            continue;
        }
        match &s.value {
            MetricValue::Counter(v) => total.0 += *v as f64,
            MetricValue::Histogram(h) => {
                total.0 += h.sum as f64;
                total.1 += h.count as f64;
            }
        }
    }
    total
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tripro-load: {e}");
            std::process::exit(2);
        }
    };

    // Learn the store size (for valid target ids) and prove liveness of
    // every endpoint before spending any load.
    let n_targets = {
        let mut n = 0u64;
        for addr in &a.addrs {
            let mut probe = match Client::connect(addr) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("tripro-load: cannot connect to {addr}: {e}");
                    std::process::exit(1);
                }
            };
            match probe.shard_info() {
                Ok(s) => n = s.target_objects,
                Err(e) => {
                    eprintln!("tripro-load: shard-info probe failed for {addr}: {e}");
                    std::process::exit(1);
                }
            }
        }
        n
    };

    let start = Instant::now();
    let mut tallies: Vec<Result<Tally, String>> = Vec::new();
    let args = &a;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|client| scope.spawn(move || drive_client(args, n_targets, client, start)))
            .collect();
        for h in handles {
            tallies.push(h.join().unwrap_or_else(|_| Err("client panicked".into())));
        }
    });
    let elapsed = start.elapsed().as_secs_f64();

    let mut total = Tally::default();
    let mut transport_failures = 0u64;
    for t in tallies {
        match t {
            Ok(t) => {
                total.ok += t.ok;
                total.partial += t.partial;
                total.overloaded += t.overloaded;
                total.deadline_expired += t.deadline_expired;
                total.errors += t.errors;
                total.retries += t.retries;
                total.reconnects += t.reconnects;
                total.gave_up += t.gave_up;
                total.verified += t.verified;
                total.mismatches += t.mismatches;
                total.retry_backoff_s += t.retry_backoff_s;
                total.latencies.extend(t.latencies);
                total.all_latencies.extend(t.all_latencies);
            }
            Err(e) => {
                transport_failures += 1;
                eprintln!("[tripro-load] {e}");
            }
        }
    }
    total
        .latencies
        .sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
    total
        .all_latencies
        .sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
    let answered = total.all_latencies.len() as u64;
    // Percentiles over first-attempt latencies stay comparable across
    // runs regardless of retry policy; p99_with_retries is the client-felt
    // tail including re-attempts and backoff sleeps.
    let lat_ms = |q: f64| percentile(&total.latencies, q) * 1e3;
    let p99_with_retries_ms = percentile(&total.all_latencies, 0.99) * 1e3;
    let max_ms = total.all_latencies.last().copied().unwrap_or(0.0) * 1e3;
    let mode = if a.rate > 0.0 { "open" } else { "closed" };

    eprintln!(
        "[tripro-load] {} mode, {} clients x {} requests in {elapsed:.3}s \
         ({:.1} rps answered)",
        mode,
        a.clients,
        a.requests,
        answered as f64 / elapsed.max(1e-9)
    );
    eprintln!(
        "[tripro-load] ok={} overloaded={} deadline_expired={} errors={} \
         p50={:.2}ms p90={:.2}ms p99={:.2}ms max={:.2}ms",
        total.ok,
        total.overloaded,
        total.deadline_expired,
        total.errors,
        lat_ms(0.50),
        lat_ms(0.90),
        lat_ms(0.99),
        max_ms
    );
    eprintln!(
        "[tripro-load] retries={} reconnects={} gave_up={} \
         backoff={:.3}s p99_with_retries={:.2}ms",
        total.retries, total.reconnects, total.gave_up, total.retry_backoff_s, p99_with_retries_ms
    );

    // Scatter-gather columns: scrape the first endpoint (the coordinator
    // when one fronts the cluster) for fan-out, merge-latency and
    // per-shard error metrics. A plain engine reports all zeros.
    let (fanout_avg, fanout_queries, merge_ms_avg, shard_errors) = {
        let snapshot = Client::connect(&a.addrs[0])
            .and_then(|mut c| c.metrics())
            .unwrap_or_default();
        let (fo_sum, fo_count) = family_total(&snapshot, "tripro_shard_fanout");
        let (mg_ns, mg_count) = family_total(&snapshot, "tripro_merge_seconds");
        let (errs, _) = family_total(&snapshot, "tripro_shard_errors_total");
        (
            fo_sum / fo_count.max(1.0),
            fo_count as u64,
            mg_ns / 1e6 / mg_count.max(1.0),
            errs as u64,
        )
    };
    if fanout_queries > 0 {
        eprintln!(
            "[tripro-load] coordinator: {} fanned-out queries, avg fanout {:.2}, \
             avg merge {:.3}ms, {} shard errors, {} partial replies",
            fanout_queries, fanout_avg, merge_ms_avg, shard_errors, total.partial
        );
    }

    if a.shutdown {
        for addr in &a.addrs {
            match Client::connect(addr).and_then(|mut c| c.shutdown_server()) {
                Ok(()) => eprintln!("[tripro-load] {addr}: shutdown acknowledged"),
                Err(e) => {
                    eprintln!("[tripro-load] {addr}: shutdown failed: {e}");
                    transport_failures += 1;
                }
            }
        }
    }

    // -1 encodes "no per-request deadline" in the artifact.
    let deadline_field: i64 = if a.deadline_ms == u32::MAX {
        -1
    } else {
        i64::from(a.deadline_ms)
    };
    let json = format!(
        concat!(
            "{{\"addr\":\"{}\",\"endpoints\":{},\"mode\":\"{}\",\"clients\":{},",
            "\"requests_per_client\":{},",
            "\"offered_rate\":{:.3},\"deadline_ms\":{},\"seconds\":{:.6},",
            "\"answered\":{},\"ok\":{},\"partial\":{},\"overloaded\":{},\"deadline_expired\":{},",
            "\"errors\":{},\"transport_failures\":{},\"retries\":{},\"reconnects\":{},",
            "\"gave_up\":{},\"retry_budget\":{},\"retry_backoff_s\":{:.6},",
            "\"throughput_rps\":{:.3},\"p50_ms\":{:.4},\"p90_ms\":{:.4},\"p99_ms\":{:.4},",
            "\"p99_with_retries_ms\":{:.4},\"max_ms\":{:.4},",
            "\"fanout_queries\":{},\"fanout_avg\":{:.4},\"merge_ms_avg\":{:.4},",
            "\"shard_errors\":{},\"verified\":{},\"mismatches\":{}}}\n"
        ),
        a.addrs.join(","),
        a.addrs.len(),
        mode,
        a.clients,
        a.requests,
        a.rate,
        deadline_field,
        elapsed,
        answered,
        total.ok,
        total.partial,
        total.overloaded,
        total.deadline_expired,
        total.errors,
        transport_failures,
        total.retries,
        total.reconnects,
        total.gave_up,
        a.retries,
        total.retry_backoff_s,
        answered as f64 / elapsed.max(1e-9),
        lat_ms(0.50),
        lat_ms(0.90),
        lat_ms(0.99),
        p99_with_retries_ms,
        max_ms,
        fanout_queries,
        fanout_avg,
        merge_ms_avg,
        shard_errors,
        total.verified,
        total.mismatches
    );
    if let Some(dir) = std::path::Path::new(&a.out).parent() {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(&a.out, &json).expect("write BENCH_serve.json");
    eprintln!("[tripro-load] wrote {}", a.out);
    println!("{json}");

    if a.verify.is_some() {
        eprintln!(
            "[tripro-load] verify: {} replies compared, {} mismatches",
            total.verified, total.mismatches
        );
    }
    if total.errors > 0 || transport_failures > 0 || total.mismatches > 0 {
        std::process::exit(1);
    }
}
