//! Loopback cluster end-to-end tests: a coordinator fronting in-process
//! shard engines must answer **byte-identically** to a single engine for
//! every join kind — the boundary-cuboid replication property test from
//! `docs/sharding.md`. Each shard holds the full target store plus its
//! boundary-replicated slice of the source store; the coordinator's merge
//! must union, deduplicate replicas exactly once, and preserve the
//! engine's (distance, id) ranking bit-for-bit.

use std::sync::Arc;
use tripro::{ObjectStore, StoreConfig, StoredObject};
use tripro_serve::{
    partition_source, Client, Coordinator, CoordinatorConfig, QueryReply, Request, ServeConfig,
    Server, ShardMap, ShardView,
};
use tripro_synth::DatasetConfig;

const CACHE: usize = 64 << 20;

/// Build seeded target/source stores and keep the raw source objects so
/// each shard (and the single-engine reference) can be cut from the same
/// compressed bytes.
fn build_stores(seed: u64) -> (Arc<ObjectStore>, Vec<StoredObject>) {
    let block = tripro_synth::generate(&DatasetConfig {
        nuclei_count: 18,
        vessel_count: 0,
        seed,
        ..Default::default()
    });
    let target = ObjectStore::build(&block.nuclei_a, &StoreConfig::default()).expect("encode a");
    let source = ObjectStore::build(&block.nuclei_b, &StoreConfig::default()).expect("encode b");
    (Arc::new(target), source.into_objects())
}

struct Cluster {
    shards: Vec<Server>,
    coord: Coordinator,
}

fn start_cluster(
    target: &Arc<ObjectStore>,
    source_objects: &[StoredObject],
    n: u32,
    epoch: u64,
) -> Cluster {
    let map = ShardMap::new(epoch, ShardMap::cell_for(target), n);
    let source_total = source_objects.len() as u64;
    let mut shards = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..n {
        let full = ObjectStore::from_objects(source_objects.to_vec(), CACHE);
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
        let s = Server::start(Arc::clone(target), Arc::new(local), cfg).expect("start shard");
        addrs.push(s.addr().to_string());
        shards.push(s);
    }
    let coord = Coordinator::start(
        Arc::clone(target),
        CoordinatorConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: addrs,
            epoch,
            ..Default::default()
        },
    )
    .expect("start coordinator");
    Cluster { shards, coord }
}

fn ids_of(reply: QueryReply) -> Vec<u32> {
    match reply {
        QueryReply::Ids(ids) => ids,
        QueryReply::Error { code, message, .. } => panic!("unexpected error {code:?}: {message}"),
        other => panic!("unexpected reply {other:?}"),
    }
}

/// The full request matrix for one target store: all four join kinds per
/// target object, plus a containment probe at each target's MBB centre.
fn request_matrix(target: &ObjectStore) -> Vec<Request> {
    let extent = target.rtree().bounds().extent();
    let d = extent.max_component() / 6.0;
    let mut reqs = Vec::new();
    for t in 0..target.len() as u32 {
        reqs.push(Request::Intersect {
            target: t,
            deadline_ms: u32::MAX,
        });
        reqs.push(Request::Within {
            target: t,
            d,
            deadline_ms: u32::MAX,
        });
        reqs.push(Request::Nn {
            target: t,
            deadline_ms: u32::MAX,
        });
        reqs.push(Request::Knn {
            target: t,
            k: 3,
            deadline_ms: u32::MAX,
        });
        let b = target.mbb(t);
        reqs.push(Request::Contains {
            p: [
                (b.lo.x + b.hi.x) / 2.0,
                (b.lo.y + b.hi.y) / 2.0,
                (b.lo.z + b.hi.z) / 2.0,
            ],
            deadline_ms: u32::MAX,
        });
    }
    reqs
}

/// The property test: across seeded stores, a scatter-gather cluster
/// answers every join kind byte-identically to a single engine serving the
/// unpartitioned stores — at three shards (replication, dedup, merge) and
/// at one, where the coordinator is a pass-through and its replies must
/// equal the bare server's frame for frame.
#[test]
fn cluster_matches_single_engine_for_all_join_kinds() {
    for (n_shards, seed) in [(1, 0x3D5A_0001u64), (3, 0x3D5A_0001), (3, 0x3D5A_0002)] {
        let (target, source_objects) = build_stores(seed);

        let single = Server::start(
            Arc::clone(&target),
            Arc::new(ObjectStore::from_objects(source_objects.clone(), CACHE)),
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                ..Default::default()
            },
        )
        .expect("start single engine");
        let cluster = start_cluster(&target, &source_objects, n_shards, 1);

        // Boundary replication must actually replicate: past one shard,
        // the shard-local counts sum past the global store (and never
        // exceed n x it).
        let mut replicated = 0u64;
        for s in &cluster.shards {
            let mut probe = Client::connect(s.addr()).expect("shard probe");
            let info = probe.shard_info().expect("shard info");
            assert_eq!(info.source_total, source_objects.len() as u64);
            replicated += info.source_objects;
        }
        assert!(
            n_shards == 1 || replicated > source_objects.len() as u64,
            "seed {seed:#x}: no boundary object was replicated — dedup is untested"
        );
        assert!(replicated <= u64::from(n_shards) * source_objects.len() as u64);

        let mut direct = Client::connect(single.addr()).expect("connect single");
        let mut sharded = Client::connect(cluster.coord.addr()).expect("connect coordinator");
        for req in request_matrix(&target) {
            let want = ids_of(direct.query(&req).expect("single-engine query"));
            let got = ids_of(sharded.query(&req).expect("cluster query"));
            assert_eq!(
                got, want,
                "{n_shards} shard(s), seed {seed:#x}: cluster diverged from single engine on {req:?}"
            );
        }
        if n_shards == 1 {
            // Same request id on a fresh connection to each: the raw reply
            // frames must be the same bytes.
            for req in request_matrix(&target) {
                let frame = tripro_serve::protocol::encode_request(77, &req);
                let [want, got] = [single.addr(), cluster.coord.addr()].map(|addr| {
                    use std::io::{Read, Write};
                    let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
                    raw.write_all(&frame).expect("write");
                    raw.shutdown(std::net::Shutdown::Write).expect("half-close");
                    let mut bytes = Vec::new();
                    raw.read_to_end(&mut bytes).expect("read reply");
                    bytes
                });
                assert!(!want.is_empty(), "no reply to {req:?}");
                assert_eq!(got, want, "one-shard reply bytes diverged on {req:?}");
            }
        }

        // Per-shard scatter metrics must be visible on the coordinator.
        let text = tripro::obs::render_snapshots(&sharded.metrics().expect("coordinator metrics"));
        for family in [
            "tripro_shard_fanout",
            "tripro_shard_subquery_seconds",
            "tripro_merge_seconds",
        ] {
            assert!(
                text.contains(family),
                "metrics exposition is missing {family}"
            );
        }

        let stats = cluster.coord.stats();
        assert_eq!(stats.failed, 0, "fault-free run must not fail ({stats:?})");
        assert_eq!(stats.admitted, stats.completed, "{stats:?}");

        cluster.coord.shutdown();
        for s in cluster.shards {
            s.shutdown();
        }
        single.shutdown();
    }
}

/// Cluster tracing, end to end: a traced join through a 3-shard cluster
/// must land in the coordinator's slow log as ONE stitched waterfall —
/// a single record, under the client's trace id, with a `shard` child
/// span for every shard that worked on the query — and the final reply
/// page must carry the aggregated stats summary back to the client.
#[test]
fn traced_cluster_query_stitches_one_waterfall_in_coordinator_slow_log() {
    use tripro::obs;

    let (target, source_objects) = build_stores(0x3D5A_0005);
    let cluster = start_cluster(&target, &source_objects, 3, 1);
    obs::tracer().configure(&tripro::TraceConfig {
        enabled: true,
        slow_threshold: std::time::Duration::ZERO,
        keep: 64,
    });

    // A distinctive id keeps this trace separable from records emitted by
    // tests sharing the process-global tracer.
    let trace = tripro_serve::TraceContext {
        trace_id: 0x7C0F_FEE0_3D5A_0005,
        sampled: true,
    };
    let mut c = Client::connect(cluster.coord.addr()).expect("connect coordinator");
    // A kNN join fans out to every shard.
    let (reply, summary) = c
        .query_traced(
            &Request::Knn {
                target: 0,
                k: 3,
                deadline_ms: u32::MAX,
            },
            Some(&trace),
        )
        .expect("traced cluster query");
    assert!(matches!(reply, QueryReply::Ids(_)), "got {reply:?}");
    // Exactly one stitched record: the coordinator's. (In-process shard
    // engines share the tracer, so their own records carry the same trace
    // id — but only the coordinator's contains `shard` spans.) The
    // coordinator files its record when its root span closes, which is
    // after the reply has been written: wait for it before switching the
    // tracer off, or the close lands on a disabled tracer and files nothing.
    let find_stitched = || -> Vec<_> {
        obs::tracer()
            .slow_log()
            .into_iter()
            .filter(|r| {
                r.trace_id == trace.trace_id
                    && r.spans
                        .iter()
                        .any(|s| matches!(s.kind, obs::SpanKind::Shard))
            })
            .collect()
    };
    let patience = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while find_stitched().is_empty() && std::time::Instant::now() < patience {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    obs::tracer().set_enabled(false);
    let stitched = find_stitched();
    assert_eq!(
        stitched.len(),
        1,
        "expected one stitched coordinator record, got {stitched:#?}"
    );
    let rec = &stitched[0];
    let mut shards: Vec<u32> = rec
        .spans
        .iter()
        .filter(|s| matches!(s.kind, obs::SpanKind::Shard))
        .map(|s| s.object)
        .collect();
    shards.sort_unstable();
    assert_eq!(
        shards,
        vec![0, 1, 2],
        "waterfall must contain a child span from every shard: {}",
        rec.render()
    );

    // Cost attribution rode along: the exemplar's fanout names all shards.
    let ex = rec.exemplar.as_ref().expect("stitched cost exemplar");
    let mut fanout: Vec<u32> = ex.shards.iter().map(|&(s, _, _)| s).collect();
    fanout.sort_unstable();
    assert_eq!(fanout, vec![0, 1, 2], "exemplar fanout incomplete: {ex:?}");

    // The aggregated summary reached the client on the final reply page:
    // it is the stitched exemplar's total, the sum of the shard legs.
    let summary = summary.expect("a sampled reply must carry a stats summary");
    assert_eq!(summary, ex.total);
    let leg_bytes: u64 = ex.shards.iter().map(|&(_, _, bytes)| bytes).sum();
    assert_eq!(summary.decoded_bytes, leg_bytes, "{ex:?}");
    assert!(summary.resolved_pairs() > 0, "{summary:?}");

    obs::tracer().clear_slow_log();
    cluster.coord.shutdown();
    for s in cluster.shards {
        s.shutdown();
    }
}

/// Federated metrics exactness: the coordinator's `Metrics` snapshot
/// scrapes every shard's and exact-merges — for every
/// integer-valued sample (counters, histogram `_count`/`_bucket`), the
/// `node="cluster"` aggregate equals the sum of the per-node series
/// bit-for-bit, and the whole document validates.
#[test]
fn federated_metrics_aggregate_is_the_exact_sum_of_node_series() {
    use std::collections::BTreeMap;

    let (target, source_objects) = build_stores(0x3D5A_0006);
    let cluster = start_cluster(&target, &source_objects, 3, 1);
    let mut c = Client::connect(cluster.coord.addr()).expect("connect coordinator");
    // Traffic first, so counters and latency histograms are non-zero.
    for req in request_matrix(&target).into_iter().take(10) {
        let _ = c.query(&req).expect("warm-up query");
    }

    let text = tripro::obs::render_snapshots(&c.metrics().expect("federated metrics"));
    tripro::obs::validate_exposition(&text).expect("federated exposition must validate");
    for node in ["cluster", "coordinator", "shard0", "shard1", "shard2"] {
        assert!(
            text.contains(&format!("node=\"{node}\"")),
            "exposition is missing node=\"{node}\" series"
        );
    }

    // Parse every integer sample into (series key without the node label)
    // -> node -> value, then check cluster == sum(nodes) exactly.
    let mut samples: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
    for line in text.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("malformed sample line");
        let (name, labels) = match series.split_once('{') {
            Some((n, rest)) => (n, rest.trim_end_matches('}')),
            None => (series, ""),
        };
        if name.ends_with("_sum") {
            continue; // float-valued seconds; exactness asserted on integers
        }
        let Ok(v) = value.parse::<u64>() else {
            continue;
        };
        let mut node = None;
        let base: Vec<&str> = labels
            .split(',')
            .filter(|l| !l.is_empty())
            .filter(|l| match l.strip_prefix("node=\"") {
                Some(rest) => {
                    node = Some(rest.trim_end_matches('"').to_string());
                    false
                }
                None => true,
            })
            .collect();
        let node = node.expect("federated sample without node label");
        let key = format!("{name}{{{}}}", base.join(","));
        samples.entry(key).or_default().insert(node, v);
    }
    assert!(!samples.is_empty(), "no integer samples parsed");

    let mut checked = 0usize;
    for (key, by_node) in &samples {
        let Some(&cluster_v) = by_node.get("cluster") else {
            panic!("{key}: no node=\"cluster\" aggregate");
        };
        let sum: u64 = by_node
            .iter()
            .filter(|(n, _)| n.as_str() != "cluster")
            .map(|(_, &v)| v)
            .sum();
        assert_eq!(
            cluster_v, sum,
            "{key}: cluster aggregate {cluster_v} != exact per-node sum {sum} ({by_node:?})"
        );
        checked += 1;
    }
    assert!(checked > 10, "too few federated series checked ({checked})");

    cluster.coord.shutdown();
    for s in cluster.shards {
        s.shutdown();
    }
}

/// A coordinator scatters an NN as `KnnEx { k: 1 }`; each shard runs it at
/// k = 1, so its latency lands in `tripro_query_latency_seconds{kind="nn"}`.
/// The registry is process-global and other tests add to it concurrently,
/// so only a lower bound on the series' growth is asserted.
#[test]
fn coordinator_nn_is_timed_under_kind_nn() {
    use tripro::obs::{query_latency_histogram, QueryOp};
    let nn_timed = || -> u64 {
        [false, true]
            .iter()
            .map(|&fpr| query_latency_histogram(QueryOp::Nn, fpr).count())
            .sum()
    };
    let (target, source_objects) = build_stores(0x3D5A_0007);
    let cluster = start_cluster(&target, &source_objects, 2, 1);
    let mut c = Client::connect(cluster.coord.addr()).expect("connect");
    let n = target.len() as u32;
    let before = nn_timed();
    for t in 0..n {
        let nn = ids_of(
            c.query(&Request::Nn {
                target: t,
                deadline_ms: u32::MAX,
            })
            .expect("nn"),
        );
        assert!(nn.len() <= 1, "target {t}: {nn:?}");
    }
    // Every NN reaches both shards.
    let grown = nn_timed() - before;
    assert!(
        grown >= 2 * u64::from(n),
        "{grown} NN timings for {n} queries"
    );
    cluster.coord.shutdown();
    for s in cluster.shards {
        s.shutdown();
    }
}

/// A coordinator must refuse a cluster whose shards were partitioned
/// under a different epoch — mixed shard maps would silently drop pairs.
#[test]
fn coordinator_refuses_mismatched_epoch() {
    let (target, source_objects) = build_stores(0x3D5A_0003);
    let cluster = start_cluster(&target, &source_objects, 2, 7);
    let addrs: Vec<String> = cluster
        .shards
        .iter()
        .map(|s| s.addr().to_string())
        .collect();

    let err = Coordinator::start(
        Arc::clone(&target),
        CoordinatorConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: addrs,
            epoch: 8,
            ..Default::default()
        },
    );
    assert!(err.is_err(), "epoch 8 coordinator accepted epoch 7 shards");

    cluster.coord.shutdown();
    for s in cluster.shards {
        s.shutdown();
    }
}

/// Routed single-shard queries and scatter joins agree on an empty
/// route: a region query far outside the dataset returns empty, fast.
#[test]
fn out_of_range_target_is_rejected_before_admission() {
    let (target, source_objects) = build_stores(0x3D5A_0004);
    let n = target.len() as u32;
    let cluster = start_cluster(&target, &source_objects, 2, 1);
    let mut c = Client::connect(cluster.coord.addr()).expect("connect");
    match c
        .query(&Request::Intersect {
            target: n + 5,
            deadline_ms: u32::MAX,
        })
        .expect("transport")
    {
        QueryReply::Error { code, .. } => {
            assert_eq!(code, tripro_serve::ErrorCode::BadRequest);
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }
    // The reject must not occupy a ledger slot.
    let stats = cluster.coord.stats();
    assert_eq!(stats.admitted, 0, "{stats:?}");
    cluster.coord.shutdown();
    for s in cluster.shards {
        s.shutdown();
    }
}
