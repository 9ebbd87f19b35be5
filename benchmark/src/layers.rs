//! Outside-in layer probes for the traced run. Every probe is a call into
//! one public function of one layer, on the workload's own inputs, wrapped
//! in a span of the benchmark's recorder; a per-layer metric is a span
//! total divided by the work it covered.

use crate::api::{
    decode_header, decode_request_body, decode_response_body, encode, encode_request,
    encode_response, pages_of, tri_tri_dist2, tri_tri_intersect, AabbTree, Accel, Computer,
    EncoderConfig, Engine, ExecStats, LodData, ObjectStore, Paradigm, QueryConfig, QueryReply,
    RTree, Request, HEADER_LEN,
};
use crate::stat::median;
use crate::trace::{Recorder, SpanId};
use crate::workload::{
    join_op, run_join, Cluster, Def, Digest, Join, Kind, State, KNN_K, SERVE_ACCEL,
};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Targets whose R-tree probe and candidate pairs one replay covers.
const REPLAY_TARGETS: usize = 16;
/// Distinct objects one replay decodes, fetches and builds a tree for.
const REPLAY_OBJECTS: usize = 12;
/// Face pairs (faces_a × faces_b summed over the candidate pairs) one
/// replay hands to each kernel; bounds the brute-force probes on vessels.
const REPLAY_FACEPAIRS: usize = 2_000_000;
/// Repetitions inside one span of a nanosecond-scale call.
const TIGHT_REPS: usize = 64;
/// Triangles per side of the triangle-pair primitive probes.
const TRI_SIDE: usize = 64;
/// Repetitions of each whole-join probe.
const JOIN_REPS: usize = 3;
/// A byte budget no working set here comes near.
const UNLIMITED: usize = 1 << 40;

/// Accumulates probe results: `(total, count)` pairs for ratio metrics
/// and raw samples for median metrics.
#[derive(Default)]
pub struct Acc {
    sums: BTreeMap<&'static str, (f64, f64)>,
    samples: BTreeMap<String, Vec<f64>>,
}

impl Acc {
    pub fn add(&mut self, name: &'static str, total: f64, count: f64) {
        let e = self.sums.entry(name).or_default();
        e.0 += total;
        e.1 += count;
    }

    pub fn sample(&mut self, name: impl Into<String>, v: f64) {
        self.samples.entry(name.into()).or_default().push(v);
    }

    /// Median of the samples recorded under `name`.
    pub fn median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| median(v))
    }

    /// The metric `name`: the median of its samples, or `total ÷ count` of
    /// its sums; 0 when no probe reported under that name.
    pub fn value(&self, name: &str) -> f64 {
        match self.sums.get(name) {
            Some((total, count)) if *count > 0.0 => total / count,
            _ => self.median(name),
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

// ---------------------------------------------------------------------
// Engine layers: mesh, cache, index, compute
// ---------------------------------------------------------------------

/// One object's top-LOD geometry and a tree built over it by the probe.
struct Probed {
    lod: Arc<LodData>,
    tree: AabbTree,
}

/// Decode, fetch and index one object, recording each step.
fn probe_object(
    store: &ObjectStore,
    id: u32,
    rec: &mut Recorder,
    replay: SpanId,
    acc: &mut Acc,
) -> Result<Probed, String> {
    let obj = store.object(id);
    let cm = &obj.compressed;
    let top = cm.max_lod();
    let faces = obj.full_faces as f64;
    let e = |x: &dyn std::fmt::Debug| format!("decode probe failed: {x:?}");

    let (dec, ns) = rec.time("mesh.decode_lod0", replay, || cm.decoder());
    acc.add("mesh.decode_lod0_us", ns as f64 / 1e3, 1.0);
    let mut dec = dec.map_err(|x| e(&x))?;
    dec.decode_to(top.saturating_sub(1)).map_err(|x| e(&x))?;
    let (step, ns) = rec.time("mesh.decode_step", replay, || dec.decode_to(top));
    step.map_err(|x| e(&x))?;
    acc.add("mesh.decode_step_ns_per_face", ns as f64, faces);
    let (full, ns) = rec.time("mesh.decode_full", replay, || {
        cm.decoder().and_then(|mut d| d.decode_to(top).map(|()| d))
    });
    full.map_err(|x| e(&x))?;
    acc.add("mesh.decode_full_ns_per_face", ns as f64, faces);

    let stats = ExecStats::new();
    store.cache().clear();
    let (lod, ns) = rec.time("cache.get_miss", replay, || store.get(id, top, &stats));
    acc.add("cache.miss_us", ns as f64 / 1e3, 1.0);
    let lod = lod.map_err(|x| format!("cache probe failed: {x}"))?;
    // The entry just inserted is resident even under the tightest budget
    // (the cache always keeps its newest entry).
    let ((), ns) = rec.time("cache.get_hit", replay, || {
        for _ in 0..TIGHT_REPS {
            let _ = black_box(store.get(id, top, &stats));
        }
    });
    acc.add("cache.hit_ns", ns as f64, TIGHT_REPS as f64);

    let tris = Arc::clone(&lod.triangles);
    let (tree, ns) = rec.time("index.accel_build", replay, || AabbTree::build_shared(tris));
    acc.add("index.aabb_build_ns_per_face", ns as f64, faces);
    Ok(Probed { lod, tree })
}

/// Replay slice `k` of `n`: the layer calls a join makes for a sample of
/// this workload's targets — R-tree probe, decode, cache fetch, tree build,
/// tree traversal, face-pair kernels — plus the set-up layers (encode,
/// R-tree bulk load) on a slice of the inputs.
pub fn engine_probes(
    def: &Def,
    st: &State,
    rec: &mut Recorder,
    replay: SpanId,
    (k, n): (usize, usize),
    acc: &mut Acc,
) -> Result<(), String> {
    let (target, source) = (&*st.target, &*st.source);

    // Set-up layers.
    for m in st.raw_sample.iter().skip(k).step_by(n) {
        let (cm, ns) = rec.time("mesh.encode", replay, || {
            encode(m, &EncoderConfig::default())
        });
        cm.map_err(|x| format!("encode probe failed: {x}"))?;
        acc.add(
            "mesh.encode_us_per_face",
            ns as f64 / 1e3,
            m.faces.len() as f64,
        );
    }
    for store in [target, source] {
        let items: Vec<_> = (0..store.len() as u32)
            .map(|id| (store.object(id).mbb, id))
            .collect();
        let count = items.len() as f64;
        let (_, ns) = rec.time("index.rtree_bulk_load", replay, || RTree::bulk_load(items));
        acc.add("index.rtree_bulk_load_us_per_obj", ns as f64 / 1e3, count);
    }

    // Filter: one R-tree probe per sampled target.
    let targets: Vec<u32> = (0..target.len() as u32)
        .filter(|t| *t as usize % n == k)
        .take(REPLAY_TARGETS)
        .collect();
    let (cands, ns) = rec.time("index.filter", replay, || {
        targets
            .iter()
            .map(|&t| {
                let r = source.rtree().within(&target.object(t).mbb, def.d);
                r.definite
                    .into_iter()
                    .chain(r.candidates)
                    .collect::<Vec<u32>>()
            })
            .collect::<Vec<_>>()
    });
    acc.add("index.rtree_probe_ns", ns as f64, targets.len() as f64);
    let found: usize = cands.iter().map(Vec::len).sum();
    acc.add(
        "index.rtree_candidates_per_probe",
        found as f64,
        targets.len() as f64,
    );

    // The op's own candidate pairs, under an object and a face-pair budget.
    let (mut t_ids, mut s_ids) = (BTreeSet::new(), BTreeSet::new());
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut facepairs = 0usize;
    'pairs: for (&t, cs) in targets.iter().zip(&cands) {
        for &c in cs {
            let cost = target.object(t).full_faces * source.object(c).full_faces;
            let objects = t_ids.len()
                + s_ids.len()
                + usize::from(!t_ids.contains(&t))
                + usize::from(!s_ids.contains(&c));
            if !pairs.is_empty()
                && (facepairs + cost > REPLAY_FACEPAIRS || objects > REPLAY_OBJECTS)
            {
                break 'pairs;
            }
            t_ids.insert(t);
            s_ids.insert(c);
            facepairs += cost;
            pairs.push((t, c));
        }
    }
    let mut probe_all = |store: &ObjectStore, ids: BTreeSet<u32>| {
        ids.into_iter()
            .map(|id| Ok((id, probe_object(store, id, rec, replay, acc)?)))
            .collect::<Result<BTreeMap<u32, Probed>, String>>()
    };
    let t_objs = probe_all(target, t_ids)?;
    let s_objs = probe_all(source, s_ids)?;

    let gpu = Computer::new(Accel::Gpu, 1);
    let brute = Computer::new(Accel::Brute, 1);
    let stats = ExecStats::new();
    let tested = |stats: &ExecStats| stats.face_pair_tests.load(Ordering::Relaxed);
    for (i, (t, c)) in pairs.iter().enumerate() {
        let (a, b) = (&t_objs[t], &s_objs[c]);
        let (sk_a, sk_b) = (target.skeleton(*t), source.skeleton(*c));

        let (_, ns) = rec.time("index.aabb_min_dist", replay, || {
            a.tree.min_dist2_tree(&b.tree, f64::INFINITY, &mut 0)
        });
        acc.add("index.aabb_min_dist_us_per_pair", ns as f64 / 1e3, 1.0);
        let (_, ns) = rec.time("index.aabb_intersect", replay, || {
            a.tree.intersects_tree(&b.tree, &mut 0)
        });
        acc.add("index.aabb_intersect_us_per_pair", ns as f64 / 1e3, 1.0);

        let mut kernel = |span, metric, f: &dyn Fn() -> f64| {
            let before = tested(&stats);
            let (_, ns) = rec.time(span, replay, f);
            acc.add(metric, ns as f64, (tested(&stats) - before) as f64);
        };
        kernel(
            "compute.kernel.gpu_min_dist",
            "compute.gpu_min_dist_ns_per_facepair",
            &|| gpu.min_dist2(&a.lod, &b.lod, sk_a, sk_b, f64::INFINITY, &stats),
        );
        kernel(
            "compute.kernel.gpu_intersect",
            "compute.gpu_intersect_ns_per_facepair",
            &|| f64::from(u8::from(gpu.intersects(&a.lod, &b.lod, sk_a, sk_b, &stats))),
        );
        kernel(
            "compute.kernel.brute_min_dist",
            "compute.brute_min_dist_ns_per_facepair",
            &|| brute.min_dist2(&a.lod, &b.lod, sk_a, sk_b, f64::INFINITY, &stats),
        );

        if i == 0 {
            let xs = &a.lod.triangles[..TRI_SIDE.min(a.lod.triangles.len())];
            let ys = &b.lod.triangles[..TRI_SIDE.min(b.lod.triangles.len())];
            let calls = (xs.len() * ys.len()) as f64;
            let (_, ns) = rec.time("compute.tri_dist", replay, || {
                let mut sum = 0.0;
                for x in xs {
                    for y in ys {
                        sum += tri_tri_dist2(black_box(x), black_box(y));
                    }
                }
                sum
            });
            acc.add("compute.tri_dist_ns", ns as f64, calls);
            let (_, ns) = rec.time("compute.tri_intersect", replay, || {
                let mut hits = 0u32;
                for x in xs {
                    for y in ys {
                        hits += u32::from(tri_tri_intersect(black_box(x), black_box(y)));
                    }
                }
                hits
            });
            acc.add("compute.tri_intersect_ns", ns as f64, calls);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Query layer: whole joins, thread scaling, cache pressure
// ---------------------------------------------------------------------

fn join_span(join: Join) -> &'static str {
    match join {
        Join::Intersect => "query.join.intersect",
        Join::Within(_) => "query.join.within",
        Join::Nn => "query.join.nn",
        Join::Knn(_) => "query.join.knn",
    }
}

fn copy_unlimited(store: &ObjectStore) -> ObjectStore {
    let objects = (0..store.len() as u32)
        .map(|id| store.object(id).clone())
        .collect();
    ObjectStore::from_objects(objects, UNLIMITED)
}

pub fn query_probes(
    def: &Def,
    st: &State,
    rec: &mut Recorder,
    root: SpanId,
    acc: &mut Acc,
) -> Result<(), String> {
    let (target, source) = (&*st.target, &*st.source);
    let cfg = def.query_config(def.threads);
    let engine = Engine::new(target, source);

    // One whole join per refinement loop, AABB-accelerated on every
    // workload so the four stay comparable (and affordable) across them.
    let aabb =
        QueryConfig::new(Paradigm::FilterProgressiveRefine, Accel::Aabb).with_threads(def.threads);
    for join in [
        Join::Intersect,
        Join::Within(def.d),
        Join::Nn,
        Join::Knn(KNN_K),
    ] {
        for _ in 0..JOIN_REPS {
            let (r, ns) = rec.time(join_span(join), root, || {
                run_join(join, &engine, &aabb, &mut Digest::new())
            });
            r?;
            acc.sample(format!("query.{}_join_ms", join.label()), ms(ns));
        }
    }

    // The workload's op at one and at two engine threads.
    for (name, threads) in [("query.op.threads1", 1), ("query.op.threads2", 2)] {
        let cfg = def.query_config(threads);
        for _ in 0..JOIN_REPS {
            let (r, ns) = rec.time(name, root, || join_op(def, target, source, &cfg));
            r?;
            acc.sample(name, ms(ns));
        }
    }

    // The op against its byte budget and against copies with no budget.
    let (t_unl, s_unl) = (copy_unlimited(target), copy_unlimited(source));
    let (_, cold) = join_op(def, &t_unl, &s_unl, &cfg)?;
    for _ in 0..JOIN_REPS {
        let (r, ns) = rec.time("query.op.unlimited", root, || {
            join_op(def, &t_unl, &s_unl, &cfg)
        });
        r?;
        acc.sample("query.op.unlimited", ms(ns));
        let (r, ns) = rec.time("query.op.budgeted", root, || {
            join_op(def, target, source, &cfg)
        });
        acc.add(
            "cache.redecode_x",
            r?.1.decoded_bytes as f64,
            cold.decoded_bytes as f64,
        );
        acc.sample("query.op.budgeted", ms(ns));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Service layers: protocol, server, coordinator
// ---------------------------------------------------------------------

fn decode_frame<T, E>(frame: &[u8], body: impl Fn(u8, &[u8]) -> Result<T, E>) -> Option<T> {
    let header = decode_header(frame.get(..HEADER_LEN)?.try_into().ok()?).ok()?;
    body(header.kind, &frame[HEADER_LEN..]).ok()
}

/// Replay the requests `slice` of the workload's stream: codec on the
/// request and its recorded reply, the same query in process, through the
/// single-node server, and through the coordinator.
pub fn service_probes(
    def: &Def,
    st: &State,
    cluster: &mut Cluster,
    rec: &mut Recorder,
    replay: SpanId,
    slice: Range<usize>,
    acc: &mut Acc,
) -> Result<(), String> {
    let engine = Engine::new(&st.target, &st.source);
    // What a server runs per request, called directly.
    let cfg = QueryConfig::new(Paradigm::FilterProgressiveRefine, SERVE_ACCEL);
    let stats = ExecStats::new();
    let e = |x: &dyn std::fmt::Display| format!("service probe failed: {x}");

    // Untimed first touch: the engine probes clear the caches they probe.
    for req in &st.requests[slice.clone()] {
        cluster.single_client.query(req).map_err(|x| e(&x))?;
        cluster.coord_client.query(req).map_err(|x| e(&x))?;
    }

    for i in slice {
        let req: &Request = &st.requests[i];
        let (kind, t) = st.plan[i];
        let id = i as u64;

        let (frame, ns) = rec.time("protocol.encode_request", replay, || {
            for _ in 1..TIGHT_REPS {
                black_box(encode_request(id, black_box(req)));
            }
            encode_request(id, req)
        });
        acc.add("protocol.encode_request_ns", ns as f64, TIGHT_REPS as f64);
        acc.add("protocol.bytes_per_request", frame.len() as f64, 1.0);
        let (back, ns) = rec.time("protocol.decode_request", replay, || {
            for _ in 1..TIGHT_REPS {
                black_box(decode_frame(black_box(&frame), decode_request_body));
            }
            decode_frame(&frame, decode_request_body)
        });
        acc.add("protocol.decode_request_ns", ns as f64, TIGHT_REPS as f64);
        if back.as_ref() != Some(req) {
            return Err(format!("request {i} did not survive the codec"));
        }

        let (direct_ms, direct_ids) = match kind {
            Kind::Contains => (None, None),
            _ => {
                let (ids, ns) = rec.time("query.one", replay, || match kind {
                    Kind::Intersect => engine.intersect_one(t, &cfg, &stats),
                    Kind::Within => engine.within_one(t, def.d, &cfg, &stats),
                    Kind::Nn => engine
                        .nn_one(t, &cfg, &stats)
                        .map(|m| m.into_iter().collect()),
                    _ => engine.knn_one(t, KNN_K as usize, &cfg, &stats),
                });
                acc.sample(format!("query.one_ms.{}", kind.label()), ms(ns));
                (Some(ms(ns)), Some(ids.map_err(|x| e(&x))?))
            }
        };
        let (single, ns) = rec.time("server.rtt", replay, || cluster.single_client.query(req));
        let single_ms = ms(ns);
        acc.sample(format!("server.rtt_ms.{}", kind.label()), single_ms);
        if let Some(direct_ms) = direct_ms {
            acc.sample("server.overhead_ms", single_ms - direct_ms);
        }
        let (coord, ns) = rec.time("coordinator.rtt", replay, || {
            cluster.coord_client.query(req)
        });
        acc.sample(format!("coordinator.rtt_ms.{}", kind.label()), ms(ns));
        acc.sample("coordinator.scatter_overhead_ms", ms(ns) - single_ms);
        let mbb = st.target.object(t).mbb;
        let fanout = match kind {
            Kind::Contains => 1,
            Kind::Intersect => cluster.map.shards_for_box(&mbb).len(),
            Kind::Within => cluster.map.shards_for_box(&mbb.inflate(def.d)).len(),
            Kind::Nn | Kind::Knn => cluster.map.count as usize,
        };
        acc.add("coordinator.fanout_mean", fanout as f64, 1.0);

        let single = single.map_err(|x| e(&x))?;
        let QueryReply::Ids(ids) = &single else {
            return Err(format!("request {i}: unexpected reply {single:?}"));
        };
        if coord.map_err(|x| e(&x))? != single || direct_ids.is_some_and(|d| &d != ids) {
            return Err(format!(
                "request {i}: direct, server and coordinator disagree"
            ));
        }
        let pages = pages_of(ids);
        let (frames, ns) = rec.time("protocol.encode_response", replay, || {
            for _ in 1..TIGHT_REPS {
                for p in &pages {
                    black_box(encode_response(id, black_box(p)));
                }
            }
            pages
                .iter()
                .map(|p| encode_response(id, p))
                .collect::<Vec<_>>()
        });
        acc.add("protocol.encode_response_ns", ns as f64, TIGHT_REPS as f64);
        let bytes: usize = frames.iter().map(Vec::len).sum();
        acc.add("protocol.bytes_per_response", bytes as f64, 1.0);
        let (back, ns) = rec.time("protocol.decode_response", replay, || {
            for _ in 1..TIGHT_REPS {
                for f in &frames {
                    black_box(decode_frame(black_box(f), decode_response_body));
                }
            }
            frames
                .iter()
                .map(|f| decode_frame(f, decode_response_body))
                .collect::<Option<Vec<_>>>()
        });
        acc.add("protocol.decode_response_ns", ns as f64, TIGHT_REPS as f64);
        if back.as_ref() != Some(&pages) {
            return Err(format!("reply {i} did not survive the codec"));
        }
    }
    Ok(())
}
