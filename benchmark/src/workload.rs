//! The four workloads: their definitions (every size and thread count is a
//! constant here, never read from the host), seeded input generation,
//! set-up, one operation, and the result oracle.

use crate::api::{
    generate, partition_source, Accel, Client, Coordinator, CoordinatorConfig, DatasetConfig,
    Engine, ObjectStore, Paradigm, QueryConfig, QueryReply, Request, ServeConfig, Server, ShardMap,
    ShardView, StatsSnapshot, StoreConfig, StoredObject, TriMesh, VesselConfig, NO_DEADLINE_MS,
};
use std::sync::Arc;
use std::time::Instant;

/// Mean nucleus radius of the generator; distances below are multiples.
const R: f64 = 1.0;
/// Seed of the tissue block every run relabels (the generator's own
/// default).
const GEOMETRY_SEED: u64 = 0x3D9E0;
/// `k` of the kNN request kind.
pub const KNN_K: u32 = 3;
/// Requests in the seeded mixed stream: a pass of `cluster_mixed`, and what
/// the service-layer probes of every workload sample from.
pub const STREAM_LEN: usize = 1500;
/// Shards of the loopback cluster.
const SHARDS: u32 = 2;
/// Engine threads, admission width and batch helpers of every server, and
/// admission width of the coordinator.
const SERVE_WIDTH: usize = 2;
/// Every server refines with the AABB-tree (the serve tier's default), also
/// when a join workload's traced run starts a cluster over its stores.
pub const SERVE_ACCEL: Accel = Accel::Aabb;

pub enum Source {
    /// The jittered re-segmentation of the target nuclei (A ⋈ B).
    NucleiB,
    /// This many vessels sharing the block with the nuclei.
    Vessels(usize),
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Join {
    Intersect,
    Within(f64),
    Nn,
    Knn(u32),
}

impl Join {
    pub fn label(self) -> &'static str {
        match self {
            Join::Intersect => "intersect",
            Join::Within(_) => "within",
            Join::Nn => "nn",
            Join::Knn(_) => "knn",
        }
    }
}

pub struct Def {
    pub name: &'static str,
    pub why: &'static str,
    /// Target nuclei; a perfect cube, so the generator's placement grid is
    /// full and only jitter and shape change with the seed.
    pub nuclei: usize,
    pub source: Source,
    pub accel: Accel,
    pub threads: usize,
    /// Decode-cache budget of each store.
    pub cache_bytes: usize,
    pub ops_per_pass: usize,
    /// The in-process joins of one op. On `cluster_mixed`, whose ops are
    /// requests, this is only the stand-in the layer probes run.
    pub joins: &'static [Join],
    /// Clear both decode caches at the start of every op.
    pub clear_each_op: bool,
    /// Ops are requests of the seeded mixed stream, sent to the coordinator.
    pub via_cluster: bool,
    /// Distance of within requests and within-style probes.
    pub d: f64,
}

pub const WORKLOADS: [Def; 4] = [
    Def {
        name: "nuclei_cold",
        why: "decode-bound: caches cleared every op, so PPVP decode, cache miss+insert, AABB build and pipeline overlap do the work",
        nuclei: 343,
        source: Source::NucleiB,
        accel: Accel::Aabb,
        threads: 2,
        cache_bytes: 256 << 20,
        ops_per_pass: 150,
        joins: &[Join::Intersect, Join::Within(2.0 * R)],
        clear_each_op: true,
        via_cluster: false,
        d: 2.0 * R,
    },
    Def {
        name: "nuclei_kernel",
        why: "kernel-bound: warm cache that fits and the packed batch executor, so face-pair kernels dominate and decode changes must not show",
        nuclei: 27,
        source: Source::NucleiB,
        accel: Accel::Gpu,
        threads: 1,
        cache_bytes: 256 << 20,
        ops_per_pass: 150,
        joins: &[Join::Nn],
        clear_each_op: false,
        via_cluster: false,
        d: 2.0 * R,
    },
    Def {
        name: "vessel_pressure",
        why: "cache under a byte budget below the working set: eviction, re-decode and tree rebuild, so fatter cache entries show as a loss",
        nuclei: 27,
        source: Source::Vessels(2),
        accel: Accel::Aabb,
        threads: 1,
        cache_bytes: 768 << 10,
        ops_per_pass: 100,
        joins: &[Join::Within(3.0 * R)],
        clear_each_op: false,
        via_cluster: false,
        d: 3.0 * R,
    },
    Def {
        name: "cluster_mixed",
        why: "service-bound: one closed-loop client through a 2-shard coordinator with a warm engine, so wire, server and scatter/merge are most of the time",
        nuclei: 343,
        source: Source::NucleiB,
        accel: Accel::Aabb,
        threads: 1,
        cache_bytes: 256 << 20,
        ops_per_pass: STREAM_LEN,
        joins: &[Join::Within(2.0 * R)],
        clear_each_op: false,
        via_cluster: true,
        d: 2.0 * R,
    },
];

pub fn find(name: &str) -> Option<&'static Def> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Def {
    /// Engine threads that can be busy at once: the join's own, or one per
    /// shard when ops run on the cluster.
    pub fn engine_width(&self) -> usize {
        if self.via_cluster {
            SHARDS as usize
        } else {
            self.threads
        }
    }

    pub fn query_config(&self, threads: usize) -> QueryConfig {
        QueryConfig::new(Paradigm::FilterProgressiveRefine, self.accel).with_threads(threads)
    }
}

// ---------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------

/// The subset of a join's `StatsSnapshot` the ledger uses, summable across
/// ops and (as shard deltas) across servers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub filter_ns: u64,
    pub decode_ns: u64,
    pub compute_ns: u64,
    pub face_pair_tests: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub decoded_bytes: u64,
    pub lod_rounds: u64,
    pub resolved_pairs: u64,
}

impl From<&StatsSnapshot> for Counters {
    fn from(s: &StatsSnapshot) -> Self {
        Self {
            filter_ns: s.filter_ns,
            decode_ns: s.decode_ns,
            compute_ns: s.compute_ns,
            face_pair_tests: s.face_pair_tests,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            decoded_bytes: s.decoded_bytes,
            lod_rounds: s.lod_rounds,
            resolved_pairs: s.resolved_pairs(),
        }
    }
}

impl Counters {
    fn zip(self, o: Self, f: impl Fn(u64, u64) -> u64) -> Self {
        Self {
            filter_ns: f(self.filter_ns, o.filter_ns),
            decode_ns: f(self.decode_ns, o.decode_ns),
            compute_ns: f(self.compute_ns, o.compute_ns),
            face_pair_tests: f(self.face_pair_tests, o.face_pair_tests),
            cache_hits: f(self.cache_hits, o.cache_hits),
            cache_misses: f(self.cache_misses, o.cache_misses),
            decoded_bytes: f(self.decoded_bytes, o.decoded_bytes),
            lod_rounds: f(self.lod_rounds, o.lod_rounds),
            resolved_pairs: f(self.resolved_pairs, o.resolved_pairs),
        }
    }

    pub fn plus(self, o: Self) -> Self {
        self.zip(o, |a, b| a + b)
    }

    pub fn minus(self, o: Self) -> Self {
        self.zip(o, |a, b| a - b)
    }
}

// ---------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------

/// FNV-1a over a stream of words — a result's identity for the oracle.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// One target's matches; the length word keeps `(1,[2]),(3,[])` apart
    /// from `(1,[]),(2,[3])`.
    pub fn row(&mut self, target: u32, matches: &[u32]) {
        self.word(u64::from(target));
        self.word(matches.len() as u64);
        for &m in matches {
            self.word(u64::from(m));
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A completed reply's digest; `None` for an error, a partial result or a
/// scored page, none of which this stream ever expects — so they can
/// never equal an oracle entry.
fn reply_digest(reply: &QueryReply) -> Option<u64> {
    match reply {
        QueryReply::Ids(ids) => {
            let mut d = Digest::new();
            d.row(0, ids);
            Some(d.finish())
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Seeded request stream
// ---------------------------------------------------------------------

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Intersect,
    Within,
    Nn,
    Knn,
    Contains,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Intersect,
        Kind::Within,
        Kind::Nn,
        Kind::Knn,
        Kind::Contains,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Kind::Intersect => "intersect",
            Kind::Within => "within",
            Kind::Nn => "nn",
            Kind::Knn => "knn",
            Kind::Contains => "contains",
        }
    }
}

/// Request `i` has kind `i mod 5` and targets a Fibonacci-hashed walk over
/// the `n_targets` objects that starts where the seed says.
fn request_plan(seed: u64, n_requests: usize, n_targets: usize) -> Vec<(Kind, u32)> {
    let start = splitmix64(seed);
    (0..n_requests as u64)
        .map(|i| {
            let t = start.wrapping_add(i.wrapping_mul(2_654_435_761)) % n_targets as u64;
            (Kind::ALL[(i % 5) as usize], t as u32)
        })
        .collect()
}

fn to_request(kind: Kind, target: u32, store: &ObjectStore, d: f64) -> Request {
    let deadline_ms = NO_DEADLINE_MS;
    match kind {
        Kind::Intersect => Request::Intersect {
            target,
            deadline_ms,
        },
        Kind::Within => Request::Within {
            target,
            d,
            deadline_ms,
        },
        Kind::Nn => Request::Nn {
            target,
            deadline_ms,
        },
        Kind::Knn => Request::Knn {
            target,
            k: KNN_K,
            deadline_ms,
        },
        Kind::Contains => {
            let c = store.object(target).mbb.center();
            Request::Contains {
                p: [c.x, c.y, c.z],
                deadline_ms,
            }
        }
    }
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

/// A 2-shard loopback cluster plus a single-node server on the same data,
/// each with one connected client. Fields drop in declaration order:
/// clients, then the coordinator, then the engines it fronts.
pub struct Cluster {
    pub coord_client: Client,
    pub single_client: Client,
    pub map: ShardMap,
    _coord: Coordinator,
    shards: Vec<Server>,
    _single: Server,
}

impl Cluster {
    pub fn start(
        def: &Def,
        target: &Arc<ObjectStore>,
        source: &Arc<ObjectStore>,
    ) -> Result<Cluster, String> {
        let e = |what: &str, err: &dyn std::fmt::Display| format!("{what}: {err}");
        let serve_cfg = || ServeConfig {
            max_inflight: SERVE_WIDTH,
            batch_helpers: SERVE_WIDTH,
            accel: SERVE_ACCEL,
            ..ServeConfig::default()
        };
        let objects: Vec<StoredObject> = (0..source.len() as u32)
            .map(|id| source.object(id).clone())
            .collect();
        let map = ShardMap::new(1, ShardMap::cell_for(target), SHARDS);
        let mut shards = Vec::new();
        for index in 0..SHARDS {
            let full = ObjectStore::from_objects(objects.clone(), def.cache_bytes);
            let (local, ids) = partition_source(full, &map, index, def.cache_bytes);
            let cfg = ServeConfig {
                shard: Some(ShardView {
                    map,
                    index,
                    source_total: objects.len() as u64,
                }),
                source_ids: Some(ids),
                ..serve_cfg()
            };
            shards.push(
                Server::start(Arc::clone(target), Arc::new(local), cfg)
                    .map_err(|x| e("start shard", &x))?,
            );
        }
        let single = Server::start(Arc::clone(target), Arc::clone(source), serve_cfg())
            .map_err(|x| e("start single-node server", &x))?;
        let coord = Coordinator::start(
            Arc::clone(target),
            CoordinatorConfig {
                shards: shards.iter().map(|s| s.addr().to_string()).collect(),
                epoch: map.epoch,
                max_inflight: SERVE_WIDTH,
                ..CoordinatorConfig::default()
            },
        )
        .map_err(|x| e("start coordinator", &x))?;
        Ok(Cluster {
            coord_client: Client::connect(coord.addr()).map_err(|x| e("connect", &x))?,
            single_client: Client::connect(single.addr()).map_err(|x| e("connect", &x))?,
            map,
            _coord: coord,
            shards,
            _single: single,
        })
    }

    /// Engine counters summed over the shards (cumulative since start).
    pub fn shard_counters(&self) -> Counters {
        self.shards
            .iter()
            .map(|s| Counters::from(&s.exec_stats()))
            .fold(Counters::default(), Counters::plus)
    }
}

/// Everything a workload runs against.
pub struct State {
    pub target: Arc<ObjectStore>,
    pub source: Arc<ObjectStore>,
    /// Started by set-up exactly when the workload's ops go through it.
    pub cluster: Option<Cluster>,
    /// The mixed request stream over this workload's targets: what each
    /// request asks (`plan`) and the request itself.
    pub plan: Vec<(Kind, u32)>,
    pub requests: Vec<Request>,
    /// Σ verts·24 + faces·12 over every input mesh.
    pub raw_bytes: usize,
    /// Time spent inside `ObjectStore::build`.
    pub build_ms: f64,
    /// The first few input meshes, kept only for the encode probe.
    pub raw_sample: Vec<TriMesh>,
}

fn raw_bytes(meshes: &[TriMesh]) -> usize {
    meshes
        .iter()
        .map(|m| m.vertices.len() * 24 + m.faces.len() * 12)
        .sum()
}

/// The seeded inputs: `(targets, sources)`.
///
/// The tissue block's shapes and placement are part of the workload
/// definition (`GEOMETRY_SEED`); the seed relabels every object (and picks
/// where the request stream starts). On these joins a handful of pairs that
/// survive to the top LOD carry most of an op's cost, and how many there
/// are swings the op time by ±10 % from one generated block to the next
/// (8× with vessels); moving the block re-deals the shard grid and swings
/// the kNN scatter by 18 %. A relabelled block keeps both
/// while still changing every id, the order objects are packed, batched,
/// hashed to cache shards and evicted in, and every result the program
/// returns.
fn inputs(def: &Def, seed: u64) -> (Vec<TriMesh>, Vec<TriMesh>) {
    let vessel_count = match def.source {
        Source::NucleiB => 0,
        Source::Vessels(n) => n,
    };
    let block = generate(&DatasetConfig {
        nuclei_count: def.nuclei,
        vessel_count,
        vessel: VesselConfig {
            levels: 2,
            grid: 24,
            ..VesselConfig::default()
        },
        seed: GEOMETRY_SEED,
        ..DatasetConfig::default()
    });
    let mut targets = block.nuclei_a;
    let mut sources = match def.source {
        Source::NucleiB => block.nuclei_b,
        Source::Vessels(_) => block.vessels,
    };
    let mut state = splitmix64(seed);
    let mut next = move || {
        state = splitmix64(state);
        state
    };
    let mut unit = || (next() >> 11) as f64 / (1u64 << 53) as f64;
    for set in [&mut targets, &mut sources] {
        // Fisher-Yates.
        for i in (1..set.len()).rev() {
            set.swap(i, (unit() * (i + 1) as f64) as usize);
        }
    }
    (targets, sources)
}

/// Generate the inputs from `seed` and bring the workload to the point
/// where its first op can be issued. The raw meshes are dropped on return
/// except `keep_raw` of them.
pub fn setup(def: &Def, seed: u64, keep_raw: usize) -> Result<State, String> {
    let (targets, sources) = inputs(def, seed);
    let cfg = StoreConfig {
        cache_bytes: def.cache_bytes,
        build_threads: 1,
        ..StoreConfig::default()
    };
    let t0 = Instant::now();
    let target = ObjectStore::build(&targets, &cfg).map_err(|e| format!("build: {e}"))?;
    let source = ObjectStore::build(&sources, &cfg).map_err(|e| format!("build: {e}"))?;
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (target, source) = (Arc::new(target), Arc::new(source));
    let cluster = def
        .via_cluster
        .then(|| Cluster::start(def, &target, &source))
        .transpose()?;
    let plan = request_plan(seed, STREAM_LEN, target.len());
    let requests = plan
        .iter()
        .map(|&(kind, t)| to_request(kind, t, &target, def.d))
        .collect();
    let mut raw_sample: Vec<TriMesh> = Vec::new();
    raw_sample.extend(sources.iter().take(keep_raw.min(1)).cloned());
    raw_sample.extend(targets.iter().take(keep_raw).cloned());
    Ok(State {
        target,
        source,
        cluster,
        plan,
        requests,
        raw_bytes: raw_bytes(&targets) + raw_bytes(&sources),
        build_ms,
        raw_sample,
    })
}

// ---------------------------------------------------------------------
// Joins, one operation, and the oracle
// ---------------------------------------------------------------------

/// One whole-store join under `cfg`: result digest folded into `digest`,
/// and the counters the engine returned.
pub fn run_join(
    join: Join,
    engine: &Engine,
    cfg: &QueryConfig,
    digest: &mut Digest,
) -> Result<Counters, String> {
    let e = |x: &dyn std::fmt::Display| format!("{} join failed: {x}", join.label());
    let (rows, stats) = match join {
        Join::Intersect => engine.intersection_join(cfg).map_err(|x| e(&x))?,
        Join::Within(d) => engine.within_join(d, cfg).map_err(|x| e(&x))?,
        Join::Knn(k) => engine.knn_join(k as usize, cfg).map_err(|x| e(&x))?,
        Join::Nn => {
            let (rows, stats) = engine.nn_join(cfg).map_err(|x| e(&x))?;
            let rows = rows
                .into_iter()
                .map(|(t, m)| (t, m.into_iter().collect()))
                .collect();
            (rows, stats)
        }
    };
    for (t, m) in &rows {
        digest.row(*t, m);
    }
    Ok(Counters::from(&stats.snapshot()))
}

/// The workload's join op on `(target, source)`: clear the caches first if
/// the definition says so, then run its joins.
pub fn join_op(
    def: &Def,
    target: &ObjectStore,
    source: &ObjectStore,
    cfg: &QueryConfig,
) -> Result<(u64, Counters), String> {
    if def.clear_each_op {
        target.cache().clear();
        source.cache().clear();
    }
    let engine = Engine::new(target, source);
    let mut digest = Digest::new();
    let mut counters = Counters::default();
    for &join in def.joins {
        counters = counters.plus(run_join(join, &engine, cfg, &mut digest)?);
    }
    Ok((digest.finish(), counters))
}

impl State {
    /// Operation `i` of a pass: its result digest (`None` when the program
    /// refused or failed it) and, for in-process joins, its counters.
    pub fn run_op(&mut self, def: &Def, i: usize) -> (Option<u64>, Counters) {
        match self.cluster.as_mut() {
            Some(cluster) => {
                let reply = cluster.coord_client.query(&self.requests[i]);
                let digest = reply.ok().as_ref().and_then(reply_digest);
                (digest, Counters::default())
            }
            None => {
                let cfg = def.query_config(def.threads);
                match join_op(def, &self.target, &self.source, &cfg) {
                    Ok((digest, counters)) => (Some(digest), counters),
                    Err(_) => (None, Counters::default()),
                }
            }
        }
    }

    /// Engine counters accumulated outside this process's own joins (the
    /// shard servers'); pass-level deltas of this are a cluster pass's
    /// counters.
    pub fn remote_counters(&self) -> Counters {
        self.cluster
            .as_ref()
            .map_or_else(Counters::default, Cluster::shard_counters)
    }

    /// The expected digest of every op of a pass. Join workloads: the same
    /// joins under Filter-Refine + AABB at one thread — full-resolution
    /// refinement, no progressive shortcut. `cluster_mixed`: the
    /// single-node server's reply to the same request.
    pub fn oracle(&mut self, def: &Def) -> Result<Vec<Option<u64>>, String> {
        match self.cluster.as_mut() {
            Some(cluster) => self.requests[..def.ops_per_pass]
                .iter()
                .map(|req| {
                    let reply = cluster.single_client.query(req);
                    reply
                        .map(|r| reply_digest(&r))
                        .map_err(|e| format!("oracle request failed: {e}"))
                })
                .collect(),
            None => {
                let cfg = QueryConfig::new(Paradigm::FilterRefine, Accel::Aabb).with_threads(1);
                let (digest, _) = join_op(def, &self.target, &self.source, &cfg)?;
                Ok(vec![Some(digest); def.ops_per_pass])
            }
        }
    }
}

/// Ops whose digest equals the oracle's.
pub fn count_ok(digests: &[Option<u64>], oracle: &[Option<u64>]) -> usize {
    digests
        .iter()
        .zip(oracle.iter().cycle())
        .filter(|(got, want)| got.is_some() && got == want)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_plan_is_a_function_of_the_seed() {
        let a = request_plan(7, 1000, 343);
        assert_eq!(a, request_plan(7, 1000, 343));
        assert_ne!(a, request_plan(8, 1000, 343));
        // Kinds cycle, targets stay in range and cover the store.
        for (i, (kind, t)) in a.iter().enumerate() {
            assert_eq!(*kind, Kind::ALL[i % 5]);
            assert!(*t < 343);
        }
        let mut seen: Vec<u32> = a.iter().map(|(_, t)| *t).collect();
        seen.sort_unstable();
        seen.dedup();
        assert!(
            seen.len() > 300,
            "walk covers {} of 343 targets",
            seen.len()
        );
    }

    #[test]
    fn digest_separates_row_boundaries_and_order() {
        let d = |rows: &[(u32, &[u32])]| {
            let mut d = Digest::new();
            for (t, m) in rows {
                d.row(*t, m);
            }
            d.finish()
        };
        assert_eq!(d(&[(1, &[2, 3])]), d(&[(1, &[2, 3])]));
        assert_ne!(d(&[(1, &[2, 3])]), d(&[(1, &[3, 2])]));
        assert_ne!(d(&[(1, &[2]), (3, &[])]), d(&[(1, &[]), (2, &[3])]));
    }

    #[test]
    fn one_flipped_digest_is_one_op_not_ok() {
        let oracle = vec![Some(1), Some(2), Some(3)];
        let mut got = vec![Some(1), Some(2), Some(3), Some(1), Some(2), Some(3)];
        assert_eq!(count_ok(&got, &oracle), 6);
        got[4] = got[4].map(|d| d ^ 1);
        assert_eq!(count_ok(&got, &oracle), 5);
        // A refused op never counts as ok, even against a refused oracle.
        got[0] = None;
        assert_eq!(count_ok(&got, &[None]), 0);
    }

    #[test]
    fn definitions_keep_the_noise_design() {
        for def in &WORKLOADS {
            let min_ops = if def.via_cluster { 1000 } else { 100 };
            assert!(def.ops_per_pass >= min_ops, "{}", def.name);
            let side = (def.nuclei as f64).cbrt().round() as usize;
            assert_eq!(side * side * side, def.nuclei, "{}: full grid", def.name);
            assert!(def.why.len() <= 200 && !def.why.contains('\n'));
        }
    }
}
