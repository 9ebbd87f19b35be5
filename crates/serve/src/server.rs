//! The shard engine: a node (the shared `node` skeleton) that executes queries
//! against its own stores through a per-cuboid batch dispatcher.
//!
//! ## Request lifecycle
//!
//! ```text
//! connection thread ──► admission ──► bounded queue ──► batcher
//!  (node skeleton)       (cap hit ⇒                     (groups by
//!                         Overloaded)                    cuboid, runs
//!                                                        on tripro::pool)
//! ```
//!
//! Every query op goes through admission into the dispatcher's bounded
//! queue. The batcher drains up to `max_inflight` requests per round, sorts
//! them by the cuboid of their target object (point probes bucket by a grid
//! cell of the same pitch) and fans the groups out on the process-wide
//! worker pool — so concurrent requests against the same region share
//! decode-cache residency exactly like the offline join driver's cuboid
//! batches (paper §5.3).
//!
//! ## Overload and deadlines
//!
//! Admission is a hard cap: `queued + executing < max_inflight +
//! queue_depth`, else the request is answered `Overloaded` immediately and
//! counted in [`ServiceStats::shed`](tripro::ServiceStats). Admitted
//! requests carry a [`Deadline`](tripro::Deadline) token into the engine;
//! expiry between LOD refinement rounds surfaces as a `DeadlineExceeded`
//! response without paying for further decode.

use crate::node::{Failure, Handler, Node, NodeConfig, NodeHandle, Op, Query, Reply};
use crate::protocol::{ErrorCode, NodeRole, ShardInfoPayload};
use crate::shard::ShardView;
use crate::ServeError;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tripro::fault;
use tripro::obs::{self, MetricSnapshot};
use tripro::sync::{lock, wait};
use tripro::{
    Accel, Engine, Error, ExecStats, ObjectStore, Paradigm, PointQuery, QueryConfig,
    ServiceSnapshot, TraceConfig,
};

/// Server configuration. `Default` is tuned for tests: loopback, ephemeral
/// port, parallelism matching the host.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see [`Server::addr`]).
    pub addr: String,
    /// Maximum requests executing concurrently (the admission semaphore).
    pub max_inflight: usize,
    /// Maximum requests waiting behind the executing set; admission refuses
    /// (`Overloaded`) beyond `max_inflight + queue_depth` outstanding.
    pub queue_depth: usize,
    /// Pool helper threads the batcher may recruit per round.
    pub batch_helpers: usize,
    /// Maximum simultaneously open client connections; excess connections
    /// are answered `Overloaded` and closed (bounded accept).
    pub max_connections: usize,
    /// Server-side cap on per-request deadlines: a client asking for more
    /// (or for no deadline) is clamped down to this budget. `None` = no cap.
    pub deadline_cap: Option<Duration>,
    /// Query paradigm for all requests (FPR unless benchmarking FR).
    pub paradigm: Paradigm,
    /// Acceleration strategy for all requests.
    pub accel: Accel,
    /// Artificial per-batch service time, injected while the executing slot
    /// is held. A load-testing knob: it makes overload and drain behaviour
    /// deterministic in tests and lets `tripro-load` probe admission
    /// control without a large dataset. `None` in production.
    pub inject_latency: Option<Duration>,
    /// Span-tracing configuration applied to the process-wide tracer at
    /// startup. Disabled by default: registry metrics (and the `Metrics`
    /// frame) work regardless; this only gates per-request span capture
    /// and the slow-query log.
    pub trace: TraceConfig,
    /// Cluster identity when this engine serves one shard of a partitioned
    /// source store (`None` = standalone single engine). Echoed over
    /// `ShardInfo` so a coordinator can validate the backend before
    /// routing to it (see `docs/sharding.md`).
    pub shard: Option<ShardView>,
    /// Local → global source id map when `shard` is set: query results
    /// are remapped to global ids before leaving the process, so every
    /// shard (and the coordinator merge) speaks one id space.
    pub source_ids: Option<Arc<Vec<u32>>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let par = tripro::pool::device_width();
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: par,
            queue_depth: 64,
            batch_helpers: par,
            max_connections: 256,
            deadline_cap: None,
            paradigm: Paradigm::FilterProgressiveRefine,
            accel: Accel::Aabb,
            inject_latency: None,
            trace: TraceConfig::default(),
            shard: None,
            source_ids: None,
        }
    }
}

/// An admitted request parked in the dispatcher queue.
struct Pending {
    query: Query,
    /// Batching key: cuboid index of the target object (or point bucket).
    group: u64,
}

/// The batcher's admission state.
#[derive(Default)]
pub(crate) struct Dispatch {
    queue: VecDeque<Pending>,
    executing: usize,
}

/// The shard engine's [`Handler`]: the stores, the batching keys and the
/// cumulative execution counters.
pub(crate) struct ShardEngine {
    target: Arc<ObjectStore>,
    source: Arc<ObjectStore>,
    cfg: ServeConfig,
    /// Target object id → cuboid group index (batching locality key).
    cuboid_of: Vec<u64>,
    /// Cuboid pitch used for bucketing point probes.
    cell: f64,
    exec_stats: ExecStats,
}

impl ShardEngine {
    /// Batching group for a query op: joins key on the target object's
    /// cuboid; point probes bucket into a grid of the same pitch (high bit
    /// set so the two key spaces never collide).
    fn group_of(&self, op: &Op) -> u64 {
        match *op {
            Op::Intersect(t) | Op::Within(t, _) | Op::Nearest { target: t, .. } => {
                self.cuboid_of.get(t as usize).copied().unwrap_or(0)
            }
            Op::Contains(p) => {
                let b = self.target.rtree().bounds();
                let cell = self.cell.max(1e-9);
                let gx = ((p[0] - b.lo.x) / cell).floor() as i64 & 0xFFFF;
                let gy = ((p[1] - b.lo.y) / cell).floor() as i64 & 0xFFFF;
                let gz = ((p[2] - b.lo.z) / cell).floor() as i64 & 0xFFFF;
                (1 << 63) | ((gx as u64) << 32) | ((gy as u64) << 16) | (gz as u64)
            }
        }
    }

    /// Local source id → global id (identity when not sharded).
    #[inline]
    fn global_id(&self, local: u32) -> u32 {
        match &self.cfg.source_ids {
            Some(map) => map.get(local as usize).copied().unwrap_or(local),
            None => local,
        }
    }

    /// Run one op against the stores. Contains results are target ids
    /// (full store everywhere); all other ops return source ids, remapped
    /// to the global id space when this engine serves a shard partition.
    fn run(&self, q: &Query, stats: &ExecStats) -> Result<Reply, Error> {
        fault::failpoint(fault::SERVE_EXEC)?;
        let qc =
            QueryConfig::new(self.cfg.paradigm, self.cfg.accel).with_deadline(q.deadline.clone());
        let engine = Engine::new(&self.target, &self.source);
        let global = |ids: Vec<u32>| Reply::Ids {
            ids: ids.into_iter().map(|id| self.global_id(id)).collect(),
            partial: false,
        };
        let scored = |items: Vec<(u32, f64)>| Reply::Scored {
            items: items
                .into_iter()
                .map(|(c, d)| (self.global_id(c), d))
                .collect(),
            partial: false,
        };
        match q.op {
            Op::Contains(pt) => PointQuery::new(&self.target)
                .containing(tripro_geom::vec3(pt[0], pt[1], pt[2]), &qc, stats)
                .map(|ids| Reply::Ids {
                    ids,
                    partial: false,
                }),
            Op::Intersect(t) => engine.intersect_one(t, &qc, stats).map(global),
            Op::Within(t, d) => engine.within_one(t, d, &qc, stats).map(global),
            // Scored: the distances the kNN tail computed are the ones the
            // coordinator merges on.
            Op::Nearest {
                target,
                k,
                scored: true,
            } => engine
                .knn_scored(target, k as usize, &qc, stats)
                .map(scored),
            Op::Nearest { target, k, .. } => {
                engine.knn_one(target, k as usize, &qc, stats).map(global)
            }
        }
    }

    /// Execute a single admitted request and stream its response.
    fn serve_one(node: &Node<Self>, q: &Query) {
        let me = &node.handler;
        node.execute(q, |_| {
            // Per-request cost attribution: a sampled trace executes
            // against a private stats block so its summary reports
            // this request's work alone; the block is merged back into the
            // cumulative counters after execution. Unsampled requests write
            // straight to the shared block.
            let sampled = q.trace.is_some_and(|t| t.sampled) && obs::enabled();
            let local = sampled.then(ExecStats::new);
            let result = me.run(q, local.as_ref().unwrap_or(&me.exec_stats));
            let summary = local.map(|local| {
                let snap = local.snapshot();
                me.exec_stats.merge_from(&snap);
                snap
            });
            let result = result.map_err(|e| match e {
                Error::DeadlineExceeded => Failure {
                    code: ErrorCode::DeadlineExceeded,
                    message: "deadline expired during refinement".to_string(),
                    retry_after_ms: 0,
                },
                e => Failure {
                    code: ErrorCode::Internal,
                    message: e.to_string(),
                    retry_after_ms: 0,
                },
            });
            (result, summary)
        });
    }
}

impl Handler for ShardEngine {
    const ROLE: NodeRole = NodeRole::Engine;
    const NAME: &'static str = "serve";
    type Admission = Dispatch;

    fn outstanding(st: &Dispatch) -> usize {
        st.queue.len() + st.executing
    }

    fn shard_info(&self) -> ShardInfoPayload {
        let (epoch, index, count, cell, source_total) = match self.cfg.shard {
            Some(v) => (
                v.map.epoch,
                v.index,
                v.map.count,
                v.map.cell,
                v.source_total,
            ),
            None => (0, 0, 1, self.cell, self.source.len() as u64),
        };
        ShardInfoPayload {
            role: NodeRole::Engine,
            epoch,
            index,
            count,
            cell,
            target_objects: self.target.len() as u64,
            source_objects: self.source.len() as u64,
            source_total,
        }
    }

    fn metrics(&self) -> Vec<MetricSnapshot> {
        obs::snapshot_registry(obs::registry())
    }

    /// Roughly how long `outstanding` requests need to drain at the
    /// configured batch rate. Clamped to 1ms..=30s so a hint is always
    /// present and never absurd.
    fn retry_after_ms(&self, outstanding: usize) -> u32 {
        let per_round = self.cfg.inject_latency.unwrap_or(Duration::from_millis(2));
        let rounds = outstanding / self.cfg.max_inflight.max(1) + 1;
        let ms = per_round.as_millis().saturating_mul(rounds as u128);
        ms.clamp(1, 30_000) as u32
    }

    /// Admission control: bounded outstanding work, shed beyond.
    fn submit(node: &Arc<Node<Self>>, query: Query) {
        let me = &node.handler;
        let cap = me.cfg.max_inflight + me.cfg.queue_depth;
        let group = me.group_of(&query.op);
        let mut slot = Some(Pending { query, group });
        let admitted = node.admit(|st| {
            if Self::outstanding(st) < cap {
                st.queue.extend(slot.take());
            }
            slot.is_none()
        });
        match admitted {
            Ok(()) => node.work_cv.notify_all(),
            Err(outstanding) => {
                if let Some(p) = slot {
                    let hint = me.retry_after_ms(outstanding);
                    node.shed(&p.query, "admission queue full", hint);
                }
            }
        }
    }
}

/// A running query server. Dropping the handle shuts it down gracefully.
pub struct Server {
    node: NodeHandle<ShardEngine>,
}

impl Server {
    /// Bind, spawn the accept loop and the batch dispatcher, and return.
    pub fn start(
        target: Arc<ObjectStore>,
        source: Arc<ObjectStore>,
        cfg: ServeConfig,
    ) -> Result<Server, ServeError> {
        // Precompute the object → cuboid map once, over the offline join
        // driver's default cuboids; it is the batching key for every join
        // request.
        let cell = target.default_cell();
        let mut cuboid_of = vec![0u64; target.len()];
        for (gi, group) in target.cuboids(cell).iter().enumerate() {
            for &id in group {
                if let Some(slot) = cuboid_of.get_mut(id as usize) {
                    *slot = gi as u64;
                }
            }
        }
        let node_cfg = NodeConfig {
            addr: cfg.addr.clone(),
            max_connections: cfg.max_connections,
            deadline_cap: cfg.deadline_cap,
            trace: cfg.trace.clone(),
        };
        let engine = ShardEngine {
            target,
            source,
            cfg,
            cuboid_of,
            cell,
            exec_stats: ExecStats::new(),
        };
        let mut node = NodeHandle::start(node_cfg, engine)?;
        node.spawn("batch", batch_loop)?;
        Ok(Server { node })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.node.addr()
    }

    /// Current request-lifecycle counters (under `strict-invariants`, with
    /// the admission ledger checked at snapshot time).
    pub fn stats(&self) -> ServiceSnapshot {
        self.node.stats()
    }

    /// Aggregate engine execution stats across all served requests.
    pub fn exec_stats(&self) -> tripro::StatsSnapshot {
        self.node.node.handler.exec_stats.snapshot()
    }

    /// Block until a shutdown is requested (e.g. by a remote `Shutdown`
    /// frame) and all admitted work has drained.
    pub fn wait(&self) {
        self.node.wait_drained();
    }

    /// Graceful shutdown: stop accepting, drain admitted work, join all
    /// threads.
    pub fn shutdown(self) {
        self.node.shutdown();
    }
}

// ---------------------------------------------------------------------
// Batch dispatcher
// ---------------------------------------------------------------------

fn batch_loop(node: &Arc<Node<ShardEngine>>) {
    let cfg = &node.handler.cfg;
    loop {
        let batch = {
            let mut st = lock(&node.admission);
            while st.queue.is_empty() && !node.is_shutdown() {
                st = wait(&node.work_cv, st);
            }
            if st.queue.is_empty() {
                return; // shutdown with a drained queue
            }
            let n = st.queue.len().min(cfg.max_inflight.max(1));
            let batch: Vec<Pending> = st.queue.drain(..n).collect();
            st.executing += batch.len();
            batch
        };

        // Load-testing knob: hold the executing slots for a fixed service
        // time so overload behaviour is observable at small scale.
        if let Some(hold) = cfg.inject_latency {
            std::thread::sleep(hold);
        }

        let n = batch.len();
        execute_batch(node, batch);
        node.release(|st| st.executing = st.executing.saturating_sub(n));
    }
}

/// Execute one admitted batch: group by cuboid, fan groups out on the
/// process-wide pool, one group per worker claim (decode-cache locality).
fn execute_batch(node: &Node<ShardEngine>, mut batch: Vec<Pending>) {
    batch.sort_by_key(|p| p.group);
    let mut groups: Vec<Vec<Pending>> = Vec::new();
    for p in batch {
        match groups.last_mut() {
            Some(g) if g.first().is_some_and(|f| f.group == p.group) => g.push(p),
            _ => groups.push(vec![p]),
        }
    }
    let next = AtomicUsize::new(0);
    let helpers = node
        .handler
        .cfg
        .batch_helpers
        .min(groups.len())
        .saturating_sub(1);
    tripro::pool::global().run_with(helpers, |_| {
        // `Node::execute` contains engine panics itself; this is the
        // backstop for anything that escapes it on the *caller*
        // participant, which would otherwise unwind into (and kill) the
        // batch loop. Pool helpers are already contained by the pool's
        // worker loop.
        let contained = catch_unwind(AssertUnwindSafe(|| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(group) = groups.get(i) else { return };
            for p in group {
                ShardEngine::serve_one(node, &p.query);
            }
        }));
        if contained.is_err() {
            obs::panic_counter("serve_batch").fetch_add(1, Ordering::Relaxed);
        }
    });
}
