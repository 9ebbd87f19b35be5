//! The scatter-gather coordinator: a node ([`crate::node`]) that routes
//! queries to a cluster of shard engines and merges their partial results.
//!
//! ## Topology
//!
//! The coordinator loads the **target store only** (routing needs target
//! MBBs; no geometry is ever decoded here). Each backend engine holds the
//! full target store plus its slice of the source store, cut by
//! [`partition_source`](crate::shard::partition_source) from the shared
//! [`ShardMap`] — with boundary-cuboid replication, so any source object
//! whose MBB overlaps a query region is held by at least one of the
//! region's cell owners. At startup the coordinator probes every backend
//! with `ShardInfo` and refuses to serve unless epoch, shard count, index
//! order, grid cell and dataset fingerprints all agree.
//!
//! ## Execution
//!
//! * `Contains` routes to the owner of the point's grid cell (every
//!   backend has the full target store; routing by cell spreads load).
//! * `Intersect`/`Within` scatter to the owners of the grid cells the
//!   query region overlaps; ids are unioned, deduplicated and sorted —
//!   byte-identical to a single engine because each per-target result
//!   list is sorted there too.
//! * `Nn`/`Knn` scatter scored sub-queries (`NnEx`/`KnnEx`) to **all**
//!   shards; each returns its local winners with the exact top-LOD
//!   distances its own kNN tail computed (`NnEx` is the shard's kNN
//!   top-1), and the merge orders by `(distance, id)` and deduplicates
//!   replicas — bit-identical to the engine's own `(dist, id)` ranking.
//!
//! ## Overload and failure
//!
//! Admission is an executing-slot cap plus per-shard budgets: a query
//! whose route includes a backend with too many sub-queries in flight is
//! shed with a `retry_after_ms` hint derived from the most-loaded shard.
//! Sub-queries carry the residual request deadline (capped by
//! `SUB_QUERY_CAP` even for unbounded requests) and per-backend socket
//! timeouts, so a dead or fault-injected shard degrades to a typed error
//! — or a partial result for kNN when `allow_partial` is set — never a
//! hang. Failure of one sub-query cancels the not-yet-dispatched rest.

use crate::client::{Client, QueryReply, RetryingClient};
use crate::node::{Failure, Handler, Node, NodeConfig, NodeHandle, Op, Query, Reply};
use crate::protocol::{ErrorCode, NodeRole, Request, ShardInfoPayload, TraceContext};
use crate::shard::ShardMap;
use crate::{RetryPolicy, ServeError};
use std::net::{SocketAddr, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tripro::fault::mix64;
use tripro::obs::{self, CostExemplar, MetricSnapshot, SpanKind};
use tripro::sync::{lock, Mutex};
use tripro::{Deadline, ExecStats, ObjectStore, ServiceSnapshot, StatsSnapshot, TraceConfig};
use tripro_geom::{Aabb, Vec3};

/// Hard per-attempt bound on any sub-query round trip, applied even when
/// the client asked for no deadline — the "no hang" guarantee.
const SUB_QUERY_CAP: Duration = Duration::from_secs(10);

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Backend shard addresses, in shard-index order.
    pub shards: Vec<String>,
    /// Shard-map epoch; every backend must have partitioned under it.
    pub epoch: u64,
    /// Maximum client queries executing concurrently.
    pub max_inflight: usize,
    /// Maximum sub-queries in flight against any single backend; a query
    /// routed through a backend at budget is shed.
    pub per_shard_budget: usize,
    /// Maximum simultaneously open client connections.
    pub max_connections: usize,
    /// Server-side cap on per-request deadlines (same semantics as
    /// [`ServeConfig::deadline_cap`](crate::ServeConfig)).
    pub deadline_cap: Option<Duration>,
    /// Answer kNN queries with a partial-flagged result when a shard
    /// fails, instead of a typed error.
    pub allow_partial: bool,
    /// Span-tracing configuration applied at startup.
    pub trace: TraceConfig,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            shards: Vec::new(),
            epoch: 1,
            max_inflight: tripro::pool::device_width(),
            per_shard_budget: 64,
            max_connections: 256,
            deadline_cap: None,
            allow_partial: false,
            trace: TraceConfig::default(),
        }
    }
}

/// One backend shard: its resolved address, an idle-connection pool and a
/// live sub-query counter (the per-shard admission budget).
struct Backend {
    addr: SocketAddr,
    // LOCK-RANK(26): per-backend idle-connection pool; a connection is
    // checked out under the guard and all sub-query I/O happens after it
    // drops — no blocking I/O ever runs under this lock.
    idle: Mutex<Vec<RetryingClient>>,
    /// Sub-queries currently in flight against this backend.
    outstanding: AtomicUsize,
}

impl Backend {
    #[inline]
    fn load(&self) -> usize {
        // ORDERING: Relaxed — advisory load-accounting counter consulted
        // by admission; no data is published under it.
        self.outstanding.load(Ordering::Relaxed)
    }
}

/// Outcome of one sub-query against one shard.
enum SubOutcome {
    Reply(QueryReply),
    /// Transport-level failure after the retry budget (dial, reset,
    /// timeout).
    Unavailable(String),
    /// Never dispatched: an earlier shard failed (or the deadline passed)
    /// and the scatter was cancelled.
    Skipped,
}

fn fail(code: ErrorCode, message: String, retry_after_ms: u32) -> Failure {
    Failure {
        code,
        message,
        retry_after_ms,
    }
}

/// The coordinator's [`Handler`]: the routing state and the backends.
pub(crate) struct Router {
    target: Arc<ObjectStore>,
    map: ShardMap,
    /// Global source object count, validated identical on every backend.
    source_total: u64,
    cfg: CoordinatorConfig,
    backends: Vec<Backend>,
}

impl Handler for Router {
    const ROLE: NodeRole = NodeRole::Coordinator;
    const NAME: &'static str = "coord";
    /// Queries executing (the coordinator has no queue — admission either
    /// grants an executing slot or sheds).
    type Admission = usize;

    fn outstanding(executing: &usize) -> usize {
        *executing
    }

    fn shard_info(&self) -> ShardInfoPayload {
        ShardInfoPayload {
            role: NodeRole::Coordinator,
            epoch: self.map.epoch,
            index: 0,
            count: self.map.count,
            cell: self.map.cell,
            target_objects: self.target.len() as u64,
            source_objects: self.source_total,
            source_total: self.source_total,
        }
    }

    /// The coordinator answers for the whole cluster: every reachable
    /// backend's snapshot next to its own registry, one `node` label per
    /// origin, plus the exact `node="cluster"` aggregates.
    fn metrics(&self) -> Vec<MetricSnapshot> {
        let mut nodes: Vec<obs::NodeSnapshot> = Vec::with_capacity(self.backends.len() + 1);
        nodes.push((
            "coordinator".to_owned(),
            obs::snapshot_registry(obs::registry()),
        ));
        for (i, b) in self.backends.iter().enumerate() {
            let scraped = self.checkout(b, i as u32).and_then(|mut conn| {
                let series = conn.raw().and_then(|c| {
                    c.set_timeout(Some(SUB_QUERY_CAP))?;
                    c.metrics()
                })?;
                lock(&b.idle).push(conn);
                Ok(series)
            });
            match scraped {
                Ok(series) => nodes.push((format!("shard{i}"), series)),
                Err(e) => {
                    obs::shard_error_counter(i).fetch_add(1, Ordering::Relaxed);
                    eprintln!("tripro-coordinator: metrics scrape of shard {i} failed: {e}");
                }
            }
        }
        obs::federate(&nodes)
    }

    /// Backoff hint derived from the most-loaded shard: how long that
    /// backend's backlog needs to drain at a few ms per sub-query.
    /// Clamped to 1ms..=30s.
    fn retry_after_ms(&self, _outstanding: usize) -> u32 {
        let worst = self.backends.iter().map(Backend::load).max().unwrap_or(0) as u128 + 1;
        worst.saturating_mul(2).clamp(1, 30_000) as u32
    }

    /// Admission: an executing slot plus every routed backend under its
    /// sub-query budget. Shed with a hint from the most-loaded shard;
    /// otherwise scatter inline on the connection thread.
    fn submit(node: &Arc<Node<Self>>, q: Query) {
        let me = &node.handler;
        let shards = me.route(&q.op);
        let admitted = node.admit(|executing| {
            let free = *executing < me.cfg.max_inflight.max(1)
                && shards.iter().all(|&s| {
                    me.backends
                        .get(s as usize)
                        .is_some_and(|b| b.load() < me.cfg.per_shard_budget.max(1))
                });
            *executing += usize::from(free);
            free
        });
        if admitted.is_err() {
            return node.shed(&q, "coordinator at capacity", me.retry_after_ms(0));
        }
        node.execute(&q, |trace_id| me.coordinate(&q, &shards, trace_id));
        node.release(|executing| *executing = executing.saturating_sub(1));
    }
}

impl Router {
    /// The shards a query must touch. Joins over unbounded distance
    /// (NN/kNN) scatter everywhere; region queries contact the owners of
    /// the cells the region overlaps (superset-safe, see `shard.rs`).
    fn route(&self, op: &Op) -> Vec<u32> {
        match *op {
            Op::Contains(p) => vec![self.map.shard_of_point(p)],
            Op::Intersect(t) => self.map.shards_for_box(self.target.mbb(t)),
            Op::Within(t, d) => {
                let b = self.target.mbb(t);
                let d = d.max(0.0);
                let grown = Aabb {
                    lo: b.lo - Vec3::new(d, d, d),
                    hi: b.hi + Vec3::new(d, d, d),
                };
                self.map.shards_for_box(&grown)
            }
            Op::Nn(_) | Op::Knn(..) | Op::NnEx(_) | Op::KnnEx(..) => self.map.all_shards(),
        }
    }

    /// Scatter the query and merge the partial results, returning the
    /// reply plus — for a client that sent a sampled context — the
    /// cluster-aggregate stats summary.
    fn coordinate(
        &self,
        q: &Query,
        shards: &[u32],
        trace_id: u64,
    ) -> (Result<Reply, Failure>, Option<StatsSnapshot>) {
        if shards.is_empty() {
            let empty = Reply::Ids {
                ids: Vec::new(),
                partial: false,
            };
            return (Ok(empty), None);
        }
        if q.deadline.check().is_err() {
            let message = "deadline expired before fan-out".to_string();
            return (Err(fail(ErrorCode::DeadlineExceeded, message, 0)), None);
        }
        obs::shard_fanout_histogram().record(shards.len() as u64);

        // The residual deadline travels into every sub-query, capped so even
        // a no-deadline request cannot hang on a dead backend.
        let deadline_ms = {
            let d = q
                .deadline
                .remaining()
                .map_or(SUB_QUERY_CAP, |r| r.min(SUB_QUERY_CAP));
            d.as_millis().clamp(1, u128::from(u32::MAX) - 1) as u32
        };
        let req = match q.op {
            Op::Contains(p) => Request::Contains { p, deadline_ms },
            Op::Intersect(target) => Request::Intersect {
                target,
                deadline_ms,
            },
            Op::Within(target, d) => Request::Within {
                target,
                d,
                deadline_ms,
            },
            Op::Nn(target) | Op::NnEx(target) => Request::NnEx {
                target,
                deadline_ms,
            },
            Op::Knn(target, k) | Op::KnnEx(target, k) => Request::KnnEx {
                target,
                k,
                deadline_ms,
            },
        };
        let can_partial = self.cfg.allow_partial
            && matches!(q.op, Op::Knn(..) | Op::KnnEx(..) | Op::Nn(_) | Op::NnEx(_));
        // Propagate the cluster-wide trace id to shards when the client
        // traced this request or our own tracer is armed; ask for shard
        // summaries (sampled) in either case — they feed both the stitched
        // trace and the client's aggregate.
        let sub_ctx = (q.trace.is_some() || obs::enabled()).then_some(TraceContext {
            trace_id,
            sampled: q.trace.is_some_and(|t| t.sampled) || obs::enabled(),
        });

        let (subs, legs) = self.scatter(shards, &req, &q.deadline, can_partial, sub_ctx);
        // Stitch the shard legs into this trace (we are on the connection
        // thread, inside the request's root span) and build the aggregate.
        let summary = stitch(&legs);
        (
            merge(&q.op, subs, &q.deadline, can_partial),
            q.trace.filter(|t| t.sampled).and(summary),
        )
    }

    /// Fan the sub-query out to `shards` on the process-wide worker pool.
    /// Sub-queries run concurrently; a terminal failure cancels the
    /// not-yet-dispatched remainder (unless a partial result can absorb it).
    fn scatter(
        &self,
        shards: &[u32],
        req: &Request,
        deadline: &Deadline,
        can_partial: bool,
        sub_ctx: Option<TraceContext>,
    ) -> (Vec<(u32, SubOutcome)>, Vec<ShardLeg>) {
        let cancel = AtomicBool::new(false);
        // LOCK-RANK(80): scatter result accumulator (outcomes + trace legs);
        // leaf lock local to this call, taken only for a push.
        #[allow(clippy::type_complexity)]
        let results: Mutex<(Vec<(u32, SubOutcome)>, Vec<ShardLeg>)> =
            Mutex::new((Vec::with_capacity(shards.len()), Vec::new()));
        let next = AtomicUsize::new(0);
        let helpers = shards.len().saturating_sub(1);
        tripro::pool::global().run_with(helpers, |_| {
            let contained = catch_unwind(AssertUnwindSafe(|| loop {
                // ORDERING: Relaxed — pure work-claiming counter.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&s) = shards.get(i) else { return };
                // ORDERING: Relaxed — cancellation is advisory; a racing
                // dispatch just completes normally and is merged.
                let out = if cancel.load(Ordering::Relaxed) || deadline.is_over() {
                    SubOutcome::Skipped
                } else {
                    let t0 = Instant::now();
                    let (out, summary) = self.sub_query(s, req, deadline, sub_ctx.as_ref());
                    let wall = t0.elapsed();
                    obs::shard_subquery_histogram(s as usize).record_duration(wall);
                    lock(&results).1.push(ShardLeg {
                        shard: s,
                        started: t0,
                        wall_ns: wall.as_nanos() as u64,
                        summary,
                    });
                    out
                };
                let failed = matches!(
                    &out,
                    SubOutcome::Reply(QueryReply::Error { .. }) | SubOutcome::Unavailable(_)
                );
                if failed {
                    obs::shard_error_counter(s as usize).fetch_add(1, Ordering::Relaxed);
                    if !can_partial {
                        // ORDERING: Relaxed — see the load above.
                        cancel.store(true, Ordering::Relaxed);
                    }
                }
                lock(&results).0.push((s, out));
            }));
            if contained.is_err() {
                obs::panic_counter("coord_scatter").fetch_add(1, Ordering::Relaxed);
            }
        });
        let collected = std::mem::take(&mut *lock(&results));
        collected
    }

    /// Check out an idle connection to backend `s` (the guard drops before
    /// any I/O) or dial a fresh one. The retrying client self-heals across
    /// reconnects, so callers return it to the pool even after a failed
    /// attempt.
    fn checkout(&self, b: &Backend, s: u32) -> Result<RetryingClient, ServeError> {
        let pooled = lock(&b.idle).pop();
        match pooled {
            Some(c) => Ok(c),
            None => {
                let mut policy = RetryPolicy::default();
                // Distinct deterministic jitter stream per shard.
                policy.seed = mix64(policy.seed ^ (u64::from(s) << 8));
                RetryingClient::connect_as(b.addr, NodeRole::Coordinator, policy)
            }
        }
    }

    /// One sub-query against one backend, with per-shard load accounting.
    /// Returns the outcome plus the shard's stats summary when it sent one.
    fn sub_query(
        &self,
        s: u32,
        req: &Request,
        deadline: &Deadline,
        trace: Option<&TraceContext>,
    ) -> (SubOutcome, Option<StatsSnapshot>) {
        let Some(b) = self.backends.get(s as usize) else {
            let m = format!("shard {s} not configured");
            return (SubOutcome::Unavailable(m), None);
        };
        // Per-attempt socket timeout: slice the residual deadline across the
        // retry budget (a dead shard must fail every attempt *within* the
        // request deadline), capped by `SUB_QUERY_CAP` for unbounded asks.
        let attempts = RetryPolicy::default().max_retries + 1;
        let per_attempt = match deadline.remaining() {
            Some(r) => (r.mul_f64(0.8) / attempts).min(SUB_QUERY_CAP),
            None => SUB_QUERY_CAP,
        }
        .max(Duration::from_millis(5));
        // ORDERING: Relaxed — advisory budget counter (see `Backend::load`).
        b.outstanding.fetch_add(1, Ordering::Relaxed);
        let attempt = self.checkout(b, s).and_then(|mut conn| {
            conn.raw()?.set_timeout(Some(per_attempt))?;
            Ok(conn)
        });
        let out = match attempt {
            Err(e) => {
                let m = format!("shard {s} unreachable: {e}");
                (SubOutcome::Unavailable(m), None)
            }
            Ok(mut conn) => {
                let out = match conn.query_traced(req, trace) {
                    Ok((reply, summary, _)) => (SubOutcome::Reply(reply), summary),
                    Err(e) => {
                        let m = format!("shard {s} failed: {e}");
                        (SubOutcome::Unavailable(m), None)
                    }
                };
                lock(&b.idle).push(conn);
                out
            }
        };
        b.outstanding.fetch_sub(1, Ordering::Relaxed);
        out
    }
}

/// A running coordinator. Dropping the handle shuts it down gracefully.
pub struct Coordinator {
    node: NodeHandle<Router>,
}

impl Coordinator {
    /// Validate every backend (`ShardInfo` handshake), bind, spawn the
    /// accept loop, and return.
    pub fn start(
        target: Arc<ObjectStore>,
        cfg: CoordinatorConfig,
    ) -> Result<Coordinator, ServeError> {
        if cfg.shards.is_empty() {
            return Err(ServeError::Unexpected(
                "coordinator needs at least one shard",
            ));
        }
        let map = ShardMap::new(
            cfg.epoch,
            ShardMap::cell_for(&target),
            cfg.shards.len() as u32,
        );

        // Probe every backend before serving: a mis-partitioned or
        // stale-epoch backend would silently drop results, so refuse to
        // start instead.
        let mut backends = Vec::with_capacity(cfg.shards.len());
        let mut source_total: Option<u64> = None;
        for (i, s) in cfg.shards.iter().enumerate() {
            let addr = s
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| std::io::Error::other("unresolvable shard address"))?;
            let mut probe = Client::connect_as(addr, NodeRole::Coordinator)?;
            let info = probe.shard_info()?;
            for (ok, why) in [
                (info.role == NodeRole::Engine, "backend is not an engine"),
                (info.epoch == map.epoch, "backend shard-map epoch mismatch"),
                (info.count == map.count, "backend shard-map count mismatch"),
                (
                    info.index == i as u32,
                    "backend shard index does not match its list position",
                ),
                (
                    info.cell.to_bits() == map.cell.to_bits(),
                    "backend grid-cell pitch mismatch",
                ),
                (
                    info.target_objects == target.len() as u64,
                    "backend target store mismatch",
                ),
                (
                    *source_total.get_or_insert(info.source_total) == info.source_total,
                    "backends disagree on the source dataset",
                ),
            ] {
                if !ok {
                    return Err(ServeError::Unexpected(why));
                }
            }
            backends.push(Backend {
                addr,
                idle: Mutex::new(Vec::new()),
                outstanding: AtomicUsize::new(0),
            });
        }

        let node_cfg = NodeConfig {
            addr: cfg.addr.clone(),
            max_connections: cfg.max_connections,
            deadline_cap: cfg.deadline_cap,
            trace: cfg.trace.clone(),
        };
        let router = Router {
            target,
            map,
            source_total: source_total.unwrap_or(0),
            cfg,
            backends,
        };
        Ok(Coordinator {
            node: NodeHandle::start(node_cfg, router)?,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.node.addr()
    }

    /// The shard map this coordinator routes by.
    pub fn shard_map(&self) -> ShardMap {
        self.node.node.handler.map
    }

    /// Current request-lifecycle counters; under `strict-invariants` the
    /// admission ledger is checked exactly like the server's.
    pub fn stats(&self) -> ServiceSnapshot {
        self.node.stats()
    }

    /// Block until a shutdown is requested and all executing queries
    /// drain.
    pub fn wait(&self) {
        self.node.wait_drained();
    }

    /// Graceful shutdown: stop accepting, let executing queries finish,
    /// join all threads.
    pub fn shutdown(self) {
        self.node.shutdown();
    }
}

/// Timing and wire summary of one dispatched shard sub-query.
struct ShardLeg {
    shard: u32,
    started: Instant,
    wall_ns: u64,
    summary: Option<StatsSnapshot>,
}

/// Replay each shard leg into the coordinator's open trace — a `shard`
/// span per sub-query, with `filter`/`decode`/`compute` children stacked
/// sequentially from the shard's reported durations — attach the
/// per-query cost exemplar, and return the cluster-aggregate summary.
fn stitch(legs: &[ShardLeg]) -> Option<StatsSnapshot> {
    let total = ExecStats::new();
    let mut shards = Vec::new();
    for leg in legs {
        obs::record_remote(
            SpanKind::Shard,
            leg.shard,
            obs::trace::NO_LOD,
            leg.started,
            leg.wall_ns,
            0,
        );
        let Some(s) = &leg.summary else { continue };
        let mut at = leg.started;
        for (kind, ns) in [
            (SpanKind::Filter, s.filter_ns),
            (SpanKind::Decode, s.decode_ns),
            (SpanKind::Compute, s.compute_ns),
        ] {
            if ns > 0 {
                obs::record_remote(kind, obs::trace::NO_OBJECT, obs::trace::NO_LOD, at, ns, 1);
                at += Duration::from_nanos(ns);
            }
        }
        total.merge_from(s);
        shards.push((leg.shard, leg.wall_ns, s.decoded_bytes));
    }
    // One fanout entry per reported summary: none means nothing to sum.
    if shards.is_empty() {
        return None;
    }
    let total = total.snapshot();
    obs::attach_exemplar(CostExemplar {
        total: total.clone(),
        shards,
    });
    Some(total)
}

/// Merge per-shard results into the client's answer. See the module doc
/// for why each merge is byte-identical to a single-engine run.
fn merge(
    op: &Op,
    subs: Vec<(u32, SubOutcome)>,
    deadline: &Deadline,
    can_partial: bool,
) -> Result<Reply, Failure> {
    let _m = obs::time(obs::merge_latency_histogram());
    let mut ids: Vec<u32> = Vec::new();
    let mut scored: Vec<(u32, f64)> = Vec::new();
    let mut failed: Vec<(u32, String)> = Vec::new();
    let mut deadline_hit = false;
    let mut overload_hint: Option<u32> = None;
    for (s, out) in subs {
        match out {
            SubOutcome::Reply(QueryReply::Ids(v) | QueryReply::PartialIds(v)) => {
                ids.extend_from_slice(&v);
            }
            SubOutcome::Reply(QueryReply::Scored { items, .. }) => {
                scored.extend_from_slice(&items);
            }
            SubOutcome::Reply(QueryReply::Error {
                code,
                message,
                retry_after_ms,
            }) => {
                match code {
                    ErrorCode::DeadlineExceeded => deadline_hit = true,
                    ErrorCode::Overloaded => {
                        overload_hint = Some(overload_hint.unwrap_or(0).max(retry_after_ms.max(1)));
                    }
                    _ => {}
                }
                failed.push((s, format!("{code:?}: {message}")));
            }
            SubOutcome::Unavailable(m) => {
                if deadline.is_over() {
                    deadline_hit = true;
                }
                failed.push((s, m));
            }
            SubOutcome::Skipped => failed.push((s, "skipped after earlier failure".to_string())),
        }
    }

    let partial = !failed.is_empty();
    if partial && !can_partial {
        if deadline_hit || deadline.is_over() {
            let message = "deadline expired in a shard sub-query".to_string();
            return Err(fail(ErrorCode::DeadlineExceeded, message, 0));
        }
        if let Some(hint) = overload_hint {
            let message = "a shard shed the sub-query".to_string();
            return Err(fail(ErrorCode::Overloaded, message, hint));
        }
        let (s, m) = failed
            .first()
            .map(|(s, m)| (*s, m.clone()))
            .unwrap_or((0, "unknown".to_string()));
        let message = format!("{} shard(s) failed; first: shard {s}: {m}", failed.len());
        return Err(fail(ErrorCode::Internal, message, 0));
    }

    Ok(match *op {
        // Single-shard passthrough: the backend's answer is already the
        // engine's byte-exact result.
        Op::Contains(_) => Reply::Ids { ids, partial },
        // Per-shard lists are each sorted ascending; replicated ids are
        // exact duplicates. Union + sort + dedup equals the engine's
        // sorted result.
        Op::Intersect(_) | Op::Within(..) => {
            ids.sort_unstable();
            ids.dedup();
            Reply::Ids { ids, partial }
        }
        // Every shard returned its local best with the exact top-LOD
        // distance; the global winner is the (distance, id) minimum.
        Op::Nn(_) | Op::NnEx(_) => {
            let winner = scored
                .iter()
                .copied()
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            match *op {
                Op::NnEx(_) => Reply::Scored {
                    items: winner.into_iter().collect(),
                    partial,
                },
                _ => Reply::Ids {
                    ids: winner.map(|(c, _)| c).into_iter().collect(),
                    partial,
                },
            }
        }
        // Union of per-shard top-k contains the global top-k; replicas of
        // the same id carry bit-identical distances, so sorting by
        // (distance, id) makes duplicates adjacent for dedup, then the
        // first k match the engine's own (distance, id) ranking.
        Op::Knn(_, k) | Op::KnnEx(_, k) => {
            scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            scored.dedup_by(|a, b| a.0 == b.0);
            scored.truncate(k as usize);
            match *op {
                Op::KnnEx(..) => Reply::Scored {
                    items: scored,
                    partial,
                },
                _ => Reply::Ids {
                    ids: scored.into_iter().map(|(c, _)| c).collect(),
                    partial,
                },
            }
        }
    })
}
