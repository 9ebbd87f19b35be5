//! The scatter-gather coordinator: a front-end that routes queries to a
//! cluster of shard engines and merges their partial results.
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
//!   shards; each returns its local winners with exact top-LOD distances,
//!   and the merge orders by `(distance, id)` and deduplicates replicas —
//!   bit-identical to the engine's own `(dist, id)` ranking.
//!
//! ## Overload and failure
//!
//! Admission is an executing-slot cap plus per-shard budgets: a query
//! whose route includes a backend with too many sub-queries in flight is
//! shed with a `retry_after_ms` hint derived from the most-loaded shard.
//! Sub-queries carry the residual request deadline (capped by
//! `sub_query_cap` even for unbounded requests) and per-backend socket
//! timeouts, so a dead or fault-injected shard degrades to a typed error
//! — or a partial result for kNN when `allow_partial` is set — never a
//! hang. Failure of one sub-query cancels the not-yet-dispatched rest.

use crate::client::{Client, QueryReply, RetryingClient};
use crate::protocol::{
    self, decode_header, decode_request_body_traced, ErrorCode, NodeRole, Request, Response,
    ShardInfoPayload, StatsExPayload, StatsPayload, TraceContext, HEADER_LEN, MIN_VERSION,
    NO_DEADLINE_MS, VERSION,
};
use crate::server::{bump, read_full, ConnWriter, Outcomes, ReadFull};
use crate::shard::ShardMap;
use crate::{RetryPolicy, ServeError};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tripro::fault::{self, mix64};
use tripro::obs;
use tripro::obs::{CostExemplar, MetricSnapshot, SpanKind, SpanSummary};
use tripro::sync::{lock, wait, Condvar, Mutex};
use tripro::{Deadline, ObjectStore, ServiceSnapshot, ServiceStats, TraceConfig};
use tripro_geom::{Aabb, Vec3};

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
    /// Hard per-attempt bound on any sub-query round trip, applied even
    /// when the client asked for no deadline — the "no hang" guarantee.
    pub sub_query_cap: Duration,
    /// Answer kNN queries with a partial-flagged result when a shard
    /// fails, instead of a typed error.
    pub allow_partial: bool,
    /// Read-timeout granularity at which blocked connection readers poll
    /// the shutdown flag.
    pub poll_interval: Duration,
    /// Retry/backoff policy for backend connections.
    pub retry: RetryPolicy,
    /// Span-tracing configuration applied at startup.
    pub trace: TraceConfig,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        let par = std::thread::available_parallelism().map_or(4, |n| n.get());
        Self {
            addr: "127.0.0.1:0".to_string(),
            shards: Vec::new(),
            epoch: 1,
            max_inflight: par.max(1),
            per_shard_budget: 64,
            max_connections: 256,
            deadline_cap: None,
            sub_query_cap: Duration::from_secs(10),
            allow_partial: false,
            poll_interval: Duration::from_millis(25),
            retry: RetryPolicy::default(),
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

/// A query operation a coordinator can route.
enum COp {
    Contains([f64; 3]),
    Intersect(u32),
    Within(u32, f64),
    Nn(u32),
    Knn(u32, u32),
    NnEx(u32),
    KnnEx(u32, u32),
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

/// Merged outcome of a coordinated query.
enum CoordReply {
    Ids {
        ids: Vec<u32>,
        partial: bool,
    },
    Scored {
        items: Vec<(u32, f64)>,
        partial: bool,
    },
    Fail {
        code: ErrorCode,
        message: String,
        retry_after_ms: u32,
    },
}

/// State shared by the accept loop and connection threads.
struct Core {
    target: Arc<ObjectStore>,
    map: ShardMap,
    /// Global source object count, validated identical on every backend.
    source_total: u64,
    cfg: CoordinatorConfig,
    backends: Vec<Backend>,
    stats: ServiceStats,
    outcomes: Outcomes,
    shutdown: AtomicBool,
    // LOCK-RANK(20): executing-request ledger (the coordinator has no
    // queue — admission either grants an executing slot or sheds); same
    // rank slot as the server's dispatch lock, before ConnWriter (30).
    executing: Mutex<usize>,
    /// Wakes `Coordinator::wait`/shutdown when the last query drains.
    drain_cv: Condvar,
    // LOCK-RANK(10): connection-handle list; outermost, held only to
    // push/reap handles.
    conns: Mutex<Vec<JoinHandle<()>>>,
}

impl Core {
    fn is_shutdown(&self) -> bool {
        // ORDERING: Acquire pairs with the Release store in
        // `begin_shutdown` (same protocol as the server's flag).
        self.shutdown.load(Ordering::Acquire)
    }

    fn begin_shutdown(&self) {
        // ORDERING: Release publishes pre-shutdown writes to threads that
        // observe the flag via the Acquire load above.
        self.shutdown.store(true, Ordering::Release);
        let st = lock(&self.executing);
        drop(st);
        self.drain_cv.notify_all();
    }

    /// Live sub-query count at the most-loaded backend.
    fn most_loaded(&self) -> usize {
        self.backends.iter().map(Backend::load).max().unwrap_or(0)
    }

    /// Backoff hint for a shed, derived from the most-loaded shard: how
    /// long that backend's backlog needs to drain at a few ms per
    /// sub-query. Clamped to 1ms..=30s.
    fn retry_after_hint(&self) -> u32 {
        let worst = self.most_loaded() as u128 + 1;
        worst.saturating_mul(2).clamp(1, 30_000) as u32
    }

    /// Deadline for a request: the client's ask clamped by the cap (same
    /// rule as the server's).
    fn deadline_for(&self, deadline_ms: u32) -> Deadline {
        let client =
            (deadline_ms != NO_DEADLINE_MS).then(|| Duration::from_millis(u64::from(deadline_ms)));
        match (client, self.cfg.deadline_cap) {
            (Some(c), Some(cap)) => Deadline::within(c.min(cap)),
            (Some(c), None) => Deadline::within(c),
            (None, Some(cap)) => Deadline::within(cap),
            (None, None) => Deadline::none(),
        }
    }

    fn stats_payload(&self) -> StatsPayload {
        let s = self.stats.snapshot();
        StatsPayload {
            admitted: s.admitted,
            shed: s.shed,
            deadline_expired: s.deadline_expired,
            completed: s.completed,
            protocol_errors: s.protocol_errors,
            target_objects: self.target.len() as u64,
            source_objects: self.source_total,
        }
    }

    fn stats_ex_payload(&self) -> StatsExPayload {
        let s = self.stats.snapshot();
        StatsExPayload {
            admitted: s.admitted,
            shed: s.shed,
            deadline_expired: s.deadline_expired,
            completed: s.completed,
            failed: s.failed,
            protocol_errors: s.protocol_errors,
            target_objects: self.target.len() as u64,
            source_objects: self.source_total,
            // The coordinator never decodes or refines; engine-side costs
            // live in the backends' own StatsEx.
            filter_ns: 0,
            decode_ns: 0,
            compute_ns: 0,
            face_pair_tests: 0,
            cache_hits: 0,
            cache_misses: 0,
            decodes: 0,
            reserved: [0; 11],
        }
    }

    fn shard_info_payload(&self) -> ShardInfoPayload {
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

    /// The shards a query must touch. Joins over unbounded distance
    /// (NN/kNN) scatter everywhere; region queries contact the owners of
    /// the cells the region overlaps (superset-safe, see `shard.rs`).
    fn route(&self, op: &COp) -> Vec<u32> {
        match *op {
            COp::Contains(p) => vec![self.map.shard_of_point(p)],
            COp::Intersect(t) => self.map.shards_for_box(self.target.mbb(t)),
            COp::Within(t, d) => {
                let b = self.target.mbb(t);
                let d = d.max(0.0);
                let grown = Aabb {
                    lo: b.lo - Vec3::new(d, d, d),
                    hi: b.hi + Vec3::new(d, d, d),
                };
                self.map.shards_for_box(&grown)
            }
            COp::Nn(_) | COp::Knn(..) | COp::NnEx(_) | COp::KnnEx(..) => self.map.all_shards(),
        }
    }
}

/// A running coordinator. Dropping the handle shuts it down gracefully.
pub struct Coordinator {
    core: Arc<Core>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
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
        obs::tracer().configure(&cfg.trace);
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
            if info.role != NodeRole::Engine {
                return Err(ServeError::Unexpected("backend is not an engine"));
            }
            if info.epoch != map.epoch {
                return Err(ServeError::Unexpected("backend shard-map epoch mismatch"));
            }
            if info.count != map.count {
                return Err(ServeError::Unexpected("backend shard-map count mismatch"));
            }
            if info.index != i as u32 {
                return Err(ServeError::Unexpected(
                    "backend shard index does not match its list position",
                ));
            }
            if info.cell.to_bits() != map.cell.to_bits() {
                return Err(ServeError::Unexpected("backend grid-cell pitch mismatch"));
            }
            if info.target_objects != target.len() as u64 {
                return Err(ServeError::Unexpected("backend target store mismatch"));
            }
            match source_total {
                None => source_total = Some(info.source_total),
                Some(t) if t != info.source_total => {
                    return Err(ServeError::Unexpected(
                        "backends disagree on the source dataset",
                    ));
                }
                Some(_) => {}
            }
            backends.push(Backend {
                addr,
                idle: Mutex::new(Vec::new()),
                outstanding: AtomicUsize::new(0),
            });
        }

        let listener = TcpListener::bind(
            cfg.addr
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| std::io::Error::other("unresolvable bind address"))?,
        )?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let core = Arc::new(Core {
            target,
            map,
            source_total: source_total.unwrap_or(0),
            cfg,
            backends,
            stats: ServiceStats::new(),
            outcomes: Outcomes::bind(),
            shutdown: AtomicBool::new(false),
            executing: Mutex::new(0),
            drain_cv: Condvar::new(),
            conns: Mutex::new(Vec::new()),
        });

        let accept = {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("tripro-coord-accept".into())
                .spawn(move || accept_loop(&core, &listener))?
        };

        Ok(Coordinator {
            core,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shard map this coordinator routes by.
    pub fn shard_map(&self) -> ShardMap {
        self.core.map
    }

    /// Current request-lifecycle counters; under `strict-invariants` the
    /// admission ledger is checked exactly like the server's.
    pub fn stats(&self) -> ServiceSnapshot {
        #[cfg(feature = "strict-invariants")]
        {
            let st = lock(&self.core.executing);
            let snap = self.core.stats.snapshot();
            let outstanding = *st as u64;
            assert!(
                snap.accounted() <= snap.admitted,
                "accounted {} > admitted {} ({snap:?})",
                snap.accounted(),
                snap.admitted,
            );
            assert!(
                snap.admitted <= snap.accounted() + outstanding,
                "admission ledger leak: admitted {} > accounted {} + \
                 outstanding {outstanding} ({snap:?})",
                snap.admitted,
                snap.accounted(),
            );
            return snap;
        }
        #[cfg(not(feature = "strict-invariants"))]
        self.core.stats.snapshot()
    }

    /// Block until a shutdown is requested and all executing queries
    /// drain.
    pub fn wait(&self) {
        let mut st = lock(&self.core.executing);
        while !(self.core.is_shutdown() && *st == 0) {
            st = wait(&self.core.drain_cv, st);
        }
    }

    /// Graceful shutdown: stop accepting, let executing queries finish,
    /// join all threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.core.begin_shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles = std::mem::take(&mut *lock(&self.core.conns));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

// ---------------------------------------------------------------------
// Accept + connection loops (same lifecycle as the server's)
// ---------------------------------------------------------------------

fn accept_loop(core: &Arc<Core>, listener: &TcpListener) {
    while !core.is_shutdown() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                let mut conns = lock(&core.conns);
                conns.retain(|h| !h.is_finished());
                if conns.len() >= core.cfg.max_connections {
                    drop(conns);
                    core.stats.record_shed();
                    bump(&core.outcomes.shed);
                    let writer = ConnWriter::new(stream);
                    writer.send_response(
                        0,
                        &Response::Error {
                            code: ErrorCode::Overloaded,
                            message: "connection limit reached".to_string(),
                            retry_after_ms: core.retry_after_hint(),
                        },
                    );
                    continue;
                }
                let core2 = Arc::clone(core);
                let spawned = std::thread::Builder::new()
                    .name("tripro-coord-conn".into())
                    .spawn(move || {
                        if catch_unwind(AssertUnwindSafe(|| conn_loop(&core2, stream))).is_err() {
                            obs::panic_counter("coord_conn").fetch_add(1, Ordering::Relaxed);
                        }
                    });
                match spawned {
                    Ok(h) => conns.push(h),
                    Err(_) => {
                        core.stats.record_shed();
                        bump(&core.outcomes.shed);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(core.cfg.poll_interval.min(Duration::from_millis(10)));
            }
            Err(_) => std::thread::sleep(core.cfg.poll_interval),
        }
    }
}

fn conn_loop(core: &Arc<Core>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(core.cfg.poll_interval));
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(ConnWriter::new(w)),
        Err(_) => return,
    };
    let mut reader = stream;

    loop {
        let mut hb = [0u8; HEADER_LEN];
        match read_full(&core.shutdown, &mut reader, &mut hb, true) {
            ReadFull::Full => {}
            ReadFull::Stop => return,
            ReadFull::Failed => {
                core.stats.record_protocol_error();
                bump(&core.outcomes.protocol_error);
                return;
            }
        }
        let header = match decode_header(&hb) {
            Ok(h) => h,
            Err(e) => {
                core.stats.record_protocol_error();
                bump(&core.outcomes.protocol_error);
                writer.send_response(
                    0,
                    &Response::Error {
                        code: ErrorCode::BadRequest,
                        message: e.to_string(),
                        retry_after_ms: 0,
                    },
                );
                return;
            }
        };
        if !(MIN_VERSION..=VERSION).contains(&header.version) {
            core.stats.record_protocol_error();
            bump(&core.outcomes.protocol_error);
            writer.send_response(
                header.request_id,
                &Response::Error {
                    code: ErrorCode::UnsupportedVersion,
                    message: format!("coordinator speaks versions {MIN_VERSION}..={VERSION}"),
                    retry_after_ms: 0,
                },
            );
            return;
        }
        let mut payload = vec![0u8; header.payload_len as usize];
        match read_full(&core.shutdown, &mut reader, &mut payload, false) {
            ReadFull::Full => {}
            ReadFull::Stop => return,
            ReadFull::Failed => {
                core.stats.record_protocol_error();
                bump(&core.outcomes.protocol_error);
                return;
            }
        }
        if !handle_frame(core, &writer, header.kind, header.request_id, &payload) {
            return;
        }
    }
}

/// Handle one framed request inline on the connection thread (queries
/// scatter onto the worker pool from here); returns `false` to close.
fn handle_frame(
    core: &Arc<Core>,
    writer: &Arc<ConnWriter>,
    kind: u8,
    id: u64,
    payload: &[u8],
) -> bool {
    let (request, trace) = match decode_request_body_traced(kind, payload) {
        Ok(r) => r,
        Err(e) => {
            core.stats.record_protocol_error();
            bump(&core.outcomes.protocol_error);
            writer.send_response(
                id,
                &Response::Error {
                    code: ErrorCode::BadRequest,
                    message: e.to_string(),
                    retry_after_ms: 0,
                },
            );
            return false;
        }
    };
    let (op, deadline_ms) = match request {
        Request::Hello {
            min_version,
            max_version,
            role: _,
        } => {
            let spoken = (MIN_VERSION..=VERSION)
                .rev()
                .find(|v| (min_version..=max_version).contains(v));
            match spoken {
                Some(version) => {
                    writer.send_response(
                        id,
                        &Response::HelloOk {
                            version,
                            role: NodeRole::Coordinator,
                        },
                    );
                }
                None => {
                    core.stats.record_protocol_error();
                    bump(&core.outcomes.protocol_error);
                    writer.send_response(
                        id,
                        &Response::Error {
                            code: ErrorCode::UnsupportedVersion,
                            message: format!(
                                "coordinator speaks versions {MIN_VERSION}..={VERSION}"
                            ),
                            retry_after_ms: 0,
                        },
                    );
                }
            }
            return true;
        }
        Request::Health => {
            writer.send_response(id, &Response::HealthOk);
            return true;
        }
        Request::Stats => {
            writer.send_response(id, &Response::StatsOk(core.stats_payload()));
            return true;
        }
        Request::StatsEx => {
            writer.send_response(id, &Response::StatsExOk(core.stats_ex_payload()));
            return true;
        }
        Request::ShardInfo => {
            writer.send_response(id, &Response::ShardInfoOk(core.shard_info_payload()));
            return true;
        }
        Request::Metrics => {
            // Federated scrape (v6): the coordinator answers for the whole
            // cluster — every reachable backend's binary snapshot merged
            // exactly with its own registry, one `node` label per origin.
            writer.send_response(
                id,
                &Response::MetricsOk {
                    text: federated_metrics(core),
                },
            );
            return true;
        }
        Request::MetricsBin => {
            // The coordinator's OWN registry as plain data — what another
            // federation layer (or a test) scrapes; the text `Metrics`
            // frame is the cluster-merged view.
            writer.send_response(
                id,
                &Response::MetricsBinOk(obs::snapshot_registry(obs::registry())),
            );
            return true;
        }
        Request::TraceLog => {
            writer.send_response(
                id,
                &Response::TraceLogOk {
                    text: obs::render_slow_log(),
                },
            );
            return true;
        }
        Request::Shutdown => {
            writer.send_response(id, &Response::ShutdownOk);
            core.begin_shutdown();
            return false;
        }
        Request::Contains { p, deadline_ms } => (COp::Contains(p), deadline_ms),
        Request::Intersect {
            target,
            deadline_ms,
        } => (COp::Intersect(target), deadline_ms),
        Request::Within {
            target,
            d,
            deadline_ms,
        } => (COp::Within(target, d), deadline_ms),
        Request::Nn {
            target,
            deadline_ms,
        } => (COp::Nn(target), deadline_ms),
        Request::Knn {
            target,
            k,
            deadline_ms,
        } => (COp::Knn(target, k), deadline_ms),
        Request::NnEx {
            target,
            deadline_ms,
        } => (COp::NnEx(target), deadline_ms),
        Request::KnnEx {
            target,
            k,
            deadline_ms,
        } => (COp::KnnEx(target, k), deadline_ms),
    };

    // Validate before admission so a bad id never occupies a slot.
    if let COp::Intersect(t)
    | COp::Within(t, _)
    | COp::Nn(t)
    | COp::Knn(t, _)
    | COp::NnEx(t)
    | COp::KnnEx(t, _) = op
    {
        if t as usize >= core.target.len() {
            writer.send_response(
                id,
                &Response::Error {
                    code: ErrorCode::BadRequest,
                    message: format!("target {t} out of range (store has {})", core.target.len()),
                    retry_after_ms: 0,
                },
            );
            return true;
        }
    }

    let shards = core.route(&op);

    // Admission: an executing slot plus every routed backend under its
    // sub-query budget. Shed with a hint from the most-loaded shard.
    let admitted = {
        let mut n = lock(&core.executing);
        let slot_free = !core.is_shutdown() && *n < core.cfg.max_inflight.max(1);
        let budget_ok = shards.iter().all(|&s| {
            core.backends
                .get(s as usize)
                .is_some_and(|b| b.load() < core.cfg.per_shard_budget.max(1))
        });
        if slot_free && budget_ok {
            core.stats.record_admitted();
            bump(&core.outcomes.admitted);
            *n += 1;
            true
        } else {
            false
        }
    };
    if !admitted {
        core.stats.record_shed();
        bump(&core.outcomes.shed);
        writer.send_response(
            id,
            &Response::Error {
                code: ErrorCode::Overloaded,
                message: "coordinator at capacity".to_string(),
                retry_after_ms: core.retry_after_hint(),
            },
        );
        return true;
    }

    let deadline = core.deadline_for(deadline_ms);
    execute_query(core, writer, id, &op, &deadline, &shards, trace);

    let mut n = lock(&core.executing);
    *n = n.saturating_sub(1);
    drop(n);
    core.drain_cv.notify_all();
    true
}

// ---------------------------------------------------------------------
// Scatter-gather execution
// ---------------------------------------------------------------------

/// Execute one admitted query end to end: scatter, merge, reply, account.
fn execute_query(
    core: &Arc<Core>,
    writer: &Arc<ConnWriter>,
    id: u64,
    op: &COp,
    deadline: &Deadline,
    shards: &[u32],
    trace: Option<TraceContext>,
) {
    // The cluster-wide trace id: the client's propagated id when it sent
    // one, else this wire request id. Sub-queries carry the same id to
    // every shard, so the whole fan-out renders as one waterfall in the
    // coordinator's slow log.
    let trace_id = trace.map_or(id, |t| t.trace_id);
    let _req = obs::tracer().request(trace_id);
    let started = Instant::now();
    // Propagate to shards when the client traced this request or our own
    // tracer is armed; ask for shard summaries (sampled) in either case —
    // they feed both the stitched trace and the client's aggregate.
    let sampled = trace.is_some_and(|t| t.sampled) || obs::enabled();
    let sub_ctx = (trace.is_some() || obs::enabled()).then_some(TraceContext {
        trace_id,
        parent_span_id: 0, // overwritten per shard at dispatch
        sampled,
    });
    // Panic containment mirrors `serve_one`: a panicking merge (or
    // injected fault) becomes a typed Internal error so the admission
    // ledger still balances.
    let exec = catch_unwind(AssertUnwindSafe(|| {
        coordinate(core, op, deadline, shards, trace_id, sub_ctx)
    }));
    let (result, summary) = match exec {
        Ok(r) => r,
        Err(payload) => {
            core.stats.record_panic();
            obs::panic_counter("coord_request").fetch_add(1, Ordering::Relaxed);
            (
                CoordReply::Fail {
                    code: ErrorCode::Internal,
                    message: fault::panic_message(payload.as_ref()),
                    retry_after_ms: 0,
                },
                None,
            )
        }
    };
    // A client that sent a sampled context gets the cluster aggregate on
    // its final page, totalled with the coordinator's own wall time.
    let reply_summary = trace.filter(|t| t.sampled).and(summary).map(|mut s| {
        s.total_ns = started.elapsed().as_nanos() as u64;
        s
    });
    match result {
        CoordReply::Ids { ids, partial } => {
            let pages = protocol::pages_of_flagged(&ids, partial);
            let n = pages.len();
            for (i, page) in pages.iter().enumerate() {
                let s = if i + 1 == n { reply_summary.as_ref() } else { None };
                writer.send_response_traced(id, page, s);
            }
            core.stats.record_completed();
            bump(&core.outcomes.completed);
        }
        CoordReply::Scored { items, partial } => {
            let pages = protocol::scored_pages_of(&items, partial);
            let n = pages.len();
            for (i, page) in pages.iter().enumerate() {
                let s = if i + 1 == n { reply_summary.as_ref() } else { None };
                writer.send_response_traced(id, page, s);
            }
            core.stats.record_completed();
            bump(&core.outcomes.completed);
        }
        CoordReply::Fail {
            code,
            message,
            retry_after_ms,
        } => {
            if code == ErrorCode::DeadlineExceeded {
                core.stats.record_deadline_expired();
                bump(&core.outcomes.deadline_expired);
            } else {
                core.stats.record_failed();
                bump(&core.outcomes.failed);
            }
            writer.send_response(
                id,
                &Response::Error {
                    code,
                    message,
                    retry_after_ms,
                },
            );
        }
    }
}

/// Scatter the query and merge the partial results, returning the reply
/// plus the cluster-aggregate span summary when shards reported cost.
fn coordinate(
    core: &Core,
    op: &COp,
    deadline: &Deadline,
    shards: &[u32],
    trace_id: u64,
    sub_ctx: Option<TraceContext>,
) -> (CoordReply, Option<SpanSummary>) {
    if shards.is_empty() {
        return (
            CoordReply::Ids {
                ids: Vec::new(),
                partial: false,
            },
            None,
        );
    }
    if deadline.check().is_err() {
        return (
            CoordReply::Fail {
                code: ErrorCode::DeadlineExceeded,
                message: "deadline expired before fan-out".to_string(),
                retry_after_ms: 0,
            },
            None,
        );
    }
    obs::shard_fanout_histogram().record(shards.len() as u64);

    // The residual deadline travels into every sub-query, capped so even
    // a no-deadline request cannot hang on a dead backend.
    let sub_ms = {
        let cap = core.cfg.sub_query_cap;
        let d = match deadline.remaining() {
            Some(r) => r.min(cap),
            None => cap,
        };
        d.as_millis().clamp(1, u128::from(u32::MAX) - 1) as u32
    };
    let req = match *op {
        COp::Contains(p) => Request::Contains {
            p,
            deadline_ms: sub_ms,
        },
        COp::Intersect(t) => Request::Intersect {
            target: t,
            deadline_ms: sub_ms,
        },
        COp::Within(t, d) => Request::Within {
            target: t,
            d,
            deadline_ms: sub_ms,
        },
        COp::Nn(t) | COp::NnEx(t) => Request::NnEx {
            target: t,
            deadline_ms: sub_ms,
        },
        COp::Knn(t, k) | COp::KnnEx(t, k) => Request::KnnEx {
            target: t,
            k,
            deadline_ms: sub_ms,
        },
    };
    let can_partial = core.cfg.allow_partial
        && matches!(
            op,
            COp::Knn(..) | COp::KnnEx(..) | COp::Nn(_) | COp::NnEx(_)
        );

    let (subs, legs) = scatter(core, shards, &req, deadline, can_partial, sub_ctx);
    // Stitch the shard legs into this trace (we are on the connection
    // thread, inside the request guard) and build the cluster aggregate.
    let summary = stitch(trace_id, &legs);
    (merge(op, subs, deadline, can_partial), summary)
}

/// Timing and wire summary of one dispatched shard sub-query.
struct ShardLeg {
    shard: u32,
    started: Instant,
    wall_ns: u64,
    summary: Option<SpanSummary>,
}

/// Replay each shard leg into the coordinator's open trace — a `shard`
/// span per sub-query, with `filter`/`decode`/`compute` children stacked
/// sequentially from the shard's reported durations — attach the
/// per-query cost exemplar, and return the cluster-aggregate summary
/// (`total_ns` is filled in by the caller with the coordinator's wall).
fn stitch(trace_id: u64, legs: &[ShardLeg]) -> Option<SpanSummary> {
    let mut agg = SpanSummary {
        trace_id,
        ..SpanSummary::default()
    };
    let mut ex = CostExemplar::default();
    let mut saw_summary = false;
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
        saw_summary = true;
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
        agg.filter_ns += s.filter_ns;
        agg.decode_ns += s.decode_ns;
        agg.compute_ns += s.compute_ns;
        agg.decoded_bytes += s.decoded_bytes;
        agg.cache_hits += s.cache_hits;
        agg.cache_misses += s.cache_misses;
        agg.lod_rounds += s.lod_rounds;
        agg.resolved_pairs += s.resolved_pairs;
        ex.shards.push((leg.shard, leg.wall_ns, s.decoded_bytes));
    }
    if !saw_summary {
        return None;
    }
    ex.decoded_bytes = agg.decoded_bytes;
    ex.resolved_pairs = agg.resolved_pairs;
    ex.cache_hits = agg.cache_hits;
    ex.cache_misses = agg.cache_misses;
    ex.lod_rounds = agg.lod_rounds;
    obs::attach_exemplar(ex);
    Some(agg)
}

/// Fan the sub-query out to `shards` on the process-wide worker pool.
/// Sub-queries run concurrently; a terminal failure cancels the
/// not-yet-dispatched remainder (unless a partial result can absorb it).
fn scatter(
    core: &Core,
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
                // Each shard gets the shared trace id with its own index
                // as the parent-span marker.
                let ctx = sub_ctx.map(|mut t| {
                    t.parent_span_id = u64::from(s);
                    t
                });
                let t0 = Instant::now();
                let (out, summary) = sub_query(core, s, req, deadline, ctx.as_ref());
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

/// One sub-query against one backend, with per-shard load accounting.
/// Returns the outcome plus the shard's span summary when it sent one.
fn sub_query(
    core: &Core,
    s: u32,
    req: &Request,
    deadline: &Deadline,
    trace: Option<&TraceContext>,
) -> (SubOutcome, Option<SpanSummary>) {
    let Some(b) = core.backends.get(s as usize) else {
        return (
            SubOutcome::Unavailable(format!("shard {s} not configured")),
            None,
        );
    };
    // ORDERING: Relaxed — advisory budget counter (see `Backend::load`).
    b.outstanding.fetch_add(1, Ordering::Relaxed);
    let out = sub_query_conn(core, b, s, req, deadline, trace);
    b.outstanding.fetch_sub(1, Ordering::Relaxed);
    out
}

fn sub_query_conn(
    core: &Core,
    b: &Backend,
    s: u32,
    req: &Request,
    deadline: &Deadline,
    trace: Option<&TraceContext>,
) -> (SubOutcome, Option<SpanSummary>) {
    // Check out an idle connection (guard drops before any I/O) or dial a
    // fresh one; the retrying client self-heals across reconnects, so it
    // is returned to the pool even after a failed attempt.
    let pooled = lock(&b.idle).pop();
    let mut conn = match pooled {
        Some(c) => c,
        None => {
            let mut policy = core.cfg.retry.clone();
            // Distinct deterministic jitter stream per shard.
            policy.seed = mix64(policy.seed ^ (u64::from(s) << 8));
            match RetryingClient::connect_as(b.addr, NodeRole::Coordinator, policy) {
                Ok(c) => c,
                Err(e) => {
                    return (
                        SubOutcome::Unavailable(format!("shard {s} unreachable: {e}")),
                        None,
                    );
                }
            }
        }
    };
    // Per-attempt socket timeout: slice the residual deadline across the
    // retry budget (a dead shard must fail every attempt *within* the
    // request deadline), capped by `sub_query_cap` for unbounded asks.
    let attempts = u64::from(core.cfg.retry.max_retries) + 1;
    let per_attempt = match deadline.remaining() {
        Some(r) => (r.mul_f64(0.8) / attempts as u32).min(core.cfg.sub_query_cap),
        None => core.cfg.sub_query_cap,
    }
    .max(Duration::from_millis(5));
    if let Err(e) = conn.raw().and_then(|c| c.set_timeout(Some(per_attempt))) {
        return (
            SubOutcome::Unavailable(format!("shard {s} unreachable: {e}")),
            None,
        );
    }
    match conn.query_traced(req, trace) {
        Ok((reply, _)) => {
            let summary = conn.last_summary().copied();
            lock(&b.idle).push(conn);
            (SubOutcome::Reply(reply), summary)
        }
        Err(e) => {
            lock(&b.idle).push(conn);
            (
                SubOutcome::Unavailable(format!("shard {s} failed: {e}")),
                None,
            )
        }
    }
}

/// Federated metrics: scrape every backend's registry over `MetricsBin`
/// frames, merge with the coordinator's own snapshot, and render one
/// exposition with a `node` label (plus an exact `node="cluster"`
/// aggregate — histogram merges are exact, not approximated).
fn federated_metrics(core: &Core) -> String {
    let mut nodes: Vec<tripro::obs::NodeSnapshot> = Vec::with_capacity(core.backends.len() + 1);
    nodes.push((
        "coordinator".to_owned(),
        obs::snapshot_registry(obs::registry()),
    ));
    for (i, b) in core.backends.iter().enumerate() {
        match scrape_backend(core, b, i as u32) {
            Ok(series) => nodes.push((format!("shard{i}"), series)),
            Err(e) => {
                obs::shard_error_counter(i).fetch_add(1, Ordering::Relaxed);
                eprintln!("tripro-coordinator: metrics scrape of shard {i} failed: {e}");
            }
        }
    }
    obs::render_federated(&nodes)
}

/// Fetch one backend's binary metrics snapshot, reusing (and returning)
/// an idle pooled connection when one is available.
fn scrape_backend(core: &Core, b: &Backend, s: u32) -> Result<Vec<MetricSnapshot>, ServeError> {
    let pooled = lock(&b.idle).pop();
    let mut conn = match pooled {
        Some(c) => c,
        None => {
            let mut policy = core.cfg.retry.clone();
            // Distinct deterministic jitter stream per shard.
            policy.seed = mix64(policy.seed ^ (u64::from(s) << 8));
            RetryingClient::connect_as(b.addr, NodeRole::Coordinator, policy)?
        }
    };
    let out = conn.raw().and_then(|c| {
        c.set_timeout(Some(core.cfg.sub_query_cap))?;
        c.metrics_bin()
    });
    if out.is_ok() {
        lock(&b.idle).push(conn);
    }
    out
}

/// Merge per-shard results into the client's answer. See the module doc
/// for why each merge is byte-identical to a single-engine run.
fn merge(
    op: &COp,
    subs: Vec<(u32, SubOutcome)>,
    deadline: &Deadline,
    can_partial: bool,
) -> CoordReply {
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
            return CoordReply::Fail {
                code: ErrorCode::DeadlineExceeded,
                message: "deadline expired in a shard sub-query".to_string(),
                retry_after_ms: 0,
            };
        }
        if let Some(hint) = overload_hint {
            return CoordReply::Fail {
                code: ErrorCode::Overloaded,
                message: "a shard shed the sub-query".to_string(),
                retry_after_ms: hint,
            };
        }
        let (s, m) = failed
            .first()
            .map(|(s, m)| (*s, m.clone()))
            .unwrap_or((0, "unknown".to_string()));
        return CoordReply::Fail {
            code: ErrorCode::Internal,
            message: format!("{} shard(s) failed; first: shard {s}: {m}", failed.len()),
            retry_after_ms: 0,
        };
    }

    match *op {
        // Single-shard passthrough: the backend's answer is already the
        // engine's byte-exact result.
        COp::Contains(_) => CoordReply::Ids { ids, partial },
        // Per-shard lists are each sorted ascending; replicated ids are
        // exact duplicates. Union + sort + dedup equals the engine's
        // sorted result.
        COp::Intersect(_) | COp::Within(..) => {
            ids.sort_unstable();
            ids.dedup();
            CoordReply::Ids { ids, partial }
        }
        // Every shard returned its local best with the exact top-LOD
        // distance; the global winner is the (distance, id) minimum.
        COp::Nn(_) | COp::NnEx(_) => {
            let winner = scored
                .iter()
                .copied()
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            match *op {
                COp::NnEx(_) => CoordReply::Scored {
                    items: winner.into_iter().collect(),
                    partial,
                },
                _ => CoordReply::Ids {
                    ids: winner.map(|(c, _)| c).into_iter().collect(),
                    partial,
                },
            }
        }
        // Union of per-shard top-k contains the global top-k; replicas of
        // the same id carry bit-identical distances, so sorting by
        // (distance, id) makes duplicates adjacent for dedup, then the
        // first k match the engine's own (distance, id) ranking.
        COp::Knn(_, k) | COp::KnnEx(_, k) => {
            scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            scored.dedup_by(|a, b| a.0 == b.0);
            scored.truncate(k as usize);
            match *op {
                COp::KnnEx(..) => CoordReply::Scored {
                    items: scored,
                    partial,
                },
                _ => CoordReply::Ids {
                    ids: scored.into_iter().map(|(c, _)| c).collect(),
                    partial,
                },
            }
        }
    }
}
