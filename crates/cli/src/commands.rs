//! CLI subcommand implementations.

use crate::args::Parsed;
use crate::error::CliError;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Print a line to stdout, exiting quietly on a closed pipe (e.g. `| head`).
macro_rules! outln {
    ($($arg:tt)*) => {{
        let mut stdout = std::io::stdout().lock();
        if writeln!(stdout, $($arg)*).is_err() {
            std::process::exit(0);
        }
    }};
}
use tripro::{Accel, Engine, ExecStats, ObjectStore, Paradigm, QueryConfig, StoreConfig};
use tripro_mesh::{load_mesh, save_obj, EncoderConfig, TriMesh};
use tripro_synth::{DatasetConfig, VesselConfig};

/// `tripro generate` — synthesize a tissue block as OBJ directories.
pub fn generate(a: &Parsed) -> Result<(), CliError> {
    let out = PathBuf::from(a.require("out")?);
    let cfg = DatasetConfig {
        nuclei_count: a.get_parsed("nuclei", 200usize)?,
        vessel_count: a.get_parsed("vessels", 2usize)?,
        seed: a.get_parsed("seed", 0x3D9E0u64)?,
        vessel: VesselConfig {
            grid: a.get_parsed("grid", 32usize)?,
            levels: a.get_parsed("levels", 3usize)?,
            ..Default::default()
        },
        ..Default::default()
    };
    eprintln!(
        "generating {} nuclei (x2 segmentations) and {} vessels...",
        cfg.nuclei_count, cfg.vessel_count
    );
    let block = tripro_synth::generate(&cfg);
    for (sub, meshes) in [
        ("nuclei_a", &block.nuclei_a),
        ("nuclei_b", &block.nuclei_b),
        ("vessels", &block.vessels),
    ] {
        let dir = out.join(sub);
        std::fs::create_dir_all(&dir)?;
        for (i, m) in meshes.iter().enumerate() {
            save_obj(dir.join(format!("{sub}_{i:06}.obj")), m)
                .map_err(|e| CliError::msg(e.to_string()))?;
        }
        eprintln!("  wrote {} meshes to {}", meshes.len(), dir.display());
    }
    Ok(())
}

fn collect_meshes(dir: &Path) -> Result<Vec<(PathBuf, TriMesh)>, CliError> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for e in
            std::fs::read_dir(&d).map_err(|e| CliError::msg(format!("{}: {e}", d.display())))?
        {
            let p = e?.path();
            if p.is_dir() {
                stack.push(p);
            } else if matches!(
                p.extension()
                    .and_then(|x| x.to_str())
                    .map(str::to_ascii_lowercase)
                    .as_deref(),
                Some("obj") | Some("off")
            ) {
                files.push(p);
            }
        }
    }
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for p in files {
        let m = load_mesh(&p).map_err(|e| CliError::msg(format!("{}: {e}", p.display())))?;
        out.push((p, m));
    }
    Ok(out)
}

/// `tripro build` — compress a directory of meshes into a store.
pub fn build(a: &Parsed) -> Result<(), CliError> {
    let input = PathBuf::from(a.require("in")?);
    let out = PathBuf::from(a.require("out")?);
    let mut meshes = collect_meshes(&input)?;
    if meshes.is_empty() {
        return Err(CliError::msg(format!(
            "no .obj/.off meshes under {}",
            input.display()
        )));
    }
    if a.has("repair") {
        let mut flipped_total = 0usize;
        for (path, m) in &mut meshes {
            tripro_mesh::remove_duplicate_faces(m);
            m.weld(0.0);
            flipped_total += tripro_mesh::fix_orientation(m)
                .map_err(|e| CliError::msg(format!("{}: {e}", path.display())))?;
        }
        eprintln!("repair: normalised winding ({flipped_total} faces flipped)");
    }
    eprintln!("compressing {} meshes...", meshes.len());
    let cfg = StoreConfig {
        encoder: EncoderConfig {
            bits: a.get_parsed("bits", 16u32)?,
            max_lod: a.get_parsed("lods", 5usize)?,
            ..Default::default()
        },
        ..Default::default()
    };
    let only: Vec<TriMesh> = meshes.iter().map(|(_, m)| m.clone()).collect();
    let t0 = std::time::Instant::now();
    let store = ObjectStore::build(&only, &cfg).map_err(|e| {
        CliError::msg(format!(
            "encoding failed (meshes must be closed orientable manifolds): {e}"
        ))
    })?;
    let cell: f64 = a.get_parsed("cuboid", 1e18f64)?;
    store.save_dir(&out, cell)?;
    eprintln!(
        "built store: {} objects, {} KiB compressed, {:?}; saved to {}",
        store.len(),
        store.compressed_bytes() / 1024,
        t0.elapsed(),
        out.display()
    );
    Ok(())
}

/// `tripro info` — summarize a store.
pub fn info(a: &Parsed) -> Result<(), CliError> {
    let store = load_store(a.require("store")?)?;
    outln!("objects:            {}", store.len());
    outln!("compressed bytes:   {}", store.compressed_bytes());
    outln!("full-LOD faces:     {}", store.total_full_faces());
    outln!("max LOD:            {}", store.max_lod_overall());
    let bb = store.rtree().bounds();
    outln!(
        "bounds:             {:?} .. {:?}",
        bb.lo.to_array(),
        bb.hi.to_array()
    );
    // LOD ladder histogram.
    let mut ladders = std::collections::BTreeMap::new();
    for id in 0..store.len() as u32 {
        *ladders.entry(store.max_lod(id)).or_insert(0usize) += 1;
    }
    for (lod, n) in ladders {
        outln!("  {n} objects reach LOD {lod}");
    }
    Ok(())
}

/// `tripro lods` — export every LOD of one object.
pub fn lods(a: &Parsed) -> Result<(), CliError> {
    let store = load_store(a.require("store")?)?;
    let id: u32 = a.get_parsed("id", 0u32)?;
    if id as usize >= store.len() {
        return Err(CliError::msg(format!(
            "object {id} out of range (store has {})",
            store.len()
        )));
    }
    let out = PathBuf::from(a.require("out")?);
    std::fs::create_dir_all(&out)?;
    let stats = ExecStats::new();
    for lod in 0..=store.max_lod(id) {
        let data = store.get(id, lod, &stats)?;
        let tris = data.triangles.as_ref();
        let mut tm = TriMesh::default();
        for t in tris {
            let base = tm.vertices.len() as u32;
            tm.vertices.extend(t.vertices());
            tm.faces.push([base, base + 1, base + 2]);
        }
        let path = out.join(format!("object{id}_lod{lod}.obj"));
        save_obj(&path, &tm).map_err(|e| CliError::msg(e.to_string()))?;
        outln!("LOD {lod}: {} faces -> {}", tris.len(), path.display());
    }
    Ok(())
}

fn load_store(dir: &str) -> Result<ObjectStore, CliError> {
    ObjectStore::load_dir(Path::new(dir), 256 << 20)
        .map_err(|e| CliError::msg(format!("{dir}: {e}")))
}

fn accel_of(a: &Parsed) -> Result<Accel, CliError> {
    Ok(match a.get("accel").unwrap_or("aabb") {
        "brute" => Accel::Brute,
        "partition" => Accel::Partition,
        "aabb" => Accel::Aabb,
        "gpu" => Accel::Gpu,
        "partition-gpu" => Accel::PartitionGpu,
        other => return Err(CliError::msg(format!("unknown --accel {other:?}"))),
    })
}

/// `tripro query <kind>` — run a join between two stores.
pub fn query(kind: &str, a: &Parsed) -> Result<(), CliError> {
    let target = load_store(a.require("target")?)?;
    let source = load_store(a.require("source")?)?;
    let paradigm = if a.has("fr") {
        Paradigm::FilterRefine
    } else {
        Paradigm::FilterProgressiveRefine
    };
    let cfg =
        QueryConfig::new(paradigm, accel_of(a)?).with_threads(a.get_parsed("threads", 1usize)?);
    let engine = Engine::new(&target, &source);
    let t0 = std::time::Instant::now();
    match kind {
        "intersect" => {
            let (pairs, stats) = engine.intersection_join(&cfg)?;
            report(&pairs, t0.elapsed(), &stats);
        }
        "within" => {
            let d: f64 = a
                .require("distance")?
                .parse()
                .map_err(|_| CliError::msg("bad --distance"))?;
            let (pairs, stats) = engine.within_join(d, &cfg)?;
            report(&pairs, t0.elapsed(), &stats);
        }
        "nn" => {
            let k: usize = a.get_parsed("k", 1usize)?;
            if k == 1 {
                let (pairs, stats) = engine.nn_join(&cfg)?;
                for (t, n) in &pairs {
                    outln!("{t}\t{}", n.map_or(-1i64, |v| v as i64));
                }
                summary(t0.elapsed(), &stats);
            } else {
                let (pairs, stats) = engine.knn_join(k, &cfg)?;
                report(&pairs, t0.elapsed(), &stats);
            }
        }
        "contains" => {
            // Point containment against the *target* store only.
            let p = tripro_geom::vec3(
                a.require("x")?
                    .parse()
                    .map_err(|_| CliError::msg("bad --x"))?,
                a.require("y")?
                    .parse()
                    .map_err(|_| CliError::msg("bad --y"))?,
                a.require("z")?
                    .parse()
                    .map_err(|_| CliError::msg("bad --z"))?,
            );
            let q = tripro::PointQuery::new(&target);
            let stats = ExecStats::new();
            let hits = q.containing(p, &cfg, &stats)?;
            for id in &hits {
                outln!("{id}");
            }
            summary(t0.elapsed(), &stats);
        }
        other => {
            return Err(CliError::msg(format!(
                "unknown query kind {other:?}; use intersect|within|nn|contains"
            )))
        }
    }
    Ok(())
}

/// `tripro serve` — expose two stores over the wire protocol, either as
/// a standalone engine, one shard of a cluster (`--shard-index` /
/// `--shard-count`), or the coordinator fronting one (`--coordinator`).
pub fn serve(a: &Parsed) -> Result<(), CliError> {
    use std::sync::Arc;
    use std::time::Duration;
    use tripro_serve::{ServeConfig, Server};

    // Arm fault-injection failpoints from TRIPRO_FAILPOINTS before any
    // request can hit an instrumented site (chaos/soak testing knob; a
    // malformed spec aborts startup rather than silently running clean).
    let armed_sites = tripro::fault::init_from_env()
        .map_err(|e| CliError::msg(format!("TRIPRO_FAILPOINTS: {e}")))?;
    if armed_sites > 0 {
        eprintln!("fault injection: {armed_sites} failpoint(s) armed from TRIPRO_FAILPOINTS");
    }

    if a.has("coordinator") {
        return serve_coordinator(a);
    }

    let target = Arc::new(load_store(a.require("target")?)?);
    let source = load_store(a.require("source")?)?;

    // Shard mode: cut the source store down to this shard's replica set
    // under the shared (epoch, cell, count) map before serving.
    let shard_count: u32 = a.get_parsed("shard-count", 1u32)?;
    let (source, shard, source_ids) = if shard_count > 1 {
        let index: u32 = a.get_parsed("shard-index", 0u32)?;
        if index >= shard_count {
            return Err(CliError::msg(format!(
                "--shard-index {index} out of range for --shard-count {shard_count}"
            )));
        }
        let epoch: u64 = a.get_parsed("epoch", 1u64)?;
        let map = tripro_serve::ShardMap::new(
            epoch,
            tripro_serve::ShardMap::cell_for(&target),
            shard_count,
        );
        let source_total = source.len() as u64;
        let (local, ids) = tripro_serve::partition_source(source, &map, index, 256 << 20);
        eprintln!(
            "shard {index}/{shard_count} (epoch {epoch}): holds {} of {source_total} \
             source objects after boundary replication",
            local.len()
        );
        (
            Arc::new(local),
            Some(tripro_serve::ShardView {
                map,
                index,
                source_total,
            }),
            Some(ids),
        )
    } else {
        (Arc::new(source), None, None)
    };

    let defaults = ServeConfig::default();
    let mut cfg = ServeConfig {
        addr: a.get("addr").unwrap_or("127.0.0.1:3750").to_string(),
        paradigm: if a.has("fr") {
            Paradigm::FilterRefine
        } else {
            Paradigm::FilterProgressiveRefine
        },
        accel: accel_of(a)?,
        max_inflight: a.get_parsed("max-inflight", defaults.max_inflight)?,
        queue_depth: a.get_parsed("queue-depth", defaults.queue_depth)?,
        max_connections: a.get_parsed("max-connections", defaults.max_connections)?,
        shard,
        source_ids,
        ..defaults
    };
    let cap_ms: u64 = a.get_parsed("deadline-cap-ms", 0u64)?;
    if cap_ms > 0 {
        cfg.deadline_cap = Some(Duration::from_millis(cap_ms));
    }
    let inject_ms: u64 = a.get_parsed("inject-latency-ms", 0u64)?;
    if inject_ms > 0 {
        cfg.inject_latency = Some(Duration::from_millis(inject_ms));
    }
    cfg.trace = trace_config(a)?;

    let (n_target, n_source) = (target.len(), source.len());
    let server = Server::start(target, source, cfg)?;
    eprintln!(
        "serving on {} ({n_target} target / {n_source} source objects); \
         send a Shutdown frame to stop",
        server.addr()
    );
    run_until_shutdown(a, "served", &server, Server::wait, Server::stats)?;
    server.shutdown();
    Ok(())
}

/// `--trace-slow-ms MS`: flag *presence* enables tracing, so an explicit 0
/// means "trace every request" (the smoke gates rely on this).
fn trace_config(a: &Parsed) -> Result<tripro::TraceConfig, CliError> {
    let mut cfg = tripro::TraceConfig::default();
    if a.get("trace-slow-ms").is_some() {
        cfg.enabled = true;
        cfg.slow_threshold = std::time::Duration::from_millis(a.get_parsed("trace-slow-ms", 0u64)?);
    }
    Ok(cfg)
}

/// Serve for `--duration SECS`, or until a wire `Shutdown` drains the node,
/// then print its request ledger.
fn run_until_shutdown<N>(
    a: &Parsed,
    verb: &str,
    node: &N,
    drained: fn(&N),
    stats: fn(&N) -> tripro::ServiceSnapshot,
) -> Result<(), CliError> {
    let duration_s: u64 = a.get_parsed("duration", 0u64)?;
    if duration_s > 0 {
        std::thread::sleep(std::time::Duration::from_secs(duration_s));
    } else {
        drained(node);
    }
    let s = stats(node);
    eprintln!(
        "{verb}: {} admitted, {} completed, {} failed ({} from contained panics), \
         {} shed, {} deadline-expired, {} protocol errors",
        s.admitted, s.completed, s.failed, s.panics, s.shed, s.deadline_expired, s.protocol_errors
    );
    Ok(())
}

/// `tripro serve --coordinator` — front a set of shard engines with a
/// scatter-gather coordinator. Loads the target store only (routing needs
/// MBBs, never geometry); backends are validated over `ShardInfo` before
/// the listener opens.
fn serve_coordinator(a: &Parsed) -> Result<(), CliError> {
    use std::sync::Arc;
    use std::time::Duration;
    use tripro_serve::{Coordinator, CoordinatorConfig};

    let target = Arc::new(load_store(a.require("target")?)?);
    let shards: Vec<String> = a
        .require("shards")?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if shards.is_empty() {
        return Err(CliError::msg("--shards needs at least one host:port"));
    }

    let defaults = CoordinatorConfig::default();
    let mut cfg = CoordinatorConfig {
        addr: a.get("addr").unwrap_or("127.0.0.1:3750").to_string(),
        shards,
        epoch: a.get_parsed("epoch", 1u64)?,
        max_inflight: a.get_parsed("max-inflight", defaults.max_inflight)?,
        per_shard_budget: a.get_parsed("per-shard-budget", defaults.per_shard_budget)?,
        max_connections: a.get_parsed("max-connections", defaults.max_connections)?,
        allow_partial: a.has("allow-partial"),
        ..defaults
    };
    let cap_ms: u64 = a.get_parsed("deadline-cap-ms", 0u64)?;
    if cap_ms > 0 {
        cfg.deadline_cap = Some(Duration::from_millis(cap_ms));
    }
    cfg.trace = trace_config(a)?;

    let n_shards = cfg.shards.len();
    let coord = Coordinator::start(target, cfg).map_err(|e| CliError::msg(e.to_string()))?;
    eprintln!(
        "coordinating {n_shards} shard(s) on {} (epoch {}); \
         send a Shutdown frame to stop",
        coord.addr(),
        coord.shard_map().epoch
    );
    run_until_shutdown(
        a,
        "coordinated",
        &coord,
        Coordinator::wait,
        Coordinator::stats,
    )?;
    coord.shutdown();
    Ok(())
}

/// `tripro metrics` — scrape a running node's Metrics frame (a snapshot;
/// a coordinator's is the federated cluster view) and print it as
/// Prometheus text exposition.
pub fn metrics(a: &Parsed) -> Result<(), CliError> {
    let addr = a.get("addr").unwrap_or("127.0.0.1:3750");
    let mut client =
        tripro_serve::Client::connect(addr).map_err(|e| CliError::msg(format!("{addr}: {e}")))?;
    let snapshot = client
        .metrics()
        .map_err(|e| CliError::msg(format!("metrics request failed: {e}")))?;
    let text = tripro::obs::render_snapshots(&snapshot);
    if a.has("check") {
        tripro::obs::validate_exposition(&text)
            .map_err(|e| CliError::msg(format!("malformed exposition: {e}")))?;
        eprintln!("exposition OK ({} bytes)", text.len());
    }
    outln!("{}", text.trim_end());
    Ok(())
}

/// `tripro trace` — run queries between two stores with span tracing
/// enabled and print the slow-query log: the worst request traces as
/// indented span trees.
pub fn trace(a: &Parsed) -> Result<(), CliError> {
    use tripro::obs;

    // Remote mode: fetch the slow-query log of a running server or
    // coordinator over a `TraceLog` frame. On a coordinator the entries
    // are stitched cross-node waterfalls — each shard's stats summary
    // appears as a `shard` subtree under the coordinator's root span.
    if let Some(addr) = a.get("addr") {
        let mut client = tripro_serve::Client::connect(addr)
            .map_err(|e| CliError::msg(format!("{addr}: {e}")))?;
        let text = client
            .trace_log()
            .map_err(|e| CliError::msg(format!("trace-log request failed: {e}")))?;
        if text.trim().is_empty() {
            eprintln!("slow-query log at {addr} is empty (no sampled request over threshold yet)");
        } else {
            outln!("{}", text.trim_end());
        }
        return Ok(());
    }

    let target = load_store(a.require("target")?)?;
    let source = load_store(a.require("source")?)?;
    let slow_ms: u64 = a.get_parsed("slow", 0u64)?;
    let keep: usize = a.get_parsed("keep", 8usize)?;
    obs::tracer().configure(&tripro::TraceConfig {
        enabled: true,
        slow_threshold: std::time::Duration::from_millis(slow_ms),
        keep,
    });
    obs::tracer().clear_slow_log();

    let paradigm = if a.has("fr") {
        Paradigm::FilterRefine
    } else {
        Paradigm::FilterProgressiveRefine
    };
    let cfg = QueryConfig::new(paradigm, accel_of(a)?);
    let engine = Engine::new(&target, &source);
    let stats = ExecStats::new();
    let kind = a.get("kind").unwrap_or("nn");
    let t0 = std::time::Instant::now();
    for t in 0..target.len() as u32 {
        // One root span per query, keyed by target id (ids are 1-based on
        // the trace so id 0 never collides with "no trace").
        let _req = obs::tracer().request(u64::from(t) + 1);
        match kind {
            "intersect" => {
                engine.intersect_one(t, &cfg, &stats)?;
            }
            "within" => {
                let d: f64 = a.get_parsed("distance", 1.0f64)?;
                engine.within_one(t, d, &cfg, &stats)?;
            }
            "nn" => {
                engine.nn_one(t, &cfg, &stats)?;
            }
            "knn" => {
                let k: usize = a.get_parsed("k", 3usize)?;
                engine.knn_one(t, k, &cfg, &stats)?;
            }
            other => {
                return Err(CliError::msg(format!(
                    "unknown --kind {other:?}; use intersect|within|nn|knn"
                )))
            }
        }
    }
    obs::tracer().set_enabled(false);

    let slow = obs::tracer().slow_log();
    eprintln!(
        "{} {kind} queries in {:?}; {} traces at or over the {slow_ms}ms threshold \
         (showing up to {keep} worst)",
        target.len(),
        t0.elapsed(),
        slow.len(),
    );
    for rec in &slow {
        outln!("{}", rec.render().trim_end());
    }
    summary(t0.elapsed(), &stats);
    Ok(())
}

fn report(pairs: &[(u32, Vec<u32>)], elapsed: std::time::Duration, stats: &ExecStats) {
    for (t, matches) in pairs {
        if !matches.is_empty() {
            let list: Vec<String> = matches.iter().map(u32::to_string).collect();
            outln!("{t}\t{}", list.join(","));
        }
    }
    summary(elapsed, stats);
}

fn summary(elapsed: std::time::Duration, stats: &ExecStats) {
    let s = stats.snapshot();
    eprintln!(
        "done in {elapsed:?} (filter {:.3}s, decode {:.3}s, geometry {:.3}s, {} face pairs, {} decodes)",
        s.filter_s(),
        s.decode_s(),
        s.compute_s(),
        s.face_pair_tests,
        s.decodes
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accel_parsing() {
        let parse = |v: &str| {
            let p = Parsed::parse(&["--accel".to_string(), v.to_string()]).unwrap();
            accel_of(&p)
        };
        assert_eq!(parse("brute").unwrap(), Accel::Brute);
        assert_eq!(parse("partition-gpu").unwrap(), Accel::PartitionGpu);
        assert!(parse("warp-drive").is_err());
        // Default.
        let p = Parsed::parse(&[]).unwrap();
        assert_eq!(accel_of(&p).unwrap(), Accel::Aabb);
    }

    #[test]
    fn collect_meshes_recurses_and_sorts() {
        let dir = std::env::temp_dir().join(format!("tripro_cli_test_{}", std::process::id()));
        let sub = dir.join("nested");
        std::fs::create_dir_all(&sub).unwrap();
        let tm = tripro_mesh::testutil::sphere(tripro_geom::vec3(0.0, 0.0, 0.0), 1.0, 0);
        save_obj(dir.join("b.obj"), &tm).unwrap();
        save_obj(sub.join("a.obj"), &tm).unwrap();
        std::fs::write(dir.join("ignore.txt"), "x").unwrap();
        let meshes = collect_meshes(&dir).unwrap();
        assert_eq!(meshes.len(), 2);
        assert!(meshes.iter().all(|(_, m)| m.faces.len() == 8));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn collect_meshes_missing_dir_errors() {
        assert!(collect_meshes(Path::new("/nonexistent_tripro_dir")).is_err());
    }

    #[test]
    fn end_to_end_generate_build_query() {
        let dir = std::env::temp_dir().join(format!("tripro_cli_e2e_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let arg = |pairs: &[(&str, &str)]| {
            let mut v = Vec::new();
            for (k, val) in pairs {
                v.push(format!("--{k}"));
                v.push(val.to_string());
            }
            Parsed::parse(&v).unwrap()
        };
        let data = dir.join("data");
        generate(&arg(&[
            ("out", data.to_str().unwrap()),
            ("nuclei", "8"),
            ("vessels", "0"),
        ]))
        .unwrap();
        let store_a = dir.join("store_a");
        let store_b = dir.join("store_b");
        build(&arg(&[
            ("in", data.join("nuclei_a").to_str().unwrap()),
            ("out", store_a.to_str().unwrap()),
        ]))
        .unwrap();
        build(&arg(&[
            ("in", data.join("nuclei_b").to_str().unwrap()),
            ("out", store_b.to_str().unwrap()),
        ]))
        .unwrap();
        info(&arg(&[("store", store_a.to_str().unwrap())])).unwrap();
        query(
            "nn",
            &arg(&[
                ("target", store_a.to_str().unwrap()),
                ("source", store_b.to_str().unwrap()),
            ]),
        )
        .unwrap();
        let lod_dir = dir.join("lods");
        lods(&arg(&[
            ("store", store_a.to_str().unwrap()),
            ("id", "0"),
            ("out", lod_dir.to_str().unwrap()),
        ]))
        .unwrap();
        assert!(std::fs::read_dir(&lod_dir).unwrap().count() >= 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
