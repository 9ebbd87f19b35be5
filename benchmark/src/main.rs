//! 3DPro benchmark ledger. One run = one workload, one seed, one process:
//!
//! ```text
//! tripro-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints every metric by name with its unit, verifies every result against
//! the oracle, and ends with one JSON line. Without `--workload` it runs the
//! whole suite (an untraced then a traced child process per workload);
//! `--check` runs the untraced suite twice and compares the two ledgers
//! against the regression bounds. See `README.md`.

mod api;
mod json;
mod layers;
mod ledger;
mod stat;
mod trace;
mod workload;

use json::Json;
use ledger::{END_TO_END, PASS_NOMINAL_S, PER_LAYER, RUN_SECONDS};
use stat::{median, median_of_passes, percentile, spread_frac};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Recorder;
use workload::{count_ok, Cluster, Counters, Def, State, WORKLOADS};

/// Set-ups per untraced run — at least `MIN`, then more while they have
/// taken less than `SETUP_BUDGET_S` in all, up to `MAX`; `setup_s` is their
/// median. The small workloads set up in 20 ms, which one measurement
/// cannot pin down.
const SETUP_REPS: std::ops::RangeInclusive<usize> = 5..=40;
const SETUP_BUDGET_S: f64 = 1.5;
/// Ops replayed layer by layer in a traced run.
const REPLAYS: usize = 3;
/// Requests each replay sends through the service layers (ten per kind).
const REPLAY_REQUESTS: usize = 50;
/// Raw meshes kept for the encode probe of a traced run.
const RAW_SAMPLE: usize = 12;
/// Runs per set of `--check`.
const CHECK_RUNS: usize = 3;
const MIB: f64 = (1 << 20) as f64;

// ---------------------------------------------------------------------
// Process accounting (Linux procfs)
// ---------------------------------------------------------------------

/// User + system CPU seconds of this process, all threads (so in-process
/// servers are included). `/proc/self/stat` counts in 100 Hz ticks.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, so the 12th and 13th after `)`.
    let ticks: u64 = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().skip(11).take(2))
        .into_iter()
        .flatten()
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------

struct Pass {
    lat_ms: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    counters: Counters,
    digests: Vec<Option<u64>>,
}

impl Pass {
    fn p50(&self) -> f64 {
        percentile(&self.lat_ms, 50.0)
    }
}

/// In a traced pass, blocks of five ops (one of each request kind on
/// `cluster_mixed`) alternate between untraced and traced, so both halves
/// see the same machine at the same time and their p50s can be compared
/// however much one pass differs from the next.
fn is_traced(i: usize) -> bool {
    (i / 5) % 2 == 1
}

/// One pass: the workload's fixed op count, one op at a time (closed loop,
/// one client). With a recorder, an `op` span wraps every traced operation.
fn run_pass(def: &Def, st: &mut State, mut rec: Option<&mut Recorder>) -> Pass {
    let n = def.ops_per_pass;
    let mut lat_ms = Vec::with_capacity(n);
    let mut digests = Vec::with_capacity(n);
    let mut local = Counters::default();
    let remote = st.remote_counters();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    for i in 0..n {
        let span = rec
            .as_mut()
            .filter(|_| is_traced(i))
            .map(|r| r.begin("op", None, i as u32));
        let s = Instant::now();
        let (digest, counters) = st.run_op(def, i);
        lat_ms.push(s.elapsed().as_secs_f64() * 1e3);
        if let (Some(r), Some(id)) = (rec.as_mut(), span) {
            r.end(id);
        }
        digests.push(digest);
        local = local.plus(counters);
    }
    Pass {
        lat_ms,
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: cpu_seconds() - cpu0,
        counters: local.plus(st.remote_counters().minus(remote)),
        digests,
    }
}

fn timed_passes(seconds: u64) -> usize {
    (seconds / PASS_NOMINAL_S).clamp(3, 15) as usize
}

// ---------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------

struct RunResult {
    attempted: usize,
    failed: usize,
    /// `(name, value, unit)` in ledger order.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        *name,
                        Json::obj([
                            ("value", Json::Num(*value)),
                            ("unit", Json::Str(unit.to_string())),
                        ]),
                    )
                })),
            ),
        ])
    }
}

/// Verify every op of `passes` against the oracle; `(attempted, failed)`.
/// `flip` corrupts one recorded digest first (the self-test).
fn verify(
    def: &Def,
    st: &mut State,
    passes: &[Pass],
    flip: bool,
) -> Result<(usize, usize), String> {
    let oracle = st.oracle(def)?;
    let mut attempted = 0;
    let mut ok = 0;
    for (i, pass) in passes.iter().enumerate() {
        let mut digests = pass.digests.clone();
        if flip && i == 0 {
            digests[0] = digests[0].map(|d| d ^ 1);
        }
        attempted += digests.len();
        ok += count_ok(&digests, &oracle);
    }
    Ok((attempted, attempted - ok))
}

fn run_untraced(def: &Def, seed: u64, seconds: u64, flip: bool) -> Result<RunResult, String> {
    let mut setups: Vec<f64> = Vec::new();
    let mut st = None;
    while setups.len() < *SETUP_REPS.start()
        || (setups.len() < *SETUP_REPS.end() && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(st.take());
        let t0 = Instant::now();
        st = Some(workload::setup(def, seed, 0)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut st = st.expect("at least one set-up ran");

    run_pass(def, &mut st, None); // warm-up, discarded
    let passes: Vec<Pass> = (0..timed_passes(seconds))
        .map(|_| run_pass(def, &mut st, None))
        .collect();
    let rss = peak_rss_mb(); // before the oracle runs

    let (attempted, failed) = verify(def, &mut st, &passes, flip)?;
    let n = def.ops_per_pass as f64;
    let stored = (st.target.compressed_bytes() + st.source.compressed_bytes()) as f64;
    let values = [
        median(&setups),
        median_of_passes(&passes, Pass::p50),
        median_of_passes(&passes, |p| percentile(&p.lat_ms, 90.0)),
        median_of_passes(&passes, |p| n / p.wall_s),
        median_of_passes(&passes, |p| p.cpu_s * 1e3 / n),
        rss,
        stored / st.raw_bytes as f64,
        (attempted - failed) as f64 / attempted as f64,
    ];
    eprintln!(
        "# {}: {} timed passes x {} ops; per-pass p50 {:?} ms",
        def.name,
        passes.len(),
        def.ops_per_pass,
        passes.iter().map(Pass::p50).collect::<Vec<_>>(),
    );
    Ok(RunResult {
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect(),
    })
}

fn run_traced(def: &Def, seed: u64, seconds: u64, out_dir: &Path) -> Result<RunResult, String> {
    let mut st = workload::setup(def, seed, RAW_SAMPLE)?;
    let mut rec = Recorder::new();

    run_pass(def, &mut st, None); // warm-up, discarded

    // Two passes fewer than an untraced run: that time belongs to the layer
    // probes.
    let passes: Vec<Pass> = (0..timed_passes(seconds) - 2)
        .map(|_| run_pass(def, &mut st, Some(&mut rec)))
        .collect();
    let resident_mb =
        (st.target.cache().used_bytes() + st.source.cache().used_bytes()) as f64 / MIB;
    let (attempted, failed) = verify(def, &mut st, &passes, false)?;

    let mut acc = layers::Acc::default();
    let root = rec.begin("probe.query", None, u32::MAX);
    layers::query_probes(def, &st, &mut rec, root, &mut acc)?;
    rec.end(root);
    // The service layers are probed on the workload's own cluster, or on
    // one started over a join workload's stores.
    let mut cluster = match st.cluster.take() {
        Some(cluster) => cluster,
        None => Cluster::start(def, &st.target, &st.source)?,
    };
    for k in 0..REPLAYS {
        // Replay the first op of every fourth traced block; the op id ties
        // the replay to the `op` span it re-runs layer by layer.
        let op_id = (5..def.ops_per_pass).step_by(10).nth(k * 4).unwrap_or(5);
        let replay = rec.begin("replay", None, op_id as u32);
        layers::engine_probes(def, &st, &mut rec, replay, (k, REPLAYS), &mut acc)?;
        let slice = k * REPLAY_REQUESTS..(k + 1) * REPLAY_REQUESTS;
        layers::service_probes(def, &st, &mut cluster, &mut rec, replay, slice, &mut acc)?;
        rec.end(replay);
    }
    drop(cluster);

    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("{}.trace.json", def.name));
    std::fs::write(&path, rec.to_json(def.name, seed).render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "# {}: {} spans -> {}",
        def.name,
        rec.spans().len(),
        path.display()
    );
    eprintln!(
        "# {:<32} {:>7} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (count, total, self_ns)) in rec.summary() {
        eprintln!(
            "# {name:<32} {count:>7} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }

    let c = passes
        .iter()
        .fold(Counters::default(), |a, p| a.plus(p.counters));
    let ops = (passes.len() * def.ops_per_pass) as f64;
    let wall_ns: f64 = passes.iter().map(|p| p.wall_s * 1e9).sum();
    let reported = c.filter_ns + c.decode_ns + c.compute_ns;
    let per = |num: u64, den: u64| {
        if den > 0 {
            num as f64 / den as f64
        } else {
            0.0
        }
    };
    let half_p50 = |p: &Pass, traced: bool| {
        let half: Vec<f64> = (0..p.lat_ms.len())
            .filter(|&i| is_traced(i) == traced)
            .map(|i| p.lat_ms[i])
            .collect();
        percentile(&half, 50.0)
    };
    let u_p50: Vec<f64> = passes.iter().map(|p| half_p50(p, false)).collect();
    let t_p50: Vec<f64> = passes.iter().map(|p| half_p50(p, true)).collect();
    eprintln!(
        "# {}: per-pass p50 untraced {u_p50:?} traced {t_p50:?} ms",
        def.name
    );
    let stored = (st.target.compressed_bytes() + st.source.compressed_bytes()) as f64;
    let faces = (st.target.total_full_faces() + st.source.total_full_faces()) as f64;

    let value = |name: &str| -> f64 {
        match name {
            "mesh.stored_bytes_per_face" => stored / faces,
            "store.build_ms" => st.build_ms,
            "cache.hit_ratio" => per(c.cache_hits, c.cache_hits + c.cache_misses),
            "cache.pressure_penalty_x" => {
                acc.median("query.op.budgeted") / acc.median("query.op.unlimited")
            }
            "cache.resident_mb" => resident_mb,
            "compute.facepairs_per_op" => c.face_pair_tests as f64 / ops,
            "query.scaling_x" => acc.median("query.op.threads1") / acc.median("query.op.threads2"),
            "query.reported_filter_frac" => per(c.filter_ns, reported),
            "query.reported_decode_frac" => per(c.decode_ns, reported),
            "query.reported_compute_frac" => per(c.compute_ns, reported),
            "query.unattributed_frac" => {
                1.0 - reported as f64 / (wall_ns * def.engine_width() as f64)
            }
            "query.lod_rounds_per_op" => c.lod_rounds as f64 / ops,
            "query.resolved_pairs_per_op" => c.resolved_pairs as f64 / ops,
            "query.decoded_bytes_per_resolved_pair" => per(c.decoded_bytes, c.resolved_pairs),
            "bench.trace_overhead_frac" => median(&t_p50) / median(&u_p50) - 1.0,
            "bench.pass_spread_frac" => spread_frac(&u_p50),
            probed => acc.value(probed),
        }
    };
    Ok(RunResult {
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|(name, unit, _)| (*name, value(name), *unit))
            .collect(),
    })
}

// ---------------------------------------------------------------------
// Suite, check, self-test: child processes of this same program
// ---------------------------------------------------------------------

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
    flip_digest: bool,
    mode: Mode,
}

enum Mode {
    Run,
    Check,
    SelfTest,
    Manifest,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        flip_digest: false,
        mode: Mode::Run,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        let num = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(val()?),
            "--seed" => a.seed = num(val()?)?,
            "--seconds" => a.seconds = num(val()?)?,
            "--trace" => a.trace = num(val()?)? != 0,
            "--out-dir" => a.out_dir = PathBuf::from(val()?),
            "--flip-digest" => a.flip_digest = true,
            "--check" => a.mode = Mode::Check,
            "--self-test" => a.mode = Mode::SelfTest,
            "--manifest" => a.mode = Mode::Manifest,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// Run one workload in a child process (so `peak_rss_mb` is per workload),
/// pass its report through, and return its result line.
fn child(a: &Args, workload: &str, extra: &[&str]) -> Result<(bool, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .arg("--out-dir")
        .arg(&a.out_dir)
        .args(extra)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    let result = Json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    Ok((out.status.success(), result))
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn suite(a: &Args) -> Result<bool, String> {
    let mut all_ok = true;
    for w in &WORKLOADS {
        for trace in ["0", "1"] {
            let (ok, result) = child(a, w.name, &["--trace", trace])?;
            all_ok &= ok && result.get("correct").and_then(Json::as_bool) == Some(true);
        }
    }
    Ok(all_ok)
}

/// The noise gate: two sets of untraced runs of the whole suite on this
/// tree, `CHECK_RUNS` runs a set, the sets' runs alternating so that a slow
/// spell of the machine falls on both. Every end-to-end metric's two set
/// medians must agree within its regression bound — the comparison a
/// regression gate makes between a parent and a change, with the same code
/// on both sides.
fn check(a: &Args) -> Result<bool, String> {
    let mut all_ok = true;
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let mut sets: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
        for _ in 0..CHECK_RUNS {
            for set in &mut sets {
                let (ok, result) = child(a, w.name, &[])?;
                all_ok &= ok;
                set.push(result);
            }
        }
        let set_median = |set: &[Json], name: &str| -> Option<f64> {
            let values: Option<Vec<f64>> = set.iter().map(|r| metric(r, name)).collect();
            values.map(|v| median(&v))
        };
        for m in &END_TO_END {
            let (x, y) = match (set_median(&sets[0], m.name), set_median(&sets[1], m.name)) {
                (Some(x), Some(y)) => (x, y),
                _ => return Err(format!("{}: {} missing from a result line", w.name, m.name)),
            };
            // Either set may have been the disturbed one: the difference
            // counts in both directions.
            let rel = m
                .better
                .worsening(x, y)
                .abs()
                .max(m.better.worsening(y, x).abs());
            let within = rel <= m.bound;
            all_ok &= within;
            rows.push(format!(
                "{:<16} {:<26} {:>14.6} {:>14.6} {:>9.4} {:>7} {}",
                w.name,
                m.name,
                x,
                y,
                rel,
                m.bound,
                if within { "ok" } else { "EXCEEDED" }
            ));
        }
    }
    println!(
        "{:<16} {:<26} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set 1", "set 2", "rel.diff", "bound"
    );
    for r in rows {
        println!("{r}");
    }
    println!("check: {}", if all_ok { "PASS" } else { "FAIL" });
    Ok(all_ok)
}

/// A flipped digest must read as `ok_frac < 1`, `correct: false` and a
/// non-zero exit of the run that saw it.
fn self_test(a: &Args) -> Result<bool, String> {
    // A later `--seconds` wins: the shortest run the pass floor allows.
    let (exit_ok, result) = child(a, "nuclei_kernel", &["--seconds", "0", "--flip-digest"])?;
    let ok_frac = metric(&result, "ok_frac").ok_or("no ok_frac")?;
    let correct = result.get("correct").and_then(Json::as_bool);
    let caught = !exit_ok && ok_frac < 1.0 && correct == Some(false);
    println!(
        "self-test: flipped digest -> exit_ok={exit_ok} ok_frac={ok_frac} correct={correct:?}: {}",
        if caught { "PASS" } else { "FAIL" }
    );
    Ok(caught)
}

fn run_one(a: &Args, name: &str) -> Result<bool, String> {
    let def = workload::find(name).ok_or(format!(
        "unknown workload `{name}` (have: {})",
        WORKLOADS.map(|w| w.name).join(", ")
    ))?;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "== {} seed={} seconds={} trace={} host_threads={nproc} engine_threads={}",
        def.name,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        def.threads
    );
    let result = if a.trace {
        run_traced(def, a.seed, a.seconds, &a.out_dir)?
    } else {
        run_untraced(def, a.seed, a.seconds, a.flip_digest)?
    };
    for (name, value, unit) in &result.metrics {
        println!("{:<16} {name:<40} {value:>16.6} {unit}", def.name);
    }
    println!("{}", result.to_json().render());
    Ok(result.failed == 0)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|a| match (&a.mode, &a.workload) {
        (Mode::Manifest, _) => {
            println!("{}", ledger::manifest().render());
            Ok(true)
        }
        (Mode::Check, _) => check(&a),
        (Mode::SelfTest, _) => self_test(&a),
        (Mode::Run, Some(name)) => run_one(&a, name),
        (Mode::Run, None) => suite(&a),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_count_follows_seconds_within_its_floor_and_cap() {
        assert_eq!(timed_passes(RUN_SECONDS), 5);
        assert_eq!(timed_passes(0), 3);
        assert_eq!(timed_passes(12), 3);
        assert_eq!(timed_passes(600), 15);
    }

    #[test]
    fn traced_and_untraced_halves_hold_the_same_request_kinds() {
        for def in &WORKLOADS {
            let n = def.ops_per_pass;
            let traced = (0..n).filter(|&i| is_traced(i)).count();
            assert_eq!(traced * 2, n, "{}: halves are equal", def.name);
            // Blocks of five: every block holds each `i mod 5` once.
            for kind in 0..5 {
                let in_traced = (0..n).filter(|&i| is_traced(i) && i % 5 == kind).count();
                assert_eq!(in_traced * 5, traced, "{}", def.name);
            }
        }
    }
}
