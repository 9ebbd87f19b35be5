//! Deterministic fault injection: named failpoints threaded through the
//! decode path, cache, pool and serve socket I/O.
//!
//! ## Model
//!
//! A *failpoint* is a named site in production code — [`DECODE_LOD`],
//! [`SERVE_WRITE`], ... — that normally does nothing. A chaos harness
//! (or the `TRIPRO_FAILPOINTS` environment variable) arms sites with a
//! [`FaultAction`] (return an error, inject a delay, panic, truncate a
//! write, drop a connection) and a [`Trigger`] deciding *which* hits
//! fire (always, once, the n-th hit, a seeded coin flip, ...). Seeded
//! triggers make whole fault schedules reproducible: the same spec string
//! injects the same faults at the same hits on every run, which is what
//! lets `tests/chaos.rs` assert byte-identical results against a
//! fault-free run.
//!
//! ## Cost discipline
//!
//! The registry reuses the obs gate pattern ([`crate::obs::trace`]):
//! every site starts with one `#[inline]` relaxed atomic load
//! ([`armed`]) and returns immediately while no failpoint is configured,
//! so disabled failpoints add a branch, not a lock, to the hot path
//! (`bench_obs` holds this under the same <2% budget as tracing). Only
//! armed processes pay for the site table lookup.
//!
//! Fired injections are counted in `tripro_fault_injections_total{site}`
//! (see [`crate::obs::fault_injection_counter`]) so chaos runs can prove
//! their schedule actually executed.

use crate::error::{Error, Result};
use crate::obs;
use crate::sync::{lock, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Progressive decode of one object to one LOD (cache miss path).
pub const DECODE_LOD: &str = "decode.lod";
/// Insertion of a freshly decoded entry into the decode cache.
pub const CACHE_INSERT: &str = "cache.insert";
/// A pool worker claiming a broadcast job.
pub const POOL_DISPATCH: &str = "pool.dispatch";
/// The serve loop reading a frame from a client socket.
pub const SERVE_READ: &str = "serve.read";
/// The serve loop writing a frame to a client socket.
pub const SERVE_WRITE: &str = "serve.write";
/// Execution of one admitted request inside the serve batch executor.
pub const SERVE_EXEC: &str = "serve.exec";

/// What an armed failpoint does when its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Return [`Error::Internal`] from the site.
    Err,
    /// Sleep this many milliseconds, then continue normally.
    Delay(u64),
    /// Panic at the site (exercises the containment boundaries).
    Panic,
    /// Socket-write sites only: write at most this many bytes of the
    /// frame in the first `write()` call (exercises short-write loops).
    Partial(usize),
    /// Socket sites only: drop the connection.
    Disconnect,
}

/// Which hits of an armed site fire its action. `hits` is 1-based: the
/// first evaluation of the site is hit 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire on every hit.
    Always,
    /// Fire on the first hit only.
    Once,
    /// Fire on exactly the n-th hit.
    Nth(u64),
    /// Fire on the first k hits.
    First(u64),
    /// Fire on every k-th hit (k, 2k, 3k, ...).
    Every(u64),
    /// Fire each hit independently with probability `per_mille`/1000,
    /// drawn from a splitmix64 stream seeded with `seed` — deterministic
    /// per (seed, hit index).
    Prob {
        /// Firing probability in thousandths.
        per_mille: u16,
        /// Stream seed.
        seed: u64,
    },
}

/// Point-in-time view of one armed site, for schedule logs.
#[derive(Debug, Clone)]
pub struct SiteStatus {
    /// Site name.
    pub site: String,
    /// Armed action.
    pub action: FaultAction,
    /// Armed trigger.
    pub trigger: Trigger,
    /// Evaluations so far.
    pub hits: u64,
    /// Actions fired so far.
    pub fired: u64,
}

struct SiteCfg {
    action: FaultAction,
    trigger: Trigger,
    hits: u64,
    fired: u64,
    rng: u64,
}

struct FaultRegistry {
    // LOCK-RANK(85): failpoint site table. Sites are evaluated from deep
    // inside the engine — under the cache's per-object decode locks (50)
    // and the serve writer's stream lock (30) — so this rank sits above
    // every lock a caller may hold at a site, and below the obs plane
    // (90+), whose counters are bumped only after this guard drops.
    sites: Mutex<HashMap<String, SiteCfg>>,
}

/// One relaxed load gating every site; see the module docs.
static ARMED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static FaultRegistry {
    static R: OnceLock<FaultRegistry> = OnceLock::new();
    R.get_or_init(|| FaultRegistry {
        sites: Mutex::new(HashMap::new()),
    })
}

/// splitmix64 step — the same generator `tripro-load` uses for seeded
/// workloads, so fault schedules, load schedules and client retry jitter
/// all share determinism. Public so downstream crates reuse this instead
/// of growing divergent copies.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Whether any failpoint is armed in this process. `#[inline]` so the
/// disabled fast path at every site compiles to one relaxed load and a
/// predictable branch.
#[inline]
#[must_use]
pub fn armed() -> bool {
    // ORDERING: Relaxed — arming is advisory test configuration; a site
    // observing a stale `false` for a few loads after `set` merely skips
    // an injection opportunity, and the disabled path must cost one
    // unfenced load (same contract as the obs trace gate).
    ARMED.load(Ordering::Relaxed)
}

/// Evaluate the failpoint `site`: `None` (the overwhelmingly common
/// case) means proceed normally; `Some(action)` means the site must
/// perform the injected action. Sites whose actions are all expressible
/// as error/delay/panic should call [`failpoint`] instead.
#[inline]
#[must_use]
pub fn hit(site: &str) -> Option<FaultAction> {
    if !armed() {
        return None;
    }
    hit_armed(site)
}

#[cold]
fn hit_armed(site: &str) -> Option<FaultAction> {
    let action = {
        let mut sites = lock(&registry().sites);
        let cfg = sites.get_mut(site)?;
        cfg.hits += 1;
        let fire = match cfg.trigger {
            Trigger::Always => true,
            Trigger::Once => cfg.hits == 1,
            Trigger::Nth(n) => cfg.hits == n,
            Trigger::First(k) => cfg.hits <= k,
            Trigger::Every(k) => k > 0 && cfg.hits % k == 0,
            Trigger::Prob { per_mille, .. } => {
                cfg.rng = mix64(cfg.rng);
                (cfg.rng >> 32) % 1000 < u64::from(per_mille)
            }
        };
        if !fire {
            return None;
        }
        cfg.fired += 1;
        cfg.action
    };
    // The obs registry lock (rank 95) is taken only after the site table
    // guard (rank 85) is released.
    obs::fault_injection_counter(site).fetch_add(1, Ordering::Relaxed);
    Some(action)
}

/// Evaluate `site` and perform error/delay/panic actions inline. This is
/// the one-liner for non-socket sites:
///
/// ```ignore
/// fault::failpoint(fault::DECODE_LOD)?;
/// ```
///
/// `Partial`/`Disconnect` are socket-specific; at a non-socket site they
/// degrade to `Err` so a misdirected spec still injects *a* fault rather
/// than silently passing.
#[inline]
pub fn failpoint(site: &'static str) -> Result<()> {
    match hit(site) {
        None => Ok(()),
        Some(action) => act(site, action),
    }
}

#[cold]
fn act(site: &'static str, action: FaultAction) -> Result<()> {
    match action {
        FaultAction::Delay(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(())
        }
        FaultAction::Panic => {
            // tripro_lint::allow(no_panic): deliberate injected panic —
            // this is the fault being tested, and every call site sits
            // inside a catch_unwind containment boundary under test.
            panic!("injected panic at failpoint {site}")
        }
        FaultAction::Err | FaultAction::Partial(_) | FaultAction::Disconnect => Err(injected(site)),
    }
}

/// Best-effort readable message from a caught panic payload (`&str` and
/// `String` payloads cover `panic!` and `assert!`; anything else gets a
/// placeholder). Containment boundaries use this to build the
/// [`Error::Internal`] they surface instead of the unwind.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// The typed error an `Err`-armed failpoint returns.
#[must_use]
pub fn injected(site: &'static str) -> Error {
    Error::Internal {
        context: site,
        message: "injected fault".into(),
    }
}

/// Arm `site` with `action`/`trigger`, replacing any previous arming of
/// the same site and raising the global gate.
pub fn set(site: &str, action: FaultAction, trigger: Trigger) {
    let seed = match trigger {
        Trigger::Prob { seed, .. } => seed,
        _ => 0,
    };
    let mut sites = lock(&registry().sites);
    sites.insert(
        site.to_string(),
        SiteCfg {
            action,
            trigger,
            hits: 0,
            fired: 0,
            rng: mix64(seed),
        },
    );
    drop(sites);
    // ORDERING: Relaxed — see `armed`; the map insert above is ordered by
    // the site-table mutex, which every armed hit also takes.
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarm every failpoint and lower the global gate. Chaos harnesses
/// call this between seeded schedules.
pub fn clear() {
    let mut sites = lock(&registry().sites);
    sites.clear();
    drop(sites);
    // ORDERING: Relaxed — see `armed`.
    ARMED.store(false, Ordering::Relaxed);
}

/// How many times `site`'s action has fired (0 if not armed).
#[must_use]
pub fn fired(site: &str) -> u64 {
    lock(&registry().sites).get(site).map_or(0, |c| c.fired)
}

/// How many times `site` has been evaluated (0 if not armed).
#[must_use]
pub fn hits(site: &str) -> u64 {
    lock(&registry().sites).get(site).map_or(0, |c| c.hits)
}

/// Snapshot of every armed site, for failure-schedule logs.
#[must_use]
pub fn snapshot() -> Vec<SiteStatus> {
    let sites = lock(&registry().sites);
    let mut out: Vec<SiteStatus> = sites
        .iter()
        .map(|(site, c)| SiteStatus {
            site: site.clone(),
            action: c.action,
            trigger: c.trigger,
            hits: c.hits,
            fired: c.fired,
        })
        .collect();
    drop(sites);
    out.sort_by(|a, b| a.site.cmp(&b.site));
    out
}

/// Arm failpoints from a spec string; returns the number of sites armed.
///
/// Grammar (sites separated by `;`):
///
/// ```text
/// site=action[modifier]
/// action   := err | delay(ms) | panic | partial(bytes) | disconnect
/// modifier := #n        fire on exactly the n-th hit
///           | *k        fire on the first k hits
///           | /k        fire on every k-th hit
///           | %p@seed   fire with probability p/1000, seeded (@seed optional)
/// ```
///
/// Without a modifier, `panic` fires once and every other action fires
/// always. Examples: `decode.lod=err#3`, `serve.write=partial(7)*2`,
/// `serve.read=disconnect%50@42`, `cache.insert=delay(2)`.
pub fn configure(spec: &str) -> std::result::Result<usize, String> {
    let mut parsed = Vec::new();
    for part in spec.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (site, rest) = part
            .split_once('=')
            .ok_or_else(|| format!("failpoint `{part}`: expected site=action"))?;
        let (site, rest) = (site.trim(), rest.trim());
        if site.is_empty() {
            return Err(format!("failpoint `{part}`: empty site name"));
        }
        parsed.push((site.to_string(), parse_action_spec(rest)?));
    }
    let n = parsed.len();
    for (site, (action, trigger)) in parsed {
        set(&site, action, trigger);
    }
    Ok(n)
}

/// Arm failpoints from the `TRIPRO_FAILPOINTS` environment variable (a
/// [`configure`] spec). Returns the number of sites armed; unset or
/// empty arms nothing.
pub fn init_from_env() -> std::result::Result<usize, String> {
    match std::env::var("TRIPRO_FAILPOINTS") {
        Ok(spec) if !spec.trim().is_empty() => configure(&spec),
        _ => Ok(0),
    }
}

type ActionSpec = (FaultAction, Trigger);

fn parse_action_spec(spec: &str) -> std::result::Result<ActionSpec, String> {
    let (action_str, modifier) = match spec.find(['#', '*', '/', '%']) {
        Some(i) => (&spec[..i], Some(&spec[i..])),
        None => (spec, None),
    };
    let action = parse_action(action_str.trim())?;
    let trigger = match modifier {
        Some(m) => parse_trigger(m.trim())?,
        // An unmodified `panic` defaults to once: "panic every hit"
        // would re-fire inside the very retry that contains it.
        None if action == FaultAction::Panic => Trigger::Once,
        None => Trigger::Always,
    };
    Ok((action, trigger))
}

fn parse_action(s: &str) -> std::result::Result<FaultAction, String> {
    if let Some(args) = s.strip_prefix("delay(").and_then(|r| r.strip_suffix(')')) {
        return Ok(FaultAction::Delay(parse_num(args, "delay")?));
    }
    if let Some(args) = s.strip_prefix("partial(").and_then(|r| r.strip_suffix(')')) {
        let n = parse_num(args, "partial")?;
        return Ok(FaultAction::Partial(
            usize::try_from(n).unwrap_or(usize::MAX),
        ));
    }
    match s {
        "err" => Ok(FaultAction::Err),
        "panic" => Ok(FaultAction::Panic),
        "disconnect" => Ok(FaultAction::Disconnect),
        other => Err(format!(
            "unknown failpoint action `{other}` \
             (expected err|delay(ms)|panic|partial(bytes)|disconnect)"
        )),
    }
}

fn parse_trigger(m: &str) -> std::result::Result<Trigger, String> {
    if let Some(n) = m.strip_prefix('#') {
        return Ok(Trigger::Nth(parse_num(n, "#")?));
    }
    if let Some(k) = m.strip_prefix('*') {
        return Ok(Trigger::First(parse_num(k, "*")?));
    }
    if let Some(k) = m.strip_prefix('/') {
        let k = parse_num(k, "/")?;
        if k == 0 {
            return Err("failpoint trigger `/0`: period must be >= 1".to_string());
        }
        return Ok(Trigger::Every(k));
    }
    if let Some(p) = m.strip_prefix('%') {
        let (p, seed) = match p.split_once('@') {
            Some((p, seed)) => (p, parse_num(seed, "@")?),
            None => (p, 1),
        };
        let per_mille = parse_num(p, "%")?;
        if per_mille > 1000 {
            return Err(format!(
                "failpoint probability `{per_mille}`: max is 1000 (per mille)"
            ));
        }
        return Ok(Trigger::Prob {
            per_mille: u16::try_from(per_mille).unwrap_or(1000),
            seed,
        });
    }
    Err(format!("unknown failpoint modifier `{m}`"))
}

fn parse_num(s: &str, what: &str) -> std::result::Result<u64, String> {
    s.trim()
        .parse::<u64>()
        .map_err(|_| format!("failpoint `{what}`: `{s}` is not a number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global registry: tests arm only `test.*` sites (never production
    // sites) and serialise on this lock so counts don't interleave.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disarmed_sites_are_inert() {
        let _g = serial();
        clear();
        assert!(!armed());
        assert!(hit("test.never.armed").is_none());
        assert!(failpoint("decode.lod").is_ok());
    }

    #[test]
    fn triggers_fire_on_schedule() {
        let _g = serial();
        clear();
        set("test.nth", FaultAction::Err, Trigger::Nth(3));
        let fires: Vec<bool> = (0..5).map(|_| hit("test.nth").is_some()).collect();
        assert_eq!(fires, [false, false, true, false, false]);
        assert_eq!(fired("test.nth"), 1);
        assert_eq!(hits("test.nth"), 5);

        set("test.first", FaultAction::Err, Trigger::First(2));
        let fires: Vec<bool> = (0..4).map(|_| hit("test.first").is_some()).collect();
        assert_eq!(fires, [true, true, false, false]);

        set("test.every", FaultAction::Err, Trigger::Every(2));
        let fires: Vec<bool> = (0..5).map(|_| hit("test.every").is_some()).collect();
        assert_eq!(fires, [false, true, false, true, false]);

        set("test.once", FaultAction::Panic, Trigger::Once);
        assert_eq!(hit("test.once"), Some(FaultAction::Panic));
        assert_eq!(hit("test.once"), None);
        clear();
    }

    #[test]
    fn prob_trigger_is_seed_deterministic() {
        let _g = serial();
        clear();
        set(
            "test.prob",
            FaultAction::Err,
            Trigger::Prob {
                per_mille: 300,
                seed: 42,
            },
        );
        let run1: Vec<bool> = (0..64).map(|_| hit("test.prob").is_some()).collect();
        set(
            "test.prob",
            FaultAction::Err,
            Trigger::Prob {
                per_mille: 300,
                seed: 42,
            },
        );
        let run2: Vec<bool> = (0..64).map(|_| hit("test.prob").is_some()).collect();
        assert_eq!(run1, run2, "same seed, same schedule");
        let hits_fired = run1.iter().filter(|&&b| b).count();
        assert!(
            hits_fired > 0 && hits_fired < 64,
            "p=0.3 fires some, not all"
        );
        clear();
    }

    #[test]
    fn failpoint_returns_typed_internal_error() {
        let _g = serial();
        clear();
        set("test.err", FaultAction::Err, Trigger::Always);
        // `failpoint` requires a 'static site name; test sites qualify.
        let err = failpoint("test.err").unwrap_err();
        assert!(matches!(
            err,
            Error::Internal {
                context: "test.err",
                ..
            }
        ));
        assert!(err.to_string().contains("injected fault"));
        clear();
    }

    #[test]
    fn spec_grammar_round_trips() {
        let _g = serial();
        clear();
        let n = configure(
            "test.a=err#3; test.b=partial(7)*2; test.c=disconnect%50@9; \
             test.d=delay(1); test.e=panic",
        )
        .expect("valid spec");
        assert_eq!(n, 5);
        let snap = snapshot();
        assert_eq!(snap.len(), 5);
        let by_name = |s: &str| snap.iter().find(|x| x.site == s).cloned().unwrap();
        assert_eq!(by_name("test.a").action, FaultAction::Err);
        assert_eq!(by_name("test.a").trigger, Trigger::Nth(3));
        assert_eq!(by_name("test.b").action, FaultAction::Partial(7));
        assert_eq!(by_name("test.b").trigger, Trigger::First(2));
        assert_eq!(
            by_name("test.c").trigger,
            Trigger::Prob {
                per_mille: 50,
                seed: 9
            }
        );
        assert_eq!(by_name("test.d").action, FaultAction::Delay(1));
        // Unmodified panic defaults to Once.
        assert_eq!(by_name("test.e").trigger, Trigger::Once);
        clear();

        assert!(configure("nonsense").is_err());
        assert!(configure("s=explode").is_err());
        assert!(configure("s=err?5").is_err());
        assert!(configure("s=delay(abc)").is_err());
        assert!(configure("s=err%2000").is_err());
        assert!(configure("s=err/0").is_err());
        assert!(!armed(), "failed configure arms nothing");
    }

    #[test]
    fn injection_is_counted_in_obs() {
        let _g = serial();
        clear();
        set("test.counted", FaultAction::Err, Trigger::Always);
        let before = obs::fault_injection_counter("test.counted").load(Ordering::Relaxed);
        assert!(hit("test.counted").is_some());
        let after = obs::fault_injection_counter("test.counted").load(Ordering::Relaxed);
        assert_eq!(after, before + 1);
        clear();
    }
}
