//! Workspace static analysis for the 3DPro reproduction.
//!
//! `cargo xtask lint` enforces seven repo-specific correctness rules that
//! rustc/clippy cannot express (see `docs/invariants.md` and
//! `docs/concurrency.md`):
//!
//! * **L1 `no_panic`** — library crates on the query hot path must not
//!   `unwrap()`/`expect()`/`panic!` outside test code.
//! * **L2 `float_eq`** — no naked float `==`/`!=`; tolerance must go through
//!   `geom::eps`.
//! * **L3 `must_use`** — public predicates in `geom`/`mesh` returning
//!   `bool`/`Ordering` must be `#[must_use]`.
//! * **L4 `safety_comment`** — `unsafe` blocks/impls need a `// SAFETY:`
//!   comment.
//! * **L5 `lock_order`** — every `Mutex`/`RwLock` carries a
//!   `// LOCK-RANK(n):` annotation and locks are acquired in strictly
//!   ascending rank.
//! * **L6 `atomic_ordering`** — `Ordering::Relaxed` with publication risk
//!   and any `SeqCst` need an `// ORDERING:` justification.
//! * **L7 `condvar_wait_loop`** — condvar waits sit in predicate loops; no
//!   guard is held across pool dispatch or blocking I/O.
//!
//! The driver deliberately avoids external parser crates: a small lexer
//! (`lexer`) tokenises each file, and the rules (`rules`, `conc`) walk the
//! token stream with a comment side-table. That keeps the tool
//! dependency-free and fast enough to run on every CI push.

pub mod conc;
pub mod lexer;
pub mod rules;
pub mod test_time;

use rules::{lint_source, Diagnostic, Rule};
use std::path::{Path, PathBuf};

/// Crates whose non-test code must be panic-free (L1). These sit on the
/// decode/refine hot path where an abort loses the whole query batch.
const PANIC_FREE_CRATES: &[&str] = &["geom", "coder", "mesh", "index", "tripro", "serve"];

/// Crates whose public predicates must be `#[must_use]` (L3).
const MUST_USE_CRATES: &[&str] = &["geom", "mesh"];

/// Which rules apply to the file at `path` (workspace-relative, `/`-separated).
#[must_use]
pub fn rules_for(path: &str) -> Vec<Rule> {
    let mut rules = Vec::new();
    fn crate_of(p: &str) -> Option<&str> {
        p.strip_prefix("crates/").and_then(|r| r.split('/').next())
    }
    let in_src = path.contains("/src/");
    if let Some(krate) = crate_of(path) {
        if in_src && PANIC_FREE_CRATES.contains(&krate) {
            rules.push(Rule::NoPanic);
        }
        if in_src && MUST_USE_CRATES.contains(&krate) {
            rules.push(Rule::MustUse);
        }
    }
    // Epsilon discipline applies everywhere except the module that defines
    // the epsilon primitives (it must compare floats exactly) and tests,
    // which are already excluded per-region by the rule itself.
    if !path.ends_with("geom/src/eps.rs") {
        rules.push(Rule::FloatEq);
    }
    rules.push(Rule::SafetyComment);
    // Concurrency rules (L5–L7) cover first-party crate sources. The lock
    // abstraction layer itself (tripro/src/sync.rs: the poison-recovering
    // helpers and the model explorer) is exempt from L5 — its `&Mutex<T>`
    // parameters are the helpers every other module is ranked against.
    if crate_of(path).is_some() && in_src && !path.starts_with("vendor/") {
        if !path.ends_with("tripro/src/sync.rs") {
            rules.push(Rule::LockOrder);
        }
        rules.push(Rule::AtomicOrdering);
        rules.push(Rule::CondvarWaitLoop);
    }
    rules
}

/// Recursively collect `.rs` files under `dir`, skipping `target/`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                collect_rs(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Lint every workspace source file under `root`; returns all diagnostics.
///
/// Scans `crates/*/src`, `crates/*/tests`, `vendor/*/src`, plus the
/// top-level `tests/` and `benches/` trees.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for top in ["crates", "vendor", "tests", "benches"] {
        collect_rs(&root.join(top), &mut files);
    }
    files.sort();
    let mut diags = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(file)?;
        diags.extend(lint_source(&rel, &src, &rules_for(&rel)));
    }
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    const VIOLATIONS: &str = include_str!("../fixtures/violations.rs.fixture");
    const CLEAN: &str = include_str!("../fixtures/clean.rs.fixture");

    const ALL: &[Rule] = &[
        Rule::NoPanic,
        Rule::FloatEq,
        Rule::MustUse,
        Rule::SafetyComment,
    ];

    fn count(diags: &[Diagnostic], rule: Rule) -> usize {
        diags.iter().filter(|d| d.rule == rule).count()
    }

    #[test]
    fn seeded_violations_all_fire() {
        let diags = lint_source("crates/geom/src/fixture.rs", VIOLATIONS, ALL);
        assert_eq!(count(&diags, Rule::NoPanic), 5, "{diags:#?}");
        assert_eq!(count(&diags, Rule::FloatEq), 3, "{diags:#?}");
        assert_eq!(count(&diags, Rule::MustUse), 2, "{diags:#?}");
        assert_eq!(count(&diags, Rule::SafetyComment), 2, "{diags:#?}");
    }

    #[test]
    fn clean_fixture_passes() {
        let diags = lint_source("crates/geom/src/fixture.rs", CLEAN, ALL);
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let x: Option<u8> = None; x.unwrap(); assert!(1.0 == 1.0); }\n}\n";
        let diags = lint_source("crates/geom/src/x.rs", src, ALL);
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn allow_marker_suppresses() {
        let src = "fn f(v: &[u8]) -> u8 {\n    // tripro_lint::allow(no_panic): caller guarantees non-empty\n    *v.first().expect(\"non-empty\")\n}\n";
        let diags = lint_source("crates/geom/src/x.rs", src, &[Rule::NoPanic]);
        assert!(diags.is_empty(), "{diags:#?}");
        // Wrong rule name in the marker must NOT suppress.
        let src_bad = src.replace("allow(no_panic)", "allow(float_eq)");
        let diags = lint_source("crates/geom/src/x.rs", &src_bad, &[Rule::NoPanic]);
        assert_eq!(diags.len(), 1);
    }

    #[test]
    fn eps_module_is_exempt_from_float_eq() {
        let rules = rules_for("crates/geom/src/eps.rs");
        assert!(!rules.contains(&Rule::FloatEq));
        assert!(rules.contains(&Rule::NoPanic));
    }

    #[test]
    fn rule_scoping_by_crate() {
        let bench = rules_for("crates/bench/src/main.rs");
        assert!(!bench.contains(&Rule::NoPanic), "bench binaries may panic");
        assert!(bench.contains(&Rule::FloatEq));
        let tripro = rules_for("crates/tripro/src/query.rs");
        assert!(tripro.contains(&Rule::NoPanic));
        assert!(!tripro.contains(&Rule::MustUse));
    }

    #[test]
    fn observability_modules_are_panic_free_lint_targets() {
        // Regression guard: obs/ sits under crates/tripro/src/, so the
        // tracing and histogram hot paths must stay in the no-panic set
        // alongside the rest of the engine.
        for file in [
            "crates/tripro/src/obs/mod.rs",
            "crates/tripro/src/obs/histogram.rs",
            "crates/tripro/src/obs/trace.rs",
            "crates/tripro/src/obs/registry.rs",
            "crates/tripro/src/obs/export.rs",
        ] {
            let rules = rules_for(file);
            assert!(rules.contains(&Rule::NoPanic), "{file} must be no-panic");
            assert!(rules.contains(&Rule::FloatEq), "{file} must ban float ==");
        }
    }

    #[test]
    fn join_driver_modules_are_fully_linted() {
        // The join driver, the kernel launch loop and the pool they run on
        // are hot-path engine code AND lock infrastructure: they must stay
        // in the no-panic set and under the full concurrency rule battery
        // (lock ranks on the result accumulator and the job mutex,
        // ordering notes on the claim counters and the launch's stop flag
        // and CAS minimum, predicate loops around the pool's condvar waits).
        for file in [
            "crates/tripro/src/query.rs",
            "crates/tripro/src/gpu.rs",
            "crates/tripro/src/pool.rs",
        ] {
            let rules = rules_for(file);
            assert!(rules.contains(&Rule::NoPanic), "{file} must be no-panic");
            for rule in [Rule::LockOrder, Rule::AtomicOrdering, Rule::CondvarWaitLoop] {
                assert!(rules.contains(&rule), "{file} must be under {rule:?}");
            }
        }
        // The sync layer hosts the wait helpers themselves: exempt from
        // L5 (its `&Mutex<T>` parameters carry no rank) but still under
        // the wait-loop and ordering rules.
        let sync_rules = rules_for("crates/tripro/src/sync.rs");
        assert!(sync_rules.contains(&Rule::NoPanic));
        assert!(!sync_rules.contains(&Rule::LockOrder));
        assert!(sync_rules.contains(&Rule::CondvarWaitLoop));
    }

    #[test]
    fn fault_and_panic_path_modules_are_fully_linted() {
        // The failpoint registry and the serve fault/retry paths (the node
        // skeleton carries the read/write failpoints, the containment
        // boundaries and the rank-10/20/30 locks for both node kinds) are
        // the code that runs *during* injected failures — precisely when a
        // stray unwrap or mis-ranked lock would turn an injected fault
        // into a real outage. Pin them into the no-panic set and the full
        // concurrency battery so they cannot silently drop out.
        for file in [
            "crates/tripro/src/fault.rs",
            "crates/serve/src/node.rs",
            "crates/serve/src/server.rs",
            "crates/serve/src/client.rs",
            "crates/serve/src/coordinator.rs",
            "crates/serve/src/shard.rs",
        ] {
            let rules = rules_for(file);
            assert!(rules.contains(&Rule::NoPanic), "{file} must be no-panic");
            for rule in [Rule::LockOrder, Rule::AtomicOrdering, Rule::CondvarWaitLoop] {
                assert!(rules.contains(&rule), "{file} must be under {rule:?}");
            }
        }
    }

    const CONC_VIOLATIONS: &str = include_str!("../fixtures/conc_violations.rs.fixture");
    const CONC_CLEAN: &str = include_str!("../fixtures/conc_clean.rs.fixture");

    const CONC: &[Rule] = &[Rule::LockOrder, Rule::AtomicOrdering, Rule::CondvarWaitLoop];

    #[test]
    fn conc_seeded_violations_all_fire() {
        let diags = lint_source("crates/tripro/src/fixture.rs", CONC_VIOLATIONS, CONC);
        assert_eq!(count(&diags, Rule::LockOrder), 6, "{diags:#?}");
        assert_eq!(count(&diags, Rule::AtomicOrdering), 5, "{diags:#?}");
        assert_eq!(count(&diags, Rule::CondvarWaitLoop), 3, "{diags:#?}");
    }

    #[test]
    fn conc_clean_fixture_passes() {
        let diags = lint_source("crates/tripro/src/fixture.rs", CONC_CLEAN, CONC);
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn conc_allow_markers_suppress() {
        // lock_order: a descending acquisition blessed by its marker.
        let src = "struct S {\n    // LOCK-RANK(20):\n    a: Mutex<u32>,\n    // LOCK-RANK(10):\n    b: Mutex<u32>,\n}\nfn f(s: &S) {\n    let g = lock(&s.a);\n    // tripro_lint::allow(lock_order): justified\n    let h = lock(&s.b);\n    drop(h);\n    drop(g);\n}\n";
        let diags = lint_source("crates/tripro/src/x.rs", src, &[Rule::LockOrder]);
        assert!(diags.is_empty(), "{diags:#?}");

        // atomic_ordering: SeqCst blessed by its marker.
        let src = "fn f(a: &std::sync::atomic::AtomicU64) -> u64 {\n    // tripro_lint::allow(atomic_ordering): justified\n    a.load(Ordering::SeqCst)\n}\n";
        let diags = lint_source("crates/tripro/src/x.rs", src, &[Rule::AtomicOrdering]);
        assert!(diags.is_empty(), "{diags:#?}");

        // condvar_wait_loop: blocking under a guard blessed by its marker.
        let src = "fn f(m: &M, w: &mut W) {\n    let g = lock(&m.inner);\n    // tripro_lint::allow(condvar_wait_loop): justified\n    let _ = w.flush();\n    drop(g);\n}\n";
        let diags = lint_source("crates/tripro/src/x.rs", src, &[Rule::CondvarWaitLoop]);
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn decode_under_a_guard_is_blocking() {
        // A cache guard live across a progressive decode stalls every hit.
        let held = "fn f(c: &C, pm: &mut P, lod: usize) {\n    let g = lock(&c.inner);\n    pm.decode_to(lod);\n    drop(g);\n}\n";
        let diags = lint_source("crates/tripro/src/x.rs", held, &[Rule::CondvarWaitLoop]);
        assert_eq!(count(&diags, Rule::CondvarWaitLoop), 1, "{diags:#?}");
        // Dropping the guard before the decode is the sanctioned shape.
        let dropped = "fn f(c: &C, pm: &mut P, lod: usize) {\n    let g = lock(&c.inner);\n    drop(g);\n    pm.decode_to(lod);\n}\n";
        let diags = lint_source("crates/tripro/src/x.rs", dropped, &[Rule::CondvarWaitLoop]);
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn conc_rules_scoped_to_first_party_src() {
        let tripro = rules_for("crates/tripro/src/cache.rs");
        for r in CONC {
            assert!(tripro.contains(r), "{r:?} must cover tripro src");
        }
        // The lock abstraction layer is exempt from L5 only.
        let sync = rules_for("crates/tripro/src/sync.rs");
        assert!(!sync.contains(&Rule::LockOrder));
        assert!(sync.contains(&Rule::AtomicOrdering));
        // Vendored stubs and integration tests are out of scope.
        for path in ["vendor/rand/src/lib.rs", "tests/concurrency.rs"] {
            let rules = rules_for(path);
            for r in CONC {
                assert!(!rules.contains(r), "{r:?} must not cover {path}");
            }
        }
    }

    #[test]
    fn every_rule_has_an_explanation() {
        for r in rules::ALL_RULES {
            assert!(
                r.explain().contains(r.name()),
                "explain() for {r:?} must name the rule"
            );
            assert!(Rule::from_name(r.name()) == Some(*r));
        }
    }

    #[test]
    fn diagnostics_render_with_location() {
        let diags = lint_source("crates/geom/src/fixture.rs", VIOLATIONS, &[Rule::NoPanic]);
        let rendered = format!("{}", diags[0]);
        assert!(
            rendered.starts_with("crates/geom/src/fixture.rs:"),
            "{rendered}"
        );
        assert!(rendered.contains("[no_panic]"), "{rendered}");
    }
}
