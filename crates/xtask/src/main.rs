//! `cargo xtask <command>` — workspace automation.
//!
//! Commands:
//! * `lint` — run the repo-specific static-analysis rules (L1–L7) over every
//!   workspace source file; exits 1 if any diagnostic is produced.
//! * `lint --list` — print the rule set and scoping, then exit 0.
//! * `lint --explain <rule>` — print one rule's rationale, then exit 0.
//! * `test-time` — run every suite of `cargo test -q` and print each one's
//!   wall time, slowest first, and the total; exits 1 if any suite fails.

use std::path::PathBuf;
use std::process::ExitCode;
use xtask::rules::{Rule, ALL_RULES};

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = <root>/crates/xtask at compile time; when run via
    // `cargo xtask` the cwd is the workspace root, so fall back to ".".
    option_env!("CARGO_MANIFEST_DIR")
        .map(|d| PathBuf::from(d).join("../.."))
        .filter(|p| p.join("Cargo.toml").exists())
        .unwrap_or_else(|| PathBuf::from("."))
}

fn print_rules() {
    println!("rules enforced by `cargo xtask lint`:");
    println!("  no_panic           no unwrap()/expect()/panic!/todo!/unimplemented! in");
    println!("                     non-test code of geom, coder, mesh, index, tripro, serve");
    println!("  float_eq           no naked float ==/!= outside geom::eps and tests");
    println!("  must_use           public bool/Ordering predicates in geom and mesh");
    println!("                     must be #[must_use]");
    println!("  safety_comment     unsafe blocks/impls need a // SAFETY: comment");
    println!("  lock_order         every Mutex/RwLock carries // LOCK-RANK(n): and locks");
    println!("                     are acquired in strictly ascending rank");
    println!("  atomic_ordering    Relaxed stores/guard-loads and any SeqCst need an");
    println!("                     // ORDERING: justification");
    println!("  condvar_wait_loop  condvar waits sit in predicate loops; no guard held");
    println!("                     across pool dispatch or blocking I/O");
    println!();
    println!("suppress a finding with a comment on the same or previous line:");
    println!("  // tripro_lint::allow(<rule>): <justification>");
    println!();
    println!("`cargo xtask lint --explain <rule>` prints a rule's full rationale.");
}

fn explain(name: &str) -> ExitCode {
    match Rule::from_name(name) {
        Some(rule) => {
            println!("{}", rule.explain());
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("xtask lint: unknown rule `{name}`; known rules:");
            for r in ALL_RULES {
                eprintln!("  {}", r.name());
            }
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            if args.iter().any(|a| a == "--list") {
                print_rules();
                return ExitCode::SUCCESS;
            }
            if let Some(pos) = args.iter().position(|a| a == "--explain") {
                let Some(name) = args.get(pos + 1) else {
                    eprintln!("usage: cargo xtask lint --explain <rule>");
                    return ExitCode::FAILURE;
                };
                return explain(name);
            }
            let root = workspace_root();
            match xtask::lint_workspace(&root) {
                Ok(diags) if diags.is_empty() => {
                    eprintln!("xtask lint: clean");
                    ExitCode::SUCCESS
                }
                Ok(diags) => {
                    for d in &diags {
                        println!("{d}");
                    }
                    eprintln!("xtask lint: {} violation(s)", diags.len());
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("xtask lint: i/o error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("test-time") => match xtask::test_time::run(&workspace_root()) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("xtask test-time: {e}");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!("usage: cargo xtask lint [--list | --explain <rule>]");
            eprintln!("       cargo xtask test-time");
            ExitCode::FAILURE
        }
    }
}
