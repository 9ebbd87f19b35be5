//! `cargo xtask test-time`: the wall time of every suite `cargo test -q`
//! runs, so the cost of tier-1 is a number anyone can reproduce.
//!
//! It builds the test binaries once (`cargo test --no-run`), then runs each
//! one the way cargo does — from its package directory, with
//! `CARGO_MANIFEST_DIR` set — and times it; the doctests run as one more
//! suite. Suites print slowest first, then the total.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// The cargo running this command (`cargo xtask` sets `CARGO`).
fn cargo() -> std::ffi::OsString {
    std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into())
}

/// One test binary `cargo test` would run.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Suite {
    /// `<target name> (<target kind>)`, e.g. `end_to_end (test)`.
    name: String,
    executable: PathBuf,
    /// The package directory the binary runs in.
    dir: PathBuf,
}

/// The value of the first `"key":"…"` string field in a JSON line (cargo's
/// message format escapes no character that appears in a path here).
fn string_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

/// The suite a `--message-format=json` line announces: a compiler artifact
/// built with the test profile that has an executable.
fn parse_artifact(line: &str) -> Option<Suite> {
    if string_field(line, "reason")? != "compiler-artifact" {
        return None;
    }
    let profile = &line[line.find("\"profile\":{")?..];
    if !profile[..profile.find('}')?].contains("\"test\":true") {
        return None;
    }
    let target = &line[line.find("\"target\":{")?..];
    let kind = target.split("\"kind\":[\"").nth(1)?.split('"').next()?;
    let manifest = PathBuf::from(string_field(line, "manifest_path")?);
    Some(Suite {
        name: format!("{} ({kind})", string_field(target, "name")?),
        executable: PathBuf::from(string_field(line, "executable")?),
        dir: manifest.parent()?.to_path_buf(),
    })
}

/// Builds every test binary of `cargo test -q` under `root` and lists them.
fn build_suites(root: &Path) -> Result<Vec<Suite>, String> {
    let out = Command::new(cargo())
        .args(["test", "-q", "--no-run", "--message-format=json"])
        .current_dir(root)
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "cargo test --no-run failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(parse_artifact)
        .collect())
}

/// The passed-test count from libtest's `test result:` lines.
fn passed(stdout: &str) -> u64 {
    stdout
        .lines()
        .filter_map(|l| l.split("test result: ").nth(1))
        .filter_map(|r| r.split(". ").nth(1)?.split(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// Runs `cmd`, returning `(wall seconds, passed tests, success)`; a failed
/// suite's output goes to stderr.
fn time(name: &str, cmd: &mut Command) -> Result<(f64, u64, bool), String> {
    let t0 = Instant::now();
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        eprintln!(
            "--- {name} FAILED ---\n{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    Ok((secs, passed(&stdout), out.status.success()))
}

/// Times every suite and the doctests; prints one row per suite, slowest
/// first, and the total. `Ok(false)` when any suite failed.
pub fn run(root: &Path) -> Result<bool, String> {
    let suites = build_suites(root)?;
    let mut rows = Vec::with_capacity(suites.len() + 1);
    for s in &suites {
        let mut cmd = Command::new(&s.executable);
        cmd.arg("-q")
            .current_dir(&s.dir)
            .env("CARGO_MANIFEST_DIR", &s.dir);
        rows.push((s.name.clone(), time(&s.name, &mut cmd)?));
    }
    let mut doc = Command::new(cargo());
    doc.args(["test", "-q", "--doc"]).current_dir(root);
    rows.push(("doctests".to_string(), time("doctests", &mut doc)?));

    rows.sort_by(|x, y| y.1 .0.total_cmp(&x.1 .0));
    let width = rows.iter().map(|r| r.0.len()).max().unwrap_or(0);
    println!("{:<width$}  {:>8}  {:>6}", "suite", "wall_s", "passed");
    for (name, (secs, n, ok)) in &rows {
        let flag = if *ok { "" } else { "  FAILED" };
        println!("{name:<width$}  {secs:>8.1}  {n:>6}{flag}");
    }
    let total: f64 = rows.iter().map(|r| r.1 .0).sum();
    let tests: u64 = rows.iter().map(|r| r.1 .1).sum();
    println!(
        "{:<width$}  {total:>8.1}  {tests:>6}",
        format!("total ({} suites)", rows.len())
    );
    Ok(rows.iter().all(|r| r.1 .2))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_ARTIFACT: &str = r#"{"reason":"compiler-artifact","package_id":"path+file:///w/crates/bench#tripro-bench@0.1.0","manifest_path":"/w/crates/bench/Cargo.toml","target":{"kind":["test"],"crate_types":["bin"],"name":"end_to_end","src_path":"/w/tests/end_to_end.rs","edition":"2021","doc":false,"doctest":false,"test":true},"profile":{"opt_level":"0","debuginfo":2,"debug_assertions":true,"overflow_checks":true,"test":true},"features":[],"filenames":["/w/target/debug/deps/end_to_end-1"],"executable":"/w/target/debug/deps/end_to_end-1","fresh":true}"#;

    #[test]
    fn test_profile_artifacts_become_suites() {
        assert_eq!(
            parse_artifact(TEST_ARTIFACT),
            Some(Suite {
                name: "end_to_end (test)".into(),
                executable: "/w/target/debug/deps/end_to_end-1".into(),
                dir: "/w/crates/bench".into(),
            })
        );
    }

    #[test]
    fn other_messages_are_skipped() {
        // A binary built for the tests to spawn: executable, no test profile.
        let bin = TEST_ARTIFACT.replace(
            "\"overflow_checks\":true,\"test\":true",
            "\"overflow_checks\":true,\"test\":false",
        );
        assert_eq!(parse_artifact(&bin), None);
        let lib = r#"{"reason":"compiler-artifact","target":{"kind":["lib"],"name":"x","test":true},"profile":{"test":false},"executable":null}"#;
        assert_eq!(parse_artifact(lib), None);
        assert_eq!(
            parse_artifact(r#"{"reason":"build-finished","success":true}"#),
            None
        );
    }

    #[test]
    fn passed_counts_sum_over_result_lines() {
        let out = "...\ntest result: ok. 12 passed; 0 failed; 0 ignored\n\ntest result: ok. 3 passed; 0 failed\n";
        assert_eq!(passed(out), 15);
        assert_eq!(passed("no results"), 0);
    }
}
