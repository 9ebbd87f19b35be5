//! The concurrency correctness rules (L5–L7); see `docs/concurrency.md`.
//!
//! These rules make the locking and atomics discipline of the engine
//! machine-checked:
//!
//! * **L5 `lock_order`** — every `Mutex`/`RwLock` declaration carries a
//!   `// LOCK-RANK(n):` annotation, and the static lock-acquisition graph
//!   (which lock is taken while another guard is lexically live) must only
//!   contain strictly rank-ascending edges. Same-lock re-acquisition while
//!   held and cycles among unranked locks are reported too.
//! * **L6 `atomic_ordering`** — `Ordering::Relaxed` on a publication-risk
//!   operation (`store`/`swap`/`compare_exchange`/`fetch_update`) or on a
//!   load that guards control flow (`if`/`while` conditions — the
//!   same-function guard pattern) needs an `// ORDERING:` justification;
//!   `Ordering::SeqCst` always needs one (over-synchronization is a cost
//!   and usually a sign the required edge was never identified).
//! * **L7 `condvar_wait_loop`** — `Condvar` waits must sit inside a
//!   `while`/`loop` predicate re-check, and no guard may be lexically live
//!   across a pool dispatch (`run_with`) or blocking I/O call.
//!
//! All three are *lexical* analyses over the token stream: they see edges
//! inside one function body, not across calls (the cross-function
//! hierarchy is documented and enforced by rank assignment — see
//! `docs/concurrency.md`). The dynamic side of the story is the
//! deterministic interleaving harness in `tripro::sync::model`.

use crate::lexer::{Comment, Lexed, Tok, TokKind};
use crate::rules::{Diagnostic, Rule};

/// Atomic RMW/store operations with publication risk under `Relaxed`:
/// their result is typically *read by another thread* to decide whether
/// associated (possibly non-atomic) data is ready.
const PUBLISH_OPS: &[&str] = &[
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_update",
];

/// Pure counter-style RMW ops: benign under `Relaxed` unless used as a
/// control-flow guard.
const COUNTER_OPS: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_min",
    "fetch_max",
];

/// Calls that block (pool dispatch, socket/file I/O, thread lifecycle, a
/// progressive mesh decode); holding a lock guard across one of these
/// stalls every contender of the lock for the full latency of the
/// operation.
const BLOCKING_CALLS: &[&str] = &[
    "run_with",
    "decode_to",
    "write_all",
    "flush",
    "read_exact",
    "read_to_end",
    "accept",
    "connect",
    "sleep",
    "join",
];

/// Guard-preserving adaptor methods: `m.lock().unwrap_or_else(..)` still
/// binds a live guard.
const GUARD_ADAPTORS: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

/// One declared lock in a file.
#[derive(Debug)]
struct LockDecl {
    name: String,
    rank: Option<u32>,
    line: u32,
}

/// A lexically live lock guard.
#[derive(Debug)]
struct LiveGuard {
    /// Binding name (`let g = lock(..)`), if any.
    var: Option<String>,
    /// Resolved lock name (declaration it acquires).
    lock: String,
    /// Brace depth at which the guard was bound; it dies when the scope
    /// closes (or at the next `;` for temporaries).
    depth: usize,
    temp: bool,
}

/// An acquisition edge: `held` was locked when `taken` was acquired.
#[derive(Debug)]
struct Edge {
    held: String,
    taken: String,
    line: u32,
}

/// Shared per-file analysis for L5 and L7: declarations, live-guard scope
/// tracking, acquisition edges, wait sites and blocking-call sites.
struct ConcAnalysis {
    decls: Vec<LockDecl>,
    edges: Vec<Edge>,
    /// (line, held-lock name, blocked-call name) — a blocking call made
    /// while a guard was live.
    blocking_under_guard: Vec<(u32, String, String)>,
    /// Lines of `wait`/`wait_timeout` call sites not inside a loop body.
    naked_waits: Vec<u32>,
}

fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
}

fn text_at(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i).map(|t| t.text.as_str())
}

/// Index just past the `)` matching the `(` at `open`.
fn skip_parens(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        match text_at(toks, i) {
            Some("(") => depth += 1,
            Some(")") => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Walk backwards over one balanced `(..)`/`[..]` group ending at `close`;
/// returns the index of the opening token.
fn rewind_group(toks: &[Tok], close: usize) -> usize {
    let (open_s, close_s) = match text_at(toks, close) {
        Some(")") => ("(", ")"),
        Some("]") => ("[", "]"),
        _ => return close,
    };
    let mut depth = 0i32;
    let mut i = close;
    loop {
        match text_at(toks, i) {
            Some(s) if s == close_s => depth += 1,
            Some(s) if s == open_s => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        if i == 0 {
            return 0;
        }
        i -= 1;
    }
}

/// The receiver identifier of a method call whose `.` sits at `dot`
/// (e.g. `self.shards[vi].lock()` → `shards`).
fn receiver_of(toks: &[Tok], dot: usize) -> Option<String> {
    let mut i = dot.checked_sub(1)?;
    // Skip trailing index/call groups: `foo(..)` / `foo[..]`.
    while matches!(text_at(toks, i), Some(")") | Some("]")) {
        let open = rewind_group(toks, i);
        i = open.checked_sub(1)?;
    }
    ident_at(toks, i).map(str::to_string)
}

/// Index just past the `]` matching the `[` at `open`.
fn skip_brackets(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        match text_at(toks, i) {
            Some("[") => depth += 1,
            Some("]") => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// The lock identifier inside the call parens opening at `open`: the last
/// segment of the leading path expression — `&self.shared.state` → `state`,
/// `&self.shards[i]` → `shards`, `shard` → `shard`.
fn arg_lock_name(toks: &[Tok], open: usize) -> Option<String> {
    let end = skip_parens(toks, open);
    let mut i = open + 1;
    while i < end && matches!(text_at(toks, i), Some("&" | "*" | "mut")) {
        i += 1;
    }
    let mut name = None;
    while i < end {
        let Some(id) = ident_at(toks, i) else { break };
        if id != "self" && id != "mut" {
            name = Some(id.to_string());
        }
        i += 1;
        while i < end && text_at(toks, i) == Some("[") {
            i = skip_brackets(toks, i);
        }
        if !matches!(text_at(toks, i), Some(".") | Some("::")) {
            break;
        }
        i += 1;
    }
    name
}

/// Statement start: index just past the previous `;`, `{` or `}`.
fn stmt_start(toks: &[Tok], at: usize) -> usize {
    let mut i = at;
    while i > 0 {
        if matches!(text_at(toks, i - 1), Some(";") | Some("{") | Some("}")) {
            return i;
        }
        i -= 1;
    }
    0
}

/// The `// LOCK-RANK(n):` annotation for a declaration at `line`: same
/// line or up to two lines above (room for one attribute line). When
/// several comments qualify, the nearest one wins, so adjacent annotated
/// declarations don't bleed into each other.
fn rank_near(comments: &[Comment], line: u32) -> Option<u32> {
    let mut best: Option<(u32, u32)> = None; // (comment end line, rank)
    for c in comments {
        if c.end_line + 2 < line || c.line > line {
            continue;
        }
        if let Some(pos) = c.text.find("LOCK-RANK(") {
            let rest = &c.text[pos + "LOCK-RANK(".len()..];
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            if let Ok(n) = digits.parse() {
                if best.map_or(true, |(e, _)| c.end_line >= e) {
                    best = Some((c.end_line, n));
                }
            }
        }
    }
    best.map(|(_, n)| n)
}

/// Is there an `// ORDERING:` justification for `line` — same line, the
/// three lines above, or a function-level comment (within three lines
/// above the `fn` keyword of the function whose body range covers `line`)?
fn ordering_justified(comments: &[Comment], fns: &[(u32, u32, u32)], line: u32) -> bool {
    let site = comments
        .iter()
        .any(|c| c.text.contains("ORDERING:") && c.end_line + 3 >= line && c.line <= line);
    if site {
        return true;
    }
    fns.iter()
        .filter(|&&(fn_line, lo, hi)| (lo..=hi).contains(&line) && fn_line <= line)
        .any(|&(fn_line, _, _)| {
            comments.iter().any(|c| {
                c.text.contains("ORDERING:") && c.end_line + 3 >= fn_line && c.line < fn_line
            })
        })
}

/// Scan lock/RwLock declarations: an `Mutex<`/`RwLock<` type token whose
/// field/static/binding name is the identifier before the preceding `:`.
fn scan_decls(lexed: &Lexed) -> Vec<LockDecl> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || (t.text != "Mutex" && t.text != "RwLock") {
            continue;
        }
        if text_at(toks, i + 1) != Some("<") {
            continue;
        }
        // Walk backwards over type syntax to the `name :` introducer.
        let mut j = i;
        let mut name = None;
        while j > 0 {
            j -= 1;
            match text_at(toks, j) {
                Some(":") => {
                    name = ident_at(toks, j - 1).map(str::to_string);
                    break;
                }
                // Type-position tokens we may cross.
                Some("<" | ">" | ">>" | "[" | "]" | "(" | ")" | "&" | "::" | "'static") => {}
                Some(_) if toks.get(j).is_some_and(|t| t.kind == TokKind::Ident) => {}
                Some(_) if toks.get(j).is_some_and(|t| t.kind == TokKind::Lifetime) => {}
                _ => break,
            }
        }
        let Some(name) = name else { continue };
        // Function parameters (`m: &Mutex<T>` in helper signatures) are
        // not declarations; heuristically skip names introduced right
        // after `(` or `,` inside a `fn` signature — detected by an `&`
        // directly before the type (borrowed param), which a field or
        // static initialised in place never has.
        let before_colon = j;
        let borrow_param = (before_colon + 1..i).any(|k| text_at(toks, k) == Some("&"));
        if borrow_param {
            continue;
        }
        out.push(LockDecl {
            name,
            rank: rank_near(&lexed.comments, t.line),
            line: t.line,
        });
    }
    out
}

/// Function body ranges as `(fn_keyword_line, first_line, last_line)`.
fn fn_ranges(toks: &[Tok]) -> Vec<(u32, u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if ident_at(toks, i) == Some("fn") {
            let fn_line = toks[i].line;
            // First `{` at zero paren depth opens the body (or `;` ends a
            // trait-method signature).
            let mut j = i + 1;
            let mut pdepth = 0i32;
            while j < toks.len() {
                match text_at(toks, j) {
                    Some("(") => pdepth += 1,
                    Some(")") => pdepth -= 1,
                    Some(";") if pdepth == 0 => break,
                    Some("{") if pdepth == 0 => {
                        let close = matching_brace(toks, j);
                        let lo = toks[j].line;
                        let hi = toks.get(close).map_or(lo, |t| t.line);
                        out.push((fn_line, lo, hi));
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            i = j;
        }
        i += 1;
    }
    out
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        match text_at(toks, i) {
            Some("{") => depth += 1,
            Some("}") => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Token-index ranges of `while`/`loop` bodies (for the wait-in-loop
/// check).
fn loop_body_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || (t.text != "while" && t.text != "loop") {
            continue;
        }
        // Find the body `{` at zero paren/bracket depth.
        let mut j = i + 1;
        let mut depth = 0i32;
        while j < toks.len() {
            match text_at(toks, j) {
                Some("(") | Some("[") => depth += 1,
                Some(")") | Some("]") => depth -= 1,
                Some("{") if depth == 0 => {
                    out.push((j, matching_brace(toks, j)));
                    break;
                }
                Some(";") if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
    }
    out
}

/// Kind of acquisition recognised at a token index.
enum Acq {
    /// `lock(&expr)` / `sync::lock(expr)` helper call; payload = arg open
    /// paren index.
    Helper(usize),
    /// `expr.lock()` / `expr.read()` / `expr.write()` method; payload =
    /// receiver name.
    Method(String),
}

/// Recognise a lock acquisition whose head identifier sits at `i`.
fn acquisition_at(toks: &[Tok], i: usize) -> Option<Acq> {
    let id = ident_at(toks, i)?;
    let prev = i.checked_sub(1).and_then(|p| text_at(toks, p));
    let next = text_at(toks, i + 1);
    if prev == Some("fn") {
        return None;
    }
    if id == "lock" && next == Some("(") && prev != Some(".") {
        return Some(Acq::Helper(i + 1));
    }
    if matches!(id, "lock" | "read" | "write") && prev == Some(".") && next == Some("(") {
        // Method form must be nullary: `m.lock()`, `rw.read()`. This keeps
        // `io::Read::read(&mut buf)` and map `write(..)` calls out.
        if text_at(toks, i + 2) == Some(")") {
            let dot = i - 1;
            return receiver_of(toks, dot).map(Acq::Method);
        }
    }
    None
}

/// Run the shared L5/L7 token walk.
fn analyse(lexed: &Lexed) -> ConcAnalysis {
    let toks = &lexed.tokens;
    let decls = scan_decls(lexed);
    let loops = loop_body_ranges(toks);

    let mut edges = Vec::new();
    let mut blocking_under_guard = Vec::new();
    let mut naked_waits = Vec::new();

    let mut depth: usize = 0;
    let mut guards: Vec<LiveGuard> = Vec::new();
    // (alias, lock-name, depth) — `let s = &self.states[..]` and for-loop
    // patterns over lock collections.
    let mut aliases: Vec<(String, String, usize)> = Vec::new();

    let resolve = |aliases: &[(String, String, usize)], name: String| -> String {
        aliases
            .iter()
            .rev()
            .find(|(a, _, _)| *a == name)
            .map_or(name, |(_, l, _)| l.clone())
    };

    let mut i = 0;
    while i < toks.len() {
        match text_at(toks, i) {
            Some("{") => {
                depth += 1;
                i += 1;
                continue;
            }
            Some("}") => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
                aliases.retain(|&(_, _, d)| d <= depth);
                i += 1;
                continue;
            }
            Some(";") => {
                guards.retain(|g| !(g.temp && g.depth == depth));
                i += 1;
                continue;
            }
            _ => {}
        }

        // `drop(g)` releases the named guard early.
        if ident_at(toks, i) == Some("drop")
            && text_at(toks, i + 1) == Some("(")
            && text_at(toks, i + 3) == Some(")")
        {
            if let Some(v) = ident_at(toks, i + 2) {
                guards.retain(|g| g.var.as_deref() != Some(v));
            }
            i += 4;
            continue;
        }

        // `for PAT in ..lock-collection..` — alias the pattern idents.
        // (`impl Trait for Type` also contains `for`; a loop is recognised
        // by an `in` keyword before the opening `{`.)
        if ident_at(toks, i) == Some("for") {
            let mut j = i + 1;
            let mut pat = Vec::new();
            let mut found_in = false;
            while j < toks.len() && j - i < 48 {
                if matches!(text_at(toks, j), Some("{") | Some(";")) {
                    break;
                }
                if ident_at(toks, j) == Some("in") {
                    found_in = true;
                    break;
                }
                if let Some(id) = ident_at(toks, j) {
                    if id != "mut" {
                        pat.push(id.to_string());
                    }
                }
                j += 1;
            }
            if found_in {
                // Scan the iterator expression up to the loop `{`.
                let mut k = j;
                let mut target = None;
                while k < toks.len() && text_at(toks, k) != Some("{") {
                    if let Some(id) = ident_at(toks, k) {
                        if decls.iter().any(|d| d.name == id) {
                            target = Some(id.to_string());
                        }
                    }
                    k += 1;
                }
                if let Some(lock) = target {
                    for p in pat {
                        aliases.push((p, lock.clone(), depth + 1));
                    }
                }
                i = j + 1;
                continue;
            }
        }

        // `let name = &..lock-collection..;` (no acquisition in RHS) —
        // reference alias.
        if ident_at(toks, i) == Some("let") {
            let mut j = i + 1;
            if ident_at(toks, j) == Some("mut") {
                j += 1;
            }
            if let (Some(name), Some("=")) = (ident_at(toks, j), text_at(toks, j + 1)) {
                if text_at(toks, j + 2) == Some("&") {
                    let mut k = j + 2;
                    let mut target = None;
                    let mut has_acq = false;
                    while k < toks.len() && text_at(toks, k) != Some(";") {
                        if ident_at(toks, k) == Some("lock") {
                            has_acq = true;
                        }
                        if let Some(id) = ident_at(toks, k) {
                            if decls.iter().any(|d| d.name == id) {
                                target = Some(id.to_string());
                            }
                        }
                        k += 1;
                    }
                    if let (Some(lock), false) = (target, has_acq) {
                        aliases.push((name.to_string(), lock, depth));
                    }
                }
            }
        }

        // Wait sites: helper `wait(cv, guard)` or method `.wait(..)` /
        // `.wait_timeout(..)`; `wait_while` carries its own predicate loop.
        if matches!(ident_at(toks, i), Some("wait" | "wait_timeout")) {
            let prev = i.checked_sub(1).and_then(|p| text_at(toks, p));
            if text_at(toks, i + 1) == Some("(") && prev != Some("fn") {
                let in_loop = loops.iter().any(|&(lo, hi)| (lo..=hi).contains(&i));
                if !in_loop {
                    naked_waits.push(toks[i].line);
                }
            }
        }

        // Blocking calls while a guard is live.
        if let Some(id) = ident_at(toks, i) {
            if BLOCKING_CALLS.contains(&id) && text_at(toks, i + 1) == Some("(") {
                for g in &guards {
                    blocking_under_guard.push((toks[i].line, g.lock.clone(), id.to_string()));
                }
            }
        }

        // Acquisitions.
        if let Some(acq) = acquisition_at(toks, i) {
            let raw = match &acq {
                Acq::Helper(open) => arg_lock_name(toks, *open),
                Acq::Method(recv) => Some(recv.clone()),
            };
            if let Some(raw) = raw {
                let lock = resolve(&aliases, raw);
                for g in &guards {
                    edges.push(Edge {
                        held: g.lock.clone(),
                        taken: lock.clone(),
                        line: toks[i].line,
                    });
                }
                // Guard binding: `let [mut] v = [& * mut] ACQ(..) ;` with
                // only guard-preserving adaptors chained after.
                let start = stmt_start(toks, i);
                let mut var = None;
                if ident_at(toks, start) == Some("let") {
                    let mut j = start + 1;
                    if ident_at(toks, j) == Some("mut") {
                        j += 1;
                    }
                    if let (Some(name), Some("=")) = (ident_at(toks, j), text_at(toks, j + 1)) {
                        // Everything between `=` and the acquisition must
                        // be prefix operators.
                        let clean_prefix = (j + 2..i).all(|k| {
                            matches!(text_at(toks, k), Some("&" | "*" | "mut"))
                                || ident_at(toks, k) == Some("mut")
                        });
                        if clean_prefix {
                            var = Some(name.to_string());
                        }
                    }
                } else if let (Some(name), Some("=")) =
                    (ident_at(toks, start), text_at(toks, start + 1))
                {
                    // Re-binding an existing guard variable: `st = lock(..)`
                    // or `st = wait(cv, st)`.
                    if start + 2 == i {
                        var = Some(name.to_string());
                    }
                }
                // A chained call after the acquisition (other than a
                // guard-preserving adaptor) drops the guard within the
                // statement.
                let after = skip_parens(
                    toks,
                    match &acq {
                        Acq::Helper(open) => *open,
                        Acq::Method(_) => i + 1,
                    },
                );
                let mut temp = var.is_none();
                if var.is_some() && text_at(toks, after) == Some(".") {
                    let chained = ident_at(toks, after + 1).unwrap_or("");
                    if !GUARD_ADAPTORS.contains(&chained) {
                        temp = true;
                        var = None;
                    }
                }
                if let Some(v) = &var {
                    // A rebind replaces the prior guard of the same name.
                    guards.retain(|g| g.var.as_deref() != Some(v.as_str()));
                }
                guards.push(LiveGuard {
                    var,
                    lock,
                    depth,
                    temp,
                });
            }
        }

        i += 1;
    }

    ConcAnalysis {
        decls,
        edges,
        blocking_under_guard,
        naked_waits,
    }
}

// ---------------------------------------------------------------------
// L5 — lock ordering
// ---------------------------------------------------------------------

pub(crate) fn check_lock_order(
    path: &str,
    lexed: &Lexed,
    in_scope: &dyn Fn(u32) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    let analysis = analyse(lexed);
    for d in &analysis.decls {
        if !in_scope(d.line) {
            continue;
        }
        if d.rank.is_none() {
            out.push(Diagnostic {
                rule: Rule::LockOrder,
                file: path.to_string(),
                line: d.line,
                message: format!(
                    "lock `{}` has no `// LOCK-RANK(n):` annotation; assign it a rank \
                     in the hierarchy (docs/concurrency.md) so ordering is checkable",
                    d.name
                ),
            });
        }
    }
    let rank_of = |name: &str| -> Option<u32> {
        analysis
            .decls
            .iter()
            .find(|d| d.name == name)
            .and_then(|d| d.rank)
    };
    for e in &analysis.edges {
        if !in_scope(e.line) {
            continue;
        }
        if e.held == e.taken {
            out.push(Diagnostic {
                rule: Rule::LockOrder,
                file: path.to_string(),
                line: e.line,
                message: format!(
                    "lock `{}` is acquired while a guard for it is already live; \
                     std mutexes are not reentrant — this deadlocks",
                    e.taken
                ),
            });
            continue;
        }
        if let (Some(h), Some(t)) = (rank_of(&e.held), rank_of(&e.taken)) {
            if t <= h {
                out.push(Diagnostic {
                    rule: Rule::LockOrder,
                    file: path.to_string(),
                    line: e.line,
                    message: format!(
                        "lock-order violation: acquiring `{}` (rank {t}) while holding \
                         `{}` (rank {h}); locks must be taken in strictly ascending rank",
                        e.taken, e.held
                    ),
                });
            }
        }
    }
    // Cycle detection over edges with at least one unranked endpoint
    // (ranked cycles necessarily contain a descending edge reported above).
    let unranked_edges: Vec<(&str, &str, u32)> = analysis
        .edges
        .iter()
        .filter(|e| {
            in_scope(e.line)
                && e.held != e.taken
                && (rank_of(&e.held).is_none() || rank_of(&e.taken).is_none())
        })
        .map(|e| (e.held.as_str(), e.taken.as_str(), e.line))
        .collect();
    for &(a, b, line) in &unranked_edges {
        // Direct two-cycle is the only shape a lexical per-file graph
        // realistically produces; deeper cycles reduce to it pairwise.
        if unranked_edges
            .iter()
            .any(|&(c, d, l2)| c == b && d == a && l2 >= line)
        {
            out.push(Diagnostic {
                rule: Rule::LockOrder,
                file: path.to_string(),
                line,
                message: format!(
                    "lock acquisition cycle: `{a}` is taken while `{b}` is held and \
                     vice versa; two threads interleaving these deadlock"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// L6 — atomics ordering discipline
// ---------------------------------------------------------------------

/// One atomic operation call site.
struct AtomicSite {
    line: u32,
    op: String,
    orderings: Vec<String>,
    in_condition: bool,
}

fn atomic_sites(toks: &[Tok]) -> Vec<AtomicSite> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let op = t.text.as_str();
        if !PUBLISH_OPS.contains(&op) && !COUNTER_OPS.contains(&op) && op != "load" {
            continue;
        }
        if i == 0 || text_at(toks, i - 1) != Some(".") || text_at(toks, i + 1) != Some("(") {
            continue;
        }
        let end = skip_parens(toks, i + 1);
        let orderings: Vec<String> = (i + 2..end)
            .filter_map(|k| ident_at(toks, k))
            .filter(|id| matches!(*id, "Relaxed" | "Acquire" | "Release" | "AcqRel" | "SeqCst"))
            .map(str::to_string)
            .collect();
        if orderings.is_empty() {
            continue; // not an atomic call (e.g. `map.store(..)`)
        }
        let start = stmt_start(toks, i);
        let in_condition = (start..i).any(|k| matches!(ident_at(toks, k), Some("if" | "while")));
        out.push(AtomicSite {
            line: t.line,
            op: op.to_string(),
            orderings,
            in_condition,
        });
    }
    out
}

pub(crate) fn check_atomic_ordering(
    path: &str,
    lexed: &Lexed,
    in_scope: &dyn Fn(u32) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &lexed.tokens;
    let fns = fn_ranges(toks);
    for site in atomic_sites(toks) {
        if !in_scope(site.line) {
            continue;
        }
        let justified = ordering_justified(&lexed.comments, &fns, site.line);
        if justified {
            continue;
        }
        let relaxed = site.orderings.iter().any(|o| o == "Relaxed");
        let seqcst = site.orderings.iter().any(|o| o == "SeqCst");
        if seqcst {
            out.push(Diagnostic {
                rule: Rule::AtomicOrdering,
                file: path.to_string(),
                line: site.line,
                message: format!(
                    "`{}` uses `SeqCst`: over-synchronization needs a `// ORDERING:` \
                     justification (or name the actual acquire/release edge instead)",
                    site.op
                ),
            });
            continue;
        }
        if !relaxed {
            continue;
        }
        if PUBLISH_OPS.contains(&site.op.as_str()) {
            out.push(Diagnostic {
                rule: Rule::AtomicOrdering,
                file: path.to_string(),
                line: site.line,
                message: format!(
                    "`{}` with `Ordering::Relaxed` can publish data without a \
                     happens-before edge; justify with `// ORDERING:` or use Release",
                    site.op
                ),
            });
        } else if site.op == "load" && site.in_condition {
            out.push(Diagnostic {
                rule: Rule::AtomicOrdering,
                file: path.to_string(),
                line: site.line,
                message: "relaxed `load` guarding control flow (same-function guard \
                          pattern) may read stale state; justify with `// ORDERING:` \
                          or use Acquire"
                    .to_string(),
            });
        } else if COUNTER_OPS.contains(&site.op.as_str()) && site.in_condition {
            out.push(Diagnostic {
                rule: Rule::AtomicOrdering,
                file: path.to_string(),
                line: site.line,
                message: format!(
                    "relaxed `{}` used as a control-flow guard; justify with \
                     `// ORDERING:` or use an acquire/release pair",
                    site.op
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// L7 — condvar wait loops and guards across blocking calls
// ---------------------------------------------------------------------

pub(crate) fn check_condvar_wait_loop(
    path: &str,
    lexed: &Lexed,
    in_scope: &dyn Fn(u32) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    let analysis = analyse(lexed);
    for &line in &analysis.naked_waits {
        if !in_scope(line) {
            continue;
        }
        out.push(Diagnostic {
            rule: Rule::CondvarWaitLoop,
            file: path.to_string(),
            line,
            message: "`wait` outside a `while`/`loop` predicate re-check; condvar \
                      wakeups are spurious-prone and a single-shot wait loses them"
                .to_string(),
        });
    }
    for (line, lock, call) in &analysis.blocking_under_guard {
        if !in_scope(*line) {
            continue;
        }
        out.push(Diagnostic {
            rule: Rule::CondvarWaitLoop,
            file: path.to_string(),
            line: *line,
            message: format!(
                "`{call}` called while guard for `{lock}` is live; blocking under a \
                 lock stalls every contender — release the guard first"
            ),
        });
    }
}
