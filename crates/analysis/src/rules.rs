//! The repo-invariant rules enforced by `ofmf-lint`.
//!
//! Every rule is deny-by-default: a finding is an error unless the
//! offending line (or the line above it) carries an
//! `// ofmf-lint: allow(<rule>, "<reason>")` escape with a non-empty
//! reason. The rules:
//!
//! * **`no-panic-path`** — `unwrap()`, `expect(…)`, `panic!(…)` and
//!   non-string array indexing are forbidden in non-test code of the
//!   production crates (`core`, `rest`, `redfish`, `composer`, `agents`).
//!   The manager is the one component of the fabric that cannot be failed
//!   over to itself; request paths return `RedfishError`, they never
//!   panic.
//! * **`no-std-sync`** — blocking primitives must come from the in-tree
//!   `parking_lot` shim so `--features lockcheck` observes every lock in
//!   the workspace. `std::sync::{Mutex, RwLock, Condvar, Barrier}` are
//!   invisible to the lock-order graph.
//! * **`obs-name-convention`** — every metric id defined via
//!   `counter/gauge/histogram("…")` (including `format!` templates) must
//!   match `ofmf.<subsystem>.<dotted…>` (lowercase, ≥ 3 segments), be
//!   defined at exactly one site, and every id referenced by
//!   `ofmf_cli stats` or the README must exist as a definition.
//! * **`atomic-ordering-audit`** — `Ordering::Relaxed` on `.load(…)` /
//!   `.store(…)` outside the obs counter internals is flagged: relaxed
//!   RMW counters are fine, relaxed flag publication across threads is
//!   not.
//! * **`span-name-convention`** — every span name passed to
//!   `root_span/enter_span/child_span("…")` must match
//!   `ofmf.<subsystem>.<op>` (lowercase, ≥ 3 segments) and be opened at
//!   exactly one call site, so a name in a rendered trace always pins one
//!   place in the code.
//! * **`wal-write-facade`** — durable state flows through the `ofmf-wal`
//!   crate only: direct file writes (`fs::write`, `File::create`,
//!   `OpenOptions::new`) are forbidden in non-test code of the production
//!   crates, and inside `crates/wal/` every `sync_all`/`sync_data` call
//!   must carry a `// ofmf-wal: policy` tag citing the fsync-policy
//!   decision it implements.
//! * **`syscall-facade`** — raw kernel access (`unsafe`, inline `asm!`, or
//!   an `allow(unsafe_code)` attribute) is confined to the event loop's
//!   audited syscall facade (`crates/rest/src/event_loop/sys.rs`); the
//!   rest of the workspace stays safe Rust, so there is exactly one file
//!   to audit for memory-safety.
//! * **`lock-discipline`** — the static lock-order graph (see
//!   [`crate::lockgraph`]) must be acyclic over lock keys, and any site
//!   that re-acquires its own key inside an iterator closure (multi-shard
//!   spans) must state the global acquisition order that makes it safe.
//! * **`no-blocking-while-locked`** — file I/O, `Clock::wait_ms`, channel
//!   `recv`/`send` and blocking waits are forbidden while a shim lock
//!   guard is statically live; intentional holds (the WAL's `always`
//!   per-record fsync) carry a reasoned escape, which also excuses the matching runtime
//!   sanitizer violation during `--lock-audit`.

use crate::scan::FileScan;
use crate::Diagnostic;

/// Rule identifiers (the names accepted by `allow(...)`).
pub const RULES: [&str; 9] = [
    "no-panic-path",
    "no-std-sync",
    "obs-name-convention",
    "atomic-ordering-audit",
    "span-name-convention",
    "wal-write-facade",
    "syscall-facade",
    "lock-discipline",
    "no-blocking-while-locked",
];

/// The single file allowed to contain `unsafe` code and inline assembly:
/// the event loop's epoll syscall wrappers.
const SYSCALL_FACADE_FILE: &str = "crates/rest/src/event_loop/sys.rs";

/// Crates whose non-test code must never panic.
const PANIC_PATH_CRATES: [&str; 6] = [
    "crates/core/",
    "crates/rest/",
    "crates/redfish/",
    "crates/composer/",
    "crates/agents/",
    "crates/wal/",
];

/// Crates that must route every durable write through `ofmf-wal`.
const WAL_FACADE_CRATES: [&str; 5] = [
    "crates/core/",
    "crates/rest/",
    "crates/redfish/",
    "crates/composer/",
    "crates/agents/",
];

/// Files exempt from `atomic-ordering-audit` (the lock-free obs counter
/// internals are the one place relaxed loads are the design).
const ORDERING_EXEMPT: [&str; 1] = ["crates/obs/src/metrics.rs"];

/// The file whose `"ofmf.…"` literals are *references* (stats lookups),
/// not definitions.
const CLI_FILE: &str = "src/bin/ofmf_cli.rs";

/// Histogram export suffixes (`<name>.p99` in a reference resolves against
/// the histogram `<name>`).
const HISTO_SUFFIXES: [&str; 6] = [".count", ".mean", ".p50", ".p95", ".p99", ".max"];

pub(crate) fn file_rules(path: &str, scan: &FileScan, out: &mut Vec<Diagnostic>) {
    let panic_scoped = PANIC_PATH_CRATES.iter().any(|c| path.starts_with(c));
    let facade_scoped = WAL_FACADE_CRATES.iter().any(|c| path.starts_with(c));
    let wal_crate = path.starts_with("crates/wal/");
    let ordering_exempt = ORDERING_EXEMPT.contains(&path);
    for (idx, line) in scan.masked_lines.iter().enumerate() {
        let lineno = idx + 1;
        if scan.is_test_line(lineno) {
            continue;
        }
        if panic_scoped {
            no_panic_path(path, lineno, line, out);
        }
        if facade_scoped {
            wal_write_facade(path, lineno, line, out);
        }
        if wal_crate {
            wal_fsync_policy(path, lineno, line, scan, out);
        }
        no_std_sync(path, lineno, line, out);
        if !ordering_exempt {
            atomic_ordering_audit(path, lineno, line, out);
        }
        if path != SYSCALL_FACADE_FILE {
            syscall_facade(path, lineno, line, out);
        }
    }
}

/// Raw kernel access anywhere but the audited facade file: the point of
/// hand-rolling epoll without libc is that the unsafety has exactly one
/// address.
fn syscall_facade(path: &str, lineno: usize, line: &str, out: &mut Vec<Diagnostic>) {
    let what = if line.contains("allow(unsafe_code)") {
        Some("`allow(unsafe_code)` attribute")
    } else if line.contains("asm!(") {
        Some("inline assembly")
    } else if contains_word(line, "unsafe") && !line.contains("unsafe_code") {
        Some("`unsafe` code")
    } else {
        None
    };
    if let Some(what) = what {
        out.push(Diagnostic {
            file: path.to_string(),
            line: lineno,
            rule: "syscall-facade",
            message: format!(
                "{what} outside the audited syscall facade; raw kernel access lives only in {SYSCALL_FACADE_FILE}"
            ),
        });
    }
}

/// Direct file I/O in a production crate bypasses the journal: crash
/// recovery can only replay what went through `ofmf-wal`.
fn wal_write_facade(path: &str, lineno: usize, line: &str, out: &mut Vec<Diagnostic>) {
    for (pat, what) in [
        ("fs::write(", "direct file write"),
        ("File::create(", "direct file creation"),
        ("OpenOptions::new", "direct writable file open"),
    ] {
        if line.contains(pat) {
            out.push(Diagnostic {
                file: path.to_string(),
                line: lineno,
                rule: "wal-write-facade",
                message: format!(
                    "{what} bypasses the ofmf-wal facade; durable control-plane state must go through the journal"
                ),
            });
            return;
        }
    }
}

/// Inside `crates/wal/`, every fsync call must cite the policy decision it
/// implements with a `// ofmf-wal: policy` tag on the same or preceding
/// line — the fsync schedule IS the durability contract.
fn wal_fsync_policy(path: &str, lineno: usize, line: &str, scan: &FileScan, out: &mut Vec<Diagnostic>) {
    if !(line.contains(".sync_all(") || line.contains(".sync_data(")) {
        return;
    }
    let tagged = scan.policy_tags.contains(&lineno) || (lineno > 1 && scan.policy_tags.contains(&(lineno - 1)));
    if !tagged {
        out.push(Diagnostic {
            file: path.to_string(),
            line: lineno,
            rule: "wal-write-facade",
            message: "fsync site without a `// ofmf-wal: policy` tag; cite the FsyncPolicy decision this implements"
                .to_string(),
        });
    }
}

fn no_panic_path(path: &str, lineno: usize, line: &str, out: &mut Vec<Diagnostic>) {
    for (pat, what) in [
        (".unwrap()", "unwrap() panics on None/Err"),
        (".expect(", "expect(…) panics on None/Err"),
        ("panic!(", "explicit panic"),
    ] {
        if line.contains(pat) {
            out.push(Diagnostic {
                file: path.to_string(),
                line: lineno,
                rule: "no-panic-path",
                message: format!("{what}; return a RedfishError/supervisor error instead"),
            });
        }
    }
    // Array/slice indexing: `expr[…]` where the index is not a string
    // literal (serde_json string indexing is total; slice indexing panics
    // out of bounds).
    let b = line.as_bytes();
    for k in 1..b.len() {
        if b[k] != b'[' {
            continue;
        }
        let prev = b[k - 1];
        if !(prev.is_ascii_alphanumeric() || prev == b'_' || prev == b')' || prev == b']') {
            continue;
        }
        // First non-space char inside the brackets.
        let mut j = k + 1;
        while j < b.len() && b[j] == b' ' {
            j += 1;
        }
        if j < b.len() && b[j] == b'"' {
            continue; // string-literal index (serde_json object member)
        }
        out.push(Diagnostic {
            file: path.to_string(),
            line: lineno,
            rule: "no-panic-path",
            message: "indexing can panic out of bounds; use .get(…) or prove the bound and allow with a reason"
                .to_string(),
        });
        break; // one indexing diagnostic per line is enough
    }
}

fn no_std_sync(path: &str, lineno: usize, line: &str, out: &mut Vec<Diagnostic>) {
    if !line.contains("std::sync::") {
        return;
    }
    for prim in ["Mutex", "RwLock", "Condvar", "Barrier"] {
        let direct = line.contains(&format!("std::sync::{prim}"));
        let imported = line.trim_start().starts_with("use std::sync::") && contains_word(line, prim);
        if direct || imported {
            out.push(Diagnostic {
                file: path.to_string(),
                line: lineno,
                rule: "no-std-sync",
                message: format!("std::sync::{prim} bypasses the parking_lot shim and is invisible to lockcheck"),
            });
            return;
        }
    }
}

fn atomic_ordering_audit(path: &str, lineno: usize, line: &str, out: &mut Vec<Diagnostic>) {
    if line.contains("Ordering::Relaxed") && (line.contains(".load(") || line.contains(".store(")) {
        out.push(Diagnostic {
            file: path.to_string(),
            line: lineno,
            rule: "atomic-ordering-audit",
            message: "Relaxed load/store: if this atomic publishes state across threads use Acquire/Release, \
                      otherwise state why Relaxed suffices"
                .to_string(),
        });
    }
}

fn contains_word(line: &str, word: &str) -> bool {
    let b = line.as_bytes();
    let mut from = 0usize;
    while let Some(p) = line.get(from..).and_then(|s| s.find(word)) {
        let start = from + p;
        let end = start + word.len();
        let pre_ok = start == 0 || !(b[start - 1].is_ascii_alphanumeric() || b[start - 1] == b'_');
        let post_ok = end >= b.len() || !(b[end].is_ascii_alphanumeric() || b[end] == b'_');
        if pre_ok && post_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

// ---------------------------------------------------------------------------
// obs-name-convention (cross-file)
// ---------------------------------------------------------------------------

/// One metric definition site.
#[derive(Debug, Clone)]
pub(crate) struct MetricDef {
    pub file: String,
    pub line: usize,
    pub kind: &'static str,
    /// The literal or `format!` template (placeholders kept as `{…}`).
    pub name: String,
}

/// Collect `counter/gauge/histogram("…")` definitions from a scanned file.
pub(crate) fn collect_metric_defs(path: &str, scan: &FileScan, defs: &mut Vec<MetricDef>) {
    if path == CLI_FILE {
        return; // the CLI looks names up; it defines nothing
    }
    for lit in &scan.strings {
        if scan.is_test_line(lit.line) {
            continue;
        }
        let Some(kind) = defining_call(&scan.masked, lit.start) else {
            continue;
        };
        defs.push(MetricDef {
            file: path.to_string(),
            line: lit.line,
            kind,
            name: lit.content.clone(),
        });
    }
}

/// If the string starting at `start` is the first argument of a
/// `counter(` / `gauge(` / `histogram(` call (directly or through
/// `&format!(`), return the instrument kind.
fn defining_call(masked: &str, start: usize) -> Option<&'static str> {
    let mut prefix = masked.get(..start)?.trim_end();
    if let Some(p) = prefix.strip_suffix("format!(") {
        prefix = p.trim_end();
        prefix = prefix.strip_suffix('&').unwrap_or(prefix).trim_end();
    }
    for kind in ["counter", "gauge", "histogram"] {
        if let Some(head) = prefix.strip_suffix(&format!("{kind}(")) {
            // Reject method names merely *ending* in the kind, e.g.
            // `sub_counter(`; require a non-identifier char (or start) before.
            let ok = head
                .as_bytes()
                .last()
                .map(|&b| !(b.is_ascii_alphanumeric() || b == b'_'))
                .unwrap_or(true);
            if ok {
                return Some(match kind {
                    "counter" => "counter",
                    "gauge" => "gauge",
                    _ => "histogram",
                });
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// span-name-convention (cross-file)
// ---------------------------------------------------------------------------

/// One span-opening site.
#[derive(Debug, Clone)]
pub(crate) struct SpanDef {
    pub file: String,
    pub line: usize,
    /// The constructor used (`root_span` / `enter_span` / `child_span`).
    pub kind: &'static str,
    pub name: String,
}

/// Collect `root_span/enter_span/child_span("…")` sites from a scanned file.
pub(crate) fn collect_span_defs(path: &str, scan: &FileScan, defs: &mut Vec<SpanDef>) {
    if path == CLI_FILE {
        return; // the CLI renders recorded names; it opens no spans
    }
    for lit in &scan.strings {
        if scan.is_test_line(lit.line) {
            continue;
        }
        let Some(kind) = span_call(&scan.masked, lit.start) else {
            continue;
        };
        defs.push(SpanDef {
            file: path.to_string(),
            line: lit.line,
            kind,
            name: lit.content.clone(),
        });
    }
}

/// If the string starting at `start` is the first argument of a span
/// constructor, return which one.
fn span_call(masked: &str, start: usize) -> Option<&'static str> {
    let prefix = masked.get(..start)?.trim_end();
    for kind in ["root_span", "enter_span", "child_span"] {
        if let Some(head) = prefix.strip_suffix(&format!("{kind}(")) {
            // Require a non-identifier char (or start) before, so e.g. a
            // method merely ending in `_child_span(` does not count.
            let ok = head
                .as_bytes()
                .last()
                .map(|&b| !(b.is_ascii_alphanumeric() || b == b'_'))
                .unwrap_or(true);
            if ok {
                return Some(match kind {
                    "root_span" => "root_span",
                    "enter_span" => "enter_span",
                    _ => "child_span",
                });
            }
        }
    }
    None
}

/// Validate span names: pattern conformance plus one-call-site uniqueness
/// (a span name in a rendered trace must pin exactly one place in code).
pub(crate) fn span_name_convention(defs: &[SpanDef], out: &mut Vec<Diagnostic>) {
    for d in defs {
        if let Some(problem) = name_pattern_problem(&d.name) {
            out.push(Diagnostic {
                file: d.file.clone(),
                line: d.line,
                rule: "span-name-convention",
                message: format!("span name \"{}\" {problem} (want ofmf.<subsystem>.<op>)", d.name),
            });
        }
    }
    let mut first_site: std::collections::BTreeMap<&str, &SpanDef> = std::collections::BTreeMap::new();
    for d in defs {
        match first_site.get(d.name.as_str()) {
            None => {
                first_site.insert(&d.name, d);
            }
            Some(first) => {
                out.push(Diagnostic {
                    file: d.file.clone(),
                    line: d.line,
                    rule: "span-name-convention",
                    message: format!(
                        "span \"{}\" already opened via {} at {}:{}; span names must be globally unique",
                        d.name, first.kind, first.file, first.line
                    ),
                });
            }
        }
    }
}

/// Collect metric references from the CLI source.
pub(crate) fn collect_cli_refs(path: &str, scan: &FileScan, refs: &mut Vec<(String, usize, String)>) {
    if path != CLI_FILE {
        return;
    }
    for lit in &scan.strings {
        if scan.is_test_line(lit.line) {
            continue;
        }
        if lit.content.starts_with("ofmf.") && lit.content.matches('.').count() >= 2 {
            refs.push((path.to_string(), lit.line, lit.content.clone()));
        }
    }
}

/// Collect backticked `ofmf.…` references from the README.
pub(crate) fn collect_readme_refs(path: &str, content: &str, refs: &mut Vec<(String, usize, String)>) {
    for (idx, line) in content.split('\n').enumerate() {
        // Odd-position chunks are inside backticks.
        let mut inside = false;
        for chunk in line.split('`') {
            if inside
                && chunk.starts_with("ofmf.")
                && !chunk.contains('<')
                && !chunk.contains(char::is_whitespace)
                && chunk.matches('.').count() >= 2
            {
                refs.push((path.to_string(), idx + 1, chunk.to_string()));
            }
            inside = !inside;
        }
    }
}

/// Validate definitions (pattern + uniqueness) and resolve references.
/// Span names count as definitions for reference resolution: the README and
/// CLI may name `ofmf.<subsystem>.<op>` spans as well as metric ids.
pub(crate) fn obs_name_convention(
    defs: &[MetricDef],
    span_defs: &[SpanDef],
    refs: &[(String, usize, String)],
    out: &mut Vec<Diagnostic>,
) {
    // Pattern conformance.
    for d in defs {
        if let Some(problem) = name_pattern_problem(&d.name) {
            out.push(Diagnostic {
                file: d.file.clone(),
                line: d.line,
                rule: "obs-name-convention",
                message: format!("metric id \"{}\" {problem} (want ofmf.<subsystem>.<dotted…>)", d.name),
            });
        }
    }
    // Global uniqueness of literal ids (templates are skipped: their
    // expansion is data-dependent).
    let mut first_site: std::collections::BTreeMap<&str, &MetricDef> = std::collections::BTreeMap::new();
    for d in defs {
        if d.name.contains('{') {
            continue;
        }
        match first_site.get(d.name.as_str()) {
            None => {
                first_site.insert(&d.name, d);
            }
            Some(first) => {
                out.push(Diagnostic {
                    file: d.file.clone(),
                    line: d.line,
                    rule: "obs-name-convention",
                    message: format!(
                        "metric id \"{}\" already defined as a {} at {}:{}; ids must be globally unique",
                        d.name, first.kind, first.file, first.line
                    ),
                });
            }
        }
    }
    // Reference resolution.
    for (file, line, r) in refs {
        if !reference_resolves(r, defs) && !span_defs.iter().any(|s| s.name == *r) {
            out.push(Diagnostic {
                file: file.clone(),
                line: *line,
                rule: "obs-name-convention",
                message: format!("\"{r}\" references a metric no definition site provides"),
            });
        }
    }
}

/// `None` when the (possibly templated) id conforms to the convention.
fn name_pattern_problem(name: &str) -> Option<&'static str> {
    if !name.starts_with("ofmf.") {
        return Some("must start with `ofmf.`");
    }
    let segments: Vec<&str> = name.split('.').collect();
    if segments.len() < 3 {
        return Some("needs at least <subsystem> and one more segment");
    }
    for seg in &segments {
        if seg.is_empty() {
            return Some("has an empty segment");
        }
        let mut chars = seg.chars();
        while let Some(c) = chars.next() {
            if c == '{' {
                // Skip the placeholder body.
                for p in chars.by_ref() {
                    if p == '}' {
                        break;
                    }
                }
                continue;
            }
            if !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_') {
                return Some("has characters outside [a-z0-9_] segments");
            }
        }
    }
    None
}

fn reference_resolves(r: &str, defs: &[MetricDef]) -> bool {
    // Docs may use brace sets as shorthand for several ids:
    // `ofmf.events.index.{candidates,skipped}.total`. Every expansion must
    // resolve.
    let expanded = expand_braces(r);
    if expanded.len() > 1 {
        return expanded.iter().all(|e| reference_resolves(e, defs));
    }
    // Trailing-dot references are prefixes (`ofmf.events.index.`). A
    // template definition diverges from its literal prefix only at `{`,
    // so plain starts_with covers both.
    if let Some(prefix) = r.strip_suffix('.') {
        return defs.iter().any(|d| d.name.starts_with(prefix));
    }
    if defs.iter().any(|d| d.name == r || template_matches(&d.name, r)) {
        return true;
    }
    // Histogram export suffixes.
    for s in HISTO_SUFFIXES {
        if let Some(base) = r.strip_suffix(s) {
            if defs
                .iter()
                .any(|d| d.kind == "histogram" && (d.name == base || template_matches(&d.name, base)))
            {
                return true;
            }
        }
    }
    false
}

/// Expand one `{a,b,…}` alternative set; ids without a comma-set expand to
/// themselves.
fn expand_braces(r: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (r.find('{'), r.find('}')) else {
        return vec![r.to_string()];
    };
    if close < open || !r[open..close].contains(',') {
        return vec![r.to_string()];
    }
    r[open + 1..close]
        .split(',')
        .map(|alt| format!("{}{}{}", &r[..open], alt, &r[close + 1..]))
        .collect()
}

/// Does template `t` (placeholders `{…}` match any non-empty `[a-z0-9_]*`
/// run) match the concrete id `c` segment-wise?
fn template_matches(t: &str, c: &str) -> bool {
    if !t.contains('{') {
        return false;
    }
    let ts: Vec<&str> = t.split('.').collect();
    let cs: Vec<&str> = c.split('.').collect();
    if ts.len() != cs.len() {
        return false;
    }
    ts.iter().zip(cs.iter()).all(|(tseg, cseg)| segment_matches(tseg, cseg))
}

fn segment_matches(tseg: &str, cseg: &str) -> bool {
    if !tseg.contains('{') {
        return tseg == cseg;
    }
    // Split the template segment into fixed parts around placeholders.
    let mut fixed: Vec<String> = Vec::new();
    let mut cur = String::new();
    let mut chars = tseg.chars();
    while let Some(ch) = chars.next() {
        if ch == '{' {
            fixed.push(std::mem::take(&mut cur));
            for p in chars.by_ref() {
                if p == '}' {
                    break;
                }
            }
        } else {
            cur.push(ch);
        }
    }
    fixed.push(cur);
    // `cseg` must start with the first part, end with the last, and
    // contain the middles in order.
    let first = &fixed[0];
    let last = &fixed[fixed.len() - 1];
    if !cseg.starts_with(first.as_str()) || !cseg.ends_with(last.as_str()) {
        return false;
    }
    let mut rest = &cseg[first.len()..];
    for mid in &fixed[1..fixed.len() - 1] {
        if mid.is_empty() {
            continue;
        }
        match rest.find(mid.as_str()) {
            Some(p) => rest = &rest[p + mid.len()..],
            None => return false,
        }
    }
    rest.len() >= last.len()
}
