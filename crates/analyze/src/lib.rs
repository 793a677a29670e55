//! # scs-analyze — workspace-wide concurrency & allocation contract analyzer
//!
//! The serving engine is built on hand-rolled concurrent protocols
//! (epoch-swap installs, pooled one-shot reply cells, relaxed atomic
//! statistics) and a zero-allocation query path. Their invariants live in comments; this crate makes the
//! comments *mandatory* and machine-checks the repo conventions clippy
//! cannot express. Since PR 9 it is call-graph-aware: a std-only lexer
//! ([`lexer`]) and item/block parser ([`parser`]) build a cross-crate
//! call graph over the whole workspace, and two whole-program passes run
//! on top of the four line-level rules:
//!
//! * [`Rule::SafetyComment`] — every `unsafe` site (block, fn, impl,
//!   trait) carries a `// SAFETY:` justification on the same line or in
//!   the comment block immediately above. Clippy's
//!   `undocumented_unsafe_blocks` covers blocks only; this rule also
//!   covers `unsafe fn` / `unsafe impl` and runs on test code.
//! * [`Rule::OrderingComment`] — every explicit atomic ordering
//!   (`Ordering::Relaxed` / `Acquire` / `Release` / `AcqRel` / `SeqCst`,
//!   including fences) in the audited files carries a `// ordering:`
//!   comment naming what it pairs with (or why no pairing is needed).
//!   The audit set comes from `scs-analyze.toml` (`[ordering] audit`,
//!   see [`config`]), falling back to [`ORDERING_AUDIT_FILES`]; a file
//!   *outside* the set that uses explicit atomics in non-test code is
//!   itself a finding, with a hint to opt it in.
//! * [`Rule::AllocFree`] — regions bracketed by `// scs-lint: alloc-free`
//!   and `// scs-lint: end-alloc-free` may not call heap APIs. Retained
//!   for surgical spans; new hot-path code should prefer a `no-alloc`
//!   contract, which follows calls.
//! * [`Rule::UnsafeAllowlist`] — the workspace's `unsafe` footprint is
//!   pinned by [`ALLOWLIST_FILE`]: per-file budgets that must match
//!   reality in both directions.
//! * [`Rule::Contract`] — **contract propagation** ([`contracts`]): a fn
//!   annotated `// scs-contract: no-alloc | no-panic | no-block` has its
//!   *entire transitive call tree* checked against the contract's
//!   deny-list (heap constructors; panic sources incl. indexing;
//!   blocking primitives). Violations print the call chain from the
//!   contract root to the offending line; deliberate exceptions are
//!   waived per site with `// contract-ok: <reason>`.
//! * [`Rule::LockOrder`] — the **lock-order graph** ([`lockorder`]):
//!   guard scopes and transitive acquisitions build a global
//!   acquired-while-held graph; a cycle is a potential deadlock and
//!   fails CI. False pairings are waived with `// lock-ok: <reason>`.
//!
//! Everything is std-only and offline. [`analyze_workspace`] walks the
//! tree (skipping `target`, VCS dirs, lint-fixture trees and nested
//! cargo workspaces, which `--root` analyzes on their own), runs the
//! per-file rules, then the whole-program passes, and returns sorted
//! `file:line: [rule] message` diagnostics renderable as human text,
//! GitHub annotations or JSON ([`Format`]). `scs analyze` exits non-zero
//! when any diagnostic survives the `--allow` set, which is what CI
//! gates on.

#![forbid(unsafe_code)]

pub mod config;
pub mod contracts;
pub mod lexer;
pub mod lockorder;
pub mod parser;

use lexer::{lex, word_positions, Line};
use std::fmt;
use std::path::{Path, PathBuf};

/// Fallback audit set when no `scs-analyze.toml` is present (e.g.
/// `scs analyze --root crates/service`): files whose atomic orderings
/// must each carry a `// ordering:` comment. Kept equal to the root
/// config's list.
pub const ORDERING_AUDIT_FILES: [&str; 4] = ["engine.rs", "telemetry.rs", "stats.rs", "server.rs"];

/// How many lines above an atomic op an `// ordering:` comment may sit.
pub const ORDERING_COMMENT_WINDOW: usize = 6;

/// How many comment/attribute-only lines above an `unsafe` site a
/// `// SAFETY:` comment may sit.
pub const SAFETY_COMMENT_WINDOW: usize = 12;

/// The per-file unsafe budget, looked up relative to the analysis root.
pub const ALLOWLIST_FILE: &str = "unsafe-allowlist.txt";

/// Region markers for [`Rule::AllocFree`].
pub const REGION_START: &str = "scs-lint: alloc-free";
/// Closes a [`REGION_START`] region.
pub const REGION_END: &str = "scs-lint: end-alloc-free";
/// Line-level waiver inside an alloc-free region; must carry a reason.
pub const ALLOC_WAIVER: &str = "alloc-ok:";

/// Heap-API call patterns forbidden inside alloc-free regions. Matched
/// against comment- and string-stripped source, so mentions in docs or
/// literals don't fire. The `no-alloc` contract uses the wider
/// [`contracts::ContractKind::deny_patterns`] list.
pub const HEAP_PATTERNS: [&str; 13] = [
    "Box::new",
    "Vec::new",
    "Vec::with_capacity",
    "vec!",
    "format!",
    "String::new",
    "String::from",
    ".to_vec(",
    ".to_owned(",
    ".to_string(",
    ".collect(",
    ".collect::",
    ".clone(",
];

const ORDERING_VARIANTS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One lint rule. `--allow <name>` disables a rule for a run (the CI
/// invocation allows nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `unsafe` without an adjacent `// SAFETY:` justification.
    SafetyComment,
    /// Explicit atomic ordering without a `// ordering:` pairing note,
    /// or in a file missing from the `[ordering] audit` config.
    OrderingComment,
    /// Heap API call inside a `scs-lint: alloc-free` region.
    AllocFree,
    /// `unsafe` footprint drifted from `unsafe-allowlist.txt`.
    UnsafeAllowlist,
    /// `scs-contract:` violation anywhere in a contract root's
    /// transitive call tree.
    Contract,
    /// Cycle in the workspace lock-order graph.
    LockOrder,
}

impl Rule {
    /// Every rule, in diagnostic-sort order.
    pub const ALL: [Rule; 6] = [
        Rule::SafetyComment,
        Rule::OrderingComment,
        Rule::AllocFree,
        Rule::UnsafeAllowlist,
        Rule::Contract,
        Rule::LockOrder,
    ];

    /// Stable name used in diagnostics and `--allow`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::SafetyComment => "unsafe-safety-comment",
            Rule::OrderingComment => "atomic-ordering-comment",
            Rule::AllocFree => "alloc-free-region",
            Rule::UnsafeAllowlist => "unsafe-allowlist",
            Rule::Contract => "contract",
            Rule::LockOrder => "lock-order",
        }
    }

    /// Inverse of [`Self::name`].
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding: `path:line: [rule] message`, path relative to the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the analysis root, `/`-separated.
    pub path: String,
    /// 1-based line of the offending site (0 for whole-file findings).
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-facing explanation with the expected fix.
    pub msg: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

/// Output format for [`Analysis::render_as`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// `file:line: [rule] message` lines plus a coverage summary.
    #[default]
    Human,
    /// GitHub Actions workflow commands (`::error file=…,line=…::…`),
    /// one per diagnostic, plus the summary as plain text.
    Github,
    /// A machine-readable JSON object (hand-rolled, std-only).
    Json,
}

impl Format {
    pub fn name(self) -> &'static str {
        match self {
            Format::Human => "human",
            Format::Github => "github",
            Format::Json => "json",
        }
    }

    pub fn from_name(name: &str) -> Option<Format> {
        match name {
            "human" => Some(Format::Human),
            "github" => Some(Format::Github),
            "json" => Some(Format::Json),
            _ => None,
        }
    }
}

/// What to analyze and which rules to skip.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root (the directory holding [`ALLOWLIST_FILE`] and
    /// `scs-analyze.toml`).
    pub root: PathBuf,
    /// Rules disabled via `--allow`.
    pub disabled: Vec<Rule>,
}

impl Config {
    /// All rules enabled.
    pub fn new(root: impl Into<PathBuf>) -> Config {
        Config {
            root: root.into(),
            disabled: Vec::new(),
        }
    }

    fn enabled(&self, rule: Rule) -> bool {
        !self.disabled.contains(&rule)
    }
}

/// The result of a run: diagnostics plus coverage counters, so a "clean"
/// run can be told apart from a run that scanned nothing.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Sorted findings (path, then line, then rule).
    pub diagnostics: Vec<Diagnostic>,
    /// `.rs` files scanned.
    pub files_scanned: usize,
    /// `unsafe` sites seen (compliant or not).
    pub unsafe_sites: usize,
    /// Explicit atomic orderings seen in audited files.
    pub ordering_sites: usize,
    /// `scs-lint: alloc-free` regions seen.
    pub alloc_free_regions: usize,
    /// Functions carrying at least one `scs-contract:`.
    pub contract_roots: usize,
    /// (contract, fn) pairs proven — the size of the checked call trees.
    pub contract_fns_checked: usize,
    /// Lock acquisition sites feeding the lock-order graph.
    pub lock_sites: usize,
    /// Distinct edges in the lock-order graph.
    pub lock_edges: usize,
}

impl Analysis {
    /// `true` iff no rule fired.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    fn summary(&self) -> String {
        format!(
            "scs analyze: {} file(s), {} unsafe site(s), {} audited ordering(s), {} alloc-free \
             region(s), {} contract root(s) ({} fn(s) proven), {} lock site(s) ({} edge(s), \
             cycle-free unless reported): {}",
            self.files_scanned,
            self.unsafe_sites,
            self.ordering_sites,
            self.alloc_free_regions,
            self.contract_roots,
            self.contract_fns_checked,
            self.lock_sites,
            self.lock_edges,
            if self.is_clean() {
                "clean".to_string()
            } else {
                format!("{} violation(s)", self.diagnostics.len())
            }
        )
    }

    /// The report `scs analyze` prints: every diagnostic, then a
    /// one-line coverage summary.
    pub fn render(&self) -> String {
        self.render_as(Format::Human)
    }

    /// Renders the report in the requested [`Format`].
    pub fn render_as(&self, format: Format) -> String {
        match format {
            Format::Human => {
                let mut out = String::new();
                for d in &self.diagnostics {
                    out.push_str(&d.to_string());
                    out.push('\n');
                }
                out.push_str(&self.summary());
                out
            }
            Format::Github => {
                let mut out = String::new();
                for d in &self.diagnostics {
                    out.push_str(&format!(
                        "::error file={},line={},title=scs-analyze {}::{}\n",
                        github_escape_property(&d.path),
                        d.line.max(1),
                        github_escape_property(d.rule.name()),
                        github_escape_data(&d.msg)
                    ));
                }
                out.push_str(&self.summary());
                out
            }
            Format::Json => {
                let mut out = String::from("{\n  \"diagnostics\": [");
                for (i, d) in self.diagnostics.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "\n    {{\"path\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
                        json_string(&d.path),
                        d.line,
                        json_string(d.rule.name()),
                        json_string(&d.msg)
                    ));
                }
                if !self.diagnostics.is_empty() {
                    out.push_str("\n  ");
                }
                out.push_str(&format!(
                    "],\n  \"summary\": {{\"files_scanned\": {}, \"unsafe_sites\": {}, \
                     \"ordering_sites\": {}, \"alloc_free_regions\": {}, \"contract_roots\": {}, \
                     \"contract_fns_checked\": {}, \"lock_sites\": {}, \"lock_edges\": {}, \
                     \"clean\": {}}}\n}}",
                    self.files_scanned,
                    self.unsafe_sites,
                    self.ordering_sites,
                    self.alloc_free_regions,
                    self.contract_roots,
                    self.contract_fns_checked,
                    self.lock_sites,
                    self.lock_edges,
                    self.is_clean()
                ));
                out
            }
        }
    }
}

/// Escapes a GitHub workflow-command *data* payload (the message).
fn github_escape_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Escapes a GitHub workflow-command *property* value (file, title).
fn github_escape_property(s: &str) -> String {
    github_escape_data(s)
        .replace(':', "%3A")
        .replace(',', "%2C")
}

/// Minimal JSON string encoder (std-only, ASCII control escapes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `true` if the line is blank, comment-only, or an attribute — the
/// lines a SAFETY comment is allowed to look through.
fn is_skippable_above_unsafe(line: &Line) -> bool {
    let code = line.code.trim();
    code.is_empty() || code.starts_with("#[") || code.starts_with("#![")
}

// ---------------------------------------------------------------------------
// Per-file scanning.
// ---------------------------------------------------------------------------

/// Everything one file contributes before cross-file rules run.
#[derive(Debug, Default)]
struct FileScan {
    diagnostics: Vec<Diagnostic>,
    /// 1-based lines of `unsafe` keyword sites.
    unsafe_lines: Vec<usize>,
    ordering_sites: usize,
    alloc_free_regions: usize,
}

/// `true` when `rel` (or its file name) is covered by the audit list:
/// bare names match the file name, entries with `/` match as path
/// suffixes.
fn audited_for_ordering(rel: &str, audit: &[String]) -> bool {
    let file_name = rel.rsplit('/').next().unwrap_or(rel);
    audit.iter().any(|a| {
        if a.contains('/') {
            rel == a || rel.ends_with(&format!("/{a}"))
        } else {
            file_name == a
        }
    })
}

/// Runs the per-file rules over one lexed file. `rel` is the
/// `/`-separated path reported in diagnostics; `in_test(line)` masks
/// `#[cfg(test)]` code for the rules that skip it.
fn scan_file(
    rel: &str,
    lines: &[Line],
    in_test: &dyn Fn(usize) -> bool,
    cfg: &Config,
    audit: &[String],
) -> FileScan {
    let mut scan = FileScan::default();
    let audited = audited_for_ordering(rel, audit);
    let mut region_start: Option<usize> = None;
    let mut unaudited_hint_sent = false;

    for idx in 0..lines.len() {
        let lineno = idx + 1;
        let line = &lines[idx];

        // -- unsafe sites ---------------------------------------------------
        // Deliberately also runs on test code: a test's unsafe needs a
        // justification just as much.
        for _ in word_positions(&line.code, "unsafe") {
            scan.unsafe_lines.push(lineno);
            let mut justified = line.comment.contains("SAFETY:");
            if !justified {
                let mut j = idx;
                for _ in 0..SAFETY_COMMENT_WINDOW {
                    if j == 0 {
                        break;
                    }
                    j -= 1;
                    if !is_skippable_above_unsafe(&lines[j]) {
                        break;
                    }
                    if lines[j].comment.contains("SAFETY:") {
                        justified = true;
                        break;
                    }
                }
            }
            if !justified && cfg.enabled(Rule::SafetyComment) {
                scan.diagnostics.push(Diagnostic {
                    path: rel.to_string(),
                    line: lineno,
                    rule: Rule::SafetyComment,
                    msg: "`unsafe` without a `// SAFETY:` justification on the same line or \
                          in the comment block directly above"
                        .to_string(),
                });
            }
        }

        // -- atomic orderings ----------------------------------------------
        for pos in word_positions(&line.code, "Ordering") {
            let rest = &line.code[pos..];
            let Some(tail) = rest.strip_prefix("Ordering::") else {
                continue;
            };
            let variant = ORDERING_VARIANTS.iter().find(|v| {
                tail.starts_with(**v)
                    && !tail[v.len()..]
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
            });
            let Some(variant) = variant else { continue };
            if audited {
                scan.ordering_sites += 1;
                let has_note = (idx.saturating_sub(ORDERING_COMMENT_WINDOW)..=idx)
                    .any(|j| lines[j].comment.contains("ordering:"));
                // Test-only atomics are not production surface; the
                // audit covers what ships.
                if !has_note && !in_test(lineno) && cfg.enabled(Rule::OrderingComment) {
                    scan.diagnostics.push(Diagnostic {
                        path: rel.to_string(),
                        line: lineno,
                        rule: Rule::OrderingComment,
                        msg: format!(
                            "`Ordering::{variant}` without a `// ordering:` comment naming its \
                             pairing (same line or within {ORDERING_COMMENT_WINDOW} lines above)"
                        ),
                    });
                }
            } else if !in_test(lineno) && !unaudited_hint_sent && cfg.enabled(Rule::OrderingComment)
            {
                // Explicit atomics in a file nobody audits: the file
                // must be opted in, so its orderings get reviewed.
                unaudited_hint_sent = true;
                let file_name = rel.rsplit('/').next().unwrap_or(rel);
                scan.diagnostics.push(Diagnostic {
                    path: rel.to_string(),
                    line: lineno,
                    rule: Rule::OrderingComment,
                    msg: format!(
                        "`Ordering::{variant}` in a file not in the ordering audit list; add \
                         `\"{file_name}\"` to `[ordering] audit` in {} and justify each site \
                         with a `// ordering:` comment",
                        config::CONFIG_FILE
                    ),
                });
            }
        }

        // -- alloc-free regions --------------------------------------------
        // A marker is a *directive* only when it opens the comment text:
        // prose that merely mentions a marker (like this crate's own
        // documentation) must not open a region. The end marker is
        // tested first: both directives share the `scs-lint:` prefix.
        // Test code is exempt: fixtures and tests may quote markers and
        // allocate freely.
        if in_test(lineno) {
            continue;
        }
        if directive(&line.comment, REGION_END) {
            if region_start.is_none() && cfg.enabled(Rule::AllocFree) {
                scan.diagnostics.push(Diagnostic {
                    path: rel.to_string(),
                    line: lineno,
                    rule: Rule::AllocFree,
                    msg: format!("`{REGION_END}` without an open `{REGION_START}` region"),
                });
            }
            region_start = None;
        } else if directive(&line.comment, REGION_START) {
            if let Some(open) = region_start {
                if cfg.enabled(Rule::AllocFree) {
                    scan.diagnostics.push(Diagnostic {
                        path: rel.to_string(),
                        line: lineno,
                        rule: Rule::AllocFree,
                        msg: format!(
                            "nested `{REGION_START}` (previous region opened on line {open} \
                             was never closed)"
                        ),
                    });
                }
            }
            region_start = Some(lineno);
            scan.alloc_free_regions += 1;
        } else if region_start.is_some() && !line.comment.contains(ALLOC_WAIVER) {
            for pat in HEAP_PATTERNS {
                if line.code.contains(pat) && cfg.enabled(Rule::AllocFree) {
                    scan.diagnostics.push(Diagnostic {
                        path: rel.to_string(),
                        line: lineno,
                        rule: Rule::AllocFree,
                        msg: format!(
                            "heap API `{pat}` inside a `{REGION_START}` region (waive a \
                             justified false positive with `// {ALLOC_WAIVER} <reason>`)"
                        ),
                    });
                }
            }
        }
    }

    if let Some(open) = region_start {
        if cfg.enabled(Rule::AllocFree) {
            scan.diagnostics.push(Diagnostic {
                path: rel.to_string(),
                line: open,
                rule: Rule::AllocFree,
                msg: format!("`{REGION_START}` region is never closed with `{REGION_END}`"),
            });
        }
    }
    scan
}

/// `true` iff the comment text attached to a line *begins* with
/// `marker` — the shape of a deliberate lint directive, as opposed to
/// documentation that merely mentions one.
fn directive(comment: &str, marker: &str) -> bool {
    comment.trim_start().starts_with(marker)
}

// ---------------------------------------------------------------------------
// Allowlist.
// ---------------------------------------------------------------------------

/// Parsed [`ALLOWLIST_FILE`]: `(path, budget)` per non-comment line.
fn parse_allowlist(text: &str) -> Result<Vec<(String, usize)>, String> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(path), Some(count), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!(
                "{ALLOWLIST_FILE}:{}: expected `<path> <max-unsafe-sites>`, got {line:?}",
                i + 1
            ));
        };
        let count: usize = count
            .parse()
            .map_err(|_| format!("{ALLOWLIST_FILE}:{}: invalid site count {count:?}", i + 1))?;
        out.push((path.to_string(), count));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Workspace walk + entry points.
// ---------------------------------------------------------------------------

/// Directories never scanned: build output, VCS state, and lint-fixture
/// trees (which contain violations *on purpose*).
fn skip_dir(name: &str) -> bool {
    name == "target" || name == ".git" || name == "fixtures" || name.starts_with('.')
}

/// `true` when `dir` holds a `Cargo.toml` that declares `[workspace]`.
/// Such a directory is a separate project — cargo does not build it as
/// part of the enclosing workspace — so the walk stops there, as cargo
/// does; analyze it on its own with `--root`.
fn is_nested_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|manifest| {
        manifest
            .lines()
            .any(|line| line.split('#').next().unwrap_or("").trim() == "[workspace]")
    })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut entries: Vec<_> = entries
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        let ty = entry
            .file_type()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if ty.is_dir() {
            if !skip_dir(&name) && !is_nested_workspace(&path) {
                collect_rs_files(&path, out)?;
            }
        } else if ty.is_file() && name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `true` when the whole file is test/bench/example collateral, so its
/// fns never join the production call graph.
fn is_test_path(rel: &str) -> bool {
    rel.split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

/// Analyzes every `.rs` file under `cfg.root`: the per-file rules, the
/// unsafe allowlist, contract propagation and the lock-order graph.
/// `Err` is an I/O or config-syntax failure, *not* a lint finding —
/// findings come back in [`Analysis::diagnostics`].
pub fn analyze_workspace(cfg: &Config) -> Result<Analysis, String> {
    let toml = config::load(&cfg.root)?;
    let audit: Vec<String> = toml
        .ordering_audit
        .unwrap_or_else(|| ORDERING_AUDIT_FILES.iter().map(|s| s.to_string()).collect());

    let mut paths = Vec::new();
    collect_rs_files(&cfg.root, &mut paths)?;
    let mut analysis = Analysis::default();
    let mut unsafe_by_file: Vec<(String, Vec<usize>)> = Vec::new();
    let mut files: Vec<contracts::SourceFile> = Vec::new();

    for path in &paths {
        let rel = path
            .strip_prefix(&cfg.root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let lines = lex(&src);
        let in_test_file = is_test_path(&rel);
        let ast = parser::parse(&lines, in_test_file);
        let scan = scan_file(
            &rel,
            &lines,
            &|line| in_test_file || ast.in_test_range(line),
            cfg,
            &audit,
        );
        analysis.files_scanned += 1;
        analysis.unsafe_sites += scan.unsafe_lines.len();
        analysis.ordering_sites += scan.ordering_sites;
        analysis.alloc_free_regions += scan.alloc_free_regions;
        analysis.diagnostics.extend(scan.diagnostics);
        if !scan.unsafe_lines.is_empty() {
            unsafe_by_file.push((rel.clone(), scan.unsafe_lines));
        }
        files.push(contracts::SourceFile {
            rel,
            lines,
            ast,
            in_test_file,
        });
    }

    if cfg.enabled(Rule::UnsafeAllowlist) {
        let allowlist_path = cfg.root.join(ALLOWLIST_FILE);
        let allowlist = match std::fs::read_to_string(&allowlist_path) {
            Ok(text) => parse_allowlist(&text)?,
            Err(_) => Vec::new(),
        };
        for (rel, lines) in &unsafe_by_file {
            let budget = allowlist
                .iter()
                .find(|(p, _)| p == rel)
                .map_or(0, |(_, n)| *n);
            if lines.len() > budget {
                analysis.diagnostics.push(Diagnostic {
                    path: rel.clone(),
                    line: lines[budget.min(lines.len() - 1)],
                    rule: Rule::UnsafeAllowlist,
                    msg: format!(
                        "{} unsafe site(s) but {ALLOWLIST_FILE} budgets {budget}; new unsafe \
                         must be admitted there deliberately",
                        lines.len()
                    ),
                });
            }
        }
        // Stale budgets fail too: the allowlist must stay minimal, so it
        // documents exactly the unsafe that exists.
        for (path, budget) in &allowlist {
            let actual = unsafe_by_file
                .iter()
                .find(|(p, _)| p == path)
                .map_or(0, |(_, l)| l.len());
            if actual < *budget {
                analysis.diagnostics.push(Diagnostic {
                    path: path.clone(),
                    line: 0,
                    rule: Rule::UnsafeAllowlist,
                    msg: format!(
                        "{ALLOWLIST_FILE} budgets {budget} unsafe site(s) but only {actual} \
                         exist; tighten the entry"
                    ),
                });
            }
        }
    }

    // Whole-program passes share one name-resolution index.
    let index = contracts::FnIndex::build(&files);
    if cfg.enabled(Rule::Contract) {
        let (diags, stats) = contracts::check_contracts(&files, &index);
        analysis.diagnostics.extend(diags);
        analysis.contract_roots = stats.roots;
        analysis.contract_fns_checked = stats.fns_checked;
    }
    if cfg.enabled(Rule::LockOrder) {
        let (diags, stats) = lockorder::check_lock_order(&files, &index);
        analysis.diagnostics.extend(diags);
        analysis.lock_sites = stats.sites;
        analysis.lock_edges = stats.edges;
    }

    analysis
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(analysis)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_all() -> Config {
        Config::new(".")
    }

    fn default_audit() -> Vec<String> {
        ORDERING_AUDIT_FILES.iter().map(|s| s.to_string()).collect()
    }

    fn scan(rel: &str, src: &str) -> FileScan {
        let lines = lex(src);
        let ast = parser::parse(&lines, false);
        scan_file(
            rel,
            &lines,
            &|line| ast.in_test_range(line),
            &cfg_all(),
            &default_audit(),
        )
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let bad = scan("a.rs", "fn f() {\n    unsafe { g() }\n}\n");
        assert_eq!(bad.diagnostics.len(), 1);
        assert_eq!(bad.diagnostics[0].rule, Rule::SafetyComment);
        assert_eq!(bad.diagnostics[0].line, 2);

        let same_line = scan(
            "a.rs",
            "fn f() {\n    unsafe { g() } // SAFETY: g is pure\n}\n",
        );
        assert!(same_line.diagnostics.is_empty());

        let above = scan(
            "a.rs",
            "fn f() {\n    // SAFETY: g upholds X\n    #[allow(clippy::x)]\n    unsafe { g() }\n}\n",
        );
        assert!(above.diagnostics.is_empty());
        assert_eq!(above.unsafe_lines, vec![4]);
    }

    #[test]
    fn safety_comment_does_not_reach_past_code() {
        let src = "// SAFETY: stale comment\nfn g() {}\nunsafe fn h() {}\n";
        let s = scan("a.rs", src);
        assert_eq!(s.diagnostics.len(), 1);
        assert_eq!(s.diagnostics[0].line, 3);
    }

    #[test]
    fn identifiers_containing_unsafe_do_not_count() {
        let s = scan("a.rs", "#![forbid(unsafe_code)]\nfn unsafe_name() {}\n");
        assert!(s.diagnostics.is_empty());
        assert!(s.unsafe_lines.is_empty());
    }

    #[test]
    fn ordering_rule_applies_only_to_audited_files() {
        let src = "x.load(Ordering::Relaxed);\n";
        assert_eq!(scan("telemetry.rs", src).diagnostics.len(), 1);
        assert_eq!(
            scan("crates/service/src/engine.rs", src).diagnostics.len(),
            1
        );
        assert_eq!(scan("lib.rs", src).ordering_sites, 0);
    }

    #[test]
    fn unaudited_atomics_get_one_hint() {
        let src =
            "fn f(x: &A) {\n    x.load(Ordering::Relaxed);\n    x.load(Ordering::Acquire);\n}\n";
        let s = scan("lib.rs", src);
        assert_eq!(s.diagnostics.len(), 1, "{:?}", s.diagnostics);
        assert!(
            s.diagnostics[0].msg.contains("audit"),
            "{}",
            s.diagnostics[0].msg
        );
        assert!(s.diagnostics[0].msg.contains("lib.rs"));
        // Test-only atomics do not need opt-in.
        let test_only =
            "#[cfg(test)]\nmod tests {\n    fn t(x: &A) { x.load(Ordering::SeqCst); }\n}\n";
        assert!(scan("lib.rs", test_only).diagnostics.is_empty());
    }

    #[test]
    fn audit_entries_match_names_and_suffixes() {
        let audit = vec!["engine.rs".to_string(), "service/src/stats.rs".to_string()];
        assert!(audited_for_ordering("crates/service/src/engine.rs", &audit));
        assert!(audited_for_ordering("crates/service/src/stats.rs", &audit));
        assert!(!audited_for_ordering("crates/other/src/stats.rs", &audit));
    }

    #[test]
    fn ordering_comment_satisfies_within_window() {
        let ok =
            "// ordering: pairs with the Release store in publish()\nx.load(Ordering::Acquire);\n";
        assert!(scan("server.rs", ok).diagnostics.is_empty());
        let far = format!(
            "// ordering: too far\n{}x.load(Ordering::Acquire);\n",
            "\n".repeat(ORDERING_COMMENT_WINDOW)
        );
        assert_eq!(scan("server.rs", &far).diagnostics.len(), 1);
    }

    #[test]
    fn fallback_audit_list_matches_the_root_config() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let toml = config::load(&root).unwrap();
        assert_eq!(toml.ordering_audit, Some(default_audit()));
    }

    #[test]
    fn alloc_free_region_flags_heap_calls() {
        let src = "\
// scs-lint: alloc-free
fn hot() {
    let v = Vec::new();
    let w = x.clone(); // alloc-ok: Arc refcount bump
}
// scs-lint: end-alloc-free
fn cold() { let v = Vec::new(); }
";
        let s = scan("a.rs", src);
        assert_eq!(s.diagnostics.len(), 1, "{:?}", s.diagnostics);
        assert_eq!(s.diagnostics[0].line, 3);
        assert_eq!(s.alloc_free_regions, 1);
    }

    #[test]
    fn unterminated_region_is_reported_at_its_start() {
        let s = scan("a.rs", "// scs-lint: alloc-free\nfn f() {}\n");
        assert_eq!(s.diagnostics.len(), 1);
        assert_eq!(s.diagnostics[0].line, 1);
        assert!(s.diagnostics[0].msg.contains("never closed"));
    }

    #[test]
    fn markers_in_tests_strings_and_docs_do_not_fire() {
        // In a #[cfg(test)] module: markers and heap calls are exempt.
        let in_test = "\
#[cfg(test)]
mod tests {
    // scs-lint: alloc-free
    fn t() {
        let v = Vec::new();
    }
}
";
        assert!(scan("a.rs", in_test).diagnostics.is_empty(), "cfg(test)");
        // In a string literal: the marker is data, not a directive.
        let in_str = "fn f() -> &'static str {\n    \"// scs-lint: alloc-free\"\n}\nfn g() { let v = Vec::new(); }\n";
        assert!(scan("a.rs", in_str).diagnostics.is_empty(), "string");
        // In a doc comment: prose, not a directive.
        let in_doc = "/// scs-lint: alloc-free\nfn f() { let v = Vec::new(); }\n";
        assert!(scan("a.rs", in_doc).diagnostics.is_empty(), "doc");
    }

    #[test]
    fn allowlist_parses_and_rejects_garbage() {
        let ok = parse_allowlist("# comment\n\ncrates/a.rs 2\n  b.rs   0\n").unwrap();
        assert_eq!(ok, vec![("crates/a.rs".into(), 2), ("b.rs".into(), 0)]);
        assert!(parse_allowlist("a.rs\n").is_err());
        assert!(parse_allowlist("a.rs two\n").is_err());
        assert!(parse_allowlist("a.rs 1 extra\n").is_err());
    }

    #[test]
    fn disabled_rules_do_not_fire() {
        let mut cfg = cfg_all();
        cfg.disabled.push(Rule::SafetyComment);
        let lines = lex("unsafe fn f() {}\n");
        let ast = parser::parse(&lines, false);
        let s = scan_file(
            "a.rs",
            &lines,
            &|line| ast.in_test_range(line),
            &cfg,
            &default_audit(),
        );
        assert!(s.diagnostics.is_empty());
        // Sites are still counted for the allowlist rule.
        assert_eq!(s.unsafe_lines, vec![1]);
    }

    #[test]
    fn rule_names_round_trip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_name(r.name()), Some(r));
        }
        assert_eq!(Rule::from_name("nonsense"), None);
    }

    #[test]
    fn formats_render_diagnostics_and_summary() {
        let analysis = Analysis {
            diagnostics: vec![Diagnostic {
                path: "a.rs".to_string(),
                line: 3,
                rule: Rule::Contract,
                msg: "`Vec::new` violates `no-alloc`\nsecond line".to_string(),
            }],
            files_scanned: 1,
            ..Analysis::default()
        };
        let human = analysis.render_as(Format::Human);
        assert!(human.starts_with("a.rs:3: [contract]"), "{human}");
        let github = analysis.render_as(Format::Github);
        assert!(
            github.starts_with("::error file=a.rs,line=3,title=scs-analyze contract::"),
            "{github}"
        );
        assert!(github.contains("%0A"), "newline must be escaped: {github}");
        let json = analysis.render_as(Format::Json);
        assert!(json.contains("\"rule\": \"contract\""), "{json}");
        assert!(json.contains("\\nsecond line"), "{json}");
        assert!(json.contains("\"clean\": false"), "{json}");
    }

    #[test]
    fn format_names_round_trip() {
        for f in [Format::Human, Format::Github, Format::Json] {
            assert_eq!(Format::from_name(f.name()), Some(f));
        }
        assert_eq!(Format::from_name("xml"), None);
    }
}
