//! Contract propagation over the workspace call graph.
//!
//! A function annotated
//!
//! ```text
//! // scs-contract: no-alloc
//! fn serve_batch(...) { ... }
//! ```
//!
//! promises that *it and every function it transitively calls* stays
//! clear of the contract's deny-list: heap constructors for `no-alloc`,
//! panic sources (`unwrap`/`expect`/panicking macros/indexing) for
//! `no-panic`, blocking primitives (`Mutex::lock`, `park`, `sleep`,
//! blocking `recv`/`join`/`wait`) for `no-block`. Multiple contracts
//! are comma- (or `|`-) separated: `// scs-contract: no-alloc, no-block`.
//!
//! The checker resolves calls over every `fn` parsed from the
//! workspace: `Type::f` and `Self::f` by qualifier, free calls to free
//! fns, and method calls through the *type* of their receiver —
//! `self.m()` via the enclosing impl, `inner.m()` via `inner`'s
//! parameter/`let` type, `self.cache.get()` via parsed struct-field
//! types. A receiver whose type is unknown resolves to nothing (its
//! own deny-listed effects are still caught textually at the call
//! site). The walk is breadth-first from each contract root, so a
//! violation carries the *call chain* that reaches it. A deliberate
//! exception is waived per site — pattern line or call edge — with
//! `// contract-ok: <reason>`; the reason is mandatory.

use crate::lexer::Line;
use crate::parser::{CallSite, FileAst};
use crate::{Diagnostic, Rule};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

/// Marker that declares contracts for the `fn` directly below.
pub const CONTRACT_MARKER: &str = "scs-contract:";
/// Per-site waiver inside contract-checked code; must carry a reason.
pub const CONTRACT_WAIVER: &str = "contract-ok:";

/// The three contract kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ContractKind {
    /// No heap allocation anywhere in the transitive call tree.
    NoAlloc,
    /// No panic source: `unwrap`/`expect`, panicking macros, indexing.
    NoPanic,
    /// No blocking primitive: locks, parking, sleeping, blocking recv.
    NoBlock,
}

impl ContractKind {
    pub const ALL: [ContractKind; 3] = [
        ContractKind::NoAlloc,
        ContractKind::NoPanic,
        ContractKind::NoBlock,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ContractKind::NoAlloc => "no-alloc",
            ContractKind::NoPanic => "no-panic",
            ContractKind::NoBlock => "no-block",
        }
    }

    pub fn from_name(name: &str) -> Option<ContractKind> {
        ContractKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Deny-listed call patterns, matched against comment/string-
    /// stripped code with a word boundary on the left when the pattern
    /// starts mid-word (so `unpark(` does not contain `park(`).
    pub fn deny_patterns(self) -> &'static [&'static str] {
        match self {
            ContractKind::NoAlloc => &[
                "Box::new",
                "Vec::new",
                "Vec::with_capacity",
                "vec!",
                "format!",
                "String::new",
                "String::from",
                "HashMap::new",
                "HashMap::with_capacity",
                "HashSet::new",
                "BTreeMap::new",
                "VecDeque::new",
                "Arc::new",
                "Rc::new",
                ".to_vec(",
                ".to_owned(",
                ".to_string(",
                ".collect(",
                ".collect::<",
                ".clone(",
                ".push(",
                ".insert(",
                ".extend(",
                ".reserve(",
                ".resize(",
                ".entry(",
            ],
            ContractKind::NoPanic => &[
                ".unwrap(",
                ".expect(",
                "panic!",
                "unreachable!",
                "todo!",
                "unimplemented!",
                "assert!",
                "assert_eq!",
                "assert_ne!",
                "debug_assert!",
                "debug_assert_eq!",
                "debug_assert_ne!",
            ],
            ContractKind::NoBlock => &[
                ".lock(",
                "park(",
                "park_timeout(",
                "sleep(",
                ".recv(",
                ".recv_timeout(",
                ".join(",
                ".wait(",
                ".wait_timeout(",
                ".wait_while(",
            ],
        }
    }
}

impl fmt::Display for ContractKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// First match of `pat` in `code` honoring a word boundary on the left
/// for patterns that start with a word character.
pub fn find_pattern(code: &str, pat: &str) -> Option<usize> {
    let first_is_word = pat
        .as_bytes()
        .first()
        .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_');
    let mut from = 0;
    while let Some(pos) = code[from..].find(pat) {
        let at = from + pos;
        if !first_is_word
            || at == 0
            || !{
                let b = code.as_bytes()[at - 1];
                b.is_ascii_alphanumeric() || b == b'_'
            }
        {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// Column of an indexing/slicing expression on the line, if any: a `[`
/// directly after an identifier, `)` or `]` — the only shapes that
/// desugar to a panicking `Index` at runtime. Attribute (`#[...]`),
/// type (`: [u8; 4]`) and literal (`= [0; 4]`) brackets never match.
pub fn indexing_site(code: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1];
        if prev.is_ascii_alphanumeric() || prev == b'_' || prev == b')' || prev == b']' {
            return Some(i);
        }
    }
    None
}

/// Parses the contracts declared directly above the `fn` at 1-based
/// `fn_line`: contiguous comment/attribute-only lines are searched for
/// [`CONTRACT_MARKER`] directives. Unknown contract names are ignored
/// here and reported by the workspace pass (which re-scans every
/// marker line).
pub fn contracts_above(lines: &[Line], fn_line: usize) -> Vec<ContractKind> {
    let mut kinds = Vec::new();
    for l in contract_window(lines, fn_line) {
        let line = &lines[l - 1];
        // The fn's own line may carry a trailing directive too.
        for kind in parse_marker(&line.comment) {
            if !kinds.contains(&kind) {
                kinds.push(kind);
            }
        }
    }
    kinds.sort();
    kinds
}

/// The 1-based lines whose comments attach to the `fn` at `fn_line`:
/// the line itself plus the contiguous comment/attribute block above.
pub fn contract_window(lines: &[Line], fn_line: usize) -> Vec<usize> {
    let mut out = vec![fn_line];
    let mut idx = fn_line.saturating_sub(1); // 0-based index of line above
    while idx > 0 {
        let line = &lines[idx - 1];
        let code = line.code.trim();
        let skippable = code.is_empty() || code.starts_with("#[") || code.starts_with("#![");
        if !skippable {
            break;
        }
        out.push(idx);
        idx -= 1;
    }
    out
}

/// Contract kinds named by a `scs-contract:` directive in `comment`
/// (empty when there is no directive). Unknown names are skipped.
fn parse_marker(comment: &str) -> Vec<ContractKind> {
    let Some(pos) = comment.find(CONTRACT_MARKER) else {
        return Vec::new();
    };
    parse_marker_names(&comment[pos + CONTRACT_MARKER.len()..])
        .into_iter()
        .filter_map(|n| ContractKind::from_name(&n))
        .collect()
}

/// The raw (possibly unknown) contract names in a directive's payload:
/// everything up to an em-dash/double-dash explanation, split on commas,
/// pipes and whitespace.
pub fn parse_marker_names(payload: &str) -> Vec<String> {
    let payload = payload
        .split('—')
        .next()
        .unwrap_or("")
        .split(" --")
        .next()
        .unwrap_or("")
        .split('(')
        .next()
        .unwrap_or("");
    payload
        .split(|c: char| c == ',' || c == '|' || c.is_whitespace())
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

/// One source file as the workspace passes see it.
pub struct SourceFile {
    /// Root-relative `/`-separated path.
    pub rel: String,
    pub lines: Vec<Line>,
    pub ast: FileAst,
    /// Whole file is test/bench/example collateral.
    pub in_test_file: bool,
}

impl SourceFile {
    /// `true` when 1-based `line` is test-only code.
    pub fn line_in_test(&self, line: usize) -> bool {
        self.in_test_file || self.ast.in_test_range(line)
    }
}

/// Global function id: (file index, fn index).
pub type FnId = (usize, usize);

/// Resolution index over every non-test fn with a body, plus the
/// workspace-wide struct-field type map for receiver chains.
pub struct FnIndex {
    by_name: HashMap<String, Vec<FnId>>,
    /// Type name → (field → field type), merged across files.
    fields: HashMap<String, HashMap<String, String>>,
}

impl FnIndex {
    pub fn build(files: &[SourceFile]) -> FnIndex {
        let mut by_name: HashMap<String, Vec<FnId>> = HashMap::new();
        let mut fields: HashMap<String, HashMap<String, String>> = HashMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.ast.fns.iter().enumerate() {
                if f.in_test || f.body.is_none() {
                    continue;
                }
                by_name.entry(f.name.clone()).or_default().push((fi, gi));
            }
            for (ty, fmap) in &file.ast.structs {
                fields
                    .entry(ty.clone())
                    .or_default()
                    .extend(fmap.iter().map(|(k, v)| (k.clone(), v.clone())));
            }
        }
        FnIndex { by_name, fields }
    }

    /// The workspace type of a method call's receiver, walked through
    /// the chain: head from `self`/parameter/`let` types, later
    /// segments through struct-field types. `None` when any link is
    /// unknown — such a call resolves to nothing rather than guessing.
    fn receiver_type(&self, files: &[SourceFile], caller: FnId, call: &CallSite) -> Option<String> {
        if !call.recv_complete || call.recv.is_empty() {
            return None;
        }
        let f = &files[caller.0].ast.fns[caller.1];
        let head = &call.recv[0];
        let mut ty = if head == "self" {
            f.impl_type.clone()?
        } else if head.ends_with("()") {
            return None; // call-result receiver: untyped
        } else {
            f.local_types.get(head)?.clone()
        };
        if ty == "Self" {
            ty = f.impl_type.clone()?;
        }
        for seg in &call.recv[1..] {
            if seg.ends_with("()") {
                return None;
            }
            ty = self.fields.get(&ty)?.get(seg)?.clone();
        }
        Some(ty)
    }

    /// Resolves one call site made from `caller` to workspace fns.
    /// External calls (std, vendored deps) and calls on receivers of
    /// unknown type resolve to nothing — their effects are caught by
    /// the deny-pattern scan at the call site.
    pub fn resolve(&self, files: &[SourceFile], caller: FnId, call: &CallSite) -> Vec<FnId> {
        if call.is_macro {
            return Vec::new();
        }
        let Some(cands) = self.by_name.get(call.name()) else {
            return Vec::new();
        };
        let caller_impl = files[caller.0].ast.fns[caller.1].impl_type.clone();
        let impl_of = |id: &FnId| files[id.0].ast.fns[id.1].impl_type.clone();
        if call.path.len() >= 2 {
            // `Qual::name(...)` — `Self` means the enclosing impl.
            let qual = &call.path[call.path.len() - 2];
            let want = if qual == "Self" {
                caller_impl.clone()
            } else {
                Some(qual.clone())
            };
            let exact: Vec<FnId> = cands
                .iter()
                .copied()
                .filter(|id| impl_of(id) == want)
                .collect();
            if !exact.is_empty() {
                return exact;
            }
            // Module-qualified free fn (`telemetry::record(...)`).
            return cands
                .iter()
                .copied()
                .filter(|id| impl_of(id).is_none())
                .collect();
        }
        if call.method {
            let Some(ty) = self.receiver_type(files, caller, call) else {
                return Vec::new();
            };
            return cands
                .iter()
                .copied()
                .filter(|id| impl_of(id).as_deref() == Some(ty.as_str()))
                .collect();
        }
        // Bare `name(...)`: free fns only.
        cands
            .iter()
            .copied()
            .filter(|id| impl_of(id).is_none())
            .collect()
    }
}

/// Counters the contract pass reports (see `Analysis`).
#[derive(Debug, Default, Clone, Copy)]
pub struct ContractStats {
    /// Functions carrying at least one contract.
    pub roots: usize,
    /// (root, fn) pairs checked — the size of the proven call tree.
    pub fns_checked: usize,
    /// `contract-ok:` waivers honored.
    pub waivers: usize,
}

/// Runs contract propagation over the workspace. Diagnostics carry the
/// full call chain from the contract root to the violating site.
pub fn check_contracts(files: &[SourceFile], index: &FnIndex) -> (Vec<Diagnostic>, ContractStats) {
    let mut diags = Vec::new();
    let mut stats = ContractStats::default();

    // Validate every marker line first: unknown contract names and
    // markers that do not attach to any fn are themselves violations —
    // a misspelled contract must not silently enforce nothing.
    let mut attached: HashSet<(usize, usize)> = HashSet::new(); // (file, line)
    for (fi, file) in files.iter().enumerate() {
        for f in &file.ast.fns {
            for l in contract_window(&file.lines, f.line) {
                attached.insert((fi, l));
            }
        }
    }
    for (fi, file) in files.iter().enumerate() {
        for (idx, line) in file.lines.iter().enumerate() {
            let lineno = idx + 1;
            let Some(pos) = line.comment.find(CONTRACT_MARKER) else {
                continue;
            };
            for name in parse_marker_names(&line.comment[pos + CONTRACT_MARKER.len()..]) {
                if ContractKind::from_name(&name).is_none() {
                    diags.push(Diagnostic {
                        path: file.rel.clone(),
                        line: lineno,
                        rule: Rule::Contract,
                        msg: format!(
                            "unknown contract `{name}` (contracts: no-alloc, no-panic, no-block)"
                        ),
                    });
                }
            }
            if !attached.contains(&(fi, lineno)) {
                diags.push(Diagnostic {
                    path: file.rel.clone(),
                    line: lineno,
                    rule: Rule::Contract,
                    msg: format!(
                        "dangling `{CONTRACT_MARKER}` — the directive must sit in the comment \
                         block directly above a `fn`"
                    ),
                });
            }
        }
    }

    // Propagate each contract from each root.
    let mut reported: HashSet<(ContractKind, String, usize)> = HashSet::new();
    let mut checked: HashSet<(ContractKind, FnId)> = HashSet::new();
    for (fi, file) in files.iter().enumerate() {
        for (gi, f) in file.ast.fns.iter().enumerate() {
            if f.contracts.is_empty() || f.in_test {
                continue;
            }
            stats.roots += 1;
            for &kind in &f.contracts {
                propagate(
                    files,
                    index,
                    (fi, gi),
                    kind,
                    &mut diags,
                    &mut stats,
                    &mut reported,
                    &mut checked,
                );
            }
        }
    }
    (diags, stats)
}

/// BFS from one contract root, checking every reachable fn body.
#[allow(clippy::too_many_arguments)]
fn propagate(
    files: &[SourceFile],
    index: &FnIndex,
    root: FnId,
    kind: ContractKind,
    diags: &mut Vec<Diagnostic>,
    stats: &mut ContractStats,
    reported: &mut HashSet<(ContractKind, String, usize)>,
    checked: &mut HashSet<(ContractKind, FnId)>,
) {
    // parent[fn] = (caller, call line) for chain reconstruction.
    let mut parent: HashMap<FnId, (FnId, usize)> = HashMap::new();
    let mut visited: HashSet<FnId> = HashSet::new();
    let mut queue: VecDeque<FnId> = VecDeque::new();
    visited.insert(root);
    queue.push_back(root);

    while let Some(id) = queue.pop_front() {
        if checked.insert((kind, id)) {
            stats.fns_checked += 1;
        }
        check_body(files, id, root, kind, &parent, diags, stats, reported);
        let f = &files[id.0].ast.fns[id.1];
        for call in &f.calls {
            let targets = index.resolve(files, id, call);
            if waived(&files[id.0].lines, call.line) {
                // Counted only when the waiver actually cuts an edge —
                // pattern-hit waivers on the same line are counted by
                // the body scan.
                if !targets.is_empty() {
                    stats.waivers += 1;
                }
                continue;
            }
            for target in targets {
                if visited.insert(target) {
                    parent.insert(target, (id, call.line));
                    queue.push_back(target);
                }
            }
        }
    }
}

/// A site is waived by a `// contract-ok:` on its own line, or on a
/// comment-only line directly above — the spot rustfmt parks trailing
/// comments it cannot keep on a brace line.
fn waived(lines: &[Line], lineno: usize) -> bool {
    if lines[lineno - 1].comment.contains(CONTRACT_WAIVER) {
        return true;
    }
    lineno >= 2 && {
        let above = &lines[lineno - 2];
        above.code.trim().is_empty() && above.comment.contains(CONTRACT_WAIVER)
    }
}

/// Scans one fn body for `kind`'s deny patterns; a hit becomes a
/// diagnostic carrying the chain from `root`.
#[allow(clippy::too_many_arguments)]
fn check_body(
    files: &[SourceFile],
    id: FnId,
    root: FnId,
    kind: ContractKind,
    parent: &HashMap<FnId, (FnId, usize)>,
    diags: &mut Vec<Diagnostic>,
    stats: &mut ContractStats,
    reported: &mut HashSet<(ContractKind, String, usize)>,
) {
    let file = &files[id.0];
    let f = &file.ast.fns[id.1];
    let Some((start, end)) = f.body else { return };
    for lineno in start..=end.min(file.lines.len()) {
        let line = &file.lines[lineno - 1];
        if line.code.trim().starts_with("#[") {
            continue;
        }
        let mut hits: Vec<String> = Vec::new();
        for pat in kind.deny_patterns() {
            if find_pattern(&line.code, pat).is_some() {
                hits.push((*pat).to_string());
            }
        }
        if kind == ContractKind::NoPanic && indexing_site(&line.code).is_some() {
            hits.push("indexing `[…]`".to_string());
        }
        if hits.is_empty() {
            continue;
        }
        if waived(&file.lines, lineno) {
            stats.waivers += 1;
            continue;
        }
        for pat in hits {
            if !reported.insert((kind, file.rel.clone(), lineno)) {
                break;
            }
            diags.push(Diagnostic {
                path: file.rel.clone(),
                line: lineno,
                rule: Rule::Contract,
                msg: format!(
                    "`{pat}` violates the `{kind}` contract of `{}`; call chain: {}; waive a \
                     justified site with `// {CONTRACT_WAIVER} <reason>`",
                    files[root.0].ast.fns[root.1].qualified(),
                    render_chain(files, id, root, parent),
                ),
            });
        }
    }
}

/// `root (file:line) → … → offender (file:line)`.
fn render_chain(
    files: &[SourceFile],
    id: FnId,
    root: FnId,
    parent: &HashMap<FnId, (FnId, usize)>,
) -> String {
    // Walk offender → root, then print reversed.
    let mut hops: Vec<FnId> = Vec::new();
    let mut cur = id;
    loop {
        hops.push(cur);
        if cur == root {
            break;
        }
        match parent.get(&cur) {
            Some(&(up, _)) => cur = up,
            None => break,
        }
    }
    hops.reverse();
    let mut out = String::new();
    for (i, fid) in hops.iter().enumerate() {
        let f = &files[fid.0].ast.fns[fid.1];
        if i > 0 {
            out.push_str(" → ");
        }
        out.push_str(&format!(
            "{} ({}:{})",
            f.qualified(),
            files[fid.0].rel,
            f.line
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn file(rel: &str, src: &str) -> SourceFile {
        let lines = lex(src);
        let ast = parse(&lines, false);
        SourceFile {
            rel: rel.to_string(),
            lines,
            ast,
            in_test_file: false,
        }
    }

    #[test]
    fn contract_names_round_trip() {
        for k in ContractKind::ALL {
            assert_eq!(ContractKind::from_name(k.name()), Some(k));
        }
        assert_eq!(ContractKind::from_name("no-magic"), None);
    }

    #[test]
    fn marker_parsing_handles_separators_and_prose() {
        let lines = lex("// scs-contract: no-alloc, no-block — hot path\nfn f() {}\n");
        assert_eq!(
            contracts_above(&lines, 2),
            vec![ContractKind::NoAlloc, ContractKind::NoBlock]
        );
        let lines = lex("// scs-contract: no-alloc | no-panic\n#[inline]\nfn f() {}\n");
        assert_eq!(
            contracts_above(&lines, 3),
            vec![ContractKind::NoAlloc, ContractKind::NoPanic]
        );
        // Doc comments never declare contracts.
        let lines = lex("/// scs-contract: no-alloc\nfn f() {}\n");
        assert!(contracts_above(&lines, 2).is_empty());
    }

    #[test]
    fn pattern_boundaries_prevent_prefix_hits() {
        assert!(find_pattern("t.unpark();", "park(").is_none());
        assert!(find_pattern("thread::park();", "park(").is_some());
        assert!(find_pattern("x.cloned()", ".clone(").is_none());
        assert!(find_pattern("x.clone()", ".clone(").is_some());
    }

    #[test]
    fn indexing_detection_skips_types_attrs_and_literals() {
        assert!(indexing_site("let x = buf[i];").is_some());
        assert!(indexing_site("let s = &v[..n];").is_some());
        assert!(indexing_site("f(a)[0]").is_some());
        assert!(indexing_site("#[inline]").is_none());
        assert!(indexing_site("let x: [u8; 4] = [0; 4];").is_none());
        assert!(indexing_site("m[0][1]").is_some());
    }

    #[test]
    fn transitive_violation_reports_the_chain() {
        let files = vec![
            file(
                "a.rs",
                "// scs-contract: no-alloc\npub fn root() {\n    mid();\n}\n",
            ),
            file("b.rs", "pub fn mid() {\n    leaf();\n}\n"),
            file("c.rs", "pub fn leaf() {\n    let v = Vec::new();\n}\n"),
        ];
        let index = FnIndex::build(&files);
        let (diags, stats) = check_contracts(&files, &index);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].path, "c.rs");
        assert_eq!(diags[0].line, 2);
        assert!(diags[0].msg.contains("root (a.rs:2)"), "{}", diags[0].msg);
        assert!(diags[0].msg.contains("mid (b.rs:1)"), "{}", diags[0].msg);
        assert!(diags[0].msg.contains("leaf (c.rs:1)"), "{}", diags[0].msg);
        assert_eq!(stats.roots, 1);
        assert!(stats.fns_checked >= 3);
    }

    #[test]
    fn waivers_stop_patterns_and_edges() {
        let files = vec![file(
            "a.rs",
            "// scs-contract: no-alloc\nfn root() {\n    x.clone(); // contract-ok: Arc refcount bump\n    cold_path(); // contract-ok: init-only branch\n}\nfn cold_path() {\n    let v = Vec::new();\n}\n",
        )];
        let index = FnIndex::build(&files);
        let (diags, stats) = check_contracts(&files, &index);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(stats.waivers, 2);
    }

    #[test]
    fn a_comment_line_directly_above_also_waives() {
        // rustfmt moves trailing comments off brace lines, so the
        // waiver may sit on its own line above the site.
        let files = vec![file(
            "a.rs",
            "// scs-contract: no-alloc\nfn root() {\n    // contract-ok: warm map, growth is cold\n    if seen.insert(k) {\n        n += 1;\n    }\n}\n",
        )];
        let index = FnIndex::build(&files);
        let (diags, stats) = check_contracts(&files, &index);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(stats.waivers, 1);
        // ...but a comment-only line does not waive the line *above* it.
        let files = vec![file(
            "a.rs",
            "// scs-contract: no-alloc\nfn root() {\n    if seen.insert(k) {\n        // contract-ok: misplaced, waives nothing here\n        n += 1;\n    }\n}\n",
        )];
        let index = FnIndex::build(&files);
        let (diags, _) = check_contracts(&files, &index);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].msg.contains(".insert("), "{}", diags[0].msg);
    }

    #[test]
    fn unknown_and_dangling_markers_are_flagged() {
        let files = vec![file(
            "a.rs",
            "// scs-contract: no-allocs\nfn f() {}\n\n// scs-contract: no-alloc\nlet x = 1;\n",
        )];
        let index = FnIndex::build(&files);
        let (diags, _) = check_contracts(&files, &index);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags[0].msg.contains("unknown contract `no-allocs`"));
        assert!(diags[1].msg.contains("dangling"));
    }

    #[test]
    fn no_panic_and_no_block_fire_on_their_patterns() {
        let files = vec![file(
            "a.rs",
            "// scs-contract: no-panic, no-block\nfn f(m: &M) {\n    m.q.lock().unwrap();\n}\n",
        )];
        let index = FnIndex::build(&files);
        let (diags, _) = check_contracts(&files, &index);
        // One line, two kinds: reported once per kind.
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().any(|d| d.msg.contains("no-panic")));
        assert!(diags.iter().any(|d| d.msg.contains("no-block")));
    }

    #[test]
    fn test_fns_are_invisible_to_the_graph() {
        let files = vec![file(
            "a.rs",
            "// scs-contract: no-alloc\nfn root() {\n    helper();\n}\n#[cfg(test)]\nmod tests {\n    fn helper() {\n        let v = Vec::new();\n    }\n}\n",
        )];
        let index = FnIndex::build(&files);
        let (diags, _) = check_contracts(&files, &index);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
