//! Golden-output tests for `scs analyze`: each seeded fixture tree must
//! produce *exactly one* diagnostic with the exact rendered text, the
//! clean tree must produce none, and `--allow` must silence a rule.
//!
//! The fixture trees live under `tests/fixtures/`, which the workspace
//! walk skips by name — so `scs analyze` on the real repo never sees the
//! seeded violations.

use scs_analyze::{analyze_workspace, Analysis, Config, Rule};
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(name: &str) -> Analysis {
    analyze_workspace(&Config::new(fixture(name))).expect("fixture tree analyzes")
}

#[test]
fn missing_safety_comment_is_exactly_one_diagnostic() {
    let a = run("missing_safety");
    let rendered: Vec<String> = a.diagnostics.iter().map(|d| d.to_string()).collect();
    assert_eq!(
        rendered,
        vec![
            "lib.rs:6: [unsafe-safety-comment] `unsafe` without a `// SAFETY:` justification \
             on the same line or in the comment block directly above"
                .to_string()
        ]
    );
    assert_eq!(a.unsafe_sites, 1);
}

#[test]
fn unjustified_ordering_is_exactly_one_diagnostic() {
    let a = run("ordering");
    let rendered: Vec<String> = a.diagnostics.iter().map(|d| d.to_string()).collect();
    assert_eq!(
        rendered,
        vec![
            "telemetry.rs:7: [atomic-ordering-comment] `Ordering::Relaxed` without a \
             `// ordering:` comment naming its pairing (same line or within 6 lines above)"
                .to_string()
        ]
    );
    // The justified load in the same file is counted but not flagged.
    assert_eq!(a.ordering_sites, 2);
}

#[test]
fn alloc_call_in_alloc_free_region_is_exactly_one_diagnostic() {
    let a = run("alloc_region");
    let rendered: Vec<String> = a.diagnostics.iter().map(|d| d.to_string()).collect();
    assert_eq!(
        rendered,
        vec![
            "lib.rs:10: [alloc-free-region] heap API `format!` inside a \
             `scs-lint: alloc-free` region (waive a justified false positive with \
             `// alloc-ok: <reason>`)"
                .to_string()
        ]
    );
    assert_eq!(a.alloc_free_regions, 1);
}

#[test]
fn clean_tree_produces_no_diagnostics() {
    let a = run("clean");
    assert!(a.is_clean(), "unexpected diagnostics: {:?}", a.diagnostics);
    // ...and actually exercised every rule's subject matter.
    assert_eq!(a.unsafe_sites, 1);
    assert!(a.ordering_sites >= 2);
    assert_eq!(a.alloc_free_regions, 1);
    assert!(a.render().ends_with("clean"));
}

#[test]
fn unsafe_allowlist_drift_fails_in_both_directions() {
    let a = run("allowlist");
    let rendered: Vec<String> = a.diagnostics.iter().map(|d| d.to_string()).collect();
    assert_eq!(
        rendered,
        vec![
            "gone.rs:0: [unsafe-allowlist] unsafe-allowlist.txt budgets 3 unsafe site(s) \
             but only 0 exist; tighten the entry"
                .to_string(),
            "lib.rs:12: [unsafe-allowlist] 2 unsafe site(s) but unsafe-allowlist.txt \
             budgets 1; new unsafe must be admitted there deliberately"
                .to_string(),
        ]
    );
    assert_eq!(a.unsafe_sites, 2);
}

#[test]
fn allow_flag_silences_a_rule() {
    let mut cfg = Config::new(fixture("alloc_region"));
    cfg.disabled.push(Rule::AllocFree);
    let a = analyze_workspace(&cfg).unwrap();
    assert!(a.is_clean(), "{:?}", a.diagnostics);
}

#[test]
fn render_reports_violation_counts() {
    let a = run("missing_safety");
    let text = a.render();
    assert!(text.contains("1 violation(s)"), "{text}");
    assert!(text.starts_with("lib.rs:6:"), "{text}");
}

// ---------------------------------------------------------------------------
// Contract propagation, lock order, config-driven audit.

#[test]
fn transitive_no_alloc_violation_prints_the_full_call_chain() {
    // The heap call sits three calls below the contract root; the
    // diagnostic must name every hop with file:line provenance.
    let a = run("contract_chain");
    let rendered: Vec<String> = a.diagnostics.iter().map(|d| d.to_string()).collect();
    assert_eq!(
        rendered,
        vec![
            "serve.rs:18: [contract] `Vec::with_capacity` violates the `no-alloc` contract \
             of `serve_job`; call chain: serve_job (serve.rs:5) → route (serve.rs:9) → \
             gather (serve.rs:13) → emit (serve.rs:17); waive a justified site with \
             `// contract-ok: <reason>`"
                .to_string()
        ]
    );
    assert_eq!(a.contract_roots, 1);
    // Root plus all three transitive callees were proven.
    assert_eq!(a.contract_fns_checked, 4);
}

#[test]
fn no_panic_contract_flags_an_unwrap_in_the_root() {
    let a = run("contract_panic");
    let rendered: Vec<String> = a.diagnostics.iter().map(|d| d.to_string()).collect();
    assert_eq!(
        rendered,
        vec![
            "lib.rs:6: [contract] `.unwrap(` violates the `no-panic` contract of \
             `read_slot`; call chain: read_slot (lib.rs:4); waive a justified site with \
             `// contract-ok: <reason>`"
                .to_string()
        ]
    );
}

#[test]
fn no_block_contract_follows_a_method_call_to_a_lock() {
    // `sample` never locks directly; the violation is in the callee it
    // resolves through `self`.
    let a = run("contract_block");
    let rendered: Vec<String> = a.diagnostics.iter().map(|d| d.to_string()).collect();
    assert_eq!(
        rendered,
        vec![
            "lib.rs:16: [contract] `.lock(` violates the `no-block` contract of \
             `Gauge::sample`; call chain: Gauge::sample (lib.rs:11) → Gauge::read_locked \
             (lib.rs:15); waive a justified site with `// contract-ok: <reason>`"
                .to_string()
        ]
    );
}

#[test]
fn two_lock_inversion_is_reported_as_a_cycle_with_provenance() {
    let a = run("lock_inversion");
    let rendered: Vec<String> = a.diagnostics.iter().map(|d| d.to_string()).collect();
    assert_eq!(
        rendered,
        vec![
            "lib.rs:14: [lock-order] lock-order cycle (potential deadlock): `Pair::a` → \
             `Pair::b` → `Pair::a`; acquired as `Pair::a` → `Pair::b` in Pair::forward \
             (lib.rs:14); `Pair::b` → `Pair::a` in Pair::backward (lib.rs:20); pick one \
             acquisition order or waive a misread site with `// lock-ok: <reason>`"
                .to_string()
        ]
    );
    assert_eq!(a.lock_sites, 4);
    assert_eq!(a.lock_edges, 2);
}

#[test]
fn unaudited_atomics_get_one_hint_naming_the_config_file() {
    // Two bare `Relaxed` sites, but only ONE hint: the finding is "this
    // file needs opting in", not a per-site scold.
    let a = run("ordering_hint");
    let rendered: Vec<String> = a.diagnostics.iter().map(|d| d.to_string()).collect();
    assert_eq!(
        rendered,
        vec![
            "counters.rs:11: [atomic-ordering-comment] `Ordering::Relaxed` in a file not \
             in the ordering audit list; add `\"counters.rs\"` to `[ordering] audit` in \
             scs-analyze.toml and justify each site with a `// ordering:` comment"
                .to_string()
        ]
    );
    assert_eq!(a.ordering_sites, 0);
}

#[test]
fn config_file_opts_a_file_into_the_full_ordering_audit() {
    // Same file name as the hint fixture, but `scs-analyze.toml` lists
    // it — so the bare site is a real diagnostic and the justified one
    // passes.
    let a = run("ordering_config");
    let rendered: Vec<String> = a.diagnostics.iter().map(|d| d.to_string()).collect();
    assert_eq!(
        rendered,
        vec![
            "counters.rs:9: [atomic-ordering-comment] `Ordering::Relaxed` without a \
             `// ordering:` comment naming its pairing (same line or within 6 lines above)"
                .to_string()
        ]
    );
    assert_eq!(a.ordering_sites, 2);
}

#[test]
fn one_file_can_carry_several_diagnostics() {
    let a = run("multi_diag");
    let rendered: Vec<String> = a.diagnostics.iter().map(|d| d.to_string()).collect();
    assert_eq!(
        rendered,
        vec![
            "lib.rs:6: [contract] `format!` violates the `no-alloc` contract of `hot`; \
             call chain: hot (lib.rs:5); waive a justified site with \
             `// contract-ok: <reason>`"
                .to_string(),
            "lib.rs:7: [contract] `.to_vec(` violates the `no-alloc` contract of `hot`; \
             call chain: hot (lib.rs:5); waive a justified site with \
             `// contract-ok: <reason>`"
                .to_string(),
            "lib.rs:12: [contract] unknown contract `no-bloc` (contracts: no-alloc, \
             no-panic, no-block)"
                .to_string(),
        ]
    );
}

#[test]
fn markers_in_strings_docs_and_test_modules_do_not_fire() {
    // Deny patterns in doc comments and string literals, plus
    // allocation and bare atomics inside `#[cfg(test)]` of an audited
    // file: all inert.
    let a = run("false_positives");
    assert!(a.is_clean(), "unexpected diagnostics: {:?}", a.diagnostics);
    assert_eq!(
        a.alloc_free_regions, 0,
        "marker in a string opened a region"
    );
    // The test-range atomics are still counted as audited sites —
    // they are just not diagnosed.
    assert_eq!(a.ordering_sites, 2);
    assert_eq!(a.contract_roots, 1);
}

// ---------------------------------------------------------------------------
// Output formats.

#[test]
fn github_format_emits_one_error_command_per_diagnostic() {
    let a = run("multi_diag");
    let text = a.render_as(scs_analyze::Format::Github);
    assert_eq!(text.matches("::error ").count(), 3, "{text}");
    assert!(
        text.starts_with("::error file=lib.rs,line=6,title=scs-analyze contract::"),
        "{text}"
    );
    // Commas/colons in the message body are escaped per the workflow-
    // command grammar only in properties; the data payload keeps them.
    assert!(text.contains("violates the `no-alloc` contract"), "{text}");
    assert!(text.ends_with("3 violation(s)"), "{text}");
}

#[test]
fn json_format_is_machine_readable_and_self_describing() {
    let a = run("lock_inversion");
    let text = a.render_as(scs_analyze::Format::Json);
    assert!(text.contains("\"rule\": \"lock-order\""), "{text}");
    assert!(text.contains("\"path\": \"lib.rs\""), "{text}");
    assert!(text.contains("\"line\": 14"), "{text}");
    assert!(text.contains("\"lock_edges\": 2"), "{text}");
    assert!(text.contains("\"clean\": false"), "{text}");
    let clean = run("false_positives").render_as(scs_analyze::Format::Json);
    assert!(clean.contains("\"diagnostics\": []"), "{clean}");
    assert!(clean.contains("\"clean\": true"), "{clean}");
}

// ---------------------------------------------------------------------------
// Workspace boundaries.

#[test]
fn walk_stops_at_a_nested_cargo_workspace() {
    // The same seeded violation in a member crate and in a nested
    // workspace: only the member's is reported, as cargo builds only
    // the member as part of this workspace.
    let hint = |path: &str| {
        format!(
            "{path}:8: [atomic-ordering-comment] `Ordering::Relaxed` in a file not in \
             the ordering audit list; add `\"counters.rs\"` to `[ordering] audit` in \
             scs-analyze.toml and justify each site with a `// ordering:` comment"
        )
    };
    let a = run("nested_workspace");
    let rendered: Vec<String> = a.diagnostics.iter().map(|d| d.to_string()).collect();
    assert_eq!(rendered, vec![hint("member/src/counters.rs")]);
    assert_eq!(a.files_scanned, 1);
    // Pointed at directly (`scs analyze --root nested`), the nested
    // workspace is analyzed on its own.
    let a = analyze_workspace(&Config::new(fixture("nested_workspace").join("nested")))
        .expect("nested tree analyzes");
    let rendered: Vec<String> = a.diagnostics.iter().map(|d| d.to_string()).collect();
    assert_eq!(rendered, vec![hint("src/counters.rs")]);
}
