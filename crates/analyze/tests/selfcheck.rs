//! The analyzer's strongest fixture is the workspace itself: every
//! rule runs over the real crates and must come back clean, with the
//! coverage counters proving the rules actually had subject matter —
//! a bug that silently skipped every file would also "pass".

use scs_analyze::{analyze_workspace, Config};
use std::path::PathBuf;

#[test]
fn the_real_workspace_is_clean_and_the_rules_saw_real_work() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let a = analyze_workspace(&Config::new(root)).expect("workspace analyzes");
    assert!(
        a.is_clean(),
        "scs analyze found {} diagnostic(s) in the workspace:\n{}",
        a.diagnostics.len(),
        a.render()
    );

    // Coverage floors — not exact counts, so ordinary growth does not
    // break the test, but a scan that quietly saw nothing does.
    assert!(
        a.files_scanned >= 80,
        "only {} files scanned",
        a.files_scanned
    );
    assert!(a.unsafe_sites >= 10, "only {} unsafe sites", a.unsafe_sites);
    assert!(
        a.ordering_sites >= 30,
        "only {} audited ordering sites",
        a.ordering_sites
    );
    // The leader query path, the kernels and the telemetry writers all
    // carry contracts; transitive propagation must reach well past the
    // roots themselves.
    assert!(
        a.contract_roots >= 20,
        "only {} contract roots",
        a.contract_roots
    );
    assert!(
        a.contract_fns_checked >= 100,
        "only {} fns proven under contract",
        a.contract_fns_checked
    );
    // The lock-order graph is populated (and, per is_clean, acyclic).
    // Since the result cache and the in-flight table went, only the
    // reply-cell hand-off and the serialized install nest locks.
    assert!(a.lock_sites >= 20, "only {} lock sites", a.lock_sites);
    assert!(a.lock_edges >= 2, "only {} lock edges", a.lock_edges);
}
