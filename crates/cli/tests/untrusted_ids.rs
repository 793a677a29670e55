//! `scs stats` on an edge list whose ids are far beyond its size fails
//! cleanly — exit code 2 and an `error:` line — instead of sizing a
//! layer by the id and aborting on the allocation.

use std::process::Command;

#[test]
fn stats_on_a_huge_id_exits_2_with_an_error() {
    let dir = std::env::temp_dir().join(format!("scs_cli_huge_id_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("huge.tsv");
    std::fs::write(&path, "0 0 1\n3000000000 1 1\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_scs"))
        .arg("stats")
        .arg(&path)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error:"), "{stderr}");
    assert!(stderr.contains("line 2"), "{stderr}");
    assert!(stderr.contains("3000000000"), "{stderr}");
}
