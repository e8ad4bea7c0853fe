//! The `gen` binary's command-line contract: a bad argument prints the
//! usage line and exits with status 2 (no panic), an unwritable output
//! path is named on stderr with status 1 (no panic), and a valid run
//! writes the CSV.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn gen(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gen"))
        .args(args)
        .output()
        .expect("gen starts")
}

/// A path under the tests' scratch directory, with no file at it yet.
fn scratch_csv(name: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// Exit status 2, the usage line on stderr, and no panic message.
fn assert_usage_error(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("usage: gen "), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn bad_row_count_is_a_usage_error() {
    let csv = scratch_csv("gen_bad_rows.csv");
    assert_usage_error(&gen(&["so", "x", "1", csv.to_str().unwrap()]));
    assert!(!csv.exists());
}

#[test]
fn bad_seed_is_a_usage_error() {
    let csv = scratch_csv("gen_bad_seed.csv");
    assert_usage_error(&gen(&["so", "10", "-1", csv.to_str().unwrap()]));
    assert!(!csv.exists());
}

#[test]
fn tiny_run_writes_the_csv() {
    let csv = scratch_csv("gen_tiny.csv");
    let out = gen(&["german", "20", "1", csv.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&csv).expect("gen wrote the CSV");
    // A header line, then one line per row.
    assert_eq!(text.lines().count(), 21, "{text}");
    // The ground-truth DAG goes to stdout in DOT.
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("digraph causal {"));
}

#[test]
fn unwritable_path_names_the_path_and_exits_1() {
    let dir = scratch_csv("gen_missing_dir");
    let _ = std::fs::remove_dir_all(&dir);
    let csv = dir.join("x.csv");
    let out = gen(&["so", "10", "1", csv.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!("gen: cannot write {}", csv.display())),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(!csv.exists());
}
