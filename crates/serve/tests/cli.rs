//! The `causumx-serve` binary's exit-status contract: a usage error (an
//! unknown flag, a missing or unparsable value, an unknown `--dataset`)
//! exits 2, `--help` prints the usage line on stdout and exits 0, and a
//! failed bind exits 1. Every case here exits on its own; a child still
//! running after [`TIMEOUT`] is killed and fails the test, so a
//! regression cannot leave a server behind.

use std::net::TcpListener;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(60);

/// Run the binary with `args` and collect its exit status and output.
fn serve(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_causumx-serve"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("causumx-serve starts");
    let started = Instant::now();
    while child.try_wait().expect("wait on causumx-serve").is_none() {
        if started.elapsed() > TIMEOUT {
            let _ = child.kill();
            let _ = child.wait();
            panic!("causumx-serve {args:?} still running after {TIMEOUT:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child
        .wait_with_output()
        .expect("collect causumx-serve output")
}

/// Exit status 2 with the usage line on stderr.
fn assert_usage_error(args: &[&str]) {
    let out = serve(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains("usage: causumx-serve"),
        "{args:?}: {stderr}"
    );
    assert!(!stderr.contains("generating dataset"), "{args:?}: {stderr}");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_usage_error(&["--bogus"]);
}

#[test]
fn missing_or_unparsable_value_is_a_usage_error() {
    assert_usage_error(&["--port"]);
    assert_usage_error(&["--port", "x"]);
    assert_usage_error(&["--rows", "-1"]);
    assert_usage_error(&["--threads", "100000"]);
}

#[test]
fn unknown_dataset_is_a_usage_error() {
    assert_usage_error(&["--dataset", "nope"]);
}

#[test]
fn help_prints_usage_on_stdout_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = serve(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with("usage: causumx-serve"),
            "{flag}: {stdout}"
        );
        assert!(out.stderr.is_empty(), "{flag}");
    }
}

#[test]
fn failed_bind_exits_1() {
    let taken = TcpListener::bind("127.0.0.1:0").expect("bind a local port");
    let port = taken.local_addr().unwrap().port().to_string();
    let out = serve(&["--port", &port, "--rows", "200"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("failed to bind"), "{stderr}");
}
