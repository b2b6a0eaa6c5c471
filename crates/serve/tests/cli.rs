//! Command-line contract of the `hc2l-serve` daemon and the `hc2l-query`
//! client: oversized `--cache` tables and grids, zero counts and removed
//! flags are rejected up front with exit status 2, never silently clamped
//! to a default or turned into a panic or an abort deeper in the run;
//! second counts too large to add to an `Instant` mean "no bound"; and the
//! two binaries together serve and gate a replay end to end.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(name);
    std::fs::remove_file(&path).ok();
    path
}

#[test]
fn oversized_tables_and_removed_flags_are_usage_errors() {
    let cases: [(&[&str], &str); 9] = [
        (&["--grid", "4x4", "--bench"], "--bench"),
        // The trailing unknown flag stops the run if 0 were accepted.
        (
            &["--grid", "4x4", "--threads", "0", "--no-such-flag"],
            "--threads",
        ),
        (
            &["--grid", "4x4", "--bench-scaling", "8"],
            "--bench-scaling",
        ),
        (
            &["--grid", "4x4", "--metrics-every", "1"],
            "--metrics-every",
        ),
        (&["--grid", "4x4", "--buffered"], "--buffered"),
        // 2 × 2^63 slots wraps to zero; 2^40 entries is a 64 TiB table. The
        // trailing unknown flag stops the run if `--cache` were accepted.
        (
            &[
                "--grid",
                "4x4",
                "--cache",
                "9223372036854775808",
                "--no-such-flag",
            ],
            "--cache",
        ),
        (
            &[
                "--grid",
                "4x4",
                "--cache",
                "1099511627776",
                "--no-such-flag",
            ],
            "--cache",
        ),
        // 65536 × 65537 vertices overflow u32 ids; the second wraps usize.
        (&["--grid", "65536x65537"], "--grid"),
        (&["--grid", "18446744073709551615x2"], "--grid"),
    ];
    for (args, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_hc2l-serve"))
            .args(args)
            .output()
            .expect("failed to run hc2l-serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} ran before rejecting its flags"
        );
    }
}

#[test]
fn oversized_generated_grids_are_usage_errors() {
    for spec in ["65536x65537", "18446744073709551615x2"] {
        let out_file = scratch(&format!("oversized-{spec}.q"));
        let out = Command::new(env!("CARGO_BIN_EXE_hc2l-query"))
            .args(["--gen-grid", spec, "--out"])
            .arg(&out_file)
            .output()
            .expect("failed to run hc2l-query");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{spec}: {stderr}");
        assert!(stderr.contains("--gen-grid"), "{spec}: {stderr}");
        assert!(!stderr.contains("panicked"), "{spec}: {stderr}");
        assert!(out.stdout.is_empty(), "{spec}");
        assert!(!out_file.exists(), "{spec} wrote {}", out_file.display());
    }
}

#[test]
fn zero_counts_and_removed_query_flags_are_usage_errors() {
    // A flag that slipped through would run on into the missing workload
    // or the connect and exit 1, not 2 at parse time.
    let workload = scratch("zero-counts.q");
    let workload_arg = workload.to_str().expect("utf-8 scratch path");
    let cases: [(&[&str], &str); 4] = [
        (
            &[
                "--addr",
                "127.0.0.1:1",
                "--replay",
                workload_arg,
                "--reps",
                "0",
            ],
            "--reps",
        ),
        (
            &[
                "--addr",
                "127.0.0.1:1",
                "--replay",
                workload_arg,
                "--clients",
                "0",
            ],
            "--clients",
        ),
        (
            &["--gen-grid", "4x4", "--count", "0", "--out", workload_arg],
            "--count",
        ),
        (&["--addr", "127.0.0.1:1", "--stats"], "--stats"),
    ];
    for (args, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_hc2l-query"))
            .args(args)
            .output()
            .expect("failed to run hc2l-query");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} ran before rejecting its flags"
        );
        assert!(!workload.exists(), "{args:?} wrote {workload_arg}");
    }
}

#[test]
fn daemon_serves_a_gated_replay_over_mostly_idle_connections() {
    let addr_file = scratch("replay.addr");
    let workload = scratch("replay.q");
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_hc2l-serve"))
        .args([
            "--grid",
            "4x4",
            "--port",
            "0",
            "--threads",
            "2",
            "--addr-file",
        ])
        .arg(&addr_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("failed to start hc2l-serve");
    let query = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_hc2l-query"))
            .arg("--addr-file")
            .arg(&addr_file)
            .args(args)
            .output()
            .expect("failed to run hc2l-query")
    };

    let generated = Command::new(env!("CARGO_BIN_EXE_hc2l-query"))
        .args(["--gen-grid", "4x4", "--count", "200", "--out"])
        .arg(&workload)
        .output()
        .expect("failed to run hc2l-query");
    assert!(generated.status.success(), "{generated:?}");

    let workload_arg = workload.to_str().expect("utf-8 scratch path");
    let replay = query(&[
        "--replay",
        workload_arg,
        "--clients",
        "2",
        "--idle",
        "14",
        "--reps",
        "2",
    ]);
    let stdout = String::from_utf8_lossy(&replay.stdout);
    let shutdown = query(&["--shutdown"]);
    let daemon_status = daemon.wait().expect("daemon did not exit");
    assert_eq!(replay.status.code(), Some(0), "{replay:?}");
    assert!(
        stdout.contains("replayed 800 queries") && stdout.contains(", 0 mismatches"),
        "{stdout}"
    );
    assert!(shutdown.status.success(), "{shutdown:?}");
    assert!(
        daemon_status.success(),
        "daemon exited with {daemon_status}"
    );
}

#[test]
fn second_counts_past_the_instant_range_are_unbounded() {
    const MAX: &str = "18446744073709551615";
    let addr_file = scratch("unbounded.addr");
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_hc2l-serve"))
        .args([
            "--grid",
            "4x4",
            "--port",
            "0",
            "--threads",
            "1",
            "--drain-secs",
            MAX,
            "--addr-file",
        ])
        .arg(&addr_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("failed to start hc2l-serve");
    let query = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_hc2l-query"))
            .arg("--addr-file")
            .arg(&addr_file)
            .args(args)
            .output()
            .expect("failed to run hc2l-query")
    };

    // Rendezvous under the default --wait first, so an unbounded wait below
    // never polls for a daemon that failed to start.
    let ready = query(&["--metrics"]);
    let waited = query(&["--wait", MAX, "--metrics"]);
    let shutdown = query(&["--deadline", MAX, "--shutdown"]);
    if !shutdown.status.success() {
        daemon.kill().ok();
    }
    let daemon_status = daemon.wait().expect("daemon did not exit");
    assert!(ready.status.success(), "{ready:?}");
    assert_eq!(waited.status.code(), Some(0), "--wait {MAX}: {waited:?}");
    assert_eq!(
        shutdown.status.code(),
        Some(0),
        "--deadline {MAX}: {shutdown:?}"
    );
    assert!(
        daemon_status.success(),
        "daemon with --drain-secs {MAX} exited with {daemon_status}"
    );
}
