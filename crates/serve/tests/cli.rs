//! Command-line contract of the `hc2l-serve` daemon: malformed
//! `--bench-scaling` lists, oversized `--cache` tables and removed flags
//! are rejected up front with exit status 2, never silently clamped to a
//! default or turned into a panic or an abort deeper in the run.

use std::process::Command;

#[test]
fn malformed_scaling_counts_and_removed_flags_are_usage_errors() {
    let cases: [(&[&str], &str); 5] = [
        (
            &["--grid", "4x4", "--bench-scaling", "0"],
            "--bench-scaling",
        ),
        (
            &["--grid", "4x4", "--bench-scaling", "8,,64"],
            "--bench-scaling",
        ),
        (&["--grid", "4x4", "--bench"], "--bench"),
        // 2 × 2^63 slots wraps to zero; 2^40 entries is a 64 TiB table.
        (
            &[
                "--grid",
                "4x4",
                "--cache",
                "9223372036854775808",
                "--bench-scaling",
                "1",
            ],
            "--cache",
        ),
        (
            &[
                "--grid",
                "4x4",
                "--cache",
                "1099511627776",
                "--bench-scaling",
                "1",
            ],
            "--cache",
        ),
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
fn scaling_sweep_gates_every_count_over_the_wire() {
    let out = Command::new(env!("CARGO_BIN_EXE_hc2l-serve"))
        .args(["--grid", "4x4", "--threads", "2", "--bench-scaling", "1,16"])
        .output()
        .expect("failed to run hc2l-serve");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "one line per count: {stdout}");
    assert!(lines[0].starts_with("connections 1 active 1 "), "{stdout}");
    assert!(lines[1].starts_with("connections 16 active 8 "), "{stdout}");
    assert!(
        lines.iter().all(|l| l.ends_with(" mismatches 0")),
        "{stdout}"
    );
}
