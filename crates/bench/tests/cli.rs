//! Command-line contract of the `repro` binary: malformed numeric flags are
//! rejected up front with exit status 2, never silently replaced by a
//! default or turned into a panic deeper in the run.

use std::process::Command;

#[test]
fn malformed_counts_are_usage_errors() {
    let cases: [(&[&str], &str); 4] = [
        (
            &[
                "--table2",
                "--scale",
                "tiny",
                "--datasets",
                "1",
                "--queries",
                "0",
            ],
            "--queries",
        ),
        (
            &["--table2", "--scale", "tiny", "--threads", "x"],
            "--threads",
        ),
        (&["--table1", "--queries", "2k"], "--queries"),
        (&["--table1", "--datasets", "-1"], "--datasets"),
    ];
    for (args, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("failed to run repro");
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
