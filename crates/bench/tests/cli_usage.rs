//! Command-line misuse ends in a usage message and an exit code, never
//! a panic: `--help` prints usage to stdout and exits 0, an unknown
//! flag prints usage to stderr and exits 2 — before any market is
//! built.

use std::process::{Command, Output};

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(binary)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{binary} runs: {e}"))
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for binary in [env!("CARGO_BIN_EXE_evolve"), env!("CARGO_BIN_EXE_discover")] {
        for flag in ["--help", "-h"] {
            let output = run(binary, &["--quick", flag]);
            let (stdout, stderr) = (text(&output.stdout), text(&output.stderr));
            assert_eq!(output.status.code(), Some(0), "{binary} {flag}: {stderr}");
            assert!(stdout.starts_with("usage: "), "{binary} {flag}: {stdout}");
            assert!(stdout.contains("--threads <N>"), "{stdout}");
            assert!(!stderr.contains("panicked"), "{stderr}");
        }
    }
    let output = run(env!("CARGO_BIN_EXE_evolve"), &["--help"]);
    assert!(
        text(&output.stdout).contains("evolve adds: --engine <full|incremental>"),
        "evolve's usage lists its own flags"
    );
}

#[test]
fn unknown_flags_print_usage_to_stderr_and_exit_two() {
    for binary in [
        env!("CARGO_BIN_EXE_evolve"),
        env!("CARGO_BIN_EXE_discover"),
        env!("CARGO_BIN_EXE_fig3"),
    ] {
        let output = run(binary, &["--quick", "--no-such-flag"]);
        let (stdout, stderr) = (text(&output.stdout), text(&output.stderr));
        assert_eq!(output.status.code(), Some(2), "{binary}: {stderr}");
        assert!(stdout.is_empty(), "{binary} wrote to stdout: {stdout}");
        assert!(
            stderr.contains("unknown flags [\"--no-such-flag\"]"),
            "{stderr}"
        );
        assert!(stderr.contains("usage: "), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}
