//! Command-line misuse ends in a usage message and an exit code, never
//! a panic: `--help` prints usage to stdout and exits 0, an unknown
//! flag or a malformed flag value prints usage to stderr and exits 2 —
//! before any market is built.

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
        text(&output.stdout).contains("evolve adds: --bench-out <path>, --metrics-out <path>"),
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
        assert_usage_error(binary, &output, "unknown flags [\"--no-such-flag\"]");
    }
    // A removed flag is just another unknown one.
    let binary = env!("CARGO_BIN_EXE_evolve");
    let output = run(binary, &["--quick", "--engine", "full"]);
    assert_usage_error(binary, &output, "unknown flags [\"--engine\", \"full\"]");
}

#[test]
fn malformed_flag_values_print_usage_to_stderr_and_exit_two() {
    let binary = env!("CARGO_BIN_EXE_evolve");
    let output = run(binary, &["--quick", "--seed", "x"]);
    assert_usage_error(binary, &output, "--seed expects a u64, got \"x\"");
    let output = run(binary, &["--quick", "--ases"]);
    assert_usage_error(binary, &output, "--ases requires a value");
    let binary = env!("CARGO_BIN_EXE_discover");
    let output = run(binary, &["--quick", "--limit", "x"]);
    assert_usage_error(binary, &output, "--limit expects a count, got \"x\"");
}

/// Exit code 2, nothing on stdout, and `message` plus the usage on
/// stderr without a panic.
fn assert_usage_error(binary: &str, output: &Output, message: &str) {
    let (stdout, stderr) = (text(&output.stdout), text(&output.stderr));
    assert_eq!(output.status.code(), Some(2), "{binary}: {stderr}");
    assert!(stdout.is_empty(), "{binary} wrote to stdout: {stdout}");
    assert!(stderr.contains(message), "{binary}: {stderr}");
    assert!(stderr.contains("usage: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
