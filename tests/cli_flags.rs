//! The CLI's flag contract: every subcommand accepts only its own
//! flags, so a typo or a removed option fails loudly with the usage
//! exit code (2) instead of being silently ignored.

use std::process::{Command, Output};

fn lelantus(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lelantus")).args(args).output().expect("spawn lelantus")
}

/// A flag `report` does not accept (`--workers`) is refused before
/// any simulation starts, with the flag named on stderr.
#[test]
fn unknown_workers_flag_is_rejected() {
    let out = lelantus(&["report", "--workload", "forkbench", "--workers", "2"]);
    assert_eq!(out.status.code(), Some(2), "an unknown flag must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--workers"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may run before the flag check");
}

/// A misspelt flag is refused on every subcommand that parses flags,
/// and a flag valid on one subcommand is refused on another.
#[test]
fn misspelt_and_foreign_flags_are_rejected() {
    for args in [
        &["run", "--workload", "forkbench", "--sceme", "ss"][..],
        &["compare", "--workload", "forkbench", "--scheme", "ss"],
        &["profile", "--workload", "forkbench", "--ring", "16"],
        &["tail", "--top", "3"],
        &["storm", "--tenant", "4"],
        &["heatmap", "--top-k", "3"],
        &["record", "forkbench", "-o", "unused.ltr", "--epoch", "1"],
        &["convert", "unused.csv", "-o", "unused.ltr", "--scale", "small"],
    ] {
        let out = lelantus(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let bad = args.iter().rev().find(|a| a.starts_with("--")).unwrap();
        assert!(stderr.contains(&format!("unknown flag `{bad}`")), "{args:?}: {stderr}");
    }
}
