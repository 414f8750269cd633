//! `experiments` end to end at `SGP_SCALE=tiny`: an unknown id is a
//! usage error (exit 2, naming it), and a report written into a closed
//! pipe is an error (exit 1), not a panic.

use std::process::{Command, Stdio};

fn experiments(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    cmd.args(args).env("SGP_SCALE", "tiny");
    cmd
}

#[test]
fn an_unknown_id_is_a_usage_error() {
    let out = experiments(&["table4", "fig99"]).output().expect("experiments runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown experiment id: fig99"), "{stderr}");
    assert!(out.stdout.is_empty(), "an experiment ran before the ids were checked");
}

#[test]
fn a_closed_stdout_is_an_error_not_a_panic() {
    // Table 4 generates a graph and partitions it four ways before its
    // first line, so the read end is closed by then.
    let mut child = experiments(&["table4", "fig2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("experiments runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("experiments exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: cannot write output"), "{stderr}");
}
