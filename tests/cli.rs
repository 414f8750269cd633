//! `sgp` end to end at `SGP_SCALE=tiny`: every command refuses an
//! argument it does not take (exit 2, naming it), and a report written
//! into a closed pipe is an error (exit 1), not a panic.

use std::process::{Command, Output, Stdio};

fn sgp_command(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sgp"));
    cmd.args(args).env("SGP_SCALE", "tiny");
    cmd
}

fn sgp(args: &[&str]) -> Output {
    sgp_command(args).output().expect("sgp runs")
}

fn assert_refused(args: &[&str], named: &str) {
    let out = sgp(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&format!("`{named}`")), "{args:?} must name {named}:\n{stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a report");
}

#[test]
fn unknown_arguments_are_usage_errors() {
    assert_refused(&["recommend", "--onlin", "dataset:twitter"], "--onlin");
    assert_refused(&["stats", "dataset:twitter", "extra"], "extra");
    // A flag of another command: `--k` belongs to `partition`.
    assert_refused(&["stats", "--k", "4", "dataset:twitter"], "--k");
    assert_refused(&["scaleout", "--online", "dataset:twitter"], "--online");
    assert_refused(&["partition", "--alg", "HDRF", "--top", "3", "dataset:twitter"], "--top");
    assert_eq!(sgp(&["frobnicate", "dataset:twitter"]).status.code(), Some(2), "unknown command");
    assert_eq!(sgp(&["stats"]).status.code(), Some(2), "no input");
}

#[test]
fn known_arguments_still_run() {
    let out = sgp(&["recommend", "--online", "dataset:twitter"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(text.starts_with("recommended algorithm: "), "{text}");

    let out = sgp(&["stats", "dataset:twitter"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("vertices "));
}

#[test]
fn a_closed_stdout_is_an_error_not_a_panic() {
    // The read end is closed before the graph is generated, so the first
    // line of the report meets a broken pipe.
    let mut child = sgp_command(&["stats", "dataset:twitter"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("sgp runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("sgp exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot write output"), "{stderr}");
}
