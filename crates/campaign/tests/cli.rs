//! Characterization of the `inpg` command line's one-run surface:
//! `inpg run` and `inpg compare` print the same bytes for the same
//! cell, a wedged run exits 1 with the stall report on stderr, and a
//! bad flag is a usage error that names it.

use std::process::{Command, Output};

fn inpg(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_inpg"))
        .args(args)
        .output()
        .expect("inpg runs")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn run_prints_the_one_cell_summary() {
    let out = inpg(&["run", "freq", "--mesh", "4x4", "--scale", "0.02"]);
    assert_eq!(
        stdout(&out),
        "workload:        freq (Original / QSL)\n\
         ROI finish time: 81916 cycles (128 critical sections)\n\
         phases:          97.6% parallel, 0.9% COH, 1.4% CSE\n\
         per CS:          86 COH + 134 CSE cycles\n\
         Inv-Ack:         mean 15.5, max 23 cycles over 30 round trips\n"
    );
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn compare_prints_the_four_mechanism_table() {
    let out = inpg(&["compare", "freq", "--mesh", "4x4", "--scale", "0.02"]);
    assert_eq!(
        stdout(&out),
        "mechanism  ROI cycles  rel. ROI  CS expedition  Inv-Ack mean\n\
         ------------------------------------------------------------\n\
         Original   81916       100.0%    1.00x          15.5        \n\
         OCOR       81916       100.0%    1.00x          15.5        \n\
         iNPG       81916       100.0%    1.00x          14.6        \n\
         iNPG+OCOR  81916       100.0%    1.00x          14.6        \n\
         \n"
    );
}

#[test]
fn a_dropped_ack_without_recovery_is_a_stall_error() {
    let out = inpg(&[
        "run",
        "freq",
        "--mesh",
        "4x4",
        "--scale",
        "0.02",
        "--fault",
        "drop-ack:3",
        "--watchdog-cycles",
        "20000",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: stall:"), "{stderr}");
}

#[test]
fn an_unknown_flag_is_a_usage_error_naming_it() {
    let out = inpg(&["run", "freq", "--no-such-flag"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(stderr.contains("--no-such-flag"), "{stderr}");
}
