//! `repro` keeps its exit-code contract when stdout fails: a write error on
//! the report or artifact output is an I/O failure (exit 1 with a message),
//! never a panic (exit 101).

#![cfg(target_os = "linux")]

use std::fs::File;
use std::process::Command;

/// Run `repro ARTIFACT` with stdout on `/dev/full`, where every write fails
/// with "no space left on device".
fn repro_into_dev_full(artifact: &str) -> std::process::Output {
    let full = File::options()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg(artifact)
        .stdout(full)
        .output()
        .expect("run repro")
}

#[test]
fn failed_stdout_exits_1_with_a_message() {
    for artifact in ["table1", "defenses"] {
        let out = repro_into_dev_full(artifact);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{artifact}: {stderr}");
        assert!(
            stderr.contains("error: cannot write to stdout"),
            "{artifact}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{artifact}: {stderr}");
    }
}
