//! `alexa-analyzer` keeps its exit-code contract when stdout fails: a write
//! error on the report is an I/O failure (exit 1 with a message), never a
//! panic (exit 101).

#![cfg(target_os = "linux")]

use std::fs::File;
use std::path::Path;
use std::process::Command;

/// Run `alexa-analyzer ARGS` with stdout on `/dev/full`, where every write
/// fails with "no space left on device".
fn analyzer_into_dev_full(args: &[&str]) -> std::process::Output {
    let full = File::options()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    Command::new(env!("CARGO_BIN_EXE_alexa-analyzer"))
        .args(args)
        .stdout(full)
        .output()
        .expect("run alexa-analyzer")
}

#[test]
fn failed_stdout_exits_1_with_a_message() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.to_str().expect("utf-8 path");
    for args in [
        &["--list-lints"][..],
        &["--help"],
        &["--root", root, "--no-cache"],
    ] {
        let out = analyzer_into_dev_full(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("error: cannot write to stdout"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
