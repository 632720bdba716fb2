//! `obs-diff` keeps its exit-code contract when stdout fails: a write error
//! on the report is an I/O failure (exit 1 with a message), never a panic
//! (exit 101).

#![cfg(target_os = "linux")]

use alexa_obs::bundle::{write_bundle, BundleSpec};
use alexa_obs::Recorder;
use std::fs::File;
use std::path::PathBuf;
use std::process::Command;

/// A minimal bundle of one stage, written to a fresh directory.
fn bundle(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("obsdiff-stdout-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let rec = Recorder::new();
    rec.stage("persona.shards", || {});
    let spec = BundleSpec {
        seed: 7,
        fault_profile: "none".into(),
        defense: None,
        campaign: None,
        observations_digest: 7,
        coverage: None,
    };
    write_bundle(&dir, &spec, &rec.report()).expect("bundle write");
    dir
}

/// Run `obs-diff ARGS` with stdout on `/dev/full`, where every write fails
/// with "no space left on device".
fn obs_diff_into_dev_full(args: &[&str]) -> std::process::Output {
    let full = File::options()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    Command::new(env!("CARGO_BIN_EXE_obs-diff"))
        .args(args)
        .stdout(full)
        .output()
        .expect("run obs-diff")
}

#[test]
fn failed_stdout_exits_1_with_a_message() {
    let (a, b) = (bundle("a"), bundle("b"));
    let (a, b) = (
        a.to_str().expect("utf-8 path"),
        b.to_str().expect("utf-8 path"),
    );
    for format in ["human", "json"] {
        let out = obs_diff_into_dev_full(&["diff", a, b, "--format", format]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{format}: {stderr}");
        assert!(
            stderr.contains("error: cannot write to stdout"),
            "{format}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{format}: {stderr}");
    }
}
