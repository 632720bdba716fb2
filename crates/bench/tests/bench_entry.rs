//! `repro --bench` prints its data point as one JSON line on stdout and
//! writes no file: recording the entry is the caller's `>> BENCH_audit.json`.

use alexa_obs::Json;
use std::process::Command;

const BENCH_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_audit.json");

#[test]
fn bench_prints_one_entry_and_writes_no_file() {
    let before = std::fs::read(BENCH_FILE).ok();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--bench", "--jobs", "1"])
        .output()
        .expect("run repro --bench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");

    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "expected one JSON line, got:\n{stdout}");
    let entry = Json::parse(lines[0]).expect("bench entry parses");
    for field in ["total_ms", "rendered_bytes"] {
        assert!(
            entry.get(field).and_then(Json::as_u64).is_some(),
            "entry lacks {field}: {stdout}"
        );
    }
    assert_eq!(
        std::fs::read(BENCH_FILE).ok(),
        before,
        "repro --bench modified the repository's bench file"
    );
}
