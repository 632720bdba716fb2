//! Golden byte-equality of the full `repro all` report.
//!
//! The shared-`AnalysisIndex` render path must produce **exactly** the bytes
//! the naive per-artifact rescans produced before the refactor — a perf PR
//! must not change output — and those bytes must not depend on the worker
//! count. Each seed's full report is pinned to a committed golden file and
//! additionally rendered at `--jobs 1/4/8` for byte-equality.
//!
//! Regenerate the goldens after an *intentional* output change with
//! `BLESS=1 cargo test -p alexa-bench --test golden_report`.

use alexa_audit::{AuditConfig, AuditRun};
use alexa_bench::{render_all, ARTIFACTS};
use alexa_fault::FaultProfile;
use alexa_obs::Recorder;

/// What `repro --seed N all` writes to stdout: every artifact in paper
/// order, each followed by the `println!` newline.
fn repro_all_stdout(seed: u64, jobs: usize) -> String {
    let obs = AuditRun::execute(AuditConfig::paper(seed).with_jobs(Some(jobs)));
    let rec = Recorder::disabled();
    let mut out = String::new();
    for artifact in render_all(
        &obs,
        ARTIFACTS,
        seed,
        Some(jobs),
        &FaultProfile::none(),
        &rec,
    ) {
        out.push_str(&artifact);
        out.push('\n');
    }
    out
}

fn check_seed(seed: u64, golden: &str, golden_path: &str) {
    let sequential = repro_all_stdout(seed, 1);
    for jobs in [4, 8] {
        let parallel = repro_all_stdout(seed, jobs);
        assert_eq!(
            sequential, parallel,
            "seed {seed}: report bytes differ between --jobs 1 and --jobs {jobs}"
        );
    }
    check_golden(&sequential, golden, golden_path);
}

/// Assert `got` equals the committed `golden`, or rewrite the golden file
/// under `BLESS=1`.
fn check_golden(got: &str, golden: &str, golden_path: &str) {
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(golden_path, got).expect("write golden");
        return;
    }
    assert_eq!(
        got, golden,
        "output drifted from {golden_path} \
         (BLESS=1 regenerates after an intentional change)"
    );
}

#[test]
fn report_seed7_matches_golden_across_jobs() {
    check_seed(
        7,
        include_str!("golden/report_seed7.txt"),
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/report_seed7.txt"),
    );
}

#[test]
fn report_seed1234_matches_golden_across_jobs() {
    check_seed(
        1234,
        include_str!("golden/report_seed1234.txt"),
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/report_seed1234.txt"
        ),
    );
}

#[test]
fn report_seed2222_matches_golden_across_jobs() {
    check_seed(
        2222,
        include_str!("golden/report_seed2222.txt"),
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/report_seed2222.txt"
        ),
    );
}

/// Pins the folded work profile of a **rendered** small(7) run: unlike the
/// execution-only golden in `crates/audit`, this one covers `index.build`
/// and — the point of the exercise — per-artifact
/// `render.all;artifact;<name>;render` frames (the `defenses` view
/// included), so render cost attribution can never silently regress to
/// zero again.
#[test]
fn rendered_profile_matches_golden_with_per_artifact_attribution() {
    let rec = Recorder::new();
    let obs = AuditRun::execute_with(AuditConfig::small(7), &rec);
    render_all(&obs, ARTIFACTS, 7, None, &FaultProfile::none(), &rec);
    let got = rec.report().folded_profile();

    for artifact in ["table1", "figure3", "defenses"] {
        assert!(
            got.lines()
                .any(|l| l.starts_with(&format!("render.all;artifact;{artifact};render "))),
            "no render work attributed to artifact {artifact}:\n{got}"
        );
    }

    check_golden(
        &got,
        include_str!("golden/profile_render_seed7.folded"),
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/profile_render_seed7.folded"
        ),
    );
}

/// Pins the `defenses` artifact under an active fault profile. The taps
/// take a device's packets before the defense, so tap faults land on the
/// same admitted packets with or without it, and both defended sides are
/// views over the faulted small(7) baseline.
#[test]
fn defenses_small7_flaky_matches_golden() {
    let fault = FaultProfile::flaky();
    let obs = AuditRun::execute(AuditConfig::small(7).with_faults(fault.clone()));
    let rec = Recorder::disabled();
    let got = render_all(&obs, &["defenses"], 7, None, &fault, &rec).concat();
    check_golden(
        &got,
        include_str!("golden/defenses_small7_flaky.txt"),
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/defenses_small7_flaky.txt"
        ),
    );
}

/// A faulted run renders every artifact, `defenses` included, from the one
/// baseline index: no defended audit is executed or indexed.
#[test]
fn faulted_render_all_records_only_index_and_render_stages() {
    let fault = FaultProfile::flaky();
    let obs = AuditRun::execute(AuditConfig::small(7).with_faults(fault.clone()));
    let rec = Recorder::new();
    render_all(&obs, ARTIFACTS, 7, None, &fault, &rec);
    let stages: Vec<String> = rec.report().stages.into_iter().map(|s| s.name).collect();
    assert_eq!(stages, ["index.build", "render.all"]);
}

/// An artifact shard's allocation window holds only that artifact's own
/// work: rendering `table6` alone or after `table5` (which asks the index
/// for the same common-slot masks) meters the same bytes for `table6`.
#[test]
fn artifact_alloc_does_not_depend_on_earlier_artifacts() {
    let obs = AuditRun::execute(AuditConfig::small(7));
    let table6_alloc = |wanted: &[&str]| {
        let rec = Recorder::new();
        render_all(&obs, wanted, 7, Some(1), &FaultProfile::none(), &rec);
        let report = rec.report();
        let shard = report
            .shards_in("artifact")
            .into_iter()
            .find(|s| s.label == "table6")
            .map(|s| (s.alloc_count, s.alloc_bytes));
        shard.expect("table6 shard recorded")
    };
    assert_eq!(
        table6_alloc(&["table6"]),
        table6_alloc(&["table5", "table6"])
    );
}
