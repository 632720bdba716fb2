//! Benchmark and reproduction harness.
//!
//! Two deliverables live here:
//!
//! * the **`repro` binary** (`src/bin/repro.rs`) — regenerates every table
//!   and figure of the paper's evaluation from a fresh paper-scale audit
//!   run (`repro all`, or `repro table5`, `repro figure3`, …);
//! * the **criterion benches** (`benches/`) — performance characterization
//!   of the framework's hot paths (auction, capture pipeline, statistics,
//!   PoliCheck matching, catalog generation, end-to-end run) plus the
//!   ablation studies called out in DESIGN.md §6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;

use alexa_audit::analysis::defense;
use alexa_audit::{artifacts, AnalysisIndex, AuditConfig, AuditRun, DefenseMode, Observations};
use alexa_fault::FaultProfile;
use alexa_obs::Recorder;
use std::sync::OnceLock;

/// Every artifact `repro` can render, in paper order — `repro all` renders
/// exactly this list.
pub const ARTIFACTS: &[&str] = &[
    "table1", "table2", "table3", "table4", "figure2", "table5", "table6", "figure3", "table7",
    "table8", "table9", "figure5", "sync", "table10", "figure6", "table11", "figure7", "table12",
    "stats71", "table13", "table13p", "table14", "validate", "liars", "defenses",
];

/// Stream the two defense comparisons into `out`; returns render work units.
///
/// Both defended sides are [`defense::views`] over the baseline index. The
/// taps take a device's packets before the defense, so the view is the
/// defended record under every fault profile too.
fn render_defenses_into(baseline: &AnalysisIndex, out: &mut String) -> usize {
    use DefenseMode::{Firewall, TextOnly};
    let [base, firewalled, text_only] =
        defense::views(baseline, [DefenseMode::None, Firewall, TextOnly]);
    let mut work = defense::compare("A&T firewall (blocking without breaking)", base, firewalled)
        .render_into(out);
    out.push('\n');
    work +=
        defense::compare("on-device transcription (text-only)", base, text_only).render_into(out);
    work
}

/// Render the wanted artifacts concurrently, returning them in input order.
/// Each artifact render is its own observability shard.
///
/// The shared [`AnalysisIndex`] is built exactly once (its own `index.build`
/// stage) and every artifact, `defenses` included, streams from it; the
/// fan-out is clamped to the host's hardware threads because
/// oversubscribing a CPU-bound render pass only adds contention (bytes are
/// jobs-independent either way). `_seed` and `_fault` are unused; they stay
/// for the callers of this signature in `perfbench/harness`.
pub fn render_all(
    obs: &Observations,
    wanted: &[&str],
    _seed: u64,
    jobs: Option<usize>,
    _fault: &FaultProfile,
    rec: &Recorder,
) -> Vec<String> {
    let ix = rec.stage("index.build", || AnalysisIndex::build(obs));
    rec.stage("render.all", || {
        let render_jobs = Some(alexa_exec::clamped_jobs(jobs));
        alexa_exec::par_map(render_jobs, wanted.to_vec(), |i, artifact| {
            let mut log = rec.shard("artifact", i, artifact);
            // Allocation window == the render body: every rendered byte is
            // attributed to this artifact's shard, deterministically.
            log.alloc_open();
            let rendered = log.span("render", |log| {
                let mut buf = String::with_capacity(4096);
                let units = if artifact == "defenses" {
                    render_defenses_into(&ix, &mut buf)
                } else {
                    // analyzer:allow(AP02) -- every caller passes names from ARTIFACTS; repro rejects unknowns at parse time (exit 2)
                    artifacts::render_into(&ix, artifact, &mut buf).expect("artifact known")
                };
                log.work(units as u64);
                buf
            });
            log.add("render.bytes", rendered.len() as u64);
            log.alloc_seal();
            rec.submit(log);
            rendered
        })
    })
}

/// A shared paper-scale run for benches that only *read* observations
/// (computed once per process).
pub fn shared_paper_run() -> &'static Observations {
    static OBS: OnceLock<Observations> = OnceLock::new();
    OBS.get_or_init(|| AuditRun::execute(AuditConfig::paper(7)))
}

/// The shared paper-scale run's [`AnalysisIndex`] (built once per process),
/// for benches exercising the index-backed analysis paths.
pub fn shared_paper_ix() -> &'static AnalysisIndex<'static> {
    static IX: OnceLock<AnalysisIndex<'static>> = OnceLock::new();
    IX.get_or_init(|| AnalysisIndex::build(shared_paper_run()))
}

/// A shared reduced run for cheaper benches.
pub fn shared_small_run() -> &'static Observations {
    static OBS: OnceLock<Observations> = OnceLock::new();
    OBS.get_or_init(|| AuditRun::execute(AuditConfig::small(7)))
}
