//! Layer probes of the traced run. Each calls layer entry points one at a
//! time, outside the traced ops, to read exact allocation and memory
//! figures without perturbing the ops, and to measure once, on every
//! workload, the layers that workload's ops never reach.

use crate::metrics::RENDER_ARTIFACTS;
use crate::trace::{execute_layers, render_layers, shard_alloc_bytes, ExecFacts, Layers, Tracer};
use crate::workload::{paper_config, sweep_config, Ctx, Workload, SWEEP_DEFENSES, SWEEP_FAULTS};
use alexa_audit::{artifacts, AnalysisIndex, AuditRun, Observations};
use alexa_bench::campaign::run_campaign_with;
use alexa_bench::{render_all, ARTIFACTS};
use alexa_fault::FaultProfile;
use alexa_obs::bundle::{write_bundle, BundleSpec};
use alexa_obs::{Recorder, Report};
use std::path::Path;

const MB: f64 = 1_000_000.0;

/// Bytes this thread has allocated so far.
fn thread_bytes() -> u64 {
    alexa_obs::alloc::snapshot().bytes
}

/// The analysis side of one audit, one layer call at a time on this
/// thread: the index through `AnalysisIndex::build`, every separately
/// reported artifact through `artifacts::render_into`, then the defended
/// path alone through `render_all(["defenses"])`, which builds the base
/// index again, derives and indexes the defended records, and renders
/// `defenses` inline (one artifact never fans out).
///
/// Allocation figures count this thread only: the re-executed defended
/// audits of a faulted run allocate on their own worker threads as well.
/// With `time_layers`, a full `render_all` adds one sample of every
/// analysis-side time, for workloads whose ops never index or render.
fn analysis_of(
    obs: &Observations,
    seed: u64,
    fault: &FaultProfile,
    jobs: usize,
    time_layers: bool,
    tracer: &mut Tracer,
    layers: &mut Layers,
) {
    let b0 = thread_bytes();
    let ix = tracer.span("audit.AnalysisIndex::build", || AnalysisIndex::build(obs));
    let index_bytes = thread_bytes() - b0;
    for artifact in RENDER_ARTIFACTS.iter().filter(|a| **a != "defenses") {
        let mut buf = String::new();
        tracer.span(&format!("audit.render_into.{artifact}"), || {
            artifacts::render_into(&ix, artifact, &mut buf)
        });
    }
    drop(ix);

    let rec = Recorder::new();
    let b1 = thread_bytes();
    tracer.span("bench.render_all.defenses", || {
        render_all(obs, &["defenses"], seed, Some(jobs), fault, &rec)
    });
    let defenses_bytes = thread_bytes() - b1;
    let report = rec.report();
    let render_window = shard_alloc_bytes(&report, &["artifact"]);
    layers.put("audit.index_alloc_mb", Some(index_bytes as f64 / MB), "");
    layers.put(
        "audit.defended_alloc_mb",
        Some(defenses_bytes.saturating_sub(index_bytes + render_window) as f64 / MB),
        "",
    );
    // The recorder samples VmHWM at every stage close.
    let peak = |name: &str| report.stage(name).map(|s| s.peak_rss_kb);
    layers.put(
        "audit.defended_rss_mb",
        match (peak("index.build"), peak("index.defended")) {
            (Some(before), Some(after)) => Some(after.saturating_sub(before) as f64 * 1024.0 / MB),
            _ => None,
        },
        "recorder stages `index.build`/`index.defended` not emitted",
    );

    if time_layers {
        let rec = Recorder::new();
        let rendered = tracer.span("bench.render_all", || {
            render_all(obs, ARTIFACTS, seed, Some(jobs), fault, &rec)
        });
        let bytes = rendered.iter().map(|a| a.len() + 1).sum();
        render_layers(&rec.report(), bytes, layers);
    }
}

/// Write `report` as a run-ledger bundle under `dir`: `obs.bundle_ms`,
/// `obs.bundle_kb`.
fn bundle(
    dir: &Path,
    spec: &BundleSpec,
    report: &Report,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let failed = |e: std::io::Error| format!("{}: {e}", dir.display());
    tracer
        .span("obs.write_bundle", || write_bundle(dir, spec, report))
        .map_err(failed)?;
    let bytes: u64 = std::fs::read_dir(dir)
        .map_err(failed)?
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    layers.put("obs.bundle_ms", tracer.last_ms("obs.write_bundle"), "");
    layers.put("obs.bundle_kb", Some(bytes as f64 / 1024.0), "");
    Ok(())
}

fn bundle_spec(seed: u64, fault: &str, defense: &str, obs: &Observations) -> BundleSpec {
    BundleSpec {
        seed,
        fault_profile: fault.to_string(),
        defense: (defense != "none").then(|| defense.to_string()),
        campaign: None,
        observations_digest: obs.digest(),
        coverage: Some(obs.coverage.to_json()),
    }
}

/// The probe of `paper_all` / `faulted_process`, run first in a fresh
/// process so the `VmHWM` growth across the defended stages is the growth
/// they cause: the analysis side of one audit, and a bundle of it.
pub fn analysis(
    w: Workload,
    ctx: &Ctx,
    seed: u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let (config, fault) = paper_config(w, seed, ctx.jobs, ctx);
    let root = tracer.open("probe", 0);
    let rec = Recorder::new();
    let obs = tracer.span("audit.execute_with", || {
        AuditRun::execute_with(config, &rec)
    });
    analysis_of(&obs, seed, &fault, ctx.jobs, false, tracer, layers);
    let spec = bundle_spec(seed, fault.name(), "none", &obs);
    let dir = ctx.work.join("probe").join("bundle");
    let bundled = bundle(&dir, &spec, &rec.report(), tracer, layers);
    tracer.close(root);
    bundled
}

/// The campaign runner's own cost outside its cells, from a one-cell
/// campaign: `bench.campaign_overhead_ms` for workloads whose ops never
/// run a campaign. Run after the traced ops: the runner leaves a global
/// recorder installed.
pub fn campaign_overhead(
    ctx: &Ctx,
    seed: u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let plan = ctx.work.join("plan-probe.json");
    let text = format!(
        "{{\"schema\": 1, \"name\": \"probe\", \"scale\": \"paper\", \"seeds\": [{seed}], \
         \"faults\": [\"none\"], \"defenses\": [\"none\"], \"jobs\": [{}]}}\n",
        ctx.jobs
    );
    std::fs::write(&plan, text).map_err(|e| format!("{}: {e}", plan.display()))?;
    let rec = Recorder::new();
    let root = tracer.open("probe", 0);
    let id = tracer.open("bench.run_campaign_with", 0);
    let done = run_campaign_with(
        &plan,
        Some(&ctx.work.join("probe").join("campaign")),
        &rec,
        &ctx.worker_cmd(),
    );
    let wall = tracer.close(id);
    tracer.close(root);
    done.map_err(|e| format!("probe campaign failed: {e}"))?;
    layers.put(
        "bench.campaign_overhead_ms",
        crate::workload::campaign_overhead_ms(wall, &rec.report()),
        "campaign recorder emitted no `cell` shards",
    );
    Ok(())
}

/// The cells of one `campaign_sweep` op, executed, reported and bundled one
/// layer call at a time, the way the campaign runner does per cell.
/// Per-layer values of `campaign_sweep` are per cell: the median over
/// these six cells. The analysis side, which campaign ops never run, is
/// measured once on the undefended, fault-free cell.
pub fn cells(ctx: &Ctx, seed: u64, tracer: &mut Tracer, layers: &mut Layers) -> Result<(), String> {
    let root = tracer.open("probe", 0);
    let mut baseline = None;
    for fault in SWEEP_FAULTS {
        for defense in SWEEP_DEFENSES {
            let config = sweep_config(seed, fault, defense, ctx.jobs);
            let profile = config.fault.clone();
            let rec = Recorder::new();
            let b0 = thread_bytes();
            let obs = tracer.span("audit.execute_with", || {
                AuditRun::execute_with(config, &rec)
            });
            let b1 = thread_bytes();
            let report = tracer.span("obs.report", || rec.report());
            let spec = bundle_spec(seed, profile.name(), defense, &obs);
            let dir = ctx.work.join("probe").join(format!("{fault}-{defense}"));
            bundle(&dir, &spec, &report, tracer, layers)?;
            let facts = ExecFacts {
                execute_ms: tracer.last_ms("audit.execute_with").unwrap_or(0.0),
                thread_alloc_bytes: b1 - b0,
                inline_shards: ctx.jobs <= 1,
                jobs: ctx.jobs,
                policies: obs.policies.len() as u64,
                injected: obs.coverage.total_injected(),
                retries: obs.coverage.retries,
                losses: obs.coverage.losses,
            };
            execute_layers(&report, &facts, layers);
            layers.put("obs.report_ms", tracer.last_ms("obs.report"), "");
            if !profile.is_active() && defense == "none" {
                baseline = Some((obs, profile));
            }
        }
    }
    if let Some((obs, fault)) = baseline {
        analysis_of(&obs, seed, &fault, ctx.jobs, true, tracer, layers);
    }
    tracer.close(root);
    Ok(())
}
