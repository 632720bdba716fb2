//! The three workloads, their ops, their reference outputs and the output
//! checker.

use crate::trace::{execute_layers, render_layers, ExecFacts, Layers, Tracer};
use alexa_audit::{AuditConfig, AuditRun, DefenseMode, Observations};
use alexa_bench::campaign::run_campaign_with;
use alexa_bench::{render_all, ARTIFACTS};
use alexa_exec::BackendChoice;
use alexa_fault::FaultProfile;
use alexa_obs::{Json, Recorder};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Seeds whose full `repro all` report is committed as a golden file.
pub const GOLDEN_SEEDS: [u64; 3] = [7, 1234, 2222];

/// The campaign sweep's axes: every fault variant × every defense.
pub(crate) const SWEEP_FAULTS: [&str; 2] = ["none", "flaky"];
pub(crate) const SWEEP_DEFENSES: [&str; 3] = ["none", "firewall", "text-only"];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper regeneration: execute on the thread backend, render all 25
    /// artifacts.
    PaperAll,
    /// A paper-scale campaign over faults × defenses, one seed per op.
    CampaignSweep,
    /// `flaky` faults through the process backend, render all artifacts.
    FaultedProcess,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperAll,
        Workload::CampaignSweep,
        Workload::FaultedProcess,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperAll => "paper_all",
            Workload::CampaignSweep => "campaign_sweep",
            Workload::FaultedProcess => "faulted_process",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many seeds are drawn from the workload seed, next to the golden
    /// ones. Op times differ by up to ~15% between seeds, so a run cycles
    /// through many seeds to keep its median independent of which ones it
    /// drew; each derived seed costs one reference run (six for a campaign
    /// op) outside the timed window.
    pub fn derived_seeds(self) -> usize {
        match self {
            Workload::PaperAll => 9,
            Workload::CampaignSweep => 3,
            Workload::FaultedProcess => 7,
        }
    }

    /// Audits one op completes: a campaign op runs one audit per cell.
    pub fn audits_per_op(self) -> usize {
        match self {
            Workload::CampaignSweep => SWEEP_FAULTS.len() * SWEEP_DEFENSES.len(),
            _ => 1,
        }
    }
}

/// The seeds a run of `w` cycles through: the golden seeds, then
/// [`Workload::derived_seeds`] seeds drawn from `workload_seed` by
/// splitmix64.
pub fn seed_pool(w: Workload, workload_seed: u64) -> Vec<u64> {
    let mut pool = GOLDEN_SEEDS.to_vec();
    let mut x = workload_seed;
    while pool.len() < GOLDEN_SEEDS.len() + w.derived_seeds() {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let seed = 10_000 + z % 1_000_000_000;
        if !pool.contains(&seed) {
            pool.push(seed);
        }
    }
    pool
}

/// What an op produced, in the form the checker compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    /// The rendered report bytes.
    Report(String),
    /// `("<fault>/<defense>", observations digest)` of every campaign cell,
    /// in plan order.
    Digests(Vec<(String, String)>),
}

/// Everything the ops share.
pub struct Ctx {
    /// The `repro` binary: the process backend's worker command.
    pub repro: PathBuf,
    /// Scratch directory of this run (campaign outputs, plans).
    pub work: PathBuf,
    /// Worker count of every timed op: the host's hardware threads.
    pub jobs: usize,
    /// Golden `repro all` reports by seed.
    pub goldens: BTreeMap<u64, String>,
}

impl Ctx {
    pub(crate) fn worker_cmd(&self) -> Vec<String> {
        vec![
            self.repro.to_string_lossy().into_owned(),
            "--shard-worker".to_string(),
        ]
    }

    fn plan_path(&self, seed: u64) -> PathBuf {
        self.work.join(format!("plan-s{seed}.json"))
    }

    /// Write the campaign plan of each seed of `pool` (once, before any op
    /// is timed).
    pub fn write_plans(&self, pool: &[u64]) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.work)?;
        for &seed in pool {
            let quote = |xs: &[&str]| {
                xs.iter()
                    .map(|x| format!("\"{x}\""))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let plan = format!(
                "{{\"schema\": 1, \"name\": \"sweep\", \"scale\": \"paper\", \"seeds\": [{seed}], \
                 \"faults\": [{}], \"defenses\": [{}], \"jobs\": [{}], \"backends\": [\"thread\"]}}\n",
                quote(&SWEEP_FAULTS),
                quote(&SWEEP_DEFENSES),
                self.jobs
            );
            std::fs::write(self.plan_path(seed), plan)?;
        }
        Ok(())
    }
}

/// A completed op.
pub struct Done {
    /// Wall time of the op's calls into the library.
    pub elapsed: Duration,
    /// The op's output, for the checker.
    pub output: Output,
}

pub(crate) fn paper_config(
    w: Workload,
    seed: u64,
    jobs: usize,
    ctx: &Ctx,
) -> (AuditConfig, FaultProfile) {
    match w {
        Workload::FaultedProcess => {
            let fault = FaultProfile::flaky();
            let config = AuditConfig::paper(seed)
                .with_faults(fault.clone())
                .with_jobs(Some(jobs))
                .with_backend(BackendChoice::Process)
                .with_worker_cmd(ctx.worker_cmd());
            (config, fault)
        }
        _ => (
            AuditConfig::paper(seed).with_jobs(Some(jobs)),
            FaultProfile::none(),
        ),
    }
}

/// What `repro [--fault-profile P] all` prints: the coverage block under an
/// active profile, then every artifact followed by a newline.
fn report_text(obs: &Observations, fault: &FaultProfile, artifacts: Vec<String>) -> String {
    let mut out = String::with_capacity(40_000);
    if fault.is_active() {
        out.push_str(&obs.coverage.render());
        out.push('\n');
    }
    for a in artifacts {
        out.push_str(&a);
        out.push('\n');
    }
    out
}

/// Run one op of `w` on `seed`. With an enabled tracer the op records its
/// layer calls as spans and its per-layer figures into `layers`.
pub fn run_op(
    w: Workload,
    ctx: &Ctx,
    seed: u64,
    op: u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<Done, String> {
    match w {
        Workload::PaperAll | Workload::FaultedProcess => {
            run_report_op(w, ctx, seed, op, tracer, layers)
        }
        Workload::CampaignSweep => run_campaign_op(ctx, seed, op, tracer, layers),
    }
}

fn run_report_op(
    w: Workload,
    ctx: &Ctx,
    seed: u64,
    op: u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<Done, String> {
    let traced = tracer.is_enabled();
    let (config, fault) = paper_config(w, seed, ctx.jobs, ctx);
    let rec_origin = Instant::now();
    let rec = if traced {
        Recorder::new()
    } else {
        Recorder::disabled()
    };
    let root = tracer.open("op", op);
    let t0 = Instant::now();
    let a0 = alexa_obs::alloc::snapshot();
    let exec_id = tracer.open("audit.execute_with", op);
    let obs = AuditRun::execute_with(config, &rec);
    let execute_ms = tracer.close(exec_id);
    let a1 = alexa_obs::alloc::snapshot();
    let render_id = tracer.open("bench.render_all", op);
    let artifacts = render_all(&obs, ARTIFACTS, seed, Some(ctx.jobs), &fault, &rec);
    tracer.close(render_id);
    let text = report_text(&obs, &fault, artifacts);
    let elapsed = t0.elapsed();
    if traced {
        let report = tracer.span("obs.report", || rec.report());
        let parents: Vec<usize> = [exec_id, render_id].into_iter().flatten().collect();
        tracer.adopt_stages(&report, rec_origin, &parents);
        let facts = ExecFacts {
            execute_ms: execute_ms.unwrap_or(0.0),
            thread_alloc_bytes: a1.bytes - a0.bytes,
            inline_shards: w == Workload::PaperAll && ctx.jobs <= 1,
            jobs: ctx.jobs,
            policies: obs.policies.len() as u64,
            injected: obs.coverage.total_injected(),
            retries: obs.coverage.retries,
            losses: obs.coverage.losses,
        };
        execute_layers(&report, &facts, layers);
        render_layers(&report, text.len(), layers);
        layers.put("obs.report_ms", tracer.last_ms("obs.report"), "");
    }
    tracer.close(root);
    Ok(Done {
        elapsed,
        output: Output::Report(text),
    })
}

fn run_campaign_op(
    ctx: &Ctx,
    seed: u64,
    op: u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<Done, String> {
    let traced = tracer.is_enabled();
    // A fresh directory per op: resume would skip completed cells.
    let out_dir = ctx.work.join("campaign").join(format!("op-{op}"));
    let rec = if traced {
        Recorder::new()
    } else {
        Recorder::disabled()
    };
    let root = tracer.open("op", op);
    let t0 = Instant::now();
    let id = tracer.open("bench.run_campaign_with", op);
    let summary = run_campaign_with(
        &ctx.plan_path(seed),
        Some(&out_dir),
        &rec,
        &ctx.worker_cmd(),
    );
    let wall = tracer.close(id);
    let elapsed = t0.elapsed();
    let summary = summary.map_err(|e| format!("campaign failed: {e}"))?;
    let cells = SWEEP_FAULTS.len() * SWEEP_DEFENSES.len();
    if summary.executed() != cells {
        return Err(format!(
            "campaign executed {} of {cells} cells",
            summary.executed()
        ));
    }
    if traced {
        let report = tracer.span("obs.report", || rec.report());
        layers.put(
            "bench.campaign_overhead_ms",
            campaign_overhead_ms(wall, &report),
            "campaign recorder emitted no `cell` shards",
        );
    }
    tracer.close(root);
    let output = read_campaign_digests(&out_dir)?;
    Ok(Done { elapsed, output })
}

/// Campaign wall time (ms) minus the time of its `cell` shards, each of
/// which spans one cell's execute and bundle write.
pub(crate) fn campaign_overhead_ms(
    wall_ms: Option<f64>,
    report: &alexa_obs::Report,
) -> Option<f64> {
    let cells = report.shards_in("cell");
    let cell_ms: f64 = cells.iter().map(|s| s.total_us as f64 / 1000.0).sum();
    wall_ms.filter(|_| !cells.is_empty()).map(|w| w - cell_ms)
}

/// `("<fault>/<defense>", digest)` of every cell in a campaign manifest.
fn read_campaign_digests(dir: &Path) -> Result<Output, String> {
    let path = dir.join("campaign.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(text.trim_end()).map_err(|e| format!("{}: {e}", path.display()))?;
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("campaign.json has no cells")?;
    let mut out = Vec::new();
    for cell in cells {
        let field = |k: &str| cell.get(k).and_then(Json::as_str).map(str::to_string);
        match (field("fault"), field("defense"), field("digest")) {
            (Some(fault), Some(defense), Some(digest)) => {
                out.push((format!("{fault}/{defense}"), digest))
            }
            _ => return Err("campaign.json cell lacks fault, defense or digest".to_string()),
        }
    }
    Ok(Output::Digests(out))
}

/// The reference output of `w` on `seed`, computed outside every timed
/// window:
///
/// * `paper_all`, golden seeds: the committed golden report;
/// * `paper_all`, other seeds: a `--jobs 1` thread-backend run;
/// * `faulted_process`: the thread-backend `--jobs 1` run of the same
///   (seed, flaky) — the backend byte-equality contract;
/// * `campaign_sweep`: each cell's digest from a `--jobs 1` thread run.
pub fn reference(w: Workload, ctx: &Ctx, seed: u64) -> Output {
    match w {
        Workload::PaperAll => {
            if let Some(golden) = ctx.goldens.get(&seed) {
                return Output::Report(golden.clone());
            }
            sequential_report(seed, FaultProfile::none())
        }
        Workload::FaultedProcess => sequential_report(seed, FaultProfile::flaky()),
        Workload::CampaignSweep => {
            let mut out = Vec::new();
            for fault in SWEEP_FAULTS {
                for defense in SWEEP_DEFENSES {
                    let obs = AuditRun::execute(sweep_config(seed, fault, defense, 1));
                    out.push((
                        format!("{fault}/{defense}"),
                        format!("{:016x}", obs.digest()),
                    ));
                }
            }
            Output::Digests(out)
        }
    }
}

/// The configuration of one campaign-sweep cell, as the campaign runner
/// resolves it from the plan.
pub(crate) fn sweep_config(seed: u64, fault: &str, defense: &str, jobs: usize) -> AuditConfig {
    let profile = alexa_bench::campaign::resolve_fault(fault).unwrap_or_else(FaultProfile::none);
    let mode = alexa_bench::campaign::resolve_defense(defense).unwrap_or(DefenseMode::None);
    AuditConfig::paper(seed)
        .with_faults(profile)
        .with_defense(mode)
        .with_jobs(Some(jobs))
}

fn sequential_report(seed: u64, fault: FaultProfile) -> Output {
    let config = AuditConfig::paper(seed)
        .with_faults(fault.clone())
        .with_jobs(Some(1));
    let obs = AuditRun::execute(config);
    let rec = Recorder::disabled();
    let artifacts = render_all(&obs, ARTIFACTS, seed, Some(1), &fault, &rec);
    Output::Report(report_text(&obs, &fault, artifacts))
}

/// Compares every op's output with the reference of its seed.
///
/// Each op's output is compared byte for byte with the first output of the
/// same seed as soon as the op ends; only that first output is kept, and it
/// is compared with the reference at the end. An op fails when it panicked,
/// returned an error, or its output differs from the reference.
#[derive(Debug, Default)]
pub struct Checker {
    seeds: BTreeMap<u64, SeedRecord>,
    errors: u64,
}

#[derive(Debug)]
struct SeedRecord {
    first: Output,
    ops: u64,
    diverged: u64,
}

impl Checker {
    /// Record one op's outcome on `seed`.
    pub fn record(&mut self, seed: u64, outcome: Result<&Output, &str>) {
        let Ok(output) = outcome else {
            self.errors += 1;
            return;
        };
        match self.seeds.get_mut(&seed) {
            Some(rec) => {
                rec.ops += 1;
                if rec.first != *output {
                    rec.diverged += 1;
                }
            }
            None => {
                self.seeds.insert(
                    seed,
                    SeedRecord {
                        first: output.clone(),
                        ops: 1,
                        diverged: 0,
                    },
                );
            }
        }
    }

    /// Seeds with at least one recorded output.
    pub fn seeds(&self) -> Vec<u64> {
        self.seeds.keys().copied().collect()
    }

    /// Ops recorded, failed or not.
    pub fn attempted(&self) -> u64 {
        self.errors + self.seeds.values().map(|r| r.ops).sum::<u64>()
    }

    /// Failed ops, given the reference output of every seed.
    pub fn failed(&self, mut reference: impl FnMut(u64) -> Output) -> u64 {
        self.errors
            + self
                .seeds
                .iter()
                .map(|(&seed, rec)| {
                    if rec.first == reference(seed) {
                        rec.diverged
                    } else {
                        // The kept output is wrong: so is every op that
                        // matched it.
                        rec.ops - rec.diverged
                    }
                })
                .sum::<u64>()
    }
}

/// Load the golden reports that exist under `dir`.
pub fn load_goldens(dir: &Path) -> Result<BTreeMap<u64, String>, String> {
    let mut out = BTreeMap::new();
    for seed in GOLDEN_SEEDS {
        let path = dir.join(format!("report_seed{seed}.txt"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        out.insert(seed, text);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(s: &str) -> Output {
        Output::Report(s.to_string())
    }

    #[test]
    fn seed_pool_is_deterministic_and_holds_the_golden_seeds() {
        for w in Workload::ALL {
            let a = seed_pool(w, 1);
            assert_eq!(a, seed_pool(w, 1));
            assert_ne!(a, seed_pool(w, 2));
            assert_eq!(&a[..3], &GOLDEN_SEEDS);
            assert_eq!(a.len(), GOLDEN_SEEDS.len() + w.derived_seeds());
        }
    }

    #[test]
    fn correct_outputs_do_not_fail() {
        let mut c = Checker::default();
        for _ in 0..3 {
            c.record(7, Ok(&report("golden")));
        }
        assert_eq!(c.attempted(), 3);
        assert_eq!(c.failed(|_| report("golden")), 0);
    }

    /// The checker, not the program, is what counts failures: corrupting
    /// only the reference it compares with must fail every op of that seed.
    #[test]
    fn a_corrupted_reference_fails_every_op_of_its_seed() {
        let mut c = Checker::default();
        for _ in 0..4 {
            c.record(7, Ok(&report("table 1 ...")));
        }
        c.record(1234, Ok(&report("other")));
        let corrupted = |seed: u64| {
            if seed == 7 {
                report("table 1 ..!")
            } else {
                report("other")
            }
        };
        assert_eq!(c.attempted(), 5);
        assert_eq!(c.failed(corrupted), 4);
        let fail_ratio = c.failed(corrupted) as f64 / c.attempted() as f64;
        assert!((fail_ratio - 0.8).abs() < 1e-12);
    }

    #[test]
    fn a_diverging_op_and_an_error_each_fail_once() {
        let mut c = Checker::default();
        c.record(7, Ok(&report("a")));
        c.record(7, Ok(&report("b")));
        c.record(7, Ok(&report("a")));
        c.record(7, Err("panicked"));
        assert_eq!(c.attempted(), 4);
        assert_eq!(c.failed(|_| report("a")), 2);
        // If the first output was the wrong one, the matching ops fail.
        assert_eq!(c.failed(|_| report("b")), 3);
    }
}
