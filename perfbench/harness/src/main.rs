//! `perfbench` — run one benchmark workload (or all of them) and print its
//! metrics, the last stdout line being the JSON result.
//!
//! ```text
//! perfbench --workload paper_all|campaign_sweep|faulted_process|all
//!           --seed N --seconds S --trace 0|1 --repro PATH --root DIR
//!           [--commit HASH] [--source HASH]
//! ```
//!
//! `perfbench/run.py` builds this binary and `repro`, then starts it with
//! the paths filled in. `--trace 0` measures the end-to-end metrics;
//! `--trace 1` is the separate traced run that gives the per-layer ones.

use perfbench::metrics::{
    json_num, json_obj, json_str, json_str_map, per_layer, result_line, valid_name, Metric,
    END_TO_END,
};
use perfbench::stats::{median, tail};
use perfbench::sys::{cpu_ms, self_peak_kb, RssSampler};
use perfbench::trace::{Layers, Tracer};
use perfbench::workload::{
    load_goldens, reference, run_op, seed_pool, Checker, Ctx, Done, Workload,
};
use perfbench::{probe, stats};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Cold starts measured in fresh child processes, next to the in-process one.
const SETUP_PROBES: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    repro: PathBuf,
    root: PathBuf,
    commit: String,
    source: String,
    probe_setup: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        repro: PathBuf::new(),
        root: PathBuf::new(),
        commit: "unknown".into(),
        source: "unknown".into(),
        probe_setup: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--probe-setup" {
            args.probe_setup = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} expects a value"))?;
        let int = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} expects an integer"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = int(&value)?,
            "--seconds" => args.seconds = int(&value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            "--repro" => args.repro = PathBuf::from(value),
            "--root" => args.root = PathBuf::from(value),
            "--commit" => args.commit = value,
            "--source" => args.source = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && Workload::parse(&args.workload).is_none() {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.seconds == 0 && !args.probe_setup {
        return Err("--seconds must be at least 1".into());
    }
    if !args.repro.is_file() {
        return Err(format!("--repro {:?} is not a file", args.repro));
    }
    Ok(args)
}

/// Run one op, turning a panic into an error.
fn attempt(
    w: Workload,
    ctx: &Ctx,
    seed: u64,
    op: u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<Done, String> {
    catch_unwind(AssertUnwindSafe(|| {
        run_op(w, ctx, seed, op, tracer, layers)
    }))
    .unwrap_or_else(|_| Err("op panicked".to_string()))
}

/// What a measuring window saw.
struct Window {
    /// Wall time of every completed op, ms.
    samples_ms: Vec<f64>,
    /// The seed of every completed op.
    seeds: Vec<u64>,
    /// Wall time of the whole window, s.
    wall_s: f64,
    /// Ops started.
    ops: u64,
}

impl Window {
    fn ops_per_s(&self) -> f64 {
        self.samples_ms.len() as f64 / self.wall_s
    }
}

/// Closed loop, one client: start the next op when the previous one ends,
/// until `seconds` have passed. Seeds cycle through `pool`.
#[allow(clippy::too_many_arguments)]
fn measure(
    w: Workload,
    ctx: &Ctx,
    pool: &[u64],
    seconds: f64,
    first_op: u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
    checker: &mut Checker,
) -> Window {
    let start = Instant::now();
    let limit = Duration::from_secs_f64(seconds);
    let mut samples_ms = Vec::new();
    let mut seeds = Vec::new();
    let mut ops = 0u64;
    while start.elapsed() < limit {
        let seed = pool[ops as usize % pool.len()];
        let op = first_op + ops;
        match attempt(w, ctx, seed, op, tracer, layers) {
            Ok(done) => {
                samples_ms.push(done.elapsed.as_secs_f64() * 1000.0);
                seeds.push(seed);
                checker.record(seed, Ok(&done.output));
            }
            Err(e) => {
                eprintln!("perfbench: {} op {op} (seed {seed}) failed: {e}", w.name());
                checker.record(seed, Err(&e));
            }
        }
        ops += 1;
    }
    Window {
        samples_ms,
        seeds,
        wall_s: start.elapsed().as_secs_f64(),
        ops,
    }
}

/// A cold start: the workload's first op in this (fresh) process.
struct ColdStart {
    /// Start of the workload to its first completed op, s.
    setup_s: f64,
    /// Peak resident set of this process and its worker children, kB.
    peak_kb: u64,
}

/// Run the workload's first op, timing it from the workload's start.
fn setup_once(w: Workload, ctx: &Ctx, pool: &[u64]) -> (ColdStart, Result<Done, String>) {
    let rss = RssSampler::start();
    let t0 = Instant::now();
    let done = match w {
        Workload::CampaignSweep => ctx.write_plans(pool).map_err(|e| e.to_string()),
        _ => Ok(()),
    }
    .and_then(|()| {
        attempt(
            w,
            ctx,
            pool[0],
            0,
            &mut Tracer::disabled(),
            &mut Layers::default(),
        )
    });
    let setup_s = t0.elapsed().as_secs_f64();
    let peak_kb = rss.take_peak().max(self_peak_kb());
    (ColdStart { setup_s, peak_kb }, done)
}

/// A cold start in a fresh child process of this binary.
fn setup_in_child(args: &Args, w: Workload) -> Result<ColdStart, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg("--probe-setup")
        .args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .arg("--repro")
        .arg(&args.repro)
        .arg("--root")
        .arg(&args.root)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start setup probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("setup probe exited with {}", out.status));
    }
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.trim().parse::<f64>().ok())
            .ok_or_else(|| format!("setup probe printed no {key}"))
    };
    Ok(ColdStart {
        setup_s: field("setup_s ")?,
        peak_kb: field("peak_rss_kb ")? as u64,
    })
}

fn make_ctx(args: &Args, w: Workload, jobs: usize) -> Result<Ctx, String> {
    let goldens = load_goldens(&args.root.join("crates/bench/tests/golden"))?;
    let work = args.root.join(".bench_work").join(format!(
        "run-{}-s{}-p{}",
        w.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    Ok(Ctx {
        repro: args.repro.clone(),
        work,
        jobs,
        goldens,
    })
}

/// One workload's outcome.
struct Outcome {
    workload: Workload,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Rendered JSON values describing how the numbers were obtained.
    provenance: Vec<(&'static str, String)>,
    /// Per-layer metrics with no value, and why.
    absent: BTreeMap<String, String>,
    /// Human-readable detail printed after each metric.
    notes: BTreeMap<String, String>,
}

fn metric(name: &str, unit: &str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit: unit.to_string(),
        value,
    }
}

fn seeds_json(seeds: &[u64]) -> String {
    json_list(seeds.iter().map(|&s| s as f64))
}

fn json_list(xs: impl Iterator<Item = f64>) -> String {
    format!("[{}]", xs.map(json_num).collect::<Vec<_>>().join(", "))
}

/// `{seed: [ops, median ms]}` of a window.
fn per_seed_json(win: &Window) -> String {
    let mut by_seed: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for (seed, ms) in win.seeds.iter().zip(&win.samples_ms) {
        by_seed.entry(*seed).or_default().push(*ms);
    }
    let body: Vec<String> = by_seed
        .iter()
        .map(|(seed, v)| {
            format!(
                "\"{seed}\": [{}, {}]",
                v.len(),
                json_num(median(v).unwrap_or(f64::NAN))
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn check(w: Workload, ctx: &Ctx, checker: &Checker) -> (u64, u64) {
    let failed = checker.failed(|seed| reference(w, ctx, seed));
    (checker.attempted(), failed)
}

fn run_timed(args: &Args, w: Workload, ctx: &Ctx, pool: &[u64]) -> Outcome {
    let mut checker = Checker::default();
    let (cold, first) = setup_once(w, ctx, pool);
    checker.record(
        pool[0],
        first.as_ref().map(|d| &d.output).map_err(String::as_str),
    );
    let mut colds = vec![cold];
    for _ in 0..SETUP_PROBES {
        match setup_in_child(args, w) {
            Ok(c) => colds.push(c),
            Err(e) => {
                eprintln!("perfbench: {e}");
                checker.record(pool[0], Err(&e));
            }
        }
    }

    let setups: Vec<f64> = colds.iter().map(|c| c.setup_s).collect();
    let peaks_kb: Vec<f64> = colds.iter().map(|c| c.peak_kb as f64).collect();
    let cpu0 = cpu_ms();
    let win = measure(
        w,
        ctx,
        pool,
        args.seconds as f64,
        1,
        &mut Tracer::disabled(),
        &mut Layers::default(),
        &mut checker,
    );
    let cpu1 = cpu_ms();
    let (attempted, failed) = check(w, ctx, &checker);

    let done = win.samples_ms.len();
    let t = tail(&win.samples_ms);
    let (tail_ms, tail_note) = match t {
        Some(t) => (
            t.value,
            format!(
                "p{:.1} of {} samples, {} beyond",
                t.percentile, t.samples, t.beyond
            ),
        ),
        None => (
            win.samples_ms.iter().copied().fold(f64::NAN, f64::max),
            format!(
                "max of {} samples: too few for {} beyond any percentile",
                done,
                stats::TAIL_BEYOND
            ),
        ),
    };
    let cpu = match (cpu0, cpu1) {
        (Some(a), Some(b)) if done > 0 => (b - a) / done as f64,
        _ => f64::NAN,
    };
    let metrics = vec![
        metric("setup_s", "s", median(&setups).unwrap_or(f64::NAN)),
        metric(
            "audits_per_s",
            "1/s",
            (done * w.audits_per_op()) as f64 / win.wall_s,
        ),
        metric(
            "audit_ms_p50",
            "ms",
            median(&win.samples_ms).unwrap_or(f64::NAN),
        ),
        metric("audit_ms_tail", "ms", tail_ms),
        metric("cpu_ms_per_audit", "ms", cpu),
        metric(
            "peak_rss_mb",
            "MB",
            median(&peaks_kb).unwrap_or(f64::NAN) * 1024.0 / 1e6,
        ),
    ];
    let mut notes = BTreeMap::new();
    notes.insert(
        "setup_s".to_string(),
        format!("median of {} cold starts", setups.len()),
    );
    notes.insert(
        "audits_per_s".to_string(),
        format!(
            "{done} ops x {} audits in {:.3} s",
            w.audits_per_op(),
            win.wall_s
        ),
    );
    notes.insert("audit_ms_p50".to_string(), format!("{done} samples"));
    notes.insert("audit_ms_tail".to_string(), tail_note);
    notes.insert(
        "cpu_ms_per_audit".to_string(),
        "user+sys per op, reaped children included".to_string(),
    );
    notes.insert(
        "peak_rss_mb".to_string(),
        format!(
            "median over {} cold starts, worker children included",
            peaks_kb.len()
        ),
    );
    let provenance = vec![
        ("setup_samples_s", json_list(setups.iter().copied())),
        (
            "peak_samples_mb",
            json_list(peaks_kb.iter().map(|kb| kb * 1024.0 / 1e6)),
        ),
        ("samples", done.to_string()),
        ("ops_started", win.ops.to_string()),
        ("window_s", json_num(win.wall_s)),
        (
            "tail_percentile",
            t.map_or("null".to_string(), |t| json_num(t.percentile)),
        ),
        (
            "fail_ratio",
            json_num(failed as f64 / attempted.max(1) as f64),
        ),
        ("seeds_used", seeds_json(&checker.seeds())),
        ("vmhwm_mb", json_num(self_peak_kb() as f64 * 1024.0 / 1e6)),
        ("per_seed_ms", per_seed_json(&win)),
    ];
    Outcome {
        workload: w,
        attempted,
        failed,
        metrics,
        provenance,
        absent: BTreeMap::new(),
        notes,
    }
}

fn run_traced(args: &Args, w: Workload, ctx: &Ctx, pool: &[u64]) -> Outcome {
    let mut checker = Checker::default();
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let probed = catch_unwind(AssertUnwindSafe(|| match w {
        Workload::CampaignSweep => ctx
            .write_plans(pool)
            .map_err(|e| e.to_string())
            .and_then(|()| probe::cells(ctx, pool[0], &mut tracer, &mut layers)),
        _ => probe::analysis(w, ctx, pool[0], &mut tracer, &mut layers),
    }))
    .unwrap_or_else(|_| Err("layer probe panicked".to_string()));
    if let Err(e) = probed {
        eprintln!("perfbench: {e}");
        checker.record(pool[0], Err(&e));
    }

    // Half the time untraced, half traced: the throughput ratio of the two
    // halves is the tracing overhead.
    let half = args.seconds as f64 / 2.0;
    let plain = measure(
        w,
        ctx,
        pool,
        half,
        1,
        &mut Tracer::disabled(),
        &mut Layers::default(),
        &mut checker,
    );
    let traced = measure(
        w,
        ctx,
        pool,
        half,
        1 + plain.ops,
        &mut tracer,
        &mut layers,
        &mut checker,
    );
    if w != Workload::CampaignSweep {
        let probed = catch_unwind(AssertUnwindSafe(|| {
            probe::campaign_overhead(ctx, pool[0], &mut tracer, &mut layers)
        }))
        .unwrap_or_else(|_| Err("campaign probe panicked".to_string()));
        if let Err(e) = probed {
            eprintln!("perfbench: {e}");
            checker.record(pool[0], Err(&e));
        }
    }
    let (a, b) = (plain.ops_per_s(), traced.ops_per_s());
    layers.put(
        "obs.trace_overhead_pct",
        (a > 0.0 && b > 0.0).then(|| (a / b - 1.0) * 100.0),
        "no op completed in one of the halves",
    );
    let (attempted, failed) = check(w, ctx, &checker);

    let results = args.root.join(".bench_work").join("results");
    let trace_path = results.join(format!(
        "trace-{}-s{}-p{}.jsonl",
        w.name(),
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&results)
        .and_then(|()| std::fs::write(&trace_path, tracer.to_jsonl()))
    {
        eprintln!("perfbench: cannot write {}: {e}", trace_path.display());
    }

    let mut metrics = Vec::new();
    let mut absent = BTreeMap::new();
    for (name, unit) in per_layer() {
        let value = layers.median(&name);
        if let Some(why) = layers.why_absent(&name) {
            absent.insert(name.clone(), why.to_string());
        }
        metrics.push(metric(&name, unit, value.unwrap_or(0.0)));
    }
    let mut notes = BTreeMap::new();
    for (name, why) in &absent {
        notes.insert(name.clone(), format!("absent: {why}"));
    }
    let provenance = vec![
        ("untraced_ops", plain.samples_ms.len().to_string()),
        ("traced_ops", traced.samples_ms.len().to_string()),
        ("layer_samples", layers.counts_json()),
        (
            "fail_ratio",
            json_num(failed as f64 / attempted.max(1) as f64),
        ),
        ("seeds_used", seeds_json(&checker.seeds())),
        ("trace_file", json_str(&trace_path.to_string_lossy())),
        ("span_summary", json_str(&tracer.summary())),
    ];
    Outcome {
        workload: w,
        attempted,
        failed,
        metrics,
        provenance,
        absent,
        notes,
    }
}

fn print_outcome(args: &Args, o: &Outcome, pool: &[u64], jobs: usize) -> String {
    println!(
        "== {} (workload seed {}, {} s, trace {}) ==",
        o.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in &o.metrics {
        let note = o.notes.get(&m.name).map_or("", String::as_str);
        println!("{:<34} {:>14.4} {:<6} {note}", m.name, m.value, m.unit);
    }
    println!(
        "{:<34} {:>14.4} {:<6} {} of {} ops failed",
        "fail_ratio",
        o.failed as f64 / o.attempted.max(1) as f64,
        "ratio",
        o.failed,
        o.attempted
    );
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fields: Vec<(&str, String)> = vec![
        ("workload", json_str(o.workload.name())),
        ("workload_seed", args.seed.to_string()),
        ("seeds", seeds_json(pool)),
        ("nproc", nproc.to_string()),
        ("jobs", jobs.to_string()),
        ("commit", json_str(&args.commit)),
        ("source_hash", json_str(&args.source)),
        ("run_seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("attempted", o.attempted.to_string()),
        ("failed", o.failed.to_string()),
    ];
    fields.extend(o.provenance.iter().cloned());
    fields.push(("absent", json_str_map(&o.absent)));
    let prov = json_obj(&fields);
    println!("{}", json_obj(&[("provenance", prov.clone())]));
    prov
}

fn write_result(args: &Args, name: &str, provenance: &str, line: &str) {
    let dir = args.root.join(".bench_work").join("results");
    let path = dir.join(format!(
        "{name}-s{}-trace{}-p{}.json",
        args.seed,
        u8::from(args.trace),
        std::process::id()
    ));
    let body = json_obj(&[
        ("provenance", provenance.to_string()),
        ("result", line.to_string()),
    ]) + "\n";
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn remove_dir(dir: &Path) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        if e.kind() != std::io::ErrorKind::NotFound {
            eprintln!("perfbench: cannot remove {}: {e}", dir.display());
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workloads: Vec<Workload> = match Workload::parse(&args.workload) {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };

    if args.probe_setup {
        let w = workloads[0];
        let pool = seed_pool(w, args.seed);
        let code = match make_ctx(&args, w, jobs) {
            Ok(ctx) => {
                let (cold, done) = setup_once(w, &ctx, &pool);
                remove_dir(&ctx.work);
                match done {
                    Ok(_) => {
                        println!("setup_s {}", json_num(cold.setup_s));
                        println!("peak_rss_kb {}", cold.peak_kb);
                        0
                    }
                    Err(e) => {
                        eprintln!("perfbench: setup op failed: {e}");
                        1
                    }
                }
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                1
            }
        };
        std::process::exit(code);
    }

    let mut all_metrics = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for &w in &workloads {
        let pool = seed_pool(w, args.seed);
        let ctx = match make_ctx(&args, w, jobs) {
            Ok(ctx) => ctx,
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        };
        let outcome = if args.trace {
            run_traced(&args, w, &ctx, &pool)
        } else {
            run_timed(&args, w, &ctx, &pool)
        };
        remove_dir(&ctx.work);
        let prov = print_outcome(&args, &outcome, &pool, jobs);
        write_result(
            &args,
            w.name(),
            &prov,
            &result_line(outcome.attempted, outcome.failed, &outcome.metrics),
        );
        attempted += outcome.attempted;
        failed += outcome.failed;
        for m in outcome.metrics {
            if workloads.len() == 1 {
                all_metrics.push(m);
            } else {
                all_metrics.push(Metric {
                    name: format!("{}.{}", w.name(), m.name),
                    ..m
                });
            }
        }
    }
    debug_assert!(all_metrics.iter().all(|m| valid_name(&m.name)));
    debug_assert!(args.trace || all_metrics.len() % END_TO_END.len() == 0);
    println!("{}", result_line(attempted, failed, &all_metrics));
}
