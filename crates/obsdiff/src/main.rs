//! `obs-diff` — compare run-ledger bundles and gate bench regressions.
//!
//! ```sh
//! obs-diff diff RUN_A RUN_B                 # full cross-run comparison
//! obs-diff diff A B --max-regress 10        # tighter growth threshold (%)
//! obs-diff diff A B --max-alloc-regress 5   # tighter allocation threshold (%)
//! obs-diff diff A B --format json           # machine-readable findings
//! obs-diff gate --baseline B --candidate C  # bench gate (BENCH_audit.json)
//! obs-diff gate ... --max-regress 25        # wall-clock threshold in percent
//! obs-diff gate ... --max-alloc-regress 10  # per-stage alloc-bytes threshold (%)
//! obs-diff campaign CAMPAIGN_DIR            # verify a campaign directory
//! ```
//!
//! # Exit codes
//!
//! * `0` — bundles equivalent / gate passed.
//! * `1` — drift or regression found / gate failed.
//! * `2` — usage error, unreadable or malformed input.

use alexa_obsdiff::{check_campaign, diff_bundles, load_bundle, run_gate, DiffOptions};
use std::io::Write;
use std::path::Path;

/// Print to stdout, flushing at once. `print!` panics when stdout fails (a
/// full disk, a closed pipe), which would break the exit-code contract; a
/// failed write here is an I/O failure instead: a message, then exit 1.
fn print_stdout(args: std::fmt::Arguments) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_fmt(args).and_then(|()| out.flush()) {
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1); // analyzer:allow(AS04) -- fatal I/O failure: this bin's contract maps failure to 1
    }
}

fn usage(code: i32) -> ! {
    eprintln!(
        "usage: obs-diff diff BASELINE_DIR CANDIDATE_DIR [--max-regress PCT] [--max-alloc-regress PCT] [--format human|json]\n\
                obs-diff gate --baseline FILE --candidate FILE [--max-regress PCT] [--max-alloc-regress PCT] [--format human|json]\n\
                obs-diff campaign CAMPAIGN_DIR [--format human|json]"
    );
    std::process::exit(code);
}

/// Output format of either subcommand.
#[derive(PartialEq)]
enum Format {
    Human,
    Json,
}

fn parse_format(value: &str) -> Format {
    match value {
        "human" => Format::Human,
        "json" => Format::Json,
        other => {
            eprintln!("error: unknown format {other:?} (expected human or json)");
            std::process::exit(2);
        }
    }
}

fn parse_pct(flag: &str, value: &str) -> f64 {
    let pct: f64 = value.parse().unwrap_or_else(|_| {
        eprintln!("error: {flag} expects a percentage (e.g. 25)");
        std::process::exit(2);
    });
    if !(0.0..=1000.0).contains(&pct) {
        eprintln!("error: {flag} expects a percentage in [0, 1000]");
        std::process::exit(2);
    }
    pct
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage(2);
    };
    match command.as_str() {
        "diff" => cmd_diff(&args[1..]),
        "gate" => cmd_gate(&args[1..]),
        "campaign" => cmd_campaign(&args[1..]),
        "--help" | "-h" => usage(0),
        other => {
            eprintln!("error: unknown command {other:?}");
            usage(2);
        }
    }
}

fn cmd_diff(args: &[String]) -> ! {
    let mut dirs: Vec<&str> = Vec::new();
    let mut opts = DiffOptions::default();
    let mut format = Format::Human;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-regress" => {
                opts.max_regress_pct = parse_pct("--max-regress", &value(&mut it, "--max-regress"));
            }
            "--max-alloc-regress" => {
                opts.max_alloc_regress_pct = parse_pct(
                    "--max-alloc-regress",
                    &value(&mut it, "--max-alloc-regress"),
                );
            }
            "--format" => format = parse_format(&value(&mut it, "--format")),
            flag if flag.starts_with('-') => {
                eprintln!("error: unknown flag {flag:?}");
                usage(2);
            }
            dir => dirs.push(dir),
        }
    }
    let [a, b] = dirs.as_slice() else {
        eprintln!("error: diff expects exactly two bundle directories");
        usage(2);
    };
    let load = |dir: &str| {
        load_bundle(Path::new(dir)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    };
    let (bundle_a, bundle_b) = (load(a), load(b));
    let report = diff_bundles(&bundle_a, &bundle_b, &opts);
    match format {
        Format::Human => print_stdout(format_args!("{}", report.render_human())),
        Format::Json => print_stdout(format_args!("{}\n", report.to_json().render())),
    }
    std::process::exit(if report.clean() { 0 } else { 1 }); // analyzer:allow(AS04) -- diff gate exit: this bin's contract is 0 clean / 1 drift / 2 error
}

fn cmd_gate(args: &[String]) -> ! {
    let mut baseline: Option<String> = None;
    let mut candidate: Option<String> = None;
    let mut threshold = 0.25;
    let mut alloc_threshold = 0.10;
    let mut format = Format::Human;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => baseline = Some(value(&mut it, "--baseline")),
            "--candidate" => candidate = Some(value(&mut it, "--candidate")),
            "--max-regress" => {
                threshold = parse_pct("--max-regress", &value(&mut it, "--max-regress")) / 100.0;
            }
            "--max-alloc-regress" => {
                alloc_threshold = parse_pct(
                    "--max-alloc-regress",
                    &value(&mut it, "--max-alloc-regress"),
                ) / 100.0;
            }
            "--format" => format = parse_format(&value(&mut it, "--format")),
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage(2);
            }
        }
    }
    let (Some(baseline), Some(candidate)) = (baseline, candidate) else {
        eprintln!("error: gate requires --baseline and --candidate");
        usage(2);
    };
    match run_gate(
        Path::new(&baseline),
        Path::new(&candidate),
        threshold,
        alloc_threshold,
    ) {
        Ok(report) => {
            match format {
                Format::Human => print_stdout(format_args!("{}", report.render_human())),
                Format::Json => print_stdout(format_args!("{}\n", report.to_json().render())),
            }
            std::process::exit(if report.passed() { 0 } else { 1 }); // analyzer:allow(AS04) -- diff gate exit: this bin's contract is 0 clean / 1 drift / 2 error
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

fn cmd_campaign(args: &[String]) -> ! {
    let mut dirs: Vec<&str> = Vec::new();
    let mut format = Format::Human;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => format = parse_format(&value(&mut it, "--format")),
            flag if flag.starts_with('-') => {
                eprintln!("error: unknown flag {flag:?}");
                usage(2);
            }
            dir => dirs.push(dir),
        }
    }
    let [dir] = dirs.as_slice() else {
        eprintln!("error: campaign expects exactly one campaign directory");
        usage(2);
    };
    match check_campaign(Path::new(dir)) {
        Ok(check) => {
            match format {
                Format::Human => print_stdout(format_args!("{}", check.render_human())),
                Format::Json => print_stdout(format_args!("{}\n", check.to_json().render())),
            }
            std::process::exit(if check.clean() { 0 } else { 1 }); // analyzer:allow(AS04) -- diff gate exit: this bin's contract is 0 clean / 1 drift / 2 error
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// The next argument as a flag value, or exit 2.
fn value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> String {
    it.next().cloned().unwrap_or_else(|| {
        eprintln!("error: {flag} expects a value");
        std::process::exit(2);
    })
}
