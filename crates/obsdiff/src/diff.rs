//! The bundle diff engine: every way two run ledgers can disagree.

use crate::bundle::LoadedBundle;
use alexa_obs::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How much a difference matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Context, not a failure: different seeds, an added stage, ...
    Note,
    /// The bundles differ where equal inputs should produce equal bytes.
    Drift,
    /// A loss: removed structure, work/percentile growth beyond the
    /// threshold, a coverage drop, a determinism break.
    Regression,
}

impl Severity {
    /// Lowercase label used in both output formats.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Drift => "drift",
            Severity::Regression => "regression",
        }
    }
}

/// One observed difference between two bundles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// How much this difference matters.
    pub severity: Severity,
    /// Machine-stable category (`stage-work`, `counter`, `coverage`, ...).
    pub category: &'static str,
    /// What differs (a stage, counter, section or shard name).
    pub subject: String,
    /// Human-readable explanation with both values.
    pub detail: String,
}

/// Knobs for [`diff_bundles`].
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Maximum tolerated percentage growth of a stage's work, a group's
    /// p99, or a shard's work before the difference escalates from drift to
    /// regression. Default 25.
    pub max_regress_pct: f64,
    /// Maximum tolerated percentage growth of a stage's or shard's
    /// allocated bytes (the `memory.json` plane) before drift escalates to
    /// regression. Allocation counts are structural like work units, so the
    /// default gate is tighter than the work gate: 10.
    pub max_alloc_regress_pct: f64,
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions {
            max_regress_pct: 25.0,
            max_alloc_regress_pct: 10.0,
        }
    }
}

/// The outcome of comparing two bundles.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// Every difference found, in comparison order.
    pub findings: Vec<Finding>,
}

impl DiffReport {
    /// Whether the bundles are equivalent: nothing beyond [`Severity::Note`].
    pub fn clean(&self) -> bool {
        self.findings.iter().all(|f| f.severity == Severity::Note)
    }

    /// Whether any difference reached [`Severity::Regression`].
    pub fn has_regression(&self) -> bool {
        self.findings
            .iter()
            .any(|f| f.severity == Severity::Regression)
    }

    fn count(&self, sev: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == sev).count()
    }

    fn push(&mut self, severity: Severity, category: &'static str, subject: &str, detail: String) {
        self.findings.push(Finding {
            severity,
            category,
            subject: subject.to_string(),
            detail,
        });
    }

    /// Human-readable listing, one finding per line, worst first.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        let mut ordered: Vec<&Finding> = self.findings.iter().collect();
        ordered.sort_by_key(|f| std::cmp::Reverse(f.severity));
        for f in ordered {
            let _ = writeln!(
                out,
                "[{:<10}] {:<14} {}: {}",
                f.severity.label(),
                f.category,
                f.subject,
                f.detail
            );
        }
        let _ = writeln!(
            out,
            "{} regression(s), {} drift(s), {} note(s) — {}",
            self.count(Severity::Regression),
            self.count(Severity::Drift),
            self.count(Severity::Note),
            if self.clean() {
                "bundles equivalent"
            } else {
                "bundles differ"
            }
        );
        out
    }

    /// Machine-readable report (`--format json`).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("clean".to_string(), Json::Bool(self.clean())),
            (
                "regressions".to_string(),
                Json::Int(self.count(Severity::Regression) as u64),
            ),
            (
                "drifts".to_string(),
                Json::Int(self.count(Severity::Drift) as u64),
            ),
            (
                "notes".to_string(),
                Json::Int(self.count(Severity::Note) as u64),
            ),
            (
                "findings".to_string(),
                Json::Arr(
                    self.findings
                        .iter()
                        .map(|f| {
                            Json::Obj(vec![
                                (
                                    "severity".to_string(),
                                    Json::Str(f.severity.label().to_string()),
                                ),
                                ("category".to_string(), Json::Str(f.category.to_string())),
                                ("subject".to_string(), Json::Str(f.subject.clone())),
                                ("detail".to_string(), Json::Str(f.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Flatten a JSON object of `name -> Int` into an ordered map.
fn int_map<'a>(doc: &'a Json, key: &str) -> BTreeMap<&'a str, u64> {
    let mut out = BTreeMap::new();
    if let Some(fields) = doc.get(key).and_then(Json::as_obj) {
        for (name, v) in fields {
            if let Some(n) = v.as_u64() {
                out.insert(name.as_str(), n);
            }
        }
    }
    out
}

/// Percentage growth from `a` to `b`; `None` when `a` is zero and `b` grew
/// (infinite growth — always beyond any threshold).
fn growth_pct(a: u64, b: u64) -> Option<f64> {
    if a == 0 {
        return if b == 0 { Some(0.0) } else { None };
    }
    Some((b as f64 - a as f64) / a as f64 * 100.0)
}

/// Compare two `name -> value` maps, reporting removals as regressions,
/// additions as notes, and value changes as drift — escalating to
/// regression when growth exceeds the gate percentage (`gate: Some(pct)`;
/// `None` never escalates).
fn diff_int_maps(
    report: &mut DiffReport,
    a: &BTreeMap<&str, u64>,
    b: &BTreeMap<&str, u64>,
    category: &'static str,
    what: &str,
    unit: &str,
    gate: Option<f64>,
) {
    for (name, av) in a {
        match b.get(name) {
            None => report.push(
                Severity::Regression,
                category,
                name,
                format!("{what} present in baseline but missing from candidate"),
            ),
            Some(bv) if bv == av => {}
            Some(bv) => {
                let beyond = match growth_pct(*av, *bv) {
                    None => true,
                    Some(pct) => gate.is_some_and(|max| pct > max),
                };
                let sev = if gate.is_some() && beyond {
                    Severity::Regression
                } else {
                    Severity::Drift
                };
                let pct = growth_pct(*av, *bv)
                    .map(|p| format!("{p:+.1}%"))
                    .unwrap_or_else(|| "from zero".to_string());
                report.push(sev, category, name, format!("{av} -> {bv} {unit} ({pct})"));
            }
        }
    }
    for name in b.keys() {
        if !a.contains_key(name) {
            report.push(
                Severity::Note,
                category,
                name,
                format!("{what} only in candidate"),
            );
        }
    }
}

/// Diff the identity facts in the manifests.
fn diff_manifests(report: &mut DiffReport, a: &LoadedBundle, b: &LoadedBundle) {
    let same_seed = a.seed() == b.seed();
    let same_profile = a.fault_profile() == b.fault_profile();
    if !same_seed {
        report.push(
            Severity::Note,
            "manifest",
            "seed",
            format!(
                "{:?} vs {:?} (comparing different runs)",
                a.seed(),
                b.seed()
            ),
        );
    }
    if !same_profile {
        report.push(
            Severity::Note,
            "manifest",
            "fault_profile",
            format!("{:?} vs {:?}", a.fault_profile(), b.fault_profile()),
        );
    }
    if a.observations_digest() != b.observations_digest() {
        if same_seed && same_profile {
            // Equal inputs must produce equal observations: this is a
            // determinism break, the strongest finding this tool can make.
            report.push(
                Severity::Regression,
                "determinism",
                "observations_digest",
                format!(
                    "{:?} vs {:?} with identical seed and fault profile",
                    a.observations_digest(),
                    b.observations_digest()
                ),
            );
        } else {
            report.push(
                Severity::Note,
                "manifest",
                "observations_digest",
                "differs (expected across different runs)".to_string(),
            );
        }
    }
}

/// Diff the embedded coverage reports, when present.
fn diff_coverage(report: &mut DiffReport, a: &LoadedBundle, b: &LoadedBundle) {
    let (Some(ca), Some(cb)) = (a.coverage(), b.coverage()) else {
        if a.coverage().is_some() != b.coverage().is_some() {
            report.push(
                Severity::Note,
                "coverage",
                "presence",
                "only one bundle embeds a coverage report".to_string(),
            );
        }
        return;
    };
    // Sections: a drop in the observed/expected ratio is a regression.
    let sections = |c: &Json| -> BTreeMap<String, (u64, u64)> {
        let mut out = BTreeMap::new();
        if let Some(fields) = c.get("sections").and_then(Json::as_obj) {
            for (name, v) in fields {
                let observed = v.get("observed").and_then(Json::as_u64).unwrap_or(0);
                let expected = v.get("expected").and_then(Json::as_u64).unwrap_or(0);
                out.insert(name.clone(), (observed, expected));
            }
        }
        out
    };
    let (sa, sb) = (sections(ca), sections(cb));
    for (name, (ao, ae)) in &sa {
        match sb.get(name) {
            None => report.push(
                Severity::Regression,
                "coverage",
                name,
                "section present in baseline but missing from candidate".to_string(),
            ),
            Some((bo, be)) => {
                let ratio = |o: u64, e: u64| if e == 0 { 1.0 } else { o as f64 / e as f64 };
                let (ra, rb) = (ratio(*ao, *ae), ratio(*bo, *be));
                if rb < ra {
                    report.push(
                        Severity::Regression,
                        "coverage",
                        name,
                        format!(
                            "{ao}/{ae} ({:.1}%) -> {bo}/{be} ({:.1}%)",
                            ra * 100.0,
                            rb * 100.0
                        ),
                    );
                } else if (ao, ae) != (bo, be) {
                    report.push(
                        Severity::Drift,
                        "coverage",
                        name,
                        format!("{ao}/{ae} -> {bo}/{be}"),
                    );
                }
            }
        }
    }
    for name in sb.keys() {
        if !sa.contains_key(name) {
            report.push(
                Severity::Note,
                "coverage",
                name,
                "section only in candidate".to_string(),
            );
        }
    }
    // Fault totals: injected per channel plus retries / losses / backoff.
    let (ia, ib) = (int_map(ca, "injected"), int_map(cb, "injected"));
    diff_int_maps(report, &ia, &ib, "fault", "fault channel", "injected", None);
    for field in ["retries", "backoff_ms", "losses"] {
        let get = |c: &Json| c.get(field).and_then(Json::as_u64).unwrap_or(0);
        let (av, bv) = (get(ca), get(cb));
        if av != bv {
            report.push(Severity::Drift, "fault", field, format!("{av} -> {bv}"));
        }
    }
    // Newly degraded shards are a robustness regression.
    let degraded = |c: &Json| -> Vec<String> {
        c.get("degraded_shards")
            .and_then(Json::as_arr)
            .map(|items| {
                items
                    .iter()
                    .filter_map(|v| v.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default()
    };
    let (da, db) = (degraded(ca), degraded(cb));
    for shard in &db {
        if !da.contains(shard) {
            report.push(
                Severity::Regression,
                "degraded",
                shard,
                "shard newly degraded in candidate".to_string(),
            );
        }
    }
    for shard in &da {
        if !db.contains(shard) {
            report.push(
                Severity::Note,
                "degraded",
                shard,
                "shard no longer degraded".to_string(),
            );
        }
    }
}

/// Diff per-group percentile summaries from `metrics.json`.
fn diff_summaries(report: &mut DiffReport, a: &LoadedBundle, b: &LoadedBundle, opts: &DiffOptions) {
    let groups = |doc: &Json| -> BTreeMap<String, BTreeMap<&'static str, u64>> {
        let mut out = BTreeMap::new();
        if let Some(fields) = doc.get("summaries").and_then(Json::as_obj) {
            for (group, s) in fields {
                let mut vals = BTreeMap::new();
                for key in ["count", "min", "p50", "p90", "p99", "max", "sum"] {
                    vals.insert(key, s.get(key).and_then(Json::as_u64).unwrap_or(0));
                }
                out.insert(group.clone(), vals);
            }
        }
        out
    };
    let (ga, gb) = (groups(&a.metrics), groups(&b.metrics));
    for (group, va) in &ga {
        let Some(vb) = gb.get(group) else {
            report.push(
                Severity::Regression,
                "summary",
                group,
                "shard group missing from candidate".to_string(),
            );
            continue;
        };
        for (key, av) in va {
            let bv = vb.get(key).copied().unwrap_or(0);
            if *av == bv {
                continue;
            }
            // Percentile growth beyond the threshold gates; anything else
            // (including shrinkage) is drift worth seeing.
            let gated = matches!(*key, "p50" | "p90" | "p99");
            let beyond = match growth_pct(*av, bv) {
                None => true,
                Some(pct) => pct > opts.max_regress_pct,
            };
            let sev = if gated && beyond {
                Severity::Regression
            } else {
                Severity::Drift
            };
            let subject = format!("{group}.{key}");
            report.push(sev, "summary", &subject, format!("{av} -> {bv} work units"));
        }
    }
    for group in gb.keys() {
        if !ga.contains_key(group) {
            report.push(
                Severity::Note,
                "summary",
                group,
                "shard group only in candidate".to_string(),
            );
        }
    }
}

/// Diff the sparse histograms from `metrics.json` (shape equality only —
/// magnitude shifts already surface via summaries and stage work).
fn diff_histograms(report: &mut DiffReport, a: &LoadedBundle, b: &LoadedBundle) {
    let hists = |doc: &Json| -> BTreeMap<String, String> {
        let mut out = BTreeMap::new();
        if let Some(fields) = doc.get("histograms").and_then(Json::as_obj) {
            for (name, h) in fields {
                out.insert(name.clone(), h.render());
            }
        }
        out
    };
    let (ha, hb) = (hists(&a.metrics), hists(&b.metrics));
    for (name, va) in &ha {
        match hb.get(name) {
            None => report.push(
                Severity::Regression,
                "histogram",
                name,
                "histogram missing from candidate".to_string(),
            ),
            Some(vb) if va == vb => {}
            Some(_) => report.push(
                Severity::Drift,
                "histogram",
                name,
                "bucket distribution shifted".to_string(),
            ),
        }
    }
    for name in hb.keys() {
        if !ha.contains_key(name) {
            report.push(
                Severity::Note,
                "histogram",
                name,
                "histogram only in candidate".to_string(),
            );
        }
    }
}

/// Diff shard structure and per-shard work from `trace.json`.
fn diff_shards(report: &mut DiffReport, a: &LoadedBundle, b: &LoadedBundle, opts: &DiffOptions) {
    let shards = |doc: &Json| -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        if let Some(items) = doc.get("shards").and_then(Json::as_arr) {
            for s in items {
                let group = s.get("group").and_then(Json::as_str).unwrap_or("?");
                let index = s.get("index").and_then(Json::as_u64).unwrap_or(0);
                let label = s.get("label").and_then(Json::as_str).unwrap_or("?");
                let work = s.get("work").and_then(Json::as_u64).unwrap_or(0);
                out.insert(format!("{group}[{index}] {label}"), work);
            }
        }
        out
    };
    let (sa, sb) = (shards(&a.trace), shards(&b.trace));
    let sa_ref: BTreeMap<&str, u64> = sa.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let sb_ref: BTreeMap<&str, u64> = sb.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    diff_int_maps(
        report,
        &sa_ref,
        &sb_ref,
        "shard-work",
        "shard",
        "work units",
        Some(opts.max_regress_pct),
    );
}

/// Diff the allocation plane from `memory.json`.
///
/// Allocated bytes per stage and per shard gate at
/// [`DiffOptions::max_alloc_regress_pct`]; allocation counts surface as
/// drift (a count change without a byte change is unusual enough to see,
/// but bytes are what memory budgets are written in). Size histograms are
/// shape-compared like the work histograms. The per-group summaries are
/// derived from the shard values already diffed here, so they are skipped.
fn diff_memory(report: &mut DiffReport, a: &LoadedBundle, b: &LoadedBundle, opts: &DiffOptions) {
    let stage_field = |doc: &Json, field: &str| -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        if let Some(fields) = doc.get("stage_alloc").and_then(Json::as_obj) {
            for (name, v) in fields {
                out.insert(
                    name.clone(),
                    v.get(field).and_then(Json::as_u64).unwrap_or(0),
                );
            }
        }
        out
    };
    fn as_ref(m: &BTreeMap<String, u64>) -> BTreeMap<&str, u64> {
        m.iter().map(|(k, v)| (k.as_str(), *v)).collect()
    }
    let (ba, bb) = (
        stage_field(&a.memory, "bytes"),
        stage_field(&b.memory, "bytes"),
    );
    diff_int_maps(
        report,
        &as_ref(&ba),
        &as_ref(&bb),
        "stage-alloc",
        "stage allocation",
        "alloc bytes",
        Some(opts.max_alloc_regress_pct),
    );
    let (ca, cb) = (
        stage_field(&a.memory, "count"),
        stage_field(&b.memory, "count"),
    );
    diff_int_maps(
        report,
        &as_ref(&ca),
        &as_ref(&cb),
        "stage-alloc-count",
        "stage allocation count",
        "allocations",
        None,
    );
    let shard_bytes = |doc: &Json| -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        if let Some(items) = doc.get("shards").and_then(Json::as_arr) {
            for s in items {
                let group = s.get("group").and_then(Json::as_str).unwrap_or("?");
                let index = s.get("index").and_then(Json::as_u64).unwrap_or(0);
                let label = s.get("label").and_then(Json::as_str).unwrap_or("?");
                let bytes = s.get("alloc_bytes").and_then(Json::as_u64).unwrap_or(0);
                out.insert(format!("{group}[{index}] {label}"), bytes);
            }
        }
        out
    };
    let (sa, sb) = (shard_bytes(&a.memory), shard_bytes(&b.memory));
    diff_int_maps(
        report,
        &as_ref(&sa),
        &as_ref(&sb),
        "shard-alloc",
        "shard allocation",
        "alloc bytes",
        Some(opts.max_alloc_regress_pct),
    );
    let hists = |doc: &Json| -> BTreeMap<String, String> {
        let mut out = BTreeMap::new();
        if let Some(fields) = doc.get("size_histograms").and_then(Json::as_obj) {
            for (name, h) in fields {
                out.insert(name.clone(), h.render());
            }
        }
        out
    };
    let (ha, hb) = (hists(&a.memory), hists(&b.memory));
    for (name, va) in &ha {
        match hb.get(name) {
            None => report.push(
                Severity::Regression,
                "alloc-sizes",
                name,
                "allocation-size histogram missing from candidate".to_string(),
            ),
            Some(vb) if va == vb => {}
            Some(_) => report.push(
                Severity::Drift,
                "alloc-sizes",
                name,
                "allocation-size distribution shifted".to_string(),
            ),
        }
    }
    for name in hb.keys() {
        if !ha.contains_key(name) {
            report.push(
                Severity::Note,
                "alloc-sizes",
                name,
                "allocation-size histogram only in candidate".to_string(),
            );
        }
    }
}

/// Compare two loaded bundles, baseline first.
///
/// The report distinguishes context notes (different seeds), drift (values
/// differ where equal inputs should agree byte-for-byte) and regressions
/// (structure lost, growth beyond `opts.max_regress_pct`, coverage drops,
/// determinism breaks). Identical bundles produce an empty report.
pub fn diff_bundles(a: &LoadedBundle, b: &LoadedBundle, opts: &DiffOptions) -> DiffReport {
    let mut report = DiffReport::default();
    diff_manifests(&mut report, a, b);
    // Stage work from metrics.json: removed stages and big growth gate.
    let (stages_a, stages_b) = (int_map(&a.metrics, "stages"), int_map(&b.metrics, "stages"));
    diff_int_maps(
        &mut report,
        &stages_a,
        &stages_b,
        "stage-work",
        "stage",
        "work units",
        Some(opts.max_regress_pct),
    );
    // Counter totals (includes fault.* when a fault profile was active).
    let (counters_a, counters_b) = (
        int_map(&a.metrics, "counters"),
        int_map(&b.metrics, "counters"),
    );
    diff_int_maps(
        &mut report,
        &counters_a,
        &counters_b,
        "counter",
        "counter",
        "",
        None,
    );
    diff_summaries(&mut report, a, b, opts);
    diff_histograms(&mut report, a, b);
    diff_shards(&mut report, a, b, opts);
    diff_memory(&mut report, a, b, opts);
    diff_coverage(&mut report, a, b);
    // The folded profile: byte-compare, report the line-level delta size.
    if a.profile != b.profile {
        let la: std::collections::BTreeSet<&str> = a.profile.lines().collect();
        let lb: std::collections::BTreeSet<&str> = b.profile.lines().collect();
        let only_a = la.difference(&lb).count();
        let only_b = lb.difference(&la).count();
        report.push(
            Severity::Drift,
            "profile",
            "profile.folded",
            format!("{only_a} line(s) only in baseline, {only_b} only in candidate"),
        );
    }
    report
}
