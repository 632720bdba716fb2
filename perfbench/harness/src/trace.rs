//! The traced run: harness-side spans around each call into a layer, and
//! per-layer figures read by name from the spans and counters the
//! pipeline's `Recorder` already emits.
//!
//! A name the recorder no longer emits is reported as absent with a
//! reason, never as a failure, and the recorder's `aggregates` block is
//! never read: later changes may delete stages or the global recorder
//! without breaking the benchmark.

use crate::metrics::{json_num, json_str};
use crate::stats::median;
use alexa_obs::Report;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call or recorder stage name.
    pub name: String,
    /// The op the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Microseconds since the tracer started.
    pub start_us: u64,
    /// Microseconds since the tracer started.
    pub end_us: u64,
}

/// In-memory span log; written out once, at the end of the run. A disabled
/// tracer records nothing and costs nothing, so timed runs and traced runs
/// share one code path.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Whether spans are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Microseconds since the tracer started.
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Microseconds from the tracer's start to `t`.
    pub fn at_us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_micros() as u64
    }

    /// Open a span (nested under the innermost open one) for op `op`.
    pub fn open(&mut self, name: &str, op: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.op = op;
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            op,
            parent: self.open.last().copied(),
            start_us: self.now_us(),
            end_us: 0,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close the span `id` returned by [`Tracer::open`]; returns its
    /// duration in milliseconds.
    pub fn close(&mut self, id: Option<usize>) -> Option<f64> {
        let id = id?;
        let now = self.now_us();
        self.open.retain(|&o| o != id);
        let span = self.spans.get_mut(id)?;
        span.end_us = now;
        Some((span.end_us - span.start_us) as f64 / 1000.0)
    }

    /// Run `f` inside a span named `name` of the current op.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, self.op);
        let out = f();
        self.close(id);
        out
    }

    /// The duration in milliseconds of the last closed span named `name`.
    pub fn last_ms(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name && s.end_us >= s.start_us)
            .map(|s| (s.end_us - s.start_us) as f64 / 1000.0)
    }

    /// Attach the recorder's top-level stages as child spans of the last of
    /// `parents` (harness span ids, in call order) that started before the
    /// stage, or of the first one. `rec_origin` is taken just before the
    /// recorder was created: stage times count from there, so a stage can
    /// appear to start a few microseconds before its caller's span.
    pub fn adopt_stages(&mut self, report: &Report, rec_origin: Instant, parents: &[usize]) {
        if !self.enabled {
            return;
        }
        let base = self.at_us(rec_origin);
        for stage in report.stages.iter().filter(|s| s.depth == 0) {
            let start = base + stage.start_us;
            let parent = parents
                .iter()
                .copied()
                .rev()
                .find(|&p| self.spans.get(p).is_some_and(|s| s.start_us <= start))
                .or(parents.first().copied());
            if let Some(p) = parent.filter(|&p| p < self.spans.len()) {
                let op = self.spans[p].op;
                self.spans.push(Span {
                    name: stage.name.clone(),
                    op,
                    parent: Some(p),
                    start_us: start,
                    end_us: start + stage.dur_us,
                });
            }
        }
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover (children never overlap each other here).
    pub fn self_us(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_us.saturating_sub(s.start_us);
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.end_us.saturating_sub(s.start_us).saturating_sub(c))
            .collect()
    }

    /// Every span as one JSON line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, (s, own)) in self.spans.iter().zip(self.self_us()).enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"op\": {}, \"parent\": {}, \"name\": {}, \"start_us\": {}, \"end_us\": {}, \"self_us\": {own}}}",
                s.op,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json_str(&s.name),
                s.start_us,
                s.end_us,
            );
        }
        out
    }

    /// Median duration and self time per span name, as table rows.
    pub fn summary(&self) -> String {
        let mut by_name: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_us()) {
            let e = by_name.entry(&s.name).or_default();
            e.0.push(s.end_us.saturating_sub(s.start_us) as f64 / 1000.0);
            e.1.push(own as f64 / 1000.0);
        }
        let mut out =
            String::from("span                          count   median ms  median self ms\n");
        for (name, (dur, own)) in by_name {
            let _ = writeln!(
                out,
                "{name:<28} {:>6} {:>11.3} {:>15.3}",
                dur.len(),
                median(&dur).unwrap_or(0.0),
                median(&own).unwrap_or(0.0)
            );
        }
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Per-layer samples collected over a traced run, plus the reason each
/// metric that never received a sample is absent.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<String, Vec<f64>>,
    absent: BTreeMap<String, String>,
}

impl Layers {
    /// Record a sample of `name`, or the reason it could not be measured.
    pub fn put(&mut self, name: &str, value: Option<f64>, why_absent: &str) {
        match value {
            Some(v) if v.is_finite() => self.samples.entry(name.to_string()).or_default().push(v),
            _ => {
                self.absent
                    .entry(name.to_string())
                    .or_insert_with(|| why_absent.to_string());
            }
        }
    }

    /// Median of the samples of `name`.
    pub fn median(&self, name: &str) -> Option<f64> {
        self.samples.get(name).and_then(|v| median(v))
    }

    /// Why `name` has no value, when it has none.
    pub fn why_absent(&self, name: &str) -> Option<&str> {
        if self.samples.contains_key(name) {
            return None;
        }
        Some(
            self.absent
                .get(name)
                .map_or("not measured on this workload", String::as_str),
        )
    }

    /// Sample counts behind every measured metric, as a JSON object.
    pub fn counts_json(&self) -> String {
        let body: Vec<String> = self
            .samples
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_num(v.len() as f64)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Σ duration (ms) of the recorder's top-level stages named `name`.
pub fn stage_ms(r: &Report, name: &str) -> Option<f64> {
    let hits: Vec<u64> = r
        .stages
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_us)
        .collect();
    (!hits.is_empty()).then(|| hits.iter().sum::<u64>() as f64 / 1000.0)
}

/// Σ duration (ms) of the outermost spans, in shards of `group`, whose name
/// satisfies `pick`.
pub fn spans_ms(r: &Report, group: &str, pick: impl Fn(&str) -> bool) -> Option<f64> {
    let hits: Vec<u64> = r
        .shards_in(group)
        .iter()
        .flat_map(|sh| sh.spans.iter())
        .filter(|s| s.depth == 0 && pick(&s.name))
        .map(|s| s.dur_us)
        .collect();
    (!hits.is_empty()).then(|| hits.iter().sum::<u64>() as f64 / 1000.0)
}

/// Per-shard busy time (ms): Σ of each shard's outermost spans. Spans travel
/// back from worker processes, whole-shard wall times do not.
pub fn shard_busy_ms(r: &Report, group: &str) -> Vec<f64> {
    r.shards_in(group)
        .iter()
        .map(|sh| {
            sh.spans
                .iter()
                .filter(|s| s.depth == 0)
                .map(|s| s.dur_us)
                .sum::<u64>() as f64
                / 1000.0
        })
        .collect()
}

/// Σ of counter `name` over the shards of `groups`; `None` when no shard
/// carries it.
pub fn counter(r: &Report, groups: &[&str], name: &str) -> Option<u64> {
    let hits: Vec<u64> = groups
        .iter()
        .flat_map(|g| r.shards_in(g))
        .filter_map(|sh| sh.counters.get(name).copied())
        .collect();
    (!hits.is_empty()).then(|| hits.iter().sum())
}

/// Σ sealed allocation-window bytes of the shards of `groups`.
pub fn shard_alloc_bytes(r: &Report, groups: &[&str]) -> u64 {
    groups
        .iter()
        .flat_map(|g| r.shards_in(g))
        .map(|sh| sh.alloc_bytes)
        .sum()
}

/// What the harness knows about one executed audit beyond its report.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecFacts {
    /// Harness span around `execute_with`, ms.
    pub execute_ms: f64,
    /// Bytes the harness thread allocated during `execute_with`.
    pub thread_alloc_bytes: u64,
    /// Whether shards ran inline on the harness thread (their windows are
    /// then already inside `thread_alloc_bytes`).
    pub inline_shards: bool,
    /// Worker count the audit ran with.
    pub jobs: usize,
    /// Policy documents downloaded.
    pub policies: u64,
    /// Faults injected / retried / lost, from `Observations.coverage`.
    pub injected: u64,
    /// See `injected`.
    pub retries: u64,
    /// See `injected`.
    pub losses: u64,
}

const MB: f64 = 1_000_000.0;

/// The execute-side layers (platform, adtech, net, policy, fault, exec,
/// audit.execute) of one audit from its recorder report.
pub fn execute_layers(r: &Report, f: &ExecFacts, out: &mut Layers) {
    let no_stage = |s: &str| format!("recorder stage `{s}` not emitted");
    let no_span = |s: &str| format!("recorder span `{s}` not emitted");
    out.put(
        "platform.marketplace_ms",
        stage_ms(r, "marketplace"),
        &no_stage("marketplace"),
    );
    out.put(
        "platform.interact_ms",
        spans_ms(r, "persona", |n| {
            matches!(n, "boot" | "install" | "interact") || n.starts_with("dsar")
        }),
        &no_span("persona/{boot,install,interact,dsar.*}"),
    );
    out.put(
        "adtech.web_ms",
        stage_ms(r, "web.ecosystem"),
        &no_stage("web.ecosystem"),
    );
    let crawl_ms = spans_ms(r, "persona", |n| n == "crawl.pre" || n == "crawl.post");
    out.put(
        "adtech.crawl_ms",
        crawl_ms,
        &no_span("persona/crawl.{pre,post}"),
    );
    let visits = counter(r, &["persona"], "crawl.visits");
    out.put(
        "adtech.crawl_visits",
        visits.map(|v| v as f64),
        "counter `crawl.visits` not emitted",
    );
    out.put(
        "adtech.crawl_bids",
        counter(r, &["persona"], "crawl.bids").map(|v| v as f64),
        "counter `crawl.bids` not emitted",
    );
    out.put(
        "adtech.crawl_us_per_visit",
        match (crawl_ms, visits) {
            (Some(ms), Some(v)) if v > 0 => Some(ms * 1000.0 / v as f64),
            _ => None,
        },
        "needs crawl spans and a non-zero crawl.visits",
    );
    out.put(
        "adtech.audio_ms",
        spans_ms(r, "persona", |n| n == "audio"),
        &no_span("persona/audio"),
    );
    out.put(
        "net.avs_ms",
        spans_ms(r, "avs", |n| n == "skills"),
        &no_span("avs/skills"),
    );
    out.put(
        "net.tap_flows",
        counter(r, &["avs", "persona"], "tap.flows").map(|v| v as f64),
        "counter `tap.flows` not emitted",
    );
    out.put(
        "net.tap_mb",
        counter(r, &["avs", "persona"], "tap.bytes").map(|v| v as f64 / MB),
        "counter `tap.bytes` not emitted",
    );
    out.put(
        "policy.download_ms",
        stage_ms(r, "policy.download"),
        &no_stage("policy.download"),
    );
    out.put("policy.documents", Some(f.policies as f64), "");
    out.put("fault.injected", Some(f.injected as f64), "");
    out.put("fault.retries", Some(f.retries as f64), "");
    out.put("fault.losses", Some(f.losses as f64), "");
    out.put(
        "fault.retry_ratio",
        (f.injected > 0).then(|| f.retries as f64 / f.injected as f64),
        "no faults injected on this workload",
    );

    let fanout = match (stage_ms(r, "avs.pass"), stage_ms(r, "persona.shards")) {
        (Some(a), Some(p)) => Some(a + p),
        _ => None,
    };
    out.put(
        "exec.fanout_ms",
        fanout,
        "stages `avs.pass`/`persona.shards` not emitted",
    );
    let mut busy = shard_busy_ms(r, "avs");
    let persona_busy = shard_busy_ms(r, "persona");
    busy.extend(&persona_busy);
    let busy_ms: f64 = busy.iter().sum();
    out.put(
        "exec.shard_busy_ms",
        (!busy.is_empty()).then_some(busy_ms),
        "no avs/persona shards recorded",
    );
    out.put(
        "exec.overhead_ms",
        fanout
            .filter(|_| !busy.is_empty())
            .map(|fo| fo - busy_ms / f.jobs.max(1) as f64),
        "needs fan-out stages and shard spans",
    );
    let mean = persona_busy.iter().sum::<f64>() / persona_busy.len().max(1) as f64;
    out.put(
        "exec.shard_skew",
        (mean > 0.0).then(|| persona_busy.iter().copied().fold(0.0, f64::max) / mean),
        "no persona shard spans recorded",
    );
    // The recorder drops zero-valued volatile counters; while the backend
    // still reports `backend.shards`, a missing counter means zero.
    let backend_reports = r.volatile.contains_key("backend.shards");
    for (metric, key) in [
        ("exec.workers_spawned", "worker.spawned"),
        ("exec.shards_lost", "backend.lost"),
        ("exec.worker_crashes", "worker.crashes"),
    ] {
        out.put(
            metric,
            r.volatile
                .get(key)
                .map(|&v| v as f64)
                .or(backend_reports.then_some(0.0)),
            "volatile counter `backend.shards` not emitted",
        );
    }

    out.put("audit.execute_ms", Some(f.execute_ms), "");
    let windows = if f.inline_shards {
        0
    } else {
        shard_alloc_bytes(r, &["avs", "persona"])
    };
    out.put(
        "audit.execute_alloc_mb",
        Some((f.thread_alloc_bytes + windows) as f64 / MB),
        "",
    );
}

/// The analysis-side layers (index, defended, render) of one `render_all`
/// pass from its recorder report; `rendered_bytes` is the output size.
pub fn render_layers(r: &Report, rendered_bytes: usize, out: &mut Layers) {
    let no_stage = |s: &str| format!("recorder stage `{s}` not emitted");
    out.put(
        "audit.index_ms",
        stage_ms(r, "index.build"),
        &no_stage("index.build"),
    );
    out.put(
        "audit.defended_ms",
        stage_ms(r, "derive.defended"),
        &no_stage("derive.defended"),
    );
    out.put(
        "audit.defended_index_ms",
        stage_ms(r, "index.defended"),
        &no_stage("index.defended"),
    );
    out.put(
        "audit.render_ms",
        stage_ms(r, "render.all"),
        &no_stage("render.all"),
    );
    let artifacts = r.shards_in("artifact");
    out.put(
        "audit.render_alloc_mb",
        (!artifacts.is_empty()).then(|| shard_alloc_bytes(r, &["artifact"]) as f64 / MB),
        "no artifact shards recorded",
    );
    out.put("audit.render_kb", Some(rendered_bytes as f64 / 1024.0), "");
    for artifact in crate::metrics::RENDER_ARTIFACTS {
        let ms = artifacts
            .iter()
            .find(|sh| sh.label == *artifact)
            .and_then(|sh| sh.spans.iter().find(|s| s.depth == 0 && s.name == "render"))
            .map(|s| s.dur_us as f64 / 1000.0);
        out.put(
            &format!("audit.render_ms.{artifact}"),
            ms,
            &format!("artifact shard `{artifact}` has no `render` span"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.open("op", 1);
        t.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.close(root);
        let own = t.self_us();
        let dur = |i: usize| t.spans[i].end_us - t.spans[i].start_us;
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(own[0], dur(0) - dur(1));
        assert_eq!(own[1], dur(1));
        assert!(t.to_jsonl().lines().count() == 2);
    }

    #[test]
    fn every_stage_is_adopted_by_its_caller_span() {
        let origin = Instant::now();
        let rec = alexa_obs::Recorder::new();
        let mut t = Tracer::new();
        let first = t.open("first", 1);
        rec.stage("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(first);
        let second = t.open("second", 1);
        rec.stage("b", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(second);
        let ids: Vec<usize> = [first, second].into_iter().flatten().collect();
        t.adopt_stages(&rec.report(), origin, &ids);
        let parent_of = |name: &str| {
            t.spans
                .iter()
                .find(|s| s.name == name)
                .and_then(|s| s.parent)
        };
        assert_eq!(parent_of("a"), first);
        assert_eq!(parent_of("b"), second);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let id = t.open("op", 1);
        assert_eq!(t.span("x", || 3), 3);
        assert_eq!(t.close(id), None);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn missing_names_are_absent_not_errors() {
        // An empty report: every stage and span the layers read is gone.
        let report = alexa_obs::Recorder::new().report();
        let mut layers = Layers::default();
        execute_layers(&report, &ExecFacts::default(), &mut layers);
        render_layers(&report, 0, &mut layers);
        assert!(layers.median("platform.marketplace_ms").is_none());
        assert!(layers
            .why_absent("audit.defended_ms")
            .is_some_and(|w| w.contains("derive.defended")));
        // Facts the harness measures itself are always present.
        assert_eq!(layers.median("policy.documents"), Some(0.0));
        assert_eq!(layers.why_absent("fault.injected"), None);
    }
}
