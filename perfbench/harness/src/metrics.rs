//! Metric catalogue, name rules and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics of a timed run, `(name, unit)`, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("audits_per_s", "1/s"),
    ("audit_ms_p50", "ms"),
    ("audit_ms_tail", "ms"),
    ("cpu_ms_per_audit", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The artifacts whose render time is reported one by one: the ones that
/// take measurable time, plus `defenses`.
pub const RENDER_ARTIFACTS: &[&str] = &[
    "table5", "table6", "figure3", "table10", "figure6", "figure7", "table13", "table13p",
    "table14", "validate", "liars", "defenses",
];

/// Per-layer metrics of a traced run, `(name, unit)`, grouped by layer.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &str)] = &[
        ("platform.marketplace_ms", "ms"),
        ("platform.interact_ms", "ms"),
        ("adtech.web_ms", "ms"),
        ("adtech.crawl_ms", "ms"),
        ("adtech.crawl_visits", "count"),
        ("adtech.crawl_bids", "count"),
        ("adtech.crawl_us_per_visit", "us"),
        ("adtech.audio_ms", "ms"),
        ("net.avs_ms", "ms"),
        ("net.tap_flows", "count"),
        ("net.tap_mb", "MB"),
        ("policy.download_ms", "ms"),
        ("policy.documents", "count"),
        ("fault.injected", "count"),
        ("fault.retries", "count"),
        ("fault.losses", "count"),
        ("fault.retry_ratio", "ratio"),
        ("exec.fanout_ms", "ms"),
        ("exec.shard_busy_ms", "ms"),
        ("exec.overhead_ms", "ms"),
        ("exec.shard_skew", "ratio"),
        ("exec.workers_spawned", "count"),
        ("exec.shards_lost", "count"),
        ("exec.worker_crashes", "count"),
        ("audit.execute_ms", "ms"),
        ("audit.execute_alloc_mb", "MB"),
        ("audit.index_ms", "ms"),
        ("audit.index_alloc_mb", "MB"),
        ("audit.defended_ms", "ms"),
        ("audit.defended_alloc_mb", "MB"),
        ("audit.defended_index_ms", "ms"),
        ("audit.defended_rss_mb", "MB"),
        ("audit.render_ms", "ms"),
        ("audit.render_alloc_mb", "MB"),
        ("audit.render_kb", "kB"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    out.extend(
        RENDER_ARTIFACTS
            .iter()
            .map(|a| (format!("audit.render_ms.{a}"), "ms")),
    );
    out.extend(
        [
            ("obs.bundle_ms", "ms"),
            ("obs.bundle_kb", "kB"),
            ("obs.report_ms", "ms"),
            ("obs.trace_overhead_pct", "%"),
            ("bench.campaign_overhead_ms", "ms"),
        ]
        .iter()
        .map(|(n, u)| (n.to_string(), *u)),
    );
    out
}

/// Whether `name` is a legal metric or workload name: 1 to 64 letters,
/// digits, `_`, `.` and `-`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 letters, digits, `_`, `/`, `%`,
/// `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Unit (see [`valid_unit`]).
    pub unit: String,
    /// The measured value, with all its digits.
    pub value: f64,
}

/// A JSON number with every digit of `x` (Rust's shortest round-trip
/// decimal form, never an exponent). Non-finite values have no JSON form
/// and render as `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`, each
/// metric as `{"value": .., "unit": ..}`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0 && attempted > 0
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&m.name),
            json_num(m.value),
            json_str(&m.unit)
        );
    }
    out.push_str("}}");
    out
}

/// A flat JSON object from already-rendered values.
pub fn json_obj(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON object of string values.
pub fn json_str_map(map: &BTreeMap<String, String>) -> String {
    let body: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexa_obs::Json;

    #[test]
    fn name_charset() {
        for ok in ["setup_s", "audit.render_ms.table13p", "a", "9x", "x-y.z_w"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "a/b",
            "a%",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "%", "count", "MB", "kB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "a\"b", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn every_catalogued_metric_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .chain(per_layer());
        for (name, unit) in all {
            assert!(valid_name(&name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(name.clone()), "duplicate metric {name}");
        }
        assert!(seen.len() <= 16 + 128);
    }

    /// The catalogue here and the one the benchmark declares must agree.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let name = m.get("name").and_then(Json::as_str).expect("name");
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    (name.to_string(), unit.to_string())
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }

    #[test]
    fn result_line_parses_and_keeps_all_digits() {
        let line = result_line(
            3,
            1,
            &[Metric {
                name: "audit_ms_p50".into(),
                unit: "ms".into(),
                value: 231.123456789,
            }],
        );
        let doc = Json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(3));
        assert!(line.contains("231.123456789"));
        assert_eq!(json_num(1e-7), "0.0000001");
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\n\"");
    }
}
