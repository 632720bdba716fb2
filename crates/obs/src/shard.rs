//! Per-shard event logs: spans and counters owned by one unit of work.

use crate::alloc;
use crate::hist::Histogram;
use alexa_json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span inside a shard log.
///
/// Spans are stored in **pre-order** (order of entry), with an explicit
/// nesting depth — a flat encoding of the span tree that is cheap to record
/// and trivial to render. Each span carries two clocks:
///
/// * `start_us` / `dur_us` — monotonic **wall-clock** microseconds relative
///   to the shard's start. Real, but schedule-dependent.
/// * `start_wu` / `dur_wu` — deterministic **work units** from the shard's
///   virtual clock ([`ShardLog::work`]). A pure function of the structural
///   work the shard performed, so identical across worker counts, machines
///   and runs — the timebase of the run-ledger bundle (DESIGN.md §12).
/// * `alloc_count` / `alloc_bytes` — deterministic **allocation deltas**
///   from the thread's meter ([`crate::alloc`]): allocations performed
///   while the span was open (children included). Like the work clock, a
///   pure function of the shard's structural work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Span name from the fixed taxonomy (see DESIGN.md §9).
    pub name: String,
    /// Nesting depth (0 = top level of the shard).
    pub depth: usize,
    /// Microseconds between shard start and span entry.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Work units on the shard's virtual clock at span entry.
    pub start_wu: u64,
    /// Work units accumulated while the span was open (children included).
    pub dur_wu: u64,
    /// Heap allocations performed while the span was open.
    pub alloc_count: u64,
    /// Heap bytes requested while the span was open.
    pub alloc_bytes: u64,
}

/// A single-threaded event log owned by one structural unit of work.
///
/// Created by [`Recorder::shard`](crate::Recorder::shard) inside a
/// `par_map` closure, filled without any locking while the shard runs, and
/// handed back via [`Recorder::submit`](crate::Recorder::submit) when the
/// shard finishes. The recorder merges logs by `(group, index)` key, so the
/// merged order is a pure function of the structural decomposition — never
/// of which worker ran the shard or when it completed.
#[derive(Debug)]
pub struct ShardLog {
    pub(crate) group: String,
    pub(crate) index: usize,
    pub(crate) label: String,
    pub(crate) origin: Instant,
    pub(crate) spans: Vec<SpanRec>,
    pub(crate) counters: BTreeMap<String, u64>,
    pub(crate) vclock: u64,
    pub(crate) alloc_count: u64,
    pub(crate) alloc_bytes: u64,
    pub(crate) alloc_peak: u64,
    pub(crate) alloc_sizes: Histogram,
    depth: usize,
    enabled: bool,
    /// Meter state captured by [`ShardLog::alloc_open`], pending a seal.
    window: Option<(alloc::AllocSnapshot, Histogram)>,
}

impl ShardLog {
    pub(crate) fn new(group: &str, index: usize, label: &str, enabled: bool) -> ShardLog {
        ShardLog {
            group: group.to_string(),
            index,
            label: label.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
            vclock: 0,
            alloc_count: 0,
            alloc_bytes: 0,
            alloc_peak: 0,
            alloc_sizes: Histogram::new(),
            depth: 0,
            enabled,
            window: None,
        }
    }

    /// A log that records nothing; every operation is a no-op.
    ///
    /// Useful as the explicit "tracing off" value in code paths that always
    /// thread a log through.
    pub fn disabled() -> ShardLog {
        ShardLog::new("", 0, "", false)
    }

    /// Whether this log records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a named span, recording its monotonic duration.
    ///
    /// Spans nest: a `span` call inside `f` records one level deeper. When
    /// the log is disabled `f` runs directly with zero bookkeeping.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut ShardLog) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = Instant::now();
        let start_wu = self.vclock;
        let alloc_at_open = alloc::snapshot();
        self.spans.push(SpanRec {
            name: name.to_string(),
            depth: self.depth,
            start_us: start.duration_since(self.origin).as_micros() as u64,
            dur_us: 0,
            start_wu,
            dur_wu: 0,
            alloc_count: 0,
            alloc_bytes: 0,
        });
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        let dur_wu = self.vclock - start_wu;
        let alloc_at_close = alloc::snapshot();
        if let Some(span) = self.spans.get_mut(idx) {
            span.dur_us = start.elapsed().as_micros() as u64;
            span.dur_wu = dur_wu;
            span.alloc_count = alloc_at_close.count - alloc_at_open.count;
            span.alloc_bytes = alloc_at_close.bytes - alloc_at_open.bytes;
        }
        out
    }

    /// Advance the shard's deterministic virtual clock by `n` work units.
    ///
    /// A work unit is one structural step of the pipeline (an install
    /// attempt, an utterance, a crawl visit, a captured packet, a rendered
    /// byte, ...) — counted, never timed. Open spans absorb the units into
    /// their `dur_wu`, so the span tree gets a duration profile that is
    /// byte-identical across `--jobs` values.
    pub fn work(&mut self, n: u64) {
        if self.enabled {
            self.vclock += n;
        }
    }

    /// Total work units on the shard's virtual clock.
    pub fn work_total(&self) -> u64 {
        self.vclock
    }

    /// Add `n` to a named counter.
    pub fn add(&mut self, counter: &str, n: u64) {
        if self.enabled && n > 0 {
            *self.counters.entry(counter.to_string()).or_insert(0) += n;
        }
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Open the shard's allocation window: snapshot this thread's meter and
    /// reset the windowed peak. Call at the top of the shard's work — on
    /// the thread that will run it — and pair with [`ShardLog::alloc_seal`]
    /// when the work ends. No-op when the log is disabled.
    pub fn alloc_open(&mut self) {
        if !self.enabled {
            return;
        }
        alloc::window_reset();
        self.window = Some((alloc::snapshot(), alloc::size_histogram()));
    }

    /// Seal the allocation window: store the deltas (count, bytes, size
    /// histogram) and the windowed peak into the log. Idempotent — a second
    /// seal, or a seal without an open, changes nothing.
    pub fn alloc_seal(&mut self) {
        let Some((at_open, sizes_at_open)) = self.window.take() else {
            return;
        };
        let now = alloc::snapshot();
        self.alloc_count = now.count - at_open.count;
        self.alloc_bytes = now.bytes - at_open.bytes;
        self.alloc_peak = alloc::window_peak();
        self.alloc_sizes = alloc::size_histogram().since(&sizes_at_open);
    }

    /// Heap allocations performed inside the sealed window.
    pub fn alloc_count(&self) -> u64 {
        self.alloc_count
    }

    /// Heap bytes requested inside the sealed window.
    pub fn alloc_bytes(&self) -> u64 {
        self.alloc_bytes
    }

    /// Peak net-live bytes reached inside the sealed window.
    pub fn alloc_peak_bytes(&self) -> u64 {
        self.alloc_peak
    }

    /// Log2 histogram of allocation sizes inside the sealed window.
    pub fn alloc_sizes(&self) -> &Histogram {
        &self.alloc_sizes
    }

    /// Install externally measured allocation deltas — the decode half of a
    /// wire round trip, where the window ran in another process.
    pub fn set_alloc(&mut self, count: u64, bytes: u64, peak_bytes: u64, sizes: Histogram) {
        self.alloc_count = count;
        self.alloc_bytes = bytes;
        self.alloc_peak = peak_bytes;
        self.alloc_sizes = sizes;
    }

    /// Serialize the log for the worker wire protocol (DESIGN.md §15).
    ///
    /// Everything structural crosses the wire: spans (including their
    /// wall-clock fields — real numbers from the worker's clock), counters
    /// and the virtual work clock. A decoded log gets a fresh `origin`, so
    /// the parent's `total_us` measures parent-side wall time; every
    /// deterministic surface is work-unit-based and survives the round trip
    /// bit-exactly.
    pub fn to_wire_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.clone())),
                    ("depth".into(), Json::Int(s.depth as u64)),
                    ("start_us".into(), Json::Int(s.start_us)),
                    ("dur_us".into(), Json::Int(s.dur_us)),
                    ("start_wu".into(), Json::Int(s.start_wu)),
                    ("dur_wu".into(), Json::Int(s.dur_wu)),
                    ("alloc_count".into(), Json::Int(s.alloc_count)),
                    ("alloc_bytes".into(), Json::Int(s.alloc_bytes)),
                ])
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Json::Int(*v)))
            .collect();
        Json::Obj(vec![
            ("group".into(), Json::Str(self.group.clone())),
            ("index".into(), Json::Int(self.index as u64)),
            ("label".into(), Json::Str(self.label.clone())),
            ("spans".into(), Json::Arr(spans)),
            ("counters".into(), Json::Obj(counters)),
            ("vclock".into(), Json::Int(self.vclock)),
        ])
    }

    /// Decode a wire document produced by [`ShardLog::to_wire_json`].
    ///
    /// The decoded log is enabled and closed (depth 0): it is meant to be
    /// submitted to a [`Recorder`](crate::Recorder), not written to further.
    pub fn from_wire_json(j: &Json) -> Option<ShardLog> {
        let str_field = |k: &str| j.get(k).and_then(Json::as_str).map(str::to_string);
        let mut spans = Vec::new();
        for sp in j.get("spans")?.as_arr()? {
            spans.push(SpanRec {
                name: sp.get("name")?.as_str()?.to_string(),
                depth: sp.get("depth")?.as_u64()? as usize,
                start_us: sp.get("start_us")?.as_u64()?,
                dur_us: sp.get("dur_us")?.as_u64()?,
                start_wu: sp.get("start_wu")?.as_u64()?,
                dur_wu: sp.get("dur_wu")?.as_u64()?,
                alloc_count: sp.get("alloc_count")?.as_u64()?,
                alloc_bytes: sp.get("alloc_bytes")?.as_u64()?,
            });
        }
        let mut counters = BTreeMap::new();
        for (k, v) in j.get("counters")?.as_obj()? {
            counters.insert(k.clone(), v.as_u64()?);
        }
        Some(ShardLog {
            group: str_field("group")?,
            index: j.get("index")?.as_u64()? as usize,
            label: str_field("label")?,
            origin: Instant::now(),
            spans,
            counters,
            vclock: j.get("vclock")?.as_u64()?,
            alloc_count: 0,
            alloc_bytes: 0,
            alloc_peak: 0,
            alloc_sizes: Histogram::new(),
            depth: 0,
            enabled: true,
            window: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_in_pre_order_with_depths() {
        let mut log = ShardLog::new("g", 0, "l", true);
        log.span("outer", |log| {
            log.span("inner-a", |_| {});
            log.span("inner-b", |log| {
                log.span("leaf", |_| {});
            });
        });
        log.span("second", |_| {});
        let shape: Vec<(&str, usize)> = log
            .spans
            .iter()
            .map(|s| (s.name.as_str(), s.depth))
            .collect();
        assert_eq!(
            shape,
            vec![
                ("outer", 0),
                ("inner-a", 1),
                ("inner-b", 1),
                ("leaf", 2),
                ("second", 0)
            ]
        );
        // The outer span must cover its children.
        assert!(log.spans[0].dur_us >= log.spans[1].dur_us + log.spans[3].dur_us);
    }

    #[test]
    fn counters_aggregate() {
        let mut log = ShardLog::new("g", 0, "l", true);
        log.add("flows", 3);
        log.add("flows", 4);
        log.add("bids", 1);
        log.add("zeros", 0);
        assert_eq!(log.counter("flows"), 7);
        assert_eq!(log.counter("bids"), 1);
        assert_eq!(log.counter("zeros"), 0);
        assert_eq!(log.counter("never"), 0);
        // Zero adds never materialize a key.
        assert!(!log.counters.contains_key("zeros"));
    }

    #[test]
    fn work_units_flow_into_open_spans() {
        let mut log = ShardLog::new("g", 0, "l", true);
        log.work(2); // outside any span: shard total only
        log.span("outer", |log| {
            log.work(3);
            log.span("inner", |log| log.work(5));
            log.work(1);
        });
        log.span("second", |log| log.work(4));
        assert_eq!(log.work_total(), 15);
        let wu: Vec<(&str, u64, u64)> = log
            .spans
            .iter()
            .map(|s| (s.name.as_str(), s.start_wu, s.dur_wu))
            .collect();
        assert_eq!(
            wu,
            vec![("outer", 2, 9), ("inner", 5, 5), ("second", 11, 4)]
        );
    }

    #[test]
    fn wire_codec_round_trips_structure() {
        let mut log = ShardLog::new("persona", 3, "Connected Car", true);
        log.span("install", |log| {
            log.add("tap.flows", 7);
            log.work(12);
            log.span("retry", |log| log.work(5));
        });
        log.work(2);
        let decoded = ShardLog::from_wire_json(&log.to_wire_json()).unwrap();
        assert_eq!(decoded.group, log.group);
        assert_eq!(decoded.index, log.index);
        assert_eq!(decoded.label, log.label);
        assert_eq!(decoded.spans, log.spans);
        assert_eq!(decoded.counters, log.counters);
        assert_eq!(decoded.work_total(), log.work_total());
        assert!(decoded.is_enabled());
        // The render also survives a parse through the strict JSON parser.
        let rendered = log.to_wire_json().render();
        let reparsed = Json::parse(&rendered).unwrap();
        assert_eq!(
            ShardLog::from_wire_json(&reparsed).unwrap().spans,
            log.spans
        );
    }

    #[test]
    fn wire_codec_rejects_malformed_documents() {
        assert!(ShardLog::from_wire_json(&Json::Null).is_none());
        assert!(ShardLog::from_wire_json(&Json::Obj(vec![(
            "group".into(),
            Json::Str("g".into())
        )]))
        .is_none());
    }

    #[test]
    fn alloc_window_measures_shard_deltas_deterministically() {
        let run = || {
            let mut log = ShardLog::new("g", 0, "l", true);
            log.alloc_open();
            log.span("work", |log| {
                let mut v: Vec<String> = Vec::new();
                for i in 0..128 {
                    v.push(format!("persona-{i}"));
                }
                log.work(v.len() as u64);
            });
            log.alloc_seal();
            log
        };
        let a = run();
        let b = run();
        assert!(a.alloc_count() > 0);
        assert!(a.alloc_bytes() > 0);
        assert!(a.alloc_peak_bytes() > 0);
        assert!(a.alloc_sizes().total() > 0);
        // Identical structural work => identical deltas, wherever in the
        // thread's history the window opened.
        assert_eq!(a.alloc_count(), b.alloc_count());
        assert_eq!(a.alloc_bytes(), b.alloc_bytes());
        assert_eq!(a.alloc_sizes(), b.alloc_sizes());
        // The span saw the same allocations the window did (plus nothing
        // outside it happened here).
        assert!(a.spans[0].alloc_count > 0);
        assert!(a.spans[0].alloc_count <= a.alloc_count());
        // Sealing twice changes nothing.
        let mut sealed = a;
        let (c, by) = (sealed.alloc_count(), sealed.alloc_bytes());
        sealed.alloc_seal();
        assert_eq!((sealed.alloc_count(), sealed.alloc_bytes()), (c, by));
    }

    #[test]
    fn set_alloc_installs_decoded_deltas() {
        let mut log = ShardLog::new("g", 1, "l", true);
        let mut sizes = Histogram::new();
        sizes.record_n(64, 5);
        log.set_alloc(5, 320, 1024, sizes.clone());
        assert_eq!(log.alloc_count(), 5);
        assert_eq!(log.alloc_bytes(), 320);
        assert_eq!(log.alloc_peak_bytes(), 1024);
        assert_eq!(log.alloc_sizes(), &sizes);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = ShardLog::disabled();
        let v = log.span("outer", |log| {
            log.add("c", 9);
            log.work(7);
            42
        });
        assert_eq!(v, 42);
        assert!(log.spans.is_empty());
        assert!(log.counters.is_empty());
        assert_eq!(log.work_total(), 0);
        assert!(!log.is_enabled());
    }
}
