//! End-to-end and per-layer benchmark of the audit pipeline.
//!
//! The harness drives the pipeline's public entry points from outside —
//! `AuditRun::execute_with`, `alexa_bench::render_all`,
//! `alexa_bench::campaign::run_campaign_with`, `AnalysisIndex::build`,
//! `artifacts::render_into` and `alexa_obs::bundle::write_bundle` — and
//! adds no instrumentation to the program. See `perfbench/README.md`.

pub mod metrics;
pub mod probe;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workload;
