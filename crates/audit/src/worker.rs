//! Child-process shard worker: the other end of the `process` backend's
//! pipe protocol (DESIGN.md §15).
//!
//! `repro --shard-worker` calls [`run_shard_worker`], which loops over
//! stdin: one [`ShardSpec`](alexa_exec::ShardSpec) frame in, one
//! [`write_reply`](alexa_exec::write_reply) frame out on stdout per spec.
//! The spec's payload is the rendered audit configuration; the worker
//! memoizes the rebuilt world (marketplace, fault plane, web ecosystem,
//! crawler) keyed on those exact payload bytes, so serving many shards of
//! one run regenerates the shared inputs once.
//!
//! A reply's payload is [`wire::encode_worker_reply`]'s body: the
//! byte-encoded shard, its allocation window and its log. The parent
//! decodes the shard into its typed form, re-installs the allocation window
//! on the decoded log and submits the log to its recorder, making a
//! process-backend report structurally identical to an in-process one.
//!
//! Test hooks (integration tests only):
//!
//! * `REPRO_WORKER_CRASH=group/index` — exit 101 before replying to that
//!   shard, simulating a worker killed mid-shard;
//! * `REPRO_WORKER_STALL=group/index` (+ `REPRO_WORKER_STALL_MS`, default
//!   60000) — sleep before replying, simulating a hung worker for the
//!   parent's wall-clock timeout.

use crate::experiment::{run_avs_shard, run_persona_shard, AuditConfig};
use crate::persona::Persona;
use crate::wire;
use alexa_adtech::bidding::{standard_roster, SeasonModel};
use alexa_adtech::{Auction, Crawler, SyncGraph, WebEcosystem};
use alexa_exec::{write_reply, ShardSpec};
use alexa_fault::FaultPlane;
use alexa_obs::{Json, Recorder};
use alexa_platform::{Marketplace, SkillCategory};
use std::io::{self, BufWriter};

/// The run-wide shared inputs, rebuilt from a spec's config payload and
/// memoized on the payload bytes.
pub(crate) struct World {
    key: Vec<u8>,
    config: AuditConfig,
    market: Marketplace,
    plane: FaultPlane,
    web: WebEcosystem,
    crawler: Crawler,
}

impl World {
    pub(crate) fn build(payload: &[u8]) -> Option<World> {
        let text = std::str::from_utf8(payload).ok()?;
        let config = wire::config_from_json(&Json::parse(text).ok()?)?;
        let market = Marketplace::generate(config.seed);
        // Identical derivation to the parent's `execute_with`: the worker
        // must make exactly the fault decisions the in-process run makes.
        let plane = FaultPlane::new(config.seed ^ 0xfa417, config.fault.clone());
        let sync_graph = SyncGraph::generate(config.seed);
        let web = WebEcosystem::generate(config.seed, config.web_size);
        let auction = Auction {
            bidders: standard_roster(sync_graph.partners()),
            season: SeasonModel::new(config.pre_iterations),
        };
        let crawler = Crawler::new(auction, sync_graph);
        Some(World {
            key: payload.to_vec(),
            config,
            market,
            plane,
            web,
            crawler,
        })
    }
}

/// Execute one spec against a rebuilt world; the `Ok` payload is the reply
/// body (shard, allocation window, log).
pub(crate) fn run_spec(world: &World, spec: &ShardSpec, rec: &Recorder) -> Result<Vec<u8>, String> {
    let mut log = rec.shard(&spec.group, spec.index, &spec.label);
    match spec.group.as_str() {
        "avs" => {
            let cat = *SkillCategory::ALL
                .get(spec.index)
                .ok_or_else(|| format!("avs shard index {} out of range", spec.index))?;
            let shard = run_avs_shard(
                &world.config,
                &world.market,
                &world.plane,
                spec.index,
                cat,
                &mut log,
            );
            Ok(wire::encode_worker_reply(
                |w| wire::write_avs_shard(w, &shard),
                &log,
            ))
        }
        "persona" => {
            let personas = Persona::all();
            let persona = *personas
                .get(spec.index)
                .ok_or_else(|| format!("persona shard index {} out of range", spec.index))?;
            let sites = world.web.prebid_sites(world.config.crawl_sites);
            let shard = run_persona_shard(
                &world.config,
                &world.market,
                &world.crawler,
                &sites,
                &world.plane,
                persona,
                spec.index,
                &mut log,
            );
            Ok(wire::encode_worker_reply(
                |w| wire::write_persona_shard(w, &shard),
                &log,
            ))
        }
        other => Err(format!("unknown shard group '{other}'")),
    }
}

/// The worker main loop. Returns the process exit code: 0 on clean EOF
/// (parent closed the pipe), 1 on a broken pipe, 2 on a malformed spec
/// frame (a protocol bug, not a shard failure — shard failures are replied
/// as errors and degraded by the parent).
pub fn run_shard_worker() -> i32 {
    let crash = std::env::var("REPRO_WORKER_CRASH").ok();
    let stall = std::env::var("REPRO_WORKER_STALL").ok();
    let stall_ms: u64 = std::env::var("REPRO_WORKER_STALL_MS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(60_000);
    let mut stdin = io::stdin().lock();
    let mut stdout = BufWriter::new(io::stdout().lock());
    let mut world: Option<World> = None;
    // Only opens enabled shard logs: nothing is ever submitted to it.
    let rec = Recorder::new();
    loop {
        let spec = match ShardSpec::read_frame(&mut stdin) {
            Ok(Some(spec)) => spec,
            Ok(None) => return 0,
            Err(_) => return 2,
        };
        let coord = format!("{}/{}", spec.group, spec.index);
        if crash.as_deref() == Some(coord.as_str()) {
            // Simulated mid-shard death: no reply, non-zero exit.
            std::process::exit(101);
        }
        if stall.as_deref() == Some(coord.as_str()) {
            std::thread::sleep(std::time::Duration::from_millis(stall_ms));
        }
        if !matches!(&world, Some(w) if w.key == spec.payload) {
            world = World::build(&spec.payload);
        }
        let result = match &world {
            Some(w) => run_spec(w, &spec, &rec),
            None => Err("shard payload did not decode to an audit config".to_string()),
        };
        if write_reply(&mut stdout, spec.index, &result).is_err() {
            return 1;
        }
    }
}
