//! Fault-plane integration: digest stability, jobs-independence under
//! faults, coverage monotonicity, and graceful degradation at 100% fault
//! rate. These are the robustness counterparts of `tests/determinism.rs`.

use alexa_adtech::VisitRecord;
use alexa_audit::analysis::defense;
use alexa_audit::report::full_report;
use alexa_audit::{AuditConfig, AuditRun, DefenseMode, Observations};
use alexa_fault::FaultProfile;
use alexa_net::Domain;
use alexa_obs::Recorder;
use std::sync::Arc;

fn digest(cfg: AuditConfig) -> u64 {
    AuditRun::execute(cfg).digest()
}

/// The digest as it was defined before it moved onto the wire codec:
/// FNV-1a over the `Debug` text of the whole record. Frozen here as a
/// test-only reference, so the pre-fault-plane pins keep holding the
/// observables themselves, whatever encoding the digest uses.
fn legacy_debug_digest(o: &Observations) -> u64 {
    use std::fmt::Write as _;

    struct Fnv(u64);

    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100000001b3);
            }
            Ok(())
        }
    }

    let mut w = Fnv(0xcbf29ce484222325);
    write!(
        w,
        "{}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        o.seed,
        o.pre_iterations,
        o.post_iterations,
        o.router_captures,
        o.avs_captures,
        o.crawl,
        o.audio,
        o.dsar,
        o.policies,
        o.catalog,
        o.failed_installs,
        o.orgs.entries_sorted(),
    )
    .unwrap();
    if o.coverage.profile != "none" {
        write!(w, "|{:?}", o.coverage).unwrap();
    }
    w.0
}

/// The fault plane must be invisible under `none`. The legacy column holds
/// the digests the pipeline produced before the plane existed (pinned from
/// main); the canonical column pins `Observations::digest` of the same
/// records, whose encoding is the wire codec's.
#[test]
fn none_profile_preserves_pre_fault_plane_digests() {
    for (seed, legacy, canonical) in [
        (7u64, 0xb110b63e303dd95au64, 0x30984eb7be66518bu64),
        (1234, 0xf39b00cfbb080c04, 0xe78179ad49f6d6f9),
        (2222, 0x76a4be4df33e5c1c, 0xc1fe834689b4779b),
    ] {
        let obs = AuditRun::execute(AuditConfig::small(seed));
        assert_eq!(
            legacy_debug_digest(&obs),
            legacy,
            "seed {seed}: none-profile observables drifted from baseline"
        );
        assert_eq!(
            obs.digest(),
            canonical,
            "seed {seed}: canonical digest drifted from its pin"
        );
    }
}

/// Every observable reaches the digest: one small edit anywhere in a
/// faulted record changes it.
#[test]
fn every_observable_edit_changes_the_digest() {
    fn visits(o: &mut Observations) -> impl Iterator<Item = &mut VisitRecord> {
        o.crawl.values_mut().flatten()
    }
    let base = AuditRun::execute(AuditConfig::small(7).with_faults(FaultProfile::flaky()));
    type Edit = (&'static str, fn(&mut Observations));
    let edits: [Edit; 6] = [
        ("one-bit cpm flip", |o| {
            let bid = visits(o).find_map(|v| v.bids.first_mut()).unwrap();
            bid.cpm = f64::from_bits(bid.cpm.to_bits() ^ 1);
        }),
        ("two swapped bids", |o| {
            let visit = visits(o)
                .find(|v| v.bids.len() >= 2 && v.bids[0] != v.bids[1])
                .unwrap();
            visit.bids.swap(0, 1);
        }),
        ("one sync user_id", |o| {
            let sync = visits(o).find_map(|v| v.syncs.first_mut()).unwrap();
            sync.user_id = Arc::from(format!("{}0", sync.user_id));
        }),
        ("one packet's remote", |o| {
            let packet = o
                .router_captures
                .values_mut()
                .flatten()
                .find_map(|c| c.packets.first_mut())
                .unwrap();
            packet.remote = Domain::parse("edited.example.com").unwrap();
        }),
        ("one policy document", |o| {
            let doc = o.policies.values_mut().flatten().next().unwrap();
            doc.text.push('.');
        }),
        ("one coverage count", |o| {
            let section = o.coverage.sections.values_mut().next().unwrap();
            section.observed += 1;
        }),
    ];
    let want = base.digest();
    for (name, edit) in edits {
        let mut edited = base.clone();
        edit(&mut edited);
        assert_ne!(edited.digest(), want, "{name} left the digest unchanged");
    }
}

/// For every preset, a fixed `(seed, profile)` yields byte-identical
/// observations for any worker count — fault decisions are structural, not
/// scheduling-dependent.
#[test]
fn faulted_digests_are_jobs_independent() {
    for profile in [
        FaultProfile::flaky(),
        FaultProfile::degraded(),
        FaultProfile::hostile(),
    ] {
        let run = |jobs| {
            digest(
                AuditConfig::small(7)
                    .with_faults(profile.clone())
                    .with_jobs(Some(jobs)),
            )
        };
        let (d1, d4, d8) = (run(1), run(4), run(8));
        assert_eq!(d1, d4, "{}: jobs 1 vs 4", profile.name());
        assert_eq!(d1, d8, "{}: jobs 1 vs 8", profile.name());
    }
}

/// Harsher presets can only lose observations: fault decisions nest in the
/// rate, so everything lost under `flaky` is also lost under `hostile`.
#[test]
fn coverage_decreases_monotonically_with_severity() {
    let totals: Vec<(String, u64)> = [
        FaultProfile::none(),
        FaultProfile::flaky(),
        FaultProfile::degraded(),
        FaultProfile::hostile(),
    ]
    .into_iter()
    .map(|profile| {
        let obs = AuditRun::execute(AuditConfig::small(1234).with_faults(profile.clone()));
        (profile.name().to_string(), obs.coverage.total_observed())
    })
    .collect();
    for pair in totals.windows(2) {
        assert!(
            pair[1].1 <= pair[0].1,
            "coverage grew from {} ({}) to {} ({})",
            pair[0].0,
            pair[0].1,
            pair[1].0,
            pair[1].1
        );
    }
    assert!(
        totals.last().unwrap().1 < totals.first().unwrap().1,
        "hostile must strictly reduce coverage"
    );
}

/// At a 100% fault rate nothing survives — and nothing panics. The report
/// still renders end to end, carries the coverage block, and the
/// significance tables refuse (rather than run on) the empty samples.
#[test]
fn analysis_never_panics_at_total_fault_rate() {
    let cfg = AuditConfig::small(2222).with_faults(FaultProfile::uniform(1.0));
    let obs = AuditRun::execute(cfg.clone());
    assert!(obs.coverage.is_degraded());
    assert_eq!(obs.coverage.sections["skill.installs"].observed, 0);

    let report = full_report(&obs);
    assert!(report.contains("DEGRADED (valid, reduced coverage)"));
    assert!(report.contains("insufficient samples"));

    // The §8.1 defense comparison must also survive empty observations.
    let defended = AuditRun::execute(cfg.with_defense(DefenseMode::Firewall));
    let obs_ix = alexa_audit::AnalysisIndex::build(&obs);
    let defended_ix = alexa_audit::AnalysisIndex::build(&defended);
    let [base, viewed] = defense::views(&obs_ix, [DefenseMode::None, DefenseMode::Firewall]);
    let [ran] = defense::views(&defended_ix, [DefenseMode::None]);
    for defended in [viewed, ran] {
        let comparison = defense::compare("firewall under total faults", base, defended);
        assert!(!comparison.render().is_empty());
    }
}

/// Injected faults, retries and losses surface as per-shard `fault.*`
/// counters, and those counters account for the coverage ledger: every
/// fault the run-level report counts was met either by a persona/AVS shard
/// or by the policy download pass (which runs outside any shard).
#[test]
fn fault_counters_reach_the_recorder() {
    let rec = Recorder::new();
    let obs = AuditRun::execute_with(
        AuditConfig::small(7).with_faults(FaultProfile::degraded()),
        &rec,
    );
    let cov = &obs.coverage;
    assert!(cov.total_injected() > 0);
    assert!(cov.retries > 0);

    let report = rec.report();
    let shard_sum = |name: &str| -> u64 {
        report
            .shards
            .iter()
            .filter_map(|s| s.counters.get(name))
            .sum()
    };
    let policy_injected = cov.injected.get("policy_download").copied().unwrap_or(0);
    let policy_section = cov.sections["policy.downloads"];
    let policy_losses = policy_section.expected - policy_section.observed;

    assert!(
        shard_sum("fault.injected") > 0,
        "per-shard fault counters missing"
    );
    assert_eq!(
        shard_sum("fault.injected") + policy_injected,
        cov.total_injected()
    );
    assert_eq!(shard_sum("fault.losses") + policy_losses, cov.losses);
    // Each policy retry follows one failed (injected) download attempt.
    let policy_retries = cov.retries - shard_sum("fault.retries");
    assert!(policy_retries <= policy_injected);
}
