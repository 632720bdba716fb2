//! Defense evaluation (§8.1): what each user-side defense actually buys.
//!
//! The paper proposes two concrete defenses — selective traffic filtering
//! and on-device transcription — but does not evaluate them. This module
//! closes that loop by comparing the undefended observable record against
//! the record each defense would leave:
//!
//! * **Firewall**: advertising & tracking traffic should vanish while every
//!   functional third-party flow survives ("blocking without breaking");
//! * **Text-only**: voice recordings should vanish from every capture while
//!   skill functionality (and therefore traffic volume) is preserved;
//! * **the sobering result**: neither network defense touches the *bid
//!   uplift*, because Amazon's interest inference happens server-side from
//!   the interaction content the platform necessarily receives. Only the
//!   platform itself can turn that off — the paper's transparency argument.

use crate::analysis::bids;
use crate::analysis::traffic;
use crate::experiment::DefenseMode;
use crate::index::AnalysisIndex;
use crate::persona::Persona;
use alexa_net::{DataType, DefenseRules};
use std::fmt::Write as _;

/// The aggregates a [`DefenseReport`] compares, read from one run.
#[derive(Debug, Clone, Copy)]
pub struct DefenseView {
    /// A&T traffic share (Table 2's total).
    pub ad_tracking_share: f64,
    /// Third-party A&T domains (Table 3's A&T column, summed).
    pub ad_tracking_domains: usize,
    /// Third-party functional domains (Table 3's functional column, summed).
    pub functional_domains: usize,
    /// Voice-recording records in the AVS plaintext captures.
    pub voice_flows: usize,
    /// Text-command records in the AVS plaintext captures.
    pub text_flows: usize,
    /// Strongest interest persona's median CPM over vanilla's (Table 5).
    pub bid_uplift: f64,
}

/// The aggregates the indexed run would show under each of `defenses`,
/// computed from the index alone.
///
/// Exact, not an approximation: every defense is a pure per-packet rule at
/// the tap boundary (`DefenseRules`), and nothing upstream of the tap reads
/// the defense mode. So each aggregate evaluates the same rules: the
/// firewall verdict depends only on a packet's remote (judged once per
/// distinct host, and once per AVS packet), text-only retypes AVS records
/// without changing any packet count, and no defense touches the crawl, so
/// every view shares the run's bid uplift. `DefenseMode::None` reads the
/// run as captured; tests hold the view of each mode over a baseline to the
/// `None` view of a run executed with that mode.
pub fn views<const N: usize>(ix: &AnalysisIndex, defenses: [DefenseMode; N]) -> [DefenseView; N] {
    let bid_uplift = max_median_uplift(ix);
    defenses.map(|defense| {
        let rules = DefenseRules::new(defense);
        let admitted: Vec<bool> = ix.host_domains.iter().map(|d| rules.admits(d)).collect();
        let keep = |host: u32| admitted[host as usize];
        let t3 = traffic::table3_where(ix, keep);
        let (voice_flows, text_flows) = voice_and_text_flows(ix, &rules);
        DefenseView {
            ad_tracking_share: traffic::table2_where(ix, keep).total_ad_tracking,
            ad_tracking_domains: t3.rows.iter().map(|r| r.1).sum(),
            functional_domains: t3.rows.iter().map(|r| r.2).sum(),
            voice_flows,
            text_flows,
            bid_uplift,
        }
    })
}

/// Comparison of one defended view against the undefended baseline's.
#[derive(Debug, Clone)]
pub struct DefenseReport {
    /// Name of the defense evaluated.
    pub defense: String,
    /// The undefended run.
    pub baseline: DefenseView,
    /// The run under the defense. Functional domains must not shrink (the
    /// defense must not break skills); bid uplift should *not* drop
    /// (server-side profiling is out of a network defense's reach).
    pub defended: DefenseView,
}

fn voice_and_text_flows(ix: &AnalysisIndex, rules: &DefenseRules) -> (usize, usize) {
    let mut voice = 0;
    let mut text = 0;
    for cap in &ix.obs.avs_captures {
        for p in cap.packets.iter().filter(|p| rules.admits(&p.remote)) {
            if let Some(records) = p.payload.records() {
                for r in records {
                    match rules.sent_type(r.data_type) {
                        DataType::VoiceRecording => voice += 1,
                        DataType::TextCommand => text += 1,
                        _ => {}
                    }
                }
            }
        }
    }
    (voice, text)
}

fn max_median_uplift(ix: &AnalysisIndex) -> f64 {
    let t5 = bids::table5(ix);
    let Some((vanilla, _)) = t5.get(&Persona::Vanilla.name()) else {
        return 0.0;
    };
    if vanilla == 0.0 {
        return 0.0;
    }
    t5.rows
        .iter()
        .filter(|r| r.0 != "Vanilla")
        .map(|r| r.1 / vanilla)
        .fold(0.0, f64::max)
}

/// Compare a defended view against the undefended baseline's.
pub fn compare(defense: &str, baseline: DefenseView, defended: DefenseView) -> DefenseReport {
    DefenseReport {
        defense: defense.to_string(),
        baseline,
        defended,
    }
}

impl DefenseReport {
    /// Stream the comparison into `out`; returns render work units.
    pub fn render_into(&self, out: &mut String) -> usize {
        let _ = write!(
            out,
            "Defense evaluation: {}\n\
               A&T traffic share:          {:.2}% -> {:.2}%\n\
               A&T third-party domains:    {} -> {}\n\
               functional 3rd-p. domains:  {} -> {}\n\
               voice-recording flows:      {} -> {}\n\
               text-command flows:         {} -> {}\n\
               max median bid uplift:      {:.2}x -> {:.2}x\n",
            self.defense,
            100.0 * self.baseline.ad_tracking_share,
            100.0 * self.defended.ad_tracking_share,
            self.baseline.ad_tracking_domains,
            self.defended.ad_tracking_domains,
            self.baseline.functional_domains,
            self.defended.functional_domains,
            self.baseline.voice_flows,
            self.defended.voice_flows,
            self.baseline.text_flows,
            self.defended.text_flows,
            self.baseline.bid_uplift,
            self.defended.bid_uplift,
        );
        7
    }

    /// Render the comparison.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observations::Observations;
    use crate::{AuditConfig, AuditRun};
    use alexa_fault::FaultProfile;

    fn baseline() -> &'static AnalysisIndex<'static> {
        crate::analysis::test_support::ix()
    }

    fn report(name: &str, defense: DefenseMode) -> DefenseReport {
        let [base, defended] = views(baseline(), [DefenseMode::None, defense]);
        compare(name, base, defended)
    }

    /// A small run of `seed` under `fault`, executed with `defense` active.
    fn run(seed: u64, fault: &FaultProfile, defense: DefenseMode) -> Observations {
        AuditRun::execute(
            AuditConfig::small(seed)
                .with_faults(fault.clone())
                .with_defense(defense),
        )
    }

    /// The core equivalence the repro pipeline relies on: the view over the
    /// baseline equals the same aggregates read from a genuinely executed
    /// defended run of the same seed and fault profile, bit for bit.
    fn assert_view_matches_executed_run(defense: DefenseMode, fault: &FaultProfile, seed: u64) {
        let [derived] = views(
            &AnalysisIndex::build(&run(seed, fault, DefenseMode::None)),
            [defense],
        );
        let [ran] = views(
            &AnalysisIndex::build(&run(seed, fault, defense)),
            [DefenseMode::None],
        );
        assert_eq!(
            bits(derived),
            bits(ran),
            "{defense:?} under {} at seed {seed}",
            fault.name()
        );
    }

    /// Every fault profile the equivalence is held under, at every seed.
    fn assert_view_matches_executed_runs(defense: DefenseMode) {
        for fault in [
            FaultProfile::none(),
            FaultProfile::flaky(),
            FaultProfile::hostile(),
        ] {
            for seed in [7, 1234, 2222] {
                assert_view_matches_executed_run(defense, &fault, seed);
            }
        }
    }

    /// All six fields, f64s by bit pattern.
    fn bits(v: DefenseView) -> (u64, usize, usize, usize, usize, u64) {
        (
            v.ad_tracking_share.to_bits(),
            v.ad_tracking_domains,
            v.functional_domains,
            v.voice_flows,
            v.text_flows,
            v.bid_uplift.to_bits(),
        )
    }

    #[test]
    fn firewall_view_matches_executed_run() {
        assert_view_matches_executed_runs(DefenseMode::Firewall);
    }

    #[test]
    fn text_only_view_matches_executed_run() {
        assert_view_matches_executed_runs(DefenseMode::TextOnly);
    }

    #[test]
    fn none_view_matches_executed_run() {
        assert_view_matches_executed_run(DefenseMode::None, &FaultProfile::none(), 2222);
    }

    /// The small runs send no voice or text records to a blocked host, so
    /// this pins the AVS side of the view on a hand-built capture.
    #[test]
    fn view_applies_the_tap_rules_to_avs_packets() {
        use alexa_net::{Capture, Domain, Packet, Payload, Record};
        let packet = |host: &str, types: &[DataType]| {
            Packet::outgoing(
                0,
                Domain::parse(host).expect("valid host"),
                std::net::Ipv4Addr::new(10, 0, 0, 1),
                Payload::Plain(types.iter().map(|&t| Record::new(t, "x")).collect()),
            )
        };
        let mut obs = Observations::default();
        obs.avs_captures.push(Capture {
            label: "skill".into(),
            packets: vec![
                packet("avs-alexa-na.amazon.com", &[DataType::VoiceRecording]),
                // Blocked by the firewall's exact-host rule.
                packet(
                    "device-metrics-us-2.amazon.com",
                    &[DataType::VoiceRecording, DataType::TextCommand],
                ),
            ],
        });
        let ix = AnalysisIndex::build(&obs);
        let modes = [
            DefenseMode::None,
            DefenseMode::Firewall,
            DefenseMode::TextOnly,
        ];
        let flows = views(&ix, modes).map(|v| (v.voice_flows, v.text_flows));
        assert_eq!(flows, [(2, 1), (1, 0), (0, 3)]);
    }

    #[test]
    fn firewall_removes_ad_tracking_without_breaking() {
        let r = report("firewall", DefenseMode::Firewall);
        assert!(r.baseline.ad_tracking_share > 0.0);
        assert_eq!(
            r.defended.ad_tracking_share, 0.0,
            "A&T traffic survived the firewall"
        );
        assert_eq!(r.defended.ad_tracking_domains, 0);
        // Functionality preserved: functional third-party domains intact.
        assert_eq!(r.baseline.functional_domains, r.defended.functional_domains);
    }

    #[test]
    fn firewall_does_not_stop_server_side_profiling() {
        // The paper's deeper point: Amazon's inference is out of reach of a
        // network filter. Bid uplift persists.
        let r = report("firewall", DefenseMode::Firewall);
        assert!(r.defended.bid_uplift > 1.5, "uplift gone: {r:?}");
    }

    #[test]
    fn text_only_eliminates_voice_recordings() {
        let r = report("text-only", DefenseMode::TextOnly);
        assert!(r.baseline.voice_flows > 0);
        assert_eq!(r.defended.voice_flows, 0, "voice recordings still flowing");
        assert!(r.defended.text_flows > 0, "no text commands replaced them");
        // Functionality (and thus traffic shape) preserved.
        assert_eq!(r.baseline.functional_domains, r.defended.functional_domains);
    }

    #[test]
    fn renders() {
        let s = report("firewall", DefenseMode::Firewall).render();
        assert!(s.contains("A&T traffic share"));
        assert!(s.contains("bid uplift"));
    }
}
