//! The user-side defenses of §8.1.
//!
//! The paper proposes, as a user-side defense, to "selectively block
//! network traffic that is not essential for the skill to work", citing the
//! *Blocking without Breaking* approach (Mandalari et al., PETS '21). This
//! module implements that defense as a router-resident firewall:
//!
//! * advertising & tracking endpoints (per the [`FilterList`]) are
//!   **blocked**;
//! * an explicit allowlist (e.g. the platform's voice endpoints, which the
//!   device cannot function without) is always **allowed**;
//! * everything else is allowed — the defense must not break functionality.
//!
//! [`DefenseRules`] turn a [`DefenseMode`] (the firewall, or on-device
//! transcription) into the per-packet rules the capture taps apply.

use crate::domain::Domain;
use crate::filterlist::FilterList;
use crate::packet::{DataType, Packet, Payload};

/// Per-packet decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Forwarded unchanged.
    Allow,
    /// Dropped at the router.
    Block,
}

/// A router-resident advertising & tracking firewall.
///
/// ```
/// use alexa_net::{Domain, Firewall, Packet, Payload, Verdict};
/// use std::net::Ipv4Addr;
/// let fw = Firewall::new();
/// let tracker = Packet::outgoing(
///     0,
///     Domain::parse("dts.podtrac.com").unwrap(),
///     Ipv4Addr::new(10, 0, 0, 1),
///     Payload::Encrypted { len: 64 },
/// );
/// assert_eq!(fw.judge(&tracker), Verdict::Block);
/// ```
#[derive(Debug)]
pub struct Firewall {
    blocklist: FilterList,
    allowlist: Vec<Domain>,
}

impl Default for Firewall {
    fn default() -> Firewall {
        Firewall::new()
    }
}

impl Firewall {
    /// Firewall with the built-in A&T blocklist and an empty allowlist.
    pub fn new() -> Firewall {
        Firewall {
            blocklist: FilterList::new(),
            allowlist: Vec::new(),
        }
    }

    /// Always allow a domain (and its subdomains), even if blocklisted.
    pub fn allow(&mut self, domain: Domain) {
        self.allowlist.push(domain);
    }

    /// Decide a packet's fate without forwarding it.
    pub fn judge(&self, packet: &Packet) -> Verdict {
        self.judge_remote(&packet.remote)
    }

    /// Decide the fate of any packet sent to `remote`: the verdict depends
    /// on the destination alone.
    pub fn judge_remote(&self, remote: &Domain) -> Verdict {
        if self.allowlist.iter().any(|a| remote.is_subdomain_of(a)) {
            return Verdict::Allow;
        }
        if self.blocklist.is_ad_tracking(remote) {
            Verdict::Block
        } else {
            Verdict::Allow
        }
    }
}

/// User-side defenses from the paper's §8.1, applied during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DefenseMode {
    /// No defense — the paper's measurement condition.
    #[default]
    None,
    /// Router firewall blocking advertising & tracking endpoints
    /// ("Blocking without Breaking"-style selective filtering).
    Firewall,
    /// On-device transcription: only the text of commands leaves the
    /// device, never the voice recording.
    TextOnly,
}

/// The per-packet rules of one [`DefenseMode`]. A capture tap applies them
/// to each packet the device sends; the audit's defended view evaluates the
/// same rules over an undefended record.
///
/// * `Firewall`: packets to advertising & tracking endpoints are dropped
///   at the router, so they never reach the network.
/// * `TextOnly`: every voice-recording record is replaced by the locally
///   transcribed text command: the content needed for functionality, minus
///   the acoustic channel (mood, health, accent, ...) the paper warns about.
#[derive(Debug, Default)]
pub struct DefenseRules {
    firewall: Option<Firewall>,
    text_only: bool,
}

impl DefenseRules {
    /// The rules of `defense`.
    pub fn new(defense: DefenseMode) -> DefenseRules {
        DefenseRules {
            firewall: (defense == DefenseMode::Firewall).then(Firewall::new),
            text_only: defense == DefenseMode::TextOnly,
        }
    }

    /// Whether a packet sent to `remote` leaves the home network.
    pub fn admits(&self, remote: &Domain) -> bool {
        self.firewall
            .as_ref()
            .is_none_or(|fw| fw.judge_remote(remote) == Verdict::Allow)
    }

    /// The type a plaintext record of type `data_type` is sent as.
    pub fn sent_type(&self, data_type: DataType) -> DataType {
        if self.text_only && data_type == DataType::VoiceRecording {
            DataType::TextCommand
        } else {
            data_type
        }
    }

    /// Rewrite an admitted packet's plaintext records to their sent types.
    pub fn retype(&self, payload: &mut Payload) {
        if let (true, Payload::Plain(records)) = (self.text_only, payload) {
            for r in records {
                r.data_type = self.sent_type(r.data_type);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(fw: &Firewall, name: &str) -> Verdict {
        fw.judge_remote(&Domain::parse(name).unwrap())
    }

    #[test]
    fn blocks_ad_tracking_endpoints() {
        let fw = Firewall::new();
        assert_eq!(verdict(&fw, "dts.podtrac.com"), Verdict::Block);
        assert_eq!(verdict(&fw, "dcs.megaphone.fm"), Verdict::Block);
    }

    #[test]
    fn allows_functional_traffic() {
        let fw = Firewall::new();
        assert_eq!(verdict(&fw, "avs-alexa-na.amazon.com"), Verdict::Allow);
        assert_eq!(verdict(&fw, "dillilabs.com"), Verdict::Allow);
    }

    #[test]
    fn blocks_device_metrics_exact_host() {
        let fw = Firewall::new();
        assert_eq!(
            verdict(&fw, "device-metrics-us-2.amazon.com"),
            Verdict::Block
        );
        assert_eq!(verdict(&fw, "api.amazon.com"), Verdict::Allow);
    }

    #[test]
    fn allowlist_overrides_blocklist() {
        let mut fw = Firewall::new();
        fw.allow(Domain::parse("podtrac.com").unwrap());
        assert_eq!(verdict(&fw, "dts.podtrac.com"), Verdict::Allow);
        assert_eq!(verdict(&fw, "chtbl.com"), Verdict::Block);
    }

    #[test]
    fn defense_rules_block_and_retype() {
        use crate::packet::Record;
        let tracker = Domain::parse("dts.podtrac.com").unwrap();
        let avs = Domain::parse("avs-alexa-na.amazon.com").unwrap();
        for (defense, blocks, retypes) in [
            (DefenseMode::None, false, false),
            (DefenseMode::Firewall, true, false),
            (DefenseMode::TextOnly, false, true),
        ] {
            let rules = DefenseRules::new(defense);
            assert_eq!(rules.admits(&tracker), !blocks);
            assert!(rules.admits(&avs));
            let mut payload = Payload::Plain(vec![Record::new(DataType::VoiceRecording, "hi")]);
            rules.retype(&mut payload);
            let sent = payload.records().unwrap()[0].data_type;
            assert_eq!(sent == DataType::TextCommand, retypes);
        }
    }
}
