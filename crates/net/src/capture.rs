//! Capture taps: the two vantage points of the paper's methodology.
//!
//! * [`RouterTap`] — the RPi bridged-AP router. Sees **every** packet the
//!   device exchanges, but cannot decrypt TLS: each captured [`FlowRecord`]
//!   carries only endpoint, direction, timing and ciphertext size.
//! * [`AvsTap`] — the instrumented AVS Device SDK. Logs payloads **before**
//!   encryption, so captured packets retain their typed records. The AVS
//!   Echo's limitations are enforced by the device model in
//!   `alexa-platform` (Amazon-only endpoints, no streaming skills); this tap
//!   faithfully records whatever that device emits.
//!
//! Both taps support the paper's per-skill capture discipline: `tcpdump` was
//! enabled before each skill install and disabled after uninstall, so every
//! capture is cleanly attributable to one skill. [`Capture::label`] carries
//! that attribution.

use crate::domain::Domain;
use crate::firewall::{DefenseMode, DefenseRules};
use crate::packet::{Direction, Packet, Payload};
use alexa_fault::{FaultChannel, FaultPlane};
use std::net::Ipv4Addr;

/// One flow observation from the router vantage point: everything `tcpdump`
/// can say about an encrypted exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRecord {
    /// Milliseconds since the start of the experiment.
    pub ts_ms: u64,
    /// Direction relative to the device.
    pub direction: Direction,
    /// Remote endpoint name (from DNS packets in the same capture).
    pub remote: Domain,
    /// Remote endpoint address.
    pub remote_ip: Ipv4Addr,
    /// Ciphertext bytes on the wire.
    pub bytes: usize,
}

/// A labelled set of packets recorded by one tap session.
///
/// `label` identifies the workload the capture is attributed to (in the
/// paper: one skill per capture session).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Capture {
    /// Attribution label (e.g. a skill ID) for this capture session.
    pub label: String,
    /// Captured packets, in timestamp order.
    pub packets: Vec<Packet>,
}

impl Capture {
    /// Create an empty capture with an attribution label.
    pub fn new(label: impl Into<String>) -> Capture {
        Capture {
            label: label.into(),
            packets: Vec::new(),
        }
    }

    /// Total bytes across all packets.
    pub fn total_bytes(&self) -> usize {
        self.packets.iter().map(|p| p.payload.wire_len()).sum()
    }

    /// Distinct remote endpoints contacted, sorted.
    pub fn endpoints(&self) -> Vec<Domain> {
        let mut set: Vec<Domain> = self.packets.iter().map(|p| p.remote.clone()).collect();
        set.sort();
        set.dedup();
        set
    }
}

/// Running totals a tap accumulates across its whole life.
///
/// The observability layer reads these out once per shard — the counters are
/// plain integers updated on the capture hot path, so instrumentation costs
/// nothing beyond the additions and never touches the captured data itself.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TapStats {
    /// Capture sessions opened (`start` calls).
    pub sessions: usize,
    /// Packets observed inside a session.
    pub packets: usize,
    /// Wire bytes across all observed packets.
    pub bytes: usize,
    /// Packets lost to an injected capture fault.
    pub dropped: usize,
    /// Packets recorded with an injected flow truncation.
    pub truncated: usize,
}

impl TapStats {
    fn observe(&mut self, wire_len: usize) {
        self.packets += 1;
        self.bytes += wire_len;
    }
}

/// Per-session admission shared by both taps: the defense, then any
/// injected capture fault.
///
/// The tap takes the device's packets before the defense. Every packet the
/// device sends takes one value of a monotone session sequence number,
/// blocked ones included, so the structural fault key `label/seq` names
/// what the device sent: fault placement depends neither on scheduling nor
/// on the defense. Only admitted packets draw a fault.
#[derive(Debug)]
struct TapGate {
    plane: FaultPlane,
    defense: DefenseRules,
    seq: usize,
}

impl Default for TapGate {
    fn default() -> TapGate {
        TapGate {
            plane: FaultPlane::disabled(),
            defense: DefenseRules::default(),
            seq: 0,
        }
    }
}

impl TapGate {
    /// With an inactive plane no packet needs its sequence number, so the
    /// defense applies to a whole batch in place; otherwise the batch is
    /// left for [`TapGate::admit`] to take packet by packet.
    fn defend_batch(&self, packets: &mut Vec<Packet>) {
        if !self.plane.is_active() {
            packets.retain_mut(|p| {
                self.defense.retype(&mut p.payload);
                self.defense.admits(&p.remote)
            });
        }
    }

    /// Decide the fate of the next packet the device sends in the session
    /// labelled `label`, rewriting an admitted packet as the defense sends
    /// it.
    fn admit(&mut self, label: &str, p: &mut Packet) -> PacketFate {
        let seq = self.seq;
        self.seq += 1;
        if !self.defense.admits(&p.remote) {
            return PacketFate::Blocked;
        }
        self.defense.retype(&mut p.payload);
        if !self.plane.is_active() {
            return PacketFate::Keep;
        }
        let key = format!("{label}/{seq}");
        if self.plane.fires(FaultChannel::PacketDrop, &key) {
            PacketFate::Drop
        } else if self.plane.fires(FaultChannel::FlowTruncation, &key) {
            PacketFate::Truncate(key)
        } else {
            PacketFate::Keep
        }
    }
}

enum PacketFate {
    Keep,
    Blocked,
    Drop,
    Truncate(String),
}

/// The RPi router tap: records every packet, encrypted view only.
#[derive(Debug, Default)]
pub struct RouterTap {
    session: Option<Capture>,
    finished: Vec<Capture>,
    stats: TapStats,
    gate: TapGate,
}

impl RouterTap {
    /// Create a tap with no active session.
    pub fn new() -> RouterTap {
        RouterTap::default()
    }

    /// A tap whose capture path consults `plane` for packet drops and flow
    /// truncation. With an inactive plane this is exactly [`RouterTap::new`].
    pub fn with_faults(plane: FaultPlane) -> RouterTap {
        let mut tap = RouterTap::default();
        tap.gate.plane = plane;
        tap
    }

    /// The same tap behind a user-side defense: it takes every packet the
    /// device sends and records only what the defense lets out, as sent.
    pub fn with_defense(mut self, defense: DefenseMode) -> RouterTap {
        self.gate.defense = DefenseRules::new(defense);
        self
    }

    /// Begin a capture session (the paper's "enable tcpdump").
    ///
    /// Any in-progress session is finalized first.
    pub fn start(&mut self, label: impl Into<String>) {
        self.stop();
        self.stats.sessions += 1;
        self.gate.seq = 0;
        self.session = Some(Capture::new(label));
    }

    /// Observe one packet. No-op unless a session is active. The payload is
    /// opacified: the router sees TLS ciphertext only.
    pub fn observe(&mut self, packet: &Packet) {
        if self.session.is_some() {
            self.admit(packet.clone());
        }
    }

    /// Observe a whole packet batch in one call, taking ownership so the
    /// payloads are encrypted in place instead of cloned packet-by-packet.
    /// No-op unless a session is active.
    pub fn observe_batch(&mut self, mut packets: Vec<Packet>) {
        if let Some(s) = &mut self.session {
            self.gate.defend_batch(&mut packets);
            s.packets.reserve(packets.len());
            for p in packets {
                self.admit(p);
            }
        }
    }

    /// Apply the defense and any injected capture fault, encrypt, and
    /// record one packet.
    fn admit(&mut self, mut p: Packet) {
        let Some(session) = &mut self.session else {
            return;
        };
        let len = match self.gate.admit(&session.label, &mut p) {
            PacketFate::Blocked => return,
            PacketFate::Drop => {
                self.stats.dropped += 1;
                return;
            }
            PacketFate::Truncate(key) => {
                self.stats.truncated += 1;
                self.gate.plane.truncated_len(&key, p.payload.wire_len())
            }
            PacketFate::Keep => p.payload.wire_len(),
        };
        p.payload = Payload::Encrypted { len };
        self.stats.observe(len);
        session.packets.push(p);
    }

    /// Running totals across the tap's whole life.
    pub fn stats(&self) -> TapStats {
        self.stats
    }

    /// End the active session (the paper's "disable tcpdump").
    pub fn stop(&mut self) {
        if let Some(s) = self.session.take() {
            self.finished.push(s);
        }
    }

    /// All finalized captures, in session order.
    pub fn captures(&self) -> &[Capture] {
        &self.finished
    }

    /// Consume the tap, returning its captures.
    pub fn into_captures(mut self) -> Vec<Capture> {
        self.stop();
        self.finished
    }

    /// Flatten all captures into router-view flow records.
    pub fn flow_records(&self) -> Vec<(String, FlowRecord)> {
        let mut out = Vec::new();
        for c in &self.finished {
            for p in &c.packets {
                out.push((
                    c.label.clone(),
                    FlowRecord {
                        ts_ms: p.ts_ms,
                        direction: p.direction,
                        remote: p.remote.clone(),
                        remote_ip: p.remote_ip,
                        bytes: p.payload.wire_len(),
                    },
                ));
            }
        }
        out
    }
}

/// The AVS Echo tap: records payloads before encryption.
#[derive(Debug, Default)]
pub struct AvsTap {
    session: Option<Capture>,
    finished: Vec<Capture>,
    stats: TapStats,
    gate: TapGate,
}

impl AvsTap {
    /// Create a tap with no active session.
    pub fn new() -> AvsTap {
        AvsTap::default()
    }

    /// A tap whose capture path consults `plane` for packet drops and flow
    /// truncation. With an inactive plane this is exactly [`AvsTap::new`].
    pub fn with_faults(plane: FaultPlane) -> AvsTap {
        let mut tap = AvsTap::default();
        tap.gate.plane = plane;
        tap
    }

    /// The same tap behind a user-side defense: it takes every packet the
    /// device sends and records only what the defense lets out, as sent.
    pub fn with_defense(mut self, defense: DefenseMode) -> AvsTap {
        self.gate.defense = DefenseRules::new(defense);
        self
    }

    /// Begin a capture session.
    pub fn start(&mut self, label: impl Into<String>) {
        self.stop();
        self.stats.sessions += 1;
        self.gate.seq = 0;
        self.session = Some(Capture::new(label));
    }

    /// Observe one packet with full plaintext visibility.
    pub fn observe(&mut self, packet: &Packet) {
        if self.session.is_some() {
            self.admit(packet.clone());
        }
    }

    /// Observe a whole packet batch in one call, taking ownership to avoid
    /// per-packet clones. No-op unless a session is active.
    pub fn observe_batch(&mut self, mut packets: Vec<Packet>) {
        let Some(session) = &mut self.session else {
            return;
        };
        if !self.gate.plane.is_active() {
            self.gate.defend_batch(&mut packets);
            for p in &packets {
                self.stats.observe(p.payload.wire_len());
            }
            if session.packets.is_empty() {
                session.packets = packets;
            } else {
                session.packets.extend(packets);
            }
            return;
        }
        for p in packets {
            self.admit(p);
        }
    }

    /// Apply the defense and any injected capture fault, and record one
    /// packet. The AVS view is plaintext, so truncation cuts trailing typed
    /// records rather than ciphertext bytes.
    fn admit(&mut self, mut p: Packet) {
        let Some(session) = &mut self.session else {
            return;
        };
        match self.gate.admit(&session.label, &mut p) {
            PacketFate::Blocked => return,
            PacketFate::Drop => {
                self.stats.dropped += 1;
                return;
            }
            PacketFate::Truncate(key) => {
                match &mut p.payload {
                    Payload::Plain(records) => {
                        let keep = self.gate.plane.truncated_len(&key, records.len());
                        records.truncate(keep);
                    }
                    Payload::Encrypted { len } => {
                        *len = self.gate.plane.truncated_len(&key, *len);
                    }
                }
                self.stats.truncated += 1;
            }
            PacketFate::Keep => {}
        }
        self.stats.observe(p.payload.wire_len());
        session.packets.push(p);
    }

    /// Running totals across the tap's whole life.
    pub fn stats(&self) -> TapStats {
        self.stats
    }

    /// End the active session.
    pub fn stop(&mut self) {
        if let Some(s) = self.session.take() {
            self.finished.push(s);
        }
    }

    /// All finalized captures.
    pub fn captures(&self) -> &[Capture] {
        &self.finished
    }

    /// Consume the tap, returning its captures.
    pub fn into_captures(mut self) -> Vec<Capture> {
        self.stop();
        self.finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{DataType, Payload, Record};

    fn pkt(ts: u64, name: &str, records: Vec<Record>) -> Packet {
        Packet::outgoing(
            ts,
            Domain::parse(name).unwrap(),
            Ipv4Addr::new(10, 1, 2, 3),
            Payload::Plain(records),
        )
    }

    #[test]
    fn router_tap_hides_payloads() {
        let mut tap = RouterTap::new();
        tap.start("skill-a");
        tap.observe(&pkt(
            1,
            "amazon.com",
            vec![Record::new(DataType::VoiceRecording, "hello")],
        ));
        tap.stop();
        let caps = tap.captures();
        assert_eq!(caps.len(), 1);
        assert!(caps[0].packets[0].payload.records().is_none());
        // ...but preserves size.
        assert_eq!(caps[0].packets[0].payload.wire_len(), 8 + 5);
    }

    #[test]
    fn avs_tap_preserves_payloads() {
        let mut tap = AvsTap::new();
        tap.start("skill-a");
        tap.observe(&pkt(
            1,
            "amazon.com",
            vec![Record::new(DataType::CustomerId, "A1")],
        ));
        tap.stop();
        let records = tap.captures()[0].packets[0].payload.records().unwrap();
        assert_eq!(records[0].data_type, DataType::CustomerId);
    }

    #[test]
    fn observe_without_session_is_dropped() {
        let mut tap = RouterTap::new();
        tap.observe(&pkt(1, "amazon.com", vec![]));
        tap.start("s");
        tap.stop();
        assert_eq!(tap.captures().len(), 1);
        assert!(tap.captures()[0].packets.is_empty());
    }

    #[test]
    fn sessions_attribute_traffic_to_labels() {
        let mut tap = RouterTap::new();
        tap.start("garmin");
        tap.observe(&pkt(1, "static.garmincdn.com", vec![]));
        tap.start("sonos"); // implicit stop of garmin session
        tap.observe(&pkt(2, "amazon.com", vec![]));
        tap.stop();
        let caps = tap.captures();
        assert_eq!(caps.len(), 2);
        assert_eq!(caps[0].label, "garmin");
        assert_eq!(caps[1].label, "sonos");
        assert_eq!(caps[0].packets[0].remote.as_str(), "static.garmincdn.com");
    }

    #[test]
    fn flow_records_flatten_with_labels() {
        let mut tap = RouterTap::new();
        tap.start("a");
        tap.observe(&pkt(
            1,
            "amazon.com",
            vec![Record::new(DataType::SkillId, "x")],
        ));
        tap.observe(&pkt(2, "chtbl.com", vec![]));
        tap.stop();
        let flows = tap.flow_records();
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].0, "a");
        assert_eq!(flows[1].1.remote.as_str(), "chtbl.com");
    }

    #[test]
    fn capture_endpoint_dedup() {
        let mut c = Capture::new("x");
        c.packets.push(pkt(1, "amazon.com", vec![]));
        c.packets.push(pkt(2, "amazon.com", vec![]));
        c.packets.push(pkt(3, "api.amazon.com", vec![]));
        assert_eq!(c.endpoints().len(), 2);
    }

    #[test]
    fn observe_batch_matches_per_packet_observe() {
        let batch = vec![
            pkt(
                1,
                "amazon.com",
                vec![Record::new(DataType::VoiceRecording, "hi")],
            ),
            pkt(2, "chtbl.com", vec![]),
        ];
        let mut one = RouterTap::new();
        one.start("s");
        for p in &batch {
            one.observe(p);
        }
        one.stop();
        let mut many = RouterTap::new();
        many.start("s");
        many.observe_batch(batch.clone());
        many.stop();
        assert_eq!(
            format!("{:?}", one.captures()),
            format!("{:?}", many.captures())
        );

        let mut avs_one = AvsTap::new();
        avs_one.start("s");
        for p in &batch {
            avs_one.observe(p);
        }
        avs_one.stop();
        let mut avs_many = AvsTap::new();
        avs_many.start("s");
        avs_many.observe_batch(batch);
        avs_many.stop();
        assert_eq!(
            format!("{:?}", avs_one.captures()),
            format!("{:?}", avs_many.captures())
        );
    }

    #[test]
    fn observe_batch_without_session_is_dropped() {
        let mut tap = RouterTap::new();
        tap.observe_batch(vec![pkt(1, "amazon.com", vec![])]);
        tap.start("s");
        tap.stop();
        assert!(tap.captures()[0].packets.is_empty());
    }

    #[test]
    fn tap_stats_track_sessions_packets_bytes() {
        let mut tap = RouterTap::new();
        assert_eq!(tap.stats(), TapStats::default());
        tap.observe(&pkt(0, "amazon.com", vec![])); // no session: not counted
        tap.start("a");
        tap.observe(&pkt(
            1,
            "amazon.com",
            vec![Record::new(DataType::VoiceRecording, "hello")],
        ));
        tap.start("b");
        tap.observe_batch(vec![
            pkt(2, "chtbl.com", vec![]),
            pkt(3, "amazon.com", vec![]),
        ]);
        tap.stop();
        let s = tap.stats();
        assert_eq!(s.sessions, 2);
        assert_eq!(s.packets, 3);
        // Bytes are post-encryption wire lengths, so they match the capture.
        let captured: usize = tap.captures().iter().map(Capture::total_bytes).sum();
        assert_eq!(s.bytes, captured);

        let mut avs = AvsTap::new();
        avs.start("s");
        avs.observe_batch(vec![pkt(
            1,
            "amazon.com",
            vec![Record::new(DataType::CustomerId, "A1")],
        )]);
        avs.observe(&pkt(2, "amazon.com", vec![]));
        let s = avs.stats();
        assert_eq!((s.sessions, s.packets), (1, 2));
        assert_eq!(
            s.bytes,
            avs.captures()
                .iter()
                .chain(avs.session.iter())
                .map(Capture::total_bytes)
                .sum::<usize>()
        );
    }

    #[test]
    fn inactive_fault_plane_changes_nothing() {
        use alexa_fault::FaultProfile;
        let batch = vec![
            pkt(
                1,
                "amazon.com",
                vec![Record::new(DataType::VoiceRecording, "hi")],
            ),
            pkt(2, "chtbl.com", vec![]),
        ];
        let mut plain = RouterTap::new();
        let mut gated = RouterTap::with_faults(FaultPlane::new(7, FaultProfile::none()));
        for tap in [&mut plain, &mut gated] {
            tap.start("s");
            tap.observe_batch(batch.clone());
            tap.stop();
        }
        assert_eq!(
            format!("{:?}", plain.captures()),
            format!("{:?}", gated.captures())
        );
        assert_eq!(plain.stats(), gated.stats());
    }

    #[test]
    fn faulted_tap_drops_and_truncates_deterministically() {
        use alexa_fault::FaultProfile;
        let batch: Vec<Packet> = (0..200)
            .map(|i| {
                pkt(
                    i,
                    "amazon.com",
                    vec![Record::new(DataType::VoiceRecording, "hello world")],
                )
            })
            .collect();
        let run = |seed: u64| {
            let mut tap = RouterTap::with_faults(FaultPlane::new(seed, FaultProfile::hostile()));
            tap.start("skill");
            tap.observe_batch(batch.clone());
            tap.stop();
            (format!("{:?}", tap.captures()), tap.stats())
        };
        let (caps_a, stats_a) = run(7);
        let (caps_b, stats_b) = run(7);
        assert_eq!(caps_a, caps_b, "same seed, same capture");
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.dropped > 0, "hostile profile must drop packets");
        assert!(stats_a.truncated > 0, "hostile profile must truncate flows");
        assert_eq!(stats_a.packets + stats_a.dropped, batch.len());
        let (caps_c, _) = run(8);
        assert_ne!(caps_a, caps_c, "fault placement follows the seed");
    }

    #[test]
    fn avs_truncation_cuts_records_not_packets() {
        use alexa_fault::FaultProfile;
        let batch: Vec<Packet> = (0..100)
            .map(|i| {
                pkt(
                    i,
                    "avs-alexa-na.amazon.com",
                    vec![
                        Record::new(DataType::VoiceRecording, "hello"),
                        Record::new(DataType::CustomerId, "A1"),
                        Record::new(DataType::SkillId, "s"),
                        Record::new(DataType::Timezone, "tz"),
                    ],
                )
            })
            .collect();
        let mut tap = AvsTap::with_faults(FaultPlane::new(1234, FaultProfile::hostile()));
        tap.start("skill");
        tap.observe_batch(batch);
        tap.stop();
        let stats = tap.stats();
        assert!(stats.truncated > 0);
        // Truncated packets keep a non-empty record prefix.
        assert!(tap.captures()[0]
            .packets
            .iter()
            .all(|p| !p.payload.records().unwrap().is_empty()));
        assert!(tap.captures()[0]
            .packets
            .iter()
            .any(|p| p.payload.records().unwrap().len() < 4));
    }

    #[test]
    fn fault_keys_reset_per_session() {
        use alexa_fault::FaultProfile;
        // Two sessions with the same label see identical fault placement.
        let plane = FaultPlane::new(42, FaultProfile::hostile());
        let batch: Vec<Packet> = (0..50).map(|i| pkt(i, "amazon.com", vec![])).collect();
        let mut tap = RouterTap::with_faults(plane);
        tap.start("same");
        tap.observe_batch(batch.clone());
        tap.start("same");
        tap.observe_batch(batch);
        tap.stop();
        let caps = tap.captures();
        assert_eq!(
            format!("{:?}", caps[0].packets),
            format!("{:?}", caps[1].packets)
        );
    }

    /// The tap takes the device's packets before the defense: a blocked
    /// packet uses up its sequence number, so every admitted packet meets
    /// the same fate (kept, dropped, or truncated to the same length)
    /// behind a firewall as without one.
    #[test]
    fn admitted_packets_meet_the_same_fate_behind_a_firewall() {
        use alexa_fault::FaultProfile;
        use std::collections::BTreeMap;
        let hosts = [
            "avs-alexa-na.amazon.com",
            "dts.podtrac.com",
            "dillilabs.com",
            "device-metrics-us-2.amazon.com",
            "api.amazon.com",
        ];
        let batch: Vec<Packet> = (0..300)
            .map(|i| {
                pkt(
                    i as u64,
                    hosts[(i * i + i / 7) % hosts.len()],
                    vec![
                        Record::new(DataType::VoiceRecording, "hello"),
                        Record::new(DataType::CustomerId, "A1"),
                        Record::new(DataType::SkillId, "s"),
                    ],
                )
            })
            .collect();
        let rules = DefenseRules::new(DefenseMode::Firewall);
        let admitted: Vec<u64> = batch
            .iter()
            .filter(|p| rules.admits(&p.remote))
            .map(|p| p.ts_ms)
            .collect();
        assert!(
            admitted.len() < batch.len(),
            "the batch must hold blocked hosts"
        );
        let fates = |caps: &[Capture]| -> BTreeMap<u64, Payload> {
            caps[0]
                .packets
                .iter()
                .map(|p| (p.ts_ms, p.payload.clone()))
                .collect()
        };
        let plane = || FaultPlane::new(7, FaultProfile::hostile());
        let admitted_only = |mut all: BTreeMap<u64, Payload>| {
            all.retain(|ts, _| admitted.contains(ts));
            all
        };

        let mut open = RouterTap::with_faults(plane());
        let mut defended = RouterTap::with_faults(plane()).with_defense(DefenseMode::Firewall);
        for tap in [&mut open, &mut defended] {
            tap.start("skill");
            tap.observe_batch(batch.clone());
            tap.stop();
        }
        let (s, d) = (open.stats(), defended.stats());
        assert!(
            d.dropped > 0 && d.truncated > 0,
            "hostile must fault: {d:?}"
        );
        assert_eq!(
            d.packets + d.dropped,
            admitted.len(),
            "blocked packets are not counted"
        );
        assert!(s.dropped >= d.dropped && s.truncated >= d.truncated);
        assert_eq!(
            admitted_only(fates(open.captures())),
            fates(defended.captures())
        );

        let mut open = AvsTap::with_faults(plane());
        let mut defended = AvsTap::with_faults(plane()).with_defense(DefenseMode::Firewall);
        for tap in [&mut open, &mut defended] {
            tap.start("skill");
            tap.observe_batch(batch.clone());
            tap.stop();
        }
        assert!(defended.stats().truncated > 0);
        assert_eq!(
            admitted_only(fates(open.captures())),
            fates(defended.captures())
        );
    }

    #[test]
    fn into_captures_finalizes_open_session() {
        let mut tap = AvsTap::new();
        tap.start("open");
        tap.observe(&pkt(1, "amazon.com", vec![]));
        let caps = tap.into_captures();
        assert_eq!(caps.len(), 1);
    }
}
