//! Wire codecs for the shard fan-out (DESIGN.md §15), and the canonical
//! encoding the observations digest hashes.
//!
//! When shards execute outside the parent process (`--backend process`) or
//! through the mock remote, their outputs cross a wire as bytes, written by
//! one byte codec: unsigned integers as LEB128 varints, `f64` as its eight
//! little-endian IEEE-754 bytes, enums as their index in a fixed variant
//! list, strings and sequences behind a varint length. Bidder, slot and
//! sync labels are interned per shard: the first occurrence carries the
//! text, later ones carry its index, and the decoder hands out one shared
//! `Arc<str>` per text, as the in-process crawl does. The codec is
//! **bit-exact**, so a decoded shard is indistinguishable from one produced
//! in-process — the foundation of the cross-backend byte-identical-bundle
//! guarantee.
//!
//! The same encoders define the canonical bytes of a whole
//! [`Observations`] record ([`write_observations`]); `Observations::digest`
//! streams them into an FNV-1a hash without holding the encoding.
//!
//! The decoders return `None` on any malformed input and never panic: every
//! length prefix is checked against the remaining input before anything is
//! allocated, and every `Domain` is re-validated through [`Domain::parse`].
//!
//! Only the audit configuration a spec carries (a few hundred bytes) stays
//! JSON: it reuses [`FaultProfile`]'s wire form, and workers key their
//! memoized world on its text.
//!
//! Everything is `pub(crate)`: the consumers are the fan-out in
//! [`crate::experiment`], the worker loop in [`crate::worker`] and the
//! digest in [`crate::observations`].

use crate::addr::{arc_key, AddrMap};
use crate::experiment::{AuditConfig, AvsShard, DefenseMode, PersonaShard, ShardAlloc};
use crate::observations::Observations;
use alexa_adtech::{Bid, Creative, StreamingService, SyncObservation, VisitRecord};
use alexa_fault::{Coverage, FaultChannel, FaultLedger, FaultProfile};
use alexa_net::{Capture, DataType, Direction, Domain, Packet, Payload, Record};
use alexa_obs::{Histogram, Json, ShardLog};
use alexa_platform::{DsarExport, DsarPhase, Interest};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

// ---- Audit configuration ------------------------------------------------

fn defense_token(d: DefenseMode) -> &'static str {
    match d {
        DefenseMode::None => "none",
        DefenseMode::Firewall => "firewall",
        DefenseMode::TextOnly => "text-only",
    }
}

fn defense_from_token(s: &str) -> Option<DefenseMode> {
    match s {
        "none" => Some(DefenseMode::None),
        "firewall" => Some(DefenseMode::Firewall),
        "text-only" => Some(DefenseMode::TextOnly),
        _ => None,
    }
}

/// Serialize everything a worker needs to rebuild the run's world. The
/// engine knobs (`jobs`, backend selection) deliberately stay behind: a
/// worker always executes its shard sequentially in-process. `audio_hours`
/// travels as its bit pattern in hex, as fault rates do.
pub(crate) fn config_to_json(c: &AuditConfig) -> Json {
    let int = |v: usize| Json::Int(v as u64);
    Json::Obj(vec![
        ("seed".into(), Json::Int(c.seed)),
        ("skills_per_category".into(), int(c.skills_per_category)),
        ("crawl_sites".into(), int(c.crawl_sites)),
        ("web_size".into(), int(c.web_size)),
        ("pre_iterations".into(), int(c.pre_iterations)),
        ("post_iterations".into(), int(c.post_iterations)),
        (
            "audio_hours".into(),
            Json::Str(format!("{:016x}", c.audio_hours.to_bits())),
        ),
        ("utterances_per_skill".into(), int(c.utterances_per_skill)),
        ("defense".into(), Json::Str(defense_token(c.defense).into())),
        ("fault".into(), c.fault.to_wire_json()),
    ])
}

pub(crate) fn config_from_json(j: &Json) -> Option<AuditConfig> {
    let int = |k: &str| j.get(k).and_then(Json::as_u64);
    let size = |k: &str| int(k).and_then(|v| usize::try_from(v).ok());
    let hours = j.get("audio_hours")?.as_str()?;
    if hours.len() != 16 {
        return None;
    }
    Some(AuditConfig {
        seed: int("seed")?,
        skills_per_category: size("skills_per_category")?,
        crawl_sites: size("crawl_sites")?,
        web_size: size("web_size")?,
        pre_iterations: size("pre_iterations")?,
        post_iterations: size("post_iterations")?,
        audio_hours: f64::from_bits(u64::from_str_radix(hours, 16).ok()?),
        utterances_per_skill: size("utterances_per_skill")?,
        defense: defense_from_token(j.get("defense")?.as_str()?)?,
        fault: FaultProfile::from_wire_json(j.get("fault")?)?,
        jobs: Some(1),
        backend: alexa_exec::BackendChoice::Thread,
        worker_cmd: Vec::new(),
        worker_timeout_ms: 30_000,
    })
}

// ---- Byte primitives ------------------------------------------------------

/// Appends values to one byte buffer; see the module docs for the format.
///
/// A writer made with a finite `fold_at` keeps no encoding: whenever a
/// sequence item leaves `fold_at` or more bytes buffered, it folds the
/// buffer into its running FNV-1a hash and reuses it, so its memory stays
/// bounded by `fold_at` plus one item however long the encoding grows.
pub(crate) struct ByteWriter {
    buf: Vec<u8>,
    /// Interned labels of the current section, by first-occurrence index.
    /// Keyed by text: equal text in distinct allocations shares one index.
    labels: BTreeMap<Arc<str>, u64>,
    /// The same indices keyed by allocation address, probed first. A miss
    /// falls through to `labels`. Each entry holds its `Arc`, so no other
    /// text can take over a memoized address.
    memo: AddrMap<(u64, Arc<str>)>,
    /// FNV-1a state over the bytes folded out of `buf`.
    hash: u64,
    /// Bytes folded out of `buf`.
    folded: u64,
    /// Buffer size at which an item boundary folds; `usize::MAX` keeps the
    /// whole encoding in `buf`.
    fold_at: usize,
}

impl ByteWriter {
    fn new(fold_at: usize) -> ByteWriter {
        ByteWriter {
            buf: Vec::new(),
            labels: BTreeMap::new(),
            memo: AddrMap::default(),
            hash: 0xcbf2_9ce4_8422_2325,
            folded: 0,
            fold_at,
        }
    }

    /// Fold the buffer into the hash once it holds `fold_at` bytes.
    fn maybe_fold(&mut self) {
        if self.buf.len() >= self.fold_at {
            self.fold();
        }
    }

    fn fold(&mut self) {
        for &b in &self.buf {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        self.folded += self.buf.len() as u64;
        self.buf.clear();
    }

    /// The FNV-1a hash of everything written, and its length in bytes.
    fn finish_hash(mut self) -> (u64, u64) {
        self.fold();
        (self.hash, self.folded)
    }

    /// Start a section: labels from here on are interned in a fresh table.
    fn section(&mut self) {
        self.labels.clear();
        self.memo.clear();
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    fn usize(&mut self, v: usize) {
        self.varint(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// `0` then the text on a label's first occurrence, `index + 1` after.
    fn label(&mut self, s: &Arc<str>) {
        if let Some(&(i, _)) = self.memo.get(&arc_key(s)) {
            self.varint(i + 1);
            return;
        }
        let i = match self.labels.get(&**s) {
            Some(&i) => {
                self.varint(i + 1);
                i
            }
            None => {
                let i = self.labels.len() as u64;
                self.labels.insert(Arc::clone(s), i);
                self.varint(0);
                self.str(s);
                i
            }
        };
        self.memo.insert(arc_key(s), (i, Arc::clone(s)));
    }

    /// A variant as its position in `all`, which lists every variant. A
    /// value missing from `all` writes an index no decoder accepts.
    fn variant<T: PartialEq>(&mut self, all: &[T], v: &T) {
        let i = all.iter().position(|x| x == v).unwrap_or(all.len());
        self.usize(i);
    }

    fn seq<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        self.usize(items.len());
        for x in items {
            item(self, x);
            self.maybe_fold();
        }
    }

    /// A map as a sequence of its entries, in key order.
    fn entries<K, V>(&mut self, map: &BTreeMap<K, V>, mut entry: impl FnMut(&mut Self, &K, &V)) {
        self.usize(map.len());
        for (k, v) in map {
            entry(self, k, v);
            self.maybe_fold();
        }
    }
}

/// Raw text, for the digest's `Debug`-rendered fields.
impl std::fmt::Write for ByteWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.buf.extend_from_slice(s.as_bytes());
        self.maybe_fold();
        Ok(())
    }
}

/// Reads what [`ByteWriter`] wrote. Every read returns `None` when the
/// input is short or invalid; nothing here panics.
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    /// Labels decoded so far, by first-occurrence index.
    labels: Vec<Arc<str>>,
}

impl<'a> ByteReader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.buf.len() {
            return None;
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        let (&b, rest) = self.buf.split_first()?;
        self.buf = rest;
        Some(b)
    }

    fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            let bits = u64::from(b & 0x7f);
            if shift == 63 && bits > 1 {
                return None;
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    }

    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.varint()?).ok()
    }

    /// A sequence length. Every encoded element takes at least one byte,
    /// so a count above the remaining input is malformed; this bounds
    /// every `with_capacity` by the input size.
    fn count(&mut self) -> Option<usize> {
        self.usize().filter(|&n| n <= self.buf.len())
    }

    fn f64(&mut self) -> Option<f64> {
        let bytes: [u8; 8] = self.take(8)?.try_into().ok()?;
        Some(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn str(&mut self) -> Option<&'a str> {
        let n = self.usize()?;
        std::str::from_utf8(self.take(n)?).ok()
    }

    fn string(&mut self) -> Option<String> {
        self.str().map(str::to_string)
    }

    fn label(&mut self) -> Option<Arc<str>> {
        match self.varint()? {
            0 => {
                let label: Arc<str> = Arc::from(self.str()?);
                self.labels.push(Arc::clone(&label));
                Some(label)
            }
            i => self.labels.get(usize::try_from(i - 1).ok()?).cloned(),
        }
    }

    fn variant<T: Copy>(&mut self, all: &[T]) -> Option<T> {
        all.get(self.usize()?).copied()
    }

    fn seq<T>(&mut self, mut item: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let n = self.count()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Some(out)
    }
}

/// Encode one value with a fresh label table.
pub(crate) fn to_bytes(write: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::new(usize::MAX);
    write(&mut w);
    w.buf
}

/// Decode one value that must span all of `bytes`.
pub(crate) fn from_bytes<'a, T>(
    bytes: &'a [u8],
    read: impl FnOnce(&mut ByteReader<'a>) -> Option<T>,
) -> Option<T> {
    let mut r = ByteReader {
        buf: bytes,
        labels: Vec::new(),
    };
    let value = read(&mut r)?;
    r.buf.is_empty().then_some(value)
}

// ---- Network captures ----------------------------------------------------

const DIRECTIONS: [Direction; 2] = [Direction::Outgoing, Direction::Incoming];

fn write_payload(w: &mut ByteWriter, p: &Payload) {
    match p {
        Payload::Encrypted { len } => {
            w.u8(0);
            w.usize(*len);
        }
        Payload::Plain(records) => {
            w.u8(1);
            w.seq(records, |w, r| {
                w.variant(&DataType::ALL, &r.data_type);
                w.str(&r.value);
            });
        }
    }
}

fn read_payload(r: &mut ByteReader<'_>) -> Option<Payload> {
    match r.u8()? {
        0 => Some(Payload::Encrypted { len: r.usize()? }),
        1 => Some(Payload::Plain(r.seq(|r| {
            Some(Record {
                data_type: r.variant(&DataType::ALL)?,
                value: r.string()?,
            })
        })?)),
        _ => None,
    }
}

fn write_captures(w: &mut ByteWriter, cs: &[Capture]) {
    w.seq(cs, |w, c| {
        w.str(&c.label);
        w.seq(&c.packets, |w, p| {
            w.varint(p.ts_ms);
            w.variant(&DIRECTIONS, &p.direction);
            w.str(p.remote.as_str());
            w.buf.extend_from_slice(&p.remote_ip.octets());
            write_payload(w, &p.payload);
        });
    });
}

fn read_captures(r: &mut ByteReader<'_>) -> Option<Vec<Capture>> {
    r.seq(|r| {
        Some(Capture {
            label: r.string()?,
            packets: r.seq(|r| {
                Some(Packet {
                    ts_ms: r.varint()?,
                    direction: r.variant(&DIRECTIONS)?,
                    remote: Domain::parse(r.str()?).ok()?,
                    remote_ip: {
                        let octets: [u8; 4] = r.take(4)?.try_into().ok()?;
                        Ipv4Addr::from(octets)
                    },
                    payload: read_payload(r)?,
                })
            })?,
        })
    })
}

// ---- DSAR exports and audio ------------------------------------------------

const PHASES: [DsarPhase; 3] = [
    DsarPhase::AfterInstall,
    DsarPhase::AfterInteraction1,
    DsarPhase::AfterInteraction2,
];

const INTERESTS: [Interest; 7] = [
    Interest::Electronics,
    Interest::DiyTools,
    Interest::HomeKitchen,
    Interest::BeautyPersonalCare,
    Interest::Fashion,
    Interest::VideoEntertainment,
    Interest::PetSupplies,
];

fn write_strings(w: &mut ByteWriter, v: &[String]) {
    w.seq(v, |w, s| w.str(s));
}

fn read_strings(r: &mut ByteReader<'_>) -> Option<Vec<String>> {
    r.seq(ByteReader::string)
}

fn write_dsar(w: &mut ByteWriter, e: &DsarExport) {
    w.str(&e.account);
    match &e.advertising_interests {
        None => w.u8(0),
        Some(list) => {
            w.u8(1);
            w.seq(list, |w, i| w.variant(&INTERESTS, i));
        }
    }
    write_strings(w, &e.interaction_history);
}

fn read_dsar(r: &mut ByteReader<'_>) -> Option<DsarExport> {
    Some(DsarExport {
        account: r.string()?,
        advertising_interests: match r.u8()? {
            0 => None,
            1 => Some(r.seq(|r| r.variant(&INTERESTS))?),
            _ => return None,
        },
        interaction_history: read_strings(r)?,
    })
}

// ---- Crawl records --------------------------------------------------------

fn write_visit(w: &mut ByteWriter, v: &VisitRecord) {
    w.str(&v.site);
    w.usize(v.iteration);
    w.seq(&v.bids, |w, b| {
        w.label(&b.bidder);
        w.label(&b.slot_id);
        w.f64(b.cpm);
    });
    w.seq(&v.creatives, |w, c| {
        w.str(&c.advertiser);
        w.str(&c.product);
    });
    w.seq(&v.syncs, |w, s| {
        w.label(&s.from_org);
        w.label(&s.to_org);
        w.label(&s.user_id);
    });
}

fn read_visit(r: &mut ByteReader<'_>) -> Option<VisitRecord> {
    Some(VisitRecord {
        site: r.string()?,
        iteration: r.usize()?,
        bids: r.seq(|r| {
            Some(Bid {
                bidder: r.label()?,
                slot_id: r.label()?,
                cpm: r.f64()?,
            })
        })?,
        creatives: r.seq(|r| {
            Some(Creative {
                advertiser: r.string()?,
                product: r.string()?,
            })
        })?,
        syncs: r.seq(|r| {
            Some(SyncObservation {
                from_org: r.label()?,
                to_org: r.label()?,
                user_id: r.label()?,
            })
        })?,
    })
}

// ---- Fault accounting ------------------------------------------------------

fn write_coverage(w: &mut ByteWriter, c: &Coverage) {
    w.varint(c.observed);
    w.varint(c.expected);
}

fn read_coverage(r: &mut ByteReader<'_>) -> Option<Coverage> {
    Some(Coverage::new(r.varint()?, r.varint()?))
}

fn write_ledger(w: &mut ByteWriter, l: &FaultLedger) {
    w.usize(l.injected.len());
    for (label, n) in &l.injected {
        w.str(label);
        w.varint(*n);
    }
    w.varint(l.retries);
    w.varint(l.backoff_ms);
    w.varint(l.losses);
    w.bool(l.degraded);
}

fn read_ledger(r: &mut ByteReader<'_>) -> Option<FaultLedger> {
    let mut injected = BTreeMap::new();
    for _ in 0..r.count()? {
        // Round-trip through the channel registry to recover the 'static
        // label the ledger stores.
        let channel = FaultChannel::from_label(r.str()?)?;
        injected.insert(channel.label(), r.varint()?);
    }
    Some(FaultLedger {
        injected,
        retries: r.varint()?,
        backoff_ms: r.varint()?,
        losses: r.varint()?,
        degraded: r.bool()?,
    })
}

// ---- Shard payloads ---------------------------------------------------------

pub(crate) fn write_persona_shard(w: &mut ByteWriter, s: &PersonaShard) {
    match &s.router_captures {
        None => w.u8(0),
        Some(cs) => {
            w.u8(1);
            write_captures(w, cs);
        }
    }
    write_strings(w, &s.failed_installs);
    w.seq(&s.dsar, |w, (phase, export)| {
        w.variant(&PHASES, phase);
        write_dsar(w, export);
    });
    w.seq(&s.crawl, write_visit);
    w.seq(&s.audio, |w, (service, transcripts)| {
        w.variant(&StreamingService::ALL, service);
        write_strings(w, transcripts);
    });
    write_ledger(w, &s.ledger);
    write_coverage(w, &s.installs);
    write_coverage(w, &s.interactions);
    write_coverage(w, &s.visits);
}

pub(crate) fn read_persona_shard(r: &mut ByteReader<'_>) -> Option<PersonaShard> {
    Some(PersonaShard {
        router_captures: match r.u8()? {
            0 => None,
            1 => Some(read_captures(r)?),
            _ => return None,
        },
        failed_installs: read_strings(r)?,
        dsar: r.seq(|r| Some((r.variant(&PHASES)?, read_dsar(r)?)))?,
        crawl: r.seq(read_visit)?,
        audio: r.seq(|r| Some((r.variant(&StreamingService::ALL)?, read_strings(r)?)))?,
        ledger: read_ledger(r)?,
        installs: read_coverage(r)?,
        interactions: read_coverage(r)?,
        visits: read_coverage(r)?,
    })
}

pub(crate) fn write_avs_shard(w: &mut ByteWriter, s: &AvsShard) {
    write_captures(w, &s.captures);
    write_ledger(w, &s.ledger);
    write_coverage(w, &s.skills);
}

pub(crate) fn read_avs_shard(r: &mut ByteReader<'_>) -> Option<AvsShard> {
    Some(AvsShard {
        captures: read_captures(r)?,
        ledger: read_ledger(r)?,
        skills: read_coverage(r)?,
    })
}

/// Write a shard's allocation window. The size histogram travels sparsely
/// — one `(bucket_lo, count)` pair per non-empty bucket — because a
/// 65-bucket log2 histogram is almost entirely zeros.
pub(crate) fn write_shard_alloc(w: &mut ByteWriter, a: &ShardAlloc) {
    w.varint(a.count);
    w.varint(a.bytes);
    w.varint(a.peak_bytes);
    w.seq(&a.sizes.sparse(), |w, &(lo, _hi, count)| {
        w.varint(lo);
        w.varint(count);
    });
}

pub(crate) fn read_shard_alloc(r: &mut ByteReader<'_>) -> Option<ShardAlloc> {
    let count = r.varint()?;
    let bytes = r.varint()?;
    let peak_bytes = r.varint()?;
    let mut sizes = Histogram::new();
    let mut next_bucket = 0;
    for _ in 0..r.count()? {
        // Pairs come as `sparse` writes them: ascending, one per non-empty
        // bucket, keyed by the bucket's lower bound. A bound is itself a
        // member of its bucket, so recording it `count` times rebuilds the
        // exact bucket array, and no bucket is added to twice.
        let (lo, count) = (r.varint()?, r.varint()?);
        let bucket = Histogram::bucket_of(lo);
        if bucket < next_bucket || Histogram::bounds(bucket).0 != lo || count == 0 {
            return None;
        }
        sizes.record_n(lo, count);
        next_bucket = bucket + 1;
    }
    Some(ShardAlloc {
        count,
        bytes,
        peak_bytes,
        sizes,
    })
}

// ---- Observations digest ---------------------------------------------------

/// Write the canonical encoding of `obs`, the bytes `Observations::digest`
/// hashes.
///
/// A header (seed, pre and post iterations), then one section each for
/// every persona's router captures, the AVS captures, every persona's crawl
/// visits, the audio transcripts, the DSAR exports and the failed installs,
/// each with a fresh label table. The fields the codec has no encoder for
/// follow as `|`-separated `Debug` text: policies, catalog, the org
/// database and, on faulted runs, the coverage report.
pub(crate) fn write_observations(w: &mut ByteWriter, obs: &Observations) {
    use std::fmt::Write as _;

    w.varint(obs.seed);
    w.usize(obs.pre_iterations);
    w.usize(obs.post_iterations);
    w.entries(&obs.router_captures, |w, persona, captures| {
        w.section();
        w.str(persona);
        write_captures(w, captures);
    });
    w.section();
    write_captures(w, &obs.avs_captures);
    w.entries(&obs.crawl, |w, persona, visits| {
        w.section();
        w.str(persona);
        w.seq(visits, write_visit);
    });
    w.section();
    w.entries(&obs.audio, |w, (persona, service), transcripts| {
        w.str(persona);
        w.variant(&StreamingService::ALL, service);
        write_strings(w, transcripts);
    });
    w.section();
    w.entries(&obs.dsar, |w, (persona, phase), export| {
        w.str(persona);
        w.variant(&PHASES, phase);
        write_dsar(w, export);
    });
    w.section();
    w.entries(&obs.failed_installs, |w, persona, skills| {
        w.str(persona);
        write_strings(w, skills);
    });
    w.section();
    // ByteWriter::write_str never fails; the Results are discardable.
    let _ = write!(
        w,
        "{:?}|{:?}|{:?}",
        obs.policies,
        obs.catalog,
        obs.orgs.entries_sorted()
    );
    // Coverage joins only on faulted runs: a `none` run's digest covers
    // the observables alone, as it did before the fault plane existed.
    if obs.coverage.profile != "none" {
        let _ = write!(w, "|{:?}", obs.coverage);
    }
}

/// FNV-1a of [`write_observations`]'s bytes, streamed through a buffer
/// folded every `fold_at` bytes, and the number of bytes hashed.
pub(crate) fn hash_observations(obs: &Observations, fold_at: usize) -> (u64, u64) {
    let mut w = ByteWriter::new(fold_at);
    write_observations(&mut w, obs);
    w.finish_hash()
}

// ---- Worker replies ---------------------------------------------------------

/// The body of a worker's `ok` reply: the shard, the log's allocation
/// window (§16), then the worker-side log as length-prefixed wire JSON.
/// Span-level alloc deltas ride inside the log; the shard-level window is
/// not part of the span tree, so it rides beside it.
pub(crate) fn encode_worker_reply(
    write_shard: impl FnOnce(&mut ByteWriter),
    log: &ShardLog,
) -> Vec<u8> {
    to_bytes(|w| {
        write_shard(w);
        write_shard_alloc(w, &ShardAlloc::of(log));
        w.str(&log.to_wire_json().render());
    })
}

/// Split a reply body written by [`encode_worker_reply`] into the shard,
/// the allocation window and the log's wire JSON text.
pub(crate) fn decode_worker_reply<'a, T>(
    body: &'a [u8],
    read_shard: impl FnOnce(&mut ByteReader<'a>) -> Option<T>,
) -> Option<(T, ShardAlloc, &'a str)> {
    from_bytes(body, |r| {
        Some((read_shard(r)?, read_shard_alloc(r)?, r.str()?))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persona::Persona;
    use crate::worker::{run_spec, World};
    use alexa_exec::{read_reply, write_reply, ShardSpec};
    use alexa_obs::Recorder;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn sample_capture() -> Capture {
        Capture {
            label: "skill-42".into(),
            packets: vec![
                Packet::outgoing(
                    17,
                    Domain::parse("device-metrics-us-2.amazon.com").unwrap(),
                    "10.1.2.3".parse().unwrap(),
                    Payload::Encrypted { len: 512 },
                ),
                Packet::incoming(
                    18,
                    Domain::parse("avs.amazon.com").unwrap(),
                    "10.1.2.4".parse().unwrap(),
                    Payload::Plain(vec![
                        Record::new(DataType::VoiceRecording, "alexa, open garmin"),
                        Record::new(DataType::CustomerId, "A1B2\nC3"),
                    ]),
                ),
            ],
        }
    }

    fn sample_ledger() -> FaultLedger {
        let mut l = FaultLedger::new();
        l.inject(FaultChannel::InstallFailure, 3);
        l.inject(FaultChannel::BidLoss, 9);
        l.retries = 4;
        l.backoff_ms = 350;
        l.losses = 1;
        l.degraded = true;
        l
    }

    fn persona_round_trip(shard: &PersonaShard) -> PersonaShard {
        let bytes = to_bytes(|w| write_persona_shard(w, shard));
        from_bytes(&bytes, read_persona_shard).unwrap()
    }

    #[test]
    fn persona_shard_round_trips_bit_exactly() {
        let shard = PersonaShard {
            router_captures: Some(vec![sample_capture()]),
            failed_installs: vec!["skill-7".into()],
            dsar: vec![(
                DsarPhase::AfterInteraction2,
                DsarExport {
                    account: "acct-cc".into(),
                    advertising_interests: Some(vec![Interest::Fashion, Interest::PetSupplies]),
                    interaction_history: vec!["Alexa, open garmin".into()],
                },
            )],
            crawl: vec![VisitRecord {
                site: "news.example".into(),
                iteration: 5,
                bids: vec![Bid {
                    bidder: Arc::from("adx.example"),
                    slot_id: Arc::from("news.example#3"),
                    cpm: 0.123_456_789_012_345_67,
                }],
                creatives: vec![Creative {
                    advertiser: "Dyson".into(),
                    product: "Dyson vacuum cleaner".into(),
                }],
                syncs: vec![SyncObservation {
                    from_org: Arc::from("a.example"),
                    to_org: Arc::from("b.example"),
                    user_id: Arc::from("uid-9"),
                }],
            }],
            audio: vec![(StreamingService::Pandora, vec!["ad script".into()])],
            ledger: sample_ledger(),
            installs: Coverage::new(9, 10),
            interactions: Coverage::new(17, 20),
            visits: Coverage::new(48, 48),
        };
        let decoded = persona_round_trip(&shard);
        assert_eq!(decoded.router_captures, shard.router_captures);
        assert_eq!(decoded.failed_installs, shard.failed_installs);
        assert_eq!(decoded.dsar, shard.dsar);
        assert_eq!(decoded.audio, shard.audio);
        assert_eq!(decoded.ledger, shard.ledger);
        assert_eq!(decoded.installs, shard.installs);
        assert_eq!(decoded.interactions, shard.interactions);
        assert_eq!(decoded.visits, shard.visits);
        assert_eq!(decoded.crawl.len(), 1);
        let (a, b) = (&decoded.crawl[0], &shard.crawl[0]);
        assert_eq!(a.site, b.site);
        assert_eq!(a.creatives, b.creatives);
        assert_eq!(a.syncs, b.syncs);
        assert_eq!(a.bids[0].bidder, b.bids[0].bidder);
        assert_eq!(a.bids[0].cpm.to_bits(), b.bids[0].cpm.to_bits());
        // Debug-render equality is what the legacy digest reference hashes.
        assert_eq!(format!("{:?}", a.bids), format!("{:?}", b.bids));
    }

    #[test]
    fn every_variant_and_edge_value_round_trips() {
        let bids = [0.0, -0.0, f64::MIN_POSITIVE, f64::MAX, f64::NAN, 1e-300]
            .into_iter()
            .map(|cpm| Bid {
                bidder: Arc::from(""),
                slot_id: Arc::from("é#0"),
                cpm,
            })
            .collect();
        let shard = PersonaShard {
            router_captures: None,
            dsar: PHASES
                .into_iter()
                .map(|phase| {
                    let export = DsarExport {
                        account: String::new(),
                        advertising_interests: None,
                        interaction_history: Vec::new(),
                    };
                    (phase, export)
                })
                .chain([(
                    DsarPhase::AfterInstall,
                    DsarExport {
                        account: "a".into(),
                        advertising_interests: Some(INTERESTS.to_vec()),
                        interaction_history: vec![String::new()],
                    },
                )])
                .collect(),
            crawl: vec![VisitRecord {
                site: String::new(),
                iteration: usize::MAX,
                bids,
                creatives: Vec::new(),
                syncs: Vec::new(),
            }],
            audio: StreamingService::ALL
                .into_iter()
                .map(|s| (s, Vec::new()))
                .collect(),
            ledger: FaultLedger::new(),
            installs: Coverage::new(u64::MAX, 0),
            ..PersonaShard::default()
        };
        let decoded = persona_round_trip(&shard);
        assert!(decoded.router_captures.is_none());
        assert_eq!(decoded.dsar, shard.dsar);
        assert_eq!(decoded.audio, shard.audio);
        assert_eq!(decoded.installs, shard.installs);
        assert_eq!(decoded.crawl[0].iteration, usize::MAX);
        let bits = |v: &VisitRecord| v.bids.iter().map(|b| b.cpm.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&decoded.crawl[0]), bits(&shard.crawl[0]));

        let packets = DataType::ALL
            .into_iter()
            .map(|t| {
                Packet::incoming(
                    u64::MAX,
                    Domain::parse("avs.amazon.com").unwrap(),
                    "255.0.0.1".parse().unwrap(),
                    Payload::Plain(vec![Record::new(t, "v")]),
                )
            })
            .collect();
        let avs = AvsShard {
            captures: vec![Capture {
                label: String::new(),
                packets,
            }],
            ledger: FaultLedger::new(),
            skills: Coverage::default(),
        };
        let bytes = to_bytes(|w| write_avs_shard(w, &avs));
        let decoded = from_bytes(&bytes, read_avs_shard).unwrap();
        assert_eq!(decoded.captures, avs.captures);
    }

    /// Equal labels decode to one shared allocation, so the index's
    /// address memo sees a process-backend shard as it sees an in-process
    /// one.
    #[test]
    fn decoded_labels_share_one_arc_per_text() {
        let bid = |slot: &str| Bid {
            bidder: Arc::from("adx.example"),
            slot_id: Arc::from(slot),
            cpm: 0.5,
        };
        let visit = |bids| VisitRecord {
            site: "news.example".into(),
            iteration: 0,
            bids,
            creatives: Vec::new(),
            syncs: vec![SyncObservation {
                from_org: Arc::from("adx.example"),
                to_org: Arc::from("b.example"),
                user_id: Arc::from("uid-1"),
            }],
        };
        let shard = PersonaShard {
            crawl: vec![
                visit(vec![bid("news.example#1"), bid("news.example#2")]),
                visit(vec![bid("news.example#1")]),
            ],
            ..PersonaShard::default()
        };
        let decoded = persona_round_trip(&shard);
        let (first, second) = (&decoded.crawl[0], &decoded.crawl[1]);
        assert!(Arc::ptr_eq(&first.bids[0].bidder, &first.bids[1].bidder));
        assert!(Arc::ptr_eq(&first.bids[0].bidder, &second.bids[0].bidder));
        assert!(Arc::ptr_eq(
            &first.bids[0].bidder,
            &second.syncs[0].from_org
        ));
        assert!(Arc::ptr_eq(&first.bids[0].slot_id, &second.bids[0].slot_id));
        assert!(!Arc::ptr_eq(&first.bids[0].slot_id, &first.bids[1].slot_id));
        assert!(Arc::ptr_eq(
            &first.syncs[0].user_id,
            &second.syncs[0].user_id
        ));
    }

    /// The label table is keyed by text: labels in distinct allocations
    /// encode exactly as one shared allocation does, whatever the address
    /// memo has seen.
    #[test]
    fn distinct_arcs_with_equal_text_encode_as_one_shared_arc() {
        let visit = |label: &dyn Fn(&str) -> Arc<str>| VisitRecord {
            site: "news.example".into(),
            iteration: 1,
            bids: vec![
                Bid {
                    bidder: label("adx.example"),
                    slot_id: label("news.example#1"),
                    cpm: 0.5,
                },
                Bid {
                    bidder: label("adx.example"),
                    slot_id: label("news.example#1"),
                    cpm: 0.25,
                },
            ],
            creatives: Vec::new(),
            syncs: vec![SyncObservation {
                from_org: label("adx.example"),
                to_org: label("b.example"),
                user_id: label("uid-1"),
            }],
        };
        let shared: BTreeMap<&str, Arc<str>> =
            ["adx.example", "news.example#1", "b.example", "uid-1"]
                .into_iter()
                .map(|t| (t, Arc::from(t)))
                .collect();
        let one_arc = [
            visit(&|t| Arc::clone(&shared[t])),
            visit(&|t| Arc::clone(&shared[t])),
        ];
        let fresh = [visit(&|t| Arc::from(t)), visit(&|t| Arc::from(t))];
        let encode = |vs: &[VisitRecord]| to_bytes(|w| w.seq(vs, write_visit));
        assert_eq!(encode(&fresh), encode(&one_arc));
        // Four distinct texts: after the first visit, every label is a
        // back-reference.
        let bytes = encode(&one_arc);
        let single = encode(&one_arc[..1]);
        assert!(bytes.len() < 2 * single.len());
    }

    /// The streamed digest is the FNV-1a of the concatenated section bytes,
    /// for any flush size.
    #[test]
    fn streamed_hash_matches_the_whole_encoding_at_any_flush_size() {
        let obs =
            crate::AuditRun::execute(AuditConfig::small(7).with_faults(FaultProfile::flaky()));
        let bytes = to_bytes(|w| write_observations(w, &obs));
        let mut want = 0xcbf2_9ce4_8422_2325u64;
        for &b in &bytes {
            want = (want ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        for fold_at in [0, 1, 7, 4096, 64 * 1024, usize::MAX] {
            assert_eq!(
                hash_observations(&obs, fold_at),
                (want, bytes.len() as u64),
                "fold at {fold_at}"
            );
        }
        assert_eq!(obs.digest_with_len(), (want, bytes.len() as u64));
    }

    #[test]
    fn avs_shard_round_trips() {
        let shard = AvsShard {
            captures: vec![sample_capture()],
            ledger: sample_ledger(),
            skills: Coverage::new(8, 10),
        };
        let bytes = to_bytes(|w| write_avs_shard(w, &shard));
        let decoded = from_bytes(&bytes, read_avs_shard).unwrap();
        assert_eq!(decoded.captures, shard.captures);
        assert_eq!(decoded.ledger, shard.ledger);
        assert_eq!(decoded.skills, shard.skills);
    }

    #[test]
    fn shard_alloc_round_trips_including_sparse_histogram() {
        let mut sizes = Histogram::new();
        sizes.record_n(0, 3); // bucket 0: exactly zero-sized requests
        sizes.record_n(24, 17);
        sizes.record_n(4096, 2);
        sizes.record_n(u64::MAX, 1); // top bucket round-trips via its lower bound
        let alloc = ShardAlloc {
            count: 23,
            bytes: 987_654,
            peak_bytes: 120_000,
            sizes,
        };
        let bytes = to_bytes(|w| write_shard_alloc(w, &alloc));
        let decoded = from_bytes(&bytes, read_shard_alloc).unwrap();
        assert_eq!(decoded.count, alloc.count);
        assert_eq!(decoded.bytes, alloc.bytes);
        assert_eq!(decoded.peak_bytes, alloc.peak_bytes);
        assert_eq!(decoded.sizes, alloc.sizes);
    }

    #[test]
    fn config_round_trips_for_worker_rebuild() {
        let config = AuditConfig::small(2222)
            .with_defense(DefenseMode::Firewall)
            .with_faults(FaultProfile::flaky());
        let rendered = config_to_json(&config).render();
        let decoded = config_from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(decoded.seed, config.seed);
        assert_eq!(decoded.skills_per_category, config.skills_per_category);
        assert_eq!(decoded.crawl_sites, config.crawl_sites);
        assert_eq!(decoded.web_size, config.web_size);
        assert_eq!(decoded.pre_iterations, config.pre_iterations);
        assert_eq!(decoded.post_iterations, config.post_iterations);
        assert_eq!(decoded.audio_hours.to_bits(), config.audio_hours.to_bits());
        assert_eq!(decoded.utterances_per_skill, config.utterances_per_skill);
        assert_eq!(decoded.defense, config.defense);
        assert_eq!(decoded.fault.name(), config.fault.name());
        // Engine knobs intentionally reset to worker-side defaults.
        assert_eq!(decoded.jobs, Some(1));
    }

    #[test]
    fn malformed_input_decodes_to_none() {
        assert!(config_from_json(&Json::Null).is_none());
        assert!(defense_from_token("mystery").is_none());
        let alloc = ShardAlloc {
            count: 1,
            bytes: 2,
            peak_bytes: 3,
            sizes: Histogram::new(),
        };
        let good = to_bytes(|w| write_shard_alloc(w, &alloc));
        assert!(from_bytes(&good, read_shard_alloc).is_some());
        // Trailing bytes, an empty input, an 11-byte varint, and
        // histogram pairs that are not one ascending bucket bound each.
        let mut trailing = good.clone();
        trailing.push(0);
        let cases: [&[u8]; 6] = [
            &trailing,
            &[],
            &[0xff; 11],
            &[1, 2, 3, 2, 4, 5, 4, 5],
            &[1, 2, 3, 1, 5, 1],
            &[1, 2, 3, 1, 4, 0],
        ];
        for bytes in cases {
            assert!(from_bytes(bytes, read_shard_alloc).is_none(), "{bytes:?}");
        }
        // A label reference before any label text, and a count larger than
        // the input.
        assert!(from_bytes(&[5], |r| r.label()).is_none());
        assert!(from_bytes(&[200, 1], |r| r.seq(|r| r.u8())).is_none());
        // Unknown variant and option tags.
        assert!(from_bytes(&[9], |r| r.variant(&DIRECTIONS)).is_none());
        assert!(from_bytes(&[2], read_payload).is_none());
        assert!(from_bytes(&[2], read_avs_shard).is_none());
    }

    /// The worker replies of the 13 persona shards of a small-scale seed-7
    /// `flaky` run, framed exactly as `repro --shard-worker` writes them.
    fn small7_flaky_frames() -> &'static [Vec<u8>] {
        static FRAMES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
        FRAMES.get_or_init(|| {
            let config = AuditConfig::small(7).with_faults(FaultProfile::flaky());
            let payload = config_to_json(&config).render().into_bytes();
            let world = World::build(&payload).unwrap();
            let rec = Recorder::new();
            Persona::all()
                .into_iter()
                .enumerate()
                .map(|(index, persona)| {
                    let spec = ShardSpec {
                        group: "persona".into(),
                        index,
                        label: persona.name(),
                        payload: payload.clone(),
                    };
                    let mut frame = Vec::new();
                    write_reply(&mut frame, index, &run_spec(&world, &spec, &rec)).unwrap();
                    frame
                })
                .collect()
        })
    }

    /// The smallest of those frames, for the exhaustive robustness checks.
    fn small_frame() -> &'static [u8] {
        small7_flaky_frames()
            .iter()
            .min_by_key(|f| f.len())
            .unwrap()
    }

    /// Decode a whole reply frame as the parent does.
    fn decode_frame(frame: &[u8]) -> Option<(PersonaShard, ShardLog)> {
        let body = read_reply(&mut &frame[..]).ok()??.result.ok()?;
        let (shard, alloc, log) = decode_worker_reply(&body, read_persona_shard)?;
        let mut log = ShardLog::from_wire_json(&Json::parse(log).ok()?)?;
        log.set_alloc(alloc.count, alloc.bytes, alloc.peak_bytes, alloc.sizes);
        Some((shard, log))
    }

    /// Keeps the wire win: the JSON replies these frames replaced totalled
    /// 7.3 MB for this run, and the byte codec measured 0.76 MB.
    #[test]
    fn small_seed7_flaky_persona_frames_total_at_most_one_megabyte() {
        let frames = small7_flaky_frames();
        assert_eq!(frames.len(), 13);
        let total: usize = frames.iter().map(Vec::len).sum();
        assert!(total <= 1 << 20, "persona frames total {total} bytes");
        for frame in frames {
            let (shard, log) = decode_frame(frame).unwrap();
            assert!(!shard.crawl.is_empty());
            assert!(log.alloc_count() > 0);
            // Re-encoding the decoded shard and log gives the same frame.
            let reply = read_reply(&mut &frame[..]).unwrap().unwrap();
            let body = encode_worker_reply(|w| write_persona_shard(w, &shard), &log);
            let mut again = Vec::new();
            write_reply(&mut again, reply.index, &Ok(body)).unwrap();
            assert!(again == *frame);
        }
    }

    #[test]
    fn every_truncation_of_a_persona_frame_is_rejected() {
        let frame = small_frame();
        assert!(decode_frame(frame).is_some());
        assert_eq!(read_reply(&mut &frame[..0]), Ok(None));
        for cut in 1..frame.len() {
            assert!(read_reply(&mut &frame[..cut]).is_err(), "cut at {cut}");
        }
        // The body decoder on its own, at a spread of cut points: the
        // body is written front to back, so a cut anywhere leaves a
        // length prefix or a field short.
        let body = read_reply(&mut &frame[..])
            .unwrap()
            .unwrap()
            .result
            .unwrap();
        let step = (body.len() / 509).max(1);
        let cuts = (0..body.len())
            .step_by(step)
            .chain(body.len() - 64..body.len());
        for cut in cuts {
            assert!(
                decode_worker_reply(&body[..cut], read_persona_shard).is_none(),
                "body cut at {cut}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn decoders_never_panic_on_arbitrary_bytes(
            bytes in prop::collection::vec(0u8..=255, 0..256),
        ) {
            let _ = read_reply(&mut &bytes[..]);
            let _ = ShardSpec::read_frame(&mut &bytes[..]);
            let _ = from_bytes(&bytes, read_persona_shard);
            let _ = from_bytes(&bytes, read_avs_shard);
            let _ = from_bytes(&bytes, read_shard_alloc);
            let _ = decode_worker_reply(&bytes, read_persona_shard);
        }

        #[test]
        fn decoders_never_panic_on_a_byte_flip(at in 0usize..usize::MAX, flip in 1u8..=255) {
            let mut frame = small_frame().to_vec();
            let at = at % frame.len();
            frame[at] ^= flip;
            let _ = decode_frame(&frame);
        }
    }
}
