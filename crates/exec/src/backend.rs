//! Pluggable worker backends behind one `Backend` trait (DESIGN.md §15).
//!
//! The in-process [`par_map`] runs a closure over owned items; a backend
//! runs **serializable shards**: each unit of work is a [`ShardSpec`] whose
//! payload is opaque bytes, and each finished shard hands back a
//! [`ShardOutcome`] — either a result payload or a typed loss. Every
//! backend commits its outcomes through the ordered [`Committer`], so the
//! merged vector is a pure function of the specs regardless of which
//! substrate executed them or how it interleaved:
//!
//! * [`ThreadBackend`] — today's `par_map` semantics: the shard closure runs
//!   in-process on scoped worker threads.
//! * [`ProcessBackend`] — a pool of child processes speaking a framed
//!   protocol over stdin/stdout, with per-shard wall-clock timeouts, crash
//!   detection (non-zero exit, malformed output, dead pipe) and a bounded
//!   respawn budget. A dead worker degrades its shard, never the run. A
//!   frame is one JSON header line carrying the protocol version and the
//!   body length `len`, then exactly `len` raw payload bytes; a `len`
//!   above a fixed cap is malformed and is never read or allocated.
//! * [`MockRemoteBackend`] — a submit → execute → poll → fetch state machine
//!   whose transient transport failures are driven by the deterministic
//!   [`FaultPlane`] through [`retry`] + [`RetryBudget`]: structural keys
//!   make the retry sequences independent of poll interleaving.
//!
//! Failure taxonomy: a shard whose own execution returns `Err` is a
//! **shard error** (the payload's producer decides what that means); a
//! worker that crashes, times out, desyncs its protocol, or permanently
//! fails transport is a **lost shard** ([`ShardOutcome::Lost`]). Both
//! degrade gracefully — callers account lost shards into coverage (exit 3)
//! instead of panicking the run. Transport accounting lands only in
//! [`BackendStats`], never in the shard payloads, so transient retries can
//! never change committed bytes.
//!
//! [`par_map`]: crate::par_map
//! [`FaultPlane`]: alexa_fault::FaultPlane
//! [`retry`]: alexa_fault::retry
//! [`RetryBudget`]: alexa_fault::RetryBudget

use crate::{job_policy, locked, par_map};
use alexa_fault::{retry, FaultChannel, FaultPlane, FaultProfile, RetryBudget, RetryPolicy};
use alexa_json::Json;
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::str::FromStr;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

/// Protocol version of the shard wire format.
const WIRE_VERSION: u64 = 2;

/// The most bytes one frame body may announce. The largest reply today (a
/// paper-scale persona shard) is about 0.3 MB; a header announcing more
/// than this is malformed, and nothing is allocated for it.
const MAX_FRAME_LEN: u64 = 16 << 20;

/// The longest header line a reader accepts, newline included.
const MAX_HEADER_LEN: u64 = 4096;

/// One serializable unit of work.
///
/// `index` is the shard's structural position in its group's work list —
/// the committer orders outcomes by it, and backends require the specs of
/// one run to carry exactly the indexes `0..n`. `payload` is opaque bytes
/// that the executing side decodes; the backend never looks inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Structural group name ("persona", "avs", ...).
    pub group: String,
    /// Fixed index within the group's work list.
    pub index: usize,
    /// Human label (persona name, category label).
    pub label: String,
    /// Opaque serialized input for the shard.
    pub payload: Vec<u8>,
}

impl ShardSpec {
    /// Write the spec as one frame of the worker protocol, then flush.
    pub fn write_frame(&self, w: &mut impl Write) -> io::Result<()> {
        let header = vec![
            ("group".into(), Json::Str(self.group.clone())),
            ("index".into(), Json::Int(self.index as u64)),
            ("label".into(), Json::Str(self.label.clone())),
        ];
        write_frame(w, header, &self.payload)
    }

    /// Read the next spec frame (the worker side); `Ok(None)` is a clean
    /// end of input between frames.
    pub fn read_frame(r: &mut impl BufRead) -> Result<Option<ShardSpec>, String> {
        let Some((header, payload, _)) = read_frame(r, "shard spec")? else {
            return Ok(None);
        };
        let field = |k: &str| {
            header
                .get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("shard spec header: missing string field {k:?}"))
        };
        Ok(Some(ShardSpec {
            group: field("group")?,
            index: header_index(&header, "shard spec")?,
            label: field("label")?,
            payload,
        }))
    }
}

/// One worker reply as the parent reads it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The structural index the worker answered.
    pub index: usize,
    /// The shard's payload, or the worker's error text.
    pub result: Result<Vec<u8>, String>,
    /// Bytes the frame took on the pipe, header line included.
    pub frame_bytes: u64,
}

/// Write a worker's reply for shard `index` as one frame, then flush. An
/// `Err` reply carries the error text as its body.
pub fn write_reply(
    w: &mut impl Write,
    index: usize,
    result: &Result<Vec<u8>, String>,
) -> io::Result<()> {
    let header = vec![
        ("index".into(), Json::Int(index as u64)),
        ("ok".into(), Json::Bool(result.is_ok())),
    ];
    let body = match result {
        Ok(payload) => payload.as_slice(),
        Err(error) => error.as_bytes(),
    };
    write_frame(w, header, body)
}

/// Read the next reply frame (the parent side); `Ok(None)` is a clean end
/// of input between frames.
pub fn read_reply(r: &mut impl BufRead) -> Result<Option<Reply>, String> {
    let Some((header, body, frame_bytes)) = read_frame(r, "worker reply")? else {
        return Ok(None);
    };
    let index = header_index(&header, "worker reply")?;
    let ok = header
        .get("ok")
        .and_then(Json::as_bool)
        .ok_or("worker reply header: missing ok flag")?;
    let result = if ok {
        Ok(body)
    } else {
        Err(String::from_utf8(body).map_err(|_| "worker reply: error text is not UTF-8")?)
    };
    Ok(Some(Reply {
        index,
        result,
        frame_bytes,
    }))
}

/// Frame = one JSON header line carrying `v` and `len`, then exactly `len`
/// raw body bytes.
fn write_frame(w: &mut impl Write, mut header: Vec<(String, Json)>, body: &[u8]) -> io::Result<()> {
    header.insert(0, ("v".into(), Json::Int(WIRE_VERSION)));
    header.push(("len".into(), Json::Int(body.len() as u64)));
    writeln!(w, "{}", Json::Obj(header).render())?;
    w.write_all(body)?;
    w.flush()
}

/// Read one frame: the parsed header, the body, and the frame's size on
/// the pipe. The header's version and `len` are checked before the body is
/// read, so an announced length above [`MAX_FRAME_LEN`] allocates nothing.
fn read_frame(r: &mut impl BufRead, what: &str) -> Result<Option<(Json, Vec<u8>, u64)>, String> {
    let mut line = Vec::new();
    r.by_ref()
        .take(MAX_HEADER_LEN)
        .read_until(b'\n', &mut line)
        .map_err(|e| format!("{what}: {e}"))?;
    if line.is_empty() {
        return Ok(None);
    }
    let header_bytes = line.len() as u64;
    if line.pop() != Some(b'\n') {
        return Err(format!(
            "{what}: header line truncated or longer than {MAX_HEADER_LEN} bytes"
        ));
    }
    let text = std::str::from_utf8(&line).map_err(|_| format!("{what}: header is not UTF-8"))?;
    let header = Json::parse(text).map_err(|e| format!("{what} header: {e}"))?;
    if header.get("v").and_then(Json::as_u64) != Some(WIRE_VERSION) {
        return Err(format!("{what} header: unsupported protocol version"));
    }
    let len = header
        .get("len")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{what} header: missing len"))?;
    if len > MAX_FRAME_LEN {
        return Err(format!(
            "{what} header: len {len} exceeds the {MAX_FRAME_LEN}-byte cap"
        ));
    }
    let mut body = Vec::new();
    r.by_ref()
        .take(len)
        .read_to_end(&mut body)
        .map_err(|e| format!("{what}: {e}"))?;
    if body.len() as u64 != len {
        return Err(format!(
            "{what}: body ended after {} of {len} bytes",
            body.len()
        ));
    }
    Ok(Some((header, body, header_bytes + len)))
}

fn header_index(header: &Json, what: &str) -> Result<usize, String> {
    header
        .get("index")
        .and_then(Json::as_u64)
        .and_then(|i| usize::try_from(i).ok())
        .ok_or_else(|| format!("{what} header: missing index"))
}

/// A successfully executed shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardResult {
    /// The spec's structural index.
    pub index: usize,
    /// Opaque serialized output.
    pub payload: Vec<u8>,
}

/// What one shard came to: a result, or a typed loss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardOutcome {
    /// The shard executed and returned a payload.
    Done(ShardResult),
    /// The shard was lost — worker crash, timeout, malformed protocol, or
    /// permanent transport failure. The run degrades; it never panics.
    Lost {
        /// The spec's structural index.
        index: usize,
        /// Human-readable cause, surfaced in the coverage report.
        error: String,
    },
}

impl ShardOutcome {
    /// The structural index this outcome belongs to.
    pub fn index(&self) -> usize {
        match self {
            ShardOutcome::Done(r) => r.index,
            ShardOutcome::Lost { index, .. } => *index,
        }
    }
}

/// Deterministic-by-construction transport and pool counters.
///
/// These are *volatile* observability: they describe how the substrate
/// behaved (retries, respawns, timeouts), never what the shards computed,
/// and they must stay out of every run-ledger surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Shards offered to the backend.
    pub shards: u64,
    /// Shards committed with a result payload.
    pub committed: u64,
    /// Shards lost to the failure taxonomy above.
    pub lost: u64,
    /// Mock-remote submit retries.
    pub submit_retries: u64,
    /// Mock-remote poll retries.
    pub poll_retries: u64,
    /// Mock-remote result-fetch retries.
    pub result_retries: u64,
    /// Virtual transport backoff accumulated across retries.
    pub transport_backoff_ms: u64,
    /// Child processes spawned (initial pool).
    pub workers_spawned: u64,
    /// Child processes respawned after a failure.
    pub workers_respawned: u64,
    /// Per-shard wall-clock timeouts that killed a worker.
    pub timeouts: u64,
    /// Worker crashes (non-zero exit, dead pipe, EOF mid-shard).
    pub crashes: u64,
    /// Protocol violations (unparseable or misindexed replies).
    pub malformed: u64,
    /// Bytes of the worker reply frames the parent accepted, header lines
    /// included.
    pub reply_bytes: u64,
}

impl BackendStats {
    fn absorb(&mut self, other: &BackendStats) {
        self.shards += other.shards;
        self.committed += other.committed;
        self.lost += other.lost;
        self.submit_retries += other.submit_retries;
        self.poll_retries += other.poll_retries;
        self.result_retries += other.result_retries;
        self.transport_backoff_ms += other.transport_backoff_ms;
        self.workers_spawned += other.workers_spawned;
        self.workers_respawned += other.workers_respawned;
        self.timeouts += other.timeouts;
        self.crashes += other.crashes;
        self.malformed += other.malformed;
        self.reply_bytes += other.reply_bytes;
    }
}

/// A finished backend pass: outcomes in structural-index order plus the
/// substrate's own accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendRun {
    /// One outcome per spec, sorted by index — the committer's guarantee.
    pub outcomes: Vec<ShardOutcome>,
    /// Transport/pool counters for volatile observability.
    pub stats: BackendStats,
}

/// The shard executor a backend drives: decode the spec's payload, do the
/// work, re-encode the result. `Err` is a shard-level failure the producer
/// of the payload defined; transport failures never reach this function.
pub type ExecFn<'a> = &'a (dyn Fn(&ShardSpec) -> Result<Vec<u8>, String> + Sync);

/// Typed misuse of the ordered committer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitError {
    /// An outcome named an index outside `0..len`.
    OutOfRange {
        /// The offending index.
        index: usize,
        /// The committer's capacity.
        len: usize,
    },
    /// Two outcomes claimed the same index.
    Duplicate(usize),
    /// `into_ordered` found an index with no outcome.
    Missing(usize),
}

impl fmt::Display for CommitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitError::OutOfRange { index, len } => {
                write!(f, "shard index {index} out of range for {len} shard(s)")
            }
            CommitError::Duplicate(i) => write!(f, "shard index {i} committed twice"),
            CommitError::Missing(i) => write!(f, "no outcome committed for shard index {i}"),
        }
    }
}

impl std::error::Error for CommitError {}

/// The ordered committer: outcomes arrive in any order (worker completion
/// order, poll order, ...) and leave in structural-index order — exactly
/// once each. This is the single point that turns "whichever substrate ran
/// it, in whatever interleaving" back into the deterministic merge order
/// the digest guarantee needs.
#[derive(Debug)]
pub struct Committer {
    slots: Vec<Option<ShardOutcome>>,
}

impl Committer {
    /// A committer expecting exactly the indexes `0..n`.
    pub fn new(n: usize) -> Committer {
        Committer {
            slots: (0..n).map(|_| None).collect(),
        }
    }

    /// Offer one outcome; rejects out-of-range and duplicate indexes.
    pub fn offer(&mut self, outcome: ShardOutcome) -> Result<(), CommitError> {
        let index = outcome.index();
        let len = self.slots.len();
        match self.slots.get_mut(index) {
            None => Err(CommitError::OutOfRange { index, len }),
            Some(Some(_)) => Err(CommitError::Duplicate(index)),
            Some(slot) => {
                *slot = Some(outcome);
                Ok(())
            }
        }
    }

    /// Finish the commit: every index must have exactly one outcome.
    pub fn into_ordered(self) -> Result<Vec<ShardOutcome>, CommitError> {
        let mut out = Vec::with_capacity(self.slots.len());
        for (i, slot) in self.slots.into_iter().enumerate() {
            match slot {
                Some(outcome) => out.push(outcome),
                None => return Err(CommitError::Missing(i)),
            }
        }
        Ok(out)
    }
}

/// Commit an arbitrary-order outcome batch for `n` shards.
fn commit_all(n: usize, outcomes: Vec<ShardOutcome>) -> Result<Vec<ShardOutcome>, CommitError> {
    let mut committer = Committer::new(n);
    for outcome in outcomes {
        committer.offer(outcome)?;
    }
    committer.into_ordered()
}

/// An interchangeable execution substrate for serializable shards.
pub trait Backend: Sync {
    /// The backend's stable name (`thread` / `process` / `mock-remote`).
    fn name(&self) -> &'static str;

    /// Execute every spec and commit the outcomes in structural-index
    /// order. The specs must carry exactly the indexes `0..specs.len()`;
    /// anything else is a typed [`CommitError`].
    fn run(
        &self,
        jobs: Option<usize>,
        specs: Vec<ShardSpec>,
        exec_fn: ExecFn<'_>,
    ) -> Result<BackendRun, CommitError>;
}

/// Which backend a run should use — the `--backend` knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// In-process scoped worker threads (the default).
    #[default]
    Thread,
    /// A pool of `repro --shard-worker` child processes.
    Process,
    /// The fault-plane-driven submit/poll simulation.
    MockRemote,
}

impl BackendChoice {
    /// Every choice, in CLI documentation order.
    pub const ALL: [BackendChoice; 3] = [
        BackendChoice::Thread,
        BackendChoice::Process,
        BackendChoice::MockRemote,
    ];

    /// The stable CLI/plan token for this choice.
    pub fn label(&self) -> &'static str {
        match self {
            BackendChoice::Thread => "thread",
            BackendChoice::Process => "process",
            BackendChoice::MockRemote => "mock-remote",
        }
    }
}

/// Error from parsing an unknown backend token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendParseError(pub String);

impl fmt::Display for BackendParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown backend '{}' (expected thread|process|mock-remote)",
            self.0
        )
    }
}

impl std::error::Error for BackendParseError {}

impl FromStr for BackendChoice {
    type Err = BackendParseError;

    fn from_str(s: &str) -> Result<BackendChoice, BackendParseError> {
        BackendChoice::ALL
            .iter()
            .copied()
            .find(|c| c.label() == s)
            .ok_or_else(|| BackendParseError(s.to_string()))
    }
}

/// In-process backend wrapping today's [`par_map`] semantics: the shard
/// closure runs on scoped worker threads, clamped to hardware.
///
/// [`par_map`]: crate::par_map
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadBackend;

impl Backend for ThreadBackend {
    fn name(&self) -> &'static str {
        "thread"
    }

    fn run(
        &self,
        jobs: Option<usize>,
        specs: Vec<ShardSpec>,
        exec_fn: ExecFn<'_>,
    ) -> Result<BackendRun, CommitError> {
        let n = specs.len();
        let outcomes = par_map(jobs, specs, |_, spec| match exec_fn(&spec) {
            Ok(payload) => ShardOutcome::Done(ShardResult {
                index: spec.index,
                payload,
            }),
            Err(error) => ShardOutcome::Lost {
                index: spec.index,
                error,
            },
        });
        let outcomes = commit_all(n, outcomes)?;
        let stats = tally(n, &outcomes);
        Ok(BackendRun { outcomes, stats })
    }
}

/// Shared commit accounting.
fn tally(n: usize, outcomes: &[ShardOutcome]) -> BackendStats {
    let lost = outcomes
        .iter()
        .filter(|o| matches!(o, ShardOutcome::Lost { .. }))
        .count() as u64;
    BackendStats {
        shards: n as u64,
        committed: n as u64 - lost,
        lost,
        ..BackendStats::default()
    }
}

/// A pool of child worker processes speaking the frame protocol.
///
/// Sizing comes from [`job_policy`] *without* the hardware clamp — separate
/// processes are true parallelism even on a 1-thread host. Each pool slot
/// runs a coordinator thread that feeds its child one spec at a time and
/// waits at most `timeout_ms` per shard; a timeout, crash, or protocol
/// violation kills the child, loses that shard, and (bounded by
/// `max_respawns` across the pool) replaces the worker for the remaining
/// queue. If every worker dies with the respawn budget spent, the leftover
/// shards are committed as lost — the run degrades, it never hangs.
#[derive(Debug, Clone)]
pub struct ProcessBackend {
    /// Child command line: program plus fixed arguments.
    pub worker_cmd: Vec<String>,
    /// Per-shard wall-clock budget before the worker is declared hung.
    pub timeout_ms: u64,
    /// Total worker replacements the pool may perform.
    pub max_respawns: u32,
}

impl ProcessBackend {
    /// A pool running `worker_cmd` with the default 30 s per-shard timeout
    /// and a respawn budget matching one replacement per pool slot later
    /// resolved by [`job_policy`].
    pub fn new(worker_cmd: Vec<String>) -> ProcessBackend {
        ProcessBackend {
            worker_cmd,
            timeout_ms: 30_000,
            max_respawns: 8,
        }
    }
}

/// One live child: the process handle plus the reader-thread channel that
/// delivers its reply frames.
struct Worker {
    child: std::process::Child,
    replies: mpsc::Receiver<Result<Reply, String>>,
}

impl Worker {
    fn spawn(cmd: &[String]) -> Result<Worker, String> {
        let (prog, args) = cmd
            .split_first()
            .ok_or("process backend: empty worker command")?;
        let mut child = std::process::Command::new(prog)
            .args(args)
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {prog}: {e}"))?;
        let stdout = child
            .stdout
            .take()
            .ok_or("process backend: worker has no stdout pipe")?;
        let (tx, replies) = mpsc::channel();
        // Detached reader: exits on child EOF, after the first malformed
        // frame, or when the receiver is dropped, so it can never outlive
        // the pool by more than a pipe close.
        std::thread::spawn(move || {
            let mut stdout = BufReader::new(stdout);
            while let Some(frame) = read_reply(&mut stdout).transpose() {
                let malformed = frame.is_err();
                if tx.send(frame).is_err() || malformed {
                    break;
                }
            }
        });
        Ok(Worker { child, replies })
    }

    /// Send one spec frame; a write failure is a dead pipe (= crash).
    fn send(&mut self, spec: &ShardSpec) -> Result<(), String> {
        let stdin = self
            .child
            .stdin
            .as_mut()
            .ok_or("process backend: worker has no stdin pipe")?;
        spec.write_frame(&mut BufWriter::new(stdin))
            .map_err(|e| format!("dead pipe: {e}"))
    }

    /// Kill and reap the child, returning its exit description.
    fn kill(mut self) -> String {
        let _ = self.child.kill();
        match self.child.wait() {
            Ok(status) => format!("{status}"),
            Err(e) => format!("wait failed: {e}"),
        }
    }

    /// Reap a child that already exited, returning its exit description.
    fn reap(mut self) -> String {
        match self.child.wait() {
            Ok(status) => format!("{status}"),
            Err(e) => format!("wait failed: {e}"),
        }
    }

    /// Close stdin and wait for a clean exit (end of queue).
    fn retire(mut self) {
        drop(self.child.stdin.take());
        let _ = self.child.wait();
    }
}

impl Backend for ProcessBackend {
    fn name(&self) -> &'static str {
        "process"
    }

    fn run(
        &self,
        jobs: Option<usize>,
        specs: Vec<ShardSpec>,
        exec_fn: ExecFn<'_>,
    ) -> Result<BackendRun, CommitError> {
        // exec_fn runs in the children, not here; the parent only shuttles
        // payload bytes.
        let _ = exec_fn;
        let n = specs.len();
        let pool = job_policy(jobs, false).min(n.max(1));
        let queue: Mutex<VecDeque<ShardSpec>> = Mutex::new(specs.into());
        let outcomes: Mutex<Vec<ShardOutcome>> = Mutex::new(Vec::with_capacity(n));
        let stats: Mutex<BackendStats> = Mutex::new(BackendStats::default());
        let respawns = AtomicU32::new(0);
        let timeout = Duration::from_millis(self.timeout_ms);

        let take_respawn = || loop {
            let used = respawns.load(Ordering::Relaxed);
            if used >= self.max_respawns {
                return false;
            }
            if respawns
                .compare_exchange(used, used + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
        };

        std::thread::scope(|scope| {
            for _ in 0..pool {
                scope.spawn(|| {
                    let mut worker: Option<Worker> = None;
                    let mut spawned_once = false;
                    loop {
                        let Some(spec) = locked(&queue).pop_front() else {
                            break;
                        };
                        if worker.is_none() {
                            // The first child per slot is the pool itself;
                            // replacements draw from the shared budget.
                            if spawned_once && !take_respawn() {
                                // No budget: hand the spec back for a
                                // surviving slot (or the final drain).
                                locked(&queue).push_front(spec);
                                break;
                            }
                            match Worker::spawn(&self.worker_cmd) {
                                Ok(w) => {
                                    let mut s = locked(&stats);
                                    if spawned_once {
                                        s.workers_respawned += 1;
                                    } else {
                                        s.workers_spawned += 1;
                                    }
                                    spawned_once = true;
                                    worker = Some(w);
                                }
                                Err(e) => {
                                    spawned_once = true;
                                    locked(&outcomes).push(ShardOutcome::Lost {
                                        index: spec.index,
                                        error: e,
                                    });
                                    continue;
                                }
                            }
                        }
                        let Some(w) = worker.as_mut() else { continue };
                        if let Err(e) = w.send(&spec) {
                            let status = worker.take().map(Worker::kill).unwrap_or_default();
                            locked(&stats).crashes += 1;
                            locked(&outcomes).push(ShardOutcome::Lost {
                                index: spec.index,
                                error: format!(
                                    "worker crashed before accepting shard: {e} ({status})"
                                ),
                            });
                            continue;
                        }
                        match w.replies.recv_timeout(timeout) {
                            Ok(frame) => match frame {
                                Ok(Reply {
                                    index,
                                    result,
                                    frame_bytes,
                                }) if index == spec.index => {
                                    locked(&stats).reply_bytes += frame_bytes;
                                    locked(&outcomes).push(match result {
                                        Ok(payload) => {
                                            ShardOutcome::Done(ShardResult { index, payload })
                                        }
                                        Err(error) => ShardOutcome::Lost { index, error },
                                    });
                                }
                                Ok(Reply { index, .. }) => {
                                    let status =
                                        worker.take().map(Worker::kill).unwrap_or_default();
                                    locked(&stats).malformed += 1;
                                    locked(&outcomes).push(ShardOutcome::Lost {
                                        index: spec.index,
                                        error: format!(
                                            "worker answered shard {index} for shard {} — \
                                             protocol desync, worker killed ({status})",
                                            spec.index
                                        ),
                                    });
                                }
                                Err(e) => {
                                    let status =
                                        worker.take().map(Worker::kill).unwrap_or_default();
                                    locked(&stats).malformed += 1;
                                    locked(&outcomes).push(ShardOutcome::Lost {
                                        index: spec.index,
                                        error: format!("malformed worker output: {e} ({status})"),
                                    });
                                }
                            },
                            Err(mpsc::RecvTimeoutError::Timeout) => {
                                let status = worker.take().map(Worker::kill).unwrap_or_default();
                                locked(&stats).timeouts += 1;
                                locked(&outcomes).push(ShardOutcome::Lost {
                                    index: spec.index,
                                    error: format!(
                                        "worker exceeded {} ms on shard {}/{} and was killed \
                                         ({status})",
                                        self.timeout_ms, spec.group, spec.index
                                    ),
                                });
                            }
                            Err(mpsc::RecvTimeoutError::Disconnected) => {
                                let status = worker.take().map(Worker::reap).unwrap_or_default();
                                locked(&stats).crashes += 1;
                                locked(&outcomes).push(ShardOutcome::Lost {
                                    index: spec.index,
                                    error: format!(
                                        "worker died mid-shard {}/{} ({status})",
                                        spec.group, spec.index
                                    ),
                                });
                            }
                        }
                    }
                    if let Some(w) = worker.take() {
                        w.retire();
                    }
                });
            }
        });

        // Every slot dead with the budget spent: the leftovers are lost, the
        // run continues degraded.
        let mut collected = outcomes.into_inner().unwrap_or_else(|p| p.into_inner());
        for spec in locked(&queue).drain(..) {
            collected.push(ShardOutcome::Lost {
                index: spec.index,
                error: format!(
                    "worker pool exhausted (respawn budget {} spent) before shard {}/{}",
                    self.max_respawns, spec.group, spec.index
                ),
            });
        }

        let outcomes = commit_all(n, collected)?;
        let mut final_stats = stats.into_inner().unwrap_or_else(|p| p.into_inner());
        let commit_counts = tally(n, &outcomes);
        final_stats.shards = commit_counts.shards;
        final_stats.committed = commit_counts.committed;
        final_stats.lost = commit_counts.lost;
        Ok(BackendRun {
            outcomes,
            stats: final_stats,
        })
    }
}

/// The remote submit/poll simulation, driven by the deterministic fault
/// plane.
///
/// Each shard walks submit → execute → poll → fetch; the three transport
/// hops can transiently fail on the `worker_submit` / `worker_poll` /
/// `worker_result` channels and are retried under [`retry`] with a
/// per-shard [`RetryBudget`]. Every decision keys on `(group, index,
/// stage, attempt)` — what the work *is* — so the retry sequences, the
/// accumulated stats, and the committed outcomes are a pure function of
/// `(seed, profile, specs)` regardless of worker count or poll
/// interleaving. A shard whose transport permanently fails is lost and
/// degrades the run.
#[derive(Debug, Clone)]
pub struct MockRemoteBackend {
    seed: u64,
    plane: FaultPlane,
}

/// Transport retry schedule: deeper than the pipeline's standard policy so
/// even hostile channel rates (≈ 0.3) drive the per-hop permanent-failure
/// probability below 1e-5 — transient remote weather should cost retries,
/// not shards.
fn transport_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 10,
        base_delay_ms: 50,
        max_delay_ms: 5_000,
        jitter: 0.25,
    }
}

/// Per-shard transport retry allowance.
const TRANSPORT_BUDGET: u32 = 64;

impl MockRemoteBackend {
    /// A mock remote driven by `(seed, profile)` — the same pair that
    /// drives the run's fault plane, so transport weather co-varies with
    /// the rest of the injected faults.
    pub fn new(seed: u64, profile: FaultProfile) -> MockRemoteBackend {
        MockRemoteBackend {
            seed,
            plane: FaultPlane::new(seed, profile),
        }
    }

    /// One fault-prone transport hop, retried under the shard's budget.
    fn hop(
        &self,
        channel: FaultChannel,
        spec: &ShardSpec,
        stage: &str,
        budget: &mut RetryBudget,
        stats: &mut BackendStats,
    ) -> Result<(), String> {
        let key = format!("{}/{}/{}", spec.group, spec.index, stage);
        let outcome = retry(
            &transport_policy(),
            budget,
            self.seed,
            &key,
            |attempt| {
                if self.plane.fires(channel, &format!("{key}#{attempt}")) {
                    Err(format!("{stage} failed (transient)"))
                } else {
                    Ok(())
                }
            },
            |_| true,
        );
        let retries = outcome.retries as u64;
        match stage {
            "submit" => stats.submit_retries += retries,
            "poll" => stats.poll_retries += retries,
            _ => stats.result_retries += retries,
        }
        stats.transport_backoff_ms += outcome.backoff_ms;
        outcome.result.map_err(|e| {
            let denied = if outcome.budget_denied {
                " (retry budget exhausted)"
            } else {
                ""
            };
            format!(
                "remote {stage} for shard {}/{} permanently failed after {} attempt(s){denied}: {e}",
                spec.group, spec.index, outcome.attempts
            )
        })
    }

    /// Walk one shard through the full state machine.
    fn run_shard(&self, spec: &ShardSpec, exec_fn: ExecFn<'_>) -> (ShardOutcome, BackendStats) {
        let mut stats = BackendStats::default();
        let mut budget = RetryBudget::new(TRANSPORT_BUDGET);
        let lost = |error: String| ShardOutcome::Lost {
            index: spec.index,
            error,
        };
        if let Err(e) = self.hop(
            FaultChannel::WorkerSubmit,
            spec,
            "submit",
            &mut budget,
            &mut stats,
        ) {
            return (lost(e), stats);
        }
        let executed = exec_fn(spec);
        if let Err(e) = self.hop(
            FaultChannel::WorkerPoll,
            spec,
            "poll",
            &mut budget,
            &mut stats,
        ) {
            return (lost(e), stats);
        }
        if let Err(e) = self.hop(
            FaultChannel::WorkerResult,
            spec,
            "result",
            &mut budget,
            &mut stats,
        ) {
            return (lost(e), stats);
        }
        let outcome = match executed {
            Ok(payload) => ShardOutcome::Done(ShardResult {
                index: spec.index,
                payload,
            }),
            Err(error) => lost(error),
        };
        (outcome, stats)
    }
}

impl Backend for MockRemoteBackend {
    fn name(&self) -> &'static str {
        "mock-remote"
    }

    fn run(
        &self,
        jobs: Option<usize>,
        specs: Vec<ShardSpec>,
        exec_fn: ExecFn<'_>,
    ) -> Result<BackendRun, CommitError> {
        let n = specs.len();
        let per_shard = par_map(jobs, specs, |_, spec| self.run_shard(&spec, exec_fn));
        let mut stats = BackendStats::default();
        let mut outcomes = Vec::with_capacity(n);
        // Fold in structural order so the stats sum is deterministic by
        // construction, not just commutativity.
        for (outcome, shard_stats) in per_shard {
            stats.absorb(&shard_stats);
            outcomes.push(outcome);
        }
        let outcomes = commit_all(n, outcomes)?;
        let commit_counts = tally(n, &outcomes);
        stats.shards = commit_counts.shards;
        stats.committed = commit_counts.committed;
        stats.lost = commit_counts.lost;
        Ok(BackendRun { outcomes, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs(n: usize) -> Vec<ShardSpec> {
        (0..n)
            .map(|i| ShardSpec {
                group: "g".to_string(),
                index: i,
                label: format!("item-{i}"),
                payload: i.to_string().into_bytes(),
            })
            .collect()
    }

    fn double(spec: &ShardSpec) -> Result<Vec<u8>, String> {
        let n: u64 = std::str::from_utf8(&spec.payload)
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or("not a number")?;
        Ok((n * 2).to_string().into_bytes())
    }

    #[test]
    fn frames_round_trip() {
        let spec = ShardSpec {
            group: "persona".into(),
            index: 3,
            label: "Connected Car".into(),
            payload: b"raw\nbytes \xff\x00 with newlines\n".to_vec(),
        };
        let mut buf = Vec::new();
        spec.write_frame(&mut buf).unwrap();
        spec.write_frame(&mut buf).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(ShardSpec::read_frame(&mut r), Ok(Some(spec.clone())));
        assert_eq!(ShardSpec::read_frame(&mut r), Ok(Some(spec)));
        assert_eq!(ShardSpec::read_frame(&mut r), Ok(None));

        for result in [Ok(b"out\n".to_vec()), Err("boom".to_string())] {
            let mut buf = Vec::new();
            write_reply(&mut buf, 7, &result).unwrap();
            let reply = read_reply(&mut buf.as_slice()).unwrap().unwrap();
            assert_eq!((reply.index, &reply.result), (7, &result));
            assert_eq!(reply.frame_bytes, buf.len() as u64);
        }
        assert!(ShardSpec::read_frame(&mut &b"not json\n"[..]).is_err());
        assert!(
            read_reply(&mut &b"{\"v\": 9, \"index\": 0, \"ok\": true, \"len\": 0}\n"[..]).is_err()
        );
    }

    #[test]
    fn frame_readers_reject_bad_headers_and_short_bodies() {
        let mut frame = Vec::new();
        write_reply(&mut frame, 0, &Ok(b"payload".to_vec())).unwrap();
        for cut in 1..frame.len() {
            assert!(read_reply(&mut &frame[..cut]).is_err(), "cut at {cut}");
        }
        let cases: [&[u8]; 6] = [
            b"{\"v\": 2, \"index\": 0, \"ok\": true}\n",
            b"{\"v\": 2, \"ok\": true, \"len\": 0}\n",
            b"{\"v\": 2, \"index\": 0, \"len\": 0}\n",
            b"{\"v\": 2, \"index\": 0, \"ok\": false, \"len\": 1}\n\xff",
            b"\xff\n",
            b"{\"v\": 2, \"index\": 0, \"ok\": true, \"len\": 18446744073709551615}\n",
        ];
        for bytes in cases {
            assert!(read_reply(&mut &bytes[..]).is_err(), "{bytes:?}");
        }
        let long = vec![b' '; MAX_HEADER_LEN as usize + 1];
        assert!(read_reply(&mut long.as_slice()).is_err());
    }

    #[test]
    fn committer_orders_and_rejects_misuse() {
        let mut c = Committer::new(3);
        let done = |i: usize| {
            ShardOutcome::Done(ShardResult {
                index: i,
                payload: vec![i as u8],
            })
        };
        c.offer(done(2)).unwrap();
        c.offer(done(0)).unwrap();
        assert_eq!(c.offer(done(0)), Err(CommitError::Duplicate(0)));
        assert_eq!(
            c.offer(done(9)),
            Err(CommitError::OutOfRange { index: 9, len: 3 })
        );
        // Missing index 1.
        let mut full = Committer::new(3);
        full.offer(done(2)).unwrap();
        full.offer(done(0)).unwrap();
        assert_eq!(full.into_ordered(), Err(CommitError::Missing(1)));

        c.offer(done(1)).unwrap();
        let ordered = c.into_ordered().unwrap();
        let indexes: Vec<usize> = ordered.iter().map(ShardOutcome::index).collect();
        assert_eq!(indexes, vec![0, 1, 2]);
    }

    #[test]
    fn thread_backend_matches_sequential_reference() {
        let backend = ThreadBackend;
        let runs: Vec<BackendRun> = [Some(1), Some(4), None]
            .into_iter()
            .map(|jobs| backend.run(jobs, specs(37), &double).unwrap())
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
        assert_eq!(runs[0].stats.committed, 37);
        assert_eq!(runs[0].stats.lost, 0);
        match &runs[0].outcomes[5] {
            ShardOutcome::Done(r) => assert_eq!(r.payload, b"10"),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn thread_backend_degrades_shard_errors_without_panicking() {
        let backend = ThreadBackend;
        let run = backend
            .run(Some(2), specs(4), &|spec| {
                if spec.index == 2 {
                    Err("shard exploded".to_string())
                } else {
                    double(spec)
                }
            })
            .unwrap();
        assert_eq!(run.stats.lost, 1);
        assert!(matches!(
            &run.outcomes[2],
            ShardOutcome::Lost { error, .. } if error == "shard exploded"
        ));
    }

    #[test]
    fn mock_remote_none_profile_is_invisible() {
        let thread = ThreadBackend.run(Some(2), specs(9), &double).unwrap();
        let remote = MockRemoteBackend::new(7, FaultProfile::none())
            .run(Some(2), specs(9), &double)
            .unwrap();
        assert_eq!(thread.outcomes, remote.outcomes);
        assert_eq!(remote.stats.submit_retries, 0);
        assert_eq!(remote.stats.transport_backoff_ms, 0);
    }

    #[test]
    fn mock_remote_is_deterministic_across_jobs_and_spec_order() {
        let backend = MockRemoteBackend::new(1234, FaultProfile::hostile());
        let reference = backend.run(Some(1), specs(16), &double).unwrap();
        assert!(
            reference.stats.submit_retries
                + reference.stats.poll_retries
                + reference.stats.result_retries
                > 0,
            "hostile transport rates should cost retries"
        );
        for jobs in [Some(2), Some(8), None] {
            assert_eq!(reference, backend.run(jobs, specs(16), &double).unwrap());
        }
        // Submission order must not matter either: rotate the spec list.
        let mut rotated = specs(16);
        rotated.rotate_left(5);
        assert_eq!(reference, backend.run(Some(4), rotated, &double).unwrap());
    }

    #[test]
    fn mock_remote_total_fault_rate_loses_every_shard_gracefully() {
        let backend = MockRemoteBackend::new(7, FaultProfile::uniform(1.0));
        let run = backend.run(Some(2), specs(5), &double).unwrap();
        assert_eq!(run.stats.lost, 5);
        assert!(run.outcomes.iter().all(|o| matches!(
            o,
            ShardOutcome::Lost { error, .. } if error.contains("submit")
        )));
    }

    #[test]
    fn process_backend_empty_command_degrades_every_shard() {
        let backend = ProcessBackend {
            worker_cmd: vec![],
            timeout_ms: 1_000,
            max_respawns: 1,
        };
        let run = backend.run(Some(2), specs(3), &double).unwrap();
        assert_eq!(run.stats.lost, 3);
        assert!(run
            .outcomes
            .iter()
            .all(|o| matches!(o, ShardOutcome::Lost { .. })));
    }

    #[test]
    fn process_backend_runs_shards_through_a_real_child() {
        // `cat` echoes each spec frame back; the reply decoder then rejects
        // it as a protocol violation (a spec header has no `ok` flag), so
        // this exercises spawn, send, receive, and malformed handling
        // without needing a real worker binary.
        let backend = ProcessBackend {
            worker_cmd: vec!["cat".to_string()],
            timeout_ms: 5_000,
            max_respawns: 8,
        };
        let run = backend.run(Some(2), specs(3), &double).unwrap();
        assert_eq!(run.outcomes.len(), 3);
        assert_eq!(run.stats.lost + run.stats.committed, 3);
        assert!(run.stats.malformed > 0, "cat replies must be malformed");
    }

    /// A worker that answers every spec with the given bytes, then keeps
    /// reading its stdin until the parent kills it.
    fn scripted_worker(reply: &str) -> ProcessBackend {
        ProcessBackend {
            worker_cmd: vec![
                "sh".to_string(),
                "-c".to_string(),
                format!("printf '{reply}'; exec cat > /dev/null"),
            ],
            timeout_ms: 5_000,
            max_respawns: 0,
        }
    }

    #[test]
    fn process_backend_loses_a_reply_announcing_more_than_the_cap() {
        // Far above the cap: reading the body, or allocating for it, would
        // stall or abort instead of failing fast.
        let len = 1u64 << 40;
        let backend = scripted_worker(&format!(
            r#"{{"v": 2, "index": 0, "ok": true, "len": {len}}}\n"#
        ));
        let run = backend.run(Some(1), specs(1), &double).unwrap();
        assert_eq!(run.stats.malformed, 1);
        assert_eq!(run.stats.reply_bytes, 0);
        assert!(matches!(
            &run.outcomes[0],
            ShardOutcome::Lost { error, .. } if error.contains("cap")
        ));
    }

    #[test]
    fn process_backend_rejects_a_v1_reply_line() {
        let backend = scripted_worker(r#"{"v": 1, "index": 0, "ok": true, "payload": "0"}\n"#);
        let run = backend.run(Some(1), specs(1), &double).unwrap();
        assert_eq!(run.stats.malformed, 1);
        assert!(matches!(
            &run.outcomes[0],
            ShardOutcome::Lost { error, .. } if error.contains("version")
        ));
    }

    #[test]
    fn process_backend_counts_reply_bytes() {
        let reply = r#"{"v": 2, "index": 0, "ok": true, "len": 2}\n42"#;
        let run = scripted_worker(reply)
            .run(Some(1), specs(1), &double)
            .unwrap();
        assert_eq!(
            run.outcomes[0],
            ShardOutcome::Done(ShardResult {
                index: 0,
                payload: b"42".to_vec(),
            })
        );
        assert_eq!(run.stats.reply_bytes, reply.len() as u64 - 1);
    }

    #[test]
    fn process_backend_times_out_hung_workers() {
        // `sleep` accepts the spec but never replies: every shard must come
        // back as a timeout loss within the (short) budget, not hang.
        let backend = ProcessBackend {
            worker_cmd: vec!["sleep".to_string(), "30".to_string()],
            timeout_ms: 200,
            max_respawns: 2,
        };
        let run = backend.run(Some(2), specs(3), &double).unwrap();
        assert_eq!(run.stats.lost, 3);
        assert!(run.stats.timeouts + run.stats.crashes > 0);
        assert!(run
            .outcomes
            .iter()
            .all(|o| matches!(o, ShardOutcome::Lost { .. })));
    }

    #[test]
    fn process_backend_detects_crashing_workers() {
        // `false` exits 1 immediately: dead pipe / EOF on every shard, and
        // the respawn budget bounds the number of attempts.
        let backend = ProcessBackend {
            worker_cmd: vec!["false".to_string()],
            timeout_ms: 1_000,
            max_respawns: 2,
        };
        let run = backend.run(Some(1), specs(6), &double).unwrap();
        assert_eq!(run.stats.lost, 6);
        assert!(run.stats.crashes > 0);
        assert!(run.stats.workers_respawned <= 2);
    }

    #[test]
    fn backend_choice_parses_and_labels() {
        for choice in BackendChoice::ALL {
            assert_eq!(choice.label().parse::<BackendChoice>(), Ok(choice));
        }
        assert!("quantum".parse::<BackendChoice>().is_err());
        assert_eq!(BackendChoice::default(), BackendChoice::Thread);
    }
}
