//! Pluggable PGAS transport: the layer that decides what "remote" means.
//!
//! Every one-sided primitive of this crate ([`crate::window`],
//! [`crate::accum`], [`crate::cluster::LocaleCtx::barrier_wait`], the
//! producer/consumer [`PairChannel`]) runs over one of two backends,
//! selected by the `LS_TRANSPORT` environment variable:
//!
//! * **`inprocess`** (default) — the historical backend: locales are
//!   threads of one process and every transfer is a memcpy. Hermetic,
//!   deterministic, and what `cargo test` exercises.
//! * **`multiprocess`** — one OS process per locale. A launcher
//!   ([`launch_if_requested`]) re-executes the current binary once per
//!   locale; workers rendezvous through a job directory, exchange window
//!   puts/gets through shared-memory segment files (`/dev/shm`), and run
//!   accumulate/channel/barrier traffic over a full mesh of TCP sockets
//!   with frames serialized through the `bytes` shim.
//!
//! # Execution model (multiprocess)
//!
//! The multiprocess backend is SPMD, like MPI: every worker process runs
//! the *identical* program. Collective operations (barriers, allgathers,
//! the reductions of `ls-eigen`'s distributed vectors) are matched up
//! purely by program order — each process stamps its `k`-th collective
//! with sequence number `k`, and the deterministic control flow that the
//! workspace already guarantees (fixed reduction trees, counter-derived
//! RNG, identical convergence scalars on every rank) makes the `k`-th
//! collective the same operation everywhere. A desynchronized sequence
//! number is detected and aborts the job rather than deadlocking.
//!
//! Distributed vectors keep their full shape in every process; only rank
//! `r`'s part is authoritative on rank `r`. One-sided epochs re-replicate
//! where needed: an [`crate::RmaWriteWindow`] epoch ends by reading every
//! locale's segment back, so data produced by distributed enumeration is
//! fully replicated, while Krylov vectors are never replicated — their
//! reductions combine per-rank partials in rank order, bit-identical to
//! the in-process locale-ordered sum.
//!
//! # Visibility and ordering contract
//!
//! Both backends satisfy the same contract (docs/ARCHITECTURE.md states
//! it in full):
//!
//! * puts/gets are only ordered by barriers — a get may not observe a
//!   concurrent epoch's put until a barrier separates them;
//! * remote accumulates become visible to the owner no later than the
//!   next barrier (TCP frames are FIFO per peer, and the barrier's
//!   collective frame travels behind every earlier accumulate);
//! * channel sends arrive in order per (source, destination) pair;
//! * barriers order everything: an operation issued before a barrier on
//!   one rank happens-before anything issued after that barrier anywhere.

use crate::crc32c::{crc32c, crc32c_append};
use crate::env::{var_or, EnvError};
use crate::fault::{FaultKind, FaultPlan, FrameClass};
use crate::remote::BufferChannel;
use crate::stats::CommStats;
use bytes::{Buf, BufMut};
use crossbeam::utils::Backoff;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::fs::{self, File};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Backend selector (`LS_TRANSPORT=inprocess|multiprocess`).
pub const ENV_TRANSPORT: &str = "LS_TRANSPORT";
/// Locale count for the multiprocess launcher (`LS_LOCALES=N`).
pub const ENV_LOCALES: &str = "LS_LOCALES";
/// Internal: this worker's rank. Set by the launcher, never by hand.
pub const ENV_RANK: &str = "LS_MP_RANK";
/// Internal: the rendezvous/job directory. Set by the launcher.
pub const ENV_JOB: &str = "LS_MP_JOB";
/// Internal: enables the parent-death watchdog in workers.
pub const ENV_WATCHDOG: &str = "LS_MP_WATCHDOG";
/// Collective timeout override in seconds (default 180).
pub const ENV_TIMEOUT: &str = "LS_MP_TIMEOUT_SECS";
/// Supervisor retry budget: how many times an abnormally-exited job is
/// relaunched before the supervisor gives up (default 2).
pub const ENV_MAX_RESTARTS: &str = "LS_MP_MAX_RESTARTS";
/// Base supervisor backoff in milliseconds, doubled per retry
/// (default 250).
pub const ENV_BACKOFF_MS: &str = "LS_MP_BACKOFF_MS";
/// Heartbeat interval in milliseconds (default 500; 0 disables).
pub const ENV_HEARTBEAT_MS: &str = "LS_MP_HEARTBEAT_MS";
/// Peer-silence threshold in seconds: a peer that sends nothing (not
/// even heartbeats) for this long while we wait on it is declared failed
/// (default 30; 0 disables).
pub const ENV_SILENCE_SECS: &str = "LS_MP_SILENCE_SECS";
/// Internal: which supervisor incarnation this worker belongs to (0 on
/// the first launch). Set by the supervisor, read by fault injection and
/// [`restart_count`].
pub const ENV_RESTART_COUNT: &str = "LS_MP_RESTART_COUNT";
/// Integrity-checking level (`LS_INTEGRITY=off|wire|full`, default
/// `full`). See [`IntegrityMode`].
pub const ENV_INTEGRITY: &str = "LS_INTEGRITY";

const RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(60);
const DEFAULT_COLLECTIVE_TIMEOUT_SECS: u64 = 180;
const DEFAULT_HEARTBEAT_MS: u64 = 500;
const DEFAULT_SILENCE_SECS: u64 = 30;

/// Exit code of a worker whose launcher died (watchdog).
pub(crate) const EXIT_ORPHANED: i32 = 124;
/// Exit code for transport protocol failures (desync, timeout).
pub(crate) const EXIT_PROTOCOL: i32 = 113;
/// Exit code of a rank that aborted because a *peer* failed (either it
/// detected the failure itself or an `ABORT` frame told it to die).
pub(crate) const EXIT_FAILOVER: i32 = 114;
/// Exit code of a rank that died on *unrecovered* data corruption: a
/// CRC/checksum violation that escaped (or exhausted) the solver-level
/// rollback path and unwound out of the program.
pub(crate) const EXIT_CORRUPTION: i32 = 115;

// Wire frame tags. Every frame travels on the single TCP stream between
// an ordered pair of ranks, so per-peer FIFO is a transport guarantee.
const TAG_COLL: u8 = 1;
const TAG_CHAN: u8 = 2;
const TAG_CLOSE: u8 = 3;
const TAG_CREDIT: u8 = 4;
const TAG_ACC: u8 = 5;
/// Job-abort fan-out: origin rank, exit code, reason. A rank that
/// detects an unrecoverable failure sends this to every live peer so the
/// whole job exits promptly instead of burning the collective timeout.
const TAG_ABORT: u8 = 6;
/// Heartbeat: a single tag byte. Carries no data — its only job is to
/// advance the receiver's last-traffic clock so silent-peer detection
/// can distinguish "slow collective" from "hung process".
const TAG_PING: u8 = 7;
/// Corruption fan-out: a rank that detected a CRC/checksum violation
/// tells every peer, so ranks that are *not* currently waiting on the
/// detector still learn within one frame time instead of stalling into
/// the collective timeout. Unlike `ABORT` this is recoverable: the
/// receiver poisons its collectives (they surface
/// [`TransportError::Corruption`]) and the solver above rolls back.
const TAG_POISON: u8 = 8;

/// Collective sequence numbers carry the recovery epoch in their top 16
/// bits (`(epoch << EPOCH_SHIFT) | seq`): after a corruption rollback
/// every rank bumps its epoch, resets `seq`, and silently discards
/// queued frames from the poisoned epoch — the one desync that is
/// expected and benign.
const EPOCH_SHIFT: u32 = 48;

/// A typed, attributed transport failure. This is what replaced the
/// pile of anonymous `fatal()` exits: every failure names the peer (or
/// protocol condition) responsible, and the runtime's internal abort
/// path turns it into a prompt, job-wide abort with a matching exit
/// code (an `ABORT` frame fans out so every rank exits naming the
/// origin).
#[derive(Clone, Debug)]
pub enum TransportError {
    /// A peer's mesh connection died (EOF / reset) or a send to it
    /// failed. `detection` is how long the failure went unnoticed from
    /// this rank's perspective (wait start or socket death, whichever is
    /// later — sub-second in practice, never the collective timeout).
    PeerFailed {
        /// The failed peer's rank.
        peer: usize,
        /// What was observed (connection lost, send failed, silent...).
        detail: String,
        /// Latency from failure to detection on this rank.
        detection: Duration,
    },
    /// A collective arrived with the wrong sequence number: the SPMD
    /// ranks are no longer executing the same program.
    Desync {
        /// The peer whose frame mismatched.
        peer: usize,
        /// The sequence number this rank expected.
        expected: u64,
        /// The sequence number that actually arrived.
        got: u64,
    },
    /// A collective hit the `LS_MP_TIMEOUT_SECS` deadline with the peer
    /// still connected (backstop for failures EOF cannot see).
    Timeout {
        /// The peer that never delivered.
        peer: usize,
        /// The collective's sequence number.
        seq: u64,
        /// How long this rank waited.
        waited: Duration,
    },
    /// A peer told this rank to die (`ABORT` frame), or the local abort
    /// path is already underway.
    Aborted {
        /// The rank where the failure originated.
        origin: usize,
        /// The originating failure, as text.
        reason: String,
    },
    /// A protocol invariant broke (unknown frame tag, unregistered
    /// accumulate window, segment IO failure, ...).
    Protocol {
        /// What broke.
        detail: String,
    },
    /// Data corruption caught by the integrity layer: a wire frame or
    /// shared-memory segment failed its CRC32C, or a matvec checksum
    /// invariant broke. Unlike every other variant this one is
    /// *recoverable*: it unwinds as a catchable panic so the solver can
    /// roll back to its newest checkpoint instead of the job dying.
    Corruption {
        /// The rank whose data was corrupt (the frame's sender, the
        /// segment part's owner, or the locale whose partial broke the
        /// checksum invariant).
        peer: usize,
        /// What carried the corruption (`"coll"`, `"chan"`, `"accum"`,
        /// `"window"`, `"abft"`).
        frame: String,
        /// Which check failed (CRC mismatch, checksum-vector drift...).
        kind: String,
    },
}

impl TransportError {
    /// The process exit code this failure maps to: protocol breakages
    /// keep the historical 113, while dying *because a peer died* is 114
    /// so the supervisor can tell the culprit from the collateral.
    pub fn exit_code(&self) -> i32 {
        match self {
            TransportError::PeerFailed { .. } | TransportError::Aborted { .. } => EXIT_FAILOVER,
            TransportError::Desync { .. }
            | TransportError::Timeout { .. }
            | TransportError::Protocol { .. } => EXIT_PROTOCOL,
            TransportError::Corruption { .. } => EXIT_CORRUPTION,
        }
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::PeerFailed { peer, detail, detection } => write!(
                f,
                "peer rank {peer} failed ({detail}) — detected in {:.3}s",
                detection.as_secs_f64()
            ),
            TransportError::Desync { peer, expected, got } => write!(
                f,
                "collective desync with rank {peer}: expected seq {expected}, got {got}"
            ),
            TransportError::Timeout { peer, seq, waited } => write!(
                f,
                "collective timeout waiting for rank {peer} (seq {seq}, waited {:.0}s)",
                waited.as_secs_f64()
            ),
            TransportError::Aborted { origin, reason } => {
                write!(f, "aborted by rank {origin}: {reason}")
            }
            TransportError::Protocol { detail } => write!(f, "protocol error: {detail}"),
            TransportError::Corruption { peer, frame, kind } => {
                write!(f, "corrupt {frame} from rank {peer} ({kind})")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Which supervisor incarnation this process belongs to: 0 on a fresh
/// launch, `k` after the supervisor's `k`-th relaunch. Workers read it
/// to arm fault injection; [`TransportSnapshot::restarts`] surfaces it
/// in benchmark output.
pub fn restart_count() -> u64 {
    static COUNT: OnceLock<u64> = OnceLock::new();
    *COUNT.get_or_init(|| var_or(ENV_RESTART_COUNT, 0).unwrap_or_else(|e| panic!("{e}")))
}

/// How much end-to-end integrity checking the runtime performs
/// (`LS_INTEGRITY=off|wire|full`):
///
/// * **`off`** — no checksums anywhere. The baseline the bench guard
///   measures overhead against.
/// * **`wire`** — every data-bearing TCP frame (collective, channel,
///   accumulate) carries a CRC32C over its header and payload, verified
///   on receive.
/// * **`full`** (default) — `wire`, plus CRC32C sidecars over
///   shared-memory segment parts verified on first remote read, plus the
///   matvec checksum-vector invariant in `ls-dist`.
///
/// The mode must be uniform across ranks (the supervisor exports one
/// environment to every worker): it changes the wire format.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum IntegrityMode {
    /// No integrity checking.
    Off,
    /// Frame CRCs only.
    Wire,
    /// Frame CRCs + segment CRCs + matvec checksum vectors.
    Full,
}

impl IntegrityMode {
    /// Reads `LS_INTEGRITY` **fresh** (no caching): benchmark drivers
    /// toggle it between sections to measure overhead in one process.
    /// The multiprocess runtime caches its own copy at connect time,
    /// because the wire format cannot change mid-job.
    ///
    /// # Panics
    /// Panics on an unrecognized value — a typo must not silently
    /// disable the defense.
    pub fn from_env() -> IntegrityMode {
        match std::env::var(ENV_INTEGRITY) {
            Err(_) => IntegrityMode::Full,
            Ok(v) => match v.as_str() {
                "" | "full" => IntegrityMode::Full,
                "wire" => IntegrityMode::Wire,
                "off" => IntegrityMode::Off,
                other => {
                    panic!("{ENV_INTEGRITY}={other:?}: expected \"off\", \"wire\" or \"full\"")
                }
            },
        }
    }

    /// True when wire frames carry CRCs (`wire` or `full`).
    #[inline]
    pub fn wire(self) -> bool {
        self != IntegrityMode::Off
    }

    /// True when segment sidecars and matvec checksums are on (`full`).
    #[inline]
    pub fn full(self) -> bool {
        self == IntegrityMode::Full
    }

    /// Stable lowercase name, as used in `LS_INTEGRITY` and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            IntegrityMode::Off => "off",
            IntegrityMode::Wire => "wire",
            IntegrityMode::Full => "full",
        }
    }
}

/// Which transport the process runs on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Locales are threads of this process; transfers are memcpys.
    InProcess,
    /// Locales are OS processes; transfers cross real process boundaries.
    MultiProcess,
}

impl Backend {
    /// Stable lowercase name (`"inprocess"` / `"multiprocess"`), as used
    /// in `LS_TRANSPORT` and benchmark JSON labels.
    pub fn name(self) -> &'static str {
        match self {
            Backend::InProcess => "inprocess",
            Backend::MultiProcess => "multiprocess",
        }
    }
}

/// The backend requested through `LS_TRANSPORT`.
///
/// # Panics
/// Panics on an unrecognized value — a typo must not silently fall back
/// to simulated numbers.
pub fn requested_backend() -> Backend {
    match std::env::var(ENV_TRANSPORT) {
        Err(_) => Backend::InProcess,
        Ok(v) => match v.as_str() {
            "" | "inprocess" => Backend::InProcess,
            "multiprocess" => Backend::MultiProcess,
            other => {
                panic!("{ENV_TRANSPORT}={other:?}: expected \"inprocess\" or \"multiprocess\"")
            }
        },
    }
}

/// The backend this process is actually running on: `MultiProcess` only
/// when the process is a connected worker of a multiprocess job.
pub fn backend() -> Backend {
    if active().is_some() {
        Backend::MultiProcess
    } else {
        Backend::InProcess
    }
}

/// True on the rank whose output is canonical (rank 0), and always true
/// in-process. Gate file writes (benchmark JSON, reports) on this so a
/// multiprocess job does not race N identical writers.
pub fn is_primary() -> bool {
    active().map(|mp| mp.rank() == 0).unwrap_or(true)
}

static RUNTIME: OnceLock<Option<&'static MpRuntime>> = OnceLock::new();

/// The multiprocess runtime of this worker, or `None` when the process
/// is not part of a multiprocess job. Initializes (rendezvous + mesh
/// connect) on first call when `LS_MP_RANK` is present.
pub fn active() -> Option<&'static MpRuntime> {
    *RUNTIME.get_or_init(|| {
        if std::env::var_os(ENV_RANK).is_some() {
            let rt: &'static MpRuntime = Box::leak(Box::new(MpRuntime::connect()));
            rt.spawn_receivers();
            rt.spawn_watchdog();
            rt.spawn_heartbeat();
            Some(rt)
        } else {
            None
        }
    })
}

/// The multiprocess entry hook: call this first in `main` of any binary
/// that supports `LS_TRANSPORT=multiprocess`.
///
/// * In-process backend requested: returns immediately (no-op).
/// * Worker process (spawned by the supervisor): connects the mesh and
///   returns — the program then runs SPMD.
/// * Supervisor (multiprocess requested, not yet a worker): spawns
///   `LS_LOCALES` copies of the current binary with identical arguments,
///   reaps them, classifies abnormal exits, relaunches the job (bounded
///   by `LS_MP_MAX_RESTARTS`, resuming from checkpoints where the
///   program saves them), and **exits** — it never returns. See
///   [`crate::supervisor`].
pub fn launch_if_requested() {
    if requested_backend() != Backend::MultiProcess {
        return;
    }
    if std::env::var_os(ENV_RANK).is_some() {
        // Worker: ensure the runtime is up before any Cluster exists.
        let _ = active();
        return;
    }
    crate::supervisor::run_supervisor();
}

/// Fast failure poll for spin loops that wait on peer progress outside a
/// collective (producer/consumer drains). No-op on the in-process
/// backend. On the multiprocess backend, aborts the job promptly when a
/// peer has died — such loops otherwise spin until the full collective
/// timeout because nothing they wait on ever arrives.
///
/// Only call this from code that runs strictly *between* two barriers of
/// a product (every `PcEngine` drain does): inside that bracket a peer
/// cannot have exited cleanly, so a dead connection is always a failure.
pub fn poll_failure() {
    if let Some(mp) = active() {
        mp.check_peers_alive("peer lost during producer/consumer product");
    }
}

/// Unrecoverable failure *before* the mesh exists (rendezvous, bad
/// worker environment): there is no one to send an `ABORT` to yet, so
/// die loudly and let the supervisor classify the exit.
fn fatal(msg: &str) -> ! {
    let rank = std::env::var(ENV_RANK).unwrap_or_default();
    eprintln!("ls-mp[rank {rank}]: fatal: {msg}");
    std::process::exit(EXIT_PROTOCOL);
}

/// The worker-side timing knobs: [`ENV_TIMEOUT`], [`ENV_HEARTBEAT_MS`]
/// and [`ENV_SILENCE_SECS`]. Workers inherit them from the launcher, so
/// the supervisor parses them too, before it spawns anything.
pub(crate) struct WorkerTiming {
    pub(crate) timeout: Duration,
    pub(crate) hb_interval: Duration,
    pub(crate) silence: Duration,
}

impl WorkerTiming {
    pub(crate) fn from_env() -> Result<WorkerTiming, EnvError> {
        Ok(WorkerTiming {
            timeout: Duration::from_secs(var_or(ENV_TIMEOUT, DEFAULT_COLLECTIVE_TIMEOUT_SECS)?),
            hb_interval: Duration::from_millis(var_or(ENV_HEARTBEAT_MS, DEFAULT_HEARTBEAT_MS)?),
            silence: Duration::from_secs(var_or(ENV_SILENCE_SECS, DEFAULT_SILENCE_SECS)?),
        })
    }
}

/// One collective inbox per peer: frames arrive FIFO from the peer's
/// receiver thread, the main thread pops them in sequence order.
struct CollQueue {
    q: Mutex<VecDeque<(u64, Vec<u8>)>>,
    cv: Condvar,
}

/// Receiver side of one multiprocess channel.
struct ChanInbox {
    q: Mutex<VecDeque<Vec<u8>>>,
    closed: AtomicBool,
}

/// Sender-side flow control of one multiprocess channel: mirrors the
/// single-buffer ownership of the in-process [`BufferChannel`] (one
/// outstanding batch; a credit returns when the consumer took it).
struct ChanCredits {
    avail: AtomicUsize,
}

/// Owner-side target of a registered accumulation window.
#[derive(Copy, Clone)]
struct AccTarget {
    /// Base address of the owner part's first `AtomicU64` lane.
    base: usize,
    /// Scalar element count of the owner part.
    len: usize,
    /// `f64` lanes per scalar element.
    lanes: usize,
}

/// Wire-level statistics of the multiprocess backend: real bytes moved,
/// not simulated counts. [`CommStats`] keeps recording the *logical*
/// one-sided operations on both backends; these counters exist only when
/// bytes genuinely cross a process boundary.
#[derive(Debug, Default)]
pub struct TransportStats {
    /// Frames written to TCP peers.
    pub tx_frames: AtomicU64,
    /// Bytes written to TCP peers (headers + payloads).
    pub tx_bytes: AtomicU64,
    /// Frames read from TCP peers.
    pub rx_frames: AtomicU64,
    /// Bytes read from TCP peers.
    pub rx_bytes: AtomicU64,
    /// Bytes read from other locales' shared-memory segments.
    pub shm_read_bytes: AtomicU64,
    /// Bytes written to shared-memory segments (own publishes + puts).
    pub shm_write_bytes: AtomicU64,
    /// Barrier crossings.
    pub barriers: AtomicU64,
    /// Total nanoseconds spent inside barriers (latency numerator).
    pub barrier_nanos: AtomicU64,
    /// Peer failures this rank detected (EOF, send failure, silence).
    pub peer_failures: AtomicU64,
    /// `ABORT` frames this rank fanned out to peers.
    pub aborts_sent: AtomicU64,
    /// Heartbeat frames sent (not counted in `tx_frames`/`tx_bytes`, so
    /// wire-traffic numbers stay comparable across heartbeat settings).
    pub heartbeats: AtomicU64,
    /// Total failure-to-detection nanoseconds (latency numerator over
    /// `peer_failures`).
    pub detection_nanos: AtomicU64,
    /// Corrupt frames / segment parts / checksum invariants this rank
    /// detected (each one poisons the epoch and triggers rollback).
    pub frames_corrupted: AtomicU64,
    /// Bytes this rank ran through CRC32C verification (received frames
    /// and segment parts — a measure of integrity coverage, not cost).
    pub crc_bytes_checked: AtomicU64,
}

impl TransportStats {
    fn add(&self, counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    /// Plain-data snapshot.
    pub fn snapshot(&self) -> TransportSnapshot {
        TransportSnapshot {
            tx_frames: self.tx_frames.load(Ordering::Relaxed),
            tx_bytes: self.tx_bytes.load(Ordering::Relaxed),
            rx_frames: self.rx_frames.load(Ordering::Relaxed),
            rx_bytes: self.rx_bytes.load(Ordering::Relaxed),
            shm_read_bytes: self.shm_read_bytes.load(Ordering::Relaxed),
            shm_write_bytes: self.shm_write_bytes.load(Ordering::Relaxed),
            barriers: self.barriers.load(Ordering::Relaxed),
            barrier_nanos: self.barrier_nanos.load(Ordering::Relaxed),
            peer_failures: self.peer_failures.load(Ordering::Relaxed),
            aborts_sent: self.aborts_sent.load(Ordering::Relaxed),
            heartbeats: self.heartbeats.load(Ordering::Relaxed),
            detection_nanos: self.detection_nanos.load(Ordering::Relaxed),
            frames_corrupted: self.frames_corrupted.load(Ordering::Relaxed),
            crc_bytes_checked: self.crc_bytes_checked.load(Ordering::Relaxed),
            restarts: restart_count(),
        }
    }

    /// Zeroes every counter (`restarts` is incarnation identity, not a
    /// counter — it survives resets).
    pub fn reset(&self) {
        self.tx_frames.store(0, Ordering::Relaxed);
        self.tx_bytes.store(0, Ordering::Relaxed);
        self.rx_frames.store(0, Ordering::Relaxed);
        self.rx_bytes.store(0, Ordering::Relaxed);
        self.shm_read_bytes.store(0, Ordering::Relaxed);
        self.shm_write_bytes.store(0, Ordering::Relaxed);
        self.barriers.store(0, Ordering::Relaxed);
        self.barrier_nanos.store(0, Ordering::Relaxed);
        self.peer_failures.store(0, Ordering::Relaxed);
        self.aborts_sent.store(0, Ordering::Relaxed);
        self.heartbeats.store(0, Ordering::Relaxed);
        self.detection_nanos.store(0, Ordering::Relaxed);
        self.frames_corrupted.store(0, Ordering::Relaxed);
        self.crc_bytes_checked.store(0, Ordering::Relaxed);
    }
}

/// Plain-data snapshot of [`TransportStats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransportSnapshot {
    /// Frames written to TCP peers.
    pub tx_frames: u64,
    /// Bytes written to TCP peers.
    pub tx_bytes: u64,
    /// Frames read from TCP peers.
    pub rx_frames: u64,
    /// Bytes read from TCP peers.
    pub rx_bytes: u64,
    /// Bytes read from other locales' segments.
    pub shm_read_bytes: u64,
    /// Bytes written to segments.
    pub shm_write_bytes: u64,
    /// Barrier crossings.
    pub barriers: u64,
    /// Nanoseconds spent in barriers.
    pub barrier_nanos: u64,
    /// Peer failures this rank detected.
    pub peer_failures: u64,
    /// `ABORT` frames fanned out.
    pub aborts_sent: u64,
    /// Heartbeat frames sent.
    pub heartbeats: u64,
    /// Failure-to-detection nanoseconds (numerator over `peer_failures`).
    pub detection_nanos: u64,
    /// Corruption events this rank detected.
    pub frames_corrupted: u64,
    /// Bytes run through CRC32C verification.
    pub crc_bytes_checked: u64,
    /// Supervisor incarnation of this process ([`restart_count`]): how
    /// many times the job was relaunched before this snapshot was taken.
    pub restarts: u64,
}

impl TransportSnapshot {
    /// Mean barrier latency in seconds (0 when no barrier was crossed).
    pub fn mean_barrier_seconds(&self) -> f64 {
        if self.barriers == 0 {
            0.0
        } else {
            self.barrier_nanos as f64 * 1e-9 / self.barriers as f64
        }
    }

    /// Mean failure-to-detection latency in seconds (0 when no peer
    /// failure was detected).
    pub fn mean_detection_seconds(&self) -> f64 {
        if self.peer_failures == 0 {
            0.0
        } else {
            self.detection_nanos as f64 * 1e-9 / self.peer_failures as f64
        }
    }
}

/// Liveness bookkeeping for one mesh peer, written by receiver threads
/// and the heartbeat sender, read by every wait loop.
struct PeerHealth {
    /// The connection died (EOF, reset, failed send).
    dead: AtomicBool,
    /// Nanoseconds since runtime start when death was first observed.
    died_at: AtomicU64,
    /// Nanoseconds since runtime start of the last received frame
    /// (heartbeats included) — the silent-peer clock.
    last_rx: AtomicU64,
}

/// The per-worker multiprocess runtime: rank identity, the TCP mesh, the
/// shared-memory job directory, and the registries behind channels and
/// accumulation windows. One per process, `'static`, created lazily by
/// [`active`].
pub struct MpRuntime {
    rank: usize,
    n: usize,
    job_dir: PathBuf,
    /// Write halves of the mesh (`None` at the self index).
    writers: Vec<Option<Mutex<TcpStream>>>,
    /// Read halves, drained once by [`Self::spawn_receivers`].
    readers: Mutex<Vec<Option<TcpStream>>>,
    /// Collective sequence counter; the guard also serializes collectives.
    coll_seq: Mutex<u64>,
    coll_in: Vec<CollQueue>,
    chans: Mutex<HashMap<u64, Arc<ChanInbox>>>,
    credits: Mutex<HashMap<u64, Arc<ChanCredits>>>,
    accums: Mutex<HashMap<u64, AccTarget>>,
    next_chan: AtomicU64,
    next_seg: AtomicU64,
    next_win: AtomicU64,
    stats: TransportStats,
    timeout: Duration,
    /// Per-peer liveness (self index unused).
    health: Vec<PeerHealth>,
    /// Set once the local abort path is underway (dedupes fan-out).
    aborting: AtomicBool,
    /// Monotonic time base for the health clocks.
    epoch: Instant,
    /// Heartbeat send interval (zero disables).
    hb_interval: Duration,
    /// Silent-peer threshold (zero disables).
    silence: Duration,
    /// Parsed `LS_FAULT` plan (empty when unset).
    faults: FaultPlan,
    /// Supervisor incarnation, gating which fault actions are armed.
    attempt: u64,
    /// 1-based count of barriers entered — the fault-trigger clock.
    barrier_ordinal: AtomicU64,
    /// Per-fault-action budget spent (indexed like `faults.actions`).
    fault_spent: Vec<AtomicU64>,
    /// Integrity level, cached at connect (the wire format cannot
    /// change mid-job).
    integrity: IntegrityMode,
    /// Set while a detected corruption awaits solver-level rollback;
    /// every collective wait surfaces `Corruption` instead of blocking.
    poisoned: AtomicBool,
    /// Set for the duration of [`Self::recover_from_corruption`], whose
    /// own collectives must run despite the poison flag.
    recovering: AtomicBool,
    /// First corruption's attribution: (culprit rank, frame, kind).
    poison: Mutex<Option<(usize, String, String)>>,
    /// Dedupes the POISON fan-out (re-armed by recovery).
    poison_fanned: AtomicBool,
    /// Recovery epoch, carried in the top bits of collective sequence
    /// numbers so post-rollback ranks can discard poisoned-epoch frames.
    coll_epoch: AtomicU64,
    /// 1-based count of fused matvec epochs — the `nan` fault-trigger
    /// clock. Monotonic across rollbacks, so a consumed injection never
    /// re-fires against the replayed epoch.
    matvec_ordinal: AtomicU64,
}

impl MpRuntime {
    /// This worker's locale index.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of worker processes (= locales) in the job.
    #[inline]
    pub fn n_locales(&self) -> usize {
        self.n
    }

    /// Wire statistics of this process.
    pub fn stats(&self) -> &TransportStats {
        &self.stats
    }

    /// Rendezvous + full-mesh connect. Every worker binds an ephemeral
    /// listener, publishes its port as a file in the job directory
    /// (write-tmp-then-rename, so readers never see a partial file),
    /// connects to all lower ranks and accepts from all higher ranks.
    fn connect() -> MpRuntime {
        if !cfg!(unix) {
            fatal("the multiprocess backend requires a unix platform");
        }
        let rank: usize = std::env::var(ENV_RANK)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| fatal(&format!("{ENV_RANK} missing or unparsable")));
        let n: usize = std::env::var(ENV_LOCALES)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| fatal(&format!("{ENV_LOCALES} missing or unparsable")));
        let job_dir = PathBuf::from(
            std::env::var_os(ENV_JOB).unwrap_or_else(|| fatal(&format!("{ENV_JOB} missing"))),
        );
        let WorkerTiming { timeout, hb_interval, silence } =
            WorkerTiming::from_env().unwrap_or_else(|e| fatal(&e.to_string()));
        let faults = FaultPlan::from_env();
        let attempt = restart_count();

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind mesh listener");
        let port = listener.local_addr().expect("listener addr").port();
        let port_file = job_dir.join(format!("port-{rank}"));
        let tmp = job_dir.join(format!("port-{rank}.tmp"));
        fs::write(&tmp, port.to_string()).expect("write port file");
        fs::rename(&tmp, &port_file).expect("publish port file");

        let deadline = Instant::now() + RENDEZVOUS_TIMEOUT;
        let mut streams: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
        // Dial every lower rank, announcing who we are.
        for (peer, slot) in streams.iter_mut().enumerate().take(rank) {
            let peer_file = job_dir.join(format!("port-{peer}"));
            let stream = loop {
                if let Ok(text) = fs::read_to_string(&peer_file) {
                    if let Ok(port) = text.trim().parse::<u16>() {
                        if let Ok(s) = TcpStream::connect(("127.0.0.1", port)) {
                            break s;
                        }
                    }
                }
                if Instant::now() > deadline {
                    fatal(&format!("rendezvous timeout dialing rank {peer}"));
                }
                std::thread::sleep(Duration::from_millis(2));
            };
            stream.set_nodelay(true).ok();
            let mut hello = Vec::with_capacity(4);
            hello.put_u32_le(rank as u32);
            (&stream).write_all(&hello).expect("send hello");
            *slot = Some(stream);
        }
        // Accept every higher rank; the hello says which one arrived.
        for _ in rank + 1..n {
            listener.set_nonblocking(false).expect("blocking accept mode");
            let (stream, _) = listener.accept().unwrap_or_else(|e| {
                fatal(&format!("mesh accept: {e}"));
            });
            stream.set_nodelay(true).ok();
            let mut hello = [0u8; 4];
            (&stream).read_exact(&mut hello).expect("read hello");
            let peer = u32::from_le_bytes(hello) as usize;
            if peer <= rank || peer >= n || streams[peer].is_some() {
                fatal(&format!("bogus hello from rank {peer}"));
            }
            streams[peer] = Some(stream);
        }

        let mut writers = Vec::with_capacity(n);
        let mut readers = Vec::with_capacity(n);
        for (peer, s) in streams.into_iter().enumerate() {
            match s {
                Some(s) if peer != rank => {
                    // A blocked send must not outlive the collective
                    // timeout (backstop: a peer that stops reading but
                    // keeps its socket open).
                    s.set_write_timeout(Some(timeout)).ok();
                    readers.push(Some(s.try_clone().expect("clone mesh stream")));
                    writers.push(Some(Mutex::new(s)));
                }
                _ => {
                    readers.push(None);
                    writers.push(None);
                }
            }
        }
        let fault_spent = (0..faults.actions.len()).map(|_| AtomicU64::new(0)).collect();
        MpRuntime {
            rank,
            n,
            job_dir,
            writers,
            readers: Mutex::new(readers),
            coll_seq: Mutex::new(0),
            coll_in: (0..n)
                .map(|_| CollQueue { q: Mutex::new(VecDeque::new()), cv: Condvar::new() })
                .collect(),
            chans: Mutex::new(HashMap::new()),
            credits: Mutex::new(HashMap::new()),
            accums: Mutex::new(HashMap::new()),
            next_chan: AtomicU64::new(0),
            next_seg: AtomicU64::new(0),
            next_win: AtomicU64::new(0),
            stats: TransportStats::default(),
            timeout,
            health: (0..n)
                .map(|_| PeerHealth {
                    dead: AtomicBool::new(false),
                    died_at: AtomicU64::new(0),
                    last_rx: AtomicU64::new(0),
                })
                .collect(),
            aborting: AtomicBool::new(false),
            epoch: Instant::now(),
            hb_interval,
            silence,
            faults,
            attempt,
            barrier_ordinal: AtomicU64::new(0),
            fault_spent,
            integrity: IntegrityMode::from_env(),
            poisoned: AtomicBool::new(false),
            recovering: AtomicBool::new(false),
            poison: Mutex::new(None),
            poison_fanned: AtomicBool::new(false),
            coll_epoch: AtomicU64::new(0),
            matvec_ordinal: AtomicU64::new(0),
        }
    }

    /// One receiver thread per peer: reads frames off the stream in order
    /// and dispatches them. EOF (peer exited) ends the thread quietly.
    fn spawn_receivers(&'static self) {
        let mut readers = self.readers.lock().unwrap();
        for (peer, slot) in readers.iter_mut().enumerate() {
            let Some(stream) = slot.take() else { continue };
            std::thread::Builder::new()
                .name(format!("ls-mp-rx-{peer}"))
                .spawn(move || self.receive_loop(peer, stream))
                .expect("spawn receiver thread");
        }
    }

    /// Workers must not outlive a killed supervisor: the supervisor holds
    /// the write end of each worker's stdin pipe and never writes, so EOF
    /// on stdin — including after `kill -9` of the supervisor — means
    /// orphaned. Orphans best-effort-delete the job directory on the way
    /// out (the supervisor is gone, so nobody else will), which is what
    /// keeps `/dev/shm` free of `ls-mp-*` debris after any exit path.
    fn spawn_watchdog(&'static self) {
        if std::env::var_os(ENV_WATCHDOG).is_none() {
            return;
        }
        let job_dir = self.job_dir.clone();
        std::thread::Builder::new()
            .name("ls-mp-watchdog".into())
            .spawn(move || {
                let mut buf = [0u8; 64];
                let mut stdin = std::io::stdin();
                loop {
                    match stdin.read(&mut buf) {
                        Ok(0) | Err(_) => {
                            let _ = fs::remove_dir_all(&job_dir);
                            std::process::exit(EXIT_ORPHANED);
                        }
                        Ok(_) => {}
                    }
                }
            })
            .expect("spawn watchdog thread");
    }

    /// Heartbeat sender: a bare `PING` tag byte to every live peer each
    /// interval. Pings advance the receivers' silent-peer clocks; a send
    /// failure doubles as failure detection between collectives.
    fn spawn_heartbeat(&'static self) {
        if self.hb_interval.is_zero() || self.n < 2 {
            return;
        }
        std::thread::Builder::new()
            .name("ls-mp-hb".into())
            .spawn(move || loop {
                std::thread::sleep(self.hb_interval);
                if self.aborting.load(Ordering::SeqCst) {
                    return;
                }
                for peer in 0..self.n {
                    if peer == self.rank || self.health[peer].dead.load(Ordering::SeqCst) {
                        continue;
                    }
                    let Some(writer) = self.writers[peer].as_ref() else { continue };
                    if writer.lock().unwrap().write_all(&[TAG_PING]).is_err() {
                        self.note_peer_lost(peer);
                    } else {
                        self.stats.add(&self.stats.heartbeats, 1);
                    }
                }
            })
            .expect("spawn heartbeat thread");
    }

    /// Nanoseconds since runtime start (the health clock base).
    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Bytes the trailing frame CRC occupies on the wire (0 with
    /// integrity off).
    fn crc_len(&self) -> usize {
        if self.integrity.wire() {
            4
        } else {
            0
        }
    }

    /// Receive-side integrity check: reads the trailing CRC32C and
    /// verifies it over the frame's header + payload. Returns `None` on
    /// a stream failure (peer marked lost), `Some(true)` for a good
    /// frame (or integrity off), `Some(false)` for a corrupt one — the
    /// corruption is counted, attributed and fanned out; the caller
    /// must drop the frame instead of dispatching it.
    fn verify_rx(
        &self,
        stream: &mut TcpStream,
        peer: usize,
        head: &[u8],
        payload: &[u8],
        frame: &str,
    ) -> Option<bool> {
        if !self.integrity.wire() {
            return Some(true);
        }
        let mut want = [0u8; 4];
        if stream.read_exact(&mut want).is_err() {
            self.note_peer_lost(peer);
            return None;
        }
        self.stats.add(&self.stats.crc_bytes_checked, (head.len() + payload.len()) as u64);
        if crc32c_append(crc32c(head), payload) == u32::from_le_bytes(want) {
            Some(true)
        } else {
            self.report_corruption(peer, frame, "frame CRC mismatch");
            Some(false)
        }
    }

    /// The local half of corruption detection: count it, record the
    /// attribution, poison every collective wait (they surface
    /// [`TransportError::Corruption`] instead of blocking), and fan a
    /// `POISON` frame so peers not currently waiting on this rank learn
    /// within one frame time. Unlike [`Self::abort_job`] this does
    /// **not** exit: the solver above catches the error, rolls back to
    /// its newest checkpoint and calls
    /// [`Self::recover_from_corruption`].
    fn report_corruption(&self, peer: usize, frame: &str, kind: &str) {
        self.stats.add(&self.stats.frames_corrupted, 1);
        eprintln!(
            "ls-mp[rank {}]: integrity: corrupt {frame} from rank {peer} ({kind})",
            self.rank
        );
        self.set_poison(peer, frame, kind);
        if !self.poison_fanned.swap(true, Ordering::SeqCst) {
            let mut pframe = Vec::with_capacity(15 + frame.len() + kind.len());
            pframe.put_u8(TAG_POISON);
            pframe.put_u64_le(self.coll_epoch.load(Ordering::SeqCst));
            pframe.put_u32_le(peer as u32);
            pframe.put_u8(frame.len() as u8);
            pframe.put_u8(kind.len() as u8);
            pframe.put_slice(frame.as_bytes());
            pframe.put_slice(kind.as_bytes());
            for p in 0..self.n {
                if p == self.rank || self.health[p].dead.load(Ordering::SeqCst) {
                    continue;
                }
                let Some(writer) = self.writers[p].as_ref() else { continue };
                let _ = writer.lock().unwrap().write_all(&pframe);
            }
        }
    }

    /// Records the poison state (first attribution wins) and wakes every
    /// collective waiter so detection is prompt.
    fn set_poison(&self, peer: usize, frame: &str, kind: &str) {
        {
            let mut slot = self.poison.lock().unwrap();
            if slot.is_none() {
                *slot = Some((peer, frame.to_string(), kind.to_string()));
            }
        }
        self.poisoned.store(true, Ordering::SeqCst);
        for queue in &self.coll_in {
            queue.cv.notify_all();
        }
    }

    /// The attributed error for the current poison state.
    fn corruption_error(&self) -> TransportError {
        match &*self.poison.lock().unwrap() {
            Some((peer, frame, kind)) => TransportError::Corruption {
                peer: *peer,
                frame: frame.clone(),
                kind: kind.clone(),
            },
            None => TransportError::Corruption {
                peer: self.rank,
                frame: "unknown".into(),
                kind: "poisoned without attribution".into(),
            },
        }
    }

    /// True while a detected corruption awaits rollback ([`Self::
    /// recover_from_corruption`] clears it).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Raises the pending corruption as a *catchable* panic when the
    /// epoch is poisoned, and returns normally otherwise. Cleanup paths
    /// that find collective state inconsistent mid-unwind (undrained
    /// channels, outstanding credits) call this before asserting: under
    /// poison the inconsistency is a symptom of the corruption unwind,
    /// and turning it into a plain panic would make a recoverable error
    /// fatal.
    pub fn raise_if_poisoned(&self) {
        if self.is_poisoned() {
            std::panic::panic_any(self.corruption_error());
        }
    }

    /// Entry point for algorithm-based fault tolerance above the
    /// transport: a checksum-vector invariant over the distributed
    /// matvec failed for `locale`'s partial sums. Funnels into the same
    /// detect → poison → unwind pipeline as a frame CRC mismatch, so
    /// the solver's rollback path handles both identically. Unlike wire
    /// corruption this is detected *collectively* (every rank evaluates
    /// the same allreduced checksums), so every rank calls it at the
    /// same program point and unwinds in lockstep.
    pub fn report_abft_violation(&self, locale: usize, detail: &str) -> ! {
        self.report_corruption(locale, "abft", detail);
        std::panic::panic_any(self.corruption_error())
    }

    /// Routes a failure: *recoverable* corruption unwinds as a catchable
    /// panic (the solver rolls back), everything else takes the
    /// fail-stop abort path.
    fn bail(&self, err: TransportError) -> ! {
        if matches!(err, TransportError::Corruption { .. }) {
            std::panic::panic_any(err);
        }
        self.abort_job(err)
    }

    /// Marks a peer's connection dead and wakes every collective waiter
    /// so detection is immediate, not deferred to the next timeout slice.
    fn note_peer_lost(&self, peer: usize) {
        let health = &self.health[peer];
        if !health.dead.swap(true, Ordering::SeqCst) {
            health.died_at.store(self.now_nanos().max(1), Ordering::SeqCst);
        }
        for queue in &self.coll_in {
            queue.cv.notify_all();
        }
    }

    /// Builds the attributed [`TransportError::PeerFailed`] for a failure
    /// of `peer` first observable to the caller at `since` (nanos on the
    /// health clock), recording the detection-latency statistics.
    fn peer_failed(&self, peer: usize, detail: &str, since: u64) -> TransportError {
        let died = self.health[peer].died_at.load(Ordering::SeqCst);
        let detection = Duration::from_nanos(self.now_nanos().saturating_sub(died.max(since)));
        self.stats.add(&self.stats.peer_failures, 1);
        self.stats.add(&self.stats.detection_nanos, detection.as_nanos() as u64);
        TransportError::PeerFailed { peer, detail: detail.to_string(), detection }
    }

    /// Aborts the job on a dead peer: the check behind [`poll_failure`]
    /// and the channel spin loops. Only valid between the barriers of a
    /// product, where a dead connection is always a genuine failure.
    fn check_peers_alive(&self, detail: &str) {
        if self.aborting.load(Ordering::SeqCst) {
            // Another thread of this process is already exiting.
            std::thread::sleep(Duration::from_millis(50));
            return;
        }
        // Integrity outranks liveness: a poisoned epoch surfaces as
        // recoverable corruption, never misattributed as a peer crash.
        if self.poisoned.load(Ordering::SeqCst) && !self.recovering.load(Ordering::SeqCst) {
            std::panic::panic_any(self.corruption_error());
        }
        let now = self.now_nanos();
        for peer in 0..self.n {
            if peer != self.rank && self.health[peer].dead.load(Ordering::SeqCst) {
                self.abort_job(self.peer_failed(peer, detail, now));
            }
        }
    }

    /// The one-way door of every unrecoverable failure: fan an `ABORT`
    /// frame to every live peer (so the whole job dies promptly instead
    /// of burning its collective timeout), print the attributed
    /// diagnostic, and exit with the failure's code. Remote-origin
    /// aborts are not re-fanned.
    fn abort_job(&self, err: TransportError) -> ! {
        if !self.aborting.swap(true, Ordering::SeqCst)
            && !matches!(err, TransportError::Aborted { .. })
        {
            let reason = err.to_string();
            let mut frame = Vec::with_capacity(13 + reason.len());
            frame.put_u8(TAG_ABORT);
            frame.put_u32_le(self.rank as u32);
            frame.put_u32_le(err.exit_code() as u32);
            frame.put_u32_le(reason.len() as u32);
            frame.put_slice(reason.as_bytes());
            for peer in 0..self.n {
                if peer == self.rank || self.health[peer].dead.load(Ordering::SeqCst) {
                    continue;
                }
                let Some(writer) = self.writers[peer].as_ref() else { continue };
                if writer.lock().unwrap().write_all(&frame).is_ok() {
                    self.stats.add(&self.stats.aborts_sent, 1);
                }
            }
        }
        eprintln!("ls-mp[rank {}]: abort: {err} (exit {})", self.rank, err.exit_code());
        std::process::exit(err.exit_code());
    }

    /// Reads frames off one peer's stream in order and dispatches them.
    /// Any read failure — EOF on a cleanly-exited peer, ECONNRESET on a
    /// crashed one — marks the peer dead *immediately* and wakes every
    /// collective waiter, so detection costs milliseconds, not the
    /// collective timeout. Whether the death is fatal is decided at the
    /// wait sites: a peer that already contributed everything this rank
    /// will ever wait for is allowed to be gone.
    fn receive_loop(&'static self, peer: usize, mut stream: TcpStream) {
        let mut tag = [0u8; 1];
        loop {
            if stream.read_exact(&mut tag).is_err() {
                self.note_peer_lost(peer);
                return;
            }
            let frame_bytes = match tag[0] {
                TAG_COLL => {
                    let mut head = [0u8; 12];
                    if stream.read_exact(&mut head).is_err() {
                        self.note_peer_lost(peer);
                        return;
                    }
                    let mut r: &[u8] = &head;
                    let seq = r.get_u64_le();
                    let len = r.get_u32_le() as usize;
                    let mut payload = vec![0u8; len];
                    if stream.read_exact(&mut payload).is_err() {
                        self.note_peer_lost(peer);
                        return;
                    }
                    match self.verify_rx(&mut stream, peer, &head, &payload, "coll") {
                        None => return,
                        Some(false) => {}
                        Some(true) => {
                            let queue = &self.coll_in[peer];
                            queue.q.lock().unwrap().push_back((seq, payload));
                            queue.cv.notify_all();
                        }
                    }
                    13 + len + self.crc_len()
                }
                TAG_CHAN => {
                    let mut head = [0u8; 12];
                    if stream.read_exact(&mut head).is_err() {
                        self.note_peer_lost(peer);
                        return;
                    }
                    let mut r: &[u8] = &head;
                    let chan = r.get_u64_le();
                    let len = r.get_u32_le() as usize;
                    let mut payload = vec![0u8; len];
                    if stream.read_exact(&mut payload).is_err() {
                        self.note_peer_lost(peer);
                        return;
                    }
                    match self.verify_rx(&mut stream, peer, &head, &payload, "chan") {
                        None => return,
                        Some(false) => {}
                        Some(true) => self.inbox(chan).q.lock().unwrap().push_back(payload),
                    }
                    13 + len + self.crc_len()
                }
                TAG_CLOSE => {
                    let mut head = [0u8; 8];
                    if stream.read_exact(&mut head).is_err() {
                        self.note_peer_lost(peer);
                        return;
                    }
                    let mut r: &[u8] = &head;
                    let chan = r.get_u64_le();
                    self.inbox(chan).closed.store(true, Ordering::Release);
                    9
                }
                TAG_CREDIT => {
                    let mut head = [0u8; 8];
                    if stream.read_exact(&mut head).is_err() {
                        self.note_peer_lost(peer);
                        return;
                    }
                    let mut r: &[u8] = &head;
                    let chan = r.get_u64_le();
                    self.credit_cell(chan).avail.fetch_add(1, Ordering::Release);
                    9
                }
                TAG_ACC => {
                    let mut head = [0u8; 20];
                    if stream.read_exact(&mut head).is_err() {
                        self.note_peer_lost(peer);
                        return;
                    }
                    let mut r: &[u8] = &head;
                    let win = r.get_u64_le();
                    let index = r.get_u64_le() as usize;
                    let lanes = r.get_u32_le() as usize;
                    let mut payload = vec![0u8; lanes * 8];
                    if stream.read_exact(&mut payload).is_err() {
                        self.note_peer_lost(peer);
                        return;
                    }
                    match self.verify_rx(&mut stream, peer, &head, &payload, "accum") {
                        None => return,
                        Some(false) => {}
                        Some(true) => {
                            let mut r: &[u8] = &payload;
                            let mut vals = [0.0f64; 2];
                            for v in vals.iter_mut().take(lanes.min(2)) {
                                *v = r.get_f64_le();
                            }
                            self.apply_acc(win, index, &vals[..lanes.min(2)]);
                        }
                    }
                    21 + lanes * 8 + self.crc_len()
                }
                TAG_ABORT => {
                    let mut head = [0u8; 12];
                    if stream.read_exact(&mut head).is_err() {
                        self.note_peer_lost(peer);
                        return;
                    }
                    let mut r: &[u8] = &head;
                    let origin = r.get_u32_le() as usize;
                    let code = r.get_u32_le() as i32;
                    let len = r.get_u32_le() as usize;
                    let mut reason = vec![0u8; len];
                    if stream.read_exact(&mut reason).is_err() {
                        self.note_peer_lost(peer);
                        return;
                    }
                    let reason = String::from_utf8_lossy(&reason).into_owned();
                    // Exit right here: the job is already lost, and the
                    // sooner every rank is gone the sooner the supervisor
                    // can relaunch from the last checkpoint.
                    if !self.aborting.swap(true, Ordering::SeqCst) {
                        eprintln!(
                            "ls-mp[rank {}]: abort: aborted by rank {origin} \
                             (peer exit {code}): {reason} (exit {EXIT_FAILOVER})",
                            self.rank
                        );
                    }
                    std::process::exit(EXIT_FAILOVER);
                }
                TAG_PING => 1,
                TAG_POISON => {
                    let mut head = [0u8; 14];
                    if stream.read_exact(&mut head).is_err() {
                        self.note_peer_lost(peer);
                        return;
                    }
                    let mut r: &[u8] = &head;
                    let epoch = r.get_u64_le();
                    let culprit = r.get_u32_le() as usize;
                    let flen = r.get_u8() as usize;
                    let klen = r.get_u8() as usize;
                    let mut text = vec![0u8; flen + klen];
                    if stream.read_exact(&mut text).is_err() {
                        self.note_peer_lost(peer);
                        return;
                    }
                    // A poison stamped with an older epoch belongs to a
                    // corruption this rank already rolled back past.
                    if epoch >= self.coll_epoch.load(Ordering::SeqCst) {
                        let frame = String::from_utf8_lossy(&text[..flen]).into_owned();
                        let kind = String::from_utf8_lossy(&text[flen..]).into_owned();
                        self.set_poison(culprit, &frame, &kind);
                    }
                    15 + flen + klen
                }
                other => {
                    self.abort_job(TransportError::Protocol {
                        detail: format!("unknown frame tag {other} from rank {peer}"),
                    });
                }
            };
            self.health[peer].last_rx.store(self.now_nanos(), Ordering::Relaxed);
            self.stats.add(&self.stats.rx_frames, 1);
            self.stats.add(&self.stats.rx_bytes, frame_bytes as u64);
        }
    }

    fn inbox(&self, chan: u64) -> Arc<ChanInbox> {
        Arc::clone(self.chans.lock().unwrap().entry(chan).or_insert_with(|| {
            Arc::new(ChanInbox {
                q: Mutex::new(VecDeque::new()),
                closed: AtomicBool::new(false),
            })
        }))
    }

    fn credit_cell(&self, chan: u64) -> Arc<ChanCredits> {
        Arc::clone(
            self.credits
                .lock()
                .unwrap()
                .entry(chan)
                .or_insert_with(|| Arc::new(ChanCredits { avail: AtomicUsize::new(1) })),
        )
    }

    /// Executes the delay actions armed for frames of `class` (no-op
    /// without a matching `LS_FAULT` plan).
    fn fault_delay_hook(&self, class: FrameClass) {
        if self.faults.is_empty_for(self.rank, self.attempt) {
            return;
        }
        for (idx, action) in self.faults.delays_for(self.rank, self.attempt, class) {
            if self.fault_spent[idx].fetch_add(1, Ordering::Relaxed) < action.count {
                std::thread::sleep(action.delay());
            }
        }
    }

    /// Advances the barrier-ordinal clock and executes any kill /
    /// drop-conn action armed for this entry.
    fn fault_barrier_hook(&self) {
        let ordinal = self.barrier_ordinal.fetch_add(1, Ordering::Relaxed) + 1;
        if self.faults.is_empty_for(self.rank, self.attempt) {
            return;
        }
        for action in self.faults.at_barrier(self.rank, self.attempt, ordinal) {
            match action.kind {
                FaultKind::Kill => {
                    eprintln!(
                        "ls-mp[rank {}]: fault injection: kill at barrier {ordinal}",
                        self.rank
                    );
                    std::process::abort();
                }
                FaultKind::DropConn => {
                    eprintln!(
                        "ls-mp[rank {}]: fault injection: drop-conn at barrier {ordinal}",
                        self.rank
                    );
                    for writer in self.writers.iter().flatten() {
                        let _ = writer.lock().unwrap().shutdown(std::net::Shutdown::Both);
                    }
                }
                // The corruption kinds fire at their own sites: flip-bit
                // in seal_frame, corrupt-window in the segment writes,
                // nan in the matvec epoch clock.
                FaultKind::Delay
                | FaultKind::FlipBit
                | FaultKind::CorruptWindow
                | FaultKind::Nan => {}
            }
        }
    }

    /// Seals an outgoing data frame: appends the CRC32C of everything
    /// after the tag byte (when wire integrity is on) and executes any
    /// armed `flip-bit` injection. The flip happens *after* the
    /// checksum is computed and flips a payload bit — corrupting the
    /// data the way a failing NIC or DMA engine would, so only the
    /// receiver's verification can catch it. Injections count (and
    /// fire on) the `nth` *payload-bearing* frame of their class; with
    /// `LS_INTEGRITY=off` no checksum travels and the flip goes
    /// undetected, which is exactly what the knob trades away.
    fn seal_frame(&self, frame: &mut Vec<u8>, payload_start: usize, class: FrameClass) {
        let crc = if self.integrity.wire() { Some(crc32c(&frame[1..])) } else { None };
        if frame.len() > payload_start && !self.faults.is_empty_for(self.rank, self.attempt) {
            for (idx, action) in self.faults.flips_for(self.rank, self.attempt, class) {
                if self.fault_spent[idx].fetch_add(1, Ordering::Relaxed) + 1 == action.nth {
                    eprintln!(
                        "ls-mp[rank {}]: fault injection: flip-bit in {} frame {}",
                        self.rank,
                        class.name(),
                        action.nth
                    );
                    frame[payload_start] ^= 1;
                }
            }
        }
        if let Some(crc) = crc {
            frame.put_u32_le(crc);
        }
    }

    /// Fallible frame send: a failed write marks the peer dead and
    /// returns the attributed failure instead of killing the process.
    fn try_send_frame(
        &self,
        peer: usize,
        frame: &[u8],
        class: FrameClass,
    ) -> Result<(), TransportError> {
        self.fault_delay_hook(class);
        let Some(writer) = self.writers[peer].as_ref() else {
            return Err(TransportError::Protocol {
                detail: format!("send to self or unconnected rank {peer}"),
            });
        };
        let sent_at = self.now_nanos();
        let result = writer.lock().unwrap().write_all(frame);
        if let Err(e) = result {
            self.note_peer_lost(peer);
            return Err(self.peer_failed(peer, &format!("send failed: {e}"), sent_at));
        }
        self.stats.add(&self.stats.tx_frames, 1);
        self.stats.add(&self.stats.tx_bytes, frame.len() as u64);
        Ok(())
    }

    fn send_frame(&self, peer: usize, frame: &[u8], class: FrameClass) {
        self.try_send_frame(peer, frame, class).unwrap_or_else(|e| self.bail(e));
    }

    /// Pops the collective payload with sequence `seq` from `peer`. The
    /// per-peer stream is FIFO and both ranks count collectives in the
    /// same SPMD program order, so the queue head must carry exactly
    /// `seq` — anything else is a desynchronized job.
    ///
    /// Failure handling, in priority order: an already-queued frame is
    /// consumed even if the peer has since died (its last contribution
    /// before a clean exit is still valid); a dead connection fails the
    /// wait immediately (sub-second detection, not the timeout); a peer
    /// silent past the heartbeat threshold is declared hung; the
    /// collective timeout is the last-ditch backstop.
    fn try_pop_coll(&self, peer: usize, seq: u64) -> Result<Vec<u8>, TransportError> {
        let queue = &self.coll_in[peer];
        let wait_start = Instant::now();
        let wait_start_nanos = self.now_nanos();
        let deadline = wait_start + self.timeout;
        let silence_limit = if self.hb_interval.is_zero() || self.silence.is_zero() {
            None
        } else {
            Some(self.silence.as_nanos() as u64)
        };
        let mut q = queue.q.lock().unwrap();
        loop {
            if let Some(&(s, _)) = q.front() {
                if s >> EPOCH_SHIFT < seq >> EPOCH_SHIFT {
                    // Leftover frame of a rolled-back epoch: the peer
                    // sent it before recovery. Benign — discard.
                    q.pop_front();
                    continue;
                }
                if s >> EPOCH_SHIFT == seq >> EPOCH_SHIFT {
                    if s != seq {
                        return Err(TransportError::Desync { peer, expected: seq, got: s });
                    }
                    return Ok(q.pop_front().unwrap().1);
                }
                // The peer already recovered into a *newer* epoch: a
                // corruption was detected somewhere and this rank's
                // poison notification is still in flight. Leave the
                // frame queued (it belongs to the post-recovery epoch)
                // and fall through to the poison check / wait below —
                // this is the corruption unwind racing the fan-out,
                // never a desync.
            }
            if self.aborting.load(Ordering::SeqCst) {
                return Err(TransportError::Aborted {
                    origin: self.rank,
                    reason: "local abort already in progress".into(),
                });
            }
            // A poisoned epoch fails the wait with the attributed
            // corruption — the frame this rank is waiting for may have
            // been the corrupt one that was dropped. Recovery's own
            // collectives run with `recovering` set.
            if self.poisoned.load(Ordering::SeqCst) && !self.recovering.load(Ordering::SeqCst) {
                return Err(self.corruption_error());
            }
            if self.health[peer].dead.load(Ordering::SeqCst) {
                return Err(self.peer_failed(
                    peer,
                    "connection lost during collective",
                    wait_start_nanos,
                ));
            }
            if let Some(limit) = silence_limit {
                let last_rx = self.health[peer].last_rx.load(Ordering::Relaxed);
                let now = self.now_nanos();
                // Only distrust silence we actually waited through: the
                // clock may be stale from a long compute phase.
                if now.saturating_sub(last_rx.max(wait_start_nanos)) > limit {
                    self.note_peer_lost(peer);
                    return Err(self.peer_failed(
                        peer,
                        "peer silent past heartbeat threshold",
                        wait_start_nanos,
                    ));
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(TransportError::Timeout { peer, seq, waited: self.timeout });
            }
            // Short slices: death/abort flags flip without a cv notify
            // in some paths, and 100 ms keeps detection prompt anyway.
            let slice = (deadline - now).min(Duration::from_millis(100));
            let (guard, _) = queue.cv.wait_timeout(q, slice).unwrap();
            q = guard;
        }
    }

    /// Fallible allgather: every rank contributes `payload`, every rank
    /// receives all contributions indexed by rank. The fundamental
    /// collective — barriers and reductions are built on it.
    pub fn try_allgather(&self, payload: &[u8]) -> Result<Vec<Vec<u8>>, TransportError> {
        // The guard both allocates the sequence number and serializes
        // collectives within the process.
        let mut seq_guard = self.coll_seq.lock().unwrap();
        let seq = (self.coll_epoch.load(Ordering::SeqCst) << EPOCH_SHIFT) | *seq_guard;
        *seq_guard += 1;
        let mut frame = Vec::with_capacity(17 + payload.len());
        frame.put_u8(TAG_COLL);
        frame.put_u64_le(seq);
        frame.put_u32_le(payload.len() as u32);
        frame.put_slice(payload);
        self.seal_frame(&mut frame, 13, FrameClass::Coll);
        for peer in 0..self.n {
            if peer != self.rank {
                self.try_send_frame(peer, &frame, FrameClass::Coll)?;
            }
        }
        let mut out: Vec<Vec<u8>> = (0..self.n).map(|_| Vec::new()).collect();
        out[self.rank] = payload.to_vec();
        for (peer, slot) in out.iter_mut().enumerate() {
            if peer != self.rank {
                *slot = self.try_pop_coll(peer, seq)?;
            }
        }
        drop(seq_guard);
        Ok(out)
    }

    /// Infallible allgather: aborts the whole job on failure —
    /// except recoverable corruption, which unwinds as a catchable
    /// panic carrying the [`TransportError::Corruption`].
    pub fn allgather(&self, payload: &[u8]) -> Vec<Vec<u8>> {
        self.try_allgather(payload).unwrap_or_else(|e| self.bail(e))
    }

    /// Fallible barrier: an empty allgather. Per-peer FIFO makes it a
    /// flush: every accumulate/channel/credit frame a peer sent before
    /// entering the barrier has been applied here once its barrier frame
    /// is popped. Also the fault-injection trigger point: `LS_FAULT`
    /// kill/drop-conn actions fire on entry, keyed by the 1-based count
    /// of barriers this process has entered.
    pub fn try_barrier(&self) -> Result<(), TransportError> {
        self.fault_barrier_hook();
        let t0 = Instant::now();
        self.try_allgather(&[])?;
        self.stats.add(&self.stats.barriers, 1);
        self.stats.add(&self.stats.barrier_nanos, t0.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Infallible barrier: aborts the whole job on failure (corruption
    /// unwinds as a catchable panic instead, like [`Self::allgather`]).
    pub fn barrier(&self) {
        self.try_barrier().unwrap_or_else(|e| self.bail(e));
    }

    /// Fallible lane-wise allreduce of `f64` partials: gathers every
    /// rank's lanes and sums them **in rank order**, which is
    /// bit-identical to the in-process backend's locale-ordered
    /// combination.
    pub fn try_allreduce_lanes(&self, lanes: &[f64]) -> Result<Vec<f64>, TransportError> {
        let mut payload = Vec::with_capacity(lanes.len() * 8);
        for &v in lanes {
            payload.put_f64_le(v);
        }
        let all = self.try_allgather(&payload)?;
        let mut out = vec![0.0f64; lanes.len()];
        for contribution in &all {
            let mut r: &[u8] = contribution;
            if r.remaining() != lanes.len() * 8 {
                return Err(TransportError::Protocol {
                    detail: "allreduce lane-count mismatch across ranks".into(),
                });
            }
            for slot in out.iter_mut() {
                *slot += r.get_f64_le();
            }
        }
        Ok(out)
    }

    /// Infallible lane-wise allreduce: aborts the whole job on failure
    /// (corruption unwinds as a catchable panic, like
    /// [`Self::allgather`]).
    pub fn allreduce_lanes(&self, lanes: &[f64]) -> Vec<f64> {
        self.try_allreduce_lanes(lanes).unwrap_or_else(|e| self.bail(e))
    }

    /// Collective recovery from a poisoned epoch: every surviving rank
    /// calls this (the solver's rollback path does) after unwinding out
    /// of the corrupt product. Steps, whose order is load-bearing:
    ///
    /// 1. bump the recovery epoch and reset the collective sequence —
    ///    stale frames of the poisoned epoch now carry visibly-old
    ///    epoch bits and are silently discarded at the pop;
    /// 2. barrier in the new epoch — per-peer FIFO means that once a
    ///    peer's new-epoch barrier frame has arrived, *everything* it
    ///    sent before recovery has been received and dispatched, so the
    ///    stale channel/credit state is complete;
    /// 3. drop all channel inboxes and credits (the poisoned product's
    ///    ranks unwound mid-stream and will rebuild their grids);
    /// 4. allgather the channel/segment/window id counters and take the
    ///    job-wide maximum — ranks unwound at different points, so the
    ///    per-process counters diverged. No peer can send a new-id
    ///    frame before its own allgather completes, which needs our
    ///    contribution, which we send *after* clearing the maps — so a
    ///    fresh inbox can never be dropped by step 3;
    /// 5. clear the poison.
    ///
    /// No-op when the epoch is not poisoned, so callers may invoke it
    /// unconditionally before a retry.
    pub fn recover_from_corruption(&self) {
        if !self.poisoned.load(Ordering::SeqCst) {
            return;
        }
        self.recovering.store(true, Ordering::SeqCst);
        self.coll_epoch.fetch_add(1, Ordering::SeqCst);
        *self.coll_seq.lock().unwrap() = 0;
        self.barrier();
        self.chans.lock().unwrap().clear();
        self.credits.lock().unwrap().clear();
        let mut payload = Vec::with_capacity(24);
        payload.put_u64_le(self.next_chan.load(Ordering::SeqCst));
        payload.put_u64_le(self.next_seg.load(Ordering::SeqCst));
        payload.put_u64_le(self.next_win.load(Ordering::SeqCst));
        let all = self.allgather(&payload);
        let (mut chan, mut seg, mut win) = (0u64, 0u64, 0u64);
        for contribution in &all {
            let mut r: &[u8] = contribution;
            chan = chan.max(r.get_u64_le());
            seg = seg.max(r.get_u64_le());
            win = win.max(r.get_u64_le());
        }
        self.next_chan.store(chan, Ordering::SeqCst);
        self.next_seg.store(seg, Ordering::SeqCst);
        self.next_win.store(win, Ordering::SeqCst);
        *self.poison.lock().unwrap() = None;
        self.poison_fanned.store(false, Ordering::SeqCst);
        self.poisoned.store(false, Ordering::SeqCst);
        self.recovering.store(false, Ordering::SeqCst);
        eprintln!(
            "ls-mp[rank {}]: integrity: recovered into epoch {}",
            self.rank,
            self.coll_epoch.load(Ordering::SeqCst)
        );
    }

    /// Advances the fused-matvec epoch clock and reports whether an
    /// `LS_FAULT` `nan` action fires for this rank at this epoch. The
    /// product engine calls it once per distributed matvec and, on
    /// `true`, replaces its local dot partial with NaN — silent
    /// arithmetic corruption that the rank-ordered reduction then
    /// propagates to every rank identically. The ordinal is monotonic
    /// across rollbacks, so a consumed injection never re-fires against
    /// the replayed epoch.
    pub fn nan_fault_fires(&self) -> bool {
        let ordinal = self.matvec_ordinal.fetch_add(1, Ordering::Relaxed) + 1;
        if self.faults.is_empty_for(self.rank, self.attempt) {
            return false;
        }
        let mut fires = false;
        for (idx, action) in self.faults.nans_at(self.rank, self.attempt, ordinal) {
            if self.fault_spent[idx].fetch_add(1, Ordering::Relaxed) < action.count {
                eprintln!(
                    "ls-mp[rank {}]: fault injection: nan into matvec epoch {ordinal}",
                    self.rank
                );
                fires = true;
            }
        }
        fires
    }

    // ---- accumulation windows -------------------------------------------

    /// Registers the owner-side target of a new accumulation window and
    /// returns its id. SPMD-collective: every rank must call it in the
    /// same program order (ids are derived from a per-process counter).
    /// Callers must barrier after registration and before any remote
    /// accumulate can target the window (see [`crate::accum`]).
    ///
    /// # Safety
    /// `base` must point at `len * lanes` `AtomicU64` cells that stay
    /// valid until [`Self::deregister_accum`].
    pub unsafe fn register_accum(
        &self,
        base: *const AtomicU64,
        len: usize,
        lanes: usize,
    ) -> u64 {
        let id = self.next_win.fetch_add(1, Ordering::Relaxed);
        self.accums.lock().unwrap().insert(id, AccTarget { base: base as usize, len, lanes });
        id
    }

    /// Drops a window registration. Callers must barrier first so no
    /// in-flight accumulate can still target the window.
    pub fn deregister_accum(&self, id: u64) {
        self.accums.lock().unwrap().remove(&id);
    }

    /// Ships one remote accumulate (`y[dest][index] += value`, given as
    /// its `f64` lanes) to the owner, which applies it atomically.
    pub fn send_acc(&self, dest: usize, win: u64, index: usize, lanes: &[f64]) {
        let mut frame = Vec::with_capacity(25 + lanes.len() * 8);
        frame.put_u8(TAG_ACC);
        frame.put_u64_le(win);
        frame.put_u64_le(index as u64);
        frame.put_u32_le(lanes.len() as u32);
        for &v in lanes {
            frame.put_f64_le(v);
        }
        self.seal_frame(&mut frame, 21, FrameClass::Accum);
        self.send_frame(dest, &frame, FrameClass::Accum);
    }

    fn apply_acc(&self, win: u64, index: usize, lanes: &[f64]) {
        let target = match self.accums.lock().unwrap().get(&win) {
            Some(&t) => t,
            None if self.poisoned.load(Ordering::SeqCst)
                || self.recovering.load(Ordering::SeqCst) =>
            {
                // A stale accumulate racing a window the unwinding
                // solver already dropped: safe to discard — rollback
                // throws the whole poisoned epoch away.
                return;
            }
            None => self.abort_job(TransportError::Protocol {
                detail: format!("accumulate into unregistered window {win}"),
            }),
        };
        if index >= target.len || lanes.len() > target.lanes {
            self.abort_job(TransportError::Protocol {
                detail: format!("accumulate out of bounds: {index} >= {}", target.len),
            });
        }
        let base = target.base as *const AtomicU64;
        for (lane, &add) in lanes.iter().enumerate() {
            if add == 0.0 {
                continue;
            }
            // SAFETY: the registration contract keeps the cells alive and
            // in bounds; all access during the epoch is atomic.
            let cell = unsafe { &*base.add(index * target.lanes + lane) };
            let mut cur = cell.load(Ordering::Relaxed);
            loop {
                let new = (f64::from_bits(cur) + add).to_bits();
                match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
        }
    }

    // ---- shared-memory segments -----------------------------------------

    /// Creates a new segment set for a distributed epoch: one file per
    /// locale under the job directory, element size `elem` bytes, part
    /// lengths `lens`. SPMD-collective (ids come from a counter), and the
    /// caller must publish its own part and barrier before peers read.
    pub fn new_segment(&'static self, elem: usize, lens: &[usize]) -> Segment {
        let id = self.next_seg.fetch_add(1, Ordering::Relaxed);
        Segment {
            mp: self,
            id,
            elem,
            files: (0..lens.len()).map(|_| Mutex::new(None)).collect(),
            verified: (0..lens.len()).map(|_| AtomicBool::new(false)).collect(),
            lens: lens.to_vec(),
        }
    }

    // ---- channels --------------------------------------------------------

    /// Reserves `count` consecutive channel ids. SPMD-collective: every
    /// rank must allocate blocks in the same program order so ids agree.
    pub fn alloc_chan_ids(&self, count: usize) -> u64 {
        self.next_chan.fetch_add(count as u64, Ordering::Relaxed)
    }

    fn send_chan(&self, peer: usize, chan: u64, payload: &[u8]) {
        let mut frame = Vec::with_capacity(17 + payload.len());
        frame.put_u8(TAG_CHAN);
        frame.put_u64_le(chan);
        frame.put_u32_le(payload.len() as u32);
        frame.put_slice(payload);
        self.seal_frame(&mut frame, 13, FrameClass::Chan);
        self.send_frame(peer, &frame, FrameClass::Chan);
    }

    fn send_close(&self, peer: usize, chan: u64) {
        let mut frame = Vec::with_capacity(9);
        frame.put_u8(TAG_CLOSE);
        frame.put_u64_le(chan);
        self.send_frame(peer, &frame, FrameClass::Close);
    }

    fn send_credit(&self, peer: usize, chan: u64) {
        let mut frame = Vec::with_capacity(9);
        frame.put_u8(TAG_CREDIT);
        frame.put_u64_le(chan);
        self.send_frame(peer, &frame, FrameClass::Credit);
    }

    fn drop_chan(&self, chan: u64) {
        self.chans.lock().unwrap().remove(&chan);
        self.credits.lock().unwrap().remove(&chan);
    }
}

// ---- shared-memory segment ----------------------------------------------

/// One distributed epoch's shared-memory backing: a file per locale in
/// the job directory (`/dev/shm` — tmpfs, so reads/writes are real
/// same-host shared memory through the page cache). The owner publishes
/// its part, a barrier makes it visible, peers `pread`/`pwrite` at
/// element offsets.
pub struct Segment {
    mp: &'static MpRuntime,
    id: u64,
    elem: usize,
    lens: Vec<usize>,
    files: Vec<Mutex<Option<File>>>,
    /// Per-part latch: in full-integrity mode the first `read` of each
    /// part verifies its CRC sidecars once, then trusts the page cache.
    verified: Vec<AtomicBool>,
}

impl Segment {
    fn path(&self, locale: usize) -> PathBuf {
        self.mp.job_dir.join(format!("seg-{}-{locale}", self.id))
    }

    /// Whole-part CRC sidecar, written by the part's owner at publish.
    fn crc_path(&self, locale: usize) -> PathBuf {
        self.mp.job_dir.join(format!("seg-{}-{locale}.crc", self.id))
    }

    /// Per-writer put-record sidecar against `locale`'s part: a flat
    /// list of `(byte offset: u64, len: u64, crc32c: u32)` records, one
    /// appended per [`Self::write`] by rank `writer`.
    fn putcrc_path(&self, locale: usize, writer: usize) -> PathBuf {
        self.mp.job_dir.join(format!("seg-{}-{locale}.putcrc-{writer}", self.id))
    }

    /// Segment IO failure router: under poison the files may already be
    /// gone (peers unwound and dropped the epoch), so surface the
    /// corruption for rollback instead of a fail-stop protocol abort.
    fn fail(&self, detail: String) -> ! {
        if self.mp.is_poisoned() {
            std::panic::panic_any(self.mp.corruption_error());
        }
        self.mp.abort_job(TransportError::Protocol { detail })
    }

    /// Executes any armed `corrupt-window` injection after this rank
    /// wrote `locale`'s part: flips the low bit of the byte at the
    /// action's offset (clamped to the part), bypassing the CRC
    /// sidecars — only a reader's verification can catch it.
    fn corrupt_window_hook(&self, locale: usize) {
        let mp = self.mp;
        if mp.faults.is_empty_for(mp.rank, mp.attempt) {
            return;
        }
        let part_bytes = self.lens[locale] * self.elem;
        if part_bytes == 0 {
            return;
        }
        for (idx, action) in mp.faults.window_corruptions_for(mp.rank, mp.attempt) {
            // `nth` selects where the damage starts (1-based over this
            // rank's segment writes — enumeration epochs write windows
            // too, so chaos plans use it to land inside the solve) and
            // `count` how many consecutive writes get hit.
            let n = mp.fault_spent[idx].fetch_add(1, Ordering::Relaxed) + 1;
            if n >= action.nth && n < action.nth + action.count {
                let at = (action.offset as usize).min(part_bytes - 1);
                eprintln!(
                    "ls-mp[rank {}]: fault injection: corrupt-window byte {at} of \
                     segment {} part {locale}",
                    mp.rank, self.id
                );
                self.with_file(locale, |f| {
                    let mut b = [0u8; 1];
                    pread(f, at as u64, &mut b)?;
                    b[0] ^= 1;
                    pwrite(f, at as u64, &b)
                });
            }
        }
    }

    /// First-read verification of `locale`'s part against its CRC
    /// sidecars (full-integrity mode). Put records — ranges written
    /// one-sidedly by peers — take precedence; a part nobody put into
    /// is checked whole against the owner's publish sidecar. A mismatch
    /// poisons the epoch and unwinds with the attributed
    /// [`TransportError::Corruption`].
    fn verify_part(&self, locale: usize) {
        let part_bytes = self.lens[locale] * self.elem;
        if part_bytes == 0 {
            return;
        }
        let mut buf = vec![0u8; part_bytes];
        self.with_file(locale, |f| pread(f, 0, &mut buf));
        let mut checked = 0u64;
        let mut bad = false;
        let mut any_put = false;
        for writer in 0..self.lens.len() {
            let Ok(records) = fs::read(self.putcrc_path(locale, writer)) else { continue };
            any_put = true;
            let mut r: &[u8] = &records;
            while r.remaining() >= 20 {
                let off = r.get_u64_le() as usize;
                let len = r.get_u64_le() as usize;
                let want = r.get_u32_le();
                if off + len > part_bytes || crc32c(&buf[off..off + len]) != want {
                    bad = true;
                }
                checked += len as u64;
            }
        }
        if !any_put {
            if let Ok(side) = fs::read(self.crc_path(locale)) {
                if side.len() == 4 {
                    let want = u32::from_le_bytes([side[0], side[1], side[2], side[3]]);
                    checked += part_bytes as u64;
                    if crc32c(&buf) != want {
                        bad = true;
                    }
                }
            }
        }
        self.mp.stats.add(&self.mp.stats.crc_bytes_checked, checked);
        if bad {
            self.mp.report_corruption(locale, "window", "segment CRC mismatch");
            std::panic::panic_any(self.mp.corruption_error());
        }
    }

    /// Element count of one locale's part.
    pub fn len(&self, locale: usize) -> usize {
        self.lens[locale]
    }

    /// True when `locale`'s part is empty.
    pub fn is_empty(&self, locale: usize) -> bool {
        self.lens[locale] == 0
    }

    /// Creates this rank's file and writes `bytes` as its full content.
    /// Must be followed by a barrier before any peer reads or writes it.
    pub fn publish_own(&self, bytes: &[u8]) {
        let me = self.mp.rank();
        assert_eq!(bytes.len(), self.lens[me] * self.elem, "publish size mismatch");
        // Read+write: the handle is cached and later serves `read` too.
        let mut f = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(self.path(me))
            .unwrap_or_else(|e| {
                self.fail(format!("create segment {}: {e}", self.path(me).display()))
            });
        f.write_all(bytes).unwrap_or_else(|e| self.fail(format!("publish segment: {e}")));
        *self.files[me].lock().unwrap() = Some(f);
        self.mp.stats.add(&self.mp.stats.shm_write_bytes, bytes.len() as u64);
        if self.mp.integrity.full() {
            let _ = fs::write(self.crc_path(me), crc32c(bytes).to_le_bytes());
        }
        self.corrupt_window_hook(me);
    }

    fn with_file<R>(&self, locale: usize, f: impl FnOnce(&File) -> std::io::Result<R>) -> R {
        let mut guard = self.files[locale].lock().unwrap();
        if guard.is_none() {
            let file = fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(self.path(locale))
                .unwrap_or_else(|e| {
                    self.fail(format!(
                        "open segment {} (missing barrier before access?): {e}",
                        self.path(locale).display()
                    ))
                });
            *guard = Some(file);
        }
        f(guard.as_ref().unwrap()).unwrap_or_else(|e| self.fail(format!("segment io: {e}")))
    }

    /// Reads `dst.len()` bytes from `locale`'s part at element `offset`.
    /// In full-integrity mode the first read of each part verifies the
    /// whole part against its CRC sidecars before any data is returned.
    pub fn read(&self, locale: usize, offset: usize, dst: &mut [u8]) {
        assert!(offset * self.elem + dst.len() <= self.lens[locale] * self.elem);
        if self.mp.integrity.full() && !self.verified[locale].swap(true, Ordering::SeqCst) {
            self.verify_part(locale);
        }
        self.with_file(locale, |f| pread(f, (offset * self.elem) as u64, dst));
        self.mp.stats.add(&self.mp.stats.shm_read_bytes, dst.len() as u64);
    }

    /// Writes `src` into `locale`'s part at element `offset`.
    pub fn write(&self, locale: usize, offset: usize, src: &[u8]) {
        assert!(offset * self.elem + src.len() <= self.lens[locale] * self.elem);
        self.with_file(locale, |f| pwrite(f, (offset * self.elem) as u64, src));
        self.mp.stats.add(&self.mp.stats.shm_write_bytes, src.len() as u64);
        if self.mp.integrity.full() {
            let mut record = Vec::with_capacity(20);
            record.put_u64_le((offset * self.elem) as u64);
            record.put_u64_le(src.len() as u64);
            record.put_u32_le(crc32c(src));
            let _ = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.putcrc_path(locale, self.mp.rank()))
                .and_then(|mut f| f.write_all(&record));
        }
        self.corrupt_window_hook(locale);
    }

    /// Collective epoch close: barriers (so every peer is done accessing
    /// the files) and then deletes this rank's file and the sidecars it
    /// wrote. Skipped while unwinding a poisoned epoch — a barrier here
    /// would hang against peers that are also unwinding; recovery
    /// resynchronizes segment ids, and the job directory is removed at
    /// exit, so the leaked files are bounded and harmless.
    pub fn close(&self) {
        if self.mp.is_poisoned() || std::thread::panicking() {
            return;
        }
        self.mp.barrier();
        let me = self.mp.rank();
        let _ = fs::remove_file(self.path(me));
        if self.mp.integrity.full() {
            let _ = fs::remove_file(self.crc_path(me));
            for locale in 0..self.lens.len() {
                let _ = fs::remove_file(self.putcrc_path(locale, me));
            }
        }
    }
}

fn pread(file: &File, off: u64, dst: &mut [u8]) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.read_exact_at(dst, off)
    }
    #[cfg(not(unix))]
    {
        let _ = (file, off, dst);
        unreachable!("multiprocess backend is unix-only")
    }
}

fn pwrite(file: &File, off: u64, src: &[u8]) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.write_all_at(src, off)
    }
    #[cfg(not(unix))]
    {
        let _ = (file, off, src);
        unreachable!("multiprocess backend is unix-only")
    }
}

// ---- raw byte views ------------------------------------------------------

/// Views a slice of plain-old-data elements as bytes.
///
/// # Safety
/// `T` must be `Copy` **without padding bytes** (the runtime moves
/// `u64`/`u32`/`f64`/scalar-pair payloads only). All processes run the
/// same executable on the same architecture, so the layout agrees.
pub(crate) unsafe fn slice_as_bytes<T: Copy>(s: &[T]) -> &[u8] {
    std::slice::from_raw_parts(s.as_ptr() as *const u8, std::mem::size_of_val(s))
}

/// Decodes a byte payload produced by [`slice_as_bytes`] back into `T`s,
/// appending to `out`. Unaligned-safe.
pub(crate) fn decode_extend<T: Copy>(payload: &[u8], out: &mut Vec<T>) {
    let size = std::mem::size_of::<T>();
    assert!(
        size > 0 && payload.len().is_multiple_of(size),
        "payload not a whole number of elements"
    );
    out.reserve(payload.len() / size);
    for chunk in payload.chunks_exact(size) {
        // SAFETY: chunk holds exactly one T's bytes; read_unaligned
        // tolerates the arbitrary alignment of the network buffer.
        out.push(unsafe { std::ptr::read_unaligned(chunk.as_ptr() as *const T) });
    }
}

// ---- pair channels -------------------------------------------------------

/// Backend-agnostic (source locale → destination locale) staging channel:
/// the transport-aware replacement for raw [`BufferChannel`] grids. The
/// in-process variant *is* a `BufferChannel`; the multiprocess variants
/// speak the CHAN/CLOSE/CREDIT frame protocol, with exactly the same
/// single-outstanding-batch flow control and the same per-operation
/// [`CommStats`] attribution, so channel statistics agree across
/// backends.
pub enum PairChannel<T: Copy + Default> {
    /// Both endpoints in this process (in-process backend, or the local
    /// loopback pair of the multiprocess backend).
    Local(BufferChannel<T>),
    /// This process is the producer; the consumer is a remote rank.
    Sender(MpSender<T>),
    /// This process is the consumer; the producer is a remote rank.
    Receiver(MpReceiver<T>),
    /// Neither endpoint lives here (multiprocess: a third-party pair).
    Absent,
}

/// Producer endpoint of a cross-process channel.
pub struct MpSender<T: Copy> {
    mp: &'static MpRuntime,
    peer: usize,
    id: u64,
    capacity: usize,
    credits: Arc<ChanCredits>,
    _marker: std::marker::PhantomData<fn(T)>,
}

/// Consumer endpoint of a cross-process channel.
pub struct MpReceiver<T: Copy> {
    mp: &'static MpRuntime,
    peer: usize,
    id: u64,
    inbox: Arc<ChanInbox>,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Copy + Default> PairChannel<T> {
    /// Builds the full `locales × locales` channel grid in row-major
    /// `[source][destination]` order. In-process: every pair is a
    /// [`BufferChannel`]. Multiprocess: this rank's outgoing pairs are
    /// senders, incoming pairs are receivers, the self-loop stays a local
    /// buffer, and all other pairs are [`PairChannel::Absent`].
    /// SPMD-collective (channel ids come from a per-process counter).
    pub fn grid(n_locales: usize, capacity: usize) -> Vec<PairChannel<T>> {
        let Some(mp) = active() else {
            return (0..n_locales * n_locales)
                .map(|_| PairChannel::Local(BufferChannel::new(capacity)))
                .collect();
        };
        assert_eq!(mp.n_locales(), n_locales, "channel grid sized for another job");
        let base = mp.alloc_chan_ids(n_locales * n_locales);
        let me = mp.rank();
        let mut out = Vec::with_capacity(n_locales * n_locales);
        for src in 0..n_locales {
            for dest in 0..n_locales {
                let id = base + (src * n_locales + dest) as u64;
                out.push(if src == me && dest == me {
                    PairChannel::Local(BufferChannel::new(capacity))
                } else if src == me {
                    PairChannel::Sender(MpSender {
                        mp,
                        peer: dest,
                        id,
                        capacity,
                        credits: mp.credit_cell(id),
                        _marker: std::marker::PhantomData,
                    })
                } else if dest == me {
                    PairChannel::Receiver(MpReceiver {
                        mp,
                        peer: src,
                        id,
                        inbox: mp.inbox(id),
                        _marker: std::marker::PhantomData,
                    })
                } else {
                    PairChannel::Absent
                });
            }
        }
        out
    }

    /// Producer: blocking claim of the (single) staging buffer. On the
    /// multiprocess backend the wait aborts promptly if the consumer
    /// rank dies (its credit would otherwise never come back and the
    /// spin would outlast the collective timeout).
    pub fn claim(&self) {
        match self {
            PairChannel::Local(ch) => ch.claim(),
            PairChannel::Sender(s) => {
                let backoff = Backoff::new();
                loop {
                    let avail = s.credits.avail.load(Ordering::Acquire);
                    if avail > 0
                        && s.credits
                            .avail
                            .compare_exchange(
                                avail,
                                avail - 1,
                                Ordering::Acquire,
                                Ordering::Relaxed,
                            )
                            .is_ok()
                    {
                        return;
                    }
                    if backoff.is_completed() {
                        s.mp.check_peers_alive("consumer lost while awaiting channel credit");
                    }
                    backoff.snooze();
                }
            }
            _ => panic!("claim on a non-producer channel endpoint"),
        }
    }

    /// Producer: publishes a claimed batch to the consumer.
    pub fn send(&self, stats: &CommStats, remote: bool, data: &[T]) {
        match self {
            PairChannel::Local(ch) => ch.send(stats, remote, data),
            PairChannel::Sender(s) => {
                assert!(data.len() <= s.capacity, "buffer overflow");
                // SAFETY: channel payload types are padding-free PODs
                // (see slice_as_bytes).
                let payload = unsafe { slice_as_bytes(data) };
                s.mp.send_chan(s.peer, s.id, payload);
                stats.record_put(payload.len(), true);
                stats.record_flag_message();
            }
            _ => panic!("send on a non-producer channel endpoint"),
        }
    }

    /// Producer: declares the stream finished for this product.
    pub fn close(&self) {
        match self {
            PairChannel::Local(ch) => ch.close(),
            PairChannel::Sender(s) => s.mp.send_close(s.peer, s.id),
            _ => panic!("close on a non-producer channel endpoint"),
        }
    }

    /// Consumer: takes one published batch if available, appending the
    /// elements to `out` and returning the buffer credit to the producer.
    pub fn try_recv(&self, stats: &CommStats, remote: bool, out: &mut Vec<T>) -> bool {
        match self {
            PairChannel::Local(ch) => ch.try_recv(stats, remote, out),
            PairChannel::Receiver(r) => {
                let payload = r.inbox.q.lock().unwrap().pop_front();
                let Some(payload) = payload else { return false };
                decode_extend(&payload, out);
                r.mp.send_credit(r.peer, r.id);
                stats.record_flag_message();
                true
            }
            _ => panic!("recv on a non-consumer channel endpoint"),
        }
    }

    /// Consumer: true when the stream is certainly finished (closed
    /// observed, then one more failed receive). See
    /// [`BufferChannel::drained_after_failed_recv`].
    pub fn drained_after_failed_recv(&self, stats: &CommStats, out: &mut Vec<T>) -> bool {
        match self {
            PairChannel::Local(ch) => ch.drained_after_failed_recv(stats, out),
            PairChannel::Receiver(r) => {
                if !r.inbox.closed.load(Ordering::Acquire) {
                    // A producer that died mid-stream will never close;
                    // abort instead of spinning into the timeout.
                    if r.mp.health[r.peer].dead.load(Ordering::SeqCst)
                        && r.inbox.q.lock().unwrap().is_empty()
                    {
                        r.mp.check_peers_alive("producer lost before closing its channel");
                    }
                    return false;
                }
                // CLOSE travels behind every CHAN frame (per-peer FIFO),
                // so closed + empty queue means drained for good.
                !self.try_recv(stats, false, out)
            }
            _ => panic!("drain check on a non-consumer channel endpoint"),
        }
    }

    /// Re-arms the channel for the next product (buffer/credit reuse).
    ///
    /// # Panics
    /// Panics when the channel is not idle (undrained data, outstanding
    /// credit) — products must be separated by a barrier, which also
    /// flushes the last credit frames home.
    pub fn reset(&self) {
        match self {
            PairChannel::Local(ch) => ch.reset(),
            PairChannel::Sender(s) => {
                let avail = s.credits.avail.load(Ordering::Acquire);
                if avail != 1 {
                    // A consumer that unwound out of a poisoned epoch
                    // never returned the credit — recoverable, not a
                    // protocol bug.
                    s.mp.raise_if_poisoned();
                    panic!("reset while the consumer still holds the batch credit ({avail})");
                }
            }
            PairChannel::Receiver(r) => {
                if !r.inbox.closed.load(Ordering::Acquire) {
                    r.mp.raise_if_poisoned();
                    panic!("reset of an open channel");
                }
                if !r.inbox.q.lock().unwrap().is_empty() {
                    r.mp.raise_if_poisoned();
                    panic!("reset with unconsumed data");
                }
                r.inbox.closed.store(false, Ordering::Release);
            }
            PairChannel::Absent => {}
        }
    }
}

impl<T: Copy> Drop for MpSender<T> {
    fn drop(&mut self) {
        self.mp.drop_chan(self.id);
    }
}

impl<T: Copy> Drop for MpReceiver<T> {
    fn drop(&mut self) {
        self.mp.drop_chan(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parse_defaults_to_inprocess() {
        // The test environment never sets LS_TRANSPORT.
        assert_eq!(requested_backend(), Backend::InProcess);
        assert_eq!(backend(), Backend::InProcess);
        assert!(active().is_none());
        assert!(is_primary());
        assert_eq!(Backend::MultiProcess.name(), "multiprocess");
    }

    #[test]
    fn pair_channel_grid_is_local_in_process() {
        let grid = PairChannel::<(u64, f64)>::grid(3, 8);
        assert_eq!(grid.len(), 9);
        let stats = CommStats::new();
        for ch in &grid {
            assert!(matches!(ch, PairChannel::Local(_)));
            ch.claim();
            ch.send(&stats, true, &[(7, 0.5)]);
            let mut out = Vec::new();
            assert!(ch.try_recv(&stats, true, &mut out));
            assert_eq!(out, vec![(7, 0.5)]);
            ch.close();
            assert!(ch.drained_after_failed_recv(&stats, &mut out));
            ch.reset();
        }
    }

    #[test]
    fn byte_roundtrip_preserves_pairs() {
        let data: Vec<(u64, f64)> = (0..17).map(|i| (i as u64 * 3, i as f64 * 0.25)).collect();
        // SAFETY: (u64, f64) has no padding.
        let bytes = unsafe { slice_as_bytes(&data) }.to_vec();
        let mut back: Vec<(u64, f64)> = Vec::new();
        decode_extend(&bytes, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn transport_stats_snapshot_and_reset() {
        let stats = TransportStats::default();
        stats.add(&stats.tx_bytes, 100);
        stats.add(&stats.barriers, 2);
        stats.add(&stats.barrier_nanos, 3_000_000_000);
        stats.add(&stats.peer_failures, 2);
        stats.add(&stats.detection_nanos, 24_000_000);
        stats.add(&stats.frames_corrupted, 1);
        stats.add(&stats.crc_bytes_checked, 4096);
        let snap = stats.snapshot();
        assert_eq!(snap.tx_bytes, 100);
        assert_eq!(snap.frames_corrupted, 1);
        assert_eq!(snap.crc_bytes_checked, 4096);
        assert!((snap.mean_barrier_seconds() - 1.5).abs() < 1e-12);
        assert!((snap.mean_detection_seconds() - 0.012).abs() < 1e-12);
        stats.reset();
        assert_eq!(stats.snapshot(), TransportSnapshot::default());
        assert_eq!(TransportSnapshot::default().mean_barrier_seconds(), 0.0);
        assert_eq!(TransportSnapshot::default().mean_detection_seconds(), 0.0);
    }

    #[test]
    fn transport_errors_attribute_and_map_exit_codes() {
        let failed = TransportError::PeerFailed {
            peer: 2,
            detail: "connection lost during collective".into(),
            detection: Duration::from_millis(12),
        };
        assert_eq!(failed.exit_code(), EXIT_FAILOVER);
        let text = failed.to_string();
        assert!(text.contains("rank 2"), "{text}");
        assert!(text.contains("detected in 0.012s"), "{text}");

        let desync = TransportError::Desync { peer: 1, expected: 7, got: 9 };
        assert_eq!(desync.exit_code(), EXIT_PROTOCOL);
        assert!(desync.to_string().contains("expected seq 7, got 9"));

        let timeout =
            TransportError::Timeout { peer: 3, seq: 5, waited: Duration::from_secs(180) };
        assert_eq!(timeout.exit_code(), EXIT_PROTOCOL);

        let aborted = TransportError::Aborted { origin: 0, reason: "peer died".into() };
        assert_eq!(aborted.exit_code(), EXIT_FAILOVER);
        assert!(aborted.to_string().contains("aborted by rank 0"));

        let protocol = TransportError::Protocol { detail: "unknown frame tag 42".into() };
        assert_eq!(protocol.exit_code(), EXIT_PROTOCOL);

        let corrupt = TransportError::Corruption {
            peer: 1,
            frame: "accum".into(),
            kind: "frame CRC mismatch".into(),
        };
        assert_eq!(corrupt.exit_code(), EXIT_CORRUPTION);
        let text = corrupt.to_string();
        assert!(text.contains("corrupt accum from rank 1"), "{text}");
        assert!(text.contains("frame CRC mismatch"), "{text}");
    }

    #[test]
    fn integrity_mode_defaults_to_full() {
        // The test environment never sets LS_INTEGRITY.
        let mode = IntegrityMode::from_env();
        assert_eq!(mode, IntegrityMode::Full);
        assert!(mode.wire());
        assert!(mode.full());
        assert!(IntegrityMode::Wire.wire());
        assert!(!IntegrityMode::Wire.full());
        assert!(!IntegrityMode::Off.wire());
        assert_eq!(IntegrityMode::Off.name(), "off");
        assert_eq!(IntegrityMode::Wire.name(), "wire");
        assert_eq!(IntegrityMode::Full.name(), "full");
    }

    #[test]
    fn restart_count_defaults_to_zero() {
        // The test environment never sets LS_MP_RESTART_COUNT.
        assert_eq!(restart_count(), 0);
        assert_eq!(TransportStats::default().snapshot().restarts, 0);
    }

    #[test]
    fn poll_failure_is_a_noop_in_process() {
        poll_failure(); // no runtime: must return without side effects
    }
}
