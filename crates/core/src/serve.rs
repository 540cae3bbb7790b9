//! `cyberhd::serve` — micro-batching serving engine with a multi-tenant
//! detector registry and hot-swap.
//!
//! The fast paths of this repo ([`Detector::detect_batch`], the fused B1
//! kernel, the zero-copy [`hdc::BatchView`] engines) are only reachable
//! when the *caller* already holds a large batch.  Real deployments
//! receive flows **one at a time** from thousands of concurrent sources;
//! this module closes the gap with three pieces:
//!
//! * [`DetectorRegistry`] — tenant/stream id → sealed [`Detector`]
//!   artifact, with **atomic hot-swap** of versioned artifacts (loadable
//!   straight from [`hdc::codec`] bytes): in-flight micro-batches finish
//!   on the artifact they were admitted under, new submissions see the new
//!   one, and [`DetectorInfo`] admission checks reject swaps that would
//!   change the traffic contract mid-stream.
//! * [`ServeEngine`] — the micro-batcher.  [`ServeEngine::submit`] takes
//!   one **raw flow record**, preprocesses it allocation-free
//!   ([`nids_data::preprocess::Preprocessor::transform_record_into`] into
//!   a reusable [`hdc::BatchBuffer`] row) and returns a [`Ticket`];
//!   pending rows flush through the batched kernels when the
//!   `max_batch` watermark fills, when `max_delay` expires
//!   ([`ServeEngine::poll`]), or on demand.  A bounded queue pushes back
//!   ([`ServeError::Backpressure`]) instead of growing without limit.
//! * [`ServeStats`] — per-tenant observability: flows served, queue
//!   depth, batch-size histogram and flush-latency percentiles
//!   ([`eval::timing::LatencyHistogram`]).
//! * [`AdaptiveLane`] — the **drift-adaptive** per-tenant serving mode.
//!   Where the engine above serves a frozen artifact, an adaptive lane
//!   wraps a live [`OnlineDetector`]: submissions may carry ground truth
//!   ([`AdaptiveLane::submit_labelled`]) or receive it later through their
//!   ticket ([`AdaptiveLane::submit_feedback`]), prequential
//!   test-then-train accuracy is tracked in a sliding window, and when the
//!   [`crate::regeneration::DriftMonitor`] trips (windowed error-rate
//!   delta, or an open-set unknown-rate surge) the lane regenerates
//!   low-variance dimensions in place and republishes a sealed snapshot
//!   through the [`DetectorRegistry`] — so every frozen lane of the same
//!   tenant hot-swaps to the adapted model while in-flight micro-batches
//!   finish on their pinned generation.
//!
//! # Layout
//!
//! Every lane — the engine's frozen per-tenant lanes and the adaptive
//! lane alike — embeds one **ticket desk** (`serve/desk.rs`): the lane id,
//! gap-free sequence allocation and ticket minting, the completed-verdict
//! map, the bounded-queue check behind [`ServeError::Backpressure`], the
//! foreign-ticket check, the shared serving counters and the one collect
//! state machine (`take` is *collect, flush if the ticket's own flow is
//! still queued, collect*).  Lanes flush FIFO, so "still queued" is a range
//! check on the sequence number, never a scan.  What the lanes do **not**
//! share is their pending storage — preprocessed [`hdc::BatchBuffer`] rows
//! pinned to an artifact generation on the frozen side, raw
//! labelled/unlabelled/feedback events on the adaptive side — so each keeps
//! its own queue and flush.  The registry lives in `serve/registry.rs`, the
//! engine in `serve/engine.rs`, the adaptive lane in `serve/adaptive.rs`;
//! [`crate::durable`] turns an adaptive lane crash-durable by attaching a
//! write-ahead journal *inside* it (same mutex, same flush boundaries).
//! The sharded engine ([`shard`]) adds `serve/timer.rs` — one sorted
//! deadline queue per shard, which that shard's flusher thread sleeps
//! on — and [`admission`] in front of the lanes.
//!
//! # Determinism contract
//!
//! Ticket verdicts are **bit-identical** to calling
//! [`Detector::detect_batch`] once over the same flows in submission
//! order, regardless of how arrivals interleave with flushes or where the
//! micro-batch boundaries fall.  This holds because every kernel on the
//! batch path processes rows independently (per-batch precomputation
//! depends only on the class memory) and the serve path runs the exact
//! same preprocess→encode→score expressions — pinned by `tests/serve.rs`
//! against a `detect_batch` oracle on all four dataset kinds.
//!
//! # Scaling out
//!
//! One [`ServeEngine`] is a **single shard**: one lane map, one lock, one
//! caller-driven [`ServeEngine::poll`].  The [`shard`] submodule composes
//! N of them into a [`shard::ShardedServeEngine`] that partitions tenants
//! by hash, flushes from per-shard flusher threads that sleep until the
//! next batch deadline (`serve/timer.rs`'s deadline queue) instead of
//! caller polling, and sheds load deterministically under
//! overload ([`admission`], [`ServeError::Shed`]).  The determinism
//! contract below is shard-count-invariant: a tenant lives on exactly one
//! shard, so its lane machinery — and therefore its verdicts — are
//! identical whether it is served by one engine or one of sixteen.
//!
//! Adaptive lanes carry the streaming twin of that contract: events
//! (submissions and feedback) are applied **strictly in submission order**
//! through the serial [`crate::OnlineLearner`] rule, so verdicts *and* the
//! final model are bit-identical to a serial replay of the same event
//! sequence — regardless of where flush boundaries fall, how `poll` is
//! interleaved, or how many lanes run on other threads.  `tests/scenario.rs`
//! pins both contracts under seeded [`nids_data::drift::DriftStream`]
//! scenarios.
//!
//! # Example
//!
//! ```
//! use cyberhd::serve::{DetectorRegistry, ServeConfig, ServeEngine};
//! use cyberhd::Detector;
//! use nids_data::synth::SyntheticConfig;
//! use nids_data::DatasetKind;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dataset = DatasetKind::NslKdd.generate(&SyntheticConfig::new(500, 7))?;
//! let detector = Detector::builder().dimension(128).retrain_epochs(1).train(&dataset)?;
//!
//! let registry = Arc::new(DetectorRegistry::new());
//! registry.register("edge-0", detector)?;
//! let engine = ServeEngine::new(Arc::clone(&registry), ServeConfig::default())?;
//!
//! // Flows arrive one at a time; verdicts come back through tickets.
//! let tickets: Vec<_> = dataset.records()[..64]
//!     .iter()
//!     .map(|record| engine.submit("edge-0", record))
//!     .collect::<Result<_, _>>()?;
//! engine.flush("edge-0")?;
//! let verdict = engine.take(&tickets[0])?;
//! assert!(verdict.class < dataset.num_classes());
//! # Ok(())
//! # }
//! ```

mod adaptive;
pub mod admission;
mod desk;
mod engine;
mod registry;
pub mod shard;
mod timer;

pub(crate) use adaptive::LaneCheckpoint;
pub use adaptive::{AdaptiveConfig, AdaptiveLane, AdaptiveStats};
pub use engine::{ServeEngine, ServeStats};
pub use registry::DetectorRegistry;

#[cfg(doc)]
use crate::detector::{Detector, DetectorInfo, OnlineDetector};
use crate::CyberHdError;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Errors produced by the serving layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The tenant id is not registered.
    UnknownTenant(String),
    /// The ticket was never issued by this engine, or its verdict was
    /// already taken.
    UnknownTicket,
    /// The tenant's bounded queue (pending flows plus uncollected
    /// verdicts) is full; the caller should drain tickets or shed load.
    Backpressure {
        /// Tenant whose queue is full.
        tenant: String,
        /// The configured queue capacity.
        capacity: usize,
        /// Queued work (pending flows plus uncollected verdicts) at the
        /// moment the submission was rejected.
        depth: usize,
        /// How long the caller should wait before retrying — the engine's
        /// `max_delay`, i.e. the latest point by which the queue is
        /// guaranteed to have been offered a flush.
        retry_hint: Duration,
    },
    /// The submission was **deterministically shed** by admission control
    /// (tenant quota exhausted, or the shard is over its overload
    /// watermark for this tenant's priority) before touching any queue.
    /// Unlike [`ServeError::Backpressure`] this is a policy decision, not
    /// a full buffer: draining tickets will not help, waiting will.
    Shed {
        /// Tenant whose submission was shed.
        tenant: String,
        /// How long the caller should wait before retrying (time until
        /// the next quota token, or one flush cadence under overload).
        retry_hint: Duration,
    },
    /// The submitted record failed schema validation (or another detector
    /// error); the flow was **not** enqueued.
    Rejected(CyberHdError),
    /// A hot-swap candidate failed the registry's admission checks.
    IncompatibleSwap(String),
    /// The tenant id is already registered (use [`DetectorRegistry::swap`]
    /// to replace an artifact).
    DuplicateTenant(String),
    /// The serve configuration is inconsistent.
    InvalidConfig(String),
    /// Ground truth arrived for a flow the adaptive lane never retained
    /// for feedback (the ticket was labelled at submit time) or whose
    /// feedback was already applied.
    FeedbackUnavailable(String),
    /// Ground truth arrived **too late**: the flow's record aged out of
    /// the bounded retention window (or the window is disabled).  Distinct
    /// from [`ServeError::FeedbackUnavailable`] so callers — and the WAL
    /// replay path — can tell an evicted flow from a never-retained one.
    FeedbackTooLate {
        /// Sequence number of the evicted flow.
        seq: u64,
        /// The configured retention window (`0` = late feedback disabled).
        retention: usize,
    },
    /// The durable lane's on-disk state (write-ahead log or checkpoint)
    /// could not be read, written, or reconciled with the live lane.
    Durability(String),
    /// The OS refused to start a sharded engine's flusher thread.
    FlusherSpawn(std::io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownTenant(tenant) => write!(f, "unknown tenant {tenant:?}"),
            ServeError::UnknownTicket => write!(f, "unknown or already-taken ticket"),
            ServeError::Backpressure { tenant, capacity, depth, retry_hint } => {
                write!(
                    f,
                    "tenant {tenant:?} queue is full ({depth}/{capacity} flows); drain tickets \
                     or retry in {retry_hint:?}"
                )
            }
            ServeError::Shed { tenant, retry_hint } => {
                write!(f, "tenant {tenant:?} submission shed by admission control; retry in {retry_hint:?}")
            }
            ServeError::Rejected(e) => write!(f, "flow rejected: {e}"),
            ServeError::IncompatibleSwap(what) => write!(f, "incompatible hot-swap: {what}"),
            ServeError::DuplicateTenant(tenant) => {
                write!(f, "tenant {tenant:?} is already registered; use swap to replace")
            }
            ServeError::InvalidConfig(what) => write!(f, "invalid serve configuration: {what}"),
            ServeError::FeedbackUnavailable(what) => {
                write!(f, "feedback unavailable: {what}")
            }
            ServeError::FeedbackTooLate { seq, retention } => {
                write!(
                    f,
                    "feedback too late: flow {seq} aged out of the {retention}-flow retention \
                     window"
                )
            }
            ServeError::Durability(what) => write!(f, "durability error: {what}"),
            ServeError::FlusherSpawn(e) => write!(f, "cannot spawn a flusher thread: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Rejected(e) => Some(e),
            ServeError::FlusherSpawn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CyberHdError> for ServeError {
    fn from(e: CyberHdError) -> Self {
        ServeError::Rejected(e)
    }
}

/// Serving-layer result alias.
pub type ServeResult<T> = std::result::Result<T, ServeError>;

/// Watermarks of the micro-batcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Flush a tenant's pending flows as soon as this many are queued —
    /// the batched kernels' amortization knob.
    pub max_batch: usize,
    /// Flush a tenant's pending flows once its **oldest** one has waited
    /// this long, even if the batch is not full (checked by
    /// [`ServeEngine::poll`]) — the tail-latency knob.
    pub max_delay: Duration,
    /// Bound on one tenant's queued work: pending flows **plus**
    /// completed-but-uncollected verdicts.  Submissions beyond it fail
    /// with [`ServeError::Backpressure`] instead of growing the queue.
    pub queue_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { max_batch: 64, max_delay: Duration::from_millis(2), queue_capacity: 4096 }
    }
}

impl ServeConfig {
    fn validate(&self) -> ServeResult<()> {
        validate_watermarks(self.max_batch, self.queue_capacity)
    }
}

/// The watermark rule every lane configuration shares: batches are
/// non-empty and the bounded queue holds at least one of them.
fn validate_watermarks(max_batch: usize, queue_capacity: usize) -> ServeResult<()> {
    if max_batch == 0 {
        return Err(ServeError::InvalidConfig("max_batch must be non-zero".into()));
    }
    if queue_capacity < max_batch {
        return Err(ServeError::InvalidConfig(format!(
            "queue_capacity ({queue_capacity}) must be at least max_batch ({max_batch})"
        )));
    }
    Ok(())
}

/// A claim on the verdict of one submitted flow; redeem it with
/// [`ServeEngine::take`] (blocking until the flow's batch flushes is the
/// caller's choice of [`ServeEngine::take`] vs [`ServeEngine::try_take`]).
#[derive(Debug, Clone)]
pub struct Ticket {
    tenant: Arc<str>,
    /// Process-unique id of the lane that issued this ticket.
    lane: u64,
    seq: u64,
}

impl Ticket {
    /// The tenant the flow was submitted to.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Submission sequence number within the tenant (0-based, gap-free).
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod testkit {
    use crate::Detector;
    use nids_data::synth::SyntheticConfig;
    use nids_data::DatasetKind;

    pub(super) fn dataset(samples: usize, seed: u64) -> nids_data::Dataset {
        DatasetKind::NslKdd
            .generate(&SyntheticConfig::new(samples, seed).difficulty(1.2))
            .expect("synthetic generation")
    }

    pub(super) fn detector(data: &nids_data::Dataset, seed: u64) -> Detector {
        Detector::builder().dimension(128).retrain_epochs(1).seed(seed).train(data).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_sources_are_informative() {
        let e = ServeError::Backpressure {
            tenant: "t".into(),
            capacity: 8,
            depth: 8,
            retry_hint: Duration::from_millis(2),
        };
        assert!(e.to_string().contains("full"));
        assert!(e.to_string().contains("8/8"));
        assert!(e.source().is_none());
        let e = ServeError::Shed { tenant: "t".into(), retry_hint: Duration::from_millis(1) };
        assert!(e.to_string().contains("shed"));
        assert!(e.source().is_none());
        let e = ServeError::Rejected(CyberHdError::InvalidData("x".into()));
        assert!(e.source().is_some());
        assert!(ServeError::UnknownTicket.to_string().contains("ticket"));
        assert!(ServeError::IncompatibleSwap("w".into()).to_string().contains("hot-swap"));
        assert!(ServeError::DuplicateTenant("d".into()).to_string().contains("registered"));
        assert!(ServeError::UnknownTenant("u".into()).to_string().contains("tenant"));
        assert!(ServeError::FeedbackUnavailable("f".into()).to_string().contains("feedback"));
    }
}
