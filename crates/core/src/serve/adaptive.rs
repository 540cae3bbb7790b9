//! The drift-adaptive serving lane: [`AdaptiveConfig`], [`AdaptiveLane`],
//! [`AdaptiveStats`] and the [`LaneCheckpoint`] a durable lane persists
//! (see the [`crate::serve`] module docs).

use super::desk::TicketDesk;
#[cfg(doc)]
use super::ServeEngine;
use super::{validate_watermarks, DetectorRegistry, ServeError, ServeResult, Ticket};
use crate::detector::{Detector, OnlineDetector, Verdict};
use crate::durable::{AuditMarks, Journal};
use crate::regeneration::{DriftMonitor, DriftMonitorConfig};
use crate::CyberHdError;
use eval::timing::LatencyHistogram;
use hdc::rng::HdcRng;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Watermarks and adaptation policy of an [`AdaptiveLane`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Flush the lane's queued events once this many are pending.
    pub max_batch: usize,
    /// Flush once the **oldest** queued event has waited this long
    /// (checked by [`AdaptiveLane::poll`]).
    pub max_delay: Duration,
    /// Bound on queued events plus completed-but-uncollected verdicts;
    /// submissions beyond it fail with [`ServeError::Backpressure`].
    pub queue_capacity: usize,
    /// Drift-detection thresholds (see
    /// [`crate::regeneration::DriftMonitor`]).
    pub monitor: DriftMonitorConfig,
    /// How many recent **unlabelled** flows the lane retains (their raw
    /// records) so late ground truth can still be applied through
    /// [`AdaptiveLane::submit_feedback`]; `0` disables late feedback.
    pub retention: usize,
    /// Regeneration rate used when the monitor trips; `None` uses the
    /// learner's training-time configuration.
    pub regeneration_rate: Option<f32>,
    /// Regeneration rounds run per adaptation.
    pub regeneration_rounds: usize,
    /// Automatically publish a sealed snapshot to the registry after every
    /// adaptation (no-op for lanes created without a registry).
    ///
    /// For a lane created from an **open-set** artifact the published
    /// snapshot carries freshly recalibrated per-class thresholds: the
    /// adaptation recalibrates them from the lane's in-distribution
    /// reservoir against the regenerated memory (see
    /// [`AdaptiveConfig::reservoir_capacity`]), so
    /// [`DetectorRegistry::info`] keeps reporting `open_set: true` after a
    /// republish instead of the artifact silently dropping to closed-set.
    /// Closed-set lanes publish closed-set snapshots, as before.
    pub auto_publish: bool,
    /// How many recent in-distribution flows (accepted and labelled —
    /// ground truth certifies membership, so the model's own novelty
    /// flag does not gate entry and cannot truncate the similarity
    /// distribution the recalibration quantile is taken over) the lane
    /// samples into its recalibration reservoir via seeded reservoir
    /// sampling; `0` disables recalibration (adapted snapshots then keep
    /// the last thresholds verbatim).  The reservoir is a pure function
    /// of the applied event sequence, so replay and crash recovery
    /// reproduce it bit for bit.
    pub reservoir_capacity: usize,
    /// Seed of the reservoir's per-candidate replacement draws.
    pub reservoir_seed: u64,
    /// Own-class similarity quantile used when recalibrating thresholds
    /// from the reservoir (same scale as `DetectorBuilder::open_set`).
    pub recalibration_quantile: f64,
    /// Opt-in burst mode: apply each flushed micro-batch through the
    /// frozen-snapshot mini-batch rule
    /// ([`crate::OnlineLearner::observe_batch_view`]) instead of the
    /// serial test-then-train rule.  High-volume label streams cost one
    /// batched encode + one deferred update per flush, with the weaker,
    /// documented contract: verdicts and the final model are
    /// **bit-identical to a batched replay at the same flush boundaries**
    /// (not to a serial replay — samples within a batch do not see each
    /// other's updates).  Drift trips are honoured at batch boundaries.
    pub batched_feedback: bool,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            max_delay: Duration::from_millis(2),
            queue_capacity: 4096,
            monitor: DriftMonitorConfig::default(),
            retention: 1024,
            regeneration_rate: None,
            regeneration_rounds: 1,
            auto_publish: true,
            reservoir_capacity: 256,
            reservoir_seed: 0x5EED_CA1B,
            recalibration_quantile: 0.05,
            batched_feedback: false,
        }
    }
}

impl AdaptiveConfig {
    fn validate(&self) -> ServeResult<()> {
        validate_watermarks(self.max_batch, self.queue_capacity)?;
        if self.regeneration_rounds == 0 {
            return Err(ServeError::InvalidConfig("regeneration_rounds must be non-zero".into()));
        }
        if !(0.0..=1.0).contains(&self.recalibration_quantile)
            || !self.recalibration_quantile.is_finite()
        {
            return Err(ServeError::InvalidConfig(format!(
                "recalibration_quantile must lie in [0, 1], got {}",
                self.recalibration_quantile
            )));
        }
        self.monitor
            .validate()
            .map_err(|e| ServeError::InvalidConfig(format!("drift monitor: {e}")))
    }
}

/// One queued adaptive event: a served flow (predict and, when labelled,
/// test-then-train) or late ground truth for a retained flow (train-only,
/// serves no verdict).  Events are applied strictly in submission order at
/// flush time — the whole determinism story of the adaptive lane rests on
/// this queue being FIFO.
#[derive(Debug)]
struct AdaptiveEvent {
    record: Vec<f32>,
    label: Option<usize>,
    feedback: bool,
    submitted: Instant,
}

/// Mutable state behind an [`AdaptiveLane`]'s mutex.
#[derive(Debug)]
struct AdaptiveInner {
    desk: TicketDesk,
    online: OnlineDetector,
    /// Open-set thresholds, kept as the **drift signal** (novelty flags
    /// feeding the monitor's unknown-rate surge).  Between trips they stay
    /// fixed — a surge in flows scoring below them is exactly the signal
    /// being watched for; a successful adaptation recalibrates them from
    /// the in-distribution reservoir against the regenerated memory, so
    /// both the lane's novelty flags and the republished snapshot track
    /// the adapted model.
    thresholds: Option<Vec<f32>>,
    /// Seeded reservoir sample of recent labelled flows — the
    /// recalibration set (ground truth certifies in-distribution
    /// membership; the model's novelty flag does not gate entry).
    /// Updated only inside the event application paths, so its contents
    /// are a pure function of the applied event sequence.
    reservoir: Vec<(Vec<f32>, usize)>,
    /// Eligible candidates the reservoir has seen (the Algorithm-R index;
    /// with `reservoir_seed` it fully determines every replacement draw).
    reservoir_candidates: u64,
    queue: VecDeque<AdaptiveEvent>,
    /// Raw records of recent unlabelled flows, awaiting possible feedback.
    retained: HashMap<u64, Vec<f32>>,
    /// FIFO of retained sequence numbers (eviction order).
    retained_order: VecDeque<u64>,
    /// Highest sequence number evicted from the retention window by aging
    /// (not by feedback), so [`AdaptiveLane::submit_feedback`] can report
    /// [`ServeError::FeedbackTooLate`] instead of a generic unavailability.
    /// Eviction is FIFO in submission order, so one watermark suffices.
    evicted_up_to: Option<u64>,
    monitor: DriftMonitor,
    /// Set by an adaptation; consumed at the end of the flush that caused
    /// it (publication stays off the per-event hot path).
    pending_publish: bool,
    stats: AdaptiveLaneStats,
    /// The durable lane's write-ahead journal: events are framed into it
    /// before they are enqueued and it is fsynced before they are applied.
    journal: Option<Journal>,
}

impl AdaptiveInner {
    /// The cumulative adaptation counters a journal's audit records report.
    fn audit_marks(&self) -> AuditMarks {
        AuditMarks {
            trips: self.monitor.trips() as u64,
            adaptations: self.stats.adaptations,
            regenerated: self.stats.regenerated_dimensions,
            recalibrations: self.stats.recalibrations,
        }
    }
}

/// Mutable adaptation counters behind [`AdaptiveStats`] (the serving
/// counters live on the desk).
#[derive(Debug, Default)]
struct AdaptiveLaneStats {
    feedback_submitted: u64,
    feedback_applied: u64,
    adaptations: u64,
    regenerated_dimensions: u64,
    adaptation_failures: u64,
    recalibrations: u64,
    publishes: u64,
    publish_failures: u64,
    last_published_version: Option<u64>,
    /// Reseal + registry-swap latency of publications.
    publish_latency: LatencyHistogram,
}

/// A point-in-time snapshot of one adaptive lane's serving and adaptation
/// counters.
#[derive(Debug, Clone)]
pub struct AdaptiveStats {
    /// Tenant id.
    pub tenant: String,
    /// Flows accepted for serving (labelled and unlabelled submits).
    pub flows_submitted: u64,
    /// Flows whose verdicts have been computed.
    pub flows_served: u64,
    /// Late-feedback events accepted.
    pub feedback_submitted: u64,
    /// Late-feedback events applied to the model.
    pub feedback_applied: u64,
    /// Submissions rejected by backpressure.
    pub rejected: u64,
    /// Events waiting for the next flush.
    pub queue_depth: usize,
    /// Completed verdicts not yet collected through their tickets.
    pub uncollected: usize,
    /// Unlabelled flows currently retained for late feedback.
    pub retained: usize,
    /// Flushes executed.
    pub batches: u64,
    /// Labelled samples the live model has learned from.
    pub samples_learned: usize,
    /// Cumulative prequential (test-then-train) accuracy of the lane.
    pub prequential_accuracy: f64,
    /// Prequential accuracy over the monitor's sliding window.
    pub window_accuracy: f64,
    /// Error rate over the monitor's sliding window.
    pub window_error: f64,
    /// Novel-flag rate over the monitor's sliding window.
    pub unknown_rate: f64,
    /// The monitor's frozen baseline error, once armed.
    pub baseline_error: Option<f64>,
    /// Times the drift monitor tripped.
    pub monitor_trips: usize,
    /// Adaptations (regeneration runs) executed.
    pub adaptations: u64,
    /// Total dimensions regenerated across all adaptations.
    pub regenerated_dimensions: u64,
    /// Adaptations that failed (e.g. a non-regenerable encoder).
    pub adaptation_failures: u64,
    /// Open-set threshold recalibrations run from the reservoir (at most
    /// one per successful adaptation of an open-set lane).
    pub recalibrations: u64,
    /// In-distribution flows currently held in the recalibration
    /// reservoir.
    pub reservoir_size: usize,
    /// The live model's effective dimensionality (`D* = D + Σ regenerated`).
    pub effective_dimension: usize,
    /// Sealed snapshots published to the registry.
    pub publishes: u64,
    /// Publications refused by the registry.
    pub publish_failures: u64,
    /// Registry version of the last successful publication.
    pub last_published_version: Option<u64>,
    /// Mean submit→verdict latency.
    pub mean_latency: Duration,
    /// Median submit→verdict latency.
    pub p50_latency: Duration,
    /// 99th-percentile submit→verdict latency.
    pub p99_latency: Duration,
    /// Median reseal + registry-swap latency.
    pub p50_publish_latency: Duration,
    /// Worst observed reseal + registry-swap latency.
    pub max_publish_latency: Duration,
}

impl fmt::Display for AdaptiveStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} served / {} submitted (+{} feedback), window acc {:.3} (cum {:.3}, unknown \
             {:.3}), {} trips -> {} adaptations ({} dims), {} publishes{}, latency p50 {:?} p99 \
             {:?}",
            self.tenant,
            self.flows_served,
            self.flows_submitted,
            self.feedback_applied,
            self.window_accuracy,
            self.prequential_accuracy,
            self.unknown_rate,
            self.monitor_trips,
            self.adaptations,
            self.regenerated_dimensions,
            self.publishes,
            match self.last_published_version {
                Some(version) => format!(" (registry v{version})"),
                None => String::new(),
            },
            self.p50_latency,
            self.p99_latency,
        )
    }
}

/// A drift-adaptive per-tenant serving lane (see the [module docs](super)).
///
/// Where [`ServeEngine`] serves a frozen artifact, an `AdaptiveLane` wraps
/// a live [`OnlineDetector`] that keeps learning from ground truth:
///
/// * [`AdaptiveLane::submit`] serves an unlabelled flow (predict only) and
///   retains its record so [`AdaptiveLane::submit_feedback`] can apply
///   late ground truth through the flow's [`Ticket`];
/// * [`AdaptiveLane::submit_labelled`] serves a flow whose ground truth is
///   already known — the verdict is the prediction made *before* the
///   test-then-train update;
/// * every labelled observation feeds the
///   [`crate::regeneration::DriftMonitor`]; when it trips, the lane
///   regenerates low-variance dimensions in place and (when created with
///   [`AdaptiveLane::with_registry`]) publishes a sealed snapshot through
///   [`DetectorRegistry::swap`] — frozen lanes of the same tenant pick the
///   adapted artifact up atomically, in-flight micro-batches finishing on
///   their pinned generation.
///
/// # Determinism
///
/// Events are applied strictly in submission order through the serial
/// [`crate::OnlineLearner`] rule, so the lane's verdicts and final model
/// are **bit-identical** to a serial replay of the same event sequence,
/// regardless of flush boundaries, `poll` interleavings or concurrent
/// lanes on other threads (pinned by `tests/scenario.rs`).
///
/// # Example
///
/// ```
/// use cyberhd::serve::{AdaptiveConfig, AdaptiveLane};
/// use cyberhd::Detector;
/// use nids_data::synth::SyntheticConfig;
/// use nids_data::DatasetKind;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dataset = DatasetKind::NslKdd.generate(&SyntheticConfig::new(400, 7))?;
/// let detector = Detector::builder().dimension(128).retrain_epochs(1).train(&dataset)?;
/// let lane = AdaptiveLane::new("edge-0", detector, AdaptiveConfig::default())?;
///
/// // A labelled flow: the verdict is the prediction before the update.
/// let ticket = lane.submit_labelled(&dataset.records()[0], dataset.labels()[0])?;
/// lane.flush()?;
/// let verdict = lane.take(&ticket)?;
/// assert!(verdict.class < dataset.num_classes());
/// assert_eq!(lane.stats().samples_learned, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AdaptiveLane {
    tenant: Arc<str>,
    config: AdaptiveConfig,
    /// Number of trained classes (label validation happens at submit so
    /// flushes are infallible).
    classes: usize,
    registry: Option<Arc<DetectorRegistry>>,
    inner: Mutex<AdaptiveInner>,
}

impl AdaptiveLane {
    /// Creates an adaptive lane for `tenant` from a sealed artifact,
    /// without a registry (adaptations stay lane-local; publish manually
    /// via [`AdaptiveLane::seal_snapshot`] if needed).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for inconsistent watermarks
    /// or monitor thresholds, and for artifacts that cannot continue
    /// learning (quantized detectors).
    pub fn new(tenant: &str, detector: Detector, config: AdaptiveConfig) -> ServeResult<Self> {
        Self::build(tenant, detector, config, None)
    }

    /// [`AdaptiveLane::new`] wired to a registry: every adaptation
    /// republishes a sealed snapshot under `tenant` (swap when registered,
    /// register at version 1 otherwise), so the frozen serving path picks
    /// the adapted model up atomically.
    ///
    /// # Errors
    ///
    /// Same as [`AdaptiveLane::new`].
    pub fn with_registry(
        tenant: &str,
        detector: Detector,
        config: AdaptiveConfig,
        registry: Arc<DetectorRegistry>,
    ) -> ServeResult<Self> {
        Self::build(tenant, detector, config, Some(registry))
    }

    /// The constructor behind [`AdaptiveLane::new`] and
    /// [`AdaptiveLane::with_registry`] (and a durable lane's `create`).
    pub(crate) fn build(
        tenant: &str,
        detector: Detector,
        config: AdaptiveConfig,
        registry: Option<Arc<DetectorRegistry>>,
    ) -> ServeResult<Self> {
        config.validate()?;
        let monitor = DriftMonitor::new(config.monitor)
            .map_err(|e| ServeError::InvalidConfig(format!("drift monitor: {e}")))?;
        let classes = detector.num_classes();
        let thresholds = detector.thresholds().map(<[f32]>::to_vec);
        let online = detector.into_online().map_err(|e| {
            ServeError::InvalidConfig(format!("adaptive lanes need a dense artifact: {e}"))
        })?;
        let tenant: Arc<str> = tenant.into();
        Ok(Self {
            tenant: Arc::clone(&tenant),
            config,
            classes,
            registry,
            inner: Mutex::new(AdaptiveInner {
                desk: TicketDesk::new(tenant, config.queue_capacity, config.max_delay),
                online,
                thresholds,
                reservoir: Vec::new(),
                reservoir_candidates: 0,
                queue: VecDeque::new(),
                retained: HashMap::new(),
                retained_order: VecDeque::new(),
                evicted_up_to: None,
                monitor,
                pending_publish: false,
                stats: AdaptiveLaneStats::default(),
                journal: None,
            }),
        })
    }

    /// The tenant this lane serves.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The lane's watermark and adaptation configuration.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// Submits one unlabelled raw flow, returning a [`Ticket`] for its
    /// verdict.  The record is retained (up to
    /// [`AdaptiveConfig::retention`] flows) so ground truth can be applied
    /// later through [`AdaptiveLane::submit_feedback`].
    ///
    /// # Errors
    ///
    /// * [`ServeError::Rejected`] — record fails schema validation,
    /// * [`ServeError::Backpressure`] — bounded queue full.
    pub fn submit(&self, record: &[f32]) -> ServeResult<Ticket> {
        self.submit_event(record, None)
    }

    /// Submits one raw flow **with ground truth attached**: the flow is
    /// served (the verdict is the prediction made *before* the update) and
    /// then immediately learned from — the prequential test-then-train
    /// step of the paper's streaming deployment.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Rejected`] — record fails schema validation or the
    ///   label is out of range,
    /// * [`ServeError::Backpressure`] — bounded queue full.
    pub fn submit_labelled(&self, record: &[f32], label: usize) -> ServeResult<Ticket> {
        self.submit_event(record, Some(label))
    }

    fn submit_event(&self, record: &[f32], label: Option<usize>) -> ServeResult<Ticket> {
        let mut inner = self.inner.lock().expect("adaptive lane lock");
        // Validate up front so flushes are infallible: transform_record
        // can only fail schema validation, and observe only label range.
        inner
            .online
            .preprocessor()
            .schema()
            .validate_record(record)
            .map_err(|e| ServeError::Rejected(CyberHdError::Data(e)))?;
        if let Some(label) = label {
            self.check_label(label)?;
        }
        let inner = &mut *inner;
        inner.desk.admit(inner.queue.len())?;
        if let Some(journal) = inner.journal.as_mut() {
            journal.log_flow(inner.desk.next_seq(), record, label)?;
        }
        let ticket = inner.desk.issue();
        if label.is_none() && self.config.retention > 0 {
            retain(inner, ticket.seq, record.to_vec(), self.config.retention);
        }
        self.enqueue(inner, record.to_vec(), label, false)?;
        Ok(ticket)
    }

    /// Labels are validated at submit time so flushes are infallible.
    fn check_label(&self, label: usize) -> ServeResult<()> {
        if label < self.classes {
            return Ok(());
        }
        Err(ServeError::Rejected(CyberHdError::InvalidData(format!(
            "label {label} out of range for {} classes",
            self.classes
        ))))
    }

    /// Queues an accepted event and flushes at the `max_batch` watermark.
    fn enqueue(
        &self,
        inner: &mut AdaptiveInner,
        record: Vec<f32>,
        label: Option<usize>,
        feedback: bool,
    ) -> ServeResult<()> {
        inner.queue.push_back(AdaptiveEvent { record, label, feedback, submitted: Instant::now() });
        if inner.queue.len() >= self.config.max_batch {
            self.flush_locked(inner)?;
        }
        Ok(())
    }

    /// Applies late ground truth to a previously submitted (unlabelled)
    /// flow: the retained record is re-scored against the **current**
    /// model (test-then-train, feeding the drift monitor) and then learned
    /// from, in submission order with every other queued event.
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownTicket`] — foreign ticket (or a sequence
    ///   number this lane never issued),
    /// * [`ServeError::Rejected`] — label out of range,
    /// * [`ServeError::FeedbackTooLate`] — the record aged out of the
    ///   retention window before the ground truth arrived (or the window
    ///   is disabled),
    /// * [`ServeError::FeedbackUnavailable`] — the flow was labelled at
    ///   submit time or feedback was already applied,
    /// * [`ServeError::Backpressure`] — bounded queue full (the record
    ///   stays retained; retry after draining).
    pub fn submit_feedback(&self, ticket: &Ticket, label: usize) -> ServeResult<()> {
        let mut inner = self.inner.lock().expect("adaptive lane lock");
        let inner = &mut *inner;
        if !inner.desk.owns(ticket) {
            return Err(ServeError::UnknownTicket);
        }
        self.check_label(label)?;
        if !inner.retained.contains_key(&ticket.seq) {
            return Err(self.classify_feedback_miss(inner, ticket.seq));
        }
        inner.desk.admit(inner.queue.len())?;
        if let Some(journal) = inner.journal.as_mut() {
            journal.log_feedback(ticket.seq, label)?;
        }
        let record = inner.retained.remove(&ticket.seq).expect("checked above");
        inner.retained_order.retain(|&seq| seq != ticket.seq);
        inner.stats.feedback_submitted += 1;
        self.enqueue(inner, record, Some(label), true)
    }

    /// Explains why a feedback target is not in the retention map: too
    /// late (aged out / window disabled), unavailable (labelled at submit
    /// or already applied), or a sequence number this lane never issued.
    ///
    /// Aging eviction is FIFO in submission order, so every sequence at or
    /// below the eviction watermark is reported as too late — including
    /// the (indistinguishable without per-flow bookkeeping) case where its
    /// feedback had already been applied before the watermark passed it.
    fn classify_feedback_miss(&self, inner: &AdaptiveInner, seq: u64) -> ServeError {
        if seq >= inner.desk.next_seq() {
            // The lane id matched but the sequence was never issued — a
            // forged or cross-restart ticket.
            return ServeError::UnknownTicket;
        }
        if self.config.retention == 0 {
            return ServeError::FeedbackTooLate { seq, retention: 0 };
        }
        if inner.evicted_up_to.is_some_and(|watermark| seq <= watermark) {
            return ServeError::FeedbackTooLate { seq, retention: self.config.retention };
        }
        ServeError::FeedbackUnavailable(format!(
            "flow {seq} of tenant {:?} is not retained (labelled at submit time, or feedback \
             was already applied)",
            self.tenant
        ))
    }

    /// Mints a ticket for a previously issued sequence number — recovery's
    /// handle for feedback on flows whose original tickets died with the
    /// crashed process.
    pub(crate) fn reissue_ticket(&self, seq: u64) -> Ticket {
        self.inner.lock().expect("adaptive lane lock").desk.ticket(seq)
    }

    /// Events the lane's journal has logged (`None` without a journal).
    pub(crate) fn journal_events(&self) -> Option<u64> {
        self.inner.lock().expect("adaptive lane lock").journal.as_ref().map(Journal::events)
    }

    /// Hands the lane its write-ahead journal, optionally cutting a
    /// checkpoint right away — from here on every accepted event is
    /// logged before it is enqueued and fsynced before it is applied.
    ///
    /// # Errors
    ///
    /// [`ServeError::Durability`] when the checkpoint cannot be written.
    pub(crate) fn attach_journal(&self, journal: Journal, checkpoint: bool) -> ServeResult<()> {
        let mut inner = self.inner.lock().expect("adaptive lane lock");
        inner.journal = Some(journal);
        if checkpoint {
            self.checkpoint_locked(&mut inner)?;
        }
        Ok(())
    }

    /// The lane's current open-set thresholds (`None` for a closed-set
    /// lane) — the journal frames them into its recalibration audit
    /// records so operators can diff threshold drift offline, and the
    /// crash matrix compares them bit for bit across recovery.
    pub fn thresholds_snapshot(&self) -> Option<Vec<f32>> {
        let inner = self.inner.lock().expect("adaptive lane lock");
        inner.thresholds.clone()
    }

    /// The recalibration reservoir's current entries and candidate
    /// counter — both are a deterministic function of the applied event
    /// sequence, so recovery tests compare them bit for bit against an
    /// uncrashed timeline.
    pub fn reservoir_snapshot(&self) -> (Vec<(Vec<f32>, usize)>, u64) {
        let inner = self.inner.lock().expect("adaptive lane lock");
        (inner.reservoir.clone(), inner.reservoir_candidates)
    }

    /// Captures everything a checkpoint must persist for recovery to be
    /// bit-identical: the sealed model bytes, the drift-signal thresholds,
    /// the monitor state, the prequential counters, the retention window
    /// (records and eviction watermark), the recalibration reservoir (and
    /// its candidate counter) and the deterministic lane counters.
    /// Queued events are deliberately **not** captured — checkpoints are
    /// cut at flush boundaries, where the queue is empty, and the WAL tail
    /// covers anything submitted afterwards.
    fn checkpoint_state(&self, inner: &AdaptiveInner) -> LaneCheckpoint {
        LaneCheckpoint {
            tenant: self.tenant.as_ref().into(),
            detector_bytes: inner.online.seal_snapshot().to_bytes(),
            thresholds: inner.thresholds.clone(),
            monitor: inner.monitor.clone(),
            next_seq: inner.desk.next_seq(),
            retained: inner
                .retained_order
                .iter()
                .filter_map(|seq| inner.retained.get(seq).map(|r| (*seq, r.clone())))
                .collect(),
            evicted_up_to: inner.evicted_up_to,
            reservoir: inner.reservoir.clone(),
            reservoir_candidates: inner.reservoir_candidates,
            seen: inner.online.samples_seen(),
            prequential_correct: inner.online.learner().prequential_correct(),
            counters: [
                inner.desk.flows_submitted,
                inner.desk.flows_served,
                inner.stats.feedback_submitted,
                inner.stats.feedback_applied,
                inner.desk.batches,
                inner.stats.adaptations,
                inner.stats.regenerated_dimensions,
                inner.stats.adaptation_failures,
                inner.stats.recalibrations,
            ],
        }
    }

    /// Checkpoints the lane's current state through its journal (which
    /// also prunes old checkpoints and compacts the log).
    fn checkpoint_locked(&self, inner: &mut AdaptiveInner) -> ServeResult<()> {
        let state = self.checkpoint_state(inner);
        let journal = inner.journal.as_mut().expect("only journaled lanes checkpoint");
        journal.checkpoint(&state)
    }

    /// Rebuilds a lane from a [`LaneCheckpoint`] — the recovery path.  The
    /// restored lane is bit-identical to the lane that wrote the
    /// checkpoint: model bytes, monitor state, prequential counters,
    /// retention window and sequence numbering all resume exactly where
    /// they stopped (wall-clock latency histograms restart, as do the
    /// registry-dependent publish counters).
    pub(crate) fn restore(
        config: AdaptiveConfig,
        registry: Option<Arc<DetectorRegistry>>,
        state: LaneCheckpoint,
    ) -> ServeResult<Self> {
        let detector = Detector::from_bytes(&state.detector_bytes)
            .map_err(|e| ServeError::Durability(format!("checkpointed model: {e}")))?;
        let classes = detector.num_classes();
        if let Some(thresholds) = &state.thresholds {
            if thresholds.len() != classes {
                return Err(ServeError::Durability(format!(
                    "checkpoint holds {} thresholds for {} classes",
                    thresholds.len(),
                    classes
                )));
            }
        }
        let flows_retained = state.retained.len() as u64;
        if flows_retained > config.retention as u64 {
            return Err(ServeError::Durability(format!(
                "checkpoint retains {flows_retained} flows but the window holds {}",
                config.retention
            )));
        }
        let mut retained = HashMap::with_capacity(state.retained.len());
        let mut retained_order = VecDeque::with_capacity(state.retained.len());
        for (seq, record) in state.retained {
            if seq >= state.next_seq {
                return Err(ServeError::Durability(format!(
                    "checkpoint retains flow {seq} beyond its next sequence {}",
                    state.next_seq
                )));
            }
            if retained.insert(seq, record).is_some() {
                return Err(ServeError::Durability(format!("checkpoint retains flow {seq} twice")));
            }
            retained_order.push_back(seq);
        }
        if state.reservoir.len() > config.reservoir_capacity {
            return Err(ServeError::Durability(format!(
                "checkpoint holds {} reservoir entries but the reservoir holds {}",
                state.reservoir.len(),
                config.reservoir_capacity
            )));
        }
        if (state.reservoir.len() as u64) > state.reservoir_candidates {
            return Err(ServeError::Durability(format!(
                "checkpoint holds {} reservoir entries from {} candidates",
                state.reservoir.len(),
                state.reservoir_candidates
            )));
        }
        if let Some(&(_, bad)) = state.reservoir.iter().find(|&&(_, label)| label >= classes) {
            return Err(ServeError::Durability(format!(
                "checkpoint reservoir label {bad} out of range for {classes} classes"
            )));
        }
        let lane = Self::build(&state.tenant, detector, config, registry)?;
        let mut guard = lane.inner.lock().expect("adaptive lane lock");
        let inner = &mut *guard;
        inner.desk.resume_at(state.next_seq);
        inner.thresholds = state.thresholds;
        inner.monitor = state.monitor;
        inner.online.restore_prequential(state.seen, state.prequential_correct);
        inner.reservoir = state.reservoir;
        inner.reservoir_candidates = state.reservoir_candidates;
        inner.retained = retained;
        inner.retained_order = retained_order;
        inner.evicted_up_to = state.evicted_up_to;
        let (desk, stats) = (&mut inner.desk, &mut inner.stats);
        [
            desk.flows_submitted,
            desk.flows_served,
            stats.feedback_submitted,
            stats.feedback_applied,
            desk.batches,
            stats.adaptations,
            stats.regenerated_dimensions,
            stats.adaptation_failures,
            stats.recalibrations,
        ] = state.counters;
        drop(guard);
        Ok(lane)
    }

    /// Flushes every queued event now, returning how many **flows** were
    /// served (feedback events are applied but serve no verdict).
    ///
    /// # Errors
    ///
    /// Infallible for a plain lane (events are validated at submit time);
    /// a journaled lane fails with [`ServeError::Durability`] when its log
    /// cannot be synced, leaving the events queued for a retry.
    pub fn flush(&self) -> ServeResult<usize> {
        let mut inner = self.inner.lock().expect("adaptive lane lock");
        self.flush_locked(&mut inner)
    }

    /// Flushes if the **oldest** queued event has waited at least
    /// [`AdaptiveConfig::max_delay`]; returns the number of flows served.
    pub fn poll(&self) -> usize {
        self.poll_checked().unwrap_or(0)
    }

    /// [`AdaptiveLane::poll`], surfacing a journaled lane's sync failure.
    pub(crate) fn poll_checked(&self) -> ServeResult<usize> {
        let mut inner = self.inner.lock().expect("adaptive lane lock");
        let expired = inner
            .queue
            .front()
            .is_some_and(|event| event.submitted.elapsed() >= self.config.max_delay);
        if expired {
            self.flush_locked(&mut inner)
        } else {
            Ok(0)
        }
    }

    /// Applies the queued events strictly in submission order — through
    /// the serial streaming rule, or (for
    /// [`AdaptiveConfig::batched_feedback`] lanes) through the
    /// frozen-snapshot mini-batch rule — files verdicts, feeds the drift
    /// monitor and adapts when it trips.  Publication (reseal + registry
    /// swap) runs once at the end, off the per-event path.
    ///
    /// The write-ahead invariant of a journaled lane lives here: the
    /// journal is fsynced (a batched lane's boundary marker riding the
    /// same sync) strictly **before** the first event is applied; after
    /// the apply it takes the audit records and, when due, a checkpoint.
    fn flush_locked(&self, inner: &mut AdaptiveInner) -> ServeResult<usize> {
        if let Some(journal) = inner.journal.as_mut() {
            journal.commit(self.config.batched_feedback && !inner.queue.is_empty())?;
        }
        if inner.queue.is_empty() {
            return Ok(0);
        }
        let before = inner.audit_marks();
        let served_before = inner.desk.flows_served;
        if self.config.batched_feedback {
            self.flush_batched(inner);
        } else {
            self.flush_serial(inner);
        }
        inner.desk.batches += 1;
        let after = inner.audit_marks();
        if let Some(journal) = inner.journal.as_mut() {
            journal.audit(before, after, inner.thresholds.as_deref())?;
        }
        if inner.pending_publish {
            inner.pending_publish = false;
            // Failures are recorded in publish_failures; serving goes on
            // with the lane-local adapted model either way.
            let _ = self.publish_now(inner);
        }
        if inner.journal.as_ref().is_some_and(Journal::checkpoint_due) {
            self.checkpoint_locked(inner)?;
        }
        Ok((inner.desk.flows_served - served_before) as usize)
    }

    /// The serial event application: each event is scored and learned from
    /// in turn, so the lane is bit-identical to a serial replay.  The
    /// monitor trips **inline**, at the tripping event.
    fn flush_serial(&self, inner: &mut AdaptiveInner) {
        while let Some(event) = inner.queue.pop_front() {
            let scored = match event.label {
                Some(label) => inner.online.observe_scored(&event.record, label),
                None => inner.online.predict_scored(&event.record),
            }
            .expect("record and label validated at submit time");
            if self.settle(inner, event, scored) {
                self.adapt_locked(inner);
            }
        }
    }

    /// The batched event application: every queued event is scored against
    /// the **frozen pre-batch model**, the labelled events are learned
    /// from through one deferred mini-batch update
    /// ([`crate::OnlineLearner::observe_batch_view`]), and monitor trips
    /// are honoured **at the batch boundary** — the weaker documented
    /// contract of [`AdaptiveConfig::batched_feedback`]: bit-identical to
    /// a batched replay at the same flush boundaries.
    fn flush_batched(&self, inner: &mut AdaptiveInner) {
        let events: Vec<AdaptiveEvent> = inner.queue.drain(..).collect();
        // Score unlabelled flows first: predictions are pure, and the
        // labelled events' deferred update lands only after this loop, so
        // every score in the batch sees the same frozen model.
        let mut unlabelled_scores = VecDeque::new();
        let mut records = Vec::new();
        let mut labels = Vec::new();
        for event in &events {
            match event.label {
                None => unlabelled_scores.push_back(
                    inner
                        .online
                        .predict_scored(&event.record)
                        .expect("record validated at submit time"),
                ),
                Some(label) => {
                    records.push(event.record.clone());
                    labels.push(label);
                }
            }
        }
        let mut labelled_scores: VecDeque<(usize, f32)> = if records.is_empty() {
            VecDeque::new()
        } else {
            inner
                .online
                .observe_batch_scored(&records, &labels)
                .expect("records and labels validated at submit time")
                .into()
        };
        // Walk the events in submission order and settle each exactly as
        // the serial path does, only on frozen-snapshot scores; trips are
        // tallied and honoured once the whole batch is applied.
        let mut trips = 0usize;
        for event in events {
            let scores =
                if event.label.is_some() { &mut labelled_scores } else { &mut unlabelled_scores };
            let scored = scores.pop_front().expect("one score per event");
            trips += usize::from(self.settle(inner, event, scored));
        }
        for _ in 0..trips {
            self.adapt_locked(inner);
        }
    }

    /// Settles one applied event, whichever rule scored it: shapes the
    /// verdict, feeds the drift monitor, offers a labelled record to the
    /// reservoir and files a served flow's verdict.  Returns whether the
    /// monitor tripped.
    fn settle(
        &self,
        inner: &mut AdaptiveInner,
        event: AdaptiveEvent,
        (class, similarity): (usize, f32),
    ) -> bool {
        let novel = inner.thresholds.as_ref().is_some_and(|t| similarity < t[class]);
        let tripped = match event.label {
            Some(label) => {
                let tripped = inner.monitor.record_labelled(class == label, novel);
                self.reservoir_note(inner, &event.record, label);
                tripped
            }
            None => inner.monitor.record_unlabelled(novel),
        };
        if event.feedback {
            inner.stats.feedback_applied += 1;
        } else {
            inner.desk.file(Verdict { class, similarity, novel }, event.submitted.elapsed());
        }
        tripped
    }

    /// Offers one in-distribution `(record, label)` to the recalibration
    /// reservoir (Algorithm R).  Every replacement draw is a pure function
    /// of `(reservoir_seed, candidate index)`, so the reservoir contents
    /// after any event prefix are reproducible without persisting RNG
    /// state — replay and crash recovery land on bit-identical reservoirs.
    fn reservoir_note(&self, inner: &mut AdaptiveInner, record: &[f32], label: usize) {
        let capacity = self.config.reservoir_capacity;
        if capacity == 0 {
            return;
        }
        let candidate = inner.reservoir_candidates;
        inner.reservoir_candidates += 1;
        if inner.reservoir.len() < capacity {
            inner.reservoir.push((record.to_vec(), label));
            return;
        }
        let mut rng = HdcRng::seed_from(
            self.config.reservoir_seed ^ candidate.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let slot = rng.index(candidate as usize + 1);
        if slot < capacity {
            inner.reservoir[slot] = (record.to_vec(), label);
        }
    }

    /// One adaptation: regenerate low-variance dimensions in place.  Runs
    /// inline at the event that tripped the monitor, so the outcome is a
    /// pure function of the event sequence (flush boundaries cannot move
    /// it).
    fn adapt_locked(&self, inner: &mut AdaptiveInner) {
        let mut regenerated = 0usize;
        for _ in 0..self.config.regeneration_rounds {
            let result = match self.config.regeneration_rate {
                Some(rate) => inner.online.regenerate_at(rate),
                None => inner.online.regenerate(),
            };
            match result {
                Ok(dims) => regenerated += dims,
                Err(_) => {
                    // A non-regenerable encoder: the lane keeps learning
                    // through the adaptive rule alone.
                    inner.stats.adaptation_failures += 1;
                    return;
                }
            }
        }
        inner.stats.adaptations += 1;
        inner.stats.regenerated_dimensions += regenerated as u64;
        self.recalibrate_locked(inner);
        if self.config.auto_publish && self.registry.is_some() {
            inner.pending_publish = true;
        }
    }

    /// Recalibrates the open-set thresholds from the in-distribution
    /// reservoir against the freshly regenerated memory.  Runs inline in
    /// the adaptation (registry-independent), so the lane's post-trip
    /// novelty flags — not just the published snapshot — are a pure
    /// function of the event sequence.  A closed-set lane, a disabled
    /// reservoir or an empty reservoir keeps the previous thresholds.
    fn recalibrate_locked(&self, inner: &mut AdaptiveInner) {
        if inner.thresholds.is_none() || inner.reservoir.is_empty() {
            return;
        }
        let (records, labels): (Vec<Vec<f32>>, Vec<usize>) =
            inner.reservoir.iter().cloned().unzip();
        let thresholds = inner
            .online
            .recalibrate_thresholds(&records, &labels, self.config.recalibration_quantile)
            .expect("reservoir records and labels were validated at submit time");
        inner.thresholds = Some(thresholds);
        inner.stats.recalibrations += 1;
    }

    /// Seals a snapshot and hands it to the registry (swap, or register at
    /// version 1 for an unknown tenant), recording the reseal+swap latency
    /// — the one publication path behind both the automatic post-adaptation
    /// publish and the manual [`AdaptiveLane::publish`].  Every registry
    /// refusal increments `publish_failures`.
    ///
    /// An **open-set** lane publishes an open-set snapshot: its current
    /// per-class thresholds — recalibrated from the reservoir at every
    /// successful adaptation — are attached to the resealed model via
    /// [`Detector::with_thresholds`], so [`DetectorRegistry::info`] keeps
    /// reporting `open_set: true` after a drift-triggered republish.  A
    /// closed-set lane publishes closed-set, as before.
    fn publish_now(&self, inner: &mut AdaptiveInner) -> ServeResult<u64> {
        let Some(registry) = self.registry.as_ref() else {
            return Err(ServeError::InvalidConfig(
                "this adaptive lane was created without a registry".into(),
            ));
        };
        let start = Instant::now();
        let sealed = inner.online.seal_snapshot();
        let sealed = match &inner.thresholds {
            Some(thresholds) => sealed
                .with_thresholds(thresholds.clone())
                .expect("snapshots are dense and threshold counts match the class count"),
            None => sealed,
        };
        let result = match registry.swap(&self.tenant, sealed.clone()) {
            Err(ServeError::UnknownTenant(_)) => registry.register(&self.tenant, sealed).map(|_| 1),
            swapped => swapped,
        };
        match result {
            Ok(version) => {
                inner.stats.publish_latency.record(start.elapsed());
                inner.stats.publishes += 1;
                inner.stats.last_published_version = Some(version);
                if let Some(journal) = inner.journal.as_mut() {
                    journal.log_publish(inner.stats.publishes, version)?;
                }
                Ok(version)
            }
            Err(e) => {
                inner.stats.publish_failures += 1;
                Err(e)
            }
        }
    }

    /// Publishes a sealed snapshot to the registry now, returning the new
    /// registry version — the manual form of the automatic post-adaptation
    /// publication.  An open-set lane publishes with its current
    /// (reservoir-recalibrated) thresholds attached; a closed-set lane
    /// publishes closed-set.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for a lane created without a
    /// registry and propagates [`DetectorRegistry::swap`] /
    /// [`DetectorRegistry::register`] errors (counted in
    /// [`AdaptiveStats::publish_failures`]).
    pub fn publish(&self) -> ServeResult<u64> {
        let mut inner = self.inner.lock().expect("adaptive lane lock");
        self.publish_now(&mut inner)
    }

    /// Non-blocking collect: the verdict if the ticket's flow has been
    /// served, `None` while it is still queued.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownTicket`] for a foreign or
    /// already-collected ticket.
    pub fn try_take(&self, ticket: &Ticket) -> ServeResult<Option<Verdict>> {
        self.inner.lock().expect("adaptive lane lock").desk.collect(ticket)
    }

    /// Collects a ticket's verdict, flushing first if **its** flow is
    /// still queued (a journaled lane's forced flush is write-ahead like
    /// any other).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownTicket`] for a foreign or
    /// already-collected ticket, and a journaled lane's
    /// [`ServeError::Durability`] when the forced flush cannot sync.
    pub fn take(&self, ticket: &Ticket) -> ServeResult<Verdict> {
        let mut inner = self.inner.lock().expect("adaptive lane lock");
        if let Some(verdict) = inner.desk.collect(ticket)? {
            return Ok(verdict);
        }
        self.flush_locked(&mut inner)?;
        inner.desk.collect(ticket)?.ok_or(ServeError::UnknownTicket)
    }

    /// Cumulative prequential (test-then-train) accuracy of the lane's
    /// labelled stream.
    pub fn prequential_accuracy(&self) -> f64 {
        self.inner.lock().expect("adaptive lane lock").online.prequential_accuracy()
    }

    /// Seals a snapshot of the current model (the lane keeps adapting).
    pub fn seal_snapshot(&self) -> Detector {
        self.inner.lock().expect("adaptive lane lock").online.seal_snapshot()
    }

    /// A point-in-time snapshot of the lane's counters.
    pub fn stats(&self) -> AdaptiveStats {
        let inner = self.inner.lock().expect("adaptive lane lock");
        let (desk, stats) = (&inner.desk, &inner.stats);
        AdaptiveStats {
            tenant: self.tenant.as_ref().into(),
            flows_submitted: desk.flows_submitted,
            flows_served: desk.flows_served,
            feedback_submitted: stats.feedback_submitted,
            feedback_applied: stats.feedback_applied,
            rejected: desk.rejected,
            queue_depth: inner.queue.len(),
            uncollected: desk.uncollected(),
            retained: inner.retained.len(),
            batches: desk.batches,
            samples_learned: inner.online.samples_seen(),
            prequential_accuracy: inner.online.prequential_accuracy(),
            window_accuracy: inner.monitor.window_accuracy(),
            window_error: inner.monitor.window_error(),
            unknown_rate: inner.monitor.unknown_rate(),
            baseline_error: inner.monitor.baseline_error(),
            monitor_trips: inner.monitor.trips(),
            adaptations: stats.adaptations,
            regenerated_dimensions: stats.regenerated_dimensions,
            adaptation_failures: stats.adaptation_failures,
            recalibrations: stats.recalibrations,
            reservoir_size: inner.reservoir.len(),
            effective_dimension: inner.online.learner().effective_dimension(),
            publishes: stats.publishes,
            publish_failures: stats.publish_failures,
            last_published_version: stats.last_published_version,
            mean_latency: desk.latency.mean(),
            p50_latency: desk.latency.percentile(0.50),
            p99_latency: desk.latency.percentile(0.99),
            p50_publish_latency: stats.publish_latency.percentile(0.50),
            max_publish_latency: stats.publish_latency.max(),
        }
    }
}

/// Retains `record` under `seq`, evicting the oldest retained flow when
/// the window is full (recording it in the too-late watermark).
fn retain(inner: &mut AdaptiveInner, seq: u64, record: Vec<f32>, retention: usize) {
    if inner.retained.len() >= retention {
        if let Some(oldest) = inner.retained_order.pop_front() {
            inner.retained.remove(&oldest);
            inner.evicted_up_to = Some(inner.evicted_up_to.map_or(oldest, |w| w.max(oldest)));
        }
    }
    inner.retained.insert(seq, record);
    inner.retained_order.push_back(seq);
}

/// Everything an [`AdaptiveLane`] needs persisted for bit-identical
/// recovery (see [`AdaptiveLane::checkpoint_state`] /
/// [`AdaptiveLane::restore`]).  The durable lane serializes this through
/// [`hdc::codec`]; the queue is never part of it — checkpoints are taken
/// at flush boundaries, where the queue is empty.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LaneCheckpoint {
    /// Tenant id.
    pub(crate) tenant: String,
    /// Sealed [`Detector::to_bytes`] snapshot of the live model (encoder
    /// seed and regeneration counter included, so post-recovery
    /// regenerations draw the exact streams the uncrashed lane would).
    pub(crate) detector_bytes: Vec<u8>,
    /// Open-set drift-signal thresholds (dropped from the sealed snapshot
    /// by design, so they ride the checkpoint separately).
    pub(crate) thresholds: Option<Vec<f32>>,
    /// Drift-monitor windows, baseline, cooldown and trip count.
    pub(crate) monitor: DriftMonitor,
    /// Next sequence number the lane will issue.
    pub(crate) next_seq: u64,
    /// Retention window in FIFO (eviction) order.
    pub(crate) retained: Vec<(u64, Vec<f32>)>,
    /// Aging-eviction watermark (see [`AdaptiveInner::evicted_up_to`]).
    pub(crate) evicted_up_to: Option<u64>,
    /// Recalibration reservoir `(record, label)` entries in slot order.
    pub(crate) reservoir: Vec<(Vec<f32>, usize)>,
    /// Eligible candidates the reservoir has seen (the Algorithm-R index).
    pub(crate) reservoir_candidates: u64,
    /// Prequential sample count ([`OnlineDetector::samples_seen`]).
    pub(crate) seen: usize,
    /// Prequential correct-before-update count.
    pub(crate) prequential_correct: usize,
    /// Deterministic lane counters, in the fixed order consumed by
    /// [`AdaptiveLane::restore`]: flows_submitted, flows_served,
    /// feedback_submitted, feedback_applied, batches, adaptations,
    /// regenerated_dimensions, adaptation_failures, recalibrations.
    pub(crate) counters: [u64; 9],
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{dataset, detector};
    use super::super::{ServeConfig, ServeEngine};
    use super::*;

    /// Every completed-but-uncollected verdict of `lane`, collected through
    /// re-minted tickets in sequence order.
    fn drain(lane: &AdaptiveLane) -> Vec<(u64, Verdict)> {
        let issued = lane.inner.lock().unwrap().desk.next_seq();
        (0..issued)
            .filter_map(|seq| {
                let verdict = lane.try_take(&lane.reissue_ticket(seq)).ok().flatten()?;
                Some((seq, verdict))
            })
            .collect()
    }

    fn checkpoint(lane: &AdaptiveLane) -> LaneCheckpoint {
        lane.checkpoint_state(&lane.inner.lock().unwrap())
    }

    /// A monitor tuned to trip quickly in unit-sized streams.
    fn touchy_monitor() -> DriftMonitorConfig {
        DriftMonitorConfig {
            window: 16,
            min_observations: 8,
            error_delta: 0.25,
            unknown_surge: 2.0,
            cooldown: 8,
        }
    }

    #[test]
    fn adaptive_config_is_validated() {
        let data = dataset(300, 3);
        let detector = detector(&data, 5);
        for bad in [
            AdaptiveConfig { max_batch: 0, ..AdaptiveConfig::default() },
            AdaptiveConfig { max_batch: 64, queue_capacity: 8, ..AdaptiveConfig::default() },
            AdaptiveConfig { regeneration_rounds: 0, ..AdaptiveConfig::default() },
            AdaptiveConfig {
                monitor: DriftMonitorConfig { window: 0, ..DriftMonitorConfig::default() },
                ..AdaptiveConfig::default()
            },
        ] {
            assert!(matches!(
                AdaptiveLane::new("t0", detector.clone(), bad),
                Err(ServeError::InvalidConfig(_))
            ));
        }
        // Quantized artifacts cannot keep learning.
        let quantized = Detector::builder()
            .dimension(128)
            .retrain_epochs(1)
            .quantize(hdc::BitWidth::B1)
            .train(&data)
            .unwrap();
        assert!(matches!(
            AdaptiveLane::new("t0", quantized, AdaptiveConfig::default()),
            Err(ServeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn adaptive_lane_matches_a_serial_online_replay() {
        let data = dataset(400, 31);
        let detector = detector(&data, 9);
        let lane = AdaptiveLane::new(
            "t0",
            detector.clone(),
            AdaptiveConfig { max_batch: 7, ..AdaptiveConfig::default() },
        )
        .unwrap();
        let mut oracle = detector.into_online().unwrap();

        let mut tickets = Vec::new();
        for (i, (record, &label)) in data.records().iter().zip(data.labels()).take(60).enumerate() {
            if i % 3 == 0 {
                tickets.push((lane.submit(record).unwrap(), None::<usize>, record));
            } else {
                tickets.push((lane.submit_labelled(record, label).unwrap(), Some(label), record));
            }
            if i % 11 == 0 {
                lane.flush().unwrap();
            }
        }
        lane.flush().unwrap();

        for (ticket, label, record) in &tickets {
            let verdict = lane.take(ticket).unwrap();
            let (class, similarity) = match label {
                Some(label) => oracle.observe_scored(record, *label).unwrap(),
                None => oracle.predict_scored(record).unwrap(),
            };
            assert_eq!(verdict.class, class);
            assert_eq!(verdict.similarity.to_bits(), similarity.to_bits());
            assert!(!verdict.novel, "no thresholds on a closed-set lane");
        }
        let stats = lane.stats();
        assert_eq!(stats.flows_served, 60);
        assert_eq!(stats.samples_learned, oracle.samples_seen());
        assert_eq!(stats.prequential_accuracy, oracle.prequential_accuracy());
        assert_eq!(stats.uncollected, 0);
        // The lane's model is the oracle's model, bit for bit.
        assert_eq!(
            lane.seal_snapshot().to_bytes(),
            oracle.seal_snapshot().to_bytes(),
            "interleaved flushes must not change the model a serial replay produces"
        );
    }

    #[test]
    fn adaptive_feedback_applies_late_ground_truth_in_order() {
        let data = dataset(300, 37);
        let lane = AdaptiveLane::new("t0", detector(&data, 3), AdaptiveConfig::default()).unwrap();

        let labelled = lane.submit_labelled(&data.records()[0], data.labels()[0]).unwrap();
        let unlabelled = lane.submit(&data.records()[1]).unwrap();
        lane.flush().unwrap();
        assert_eq!(lane.stats().samples_learned, 1, "unlabelled flows do not train");

        // Late ground truth arrives through the ticket.
        lane.submit_feedback(&unlabelled, data.labels()[1]).unwrap();
        lane.flush().unwrap();
        let stats = lane.stats();
        assert_eq!(stats.samples_learned, 2);
        assert_eq!(stats.feedback_submitted, 1);
        assert_eq!(stats.feedback_applied, 1);

        // Applying it twice fails; so does feedback for a labelled submit,
        // a foreign ticket, or an out-of-range label.
        assert!(matches!(
            lane.submit_feedback(&unlabelled, data.labels()[1]),
            Err(ServeError::FeedbackUnavailable(_))
        ));
        assert!(matches!(
            lane.submit_feedback(&labelled, data.labels()[0]),
            Err(ServeError::FeedbackUnavailable(_))
        ));
        let foreign = Ticket { lane: labelled.lane + 1, ..labelled.clone() };
        assert!(matches!(lane.submit_feedback(&foreign, 0), Err(ServeError::UnknownTicket)));
        let fresh = lane.submit(&data.records()[2]).unwrap();
        assert!(matches!(lane.submit_feedback(&fresh, 999), Err(ServeError::Rejected(_))));
        // Verdicts still collectable.
        assert!(lane.take(&labelled).is_ok());
        assert!(lane.take(&unlabelled).is_ok());
    }

    #[test]
    fn adaptive_retention_window_ages_flows_out() {
        let data = dataset(300, 41);
        let config = AdaptiveConfig { retention: 2, ..AdaptiveConfig::default() };
        let lane = AdaptiveLane::new("t0", detector(&data, 3), config).unwrap();
        let first = lane.submit(&data.records()[0]).unwrap();
        lane.submit(&data.records()[1]).unwrap();
        lane.submit(&data.records()[2]).unwrap();
        // The first flow aged out of the 2-flow retention window — a
        // distinct, WAL-replayable error, not generic unavailability.
        assert!(matches!(
            lane.submit_feedback(&first, 0),
            Err(ServeError::FeedbackTooLate { seq: 0, retention: 2 })
        ));
        assert_eq!(lane.stats().retained, 2);

        // retention = 0 disables late feedback entirely.
        let no_feedback = AdaptiveLane::new(
            "t1",
            detector(&data, 3),
            AdaptiveConfig { retention: 0, ..AdaptiveConfig::default() },
        )
        .unwrap();
        let ticket = no_feedback.submit(&data.records()[0]).unwrap();
        assert!(matches!(
            no_feedback.submit_feedback(&ticket, 0),
            Err(ServeError::FeedbackTooLate { retention: 0, .. })
        ));
        // A sequence the lane never issued stays UnknownTicket even with
        // the retention window empty.
        let forged = no_feedback.reissue_ticket(999);
        assert!(matches!(no_feedback.submit_feedback(&forged, 0), Err(ServeError::UnknownTicket)));
    }

    #[test]
    fn adaptive_checkpoint_restore_is_bit_identical() {
        let data = dataset(400, 47);
        let config = AdaptiveConfig {
            max_batch: 8,
            retention: 16,
            monitor: DriftMonitorConfig {
                window: 32,
                min_observations: 16,
                cooldown: 16,
                ..DriftMonitorConfig::default()
            },
            ..AdaptiveConfig::default()
        };
        let lane = AdaptiveLane::new("t0", detector(&data, 3), config).unwrap();
        let oracle = AdaptiveLane::new("t0", detector(&data, 3), config).unwrap();

        // Mixed traffic: labelled, unlabelled (some fed back), enough to
        // evict from the retention window and (likely) trip the monitor.
        let mut tickets = Vec::new();
        for (i, record) in data.records()[..120].iter().enumerate() {
            if i % 3 == 0 {
                lane.submit_labelled(record, data.labels()[i]).unwrap();
                oracle.submit_labelled(record, data.labels()[i]).unwrap();
            } else {
                tickets.push((i, lane.submit(record).unwrap(), oracle.submit(record).unwrap()));
            }
            if i % 7 == 0 {
                if let Some((j, t_lane, t_oracle)) = tickets.pop() {
                    let _ = lane.submit_feedback(&t_lane, data.labels()[j]);
                    let _ = oracle.submit_feedback(&t_oracle, data.labels()[j]);
                }
            }
        }
        lane.flush().unwrap();
        oracle.flush().unwrap();
        drain(&lane);
        drain(&oracle);

        // Checkpoint the first lane and restore a fresh one from it.
        let state = checkpoint(&lane);
        let restored = AdaptiveLane::restore(config, None, state.clone()).unwrap();
        assert_eq!(checkpoint(&restored), state, "restore must round-trip the checkpoint");

        // The restored lane and the never-checkpointed oracle must agree
        // bit-for-bit on everything that follows.
        for (i, record) in data.records()[120..240].iter().enumerate() {
            let label = data.labels()[120 + i];
            let (a, b) = if i % 2 == 0 {
                (restored.submit_labelled(record, label), oracle.submit_labelled(record, label))
            } else {
                (restored.submit(record), oracle.submit(record))
            };
            assert_eq!(a.unwrap().seq(), b.unwrap().seq(), "sequence numbering must resume");
        }
        restored.flush().unwrap();
        oracle.flush().unwrap();
        assert_eq!(
            drain(&restored),
            drain(&oracle),
            "post-restore verdicts must match the uncrashed lane"
        );
        assert_eq!(
            restored.seal_snapshot().to_bytes(),
            oracle.seal_snapshot().to_bytes(),
            "post-restore model must be bit-identical to the uncrashed lane"
        );
        let (r, o) = (restored.stats(), oracle.stats());
        assert_eq!(r.samples_learned, o.samples_learned);
        assert_eq!(r.prequential_accuracy, o.prequential_accuracy);
        assert_eq!(r.monitor_trips, o.monitor_trips);
        assert_eq!(r.adaptations, o.adaptations);
        assert_eq!(r.flows_submitted, o.flows_submitted);
    }

    #[test]
    fn adaptive_backpressure_and_rejection_leave_the_lane_sound() {
        let data = dataset(300, 43);
        let config =
            AdaptiveConfig { max_batch: 4, queue_capacity: 4, ..AdaptiveConfig::default() };
        let lane = AdaptiveLane::new("t0", detector(&data, 3), config).unwrap();
        // Malformed records and out-of-range labels are rejected up front.
        assert!(matches!(lane.submit(&[1.0, 2.0]), Err(ServeError::Rejected(_))));
        assert!(matches!(
            lane.submit_labelled(&data.records()[0], 999),
            Err(ServeError::Rejected(_))
        ));
        // Four submissions fill the queue (the fourth auto-flushes into
        // four uncollected verdicts, which still occupy it).
        let tickets: Vec<Ticket> =
            data.records()[..4].iter().map(|r| lane.submit(r).unwrap()).collect();
        assert!(matches!(
            lane.submit(&data.records()[4]),
            Err(ServeError::Backpressure { capacity: 4, .. })
        ));
        let stats = lane.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.uncollected, 4);
        // Draining frees capacity again.
        assert!(lane.take(&tickets[0]).is_ok());
        assert!(lane.submit(&data.records()[4]).is_ok());
    }

    #[test]
    fn adaptive_poll_honours_max_delay() {
        let data = dataset(300, 47);
        let config =
            AdaptiveConfig { max_delay: Duration::from_millis(1), ..AdaptiveConfig::default() };
        let lane = AdaptiveLane::new("t0", detector(&data, 3), config).unwrap();
        let ticket = lane.submit(&data.records()[0]).unwrap();
        assert_eq!(lane.poll(), 0, "not yet expired");
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(lane.poll(), 1);
        assert!(lane.try_take(&ticket).unwrap().is_some());
        // try_take semantics: pending -> None, collected -> UnknownTicket.
        let pending = lane.submit(&data.records()[1]).unwrap();
        assert!(lane.try_take(&pending).unwrap().is_none());
        assert!(matches!(lane.try_take(&ticket), Err(ServeError::UnknownTicket)));
    }

    #[test]
    fn adaptive_drift_trip_regenerates_and_republishes() {
        let data = dataset(600, 53);
        let v1 = Detector::builder()
            .dimension(128)
            .retrain_epochs(2)
            .regeneration_rate(0.1)
            .seed(7)
            .train(&data)
            .unwrap();
        let registry = Arc::new(DetectorRegistry::new());
        registry.register("edge", v1.clone()).unwrap();
        let config =
            AdaptiveConfig { monitor: touchy_monitor(), max_batch: 8, ..AdaptiveConfig::default() };
        let lane = AdaptiveLane::with_registry("edge", v1, config, Arc::clone(&registry)).unwrap();

        // Calm phase: true labels freeze a low baseline error.
        for (record, &label) in data.records().iter().zip(data.labels()).take(40) {
            lane.submit_labelled(record, label).unwrap();
        }
        lane.flush().unwrap();
        assert_eq!(lane.stats().monitor_trips, 0, "stationary traffic must not trip");

        // Abrupt shift: the label semantics rotate, so the frozen-baseline
        // window error surges and the monitor trips.
        let classes = data.num_classes();
        for (record, &label) in data.records().iter().zip(data.labels()).skip(40).take(120) {
            lane.submit_labelled(record, (label + 1) % classes).unwrap();
        }
        lane.flush().unwrap();

        let stats = lane.stats();
        assert!(stats.monitor_trips >= 1, "rotated labels must trip the monitor: {stats}");
        assert!(stats.adaptations >= 1);
        assert!(stats.regenerated_dimensions >= 1);
        assert!(
            stats.effective_dimension > 128,
            "regeneration grows the effective dimension: {}",
            stats.effective_dimension
        );
        assert!(stats.publishes >= 1, "auto-publish must fire after an adaptation");
        assert_eq!(stats.publish_failures, 0);
        let version = registry.version("edge").unwrap();
        assert!(version >= 2, "the registry must have received a swap, got v{version}");
        assert_eq!(stats.last_published_version, Some(version));
        assert!(stats.max_publish_latency >= stats.p50_publish_latency);

        // Auto-publications snapshot the model *at publish time*; the lane
        // has kept learning since.  A manual publish hands the registry the
        // current model, bit for bit.
        let republished = lane.publish().unwrap();
        assert_eq!(republished, version + 1);
        let (published, _) = registry.current("edge").unwrap();
        assert_eq!(published.to_bytes(), lane.seal_snapshot().to_bytes());
    }

    #[test]
    fn adaptive_open_set_republish_recalibrates_thresholds() {
        let data = dataset(600, 67);
        let v1 = Detector::builder()
            .dimension(128)
            .retrain_epochs(2)
            .regeneration_rate(0.1)
            .open_set(0.05)
            .seed(7)
            .train(&data)
            .unwrap();
        let initial = v1.thresholds().unwrap().to_vec();
        let registry = Arc::new(DetectorRegistry::new());
        registry.register("edge", v1.clone()).unwrap();
        let config =
            AdaptiveConfig { monitor: touchy_monitor(), max_batch: 8, ..AdaptiveConfig::default() };
        let lane = AdaptiveLane::with_registry("edge", v1, config, Arc::clone(&registry)).unwrap();

        // Calm phase, then rotated labels: the error surge trips the
        // monitor and each adaptation must recalibrate before publishing.
        for (record, &label) in data.records().iter().zip(data.labels()).take(40) {
            lane.submit_labelled(record, label).unwrap();
        }
        lane.flush().unwrap();
        let classes = data.num_classes();
        for (record, &label) in data.records().iter().zip(data.labels()).skip(40).take(120) {
            lane.submit_labelled(record, (label + 1) % classes).unwrap();
        }
        lane.flush().unwrap();

        let stats = lane.stats();
        assert!(stats.monitor_trips >= 1, "rotated labels must trip the monitor: {stats}");
        assert!(stats.recalibrations >= 1, "open-set adaptations must recalibrate: {stats}");
        assert!(stats.reservoir_size > 0, "labelled flows must populate the reservoir: {stats}");
        let thresholds = lane.thresholds_snapshot().expect("the lane must stay open-set");
        assert_ne!(thresholds, initial, "recalibration must refresh the thresholds");
        // The republished snapshot carries the recalibrated thresholds —
        // the bug this PR fixes was publish dropping them entirely.
        let (published, version) = registry.current("edge").unwrap();
        assert!(version >= 2, "the adaptation must have republished, got v{version}");
        assert_eq!(
            published.thresholds(),
            Some(thresholds.as_slice()),
            "the published snapshot must carry the lane's recalibrated thresholds"
        );
        assert!(registry.info("edge").unwrap().open_set);
    }

    #[test]
    fn batched_lanes_match_a_batched_replay_at_the_same_boundaries() {
        let data = dataset(360, 71);
        let artifact = Detector::builder()
            .dimension(128)
            .retrain_epochs(1)
            .regeneration_rate(0.1)
            .open_set(0.05)
            .seed(9)
            .train(&data)
            .unwrap();
        let thresholds = artifact.thresholds().unwrap().to_vec();
        let batch = 9usize;
        let config = AdaptiveConfig {
            max_batch: batch,
            queue_capacity: 512,
            batched_feedback: true,
            ..AdaptiveConfig::default()
        };
        let lane = AdaptiveLane::new("t0", artifact.clone(), config).unwrap();
        let mut oracle = artifact.into_online().unwrap();

        // The documented contract: bit-identical to a batched replay at
        // the same flush boundaries.  The lane auto-flushes every
        // `batch` submissions, so the oracle applies the same chunks —
        // every score in a chunk against the frozen pre-chunk model, the
        // labelled records learned through one deferred batch update.
        let mut expected = Vec::new();
        for chunk in data.records().chunks(batch) {
            let base = expected.len();
            let mut scores = Vec::new();
            let mut records = Vec::new();
            let mut labels = Vec::new();
            for (i, record) in chunk.iter().enumerate() {
                if (base + i) % 2 == 0 {
                    lane.submit_labelled(record, data.labels()[base + i]).unwrap();
                    records.push(record.clone());
                    labels.push(data.labels()[base + i]);
                    scores.push(None);
                } else {
                    lane.submit(record).unwrap();
                    scores.push(Some(oracle.predict_scored(record).unwrap()));
                }
            }
            let mut learned = std::collections::VecDeque::from(
                oracle.observe_batch_scored(&records, &labels).unwrap(),
            );
            for score in scores {
                let (class, similarity) =
                    score.unwrap_or_else(|| learned.pop_front().expect("one score per label"));
                let novel = similarity < thresholds[class];
                expected.push(Verdict { class, similarity, novel });
            }
        }
        let verdicts: Vec<Verdict> = drain(&lane).into_iter().map(|(_, verdict)| verdict).collect();
        assert_eq!(verdicts.len(), expected.len());
        for (seq, (got, want)) in verdicts.iter().zip(&expected).enumerate() {
            assert_eq!(got.class, want.class, "flow {seq}");
            assert_eq!(got.similarity.to_bits(), want.similarity.to_bits(), "flow {seq}");
            assert_eq!(got.novel, want.novel, "flow {seq}");
        }
        assert_eq!(
            lane.seal_snapshot().to_bytes(),
            oracle.seal_snapshot().to_bytes(),
            "the lane's final model must match the batched replay bit for bit"
        );
    }

    #[test]
    fn reservoir_is_identical_across_flush_modes_and_bounded_by_capacity() {
        let data = dataset(300, 73);
        let artifact = Detector::builder()
            .dimension(96)
            .retrain_epochs(1)
            .regeneration_rate(0.1)
            .open_set(0.05)
            .seed(11)
            .train(&data)
            .unwrap();
        let base = AdaptiveConfig {
            reservoir_capacity: 16,
            queue_capacity: 512,
            ..AdaptiveConfig::default()
        };
        // The reservoir is a pure function of the labelled event sequence:
        // flush cadence and batched vs serial application must not move a
        // single entry.
        let serial = AdaptiveLane::new("t0", artifact.clone(), base).unwrap();
        let chunky =
            AdaptiveLane::new("t0", artifact.clone(), AdaptiveConfig { max_batch: 5, ..base })
                .unwrap();
        let batched = AdaptiveLane::new(
            "t0",
            artifact,
            AdaptiveConfig { max_batch: 7, batched_feedback: true, ..base },
        )
        .unwrap();
        for lane in [&serial, &chunky, &batched] {
            for (record, &label) in data.records().iter().zip(data.labels()).take(120) {
                lane.submit_labelled(record, label).unwrap();
            }
            lane.flush().unwrap();
        }
        let (entries, candidates) = serial.reservoir_snapshot();
        assert_eq!(entries.len(), 16, "the reservoir must cap at its configured capacity");
        assert_eq!(candidates, 120, "every labelled event is a candidate");
        assert_eq!(serial.reservoir_snapshot(), chunky.reservoir_snapshot());
        assert_eq!(serial.reservoir_snapshot(), batched.reservoir_snapshot());
        assert_eq!(serial.stats().reservoir_size, 16);
    }

    #[test]
    fn engine_and_adaptive_tickets_for_the_same_tenant_cannot_cross_collect() {
        let data = dataset(300, 61);
        let artifact = detector(&data, 3);
        let registry = Arc::new(DetectorRegistry::new());
        registry.register("edge", artifact.clone()).unwrap();
        let engine = ServeEngine::new(Arc::clone(&registry), ServeConfig::default()).unwrap();
        let lane = AdaptiveLane::with_registry(
            "edge",
            artifact,
            AdaptiveConfig::default(),
            Arc::clone(&registry),
        )
        .unwrap();

        // Same tenant, same sequence number (both start at 0) — lane ids
        // come from one process-global counter, so neither side can
        // collect (and thereby consume) the other's verdict.
        let engine_ticket = engine.submit("edge", &data.records()[0]).unwrap();
        let lane_ticket = lane.submit(&data.records()[1]).unwrap();
        assert_eq!(engine_ticket.seq(), lane_ticket.seq());
        engine.flush("edge").unwrap();
        lane.flush().unwrap();

        assert!(matches!(lane.take(&engine_ticket), Err(ServeError::UnknownTicket)));
        assert!(matches!(lane.try_take(&engine_ticket), Err(ServeError::UnknownTicket)));
        assert!(matches!(lane.submit_feedback(&engine_ticket, 0), Err(ServeError::UnknownTicket)));
        assert!(matches!(engine.take(&lane_ticket), Err(ServeError::UnknownTicket)));
        // The rightful owners still collect.
        assert!(engine.take(&engine_ticket).is_ok());
        assert!(lane.take(&lane_ticket).is_ok());
    }

    #[test]
    fn adaptive_publish_registers_unknown_tenants() {
        let data = dataset(300, 59);
        let registry = Arc::new(DetectorRegistry::new());
        let lane = AdaptiveLane::with_registry(
            "fresh",
            detector(&data, 3),
            AdaptiveConfig::default(),
            Arc::clone(&registry),
        )
        .unwrap();
        assert_eq!(lane.publish().unwrap(), 1, "publish registers an unknown tenant");
        assert_eq!(lane.publish().unwrap(), 2, "and swaps once registered");
        assert_eq!(registry.version("fresh"), Some(2));
        // A lane without a registry refuses to publish.
        let lonely =
            AdaptiveLane::new("t0", detector(&data, 3), AdaptiveConfig::default()).unwrap();
        assert!(matches!(lonely.publish(), Err(ServeError::InvalidConfig(_))));
    }
}
