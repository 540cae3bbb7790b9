//! `cyberhd::durable` — crash-durable adaptive serving.
//!
//! An [`AdaptiveLane`] is a purely in-memory object: kill the process and
//! the adapted model, the drift-monitor state and every retained flow die
//! with it.  A [`DurableLane`] is the same lane with a **write-ahead
//! journal** attached — a [`hdc::wal`] log plus sealed checkpoints in one
//! directory — so a restart resumes the lane *bit-identically*: same model
//! bytes, same monitor windows, same sequence numbering, same verdicts for
//! the replayed tail.
//!
//! Durability is not a second lane wrapped around the first: the journal
//! lives **inside** the adaptive lane, behind the lane's one mutex, and the
//! lane calls it at the three points where durability actually happens:
//!
//! * **log before enqueue** — every accepted event (flow submission,
//!   labelled submission, late feedback) is framed into the log before it
//!   joins the lane's queue, so nothing can reach the model unlogged;
//! * **fsync before apply** — a flush (explicit, `max_batch` watermark,
//!   `max_delay` poll, or a `take` whose own flow is still queued) syncs the
//!   log strictly before it applies the first queued event.  This is the
//!   write-ahead invariant, and it lives in exactly one place — the lane's
//!   flush — so durability costs one `sync_data` per micro-batch, not per
//!   flow, and the journal adds no flush boundaries of its own: a durable
//!   lane cuts its batches exactly where a plain one would;
//! * **audit + checkpoint after apply** — the flush tells the journal what
//!   it did (drift trips, regenerations, recalibrated thresholds, the
//!   published version) and those land as audit records; every
//!   `checkpoint_every` applied events the lane's full state is written to
//!   a sealed **checkpoint** file (model bytes via
//!   [`Detector::to_bytes`](crate::Detector::to_bytes), CRC-framed), the
//!   WAL is compacted to the tail the oldest kept checkpoint still needs,
//!   and checkpoints beyond `keep_checkpoints` are pruned — so replay
//!   length, log size and recovery time all stay bounded.
//!
//! [`DurableLane::recover`] loads the newest checkpoint that still
//! validates (corrupt ones are skipped, counted in the report), resumes
//! the WAL past any torn tail, replays the surviving records into the
//! restored — still journal-less — lane through its ordinary serving path,
//! and only then attaches the resumed journal.
//!
//! Recovery is bit-identical for the same reason the adaptive lane is
//! deterministic at all: events are applied strictly in submission order
//! through the serial streaming rule, so "checkpoint + replayed tail" and
//! "never crashed" are literally the same event sequence.  The encoder
//! persists its seed *and* its regeneration draw counter, so even
//! post-recovery regenerations draw the exact streams the uncrashed lane
//! would have drawn.  The recalibration reservoir rides the same
//! guarantee — it is a pure function of the applied event sequence plus
//! the checkpointed `(entries, candidate counter)` pair, so recovered
//! lanes recalibrate to bit-identical thresholds.  Batched-feedback
//! lanes ([`AdaptiveConfig::batched_feedback`]) additionally log a
//! batch-boundary marker at every flush (fsynced with the events it
//! closes), and recovery flushes the replayed tail at exactly those
//! markers — the batched contract is bit-identity to a replay *at the
//! same boundaries*, so the boundaries themselves are durable state, and
//! a suffix of events whose closing marker tore off mid-fsync is
//! discarded as uncommitted rather than replayed at an invented boundary.
//!
//! Corrupt bytes — a torn WAL tail, a half-written checkpoint, byte flips
//! anywhere — always yield a defined outcome: torn tails are truncated to
//! the last valid record, damaged checkpoints are skipped in favour of an
//! older one, and anything unrecoverable is a
//! [`ServeError::Durability`], never a panic and never a silently wrong
//! model (pinned by `tests/scenario.rs`' kill-at-random-offset matrix).
//!
//! # Example
//!
//! ```
//! use cyberhd::durable::{DurableConfig, DurableLane};
//! use cyberhd::Detector;
//! use nids_data::synth::SyntheticConfig;
//! use nids_data::DatasetKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join(format!("cyberhd_durable_doc_{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let dataset = DatasetKind::NslKdd.generate(&SyntheticConfig::new(300, 7))?;
//! let detector = Detector::builder().dimension(128).retrain_epochs(1).train(&dataset)?;
//!
//! let lane = DurableLane::create(&dir, "edge-0", detector, DurableConfig::default(), None)?;
//! let ticket = lane.submit_labelled(&dataset.records()[0], dataset.labels()[0])?;
//! lane.flush()?;
//! let verdict = lane.take(&ticket)?;
//! drop(lane); // "crash"
//!
//! // A restart recovers the same lane from disk.
//! let (lane, report) = DurableLane::recover(&dir, None)?;
//! assert_eq!(report.next_event, 1);
//! assert!(verdict.class < dataset.num_classes());
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```

use crate::detector::{Detector, Verdict};
use crate::serve::{
    AdaptiveConfig, AdaptiveLane, AdaptiveStats, DetectorRegistry, LaneCheckpoint, ServeError,
    ServeResult, Ticket,
};
use hdc::codec::{CodecError, CodecResult, Reader, Writer};
use hdc::wal;
use std::collections::VecDeque;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Magic prefix of a checkpoint file.
const CKPT_MAGIC: &[u8; 4] = b"CYCK";

/// Checkpoint format version.  Version 2 added the recalibration
/// reservoir (entries + candidate counter), the reservoir/recalibration
/// and batched-feedback knobs of [`AdaptiveConfig`], and the
/// recalibration counter; version-1 files are rejected with a clean
/// error rather than misread.
const CKPT_VERSION: u32 = 2;

/// File name of the write-ahead log inside a durable lane's directory.
const WAL_FILE: &str = "wal.log";

/// WAL payload tags.  Tags 0–2 are **replayed events**, numbered by a
/// single monotonic event index across flows and feedback; tags 3–6 are
/// audit records (adaptation history for operators) that replay skips;
/// tag 7 is a **replayed control record**: a batch-boundary marker a
/// batched-feedback lane writes at every flush, so recovery replays the
/// tail batched at the original boundaries (the batched contract is
/// bit-identity *at the same boundaries*, so the boundaries themselves
/// must be durable).
const TAG_FLOW: u8 = 0;
const TAG_FLOW_LABELLED: u8 = 1;
const TAG_FEEDBACK: u8 = 2;
const TAG_DRIFT_TRIP: u8 = 3;
const TAG_REGENERATION: u8 = 4;
const TAG_PUBLISH: u8 = 5;
const TAG_RECALIBRATION: u8 = 6;
const TAG_BATCH_BOUNDARY: u8 = 7;

/// Durability policy of a [`DurableLane`].
#[derive(Debug, Clone, PartialEq)]
pub struct DurableConfig {
    /// The lane's serving and adaptation policy.
    pub adaptive: AdaptiveConfig,
    /// Write a checkpoint (and compact the log) once this many events
    /// have been applied since the last one — the replay-length bound.
    pub checkpoint_every: u64,
    /// How many checkpoints to keep on disk.  More than one lets recovery
    /// fall back past a checkpoint that was itself corrupted; the WAL is
    /// compacted only to what the **oldest kept** checkpoint still needs.
    pub keep_checkpoints: usize,
}

impl Default for DurableConfig {
    fn default() -> Self {
        Self { adaptive: AdaptiveConfig::default(), checkpoint_every: 1024, keep_checkpoints: 2 }
    }
}

impl DurableConfig {
    fn validate(&self) -> ServeResult<()> {
        if self.checkpoint_every == 0 {
            return Err(ServeError::InvalidConfig("checkpoint_every must be non-zero".into()));
        }
        if self.keep_checkpoints == 0 {
            return Err(ServeError::InvalidConfig("keep_checkpoints must be non-zero".into()));
        }
        Ok(())
    }
}

/// What [`DurableLane::recover`] found and did.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Events already applied by the checkpoint recovery started from.
    pub checkpoint_events: u64,
    /// WAL tail events replayed on top of the checkpoint.
    pub events_replayed: u64,
    /// The next event index the recovered lane will log — equals
    /// `checkpoint_events + events_replayed`.
    pub next_event: u64,
    /// Verdicts of the replayed flows, sorted by sequence number.  The
    /// crash destroyed their tickets, so recovery hands the verdicts back
    /// directly; [`DurableLane::reissue_ticket`] mints new handles.
    pub verdicts: Vec<(u64, Verdict)>,
    /// Bytes of torn WAL tail truncated before replay.
    pub truncated_bytes: usize,
    /// Checkpoint files that failed validation and were skipped.
    pub checkpoints_skipped: usize,
}

/// The cumulative adaptation counters the audit records (tags 3, 4, 6)
/// report; a flush compares them before and after applying its events.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AuditMarks {
    pub(crate) trips: u64,
    pub(crate) adaptations: u64,
    pub(crate) regenerated: u64,
    pub(crate) recalibrations: u64,
}

/// The write-ahead journal a durable lane's [`AdaptiveLane`] owns: the
/// WAL writer, the checkpoint cadence and the event counters.  The lane
/// calls it at the three points where durability happens — *log before
/// enqueue* ([`Journal::log_flow`] / [`Journal::log_feedback`]), *fsync
/// before apply* ([`Journal::commit`]), *audit + checkpoint after apply*
/// ([`Journal::audit`], [`Journal::checkpoint`]) — under the lane's own
/// mutex, so the journal needs no synchronisation of its own.
#[derive(Debug)]
pub(crate) struct Journal {
    wal: wal::Writer,
    dir: PathBuf,
    /// The lane's policy: the cadence and keep bound steer checkpointing,
    /// and every checkpoint file carries the whole of it.
    config: DurableConfig,
    /// Next event index (tags 0–2 logged so far, checkpoint included).
    /// Between flushes the lane's queue holds the unapplied tail; at
    /// every flush boundary this is also the count of applied events.
    events: u64,
    /// Event count of the last checkpoint written.
    checkpointed: u64,
}

impl Journal {
    /// Events logged so far (flows + feedback, durable or pending).
    pub(crate) fn events(&self) -> u64 {
        self.events
    }

    /// Buffers one framed record for the next [`Journal::commit`].
    fn append(&mut self, record: Writer) -> ServeResult<()> {
        self.wal
            .append(&record.into_bytes())
            .map_err(|e| ServeError::Durability(format!("append to WAL: {e}")))
    }

    /// Logs a flow submission (tag 0, or tag 1 with its label) as the
    /// next event.
    pub(crate) fn log_flow(
        &mut self,
        seq: u64,
        record: &[f32],
        label: Option<usize>,
    ) -> ServeResult<()> {
        let mut w = self.record(if label.is_some() { TAG_FLOW_LABELLED } else { TAG_FLOW });
        w.u64(seq);
        if let Some(label) = label {
            w.usize(label);
        }
        w.f32_slice(record);
        self.append(w)?;
        self.events += 1;
        Ok(())
    }

    /// Logs late ground truth for flow `seq` (tag 2) as the next event.
    pub(crate) fn log_feedback(&mut self, seq: u64, label: usize) -> ServeResult<()> {
        let mut w = self.record(TAG_FEEDBACK);
        w.u64(seq);
        w.usize(label);
        self.append(w)?;
        self.events += 1;
        Ok(())
    }

    /// Makes everything logged so far durable with one fsync.  A
    /// batched-feedback lane about to apply events passes `close_batch`:
    /// the boundary marker (tag 7) closing them rides the same sync, so
    /// recovery replays the tail batched at these exact boundaries.
    pub(crate) fn commit(&mut self, close_batch: bool) -> ServeResult<()> {
        if close_batch {
            self.append(self.record(TAG_BATCH_BOUNDARY))?;
        }
        self.wal.flush().map_err(|e| ServeError::Durability(format!("sync WAL: {e}")))
    }

    /// Appends audit records (tags 3, 4, 6) for whatever the flush that
    /// moved the counters from `before` to `after` did.  They ride the
    /// next fsync — losing them in a crash is fine, replay reconstructs
    /// the same state without them.
    pub(crate) fn audit(
        &mut self,
        before: AuditMarks,
        after: AuditMarks,
        thresholds: Option<&[f32]>,
    ) -> ServeResult<()> {
        if after.trips > before.trips {
            let mut w = self.record(TAG_DRIFT_TRIP);
            w.u64(after.trips);
            self.append(w)?;
        }
        if after.adaptations > before.adaptations || after.regenerated > before.regenerated {
            let mut w = self.record(TAG_REGENERATION);
            w.u64(after.adaptations);
            w.u64(after.regenerated);
            self.append(w)?;
        }
        if after.recalibrations > before.recalibrations {
            // The thresholds the recalibration produced ride along so an
            // operator can diff threshold drift straight off the log.
            let mut w = self.record(TAG_RECALIBRATION);
            w.u64(after.recalibrations);
            w.f32_slice(thresholds.unwrap_or_default());
            self.append(w)?;
        }
        Ok(())
    }

    /// Appends the audit record (tag 5) of the lane's `publishes`-th
    /// publication, which the registry accepted as `version`.
    pub(crate) fn log_publish(&mut self, publishes: u64, version: u64) -> ServeResult<()> {
        let mut w = self.record(TAG_PUBLISH);
        w.u64(publishes);
        w.u64(version);
        self.append(w)
    }

    /// The common head of every record: its tag and the event index it is
    /// written at (an event's own index; for audit and boundary records
    /// the count of events logged before them).
    fn record(&self, tag: u8) -> Writer {
        let mut w = Writer::new();
        w.u8(tag);
        w.u64(self.events);
        w
    }

    /// Whether a flush boundary has crossed the checkpoint cadence.
    pub(crate) fn checkpoint_due(&self) -> bool {
        self.events - self.checkpointed >= self.config.checkpoint_every
    }

    /// Syncs any pending audit records, writes a checkpoint of `state`
    /// (the lane's queue must be empty — only called at flush boundaries
    /// or creation), prunes old checkpoints and compacts the WAL.
    pub(crate) fn checkpoint(&mut self, state: &LaneCheckpoint) -> ServeResult<()> {
        self.commit(false)?;
        let bytes = encode_checkpoint(&self.config, self.events, state);
        replace_file(&self.dir.join(format!("checkpoint-{:020}.ckpt", self.events)), &bytes)?;
        self.checkpointed = self.events;

        // Prune checkpoints beyond the keep bound (newest first).
        let checkpoints = list_checkpoints(&self.dir)?;
        let mut oldest_kept = self.events;
        for (i, old) in checkpoints.iter().enumerate() {
            if i < self.config.keep_checkpoints {
                if let Some(events) = checkpoint_events_of(old) {
                    oldest_kept = oldest_kept.min(events);
                }
            } else {
                let _ = fs::remove_file(old);
            }
        }

        // Compact the WAL: records below what the oldest kept checkpoint
        // needs are dead weight on every future recovery.
        self.compact_wal(oldest_kept)
    }

    /// Rewrites the WAL keeping only events at or past `oldest_kept`
    /// (audit records are dropped — they are advisory; batch-boundary
    /// markers survive with the events they close, so a batched replay
    /// keeps its boundaries).  The writer resumes on the compacted file.
    fn compact_wal(&mut self, oldest_kept: u64) -> ServeResult<()> {
        let path = self.wal.path().to_path_buf();
        let scan =
            wal::read_file(&path).map_err(|e| ServeError::Durability(format!("read WAL: {e}")))?;
        let mut compacted: Vec<u8> = Vec::with_capacity(wal::HEADER_LEN);
        compacted.extend_from_slice(wal::MAGIC);
        compacted.extend_from_slice(&wal::VERSION.to_le_bytes());
        for record in &scan.records {
            let keep = match decode_event(record)? {
                Some(event) => event.index >= oldest_kept,
                None => false,
            };
            if keep {
                compacted.extend_from_slice(&wal::frame(record));
            }
        }
        replace_file(&path, &compacted)?;
        self.wal = wal::Writer::resume(&path, compacted.len() as u64)
            .map_err(|e| ServeError::Durability(format!("resume compacted WAL: {e}")))?;
        Ok(())
    }
}

/// A crash-durable [`AdaptiveLane`] (see the [module docs](self)): the
/// lane with its write-ahead journal attached, plus where it lives on disk.
///
/// All methods take `&self` and delegate to the lane; the journal sits
/// behind the lane's own mutex, so concurrent submitters serialize exactly
/// as they do on a plain adaptive lane.
#[derive(Debug)]
pub struct DurableLane {
    lane: AdaptiveLane,
    config: DurableConfig,
    dir: PathBuf,
}

impl DurableLane {
    /// Creates a fresh durable lane in `dir` (created if missing; must not
    /// already hold a durable lane).  Writes the initial checkpoint and an
    /// empty WAL before returning, so recovery always has a base to load.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for bad watermarks,
    /// [`ServeError::Durability`] for I/O failures or a directory that
    /// already holds a lane.
    pub fn create(
        dir: impl AsRef<Path>,
        tenant: &str,
        detector: Detector,
        config: DurableConfig,
        registry: Option<Arc<DetectorRegistry>>,
    ) -> ServeResult<Self> {
        config.validate()?;
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| io_err("create lane directory", &dir, &e))?;
        let wal_path = dir.join(WAL_FILE);
        if wal_path.exists() || !list_checkpoints(&dir)?.is_empty() {
            return Err(ServeError::Durability(format!(
                "{} already holds a durable lane; recover it instead of creating over it",
                dir.display()
            )));
        }
        let lane = AdaptiveLane::build(tenant, detector, config.adaptive, registry)?;
        let wal = wal::Writer::create(&wal_path)
            .map_err(|e| ServeError::Durability(format!("create WAL: {e}")))?;
        let journal =
            Journal { wal, dir: dir.clone(), config: config.clone(), events: 0, checkpointed: 0 };
        lane.attach_journal(journal, true)?;
        Ok(Self { lane, config, dir })
    }

    /// Recovers the durable lane stored in `dir`: loads the newest
    /// checkpoint that validates, truncates any torn WAL tail, replays the
    /// surviving records and returns the lane plus a [`RecoveryReport`].
    ///
    /// The recovered lane is **bit-identical** to the lane that would
    /// exist had the process never died after its last fsync: model
    /// bytes, monitor state, sequence numbering and the replayed
    /// verdicts all match (events submitted after the last fsync are
    /// gone — they were never durable, and their verdicts were never
    /// observable).
    ///
    /// # Errors
    ///
    /// [`ServeError::Durability`] when no checkpoint validates or the WAL
    /// contradicts the checkpoint it should extend.
    pub fn recover(
        dir: impl AsRef<Path>,
        registry: Option<Arc<DetectorRegistry>>,
    ) -> ServeResult<(Self, RecoveryReport)> {
        let dir = dir.as_ref().to_path_buf();

        // Newest checkpoint that still validates wins; damaged ones are
        // counted and skipped.
        let mut skipped = 0usize;
        let mut recovered: Option<(DurableConfig, u64, LaneCheckpoint)> = None;
        for path in list_checkpoints(&dir)? {
            match fs::read(&path)
                .map_err(|e| e.to_string())
                .and_then(|bytes| decode_checkpoint(&bytes).map_err(|e| e.to_string()))
            {
                Ok(parsed) => {
                    recovered = Some(parsed);
                    break;
                }
                Err(_) => skipped += 1,
            }
        }
        let Some((config, checkpoint_events, state)) = recovered else {
            return Err(ServeError::Durability(format!(
                "{}: no valid checkpoint ({skipped} damaged)",
                dir.display()
            )));
        };
        config.validate()?;

        // Scan the WAL, truncating a torn tail; a missing or unreadable
        // WAL is unrecoverable (the checkpoint alone cannot prove the log
        // held nothing newer).
        let wal_path = dir.join(WAL_FILE);
        let scan = wal::read_file(&wal_path)
            .map_err(|e| ServeError::Durability(format!("read WAL: {e}")))?;
        let mut truncated_bytes = scan.truncated;
        let mut records = scan.records;
        let mut valid_len = scan.valid_len;
        if config.adaptive.batched_feedback {
            // Batch-atomic commit: a batched lane's events are committed
            // only once the boundary marker closing their batch is durable
            // (the marker rides the same fsync).  A suffix past the last
            // marker — a flush whose fsync tore — was never applied
            // anywhere, and replaying it would invent a batch boundary the
            // original timeline never had; it is truncated away like any
            // other torn tail.  Records the checkpoint covers are committed
            // by definition (their markers may have been compacted away).
            let mut committed_records = 0usize;
            let mut committed_len = wal::HEADER_LEN;
            let mut offset = wal::HEADER_LEN;
            for (i, record) in records.iter().enumerate() {
                offset += wal::FRAME_LEN + record.len();
                let committed = match decode_event(record)? {
                    Some(event) => {
                        matches!(event.kind, EventKind::Boundary) || event.index < checkpoint_events
                    }
                    None => false,
                };
                if committed {
                    committed_records = i + 1;
                    committed_len = offset;
                }
            }
            truncated_bytes += valid_len - committed_len;
            records.truncate(committed_records);
            valid_len = committed_len;
        }
        let wal = wal::Writer::resume(&wal_path, valid_len as u64)
            .map_err(|e| ServeError::Durability(format!("resume WAL: {e}")))?;

        // Replay the tail into the restored, still journal-less lane
        // through its ordinary serving path: records the checkpoint
        // already covers are skipped, the rest must be contiguous and
        // must reproduce the exact sequence numbers the log recorded.
        // The lane flushes itself at the `max_batch` watermark exactly
        // where the original did; a batched-feedback lane additionally
        // flushes at every logged boundary marker, because its contract
        // is bit-identity to a batched replay *at the same boundaries*.
        let lane = AdaptiveLane::restore(config.adaptive, registry, state)?;
        let mut next_event = checkpoint_events;
        let mut verdicts: Vec<(u64, Verdict)> = Vec::new();
        // Tickets of replayed flows not yet served, oldest first; they are
        // collected as their verdicts appear, so a long tail can never
        // hit its own backpressure bound.
        let mut tickets: VecDeque<Ticket> = VecDeque::new();
        let mut collect =
            |lane: &AdaptiveLane, tickets: &mut VecDeque<Ticket>| -> ServeResult<()> {
                while let Some(ticket) = tickets.front() {
                    match lane.try_take(ticket)? {
                        Some(verdict) => verdicts.push((ticket.seq(), verdict)),
                        None => break,
                    }
                    tickets.pop_front();
                }
                Ok(())
            };
        for record in &records {
            let event = match decode_event(record)? {
                Some(event) => event,
                None => continue, // audit record
            };
            if event.index < checkpoint_events {
                continue;
            }
            // A boundary marker carries the event count it closed, so it
            // must land exactly where replay stands (== checkpoint_events
            // is the no-op boundary the checkpoint itself was cut at).
            let boundary = matches!(event.kind, EventKind::Boundary);
            if event.index != next_event {
                let what = if boundary { "a batch boundary closing event" } else { "event" };
                return Err(ServeError::Durability(format!(
                    "WAL does not extend the checkpoint: replay stands at event {next_event}, \
                     log holds {what} {}",
                    event.index
                )));
            }
            match event.kind {
                EventKind::Boundary => {
                    lane.flush()?;
                }
                EventKind::Flow { seq, record, label } => {
                    let ticket = match label {
                        Some(label) => lane.submit_labelled(&record, label),
                        None => lane.submit(&record),
                    }
                    .map_err(|e| replay_err(event.index, &e))?;
                    if ticket.seq() != seq {
                        return Err(ServeError::Durability(format!(
                            "WAL does not match the checkpoint: event {} replayed as flow {}, \
                             log recorded flow {seq}",
                            event.index,
                            ticket.seq()
                        )));
                    }
                    tickets.push_back(ticket);
                }
                EventKind::Feedback { seq, label } => {
                    lane.submit_feedback(&lane.reissue_ticket(seq), label)
                        .map_err(|e| replay_err(event.index, &e))?;
                }
            }
            next_event += u64::from(!boundary);
            collect(&lane, &mut tickets)?;
        }
        // For batched lanes this is a no-op: every committed event was
        // closed by a boundary marker, so the queue is already empty.
        lane.flush()?;
        collect(&lane, &mut tickets)?;

        // Replay may have crossed the checkpoint cadence; checkpointing
        // now bounds the next recovery instead of re-replaying this tail.
        let replayed = next_event - checkpoint_events;
        let journal = Journal {
            wal,
            dir: dir.clone(),
            config: config.clone(),
            events: next_event,
            checkpointed: checkpoint_events,
        };
        lane.attach_journal(journal, replayed >= config.checkpoint_every)?;
        let report = RecoveryReport {
            checkpoint_events,
            events_replayed: replayed,
            next_event,
            verdicts,
            truncated_bytes,
            checkpoints_skipped: skipped,
        };
        Ok((Self { lane, config, dir }, report))
    }

    /// The tenant this lane serves.
    pub fn tenant(&self) -> &str {
        self.lane.tenant()
    }

    /// The lane's durability policy.
    pub fn config(&self) -> &DurableConfig {
        &self.config
    }

    /// The directory holding the lane's WAL and checkpoints.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Submits one unlabelled raw flow — [`AdaptiveLane::submit`] with the
    /// event logged to the WAL before it can reach the model.
    ///
    /// # Errors
    ///
    /// [`AdaptiveLane::submit`]'s errors, plus [`ServeError::Durability`]
    /// when the batch watermark forces a flush and the log cannot be
    /// synced.
    pub fn submit(&self, record: &[f32]) -> ServeResult<Ticket> {
        self.lane.submit(record)
    }

    /// Submits one labelled raw flow — [`AdaptiveLane::submit_labelled`],
    /// logged.
    ///
    /// # Errors
    ///
    /// Same as [`DurableLane::submit`].
    pub fn submit_labelled(&self, record: &[f32], label: usize) -> ServeResult<Ticket> {
        self.lane.submit_labelled(record, label)
    }

    /// Applies late ground truth through a ticket —
    /// [`AdaptiveLane::submit_feedback`], logged.
    ///
    /// # Errors
    ///
    /// Same as [`AdaptiveLane::submit_feedback`], plus
    /// [`ServeError::Durability`] on log failures.
    pub fn submit_feedback(&self, ticket: &Ticket, label: usize) -> ServeResult<()> {
        self.lane.submit_feedback(ticket, label)
    }

    /// Flushes now: fsyncs the log, applies the queued events, appends
    /// audit records for any adaptation activity, and checkpoints when the
    /// cadence is due.  Returns how many flows were served.
    ///
    /// # Errors
    ///
    /// [`ServeError::Durability`] when the log or a checkpoint cannot be
    /// written; if the log could not be synced the queued events stay
    /// queued (and stay in the WAL buffer), so the call can be retried.
    pub fn flush(&self) -> ServeResult<usize> {
        self.lane.flush()
    }

    /// Flushes if the oldest queued event has waited at least
    /// [`AdaptiveConfig::max_delay`]; returns the number of flows served.
    ///
    /// # Errors
    ///
    /// Same as [`DurableLane::flush`].
    pub fn poll(&self) -> ServeResult<usize> {
        self.lane.poll_checked()
    }

    /// Collects a ticket's verdict, durably flushing first if its flow is
    /// still queued (the write-ahead invariant covers every path that
    /// applies events, this one included).
    ///
    /// # Errors
    ///
    /// Same as [`AdaptiveLane::take`], plus [`ServeError::Durability`]
    /// when the forced flush cannot sync the log.
    pub fn take(&self, ticket: &Ticket) -> ServeResult<Verdict> {
        self.lane.take(ticket)
    }

    /// Non-blocking collect: the verdict if the flow has been served,
    /// `None` while it is still queued.
    ///
    /// # Errors
    ///
    /// Same as [`AdaptiveLane::try_take`].
    pub fn try_take(&self, ticket: &Ticket) -> ServeResult<Option<Verdict>> {
        self.lane.try_take(ticket)
    }

    /// Mints a ticket for a previously issued sequence number — the
    /// post-recovery path for feedback on flows whose original tickets
    /// died with the crashed process.
    pub fn reissue_ticket(&self, seq: u64) -> Ticket {
        self.lane.reissue_ticket(seq)
    }

    /// Publishes a sealed snapshot to the registry now (see
    /// [`AdaptiveLane::publish`]).
    ///
    /// # Errors
    ///
    /// Same as [`AdaptiveLane::publish`].
    pub fn publish(&self) -> ServeResult<u64> {
        self.lane.publish()
    }

    /// Seals a snapshot of the current model (the lane keeps adapting).
    pub fn seal_snapshot(&self) -> Detector {
        self.lane.seal_snapshot()
    }

    /// Cumulative prequential accuracy of the lane's labelled stream.
    pub fn prequential_accuracy(&self) -> f64 {
        self.lane.prequential_accuracy()
    }

    /// A point-in-time snapshot of the lane's counters.
    pub fn stats(&self) -> AdaptiveStats {
        self.lane.stats()
    }

    /// The lane's current open-set thresholds (`None` for a closed-set
    /// lane); see [`AdaptiveLane::thresholds_snapshot`].
    pub fn thresholds_snapshot(&self) -> Option<Vec<f32>> {
        self.lane.thresholds_snapshot()
    }

    /// The recalibration reservoir's entries and candidate counter; see
    /// [`AdaptiveLane::reservoir_snapshot`].
    pub fn reservoir_snapshot(&self) -> (Vec<(Vec<f32>, usize)>, u64) {
        self.lane.reservoir_snapshot()
    }

    /// Events logged so far (flows + feedback, durable or pending).
    pub fn events(&self) -> u64 {
        self.lane.journal_events().expect("a durable lane always has its journal")
    }
}

/// One decoded replayable WAL event.
struct LoggedEvent {
    index: u64,
    kind: EventKind,
}

enum EventKind {
    Flow {
        seq: u64,
        record: Vec<f32>,
        label: Option<usize>,
    },
    Feedback {
        seq: u64,
        label: usize,
    },
    /// A batched-feedback flush boundary; `index` is the event count the
    /// flush closed (everything below it was applied as of this marker).
    Boundary,
}

/// Decodes one WAL payload ([`Journal::record`]'s head, then the tag's
/// fields); `Ok(None)` for audit tags, an error for byte soup — never a
/// panic.
fn decode_event(payload: &[u8]) -> ServeResult<Option<LoggedEvent>> {
    let parse = |r: &mut Reader<'_>| -> CodecResult<Option<LoggedEvent>> {
        let tag = r.u8()?;
        if matches!(tag, TAG_DRIFT_TRIP | TAG_REGENERATION | TAG_PUBLISH | TAG_RECALIBRATION) {
            return Ok(None);
        }
        let index = r.u64()?;
        let kind = match tag {
            TAG_FLOW | TAG_FLOW_LABELLED => {
                let seq = r.u64()?;
                let label = if tag == TAG_FLOW_LABELLED { Some(r.usize()?) } else { None };
                EventKind::Flow { seq, label, record: r.f32_vec()? }
            }
            TAG_FEEDBACK => EventKind::Feedback { seq: r.u64()?, label: r.usize()? },
            TAG_BATCH_BOUNDARY => EventKind::Boundary,
            other => return Err(CodecError::Invalid(format!("unknown WAL record tag {other}"))),
        };
        if !r.is_exhausted() {
            return Err(CodecError::Invalid(format!(
                "{} trailing bytes after WAL record",
                r.remaining()
            )));
        }
        Ok(Some(LoggedEvent { index, kind }))
    };
    parse(&mut Reader::new(payload))
        .map_err(|e| ServeError::Durability(format!("malformed WAL record: {e}")))
}

/// The error for a replayed event the lane refused — the log and the
/// checkpoint disagree, which specific corruption CRCs cannot catch.
fn replay_err(index: u64, e: &ServeError) -> ServeError {
    ServeError::Durability(format!("WAL event {index} failed to replay: {e}"))
}

/// Serializes a checkpoint: `CYCK` + version + payload + CRC-32 trailer.
fn encode_checkpoint(config: &DurableConfig, events: u64, state: &LaneCheckpoint) -> Vec<u8> {
    hdc::codec::seal(CKPT_MAGIC, CKPT_VERSION, |w| write_checkpoint(w, config, events, state))
}

/// The payload of a checkpoint frame.
fn write_checkpoint(w: &mut Writer, config: &DurableConfig, events: u64, state: &LaneCheckpoint) {
    let a = &config.adaptive;
    w.usize(a.max_batch);
    w.u64(a.max_delay.as_nanos() as u64);
    w.usize(a.queue_capacity);
    w.usize(a.monitor.window);
    w.usize(a.monitor.min_observations);
    w.f64(a.monitor.error_delta);
    w.f64(a.monitor.unknown_surge);
    w.usize(a.monitor.cooldown);
    w.usize(a.retention);
    w.bool(a.regeneration_rate.is_some());
    w.f32(a.regeneration_rate.unwrap_or(0.0));
    w.usize(a.regeneration_rounds);
    w.bool(a.auto_publish);
    w.usize(a.reservoir_capacity);
    w.u64(a.reservoir_seed);
    w.f64(a.recalibration_quantile);
    w.bool(a.batched_feedback);
    w.u64(config.checkpoint_every);
    w.usize(config.keep_checkpoints);
    w.u64(events);
    w.str(&state.tenant);
    w.usize(state.detector_bytes.len());
    w.bytes(&state.detector_bytes);
    w.bool(state.thresholds.is_some());
    w.f32_slice(state.thresholds.as_deref().unwrap_or(&[]));
    state.monitor.write_to(w);
    w.u64(state.next_seq);
    w.usize(state.retained.len());
    for (seq, record) in &state.retained {
        w.u64(*seq);
        w.f32_slice(record);
    }
    w.bool(state.evicted_up_to.is_some());
    w.u64(state.evicted_up_to.unwrap_or(0));
    w.usize(state.reservoir.len());
    for (record, label) in &state.reservoir {
        w.f32_slice(record);
        w.usize(*label);
    }
    w.u64(state.reservoir_candidates);
    w.usize(state.seen);
    w.usize(state.prequential_correct);
    for counter in state.counters {
        w.u64(counter);
    }
}

/// Parses and validates a checkpoint file's bytes.
fn decode_checkpoint(bytes: &[u8]) -> CodecResult<(DurableConfig, u64, LaneCheckpoint)> {
    let r = &mut hdc::codec::unseal(bytes, "checkpoint", CKPT_MAGIC, CKPT_VERSION)?;
    let max_batch = r.usize()?;
    let max_delay = Duration::from_nanos(r.u64()?);
    let queue_capacity = r.usize()?;
    let monitor = crate::regeneration::DriftMonitorConfig {
        window: r.usize()?,
        min_observations: r.usize()?,
        error_delta: r.f64()?,
        unknown_surge: r.f64()?,
        cooldown: r.usize()?,
    };
    let retention = r.usize()?;
    let has_rate = r.bool()?;
    let rate = r.f32()?;
    let regeneration_rounds = r.usize()?;
    let auto_publish = r.bool()?;
    let reservoir_capacity = r.usize()?;
    let reservoir_seed = r.u64()?;
    let recalibration_quantile = r.f64()?;
    let batched_feedback = r.bool()?;
    let config = DurableConfig {
        adaptive: AdaptiveConfig {
            max_batch,
            max_delay,
            queue_capacity,
            monitor,
            retention,
            regeneration_rate: has_rate.then_some(rate),
            regeneration_rounds,
            auto_publish,
            reservoir_capacity,
            reservoir_seed,
            recalibration_quantile,
            batched_feedback,
        },
        checkpoint_every: r.u64()?,
        keep_checkpoints: r.usize()?,
    };
    let events = r.u64()?;
    let tenant = r.str()?;
    let detector_len = r.usize()?;
    let detector_bytes = r.take(detector_len)?.to_vec();
    let has_thresholds = r.bool()?;
    let thresholds = r.f32_vec()?;
    let monitor_state = crate::regeneration::DriftMonitor::read_from(r)?;
    let next_seq = r.u64()?;
    let retained_len = r.usize()?;
    let mut retained = Vec::with_capacity(retained_len.min(4096));
    for _ in 0..retained_len {
        let seq = r.u64()?;
        retained.push((seq, r.f32_vec()?));
    }
    let has_watermark = r.bool()?;
    let watermark = r.u64()?;
    let reservoir_len = r.usize()?;
    let mut reservoir = Vec::with_capacity(reservoir_len.min(4096));
    for _ in 0..reservoir_len {
        let record = r.f32_vec()?;
        reservoir.push((record, r.usize()?));
    }
    let reservoir_candidates = r.u64()?;
    let seen = r.usize()?;
    let prequential_correct = r.usize()?;
    let mut counters = [0u64; 9];
    for counter in &mut counters {
        *counter = r.u64()?;
    }
    if !r.is_exhausted() {
        return Err(CodecError::Invalid(format!(
            "{} trailing bytes inside checkpoint frame",
            r.remaining()
        )));
    }
    let state = LaneCheckpoint {
        tenant,
        detector_bytes,
        thresholds: has_thresholds.then_some(thresholds),
        monitor: monitor_state,
        next_seq,
        retained,
        evicted_up_to: has_watermark.then_some(watermark),
        reservoir,
        reservoir_candidates,
        seen,
        prequential_correct,
        counters,
    };
    Ok((config, events, state))
}

/// Checkpoint files in `dir`, **newest first** (the zero-padded event
/// count in the name makes lexical order chronological).
fn list_checkpoints(dir: &Path) -> ServeResult<Vec<PathBuf>> {
    let mut checkpoints = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(checkpoints),
        Err(e) => return Err(io_err("list checkpoints", dir, &e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err("list checkpoints", dir, &e))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("checkpoint-") && name.ends_with(".ckpt") {
            checkpoints.push(path);
        }
    }
    checkpoints.sort();
    checkpoints.reverse();
    Ok(checkpoints)
}

/// The event count encoded in a checkpoint file name, if well-formed.
fn checkpoint_events_of(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_string_lossy().into_owned();
    let digits = name.strip_prefix("checkpoint-")?.strip_suffix(".ckpt")?;
    digits.parse().ok()
}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> ServeError {
    ServeError::Durability(format!("{what} {}: {e}", path.display()))
}

/// Atomically writes `bytes` to `path`: a `<name>.tmp` sibling is written
/// and fsynced, renamed over `path`, and the directory entry synced
/// (best-effort — it makes the rename durable on crash-consistent
/// filesystems; the matrix tests inject file-level faults, not
/// directory-entry loss).
fn replace_file(path: &Path, bytes: &[u8]) -> ServeResult<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, bytes).map_err(|e| io_err("write", &tmp, &e))?;
    fs::File::open(&tmp).and_then(|f| f.sync_data()).map_err(|e| io_err("sync", &tmp, &e))?;
    fs::rename(&tmp, path).map_err(|e| io_err("publish", path, &e))?;
    if let Some(Ok(dir)) = path.parent().map(fs::File::open) {
        let _ = dir.sync_data();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nids_data::synth::SyntheticConfig;
    use nids_data::DatasetKind;

    fn dataset(samples: usize, seed: u64) -> nids_data::Dataset {
        DatasetKind::NslKdd
            .generate(&SyntheticConfig::new(samples, seed).difficulty(1.2))
            .expect("synthetic generation")
    }

    fn detector(data: &nids_data::Dataset, seed: u64) -> Detector {
        Detector::builder().dimension(96).retrain_epochs(1).seed(seed).train(data).unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cyberhd_durable_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_config() -> DurableConfig {
        DurableConfig {
            adaptive: AdaptiveConfig {
                max_batch: 8,
                retention: 32,
                monitor: crate::regeneration::DriftMonitorConfig {
                    window: 32,
                    min_observations: 16,
                    cooldown: 16,
                    ..Default::default()
                },
                ..AdaptiveConfig::default()
            },
            checkpoint_every: 64,
            keep_checkpoints: 2,
        }
    }

    #[test]
    fn durable_lane_round_trips_and_recovers_bit_identically() {
        let data = dataset(400, 53);
        let dir = temp_dir("roundtrip");
        let config = small_config();
        let lane =
            DurableLane::create(&dir, "t0", detector(&data, 3), config.clone(), None).unwrap();
        let oracle = AdaptiveLane::new("t0", detector(&data, 3), config.adaptive).unwrap();

        // Mixed labelled/unlabelled traffic plus some feedback.
        let mut fb = Vec::new();
        for (i, record) in data.records()[..150].iter().enumerate() {
            if i % 3 == 0 {
                lane.submit_labelled(record, data.labels()[i]).unwrap();
                oracle.submit_labelled(record, data.labels()[i]).unwrap();
            } else {
                fb.push((i, lane.submit(record).unwrap(), oracle.submit(record).unwrap()));
            }
            if i % 11 == 0 {
                if let Some((j, td, to)) = fb.pop() {
                    lane.submit_feedback(&td, data.labels()[j]).unwrap();
                    oracle.submit_feedback(&to, data.labels()[j]).unwrap();
                }
            }
        }
        lane.flush().unwrap();
        oracle.flush().unwrap();
        assert_eq!(
            lane.seal_snapshot().to_bytes(),
            oracle.seal_snapshot().to_bytes(),
            "durability wrapping must not change the model"
        );
        let events = lane.events();
        drop(lane); // clean "crash": everything flushed

        let (recovered, report) = DurableLane::recover(&dir, None).unwrap();
        assert_eq!(report.next_event, events);
        assert_eq!(report.checkpoints_skipped, 0);
        assert_eq!(
            recovered.seal_snapshot().to_bytes(),
            oracle.seal_snapshot().to_bytes(),
            "recovered model must be bit-identical"
        );

        // Both keep serving identically after recovery.
        for (i, record) in data.records()[150..300].iter().enumerate() {
            let label = data.labels()[150 + i];
            recovered.submit_labelled(record, label).unwrap();
            oracle.submit_labelled(record, label).unwrap();
        }
        recovered.flush().unwrap();
        oracle.flush().unwrap();
        assert_eq!(recovered.seal_snapshot().to_bytes(), oracle.seal_snapshot().to_bytes());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batched_lane_round_trips_and_recovery_discards_partial_batches() {
        let data = dataset(400, 83);
        let dir = temp_dir("batched");
        let mut config = small_config();
        config.adaptive.batched_feedback = true;
        let artifact = Detector::builder()
            .dimension(96)
            .retrain_epochs(1)
            .open_set(0.05)
            .seed(5)
            .train(&data)
            .unwrap();
        let lane = DurableLane::create(&dir, "t0", artifact.clone(), config.clone(), None).unwrap();
        let oracle = AdaptiveLane::new("t0", artifact, config.adaptive).unwrap();

        for (i, record) in data.records()[..160].iter().enumerate() {
            if i % 3 == 0 {
                lane.submit_labelled(record, data.labels()[i]).unwrap();
                oracle.submit_labelled(record, data.labels()[i]).unwrap();
            } else {
                lane.submit(record).unwrap();
                oracle.submit(record).unwrap();
            }
        }
        lane.flush().unwrap();
        oracle.flush().unwrap();
        let committed_model = oracle.seal_snapshot().to_bytes();
        let committed_thresholds = oracle.thresholds_snapshot();
        let committed_reservoir = oracle.reservoir_snapshot();

        drop(lane);
        let (recovered, report) = DurableLane::recover(&dir, None).unwrap();
        assert_eq!(report.next_event, 160);
        assert_eq!(
            recovered.seal_snapshot().to_bytes(),
            committed_model,
            "batched durability wrapping must not change the model"
        );
        assert_eq!(recovered.thresholds_snapshot(), committed_thresholds);
        assert_eq!(recovered.reservoir_snapshot(), committed_reservoir);

        // One more short batch, then tear its boundary record off the log:
        // batch-atomic recovery must discard the whole partial batch — the
        // intact flow records past the last boundary must not replay.
        for (i, record) in data.records()[160..167].iter().enumerate() {
            recovered.submit_labelled(record, data.labels()[160 + i]).unwrap();
        }
        recovered.flush().unwrap();
        drop(recovered);
        let wal_path = dir.join(WAL_FILE);
        let bytes = fs::read(&wal_path).unwrap();
        fs::write(&wal_path, &bytes[..bytes.len() - 2]).unwrap();

        let (reopened, report) = DurableLane::recover(&dir, None).unwrap();
        assert_eq!(report.next_event, 160, "a torn boundary must roll back the whole batch");
        assert_eq!(reopened.seal_snapshot().to_bytes(), committed_model);
        assert_eq!(reopened.thresholds_snapshot(), committed_thresholds);
        assert_eq!(reopened.reservoir_snapshot(), committed_reservoir);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn take_of_a_served_ticket_does_not_flush_unrelated_pending_events() {
        let data = dataset(400, 89);
        let dir = temp_dir("take_served");
        let mut config = small_config();
        config.adaptive.batched_feedback = true;
        let artifact = Detector::builder()
            .dimension(96)
            .retrain_epochs(1)
            .open_set(0.05)
            .seed(5)
            .train(&data)
            .unwrap();
        let lane = DurableLane::create(&dir, "t0", artifact.clone(), config.clone(), None).unwrap();
        let oracle = AdaptiveLane::new("t0", artifact, config.adaptive).unwrap();

        // Every round: 3 labelled flows + flush, 2 more left pending, then
        // `take` the three served tickets.  Collecting a served flow must
        // not cut a batch boundary around the unrelated pending pair — a
        // batched lane's model depends on where the boundaries fall, so a
        // durable lane that flushed there would diverge from the plain one.
        let mut flows = data.records().iter().zip(data.labels());
        let mut submit = || {
            let (record, &label) = flows.next().unwrap();
            let durable = lane.submit_labelled(record, label).unwrap();
            (durable, oracle.submit_labelled(record, label).unwrap())
        };
        let mut pending = Vec::new();
        for _ in 0..12 {
            let mut served: Vec<_> = std::mem::take(&mut pending);
            served.extend((0..3).map(|_| submit()));
            lane.flush().unwrap();
            oracle.flush().unwrap();
            pending.extend((0..2).map(|_| submit()));
            for (durable, plain) in &served {
                assert_eq!(lane.take(durable).unwrap(), oracle.take(plain).unwrap());
            }
            assert_eq!(lane.stats().queue_depth, 2, "the pending pair must stay queued");
        }
        lane.flush().unwrap();
        oracle.flush().unwrap();
        for (durable, plain) in &pending {
            assert_eq!(lane.take(durable).unwrap(), oracle.take(plain).unwrap());
        }
        assert_eq!(oracle.stats().batches, 13);
        assert_eq!(lane.stats().batches, 13, "the journal must not add flush boundaries");
        let sealed = oracle.seal_snapshot().to_bytes();
        assert_eq!(lane.seal_snapshot().to_bytes(), sealed);
        assert_eq!(lane.thresholds_snapshot(), oracle.thresholds_snapshot());

        // The logged boundaries are the plain lane's, so recovery replays
        // into the same model at the same batch count.
        drop(lane);
        let (recovered, report) = DurableLane::recover(&dir, None).unwrap();
        assert_eq!(report.next_event, 60);
        assert_eq!(recovered.stats().batches, 13);
        assert_eq!(recovered.seal_snapshot().to_bytes(), sealed);
        assert_eq!(recovered.thresholds_snapshot(), oracle.thresholds_snapshot());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replayable_wal_payloads_keep_their_byte_layout() {
        let data = dataset(300, 97);
        let dir = temp_dir("layout");
        let mut config = small_config();
        config.adaptive.batched_feedback = true;
        let lane = DurableLane::create(&dir, "t0", detector(&data, 3), config, None).unwrap();
        let (first, second) = (&data.records()[0], &data.records()[1]);
        let unlabelled = lane.submit(first).unwrap();
        lane.submit_labelled(second, 2).unwrap();
        lane.submit_feedback(&unlabelled, 1).unwrap();
        lane.flush().unwrap();

        // tag u8 | event u64 | seq u64 | [label u64] | [len u64 + f32 LE bits]
        let frame = |tag: u8, event: u64, seq: Option<u64>, label: Option<u64>, record: &[f32]| {
            let mut bytes = vec![tag];
            bytes.extend_from_slice(&event.to_le_bytes());
            for field in [seq, label].into_iter().flatten() {
                bytes.extend_from_slice(&field.to_le_bytes());
            }
            if !record.is_empty() {
                bytes.extend_from_slice(&(record.len() as u64).to_le_bytes());
                for value in record {
                    bytes.extend_from_slice(&value.to_bits().to_le_bytes());
                }
            }
            bytes
        };
        let expected = vec![
            frame(TAG_FLOW, 0, Some(0), None, first),
            frame(TAG_FLOW_LABELLED, 1, Some(1), Some(2), second),
            frame(TAG_FEEDBACK, 2, Some(0), Some(1), &[]),
            frame(TAG_BATCH_BOUNDARY, 3, None, None, &[]),
        ];
        assert_eq!((TAG_FLOW, TAG_FLOW_LABELLED, TAG_FEEDBACK, TAG_BATCH_BOUNDARY), (0, 1, 2, 7));
        let scan = wal::scan(&fs::read(dir.join("wal.log")).unwrap()).unwrap();
        let replayable: Vec<Vec<u8>> = scan
            .records
            .into_iter()
            .filter(|payload| matches!(payload[0], 0 | 1 | 2 | 7))
            .collect();
        assert_eq!(replayable, expected);
        let checkpoint = dir.join(format!("checkpoint-{:020}.ckpt", 0));
        assert!(checkpoint.exists(), "checkpoints are named checkpoint-<20 digits>.ckpt");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unflushed_events_are_lost_but_flushed_state_survives() {
        let data = dataset(300, 59);
        let dir = temp_dir("unflushed");
        let lane =
            DurableLane::create(&dir, "t0", detector(&data, 3), small_config(), None).unwrap();
        for (i, record) in data.records()[..40].iter().enumerate() {
            lane.submit_labelled(record, data.labels()[i]).unwrap();
        }
        lane.flush().unwrap();
        let durable_model = lane.seal_snapshot().to_bytes();
        // Three more events, never flushed: they exist only in memory.
        for (i, record) in data.records()[40..43].iter().enumerate() {
            lane.submit_labelled(record, data.labels()[40 + i]).unwrap();
        }
        drop(lane);

        let (recovered, report) = DurableLane::recover(&dir, None).unwrap();
        assert_eq!(report.next_event, 40, "unsynced events must not resurrect");
        assert_eq!(recovered.seal_snapshot().to_bytes(), durable_model);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_is_truncated_not_fatal() {
        let data = dataset(300, 61);
        let dir = temp_dir("torn");
        let lane =
            DurableLane::create(&dir, "t0", detector(&data, 3), small_config(), None).unwrap();
        for (i, record) in data.records()[..30].iter().enumerate() {
            lane.submit_labelled(record, data.labels()[i]).unwrap();
        }
        lane.flush().unwrap();
        drop(lane);

        // Tear the log mid-record.
        let wal_path = dir.join(WAL_FILE);
        let bytes = fs::read(&wal_path).unwrap();
        fs::write(&wal_path, &bytes[..bytes.len() - 7]).unwrap();

        let (recovered, report) = DurableLane::recover(&dir, None).unwrap();
        assert!(report.truncated_bytes > 0);
        assert!(report.next_event < 30);
        // The lane serves on; the torn-off event can simply be resubmitted.
        recovered.submit_labelled(&data.records()[29], data.labels()[29]).unwrap();
        recovered.flush().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_the_previous_one() {
        let data = dataset(400, 67);
        let dir = temp_dir("fallback");
        let mut config = small_config();
        config.checkpoint_every = 32;
        let lane = DurableLane::create(&dir, "t0", detector(&data, 3), config, None).unwrap();
        for (i, record) in data.records()[..200].iter().enumerate() {
            lane.submit_labelled(record, data.labels()[i]).unwrap();
        }
        lane.flush().unwrap();
        let sealed = lane.seal_snapshot().to_bytes();
        drop(lane);

        // Flip a byte inside the newest checkpoint.
        let newest = list_checkpoints(&dir).unwrap().remove(0);
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&newest, &bytes).unwrap();

        let (recovered, report) = DurableLane::recover(&dir, None).unwrap();
        assert_eq!(report.checkpoints_skipped, 1);
        assert!(report.events_replayed > 0, "older checkpoint forces a longer replay");
        assert_eq!(
            recovered.seal_snapshot().to_bytes(),
            sealed,
            "fallback recovery must still converge on the same model"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoints_are_pruned_and_the_wal_is_compacted() {
        let data = dataset(400, 71);
        let dir = temp_dir("compact");
        let mut config = small_config();
        config.checkpoint_every = 16;
        config.keep_checkpoints = 2;
        let lane = DurableLane::create(&dir, "t0", detector(&data, 3), config, None).unwrap();
        for (i, record) in data.records()[..200].iter().enumerate() {
            lane.submit_labelled(record, data.labels()[i]).unwrap();
        }
        lane.flush().unwrap();
        let checkpoints = list_checkpoints(&dir).unwrap();
        assert_eq!(checkpoints.len(), 2, "pruning must enforce keep_checkpoints");
        let wal_len = fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        let scan = wal::read_file(dir.join(WAL_FILE)).unwrap();
        let oldest_kept = checkpoint_events_of(&checkpoints[1]).unwrap();
        for record in &scan.records {
            if let Some(event) = decode_event(record).unwrap() {
                assert!(event.index >= oldest_kept, "compaction must drop covered records");
            }
        }
        assert!(wal_len < 1 << 20, "compacted log stays small");
        drop(lane);
        let (_recovered, report) = DurableLane::recover(&dir, None).unwrap();
        assert!(report.events_replayed <= 32, "replay length is bounded by the cadence");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_a_directory_that_already_holds_a_lane() {
        let data = dataset(300, 73);
        let dir = temp_dir("refuse");
        let lane =
            DurableLane::create(&dir, "t0", detector(&data, 3), small_config(), None).unwrap();
        drop(lane);
        let err =
            DurableLane::create(&dir, "t0", detector(&data, 3), small_config(), None).unwrap_err();
        assert!(matches!(err, ServeError::Durability(_)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_of_byte_soup_errors_instead_of_panicking() {
        let dir = temp_dir("soup");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(WAL_FILE), b"not a wal at all").unwrap();
        fs::write(dir.join("checkpoint-00000000000000000000.ckpt"), b"garbage").unwrap();
        let err = DurableLane::recover(&dir, None).unwrap_err();
        assert!(matches!(err, ServeError::Durability(_)));
        // And an empty directory has nothing to recover.
        fs::remove_dir_all(&dir).unwrap();
        let err = DurableLane::recover(&dir, None).unwrap_err();
        assert!(matches!(err, ServeError::Durability(_)));
    }

    #[test]
    fn recovered_tickets_can_be_reissued_for_feedback() {
        let data = dataset(300, 79);
        let dir = temp_dir("reissue");
        let lane =
            DurableLane::create(&dir, "t0", detector(&data, 3), small_config(), None).unwrap();
        let ticket = lane.submit(&data.records()[0]).unwrap();
        lane.flush().unwrap();
        let seq = ticket.seq();
        drop(lane);

        let (recovered, report) = DurableLane::recover(&dir, None).unwrap();
        assert_eq!(report.verdicts.len(), 1, "replayed verdicts come back through the report");
        assert_eq!(report.verdicts[0].0, seq);
        let reissued = recovered.reissue_ticket(seq);
        recovered.submit_feedback(&reissued, data.labels()[0]).unwrap();
        recovered.flush().unwrap();
        assert_eq!(recovered.stats().feedback_applied, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_codec_rejects_corruption() {
        let data = dataset(300, 83);
        let dir = temp_dir("ckpt_codec");
        let lane =
            DurableLane::create(&dir, "t0", detector(&data, 3), small_config(), None).unwrap();
        for (i, record) in data.records()[..20].iter().enumerate() {
            lane.submit_labelled(record, data.labels()[i]).unwrap();
        }
        lane.flush().unwrap();
        drop(lane);
        let newest = list_checkpoints(&dir).unwrap().remove(0);
        let bytes = fs::read(&newest).unwrap();
        assert!(decode_checkpoint(&bytes).is_ok());
        // Every single-byte truncation fails cleanly.
        for cut in [1usize, 4, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_checkpoint(&bytes[..cut]).is_err(), "truncation at {cut} must fail");
        }
        // Any byte flip fails: the magic, the version or the CRC.
        for at in [0usize, 5, bytes.len() / 3, bytes.len() - 2] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            assert!(decode_checkpoint(&bad).is_err(), "byte flip at {at} must fail");
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
