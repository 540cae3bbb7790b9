//! The frozen-artifact micro-batcher: per-tenant lanes, [`ServeEngine`]
//! and its [`ServeStats`] (see the [`crate::serve`] module docs).

use super::desk::TicketDesk;
use super::{DetectorRegistry, ServeConfig, ServeError, ServeResult, Ticket};
use crate::detector::{Detector, Verdict};
use crate::CyberHdError;
use eval::timing::LatencyHistogram;
use hdc::BatchBuffer;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// A tenant's micro-batch lane: its ticket desk, the reusable
/// preprocessed-row buffer with the submit timestamps of the flows riding
/// it, and the artifact generation the rows were admitted under.
#[derive(Debug)]
struct Lane {
    desk: TicketDesk,
    /// Set (under the lane mutex) when the lane is removed from the
    /// engine's map: a submitter that raced the eviction and still holds
    /// the orphaned `Arc` re-resolves instead of enqueueing into a lane
    /// nothing will ever flush.
    evicted: bool,
    /// Artifact the pending rows were preprocessed by and will score on,
    /// plus its registry **generation**; `None` while the lane is empty.
    /// Pinning per batch is what makes a registry swap atomic from the
    /// lane's point of view, and generations (registry-unique, never
    /// reused) make the pin check immune to a remove + re-register under
    /// the same tenant id.
    pinned: Option<(Detector, u64)>,
    /// Preprocessed pending rows (reused across flushes — after warm-up
    /// the accumulate→flush cycle allocates nothing).
    buffer: BatchBuffer,
    /// Submit timestamp of every pending row, oldest first.
    pending: Vec<Instant>,
    /// `batch_sizes[n]` counts flushes of exactly `n` flows
    /// (index 0 unused; sized `max_batch + 1`).
    batch_sizes: Vec<u64>,
}

/// A point-in-time snapshot of one tenant's serving counters.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Tenant id.
    pub tenant: String,
    /// Version of the artifact new submissions are routed to.
    pub detector_version: u64,
    /// Flows accepted by [`ServeEngine::submit`].
    pub flows_submitted: u64,
    /// Flows scored through flushed micro-batches.
    pub flows_served: u64,
    /// Submissions rejected by backpressure.
    pub rejected: u64,
    /// Pending flows waiting for the next flush.
    pub queue_depth: usize,
    /// Completed verdicts not yet collected through their tickets.
    pub uncollected: usize,
    /// Micro-batches flushed.
    pub batches: u64,
    /// `(batch size, flush count)` pairs, non-zero entries only.
    pub batch_size_histogram: Vec<(usize, u64)>,
    /// Mean submit→verdict latency.
    pub mean_latency: Duration,
    /// Median submit→verdict latency.
    pub p50_latency: Duration,
    /// 99th-percentile submit→verdict latency.
    pub p99_latency: Duration,
    /// Worst observed submit→verdict latency.
    pub max_latency: Duration,
    /// The full submit→verdict latency histogram the percentiles above
    /// were read from — carried in the snapshot so stats from different
    /// lanes (or shards) can be folded together without losing percentile
    /// fidelity ([`ServeStats::merge`], [`LatencyHistogram::merge`]).
    pub latency: LatencyHistogram,
}

impl ServeStats {
    /// Mean flows per flushed micro-batch (`0.0` before the first flush).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.flows_served as f64 / self.batches as f64
    }

    /// Folds `other` into this snapshot — the cross-lane / cross-shard
    /// aggregation behind [`super::shard::ShardedServeEngine::fleet_stats`].
    ///
    /// Counters add, the batch-size and latency histograms merge
    /// bucket-wise, and the latency summary fields (mean/p50/p99/max) are
    /// recomputed from the merged histogram, so aggregated percentiles
    /// are exactly what a single lane observing the union of both latency
    /// streams would have reported.  `detector_version` is kept only when
    /// both sides agree (a fleet of mixed versions reports `0`).
    pub fn merge(&mut self, other: &ServeStats) {
        self.flows_submitted += other.flows_submitted;
        self.flows_served += other.flows_served;
        self.rejected += other.rejected;
        self.queue_depth += other.queue_depth;
        self.uncollected += other.uncollected;
        self.batches += other.batches;
        if self.detector_version != other.detector_version {
            self.detector_version = 0;
        }
        for &(size, count) in &other.batch_size_histogram {
            match self.batch_size_histogram.iter_mut().find(|(s, _)| *s == size) {
                Some((_, own)) => *own += count,
                None => self.batch_size_histogram.push((size, count)),
            }
        }
        self.batch_size_histogram.sort_unstable_by_key(|&(size, _)| size);
        self.latency.merge(&other.latency);
        self.mean_latency = self.latency.mean();
        self.p50_latency = self.latency.percentile(0.50);
        self.p99_latency = self.latency.percentile(0.99);
        self.max_latency = self.latency.max();
    }
}

impl fmt::Display for ServeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: v{}, {} served / {} submitted ({} rejected), depth {} (+{} uncollected), {} \
             batches (mean {:.1}), latency mean {:?} p50 {:?} p99 {:?} max {:?}",
            self.tenant,
            self.detector_version,
            self.flows_served,
            self.flows_submitted,
            self.rejected,
            self.queue_depth,
            self.uncollected,
            self.batches,
            self.mean_batch_size(),
            self.mean_latency,
            self.p50_latency,
            self.p99_latency,
            self.max_latency,
        )
    }
}

/// The micro-batching serving engine (see the [module docs](super)).
///
/// All methods take `&self`: lanes sit behind per-tenant mutexes, so
/// concurrent sources can submit to different tenants fully in parallel
/// (and to the same tenant under one short critical section per flow).
#[derive(Debug)]
pub struct ServeEngine {
    registry: Arc<DetectorRegistry>,
    config: ServeConfig,
    lanes: RwLock<HashMap<Arc<str>, Arc<Mutex<Lane>>>>,
    /// Queued work across every lane: pending flows plus uncollected
    /// verdicts.  Maintained as a lock-free counter so admission control
    /// ([`admission::AdmissionController`]) can read a shard's occupancy
    /// without touching the lane map.
    outstanding: AtomicUsize,
}

impl ServeEngine {
    /// Creates an engine routing through `registry`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for inconsistent watermarks.
    pub fn new(registry: Arc<DetectorRegistry>, config: ServeConfig) -> ServeResult<Self> {
        config.validate()?;
        Ok(Self {
            registry,
            config,
            lanes: RwLock::new(HashMap::new()),
            outstanding: AtomicUsize::new(0),
        })
    }

    /// Queued work across every lane of this engine: pending flows plus
    /// completed-but-uncollected verdicts.  The overload signal admission
    /// control reads per submission — a relaxed atomic load, no locks.
    pub fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// The registry this engine routes through.
    pub fn registry(&self) -> &Arc<DetectorRegistry> {
        &self.registry
    }

    /// The engine's watermark configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The tenant's lane, created on first use.
    fn lane(&self, tenant: &str) -> ServeResult<Arc<Mutex<Lane>>> {
        if let Some(lane) = self.lanes.read().expect("lanes lock").get(tenant) {
            return Ok(Arc::clone(lane));
        }
        // Creating a lane requires the tenant to be registered; racing
        // creators converge on whichever entry lands first.
        let (detector, _) =
            self.registry.pin(tenant).ok_or_else(|| ServeError::UnknownTenant(tenant.into()))?;
        let width = detector.preprocessor().output_width();
        let mut lanes = self.lanes.write().expect("lanes lock");
        let key: Arc<str> = tenant.into();
        let lane = lanes.entry(Arc::clone(&key)).or_insert_with(|| {
            Arc::new(Mutex::new(Lane {
                desk: TicketDesk::new(key, self.config.queue_capacity, self.config.max_delay),
                evicted: false,
                pinned: None,
                buffer: BatchBuffer::with_width(width).expect("output width is non-zero"),
                pending: Vec::new(),
                batch_sizes: vec![0; self.config.max_batch + 1],
            }))
        });
        Ok(Arc::clone(lane))
    }

    /// Submits one raw flow record for `tenant`, returning a [`Ticket`]
    /// for its verdict.
    ///
    /// The record is preprocessed immediately (allocation-free, into the
    /// lane's reusable row buffer) against the artifact the current
    /// micro-batch is pinned to; if the registry swapped since the batch
    /// started, the old batch is first flushed **on its old artifact** and
    /// this flow starts a new batch on the new one.  Reaching `max_batch`
    /// pending flows flushes inline.
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownTenant`] — tenant not registered,
    /// * [`ServeError::Backpressure`] — bounded queue full (flow dropped),
    /// * [`ServeError::Rejected`] — record failed schema validation (flow
    ///   dropped, queue intact).
    pub fn submit(&self, tenant: &str, record: &[f32]) -> ServeResult<Ticket> {
        self.submit_counted(tenant, record).map(|(ticket, _)| ticket)
    }

    /// [`ServeEngine::submit`], additionally reporting how many flows are
    /// pending in the tenant's lane **after** this submission (`0` when
    /// the submission itself filled and flushed the batch).  A sharded
    /// engine uses the count to arm exactly one deadline per in-flight
    /// batch: the flow that takes a lane from empty to non-empty (count 1)
    /// starts the batch's `max_delay` clock.
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::submit`].
    pub(crate) fn submit_counted(
        &self,
        tenant: &str,
        record: &[f32],
    ) -> ServeResult<(Ticket, usize)> {
        // Re-resolve if an eviction raced between looking the lane up and
        // locking it — enqueueing into an orphaned lane would strand the
        // flow (nothing ever flushes an evicted lane).
        loop {
            let lane = self.lane(tenant)?;
            let mut lane = lane.lock().expect("lane lock");
            if lane.evicted {
                continue;
            }
            let ticket = self.submit_locked(&mut lane, tenant, record)?;
            return Ok((ticket, lane.pending.len()));
        }
    }

    /// [`ServeEngine::submit`] against an already locked, live lane.
    fn submit_locked(&self, lane: &mut Lane, tenant: &str, record: &[f32]) -> ServeResult<Ticket> {
        // Route: a generation change (swap, or remove + re-register) seals
        // the in-flight batch on its pinned (old) artifact.  The steady
        // state reads only the generation — no artifact `Arc` is cloned
        // and nothing allocates until the lane needs a new pin.
        let generation = self
            .registry
            .generation(tenant)
            .ok_or_else(|| ServeError::UnknownTenant(tenant.into()))?;
        if lane.pinned.as_ref().is_some_and(|(_, pinned)| *pinned != generation) {
            flush_lane(lane);
        }

        lane.desk.admit(lane.pending.len())?;

        if lane.pinned.is_none() {
            // Re-read atomically with the artifact: a swap racing between
            // the generation read above and here just means this batch pins
            // the newer generation, which is equally consistent.
            let (current, generation) = self
                .registry
                .pin(tenant)
                .ok_or_else(|| ServeError::UnknownTenant(tenant.into()))?;
            let width = current.preprocessor().output_width();
            if lane.buffer.width() != width {
                // The admission check pins the width across swaps, but a
                // remove + re-register legally changes it; restart the
                // buffer rather than serving through a stale shape.
                lane.buffer = BatchBuffer::with_width(width).expect("output width is non-zero");
            }
            lane.pinned = Some((current, generation));
        }
        let (detector, _) = lane.pinned.as_ref().expect("pinned above");

        let row = lane.buffer.push_row();
        if let Err(e) = detector.preprocessor().transform_record_into(record, row) {
            lane.buffer.pop_row();
            return Err(ServeError::Rejected(CyberHdError::Data(e)));
        }
        let ticket = lane.desk.issue();
        lane.pending.push(Instant::now());
        self.outstanding.fetch_add(1, Ordering::Relaxed);

        if lane.pending.len() >= self.config.max_batch {
            flush_lane(lane);
        }
        Ok(ticket)
    }

    /// Flushes `tenant`'s pending flows now, returning how many were
    /// scored.  A registered tenant with no serving state yet flushes
    /// zero flows (no lane is created).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownTenant`] for an unregistered tenant
    /// with no lane.
    pub fn flush(&self, tenant: &str) -> ServeResult<usize> {
        if let Some(lane) = self.existing_lane(tenant) {
            let mut lane = lane.lock().expect("lane lock");
            // An eviction racing this lookup orphaned the lane; scoring
            // its batch would bury the verdicts forever.
            if !lane.evicted {
                return Ok(flush_lane(&mut lane));
            }
        }
        if self.registry.generation(tenant).is_some() {
            Ok(0)
        } else {
            Err(ServeError::UnknownTenant(tenant.into()))
        }
    }

    /// Flushes every lane whose **oldest** pending flow has waited at
    /// least `max_delay`, returning the number of flows scored.  Callers
    /// drive this from their event loop (or a timer thread); between
    /// submissions it is the only thing that needs to run.
    ///
    /// Doubles as the engine's housekeeping pass: lanes whose tenant has
    /// been removed from the registry are evicted (see
    /// [`ServeEngine::evict`]) instead of lingering for the life of the
    /// engine.
    pub fn poll(&self) -> usize {
        let now = Instant::now();
        self.snapshot_lanes().iter().map(|(key, lane)| self.poll_lane(key, lane, now)).sum()
    }

    /// [`ServeEngine::poll`] for a **single** tenant — the targeted form a
    /// sharded engine's flusher drives when this tenant's batch deadline
    /// fires, so a deadline touches one lane instead of scanning the whole
    /// map.  Returns the number of flows scored: `0` means the deadline
    /// was stale (no lane, an evicted or empty one, or a younger batch).
    pub(crate) fn poll_tenant(&self, tenant: &str) -> usize {
        match self.existing_lane(tenant) {
            Some(lane) => self.poll_lane(tenant, &lane, Instant::now()),
            None => 0,
        }
    }

    /// The `max_delay` check on one lane: flushes it if its oldest pending
    /// flow has waited at least `max_delay`, returning the number of flows
    /// scored.  A lane whose tenant left the registry is evicted.
    fn poll_lane(&self, tenant: &str, lane: &Mutex<Lane>, now: Instant) -> usize {
        if self.registry.generation(tenant).is_none() {
            self.evict_if(tenant, || self.registry.generation(tenant).is_none());
            return 0;
        }
        let mut lane = lane.lock().expect("lane lock");
        // An eviction that raced the caller's lookup orphaned the lane:
        // scoring it would bury its verdicts (no ticket can collect from
        // an evicted lane), and evict() already honoured the "outstanding
        // tickets fail" guarantee.
        if lane.evicted {
            return 0;
        }
        match lane.pending.first() {
            Some(&oldest) if now.duration_since(oldest) >= self.config.max_delay => {
                flush_lane(&mut lane)
            }
            _ => 0,
        }
    }

    /// Drops `tenant`'s lane — its reusable buffer, **pending flows and
    /// uncollected verdicts included**; outstanding tickets fail with
    /// [`ServeError::UnknownTenant`] (unregistered) or
    /// [`ServeError::UnknownTicket`] afterwards.  Call after
    /// [`DetectorRegistry::remove`] to release the tenant's serving state
    /// (or let the next [`ServeEngine::poll`] do it).  Returns whether a
    /// lane existed.
    pub fn evict(&self, tenant: &str) -> bool {
        self.evict_if(tenant, || true)
    }

    /// Removes `tenant`'s lane if `condition` holds **under the map's
    /// write lock** — housekeeping re-checks there that the tenant is still
    /// unregistered, so a concurrent re-register + submit cannot have its
    /// live lane swept away.  Returns whether a lane was removed.
    fn evict_if(&self, tenant: &str, condition: impl FnOnce() -> bool) -> bool {
        let mut lanes = self.lanes.write().expect("lanes lock");
        if !condition() {
            return false;
        }
        let Some(lane) = lanes.remove(tenant) else {
            return false;
        };
        // Flag under the lane mutex (inside the map's write lock, so no
        // new lookup can hand the orphan out): a submitter that already
        // holds this Arc re-resolves instead of enqueueing into a lane
        // nothing will ever flush.
        let mut lane = lane.lock().expect("lane lock");
        lane.evicted = true;
        self.outstanding.fetch_sub(lane.pending.len() + lane.desk.uncollected(), Ordering::Relaxed);
        true
    }

    /// Flushes every lane unconditionally, fanning the per-tenant flushes
    /// out across worker threads ([`hdc::parallel::for_each_task`] on
    /// [`hdc::parallel::engine_threads`]) — batches of different tenants are
    /// independent, so the fan-out cannot affect any verdict.  Returns the
    /// number of flows scored.
    pub fn flush_all(&self) -> usize {
        let lanes = self.snapshot_lanes();
        let served = AtomicUsize::new(0);
        let threads = hdc::parallel::engine_threads().min(lanes.len().max(1));
        hdc::parallel::for_each_task(lanes, threads, |(_, lane)| {
            let mut lane = lane.lock().expect("lane lock");
            if lane.evicted {
                // Same eviction race as poll(): never score an orphan.
                return;
            }
            let n = flush_lane(&mut lane);
            served.fetch_add(n, Ordering::Relaxed);
        });
        served.into_inner()
    }

    /// The tenant's lane if one exists — the non-creating lookup the
    /// collect/flush paths use, so read-only calls never materialize
    /// serving state (and never resurrect an evicted lane).
    fn existing_lane(&self, tenant: &str) -> Option<Arc<Mutex<Lane>>> {
        self.lanes.read().expect("lanes lock").get(tenant).map(Arc::clone)
    }

    /// The error for an operation on a tenant with no lane: tickets of a
    /// registered tenant are simply unknown (nothing was ever queued, or
    /// the lane was evicted); an unregistered tenant is the bigger
    /// problem, reported as such.
    fn no_lane_error(&self, tenant: &str) -> ServeError {
        if self.registry.generation(tenant).is_some() {
            ServeError::UnknownTicket
        } else {
            ServeError::UnknownTenant(tenant.into())
        }
    }

    /// Non-blocking collect: the verdict if the ticket's batch has
    /// flushed, `None` if the flow is still pending.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownTicket`] for a foreign,
    /// already-collected or evicted ticket and
    /// [`ServeError::UnknownTenant`] when the tenant is not registered.
    pub fn try_take(&self, ticket: &Ticket) -> ServeResult<Option<Verdict>> {
        self.collect(ticket, false)
    }

    /// Collects a ticket's verdict, flushing its batch first if the flow
    /// is still pending (the synchronous caller's "I need this one now").
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownTicket`] for a foreign,
    /// already-collected or evicted ticket and
    /// [`ServeError::UnknownTenant`] when the tenant is not registered.
    pub fn take(&self, ticket: &Ticket) -> ServeResult<Verdict> {
        self.collect(ticket, true)?.ok_or(ServeError::UnknownTicket)
    }

    /// Asks the lane's desk for `ticket`'s verdict, flushing the batch
    /// first when `flush_pending` and the flow is still queued.
    fn collect(&self, ticket: &Ticket, flush_pending: bool) -> ServeResult<Option<Verdict>> {
        let lane =
            self.existing_lane(&ticket.tenant).ok_or_else(|| self.no_lane_error(&ticket.tenant))?;
        let mut lane = lane.lock().expect("lane lock");
        if lane.evicted {
            // Evicted lanes honour evict()'s "outstanding tickets fail"
            // guarantee even when the collect raced the eviction.
            return Err(ServeError::UnknownTicket);
        }
        let mut verdict = lane.desk.collect(ticket)?;
        if flush_pending && verdict.is_none() {
            flush_lane(&mut lane);
            verdict = lane.desk.collect(ticket)?;
        }
        if verdict.is_some() {
            self.outstanding.fetch_sub(1, Ordering::Relaxed);
        }
        Ok(verdict)
    }

    /// A snapshot of `tenant`'s serving counters, or `None` before its
    /// first submission.
    pub fn stats(&self, tenant: &str) -> Option<ServeStats> {
        let lane = self.existing_lane(tenant)?;
        let version = self.registry.version(tenant).unwrap_or(0);
        let lane = lane.lock().expect("lane lock");
        let stats = &lane.desk;
        Some(ServeStats {
            tenant: tenant.to_string(),
            detector_version: version,
            flows_submitted: stats.flows_submitted,
            flows_served: stats.flows_served,
            rejected: stats.rejected,
            queue_depth: lane.pending.len(),
            uncollected: stats.uncollected(),
            batches: stats.batches,
            batch_size_histogram: lane
                .batch_sizes
                .iter()
                .enumerate()
                .filter(|(_, &count)| count > 0)
                .map(|(size, &count)| (size, count))
                .collect(),
            mean_latency: stats.latency.mean(),
            p50_latency: stats.latency.percentile(0.50),
            p99_latency: stats.latency.percentile(0.99),
            max_latency: stats.latency.max(),
            latency: stats.latency.clone(),
        })
    }

    /// Every lane currently known to the engine, with its tenant id.
    fn snapshot_lanes(&self) -> Vec<(Arc<str>, Arc<Mutex<Lane>>)> {
        let lanes = self.lanes.read().expect("lanes lock");
        lanes.iter().map(|(key, lane)| (Arc::clone(key), Arc::clone(lane))).collect()
    }

    /// Tenant ids with serving state on this engine (the stats fan-out
    /// key set — distinct from [`DetectorRegistry::tenants`], which lists
    /// registrations whether or not they ever submitted).
    pub(super) fn lane_keys(&self) -> Vec<Arc<str>> {
        self.lanes.read().expect("lanes lock").keys().map(Arc::clone).collect()
    }
}

/// Scores a lane's pending micro-batch on its pinned artifact and files
/// the verdicts under their tickets.  Returns the number of flows scored.
///
/// Infallible by construction: rows were validated at submit time, the
/// buffer width matches the pinned artifact, and scoring a well-shaped
/// view cannot fail.
fn flush_lane(lane: &mut Lane) -> usize {
    if lane.pending.is_empty() {
        // Unpin even with nothing to score: a rejected first flow can
        // leave an empty lane pinned, and a stale pin surviving this
        // flush would let post-swap submissions skip the re-pin (and the
        // buffer-width restart) and score on the superseded artifact.
        lane.pinned = None;
        return 0;
    }
    let (detector, _) = lane.pinned.as_ref().expect("non-empty lanes are pinned");
    let verdicts = detector
        .detect_preprocessed(lane.buffer.view())
        .expect("pending rows were validated at submit time");
    debug_assert_eq!(verdicts.len(), lane.pending.len());
    let now = Instant::now();
    let size = lane.pending.len();
    for (submitted, verdict) in lane.pending.drain(..).zip(verdicts) {
        lane.desk.file(verdict, now.duration_since(submitted));
    }
    lane.buffer.clear();
    lane.pinned = None;
    lane.desk.batches += 1;
    // Sizes are capped at max_batch by the submit-time flush; guard
    // anyway so a future policy change cannot index out of bounds.
    let bucket = size.min(lane.batch_sizes.len() - 1);
    lane.batch_sizes[bucket] += 1;
    size
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{dataset, detector};
    use super::*;

    fn engine_with(data: &nids_data::Dataset, config: ServeConfig) -> ServeEngine {
        let registry = Arc::new(DetectorRegistry::new());
        registry.register("t0", detector(data, 5)).unwrap();
        ServeEngine::new(registry, config).unwrap()
    }

    #[test]
    fn config_watermarks_are_validated() {
        let registry = Arc::new(DetectorRegistry::new());
        let bad = ServeConfig { max_batch: 0, ..ServeConfig::default() };
        assert!(matches!(
            ServeEngine::new(Arc::clone(&registry), bad),
            Err(ServeError::InvalidConfig(_))
        ));
        let bad = ServeConfig { max_batch: 64, queue_capacity: 8, ..ServeConfig::default() };
        assert!(matches!(ServeEngine::new(registry, bad), Err(ServeError::InvalidConfig(_))));
    }

    #[test]
    fn submit_flush_take_round_trip_matches_detect() {
        let data = dataset(300, 3);
        let engine = engine_with(&data, ServeConfig::default());
        let oracle = engine.registry().current("t0").unwrap().0;
        let records: Vec<Vec<f32>> = data.records()[..10].to_vec();
        let expected = oracle.detect_batch(&records).unwrap();

        let tickets: Vec<Ticket> =
            records.iter().map(|r| engine.submit("t0", r).unwrap()).collect();
        assert_eq!(engine.stats("t0").unwrap().queue_depth, 10);
        assert!(engine.try_take(&tickets[0]).unwrap().is_none(), "still pending");
        assert_eq!(engine.flush("t0").unwrap(), 10);
        for (ticket, want) in tickets.iter().zip(&expected) {
            assert_eq!(engine.try_take(ticket).unwrap(), Some(*want));
        }
        // Second collect of the same ticket fails.
        assert!(matches!(engine.try_take(&tickets[0]), Err(ServeError::UnknownTicket)));
        let stats = engine.stats("t0").unwrap();
        assert_eq!(stats.flows_served, 10);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batch_size_histogram, vec![(10, 1)]);
        assert_eq!(stats.uncollected, 0);
        assert!(stats.p99_latency >= stats.p50_latency);
    }

    #[test]
    fn max_batch_watermark_flushes_inline_and_take_forces_a_flush() {
        let data = dataset(300, 7);
        let config = ServeConfig { max_batch: 4, ..ServeConfig::default() };
        let engine = engine_with(&data, config);
        let mut tickets = Vec::new();
        for record in &data.records()[..9] {
            tickets.push(engine.submit("t0", record).unwrap());
        }
        let stats = engine.stats("t0").unwrap();
        assert_eq!(stats.batches, 2, "two full batches flushed inline");
        assert_eq!(stats.queue_depth, 1);
        assert_eq!(stats.batch_size_histogram, vec![(4, 2)]);
        // Taking the straggler forces its batch out.
        let verdict = engine.take(&tickets[8]).unwrap();
        let oracle = engine.registry().current("t0").unwrap().0;
        assert_eq!(verdict, oracle.detect_batch(&data.records()[8..9]).unwrap()[0]);
        assert_eq!(engine.stats("t0").unwrap().queue_depth, 0);
    }

    #[test]
    fn poll_honours_the_max_delay_watermark() {
        let data = dataset(300, 9);
        let config = ServeConfig { max_delay: Duration::from_millis(1), ..ServeConfig::default() };
        let engine = engine_with(&data, config);
        let ticket = engine.submit("t0", &data.records()[0]).unwrap();
        assert_eq!(engine.poll(), 0, "not yet expired");
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(engine.poll(), 1);
        assert!(engine.try_take(&ticket).unwrap().is_some());
    }

    #[test]
    fn unknown_tenants_and_foreign_tickets_are_rejected() {
        let data = dataset(300, 11);
        let engine = engine_with(&data, ServeConfig::default());
        assert!(matches!(
            engine.submit("nope", &data.records()[0]),
            Err(ServeError::UnknownTenant(_))
        ));
        assert!(matches!(engine.flush("nope"), Err(ServeError::UnknownTenant(_))));
        let foreign = Ticket { tenant: "t0".into(), lane: 0, seq: 999 };
        engine.submit("t0", &data.records()[0]).unwrap();
        assert!(matches!(engine.take(&foreign), Err(ServeError::UnknownTicket)));
    }

    #[test]
    fn malformed_records_are_rejected_without_corrupting_the_lane() {
        let data = dataset(300, 13);
        let engine = engine_with(&data, ServeConfig::default());
        let good = engine.submit("t0", &data.records()[0]).unwrap();
        // Wrong arity: rejected, lane intact.
        assert!(matches!(
            engine.submit("t0", &[0.0, 1.0]),
            Err(ServeError::Rejected(CyberHdError::Data(_)))
        ));
        let oracle = engine.registry().current("t0").unwrap().0;
        assert_eq!(
            engine.take(&good).unwrap(),
            oracle.detect_batch(&data.records()[..1]).unwrap()[0]
        );
    }

    #[test]
    fn remove_and_reregister_cannot_alias_the_old_artifact() {
        let data = dataset(300, 17);
        let registry = Arc::new(DetectorRegistry::new());
        registry.register("t0", detector(&data, 1)).unwrap();
        let engine = ServeEngine::new(Arc::clone(&registry), ServeConfig::default()).unwrap();

        // Pin a batch on the original artifact, then remove + re-register
        // under the same id (version restarts at 1, but generations are
        // registry-unique, so the lane must notice).
        let old_ticket = engine.submit("t0", &data.records()[0]).unwrap();
        registry.remove("t0").unwrap();
        let replacement = detector(&data, 2);
        registry.register("t0", replacement.clone()).unwrap();

        let new_ticket = engine.submit("t0", &data.records()[1]).unwrap();
        engine.flush("t0").unwrap();
        // The in-flight flow finished on the removed artifact; the one
        // admitted after the re-register scored on the replacement.
        assert!(engine.take(&old_ticket).is_ok());
        assert_eq!(
            engine.take(&new_ticket).unwrap(),
            replacement.detect_batch(&data.records()[1..2]).unwrap()[0],
            "post-re-register submissions must score on the replacement artifact"
        );
    }

    #[test]
    fn removed_tenants_lanes_are_evicted() {
        let data = dataset(300, 19);
        let registry = Arc::new(DetectorRegistry::new());
        registry.register("t0", detector(&data, 1)).unwrap();
        let engine = ServeEngine::new(Arc::clone(&registry), ServeConfig::default()).unwrap();
        let ticket = engine.submit("t0", &data.records()[0]).unwrap();

        registry.remove("t0").unwrap();
        // Housekeeping drops the orphaned lane (pending flow included).
        engine.poll();
        assert!(!engine.evict("t0"), "poll already evicted the lane");
        assert!(engine.stats("t0").is_none());
        assert!(matches!(engine.take(&ticket), Err(ServeError::UnknownTenant(_))));
        assert!(matches!(
            engine.submit("t0", &data.records()[0]),
            Err(ServeError::UnknownTenant(_))
        ));

        // Explicit eviction works without a poll, too.
        registry.register("t0", detector(&data, 2)).unwrap();
        engine.submit("t0", &data.records()[0]).unwrap();
        assert!(engine.evict("t0"));
        assert!(engine.stats("t0").is_none());
    }

    #[test]
    fn stale_tickets_cannot_collect_a_recreated_lanes_recycled_seq() {
        let data = dataset(300, 29);
        let registry = Arc::new(DetectorRegistry::new());
        registry.register("t0", detector(&data, 1)).unwrap();
        let engine = ServeEngine::new(Arc::clone(&registry), ServeConfig::default()).unwrap();

        // Ticket A (seq 0) from the original lane, never collected.
        let stale = engine.submit("t0", &data.records()[0]).unwrap();
        registry.remove("t0").unwrap();
        engine.evict("t0");

        // Recreated lane reissues seq 0 to a different flow.
        registry.register("t0", detector(&data, 2)).unwrap();
        let fresh = engine.submit("t0", &data.records()[1]).unwrap();
        assert_eq!(fresh.seq(), stale.seq(), "the recreated lane recycles sequence numbers");
        engine.flush("t0").unwrap();

        // The stale ticket must not collect (and thereby consume) the
        // fresh flow's verdict.
        assert!(matches!(engine.take(&stale), Err(ServeError::UnknownTicket)));
        assert!(engine.take(&fresh).is_ok());
    }

    #[test]
    fn stale_pin_from_a_rejected_first_flow_does_not_survive_a_swap() {
        let data = dataset(300, 23);
        let registry = Arc::new(DetectorRegistry::new());
        registry.register("t0", detector(&data, 1)).unwrap();
        let engine = ServeEngine::new(Arc::clone(&registry), ServeConfig::default()).unwrap();

        // A rejected first flow pins the lane but leaves it empty...
        assert!(engine.submit("t0", &[1.0, 2.0]).is_err());
        // ...then the registry swaps.  The next valid submission must pin
        // (and score on) the new artifact, not the superseded pin.
        let v2 = detector(&data, 2);
        registry.swap("t0", v2.clone()).unwrap();
        let ticket = engine.submit("t0", &data.records()[0]).unwrap();
        assert_eq!(
            engine.take(&ticket).unwrap(),
            v2.detect_batch(&data.records()[..1]).unwrap()[0],
            "post-swap submissions must score on the swapped-in artifact"
        );
    }

    #[test]
    fn collect_and_flush_paths_never_create_lanes() {
        let data = dataset(300, 27);
        let registry = Arc::new(DetectorRegistry::new());
        registry.register("t0", detector(&data, 1)).unwrap();
        let engine = ServeEngine::new(Arc::clone(&registry), ServeConfig::default()).unwrap();

        // Registered tenant, nothing ever submitted: collects fail fast,
        // flush is a no-op, and none of them materialize serving state.
        let phantom = Ticket { tenant: "t0".into(), lane: 0, seq: 0 };
        assert!(matches!(engine.try_take(&phantom), Err(ServeError::UnknownTicket)));
        assert!(matches!(engine.take(&phantom), Err(ServeError::UnknownTicket)));
        assert_eq!(engine.flush("t0").unwrap(), 0);
        assert!(engine.stats("t0").is_none(), "read-only paths must not create a lane");
    }
}
