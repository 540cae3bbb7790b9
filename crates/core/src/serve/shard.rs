//! `cyberhd::serve::shard` — the sharded many-tenant serving engine.
//!
//! One [`ServeEngine`] is a single shard: one lane map behind one
//! `RwLock`, flushed either inline (`max_batch`) or by whoever remembers
//! to call [`ServeEngine::poll`].  A [`ShardedServeEngine`] composes N of
//! them:
//!
//! * **Tenant-hash partitioning** — every tenant id maps to exactly one
//!   shard (FNV-1a over the id, mod N), so submits on different shards
//!   touch disjoint lane maps and never contend on a shared lock.
//! * **Deadline flushing** — instead of caller-driven polling, the
//!   submission that takes a lane from empty to non-empty arms one entry
//!   at `now + max_delay` on its shard's deadline queue
//!   (`serve/timer.rs`); the shard's flusher thread sleeps until the
//!   queue's head is due and flushes exactly the lane whose deadline
//!   fired (the crate-internal `ServeEngine::poll_tenant`), so a verdict
//!   is late by a thread wake-up, not by a polling cadence.  Each flusher
//!   serves its own shard only: a queue shared by all flushers would wake
//!   every one of them per deadline, and dispatching another shard's
//!   entries only ever helps while that shard's own flusher is saturated.
//!   [`ShardedServeEngine::flusher_stats`] reports how late deadlines
//!   fired.
//! * **Admission control** — an optional [`AdmissionController`] sheds
//!   deterministically ([`ServeError::Shed`]) before any queue is
//!   touched: per-tenant quota tokens and priority lanes against the
//!   shard's live [`ServeEngine::outstanding`] occupancy.
//!
//! # What sharding does *not* change
//!
//! The bit-identity contract: a tenant lives on exactly one shard, whose
//! lane machinery is the unmodified single-shard [`ServeEngine`] — so a
//! ticket's verdict is bit-identical to one
//! [`crate::Detector::detect_batch`] call over the tenant's flows in
//! submission order, for every shard count, flush interleaving, and
//! flusher-thread schedule (`tests/serve_sharded.rs`).  Registry
//! hot-swaps stay atomic per micro-batch for the same reason: pinning is
//! per lane, and a tenant's lane lives on one shard.

use super::admission::{
    AdmissionConfig, AdmissionController, AdmissionStats, Priority, TenantQuota,
};
use super::timer::DeadlineQueue;
use super::{
    DetectorRegistry, ServeConfig, ServeEngine, ServeError, ServeResult, ServeStats, Ticket,
};
use crate::detector::Verdict;
use eval::timing::LatencyHistogram;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Configuration of a [`ShardedServeEngine`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards (single-shard lane maps) to partition tenants
    /// across.  The default is the machine's core count, capped at 8.
    pub shards: usize,
    /// The per-shard micro-batching watermarks (every shard runs the same
    /// [`ServeConfig`]).
    pub serve: ServeConfig,
    /// Admission-control policy; `None` disables shedding entirely
    /// (submissions then only fail on [`ServeError::Backpressure`]).
    pub admission: Option<AdmissionConfig>,
    /// Spawn one flusher thread per shard that enforces `max_delay`;
    /// `false` leaves deadlines to caller-driven
    /// [`ShardedServeEngine::poll`].
    pub background_flush: bool,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shards: hdc::parallel::available_cores().min(8),
            serve: ServeConfig::default(),
            admission: None,
            background_flush: true,
        }
    }
}

impl ShardConfig {
    /// Validates the shard topology and the nested configurations.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for a zero shard count or
    /// `max_delay`, or an inconsistent nested config.
    pub fn validate(&self) -> ServeResult<()> {
        if self.shards == 0 {
            return Err(ServeError::InvalidConfig("shards must be non-zero".into()));
        }
        if self.serve.max_delay.is_zero() {
            return Err(ServeError::InvalidConfig(
                "max_delay must be non-zero (every batch would be due the moment it starts, and \
                 the flushers would never sleep)"
                    .into(),
            ));
        }
        if let Some(admission) = &self.admission {
            admission.validate()?;
        }
        self.serve.validate()
    }
}

/// FNV-1a over the tenant id — stable across runs and platforms, so a
/// tenant's shard assignment is reproducible (and testable).
fn fnv1a(tenant: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in tenant.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// How the background flushers are keeping `max_delay`
/// ([`ShardedServeEngine::flusher_stats`]): every armed deadline fires
/// once, and either flushes its batch or finds it already gone.
#[derive(Debug, Clone, Default)]
pub struct FlusherStats {
    /// Deadlines armed (one per batch that started on an empty lane).
    pub armed: u64,
    /// Deadlines that have fired; `armed - fired` are still waiting.
    pub fired: u64,
    /// Fired deadlines that flushed nothing: their batch had already left
    /// inline (`max_batch`), through an explicit flush or `take`, or with
    /// an evicted lane.
    pub stale: u64,
    /// How long after its deadline each entry fired — the flusher's
    /// wake-up latency plus whatever it was still flushing.
    pub lateness: LatencyHistogram,
}

impl fmt::Display for FlusherStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} deadlines armed, {} fired ({} stale), fired late by p50 {:?} p99 {:?} max {:?}",
            self.armed,
            self.fired,
            self.stale,
            self.lateness.percentile(0.50),
            self.lateness.percentile(0.99),
            self.lateness.max(),
        )
    }
}

/// One shard's deadline queue and the thread sleeping on it.
#[derive(Debug)]
struct Flusher {
    deadlines: Arc<DeadlineQueue<Arc<str>>>,
    /// Written by the flusher thread only (`armed` stays zero here; the
    /// queue counts it).
    stats: Arc<Mutex<FlusherStats>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Flusher {
    /// Spawns `shard`'s flusher on a thread built by `builder`.
    fn spawn(builder: std::thread::Builder, shard: &Arc<ServeEngine>) -> ServeResult<Self> {
        let deadlines = Arc::new(DeadlineQueue::new());
        let stats = Arc::new(Mutex::new(FlusherStats::default()));
        let thread = {
            let (shard, deadlines, stats) =
                (Arc::clone(shard), Arc::clone(&deadlines), Arc::clone(&stats));
            builder
                .spawn(move || flusher_loop(&shard, &deadlines, &stats))
                .map_err(ServeError::FlusherSpawn)?
        };
        Ok(Self { deadlines, stats, thread: Some(thread) })
    }
}

impl Drop for Flusher {
    /// Wakes the parked thread and joins it, so dropping an engine — or
    /// the flushers already spawned when a later spawn fails — returns
    /// promptly and leaves no thread behind.
    fn drop(&mut self) {
        self.deadlines.close();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The sharded serving engine (see the [module docs](self)).
///
/// All methods take `&self`; the engine is `Send + Sync` and meant to be
/// shared behind an `Arc` by many submitter threads.
#[derive(Debug)]
pub struct ShardedServeEngine {
    registry: Arc<DetectorRegistry>,
    config: ShardConfig,
    shards: Vec<Arc<ServeEngine>>,
    /// One per shard while background flushing is active, else empty.
    flushers: Vec<Flusher>,
    admission: Option<AdmissionController>,
}

impl ShardedServeEngine {
    /// Creates a sharded engine routing through `registry`, spawning the
    /// flusher threads if [`ShardConfig::background_flush`] asks for them.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for an inconsistent
    /// [`ShardConfig`] and [`ServeError::FlusherSpawn`] when the OS
    /// refuses a flusher thread (the ones already running are stopped).
    pub fn new(registry: Arc<DetectorRegistry>, config: ShardConfig) -> ServeResult<Self> {
        config.validate()?;
        let shards = (0..config.shards)
            .map(|_| Ok(Arc::new(ServeEngine::new(Arc::clone(&registry), config.serve)?)))
            .collect::<ServeResult<Vec<_>>>()?;
        let admission = config.admission.map(AdmissionController::new).transpose()?;
        let flushers = if config.background_flush {
            let named = |i| std::thread::Builder::new().name(format!("cyberhd-flusher-{i}"));
            (0..)
                .zip(&shards)
                .map(|(i, shard)| Flusher::spawn(named(i), shard))
                .collect::<ServeResult<_>>()?
        } else {
            Vec::new()
        };
        Ok(Self { registry, config, shards, flushers, admission })
    }

    /// Whether submissions arm deadlines for background flushers — exactly
    /// when the engine was built with [`ShardConfig::background_flush`].
    pub fn background_flush_active(&self) -> bool {
        !self.flushers.is_empty()
    }

    /// The registry this engine routes through.
    pub fn registry(&self) -> &Arc<DetectorRegistry> {
        &self.registry
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `tenant` is served on — pure tenant-hash routing,
    /// stable for the engine's lifetime.
    pub fn shard_of(&self, tenant: &str) -> usize {
        (fnv1a(tenant) % self.shards.len() as u64) as usize
    }

    /// The single-shard engine serving `tenant`.
    fn shard(&self, tenant: &str) -> &Arc<ServeEngine> {
        &self.shards[self.shard_of(tenant)]
    }

    /// Submits one raw flow record for `tenant`, returning a [`Ticket`]
    /// for its verdict — [`ServeEngine::submit`] with sharding, admission
    /// control, and deadline arming in front.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Shed`] — admission control shed the submission
    ///   (quota exhausted, or the shard is over its overload watermark
    ///   for this tenant's priority); nothing was queued,
    /// * the [`ServeEngine::submit`] errors ([`ServeError::UnknownTenant`],
    ///   [`ServeError::Backpressure`], [`ServeError::Rejected`]).
    pub fn submit(&self, tenant: &str, record: &[f32]) -> ServeResult<Ticket> {
        let shard_index = self.shard_of(tenant);
        let shard = &self.shards[shard_index];
        if let Some(admission) = &self.admission {
            admission.admit(tenant, shard.outstanding(), Instant::now())?;
        }
        let (ticket, pending) = shard.submit_counted(tenant, record).inspect_err(|error| {
            // Admission runs before the shard knows the tenant; an id
            // nobody registered must not keep the state it just got.
            if let (ServeError::UnknownTenant(_), Some(admission)) = (error, &self.admission) {
                admission.retract_unknown(tenant);
            }
        })?;
        // Exactly one deadline per in-flight batch: the flow that started
        // the batch (pending went 0 → 1) arms it.  A batch that filled and
        // flushed inline (pending == 0) needs none.
        //
        // An entry is never re-armed, and needs no cancelling.  The lane
        // stamped this flow's arrival *before* the clock is read here, so
        // the deadline is at least the batch's oldest flow + `max_delay`:
        // when it fires, either that batch is still pending and has waited
        // `max_delay` (`poll_tenant` flushes it), or it already left —
        // inline, by an explicit flush or `take`, or on a generation
        // change — and whatever is pending by then is a younger batch,
        // which went 0 → 1 itself and armed its own entry.  A fired entry
        // that finds an idle or younger lane is therefore stale and is
        // dropped; the flusher's housekeeping `poll` backstops the rest.
        if pending == 1 {
            if let Some(flusher) = self.flushers.get(shard_index) {
                let deadline = Instant::now() + self.config.serve.max_delay;
                flusher.deadlines.arm(deadline, Arc::clone(&ticket.tenant));
            }
        }
        Ok(ticket)
    }

    /// Non-blocking collect — [`ServeEngine::try_take`] on the ticket's
    /// shard.
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::try_take`].
    pub fn try_take(&self, ticket: &Ticket) -> ServeResult<Option<Verdict>> {
        self.shard(&ticket.tenant).try_take(ticket)
    }

    /// Collects a ticket's verdict, flushing its batch first if still
    /// pending — [`ServeEngine::take`] on the ticket's shard.
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::take`].
    pub fn take(&self, ticket: &Ticket) -> ServeResult<Verdict> {
        self.shard(&ticket.tenant).take(ticket)
    }

    /// Flushes `tenant`'s pending flows now.
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::flush`].
    pub fn flush(&self, tenant: &str) -> ServeResult<usize> {
        self.shard(tenant).flush(tenant)
    }

    /// Flushes every lane of every shard, fanning shards out across
    /// worker threads.  Returns the number of flows scored.
    pub fn flush_all(&self) -> usize {
        let served = std::sync::atomic::AtomicUsize::new(0);
        let shards: Vec<Arc<ServeEngine>> = self.shards.iter().map(Arc::clone).collect();
        let threads = hdc::parallel::engine_threads().min(shards.len());
        hdc::parallel::for_each_task(shards, threads, |shard| {
            served.fetch_add(shard.flush_all(), std::sync::atomic::Ordering::Relaxed);
        });
        served.into_inner()
    }

    /// Caller-driven deadline pass over every shard —
    /// [`ServeEngine::poll`] fanned across the fleet, for deployments
    /// built without background flushers.  Harmless with flushers live:
    /// armed deadlines stay armed and find their batch already flushed.
    /// Returns the number of flows scored.
    pub fn poll(&self) -> usize {
        self.shards.iter().map(|shard| shard.poll()).sum()
    }

    /// Drops `tenant`'s lane on its shard — [`ServeEngine::evict`].
    pub fn evict(&self, tenant: &str) -> bool {
        self.shard(tenant).evict(tenant)
    }

    /// Queued work (pending flows plus uncollected verdicts) summed over
    /// every shard.
    pub fn outstanding(&self) -> usize {
        self.shards.iter().map(|shard| shard.outstanding()).sum()
    }

    /// A snapshot of `tenant`'s serving counters, or `None` before its
    /// first submission — [`ServeEngine::stats`] on its shard.
    pub fn stats(&self, tenant: &str) -> Option<ServeStats> {
        self.shard(tenant).stats(tenant)
    }

    /// Every tenant's [`ServeStats`] folded into one fleet-wide snapshot
    /// via [`ServeStats::merge`] (counters add, latency histograms merge
    /// bucket-wise, percentiles recomputed from the merged histogram), or
    /// `None` when no tenant has serving state yet.  The snapshot's
    /// `tenant` is `"fleet"`; `detector_version` is `0` unless every lane
    /// serves the same version.
    pub fn fleet_stats(&self) -> Option<ServeStats> {
        let mut merged: Option<ServeStats> = None;
        for shard in &self.shards {
            for tenant in shard.lane_keys() {
                if let Some(stats) = shard.stats(&tenant) {
                    match &mut merged {
                        Some(fleet) => fleet.merge(&stats),
                        None => merged = Some(stats),
                    }
                }
            }
        }
        merged.map(|mut fleet| {
            fleet.tenant = "fleet".into();
            fleet
        })
    }

    /// The flushers' deadline accounting summed over every shard — the
    /// engine's own answer to "why was that verdict late".  All zero
    /// while the engine is caller-driven.
    pub fn flusher_stats(&self) -> FlusherStats {
        let mut fleet = FlusherStats::default();
        for flusher in &self.flushers {
            let stats = flusher.stats.lock().expect("flusher stats lock");
            fleet.armed += flusher.deadlines.armed();
            fleet.fired += stats.fired;
            fleet.stale += stats.stale;
            fleet.lateness.merge(&stats.lateness);
        }
        fleet
    }

    /// Sets a tenant's overload priority.  No-op without admission
    /// control.
    pub fn set_priority(&self, tenant: &str, priority: Priority) {
        if let Some(admission) = &self.admission {
            admission.set_priority(tenant, priority);
        }
    }

    /// Overrides a tenant's quota (`None` = unmetered).  No-op without
    /// admission control.
    pub fn set_quota(&self, tenant: &str, quota: Option<TenantQuota>) {
        if let Some(admission) = &self.admission {
            admission.set_quota(tenant, quota);
        }
    }

    /// Admission-control decision counters (all zero when admission
    /// control is disabled).
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission.as_ref().map(|a| a.stats()).unwrap_or_default()
    }
}

/// Housekeeping cadence of a flusher, in `max_delay`s.
const HOUSEKEEPING_DELAYS: u32 = 16;

/// Body of one shard's flusher thread: flush the lanes whose deadline has
/// passed, then park until the next one — or until the shard's full
/// [`ServeEngine::poll`] is due as a housekeeping backstop (evicts lanes
/// of removed tenants, catches any batch whose deadline went missing).
fn flusher_loop(
    shard: &ServeEngine,
    deadlines: &DeadlineQueue<Arc<str>>,
    stats: &Mutex<FlusherStats>,
) {
    let housekeeping = shard.config().max_delay * HOUSEKEEPING_DELAYS;
    let mut next_housekeeping = Instant::now() + housekeeping;
    loop {
        let mut now = Instant::now();
        while let Some((deadline, tenant)) = deadlines.pop_due(now) {
            let flushed = shard.poll_tenant(&tenant);
            let mut stats = stats.lock().expect("flusher stats lock");
            stats.fired += 1;
            stats.stale += u64::from(flushed == 0);
            stats.lateness.record(now - deadline);
            now = Instant::now();
        }
        if now >= next_housekeeping {
            shard.poll();
            next_housekeeping = Instant::now() + housekeeping;
        }
        if !deadlines.wait(next_housekeeping) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Detector;
    use nids_data::synth::SyntheticConfig;
    use nids_data::DatasetKind;
    use std::time::Duration;

    fn small_detector() -> (Detector, nids_data::Dataset) {
        let dataset =
            DatasetKind::NslKdd.generate(&SyntheticConfig::new(200, 11)).expect("synthetic data");
        let detector = Detector::builder()
            .dimension(128)
            .retrain_epochs(1)
            .train(&dataset)
            .expect("train detector");
        (detector, dataset)
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(ShardConfig::default().validate().is_ok());
        assert!(ShardConfig { shards: 0, ..Default::default() }.validate().is_err());
        let bad_delay = ShardConfig {
            serve: ServeConfig { max_delay: Duration::ZERO, ..Default::default() },
            ..Default::default()
        };
        assert!(bad_delay.validate().is_err());
    }

    #[test]
    fn a_refused_flusher_thread_is_a_typed_error_and_stops_the_ones_already_running() {
        let registry = Arc::new(DetectorRegistry::new());
        let parked = ServeConfig { max_delay: Duration::from_secs(10), ..Default::default() };
        let shards =
            [(); 2].map(|()| Arc::new(ServeEngine::new(Arc::clone(&registry), parked).unwrap()));
        // No address space holds this stack: the OS refuses the second thread.
        let builders =
            [std::thread::Builder::new(), std::thread::Builder::new().stack_size(usize::MAX / 4)];
        let start = Instant::now();
        let flushers: ServeResult<Vec<Flusher>> = shards
            .iter()
            .zip(builders)
            .map(|(shard, builder)| Flusher::spawn(builder, shard))
            .collect();
        assert!(matches!(flushers, Err(ServeError::FlusherSpawn(_))), "{flushers:?}");
        assert_eq!(Arc::strong_count(&shards[0]), 1, "the running flusher was closed and joined");
        assert!(start.elapsed() < Duration::from_secs(5), "…without sleeping out its max_delay");
    }

    #[test]
    fn unknown_tenants_leave_no_admission_state_behind() {
        let (detector, dataset) = small_detector();
        let record = &dataset.records()[0];
        let registry = Arc::new(DetectorRegistry::new());
        let engine = ShardedServeEngine::new(
            Arc::clone(&registry),
            ShardConfig {
                shards: 2,
                background_flush: false,
                admission: Some(AdmissionConfig {
                    default_quota: Some(TenantQuota { rate_per_sec: 0, burst: 2 }),
                    ..Default::default()
                }),
                ..Default::default()
            },
        )
        .unwrap();
        // An operator may configure a tenant ahead of registering it.
        engine.set_priority("vip", Priority::High);

        for i in 0..10_000 {
            let refused = engine.submit(&format!("garbage-{i}"), record);
            assert!(matches!(refused, Err(ServeError::UnknownTenant(_))), "{refused:?}");
        }
        for _ in 0..5 {
            assert!(matches!(engine.submit("vip", record), Err(ServeError::UnknownTenant(_))));
        }
        let stats = engine.admission_stats();
        assert_eq!(stats.tracked_tenants, 1, "only the tenant configured on purpose is tracked");
        assert_eq!(stats.admitted, 0, "a refused submission was not admitted");
        assert_eq!(engine.admission.as_ref().unwrap().priority("vip"), Priority::High);

        // The refused submissions gave their quota tokens back: once
        // registered, the tenant still has its whole burst.
        registry.register("vip", detector).unwrap();
        engine.submit("vip", record).unwrap();
        engine.submit("vip", record).unwrap();
        assert!(matches!(engine.submit("vip", record), Err(ServeError::Shed { .. })));
        assert_eq!(engine.admission_stats().admitted, 2);
    }

    #[test]
    fn tenant_hashing_is_stable_and_spreads() {
        let registry = Arc::new(DetectorRegistry::new());
        let engine = ShardedServeEngine::new(
            registry,
            ShardConfig { shards: 8, background_flush: false, ..Default::default() },
        )
        .unwrap();
        let mut hit = [false; 8];
        for i in 0..64 {
            let tenant = format!("tenant-{i}");
            let shard = engine.shard_of(&tenant);
            assert_eq!(shard, engine.shard_of(&tenant), "routing is deterministic");
            hit[shard] = true;
        }
        assert!(hit.iter().filter(|&&h| h).count() >= 4, "64 tenants spread over 8 shards");
    }

    #[test]
    fn submit_take_roundtrip_matches_single_engine() {
        let (detector, dataset) = small_detector();
        let oracle = detector.detect_batch(&dataset.records()[..32]).unwrap();

        let registry = Arc::new(DetectorRegistry::new());
        registry.register("t0", detector).unwrap();
        let engine = ShardedServeEngine::new(
            Arc::clone(&registry),
            ShardConfig { shards: 4, background_flush: false, ..Default::default() },
        )
        .unwrap();
        let tickets: Vec<Ticket> =
            dataset.records()[..32].iter().map(|r| engine.submit("t0", r).unwrap()).collect();
        assert_eq!(engine.outstanding(), 32);
        engine.flush_all();
        for (ticket, expected) in tickets.iter().zip(&oracle) {
            assert_eq!(&engine.take(ticket).unwrap(), expected);
        }
        assert_eq!(engine.outstanding(), 0);
        let stats = engine.stats("t0").unwrap();
        assert_eq!(stats.flows_served, 32);
        let fleet = engine.fleet_stats().unwrap();
        assert_eq!(fleet.tenant, "fleet");
        assert_eq!(fleet.flows_served, 32);
    }

    #[test]
    fn background_flusher_serves_without_polling() {
        let (detector, dataset) = small_detector();
        let registry = Arc::new(DetectorRegistry::new());
        registry.register("t0", detector).unwrap();
        let engine = ShardedServeEngine::new(
            Arc::clone(&registry),
            ShardConfig {
                shards: 2,
                serve: ServeConfig {
                    max_batch: 64,
                    max_delay: Duration::from_millis(1),
                    queue_capacity: 256,
                },
                ..Default::default()
            },
        )
        .unwrap();
        assert!(engine.background_flush_active());
        // Submit fewer than max_batch flows, then wait: only the flusher
        // can flush them (no poll, no explicit flush).
        let tickets: Vec<Ticket> =
            dataset.records()[..5].iter().map(|r| engine.submit("t0", r).unwrap()).collect();
        let deadline = Instant::now() + Duration::from_secs(5);
        'wait: for ticket in &tickets {
            loop {
                if engine.try_take(ticket).unwrap().is_some() {
                    continue 'wait;
                }
                assert!(Instant::now() < deadline, "background flusher never fired");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    #[test]
    fn admission_shed_path_is_reachable_and_typed() {
        let (detector, dataset) = small_detector();
        let registry = Arc::new(DetectorRegistry::new());
        registry.register("t0", detector).unwrap();
        let engine = ShardedServeEngine::new(
            Arc::clone(&registry),
            ShardConfig {
                shards: 2,
                background_flush: false,
                admission: Some(AdmissionConfig {
                    default_quota: Some(TenantQuota { rate_per_sec: 0, burst: 3 }),
                    ..Default::default()
                }),
                ..Default::default()
            },
        )
        .unwrap();
        for record in &dataset.records()[..3] {
            engine.submit("t0", record).unwrap();
        }
        match engine.submit("t0", &dataset.records()[3]) {
            Err(ServeError::Shed { tenant, retry_hint }) => {
                assert_eq!(tenant, "t0");
                assert!(retry_hint > Duration::ZERO);
            }
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(engine.admission_stats().shed_quota, 1);
        assert_eq!(engine.admission_stats().admitted, 3);
        // The three admitted flows still serve normally.
        engine.flush_all();
        assert_eq!(engine.stats("t0").unwrap().flows_served, 3);
    }
}
