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
//! * **Deadline-wheel flushing** — instead of caller-driven polling, the
//!   submission that takes a lane from empty to non-empty schedules one
//!   entry on a shared [`DeadlineWheel`] at `now + max_delay`; per-shard
//!   flusher threads sweep the wheel and flush exactly the lanes whose
//!   deadline fired (the crate-internal `ServeEngine::poll_tenant`).
//!   Flushers are work-conserving: any flusher may dispatch any shard's
//!   due entries (lanes are mutexed, and the determinism contract makes
//!   flush timing irrelevant to verdicts).
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
use super::engine::LanePoll;
use super::timer::DeadlineWheel;
use super::{
    DetectorRegistry, ServeConfig, ServeEngine, ServeError, ServeResult, ServeStats, Ticket,
};
use crate::detector::Verdict;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
    /// Spawn per-shard flusher threads driven by the deadline wheel
    /// (requires the `parallel` feature; without it the engine falls back
    /// to caller-driven [`ShardedServeEngine::poll`]).
    pub background_flush: bool,
    /// Slot count of the shared deadline wheel.
    pub wheel_slots: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shards: hdc::parallel::available_cores().min(8),
            serve: ServeConfig::default(),
            admission: None,
            background_flush: true,
            wheel_slots: 256,
        }
    }
}

impl ShardConfig {
    /// Validates the shard topology and the nested configurations.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for a zero shard or wheel
    /// slot count, or an inconsistent nested config.
    pub fn validate(&self) -> ServeResult<()> {
        if self.shards == 0 {
            return Err(ServeError::InvalidConfig("shards must be non-zero".into()));
        }
        if self.wheel_slots == 0 {
            return Err(ServeError::InvalidConfig("wheel_slots must be non-zero".into()));
        }
        if self.serve.max_delay.is_zero() {
            return Err(ServeError::InvalidConfig(
                "max_delay must be non-zero (the deadline wheel needs a cadence)".into(),
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

/// The sharded serving engine (see the [module docs](self)).
///
/// All methods take `&self`; the engine is `Send + Sync` and meant to be
/// shared behind an `Arc` by many submitter threads.
#[derive(Debug)]
pub struct ShardedServeEngine {
    registry: Arc<DetectorRegistry>,
    config: ShardConfig,
    shards: Vec<Arc<ServeEngine>>,
    wheel: Arc<DeadlineWheel<(usize, Arc<str>)>>,
    admission: Option<Arc<AdmissionController>>,
    shutdown: Arc<AtomicBool>,
    flushers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ShardedServeEngine {
    /// Creates a sharded engine routing through `registry`, spawning the
    /// flusher threads if configured (and the `parallel` feature is on).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for an inconsistent
    /// [`ShardConfig`].
    pub fn new(registry: Arc<DetectorRegistry>, config: ShardConfig) -> ServeResult<Self> {
        config.validate()?;
        let shards = (0..config.shards)
            .map(|_| Ok(Arc::new(ServeEngine::new(Arc::clone(&registry), config.serve)?)))
            .collect::<ServeResult<Vec<_>>>()?;
        // Wheel granularity: fine enough that a deadline slips by at most
        // ~a quarter of max_delay, bounded so flusher wake-ups stay sane.
        let granularity = (config.serve.max_delay / 4)
            .clamp(Duration::from_micros(50), Duration::from_millis(10));
        let wheel = Arc::new(DeadlineWheel::new(granularity, config.wheel_slots));
        let admission = match &config.admission {
            Some(cfg) => Some(Arc::new(AdmissionController::new(*cfg)?)),
            None => None,
        };
        let engine = Self {
            registry,
            config,
            shards,
            wheel,
            admission,
            shutdown: Arc::new(AtomicBool::new(false)),
            flushers: Mutex::new(Vec::new()),
        };
        engine.spawn_flushers();
        Ok(engine)
    }

    /// Whether submissions schedule deadline-wheel entries (background
    /// flushers are running).  Without the `parallel` feature the engine
    /// is caller-driven regardless of [`ShardConfig::background_flush`].
    pub fn background_flush_active(&self) -> bool {
        cfg!(feature = "parallel") && self.config.background_flush
    }

    /// Spawns one flusher thread per shard (no-op when background
    /// flushing is inactive).
    fn spawn_flushers(&self) {
        if !self.background_flush_active() {
            return;
        }
        let mut flushers = self.flushers.lock().expect("flusher registry lock");
        for shard in 0..self.shards.len() {
            let shards: Vec<Arc<ServeEngine>> = self.shards.iter().map(Arc::clone).collect();
            let wheel = Arc::clone(&self.wheel);
            let shutdown = Arc::clone(&self.shutdown);
            let tick = wheel.granularity();
            flushers.push(
                std::thread::Builder::new()
                    .name(format!("cyberhd-flusher-{shard}"))
                    .spawn(move || flusher_loop(shard, &shards, &wheel, &shutdown, tick))
                    .expect("spawn flusher thread"),
            );
        }
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
    /// control, and deadline scheduling in front.
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
        let (ticket, pending) = shard.submit_counted(tenant, record)?;
        // Exactly one wheel entry per in-flight batch: the flow that
        // started the batch (pending went 0 → 1) arms its deadline.  A
        // batch that filled and flushed inline (pending == 0) needs none.
        if pending == 1 && self.background_flush_active() {
            self.wheel.schedule(
                Instant::now() + self.config.serve.max_delay,
                (shard_index, Arc::clone(&ticket.tenant)),
            );
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
    /// without background flushers (e.g. builds without the `parallel`
    /// feature).  Also sweeps any stale wheel entries so a disabled
    /// flusher cannot leak them.  Returns the number of flows scored.
    pub fn poll(&self) -> usize {
        // Drain the wheel even in caller-driven mode: entries scheduled
        // while flushers were active (or spuriously) must not pile up.
        let _ = self.wheel.collect_expired(Instant::now());
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

impl Drop for ShardedServeEngine {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        let flushers = std::mem::take(&mut *self.flushers.lock().expect("flusher registry lock"));
        for flusher in flushers {
            let _ = flusher.join();
        }
    }
}

/// Body of one shard's flusher thread: sweep the shared wheel, flush the
/// due lanes, reschedule the not-yet-due ones, and run the owning shard's
/// full [`ServeEngine::poll`] occasionally as a housekeeping backstop
/// (evicts lanes of removed tenants, catches any deadline the wheel lost
/// track of).
fn flusher_loop(
    own_shard: usize,
    shards: &[Arc<ServeEngine>],
    wheel: &DeadlineWheel<(usize, Arc<str>)>,
    shutdown: &AtomicBool,
    tick: Duration,
) {
    let mut ticks = 0u32;
    while !shutdown.load(Ordering::Acquire) {
        std::thread::sleep(tick);
        let now = Instant::now();
        // Work-conserving: this thread dispatches *any* shard's due
        // entries.  Lanes are mutexed and verdicts are flush-timing
        // invariant, so cross-shard dispatch is free concurrency, not a
        // correctness risk.
        for (shard, tenant) in wheel.collect_expired(now) {
            match shards[shard].poll_tenant(&tenant) {
                LanePoll::Flushed(_) | LanePoll::Idle => {}
                LanePoll::Due(remaining) => {
                    wheel.schedule(Instant::now() + remaining, (shard, tenant));
                }
            }
        }
        ticks = ticks.wrapping_add(1);
        // Housekeeping backstop every ~64 ticks, on the owning shard only
        // (each shard gets exactly one janitor).
        if ticks.is_multiple_of(64) {
            shards[own_shard].poll();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Detector;
    use nids_data::synth::SyntheticConfig;
    use nids_data::DatasetKind;

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
        assert!(ShardConfig { wheel_slots: 0, ..Default::default() }.validate().is_err());
        let bad_delay = ShardConfig {
            serve: ServeConfig { max_delay: Duration::ZERO, ..Default::default() },
            ..Default::default()
        };
        assert!(bad_delay.validate().is_err());
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

    #[cfg(feature = "parallel")]
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
        // Submit fewer than max_batch flows, then wait: only the deadline
        // wheel can flush them (no poll, no explicit flush).
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
