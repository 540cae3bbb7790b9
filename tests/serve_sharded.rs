//! Integration suite for `cyberhd::serve::shard` — the sharded
//! many-tenant serving engine.
//!
//! Pins the property the whole subsystem is built on: **sharding is
//! invisible in the verdicts**.  A ticket's verdict is bit-identical to
//! one [`Detector::detect_batch`] call over the tenant's flows in
//! submission order, for every shard count, arrival interleaving, flush
//! boundary, and flusher-thread schedule — including through the
//! admission-control shed path, the backpressure path, registry hot-swaps
//! mid-stream, and remove + re-register churn racing in-flight batches on
//! other shards.

use cyberhd::serve::ServeError;
use cyberhd_suite::prelude::*;
use hdc::rng::HdcRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn generate(kind: DatasetKind, samples: usize, seed: u64) -> Dataset {
    kind.generate(&SyntheticConfig::new(samples, seed).difficulty(1.3))
        .expect("synthetic generation")
}

/// One detector per backend shape, keyed off the dataset kind so the
/// sweep exercises dense, 1-bit, 2-bit and open-set scoring.
fn shaped_detector(kind: DatasetKind, data: &Dataset, seed: u64) -> Detector {
    let builder = Detector::builder().dimension(192).retrain_epochs(1).seed(seed);
    match kind {
        DatasetKind::NslKdd => builder,
        DatasetKind::UnswNb15 => builder.quantize(BitWidth::B1),
        DatasetKind::CicIds2017 => builder.open_set(0.05),
        DatasetKind::CicIds2018 => builder.quantize(BitWidth::B2),
    }
    .train(data)
    .expect("training succeeds")
}

/// A tenant name FNV-routed to `shard` — tests that need two tenants on
/// the same (or provably different) shards pick names instead of hoping.
fn tenant_on_shard(engine: &ShardedServeEngine, shard: usize, hint: &str) -> String {
    (0..10_000)
        .map(|i| format!("{hint}-{i}"))
        .find(|tenant| engine.shard_of(tenant) == shard)
        .expect("some name hashes to every shard")
}

#[test]
fn verdicts_are_bit_identical_across_shard_counts_and_interleavings() {
    for kind in DatasetKind::ALL {
        let data = generate(kind, 420, 31);
        let detector = shaped_detector(kind, &data, 7);

        // Five tenants, each with its own slice of the corpus; the oracle
        // is one detect_batch per tenant over its flows in order.
        let tenants: Vec<String> = (0..5).map(|t| format!("edge-{t}")).collect();
        let slices: Vec<Vec<Vec<f32>>> = (0..tenants.len())
            .map(|t| {
                data.records().iter().skip(t).step_by(tenants.len()).take(36).cloned().collect()
            })
            .collect();
        let oracles: Vec<Vec<Verdict>> =
            slices.iter().map(|s| detector.detect_batch(s).unwrap()).collect();
        let total: usize = slices.iter().map(Vec::len).sum();

        for shards in [1usize, 2, 8] {
            // >= 3 seeded interleavings per (kind, shard count), each with
            // randomized micro-batch watermarks and flush boundaries, with
            // the background flushers live.
            for trial in 0..3u64 {
                let mut rng = HdcRng::seed_from(10_000 * trial + 100 * shards as u64 + kind as u64);
                let registry = Arc::new(DetectorRegistry::new());
                for tenant in &tenants {
                    registry.register(tenant, detector.clone()).unwrap();
                }
                let config = ShardConfig {
                    shards,
                    serve: ServeConfig {
                        max_batch: 3 + rng.index(14),
                        max_delay: Duration::from_millis(20),
                        ..ServeConfig::default()
                    },
                    ..ShardConfig::default()
                };
                let engine = ShardedServeEngine::new(Arc::clone(&registry), config).unwrap();

                // Random merge of the five arrival streams, preserving
                // each tenant's internal order; random explicit flushes
                // and caller polls race the background flushers.
                let mut next = vec![0usize; tenants.len()];
                let mut tickets: Vec<Vec<Ticket>> = vec![Vec::new(); tenants.len()];
                for _ in 0..total {
                    let live: Vec<usize> =
                        (0..tenants.len()).filter(|&t| next[t] < slices[t].len()).collect();
                    let t = live[rng.index(live.len())];
                    tickets[t].push(engine.submit(&tenants[t], &slices[t][next[t]]).unwrap());
                    next[t] += 1;
                    if rng.bernoulli(0.08) {
                        engine.flush(&tenants[rng.index(tenants.len())]).unwrap();
                    }
                    if rng.bernoulli(0.04) {
                        engine.poll();
                    }
                }
                engine.flush_all();

                for (t, tenant) in tenants.iter().enumerate() {
                    for (i, (ticket, want)) in tickets[t].iter().zip(&oracles[t]).enumerate() {
                        let got = engine.take(ticket).unwrap();
                        assert_eq!(
                            got.class, want.class,
                            "{kind:?} {tenant} flow {i} shards {shards} trial {trial}"
                        );
                        assert_eq!(
                            got.similarity.to_bits(),
                            want.similarity.to_bits(),
                            "{kind:?} {tenant} flow {i} shards {shards} trial {trial}: \
                             similarity must be bit-exact"
                        );
                        assert_eq!(
                            got.novel, want.novel,
                            "{kind:?} {tenant} flow {i} shards {shards} trial {trial}"
                        );
                    }
                }

                // The fleet snapshot accounts for every flow exactly once.
                let fleet = engine.fleet_stats().unwrap();
                assert_eq!(fleet.tenant, "fleet");
                assert_eq!(fleet.flows_submitted, total as u64);
                assert_eq!(fleet.flows_served, total as u64);
                assert_eq!(fleet.uncollected, 0);
                assert_eq!(fleet.queue_depth, 0);
                assert_eq!(engine.outstanding(), 0);
            }
        }
    }
}

#[test]
fn hot_swap_mid_stream_stays_atomic_per_batch_under_sharding() {
    let data = generate(DatasetKind::NslKdd, 600, 41);
    // Different shapes => same schema, different weights and verdicts.
    let v1 = Detector::builder().dimension(160).retrain_epochs(1).seed(1).train(&data).unwrap();
    let v2 = Detector::builder().dimension(224).retrain_epochs(2).seed(99).train(&data).unwrap();
    let flows: Vec<Vec<f32>> = data.records()[..60].to_vec();
    let oracle_v1 = v1.detect_batch(&flows).unwrap();
    let oracle_v2 = v2.detect_batch(&flows).unwrap();
    assert_ne!(
        oracle_v1.iter().map(|v| v.class).collect::<Vec<_>>(),
        oracle_v2.iter().map(|v| v.class).collect::<Vec<_>>(),
        "the two artifact versions must disagree somewhere for this test to have power"
    );

    let registry = Arc::new(DetectorRegistry::new());
    // Long max_delay + no background flushers: the pending tail at swap
    // time is deterministic (nothing flushes behind the test's back).
    let engine = ShardedServeEngine::new(
        Arc::clone(&registry),
        ShardConfig {
            shards: 4,
            serve: ServeConfig {
                max_batch: 8,
                max_delay: Duration::from_secs(5),
                ..ServeConfig::default()
            },
            background_flush: false,
            ..ShardConfig::default()
        },
    )
    .unwrap();
    // Two tenants on provably different shards: one gets swapped
    // mid-stream, the other must not notice.
    let swapped = tenant_on_shard(&engine, 0, "swapped");
    let steady = tenant_on_shard(&engine, 1, "steady");
    registry.register(&swapped, v1.clone()).unwrap();
    registry.register(&steady, v1.clone()).unwrap();

    // 20 flows each admitted under v1; the last 4 (20 % 8) are still
    // pending on each shard when the registry swaps one tenant.
    let swapped_v1: Vec<Ticket> =
        flows[..20].iter().map(|r| engine.submit(&swapped, r).unwrap()).collect();
    let steady_head: Vec<Ticket> =
        flows[..20].iter().map(|r| engine.submit(&steady, r).unwrap()).collect();
    assert_eq!(engine.stats(&swapped).unwrap().queue_depth, 4);
    assert_eq!(registry.swap(&swapped, v2).unwrap(), 2);
    let swapped_v2: Vec<Ticket> =
        flows[20..].iter().map(|r| engine.submit(&swapped, r).unwrap()).collect();
    let steady_tail: Vec<Ticket> =
        flows[20..].iter().map(|r| engine.submit(&steady, r).unwrap()).collect();
    engine.flush_all();

    for (i, ticket) in swapped_v1.iter().enumerate() {
        assert_eq!(
            engine.take(ticket).unwrap(),
            oracle_v1[i],
            "flow {i} was admitted under v1 and must score on v1 even though it flushed after \
             the swap"
        );
    }
    for (i, ticket) in swapped_v2.iter().enumerate() {
        assert_eq!(
            engine.take(ticket).unwrap(),
            oracle_v2[20 + i],
            "flow {} was admitted under v2 and must score on v2",
            20 + i
        );
    }
    // The un-swapped tenant on the other shard served v1 throughout.
    for (ticket, want) in steady_head.iter().chain(&steady_tail).zip(&oracle_v1) {
        assert_eq!(engine.take(ticket).unwrap(), *want);
    }
    assert_eq!(engine.stats(&swapped).unwrap().detector_version, 2);
    assert_eq!(engine.stats(&steady).unwrap().detector_version, 1);
}

#[test]
fn admission_sheds_are_typed_and_served_flows_stay_bit_identical() {
    let data = generate(DatasetKind::UnswNb15, 400, 43);
    let detector =
        Detector::builder().dimension(128).retrain_epochs(1).seed(5).train(&data).unwrap();

    // --- Quota shedding: an exhausted token bucket sheds before any
    // queue is touched, and the admitted prefix still matches the oracle.
    let registry = Arc::new(DetectorRegistry::new());
    let engine = ShardedServeEngine::new(
        Arc::clone(&registry),
        ShardConfig {
            shards: 2,
            background_flush: false,
            admission: Some(AdmissionConfig {
                default_quota: Some(TenantQuota { rate_per_sec: 0, burst: 4 }),
                ..AdmissionConfig::default()
            }),
            ..ShardConfig::default()
        },
    )
    .unwrap();
    registry.register("metered", detector.clone()).unwrap();
    let accepted: Vec<Ticket> =
        data.records()[..4].iter().map(|r| engine.submit("metered", r).unwrap()).collect();
    match engine.submit("metered", &data.records()[4]) {
        Err(ServeError::Shed { tenant, retry_hint }) => {
            assert_eq!(tenant, "metered");
            assert!(retry_hint > Duration::ZERO);
        }
        other => panic!("quota exhaustion must shed, got {other:?}"),
    }
    engine.flush_all();
    let oracle = detector.detect_batch(&data.records()[..4]).unwrap();
    for (ticket, want) in accepted.iter().zip(&oracle) {
        assert_eq!(&engine.take(ticket).unwrap(), want, "shedding must not disturb admitted flows");
    }
    let stats = engine.admission_stats();
    assert_eq!(stats.admitted, 4);
    assert_eq!(stats.shed_quota, 1);
    assert_eq!(stats.shed_overload, 0);
    assert_eq!(stats.shed_total(), 1);
    assert_eq!(engine.stats("metered").unwrap().flows_submitted, 4, "the shed flow left no trace");

    // --- Priority-watermark shedding: as one shard's outstanding work
    // climbs, Low sheds at 0.5, Normal at 0.75, everyone at capacity —
    // while quota-free tenants on the same shard above the bar stay in.
    let registry = Arc::new(DetectorRegistry::new());
    let engine = ShardedServeEngine::new(
        Arc::clone(&registry),
        ShardConfig {
            shards: 2,
            background_flush: false,
            serve: ServeConfig { max_batch: 64, ..ServeConfig::default() },
            admission: Some(AdmissionConfig { shard_capacity: 8, ..AdmissionConfig::default() }),
        },
    )
    .unwrap();
    let low = tenant_on_shard(&engine, 0, "bulk");
    let normal = tenant_on_shard(&engine, 0, "web");
    let high = tenant_on_shard(&engine, 0, "ops");
    for tenant in [&low, &normal, &high] {
        registry.register(tenant, detector.clone()).unwrap();
    }
    engine.set_priority(&low, Priority::Low);
    engine.set_priority(&high, Priority::High);

    // Fill the shared shard to 4/8 outstanding: the Low tenant is now
    // over its watermark, everyone else still gets in.
    for record in &data.records()[..4] {
        engine.submit(&high, record).unwrap();
    }
    assert!(
        matches!(engine.submit(&low, &data.records()[4]), Err(ServeError::Shed { .. })),
        "Low priority sheds at the 0.5 occupancy watermark"
    );
    engine.submit(&normal, &data.records()[4]).unwrap();
    engine.submit(&high, &data.records()[5]).unwrap();
    // 6/8 outstanding: Normal sheds too, High still in.
    assert!(matches!(engine.submit(&normal, &data.records()[6]), Err(ServeError::Shed { .. })));
    engine.submit(&high, &data.records()[6]).unwrap();
    engine.submit(&high, &data.records()[7]).unwrap();
    // 8/8: the shard is at capacity, even High sheds.
    assert!(matches!(engine.submit(&high, &data.records()[8]), Err(ServeError::Shed { .. })));
    let stats = engine.admission_stats();
    assert_eq!(stats.shed_overload, 3);
    assert_eq!(stats.shed_quota, 0, "overload sheds never touch quota state");
    assert_eq!(stats.admitted, 8);
    // Everything admitted still serves.
    engine.flush_all();
    assert_eq!(engine.fleet_stats().unwrap().flows_served, 8);
}

#[test]
fn backpressure_carries_depth_and_retry_hint_under_sharding() {
    let data = generate(DatasetKind::UnswNb15, 200, 43);
    let detector =
        Detector::builder().dimension(128).retrain_epochs(1).seed(5).train(&data).unwrap();
    let registry = Arc::new(DetectorRegistry::new());
    // No admission control: the bounded per-lane queue is the only brake.
    let engine = ShardedServeEngine::new(
        Arc::clone(&registry),
        ShardConfig {
            shards: 8,
            background_flush: false,
            serve: ServeConfig { max_batch: 8, queue_capacity: 8, ..ServeConfig::default() },
            ..ShardConfig::default()
        },
    )
    .unwrap();
    registry.register("bounded", detector.clone()).unwrap();
    let tickets: Vec<Ticket> =
        data.records()[..8].iter().map(|r| engine.submit("bounded", r).unwrap()).collect();
    match engine.submit("bounded", &data.records()[8]).unwrap_err() {
        ServeError::Backpressure { tenant, capacity, depth, retry_hint } => {
            assert_eq!(tenant, "bounded");
            assert_eq!(capacity, 8);
            assert_eq!(depth, 8, "the error reports the lane occupancy at rejection time");
            assert_eq!(retry_hint, engine.config().serve.max_delay);
        }
        other => panic!("a full lane must push back, got {other:?}"),
    }
    // The rejection was issued no ticket; draining one slot re-admits and
    // the queued work was untouched.
    let oracle = detector.detect_batch(&data.records()[..8]).unwrap();
    assert_eq!(engine.take(&tickets[0]).unwrap(), oracle[0]);
    let refill = engine.submit("bounded", &data.records()[8]).unwrap();
    assert_eq!(refill.seq(), tickets[7].seq() + 1, "a rejected submission burns no sequence slot");
    for (ticket, want) in tickets[1..].iter().zip(&oracle[1..]) {
        assert_eq!(engine.take(ticket).unwrap(), *want);
    }
    assert_eq!(
        engine.take(&refill).unwrap(),
        detector.detect_batch(&data.records()[8..9]).unwrap()[0]
    );
}

#[test]
fn remove_and_reregister_races_do_not_alias_tickets_across_generations() {
    let data = generate(DatasetKind::NslKdd, 400, 53);
    let v1 = Detector::builder().dimension(128).retrain_epochs(1).seed(9).train(&data).unwrap();
    let v2 = Detector::builder().dimension(128).retrain_epochs(1).seed(77).train(&data).unwrap();

    let registry = Arc::new(DetectorRegistry::new());
    let engine = ShardedServeEngine::new(
        Arc::clone(&registry),
        ShardConfig {
            shards: 2,
            background_flush: false,
            serve: ServeConfig { max_batch: 64, ..ServeConfig::default() },
            ..ShardConfig::default()
        },
    )
    .unwrap();
    let churn = tenant_on_shard(&engine, 0, "churn");
    let steady = tenant_on_shard(&engine, 1, "steady");
    registry.register(&churn, v1.clone()).unwrap();
    registry.register(&steady, v1.clone()).unwrap();

    // Both shards hold in-flight (pending, unflushed) batches.
    let churn_old: Vec<Ticket> =
        data.records()[..6].iter().map(|r| engine.submit(&churn, r).unwrap()).collect();
    let steady_tickets: Vec<Ticket> =
        data.records()[..6].iter().map(|r| engine.submit(&steady, r).unwrap()).collect();
    assert_eq!(engine.stats(&steady).unwrap().queue_depth, 6, "the other shard is mid-batch");

    // Flavor 1 — remove + re-register with the lane still live.  The
    // generation change (generations are registry-unique, never reused)
    // seals the in-flight batch on its pinned v1 artifact: old tickets
    // collect v1 verdicts, post-churn tickets collect v2 verdicts, and no
    // batch mixes the two.
    registry.remove(&churn).unwrap();
    registry.register(&churn, v2.clone()).unwrap();
    let churn_new: Vec<Ticket> =
        data.records()[6..12].iter().map(|r| engine.submit(&churn, r).unwrap()).collect();
    engine.flush_all();
    let oracle_v1 = v1.detect_batch(&data.records()[..6]).unwrap();
    let oracle_v2 = v2.detect_batch(&data.records()[6..12]).unwrap();
    for (ticket, want) in churn_old.iter().zip(&oracle_v1) {
        assert_eq!(
            &engine.take(ticket).unwrap(),
            want,
            "pre-churn flows stay pinned to the v1 artifact"
        );
    }
    for (ticket, want) in churn_new.iter().zip(&oracle_v2) {
        assert_eq!(&engine.take(ticket).unwrap(), want, "post-churn flows score on v2");
    }

    // Flavor 2 — remove, reap via poll, re-register.  The recreated lane
    // recycles sequence numbers, but stale tickets carry the old lane id:
    // they must fail with a defined error, never collect a new verdict.
    let stale: Vec<Ticket> =
        data.records()[..3].iter().map(|r| engine.submit(&churn, r).unwrap()).collect();
    registry.remove(&churn).unwrap();
    engine.poll(); // housekeeping pass reaps the removed tenant's lane
    registry.register(&churn, v2.clone()).unwrap();
    let fresh: Vec<Ticket> =
        data.records()[..3].iter().map(|r| engine.submit(&churn, r).unwrap()).collect();
    assert_eq!(
        fresh[0].seq(),
        churn_old[0].seq(),
        "the recreated lane recycles sequence numbers — only lane identity disambiguates"
    );
    engine.flush(&churn).unwrap();
    for ticket in &stale {
        assert!(
            matches!(engine.take(ticket), Err(ServeError::UnknownTicket)),
            "a stale ticket must not alias into the recreated lane"
        );
    }
    let oracle_fresh = v2.detect_batch(&data.records()[..3]).unwrap();
    for (ticket, want) in fresh.iter().zip(&oracle_fresh) {
        assert_eq!(&engine.take(ticket).unwrap(), want, "fresh tickets collect from the new lane");
    }

    // The cross-shard tenant never noticed any of it.
    for (ticket, want) in steady_tickets.iter().zip(&oracle_v1) {
        assert_eq!(&engine.take(ticket).unwrap(), want);
    }
    assert_eq!(engine.stats(&steady).unwrap().detector_version, 1);
}

#[test]
fn fleet_stats_merges_lanes_across_shards_coherently() {
    let data = generate(DatasetKind::CicIds2017, 400, 61);
    let detector = shaped_detector(DatasetKind::CicIds2017, &data, 13);
    let registry = Arc::new(DetectorRegistry::new());
    let engine = ShardedServeEngine::new(
        Arc::clone(&registry),
        ShardConfig {
            shards: 4,
            background_flush: false,
            serve: ServeConfig { max_batch: 4, ..ServeConfig::default() },
            ..ShardConfig::default()
        },
    )
    .unwrap();
    assert!(engine.fleet_stats().is_none(), "no serving state yet, no snapshot");

    let tenants: Vec<String> = (0..8).map(|i| format!("edge-{i}")).collect();
    for tenant in &tenants {
        registry.register(tenant, detector.clone()).unwrap();
    }
    let mut tickets = Vec::new();
    for (i, record) in data.records()[..96].iter().enumerate() {
        tickets.push(engine.submit(&tenants[i % tenants.len()], record).unwrap());
    }
    engine.flush_all();
    for ticket in &tickets {
        engine.take(ticket).unwrap();
    }

    let fleet = engine.fleet_stats().unwrap();
    assert_eq!(fleet.tenant, "fleet");
    assert_eq!(fleet.flows_submitted, 96);
    assert_eq!(fleet.flows_served, 96);
    assert_eq!(fleet.uncollected, 0);
    assert_eq!(fleet.queue_depth, 0);
    assert_eq!(fleet.detector_version, 1, "every lane serves v1, so the version is unambiguous");
    // The merged latency histogram holds every flow exactly once, and the
    // per-tenant counters sum to the fleet counters.
    assert_eq!(fleet.latency.count(), 96);
    let summed: u64 = tenants.iter().map(|t| engine.stats(t).unwrap().flows_served).sum();
    assert_eq!(summed, fleet.flows_served);
    // Batch accounting: histogram mass equals flows served, entry counts
    // equal batches flushed (12 flows per tenant at max_batch 4).
    let mass: u64 = fleet.batch_size_histogram.iter().map(|&(size, n)| size as u64 * n).sum();
    assert_eq!(mass, 96);
    let flushes: u64 = fleet.batch_size_histogram.iter().map(|&(_, n)| n).sum();
    assert_eq!(flushes, fleet.batches);
    // Percentiles are recomputed from the merged histogram, so they obey
    // the usual ordering.
    assert!(fleet.p50_latency <= fleet.p99_latency);
    assert!(fleet.mean_latency <= fleet.max_latency);
}

/// The flusher threads keep `max_delay` on their own: these tests never
/// flush, and poll only where the poll is the point.
mod flushers {
    use super::*;

    fn engine_with(
        detector: &Detector,
        tenants: &[&str],
        shards: usize,
        max_batch: usize,
        max_delay: Duration,
    ) -> ShardedServeEngine {
        let registry = Arc::new(DetectorRegistry::new());
        for tenant in tenants {
            registry.register(tenant, detector.clone()).unwrap();
        }
        let config = ShardConfig {
            shards,
            serve: ServeConfig { max_batch, max_delay, ..ServeConfig::default() },
            ..ShardConfig::default()
        };
        let engine = ShardedServeEngine::new(registry, config).unwrap();
        assert!(engine.background_flush_active());
        engine
    }

    /// Waits for the flushers to serve `ticket`; returns the verdict and
    /// when it was first seen.
    fn served(engine: &ShardedServeEngine, ticket: &Ticket) -> (Verdict, Instant) {
        let give_up = Instant::now() + Duration::from_secs(20);
        loop {
            if let Some(verdict) = engine.try_take(ticket).unwrap() {
                return (verdict, Instant::now());
            }
            assert!(Instant::now() < give_up, "the flusher never served {ticket:?}");
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// The flusher counts a deadline as fired just *after* its verdicts
    /// become visible; waits for the count to catch up.
    fn settled(engine: &ShardedServeEngine, fired: u64) -> FlusherStats {
        let give_up = Instant::now() + Duration::from_secs(20);
        loop {
            let stats = engine.flusher_stats();
            if stats.fired >= fired {
                return stats;
            }
            assert!(Instant::now() < give_up, "{fired} deadlines never fired: {stats:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn small_detector(seed: u64) -> (Detector, Dataset) {
        let data = generate(DatasetKind::NslKdd, 300, 67);
        let detector =
            Detector::builder().dimension(128).retrain_epochs(1).seed(seed).train(&data).unwrap();
        (detector, data)
    }

    #[test]
    fn a_lone_flow_is_served_on_its_deadline() {
        let (detector, data) = small_detector(3);
        let max_delay = Duration::from_millis(40);
        let engine = engine_with(&detector, &["lone"], 2, 64, max_delay);
        let oracle = detector.detect_batch(&data.records()[..9]).unwrap();
        let mut waits: Vec<Duration> = (0..9)
            .map(|i| {
                let start = Instant::now();
                let ticket = engine.submit("lone", &data.records()[i]).unwrap();
                let (verdict, seen) = served(&engine, &ticket);
                assert_eq!(verdict, oracle[i]);
                seen - start
            })
            .collect();
        waits.sort_unstable();
        assert!(waits[0] >= max_delay, "a deadline never fires early: {waits:?}");
        assert!(
            waits[4] <= max_delay + Duration::from_millis(4),
            "the flusher sleeps to the deadline instead of polling towards it: {waits:?}"
        );
        let stats = settled(&engine, 9);
        assert_eq!((stats.armed, stats.fired, stats.stale), (9, 9, 0));
        assert_eq!(stats.lateness.count(), 9);
    }

    #[test]
    fn a_stale_deadline_flushes_nothing_and_the_younger_batch_keeps_its_own() {
        let (detector, data) = small_detector(5);
        let max_delay = Duration::from_millis(60);
        let engine = engine_with(&detector, &["t"], 1, 4, max_delay);
        let oracle = detector.detect_batch(&data.records()[..5]).unwrap();

        // Four flows fill the batch: it flushes inline and leaves its
        // armed deadline behind.
        let full: Vec<Ticket> =
            data.records()[..4].iter().map(|r| engine.submit("t", r).unwrap()).collect();
        assert_eq!(engine.stats("t").unwrap().batches, 1);
        // Half a deadline later a younger batch starts and arms its own.
        std::thread::sleep(max_delay / 2);
        let start = Instant::now();
        let young = engine.submit("t", &data.records()[4]).unwrap();
        let (verdict, seen) = served(&engine, &young);

        assert_eq!(verdict, oracle[4]);
        let waited = seen - start;
        assert!(waited >= max_delay, "the older batch's deadline flushed it early: {waited:?}");
        assert!(waited < max_delay * 4, "left to housekeeping: {waited:?}");
        assert_eq!(engine.stats("t").unwrap().batches, 2, "the younger batch flushed exactly once");
        for (ticket, want) in full.iter().zip(&oracle) {
            assert_eq!(engine.try_take(ticket).unwrap(), Some(*want));
        }
        // Both deadlines fire; exactly one of them found nothing to do.
        let stats = settled(&engine, 2);
        assert_eq!((stats.armed, stats.fired, stats.stale), (2, 2, 1));
    }

    #[test]
    fn dropping_the_engine_wakes_parked_flushers() {
        let (detector, data) = small_detector(7);
        let engine = engine_with(&detector, &["t"], 4, 64, Duration::from_secs(10));
        engine.submit("t", &data.records()[0]).unwrap();
        assert_eq!(engine.flusher_stats().armed, 1);
        let start = Instant::now();
        drop(engine);
        let took = start.elapsed();
        assert!(took < Duration::from_millis(50), "drop waited for a sleeping flusher: {took:?}");
    }

    #[test]
    fn a_caller_poll_leaves_armed_deadlines_alone() {
        let (detector, data) = small_detector(9);
        let max_delay = Duration::from_millis(30);
        let engine = engine_with(&detector, &["t"], 2, 64, max_delay);
        let start = Instant::now();
        let ticket = engine.submit("t", &data.records()[0]).unwrap();
        assert_eq!(engine.poll(), 0, "nothing is due yet");
        let (verdict, seen) = served(&engine, &ticket);
        assert_eq!(verdict, detector.detect_batch(&data.records()[..1]).unwrap()[0]);
        let waited = seen - start;
        assert!(waited >= max_delay, "{waited:?}");
        assert!(waited < max_delay * 4, "the poll lost the deadline: {waited:?}");
        assert_eq!(settled(&engine, 1).fired, 1);
    }

    #[test]
    fn swaps_and_reregistrations_with_deadlines_armed_keep_generations_apart() {
        let data = generate(DatasetKind::NslKdd, 400, 71);
        let train = |dimension, seed| {
            Detector::builder()
                .dimension(dimension)
                .retrain_epochs(1)
                .seed(seed)
                .train(&data)
                .unwrap()
        };
        let (v1, v2, v3) = (train(128, 1), train(160, 2), train(192, 3));
        let flows = data.records();
        let max_delay = Duration::from_millis(25);
        let engine = engine_with(&v1, &["t"], 2, 8, max_delay);
        let registry = Arc::clone(engine.registry());
        let submit = |range: std::ops::Range<usize>| -> Vec<Ticket> {
            flows[range].iter().map(|r| engine.submit("t", r).unwrap()).collect()
        };

        // Each generation change seals the pending batch on its own
        // artifact and starts (and arms) a new one; nothing is flushed by
        // hand, so every batch is served by an armed deadline — its own,
        // or an older one that fires once the batch is old enough.
        let on_v1 = submit(0..3);
        registry.swap("t", v2.clone()).unwrap();
        let on_v2 = submit(3..6);
        registry.remove("t").unwrap();
        registry.register("t", v3.clone()).unwrap();
        let on_v3 = submit(6..8);
        for (tickets, detector, range) in
            [(&on_v1, &v1, 0..3), (&on_v2, &v2, 3..6), (&on_v3, &v3, 6..8)]
        {
            let oracle = detector.detect_batch(&flows[range]).unwrap();
            for (ticket, want) in tickets.iter().zip(&oracle) {
                assert_eq!(served(&engine, ticket).0, *want);
            }
        }

        // An evicted lane's armed deadline fires into nothing; the lane
        // that replaces it is served on a deadline of its own.
        let orphan = engine.submit("t", &flows[8]).unwrap();
        registry.remove("t").unwrap();
        assert!(engine.evict("t"));
        registry.register("t", v1.clone()).unwrap();
        let start = Instant::now();
        let fresh = engine.submit("t", &flows[9]).unwrap();
        let (verdict, seen) = served(&engine, &fresh);
        assert_eq!(verdict, v1.detect_batch(&flows[9..10]).unwrap()[0]);
        assert!(seen - start >= max_delay);
        assert!(matches!(engine.try_take(&orphan), Err(ServeError::UnknownTicket)));

        let stats = settled(&engine, 5);
        assert_eq!((stats.armed, stats.fired), (5, 5), "every armed deadline fires exactly once");
    }
}
