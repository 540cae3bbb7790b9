//! Sharded many-tenant serving on `cyberhd::serve::shard`.
//!
//! A single [`ServeEngine`] is one lane map behind one lock; a fleet of
//! hundreds of edge tenants wants more. This example runs the scale-out
//! shape: 24 tenants with heavy-tailed (Zipf) traffic submit raw flows
//! one at a time into a [`ShardedServeEngine`] that partitions them
//! across 4 shards by tenant hash, flushes each lane on its batch
//! deadline (per-shard flusher threads that sleep until the next
//! deadline), and sheds the hottest tenant with a token-bucket quota so
//! the head of the Zipf curve cannot starve the tail.
//!
//! The punchline is the same as for the single-shard engine: sharding,
//! flush timing, flusher threads and shedding are all invisible in the
//! verdicts — every tenant's served verdicts are bit-identical to one
//! `detect_batch` call over its admitted flows in submission order.
//!
//! ```text
//! cargo run --example sharded_serving --release
//! ```

use bench::zipf::ZipfSampler;
use cyberhd_suite::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const TENANTS: usize = 24;
const FLOWS: usize = 6_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One artifact shared by the whole fleet (each tenant could just as
    // well register its own shape, as in `examples/serving.rs`).
    let data = DatasetKind::NslKdd.generate(&SyntheticConfig::new(4_000, 17).difficulty(1.2))?;
    let (train, live) = train_test_split(&data, 0.5, 17)?;
    let detector = Detector::builder().dimension(256).retrain_epochs(2).seed(5).train(&train)?;

    let registry = Arc::new(DetectorRegistry::new());
    let tenants: Vec<String> = (0..TENANTS).map(|t| format!("edge-{t:02}")).collect();
    for tenant in &tenants {
        registry.register(tenant, detector.clone())?;
    }

    let engine = ShardedServeEngine::new(
        Arc::clone(&registry),
        ShardConfig {
            shards: 4,
            serve: ServeConfig {
                max_batch: 32,
                max_delay: Duration::from_millis(1),
                queue_capacity: 4_096,
            },
            admission: Some(AdmissionConfig::default()),
            ..ShardConfig::default()
        },
    )?;
    println!("sharded engine: {} shards, background flushers on", engine.shard_count());
    let mut per_shard = vec![0usize; engine.shard_count()];
    for tenant in &tenants {
        per_shard[engine.shard_of(tenant)] += 1;
    }
    println!("tenant placement (FNV-1a routing): {per_shard:?}");

    // The Zipf head gets a hard quota; everyone else rides the default
    // (unmetered) admission policy with overload watermarks.
    let zipf = ZipfSampler::new(TENANTS, 1.1);
    let hot = &tenants[0];
    engine.set_quota(hot, Some(TenantQuota { rate_per_sec: 50_000, burst: 64 }));
    engine.set_priority(hot, Priority::Low);
    println!("quota on {hot}: 50k flows/s, burst 64 (Zipf head, p = {:.2})\n", zipf.probability(0));

    // Heavy-tailed arrivals: a seeded, bit-reproducible Zipf schedule
    // picks the tenant of every submission.
    let schedule = zipf.schedule(FLOWS, 91);
    let mut tickets: Vec<Vec<Ticket>> = vec![Vec::new(); TENANTS];
    let mut submitted: Vec<Vec<usize>> = vec![Vec::new(); TENANTS];
    let mut cursor = [0usize; TENANTS];
    let mut shed = 0usize;
    for &t in &schedule {
        let record = cursor[t] % live.len();
        cursor[t] += 1;
        match engine.submit(&tenants[t], &live.records()[record]) {
            Ok(ticket) => {
                tickets[t].push(ticket);
                submitted[t].push(record);
            }
            Err(cyberhd::serve::ServeError::Shed { .. }) => shed += 1,
            Err(e) => return Err(e.into()),
        }
    }
    engine.flush_all();

    // Bit-identity through sharding, flusher threads and shedding: every
    // tenant's verdicts equal one detect_batch over its admitted flows.
    let mut alerts = 0usize;
    for (t, tenant) in tenants.iter().enumerate() {
        let flows: Vec<Vec<f32>> =
            submitted[t].iter().map(|&r| live.records()[r].clone()).collect();
        let oracle = detector.detect_batch(&flows)?;
        for ((ticket, want), record) in tickets[t].iter().zip(&oracle).zip(&submitted[t]) {
            let got = engine.take(ticket)?;
            assert_eq!(
                got, *want,
                "{tenant} flow #{record}: served verdict must match detect_batch bit for bit"
            );
            if got.class != 0 {
                alerts += 1;
            }
        }
    }

    let admission = engine.admission_stats();
    println!(
        "admission: {} admitted, {} shed by quota, {} shed by overload",
        admission.admitted, admission.shed_quota, admission.shed_overload
    );
    println!("observed at the submit loop: {shed} sheds across {FLOWS} arrivals");
    println!("\nbusiest tenants:");
    let mut by_volume: Vec<(usize, usize)> = tickets.iter().map(Vec::len).enumerate().collect();
    by_volume.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    for &(t, n) in by_volume.iter().take(5) {
        let stats = engine.stats(&tenants[t]).expect("tenant served traffic");
        println!(
            "  {} ({} flows on shard {}): {stats}",
            tenants[t],
            n,
            engine.shard_of(&tenants[t])
        );
    }

    let fleet = engine.fleet_stats().expect("the fleet served traffic");
    println!("\nfleet: {fleet}");
    // How well the flushers kept max_delay: every batch that started on an
    // empty lane armed one deadline; a stale one found its batch already
    // gone (flushed inline at max_batch, or by the final flush_all).
    println!("flushers: {}", engine.flusher_stats());
    println!(
        "verdict check: all {} served verdicts are bit-identical to detect_batch ({} alerts)",
        fleet.flows_served, alerts
    );
    Ok(())
}
