//! Serving-layer benchmarks: what the micro-batcher buys over per-flow
//! serving, and what the `max_delay` watermark costs in tail latency.
//!
//! Two measurements, both at the engine's reference configuration
//! (dim=10k, 4 classes, NSL-KDD-shaped flows; scale via
//! `CYBERHD_SERVE_DIM` / `CYBERHD_SERVE_SAMPLES` / `CYBERHD_SERVE_REPS`):
//!
//! 1. **Single-submit throughput** — flows pushed one at a time through
//!    [`ServeEngine::submit`] (the deployment arrival pattern) against the
//!    naive per-flow `detect_with` loop a caller without the engine would
//!    write, plus the one-shot `detect_batch` ceiling.  The ratios are
//!    printed, not asserted: the naive loop runs the same encode kernel at
//!    `n = 1`, so what the engine buys is batch amortization alone.
//! 2. **Flush latency vs `max_delay`** — a paced submit→poll loop per
//!    `max_delay` setting, reporting p50/p99 submit→verdict latency and
//!    throughput from the engine's own [`LatencyHistogram`]-backed stats —
//!    the README's throughput/latency trade-off table.
//!
//! A third measurement covers the drift-adaptive lane:
//!
//! 3. **Adaptive recovery** — the abrupt-shift scenario
//!    ([`bench::scenario`]) replayed through the frozen engine and an
//!    [`cyberhd::serve::AdaptiveLane`] in lock-step (scale via
//!    `CYBERHD_SERVE_ADAPTIVE_DIM`), reporting the post-drift accuracy
//!    delta, the automatic regeneration/republish count and the
//!    reseal+swap latency.
//!
//! And a fourth covers the scale-out path:
//!
//! 4. **Sharded many-tenant serving** — ≥ 256 tenants
//!    (`CYBERHD_SERVE_TENANTS`) under a seeded, bit-reproducible Zipf
//!    traffic schedule ([`bench::zipf`]), pushed by partitioned submitter
//!    threads through a [`ShardedServeEngine`] at shard counts
//!    {1, 2, 4, 8} (scale via `CYBERHD_SERVE_SHARDED_FLOWS` /
//!    `CYBERHD_SERVE_SHARDED_DIM`).  Determinism (schedule regeneration
//!    equality + per-tenant verdict parity with the `detect_batch`
//!    oracle) is asserted on every run; near-linear shard scaling is
//!    asserted only when more than one core is available.
//!
//! Emits the `BENCH_serve.json` snapshot at the workspace root and
//! asserts the determinism contract (served verdicts == `detect_batch`
//! oracle) at bench scale, where flush boundaries actually vary.

use bench::scenario::{abrupt_shift, replay, ReplayConfig};
use bench::zipf::ZipfSampler;
use bench::{env_usize, limited_class_dataset, snapshot, timed_pass};
use criterion::{criterion_group, criterion_main, Criterion};
use cyberhd::serve::shard::{ShardConfig, ShardedServeEngine};
use cyberhd::serve::{DetectorRegistry, ServeConfig, ServeEngine, Ticket};
use cyberhd::{Detector, Verdict};
use hdc::parallel::{available_cores, engine_threads};
use nids_data::DatasetKind;
use std::sync::Arc;
use std::time::Duration;

/// Submits every flow through the engine one at a time, flushes the tail
/// and collects every verdict — the serving equivalent of one batch pass.
fn serve_pass(engine: &ServeEngine, flows: &[Vec<f32>]) -> Vec<Verdict> {
    let tickets: Vec<_> = flows
        .iter()
        .map(|record| engine.submit("bench", record).expect("registered tenant, sound flow"))
        .collect();
    engine.flush("bench").expect("registered tenant");
    tickets.iter().map(|t| engine.take(t).expect("flushed")).collect()
}

fn bench_serve(c: &mut Criterion) {
    // Criterion's calibrated micro-sampling cannot hold a full serve pass
    // at default scale; the heavy passes are timed directly (see the
    // inference bench for the same convention).
    let _ = c;
    let dim = env_usize("CYBERHD_SERVE_DIM", 10_000);
    let samples = env_usize("CYBERHD_SERVE_SAMPLES", 10_000);
    let reps = env_usize("CYBERHD_SERVE_REPS", 2);

    // A small training corpus keeps model construction cheap at huge dims
    // (the trainer materializes a samples × dim encoding matrix); the
    // served stream cycles the same flows up to `samples`.
    let dataset =
        limited_class_dataset(DatasetKind::NslKdd, 4, 1_000, 29).expect("dataset generation");
    let detector = Detector::builder()
        .dimension(dim)
        .retrain_epochs(1)
        .regeneration_rate(0.0)
        .learning_rate(0.05)
        .seed(17)
        .train(&dataset)
        .expect("training succeeds");
    let flows: Vec<Vec<f32>> = dataset.records().iter().cycle().take(samples).cloned().collect();

    println!(
        "\nserve_single_submit: dim={dim}, classes={}, samples={samples}, reps={reps}",
        detector.num_classes()
    );

    let fresh_engine = |config: ServeConfig| {
        let registry = Arc::new(DetectorRegistry::new());
        registry.register("bench", detector.clone()).expect("fresh registry");
        ServeEngine::new(registry, config).expect("valid config")
    };

    // Naive per-flow serving: what a caller without the micro-batcher
    // writes — one detect per arriving flow, reusing scratch.
    let mut scratch = detector.scratch();
    let (naive, _) = timed_pass(samples, reps, || {
        flows
            .iter()
            .map(|record| detector.detect_with(record, &mut scratch).unwrap())
            .collect::<Vec<_>>()
    });

    // Micro-batched serving at the default watermarks; the whole
    // submit→flush→take cycle is inside the timed region.
    let engine =
        fresh_engine(ServeConfig { queue_capacity: samples.max(64), ..ServeConfig::default() });
    let (served, serve_verdicts) = timed_pass(samples, reps, || serve_pass(&engine, &flows));

    // The ceiling: the caller already holds the whole batch.
    let (batch, batch_verdicts) =
        timed_pass(samples, reps, || detector.detect_batch(&flows).unwrap());

    println!("  naive per-flow detect : {naive}");
    println!("  serve single-submit   : {served}");
    println!("  detect_batch ceiling  : {batch}");
    let serve_speedup = served.speedup_over(&naive);
    println!("  serve-vs-naive  speedup: {serve_speedup:.2}x");
    println!("  serve-vs-batch  fraction: {:.2}", batch.speedup_over(&served));

    // Determinism contract at bench scale: the served verdicts are the
    // detect_batch oracle, bit for bit.
    assert_eq!(serve_verdicts, batch_verdicts, "served verdicts diverged from detect_batch");

    // Flush-latency percentiles vs the max_delay watermark, under a paced
    // arrival stream (5k flows/s — thin enough that the batch watermark
    // never fires and the delay watermark picks the batch size).  The
    // engine stamps submit time itself, so the percentiles measure real
    // submit→verdict waiting including the batch's own scoring.
    let mut arms = vec![
        snapshot::Arm::new("naive_per_flow_detect", naive),
        snapshot::Arm::new("serve_single_submit", served),
        snapshot::Arm::new("detect_batch_ceiling", batch),
    ];
    let mut extra_params: Vec<(String, f64)> = Vec::new();
    let paced = samples.min(2_000);
    let arrival_interval = Duration::from_micros(200);
    println!(
        "\nflush latency vs max_delay ({paced} flows arriving every \
         {arrival_interval:?}, max_batch uncapped):"
    );
    for delay_us in [500u64, 2_000, 8_000] {
        let engine = fresh_engine(ServeConfig {
            max_batch: paced,
            max_delay: Duration::from_micros(delay_us),
            queue_capacity: paced,
        });
        let (report, _) = timed_pass(paced, 1, || {
            let start = std::time::Instant::now();
            let tickets: Vec<_> = flows[..paced]
                .iter()
                .enumerate()
                .map(|(i, record)| {
                    // Spin until this flow's arrival time (sleep granularity
                    // is too coarse for a 200us schedule).
                    let due = start + arrival_interval * i as u32;
                    while std::time::Instant::now() < due {
                        std::hint::spin_loop();
                    }
                    let ticket = engine.submit("bench", record).unwrap();
                    engine.poll();
                    ticket
                })
                .collect();
            engine.flush("bench").unwrap();
            tickets.iter().map(|t| engine.take(t).unwrap()).collect::<Vec<_>>()
        });
        let stats = engine.stats("bench").expect("tenant served traffic");
        let p50_ms = stats.p50_latency.as_secs_f64() * 1e3;
        let p99_ms = stats.p99_latency.as_secs_f64() * 1e3;
        println!(
            "  max_delay {:>5}us: p50 {:.3} ms, p99 {:.3} ms, mean batch {:.1}, {:.0} flows/s",
            delay_us,
            p50_ms,
            p99_ms,
            stats.mean_batch_size(),
            report.samples_per_second()
        );
        arms.push(snapshot::Arm::new(&format!("serve_paced_delay_{delay_us}us"), report));
        extra_params.push((format!("p50_ms_delay_{delay_us}us"), p50_ms));
        extra_params.push((format!("p99_ms_delay_{delay_us}us"), p99_ms));
        extra_params.push((format!("mean_batch_delay_{delay_us}us"), stats.mean_batch_size()));
    }

    // Drift-adaptive serving: the abrupt-shift scenario through the full
    // frozen + adaptive stack.  Everything is seeded, so the recovery
    // numbers are exact reproductions, not trends.
    let adaptive_dim = env_usize("CYBERHD_SERVE_ADAPTIVE_DIM", 1024);
    let spec = abrupt_shift(DatasetKind::NslKdd);
    let scenario_flows: usize = spec.phases.iter().map(|p| p.samples).sum();
    println!(
        "\nadaptive_recovery: scenario {} at dim={adaptive_dim}, {scenario_flows} flows",
        spec.name
    );
    let config = ReplayConfig { dimension: adaptive_dim, ..ReplayConfig::default() };
    let (adaptive_report, outcome) =
        timed_pass(scenario_flows, 1, || replay(&spec, &config).expect("scenario replay"));
    assert!(
        outcome.frozen_bit_identical,
        "frozen lanes must stay bit-identical to the detect_batch oracle under drift"
    );
    let swap_p50_ms = outcome.adaptive.p50_publish_latency.as_secs_f64() * 1e3;
    let swap_max_ms = outcome.adaptive.max_publish_latency.as_secs_f64() * 1e3;
    println!("  adaptive replay        : {adaptive_report}");
    println!(
        "  post-drift accuracy    : adaptive {:.3} vs frozen {:.3} (delta {:+.3}) over {:?}",
        outcome.adaptive_recovery_accuracy,
        outcome.frozen_recovery_accuracy,
        outcome.recovery_delta(),
        outcome.recovery_window,
    );
    println!(
        "  adaptation             : {} trips -> {} regenerations ({} dims), {} publishes \
         (registry v{}), swap p50 {swap_p50_ms:.3} ms max {swap_max_ms:.3} ms",
        outcome.adaptive.monitor_trips,
        outcome.adaptive.adaptations,
        outcome.adaptive.regenerated_dimensions,
        outcome.adaptive.publishes,
        outcome.final_registry_version,
    );
    if adaptive_dim >= 512 {
        assert!(
            outcome.recovery_delta() >= 0.10,
            "the adaptive lane must recover >= 10 accuracy points over the frozen artifact \
             post-drift, got {:+.3}",
            outcome.recovery_delta()
        );
        assert!(
            outcome.adaptive.publishes >= 1,
            "at least one automatic regeneration + registry swap must fire mid-stream"
        );
    }
    arms.push(snapshot::Arm::new("adaptive_recovery", adaptive_report));
    extra_params.push(("adaptive_dim".into(), adaptive_dim as f64));
    extra_params.push(("adaptive_post_drift_acc".into(), outcome.adaptive_recovery_accuracy));
    extra_params.push(("frozen_post_drift_acc".into(), outcome.frozen_recovery_accuracy));
    extra_params.push(("adaptive_recovery_delta".into(), outcome.recovery_delta()));
    extra_params.push(("adaptive_trips".into(), outcome.adaptive.monitor_trips as f64));
    extra_params.push(("adaptive_publishes".into(), outcome.adaptive.publishes as f64));
    extra_params.push(("swap_p50_ms".into(), swap_p50_ms));
    extra_params.push(("swap_max_ms".into(), swap_max_ms));

    // Sharded many-tenant serving: a fixed seeded Zipf schedule over the
    // tenant fleet, replayed at every shard count.  The timed region is
    // the full serve pass (partitioned-thread submit -> flush_all ->
    // drain), so the arm measures end-to-end submit throughput.
    let tenant_count = env_usize("CYBERHD_SERVE_TENANTS", 256);
    let sharded_flows = env_usize("CYBERHD_SERVE_SHARDED_FLOWS", 20_000);
    let sharded_dim = env_usize("CYBERHD_SERVE_SHARDED_DIM", 2_048);
    let sharded_detector = Detector::builder()
        .dimension(sharded_dim)
        .retrain_epochs(1)
        .regeneration_rate(0.0)
        .learning_rate(0.05)
        .seed(17)
        .train(&dataset)
        .expect("training succeeds");
    let tenant_names: Vec<String> = (0..tenant_count).map(|t| format!("edge-{t:04}")).collect();
    let zipf = ZipfSampler::new(tenant_count, 1.1);
    let schedule = zipf.schedule(sharded_flows, 91);
    assert_eq!(
        schedule,
        zipf.schedule(sharded_flows, 91),
        "the Zipf traffic schedule must regenerate bit-for-bit from its seed"
    );

    // Per-tenant flow sequences (cycling the corpus) and their oracle are
    // functions of the schedule alone — fixed across shard counts.
    let mut tenant_records: Vec<Vec<usize>> = vec![Vec::new(); tenant_count];
    for &t in &schedule {
        let next = tenant_records[t].len();
        tenant_records[t].push(next % dataset.len());
    }
    let sharded_oracle: Vec<Vec<Verdict>> = tenant_records
        .iter()
        .map(|records| {
            if records.is_empty() {
                return Vec::new();
            }
            let flows: Vec<Vec<f32>> =
                records.iter().map(|&r| dataset.records()[r].clone()).collect();
            sharded_detector.detect_batch(&flows).expect("oracle pass")
        })
        .collect();

    let submitters = engine_threads().clamp(1, 8);
    println!(
        "\nserve_sharded: {tenant_count} tenants (Zipf 1.1), {sharded_flows} flows, \
         dim={sharded_dim}, {submitters} submitter threads, {} cores",
        available_cores()
    );
    let mut sharded_rates: Vec<(usize, f64)> = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let registry = Arc::new(DetectorRegistry::new());
        for tenant in &tenant_names {
            registry.register(tenant, sharded_detector.clone()).expect("fresh registry");
        }
        let engine = ShardedServeEngine::new(
            Arc::clone(&registry),
            ShardConfig {
                shards,
                serve: ServeConfig {
                    max_batch: 32,
                    max_delay: Duration::from_millis(2),
                    queue_capacity: sharded_flows.max(64),
                },
                ..ShardConfig::default()
            },
        )
        .expect("valid shard config");

        let (report, served) = timed_pass(sharded_flows, 1, || {
            // Tenants are partitioned over the submitter threads (tenant
            // index mod thread count), so every tenant's submission order
            // is deterministic regardless of thread interleaving.
            let mut tickets: Vec<Vec<Ticket>> = vec![Vec::new(); tenant_count];
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..submitters)
                    .map(|worker| {
                        let engine = &engine;
                        let schedule = &schedule;
                        let tenant_names = &tenant_names;
                        let dataset = &dataset;
                        scope.spawn(move || {
                            let mut mine: Vec<Vec<Ticket>> = vec![Vec::new(); tenant_count];
                            let mut cursor = vec![0usize; tenant_count];
                            for &t in schedule {
                                let record = cursor[t] % dataset.len();
                                cursor[t] += 1;
                                if t % submitters != worker {
                                    continue;
                                }
                                let ticket = engine
                                    .submit(&tenant_names[t], &dataset.records()[record])
                                    .expect("registered tenant, sound flow");
                                mine[t].push(ticket);
                            }
                            mine
                        })
                    })
                    .collect();
                for handle in handles {
                    for (t, mut own) in handle.join().expect("submitter").into_iter().enumerate() {
                        tickets[t].append(&mut own);
                    }
                }
            });
            engine.flush_all();
            tickets
                .iter()
                .map(|tickets| {
                    tickets.iter().map(|t| engine.take(t).expect("flushed")).collect::<Vec<_>>()
                })
                .collect::<Vec<Vec<Verdict>>>()
        });

        // Determinism through sharding, flusher threads and submitter
        // partitioning: every tenant's verdicts are the oracle, bit for
        // bit.
        assert_eq!(
            served, sharded_oracle,
            "sharded verdicts diverged from the detect_batch oracle at {shards} shards"
        );
        let fleet = engine.fleet_stats().expect("fleet served traffic");
        println!(
            "  shards {shards}: {report} (fleet p50 {:?} p99 {:?}, mean batch {:.1})",
            fleet.p50_latency,
            fleet.p99_latency,
            fleet.mean_batch_size()
        );
        arms.push(snapshot::Arm::new(&format!("serve_sharded_shards_{shards}"), report));
        sharded_rates.push((shards, report.samples_per_second()));
    }
    let single_shard_rate = sharded_rates[0].1;
    let (best_shards, best_rate) =
        sharded_rates.iter().copied().max_by(|a, b| a.1.total_cmp(&b.1)).expect("four shard arms");
    let sharded_scaling = best_rate / single_shard_rate;
    println!(
        "  best: {best_shards} shards at {sharded_scaling:.2}x the single-shard rate \
         (scaling asserted only on multi-core hosts)"
    );
    // On a single-core host the shard sweep measures overhead, not
    // scaling; the conservative near-linear bar only applies when the
    // flusher and submitter threads can actually run in parallel.
    if available_cores() > 1 && sharded_flows >= 10_000 {
        assert!(
            sharded_scaling >= 1.3,
            "multi-shard serving must beat one shard by >= 1.3x on a multi-core host, got \
             {sharded_scaling:.2}x"
        );
    }
    extra_params.push(("tenants".into(), tenant_count as f64));
    extra_params.push(("sharded_flows".into(), sharded_flows as f64));
    extra_params.push(("sharded_dim".into(), sharded_dim as f64));
    extra_params.push(("cores".into(), available_cores() as f64));
    extra_params.push(("sharded_submitters".into(), submitters as f64));

    let speedups = vec![
        ("serve_vs_naive", serve_speedup),
        ("batch_ceiling_vs_serve", batch.speedup_over(&served)),
        ("serve_vs_batch_fraction", served.speedup_over(&batch)),
        ("sharded_best_vs_1_shard", sharded_scaling),
    ];
    let mut params: Vec<(&str, f64)> = vec![
        ("dim", dim as f64),
        ("classes", detector.num_classes() as f64),
        ("samples", samples as f64),
        ("reps", reps as f64),
        ("threads", engine_threads() as f64),
        ("available_cores", available_cores() as f64),
        ("max_batch", ServeConfig::default().max_batch as f64),
    ];
    params.extend(extra_params.iter().map(|(k, v)| (k.as_str(), *v)));
    let labels = [("kernel_isa", hdc::kernel::active().isa())];
    match snapshot::write("BENCH_serve.json", "serve", &labels, &params, &arms, &speedups) {
        Ok(path) => println!("  snapshot: {}", path.display()),
        Err(err) => eprintln!("  snapshot write failed: {err}"),
    }
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
