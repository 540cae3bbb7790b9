//! `cyberhd::serve::admission` — deterministic admission control for the
//! sharded serving engine.
//!
//! Backpressure ([`ServeError::Backpressure`]) is the *last* line of
//! defence: by the time a tenant's bounded queue is full, latency has
//! already collapsed.  Admission control sheds **before** work is queued,
//! with two independent, fully deterministic policies:
//!
//! * **Per-tenant quota tokens** — a token bucket per tenant
//!   ([`TenantQuota`]): `burst` tokens up front, refilled at
//!   `rate_per_sec`.  A submission with no token is shed with a
//!   [`ServeError::Shed`] whose `retry_hint` is the time until the next
//!   token, so well-behaved callers converge on their quota rate instead
//!   of hammering the engine.
//! * **Priority lanes under overload** — every tenant carries a
//!   [`Priority`]; as a shard's outstanding work (pending flows plus
//!   uncollected verdicts, [`super::ServeEngine::outstanding`]) climbs
//!   through the configured watermarks, lower priorities are shed first:
//!   `Low` above `low_watermark`, `Low`+`Normal` above
//!   `normal_watermark`, everyone at full `shard_capacity`.
//!
//! "Deterministic" means no randomness anywhere: the same submission
//! sequence with the same timestamps produces the same admit/shed
//! decisions, which is what lets `tests/serve_sharded.rs` pin verdict
//! bit-identity *through* the shedding path.

use super::{ServeError, ServeResult};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

/// A tenant's scheduling class under overload: higher priorities keep
/// being admitted while lower ones are already shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Shed first (batch/bulk traffic).
    Low,
    /// The default class.
    #[default]
    Normal,
    /// Shed only when the shard is at full capacity.
    High,
}

/// A per-tenant token-bucket quota: `burst` tokens up front, refilled
/// continuously at `rate_per_sec`.  `rate_per_sec == 0` means the burst
/// is all the tenant ever gets (useful for tests and hard caps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Sustained admissions per second.
    pub rate_per_sec: u64,
    /// Maximum tokens the bucket holds (and its initial fill).
    pub burst: u64,
}

/// Admission-control policy knobs (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Quota applied to tenants without an explicit
    /// [`AdmissionController::set_quota`] override; `None` = unmetered.
    pub default_quota: Option<TenantQuota>,
    /// Outstanding flows per shard at which even [`Priority::High`]
    /// traffic is shed.
    pub shard_capacity: usize,
    /// Fraction of `shard_capacity` above which [`Priority::Low`] is
    /// shed.
    pub low_watermark: f64,
    /// Fraction of `shard_capacity` above which [`Priority::Normal`] is
    /// also shed.
    pub normal_watermark: f64,
    /// `retry_hint` attached to overload sheds (and to quota sheds whose
    /// bucket can never refill) — pick roughly one flush cadence.
    pub retry_hint: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            default_quota: None,
            shard_capacity: 4096,
            low_watermark: 0.5,
            normal_watermark: 0.75,
            retry_hint: Duration::from_millis(2),
        }
    }
}

impl AdmissionConfig {
    /// Validates the watermark ordering and capacity.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when `shard_capacity` is
    /// zero, a watermark is outside `[0, 1]`, or the watermarks are out
    /// of order.
    pub fn validate(&self) -> ServeResult<()> {
        if self.shard_capacity == 0 {
            return Err(ServeError::InvalidConfig("shard_capacity must be non-zero".into()));
        }
        for (name, v) in
            [("low_watermark", self.low_watermark), ("normal_watermark", self.normal_watermark)]
        {
            if !(0.0..=1.0).contains(&v) || !v.is_finite() {
                return Err(ServeError::InvalidConfig(format!(
                    "{name} must be in [0, 1], got {v}"
                )));
            }
        }
        if self.low_watermark > self.normal_watermark {
            return Err(ServeError::InvalidConfig(format!(
                "low_watermark ({}) must not exceed normal_watermark ({})",
                self.low_watermark, self.normal_watermark
            )));
        }
        Ok(())
    }
}

/// Per-tenant mutable admission state.
#[derive(Debug)]
struct TenantState {
    priority: Priority,
    bucket: Option<Bucket>,
    /// An operator put this state here on purpose
    /// ([`AdmissionController::set_priority`] / `set_quota`), possibly
    /// ahead of registering the tenant: it is never dropped.  State that
    /// only exists because a submission was admitted is dropped again if
    /// the tenant turns out to be unknown.
    configured: bool,
}

/// Token-bucket state; tokens are whole admissions.
#[derive(Debug)]
struct Bucket {
    quota: TenantQuota,
    tokens: u64,
    /// The instant the bucket was last refilled **to a whole token
    /// boundary** — fractional refill time is preserved by only advancing
    /// this by the time the granted whole tokens took to accrue.
    refilled: Instant,
}

impl Bucket {
    fn new(quota: TenantQuota, now: Instant) -> Self {
        Self { quota, tokens: quota.burst, refilled: now }
    }

    /// Refills whole tokens accrued since `refilled`, capped at `burst`.
    fn refill(&mut self, now: Instant) {
        if self.quota.rate_per_sec == 0 || self.tokens >= self.quota.burst {
            self.refilled = now;
            return;
        }
        let elapsed = now.saturating_duration_since(self.refilled).as_nanos();
        let accrued = (elapsed * self.quota.rate_per_sec as u128 / 1_000_000_000) as u64;
        if accrued == 0 {
            return;
        }
        let granted = accrued.min(self.quota.burst - self.tokens);
        self.tokens += granted;
        if self.tokens >= self.quota.burst {
            // A full bucket accrues nothing; restart the clock.
            self.refilled = now;
        } else {
            let nanos = granted as u128 * 1_000_000_000 / self.quota.rate_per_sec as u128;
            self.refilled += Duration::from_nanos(nanos as u64);
        }
    }

    /// Time until the next whole token accrues (the shed `retry_hint`);
    /// `None` when the bucket can never refill.
    ///
    /// [`refill`](Self::refill) grants a token once
    /// `elapsed * rate >= 1e9` ns, so the period must round **up**:
    /// truncating `1e9 / rate` hands back a hint one nanosecond short
    /// for every rate that does not divide 1e9, and a client retrying
    /// exactly at `now + hint` is shed again. `refilled` only advances
    /// to whole-token boundaries, so `since` is banked fractional
    /// accrual and counts toward the next token.
    fn next_token_in(&self, now: Instant) -> Option<Duration> {
        let rate = self.quota.rate_per_sec as u128;
        if rate == 0 {
            return None;
        }
        let needed = 1_000_000_000u128.div_ceil(rate);
        let since = now.saturating_duration_since(self.refilled).as_nanos();
        Some(Duration::from_nanos(needed.saturating_sub(since) as u64))
    }
}

/// A snapshot of the controller's decision counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Submissions admitted.
    pub admitted: u64,
    /// Submissions shed by an exhausted tenant quota.
    pub shed_quota: u64,
    /// Submissions shed by an overload watermark.
    pub shed_overload: u64,
    /// Tenants the controller holds state for: those an operator
    /// configured plus those with an admitted submission — ids nobody
    /// registered leave nothing behind.
    pub tracked_tenants: usize,
}

impl AdmissionStats {
    /// Total shed submissions.
    pub fn shed_total(&self) -> u64 {
        self.shed_quota + self.shed_overload
    }
}

/// The admission controller a [`super::shard::ShardedServeEngine`]
/// consults before any queue is touched (see the [module docs](self)).
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    tenants: RwLock<HashMap<String, Mutex<TenantState>>>,
    admitted: AtomicU64,
    shed_quota: AtomicU64,
    shed_overload: AtomicU64,
}

impl AdmissionController {
    /// Creates a controller.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for an inconsistent
    /// [`AdmissionConfig`].
    pub fn new(config: AdmissionConfig) -> ServeResult<Self> {
        config.validate()?;
        Ok(Self {
            config,
            tenants: RwLock::new(HashMap::new()),
            admitted: AtomicU64::new(0),
            shed_quota: AtomicU64::new(0),
            shed_overload: AtomicU64::new(0),
        })
    }

    /// The controller's policy.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Sets a tenant's overload priority (defaults to
    /// [`Priority::Normal`] on first contact).
    pub fn set_priority(&self, tenant: &str, priority: Priority) {
        self.configure(tenant, |state| state.priority = priority);
    }

    /// A tenant's current priority.
    pub fn priority(&self, tenant: &str) -> Priority {
        self.tenants
            .read()
            .expect("admission lock")
            .get(tenant)
            .map(|s| s.lock().expect("tenant state lock").priority)
            .unwrap_or_default()
    }

    /// Overrides a tenant's quota (`None` = unmetered), resetting its
    /// bucket to a full burst.
    pub fn set_quota(&self, tenant: &str, quota: Option<TenantQuota>) {
        let now = Instant::now();
        self.configure(tenant, |state| {
            state.bucket = quota.map(|q| Bucket::new(q, now));
        });
    }

    /// Applies an operator's setting to the tenant's state, creating it
    /// on first contact and marking it as configured on purpose.
    fn configure(&self, tenant: &str, f: impl FnOnce(&mut TenantState)) {
        let mut tenants = self.tenants.write().expect("admission lock");
        let state = tenants
            .entry(tenant.to_string())
            .or_insert_with(|| Mutex::new(self.fresh_state(Instant::now())))
            .get_mut()
            .expect("tenant state lock");
        f(state);
        state.configured = true;
    }

    fn fresh_state(&self, now: Instant) -> TenantState {
        TenantState {
            priority: Priority::default(),
            bucket: self.config.default_quota.map(|q| Bucket::new(q, now)),
            configured: false,
        }
    }

    /// The admit/shed decision for one submission: `shard_outstanding`
    /// is the target shard's queued work at the moment of the call, `now`
    /// the submission timestamp (explicit so tests are wall-clock-free).
    ///
    /// State for a tenant seen for the first time is kept only if the
    /// submission is admitted, so shed traffic under ids nobody
    /// registered cannot grow the controller.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Shed`] (with a retry hint) when the
    /// submission is shed; the flow was not queued and no token was
    /// consumed by an overload shed.
    pub fn admit(&self, tenant: &str, shard_outstanding: usize, now: Instant) -> ServeResult<()> {
        let known = {
            let tenants = self.tenants.read().expect("admission lock");
            tenants.get(tenant).map(|state| {
                self.decide(&mut state.lock().expect("tenant state lock"), shard_outstanding, now)
            })
        };
        let decision = known.unwrap_or_else(|| {
            match self.tenants.write().expect("admission lock").entry(tenant.to_string()) {
                // A racing first contact got here first.
                Entry::Occupied(state) => self.decide(
                    state.into_mut().get_mut().expect("tenant state lock"),
                    shard_outstanding,
                    now,
                ),
                Entry::Vacant(slot) => {
                    let mut fresh = self.fresh_state(now);
                    let decision = self.decide(&mut fresh, shard_outstanding, now);
                    if decision.is_ok() {
                        slot.insert(Mutex::new(fresh));
                    }
                    decision
                }
            }
        });
        match decision {
            Ok(()) => {
                self.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err((shed_counter, retry_hint)) => {
                shed_counter.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Shed { tenant: tenant.to_string(), retry_hint })
            }
        }
    }

    /// One submission against one tenant's state: the overload
    /// watermarks first (they cost no token, so a shed burst does not
    /// also drain the tenant's quota), then the token bucket.  A shed
    /// names the counter it belongs to and the retry hint to hand back.
    fn decide(
        &self,
        state: &mut TenantState,
        shard_outstanding: usize,
        now: Instant,
    ) -> Result<(), (&AtomicU64, Duration)> {
        let occupancy = shard_outstanding as f64 / self.config.shard_capacity as f64;
        let overloaded = occupancy >= 1.0
            || (state.priority <= Priority::Normal && occupancy >= self.config.normal_watermark)
            || (state.priority == Priority::Low && occupancy >= self.config.low_watermark);
        if overloaded {
            return Err((&self.shed_overload, self.config.retry_hint));
        }
        if let Some(bucket) = &mut state.bucket {
            bucket.refill(now);
            if bucket.tokens == 0 {
                let retry_hint = bucket.next_token_in(now).unwrap_or(self.config.retry_hint);
                return Err((&self.shed_quota, retry_hint));
            }
            bucket.tokens -= 1;
        }
        Ok(())
    }

    /// Takes back an admission whose submission the shard then refused
    /// with [`ServeError::UnknownTenant`]: the `admitted` count, the
    /// token, and — unless an operator configured the tenant on purpose —
    /// the state itself, so unregistered ids leave nothing behind.
    ///
    /// A registration racing the refused submission can lose the token
    /// level of a concurrently admitted flow with the dropped state (the
    /// bucket restarts at a full burst); quotas are not exact across a
    /// tenant's first registration.
    pub(crate) fn retract_unknown(&self, tenant: &str) {
        self.admitted.fetch_sub(1, Ordering::Relaxed);
        let mut tenants = self.tenants.write().expect("admission lock");
        let Some(state) = tenants.get_mut(tenant) else {
            return;
        };
        let state = state.get_mut().expect("tenant state lock");
        if !state.configured {
            tenants.remove(tenant);
        } else if let Some(bucket) = &mut state.bucket {
            bucket.tokens = (bucket.tokens + 1).min(bucket.quota.burst);
        }
    }

    /// A snapshot of the decision counters.
    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed_quota: self.shed_quota.load(Ordering::Relaxed),
            shed_overload: self.shed_overload.load(Ordering::Relaxed),
            tracked_tenants: self.tenants.read().expect("admission lock").len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(config: AdmissionConfig) -> AdmissionController {
        AdmissionController::new(config).unwrap()
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(AdmissionConfig::default().validate().is_ok());
        let bad = AdmissionConfig { shard_capacity: 0, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = AdmissionConfig { low_watermark: 1.5, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad =
            AdmissionConfig { low_watermark: 0.9, normal_watermark: 0.5, ..Default::default() };
        assert!(bad.validate().is_err());
        assert!(AdmissionController::new(bad).is_err());
    }

    #[test]
    fn burst_exhaustion_sheds_with_a_retry_hint() {
        // rate 0: the burst is all the tenant gets — wall-clock-free.
        let ctl = controller(AdmissionConfig {
            default_quota: Some(TenantQuota { rate_per_sec: 0, burst: 3 }),
            ..Default::default()
        });
        let now = Instant::now();
        for _ in 0..3 {
            ctl.admit("t0", 0, now).unwrap();
        }
        match ctl.admit("t0", 0, now) {
            Err(ServeError::Shed { tenant, retry_hint }) => {
                assert_eq!(tenant, "t0");
                assert!(retry_hint > Duration::ZERO);
            }
            other => panic!("expected quota shed, got {other:?}"),
        }
        // Quotas are per tenant: a different tenant is unaffected.
        ctl.admit("t1", 0, now).unwrap();
        let stats = ctl.stats();
        assert_eq!(stats.admitted, 4);
        assert_eq!(stats.shed_quota, 1);
        assert_eq!(stats.shed_overload, 0);
        assert_eq!(stats.shed_total(), 1);
    }

    #[test]
    fn tokens_refill_at_the_configured_rate() {
        let ctl = controller(AdmissionConfig {
            default_quota: Some(TenantQuota { rate_per_sec: 1000, burst: 2 }),
            ..Default::default()
        });
        let t0 = Instant::now();
        ctl.admit("t", 0, t0).unwrap();
        ctl.admit("t", 0, t0).unwrap();
        // Bucket empty; the hint points at the next token (≤ 1 ms at
        // 1000 tokens/s).
        let err = ctl.admit("t", 0, t0).unwrap_err();
        match err {
            ServeError::Shed { retry_hint, .. } => {
                assert!(retry_hint <= Duration::from_millis(1), "{retry_hint:?}")
            }
            other => panic!("{other:?}"),
        }
        // 2.5 ms later two whole tokens accrued, filling the bucket (the
        // half-token above burst is discarded — a full bucket accrues
        // nothing).
        let t1 = t0 + Duration::from_micros(2500);
        ctl.admit("t", 0, t1).unwrap();
        ctl.admit("t", 0, t1).unwrap();
        assert!(ctl.admit("t", 0, t1).is_err());
        // Fractional accrual below burst is preserved: 1.5 periods later
        // one token landed and the odd half-period carries over, so the
        // next token needs only another half-period.
        let t2 = t1 + Duration::from_micros(1500);
        ctl.admit("t", 0, t2).unwrap();
        assert!(ctl.admit("t", 0, t2).is_err());
        let t3 = t2 + Duration::from_micros(500);
        ctl.admit("t", 0, t3).unwrap();
    }

    #[test]
    fn a_retry_at_the_hinted_instant_is_never_shed_again() {
        // Rates that do not divide 1e9 are exactly the ones the old
        // truncated period shortchanged; sweep them with drifting
        // off-boundary offsets so banked fractional accrual feeds into
        // the hint as well.
        for rate in [1u64, 3, 7, 999, 1_000, 32_768, 999_999_937] {
            for burst in [1u64, 2, 5] {
                let ctl = controller(AdmissionConfig {
                    default_quota: Some(TenantQuota { rate_per_sec: rate, burst }),
                    ..Default::default()
                });
                let mut now = Instant::now();
                for step in 0..40u64 {
                    // Drain whatever is available at `now`, capturing the
                    // hint attached to the shed that empties the bucket.
                    let hint = loop {
                        match ctl.admit("t", 0, now) {
                            Ok(()) => {}
                            Err(ServeError::Shed { retry_hint, .. }) => break retry_hint,
                            Err(other) => panic!("{other:?}"),
                        }
                    };
                    now += hint;
                    ctl.admit("t", 0, now).unwrap_or_else(|err| {
                        panic!(
                            "retry at now + retry_hint shed again \
                             (rate {rate}, burst {burst}, step {step}): {err:?}"
                        )
                    });
                    // Step off the whole-token boundary before the next
                    // round so the fractional-accrual path is exercised.
                    now += Duration::from_nanos(step * 41 + 1);
                }
            }
        }
    }

    #[test]
    fn priorities_shed_in_order_under_overload() {
        let ctl = controller(AdmissionConfig {
            shard_capacity: 100,
            low_watermark: 0.5,
            normal_watermark: 0.75,
            ..Default::default()
        });
        let now = Instant::now();
        ctl.set_priority("low", Priority::Low);
        ctl.set_priority("high", Priority::High);
        assert_eq!(ctl.priority("low"), Priority::Low);
        assert_eq!(ctl.priority("normal"), Priority::Normal);

        // Below every watermark: everyone gets in.
        for t in ["low", "normal", "high"] {
            ctl.admit(t, 49, now).unwrap();
        }
        // Above low_watermark: only Low is shed.
        assert!(matches!(ctl.admit("low", 50, now), Err(ServeError::Shed { .. })));
        ctl.admit("normal", 50, now).unwrap();
        ctl.admit("high", 50, now).unwrap();
        // Above normal_watermark: Low and Normal are shed.
        assert!(ctl.admit("low", 75, now).is_err());
        assert!(ctl.admit("normal", 75, now).is_err());
        ctl.admit("high", 75, now).unwrap();
        // At capacity: everyone is shed.
        assert!(ctl.admit("high", 100, now).is_err());
        assert_eq!(ctl.stats().shed_overload, 4);
        assert_eq!(ctl.stats().shed_quota, 0);
    }

    #[test]
    fn overload_sheds_do_not_consume_quota_tokens() {
        let ctl = controller(AdmissionConfig {
            default_quota: Some(TenantQuota { rate_per_sec: 0, burst: 1 }),
            shard_capacity: 10,
            ..Default::default()
        });
        let now = Instant::now();
        // Shed by overload repeatedly…
        for _ in 0..5 {
            assert!(ctl.admit("t", 10, now).is_err());
        }
        // …the single burst token is still there.
        ctl.admit("t", 0, now).unwrap();
        assert!(ctl.admit("t", 0, now).is_err());
    }

    #[test]
    fn only_admitted_or_configured_tenants_are_tracked() {
        // Nothing admits: the shard is full and the default bucket is empty.
        let ctl = controller(AdmissionConfig {
            default_quota: Some(TenantQuota { rate_per_sec: 0, burst: 0 }),
            shard_capacity: 10,
            ..Default::default()
        });
        let now = Instant::now();
        for i in 0..100 {
            assert!(ctl.admit(&format!("overload-{i}"), 10, now).is_err());
            assert!(ctl.admit(&format!("quota-{i}"), 0, now).is_err());
        }
        let stats = ctl.stats();
        assert_eq!((stats.shed_overload, stats.shed_quota), (100, 100));
        assert_eq!(stats.tracked_tenants, 0, "shed first contacts leave no state behind");

        // Retracting an admission from state somebody configured keeps
        // the state, refunds the token and uncounts the admission (state
        // nobody configured is dropped: pinned through the engine in
        // `shard.rs`, where only a refused submission can get there).
        ctl.set_quota("metered", Some(TenantQuota { rate_per_sec: 0, burst: 1 }));
        ctl.set_quota("open", None);
        ctl.admit("metered", 0, now).unwrap();
        ctl.retract_unknown("metered");
        ctl.admit("metered", 0, now).expect("the token came back");
        assert!(ctl.admit("metered", 0, now).is_err());
        ctl.admit("open", 0, now).unwrap();
        ctl.retract_unknown("open");
        assert_eq!(ctl.stats().admitted, 1);
        assert_eq!(ctl.stats().tracked_tenants, 2);
    }

    #[test]
    fn decisions_are_deterministic_for_identical_histories() {
        let run = || {
            let ctl = controller(AdmissionConfig {
                default_quota: Some(TenantQuota { rate_per_sec: 500, burst: 4 }),
                shard_capacity: 64,
                ..Default::default()
            });
            let t0 = Instant::now();
            let mut decisions = Vec::new();
            for i in 0..200u64 {
                let now = t0 + Duration::from_micros(i * 137);
                let outstanding = (i as usize * 7) % 80;
                decisions.push(ctl.admit("t", outstanding, now).is_ok());
            }
            decisions
        };
        assert_eq!(run(), run());
    }
}
