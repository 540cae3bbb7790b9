//! Tenant/stream id → sealed [`Detector`] artifact registry with atomic,
//! admission-checked hot-swap (see the [`crate::serve`] module docs).

use super::{ServeError, ServeResult};
use crate::detector::{Detector, DetectorInfo};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// One registered artifact: its per-tenant `version` (the human-facing
/// sequence: register → 1, each swap +1) and its registry-unique
/// `generation` (what the engine pins batches against — generations are
/// drawn from one monotonic counter, so a remove + re-register under the
/// same id can never alias an older artifact the way a reset version
/// counter would).
#[derive(Debug, Clone)]
struct TenantEntry {
    detector: Detector,
    version: u64,
    generation: u64,
}

/// Tenant/stream id → sealed [`Detector`] artifact, with atomic hot-swap.
///
/// Reads are one `RwLock` read plus an `Arc` bump (detectors are
/// Arc-shared), so routing stays off the scoring hot path's critical
/// section; a swap is one write-lock pointer replacement — **atomic** in
/// the sense that every micro-batch scores against exactly one artifact
/// version, never a half-swapped mixture.
#[derive(Debug, Default)]
pub struct DetectorRegistry {
    tenants: RwLock<HashMap<Arc<str>, TenantEntry>>,
    /// Source of registry-unique artifact generations.
    generations: std::sync::atomic::AtomicU64,
}

impl DetectorRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The next registry-unique artifact generation.
    fn next_generation(&self) -> u64 {
        self.generations.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1
    }

    /// Registers a new tenant at version 1.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::DuplicateTenant`] if the id is taken.
    pub fn register(&self, tenant: &str, detector: Detector) -> ServeResult<()> {
        let generation = self.next_generation();
        let mut tenants = self.tenants.write().expect("registry lock");
        if tenants.contains_key(tenant) {
            return Err(ServeError::DuplicateTenant(tenant.into()));
        }
        tenants.insert(tenant.into(), TenantEntry { detector, version: 1, generation });
        Ok(())
    }

    /// Atomically replaces a tenant's artifact, returning the new version.
    ///
    /// Before the swap the candidate must pass the **admission check**:
    /// same raw-record schema (name and arity), same preprocessed input
    /// width and same class count as the live artifact — the properties
    /// in-flight traffic and downstream verdict consumers depend on.
    /// Encoder family, dimensionality, bitwidth and thresholds may all
    /// change freely (that is what hot-swapping is for).
    ///
    /// Micro-batches already admitted under the old artifact finish on it
    /// (they hold their own `Arc`); submissions routed after the swap see
    /// the new one.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownTenant`] for an unregistered id and
    /// [`ServeError::IncompatibleSwap`] when the admission check fails.
    pub fn swap(&self, tenant: &str, detector: Detector) -> ServeResult<u64> {
        let generation = self.next_generation();
        let mut tenants = self.tenants.write().expect("registry lock");
        let entry =
            tenants.get_mut(tenant).ok_or_else(|| ServeError::UnknownTenant(tenant.into()))?;
        check_admission(&entry.detector.info(), &detector.info())?;
        entry.detector = detector;
        entry.version += 1;
        entry.generation = generation;
        Ok(entry.version)
    }

    /// [`DetectorRegistry::swap`] from persisted artifact bytes
    /// ([`Detector::to_bytes`] / [`hdc::codec`]) — the deployment path
    /// where new versions arrive over the wire or from disk.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Rejected`] for malformed bytes, plus the
    /// [`DetectorRegistry::swap`] errors.
    pub fn swap_from_bytes(&self, tenant: &str, bytes: &[u8]) -> ServeResult<u64> {
        self.swap(tenant, Detector::from_bytes(bytes)?)
    }

    /// Removes a tenant, returning its artifact.
    pub fn remove(&self, tenant: &str) -> Option<Detector> {
        self.tenants.write().expect("registry lock").remove(tenant).map(|e| e.detector)
    }

    /// The tenant's current artifact and version (an `Arc` bump, no copy).
    pub fn current(&self, tenant: &str) -> Option<(Detector, u64)> {
        self.tenants
            .read()
            .expect("registry lock")
            .get(tenant)
            .map(|e| (e.detector.clone(), e.version))
    }

    /// The tenant's current version without touching the artifact.
    pub fn version(&self, tenant: &str) -> Option<u64> {
        self.tenants.read().expect("registry lock").get(tenant).map(|e| e.version)
    }

    /// The tenant's current generation — the cheap (no `Arc` clone) read
    /// the engine's per-submit pin check runs.
    pub(super) fn generation(&self, tenant: &str) -> Option<u64> {
        self.tenants.read().expect("registry lock").get(tenant).map(|e| e.generation)
    }

    /// The tenant's current artifact and generation, for pinning a new
    /// micro-batch.
    pub(super) fn pin(&self, tenant: &str) -> Option<(Detector, u64)> {
        self.tenants
            .read()
            .expect("registry lock")
            .get(tenant)
            .map(|e| (e.detector.clone(), e.generation))
    }

    /// Artifact metadata of a tenant's current version.
    pub fn info(&self, tenant: &str) -> Option<DetectorInfo> {
        self.tenants.read().expect("registry lock").get(tenant).map(|e| e.detector.info())
    }

    /// Registered tenant ids, sorted.
    pub fn tenants(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .tenants
            .read()
            .expect("registry lock")
            .keys()
            .map(|k| k.as_ref().to_string())
            .collect();
        ids.sort();
        ids
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.read().expect("registry lock").len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The swap admission rule (see [`DetectorRegistry::swap`]).
fn check_admission(live: &DetectorInfo, candidate: &DetectorInfo) -> ServeResult<()> {
    if candidate.schema != live.schema || candidate.record_arity != live.record_arity {
        return Err(ServeError::IncompatibleSwap(format!(
            "schema {} ({} raw features) cannot replace {} ({} raw features)",
            candidate.schema, candidate.record_arity, live.schema, live.record_arity
        )));
    }
    if candidate.input_width != live.input_width {
        return Err(ServeError::IncompatibleSwap(format!(
            "preprocessed width {} cannot replace {}",
            candidate.input_width, live.input_width
        )));
    }
    if candidate.classes != live.classes {
        return Err(ServeError::IncompatibleSwap(format!(
            "{} classes cannot replace {} (verdict consumers assume a fixed label space)",
            candidate.classes, live.classes
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{dataset, detector};
    use super::*;
    use nids_data::synth::SyntheticConfig;
    use nids_data::DatasetKind;

    #[test]
    fn registry_admission_checks_gate_swaps() {
        let nsl = dataset(300, 15);
        let registry = DetectorRegistry::new();
        registry.register("edge", detector(&nsl, 1)).unwrap();
        assert!(matches!(
            registry.register("edge", detector(&nsl, 2)),
            Err(ServeError::DuplicateTenant(_))
        ));
        assert_eq!(registry.tenants(), vec!["edge".to_string()]);
        assert_eq!(registry.len(), 1);

        // Same shape, new weights: admitted, version bumps.
        assert_eq!(registry.swap("edge", detector(&nsl, 2)).unwrap(), 2);
        assert_eq!(registry.current("edge").unwrap().1, 2);

        // Different schema: refused.
        let unsw =
            DatasetKind::UnswNb15.generate(&SyntheticConfig::new(300, 15).difficulty(1.2)).unwrap();
        assert!(matches!(
            registry.swap("edge", detector(&unsw, 3)),
            Err(ServeError::IncompatibleSwap(_))
        ));
        assert!(matches!(
            registry.swap("ghost", detector(&nsl, 3)),
            Err(ServeError::UnknownTenant(_))
        ));

        // Byte-loaded artifacts swap through the codec path.
        let v3 = detector(&nsl, 4);
        assert_eq!(registry.swap_from_bytes("edge", &v3.to_bytes()).unwrap(), 3);
        assert!(matches!(
            registry.swap_from_bytes("edge", b"garbage"),
            Err(ServeError::Rejected(_))
        ));
        assert!(registry.remove("edge").is_some());
        assert!(registry.is_empty());
    }
}
