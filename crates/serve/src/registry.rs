//! Versioned model registry with atomic hot-swap.
//!
//! Deploying a retrained model must not pause traffic: the registry
//! keeps every deployed version alive behind an `Arc`, and "which
//! version is active" is a single atomic. A micro-batch resolves the
//! active model once at dispatch and holds its `Arc` for the duration,
//! so a deploy during a running batch lets that batch *drain* on the old
//! version while every batch formed afterwards serves the new one — no
//! torn reads, no half-swapped predictions, and instant rollback by
//! re-activating an older version.

use crate::model::ServedModel;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// A deployed model version (1-based, in deployment order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModelVersion(pub u32);

impl fmt::Display for ModelVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// All deployed versions plus the active pointer.
/// One deployed version: the model plus its generator fingerprint,
/// computed once at deploy so the serving hot path never re-hashes the
/// generator's full debug representation per batch.
#[derive(Debug)]
struct Deployed {
    model: Arc<ServedModel>,
    fingerprint: u64,
}

#[derive(Debug, Default)]
pub struct ModelRegistry {
    /// Version `v` lives at index `v − 1`. Write-locked only by deploys.
    models: RwLock<Vec<Deployed>>,
    /// Active version number; 0 means nothing is deployed yet.
    active: AtomicUsize,
}

impl ModelRegistry {
    /// An empty registry (no active model — the server rejects traffic
    /// until the first deploy).
    pub fn new() -> Self {
        Self::default()
    }

    /// Deploys a model and makes it the active version; returns its
    /// version tag. In-flight batches keep serving the version they
    /// resolved at dispatch.
    pub fn deploy(&self, model: impl Into<ServedModel>) -> ModelVersion {
        let model = Arc::new(model.into());
        let fingerprint = model.generator_fingerprint();
        let mut models = self.models.write().expect("registry lock poisoned");
        models.push(Deployed { model, fingerprint });
        let version = models.len();
        // Publish only after the slot is in place (still under the write
        // lock, so `get` can never see an active version it cannot find).
        self.active.store(version, Ordering::SeqCst);
        ModelVersion(version as u32)
    }

    /// The active `(version, model)` pair, if anything is deployed.
    pub fn active(&self) -> Option<(ModelVersion, Arc<ServedModel>)> {
        let v = self.active.load(Ordering::SeqCst);
        if v == 0 {
            return None;
        }
        let models = self.models.read().expect("registry lock poisoned");
        Some((ModelVersion(v as u32), Arc::clone(&models[v - 1].model)))
    }

    /// A specific deployed version (`None` for the reserved version 0
    /// and anything not yet deployed).
    pub fn get(&self, version: ModelVersion) -> Option<Arc<ServedModel>> {
        let models = self.models.read().expect("registry lock poisoned");
        models
            .get((version.0 as usize).checked_sub(1)?)
            .map(|d| Arc::clone(&d.model))
    }

    /// The deploy-time generator fingerprint of a version (`None` if
    /// never deployed). Equal generators hash equal; the server tags
    /// its feature cache with this.
    pub fn fingerprint(&self, version: ModelVersion) -> Option<u64> {
        let models = self.models.read().expect("registry lock poisoned");
        models
            .get((version.0 as usize).checked_sub(1)?)
            .map(|d| d.fingerprint)
    }

    /// Re-activates an already-deployed version (rollback). Returns
    /// `false` if the version was never deployed.
    pub fn activate(&self, version: ModelVersion) -> bool {
        let models = self.models.read().expect("registry lock poisoned");
        if version.0 == 0 || version.0 as usize > models.len() {
            return false;
        }
        self.active.store(version.0 as usize, Ordering::SeqCst);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvqnn::features::FeatureBackend;
    use pvqnn::model::RegressorMode;
    use pvqnn::{FeatureGenerator, PostVarRegressor, Strategy};

    fn tiny_model(scale: f64) -> PostVarRegressor {
        let data: Vec<Vec<f64>> = (0..14)
            .map(|i| {
                (0..16)
                    .map(|j| 0.2 + 0.11 * ((i * 5 + j) % 13) as f64)
                    .collect()
            })
            .collect();
        let generator = FeatureGenerator::new(
            Strategy::observable_construction(4, 1),
            FeatureBackend::Exact,
        );
        let y: Vec<f64> = (0..14).map(|i| scale * i as f64).collect();
        PostVarRegressor::fit(generator, &data, &y, RegressorMode::Ridge(1e-6))
    }

    #[test]
    fn empty_registry_has_no_active_model() {
        let r = ModelRegistry::new();
        assert!(r.active().is_none());
        assert!(!r.activate(ModelVersion(1)));
        assert!(r.get(ModelVersion(0)).is_none(), "version 0 is reserved");
        assert!(r.get(ModelVersion(3)).is_none());
    }

    #[test]
    fn deploy_activates_and_old_versions_stay_reachable() {
        let r = ModelRegistry::new();
        let v1 = r.deploy(tiny_model(1.0));
        assert_eq!(v1, ModelVersion(1));
        let (av, m1) = r.active().unwrap();
        assert_eq!(av, v1);
        let v2 = r.deploy(tiny_model(2.0));
        let (av, m2) = r.active().unwrap();
        assert_eq!(av, v2);
        // The drained version is still addressable and distinct.
        let got1 = r.get(v1).unwrap();
        assert!(Arc::ptr_eq(&got1, &m1));
        assert!(!Arc::ptr_eq(&got1, &m2));
        assert!(r.get(ModelVersion(3)).is_none());
    }

    #[test]
    fn rollback_reactivates_old_version() {
        let r = ModelRegistry::new();
        let v1 = r.deploy(tiny_model(1.0));
        let _v2 = r.deploy(tiny_model(2.0));
        assert!(r.activate(v1));
        assert_eq!(r.active().unwrap().0, v1);
        assert!(!r.activate(ModelVersion(9)));
        assert_eq!(
            r.active().unwrap().0,
            v1,
            "failed rollback must not move the pointer"
        );
    }

    #[test]
    fn in_flight_arc_survives_deploys() {
        // A batch that resolved v1 keeps it alive through any number of
        // later deploys — the "drain" half of hot-swap.
        let r = ModelRegistry::new();
        r.deploy(tiny_model(1.0));
        let (_, held) = r.active().unwrap();
        for k in 0..5 {
            r.deploy(tiny_model(k as f64));
        }
        // Still usable.
        let x: Vec<f64> = (0..16).map(|j| 0.1 * j as f64).collect();
        let row = held.generator().generate_one(&x);
        let _ = held.predict_row(&row);
        assert!(r.get(ModelVersion(6)).is_some());
        assert!(r.get(ModelVersion(7)).is_none());
    }
}
