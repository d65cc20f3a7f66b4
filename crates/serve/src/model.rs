//! The model types the server knows how to serve.
//!
//! A served model is a trained post-variational network split into the
//! two halves the serving pipeline handles separately: the *feature
//! generator* (the quantum stage — cacheable, batchable) and the
//! *classical head* (a cheap dense sweep). Both wrapped variants expose
//! exactly the batch-friendly entry points `pvqnn` guarantees are
//! bit-for-bit identical to their one-at-a-time counterparts, which is
//! what lets the server promise that micro-batching is a pure latency
//! optimization — it never changes a prediction.

use linalg::Mat;
use pvqnn::{FeatureGenerator, PostVarClassifier, PostVarRegressor};

/// One model output.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Prediction {
    /// A regression value `q·α`.
    Value(f64),
    /// A binary-classification probability `p(y=1|x)`.
    Probability(f64),
}

impl Prediction {
    /// The underlying scalar, whichever kind it is.
    pub fn as_f64(&self) -> f64 {
        match *self {
            Prediction::Value(v) | Prediction::Probability(v) => v,
        }
    }
}

/// A deployable trained model.
#[derive(Clone, Debug)]
pub enum ServedModel {
    /// Post-variational linear regression.
    Regressor(PostVarRegressor),
    /// Post-variational binary classifier.
    Classifier(PostVarClassifier),
}

impl From<PostVarRegressor> for ServedModel {
    fn from(m: PostVarRegressor) -> Self {
        ServedModel::Regressor(m)
    }
}

impl From<PostVarClassifier> for ServedModel {
    fn from(m: PostVarClassifier) -> Self {
        ServedModel::Classifier(m)
    }
}

impl ServedModel {
    /// The quantum feature stage.
    pub fn generator(&self) -> &FeatureGenerator {
        match self {
            ServedModel::Regressor(m) => m.generator(),
            ServedModel::Classifier(m) => m.generator(),
        }
    }

    /// Number of qubits the encoding uses — raw inputs must have a
    /// positive multiple of this many coordinates.
    pub fn num_qubits(&self) -> usize {
        self.generator().strategy().num_qubits()
    }

    /// A fingerprint of the quantum feature stage: equal generators
    /// (same strategy, shifts, observables, backend — including shot
    /// counts and seeds) hash equal. Cached feature rows are valid only
    /// for the generator that produced them, so the server segments its
    /// feature cache by this value — every deployed generator keeps its
    /// own warm rows. Delegates to [`FeatureGenerator::fingerprint`],
    /// which caches the hash alongside the generator's compiled circuits.
    pub fn generator_fingerprint(&self) -> u64 {
        self.generator().fingerprint()
    }

    /// Head predictions for a batch of precomputed feature rows — one
    /// fused sweep over the whole matrix. The server does not call it
    /// (it reads each row in place with [`Self::predict_row`]); batch
    /// callers holding a feature matrix, such as offline evaluation or a
    /// replay of the head, do.
    pub fn predict_batch(&self, q: &Mat) -> Vec<Prediction> {
        match self {
            ServedModel::Regressor(m) => m
                .predict_features(q)
                .into_iter()
                .map(Prediction::Value)
                .collect(),
            ServedModel::Classifier(m) => m
                .predict_proba_features(q)
                .into_iter()
                .map(Prediction::Probability)
                .collect(),
        }
    }

    /// Head prediction for one precomputed feature row; bit-for-bit
    /// identical to the corresponding [`Self::predict_batch`] entry.
    pub fn predict_row(&self, row: &[f64]) -> Prediction {
        match self {
            ServedModel::Regressor(m) => Prediction::Value(m.predict_row(row)),
            ServedModel::Classifier(m) => Prediction::Probability(m.predict_proba_row(row)),
        }
    }
}
