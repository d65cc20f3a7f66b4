//! Classification metrics.

/// Binary accuracy: predictions are probabilities thresholded at 0.5,
/// labels are 0/1.
pub fn accuracy(labels: &[f64], probs: &[f64]) -> f64 {
    assert_eq!(labels.len(), probs.len());
    assert!(!labels.is_empty());
    let correct = labels
        .iter()
        .zip(probs.iter())
        .filter(|(&y, &p)| (p >= 0.5) == (y >= 0.5))
        .count();
    correct as f64 / labels.len() as f64
}

/// Multiclass accuracy over integer labels and predicted classes.
pub fn accuracy_multiclass(labels: &[usize], preds: &[usize]) -> f64 {
    assert_eq!(labels.len(), preds.len());
    assert!(!labels.is_empty());
    let correct = labels
        .iter()
        .zip(preds.iter())
        .filter(|(a, b)| a == b)
        .count();
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_accuracy() {
        let y = [1.0, 0.0, 1.0, 0.0];
        let p = [0.9, 0.2, 0.4, 0.6]; // last two wrong
        assert!((accuracy(&y, &p) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn multiclass_accuracy() {
        let y = [0, 1, 2, 1];
        let p = [0, 1, 1, 1];
        assert!((accuracy_multiclass(&y, &p) - 0.75).abs() < 1e-15);
    }
}
