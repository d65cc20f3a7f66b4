//! In-memory image datasets.

/// The ten Fashion-MNIST classes in the official label order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FashionClass {
    /// 0 — T-shirt/top.
    TShirt,
    /// 1 — Trouser.
    Trouser,
    /// 2 — Pullover.
    Pullover,
    /// 3 — Dress.
    Dress,
    /// 4 — Coat.
    Coat,
    /// 5 — Sandal.
    Sandal,
    /// 6 — Shirt.
    Shirt,
    /// 7 — Sneaker.
    Sneaker,
    /// 8 — Bag.
    Bag,
    /// 9 — Ankle boot.
    AnkleBoot,
}

impl FashionClass {
    /// All classes in label order.
    pub const ALL: [FashionClass; 10] = [
        FashionClass::TShirt,
        FashionClass::Trouser,
        FashionClass::Pullover,
        FashionClass::Dress,
        FashionClass::Coat,
        FashionClass::Sandal,
        FashionClass::Shirt,
        FashionClass::Sneaker,
        FashionClass::Bag,
        FashionClass::AnkleBoot,
    ];

    /// The numeric label (0–9).
    pub fn label(self) -> usize {
        Self::ALL.iter().position(|&c| c == self).unwrap()
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            FashionClass::TShirt => "T-shirt/top",
            FashionClass::Trouser => "Trouser",
            FashionClass::Pullover => "Pullover",
            FashionClass::Dress => "Dress",
            FashionClass::Coat => "Coat",
            FashionClass::Sandal => "Sandal",
            FashionClass::Shirt => "Shirt",
            FashionClass::Sneaker => "Sneaker",
            FashionClass::Bag => "Bag",
            FashionClass::AnkleBoot => "Ankle boot",
        }
    }
}

/// A labelled grayscale image dataset; pixels are `f64` in `[0, 1]`.
#[derive(Clone, Debug, Default)]
pub struct Dataset {
    /// Row-major pixel buffers, one per image.
    pub images: Vec<Vec<f64>>,
    /// Numeric class labels.
    pub labels: Vec<usize>,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Appends a sample.
    pub fn push(&mut self, image: Vec<f64>, label: usize) {
        if let Some(first) = self.images.first() {
            assert_eq!(first.len(), image.len(), "inconsistent image size");
        }
        self.images.push(image);
        self.labels.push(label);
    }

    /// Splits into `(train, test)` by sample counts, preserving order.
    pub fn split_at(&self, train_len: usize) -> (Dataset, Dataset) {
        assert!(train_len <= self.len());
        let mut train = Dataset::default();
        let mut test = Dataset::default();
        for i in 0..self.len() {
            let target = if i < train_len { &mut train } else { &mut test };
            target.push(self.images[i].clone(), self.labels[i]);
        }
        (train, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        let mut d = Dataset::default();
        for i in 0..12 {
            d.push(vec![i as f64; 4], i % 3);
        }
        d
    }

    #[test]
    fn class_enum_roundtrip() {
        for (l, c) in FashionClass::ALL.into_iter().enumerate() {
            assert_eq!(c.label(), l);
        }
        assert_eq!(FashionClass::Coat.label(), 4);
        assert_eq!(FashionClass::Shirt.label(), 6);
    }

    #[test]
    fn split_preserves_order() {
        let d = tiny();
        let (tr, te) = d.split_at(9);
        assert_eq!(tr.len(), 9);
        assert_eq!(te.len(), 3);
        assert_eq!(te.images[0], d.images[9]);
    }
}
