//! Similarity metrics shared by every index and the embedding store.

use kgnet_linalg::kernels;

/// Similarity metric. Scores are "larger = closer" for every variant;
/// [`Metric::distance`] gives the negated, "smaller = closer" view the
/// graph traversals use. The two are exact negations of each other, so an
/// index that ranks by distance and an exact scan that ranks by score can
/// never disagree on ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Negative Euclidean distance (larger = closer).
    L2,
    /// Cosine similarity.
    Cosine,
    /// Inner product.
    Dot,
}

impl Metric {
    /// Similarity score between two vectors (larger = closer).
    pub fn score(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::L2 => -kernels::l2_sq(a, b).max(0.0).sqrt(),
            Metric::Dot => kernels::dot(a, b),
            Metric::Cosine => {
                let dot = kernels::dot(a, b);
                let na = kernels::norm(a);
                let nb = kernels::norm(b);
                if na == 0.0 || nb == 0.0 {
                    0.0
                } else {
                    dot / (na * nb)
                }
            }
        }
    }

    /// Distance between two vectors (smaller = closer): the exact negation
    /// of [`Metric::score`].
    pub fn distance(&self, a: &[f32], b: &[f32]) -> f32 {
        -self.score(a, b)
    }

    /// Stable on-disk code of this metric.
    pub fn code(&self) -> u32 {
        match self {
            Metric::L2 => 0,
            Metric::Cosine => 1,
            Metric::Dot => 2,
        }
    }

    /// Decode an on-disk metric code.
    pub fn from_code(code: u32) -> Option<Metric> {
        match code {
            0 => Some(Metric::L2),
            1 => Some(Metric::Cosine),
            2 => Some(Metric::Dot),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_score_is_negative_distance() {
        let a = [0.0f32, 0.0];
        let b = [3.0f32, 4.0];
        assert!((Metric::L2.score(&a, &b) + 5.0).abs() < 1e-6);
        assert_eq!(Metric::L2.distance(&a, &b), -Metric::L2.score(&a, &b));
    }

    #[test]
    fn cosine_handles_zero_vectors() {
        assert_eq!(Metric::Cosine.score(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
        assert!((Metric::Cosine.score(&[2.0, 0.0], &[5.0, 0.0]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn codes_roundtrip() {
        for m in [Metric::L2, Metric::Cosine, Metric::Dot] {
            assert_eq!(Metric::from_code(m.code()), Some(m));
        }
        assert_eq!(Metric::from_code(9), None);
    }
}
