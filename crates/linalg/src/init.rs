//! Weight initialisation.
//!
//! The paper's evaluation setup states: "Node features are initialized
//! randomly using Xavier weight initialization in all experiments." Seeded
//! Xavier (Glorot) initialisation serves both node feature tables and layer
//! weights.

use rand::Rng;

use crate::matrix::Matrix;

/// Xavier/Glorot uniform: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    let a = (6.0 / (rows + cols) as f32).sqrt();
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-a..a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_uniform_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = xavier_uniform(64, 64, &mut rng);
        let a = (6.0 / 128.0f32).sqrt();
        assert!(m.as_slice().iter().all(|&v| v >= -a && v < a));
    }

    #[test]
    fn seeded_init_is_deterministic() {
        let a = xavier_uniform(4, 4, &mut StdRng::seed_from_u64(7));
        let b = xavier_uniform(4, 4, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }
}
