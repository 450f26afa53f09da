//! Vector sources: the [`Vectors`] access trait every index searches
//! through, and [`VectorTable`] — a flat row-major f32 matrix held in
//! memory.

use crate::AnnError;

/// Read access to a set of equal-width f32 vectors, addressed by dense
/// `u32` ids. Implemented by [`VectorTable`] and by the search-cost
/// counting wrapper; every index in this crate searches through it.
pub trait Vectors: Sync {
    /// Number of vectors.
    fn len(&self) -> usize;

    /// True when no vector is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vector width.
    fn dim(&self) -> usize;

    /// The `i`-th vector. Panics when `i` is out of bounds.
    fn vector(&self, i: u32) -> &[f32];
}

/// A flat, row-major matrix of f32 vectors: the canonical [`Vectors`]
/// implementation.
#[derive(Clone)]
pub struct VectorTable {
    dim: usize,
    rows: usize,
    data: Vec<f32>,
}

impl VectorTable {
    /// New empty table for vectors of width `dim`.
    pub fn new(dim: usize) -> Self {
        VectorTable { dim, rows: 0, data: Vec::new() }
    }

    /// Build a table from `rows` (each must be `dim` wide).
    pub fn from_rows(dim: usize, rows: &[Vec<f32>]) -> Result<Self, AnnError> {
        let mut t = VectorTable::new(dim);
        for r in rows {
            t.push(r)?;
        }
        Ok(t)
    }

    /// Append one vector, rejecting width mismatches.
    pub fn push(&mut self, vector: &[f32]) -> Result<(), AnnError> {
        if vector.len() != self.dim {
            return Err(AnnError::DimensionMismatch { expected: self.dim, got: vector.len() });
        }
        self.data.extend_from_slice(vector);
        self.rows += 1;
        Ok(())
    }

    /// The whole table as one flat row-major slice.
    pub fn flat(&self) -> &[f32] {
        &self.data
    }
}

impl Vectors for VectorTable {
    fn len(&self) -> usize {
        self.rows
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn vector(&self, i: u32) -> &[f32] {
        let start = i as usize * self.dim;
        &self.flat()[start..start + self.dim]
    }
}

impl std::fmt::Debug for VectorTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VectorTable").field("rows", &self.rows).field("dim", &self.dim).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut t = VectorTable::new(3);
        t.push(&[1.0, 2.0, 3.0]).unwrap();
        t.push(&[4.0, 5.0, 6.0]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.vector(1), &[4.0, 5.0, 6.0]);
        assert_eq!(t.flat(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn width_mismatch_is_rejected() {
        let mut t = VectorTable::new(4);
        let err = t.push(&[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, AnnError::DimensionMismatch { expected: 4, got: 2 }));
        assert_eq!(t.len(), 0, "failed push must not grow the table");
    }
}
