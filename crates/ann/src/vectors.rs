//! Vector sources: the [`Vectors`] access trait every index searches
//! through, and [`VectorTable`] — a flat row-major f32 matrix that is
//! either owned in memory or a zero-copy view into a memory-mapped
//! persistence file.

use std::sync::Arc;

use memmap2::Mmap;

use crate::view;
use crate::AnnError;

/// Read access to a set of equal-width f32 vectors, addressed by dense
/// `u32` ids. Implemented by [`VectorTable`] and by the embedding store's
/// key-indexed table; every index in this crate searches through it, so
/// the same built index serves an in-memory store and a memory-mapped one
/// identically.
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
/// implementation. The backing storage is either an owned buffer or a
/// shared read-only memory map of a persisted embedding file (zero-copy:
/// rows are served straight from the page cache). Mutation transparently
/// materialises a mapped table into an owned one first.
#[derive(Clone)]
pub struct VectorTable {
    dim: usize,
    rows: usize,
    data: Data,
}

#[derive(Clone)]
enum Data {
    Owned(Vec<f32>),
    Mapped { map: Arc<Mmap>, byte_offset: usize },
}

impl VectorTable {
    /// New empty owned table for vectors of width `dim`.
    pub fn new(dim: usize) -> Self {
        VectorTable { dim, rows: 0, data: Data::Owned(Vec::new()) }
    }

    /// Build an owned table from `rows` (each must be `dim` wide).
    pub fn from_rows(dim: usize, rows: &[Vec<f32>]) -> Result<Self, AnnError> {
        let mut t = VectorTable::new(dim);
        for r in rows {
            t.push(r)?;
        }
        Ok(t)
    }

    /// Construct a zero-copy table over `rows * dim` f32s starting at
    /// `byte_offset` inside `map`. Returns `None` when the range is out of
    /// bounds, misaligned, or the target's endianness does not match the
    /// little-endian file layout — callers then fall back to an owned
    /// decode.
    pub(crate) fn mapped(
        map: Arc<Mmap>,
        byte_offset: usize,
        rows: usize,
        dim: usize,
    ) -> Option<Self> {
        let bytes = rows.checked_mul(dim)?.checked_mul(4)?;
        let end = byte_offset.checked_add(bytes)?;
        if end > map.len() {
            return None;
        }
        // Validate the cast once up front; `flat()` repeats it per access
        // (cheap pointer checks) and can rely on it succeeding.
        view::bytes_as_f32s(&map[byte_offset..end])?;
        Some(VectorTable { dim, rows, data: Data::Mapped { map, byte_offset } })
    }

    /// Append one vector, rejecting width mismatches. A mapped table is
    /// materialised into an owned buffer first.
    pub fn push(&mut self, vector: &[f32]) -> Result<(), AnnError> {
        if vector.len() != self.dim {
            return Err(AnnError::DimensionMismatch { expected: self.dim, got: vector.len() });
        }
        self.make_owned();
        let Data::Owned(buf) = &mut self.data else { unreachable!("make_owned materialised") };
        buf.extend_from_slice(vector);
        self.rows += 1;
        Ok(())
    }

    /// The whole table as one flat row-major slice.
    pub fn flat(&self) -> &[f32] {
        match &self.data {
            Data::Owned(buf) => buf,
            Data::Mapped { map, byte_offset } => {
                let bytes = self.rows * self.dim * 4;
                view::bytes_as_f32s(&map[*byte_offset..*byte_offset + bytes])
                    .expect("validated at construction")
            }
        }
    }

    /// True when this table reads from a memory map rather than an owned
    /// buffer (diagnostics only; behaviour is identical).
    pub fn is_mapped(&self) -> bool {
        matches!(self.data, Data::Mapped { .. })
    }

    /// Convert a mapped table into an owned one in place (no-op when
    /// already owned).
    pub fn make_owned(&mut self) {
        if let Data::Mapped { .. } = self.data {
            self.data = Data::Owned(self.flat().to_vec());
        }
    }

    /// Iterate the rows in id order.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.flat().chunks_exact(self.dim.max(1))
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

impl PartialEq for VectorTable {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.rows == other.rows && self.flat() == other.flat()
    }
}

impl std::fmt::Debug for VectorTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VectorTable")
            .field("rows", &self.rows)
            .field("dim", &self.dim)
            .field("mapped", &self.is_mapped())
            .finish()
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
        assert!(!t.is_mapped());
    }

    #[test]
    fn width_mismatch_is_rejected() {
        let mut t = VectorTable::new(4);
        let err = t.push(&[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, AnnError::DimensionMismatch { expected: 4, got: 2 }));
        assert_eq!(t.len(), 0, "failed push must not grow the table");
    }
}
