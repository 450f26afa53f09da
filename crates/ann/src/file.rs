//! Persisted embedding artifacts: the composition of a key table, the
//! vector matrix and an optional built index into one binary file, and
//! the memory-mapped load that serves searches straight off the page
//! cache — the replacement for JSON round-trips of embedding payloads.

use std::path::Path;

use crate::format::{AnnFile, AnnFileWriter, FormatError};
use crate::ivf::IvfIndex;
use crate::metric::Metric;
use crate::vectors::{VectorTable, Vectors};
use crate::AnnError;

/// Artifact-kind tag of an embedding store file.
pub const KIND_EMBEDDING_STORE: u32 = 1;

/// Index tags of the `meta` section. Tags 2 and 3 are retired (files from
/// before the HNSW and PQ indexes were deleted carry them) and must not be
/// reused: such files are rejected as an unknown tag, not misread.
const INDEX_NONE: u32 = 0;
const INDEX_IVF: u32 = 1;

/// The contents of a persisted embedding artifact: everything an
/// embedding store needs to serve searches.
pub struct EmbeddingFileContents {
    /// Vector width.
    pub dim: usize,
    /// Similarity metric the vectors are searched under.
    pub metric: Metric,
    /// Entity key per vector id (same order as the table rows).
    pub keys: Vec<String>,
    /// The vector matrix — memory-mapped (zero-copy) after a load.
    pub vectors: VectorTable,
    /// The built index, if one was persisted.
    pub index: Option<IvfIndex>,
}

impl EmbeddingFileContents {
    /// Borrowed view for re-saving loaded contents.
    pub fn as_view(&self) -> EmbeddingFileView<'_> {
        EmbeddingFileView {
            dim: self.dim,
            metric: self.metric,
            keys: &self.keys,
            vectors: &self.vectors,
            index: self.index.as_ref(),
        }
    }
}

/// A borrowed view of embedding-artifact contents: what
/// [`save_embedding_file`] consumes, so saving never clones the key table
/// or the vector matrix.
#[derive(Clone, Copy)]
pub struct EmbeddingFileView<'a> {
    /// Vector width.
    pub dim: usize,
    /// Similarity metric the vectors are searched under.
    pub metric: Metric,
    /// Entity key per vector id (same order as the table rows).
    pub keys: &'a [String],
    /// The vector matrix.
    pub vectors: &'a VectorTable,
    /// The built index, if any.
    pub index: Option<&'a IvfIndex>,
}

/// Persist an embedding artifact to `path` in the binary columnar format.
pub fn save_embedding_file(path: &Path, c: EmbeddingFileView<'_>) -> Result<(), AnnError> {
    let mut w = AnnFileWriter::new(KIND_EMBEDDING_STORE);
    let index_tag = if c.index.is_some() { INDEX_IVF } else { INDEX_NONE };
    w.put_u32s("meta", &[c.dim as u32, c.metric.code(), c.keys.len() as u32, index_tag]);
    w.put_strings("keys", c.keys);
    w.put_f32s("vectors", c.vectors.flat());
    if let Some(i) = c.index {
        i.put_sections(&mut w);
    }
    w.write_to(path)?;
    Ok(())
}

/// Load an embedding artifact from `path`. The checksum is verified, then
/// the vector matrix is served zero-copy from the memory map (owned
/// fallback on exotic targets); the index structures are decoded into
/// memory.
pub fn load_embedding_file(path: &Path) -> Result<EmbeddingFileContents, AnnError> {
    let f = AnnFile::open(path)?;
    if f.kind() != KIND_EMBEDDING_STORE {
        return Err(AnnError::Format(FormatError::Malformed(format!(
            "expected an embedding-store artifact, found kind {}",
            f.kind()
        ))));
    }
    let meta = f.u32s("meta")?;
    if meta.len() != 4 {
        return Err(AnnError::Format(FormatError::Malformed(
            "meta section has wrong arity".into(),
        )));
    }
    let dim = meta[0] as usize;
    let metric = Metric::from_code(meta[1]).ok_or_else(|| {
        AnnError::Format(FormatError::Malformed(format!("unknown metric code {}", meta[1])))
    })?;
    let n = meta[2] as usize;
    let keys = f.strings("keys")?;
    if keys.len() != n {
        return Err(AnnError::Format(FormatError::Malformed(format!(
            "key count {} disagrees with meta count {n}",
            keys.len()
        ))));
    }
    let vectors = if dim == 0 { VectorTable::new(0) } else { f.f32_table("vectors", dim)? };
    if vectors.len() != n {
        return Err(AnnError::Format(FormatError::Malformed(format!(
            "vector count {} disagrees with key count {n}",
            vectors.len()
        ))));
    }
    let index = match meta[3] {
        INDEX_NONE => None,
        INDEX_IVF => Some(IvfIndex::from_file(&f, dim, n)?),
        other => {
            return Err(AnnError::Format(FormatError::Malformed(format!(
                "unknown index tag {other}"
            ))))
        }
    };
    Ok(EmbeddingFileContents { dim, metric, keys, vectors, index })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::search_exact;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("kgnet-ann-file-{}-{name}.ann", std::process::id()))
    }

    fn sample_contents(n: usize, dim: usize, seed: u64) -> EmbeddingFileContents {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut vectors = VectorTable::new(dim);
        let mut keys = Vec::new();
        for i in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            vectors.push(&v).unwrap();
            keys.push(format!("e{i}"));
        }
        EmbeddingFileContents { dim, metric: Metric::L2, keys, vectors, index: None }
    }

    #[test]
    fn roundtrip_without_index() {
        let path = temp_path("noindex");
        let c = sample_contents(50, 8, 1);
        save_embedding_file(&path, c.as_view()).unwrap();
        let back = load_embedding_file(&path).unwrap();
        assert_eq!(back.dim, 8);
        assert_eq!(back.metric, Metric::L2);
        assert_eq!(back.keys, c.keys);
        assert_eq!(back.vectors, c.vectors);
        assert!(back.index.is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mapped_load_serves_searches_identical_to_owned() {
        let path = temp_path("identical");
        let mut c = sample_contents(600, 12, 2);
        c.index = Some(IvfIndex::build(&c.vectors, 24, 4, 9));
        save_embedding_file(&path, c.as_view()).unwrap();
        let back = load_embedding_file(&path).unwrap();
        let (orig, loaded) = (c.index.as_ref().unwrap(), back.index.as_ref().unwrap());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let q: Vec<f32> = (0..12).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let a = orig.search(&c.vectors, c.metric, &q, 7, 3);
            let b = loaded.search(&back.vectors, back.metric, &q, 7, 3);
            assert_eq!(a, b, "mapped search diverged from in-memory search");
            assert_eq!(
                search_exact(&c.vectors, c.metric, &q, 7),
                search_exact(&back.vectors, back.metric, &q, 7),
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_index_sections_are_rejected_at_load() {
        // Structurally valid, checksummed files over a 2-vector, 2-d table
        // whose index is wrong must fail at load, not panic or mislead at
        // search. Each row: index tag, params (cells, width, len),
        // centroids, list offsets, list entries, expected reason.
        type Case = (u32, [u32; 3], &'static [f32], &'static [u32], &'static [u32], &'static str);
        let cases: [Case; 7] = [
            (1, [1, 2, 2], &[0.5, 0.5], &[0, 2], &[0, 9], "out of range"),
            (1, [1, 3, 2], &[0.5, 0.5, 0.5], &[0, 2], &[0, 1], "width 3"),
            (1, [1, 2, 2], &[0.5, 0.5], &[0, 1], &[0], "miss 1 of 2"),
            (1, [0, 2, 2], &[], &[0], &[], "miss 2 of 2"),
            (1, [1, 2, 2], &[0.5, 0.5], &[0, 2], &[0, 0], "id 0 twice"),
            (2, [1, 2, 2], &[0.5, 0.5], &[0, 2], &[0, 1], "unknown index tag 2"),
            (3, [1, 2, 2], &[0.5, 0.5], &[0, 2], &[0, 1], "unknown index tag 3"),
        ];
        let path = temp_path("badivf");
        for (tag, params, centroids, offsets, entries, reason) in cases {
            let mut w = AnnFileWriter::new(KIND_EMBEDDING_STORE);
            w.put_u32s("meta", &[2, Metric::L2.code(), 2, tag]);
            w.put_strings("keys", &["a".into(), "b".into()]);
            w.put_f32s("vectors", &[0.0, 0.0, 1.0, 1.0]);
            w.put_u32s("index.params", &params);
            w.put_f32s("index.centroids", centroids);
            w.put_u32s("index.list_offsets", offsets);
            w.put_u32s("index.list_entries", entries);
            w.write_to(&path).unwrap();
            match load_embedding_file(&path).map(|_| ()) {
                Err(AnnError::Format(FormatError::Malformed(m))) => {
                    assert!(m.contains(reason), "expected `{reason}`, got: {m}")
                }
                other => panic!("malformed index (`{reason}`) accepted: {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
