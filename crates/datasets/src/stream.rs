//! Streamed edge-list storage and chunked CSR construction for the XL tier.
//!
//! [`Graph::from_edges`] holds the full edge slice *plus* per-node `Vec`s
//! while building — roughly `5×` the final CSR footprint, which is the
//! difference between fitting and not fitting a 10⁶-node graph in an
//! `O(n·d)` budget. This module keeps edges on disk as packed little-endian
//! `u32` pairs and builds the CSR in two streaming passes over the file
//! (degree count, then scatter), so the only resident state is the final
//! `offsets`/`neighbors` arrays plus one bounded chunk buffer.
//!
//! The XL benchmark instance ([`xl_instance`]) writes the edge stream once
//! and derives the permuted target graph by streaming the *same file* through
//! the ground-truth permutation — the source edge list is never duplicated in
//! memory or on disk.

use graphalign_graph::{Graph, Permutation};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Edges per chunk for the streaming reader/writer: 2²⁰ pairs = 8 MiB,
/// the bounded build buffer of the two-pass CSR construction.
pub const CHUNK_EDGES: usize = 1 << 20;

/// Writes an edge stream as packed `u32` little-endian `(u, v)` pairs.
pub struct EdgeStreamWriter {
    out: BufWriter<File>,
    path: PathBuf,
    nodes: usize,
    edges: u64,
}

impl EdgeStreamWriter {
    /// Creates (truncates) the stream file for a graph on `nodes` nodes.
    ///
    /// # Errors
    /// Propagates file-creation errors.
    ///
    /// # Panics
    /// Panics when `nodes` exceeds the `u32` id space.
    pub fn create(path: &Path, nodes: usize) -> io::Result<Self> {
        assert!(nodes <= u32::MAX as usize, "edge stream ids are u32");
        let out = BufWriter::new(File::create(path)?);
        Ok(Self { out, path: path.to_path_buf(), nodes, edges: 0 })
    }

    /// Appends one undirected edge.
    ///
    /// # Errors
    /// Propagates write errors.
    ///
    /// # Panics
    /// Panics on out-of-bounds endpoints.
    pub fn push(&mut self, u: usize, v: usize) -> io::Result<()> {
        assert!(u < self.nodes && v < self.nodes, "edge ({u},{v}) out of bounds");
        self.out.write_all(&(u as u32).to_le_bytes())?;
        self.out.write_all(&(v as u32).to_le_bytes())?;
        self.edges += 1;
        Ok(())
    }

    /// Flushes and seals the stream, returning its read handle.
    ///
    /// # Errors
    /// Propagates flush errors.
    pub fn finish(mut self) -> io::Result<EdgeStream> {
        self.out.flush()?;
        Ok(EdgeStream { path: self.path, nodes: self.nodes, edges: self.edges })
    }
}

/// A sealed on-disk edge stream: node count, edge count, and the file path.
#[derive(Debug, Clone)]
pub struct EdgeStream {
    path: PathBuf,
    nodes: usize,
    edges: u64,
}

impl EdgeStream {
    /// Node count the stream was created for.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of (possibly duplicate) edges in the stream.
    pub fn edges(&self) -> u64 {
        self.edges
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Streams the file in bounded chunks of at most [`CHUNK_EDGES`] edges,
    /// calling `f` with each decoded `(u, v)` batch. Peak memory is one chunk
    /// buffer regardless of stream length.
    ///
    /// # Errors
    /// Propagates read errors and stops at the first error `f` returns; a
    /// trailing partial record is an `InvalidData` error.
    pub fn for_each_chunk(
        &self,
        mut f: impl FnMut(&[(u32, u32)]) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut reader = BufReader::new(File::open(&self.path)?);
        let mut raw = vec![0u8; CHUNK_EDGES * 8];
        let mut decoded: Vec<(u32, u32)> = Vec::with_capacity(CHUNK_EDGES);
        let mut filled = 0usize;
        loop {
            let read = reader.read(&mut raw[filled..])?;
            if read == 0 {
                if filled != 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "edge stream ends mid-record",
                    ));
                }
                return Ok(());
            }
            filled += read;
            let whole = filled - filled % 8;
            if whole == 0 {
                continue;
            }
            decoded.clear();
            for rec in raw[..whole].chunks_exact(8) {
                let u = u32::from_le_bytes(rec[0..4].try_into().expect("4 bytes"));
                let v = u32::from_le_bytes(rec[4..8].try_into().expect("4 bytes"));
                decoded.push((u, v));
            }
            f(&decoded)?;
            raw.copy_within(whole..filled, 0);
            filled -= whole;
        }
    }

    /// Builds the CSR graph by two streaming passes, relabeling every node id
    /// through `map` (pass the identity to materialize the stream as-is).
    /// Self-loops are dropped and duplicate edges deduplicated, matching
    /// [`Graph::from_edges`] semantics. Peak transient memory beyond the
    /// final CSR arrays is one chunk buffer plus the `n+1` cursor array.
    ///
    /// # Errors
    /// Propagates stream read errors; an id outside `0..nodes` in the file is
    /// an `InvalidData` error.
    ///
    /// # Panics
    /// Panics when `map` produces an out-of-bounds id.
    pub fn build_graph_with(&self, map: impl Fn(usize) -> usize) -> io::Result<Graph> {
        let n = self.nodes;
        // The file's ids are untrusted input; `map`'s output is program logic.
        let relabel = |u: u32, v: u32| -> io::Result<(usize, usize)> {
            let (u, v) = (u as usize, v as usize);
            if u >= n || v >= n {
                let msg = format!("edge ({u},{v}) out of range for n={n}");
                return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
            }
            let (u, v) = (map(u), map(v));
            assert!(u < n && v < n, "mapped edge ({u},{v}) out of bounds for n={n}");
            Ok((u, v))
        };
        // Pass 1: degree counts (self-loops dropped, duplicates still
        // counted — they are removed after the scatter).
        let mut offsets = vec![0usize; n + 1];
        self.for_each_chunk(|chunk| {
            for &(u, v) in chunk {
                let (u, v) = relabel(u, v)?;
                if u != v {
                    offsets[u + 1] += 1;
                    offsets[v + 1] += 1;
                }
            }
            Ok(())
        })?;
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // Pass 2: scatter both arc directions into place.
        let mut neighbors = vec![0usize; offsets[n]];
        let mut cursor = offsets.clone();
        self.for_each_chunk(|chunk| {
            for &(u, v) in chunk {
                let (u, v) = relabel(u, v)?;
                if u != v {
                    neighbors[cursor[u]] = v;
                    cursor[u] += 1;
                    neighbors[cursor[v]] = u;
                    cursor[v] += 1;
                }
            }
            Ok(())
        })?;
        drop(cursor);
        // Sort + dedup each list in place, compacting forward.
        let mut write = 0usize;
        let mut new_offsets = vec![0usize; n + 1];
        for v in 0..n {
            let (lo, hi) = (offsets[v], offsets[v + 1]);
            neighbors[lo..hi].sort_unstable();
            let mut prev = usize::MAX;
            for k in lo..hi {
                let u = neighbors[k];
                if u != prev {
                    neighbors[write] = u;
                    write += 1;
                    prev = u;
                }
            }
            new_offsets[v + 1] = write;
        }
        neighbors.truncate(write);
        neighbors.shrink_to_fit();
        Ok(Graph::from_csr_parts(new_offsets, neighbors))
    }

    /// [`EdgeStream::build_graph_with`] under the identity relabeling.
    ///
    /// # Errors
    /// Propagates stream read errors.
    pub fn build_graph(&self) -> io::Result<Graph> {
        self.build_graph_with(|v| v)
    }
}

/// An XL alignment instance: streamed source graph, permuted target graph,
/// and the ground-truth permutation — the million-node analog of
/// `AlignmentInstance::permuted`, built without ever holding an edge list
/// resident.
#[derive(Debug, Clone)]
pub struct XlInstance {
    /// Source graph `G_A`.
    pub source: Graph,
    /// Target graph `G_B` (node-relabeled copy of the source stream).
    pub target: Graph,
    /// `ground_truth[u]` is the target node corresponding to source node `u`.
    pub ground_truth: Vec<usize>,
}

/// Generates the XL benchmark instance: a connected ring-plus-random-chords
/// graph on `n` nodes with average degree ≈ `avg_degree`, streamed to
/// `dir/xl_<n>_<seed>.edges`, then materialized twice through the chunked
/// CSR builder — once as-is (source) and once relabeled by a seeded random
/// permutation (target). Deterministic per `(n, avg_degree, seed)`.
///
/// The ring guarantees no isolated nodes (every node has degree ≥ 2); the
/// chords are sampled uniformly with a seeded generator. Total stream length
/// is `n · avg_degree / 2` edges before deduplication.
///
/// # Errors
/// Propagates file I/O errors.
///
/// # Panics
/// Panics when `n < 3` or `avg_degree < 2`.
pub fn xl_instance(dir: &Path, n: usize, avg_degree: f64, seed: u64) -> io::Result<XlInstance> {
    assert!(n >= 3, "xl_instance: need n >= 3 for a ring");
    assert!(avg_degree >= 2.0, "xl_instance: the ring alone has average degree 2");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("xl_{n}_{seed}.edges"));
    let mut writer = EdgeStreamWriter::create(&path, n)?;
    for u in 0..n {
        writer.push(u, (u + 1) % n)?;
    }
    let target_edges = (n as f64 * avg_degree / 2.0) as u64;
    let chords = target_edges.saturating_sub(n as u64);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut written = 0u64;
    while written < chords {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u != v {
            writer.push(u, v)?;
            written += 1;
        }
    }
    let stream = writer.finish()?;
    let source = stream.build_graph()?;
    let perm = Permutation::random(n, seed);
    let target = stream.build_graph_with(|v| perm.apply(v))?;
    let ground_truth = perm.as_slice().to_vec();
    Ok(XlInstance { source, target, ground_truth })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("graphalign_stream_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn streamed_build_matches_from_edges() {
        let dir = tmp_dir("match");
        let path = dir.join("small.edges");
        // Duplicates and self-loops on purpose.
        let edges =
            [(0usize, 1usize), (1, 2), (2, 0), (2, 2), (0, 1), (3, 1), (4, 0), (3, 4), (1, 0)];
        let mut w = EdgeStreamWriter::create(&path, 5).unwrap();
        for &(u, v) in &edges {
            w.push(u, v).unwrap();
        }
        let stream = w.finish().unwrap();
        assert_eq!(stream.edges(), edges.len() as u64);
        let streamed = stream.build_graph().unwrap();
        let reference = Graph::from_edges(5, &edges);
        assert_eq!(streamed, reference);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chunk_reader_handles_exact_and_partial_chunks() {
        let dir = tmp_dir("chunks");
        let path = dir.join("three.edges");
        let mut w = EdgeStreamWriter::create(&path, 10).unwrap();
        for i in 0..3u32 {
            w.push(i as usize, (i + 1) as usize).unwrap();
        }
        let stream = w.finish().unwrap();
        let mut seen = Vec::new();
        stream
            .for_each_chunk(|chunk| {
                seen.extend_from_slice(chunk);
                Ok(())
            })
            .unwrap();
        assert_eq!(seen, vec![(0, 1), (1, 2), (2, 3)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_stream_is_invalid_data() {
        let dir = tmp_dir("trunc");
        let path = dir.join("torn.edges");
        std::fs::write(&path, [1u8, 0, 0, 0, 2, 0]).unwrap();
        let stream = EdgeStream { path: path.clone(), nodes: 10, edges: 1 };
        let err = stream.for_each_chunk(|_| Ok(())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The bytes of a stream holding the given `(u, v)` records.
    fn records(edges: &[(u32, u32)]) -> Vec<u8> {
        edges.iter().flat_map(|&(u, v)| [u.to_le_bytes(), v.to_le_bytes()]).flatten().collect()
    }

    #[test]
    fn out_of_range_id_is_invalid_data() {
        let dir = tmp_dir("range");
        let path = dir.join("three.edges");
        let mut w = EdgeStreamWriter::create(&path, 3).unwrap();
        w.push(0, 1).unwrap();
        let stream = w.finish().unwrap();
        std::fs::write(&path, records(&[(0, 2), (7, 1)])).unwrap();
        let perm = Permutation::random(3, 1);
        for built in [stream.build_graph(), stream.build_graph_with(|v| perm.apply(v))] {
            assert_eq!(built.unwrap_err().kind(), io::ErrorKind::InvalidData);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Any file decodes to a graph on `nodes` nodes or fails with
        /// `InvalidData`; it never panics.
        #[test]
        fn arbitrary_files_decode_or_are_invalid_data(
            bytes in proptest::collection::vec(0u8..=255, 0..96),
            small_ids in proptest::collection::vec((0u32..6, 0u32..6), 0..12),
            nodes in 1usize..6,
        ) {
            let dir = tmp_dir("prop");
            let path = dir.join("case.edges");
            let stream = EdgeStream { path: path.clone(), nodes, edges: 0 };
            // Arbitrary bytes are mostly out of range; small ids mostly are not.
            for file in [bytes.clone(), records(&small_ids)] {
                std::fs::write(&path, &file).unwrap();
                match stream.build_graph() {
                    Ok(g) => assert_eq!(g.node_count(), nodes),
                    Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn xl_instance_is_a_valid_permuted_pair() {
        let dir = tmp_dir("inst");
        let n = 200;
        let inst = xl_instance(&dir, n, 6.0, 42).unwrap();
        assert_eq!(inst.source.node_count(), n);
        assert_eq!(inst.target.node_count(), n);
        assert_eq!(inst.source.edge_count(), inst.target.edge_count());
        // Ground truth is a permutation and an isomorphism witness.
        let mut sorted = inst.ground_truth.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        for u in 0..n {
            for &v in inst.source.neighbors(u) {
                assert!(
                    inst.target.has_edge(inst.ground_truth[u], inst.ground_truth[v]),
                    "edge ({u},{v}) not preserved"
                );
            }
        }
        // No isolated nodes, and the average degree is in the right band.
        assert!((0..n).all(|v| inst.source.degree(v) >= 2));
        let avg = inst.source.avg_degree();
        assert!(avg > 4.0 && avg < 7.0, "avg degree {avg} out of band");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn xl_instance_is_deterministic_per_seed() {
        let dir = tmp_dir("det");
        let a = xl_instance(&dir, 64, 4.0, 7).unwrap();
        let b = xl_instance(&dir, 64, 4.0, 7).unwrap();
        assert_eq!(a.source, b.source);
        assert_eq!(a.target, b.target);
        assert_eq!(a.ground_truth, b.ground_truth);
        let c = xl_instance(&dir, 64, 4.0, 8).unwrap();
        assert_ne!(a.ground_truth, c.ground_truth);
        std::fs::remove_dir_all(&dir).ok();
    }
}
