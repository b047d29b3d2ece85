//! The keyed similarity/factor cache behind the serving layer.
//!
//! Entries are keyed by `(source digest, target digest, algorithm, params,
//! variant)` — everything the similarity phase depends on. The digests are
//! [`graphalign_graph::ContentDigest`] values, so two uploads of the same
//! graph (in any edge order, parsed at any thread count) share cache
//! entries, while a relabeled or perturbed graph never aliases one.
//!
//! The `variant` component accounts for method-dependent representations:
//! [`graphalign::Aligner::similarity_for`] returns a different (sparse)
//! representation only for the auction assignment, so the key space splits
//! into `"auction"` and `"generic"` rather than one slot per method — a
//! REGAL similarity computed for JV is reused verbatim for NN, SG, and
//! Hungarian queries.
//!
//! In memory the cache is an LRU bounded by total approximate bytes.
//! Optionally it persists entries to a directory as checksummed
//! `similarity/v1` entries (see [`graphalign_linalg::serialize`]); evicted
//! or cold entries are then reloaded from disk, which still skips the
//! expensive similarity phase.
//!
//! # Crash safety
//!
//! Persistence is **write-temp-then-rename atomic**: a crash mid-write
//! leaves at worst a stray `.tmp` file, never a half-written entry under
//! the final name. Every entry carries an FNV-1a-64 content checksum plus
//! its exact payload length, so truncation and bit-level corruption are
//! both detected on read. A corrupt or truncated entry is **quarantined**
//! (moved into a `quarantine/` subdirectory, counted, reported degraded via
//! `/healthz`) and the lookup falls through to a recompute — corruption is
//! never fatal and never served. The constructor scans the directory up
//! front so a server restarted onto a damaged cache starts degraded instead
//! of discovering the damage one request at a time; re-persisting a fresh
//! entry under a quarantined name restores integrity (ready again).

use graphalign_graph::ContentDigest;
use graphalign_linalg::serialize::{
    checked_payload, fnv1a_64, from_checksummed_str, to_checksummed_string,
};
use graphalign_linalg::Similarity;
use graphalign_par::fault::{self, FaultKind};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Fault-injection site id for persisted-entry reads (`io` kind simulates
/// a read IO error).
pub const FAULT_SITE_READ: &str = "serve:cache:read";
/// Fault-injection site id for entry persistence (`truncate` kind simulates
/// a torn, pre-atomic write).
pub const FAULT_SITE_PERSIST: &str = "serve:cache:persist";

/// Everything the similarity phase depends on, as a cache key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Content digest of the source graph.
    pub source: ContentDigest,
    /// Content digest of the target graph.
    pub target: ContentDigest,
    /// Canonical algorithm name (registry spelling, e.g. `"REGAL"`).
    pub algorithm: String,
    /// Algorithm parameter fingerprint (`"default"` for registry aligners).
    pub params: String,
    /// Representation variant: `"auction"` or `"generic"` (see module docs).
    pub variant: &'static str,
}

impl CacheKey {
    /// The flat string form used for map lookups and disk filenames.
    pub fn as_string(&self) -> String {
        format!(
            "{}:{}:{}:{}:{}",
            self.source.to_hex(),
            self.target.to_hex(),
            self.algorithm,
            self.params,
            self.variant
        )
    }
}

struct Entry {
    sim: Arc<Similarity>,
    bytes: u64,
    last_used: u64,
}

struct Inner {
    entries: HashMap<String, Entry>,
    clock: u64,
    bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    disk_loads: u64,
    /// File names quarantined but not yet re-persisted — non-empty means
    /// the cache is integrity-degraded (`/healthz` reports it).
    pending_integrity: HashSet<String>,
}

/// Counters for the `/stats` endpoint, a point-in-time snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently resident in memory.
    pub entries: usize,
    /// Approximate bytes of the resident entries.
    pub bytes: u64,
    /// Lookups served (from memory or disk).
    pub hits: u64,
    /// Lookups that fell through to the similarity phase.
    pub misses: u64,
    /// Entries dropped by the LRU byte cap.
    pub evictions: u64,
    /// Hits that were reloaded from the persistence directory.
    pub disk_loads: u64,
    /// Corrupt or truncated persisted entries moved to quarantine (total
    /// over the server's lifetime, including the startup scan).
    pub quarantined: u64,
    /// Quarantined entries whose key has not been re-persisted yet; zero
    /// means cache integrity is restored.
    pub pending_integrity: usize,
    /// Persisted-entry reads that failed with an IO error (the entry may be
    /// fine; the lookup recomputed instead of serving it).
    pub io_errors: u64,
}

/// Byte-capped LRU cache of computed [`Similarity`] values with optional
/// crash-safe disk persistence. All methods are thread-safe.
pub struct SimilarityCache {
    inner: Mutex<Inner>,
    capacity_bytes: u64,
    dir: Option<PathBuf>,
    quarantined: AtomicU64,
    io_errors: AtomicU64,
    tmp_counter: AtomicU64,
}

impl SimilarityCache {
    /// Creates a cache holding at most `capacity_bytes` of similarity data
    /// in memory, persisting entries under `dir` when given.
    ///
    /// When a directory is configured, every persisted entry is verified up
    /// front: corrupt or truncated files are quarantined immediately (never
    /// fatal), so the server knows its integrity state before the first
    /// request.
    pub fn new(capacity_bytes: u64, dir: Option<PathBuf>) -> std::io::Result<Self> {
        if let Some(d) = &dir {
            std::fs::create_dir_all(d)?;
        }
        let cache = Self {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                clock: 0,
                bytes: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                disk_loads: 0,
                pending_integrity: HashSet::new(),
            }),
            capacity_bytes,
            dir,
            quarantined: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
            tmp_counter: AtomicU64::new(0),
        };
        cache.scan_persisted();
        Ok(cache)
    }

    /// FNV-1a 64-bit over the flat key string — stable across runs, so a
    /// restarted server finds the previous process's persisted entries.
    fn file_name(key: &CacheKey) -> String {
        format!("{:016x}.sim.json", fnv1a_64(key.as_string().as_bytes()))
    }

    /// Verifies the envelope (length and checksum) of every persisted
    /// entry, quarantining the torn and corrupt ones. Entries are not
    /// decoded or loaded into memory (lookups stay lazy, and only a lookup
    /// knows the shape to decode against); this only establishes the
    /// integrity state a fresh server reports.
    fn scan_persisted(&self) {
        let Some(dir) = &self.dir else { return };
        let Ok(listing) = std::fs::read_dir(dir) else { return };
        for entry in listing.flatten() {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().to_string();
            if !name.ends_with(".sim.json") {
                continue;
            }
            let verdict = std::fs::read_to_string(&path)
                .map_err(|e| format!("read: {e}"))
                .and_then(|text| checked_payload(&text).map(|_| ()));
            if let Err(reason) = verdict {
                self.quarantine(&path, &name, &reason);
            }
        }
    }

    /// Moves a corrupt persisted entry into `quarantine/` (falling back to
    /// deletion if the move fails) and records the integrity debt.
    fn quarantine(&self, path: &Path, name: &str, reason: &str) {
        eprintln!("serve: quarantining corrupt cache entry {}: {reason}", path.display());
        if let Some(dir) = &self.dir {
            let qdir = dir.join("quarantine");
            let moved = std::fs::create_dir_all(&qdir)
                .and_then(|()| std::fs::rename(path, qdir.join(name)));
            if moved.is_err() {
                let _ = std::fs::remove_file(path);
            }
        }
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().expect("cache lock");
        inner.pending_integrity.insert(name.to_string());
    }

    /// Looks up `key`, consulting memory first, then the persistence
    /// directory. Returns the similarity and its approximate byte size.
    /// Counts a hit (including disk reloads) or a miss in the stats.
    ///
    /// `shape` is the similarity's expected `(|V_s|, |V_t|)`. A persisted
    /// entry that fails its checksum or length check, or decodes to any
    /// other shape, is quarantined before its declared shape sizes an
    /// allocation, and the lookup returns `None` — the caller recomputes,
    /// and the fresh insert restores the entry (and the integrity state).
    pub fn get(&self, key: &CacheKey, shape: (usize, usize)) -> Option<(Arc<Similarity>, u64)> {
        let flat = key.as_string();
        {
            let mut inner = self.inner.lock().expect("cache lock");
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(e) = inner.entries.get_mut(&flat) {
                e.last_used = clock;
                let out = (Arc::clone(&e.sim), e.bytes);
                inner.hits += 1;
                return Some(out);
            }
        }
        // Cold in memory: try disk outside the lock (I/O under a mutex would
        // serialize all workers behind one file read).
        let dir = self.dir.as_ref()?;
        let name = Self::file_name(key);
        let path = dir.join(&name);
        let text = if fault::active(FAULT_SITE_READ) == Some(FaultKind::IoError) {
            Err(std::io::Error::other("injected fault: cache read IO error"))
        } else {
            std::fs::read_to_string(&path)
        };
        let text = match text {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => {
                // The entry may be intact; an IO error is an environment
                // problem, not evidence of corruption — recompute without
                // quarantining, and count it so /healthz can report flaky
                // storage.
                eprintln!("serve: cache read {} failed ({e}); recomputing", path.display());
                self.io_errors.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        let sim = match from_checksummed_str(&text, shape) {
            Ok(s) => Arc::new(s),
            Err(reason) => {
                self.quarantine(&path, &name, &reason);
                return None;
            }
        };
        let bytes = sim.approx_bytes() as u64;
        let mut inner = self.inner.lock().expect("cache lock");
        inner.hits += 1;
        inner.disk_loads += 1;
        self.insert_locked(&mut inner, flat, Arc::clone(&sim), bytes);
        Some((sim, bytes))
    }

    /// Records that a lookup missed (the caller is about to compute).
    pub fn note_miss(&self) {
        self.inner.lock().expect("cache lock").misses += 1;
    }

    /// Inserts a freshly computed similarity, persisting it to disk when a
    /// directory is configured and the value serializes (finite entries).
    ///
    /// The persist is atomic: the entry is written to a unique `.tmp` file
    /// and renamed into place, so a crash mid-write can never leave a
    /// truncated entry under the final name. A successful persist clears
    /// the entry's quarantine debt, returning `/healthz` to ready once
    /// every quarantined key has been recomputed.
    pub fn insert(&self, key: &CacheKey, sim: Arc<Similarity>) -> u64 {
        let bytes = sim.approx_bytes() as u64;
        if let Some(dir) = &self.dir {
            // Non-finite entries cannot round-trip through JSON and are kept
            // in memory only; `to_checksummed_string` refuses them.
            if let Ok(text) = to_checksummed_string(&sim) {
                let name = Self::file_name(key);
                match self.persist_atomic(dir, &name, &text) {
                    Ok(()) => {
                        let mut inner = self.inner.lock().expect("cache lock");
                        inner.pending_integrity.remove(&name);
                    }
                    Err(e) => eprintln!(
                        "serve: cannot persist cache entry {}: {e}",
                        dir.join(&name).display()
                    ),
                }
            }
        }
        let mut inner = self.inner.lock().expect("cache lock");
        self.insert_locked(&mut inner, key.as_string(), sim, bytes);
        bytes
    }

    /// Write-temp-then-rename persistence. The temp name is unique per
    /// (process, insert), so concurrent workers persisting the same key
    /// never interleave partial writes; whichever rename lands last wins
    /// with a complete entry either way.
    fn persist_atomic(&self, dir: &Path, name: &str, text: &str) -> std::io::Result<()> {
        if fault::active(FAULT_SITE_PERSIST) == Some(FaultKind::Truncate) {
            // Simulate the torn write the atomic protocol exists to prevent
            // (a crash between write and rename on a non-atomic path):
            // half an entry lands under the final name.
            let torn = &text.as_bytes()[..text.len() / 2];
            return std::fs::write(dir.join(name), torn);
        }
        let tmp = dir.join(format!(
            "{name}.{}.{}.tmp",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, dir.join(name)).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    }

    fn insert_locked(&self, inner: &mut Inner, flat: String, sim: Arc<Similarity>, bytes: u64) {
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(prev) = inner.entries.insert(flat, Entry { sim, bytes, last_used: clock }) {
            inner.bytes -= prev.bytes;
        }
        inner.bytes += bytes;
        // Evict least-recently-used entries down to the cap, but always keep
        // the newest entry even when it alone exceeds the budget.
        while inner.bytes > self.capacity_bytes && inner.entries.len() > 1 {
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty cache");
            let e = inner.entries.remove(&victim).expect("victim present");
            inner.bytes -= e.bytes;
            inner.evictions += 1;
        }
    }

    /// Whether every quarantined entry has been re-persisted — the cache
    /// integrity component of `/healthz` readiness.
    pub fn integrity_ok(&self) -> bool {
        self.inner.lock().expect("cache lock").pending_integrity.is_empty()
    }

    /// Point-in-time counters for `/stats`.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            entries: inner.entries.len(),
            bytes: inner.bytes,
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            disk_loads: inner.disk_loads,
            quarantined: self.quarantined.load(Ordering::Relaxed),
            pending_integrity: inner.pending_integrity.len(),
            io_errors: self.io_errors.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalign_graph::Graph;
    use graphalign_linalg::DenseMatrix;

    fn key(tag: &str) -> CacheKey {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        CacheKey {
            source: g.content_digest(),
            target: g.content_digest(),
            algorithm: tag.to_string(),
            params: "default".to_string(),
            variant: "generic",
        }
    }

    fn sim(rows: usize) -> Arc<Similarity> {
        Arc::new(Similarity::Dense(DenseMatrix::from_vec(rows, 1, vec![1.0; rows])))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("graphalign-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_hit_after_insert() {
        let c = SimilarityCache::new(1 << 20, None).unwrap();
        assert!(c.get(&key("A"), (4, 1)).is_none());
        c.note_miss();
        c.insert(&key("A"), sim(4));
        let (got, bytes) = c.get(&key("A"), (4, 1)).expect("hit");
        assert_eq!(got.rows(), 4);
        assert!(bytes > 0);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(c.integrity_ok());
    }

    #[test]
    fn lru_eviction_respects_byte_cap_and_recency() {
        // Each dense 4x1 entry is 32 payload bytes + struct overhead; a cap
        // of ~2.5 entries forces the least-recently-used one out.
        let one = sim(4).approx_bytes() as u64;
        let c = SimilarityCache::new(one * 5 / 2, None).unwrap();
        c.insert(&key("A"), sim(4));
        c.insert(&key("B"), sim(4));
        assert!(c.get(&key("A"), (4, 1)).is_some(), "touch A so B becomes LRU");
        c.insert(&key("C"), sim(4));
        assert!(c.get(&key("B"), (4, 1)).is_none(), "B was evicted");
        assert!(c.get(&key("A"), (4, 1)).is_some());
        assert!(c.get(&key("C"), (4, 1)).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn disk_round_trip_survives_eviction() {
        let dir = temp_dir("roundtrip");
        {
            let c = SimilarityCache::new(1 << 20, Some(dir.clone())).unwrap();
            c.insert(&key("A"), sim(4));
        }
        // A fresh cache (fresh process, conceptually) reloads from disk.
        let c = SimilarityCache::new(1 << 20, Some(dir.clone())).unwrap();
        let (got, _) = c.get(&key("A"), (4, 1)).expect("disk hit");
        assert_eq!(got.rows(), 4);
        assert_eq!(c.stats().disk_loads, 1);
        assert_eq!(c.stats().quarantined, 0, "clean entries never quarantine");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let c = SimilarityCache::new(1 << 20, None).unwrap();
        c.insert(&key("A"), sim(4));
        assert!(c.get(&key("B"), (4, 1)).is_none());
        let mut k = key("A");
        k.variant = "auction";
        assert!(c.get(&k, (4, 1)).is_none(), "variant is part of the key");
    }

    #[test]
    fn no_stray_tmp_files_after_persist() {
        let dir = temp_dir("tmpfiles");
        let c = SimilarityCache::new(1 << 20, Some(dir.clone())).unwrap();
        c.insert(&key("A"), sim(4));
        c.insert(&key("A"), sim(4)); // overwrite is atomic too
        let strays: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(strays.is_empty(), "persist left temp files: {strays:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_entry_is_quarantined_then_restored_by_reinsert() {
        let dir = temp_dir("quarantine");
        let name;
        {
            let c = SimilarityCache::new(1 << 20, Some(dir.clone())).unwrap();
            c.insert(&key("A"), sim(4));
            name = SimilarityCache::file_name(&key("A"));
        }
        // Corrupt the persisted entry (flip one payload bit).
        let path = dir.join(&name);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        // A fresh cache quarantines it at startup and reports the debt.
        let c = SimilarityCache::new(1 << 20, Some(dir.clone())).unwrap();
        assert!(!c.integrity_ok(), "startup scan must flag the corruption");
        let s = c.stats();
        assert_eq!((s.quarantined, s.pending_integrity), (1, 1));
        assert!(!path.exists(), "corrupt entry removed from the live directory");
        assert!(dir.join("quarantine").join(&name).exists(), "entry preserved for forensics");
        // The lookup misses (recompute path), never errors.
        assert!(c.get(&key("A"), (4, 1)).is_none());
        // Recomputing and re-inserting restores integrity.
        c.insert(&key("A"), sim(4));
        assert!(c.integrity_ok());
        assert_eq!(c.stats().pending_integrity, 0);
        assert!(c.get(&key("A"), (4, 1)).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn entries_of_hostile_shapes_are_quarantined_before_decoding() {
        let sparse = |rows: &str| {
            format!(
                "{{\"format\":\"similarity/v1\",\"repr\":\"sparse\",\"rows\":{rows},\
                 \"cols\":1,\"row_indices\":[],\"col_indices\":[],\"values\":[]}}"
            )
        };
        let dense = "{\"format\":\"similarity/v1\",\"repr\":\"dense\",\"matrix\":\
                     {\"rows\":4294967296,\"cols\":4294967296,\"data\":[]}}";
        for payload in [sparse("1e18"), sparse("1e30"), dense.to_string()] {
            let dir = temp_dir("hostile");
            std::fs::create_dir_all(&dir).unwrap();
            // A valid envelope: right length, right checksum.
            let entry = format!(
                "{{\"format\":\"similarity/v1\",\"checksum\":\"{:016x}\",\"bytes\":{}}}\n{payload}\n",
                fnv1a_64(payload.as_bytes()),
                payload.len()
            );
            let name = SimilarityCache::file_name(&key("A"));
            std::fs::write(dir.join(&name), entry).unwrap();
            let c = SimilarityCache::new(1 << 20, Some(dir.clone())).unwrap();
            assert!(c.integrity_ok(), "the envelope is intact: {payload}");
            assert!(c.get(&key("A"), (4, 1)).is_none(), "{payload}");
            assert_eq!((c.stats().quarantined, c.stats().pending_integrity), (1, 1));
            c.insert(&key("A"), sim(4));
            let fresh = SimilarityCache::new(1 << 20, Some(dir.clone())).unwrap();
            assert_eq!(fresh.get(&key("A"), (4, 1)).expect("recomputed entry").0, sim(4));
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn truncated_entry_detected_at_read_time() {
        let dir = temp_dir("truncated");
        let c = SimilarityCache::new(1 << 20, Some(dir.clone())).unwrap();
        c.insert(&key("A"), sim(8));
        let name = SimilarityCache::file_name(&key("A"));
        let path = dir.join(&name);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 3]).unwrap();
        // Evicted from memory? No — same cache still holds it in memory, so
        // use a fresh one (lazy: the startup scan quarantines instead).
        let fresh = SimilarityCache::new(1 << 20, Some(dir.clone())).unwrap();
        assert!(fresh.get(&key("A"), (8, 1)).is_none());
        assert_eq!(fresh.stats().quarantined, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
