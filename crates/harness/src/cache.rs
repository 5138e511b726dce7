//! The content-addressed artifact cache.
//!
//! Layout: `<dir>/<key>.json`, one JSON-serialized [`Artifact`] per
//! file. Keys are [`crate::hash::KeyHasher`] digests over everything
//! that determines the artifact's content, including the tag that names
//! the job kind — so a key match *is* a semantic match, files never need
//! invalidation timestamps, a job that answers to several stage names
//! (see [`crate::dag::JobDag::add`]) is found under any of them, and a
//! partially-completed sweep resumes by simply hitting the keys it
//! already produced.
//!
//! Writes go through a temp file + rename so an interrupted run never
//! leaves a torn artifact behind; unreadable or unparsable files are
//! treated as misses (and overwritten on store).

use crate::artifact::Artifact;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free cache-traffic counters (shared across worker threads).
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Lookups that found a valid artifact.
    pub hits: AtomicU64,
    /// Lookups that found nothing (or an unreadable file).
    pub misses: AtomicU64,
    /// Artifacts written back.
    pub writes: AtomicU64,
}

impl CacheStats {
    /// Snapshot of `(hits, misses, writes)`.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.writes.load(Ordering::Relaxed),
        )
    }
}

/// A directory of content-addressed artifacts.
#[derive(Debug)]
pub struct ArtifactCache {
    dir: PathBuf,
    stats: CacheStats,
}

impl ArtifactCache {
    /// Opens (and lazily creates) a cache rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> ArtifactCache {
        ArtifactCache {
            dir: dir.into(),
            stats: CacheStats::default(),
        }
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The cache's traffic counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Loads the artifact stored under `key`, if any. Counts a hit or
    /// miss; a file that exists but does not parse is a miss.
    pub fn load(&self, key: &str) -> Option<Artifact> {
        let t0 = std::time::Instant::now();
        let path = self.path_for(key);
        let loaded = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| serde::json::from_str::<Artifact>(&text).ok());
        telemetry::record_sample("harness.cache.lookup_us", t0.elapsed().as_micros() as f64);
        match loaded {
            Some(artifact) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(artifact)
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `artifact` under `key` atomically (temp file + rename).
    /// Errors are reported, not fatal: a failed store only costs a future
    /// cache miss.
    pub fn store(&self, key: &str, artifact: &Artifact) -> std::io::Result<()> {
        let path = self.path_for(key);
        std::fs::create_dir_all(&self.dir)?;
        let tmp = self.dir.join(format!(".{key}.tmp-{}", std::process::id()));
        std::fs::write(&tmp, serde::json::to_string(artifact))?;
        std::fs::rename(&tmp, &path)?;
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::CountsArtifact;

    fn temp_cache(tag: &str) -> ArtifactCache {
        let dir = std::env::temp_dir().join(format!("harness-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactCache::new(dir)
    }

    #[test]
    fn store_then_load_round_trips() {
        let cache = temp_cache("roundtrip");
        let artifact = Artifact::Counts(CountsArtifact {
            total: 9,
            npu_queue: 2,
        });
        assert!(cache.load("abc").is_none());
        cache.store("abc", &artifact).unwrap();
        assert_eq!(cache.load("abc"), Some(artifact));
        assert_eq!(cache.stats().snapshot(), (1, 1, 1));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_file_is_a_miss() {
        let cache = temp_cache("corrupt");
        let path = cache.dir().join("bad.json");
        std::fs::create_dir_all(cache.dir()).unwrap();
        std::fs::write(&path, "{ not json").unwrap();
        assert!(cache.load("bad").is_none());
        assert_eq!(cache.stats().snapshot(), (0, 1, 0));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn keys_are_namespaced_by_stage() {
        // The stage namespace lives in the key: equal payloads hashed
        // under different tags land in different files.
        let cache = temp_cache("stages");
        let key = |tag: &str| {
            let mut h = crate::hash::KeyHasher::new(tag);
            h.update_str("payload");
            h.digest()
        };
        let artifact = Artifact::Outputs(vec![1.0]);
        cache.store(&key("observe"), &artifact).unwrap();
        assert!(cache.load(&key("train")).is_none());
        assert!(cache.load(&key("observe")).is_some());
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
