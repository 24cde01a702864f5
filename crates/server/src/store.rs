//! Durable spill of the daemon's warm state, so a restart rejoins
//! warm instead of cold.
//!
//! Two things make a `branchlabd` warm: the resident benchmark traces
//! and the LRU response cache. Traces already have a checksummed,
//! atomic-rename on-disk format (`branchlab_trace::cache`), so the
//! spill directory simply points the experiment config's trace cache
//! at `<spill-dir>/traces/` and the existing load/save machinery does
//! the rest — a warm restart re-reads validated trace files instead of
//! re-capturing. This module adds the missing half: snapshotting the
//! response cache to `<spill-dir>/cache.jsonl`.
//!
//! The snapshot is published through
//! [`branchlab_trace::publish_atomically`], as trace files are: the full
//! entry set is written to a temp file of the writer's own, fsynced,
//! and renamed over the target, so the on-disk snapshot atomically
//! steps from one complete state to the next and a crash mid-write can
//! never destroy the previous snapshot. Each line is
//! self-validating JSON — a version tag and an FNV-1a hash over
//! `key NUL body` — and loading is deliberately forgiving: a torn
//! final record (the process died mid-write before the rename, or the
//! file predates a format change), a hash mismatch, or alien bytes
//! degrade to *skipping that record*, never to an error. The worst
//! corruption can do is a cold start.
//!
//! Entries are written least-recently-used first, so replaying them
//! into a fresh [`LruCache`](crate::lru::LruCache) in file order
//! reconstructs the recency order along with the contents.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use branchlab_telemetry::{json, JsonValue};
use branchlab_trace::{hash_bytes, publish_atomically};

/// Snapshot line format version; bumped on incompatible change, and
/// mismatched lines are skipped on load.
pub const SPILL_VERSION: u64 = 1;

/// The spill directory handle.
#[derive(Debug)]
pub struct SpillStore {
    dir: PathBuf,
}

/// What a snapshot load recovered (and what it had to drop).
#[derive(Debug, Default)]
pub struct SpillLoad {
    /// Validated `(canonical key, body)` entries, LRU order.
    pub entries: Vec<(String, Arc<str>)>,
    /// Records dropped for any reason (torn, stale version, hash
    /// mismatch, malformed JSON). Dropping is silent degradation by
    /// design; the count feeds `server.spill.skipped`.
    pub skipped: usize,
}

/// Integrity hash of one cache entry: FNV-1a over `key NUL body`, so
/// neither field can be swapped or truncated undetected.
fn entry_hash(key: &str, body: &str) -> u64 {
    let mut acc = Vec::with_capacity(key.len() + body.len() + 1);
    acc.extend_from_slice(key.as_bytes());
    acc.push(0);
    acc.extend_from_slice(body.as_bytes());
    hash_bytes(&acc)
}

impl SpillStore {
    /// Open (creating if needed) the spill directory and its `traces/`
    /// subdirectory.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn open(dir: &Path) -> io::Result<Self> {
        let store = SpillStore {
            dir: dir.to_path_buf(),
        };
        std::fs::create_dir_all(store.traces_dir())?;
        Ok(store)
    }

    /// Where warmed traces spill (handed to
    /// `ExperimentConfig::trace_cache_dir`, whose loader validates
    /// checksums and silently re-captures on damage).
    #[must_use]
    pub fn traces_dir(&self) -> PathBuf {
        self.dir.join("traces")
    }

    /// The response-cache snapshot file.
    #[must_use]
    pub fn cache_path(&self) -> PathBuf {
        self.dir.join("cache.jsonl")
    }

    /// Atomically publish a snapshot of `entries` (LRU order).
    ///
    /// # Errors
    /// Propagates write/fsync/rename errors; the previous snapshot is
    /// intact on error.
    pub fn save_cache(&self, entries: &[(String, Arc<str>)]) -> io::Result<()> {
        publish_atomically(&self.cache_path(), |w| {
            for (key, body) in entries {
                let line = JsonValue::obj(vec![
                    ("v", SPILL_VERSION.into()),
                    ("hash", format!("{:016x}", entry_hash(key, body)).into()),
                    ("key", key.as_str().into()),
                    ("body", JsonValue::from(&**body)),
                ])
                .to_json();
                writeln!(w, "{line}")?;
            }
            Ok(())
        })
    }

    /// Load every validated entry from the snapshot. Never fails: a
    /// missing or unreadable file is an empty load, and damaged
    /// records are counted in [`SpillLoad::skipped`] and dropped.
    #[must_use]
    pub fn load_cache(&self) -> SpillLoad {
        let Ok(bytes) = std::fs::read(self.cache_path()) else {
            return SpillLoad::default();
        };
        // Lossy, so a snapshot damaged into invalid UTF-8 still
        // surfaces its lines as skip counts instead of vanishing.
        let text = String::from_utf8_lossy(&bytes);
        let mut load = SpillLoad::default();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match parse_entry(line) {
                Some(entry) => load.entries.push(entry),
                None => load.skipped += 1,
            }
        }
        load
    }
}

/// Parse and validate one snapshot line; `None` drops it.
fn parse_entry(line: &str) -> Option<(String, Arc<str>)> {
    let v = json::parse(line).ok()?;
    if v.get("v")?.as_int()? != i64::try_from(SPILL_VERSION).ok()? {
        return None;
    }
    let key = v.get("key")?.as_str()?;
    let body = v.get("body")?.as_str()?;
    let stored = v.get("hash")?.as_str()?;
    let computed = format!("{:016x}", entry_hash(key, body));
    if stored != computed {
        return None;
    }
    Some((key.to_string(), Arc::from(body)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> (PathBuf, SpillStore) {
        let dir = std::env::temp_dir().join(format!("bl-spill-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SpillStore::open(&dir).unwrap();
        (dir, store)
    }

    fn entries(n: usize) -> Vec<(String, Arc<str>)> {
        (0..n)
            .map(|i| {
                (
                    format!("{{\"bench\":\"wc\",\"seed\":{i}}}"),
                    Arc::from(format!(
                        "{{\"result\":{i},\"text\":\"a \\\"quoted\\\" body\"}}"
                    )),
                )
            })
            .collect()
    }

    #[test]
    fn snapshot_round_trips_in_order() {
        let (dir, store) = tmp_store("roundtrip");
        let want = entries(5);
        store.save_cache(&want).unwrap();
        let load = store.load_cache();
        assert_eq!(load.skipped, 0);
        assert_eq!(load.entries.len(), 5);
        for ((k, b), (wk, wb)) in load.entries.iter().zip(&want) {
            assert_eq!(k, wk);
            assert_eq!(b, wb);
        }
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(names.iter().all(|n| !n.ends_with(".tmp")), "{names:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_snapshot_is_an_empty_load() {
        let (dir, store) = tmp_store("missing");
        let load = store.load_cache();
        assert!(load.entries.is_empty());
        assert_eq!(load.skipped, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_degrades_to_fewer_entries_not_an_error() {
        // A kill mid-write tears the last record; everything before it
        // must still restore, and the tear must not error.
        let (dir, store) = tmp_store("torn");
        store.save_cache(&entries(4)).unwrap();
        let full = std::fs::read(store.cache_path()).unwrap();
        // Chop the file mid-final-record, byte by byte over a range,
        // so every tear offset in the last line is exercised.
        let last_line_start = full[..full.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |p| p + 1);
        for cut in [last_line_start + 1, full.len() - 20, full.len() - 2] {
            std::fs::write(store.cache_path(), &full[..cut]).unwrap();
            let load = store.load_cache();
            assert_eq!(load.entries.len(), 3, "cut at {cut}");
            assert_eq!(load.skipped, 1, "cut at {cut}");
        }
        // Chopping at exactly the record boundary loses nothing.
        std::fs::write(store.cache_path(), &full[..last_line_start]).unwrap();
        let load = store.load_cache();
        assert_eq!((load.entries.len(), load.skipped), (3, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hash_mismatch_and_alien_lines_are_skipped() {
        let (dir, store) = tmp_store("alien");
        store.save_cache(&entries(2)).unwrap();
        let mut text = std::fs::read_to_string(store.cache_path()).unwrap();
        // A record whose body was tampered after hashing.
        text.push_str(
            "{\"v\": 1, \"hash\": \"0000000000000000\", \"key\": \"k\", \"body\": \"b\"}\n",
        );
        // A stale-version record and plain garbage.
        text.push_str("{\"v\": 999, \"hash\": \"x\", \"key\": \"k\", \"body\": \"b\"}\n");
        text.push_str("not json at all\n");
        std::fs::write(store.cache_path(), text).unwrap();
        let load = store.load_cache();
        assert_eq!(load.entries.len(), 2);
        assert_eq!(load.skipped, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_replaces_previous_snapshot_atomically() {
        let (dir, store) = tmp_store("replace");
        store.save_cache(&entries(3)).unwrap();
        store.save_cache(&entries(1)).unwrap();
        assert_eq!(store.load_cache().entries.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
