//! The on-disk artifact store: a content-addressed cache of compilation
//! artifacts shared across processes.
//!
//! Layout: one file per artifact at
//! `<root>/<kind>/<key as 16 hex digits>.zza`, where `key` comes from the
//! workspace's digest machinery (`Circuit::content_digest`,
//! `zz_core::pipeline::shape_key`, …) and each file is a versioned,
//! checksummed container ([`crate::codec`]).
//!
//! Failure policy — a cache must never be louder than the work it saves:
//!
//! * **Reads**: a missing, truncated, corrupted, stale-version or
//!   wrong-kind file is a *miss* ([`ArtifactStore::get`] returns `None`);
//!   decoding problems are counted, never surfaced as errors.
//! * **Writes**: write-to-temp + atomic rename, so concurrent processes
//!   and crashes can never publish a half-written artifact. An unwritable
//!   or read-only cache directory degrades to in-memory behavior
//!   ([`ArtifactStore::put`] returns `false` and the compiler recomputes).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::codec::{decode_artifact, encode_artifact, ArtifactKind, Decode, Encode};

/// Environment variable naming the cache directory; when set, the figure
/// binaries and examples persist artifacts across runs.
pub const CACHE_DIR_ENV: &str = "ZZ_CACHE_DIR";

/// Read/write counters of one [`ArtifactStore`] (monotone totals since the
/// store was opened).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Successful reads.
    pub hits: usize,
    /// Reads that found no usable artifact (absent, corrupt, or stale).
    pub misses: usize,
    /// Writes that published an artifact.
    pub writes: usize,
    /// Writes that failed (unwritable directory, disk full, …).
    pub write_errors: usize,
}

/// A durable, crash-safe artifact cache rooted at a directory.
///
/// # Example
///
/// ```
/// use zz_persist::{ArtifactKind, ArtifactStore};
///
/// let dir = std::env::temp_dir().join(format!("zz-doc-{}", std::process::id()));
/// let store = ArtifactStore::at(&dir);
/// store.put(ArtifactKind::Compiled, 42, &1.25f64);
/// assert_eq!(store.get::<f64>(ArtifactKind::Compiled, 42), Some(1.25));
/// assert_eq!(store.get::<f64>(ArtifactKind::Compiled, 43), None);
/// let _ = std::fs::remove_dir_all(&dir);
/// ```
#[derive(Debug)]
pub struct ArtifactStore {
    root: PathBuf,
    hits: AtomicUsize,
    misses: AtomicUsize,
    writes: AtomicUsize,
    write_errors: AtomicUsize,
}

impl ArtifactStore {
    /// Opens (without touching the filesystem) a store rooted at `root`;
    /// directories are created lazily on first write.
    pub fn at(root: impl Into<PathBuf>) -> Self {
        ArtifactStore {
            root: root.into(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            writes: AtomicUsize::new(0),
            write_errors: AtomicUsize::new(0),
        }
    }

    /// Opens the store named by the `ZZ_CACHE_DIR` environment variable,
    /// or `None` when the variable is unset or empty.
    pub fn from_env() -> Option<Self> {
        match std::env::var(CACHE_DIR_ENV) {
            Ok(dir) if !dir.is_empty() => Some(ArtifactStore::at(dir)),
            _ => None,
        }
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A per-device shard of this store, rooted at `<root>/<device>/`.
    ///
    /// Multi-backend deployments give each device its own shard so one
    /// backend's churn (recalibration sweeping its keys, or a damaged
    /// directory) never evicts another backend's warm artifacts. The
    /// shard is an independent [`ArtifactStore`] with its own counters;
    /// non-path-safe characters in `device` are mapped to `_` so any
    /// device name yields a usable directory.
    pub fn shard(&self, device: &str) -> ArtifactStore {
        let safe: String = device
            .chars()
            .map(|c| match c {
                'a'..='z' | 'A'..='Z' | '0'..='9' | '-' | '_' | '.' => c,
                _ => '_',
            })
            .collect();
        let safe = if safe.is_empty() {
            "_".to_string()
        } else {
            safe
        };
        ArtifactStore::at(self.root.join(safe))
    }

    /// The file an artifact lives at.
    fn path_of(&self, kind: ArtifactKind, key: u64) -> PathBuf {
        self.root
            .join(kind.dir_name())
            .join(format!("{key:016x}.zza"))
    }

    /// Reads and decodes an artifact; any failure (absent file, truncation,
    /// corruption, stale schema version, wrong kind) is a miss.
    pub fn get<T: Decode>(&self, kind: ArtifactKind, key: u64) -> Option<T> {
        let value = std::fs::read(self.path_of(kind, key))
            .ok()
            .and_then(|bytes| decode_artifact::<T>(kind, &bytes).ok());
        match &value {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        value
    }

    /// Encodes and durably publishes an artifact (write-to-temp + atomic
    /// rename). Returns `false` — degrading to in-memory behavior — when
    /// the directory cannot be written; never panics or errors.
    pub fn put<T: Encode + ?Sized>(&self, kind: ArtifactKind, key: u64, value: &T) -> bool {
        let bytes = encode_artifact(kind, value);
        let path = self.path_of(kind, key);
        let ok = write_atomically(&path, &bytes);
        match ok {
            true => self.writes.fetch_add(1, Ordering::Relaxed),
            false => self.write_errors.fetch_add(1, Ordering::Relaxed),
        };
        ok
    }

    /// Snapshot of the read/write counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }
}

/// Writes `bytes` to a unique sibling temp file, then renames it over
/// `path`. The rename is atomic on POSIX, so readers only ever observe
/// complete artifacts; on any error the temp file is removed and the
/// function reports failure.
fn write_atomically(path: &Path, bytes: &[u8]) -> bool {
    let Some(dir) = path.parent() else {
        return false;
    };
    if std::fs::create_dir_all(dir).is_err() {
        return false;
    }
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp = dir.join(format!(
        ".{}.{}.{}.tmp",
        path.file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("artifact"),
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    if std::fs::write(&tmp, bytes).is_err() {
        let _ = std::fs::remove_file(&tmp);
        return false;
    }
    if std::fs::rename(&tmp, path).is_err() {
        let _ = std::fs::remove_file(&tmp);
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn scratch_dir(label: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        std::env::temp_dir().join(format!(
            "zz-persist-{label}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn put_then_get_roundtrips() {
        let dir = scratch_dir("roundtrip");
        let store = ArtifactStore::at(&dir);
        let value = vec![(3usize, f64::NAN), (7usize, -0.0)];
        assert!(store.put(ArtifactKind::Native, 0xabcd, &value));
        let back: Vec<(usize, f64)> = store.get(ArtifactKind::Native, 0xabcd).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].0, 3);
        assert_eq!(back[0].1.to_bits(), f64::NAN.to_bits());
        assert_eq!(back[1].1.to_bits(), (-0.0f64).to_bits());
        assert_eq!(store.stats().hits, 1);
        assert_eq!(store.stats().writes, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn absent_truncated_and_corrupt_files_are_misses() {
        let dir = scratch_dir("corrupt");
        let store = ArtifactStore::at(&dir);
        assert_eq!(store.get::<f64>(ArtifactKind::Compiled, 1), None);

        store.put(ArtifactKind::Compiled, 1, &2.5f64);
        let path = store.path_of(ArtifactKind::Compiled, 1);

        // Truncate.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert_eq!(store.get::<f64>(ArtifactKind::Compiled, 1), None);

        // Corrupt one payload byte.
        let mut bad = full.clone();
        *bad.last_mut().unwrap() ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        assert_eq!(store.get::<f64>(ArtifactKind::Compiled, 1), None);

        // Stale schema version.
        let mut stale = full.clone();
        stale[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &stale).unwrap();
        assert_eq!(store.get::<f64>(ArtifactKind::Compiled, 1), None);

        // The intact bytes still read back fine.
        std::fs::write(&path, &full).unwrap();
        assert_eq!(store.get::<f64>(ArtifactKind::Compiled, 1), Some(2.5));
        assert_eq!(store.stats().misses, 4); // absent + 3 damaged reads
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_root_degrades_silently() {
        // Point the cache root *under a regular file*: every directory
        // creation and write must fail, and the store must shrug.
        let dir = scratch_dir("unwritable");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("not-a-dir");
        std::fs::write(&file, b"occupied").unwrap();
        let store = ArtifactStore::at(file.join("cache"));
        assert!(!store.put(ArtifactKind::Compiled, 9, &1.0f64));
        assert_eq!(store.get::<f64>(ArtifactKind::Compiled, 9), None);
        assert_eq!(store.stats().write_errors, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shards_are_isolated_directories() {
        let dir = scratch_dir("shard");
        let store = ArtifactStore::at(&dir);
        let a = store.shard("dev-a");
        let b = store.shard("dev/b:0"); // sanitized to dev_b_0
        a.put(ArtifactKind::Compiled, 1, &1.0f64);
        b.put(ArtifactKind::Compiled, 1, &2.0f64);
        assert_eq!(a.get::<f64>(ArtifactKind::Compiled, 1), Some(1.0));
        assert_eq!(b.get::<f64>(ArtifactKind::Compiled, 1), Some(2.0));
        assert!(a.root().starts_with(store.root()));
        assert_ne!(a.root(), b.root());
        assert_eq!(b.root(), store.root().join("dev_b_0"));
        // Damaging shard A leaves shard B fully readable.
        std::fs::remove_dir_all(a.root()).unwrap();
        assert_eq!(a.get::<f64>(ArtifactKind::Compiled, 1), None);
        assert_eq!(b.get::<f64>(ArtifactKind::Compiled, 1), Some(2.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kinds_are_namespaced() {
        let dir = scratch_dir("kinds");
        let store = ArtifactStore::at(&dir);
        store.put(ArtifactKind::Metrics, 5, &1.0f64);
        // Same key, different kind: distinct file, and a header kind check
        // would catch a cross-read even if the paths collided.
        assert_eq!(store.get::<f64>(ArtifactKind::Compiled, 5), None);
        assert_eq!(store.get::<f64>(ArtifactKind::Metrics, 5), Some(1.0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
