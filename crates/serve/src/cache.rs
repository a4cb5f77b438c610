//! Content-addressed result storage: in-memory LRU + optional on-disk
//! store of canonical-JSON [`JobResult`] documents.
//!
//! Both tiers key on [`JobKey`] and both are *self-validating*: a disk
//! entry decodes only if its payload checksum (a `fnv1a128` footer
//! written with every entry), its embedded format version
//! ([`dta_core::JOB_FORMAT_VERSION`]), and its embedded key (checked
//! against the file name) all agree. Anything else — a torn write, a
//! flipped bit, a truncation, a stale format — is **quarantined**
//! (moved aside into `quarantine/`, never served, never a panic) and
//! reported as a miss so the job simply re-simulates. Real filesystem
//! failures are surfaced as [`Load::Error`] so the service can degrade
//! to memory-only operation instead of erroring jobs (DESIGN.md §13).

use dta_core::{JobKey, JobResult};
use dta_json::fnv1a128;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fixed-capacity LRU of completed results.
///
/// Eviction scans for the stalest entry (O(capacity)); capacities are
/// small (hundreds) and hits bump a counter only, so this stays simpler
/// and faster in practice than an intrusive list.
pub struct LruCache {
    cap: usize,
    tick: u64,
    map: HashMap<u128, (Arc<JobResult>, u64)>,
}

impl LruCache {
    /// Creates a cache holding at most `cap` results (min 1).
    pub fn new(cap: usize) -> Self {
        LruCache {
            cap: cap.max(1),
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// Looks up a result, refreshing its recency.
    pub fn get(&mut self, key: JobKey) -> Option<Arc<JobResult>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&key.0).map(|(v, used)| {
            *used = tick;
            Arc::clone(v)
        })
    }

    /// Inserts (or refreshes) a result, evicting the least-recently-used
    /// entry when over capacity. Host-side outcomes (host panics) are
    /// refused: only deterministic results are content-addressable.
    pub fn insert(&mut self, key: JobKey, value: Arc<JobResult>) {
        debug_assert!(!value.is_host_side(), "host-side outcomes are never cached");
        if value.is_host_side() {
            return;
        }
        self.tick += 1;
        self.map.insert(key.0, (value, self.tick));
        if self.map.len() > self.cap {
            if let Some(&stalest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k)
            {
                self.map.remove(&stalest);
            }
        }
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Footer line prefix: `dta-entry fnv1a128=<32 hex digits>`.
const FOOTER_PREFIX: &str = "dta-entry fnv1a128=";

/// Outcome of a disk lookup.
pub enum Load {
    /// No entry for this key.
    Miss,
    /// A validated entry (boxed: a `JobResult` is two orders of
    /// magnitude bigger than the other variants).
    Hit(Box<JobResult>),
    /// An entry existed but failed validation (torn write, bit flip,
    /// truncation, stale format, key mismatch). It has been moved to
    /// the `quarantine/` subdirectory — never served — and the caller
    /// should re-simulate.
    Quarantined {
        /// What failed, for the health log.
        reason: &'static str,
    },
    /// A real filesystem failure (not absence, not corruption). The
    /// caller should degrade to memory-only operation.
    Error(io::Error),
}

/// On-disk store: one `<key-hex>.json` canonical document per result,
/// each carrying a payload-checksum footer.
///
/// Entry layout (two lines):
///
/// ```text
/// <canonical JobResult JSON>\n
/// dta-entry fnv1a128=<32-hex checksum of the first line's bytes>\n
/// ```
///
/// Writes go to a uniquely named temp file (`.<key>.<pid>.<seq>.tmp`)
/// followed by an atomic rename, so readers — including concurrent
/// writers of the same key — never observe a torn document under the
/// final name. The checksum footer catches the remaining hazards
/// (partial temp flush surviving a crash-rename, storage bit rot).
pub struct DiskStore {
    dir: PathBuf,
    seq: AtomicU64,
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn new(dir: &Path) -> io::Result<DiskStore> {
        std::fs::create_dir_all(dir)?;
        Ok(DiskStore {
            dir: dir.to_path_buf(),
            seq: AtomicU64::new(0),
        })
    }

    fn path(&self, key: JobKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.hex()))
    }

    /// The quarantine subdirectory (corrupt entries are moved here with
    /// a unique suffix; inspect or delete freely).
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    /// Loads and validates a result. Corruption quarantines; only real
    /// I/O failures surface as [`Load::Error`].
    pub fn load(&self, key: JobKey) -> Load {
        let bytes = match std::fs::read(self.path(key)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Load::Miss,
            Err(e) => return Load::Error(e),
        };
        match validate_entry(&bytes, key) {
            Ok(result) => Load::Hit(Box::new(result)),
            Err(reason) => match self.quarantine(key) {
                Ok(()) => Load::Quarantined { reason },
                // Can't even move the bad entry aside: treat as a
                // filesystem failure so the store gets disabled rather
                // than re-quarantining forever.
                Err(e) => Load::Error(e),
            },
        }
    }

    /// Persists a result (unique temp file + atomic rename + checksum
    /// footer). Host-side outcomes are refused with `InvalidInput`.
    pub fn store(&self, result: &JobResult) -> io::Result<()> {
        if result.is_host_side() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "host-side outcomes are never stored",
            ));
        }
        let payload = result.canonical_string();
        let text = format!(
            "{payload}\n{FOOTER_PREFIX}{:032x}\n",
            fnv1a128(payload.as_bytes())
        );
        let path = self.path(result.key);
        let tmp = self.dir.join(format!(
            ".{}.{}.{}.tmp",
            result.key.hex(),
            std::process::id(),
            self.seq.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, &path).inspect_err(|_| {
            std::fs::remove_file(&tmp).ok();
        })
    }

    /// Moves the entry for `key` into `quarantine/` under a unique name.
    fn quarantine(&self, key: JobKey) -> io::Result<()> {
        let qdir = self.quarantine_dir();
        std::fs::create_dir_all(&qdir)?;
        let dest = qdir.join(format!(
            "{}.{}.{}.bad",
            key.hex(),
            std::process::id(),
            self.seq.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::rename(self.path(key), dest)
    }
}

/// Validates raw entry bytes against `key`: UTF-8, checksum footer,
/// canonical decode, format version (inside the decoder), embedded key,
/// and the never-cache-host-outcomes invariant.
fn validate_entry(bytes: &[u8], key: JobKey) -> Result<JobResult, &'static str> {
    let text = std::str::from_utf8(bytes).map_err(|_| "not utf-8")?;
    let body = text.strip_suffix('\n').unwrap_or(text);
    let (payload, footer) = body.rsplit_once('\n').ok_or("missing checksum footer")?;
    let sum = footer
        .strip_prefix(FOOTER_PREFIX)
        .ok_or("malformed checksum footer")?;
    if u128::from_str_radix(sum, 16) != Ok(fnv1a128(payload.as_bytes())) {
        return Err("checksum mismatch");
    }
    let result = JobResult::from_canonical_str(payload).ok_or("payload does not decode")?;
    if result.key != key {
        return Err("embedded key disagrees with file name");
    }
    if result.is_host_side() {
        return Err("host-side outcome on disk");
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_core::{JobError, JOB_FORMAT_VERSION};

    fn fake_result(n: u128) -> Arc<JobResult> {
        Arc::new(JobResult {
            format: JOB_FORMAT_VERSION,
            key: JobKey(n),
            outcome: Err(JobError::Launch {
                message: format!("entry {n}"),
            }),
        })
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dta-serve-cache-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn hit(load: Load) -> Option<JobResult> {
        match load {
            Load::Hit(r) => Some(*r),
            _ => None,
        }
    }

    #[test]
    fn lru_evicts_stalest() {
        let mut c = LruCache::new(2);
        c.insert(JobKey(1), fake_result(1));
        c.insert(JobKey(2), fake_result(2));
        assert!(c.get(JobKey(1)).is_some()); // 1 is now fresher than 2
        c.insert(JobKey(3), fake_result(3));
        assert_eq!(c.len(), 2);
        assert!(c.get(JobKey(2)).is_none(), "stalest entry evicted");
        assert!(c.get(JobKey(1)).is_some());
        assert!(c.get(JobKey(3)).is_some());
    }

    #[test]
    fn lru_refuses_host_side_outcomes() {
        let mut c = LruCache::new(4);
        let host = Arc::new(JobResult {
            format: JOB_FORMAT_VERSION,
            key: JobKey(5),
            outcome: Err(JobError::HostPanic {
                message: "t".into(),
            }),
        });
        // Release builds must silently refuse; debug builds assert.
        if !cfg!(debug_assertions) {
            c.insert(JobKey(5), host);
            assert!(c.is_empty());
        }
    }

    #[test]
    fn disk_store_roundtrips_and_validates() {
        let dir = scratch("roundtrip");
        let store = DiskStore::new(&dir).unwrap();
        let r = fake_result(77);
        store.store(&r).unwrap();
        assert_eq!(hit(store.load(JobKey(77))).as_ref(), Some(r.as_ref()));
        assert!(matches!(store.load(JobKey(78)), Load::Miss));

        // A document stored under the wrong name is quarantined, not
        // served.
        std::fs::rename(
            dir.join(format!("{}.json", JobKey(77).hex())),
            dir.join(format!("{}.json", JobKey(99).hex())),
        )
        .unwrap();
        assert!(matches!(
            store.load(JobKey(99)),
            Load::Quarantined {
                reason: "embedded key disagrees with file name"
            }
        ));
        // Quarantine moved it aside: the next load is a clean miss.
        assert!(matches!(store.load(JobKey(99)), Load::Miss));
        assert_eq!(
            std::fs::read_dir(store.quarantine_dir()).unwrap().count(),
            1
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_entry_quarantines() {
        let dir = scratch("truncate");
        let store = DiskStore::new(&dir).unwrap();
        let r = fake_result(11);
        store.store(&r).unwrap();
        let path = dir.join(format!("{}.json", JobKey(11).hex()));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(matches!(store.load(JobKey(11)), Load::Quarantined { .. }));
        assert!(matches!(store.load(JobKey(11)), Load::Miss));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_quarantines_via_checksum() {
        let dir = scratch("bitflip");
        let store = DiskStore::new(&dir).unwrap();
        let r = fake_result(12);
        store.store(&r).unwrap();
        let path = dir.join(format!("{}.json", JobKey(12).hex()));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 3;
        bytes[mid] ^= 0x01; // still parseable JSON in many positions —
                            // the checksum must catch it regardless
        std::fs::write(&path, &bytes).unwrap();
        match store.load(JobKey(12)) {
            Load::Quarantined { .. } => {}
            Load::Hit(_) => panic!("flipped entry must not be served"),
            Load::Miss => panic!("flipped entry must quarantine, not vanish"),
            Load::Error(e) => panic!("flipped entry must quarantine, not error: {e}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn footerless_legacy_entry_quarantines() {
        let dir = scratch("legacy");
        let store = DiskStore::new(&dir).unwrap();
        let r = fake_result(13);
        // A pre-checksum entry: bare canonical payload, no footer.
        std::fs::write(
            dir.join(format!("{}.json", JobKey(13).hex())),
            r.canonical_string(),
        )
        .unwrap();
        assert!(matches!(store.load(JobKey(13)), Load::Quarantined { .. }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_refuses_host_side_outcomes() {
        let dir = scratch("host-side");
        let store = DiskStore::new(&dir).unwrap();
        let host = JobResult {
            format: JOB_FORMAT_VERSION,
            key: JobKey(14),
            outcome: Err(JobError::HostPanic {
                message: "boom".into(),
            }),
        };
        assert_eq!(
            store.store(&host).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        assert!(matches!(store.load(JobKey(14)), Load::Miss));
        std::fs::remove_dir_all(&dir).ok();
    }
}
