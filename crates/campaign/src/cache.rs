//! The on-disk content-addressed result cache.
//!
//! Layout: one file per cell at `<dir>/<config-hash>.json` holding
//!
//! ```json
//! {"schema":1,
//!  "config_hash":"<16 hex>",
//!  "config":{...canonical cell config...},
//!  "record_hash":"<16 hex>",
//!  "record":{...deterministic cell record...}}
//! ```
//!
//! Nothing in an entry is trusted on load. A hit requires *all* of:
//! the stored `config_hash` matches the file name, re-hashing the
//! stored config's canonical encoding reproduces it (so the entry
//! really is the cell we asked for, not a renamed file), and re-hashing
//! the re-serialized record matches `record_hash` (so a flipped bit
//! anywhere in the payload is caught). Any mismatch — including a file
//! that fails to parse — is a [`CacheMiss`], and the engine re-runs the
//! cell instead of trusting the entry.

use crate::cell::{fnv1a64, CellConfig, CellRecord};
use crate::json::{self, Json};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

// sync: Relaxed — a process-wide sequence number whose only job is to
// make every store's tmp name unique; `fetch_add` hands out distinct
// values at any ordering, and nothing is published through it.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Why a lookup did not produce a usable record. `Absent` is the
/// ordinary cold-cache case; every other variant means an entry existed
/// but was rejected.
#[derive(Debug)]
pub enum CacheMiss {
    /// No entry on disk.
    Absent,
    /// The entry could not be read.
    Unreadable(io::Error),
    /// The entry did not parse or did not match the schema.
    Malformed(String),
    /// A stored hash did not check out — the entry is corrupt or
    /// mislabelled.
    HashMismatch(String),
}

/// A content-addressed cache rooted at one directory.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (and lazily creates) a cache at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultCache { dir: dir.into() }
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path for a cell.
    pub fn entry_path(&self, config: &CellConfig) -> PathBuf {
        self.path_at(&config.content_hash())
    }

    /// The entry path at content address `hash`.
    pub fn path_at(&self, hash: &str) -> PathBuf {
        self.dir.join(format!("{hash}.json"))
    }

    /// Loads and fully verifies the entry for `config`.
    pub fn load(&self, config: &CellConfig) -> Result<CellRecord, CacheMiss> {
        self.load_at(&config.content_hash())
    }

    /// Loads and fully verifies the entry at content address `hash`, a
    /// cell config's [`content_hash`](CellConfig::content_hash) that the
    /// caller already holds. The stored config is still re-hashed: that
    /// is what proves the entry is the cell at this address.
    pub fn load_at(&self, expected_hash: &str) -> Result<CellRecord, CacheMiss> {
        let path = self.path_at(expected_hash);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(CacheMiss::Absent),
            Err(e) => return Err(CacheMiss::Unreadable(e)),
        };
        let entry = json::parse(&text).map_err(|e| CacheMiss::Malformed(e.to_string()))?;

        let stored_hash = entry
            .get("config_hash")
            .and_then(Json::as_str)
            .ok_or_else(|| CacheMiss::Malformed("no config_hash".into()))?;
        if stored_hash != expected_hash {
            return Err(CacheMiss::HashMismatch(format!(
                "entry claims config {stored_hash}, wanted {expected_hash}"
            )));
        }
        let stored_config = entry
            .get("config")
            .ok_or_else(|| CacheMiss::Malformed("no config".into()))?;
        let stored_config = CellConfig::from_json(stored_config)
            .map_err(|e| CacheMiss::Malformed(e.to_string()))?;
        if stored_config.content_hash() != expected_hash {
            return Err(CacheMiss::HashMismatch(
                "stored config does not hash to the entry's address".into(),
            ));
        }

        let record_json = entry
            .get("record")
            .ok_or_else(|| CacheMiss::Malformed("no record".into()))?;
        let record = CellRecord::from_json(record_json)
            .map_err(|e| CacheMiss::Malformed(e.to_string()))?;
        let stored_record_hash = entry
            .get("record_hash")
            .and_then(Json::as_str)
            .ok_or_else(|| CacheMiss::Malformed("no record_hash".into()))?;
        let recomputed = record_hash(&record);
        if stored_record_hash != recomputed {
            return Err(CacheMiss::HashMismatch(format!(
                "record hash {stored_record_hash} != recomputed {recomputed}"
            )));
        }
        Ok(record)
    }

    /// Writes the entry for a (config, record) pair, crash-safely: the
    /// payload goes to a temporary file unique to this store call (pid
    /// plus a process-wide sequence number, so two threads storing the
    /// same cell never share one), is fsynced, and is
    /// atomically renamed into place. A process killed at any point
    /// leaves either the old entry, the new entry, or an orphaned
    /// `.tmp` file (collected by [`gc_stale_tmp`](Self::gc_stale_tmp))
    /// — never a torn entry at the content address. Concurrent writers
    /// of the same cell write identical bytes by construction, so the
    /// rename race is benign.
    pub fn store(&self, config: &CellConfig, record: &CellRecord) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let hash = config.content_hash();
        let path = self.path_at(&hash);
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed); // sync: see TMP_SEQ
        let tmp = self.dir.join(format!(".{hash}.{}.{seq}.tmp", std::process::id()));
        let entry = Json::obj(vec![
            ("schema", Json::UInt(crate::cell::SCHEMA_VERSION)),
            ("config_hash", Json::Str(hash)),
            ("config", config.to_json()),
            ("record_hash", Json::Str(record_hash(record))),
            ("record", record.to_json()),
        ]);
        {
            let mut file = fs::File::create(&tmp)?;
            io::Write::write_all(&mut file, (entry.to_string_compact() + "\n").as_bytes())?;
            file.sync_all()?;
        }
        fs::rename(&tmp, &path)
    }

    /// Removes orphaned `.tmp` files left by writers that died mid-store
    /// (SIGKILL between create and rename). Call once at startup, before
    /// serving: a live writer whose tmp is swept merely fails its rename
    /// and re-runs the cell; a dead writer's half-written payload must
    /// never be mistaken for an entry. Returns the number removed.
    pub fn gc_stale_tmp(&self) -> io::Result<usize> {
        let entries = match fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let mut removed = 0;
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            let is_tmp = name.to_str().is_some_and(|n| n.ends_with(".tmp"));
            if is_tmp && entry.file_type()?.is_file() {
                fs::remove_file(entry.path())?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Where corrupt entries are moved instead of deleted.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    /// Moves the (rejected) entry at content address `hash` into
    /// `quarantine/<hash>.json` so the corruption stays inspectable and
    /// the address is free for the honest re-run. Returns `false` when
    /// there was nothing on disk to move (e.g. two shards quarantined
    /// the same entry concurrently — one wins the rename, both re-run).
    pub fn quarantine(&self, hash: &str) -> io::Result<bool> {
        let path = self.path_at(hash);
        if !path.exists() {
            return Ok(false);
        }
        let qdir = self.quarantine_dir();
        fs::create_dir_all(&qdir)?;
        match fs::rename(&path, qdir.join(format!("{hash}.json"))) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }
}

/// Hash of a record's canonical serialization (FNV-1a 64, hex).
pub fn record_hash(record: &CellRecord) -> String {
    format!("{:016x}", fnv1a64(record.to_json().to_string_compact().as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use inpg::Mechanism;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("inpg-cache-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn run_cell() -> (CellConfig, CellRecord) {
        let mut config = CellConfig::hot_lock(1, 50, 20);
        config.width = 2;
        config.height = 2;
        config.mechanism = Mechanism::Original;
        config.max_cycles = 1_000_000;
        let record = config.run().expect("valid cell");
        (config, record)
    }

    #[test]
    fn store_then_load_roundtrips() {
        let cache = ResultCache::new(tmp_dir("roundtrip"));
        let (config, record) = run_cell();
        assert!(matches!(cache.load(&config), Err(CacheMiss::Absent)));
        cache.store(&config, &record).unwrap();
        let loaded = cache.load(&config).expect("verified hit");
        assert_eq!(loaded, record);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupted_entries_are_rejected_not_trusted() {
        let cache = ResultCache::new(tmp_dir("corrupt"));
        let (config, record) = run_cell();
        cache.store(&config, &record).unwrap();
        let path = cache.entry_path(&config);

        // Flip a digit inside the record payload: the roi_cycles value.
        let text = fs::read_to_string(&path).unwrap();
        let needle = format!("\"roi_cycles\":{}", record.roi_cycles);
        let tampered =
            text.replace(&needle, &format!("\"roi_cycles\":{}", record.roi_cycles + 1));
        assert_ne!(text, tampered, "tamper target must exist in the entry");
        fs::write(&path, tampered).unwrap();
        assert!(
            matches!(cache.load(&config), Err(CacheMiss::HashMismatch(_))),
            "a flipped payload byte must be a hash mismatch"
        );

        // Truncated garbage is malformed, also a miss.
        fs::write(&path, "{\"schema\":1").unwrap();
        assert!(matches!(cache.load(&config), Err(CacheMiss::Malformed(_))));

        // An entry renamed onto the wrong address is a config-hash
        // mismatch, not a silent wrong answer.
        cache.store(&config, &record).unwrap();
        let mut other = config.clone();
        other.seed ^= 1;
        fs::copy(&path, cache.entry_path(&other)).unwrap();
        assert!(matches!(cache.load(&other), Err(CacheMiss::HashMismatch(_))));

        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn concurrent_stores_of_one_cell_all_succeed() {
        let cache = ResultCache::new(tmp_dir("concurrent"));
        let (config, record) = run_cell();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for round in 0..100 {
                        cache
                            .store(&config, &record)
                            .unwrap_or_else(|e| panic!("store failed in round {round}: {e}"));
                        assert_eq!(cache.load(&config).expect("verified hit"), record);
                    }
                });
            }
        });
        assert_eq!(cache.gc_stale_tmp().unwrap(), 0, "no tmp file left behind");
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn stale_tmp_files_are_collected_entries_are_not() {
        let cache = ResultCache::new(tmp_dir("gc"));
        let (config, record) = run_cell();
        cache.store(&config, &record).unwrap();

        // A writer killed mid-store leaves a half-written tmp behind —
        // simulate with a truncated payload under the tmp naming scheme.
        let full = fs::read_to_string(cache.entry_path(&config)).unwrap();
        let orphan = cache.dir().join(format!(".{}.99999.tmp", config.content_hash()));
        fs::write(&orphan, &full[..full.len() / 2]).unwrap();
        let unrelated = cache.dir().join("whatever.tmp");
        fs::write(&unrelated, "garbage").unwrap();

        assert_eq!(cache.gc_stale_tmp().unwrap(), 2);
        assert!(!orphan.exists());
        assert!(!unrelated.exists());
        // The committed entry survives and still verifies.
        assert_eq!(cache.load(&config).expect("hit"), record);
        // Idempotent on a clean directory; absent directory is not an error.
        assert_eq!(cache.gc_stale_tmp().unwrap(), 0);
        assert_eq!(ResultCache::new(tmp_dir("gc-absent")).gc_stale_tmp().unwrap(), 0);

        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn quarantine_moves_the_entry_aside() {
        let cache = ResultCache::new(tmp_dir("quarantine"));
        let (config, record) = run_cell();
        cache.store(&config, &record).unwrap();
        fs::write(cache.entry_path(&config), "{\"schema\":1, torn").unwrap();

        assert!(cache.quarantine(&config.content_hash()).unwrap());
        assert!(!cache.entry_path(&config).exists(), "address must be freed");
        let moved =
            cache.quarantine_dir().join(format!("{}.json", config.content_hash()));
        assert_eq!(
            fs::read_to_string(&moved).unwrap(),
            "{\"schema\":1, torn",
            "the corrupt payload must stay inspectable"
        );
        assert!(matches!(cache.load(&config), Err(CacheMiss::Absent)));
        // Nothing left to move: reports false, does not error.
        assert!(!cache.quarantine(&config.content_hash()).unwrap());
        // The quarantine subdirectory is not swept by tmp GC.
        assert_eq!(cache.gc_stale_tmp().unwrap(), 0);
        assert!(moved.exists());

        let _ = fs::remove_dir_all(cache.dir());
    }
}
