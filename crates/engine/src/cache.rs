//! Content-addressed simulation-result cache, persisted in the
//! [`crate::store`] pile format.
//!
//! Every executed simulation is stored under its [`CacheKey`] identity.
//! With a cache directory attached, entries are appended to a
//! [`PileStore`] — page-aligned segments, verified on read, O(1) warm
//! open — so a later process (a re-run of `ddtr explore`, a resumed
//! sweep, a `ddtr serve` worker, the bench harness) replays hits instead
//! of re-simulating, without paying a load proportional to cache size.
//! Records are fetched and verified lazily, on first lookup of each key.
//!
//! JSON lines (one `{"key": …, "log": …}` object per line) remain the
//! interchange format: `ddtr cache export`/`import` write and read it,
//! and a legacy `sim-cache.jsonl` store is migrated into the pile
//! automatically the first time the directory is opened.

use crate::key::CacheKey;
use crate::sim::SimLog;
use crate::store::{CompactReport, PileStore, StoreError, StoreStats, VerifyReport};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// File name of the legacy JSONL store inside the cache directory —
/// still the interchange format for `ddtr cache export`/`import`, and
/// migrated into the pile store when found at open.
pub const CACHE_FILE: &str = "sim-cache.jsonl";

/// Suffix a migrated legacy store is renamed to (kept as a backup).
const MIGRATED_SUFFIX: &str = ".migrated";

/// One persisted cache entry: the structured key plus its result. Its
/// JSON serialization is both the pile-record payload and the JSONL
/// interchange line, so export/import round-trips byte-identically.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CacheEntry {
    /// The structured content address.
    key: CacheKey,
    /// The cached simulation log.
    log: SimLog,
}

/// Counters describing what the cache did for a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Results currently materialized in memory (inserted this run, or
    /// faulted in from the store by a lookup).
    pub entries: usize,
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that had to execute a simulation.
    pub misses: usize,
    /// Records available from the on-disk store when the cache was
    /// opened (published records; read lazily, not at open).
    pub loaded: usize,
}

/// Where a [`SimCache`] keeps results beyond the in-memory map.
#[derive(Debug)]
enum Backend {
    /// No persistence.
    Memory,
    /// The pile store under the attached cache directory (boxed — the
    /// store holds per-segment state and dwarfs the empty variant).
    Pile(Box<PileStore>),
}

/// The engine's result cache: an in-memory map in front of an optional
/// verified-on-read [`PileStore`].
#[derive(Debug)]
pub struct SimCache {
    map: HashMap<String, SimLog>,
    backend: Backend,
    dir: Option<PathBuf>,
    hits: usize,
    misses: usize,
    loaded: usize,
}

impl SimCache {
    /// A purely in-memory cache (no persistence).
    #[must_use]
    pub fn in_memory() -> Self {
        SimCache {
            map: HashMap::new(),
            backend: Backend::Memory,
            dir: None,
            hits: 0,
            misses: 0,
            loaded: 0,
        }
    }

    /// Opens (creating if needed) the pile store under `dir`. This is
    /// O(1) in the number of cached results: only segment headers are
    /// read; records are verified lazily on lookup. A legacy
    /// `sim-cache.jsonl` store found here is imported once and renamed
    /// aside.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created or the
    /// store cannot be opened. Damaged segments or records are
    /// quarantined at read time, never fatal.
    pub fn open(dir: &Path) -> io::Result<Self> {
        let mut store = PileStore::open(dir).map_err(store_to_io)?;
        let mut loaded = usize::try_from(store.committed_at_open()).unwrap_or(usize::MAX);
        let legacy = dir.join(CACHE_FILE);
        if legacy.exists() && store.segment_count() == 0 {
            // One-time migration from the JSONL era. The original is
            // kept (renamed) as a backup; the pile is authoritative from
            // here on.
            let migrated = import_lines(&mut store, &legacy)?;
            let mut backup = legacy.clone().into_os_string();
            backup.push(MIGRATED_SUFFIX);
            let _ = std::fs::rename(&legacy, PathBuf::from(backup));
            loaded += migrated;
        }
        ddtr_obs::counter(ddtr_obs::names::ENGINE_CACHE_LOAD).add(loaded as u64);
        Ok(SimCache {
            map: HashMap::new(),
            backend: Backend::Pile(Box::new(store)),
            dir: Some(dir.to_path_buf()),
            hits: 0,
            misses: 0,
            loaded,
        })
    }

    /// The cache directory, when persistence is attached.
    #[must_use]
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Looks up a result by key identity, counting a hit when present.
    /// Store-backed entries are read and verified on demand; a damaged
    /// record reads as a miss (and is quarantined), never a panic.
    pub fn get(&mut self, id: &str) -> Option<SimLog> {
        if let Some(log) = self.map.get(id) {
            self.hits += 1;
            ddtr_obs::counter(ddtr_obs::names::ENGINE_CACHE_HIT).inc();
            return Some(log.clone());
        }
        let Backend::Pile(store) = &mut self.backend else {
            return None;
        };
        let payload = match store.get(id.as_bytes()) {
            Ok(Some(payload)) => payload,
            Ok(None) => return None,
            // An I/O failure on the read path degrades to a miss: the
            // engine re-executes and the run stays correct.
            Err(_) => return None,
        };
        let entry = std::str::from_utf8(&payload)
            .ok()
            .and_then(|text| serde_json::from_str::<CacheEntry>(text).ok())?;
        self.map.insert(id.to_string(), entry.log.clone());
        self.hits += 1;
        ddtr_obs::counter(ddtr_obs::names::ENGINE_CACHE_HIT).inc();
        Some(entry.log)
    }

    /// Counts an executed simulation whose result is *not* retained — used
    /// when caching is disabled, so the miss accounting stays truthful.
    pub fn note_miss(&mut self) {
        self.misses += 1;
        ddtr_obs::counter(ddtr_obs::names::ENGINE_CACHE_MISS).inc();
    }

    /// Records one executed simulation, appending it to the pile store
    /// when one is attached. Persistence failures degrade to in-memory
    /// caching (the run's results stay correct either way).
    pub fn insert(&mut self, key: &CacheKey, log: SimLog) {
        self.misses += 1;
        ddtr_obs::counter(ddtr_obs::names::ENGINE_CACHE_MISS).inc();
        if let Backend::Pile(store) = &mut self.backend {
            let entry = CacheEntry {
                key: key.clone(),
                log: log.clone(),
            };
            if let Ok(line) = serde_json::to_string(&entry) {
                if store.append(key.id().as_bytes(), line.as_bytes()).is_ok() {
                    ddtr_obs::counter(ddtr_obs::names::ENGINE_CACHE_STORE).inc();
                }
            }
        }
        self.map.insert(key.id(), log);
    }

    /// Publishes any appended-but-unpublished records (fsync + header
    /// update). Also runs on drop; exposed for long-lived sessions that
    /// want durability at a known point.
    ///
    /// # Errors
    ///
    /// Propagates the publish I/O error.
    pub fn flush(&mut self) -> io::Result<()> {
        match &mut self.backend {
            Backend::Memory => Ok(()),
            Backend::Pile(store) => store.flush(),
        }
    }

    /// The cache's counters so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.map.len(),
            hits: self.hits,
            misses: self.misses,
            loaded: self.loaded,
        }
    }

    /// Inspects a cache directory without opening it for writing: number
    /// of distinct entries and the store's size in bytes. Both are zero
    /// when no store exists yet. Falls back to counting a legacy JSONL
    /// store when no pile segments exist.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if an existing store cannot be read.
    pub fn inspect(dir: &Path) -> io::Result<(usize, u64)> {
        if PileStore::exists(dir) {
            let stats = Self::store_stats(dir)?;
            return Ok((
                usize::try_from(stats.distinct).unwrap_or(usize::MAX),
                stats.bytes,
            ));
        }
        let path = dir.join(CACHE_FILE);
        if !path.exists() {
            return Ok((0, 0));
        }
        let bytes = std::fs::metadata(&path)?.len();
        let mut ids = std::collections::HashSet::new();
        for line in BufReader::new(File::open(&path)?).lines() {
            let line = line?;
            if let Ok(entry) = serde_json::from_str::<CacheEntry>(&line) {
                ids.insert(entry.key.id());
            }
        }
        Ok((ids.len(), bytes))
    }

    /// Deletes the on-disk store under `dir` — pile segments, index
    /// sidecars and any legacy JSONL file; the directory itself is kept.
    /// Returns whether a store existed.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the store exists but cannot be removed.
    pub fn clear(dir: &Path) -> io::Result<bool> {
        let mut removed = PileStore::clear_dir(dir)?;
        let path = dir.join(CACHE_FILE);
        if path.exists() {
            std::fs::remove_file(&path)?;
            removed = true;
        }
        Ok(removed)
    }

    /// Summary counters of the pile store under `dir` (for
    /// `ddtr cache stats`).
    ///
    /// # Errors
    ///
    /// Propagates store I/O errors.
    pub fn store_stats(dir: &Path) -> io::Result<StoreStats> {
        let mut store = PileStore::open(dir).map_err(store_to_io)?;
        store.stats().map_err(store_to_io)
    }

    /// Fully verifies the pile store under `dir`: every header, every
    /// committed record, the unpublished tail. Nothing is mutated.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; corruption lands in the report, not here.
    pub fn verify_store(dir: &Path) -> io::Result<VerifyReport> {
        let store = PileStore::open(dir).map_err(store_to_io)?;
        store.verify().map_err(store_to_io)
    }

    /// Compacts the pile store under `dir`: rewrites the newest version
    /// of every record into one fresh segment under a bumped generation,
    /// dropping duplicates and quarantined bytes. Offline admin
    /// operation — run it while nothing else appends to the store.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; old segments are deleted only after the
    /// replacement is fully published.
    pub fn compact_store(dir: &Path) -> io::Result<CompactReport> {
        let mut store = PileStore::open(dir).map_err(store_to_io)?;
        store.compact().map_err(store_to_io)
    }

    /// Exports the store under `dir` as JSON lines (the interchange
    /// format) to `out`, newest version of each entry, key-sorted.
    /// Returns the number of lines written.
    ///
    /// # Errors
    ///
    /// Propagates store-read and file-write I/O errors.
    pub fn export_store(dir: &Path, out: &Path) -> io::Result<usize> {
        let mut store = PileStore::open(dir).map_err(store_to_io)?;
        let mut file = File::create(out)?;
        let mut written = 0;
        let mut failed = false;
        store
            .for_each_latest(|_, payload| {
                if !failed && file.write_all(payload).is_ok() && file.write_all(b"\n").is_ok() {
                    written += 1;
                } else {
                    failed = true;
                }
            })
            .map_err(store_to_io)?;
        if failed {
            return Err(io::Error::other("export interrupted by a write failure"));
        }
        file.flush()?;
        Ok(written)
    }

    /// Imports JSON lines from `input` into the store under `dir`.
    /// Malformed lines are skipped. Returns the number of entries
    /// imported.
    ///
    /// # Errors
    ///
    /// Propagates file-read and store-append I/O errors.
    pub fn import_store(dir: &Path, input: &Path) -> io::Result<usize> {
        let mut store = PileStore::open(dir).map_err(store_to_io)?;
        import_lines(&mut store, input)
    }
}

/// Flattens a [`StoreError`] into `io::Error` for the cache's public
/// `io::Result` signatures.
fn store_to_io(err: StoreError) -> io::Error {
    match err {
        StoreError::Io(err) => err,
        corrupt => io::Error::other(corrupt.to_string()),
    }
}

/// Appends every parseable JSONL entry from `path` into `store`,
/// skipping garbage (torn tails, stray lines), then publishes.
fn import_lines(store: &mut PileStore, path: &Path) -> io::Result<usize> {
    let mut imported = 0;
    for line in BufReader::new(File::open(path)?).lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let Ok(entry) = serde_json::from_str::<CacheEntry>(&line) else {
            continue;
        };
        store
            .append(entry.key.id().as_bytes(), line.as_bytes())
            .map_err(store_to_io)?;
        imported += 1;
    }
    store.flush()?;
    Ok(imported)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::fingerprint_trace;
    use crate::testing::TempCacheDir;
    use ddtr_apps::{AppKind, AppParams};
    use ddtr_ddt::DdtKind;
    use ddtr_mem::MemoryConfig;
    use ddtr_trace::NetworkPreset;
    use std::fs::OpenOptions;

    fn sample() -> (CacheKey, SimLog) {
        let trace = NetworkPreset::DartmouthBerry.generate(20);
        let params = AppParams::default();
        let combo = [DdtKind::Array, DdtKind::Dll];
        let key = CacheKey::new(
            AppKind::Drr,
            combo,
            &params,
            &trace,
            fingerprint_trace(&trace),
            &MemoryConfig::embedded_default(),
        );
        let log = crate::Simulator::new(MemoryConfig::embedded_default()).run(
            AppKind::Drr,
            combo,
            &params,
            &trace,
        );
        (key, log)
    }

    #[test]
    fn in_memory_cache_hits_after_insert() {
        let (key, log) = sample();
        let mut cache = SimCache::in_memory();
        assert!(cache.get(&key.id()).is_none());
        cache.insert(&key, log.clone());
        let back = cache.get(&key.id()).expect("hit");
        assert_eq!(back.report.accesses, log.report.accesses);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (1, 1, 1));
    }

    #[test]
    fn disk_store_round_trips_across_instances() {
        let tmp = TempCacheDir::new("cache-roundtrip");
        let (key, log) = sample();
        {
            let mut cache = SimCache::open(tmp.path()).expect("open");
            assert_eq!(cache.stats().loaded, 0);
            cache.insert(&key, log.clone());
        }
        let mut reopened = SimCache::open(tmp.path()).expect("reopen");
        assert_eq!(reopened.stats().loaded, 1);
        let back = reopened.get(&key.id()).expect("persisted hit");
        assert_eq!(back.report.cycles, log.report.cycles);
        assert_eq!(back.combo, log.combo);
        let stats = reopened.stats();
        assert_eq!((stats.hits, stats.entries), (1, 1), "faulted in on demand");
    }

    #[test]
    fn duplicate_inserts_collapse_on_lookup_and_inspect() {
        let tmp = TempCacheDir::new("cache-dedup");
        let (key, log) = sample();
        {
            let mut cache = SimCache::open(tmp.path()).expect("open");
            cache.insert(&key, log.clone());
        }
        {
            // A second writer stores the same entry again (its own
            // segment — concurrent processes never share bytes).
            let mut cache = SimCache::open(tmp.path()).expect("open second");
            cache.insert(&key, log.clone());
        }
        let mut reopened = SimCache::open(tmp.path()).expect("reopen");
        assert!(reopened.get(&key.id()).is_some(), "one hit, latest wins");
        let (entries, bytes) = SimCache::inspect(tmp.path()).expect("inspect");
        assert_eq!(entries, 1, "duplicates collapse to one distinct entry");
        assert!(bytes > 0);
        let report = SimCache::compact_store(tmp.path()).expect("compact");
        assert_eq!(report.records_out, 1);
    }

    #[test]
    fn legacy_jsonl_store_migrates_on_first_open() {
        let tmp = TempCacheDir::new("cache-migrate");
        let (key, log) = sample();
        let entry = CacheEntry {
            key: key.clone(),
            log,
        };
        {
            // A cache directory from the JSONL era: one good line, one
            // duplicate, one torn line from a crashed append.
            let mut f = OpenOptions::new()
                .create(true)
                .append(true)
                .open(tmp.join(CACHE_FILE))
                .expect("legacy store");
            let line = serde_json::to_string(&entry).expect("ser");
            writeln!(f, "{line}").expect("write");
            writeln!(f, "{line}").expect("write dup");
            writeln!(f, "{{\"torn").expect("write torn");
        }
        let mut cache = SimCache::open(tmp.path()).expect("open migrates");
        assert_eq!(cache.stats().loaded, 2, "both parseable lines imported");
        assert!(cache.get(&key.id()).is_some());
        assert!(
            !tmp.join(CACHE_FILE).exists(),
            "legacy file renamed aside after migration"
        );
        drop(cache);
        // The migration happened once: a reopen loads from the pile.
        let mut again = SimCache::open(tmp.path()).expect("reopen");
        assert!(again.get(&key.id()).is_some());
        let (entries, _) = SimCache::inspect(tmp.path()).expect("inspect");
        assert_eq!(entries, 1);
    }

    #[test]
    fn export_import_round_trips_to_identical_lookups() {
        let tmp = TempCacheDir::new("cache-export");
        let (key, log) = sample();
        {
            let mut cache = SimCache::open(tmp.path()).expect("open");
            cache.insert(&key, log.clone());
        }
        let out = tmp.join("dump.jsonl");
        let exported = SimCache::export_store(tmp.path(), &out).expect("export");
        assert_eq!(exported, 1);
        let fresh = TempCacheDir::new("cache-import");
        let imported = SimCache::import_store(fresh.path(), &out).expect("import");
        assert_eq!(imported, 1);
        let mut cache = SimCache::open(fresh.path()).expect("open imported");
        let back = cache.get(&key.id()).expect("imported hit");
        assert_eq!(back.report.cycles, log.report.cycles);
    }

    #[test]
    fn clear_removes_the_store() {
        let tmp = TempCacheDir::new("cache-clear");
        let (key, log) = sample();
        {
            let mut cache = SimCache::open(tmp.path()).expect("open");
            cache.insert(&key, log);
        }
        assert!(SimCache::clear(tmp.path()).expect("clear"));
        assert!(
            !SimCache::clear(tmp.path()).expect("second clear"),
            "already gone"
        );
        assert_eq!(SimCache::inspect(tmp.path()).expect("inspect"), (0, 0));
    }
}
