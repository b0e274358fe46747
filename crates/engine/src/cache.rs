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
//! A record's payload is binary: a fixed header (the app tag, the four
//! [`CostReport`] fields as little-endian `u64`s, `energy_nj` by its
//! bits, and three 16-bit label lengths) followed by the combo, network
//! and params labels. A hit returns exactly the [`SimLog`] that was
//! stored. Any payload that does not decode — another format version's,
//! a damaged one — reads as a miss.
//!
//! JSON lines (one `{"v": …, "id": …, "log": …}` object per line) are the
//! interchange format of `ddtr cache export`/`import`. Import skips every
//! line of another [`CACHE_FORMAT_VERSION`], so an old export can never
//! replay stale results as current ones.

use crate::key::{app_from_tag, app_tag, is_key_id, CacheKey, CACHE_FORMAT_VERSION};
use crate::sim::SimLog;
use crate::store::{CompactReport, PileStore, StoreError, StoreStats, VerifyReport};
use ddtr_mem::CostReport;
use ddtr_obs::{names, Counter};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Bytes of a record payload's fixed header: the app tag, the four
/// [`CostReport`] fields and the three label lengths.
const RECORD_HEADER_LEN: usize = 1 + 4 * 8 + 3 * 2;

/// Encodes a log as a store payload: the fixed header, then the combo,
/// network and params labels. `None` when a label is longer than its
/// 16-bit length can say.
fn encode_log(log: &SimLog) -> Option<Vec<u8>> {
    let SimLog {
        app,
        combo,
        network,
        params,
        report,
    } = log;
    let CostReport {
        accesses,
        cycles,
        energy_nj,
        peak_footprint_bytes,
    } = *report;
    let labels = [combo, network, params];
    let mut out =
        Vec::with_capacity(RECORD_HEADER_LEN + labels.iter().map(|l| l.len()).sum::<usize>());
    out.push(app_tag(*app));
    for word in [accesses, cycles, energy_nj.to_bits(), peak_footprint_bytes] {
        out.extend_from_slice(&word.to_le_bytes());
    }
    for label in labels {
        out.extend_from_slice(&u16::try_from(label.len()).ok()?.to_le_bytes());
    }
    for label in labels {
        out.extend_from_slice(label.as_bytes());
    }
    Some(out)
}

/// Decodes a payload [`encode_log`] wrote. A payload of the wrong length
/// for its labels, an unknown app tag or a label that is not UTF-8 reads
/// as `None`.
fn decode_log(payload: &[u8]) -> Option<SimLog> {
    let (header, labels) = payload.split_at_checked(RECORD_HEADER_LEN)?;
    let (&tag, header) = header.split_first()?;
    let (words, lens) = header.split_at_checked(4 * 8)?;
    let word = |i: usize| -> Option<u64> {
        Some(u64::from_le_bytes(
            words.get(8 * i..8 * i + 8)?.try_into().ok()?,
        ))
    };
    let len = |i: usize| -> Option<usize> {
        Some(usize::from(u16::from_le_bytes(
            lens.get(2 * i..2 * i + 2)?.try_into().ok()?,
        )))
    };
    let (combo, rest) = labels.split_at_checked(len(0)?)?;
    let (network, params) = rest.split_at_checked(len(1)?)?;
    if params.len() != len(2)? {
        return None;
    }
    let text = |bytes: &[u8]| String::from_utf8(bytes.to_vec()).ok();
    Some(SimLog {
        app: app_from_tag(tag)?,
        combo: text(combo)?,
        network: text(network)?,
        params: text(params)?,
        report: CostReport {
            accesses: word(0)?,
            cycles: word(1)?,
            energy_nj: f64::from_bits(word(2)?),
            peak_footprint_bytes: word(3)?,
        },
    })
}

/// One interchange line of `ddtr cache export`/`import`.
#[derive(Debug, Serialize, Deserialize)]
struct ExportLine {
    /// The [`CACHE_FORMAT_VERSION`] the line was written under; lines of
    /// any other version, or with none, are skipped on import.
    v: Option<u32>,
    /// The entry's [`CacheKey::id`].
    id: String,
    /// The cached simulation log.
    log: SimLog,
}

/// What [`SimCache::import_store`] did with an interchange file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImportReport {
    /// Lines appended to the store.
    pub imported: usize,
    /// Non-blank lines left out: another format version, no version, or
    /// not an entry at all.
    pub skipped: usize,
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

/// The `engine.cache.*` counters a cache records into, resolved once
/// when it is built.
#[derive(Debug)]
struct Counters {
    hit: Arc<Counter>,
    miss: Arc<Counter>,
    store: Arc<Counter>,
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
    counters: Counters,
}

impl SimCache {
    fn with_backend(backend: Backend, dir: Option<PathBuf>, loaded: usize) -> Self {
        SimCache {
            map: HashMap::new(),
            backend,
            dir,
            hits: 0,
            misses: 0,
            loaded,
            counters: Counters {
                hit: ddtr_obs::counter(names::ENGINE_CACHE_HIT),
                miss: ddtr_obs::counter(names::ENGINE_CACHE_MISS),
                store: ddtr_obs::counter(names::ENGINE_CACHE_STORE),
            },
        }
    }

    /// A purely in-memory cache (no persistence).
    #[must_use]
    pub fn in_memory() -> Self {
        Self::with_backend(Backend::Memory, None, 0)
    }

    /// Opens (creating if needed) the pile store under `dir`. This is
    /// O(1) in the number of cached results: only segment headers are
    /// read; records are verified lazily on lookup.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created or the
    /// store cannot be opened. Damaged segments or records are
    /// quarantined at read time, never fatal.
    pub fn open(dir: &Path) -> io::Result<Self> {
        let store = PileStore::open(dir).map_err(store_to_io)?;
        let loaded = usize::try_from(store.committed_at_open()).unwrap_or(usize::MAX);
        ddtr_obs::counter(names::ENGINE_CACHE_LOAD).add(loaded as u64);
        Ok(Self::with_backend(
            Backend::Pile(Box::new(store)),
            Some(dir.to_path_buf()),
            loaded,
        ))
    }

    /// The cache directory, when persistence is attached.
    #[must_use]
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Looks up a result by key identity, counting a hit when present.
    /// Store-backed entries are read and verified on demand; a damaged
    /// record, or one of another format version, reads as a miss, never
    /// a panic.
    pub fn get(&mut self, id: &str) -> Option<SimLog> {
        let log = match self.map.get(id) {
            Some(log) => log.clone(),
            None => {
                let Backend::Pile(store) = &mut self.backend else {
                    return None;
                };
                // An I/O failure on the read path degrades to a miss: the
                // engine re-executes and the run stays correct.
                let log = decode_log(&store.get(id.as_bytes()).ok()??)?;
                self.map.insert(id.to_owned(), log.clone());
                log
            }
        };
        self.hits += 1;
        self.counters.hit.inc();
        Some(log)
    }

    /// Counts an executed simulation whose result is *not* retained — used
    /// when caching is disabled, so the miss accounting stays truthful.
    pub fn note_miss(&mut self) {
        self.misses += 1;
        self.counters.miss.inc();
    }

    /// Records one executed simulation, appending it to the pile store
    /// when one is attached. Persistence failures degrade to in-memory
    /// caching (the run's results stay correct either way).
    pub fn insert(&mut self, key: &CacheKey, log: SimLog) {
        self.note_miss();
        let id = key.id();
        if let Backend::Pile(store) = &mut self.backend {
            if let Some(payload) = encode_log(&log) {
                if store.append(id.as_bytes(), &payload).is_ok() {
                    self.counters.store.inc();
                }
            }
        }
        self.map.insert(id, log);
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
    /// when no store exists yet.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if an existing store cannot be read.
    pub fn inspect(dir: &Path) -> io::Result<(usize, u64)> {
        if !PileStore::exists(dir) {
            return Ok((0, 0));
        }
        let stats = Self::store_stats(dir)?;
        Ok((
            usize::try_from(stats.distinct).unwrap_or(usize::MAX),
            stats.bytes,
        ))
    }

    /// Deletes the on-disk store under `dir` — pile segments and index
    /// sidecars; the directory itself is kept. Returns whether a store
    /// existed.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the store exists but cannot be removed.
    pub fn clear(dir: &Path) -> io::Result<bool> {
        PileStore::clear_dir(dir)
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

    /// Exports the store under `dir` to `out` as JSON lines
    /// (`{"v":2,"id":…,"log":…}`, the interchange format), newest version
    /// of each entry, id-sorted. Records this build cannot decode — those
    /// of another format version among them — are left out. Returns the
    /// number of lines written.
    ///
    /// # Errors
    ///
    /// Propagates store-read and file-write I/O errors.
    pub fn export_store(dir: &Path, out: &Path) -> io::Result<usize> {
        let mut store = PileStore::open(dir).map_err(store_to_io)?;
        let mut file = BufWriter::new(File::create(out)?);
        let mut written = 0;
        let mut outcome = Ok(());
        store
            .for_each_latest(|key, payload| {
                if outcome.is_err() {
                    return;
                }
                let id = std::str::from_utf8(key).ok().filter(|id| is_key_id(id));
                let (Some(id), Some(log)) = (id, decode_log(payload)) else {
                    return;
                };
                let line = ExportLine {
                    v: Some(CACHE_FORMAT_VERSION),
                    id: id.to_owned(),
                    log,
                };
                outcome = serde_json::to_string(&line)
                    .map_err(io::Error::other)
                    .and_then(|line| writeln!(file, "{line}"));
                written += 1;
            })
            .map_err(store_to_io)?;
        outcome?;
        file.flush()?;
        Ok(written)
    }

    /// Imports JSON lines from `input` into the store under `dir`, each
    /// keyed by its `id`. A line whose `v` is missing or differs from
    /// [`CACHE_FORMAT_VERSION`], or that is not an entry at all, is
    /// skipped and counted.
    ///
    /// # Errors
    ///
    /// Propagates file-read and store-append I/O errors.
    pub fn import_store(dir: &Path, input: &Path) -> io::Result<ImportReport> {
        let mut store = PileStore::open(dir).map_err(store_to_io)?;
        let mut report = ImportReport::default();
        for line in BufReader::new(File::open(input)?).lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let entry = serde_json::from_str::<ExportLine>(&line)
                .ok()
                .filter(|e| e.v == Some(CACHE_FORMAT_VERSION) && is_key_id(&e.id))
                .and_then(|e| Some((encode_log(&e.log)?, e.id)));
            let Some((payload, id)) = entry else {
                report.skipped += 1;
                continue;
            };
            store.append(id.as_bytes(), &payload).map_err(store_to_io)?;
            report.imported += 1;
        }
        store.flush()?;
        Ok(report)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::fingerprint_trace;
    use crate::testing::TempCacheDir;
    use ddtr_apps::{AppKind, AppParams};
    use ddtr_ddt::DdtKind;
    use ddtr_mem::MemoryConfig;
    use ddtr_trace::NetworkPreset;

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

    /// Bit-exact equality of two logs, labels and energy bits included.
    fn same_log(a: &SimLog, b: &SimLog) -> bool {
        serde_json::to_string(a).ok() == serde_json::to_string(b).ok()
            && a.report.energy_nj.to_bits() == b.report.energy_nj.to_bits()
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
        assert!(same_log(&back, &log), "{back:?} != {log:?}");
        let stats = reopened.stats();
        assert_eq!((stats.hits, stats.entries), (1, 1), "faulted in on demand");
    }

    #[test]
    fn record_payload_is_small_and_round_trips_bit_exact() {
        let (_, mut log) = sample();
        let payload = encode_log(&log).expect("encodes");
        assert_eq!(
            payload.len(),
            RECORD_HEADER_LEN + log.combo.len() + log.network.len() + log.params.len()
        );
        assert!(same_log(&decode_log(&payload).expect("decodes"), &log));
        // Energy travels by its bits, whatever they are.
        log.report.energy_nj = -0.0;
        let back = decode_log(&encode_log(&log).expect("encodes")).expect("decodes");
        assert_eq!(back.report.energy_nj.to_bits(), (-0.0f64).to_bits());
        // A label too long for its 16-bit length is not persisted.
        log.network = "n".repeat(usize::from(u16::MAX) + 1);
        assert!(encode_log(&log).is_none());
    }

    #[test]
    fn truncated_overlong_and_non_utf8_payloads_read_as_misses() {
        let (key, log) = sample();
        let good = encode_log(&log).expect("encodes");
        let mut bad: Vec<(&str, Vec<u8>)> = Vec::new();
        for cut in [
            0,
            1,
            RECORD_HEADER_LEN - 1,
            RECORD_HEADER_LEN,
            good.len() - 1,
        ] {
            bad.push(("truncated", good[..cut].to_vec()));
        }
        let mut long = good.clone();
        long.push(b'x');
        bad.push(("over-long", long));
        let mut not_utf8 = good.clone();
        not_utf8[RECORD_HEADER_LEN] = 0xff;
        bad.push(("non-UTF-8", not_utf8));
        let mut unknown_app = good.clone();
        unknown_app[0] = 0xee;
        bad.push(("unknown app", unknown_app));
        let mut huge_len = good.clone();
        huge_len[RECORD_HEADER_LEN - 6..RECORD_HEADER_LEN - 4].copy_from_slice(&[0xff, 0xff]);
        bad.push(("label past the end", huge_len));
        bad.push((
            "format-1 JSON",
            serde_json::to_string(&log).expect("ser").into_bytes(),
        ));
        for (what, payload) in &bad {
            assert!(decode_log(payload).is_none(), "{what} decoded");
        }
        // Through the store: each bad payload sits under the key's id and
        // reads as a miss, then the good record is found.
        let tmp = TempCacheDir::new("cache-bad-payload");
        let id = key.id();
        for (what, payload) in &bad {
            {
                let mut store = PileStore::open(tmp.path()).expect("open store");
                store.append(id.as_bytes(), payload).expect("append");
            }
            let mut cache = SimCache::open(tmp.path()).expect("open");
            assert!(cache.get(&id).is_none(), "{what} must read as a miss");
            assert_eq!(cache.stats().hits, 0);
        }
        let mut cache = SimCache::open(tmp.path()).expect("open");
        cache.insert(&key, log.clone());
        drop(cache);
        let mut cache = SimCache::open(tmp.path()).expect("reopen");
        assert!(same_log(&cache.get(&id).expect("good record"), &log));
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
        let text = std::fs::read_to_string(&out).expect("read export");
        assert!(
            text.starts_with(&format!("{{\"v\":2,\"id\":\"{}\",\"log\":{{", key.id())),
            "{text}"
        );
        let fresh = TempCacheDir::new("cache-import");
        let report = SimCache::import_store(fresh.path(), &out).expect("import");
        assert_eq!(
            report,
            ImportReport {
                imported: 1,
                skipped: 0
            }
        );
        let mut cache = SimCache::open(fresh.path()).expect("open imported");
        let back = cache.get(&key.id()).expect("imported hit");
        assert!(same_log(&back, &log));
    }

    #[test]
    fn import_skips_and_counts_lines_of_other_versions() {
        let tmp = TempCacheDir::new("cache-import-versions");
        let (key, log) = sample();
        let id = key.id();
        let log_json = serde_json::to_string(&log).expect("ser");
        let mut stale = log.clone();
        stale.report.cycles += 1;
        let stale_json = serde_json::to_string(&stale).expect("ser");
        let dump = tmp.join("mixed.jsonl");
        let lines = [
            // Older versions and unversioned lines carry stale numbers.
            format!("{{\"v\":1,\"id\":\"{id}\",\"log\":{stale_json}}}"),
            format!("{{\"id\":\"{id}\",\"log\":{stale_json}}}"),
            format!("{{\"v\":3,\"id\":\"{id}\",\"log\":{stale_json}}}"),
            // A format-1 line had no `v` and no `id` at all.
            format!("{{\"key\":{{\"app\":\"Drr\"}},\"log\":{stale_json}}}"),
            format!("{{\"v\":2,\"id\":\"v1:DRR:AR+DLL\",\"log\":{stale_json}}}"),
            "{\"torn".to_string(),
            String::new(),
            format!("{{\"v\":2,\"id\":\"{id}\",\"log\":{log_json}}}"),
        ];
        std::fs::write(&dump, lines.join("\n")).expect("write dump");
        let report = SimCache::import_store(tmp.path(), &dump).expect("import");
        assert_eq!(
            report,
            ImportReport {
                imported: 1,
                skipped: 6
            }
        );
        let mut cache = SimCache::open(tmp.path()).expect("open");
        assert_eq!(cache.stats().loaded, 1, "only the current line landed");
        let back = cache.get(&id).expect("current line hits");
        assert!(same_log(&back, &log), "no stale line replays");
    }

    #[test]
    fn a_format_1_store_goes_cold_and_exports_nothing() {
        let tmp = TempCacheDir::new("cache-format-1");
        let (key, log) = sample();
        {
            // A format-1 record: a `v1:` string key and a JSON payload.
            let mut store = PileStore::open(tmp.path()).expect("open store");
            let old_id = format!("v1:DRR:{}:BWY-I:q1500:0:0:0", log.combo);
            let payload = serde_json::to_string(&log).expect("ser").into_bytes();
            store.append(old_id.as_bytes(), &payload).expect("append");
        }
        let mut cache = SimCache::open(tmp.path()).expect("open");
        assert!(cache.get(&key.id()).is_none(), "no v2 lookup matches it");
        let out = tmp.join("dump.jsonl");
        assert_eq!(SimCache::export_store(tmp.path(), &out).expect("export"), 0);
        assert_eq!(std::fs::read_to_string(&out).expect("read"), "");
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
