//! [`PileStore`]: the directory-level store — segment discovery, the
//! lazy fingerprint index, verified lookups, appends, verify and
//! compaction.

use super::format::{encode_record, IdxEntry, Record, PAGE, REC_HEADER_LEN};
use super::segment::{
    file_name_of, idx_path_of, load_index, SegmentReader, SegmentWriter, SEG_EXT,
};
use super::{CorruptKind, StoreError, StoreIssue};
use crate::key::fnv1a64;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Newest payload per key, sorted — the shape compaction and export
/// walk.
type LatestByKey = BTreeMap<Vec<u8>, Vec<u8>>;

/// Appends per automatic publish: the batch size of the fsync-then-
/// publish protocol. Unpublished records are still readable on the same
/// machine (tail salvage); publishing bounds what a crash can lose.
const PUBLISH_EVERY: u64 = 64;

/// Default segment rollover size (record-region bytes).
const DEFAULT_MAX_SEGMENT_BYTES: u64 = 256 * 1024 * 1024;

/// Process-wide creation counter feeding writer nonces.
static NONCE_COUNTER: AtomicU64 = AtomicU64::new(0);

fn fresh_nonce() -> u64 {
    let clock = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ (d.as_secs() << 32))
        .unwrap_or(0);
    let count = NONCE_COUNTER.fetch_add(1, Ordering::Relaxed);
    clock ^ (u64::from(std::process::id()) << 16) ^ count.rotate_left(48) | 1
}

/// Where one record lives.
#[derive(Debug, Clone, Copy)]
struct Loc {
    seg: usize,
    offset: u64,
}

/// The records of one key fingerprint, in discovery order. Almost every
/// fingerprint has one record, held inline; a second spills them all to
/// a `Vec`.
enum Locs {
    One(Loc),
    Many(Vec<Loc>),
}

impl Locs {
    fn as_slice(&self) -> &[Loc] {
        match self {
            Locs::One(loc) => std::slice::from_ref(loc),
            Locs::Many(locs) => locs,
        }
    }

    fn remove(&mut self, i: usize) {
        match self {
            Locs::One(_) => *self = Locs::Many(Vec::new()),
            Locs::Many(locs) => {
                locs.remove(i);
            }
        }
    }
}

/// The lazily built in-memory index: key fingerprint → record locations
/// in discovery order (lookups walk candidates newest-first; the map is
/// only ever *probed*, never iterated, so hash order cannot leak into
/// results).
struct Index {
    map: HashMap<u64, Locs>,
    records: u64,
}

impl Index {
    fn push(&mut self, fp: u64, loc: Loc) {
        match self.map.entry(fp) {
            Entry::Occupied(mut e) => match e.get_mut() {
                Locs::One(first) => {
                    let first = *first;
                    e.insert(Locs::Many(vec![first, loc]));
                }
                Locs::Many(locs) => locs.push(loc),
            },
            Entry::Vacant(e) => {
                e.insert(Locs::One(loc));
            }
        }
        self.records += 1;
    }
}

/// One discovered segment file. A segment whose header failed
/// verification is kept as a quarantined slot (`reader: None`) so
/// verify/compact/clear still account for it.
struct Slot {
    path: PathBuf,
    reader: Option<SegmentReader>,
}

struct ActiveWriter {
    slot: usize,
    writer: SegmentWriter,
}

/// Per-segment result of a full [`PileStore::verify`] walk.
#[derive(Debug, Clone)]
pub struct SegmentReport {
    /// Segment file name.
    pub name: String,
    /// Generation counter from the header (0 when the header itself is
    /// quarantined).
    pub generation: u64,
    /// Record count the header publishes.
    pub committed_records: u64,
    /// Records that fully verified (including salvageable unpublished
    /// tail records).
    pub records_ok: u64,
    /// Bytes of the record region present on disk.
    pub data_bytes: u64,
    /// Every corruption found in this segment (empty when clean).
    pub issues: Vec<StoreIssue>,
}

/// Result of a full store verification walk.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Per-segment findings, in segment order.
    pub segments: Vec<SegmentReport>,
}

impl VerifyReport {
    /// Total records that verified across all segments.
    #[must_use]
    pub fn records_ok(&self) -> u64 {
        self.segments.iter().map(|s| s.records_ok).sum()
    }

    /// Total corruption findings across all segments.
    #[must_use]
    pub fn issue_count(&self) -> usize {
        self.segments.iter().map(|s| s.issues.len()).sum()
    }

    /// Whether the walk found no corruption at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.issue_count() == 0
    }
}

/// Result of a [`PileStore::compact`].
#[derive(Debug, Clone, Copy)]
pub struct CompactReport {
    /// Records read from the old segments (duplicates included).
    pub records_in: u64,
    /// Distinct records written to the fresh segment.
    pub records_out: u64,
    /// Segment files removed.
    pub segments_removed: usize,
    /// The new generation counter.
    pub generation: u64,
}

/// Summary counters for `ddtr cache stats`.
#[derive(Debug, Clone, Copy)]
pub struct StoreStats {
    /// Segment files present.
    pub segments: usize,
    /// Records reachable (duplicates included).
    pub records: u64,
    /// Distinct key fingerprints.
    pub distinct: u64,
    /// Total on-disk bytes (segments plus index sidecars).
    pub bytes: u64,
    /// Highest generation counter among the segments.
    pub generation: u64,
    /// Corruption findings recorded so far on this handle.
    pub issues: usize,
}

/// The directory-level pile store. See the [module docs](super) for the
/// format and protocol; the short version: O(1) open (headers only),
/// verify-on-read lookups, crash-safe batched publishing, one
/// exclusively owned segment per writing process.
pub struct PileStore {
    dir: PathBuf,
    slots: Vec<Slot>,
    writer: Option<ActiveWriter>,
    index: Option<Index>,
    issues: Vec<StoreIssue>,
    generation: u64,
    next_seq: u32,
    committed_at_open: u64,
    appended: u64,
    unpublished: u64,
    max_segment_bytes: u64,
}

impl PileStore {
    /// Opens (creating if needed) the store under `dir`. Reads one
    /// header page per segment and nothing else — open cost is
    /// independent of record count. Segments with damaged headers are
    /// quarantined (recorded in [`PileStore::issues`]), never fatal.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created or
    /// listed, or a segment file cannot be opened at all.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir)?;
        let mut names: Vec<String> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("seg-") && name.ends_with(&format!(".{SEG_EXT}")) {
                names.push(name);
            }
        }
        names.sort();
        let mut slots = Vec::with_capacity(names.len());
        let mut issues = Vec::new();
        let mut generation = 0;
        let mut next_seq = 0;
        let mut committed = 0;
        for name in &names {
            let path = dir.join(name);
            next_seq = next_seq.max(parse_seq(name).map_or(0, |s| s.saturating_add(1)));
            match SegmentReader::open(&path) {
                Ok(reader) => {
                    generation = generation.max(reader.header.generation);
                    committed += reader.header.committed_records;
                    slots.push(Slot {
                        path,
                        reader: Some(reader),
                    });
                }
                Err(StoreError::Corrupt {
                    segment,
                    offset,
                    kind,
                }) => {
                    issues.push(StoreIssue {
                        segment,
                        offset,
                        kind,
                    });
                    ddtr_obs::counter(ddtr_obs::names::ENGINE_STORE_CORRUPT).inc();
                    slots.push(Slot { path, reader: None });
                }
                Err(StoreError::Io(err)) => return Err(StoreError::Io(err)),
            }
        }
        Ok(PileStore {
            dir: dir.to_path_buf(),
            slots,
            writer: None,
            index: None,
            issues,
            generation,
            next_seq,
            committed_at_open: committed,
            appended: 0,
            unpublished: 0,
            max_segment_bytes: DEFAULT_MAX_SEGMENT_BYTES,
        })
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records published across all segments when this handle opened
    /// (unpublished tail records surface later, via the lazy index).
    #[must_use]
    pub fn committed_at_open(&self) -> u64 {
        self.committed_at_open
    }

    /// Records appended through this handle.
    #[must_use]
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Number of segment files (quarantined ones included).
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.slots.len()
    }

    /// The store's current generation counter (bumped by compaction).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Every corruption this handle has detected and survived so far.
    #[must_use]
    pub fn issues(&self) -> &[StoreIssue] {
        &self.issues
    }

    /// Overrides the segment rollover size (tests force tiny segments).
    pub fn set_max_segment_bytes(&mut self, bytes: u64) {
        self.max_segment_bytes = bytes.max(1);
    }

    /// Looks up the newest record for `key`, fully verifying it before
    /// returning the payload. Corrupt candidates are quarantined
    /// (recorded in [`PileStore::issues`], dropped from the index) and
    /// the lookup falls through — a damaged entry reads as a miss, never
    /// a panic or a wrong answer.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] only — corruption is never an error here.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        self.ensure_index()?;
        let fp = fnv1a64(key);
        let PileStore {
            index,
            slots,
            issues,
            ..
        } = self;
        let Some(locs) = index.as_mut().and_then(|i| i.map.get_mut(&fp)) else {
            return Ok(None);
        };
        let mut i = locs.as_slice().len();
        while i > 0 {
            i -= 1;
            let Some(loc) = locs.as_slice().get(i).copied() else {
                break;
            };
            let Some(reader) = slots.get(loc.seg).and_then(|s| s.reader.as_ref()) else {
                locs.remove(i);
                continue;
            };
            match reader.read_record(loc.offset) {
                Ok(rec) if rec.key == key => return Ok(Some(rec.payload)),
                Ok(_) => {} // fingerprint collision — keep probing
                Err(StoreError::Corrupt {
                    segment,
                    offset,
                    kind,
                }) => {
                    locs.remove(i);
                    issues.push(StoreIssue {
                        segment,
                        offset,
                        kind,
                    });
                    ddtr_obs::counter(ddtr_obs::names::ENGINE_STORE_CORRUPT).inc();
                }
                Err(StoreError::Io(err)) => return Err(StoreError::Io(err)),
            }
        }
        Ok(None)
    }

    /// Appends one record through this handle's exclusively owned
    /// segment (created on first use — read-only stores never litter).
    /// The bytes are written immediately; durability publishing is
    /// batched (every 64 appends, on [`PileStore::flush`] and on drop).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the segment cannot be created or written.
    pub fn append(&mut self, key: &[u8], payload: &[u8]) -> Result<(), StoreError> {
        let record = encode_record(key, payload);
        self.ensure_writer()?;
        let fp = fnv1a64(key);
        let Some(active) = self.writer.as_mut() else {
            return Err(StoreError::Io(io::Error::other(
                "writer vanished during append",
            )));
        };
        let offset = active.writer.append(&record, fp).map_err(StoreError::Io)?;
        let seg = active.slot;
        let full = active.writer.data_len() >= self.max_segment_bytes;
        if let Some(index) = self.index.as_mut() {
            index.push(fp, Loc { seg, offset });
        }
        self.appended += 1;
        self.unpublished += 1;
        if self.unpublished >= PUBLISH_EVERY || full {
            self.flush().map_err(StoreError::Io)?;
        }
        if full {
            // Roll over: the next append starts a fresh segment.
            self.writer = None;
        }
        Ok(())
    }

    /// Publishes everything appended so far (fsync, then header update,
    /// then fsync — see [`SegmentWriter::publish`]).
    ///
    /// # Errors
    ///
    /// Propagates the publish I/O error; already-published state stays
    /// valid.
    pub fn flush(&mut self) -> io::Result<()> {
        if let Some(active) = self.writer.as_mut() {
            active.writer.publish()?;
        }
        self.unpublished = 0;
        Ok(())
    }

    /// Number of distinct key fingerprints reachable (builds the index).
    ///
    /// # Errors
    ///
    /// Propagates index-build I/O errors.
    pub fn distinct_keys(&mut self) -> Result<u64, StoreError> {
        self.ensure_index()?;
        Ok(self.index.as_ref().map_or(0, |i| i.map.len() as u64))
    }

    /// Total records reachable, duplicates included (builds the index).
    ///
    /// # Errors
    ///
    /// Propagates index-build I/O errors.
    pub fn reachable_records(&mut self) -> Result<u64, StoreError> {
        self.ensure_index()?;
        Ok(self.index.as_ref().map_or(0, |i| i.records))
    }

    /// Summary counters for `ddtr cache stats` (builds the index).
    ///
    /// # Errors
    ///
    /// Propagates index-build or metadata I/O errors.
    pub fn stats(&mut self) -> Result<StoreStats, StoreError> {
        self.ensure_index()?;
        let mut bytes = 0;
        for slot in &self.slots {
            bytes += std::fs::metadata(&slot.path).map(|m| m.len()).unwrap_or(0);
            bytes += std::fs::metadata(idx_path_of(&slot.path))
                .map(|m| m.len())
                .unwrap_or(0);
        }
        Ok(StoreStats {
            segments: self.slots.len(),
            records: self.index.as_ref().map_or(0, |i| i.records),
            distinct: self.index.as_ref().map_or(0, |i| i.map.len() as u64),
            bytes,
            generation: self.generation,
            issues: self.issues.len(),
        })
    }

    /// Visits the newest payload of every distinct key, in ascending key
    /// order (deterministic — the walk is segment-by-segment and the
    /// dedup map is ordered). The walk is a full verified scan, so it
    /// also recovers records a damaged index would hide.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; corruption is skipped and recorded.
    pub fn for_each_latest(
        &mut self,
        mut visit: impl FnMut(&[u8], &[u8]),
    ) -> Result<(), StoreError> {
        let (latest, _raw) = self.collect_latest()?;
        for (key, payload) in &latest {
            visit(key, payload);
        }
        Ok(())
    }

    /// Full verified walk of every segment — headers, every committed
    /// record, and the unpublished tail. Nothing is mutated; every
    /// finding is reported, none served.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors only; corruption lands in the report.
    pub fn verify(&self) -> Result<VerifyReport, StoreError> {
        let mut segments = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let name = file_name_of(&slot.path);
            // Re-open fresh: verify must see current headers, not the
            // snapshot this handle took at open time.
            match SegmentReader::open(&slot.path) {
                Ok(reader) => {
                    let mut issues = Vec::new();
                    let mut ok = 0;
                    full_walk(&reader, &slot.path, &mut issues, |_, _| ok += 1)?;
                    segments.push(SegmentReport {
                        name,
                        generation: reader.header.generation,
                        committed_records: reader.header.committed_records,
                        records_ok: ok,
                        data_bytes: reader.data_len().map_err(StoreError::Io)?,
                        issues,
                    });
                }
                Err(StoreError::Corrupt {
                    segment,
                    offset,
                    kind,
                }) => {
                    let data_bytes = std::fs::metadata(&slot.path)
                        .map(|m| m.len().saturating_sub(PAGE))
                        .unwrap_or(0);
                    segments.push(SegmentReport {
                        name,
                        generation: 0,
                        committed_records: 0,
                        records_ok: 0,
                        data_bytes,
                        issues: vec![StoreIssue {
                            segment,
                            offset,
                            kind,
                        }],
                    });
                }
                Err(StoreError::Io(err)) => return Err(StoreError::Io(err)),
            }
        }
        Ok(VerifyReport { segments })
    }

    /// Rewrites the store: every reachable record's newest version goes
    /// into one fresh segment under a bumped generation counter, then
    /// the old segments (including quarantined and damaged ones) are
    /// deleted. Run this while no other process is appending.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the rewrite fails — the old segments are
    /// only deleted after the new one is fully published.
    pub fn compact(&mut self) -> Result<CompactReport, StoreError> {
        let (latest, raw) = self.collect_latest()?;
        // Seal the current writer and remember every old file.
        self.flush().map_err(StoreError::Io)?;
        self.writer = None;
        let old_paths: Vec<PathBuf> = self.slots.iter().map(|s| s.path.clone()).collect();
        let removed = old_paths.len();
        self.slots.clear();
        self.index = None;
        self.generation = self.generation.saturating_add(1);
        let records_out = latest.len() as u64;
        for (key, payload) in &latest {
            self.append(key, payload)?;
        }
        self.flush().map_err(StoreError::Io)?;
        // The fresh segment is durable; the old files can go. The new
        // writer's slot was appended after the clear, so old_paths holds
        // exactly the pre-compact files.
        for path in &old_paths {
            let _ = std::fs::remove_file(path);
            let _ = std::fs::remove_file(idx_path_of(path));
        }
        // Positions shifted: rebuild the index lazily against the new
        // slot layout.
        self.index = None;
        if let Some(active) = self.writer.as_mut() {
            active.slot = 0;
        }
        Ok(CompactReport {
            records_in: raw,
            records_out,
            segments_removed: removed,
            generation: self.generation,
        })
    }

    /// Removes every store file under `dir` (segments, index sidecars).
    /// Returns whether anything existed. The directory itself is kept.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing or removal I/O errors.
    pub fn clear_dir(dir: &Path) -> io::Result<bool> {
        if !dir.exists() {
            return Ok(false);
        }
        let mut removed = false;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let is_store_file = name.starts_with("seg-")
                && (name.ends_with(&format!(".{SEG_EXT}")) || name.ends_with(".idx"));
            if is_store_file {
                std::fs::remove_file(entry.path())?;
                removed = true;
            }
        }
        Ok(removed)
    }

    /// Whether `dir` contains any store segment.
    #[must_use]
    pub fn exists(dir: &Path) -> bool {
        std::fs::read_dir(dir).is_ok_and(|entries| {
            entries.flatten().any(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                name.starts_with("seg-") && name.ends_with(&format!(".{SEG_EXT}"))
            })
        })
    }

    /// Builds the newest-payload-per-key map via a full verified scan,
    /// returning it plus the raw (duplicate-inclusive) record count.
    fn collect_latest(&mut self) -> Result<(LatestByKey, u64), StoreError> {
        // Make sure this handle's own unindexed appends are on disk.
        self.flush().map_err(StoreError::Io)?;
        let mut latest = BTreeMap::new();
        let mut raw = 0;
        let mut issues = Vec::new();
        for slot in &self.slots {
            let Some(reader) = &slot.reader else { continue };
            full_walk(reader, &slot.path, &mut issues, |_, rec| {
                latest.insert(rec.key.clone(), rec.payload.clone());
                raw += 1;
            })?;
        }
        self.note_issues(issues);
        Ok((latest, raw))
    }

    fn ensure_index(&mut self) -> Result<(), StoreError> {
        if self.index.is_some() {
            return Ok(());
        }
        // Load every sidecar first, so that the map is sized once for
        // the records they list. Each segment's sidecar issues are kept
        // apart and reported before that segment's other issues.
        let sidecars: Vec<(Vec<IdxEntry>, Vec<StoreIssue>)> = self
            .slots
            .iter()
            .map(|slot| {
                let mut issues = Vec::new();
                let entries = match &slot.reader {
                    Some(reader) => load_index(&slot.path, &reader.header, &mut issues),
                    None => Vec::new(),
                };
                (entries, issues)
            })
            .collect();
        let listed = sidecars.iter().map(|(entries, _)| entries.len()).sum();
        let mut index = Index {
            map: HashMap::with_capacity(listed),
            records: 0,
        };
        let mut issues = Vec::new();
        for (seg, (slot, (entries, sidecar_issues))) in self.slots.iter().zip(sidecars).enumerate()
        {
            let Some(reader) = &slot.reader else { continue };
            issues.extend(sidecar_issues);
            let data_len = reader.data_len().map_err(StoreError::Io)?;
            let mut covered = 0u64;
            for entry in &entries {
                let end = entry.offset.saturating_add(u64::from(entry.len));
                if end <= data_len && entry.len as usize >= REC_HEADER_LEN {
                    index.push(
                        entry.key_fp,
                        Loc {
                            seg,
                            offset: entry.offset,
                        },
                    );
                    covered = covered.max(end);
                } else {
                    issues.push(StoreIssue {
                        segment: file_name_of(&slot.path),
                        offset: entry.offset,
                        kind: CorruptKind::BadLength {
                            klen: 0,
                            vlen: entry.len,
                        },
                    });
                }
            }
            // Records the sidecar does not cover yet: the unpublished
            // tail, or everything when the sidecar was unusable.
            reader
                .scan(covered, &mut issues, |offset, rec| {
                    index.push(fnv1a64(&rec.key), Loc { seg, offset });
                })
                .map_err(StoreError::Io)?;
        }
        self.note_issues(issues);
        self.index = Some(index);
        Ok(())
    }

    fn ensure_writer(&mut self) -> Result<(), StoreError> {
        if self.writer.is_some() {
            return Ok(());
        }
        for _ in 0..64 {
            let seq = self.next_seq;
            let nonce = fresh_nonce();
            let name = format!("seg-{seq:05}-{nonce:016x}.{SEG_EXT}");
            let path = self.dir.join(&name);
            match SegmentWriter::create(&path, self.generation, nonce) {
                Ok(writer) => {
                    self.next_seq = seq.saturating_add(1);
                    let reader = SegmentReader::open(&path)?;
                    self.slots.push(Slot {
                        path,
                        reader: Some(reader),
                    });
                    self.writer = Some(ActiveWriter {
                        slot: self.slots.len() - 1,
                        writer,
                    });
                    return Ok(());
                }
                Err(err) if err.kind() == io::ErrorKind::AlreadyExists => {
                    self.next_seq = self.next_seq.saturating_add(1);
                }
                Err(err) => return Err(StoreError::Io(err)),
            }
        }
        Err(StoreError::Io(io::Error::other(
            "could not create a fresh segment after 64 attempts",
        )))
    }

    fn note_issues(&mut self, new: Vec<StoreIssue>) {
        if !new.is_empty() {
            ddtr_obs::counter(ddtr_obs::names::ENGINE_STORE_CORRUPT).add(new.len() as u64);
            self.issues.extend(new);
        }
    }
}

impl Drop for PileStore {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

impl std::fmt::Debug for PileStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PileStore")
            .field("dir", &self.dir)
            .field("segments", &self.slots.len())
            .field("generation", &self.generation)
            .field("appended", &self.appended)
            .field("issues", &self.issues.len())
            .finish()
    }
}

/// Parses the sequence number out of `seg-NNNNN-<nonce>.ddts`.
fn parse_seq(name: &str) -> Option<u32> {
    name.strip_prefix("seg-")?.get(0..5)?.parse().ok()
}

/// Visits every verifiable record of one segment, using the
/// self-checksummed index sidecar to resync across records whose
/// *headers* are stomped (a raw scan cannot find the next boundary
/// there). Falls back to a plain scan where the sidecar stops helping,
/// so a store with no usable index is still fully walkable.
fn full_walk(
    reader: &SegmentReader,
    seg_path: &Path,
    issues: &mut Vec<StoreIssue>,
    mut visit: impl FnMut(u64, &Record),
) -> Result<u64, StoreError> {
    let entries = load_index(seg_path, &reader.header, issues);
    let data_len = reader.data_len().map_err(StoreError::Io)?;
    let mut at = 0u64;
    for entry in &entries {
        // The sidecar is contiguous by construction; a gap or an
        // implausible entry means it stopped being trustworthy here.
        let end = entry.offset.saturating_add(u64::from(entry.len));
        if entry.offset != at || end > data_len || (entry.len as usize) < REC_HEADER_LEN {
            break;
        }
        match reader.read_record(entry.offset) {
            Ok(rec) => visit(entry.offset, &rec),
            Err(StoreError::Corrupt {
                segment,
                offset,
                kind,
            }) => issues.push(StoreIssue {
                segment,
                offset,
                kind,
            }),
            Err(StoreError::Io(err)) => return Err(StoreError::Io(err)),
        }
        at = end;
    }
    // The unindexed tail — or the whole segment when no sidecar helped.
    reader
        .scan(at, issues, |offset, rec| visit(offset, rec))
        .map_err(StoreError::Io)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ddtr-pile-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_roundtrip_and_reopen() {
        let dir = temp_dir("rt");
        {
            let mut store = PileStore::open(&dir).expect("open");
            store.append(b"k1", b"v1").expect("append");
            store.append(b"k2", b"v2").expect("append");
            assert_eq!(store.get(b"k1").expect("get"), Some(b"v1".to_vec()));
        }
        let mut reopened = PileStore::open(&dir).expect("reopen");
        assert_eq!(reopened.committed_at_open(), 2, "drop published");
        assert_eq!(reopened.get(b"k2").expect("get"), Some(b"v2".to_vec()));
        assert_eq!(reopened.get(b"nope").expect("get"), None);
        assert!(reopened.verify().expect("verify").is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_append_wins_and_compact_dedups() {
        let dir = temp_dir("dedup");
        let mut store = PileStore::open(&dir).expect("open");
        store.append(b"k", b"old").expect("append");
        store.append(b"k", b"new").expect("append");
        assert_eq!(store.get(b"k").expect("get"), Some(b"new".to_vec()));
        let report = store.compact().expect("compact");
        assert_eq!(report.records_out, 1);
        assert_eq!(report.generation, 1);
        assert_eq!(store.get(b"k").expect("get"), Some(b"new".to_vec()));
        assert_eq!(store.segment_count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_rollover_spreads_records() {
        let dir = temp_dir("roll");
        let mut store = PileStore::open(&dir).expect("open");
        store.set_max_segment_bytes(256);
        for i in 0..20 {
            let key = format!("key-{i}");
            store
                .append(key.as_bytes(), b"payload-payload")
                .expect("append");
        }
        assert!(store.segment_count() > 1, "rollover splits segments");
        for i in 0..20 {
            let key = format!("key-{i}");
            assert!(store.get(key.as_bytes()).expect("get").is_some(), "{key}");
        }
        let mut reopened = PileStore::open(&dir).expect("reopen");
        assert_eq!(
            reopened.distinct_keys().expect("distinct"),
            20,
            "all records survive reopen"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_writers_share_one_directory() {
        let dir = temp_dir("share");
        let mut a = PileStore::open(&dir).expect("open a");
        let mut b = PileStore::open(&dir).expect("open b");
        a.append(b"from-a", b"1").expect("append a");
        b.append(b"from-b", b"2").expect("append b");
        a.flush().expect("flush a");
        b.flush().expect("flush b");
        let mut fresh = PileStore::open(&dir).expect("open fresh");
        assert_eq!(fresh.get(b"from-a").expect("get"), Some(b"1".to_vec()));
        assert_eq!(fresh.get(b"from-b").expect("get"), Some(b"2".to_vec()));
        assert_eq!(fresh.segment_count(), 2, "one exclusive segment each");
        assert!(fresh.verify().expect("verify").is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_order_is_key_sorted() {
        let dir = temp_dir("order");
        let mut store = PileStore::open(&dir).expect("open");
        store.append(b"zebra", b"1").expect("append");
        store.append(b"alpha", b"2").expect("append");
        let mut keys = Vec::new();
        store
            .for_each_latest(|k, _| keys.push(k.to_vec()))
            .expect("walk");
        assert_eq!(keys, vec![b"alpha".to_vec(), b"zebra".to_vec()]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
