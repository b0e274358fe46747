//! One segment of the pile: a page-aligned header, then fixed-layout
//! records — plus the index sidecar and the crash-safe append protocol.
//!
//! A [`SegmentReader`] verifies the header once at open (O(1): one
//! `pread` of the header page, never a record scan) and then serves
//! verified-on-read record lookups through the [`PageSource`] trait. A
//! [`SegmentWriter`] owns the append end: records are written, `fsync`ed,
//! and only then *published* by rewriting the header's committed length —
//! a reader never trusts bytes the protocol hasn't fsynced first, and a
//! torn tail past the published length is salvage, not gospel.

use super::format::{
    decode_record, peek_record_len, IdxEntry, IdxHeader, Record, SegHeader, IDX_ENTRY_LEN,
    IDX_HEADER_LEN, PAGE,
};
use super::pages::{CachedPages, FilePages, PageSource};
use super::{CorruptKind, StoreError, StoreIssue};
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File extension of data segments.
pub const SEG_EXT: &str = "ddts";
/// File extension of index sidecars.
pub const IDX_EXT: &str = "idx";

/// Read access to one segment: the verified header plus positional
/// record reads behind the page cache.
pub struct SegmentReader {
    /// The segment's file name (diagnostics and reports key on it).
    pub name: String,
    /// The segment's header as verified at open time.
    pub header: SegHeader,
    pages: CachedPages<FilePages>,
}

impl SegmentReader {
    /// Opens a segment and verifies its header page — the only I/O is
    /// one positional header read, independent of record count.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be opened;
    /// [`StoreError::Corrupt`] when the header fails verification
    /// (including the zero-length-file case, reported as `Truncated`).
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let name = file_name_of(path);
        let file = File::open(path).map_err(StoreError::Io)?;
        let pages = CachedPages::new(FilePages::new(file));
        let mut buf = [0u8; super::format::SEG_HEADER_LEN];
        let mut got = 0;
        while got < buf.len() {
            let slice = buf.get_mut(got..).unwrap_or(&mut []);
            if slice.is_empty() {
                break;
            }
            let n = pages.read_at(got as u64, slice).map_err(StoreError::Io)?;
            if n == 0 {
                break;
            }
            got += n;
        }
        let header = SegHeader::decode(buf.get(0..got).unwrap_or(&[]))
            .map_err(|kind| super::format::locate(kind, &name, 0))?;
        Ok(SegmentReader {
            name,
            header,
            pages,
        })
    }

    /// Bytes available in the record region right now (file length minus
    /// the header page; the tail past the published length is included).
    ///
    /// # Errors
    ///
    /// Propagates the length query's I/O error.
    pub fn data_len(&self) -> io::Result<u64> {
        Ok(self.pages.len()?.saturating_sub(PAGE))
    }

    /// Reads and fully verifies the record at `offset` (relative to the
    /// record region) — magic, version, lengths, checksum — before any
    /// payload byte is returned.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on any verification failure,
    /// [`StoreError::Io`] when the read itself fails.
    pub fn read_record(&self, offset: u64) -> Result<Record, StoreError> {
        let mut header = [0u8; super::format::REC_HEADER_LEN];
        self.read_data(offset, &mut header)?;
        let total =
            peek_record_len(&header).map_err(|k| super::format::locate(k, &self.name, offset))?;
        let mut buf = vec![0u8; total as usize];
        self.read_data(offset, &mut buf)?;
        decode_record(&buf).map_err(|k| super::format::locate(k, &self.name, offset))
    }

    /// Walks records from `from` (record-region offset), calling `visit`
    /// for each verified record. A record whose *header* is sane but
    /// whose body fails the checksum is quarantined and *skipped* (the
    /// header gives its boundary); scanning only stops where the next
    /// boundary is unknowable — a stomped header or a torn tail — whose
    /// issue is appended to `issues`. Returns the offset scanning
    /// stopped at.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (corruption is *not* an error here — it
    /// lands in `issues`).
    pub fn scan(
        &self,
        from: u64,
        issues: &mut Vec<StoreIssue>,
        mut visit: impl FnMut(u64, &Record),
    ) -> io::Result<u64> {
        let end = self.data_len()?;
        let mut at = from;
        while at < end {
            let mut header = [0u8; super::format::REC_HEADER_LEN];
            match self.read_data(at, &mut header) {
                Ok(()) => {}
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
                    break;
                }
                Err(StoreError::Io(err)) => return Err(err),
            }
            let total = match peek_record_len(&header) {
                Ok(total) => total,
                Err(kind) => {
                    issues.push(StoreIssue {
                        segment: self.name.clone(),
                        offset: at,
                        kind,
                    });
                    break;
                }
            };
            let mut buf = vec![0u8; total as usize];
            match self.read_data(at, &mut buf) {
                Ok(()) => {}
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
                    break;
                }
                Err(StoreError::Io(err)) => return Err(err),
            }
            match decode_record(&buf) {
                Ok(rec) => visit(at, &rec),
                Err(kind) => {
                    // Header sane, body rotten: the boundary is known,
                    // so quarantine this record and keep walking.
                    issues.push(StoreIssue {
                        segment: self.name.clone(),
                        offset: at,
                        kind,
                    });
                }
            }
            at += total;
        }
        Ok(at)
    }

    fn read_data(&self, offset: u64, buf: &mut [u8]) -> Result<(), StoreError> {
        self.pages.read_exact_at(PAGE + offset, buf).map_err(|err| {
            if err.kind() == io::ErrorKind::UnexpectedEof {
                super::format::locate(CorruptKind::Truncated, &self.name, offset)
            } else {
                StoreError::Io(err)
            }
        })
    }
}

/// Loads the index sidecar next to a segment: self-checksummed
/// fixed-width entries mapping key fingerprints to record offsets.
///
/// The sidecar is a *hint*, never trusted blind: a missing, stale
/// (nonce-mismatched) or damaged index degrades to an empty entry list
/// (with issues recorded) and the caller re-scans the data segment —
/// the store stays readable with no index at all.
pub fn load_index(
    seg_path: &Path,
    seg_header: &SegHeader,
    issues: &mut Vec<StoreIssue>,
) -> Vec<IdxEntry> {
    let path = idx_path_of(seg_path);
    let name = file_name_of(&path);
    let Ok(bytes) = std::fs::read(&path) else {
        return Vec::new();
    };
    ddtr_obs::counter(ddtr_obs::names::ENGINE_STORE_READ_BYTES).add(bytes.len() as u64);
    let header = match IdxHeader::decode(&bytes) {
        Ok(h) => h,
        Err(kind) => {
            issues.push(StoreIssue {
                segment: name,
                offset: 0,
                kind,
            });
            return Vec::new();
        }
    };
    if header.writer_nonce != seg_header.writer_nonce {
        issues.push(StoreIssue {
            segment: name,
            offset: 0,
            kind: CorruptKind::BadChecksum,
        });
        return Vec::new();
    }
    let avail = (bytes.len().saturating_sub(IDX_HEADER_LEN)) / IDX_ENTRY_LEN;
    let count = (header.committed_entries as usize).min(avail);
    let mut entries = Vec::with_capacity(count);
    for i in 0..count {
        let at = IDX_HEADER_LEN + i * IDX_ENTRY_LEN;
        match IdxEntry::decode(bytes.get(at..at + IDX_ENTRY_LEN).unwrap_or(&[])) {
            Ok(entry) => entries.push(entry),
            Err(kind) => issues.push(StoreIssue {
                segment: name.clone(),
                offset: at as u64,
                kind,
            }),
        }
    }
    entries
}

/// The append end of one segment. Exactly one writer ever exists per
/// segment file: creation uses `O_EXCL` (`create_new`), so two processes
/// sharing a store directory can never interleave writes into one file —
/// that exclusivity *is* the append lock.
pub struct SegmentWriter {
    /// The segment's file name.
    pub name: String,
    data: File,
    idx: File,
    header: SegHeader,
    /// Record-region bytes written (published or not).
    data_len: u64,
    /// Records written (published or not).
    records: u64,
    /// Index entries written (published or not).
    idx_entries: u64,
}

impl SegmentWriter {
    /// Creates a brand-new segment (and its index sidecar) with
    /// `create_new`, writing and flushing both headers immediately so a
    /// concurrent open never sees a zero-length file from a healthy
    /// writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; `AlreadyExists` means the name is taken
    /// (the caller retries with a fresh name).
    pub fn create(seg_path: &Path, generation: u64, writer_nonce: u64) -> io::Result<Self> {
        let mut data = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(seg_path)?;
        let idx_path = idx_path_of(seg_path);
        let mut idx = match OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&idx_path)
        {
            Ok(f) => f,
            Err(err) => {
                // Never leave a headerless data segment behind.
                let _ = std::fs::remove_file(seg_path);
                return Err(err);
            }
        };
        let header = SegHeader {
            generation,
            committed_bytes: 0,
            committed_records: 0,
            writer_nonce,
        };
        let mut page = vec![0u8; PAGE as usize];
        page.get_mut(0..super::format::SEG_HEADER_LEN)
            .unwrap_or(&mut [])
            .copy_from_slice(&header.encode());
        data.write_all(&page)?;
        data.sync_data()?;
        let idx_header = IdxHeader {
            writer_nonce,
            committed_entries: 0,
        };
        idx.write_all(&idx_header.encode())?;
        idx.sync_data()?;
        Ok(SegmentWriter {
            name: file_name_of(seg_path),
            data,
            idx,
            header,
            data_len: 0,
            records: 0,
            idx_entries: 0,
        })
    }

    /// Appends one encoded record plus its index entry. The bytes hit
    /// the file immediately (visible to same-machine readers via tail
    /// salvage) but are only *published* — header-committed and crash
    /// durable — by the next [`SegmentWriter::publish`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; nothing is published on failure.
    pub fn append(&mut self, record: &[u8], key_fp: u64) -> io::Result<u64> {
        let offset = self.data_len;
        self.data.seek(SeekFrom::Start(PAGE + offset))?;
        self.data.write_all(record)?;
        self.data_len += record.len() as u64;
        self.records += 1;
        let entry = IdxEntry {
            key_fp,
            offset,
            len: record.len() as u32,
        };
        self.idx.seek(SeekFrom::Start(
            (IDX_HEADER_LEN + self.idx_entries as usize * IDX_ENTRY_LEN) as u64,
        ))?;
        self.idx.write_all(&entry.encode())?;
        self.idx_entries += 1;
        Ok(offset)
    }

    /// Publishes everything appended so far: `fsync` the record bytes,
    /// *then* rewrite the header with the new committed length, then
    /// `fsync` again — so a crash at any point leaves either the old
    /// published state or the new one, never a header that claims
    /// unsynced bytes. The index sidecar publishes after the data (it is
    /// only ever a hint).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the previously published state remains
    /// valid on failure.
    pub fn publish(&mut self) -> io::Result<()> {
        if self.header.committed_bytes == self.data_len
            && self.header.committed_records == self.records
        {
            return Ok(());
        }
        self.data.sync_data()?;
        self.header.committed_bytes = self.data_len;
        self.header.committed_records = self.records;
        self.data.seek(SeekFrom::Start(0))?;
        self.data.write_all(&self.header.encode())?;
        self.data.sync_data()?;
        let idx_header = IdxHeader {
            writer_nonce: self.header.writer_nonce,
            committed_entries: self.idx_entries,
        };
        self.idx.sync_data()?;
        self.idx.seek(SeekFrom::Start(0))?;
        self.idx.write_all(&idx_header.encode())?;
        self.idx.sync_data()?;
        Ok(())
    }

    /// Record-region bytes written so far (published or not).
    #[must_use]
    pub fn data_len(&self) -> u64 {
        self.data_len
    }

    /// Records written so far (published or not).
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }
}

/// The index sidecar path belonging to a data segment path.
#[must_use]
pub fn idx_path_of(seg_path: &Path) -> PathBuf {
    seg_path.with_extension(IDX_EXT)
}

/// A path's file name as a `String` (lossy, for diagnostics).
#[must_use]
pub fn file_name_of(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::super::format::encode_record;
    use super::*;

    fn temp_seg(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ddtr-seg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join("seg-00000-0000000000000001.ddts")
    }

    #[test]
    fn writer_publishes_and_reader_verifies() {
        let path = temp_seg("roundtrip");
        let mut w = SegmentWriter::create(&path, 1, 7).expect("create");
        let rec = encode_record(b"alpha", b"payload-a");
        let off = w.append(&rec, 11).expect("append");
        assert_eq!(off, 0);
        w.publish().expect("publish");
        let r = SegmentReader::open(&path).expect("open");
        assert_eq!(r.header.committed_records, 1);
        assert_eq!(r.header.committed_bytes, rec.len() as u64);
        let back = r.read_record(0).expect("read");
        assert_eq!(back.key, b"alpha");
        assert_eq!(back.payload, b"payload-a");
        let entries = load_index(&path, &r.header, &mut Vec::new());
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].key_fp, 11);
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn unpublished_tail_is_scannable_salvage() {
        let path = temp_seg("tail");
        let mut w = SegmentWriter::create(&path, 1, 7).expect("create");
        w.append(&encode_record(b"a", b"1"), 1).expect("append");
        w.publish().expect("publish");
        // Appended but never published: header still says 1 record.
        w.append(&encode_record(b"b", b"2"), 2).expect("append");
        let r = SegmentReader::open(&path).expect("open");
        assert_eq!(r.header.committed_records, 1);
        let mut seen = Vec::new();
        let mut issues = Vec::new();
        r.scan(0, &mut issues, |_, rec| seen.push(rec.key.clone()))
            .expect("scan");
        assert_eq!(seen, vec![b"a".to_vec(), b"b".to_vec()]);
        assert!(issues.is_empty(), "clean tail: {issues:?}");
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }
}
