//! The pile store: a page-aligned, verified-on-read persistent result
//! cache that opens in O(1).
//!
//! The JSONL cache re-parses every line at open, so warm-start cost grows
//! linearly with cache size — untenable for the multi-million-entry sweep
//! matrices the methodology implies. The pile store replaces it as
//! [`crate::SimCache`]'s persistent backend (JSONL stays as the
//! import/export interchange format):
//!
//! * **Segments** (`seg-NNNNN-<nonce>.ddts`): one 4 KiB header page —
//!   magic, format version, generation counter, published length,
//!   checksum — then fixed-layout records, each zero-padded to 8-byte
//!   alignment. A fixed-width index sidecar (`.idx`) maps key
//!   fingerprints to record offsets; it is a hint, rebuilt by scan when
//!   missing or damaged.
//! * **Verify on read**: every record carries magic, format version,
//!   lengths and an FNV-1a 64 checksum over key+payload; untrusted bytes
//!   never deserialize unchecked — a damaged record is quarantined with
//!   a structured [`StoreError`], never a panic (the `no-panic-boundary`
//!   lint scope covers this module).
//! * **Crash-safe appends**: write the record, `fsync`, *then* publish
//!   the new length in the header ([`segment::SegmentWriter::publish`]).
//!   Complete-but-unpublished tail records are salvaged by scan; torn
//!   ones are detected and skipped.
//! * **O(1) open, shared reads**: [`PileStore::open`] reads only segment
//!   headers — the bytes it reads do not grow with record count (counted
//!   as `engine.store.read_bytes` and gated by the `store_open_reads`
//!   test). Any number of processes read one directory concurrently;
//!   each appending process owns its own `O_EXCL`-created segment, so
//!   writers never contend for bytes — that exclusive ownership is the
//!   append lock.
//!
//! The read path goes through one trait — [`pages::PageSource`], `pread`
//! on unix plus an aligned-chunk cache ([`pages::CachedPages`]) — the
//! workspace's `unsafe`-free stand-in for `mmap` (`unsafe_code` is
//! forbidden; see `docs/ARCHITECTURE.md` for the full format).

pub mod format;
pub mod pages;
pub mod pile;
pub mod segment;

pub use pile::{CompactReport, PileStore, SegmentReport, StoreStats, VerifyReport};

use std::fmt;

/// Why a header, index entry or record failed verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// The magic bytes/word did not match.
    BadMagic,
    /// The format version is not the one this build reads.
    BadVersion {
        /// The version found on disk.
        found: u32,
    },
    /// A stored checksum did not match the recomputed one.
    BadChecksum,
    /// A length field is zero or beyond the format's sanity bounds.
    BadLength {
        /// The key length found on disk.
        klen: u32,
        /// The payload length found on disk.
        vlen: u32,
    },
    /// The file ends before the structure does (torn append, truncated
    /// segment, zero-length file).
    Truncated,
}

impl fmt::Display for CorruptKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorruptKind::BadMagic => write!(f, "bad magic"),
            CorruptKind::BadVersion { found } => write!(f, "unsupported format version {found}"),
            CorruptKind::BadChecksum => write!(f, "checksum mismatch"),
            CorruptKind::BadLength { klen, vlen } => {
                write!(f, "implausible lengths (key {klen}, payload {vlen})")
            }
            CorruptKind::Truncated => write!(f, "truncated"),
        }
    }
}

/// A structured store failure: an I/O error, or located corruption.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// Verification failed at a specific place.
    Corrupt {
        /// File name of the segment (or sidecar) involved.
        segment: String,
        /// Byte offset of the damage, relative to the record region for
        /// records and to the file start for headers.
        offset: u64,
        /// What exactly failed.
        kind: CorruptKind,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(err) => write!(f, "store I/O error: {err}"),
            StoreError::Corrupt {
                segment,
                offset,
                kind,
            } => write!(
                f,
                "corrupt store data in {segment} at offset {offset}: {kind}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(err: std::io::Error) -> Self {
        StoreError::Io(err)
    }
}

/// One detected-and-survived corruption: the record (or index entry /
/// header) was quarantined — skipped, reported, never served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreIssue {
    /// File name the damage lives in.
    pub segment: String,
    /// Byte offset of the damage (record-region relative for records).
    pub offset: u64,
    /// What failed.
    pub kind: CorruptKind,
}

impl fmt::Display for StoreIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at offset {}: {}",
            self.segment, self.offset, self.kind
        )
    }
}
