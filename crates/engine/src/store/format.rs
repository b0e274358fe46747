//! On-disk layout of the pile store: byte-level encode/decode of segment
//! headers, index headers, index entries and records.
//!
//! Everything in this module is pure bytes-in/bytes-out — no I/O — so the
//! corruption-injection and property suites can exercise every decode
//! path directly. All integers are little-endian. Decoders never trust
//! their input: every accessor bounds-checks and returns a
//! [`CorruptKind`] instead of slicing blind.

use super::{CorruptKind, StoreError};
use crate::key::{fnv1a64, Fnv, Fnv64};

/// Magic bytes opening every data segment file.
pub const SEG_MAGIC: [u8; 8] = *b"DDTRPILE";
/// Magic bytes opening every index sidecar file.
pub const IDX_MAGIC: [u8; 8] = *b"DDTRPIDX";
/// Magic word opening every record.
pub const REC_MAGIC: u32 = 0xD7A7_CA5E;
/// Version of the store's on-disk layout. Bumping it orphans old
/// segments (they are quarantined, not misread).
pub const STORE_FORMAT_VERSION: u32 = 1;

/// Segment files start with one page-aligned header; records follow it.
pub const PAGE: u64 = 4096;
/// Meaningful bytes of the segment header (rest of the page is zero).
pub const SEG_HEADER_LEN: usize = 56;
/// Bytes of the index sidecar header.
pub const IDX_HEADER_LEN: usize = 40;
/// Bytes of one fixed-width index entry.
pub const IDX_ENTRY_LEN: usize = 32;
/// Bytes of one record header (key and payload bytes follow).
pub const REC_HEADER_LEN: usize = 24;
/// Records are zero-padded to this alignment.
pub const REC_ALIGN: u64 = 8;
/// Upper bound on one key's length — anything larger is corruption.
pub const MAX_KEY_LEN: u32 = 1 << 16;
/// Upper bound on one payload's length — anything larger is corruption.
pub const MAX_PAYLOAD_LEN: u32 = 1 << 28;

/// The mutable fields of a segment header (the generation counter, the
/// published length and the record count), plus the writer nonce tying
/// the segment to its index sidecar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegHeader {
    /// Compaction generation this segment belongs to.
    pub generation: u64,
    /// Published (fsynced) bytes of the record region, excluding the
    /// header page.
    pub committed_bytes: u64,
    /// Published record count.
    pub committed_records: u64,
    /// Random-ish id stamped by the creating writer; the index sidecar
    /// repeats it so a stale `.idx` from a recreated segment is rejected.
    pub writer_nonce: u64,
}

fn read_u32(buf: &[u8], at: usize) -> Option<u32> {
    buf.get(at..at + 4)?.try_into().ok().map(u32::from_le_bytes)
}

fn read_u64(buf: &[u8], at: usize) -> Option<u64> {
    buf.get(at..at + 8)?.try_into().ok().map(u64::from_le_bytes)
}

impl SegHeader {
    /// Encodes the header into its on-disk form (one [`SEG_HEADER_LEN`]
    /// prefix of the header page; callers pad the page with zeros).
    #[must_use]
    pub fn encode(&self) -> [u8; SEG_HEADER_LEN] {
        let mut buf = [0u8; SEG_HEADER_LEN];
        buf[0..8].copy_from_slice(&SEG_MAGIC);
        buf[8..12].copy_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
        // bytes 12..16 reserved (zero).
        buf[16..24].copy_from_slice(&self.generation.to_le_bytes());
        buf[24..32].copy_from_slice(&self.committed_bytes.to_le_bytes());
        buf[32..40].copy_from_slice(&self.committed_records.to_le_bytes());
        buf[40..48].copy_from_slice(&self.writer_nonce.to_le_bytes());
        let sum = fnv1a64(&buf[0..48]);
        buf[48..56].copy_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Decodes and verifies a segment header read from disk.
    ///
    /// # Errors
    ///
    /// Returns the specific [`CorruptKind`] — truncated header, wrong
    /// magic, unknown format version, or checksum mismatch.
    pub fn decode(buf: &[u8]) -> Result<Self, CorruptKind> {
        let fixed = buf.get(0..SEG_HEADER_LEN).ok_or(CorruptKind::Truncated)?;
        if fixed.get(0..8) != Some(&SEG_MAGIC[..]) {
            return Err(CorruptKind::BadMagic);
        }
        let version = read_u32(fixed, 8).ok_or(CorruptKind::Truncated)?;
        if version != STORE_FORMAT_VERSION {
            return Err(CorruptKind::BadVersion { found: version });
        }
        let stored = read_u64(fixed, 48).ok_or(CorruptKind::Truncated)?;
        if stored != fnv1a64(&fixed[0..48]) {
            return Err(CorruptKind::BadChecksum);
        }
        Ok(SegHeader {
            generation: read_u64(fixed, 16).ok_or(CorruptKind::Truncated)?,
            committed_bytes: read_u64(fixed, 24).ok_or(CorruptKind::Truncated)?,
            committed_records: read_u64(fixed, 32).ok_or(CorruptKind::Truncated)?,
            writer_nonce: read_u64(fixed, 40).ok_or(CorruptKind::Truncated)?,
        })
    }
}

/// Header of an index sidecar file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdxHeader {
    /// Must match the data segment's [`SegHeader::writer_nonce`].
    pub writer_nonce: u64,
    /// Published entry count.
    pub committed_entries: u64,
}

impl IdxHeader {
    /// Encodes the index header into its on-disk form.
    #[must_use]
    pub fn encode(&self) -> [u8; IDX_HEADER_LEN] {
        let mut buf = [0u8; IDX_HEADER_LEN];
        buf[0..8].copy_from_slice(&IDX_MAGIC);
        buf[8..12].copy_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
        // bytes 12..16 reserved (zero).
        buf[16..24].copy_from_slice(&self.writer_nonce.to_le_bytes());
        buf[24..32].copy_from_slice(&self.committed_entries.to_le_bytes());
        let sum = fnv1a64(&buf[0..32]);
        buf[32..40].copy_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Decodes and verifies an index header read from disk.
    ///
    /// # Errors
    ///
    /// Returns the specific [`CorruptKind`] on any mismatch.
    pub fn decode(buf: &[u8]) -> Result<Self, CorruptKind> {
        let fixed = buf.get(0..IDX_HEADER_LEN).ok_or(CorruptKind::Truncated)?;
        if fixed.get(0..8) != Some(&IDX_MAGIC[..]) {
            return Err(CorruptKind::BadMagic);
        }
        let version = read_u32(fixed, 8).ok_or(CorruptKind::Truncated)?;
        if version != STORE_FORMAT_VERSION {
            return Err(CorruptKind::BadVersion { found: version });
        }
        let stored = read_u64(fixed, 32).ok_or(CorruptKind::Truncated)?;
        if stored != fnv1a64(&fixed[0..32]) {
            return Err(CorruptKind::BadChecksum);
        }
        Ok(IdxHeader {
            writer_nonce: read_u64(fixed, 16).ok_or(CorruptKind::Truncated)?,
            committed_entries: read_u64(fixed, 24).ok_or(CorruptKind::Truncated)?,
        })
    }
}

/// One fixed-width index entry: where a record with a given key
/// fingerprint lives inside the segment's record region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdxEntry {
    /// FNV-1a 64 fingerprint of the record's key bytes.
    pub key_fp: u64,
    /// Record offset inside the record region (0 = first record).
    pub offset: u64,
    /// The record's padded on-disk length in bytes.
    pub len: u32,
}

impl IdxEntry {
    /// Encodes the entry into its self-checksummed on-disk form.
    #[must_use]
    pub fn encode(&self) -> [u8; IDX_ENTRY_LEN] {
        let mut buf = [0u8; IDX_ENTRY_LEN];
        buf[0..8].copy_from_slice(&self.key_fp.to_le_bytes());
        buf[8..16].copy_from_slice(&self.offset.to_le_bytes());
        buf[16..20].copy_from_slice(&self.len.to_le_bytes());
        // bytes 20..24 reserved (zero).
        let sum = fnv1a64(&buf[0..24]);
        buf[24..32].copy_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Decodes one entry, rejecting torn or bit-flipped ones via the
    /// embedded checksum.
    ///
    /// # Errors
    ///
    /// Returns the specific [`CorruptKind`] on any mismatch.
    pub fn decode(buf: &[u8]) -> Result<Self, CorruptKind> {
        let fixed = buf.get(0..IDX_ENTRY_LEN).ok_or(CorruptKind::Truncated)?;
        let stored = read_u64(fixed, 24).ok_or(CorruptKind::Truncated)?;
        if stored != fnv1a64(&fixed[0..24]) {
            return Err(CorruptKind::BadChecksum);
        }
        Ok(IdxEntry {
            key_fp: read_u64(fixed, 0).ok_or(CorruptKind::Truncated)?,
            offset: read_u64(fixed, 8).ok_or(CorruptKind::Truncated)?,
            len: read_u32(fixed, 16).ok_or(CorruptKind::Truncated)?,
        })
    }
}

/// The checksum a record stores and a reader recomputes: FNV-1a 64 over
/// the length-prefixed key and payload (length prefixes keep
/// `("ab","c")` and `("a","bc")` distinct).
#[must_use]
pub fn record_checksum(key: &[u8], payload: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.u32(key.len() as u32);
    h.bytes(key);
    h.u32(payload.len() as u32);
    h.bytes(payload);
    h.0
}

/// The padded on-disk length of a record with the given key and payload
/// sizes.
#[must_use]
pub fn record_len(klen: usize, vlen: usize) -> u64 {
    let raw = REC_HEADER_LEN as u64 + klen as u64 + vlen as u64;
    raw.div_ceil(REC_ALIGN) * REC_ALIGN
}

/// Encodes one record (header, key, payload, zero padding).
#[must_use]
pub fn encode_record(key: &[u8], payload: &[u8]) -> Vec<u8> {
    let total = record_len(key.len(), payload.len()) as usize;
    let mut buf = Vec::with_capacity(total);
    buf.extend_from_slice(&REC_MAGIC.to_le_bytes());
    buf.extend_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&record_checksum(key, payload).to_le_bytes());
    buf.extend_from_slice(key);
    buf.extend_from_slice(payload);
    buf.resize(total, 0);
    buf
}

/// Validates a record *header* alone — magic, format version, length
/// sanity — and returns the record's padded on-disk length, so a reader
/// can size the full-record read without trusting unbounded lengths.
///
/// # Errors
///
/// Returns the specific [`CorruptKind`] on any mismatch.
pub fn peek_record_len(header: &[u8]) -> Result<u64, CorruptKind> {
    let fixed = header
        .get(0..REC_HEADER_LEN)
        .ok_or(CorruptKind::Truncated)?;
    let magic = read_u32(fixed, 0).ok_or(CorruptKind::Truncated)?;
    if magic != REC_MAGIC {
        return Err(CorruptKind::BadMagic);
    }
    let version = read_u32(fixed, 4).ok_or(CorruptKind::Truncated)?;
    if version != STORE_FORMAT_VERSION {
        return Err(CorruptKind::BadVersion { found: version });
    }
    let klen = read_u32(fixed, 8).ok_or(CorruptKind::Truncated)?;
    let vlen = read_u32(fixed, 12).ok_or(CorruptKind::Truncated)?;
    if klen == 0 || klen > MAX_KEY_LEN || vlen > MAX_PAYLOAD_LEN {
        return Err(CorruptKind::BadLength { klen, vlen });
    }
    Ok(record_len(klen as usize, vlen as usize))
}

/// A record decoded and verified from untrusted bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The record's key bytes.
    pub key: Vec<u8>,
    /// The record's payload bytes.
    pub payload: Vec<u8>,
    /// The record's padded on-disk length.
    pub disk_len: u64,
}

/// Decodes the record starting at the front of `buf`, verifying magic,
/// format version, length sanity and the key+payload checksum before a
/// single payload byte is handed out.
///
/// # Errors
///
/// Returns the specific [`CorruptKind`]; callers turn it into a
/// [`StoreError::Corrupt`] with the segment/offset context.
pub fn decode_record(buf: &[u8]) -> Result<Record, CorruptKind> {
    let header = buf.get(0..REC_HEADER_LEN).ok_or(CorruptKind::Truncated)?;
    let magic = read_u32(header, 0).ok_or(CorruptKind::Truncated)?;
    if magic != REC_MAGIC {
        return Err(CorruptKind::BadMagic);
    }
    let version = read_u32(header, 4).ok_or(CorruptKind::Truncated)?;
    if version != STORE_FORMAT_VERSION {
        return Err(CorruptKind::BadVersion { found: version });
    }
    let klen = read_u32(header, 8).ok_or(CorruptKind::Truncated)?;
    let vlen = read_u32(header, 12).ok_or(CorruptKind::Truncated)?;
    if klen == 0 || klen > MAX_KEY_LEN || vlen > MAX_PAYLOAD_LEN {
        return Err(CorruptKind::BadLength { klen, vlen });
    }
    let stored = read_u64(header, 16).ok_or(CorruptKind::Truncated)?;
    let key_at = REC_HEADER_LEN;
    let payload_at = key_at + klen as usize;
    let end = payload_at + vlen as usize;
    let key = buf.get(key_at..payload_at).ok_or(CorruptKind::Truncated)?;
    let payload = buf.get(payload_at..end).ok_or(CorruptKind::Truncated)?;
    if stored != record_checksum(key, payload) {
        return Err(CorruptKind::BadChecksum);
    }
    Ok(Record {
        key: key.to_vec(),
        payload: payload.to_vec(),
        disk_len: record_len(klen as usize, vlen as usize),
    })
}

/// Turns a [`CorruptKind`] into a located [`StoreError::Corrupt`].
#[must_use]
pub fn locate(kind: CorruptKind, segment: &str, offset: u64) -> StoreError {
    StoreError::Corrupt {
        segment: segment.to_string(),
        offset,
        kind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seg_header_round_trips() {
        let h = SegHeader {
            generation: 3,
            committed_bytes: 4096,
            committed_records: 17,
            writer_nonce: 0xABCD,
        };
        assert_eq!(SegHeader::decode(&h.encode()), Ok(h));
    }

    #[test]
    fn seg_header_rejects_each_field_class() {
        let h = SegHeader {
            generation: 1,
            committed_bytes: 0,
            committed_records: 0,
            writer_nonce: 9,
        };
        let good = h.encode();
        let mut bad_magic = good;
        bad_magic[0] ^= 0xFF;
        assert_eq!(SegHeader::decode(&bad_magic), Err(CorruptKind::BadMagic));
        let mut bad_version = good;
        bad_version[8] = 99;
        // A version flip also breaks the checksum; re-sign to isolate it.
        let sum = fnv1a64(&bad_version[0..48]);
        bad_version[48..56].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            SegHeader::decode(&bad_version),
            Err(CorruptKind::BadVersion { found: 99 })
        );
        let mut flipped = good;
        flipped[20] ^= 0x01;
        assert_eq!(SegHeader::decode(&flipped), Err(CorruptKind::BadChecksum));
        assert_eq!(SegHeader::decode(&good[..10]), Err(CorruptKind::Truncated));
    }

    #[test]
    fn idx_entry_round_trips_and_rejects_bitflips() {
        let e = IdxEntry {
            key_fp: 42,
            offset: 4096,
            len: 64,
        };
        assert_eq!(IdxEntry::decode(&e.encode()), Ok(e));
        let mut bad = e.encode();
        bad[9] ^= 0x40;
        assert_eq!(IdxEntry::decode(&bad), Err(CorruptKind::BadChecksum));
    }

    #[test]
    fn record_round_trips_with_padding() {
        let buf = encode_record(b"key-1", b"payload bytes");
        assert_eq!(buf.len() as u64 % REC_ALIGN, 0);
        let rec = decode_record(&buf).expect("decode");
        assert_eq!(rec.key, b"key-1");
        assert_eq!(rec.payload, b"payload bytes");
        assert_eq!(rec.disk_len, buf.len() as u64);
    }

    #[test]
    fn record_rejects_magic_version_length_and_checksum_damage() {
        let good = encode_record(b"k", b"v");
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(decode_record(&bad_magic), Err(CorruptKind::BadMagic));
        let mut stale = good.clone();
        stale[4..8].copy_from_slice(&77u32.to_le_bytes());
        assert_eq!(
            decode_record(&stale),
            Err(CorruptKind::BadVersion { found: 77 })
        );
        let mut huge = good.clone();
        huge[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_record(&huge),
            Err(CorruptKind::BadLength { .. })
        ));
        let mut flipped = good.clone();
        // The final bytes are padding; flip the payload byte instead.
        flipped[REC_HEADER_LEN + 1] ^= 0x04;
        assert_eq!(decode_record(&flipped), Err(CorruptKind::BadChecksum));
        assert_eq!(
            decode_record(&good[..good.len() - 8]),
            Err(CorruptKind::Truncated)
        );
    }
}
