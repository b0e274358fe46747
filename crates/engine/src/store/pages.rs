//! The read path's one abstraction: positional byte access to an
//! immutable-once-written file.
//!
//! A real `mmap` needs `unsafe` (forbidden workspace-wide), so the store
//! gets the same access pattern — random positional reads with no shared
//! cursor, cheap enough to issue per record — from [`PageSource`]:
//! `pread` on unix ([`std::os::unix::fs::FileExt::read_at`] is a safe
//! API), a seek-under-mutex fallback elsewhere, and [`CachedPages`], a
//! small aligned-chunk cache that gives clustered lookups memory-speed
//! re-reads, the way a mapped page stays hot after its first fault.

use std::fs::File;
use std::io;
use std::sync::Mutex;

/// Positional reads into a file that only ever grows at the tail.
pub trait PageSource {
    /// Current length of the underlying file in bytes.
    ///
    /// # Errors
    ///
    /// Propagates the metadata query's I/O error.
    fn len(&self) -> io::Result<u64>;

    /// Whether the underlying file is currently empty.
    ///
    /// # Errors
    ///
    /// Propagates the metadata query's I/O error.
    fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Reads up to `buf.len()` bytes at `offset`, returning how many were
    /// read (0 at end of file). Never moves any shared cursor.
    ///
    /// # Errors
    ///
    /// Propagates the positional read's I/O error.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize>;

    /// Fills `buf` entirely from `offset`, or fails with
    /// [`io::ErrorKind::UnexpectedEof`] when the file is too short.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; short files surface as `UnexpectedEof`.
    fn read_exact_at(&self, mut offset: u64, mut buf: &mut [u8]) -> io::Result<()> {
        while !buf.is_empty() {
            let n = self.read_at(offset, buf)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "positional read past end of file",
                ));
            }
            offset += n as u64;
            buf = buf.get_mut(n..).unwrap_or(&mut []);
        }
        Ok(())
    }
}

/// `pread`-backed [`PageSource`] over one open file descriptor.
#[derive(Debug)]
pub struct FilePages {
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    file: Mutex<File>,
}

impl FilePages {
    /// Wraps an open (read-capable) file.
    #[must_use]
    pub fn new(file: File) -> Self {
        #[cfg(unix)]
        {
            FilePages { file }
        }
        #[cfg(not(unix))]
        {
            FilePages {
                file: Mutex::new(file),
            }
        }
    }
}

#[cfg(unix)]
impl PageSource for FilePages {
    fn len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        std::os::unix::fs::FileExt::read_at(&self.file, buf, offset)
    }
}

#[cfg(not(unix))]
impl PageSource for FilePages {
    fn len(&self) -> io::Result<u64> {
        let file = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Ok(file.metadata()?.len())
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        file.seek(SeekFrom::Start(offset))?;
        file.read(buf)
    }
}

/// Chunk size of [`CachedPages`] — a small multiple of the 4 KiB segment
/// page so one cached chunk usually covers a whole record.
pub const CHUNK_BYTES: usize = 32 * 1024;

/// How many chunks one [`CachedPages`] retains (LRU), bounding each open
/// segment reader to ~1 MiB of cache.
pub const CHUNK_CAPACITY: usize = 32;

/// One cached aligned chunk. `valid` may be short when the chunk covered
/// the growing tail of the file at read time; a later request past
/// `valid` re-reads the chunk, so appends are never masked by stale
/// cached zeros.
struct Chunk {
    /// Chunk index (`file offset / CHUNK_BYTES`).
    no: u64,
    /// Bytes actually read into `data`.
    valid: usize,
    /// The chunk bytes.
    data: Vec<u8>,
}

/// An aligned-chunk read cache over any [`PageSource`] — the store's
/// stand-in for the page cache an `mmap` would borrow from the kernel.
///
/// Deterministic by construction: a `Vec` in most-recently-used order
/// (no hash-order anywhere), and reads are pure so cache state never
/// changes observable bytes.
pub struct CachedPages<S> {
    inner: S,
    chunks: Mutex<Vec<Chunk>>,
}

impl<S: PageSource> CachedPages<S> {
    /// Wraps a source with an empty cache.
    #[must_use]
    pub fn new(inner: S) -> Self {
        CachedPages {
            inner,
            chunks: Mutex::new(Vec::new()),
        }
    }

    /// Looks up a chunk, returning a copy of the requested span when the
    /// cached chunk covers `[start, start+len)` fully.
    fn cached_span(&self, no: u64, start: usize, len: usize) -> Option<Vec<u8>> {
        let mut chunks = self
            .chunks
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let at = chunks.iter().position(|c| c.no == no)?;
        if start + len > chunks.get(at)?.valid {
            return None;
        }
        // Move to the MRU end, then copy the span out.
        let chunk = chunks.remove(at);
        let span = chunk.data.get(start..start + len).map(<[u8]>::to_vec);
        chunks.push(chunk);
        span
    }

    /// Inserts a freshly read chunk, evicting the least-recently-used
    /// one past capacity.
    fn install(&self, no: u64, valid: usize, data: Vec<u8>) {
        let mut chunks = self
            .chunks
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        chunks.retain(|c| c.no != no);
        chunks.push(Chunk { no, valid, data });
        if chunks.len() > CHUNK_CAPACITY {
            chunks.remove(0);
        }
    }
}

impl<S: PageSource> PageSource for CachedPages<S> {
    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let no = offset / CHUNK_BYTES as u64;
        let start = (offset % CHUNK_BYTES as u64) as usize;
        // Serve what fits inside this one chunk; callers loop for more.
        let want = buf.len().min(CHUNK_BYTES - start);
        if let Some(span) = self.cached_span(no, start, want) {
            if let Some(dst) = buf.get_mut(0..span.len()) {
                dst.copy_from_slice(&span);
            }
            return Ok(span.len());
        }
        // Miss (or a previously short chunk): read the whole aligned
        // chunk once, install it, serve from the fresh copy.
        let mut data = vec![0u8; CHUNK_BYTES];
        let mut valid = 0;
        loop {
            let slice = data.get_mut(valid..).unwrap_or(&mut []);
            if slice.is_empty() {
                break;
            }
            let n = self
                .inner
                .read_at(no * CHUNK_BYTES as u64 + valid as u64, slice)?;
            if n == 0 {
                break;
            }
            valid += n;
        }
        ddtr_obs::counter(ddtr_obs::names::ENGINE_STORE_READ_BYTES).add(valid as u64);
        let served = want.min(valid.saturating_sub(start));
        if let (Some(dst), Some(src)) = (buf.get_mut(0..served), data.get(start..start + served)) {
            dst.copy_from_slice(src);
        }
        self.install(no, valid, data);
        Ok(served)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(tag: &str, bytes: &[u8]) -> File {
        let path = std::env::temp_dir().join(format!(
            "ddtr-pages-{tag}-{}-{}",
            std::process::id(),
            bytes.len()
        ));
        let mut f = File::create(&path).expect("create");
        f.write_all(bytes).expect("write");
        File::open(&path).expect("reopen")
    }

    #[test]
    fn file_pages_reads_positionally() {
        let src = FilePages::new(temp_file("pread", b"hello positional world"));
        let mut buf = [0u8; 10];
        src.read_exact_at(6, &mut buf).expect("read");
        assert_eq!(&buf, b"positional");
        assert_eq!(src.len().expect("len"), 22);
    }

    #[test]
    fn cached_pages_serves_identical_bytes_and_handles_growth() {
        let path = std::env::temp_dir().join(format!("ddtr-pages-grow-{}", std::process::id()));
        let mut writer = File::create(&path).expect("create");
        writer.write_all(b"first half").expect("write");
        writer.flush().expect("flush");
        let cached = CachedPages::new(FilePages::new(File::open(&path).expect("open")));
        let mut buf = [0u8; 10];
        cached.read_exact_at(0, &mut buf).expect("read");
        assert_eq!(&buf, b"first half");
        // The file grows past what the cached (short) chunk saw; the next
        // read must see the new bytes, not stale zeros.
        writer.write_all(b" and the rest").expect("append");
        writer.flush().expect("flush");
        let mut grown = [0u8; 23];
        cached.read_exact_at(0, &mut grown).expect("read grown");
        assert_eq!(&grown[..], b"first half and the rest");
        // And a repeated read is served from cache, still byte-identical.
        let mut again = [0u8; 23];
        cached.read_exact_at(0, &mut again).expect("reread");
        assert_eq!(grown, again);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cached_pages_crosses_chunk_boundaries() {
        let mut bytes = vec![0u8; CHUNK_BYTES + 100];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let cached = CachedPages::new(FilePages::new(temp_file("cross", &bytes)));
        let mut buf = vec![0u8; 200];
        let at = CHUNK_BYTES as u64 - 100;
        cached.read_exact_at(at, &mut buf).expect("read");
        assert_eq!(buf, bytes[CHUNK_BYTES - 100..CHUNK_BYTES + 100].to_vec());
    }
}
