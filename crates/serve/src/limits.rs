//! Edge-hardening primitives of the fleet server: the bounded connection
//! gate, the per-connection request-rate budget, and the size-ceilinged
//! line reader.
//!
//! Everything here is untrusted-input territory (the far side is an
//! arbitrary network peer), so per the `no-panic-boundary` contract each
//! failure mode surfaces as a value the caller turns into a structured
//! `Error` event — never a panic, and never unbounded memory: an
//! oversized line is discarded chunk by chunk without ever being
//! buffered whole.

use std::io::{self, BufRead, Read};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// A bounded pool of connection slots: the thing that turns the old
/// unbounded thread-per-connection accept loop into a bounded one.
///
/// Acquisition never blocks — at capacity the caller rejects the
/// connection with a structured `Overloaded` error instead of queueing
/// it, so a flood degrades loudly rather than exhausting threads.
#[derive(Debug)]
pub(crate) struct ConnGate {
    active: AtomicUsize,
    capacity: usize,
}

impl ConnGate {
    pub(crate) fn new(capacity: usize) -> Self {
        ConnGate {
            active: AtomicUsize::new(0),
            capacity: capacity.max(1),
        }
    }

    /// Tries to claim one slot; `None` means the gate is full.
    pub(crate) fn acquire(&self) -> Option<ConnSlot<'_>> {
        let claimed = self
            .active
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.capacity).then_some(n + 1)
            });
        claimed.ok().map(|_| ConnSlot { gate: self })
    }
}

/// One claimed connection slot; dropping it releases the slot.
#[derive(Debug)]
pub(crate) struct ConnSlot<'a> {
    gate: &'a ConnGate,
}

impl Drop for ConnSlot<'_> {
    fn drop(&mut self) {
        self.gate.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A fixed-window request-rate budget: at most `limit` requests per
/// second on one connection. Integer arithmetic only (no float
/// comparisons) and deterministic given the clock.
#[derive(Debug)]
pub(crate) struct RateLimiter {
    limit: Option<u32>,
    started: Instant,
    used: u32,
}

impl RateLimiter {
    /// A limiter allowing `limit` requests per second; `None` disables
    /// limiting.
    pub(crate) fn new(limit: Option<u32>) -> Self {
        RateLimiter {
            limit,
            started: Instant::now(),
            used: 0,
        }
    }

    /// Spends one request from the budget; `false` means over budget
    /// (the caller answers `RateLimited` and keeps the connection open).
    pub(crate) fn admit(&mut self) -> bool {
        let Some(limit) = self.limit else {
            return true;
        };
        let now = Instant::now();
        if now.duration_since(self.started).as_millis() >= 1000 {
            self.started = now;
            self.used = 0;
        }
        if self.used < limit {
            self.used += 1;
            true
        } else {
            false
        }
    }
}

/// One read attempt from the request stream.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum RequestLine {
    /// The peer closed the stream.
    Eof,
    /// One complete line within the ceiling (terminator stripped).
    Line(String),
    /// The line exceeded the ceiling; it was discarded unread and the
    /// stream is positioned at the next line.
    TooLarge,
    /// The line was not valid UTF-8; discarded, stream still usable.
    NotUtf8,
}

/// Reads one `\n`-terminated line of at most `max_bytes` payload.
///
/// Never buffers more than `max_bytes + 1` bytes: when the ceiling is
/// hit the remainder of the line is drained chunk-by-chunk straight out
/// of the reader's buffer, so a hostile client cannot make the server
/// hold a multi-gigabyte "line" in memory.
pub(crate) fn read_request_line<R: BufRead>(
    reader: &mut R,
    max_bytes: usize,
) -> io::Result<RequestLine> {
    let mut buf = Vec::new();
    let n = (&mut *reader)
        .take(max_bytes as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(RequestLine::Eof);
    }
    if buf.last() != Some(&b'\n') && buf.len() > max_bytes {
        discard_to_newline(reader)?;
        return Ok(RequestLine::TooLarge);
    }
    while buf.last() == Some(&b'\n') || buf.last() == Some(&b'\r') {
        buf.pop();
    }
    match String::from_utf8(buf) {
        Ok(line) => Ok(RequestLine::Line(line)),
        Err(_) => Ok(RequestLine::NotUtf8),
    }
}

/// Consumes the reader up to and including the next `\n` (or EOF)
/// without accumulating the skipped bytes.
fn discard_to_newline<R: BufRead>(reader: &mut R) -> io::Result<()> {
    loop {
        let (done, used) = {
            let chunk = reader.fill_buf()?;
            if chunk.is_empty() {
                return Ok(());
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => (true, pos + 1),
                None => (false, chunk.len()),
            }
        };
        reader.consume(used);
        if done {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn conn_gate_bounds_and_releases() {
        let gate = ConnGate::new(2);
        let a = gate.acquire().expect("slot a");
        let b = gate.acquire().expect("slot b");
        assert!(gate.acquire().is_none(), "full");
        drop(a);
        let c = gate.acquire().expect("slot after release");
        assert!(gate.acquire().is_none(), "full again");
        drop(b);
        drop(c);
        assert!(gate.acquire().is_some(), "all slots released");
    }

    #[test]
    fn rate_limiter_enforces_and_refills() {
        let mut unlimited = RateLimiter::new(None);
        for _ in 0..1000 {
            assert!(unlimited.admit());
        }
        let mut limited = RateLimiter::new(Some(3));
        assert!(limited.admit());
        assert!(limited.admit());
        assert!(limited.admit());
        assert!(!limited.admit(), "budget spent");
        // Force the window back to simulate a second passing.
        limited.started = Instant::now() - std::time::Duration::from_millis(1100);
        assert!(limited.admit(), "budget refilled");
    }

    #[test]
    fn bounded_lines_read_and_oversize_discards() {
        let mut input = Cursor::new(b"short\nxxxxxxxxxxxxxxxxxxxx\nnext\n".to_vec());
        assert_eq!(
            read_request_line(&mut input, 10).unwrap(),
            RequestLine::Line("short".into())
        );
        assert_eq!(
            read_request_line(&mut input, 10).unwrap(),
            RequestLine::TooLarge
        );
        assert_eq!(
            read_request_line(&mut input, 10).unwrap(),
            RequestLine::Line("next".into()),
            "connection survives an oversized line"
        );
        assert_eq!(read_request_line(&mut input, 10).unwrap(), RequestLine::Eof);
    }

    #[test]
    fn exact_ceiling_and_crlf_and_utf8() {
        let mut exact = Cursor::new(b"0123456789\n".to_vec());
        assert_eq!(
            read_request_line(&mut exact, 10).unwrap(),
            RequestLine::Line("0123456789".into())
        );
        let mut crlf = Cursor::new(b"hi\r\n".to_vec());
        assert_eq!(
            read_request_line(&mut crlf, 10).unwrap(),
            RequestLine::Line("hi".into())
        );
        let mut bad = Cursor::new(vec![0xff, 0xfe, b'\n', b'o', b'k', b'\n']);
        assert_eq!(
            read_request_line(&mut bad, 10).unwrap(),
            RequestLine::NotUtf8
        );
        assert_eq!(
            read_request_line(&mut bad, 10).unwrap(),
            RequestLine::Line("ok".into())
        );
        // No trailing newline at EOF still yields the payload.
        let mut tail = Cursor::new(b"tail".to_vec());
        assert_eq!(
            read_request_line(&mut tail, 10).unwrap(),
            RequestLine::Line("tail".into())
        );
    }
}
