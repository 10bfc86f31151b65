//! The one NDJSON framing module: every frame that crosses a process or
//! network boundary — dispatcher↔worker over a child's stdio or TCP,
//! client↔daemon over a Unix or TCP socket — is one JSON object per
//! line, written by [`write_frame`] and read back by a [`FrameReader`].
//!
//! The reader is **bounded**: a frame longer than [`MAX_FRAME_BYTES`] is
//! an [`io::ErrorKind::InvalidData`] error, never an ever-growing buffer,
//! so a peer streaming an endless unterminated line costs at most the cap
//! plus one read chunk of memory. Callers drop the connection on that
//! error — a stream that lost a frame boundary cannot resynchronize.

// Wire code faces untrusted bytes: panicking extractors are banned here
// (the test module opts back in, where a panic is the failure report).
#![deny(clippy::unwrap_used)]

use std::io::{self, Read, Write};

use serde::Serialize;

/// Largest frame a [`FrameReader`] accepts, in bytes (terminator
/// excluded). The largest frames in practice are daemon `Done` events
/// carrying a run summary: about 6.5 KB in the `service-mixed`
/// benchmark, about 50 KB for all ten scenarios at quick scale. The cap
/// leaves almost two orders of magnitude of headroom over the latter
/// while bounding what one peer can make a reader hold.
pub const MAX_FRAME_BYTES: usize = 4 << 20;

/// Bytes requested from the transport per read.
const READ_CHUNK: usize = 8 << 10;

/// Serializes `frame` as one NDJSON line, terminator included.
///
/// # Errors
/// Returns [`io::ErrorKind::InvalidData`] if the value cannot be
/// serialized.
pub fn encode_frame<T: Serialize>(frame: &T) -> io::Result<Vec<u8>> {
    let mut line = serde_json::to_vec(frame)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    line.push(b'\n');
    Ok(line)
}

/// Writes `frame` as one NDJSON line and flushes it.
///
/// # Errors
/// Returns the transport's I/O error, or the serialization error of
/// [`encode_frame`].
pub fn write_frame<W: Write, T: Serialize>(output: &mut W, frame: &T) -> io::Result<()> {
    output.write_all(&encode_frame(frame)?)?;
    output.flush()
}

/// One read step of a [`FrameReader`].
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete line (without its terminator).
    Line(String),
    /// The read timed out with no complete line buffered — the caller
    /// may poll state (the drain flag, a reply deadline) and try again.
    /// Only transports with a read timeout (sockets) ever yield it.
    Idle,
    /// The peer closed the connection.
    Eof,
}

/// An incremental, bounded NDJSON line reader that survives read
/// timeouts.
///
/// Partial bytes survive between calls, so a transport with a read
/// timeout yields [`Frame::Idle`] without corrupting the stream. Each byte is scanned for the terminator once,
/// so reading a frame is linear in its length.
pub struct FrameReader<R: Read> {
    input: R,
    buffer: Vec<u8>,
    /// Prefix of `buffer` already known to hold no `\n`.
    scanned: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a reader.
    pub fn new(input: R) -> Self {
        FrameReader {
            input,
            buffer: Vec::new(),
            scanned: 0,
        }
    }

    /// Reads until one complete line, a timeout, or EOF.
    ///
    /// # Errors
    /// Returns [`io::ErrorKind::InvalidData`] "frame exceeds … bytes" for
    /// a frame longer than [`MAX_FRAME_BYTES`], and the underlying I/O
    /// error for failures that are neither timeouts nor EOF.
    pub fn read_frame(&mut self) -> io::Result<Frame> {
        loop {
            let newline = self.buffer[self.scanned..]
                .iter()
                .position(|&b| b == b'\n')
                .map(|offset| self.scanned + offset);
            let frame_len = newline.unwrap_or(self.buffer.len());
            if frame_len > MAX_FRAME_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("frame exceeds {MAX_FRAME_BYTES} bytes"),
                ));
            }
            if let Some(end) = newline {
                let mut line: Vec<u8> = self.buffer.drain(..=end).collect();
                self.scanned = 0;
                line.pop(); // the '\n'
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(Frame::Line(String::from_utf8_lossy(&line).into_owned()));
            }
            self.scanned = self.buffer.len();
            let mut chunk = [0u8; READ_CHUNK];
            match self.input.read(&mut chunk) {
                Ok(0) if self.buffer.is_empty() => return Ok(Frame::Eof),
                Ok(0) => {
                    // A final unterminated line; the next call sees EOF.
                    self.scanned = 0;
                    let line = std::mem::take(&mut self.buffer);
                    return Ok(Frame::Line(String::from_utf8_lossy(&line).into_owned()));
                }
                Ok(read) => self.buffer.extend_from_slice(&chunk[..read]),
                Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
                Err(error)
                    if matches!(
                        error.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(Frame::Idle)
                }
                Err(error) => return Err(error),
            }
        }
    }
}

/// Test support: a lazy reader of `total` bytes without a single
/// newline that counts what it hands out — proof that a bounded reader
/// stopped near the cap instead of buffering the whole stream.
#[cfg(test)]
pub(crate) mod endless {
    use std::io::{self, Read};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// The stream length the over-cap tests send: 400 MiB.
    pub(crate) const STREAM_BYTES: usize = 400 << 20;

    /// Most bytes a bounded reader may consume before refusing a frame.
    pub(crate) const CONSUME_BOUND: usize = super::MAX_FRAME_BYTES + super::READ_CHUNK;

    pub(crate) struct Unterminated {
        remaining: usize,
        pub(crate) consumed: Arc<AtomicUsize>,
    }

    impl Unterminated {
        pub(crate) fn new(total: usize) -> Self {
            Unterminated {
                remaining: total,
                consumed: Arc::new(AtomicUsize::new(0)),
            }
        }
    }

    impl Read for Unterminated {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.remaining);
            buf[..n].fill(b'x');
            self.remaining -= n;
            self.consumed.fetch_add(n, Ordering::SeqCst);
            Ok(n)
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::endless::{Unterminated, CONSUME_BOUND, STREAM_BYTES};
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn an_endless_unterminated_frame_is_refused_at_the_cap() {
        let input = Unterminated::new(STREAM_BYTES);
        let consumed = input.consumed.clone();
        let mut reader = FrameReader::new(input);
        let error = reader.read_frame().unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        assert!(error.to_string().contains("frame exceeds"), "{error}");
        let consumed = consumed.load(Ordering::SeqCst);
        assert!(
            consumed > MAX_FRAME_BYTES && consumed <= CONSUME_BOUND,
            "{consumed}"
        );
        assert!(reader.buffer.len() <= CONSUME_BOUND);
    }

    #[test]
    fn frames_up_to_the_cap_pass_and_one_byte_more_does_not() {
        let mut exact = vec![b'a'; MAX_FRAME_BYTES];
        exact.push(b'\n');
        let mut reader = FrameReader::new(&exact[..]);
        match reader.read_frame().unwrap() {
            Frame::Line(line) => assert_eq!(line.len(), MAX_FRAME_BYTES),
            other => panic!("expected a line, got {other:?}"),
        }
        assert_eq!(reader.read_frame().unwrap(), Frame::Eof);
        let mut over = vec![b'a'; MAX_FRAME_BYTES + 1];
        over.push(b'\n');
        let error = FrameReader::new(&over[..]).read_frame().unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn write_frame_emits_one_line_that_reads_back() {
        let mut output = Vec::new();
        write_frame(&mut output, &vec![1u32, 2, 3]).unwrap();
        write_frame(&mut output, &"second").unwrap();
        assert_eq!(output, b"[1,2,3]\n\"second\"\n");
        let mut reader = FrameReader::new(&output[..]);
        assert_eq!(reader.read_frame().unwrap(), Frame::Line("[1,2,3]".into()));
        assert_eq!(
            reader.read_frame().unwrap(),
            Frame::Line("\"second\"".into())
        );
        assert_eq!(reader.read_frame().unwrap(), Frame::Eof);
    }
}
