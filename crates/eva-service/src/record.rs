//! A recording transport wrapper for audits and measurements.

use std::collections::HashSet;
use std::io::{Read, Result, Write};

/// Wraps any byte stream and records every byte sent and received, so tests
/// and examples can (a) measure wire traffic and (b) scan the captured bytes
/// for material that must never appear on the socket (secret keys).
#[derive(Debug)]
pub struct RecordingStream<S> {
    inner: S,
    sent: Vec<u8>,
    received: Vec<u8>,
}

impl<S> RecordingStream<S> {
    /// Wraps a stream.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            sent: Vec::new(),
            received: Vec::new(),
        }
    }

    /// Every byte written so far.
    pub fn sent(&self) -> &[u8] {
        &self.sent
    }

    /// Every byte read so far.
    pub fn received(&self) -> &[u8] {
        &self.received
    }

    /// Unwraps the inner stream, returning the captured traffic as
    /// `(sent, received)`.
    pub fn into_parts(self) -> (S, Vec<u8>, Vec<u8>) {
        (self.inner, self.sent, self.received)
    }
}

/// Returns true iff `needle` occurs contiguously anywhere in `haystack`
/// (used to scan captured traffic for secret-key bytes).
pub fn contains_bytes(haystack: &[u8], needle: &[u8]) -> bool {
    !needle.is_empty() && haystack.windows(needle.len()).any(|w| w == needle)
}

/// Returns true iff any chunk of `probe` — `probe.chunks(chunk_len)`, the
/// last one possibly shorter — occurs contiguously anywhere in `haystack`.
///
/// The same answer as asking [`contains_bytes`] once per chunk, in one pass:
/// the full chunks go into a hash set and a single `chunk_len`-byte window
/// slides over the haystack, so a key-sized probe over megabytes of traffic
/// costs one lookup per byte, not one scan per chunk.
///
/// # Panics
///
/// Panics if `chunk_len` is zero.
pub fn contains_any_chunk(haystack: &[u8], probe: &[u8], chunk_len: usize) -> bool {
    let chunks = probe.chunks_exact(chunk_len);
    let tail = chunks.remainder();
    let set: HashSet<&[u8]> = chunks.collect();
    haystack.windows(chunk_len).any(|w| set.contains(w)) || contains_bytes(haystack, tail)
}

impl<S: Read> Read for RecordingStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        let n = self.inner.read(buf)?;
        self.received.extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

impl<S: Write> Write for RecordingStream<S> {
    fn write(&mut self, buf: &[u8]) -> Result<usize> {
        let n = self.inner.write(buf)?;
        self.sent.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_both_directions() {
        let mut stream = RecordingStream::new(std::io::Cursor::new(vec![9u8, 8, 7]));
        let mut buf = [0u8; 2];
        stream.read_exact(&mut buf).unwrap();
        assert_eq!(stream.received(), &[9, 8]);
        stream.write_all(&[1, 2, 3]).unwrap();
        assert_eq!(stream.sent(), &[1, 2, 3]);
    }

    #[test]
    fn substring_scan() {
        assert!(contains_bytes(&[1, 2, 3, 4], &[2, 3]));
        assert!(!contains_bytes(&[1, 2, 3, 4], &[3, 2]));
        assert!(!contains_bytes(&[1, 2], &[]));
    }

    #[test]
    fn chunk_scan_finds_a_planted_chunk_anywhere_and_nothing_in_clean_traffic() {
        // xorshift64: bytes that repeat no 32-byte window by chance.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut bytes = |len: usize| -> Vec<u8> {
            (0..len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state as u8
                })
                .collect()
        };
        let probe = bytes(32 * 64);
        let traffic = bytes(1 << 16);
        assert!(!contains_any_chunk(&traffic, &probe, 32), "clean traffic");
        let chunk = &probe[32 * 17..32 * 18];
        for at in [0, 1001, traffic.len() - 32] {
            let mut planted = traffic.clone();
            planted[at..at + 32].copy_from_slice(chunk);
            assert!(contains_any_chunk(&planted, &probe, 32), "chunk at {at}");
        }
        // A probe whose length is not a multiple of the chunk: its short
        // tail counts, as in `probe.chunks(32)`.
        let tail = &probe[..40];
        let mut planted = traffic.clone();
        planted[555..563].copy_from_slice(&tail[32..]);
        assert!(contains_any_chunk(&planted, tail, 32), "tail chunk");
        assert!(
            !contains_any_chunk(&traffic[..16], &probe, 32),
            "short haystack"
        );
        assert!(!contains_any_chunk(&traffic, &[], 32), "empty probe");
    }
}
