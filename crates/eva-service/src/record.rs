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
/// a single `chunk_len`-byte window slides over the haystack, and its first
/// 8 bytes pick one slot of a 2^20-slot table marking the full chunks'
/// heads; only a window whose slot is marked is hashed whole into the set
/// of chunks.
///
/// # Panics
///
/// Panics if `chunk_len` is zero.
pub fn contains_any_chunk(haystack: &[u8], probe: &[u8], chunk_len: usize) -> bool {
    let head = |w: &[u8]| w.iter().take(8).fold(0u64, |h, &b| h << 8 | u64::from(b));
    let slot = |w: &[u8]| (head(w).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 44) as usize;
    let chunks = probe.chunks_exact(chunk_len);
    let tail = chunks.remainder();
    let set: HashSet<&[u8]> = chunks.collect();
    let mut marked = vec![false; 1 << 20];
    for chunk in &set {
        marked[slot(chunk)] = true;
    }
    let hit = |w: &[u8]| marked[slot(w)] && set.contains(w);
    haystack.windows(chunk_len).any(hit) || contains_bytes(haystack, tail)
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

    /// Over a two-letter alphabet most windows share a chunk's first 8
    /// bytes, so the head lookup hits often and the full comparison decides.
    #[test]
    fn chunk_scan_agrees_with_one_substring_scan_per_chunk() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..200 {
            let chunk_len = [1, 5, 8, 9, 32][round % 5];
            let mut bytes =
                |len: usize| -> Vec<u8> { (0..len).map(|_| (next() & 1) as u8).collect() };
            let probe = bytes(chunk_len * 6 + round % chunk_len);
            let mut traffic = bytes(64 + round * 3);
            // Plant a chunk, or a chunk with its last byte flipped.
            let chunk = &probe[chunk_len * (round % 6)..][..chunk_len];
            let at = round % (traffic.len() - chunk_len);
            traffic[at..at + chunk_len].copy_from_slice(chunk);
            if round % 3 == 0 {
                traffic[at + chunk_len - 1] ^= 1;
            }
            let expected = probe.chunks(chunk_len).any(|c| contains_bytes(&traffic, c));
            assert_eq!(
                contains_any_chunk(&traffic, &probe, chunk_len),
                expected,
                "round {round}"
            );
        }
    }
}
