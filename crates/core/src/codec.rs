//! Versioned little-endian binary codec for persistent plan artifacts.
//!
//! The plan cache (see [`crate::cache`]) stores a [`FlowPlan`]'s factored
//! artifacts — Cholesky factors, cross blocks, conditional sigmas, batch
//! schedules, hold bounds — as one compact blob. This module is the byte
//! layer underneath: a [`Writer`] that appends fixed-width little-endian
//! primitives and length-prefixed sequences, and a [`Reader`] that
//! consumes them *fallibly*. Nothing in here panics on malformed input: a
//! truncated, corrupted, or adversarially resized blob surfaces as a
//! [`CodecError`], which the cache layer converts into a counted
//! rebuild-from-scratch fallback.
//!
//! Layout rules:
//!
//! * all integers little-endian; `usize` always travels as `u64`;
//! * `f64` travels as its IEEE-754 bit pattern (bitwise round-trip, NaN
//!   payloads included);
//! * sequences are length-prefixed (`u64` count), and the reader checks
//!   the declared count against the bytes actually remaining *before*
//!   allocating, so a corrupt length prefix cannot OOM the process.
//!
//! [`FlowPlan`]: crate::FlowPlan

use std::error::Error;
use std::fmt;

/// Decoding failure: what was wrong with the blob.
///
/// Every variant is a recoverable condition — the cache layer counts the
/// incident and rebuilds the plan from source instead of propagating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The blob ended before the declared content did.
    UnexpectedEof {
        /// Byte offset at which more data was needed.
        offset: usize,
        /// Bytes needed beyond the end.
        needed: usize,
    },
    /// The file does not start with the plan-cache magic.
    BadMagic,
    /// The blob was written by a different codec version.
    VersionSkew {
        /// Version tag found in the blob.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The payload checksum does not match its header.
    ChecksumMismatch,
    /// The blob's cache key does not match the requested key.
    KeyMismatch,
    /// Structurally well-formed bytes that violate a semantic invariant
    /// (an index out of range, inconsistent dimensions, a rejected
    /// sub-structure).
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { offset, needed } => {
                write!(f, "unexpected end of blob at offset {offset} ({needed} more bytes needed)")
            }
            CodecError::BadMagic => write!(f, "not a plan-cache blob (bad magic)"),
            CodecError::VersionSkew { found, expected } => {
                write!(f, "codec version skew: blob v{found}, this build reads v{expected}")
            }
            CodecError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            CodecError::KeyMismatch => write!(f, "cache key mismatch"),
            CodecError::Invalid(what) => write!(f, "invalid plan blob: {what}"),
        }
    }
}

impl Error for CodecError {}

/// Append-only encoder over a growable byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Fresh writer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Writer { buf: Vec::with_capacity(cap) }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` widened to `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its IEEE bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed `usize` sequence.
    pub fn put_usize_slice(&mut self, vs: &[usize]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_usize(v);
        }
    }

    /// Appends a length-prefixed `f64` sequence (bit patterns).
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_usize(vs.len());
        self.buf.reserve(vs.len() * 8);
        for &v in vs {
            self.put_f64(v);
        }
    }
}

/// Fallible cursor over an encoded byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reader positioned at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// `true` once every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                offset: self.pos,
                needed: n - self.remaining(),
            });
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a `u64` and narrows it to `usize`, rejecting values that do
    /// not fit the platform.
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.get_u64()?).map_err(|_| CodecError::Invalid("usize overflow"))
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a sequence length that claims `elem_bytes` bytes per element,
    /// verifying the claim against the remaining bytes *before* any
    /// allocation — a corrupt length prefix fails cleanly instead of
    /// reserving gigabytes.
    fn get_len(&mut self, elem_bytes: usize) -> Result<usize, CodecError> {
        let len = self.get_usize()?;
        let total =
            len.checked_mul(elem_bytes).ok_or(CodecError::Invalid("sequence length overflow"))?;
        if total > self.remaining() {
            return Err(CodecError::UnexpectedEof {
                offset: self.pos,
                needed: total - self.remaining(),
            });
        }
        Ok(len)
    }

    /// Reads a length-prefixed `usize` sequence.
    pub fn get_usize_vec(&mut self) -> Result<Vec<usize>, CodecError> {
        let len = self.get_len(8)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_usize()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed `f64` sequence (bit patterns).
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, CodecError> {
        let len = self.get_len(8)?;
        let bytes = self.take(len * 8)?;
        // Chunked decode: one pass over the raw bytes, no per-element
        // bounds checks — the hot path for the large factor blocks.
        let mut out = Vec::with_capacity(len);
        out.extend(bytes.chunks_exact(8).map(|c| {
            f64::from_bits(u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        }));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_usize(12345);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_usize().unwrap(), 12345);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0_f64).to_bits());
        assert!(r.get_f64().unwrap().is_nan());
        assert!(r.is_exhausted());
    }

    #[test]
    fn sequences_round_trip() {
        let mut w = Writer::new();
        w.put_usize_slice(&[0, 7, usize::MAX >> 1]);
        w.put_f64_slice(&[1.5, -2.25, f64::INFINITY]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_usize_vec().unwrap(), vec![0, 7, usize::MAX >> 1]);
        let fs = r.get_f64_vec().unwrap();
        assert_eq!(fs.len(), 3);
        assert_eq!(fs[0], 1.5);
        assert_eq!(fs[1], -2.25);
        assert_eq!(fs[2], f64::INFINITY);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.put_f64_slice(&[1.0, 2.0, 3.0]);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(
                r.get_f64_vec().is_err(),
                "truncation at {cut}/{} must surface as an error",
                bytes.len()
            );
        }
    }

    #[test]
    fn corrupt_length_prefix_does_not_allocate() {
        // A length prefix claiming 2^60 elements in an 8-byte blob must be
        // rejected by the remaining-bytes check, not attempted.
        let mut w = Writer::new();
        w.put_u64(1 << 60);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.get_f64_vec(), Err(CodecError::UnexpectedEof { .. })));
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.get_usize_vec(), Err(CodecError::UnexpectedEof { .. })));
    }

    #[test]
    fn errors_render_readably() {
        let e = CodecError::VersionSkew { found: 9, expected: 1 };
        assert!(e.to_string().contains("v9"));
        assert!(CodecError::BadMagic.to_string().contains("magic"));
        let e = CodecError::UnexpectedEof { offset: 3, needed: 5 };
        assert!(e.to_string().contains("offset 3"));
    }
}
