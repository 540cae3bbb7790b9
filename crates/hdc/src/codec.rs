//! A tiny bit-exact binary codec for model persistence.
//!
//! The workspace builds offline, so the vendored `serde` is an API-subset
//! marker stub that cannot actually serialize anything.  Persistence of
//! trained artifacts therefore goes through this explicit little-endian
//! codec instead: every component writes its fields in a documented order
//! through a [`Writer`] and reads them back through a [`Reader`].
//!
//! Floating-point values travel as their IEEE-754 bit patterns
//! ([`f32::to_bits`] / [`f64::to_bits`]), so a save → load round trip is
//! **bit-exact** — the loaded model reproduces every prediction of the
//! original bit for bit, which is the contract the detector artifact tests
//! pin.
//!
//! Versioning lives one level up, in one frame shared by every persisted
//! format ([`seal`] / [`unseal`]): a magic tag, a format version, the
//! payload and a CRC-32 trailer.  Readers refuse anything they do not
//! understand.

use std::error::Error;
use std::fmt;

/// Errors produced while decoding a persisted artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The byte stream ended before the expected field.
    UnexpectedEof {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// A decoded value failed validation (bad tag, malformed string,
    /// inconsistent shape, …).
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => {
                write!(f, "unexpected end of artifact: needed {needed} bytes, {remaining} left")
            }
            CodecError::Invalid(what) => write!(f, "invalid artifact field: {what}"),
        }
    }
}

impl Error for CodecError {}

/// Codec-local result alias.
pub type CodecResult<T> = std::result::Result<T, CodecError>;

/// Lookup table for [`crc32`] (reflected CRC-32, polynomial `0xEDB88320`).
const CRC32_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// The standard CRC-32 (IEEE 802.3, the zlib/PNG polynomial) of `bytes`.
///
/// Used as the integrity trailer of versioned artifact frames and as the
/// per-record checksum of the write-ahead log ([`crate::wal`]): corruption
/// of persisted bytes is detected up front instead of deserializing
/// garbage that happens to parse.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Seals a versioned frame: `magic`, then `version`, then whatever
/// `payload` writes, then a CRC-32 trailer over every preceding byte.  The
/// payload is written straight into the frame, never copied a second time.
pub fn seal(magic: &[u8; 4], version: u32, payload: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(magic);
    w.u32(version);
    payload(&mut w);
    let crc = crc32(w.as_slice());
    w.u32(crc);
    w.into_bytes()
}

/// Opens a frame written by [`seal`], returning a reader over its payload.
///
/// Checks the magic tag, then the version, then the CRC-32 trailer, so a
/// patched version word reports "version N is not supported" rather than a
/// checksum mismatch.  `what` names the format in every error.
///
/// # Errors
///
/// Returns [`CodecError::Invalid`] for a foreign magic tag, another version
/// or a checksum mismatch, and [`CodecError::UnexpectedEof`] for a frame too
/// short to hold its header and trailer.
pub fn unseal<'a>(
    bytes: &'a [u8],
    what: &str,
    magic: &[u8; 4],
    version: u32,
) -> CodecResult<Reader<'a>> {
    let mut head = Reader::new(bytes);
    let found = head.take(4)?;
    if found != magic {
        return Err(CodecError::Invalid(format!(
            "not a {what} (magic {found:02X?}, expected {magic:02X?})"
        )));
    }
    let found = head.u32()?;
    if found != version {
        return Err(CodecError::Invalid(format!(
            "{what} format version {found} is not supported (this build reads version {version})"
        )));
    }
    if head.remaining() < 4 {
        return Err(CodecError::UnexpectedEof { needed: 4, remaining: head.remaining() });
    }
    let trailer_at = bytes.len() - 4;
    let stored = u32::from_le_bytes(bytes[trailer_at..].try_into().expect("4 bytes"));
    let computed = crc32(&bytes[..trailer_at]);
    if stored != computed {
        return Err(CodecError::Invalid(format!(
            "{what} checksum mismatch (stored {stored:08X}, computed {computed:08X}): the bytes \
             were corrupted after sealing"
        )));
    }
    Ok(Reader::new(&bytes[8..trailer_at]))
}

/// Appends little-endian fields to a byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Borrows the bytes written so far (e.g. to checksum a frame before
    /// appending its integrity trailer).
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Returns `true` if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes raw bytes verbatim (no length prefix).
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (platform-independent width).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `i32`, little-endian.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f32` as its IEEE-754 bit pattern (bit-exact).
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (bit-exact).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a bool as one byte (`0` / `1`).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.bytes(v.as_bytes());
    }

    /// Writes a length-prefixed `f32` slice, element-wise bit-exact.
    pub fn f32_slice(&mut self, values: &[f32]) {
        self.usize(values.len());
        for &v in values {
            self.f32(v);
        }
    }

    /// Writes a length-prefixed `i32` slice.
    pub fn i32_slice(&mut self, values: &[i32]) {
        self.usize(values.len());
        for &v in values {
            self.i32(v);
        }
    }

    /// Writes a length-prefixed `f64` slice, element-wise bit-exact.
    pub fn f64_slice(&mut self, values: &[f64]) {
        self.usize(values.len());
        for &v in values {
            self.f64(v);
        }
    }

    /// Writes a length-prefixed `u64` slice (packed hypervector words).
    pub fn u64_slice(&mut self, values: &[u64]) {
        self.usize(values.len());
        for &v in values {
            self.u64(v);
        }
    }
}

/// Reads little-endian fields from a byte slice, in write order.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Returns `true` when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof { needed: n, remaining: self.remaining() });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] at end of input.
    pub fn u8(&mut self) -> CodecResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] if the stream is short.
    pub fn u32(&mut self) -> CodecResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] if the stream is short.
    pub fn u64(&mut self) -> CodecResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a `usize` persisted as `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] on a short stream and
    /// [`CodecError::Invalid`] if the value does not fit a `usize`.
    pub fn usize(&mut self) -> CodecResult<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CodecError::Invalid(format!("length {v} overflows usize")))
    }

    /// Reads a little-endian `i32`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] if the stream is short.
    pub fn i32(&mut self) -> CodecResult<i32> {
        let b = self.take(4)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads an `f32` from its bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] if the stream is short.
    pub fn f32(&mut self) -> CodecResult<f32> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads an `f64` from its bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] if the stream is short.
    pub fn f64(&mut self) -> CodecResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool byte.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Invalid`] for any byte other than `0` / `1`.
    pub fn bool(&mut self) -> CodecResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Invalid(format!("bool byte {other}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Invalid`] for non-UTF-8 payloads and
    /// [`CodecError::UnexpectedEof`] on a short stream.
    pub fn str(&mut self) -> CodecResult<String> {
        let len = self.usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| CodecError::Invalid(format!("non-UTF-8 string: {e}")))
    }

    /// Reads a length-prefixed `f32` vector.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] on a short stream.
    pub fn f32_vec(&mut self) -> CodecResult<Vec<f32>> {
        let len = self.usize()?;
        self.sized(len, 4)?;
        (0..len).map(|_| self.f32()).collect()
    }

    /// Reads a length-prefixed `i32` vector.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] on a short stream.
    pub fn i32_vec(&mut self) -> CodecResult<Vec<i32>> {
        let len = self.usize()?;
        self.sized(len, 4)?;
        (0..len).map(|_| self.i32()).collect()
    }

    /// Reads a length-prefixed `f64` vector.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] on a short stream.
    pub fn f64_vec(&mut self) -> CodecResult<Vec<f64>> {
        let len = self.usize()?;
        self.sized(len, 8)?;
        (0..len).map(|_| self.f64()).collect()
    }

    /// Reads a length-prefixed `u64` vector.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] on a short stream.
    pub fn u64_vec(&mut self) -> CodecResult<Vec<u64>> {
        let len = self.usize()?;
        self.sized(len, 8)?;
        (0..len).map(|_| self.u64()).collect()
    }

    /// Guards vector reads against corrupted length prefixes: a declared
    /// length whose payload cannot possibly fit the remaining bytes fails
    /// up front instead of allocating `len` elements first.
    fn sized(&self, len: usize, element_bytes: usize) -> CodecResult<()> {
        let needed = len.saturating_mul(element_bytes);
        if needed > self.remaining() {
            return Err(CodecError::UnexpectedEof { needed, remaining: self.remaining() });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_reference_vectors() {
        // The check value every CRC-32 implementation must reproduce.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let mut bytes = (0u8..=255).collect::<Vec<_>>();
        let clean = crc32(&bytes);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                bytes[i] ^= 1 << bit;
                assert_ne!(crc32(&bytes), clean, "flip at byte {i} bit {bit} went undetected");
                bytes[i] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn sealed_frames_round_trip_and_name_their_format_in_errors() {
        let frame = seal(b"TEST", 3, |w| w.u64(42));
        assert_eq!(frame.len(), 4 + 4 + 8 + 4);
        let mut r = unseal(&frame, "test frame", b"TEST", 3).unwrap();
        assert_eq!(r.u64().unwrap(), 42);
        assert!(r.is_exhausted());

        let err = unseal(&frame, "test frame", b"ELSE", 3).unwrap_err();
        assert!(err.to_string().contains("not a test frame"), "{err}");
        // A patched version word reports the version, not the checksum.
        let mut old = frame.clone();
        old[4..8].copy_from_slice(&2u32.to_le_bytes());
        let err = unseal(&old, "test frame", b"TEST", 3).unwrap_err();
        assert!(err.to_string().contains("test frame format version 2 is not supported"), "{err}");
        let mut flipped = frame.clone();
        flipped[10] ^= 0x40;
        let err = unseal(&flipped, "test frame", b"TEST", 3).unwrap_err();
        assert!(err.to_string().contains("test frame checksum mismatch"), "{err}");
        for cut in [0, 3, 7, 10] {
            assert!(unseal(&frame[..cut], "test frame", b"TEST", 3).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn scalars_round_trip_bit_exactly() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.usize(42);
        w.i32(-123_456);
        w.f32(-0.0);
        w.f32(f32::NAN);
        w.f64(std::f64::consts::PI);
        w.bool(true);
        w.str("σχήμα");
        assert!(!w.is_empty());
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.i32().unwrap(), -123_456);
        assert_eq!(r.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert!(r.f32().unwrap().is_nan());
        assert_eq!(r.f64().unwrap(), std::f64::consts::PI);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "σχήμα");
        assert!(r.is_exhausted());
    }

    #[test]
    fn slices_round_trip() {
        let mut w = Writer::new();
        w.f32_slice(&[1.0, -2.5, 0.0]);
        w.i32_slice(&[-1, 0, 7]);
        w.f64_slice(&[f64::MIN_POSITIVE]);
        w.u64_slice(&[u64::MAX, 0, 0xDEAD_BEEF_CAFE_F00D]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.f32_vec().unwrap(), vec![1.0, -2.5, 0.0]);
        assert_eq!(r.i32_vec().unwrap(), vec![-1, 0, 7]);
        assert_eq!(r.f64_vec().unwrap(), vec![f64::MIN_POSITIVE]);
        assert_eq!(r.u64_vec().unwrap(), vec![u64::MAX, 0, 0xDEAD_BEEF_CAFE_F00D]);
    }

    #[test]
    fn truncated_streams_report_eof() {
        let mut w = Writer::new();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5]);
        assert!(matches!(r.u64(), Err(CodecError::UnexpectedEof { .. })));
    }

    #[test]
    fn corrupted_length_prefixes_fail_before_allocating() {
        let mut w = Writer::new();
        w.usize(usize::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.f32_vec(), Err(CodecError::UnexpectedEof { .. })));
    }

    #[test]
    fn invalid_payloads_are_rejected() {
        let mut r = Reader::new(&[2]);
        assert!(matches!(r.bool(), Err(CodecError::Invalid(_))));
        let mut w = Writer::new();
        w.usize(2);
        w.bytes(&[0xFF, 0xFF]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.str(), Err(CodecError::Invalid(_))));
        assert!(CodecError::Invalid("x".into()).to_string().contains("invalid"));
        assert!(CodecError::UnexpectedEof { needed: 4, remaining: 0 }.to_string().contains("end"));
    }
}
