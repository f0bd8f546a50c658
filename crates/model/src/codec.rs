//! The byte codec under every wire format, and the one FNV-1a hash.
//!
//! `SKT1`, `SKO1`, `SKP1` and `SKS1` (`sekitei-spec`), `SKC1`
//! (`sekitei-cert`) and the serving envelope (`sekitei-server`) all write
//! through [`Writer`] and read through [`Reader`], so big-endian layout,
//! length caps, truncation and trailing-byte rejection are written once.
//! The codec lives here because this crate sits under all three and, like
//! them, holds no search code: the certificate checker stays independent
//! of the search it audits. It is std-only.
//!
//! Every [`Reader`] method checks its bounds, so a decoder built from them
//! is total as long as it also bounds its own recursion: any byte string
//! yields a value or a [`DecodeError`], never a panic.

use std::fmt;

/// Why a byte string failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended at byte `at`, `need` bytes short of the next field.
    Truncated {
        /// Offset of the field that did not fit.
        at: usize,
        /// Bytes the field needed.
        need: usize,
    },
    /// A leading magic other than the expected one.
    BadMagic {
        /// The magic the format starts with.
        expected: [u8; 4],
    },
    /// A length or count prefix above the caller's cap.
    TooLong {
        /// The decoded length.
        len: usize,
        /// The cap it exceeds.
        cap: usize,
    },
    /// A one-byte enum or option tag with no meaning in its field.
    BadTag {
        /// What the tag selects (`"option"`, `"expr"`, `"locus"`, …).
        field: &'static str,
        /// The tag read.
        tag: u8,
    },
    /// A string field that is not UTF-8.
    Utf8,
    /// Bytes left over after the last field.
    Trailing(usize),
    /// Well-formed fields whose values the format refuses (a checksum
    /// mismatch, an unknown version, a formula nested too deep, …).
    Invalid(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { at, need } => {
                write!(f, "unexpected end of input at byte {at} (need {need} more)")
            }
            DecodeError::BadMagic { expected } => {
                write!(f, "bad magic (expected {})", String::from_utf8_lossy(expected))
            }
            DecodeError::TooLong { len, cap } => write!(f, "length {len} exceeds the cap of {cap}"),
            DecodeError::BadTag { field, tag } => write!(f, "bad {field} tag {tag}"),
            DecodeError::Utf8 => f.write_str("invalid utf-8"),
            DecodeError::Trailing(n) => write!(f, "{n} trailing bytes"),
            DecodeError::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Big-endian byte writer over a `Vec<u8>`.
#[derive(Debug, Clone, Default)]
pub struct Writer(Vec<u8>);

impl Writer {
    /// An empty writer with `cap` bytes reserved.
    pub fn with_capacity(cap: usize) -> Writer {
        Writer(Vec::with_capacity(cap))
    }

    /// Raw bytes, unprefixed (magics, nested encodings).
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.0.extend_from_slice(b);
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// A big-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_be_bytes());
    }

    /// A big-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_be_bytes());
    }

    /// An `f64` by its big-endian bits.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_be_bytes());
    }

    /// Tag 0, or tag 1 then the value.
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
        }
    }

    /// A `u32` count, then each item through `put`.
    pub fn list<I>(&mut self, items: I, mut put: impl FnMut(&mut Writer, I::Item))
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.u32(items.len() as u32);
        for x in items {
            put(self, x);
        }
    }

    /// A `u32` length, then the bytes.
    #[inline]
    pub fn prefixed(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.bytes(b);
    }

    /// A `u32` byte length, then the UTF-8 bytes.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.prefixed(s.as_bytes());
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// The written bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.0
    }
}

/// Bounds-checked big-endian reader over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, at: 0 }
    }

    /// Bytes read so far.
    pub fn position(&self) -> usize {
        self.at
    }

    /// The next `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() - self.at < n {
            return Err(DecodeError::Truncated { at: self.at, need: n });
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    /// Everything not yet read (a nested encoding that runs to the end).
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.at..];
        self.at = self.buf.len();
        s
    }

    /// Consume `magic` or fail with [`DecodeError::BadMagic`].
    pub fn magic(&mut self, magic: &[u8; 4]) -> Result<(), DecodeError> {
        if self.bytes(4)? != magic {
            return Err(DecodeError::BadMagic { expected: *magic });
        }
        Ok(())
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.bytes(N)?);
        Ok(a)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes(1)?[0])
    }

    /// A big-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// A big-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// An `f64` from its big-endian bits.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_be_bytes(self.array()?))
    }

    /// What [`Writer::opt_f64`] wrote.
    pub fn opt_f64(&mut self) -> Result<Option<f64>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            tag => Err(DecodeError::BadTag { field: "option", tag }),
        }
    }

    /// A one-byte tag selecting `values[tag]`; a tag past the end is a
    /// [`DecodeError::BadTag`] naming `field`.
    pub fn tag<T: Copy>(&mut self, field: &'static str, values: &[T]) -> Result<T, DecodeError> {
        let tag = self.u8()?;
        values.get(usize::from(tag)).copied().ok_or(DecodeError::BadTag { field, tag })
    }

    /// A `u32` length or element count, refused above `cap` so a corrupt
    /// prefix cannot size an allocation.
    #[inline]
    pub fn count(&mut self, cap: usize) -> Result<usize, DecodeError> {
        let len = self.u32()? as usize;
        if len > cap {
            return Err(DecodeError::TooLong { len, cap });
        }
        Ok(len)
    }

    /// What [`Writer::list`] wrote: a count of at most `cap`, then each
    /// item through `get`.
    pub fn list<T>(
        &mut self,
        cap: usize,
        mut get: impl FnMut(&mut Reader<'a>) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.count(cap)?;
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(get(self)?);
        }
        Ok(out)
    }

    /// What [`Writer::prefixed`] wrote, at most `cap` bytes long.
    #[inline]
    pub fn prefixed(&mut self, cap: usize) -> Result<&'a [u8], DecodeError> {
        let n = self.count(cap)?;
        self.bytes(n)
    }

    /// What [`Writer::str`] wrote, at most `cap` bytes long.
    #[inline]
    pub fn str(&mut self, cap: usize) -> Result<String, DecodeError> {
        let b = self.prefixed(cap)?;
        String::from_utf8(b.to_vec()).map_err(|_| DecodeError::Utf8)
    }

    /// End of input: fails with [`DecodeError::Trailing`] if any byte is
    /// left unread.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.buf.len() - self.at {
            0 => Ok(()),
            n => Err(DecodeError::Trailing(n)),
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a, 64-bit, over `bytes`: the content key of the serving caches,
/// the `SKS1` record checksum and the base of every structural
/// fingerprint. Deterministic across runs and platforms.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Streaming FNV-1a: the hash of everything written, in order, equals
/// [`fnv1a`] of the concatenation. Integers go in as little-endian bytes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// The empty hash (the FNV offset basis).
    pub const fn new() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }

    /// Hash `bytes`.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Hash one byte.
    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.write(&[b]);
    }

    /// Hash a `u32`'s little-endian bytes.
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Hash a `u64`'s little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        // From the FNV reference test suite (64-bit FNV-1a).
        for (input, want) in [
            (&b""[..], 0xcbf2_9ce4_8422_2325),
            (b"a", 0xaf63_dc4c_8601_ec8c),
            (b"foobar", 0x8594_4171_f739_67e8),
        ] {
            assert_eq!(fnv1a(input), want, "{input:?}");
        }
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write_u8(b'b');
        h.write(b"ar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
        let mut w = Fnv1a::new();
        w.write_u32(0x0403_0201);
        w.write_u64(0x0c0b_0a09_0807_0605);
        assert_eq!(w.finish(), fnv1a(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]));
    }

    #[test]
    fn every_field_roundtrips_and_the_end_is_checked() {
        let mut w = Writer::with_capacity(64);
        w.bytes(b"TEST");
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-1.5);
        w.opt_f64(None);
        w.opt_f64(Some(2.25));
        w.str("héllo");
        w.prefixed(&[9, 8]);
        w.list([3u32, 4], |w, x| w.u32(x));
        let bytes = w.into_vec();

        let mut r = Reader::new(&bytes);
        r.magic(b"TEST").unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap(), -1.5);
        assert_eq!(r.opt_f64().unwrap(), None);
        assert_eq!(r.opt_f64().unwrap(), Some(2.25));
        assert_eq!(r.str(16).unwrap(), "héllo");
        assert_eq!(r.prefixed(2).unwrap(), &[9, 8]);
        assert_eq!(r.list(2, |r| r.u32()).unwrap(), [3, 4]);
        assert_eq!(r.position(), bytes.len());
        r.finish().unwrap();

        // every truncation fails on some field, never panics
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let all = (|| {
                r.magic(b"TEST")?;
                r.u8()?;
                r.u32()?;
                r.u64()?;
                r.f64()?;
                r.opt_f64()?;
                r.opt_f64()?;
                r.str(16)?;
                r.prefixed(2)?;
                r.list(2, |r| r.u32())?;
                Ok::<_, DecodeError>(())
            })();
            assert!(matches!(all, Err(DecodeError::Truncated { .. })), "cut {cut}: {all:?}");
        }
    }

    #[test]
    fn malformed_fields_are_refused() {
        assert_eq!(
            Reader::new(b"SKT1").magic(b"SKC1"),
            Err(DecodeError::BadMagic { expected: *b"SKC1" })
        );
        assert_eq!(
            Reader::new(&[2]).opt_f64(),
            Err(DecodeError::BadTag { field: "option", tag: 2 })
        );
        assert_eq!(Reader::new(&[1]).tag("bit", &[false, true]), Ok(true));
        assert_eq!(
            Reader::new(&[2]).tag("bit", &[false, true]),
            Err(DecodeError::BadTag { field: "bit", tag: 2 })
        );
        assert_eq!(
            Reader::new(&[0, 0, 0, 9]).list(8, |r| r.u8()),
            Err(DecodeError::TooLong { len: 9, cap: 8 })
        );
        assert_eq!(Reader::new(&[0, 0, 0, 1, 0xff]).str(8), Err(DecodeError::Utf8));
        let mut r = Reader::new(&[1, 2, 3]);
        r.u8().unwrap();
        assert_eq!(r.clone().finish(), Err(DecodeError::Trailing(2)));
        assert_eq!(r.rest(), &[2, 3]);
        r.finish().unwrap();
    }
}
