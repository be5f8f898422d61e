//! Byte-level codec and declarative records for crash-safe persistence
//! and content keys.
//!
//! The disk-backed artifact cache, the campaign journal and the service
//! protocol (see the `boomflow` crate) serialize their values with this
//! codec instead of a general serialization framework: every value is
//! written little-endian in a fixed field order, floats are stored by
//! bit pattern (so a round trip is bit-identical, which the resume tests
//! diff on), and every length read from an untrusted buffer is validated
//! against the bytes actually present before anything is allocated — a
//! bit-flipped length field must yield [`CodecError`], never an
//! allocation bomb or a panic.
//!
//! ## Records
//!
//! A persisted or keyed type is declared once with [`record!`](crate::record!): the one
//! field list gives the struct, its [`Codec`] (encode, decode and a
//! minimum encoded size that bounds every length read), its canonical
//! content key, and — for counter records — [`Counters::is_active`].
//! Every field names its mode, so a field added without choosing how it
//! is encoded and keyed does not compile:
//!
//! | mode            | encoded | in the key                                  |
//! |-----------------|---------|---------------------------------------------|
//! | `key`           | yes     | yes                                         |
//! | `nokey`         | yes     | no (a label such as a display name)         |
//! | `skip`          | no      | no (decodes as `Default`)                   |
//! | `key_elems`     | yes     | elements only, without the length prefix    |
//! | `key_if_active` | yes     | only when [`Counters::is_active`]           |
//!
//! The key is FNV-1a ([`fnv1a`]) over the canonical key stream
//! ([`Codec::key`]): the encoding with out-of-key fields left out, so two
//! values that differ only in out-of-key fields share a key. The last two
//! modes exist so the detailed core's statistics fingerprint keeps the
//! exact values its golden tests pin. Tagged enums implement [`Codec`] by
//! hand ([`tags!`](crate::tags!) covers the fieldless ones).

use std::fmt;

/// Why a serialized artifact failed to decode.
///
/// Decoders treat both variants the same way — the artifact is corrupt
/// and must be quarantined and recomputed — but the distinction makes
/// the fault-injection tests precise about *what* the reader detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was complete (torn write).
    Truncated,
    /// A structurally invalid value: bad tag, absurd length, non-UTF-8
    /// string, or trailing bytes (bit flip or format drift).
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated artifact"),
            CodecError::Invalid(what) => write!(f, "invalid artifact ({what})"),
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a 64-bit hash — the workspace's standard fingerprint/checksum
/// primitive (the same constants every cache key in the flow uses).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Little-endian append-only buffer writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` by exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends raw bytes with no length prefix (fixed-size fields).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u64` length prefix followed by the bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.put_raw(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Cursor reader over a serialized artifact.
///
/// Every accessor validates against the remaining bytes before touching
/// them; decoding a corrupt buffer yields [`CodecError`], never a panic.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of buffer.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of buffer.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of buffer.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a `usize` stored as a `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of buffer;
    /// [`CodecError::Invalid`] when the value does not fit `usize`.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::Invalid("usize overflow"))
    }

    /// Reads an `f64` by exact bit pattern.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of buffer.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool (strictly 0 or 1).
    ///
    /// # Errors
    ///
    /// [`CodecError::Invalid`] on any other byte value.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool tag")),
        }
    }

    /// Reads an element count whose elements occupy at least
    /// `min_elem_bytes` each, rejecting counts the remaining buffer
    /// cannot possibly hold — the guard that turns a bit-flipped length
    /// into [`CodecError`] instead of a gigabyte allocation.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the count cannot fit in the bytes
    /// that remain.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.usize()?;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    /// Reads a `u64`-length-prefixed byte slice.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the prefix exceeds the bytes that
    /// remain.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.seq_len(1)?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`CodecError::Invalid`] on non-UTF-8 contents.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| CodecError::Invalid("utf-8"))
    }

    /// Asserts the buffer was fully consumed — decoders call this last so
    /// a value followed by garbage is rejected, not silently accepted.
    ///
    /// # Errors
    ///
    /// [`CodecError::Invalid`] when bytes remain.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::Invalid("trailing bytes"));
        }
        Ok(())
    }
}

/// A value with one canonical byte encoding and a content key derived
/// from it. Implemented by [`record!`](crate::record!) for records and by hand for
/// tagged enums.
pub trait Codec: Sized {
    /// The fewest bytes any encoding of a value occupies: a sequence
    /// length read from a buffer is checked against `len × MIN_BYTES` ≤
    /// the bytes present before anything is allocated
    /// ([`ByteReader::seq_len`]).
    const MIN_BYTES: usize;

    /// Appends the encoding.
    fn encode(&self, w: &mut ByteWriter);

    /// Reads one value.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated or invalid input.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;

    /// Appends the canonical key stream: the encoding minus out-of-key
    /// fields.
    fn key(&self, w: &mut ByteWriter) {
        self.encode(w);
    }

    /// The content key: FNV-1a over [`Codec::key`].
    fn content_key(&self) -> u64 {
        let mut w = ByteWriter::new();
        self.key(&mut w);
        fnv1a(&w.into_bytes())
    }
}

/// Activity counters ([`record!`](crate::record!)'s `counters:` form).
pub trait Counters {
    /// Whether any count is nonzero.
    fn is_active(&self) -> bool;
}

impl Counters for u64 {
    fn is_active(&self) -> bool {
        *self != 0
    }
}

impl Counters for Vec<u64> {
    fn is_active(&self) -> bool {
        self.iter().any(|&v| v != 0)
    }
}

macro_rules! primitive_codec {
    ($($ty:ty, $bytes:expr, $put:ident, $get:ident;)*) => {$(
        impl Codec for $ty {
            const MIN_BYTES: usize = $bytes;
            fn encode(&self, w: &mut ByteWriter) {
                w.$put(*self);
            }
            fn decode(r: &mut ByteReader<'_>) -> Result<$ty, CodecError> {
                r.$get()
            }
        }
    )*};
}

primitive_codec! {
    u8, 1, put_u8, u8;
    u32, 4, put_u32, u32;
    u64, 8, put_u64, u64;
    usize, 8, put_usize, usize;
    f64, 8, put_f64, f64;
    bool, 1, put_bool, bool;
}

impl Codec for String {
    const MIN_BYTES: usize = 8;
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<String, CodecError> {
        Ok(r.str()?.to_string())
    }
}

/// Seconds then sub-second nanoseconds.
impl Codec for std::time::Duration {
    const MIN_BYTES: usize = 12;
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.as_secs());
        w.put_u32(self.subsec_nanos());
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<std::time::Duration, CodecError> {
        let secs = r.u64()?;
        match r.u32()? {
            nanos @ 0..=999_999_999 => Ok(std::time::Duration::new(secs, nanos)),
            _ => Err(CodecError::Invalid("sub-second nanoseconds")),
        }
    }
}

/// A presence flag, then the value.
impl<T: Codec> Codec for Option<T> {
    const MIN_BYTES: usize = 1;
    fn encode(&self, w: &mut ByteWriter) {
        w.put_bool(self.is_some());
        if let Some(v) = self {
            v.encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Option<T>, CodecError> {
        Ok(if r.bool()? { Some(T::decode(r)?) } else { None })
    }
    fn key(&self, w: &mut ByteWriter) {
        w.put_bool(self.is_some());
        if let Some(v) = self {
            v.key(w);
        }
    }
}

/// A `u64` element count, then the elements.
impl<T: Codec> Codec for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.len());
        self.iter().for_each(|v| v.encode(w));
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Vec<T>, CodecError> {
        let n = r.seq_len(T::MIN_BYTES)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
    fn key(&self, w: &mut ByteWriter) {
        w.put_usize(self.len());
        self.iter().for_each(|v| v.key(w));
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn encode(&self, w: &mut ByteWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<(A, B), CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
    fn key(&self, w: &mut ByteWriter) {
        self.0.key(w);
        self.1.key(w);
    }
}

/// Declares a struct from one field list and derives its [`Codec`]
/// (field order is encoding order) and, in the `counters:` form, its
/// [`Counters`]. Each field ends in its mode in brackets — see the
/// module docs for the modes.
///
/// ```
/// rv_isa::record! {
///     /// A labelled pair of counts.
///     #[derive(Clone, Debug, Default)]
///     pub struct Tally {
///         /// Display label; not part of the content key.
///         pub label: String [nokey],
///         /// Hits.
///         pub hits: u64 [key],
///     }
/// }
/// use rv_isa::codec::Codec;
/// let a = Tally { label: "a".into(), hits: 3 };
/// let b = Tally { label: "b".into(), hits: 3 };
/// assert_eq!(a.content_key(), b.content_key());
/// ```
///
/// A field without a mode does not compile:
///
/// ```compile_fail
/// rv_isa::record! {
///     pub struct Unkeyed {
///         pub hits: u64,
///     }
/// }
/// ```
#[macro_export]
macro_rules! record {
    (counters: $($item:tt)*) => {
        $crate::record!($($item)*);
        $crate::record!(@counters $($item)*);
    };
    (@counters
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty [$mode:ident]),* $(,)?
        }
    ) => {
        impl $crate::codec::Counters for $name {
            fn is_active(&self) -> bool {
                false $(|| $crate::codec::Counters::is_active(&self.$field))*
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty [$mode:ident]),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)*
        }

        impl $crate::codec::Codec for $name {
            const MIN_BYTES: usize = 0 $(+ $crate::record!(@min $mode $ty))*;
            fn encode(&self, w: &mut $crate::codec::ByteWriter) {
                $($crate::record!(@encode $mode self.$field, w);)*
            }
            fn decode(
                r: &mut $crate::codec::ByteReader<'_>,
            ) -> Result<$name, $crate::codec::CodecError> {
                Ok($name { $($field: $crate::record!(@decode $mode $ty, r),)* })
            }
            fn key(&self, w: &mut $crate::codec::ByteWriter) {
                $($crate::record!(@key $mode self.$field, w);)*
            }
        }
    };
    (@min skip $ty:ty) => { 0 };
    (@min $mode:ident $ty:ty) => { <$ty as $crate::codec::Codec>::MIN_BYTES };
    (@encode skip $v:expr, $w:ident) => {};
    (@encode $mode:ident $v:expr, $w:ident) => { $crate::codec::Codec::encode(&$v, $w) };
    (@decode skip $ty:ty, $r:ident) => { <$ty as Default>::default() };
    (@decode $mode:ident $ty:ty, $r:ident) => { <$ty as $crate::codec::Codec>::decode($r)? };
    (@key key $v:expr, $w:ident) => { $crate::codec::Codec::key(&$v, $w) };
    (@key nokey $v:expr, $w:ident) => {};
    (@key skip $v:expr, $w:ident) => {};
    (@key key_elems $v:expr, $w:ident) => {
        $v.iter().for_each(|e| $crate::codec::Codec::key(e, $w))
    };
    (@key key_if_active $v:expr, $w:ident) => {
        if $crate::codec::Counters::is_active(&$v) {
            $crate::codec::Codec::key(&$v, $w)
        }
    };
}

/// Implements [`Codec`] for a fieldless enum as a one-byte tag per
/// variant. The encoding `match` is exhaustive, so a variant added
/// without a tag does not compile.
#[macro_export]
macro_rules! tags {
    ($name:ty { $($variant:ident = $tag:literal),+ $(,)? }) => {
        impl $crate::codec::Codec for $name {
            const MIN_BYTES: usize = 1;
            fn encode(&self, w: &mut $crate::codec::ByteWriter) {
                w.put_u8(match self {
                    $(Self::$variant => $tag,)+
                });
            }
            fn decode(
                r: &mut $crate::codec::ByteReader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                match r.u8()? {
                    $($tag => Ok(Self::$variant),)+
                    _ => Err($crate::codec::CodecError::Invalid(concat!(stringify!($name), " tag"))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_every_primitive() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_usize(42);
        w.put_f64(-0.0); // distinguishable from +0.0 only by bits
        w.put_bool(true);
        w.put_bool(false);
        w.put_bytes(b"hello");
        w.put_str("wörld");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.str().unwrap(), "wörld");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_detected_at_every_prefix() {
        let mut w = ByteWriter::new();
        w.put_u64(1);
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            let ok = r.u64().and_then(|_| r.bytes().map(|b| b.to_vec()));
            assert!(ok.is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn absurd_length_is_rejected_without_allocating() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // length prefix far beyond the buffer
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.bytes(), Err(CodecError::Truncated));
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.seq_len(8), Err(CodecError::Truncated));
    }

    #[test]
    fn bad_bool_and_trailing_bytes_are_invalid() {
        let mut r = ByteReader::new(&[2]);
        assert!(matches!(r.bool(), Err(CodecError::Invalid(_))));
        let r = ByteReader::new(&[0]);
        assert!(matches!(r.finish(), Err(CodecError::Invalid(_))));
    }

    crate::record! {
        #[derive(Clone, Debug, Default)]
        struct Labelled {
            label: String [nokey],
            hits: u64 [key],
        }
    }

    #[test]
    fn containers_key_their_elements_by_key_not_by_encoding() {
        let a = Labelled { label: "a".into(), hits: 3 };
        let b = Labelled { label: "b".into(), hits: 3 };
        assert_eq!(Some(a.clone()).content_key(), Some(b.clone()).content_key());
        assert_eq!(vec![a.clone()].content_key(), vec![b.clone()].content_key());
        assert_eq!((a.clone(), 1u8).content_key(), (b.clone(), 1u8).content_key());
        assert_ne!(vec![a.clone()].content_key(), vec![a.clone(), b].content_key());
        let more = Labelled { hits: 4, ..a.clone() };
        assert_ne!(Some(a).content_key(), Some(more).content_key());
    }

    #[test]
    fn fnv1a_matches_reference_values() {
        // FNV-1a of the empty string is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
