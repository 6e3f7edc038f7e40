//! Offline stand-in for the `bytes` crate.
//!
//! The sandbox cannot reach a crate registry, so the benchmark builds the
//! optrep workspace against this file instead of the published crate. It
//! implements the subset of the API the library crates use and keeps the
//! published crate's cost model where the libraries rely on it:
//!
//! * [`Bytes`] is a reference-counted view: `clone`, `slice`, `split_to`
//!   and [`BytesMut::freeze`] are O(1) and never copy the payload.
//! * [`BytesMut`] is a growable buffer with an amortised-O(1) consumed
//!   prefix. [`BytesMut::split_to`] is O(1) too: the piece split off and
//!   the rest are windows onto one allocation, and freezing a window
//!   allocates nothing — `FrameDecoder` hands out payloads that way. The
//!   buffer is reallocated when it is written to while pieces of it are
//!   still held elsewhere, as in the published crate.
//!
//! Anything not listed here is absent on purpose: a compile error names
//! the method a later change started using.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

/// A cheaply cloneable, sliceable view of immutable bytes.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty view; allocates nothing.
    pub const fn new() -> Bytes {
        Bytes::from_static(&[])
    }

    /// A view of a static slice; allocates nothing.
    pub const fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes {
            repr: Repr::Static(bytes),
            start: 0,
            end: bytes.len(),
        }
    }

    /// Copies `data` into a fresh shared allocation.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Static(s) => &s[self.start..self.end],
            Repr::Shared(v) => &v[self.start..self.end],
        }
    }

    /// A sub-view sharing the same allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(lo <= hi && hi <= len, "slice {lo}..{hi} out of 0..{len}");
        Bytes {
            repr: self.repr.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to {at} out of 0..={}", self.len());
        let head = Bytes {
            repr: self.repr.clone(),
            start: self.start,
            end: self.start + at,
        };
        self.start += at;
        head
    }

    /// Splits off and returns the bytes from `at` on; `self` keeps the head.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_off {at} out of 0..={}", self.len());
        let tail = Bytes {
            repr: self.repr.clone(),
            start: self.start + at,
            end: self.end,
        };
        self.end = self.start + at;
        tail
    }

    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.end = self.start + len;
        }
    }

    pub fn clear(&mut self) {
        self.end = self.start;
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            repr: Repr::Shared(Arc::new(v)),
            start: 0,
            end,
        }
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Bytes {
        Bytes::from(b.into_vec())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }
}

impl<const N: usize> From<&'static [u8; N]> for Bytes {
    fn from(s: &'static [u8; N]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Bytes {
        b.freeze()
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Vec<u8> {
        b.as_slice().to_vec()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}
impl PartialEq<Bytes> for &[u8] {
    fn eq(&self, other: &Bytes) -> bool {
        *self == other.as_slice()
    }
}
impl PartialEq<str> for Bytes {
    fn eq(&self, other: &str) -> bool {
        self.as_slice() == other.as_bytes()
    }
}
impl PartialEq<&str> for Bytes {
    fn eq(&self, other: &&str) -> bool {
        self.as_slice() == other.as_bytes()
    }
}
impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}
impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

fn fmt_bytes(bytes: &[u8], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "b\"")?;
    for &b in bytes {
        match b {
            b'\n' => write!(f, "\\n")?,
            b'\r' => write!(f, "\\r")?,
            b'\t' => write!(f, "\\t")?,
            b'\\' | b'"' => write!(f, "\\{}", b as char)?,
            0x20..=0x7e => write!(f, "{}", b as char)?,
            _ => write!(f, "\\x{b:02x}")?,
        }
    }
    write!(f, "\"")
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_bytes(self.as_slice(), f)
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A growable byte buffer whose front can be split off without copying.
///
/// While only written to it owns a plain `Vec`. The first `split_to`
/// moves that `Vec` behind an `Arc`; from then on this handle and every
/// piece split off it are windows onto the one allocation, as in the
/// published crate, and `freeze` turns a window into a [`Bytes`] of the
/// same allocation. A window that is written to again takes the
/// allocation back if nobody else holds it and copies its own bytes out
/// otherwise — which is when the published crate reallocates too.
#[derive(Clone)]
pub struct BytesMut {
    repr: MutRepr,
    /// The live bytes are `start..end` of the allocation.
    start: usize,
    end: usize,
}

#[derive(Clone)]
enum MutRepr {
    /// Writable; `end` is the `Vec`'s length.
    Owned(Vec<u8>),
    /// Read-only while other windows may exist.
    Window(Arc<Vec<u8>>),
}

impl Default for BytesMut {
    fn default() -> BytesMut {
        BytesMut::from(Vec::new())
    }
}

/// Consumed prefixes shorter than this are not worth a compaction.
const COMPACT_MIN: usize = 4096;

impl BytesMut {
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    pub fn with_capacity(capacity: usize) -> BytesMut {
        BytesMut::from(Vec::with_capacity(capacity))
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    pub fn capacity(&self) -> usize {
        match &self.repr {
            MutRepr::Owned(buf) => buf.capacity() - self.start,
            MutRepr::Window(_) => self.len(),
        }
    }

    fn as_slice(&self) -> &[u8] {
        match &self.repr {
            MutRepr::Owned(buf) => &buf[self.start..self.end],
            MutRepr::Window(buf) => &buf[self.start..self.end],
        }
    }

    /// Makes this handle the owner of a plain `Vec` whose length is `end`
    /// and returns it. A window takes its allocation back when it is the
    /// last holder and copies its own bytes out otherwise.
    fn owned(&mut self) -> &mut Vec<u8> {
        if matches!(self.repr, MutRepr::Window(_)) {
            let MutRepr::Window(shared) =
                std::mem::replace(&mut self.repr, MutRepr::Owned(Vec::new()))
            else {
                unreachable!("matched a window above");
            };
            let buf = match Arc::try_unwrap(shared) {
                Ok(mut buf) => {
                    buf.truncate(self.end);
                    buf
                }
                Err(shared) => {
                    let live = shared[self.start..self.end].to_vec();
                    (self.start, self.end) = (0, live.len());
                    live
                }
            };
            self.repr = MutRepr::Owned(buf);
        }
        match &mut self.repr {
            MutRepr::Owned(buf) => buf,
            MutRepr::Window(_) => unreachable!("made owned above"),
        }
    }

    /// Runs `write` on the owned `Vec` (handing it where the live bytes
    /// start) and takes the `Vec`'s new length as `end`. First drops the
    /// consumed prefix once it outweighs the live bytes, so a long-lived
    /// buffer that is drained from the front stays bounded and each byte
    /// is moved at most a constant number of times.
    fn append(&mut self, write: impl FnOnce(&mut Vec<u8>, usize)) {
        let (start, len) = (self.start, self.len());
        let compact = start > 0 && (len == 0 || (start >= COMPACT_MIN && start >= len));
        let buf = self.owned();
        let start = if compact && buf.len() == start + len {
            buf.drain(..start);
            0
        } else {
            // `owned` copied the live bytes out: they start at 0 already.
            buf.len() - len
        };
        write(buf, start);
        let end = buf.len();
        (self.start, self.end) = (start, end);
    }

    pub fn reserve(&mut self, additional: usize) {
        self.append(|buf, _| buf.reserve(additional));
    }

    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.append(|buf, _| buf.extend_from_slice(data));
    }

    pub fn clear(&mut self) {
        self.truncate(0);
    }

    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.end = self.start + len;
            if let MutRepr::Owned(buf) = &mut self.repr {
                buf.truncate(self.end);
            }
        }
    }

    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.append(|buf, start| buf.resize(start + new_len, value));
    }

    /// This handle as a window onto a shared allocation.
    fn window(&mut self) -> &Arc<Vec<u8>> {
        if let MutRepr::Owned(buf) = &mut self.repr {
            self.repr = MutRepr::Window(Arc::new(std::mem::take(buf)));
        }
        match &self.repr {
            MutRepr::Window(shared) => shared,
            MutRepr::Owned(_) => unreachable!("made a window above"),
        }
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the
    /// rest. O(1): both are windows onto the same allocation.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len(), "split_to {at} out of 0..={}", self.len());
        let head = BytesMut {
            repr: MutRepr::Window(Arc::clone(self.window())),
            start: self.start,
            end: self.start + at,
        };
        self.start += at;
        head
    }

    /// Takes the whole contents, leaving `self` empty.
    pub fn split(&mut self) -> BytesMut {
        std::mem::take(self)
    }

    /// Converts into an immutable view without copying. A window shares
    /// its allocation with the view; a buffer that was never split pays
    /// for the `Arc` header here (the published crate defers that to the
    /// view's first clone).
    pub fn freeze(self) -> Bytes {
        let shared = match self.repr {
            MutRepr::Owned(buf) => Arc::new(buf),
            MutRepr::Window(shared) => shared,
        };
        Bytes {
            repr: Repr::Shared(shared),
            start: self.start,
            end: self.end,
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        let _ = self.owned();
        let start = self.start;
        &mut self.owned()[start..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl AsMut<[u8]> for BytesMut {
    fn as_mut(&mut self) -> &mut [u8] {
        self
    }
}

impl Borrow<[u8]> for BytesMut {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> BytesMut {
        BytesMut::from(s.to_vec())
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(buf: Vec<u8>) -> BytesMut {
        BytesMut {
            start: 0,
            end: buf.len(),
            repr: MutRepr::Owned(buf),
        }
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &BytesMut) -> bool {
        **self == **other
    }
}
impl Eq for BytesMut {}

impl PartialEq<[u8]> for BytesMut {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}
impl PartialEq<Bytes> for BytesMut {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}
impl PartialEq<BytesMut> for Bytes {
    fn eq(&self, other: &BytesMut) -> bool {
        **self == **other
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_bytes(self, f)
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.append(|buf, _| buf.extend(iter));
    }
}

impl<'a> Extend<&'a u8> for BytesMut {
    fn extend<I: IntoIterator<Item = &'a u8>>(&mut self, iter: I) {
        self.append(|buf, _| buf.extend(iter));
    }
}

impl fmt::Write for BytesMut {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

macro_rules! buf_get {
    ($($name:ident, $name_le:ident, $ty:ty);* $(;)?) => {$(
        /// # Panics
        ///
        /// Panics if fewer bytes remain than the integer needs.
        fn $name(&mut self) -> $ty {
            let mut raw = [0u8; std::mem::size_of::<$ty>()];
            self.copy_to_slice(&mut raw);
            <$ty>::from_be_bytes(raw)
        }
        /// # Panics
        ///
        /// Panics if fewer bytes remain than the integer needs.
        fn $name_le(&mut self) -> $ty {
            let mut raw = [0u8; std::mem::size_of::<$ty>()];
            self.copy_to_slice(&mut raw);
            <$ty>::from_le_bytes(raw)
        }
    )*};
}

/// Read access to a cursor over contiguous bytes.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    /// # Panics
    ///
    /// Panics if `cnt > remaining`.
    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// # Panics
    ///
    /// Panics if `dst` is longer than what remains.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(
            dst.len() <= self.remaining(),
            "copy_to_slice of {} with {} remaining",
            dst.len(),
            self.remaining()
        );
        // Every implementor here is one contiguous chunk.
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// # Panics
    ///
    /// Panics if nothing remains.
    fn get_u8(&mut self) -> u8 {
        let mut raw = [0u8; 1];
        self.copy_to_slice(&mut raw);
        raw[0]
    }

    buf_get! {
        get_u16, get_u16_le, u16;
        get_u32, get_u32_le, u32;
        get_u64, get_u64_le, u64;
        get_i64, get_i64_le, i64;
    }

    /// # Panics
    ///
    /// Panics if `len > remaining`.
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let mut out = vec![0u8; len];
        self.copy_to_slice(&mut out);
        Bytes::from(out)
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance {cnt} out of 0..={}", self.len());
        self.start += cnt;
    }
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        self.split_to(len)
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance {cnt} out of 0..={}", self.len());
        self.start += cnt;
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

macro_rules! buf_put {
    ($($name:ident, $name_le:ident, $ty:ty);* $(;)?) => {$(
        fn $name(&mut self, n: $ty) {
            self.put_slice(&n.to_be_bytes());
        }
        fn $name_le(&mut self, n: $ty) {
            self.put_slice(&n.to_le_bytes());
        }
    )*};
}

/// Append access to a growable byte buffer.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, n: u8) {
        self.put_slice(&[n]);
    }

    buf_put! {
        put_u16, put_u16_le, u16;
        put_u32, put_u32_le, u32;
        put_u64, put_u64_le, u64;
        put_i64, put_i64_le, i64;
    }

    /// Appends everything `src` still holds.
    fn put<B: Buf>(&mut self, mut src: B)
    where
        Self: Sized,
    {
        while src.has_remaining() {
            let n = {
                let chunk = src.chunk();
                self.put_slice(chunk);
                chunk.len()
            };
            src.advance(n);
        }
    }

    fn put_bytes(&mut self, value: u8, count: usize) {
        for _ in 0..count {
            self.put_u8(value);
        }
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_views_share_and_split() {
        let mut b = Bytes::from(b"hello world".to_vec());
        let tail = b.slice(6..);
        assert_eq!(&tail[..], b"world");
        let head = b.split_to(5);
        assert_eq!(head, &b"hello"[..]);
        assert_eq!(&b[..], b" world");
        b.advance(1);
        assert_eq!(b, tail);
        assert_eq!(b.get_u8(), b'w');
        assert_eq!(b.remaining(), 4);
    }

    #[test]
    fn bytes_mut_drains_from_the_front_and_stays_bounded() {
        let mut m = BytesMut::new();
        for round in 0..100u32 {
            m.extend_from_slice(&[round as u8; 1000]);
            let head = m.split_to(1000);
            assert_eq!(head.len(), 1000);
            assert!(head.iter().all(|&b| b == round as u8));
        }
        assert!(m.is_empty());
        assert!(m.capacity() < 4 * COMPACT_MIN);
    }

    #[test]
    fn split_to_and_freeze_share_the_allocation() {
        let mut m = BytesMut::new();
        m.extend_from_slice(b"headpayloadrest");
        let base = m.as_ptr();
        let _ = m.split_to(4);
        let payload = m.split_to(7).freeze();
        assert_eq!(payload, &b"payload"[..]);
        // Same bytes in memory, not a copy.
        assert_eq!(payload.as_ptr(), base.wrapping_add(4));
        assert_eq!(m.as_ptr(), base.wrapping_add(11));
        // Written to while `payload` still holds the allocation: the
        // window copies its own bytes out and leaves the view alone.
        m.extend_from_slice(b"!");
        assert_eq!(&m[..], b"rest!");
        assert_ne!(m.as_ptr(), base.wrapping_add(11));
        assert_eq!(payload, &b"payload"[..]);
    }

    #[test]
    fn the_last_holder_takes_the_allocation_back() {
        let mut m = BytesMut::with_capacity(64);
        m.extend_from_slice(b"abcdef");
        let base = m.as_ptr();
        drop(m.split_to(2));
        m.extend_from_slice(b"gh");
        assert_eq!(&m[..], b"cdefgh");
        assert_eq!(m.as_ptr(), base.wrapping_add(2));
        m[0] = b'C';
        m.resize(8, b'.');
        m.truncate(7);
        assert_eq!(&m[..], b"Cdefgh.");
        m.clear();
        m.extend_from_slice(b"xy");
        assert_eq!((m.as_ptr(), &m[..]), (base, &b"xy"[..]));
    }

    #[test]
    fn integers_round_trip_big_endian() {
        let mut m = BytesMut::new();
        m.put_u8(7);
        m.put_u64(0x0102_0304_0506_0708);
        m.put_u32_le(0xdead_beef);
        let mut b = m.freeze();
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u64(), 0x0102_0304_0506_0708);
        assert_eq!(b.get_u32_le(), 0xdead_beef);
        assert!(!b.has_remaining());
    }

    #[test]
    fn freeze_keeps_the_unconsumed_part_only() {
        let mut m = BytesMut::from(&b"abcdef"[..]);
        m.advance(2);
        let _ = m.split_to(1);
        assert_eq!(m.freeze(), &b"def"[..]);
    }
}
