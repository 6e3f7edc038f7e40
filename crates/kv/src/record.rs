//! One stored entry as the bytes every image writes for it, and the
//! only code that knows that layout.

use bytes::BufMut;
use optrep_core::{wire, RotatingVector, Srv};
use std::borrow::Borrow;
use std::cmp::Ordering;

/// What the store keeps per key: one exactly sized block holding the
/// entry as every image writes it — the length-prefixed key, then the
/// entry's state as a log record carries it: the length-prefixed vector
/// snapshot, a one-byte tag (`0` a tombstone, `1` a value) and, behind
/// tag 1, the length-prefixed value. Snapshots, shard images and log
/// records are copies of these bytes; reading a field is a walk over
/// length prefixes ([`Record::view`]); an [`Srv`] exists only while a
/// vector is being operated on and is encoded back before it is stored.
///
/// The key lives inside the block because a block of its own would cost
/// what the record saves (a second handle in the node, a second malloc
/// header), and a record *is* its key to the set that holds it: ordered,
/// compared and looked up by key bytes alone, whose byte order is `str`
/// order. Whole-record equality is [`Record::bytes`].
///
/// A record is **canonical**: only [`Record::new`] builds one, from a
/// decoded key, vector and value, never by keeping input bytes (a
/// decoder accepts overlong varints no encoder writes) — so two equal
/// states hold equal bytes, and nothing a store holds refers to the
/// snapshot image, log record or socket chunk it was read from.
#[derive(Debug, Clone)]
pub(crate) struct Record(Box<[u8]>);

/// A stored entry's state, borrowed from its [`Record`]: the vector's
/// snapshot bytes and the value (`None` a tombstone).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct View<'a> {
    pub(crate) meta: &'a [u8],
    pub(crate) value: Option<&'a [u8]>,
}

/// Why a stored field always parses.
const CANONICAL: &str = "a record holds its own encoder's output";

/// Splits the length-prefixed field at the front of `bytes` off it.
fn field<'a>(bytes: &mut &'a [u8]) -> &'a [u8] {
    let len = wire::get_varint(bytes).expect(CANONICAL) as usize;
    let (field, rest) = bytes.split_at(len);
    *bytes = rest;
    field
}

impl Record {
    /// Encodes one entry, in one allocation of its exact size.
    pub(crate) fn new(key: &str, meta: &Srv, value: Option<&[u8]>) -> Record {
        let meta = meta.as_core();
        let meta_len = meta.snapshot_len();
        let value_len = value.map_or(0, |v| wire::bytes_len(v.len()));
        let len = wire::bytes_len(key.len()) + wire::bytes_len(meta_len) + 1 + value_len;
        let mut buf = Vec::with_capacity(len);
        wire::put_bytes(&mut buf, key.as_bytes());
        wire::put_varint(&mut buf, meta_len as u64);
        meta.put_snapshot(&mut buf);
        match value {
            Some(v) => {
                buf.put_u8(1);
                wire::put_bytes(&mut buf, v);
            }
            None => buf.put_u8(0),
        }
        debug_assert_eq!(buf.len(), len);
        Record(buf.into_boxed_slice())
    }

    /// The whole record: what an image writes for this entry.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.0
    }

    /// The key's bytes and the entry's state behind them — what
    /// [`KvStore::encode_entry`](crate::KvStore::encode_entry) returns.
    pub(crate) fn split(&self) -> (&[u8], &[u8]) {
        let mut rest = &self.0[..];
        let key = field(&mut rest);
        (key, rest)
    }

    pub(crate) fn key_bytes(&self) -> &[u8] {
        self.split().0
    }

    pub(crate) fn view(&self) -> View<'_> {
        let mut state = self.split().1;
        let meta = field(&mut state);
        let value = match state.split_first() {
            Some((1, mut rest)) => Some(field(&mut rest)),
            _ => None,
        };
        View { meta, value }
    }

    /// The key and the state, as a walk over entries wants them.
    pub(crate) fn entry(&self) -> (&str, View<'_>) {
        let key = std::str::from_utf8(self.key_bytes()).expect(CANONICAL);
        (key, self.view())
    }
}

impl View<'_> {
    /// The vector, materialised: a working copy to operate on.
    pub(crate) fn srv(&self) -> Srv {
        let mut meta = self.meta;
        Srv::decode_snapshot(&mut meta).expect(CANONICAL)
    }
}

impl Borrow<[u8]> for Record {
    fn borrow(&self) -> &[u8] {
        self.key_bytes()
    }
}

impl PartialEq for Record {
    fn eq(&self, other: &Self) -> bool {
        self.key_bytes() == other.key_bytes()
    }
}

impl Eq for Record {}

impl PartialOrd for Record {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Record {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key_bytes().cmp(other.key_bytes())
    }
}

/// Vectors of up to this many elements — `core::order`'s own bound on a
/// vector without an index, and nearly every vector a store holds — are
/// hashed and compared without touching the heap.
const INLINE_SITES: usize = 8;

/// Lends `read` the version vector that a record's vector bytes stand
/// for: the non-zero `(site, count)` pairs, order and bits dropped,
/// sorted by site.
pub(crate) fn with_version_vector<R>(mut meta: &[u8], read: impl FnOnce(&[(u32, u64)]) -> R) -> R {
    let n = wire::get_varint(&mut meta).expect(CANONICAL) as usize;
    let mut inline = [(0u32, 0u64); INLINE_SITES];
    let mut spilled = Vec::new();
    let pairs = match inline.get_mut(..n) {
        Some(pairs) => pairs,
        None => {
            spilled.resize(n, (0, 0));
            &mut spilled[..]
        }
    };
    let mut kept = 0;
    for _ in 0..n {
        let site = wire::get_u32(&mut meta).expect(CANONICAL);
        let count = wire::get_varint(&mut meta).expect(CANONICAL) >> 2;
        if count > 0 {
            pairs[kept] = (site, count);
            kept += 1;
        }
    }
    let pairs = &mut pairs[..kept];
    pairs.sort_unstable_by_key(|&(site, _)| site);
    read(pairs)
}

/// The content hash of one entry, the unit the per-shard digests sum:
/// FNV-1a over the key, the tagged value, and the sorted version
/// vector — so the digest is site-independent (raw rotating-vector
/// segments, which differ between converged replicas, are *not*
/// hashed).
pub(crate) fn entry_hash(record: &Record) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    let (key, view) = (record.key_bytes(), record.view());
    eat(&(key.len() as u64).to_le_bytes());
    eat(key);
    match view.value {
        Some(v) => {
            eat(&[1]);
            eat(&(v.len() as u64).to_le_bytes());
            eat(v);
        }
        None => eat(&[0]),
    }
    with_version_vector(view.meta, |pairs| {
        eat(&(pairs.len() as u64).to_le_bytes());
        for &(site, count) in pairs {
            eat(&u64::from(site).to_le_bytes());
            eat(&count.to_le_bytes());
        }
    });
    hash
}

#[cfg(test)]
mod tests;
