//! One stored entry as the bytes a store holds for it, and the only
//! code that knows that layout: its one writer from a vector, its one
//! writer from a state an image's reader read off the wire, the one
//! strict reading of a state an image's writer is handed, and the
//! re-encoding of a vector read off the wire that the reader runs.

use bytes::BufMut;
use optrep_core::error::WireError;
use optrep_core::order::RotCore;
use optrep_core::rng::finalize;
use optrep_core::{wire, RotatingVector, Srv};

/// A stored entry, borrowed from the page that holds it: the
/// length-prefixed key, then the entry's state
/// ([`KvStore::encode_entry`](crate::KvStore::encode_entry)): the
/// length-prefixed vector snapshot, a one-byte tag (`0` a tombstone, `1`
/// a value) and, behind tag 1, the length-prefixed value. An image — a
/// snapshot's, a plan's, a log record's — writes no tag and no length
/// of its own: two heads an entry ([`EntryImage`](crate::EntryImage))
/// carry the key's shared and rest lengths and the value's length with
/// whether the vector is the record before's, written only where it is
/// not; the bytes are copied. Reading a field is a walk over length
/// prefixes ([`Record::view`]); an [`Srv`] exists only while a vector is
/// being operated on and is encoded back before it is stored.
///
/// A page holds its records back to back, so the key lives inside the
/// record and a record's length is read off its own length prefixes
/// ([`Record::split_first`]). Key byte order is `str` order.
/// Whole-record equality is [`Record::bytes`].
///
/// A record is **canonical**: only [`Record::write`] writes one, from a
/// key, vector and value, and [`Record::write_state`] from a key and an
/// entry's state an image's reader read, its vector re-encoded, never by
/// keeping input bytes (a decoder accepts overlong varints no encoder
/// writes) — so two equal states hold equal bytes, and nothing a store
/// holds refers to the snapshot image, log record or socket chunk it was
/// read from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Record<'a>(&'a [u8]);

/// An entry's state: the vector's snapshot bytes and the value (`None`
/// a tombstone), borrowed from its [`Record`], from a state handed to an
/// image's writer ([`View::of_state`]), or from an image as its reader
/// read it, the vector made canonical — what [`Record::write_state`]
/// writes a record from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct View<'a> {
    pub(crate) meta: &'a [u8],
    pub(crate) value: Option<&'a [u8]>,
}

/// Why a stored field always parses.
const CANONICAL: &str = "a record holds its own encoder's output";

/// Splits the length-prefixed field at the front of `bytes` off it. A
/// walk over a page reads three or four of these a record, nearly all
/// one byte long, so that length is read here and not through
/// `wire::get_varint`'s `Buf` reads. Release, 100 000 keys × 32 B at 512
/// shards, on a two-core Xeon, built against `crates/perf`'s stand-in
/// `bytes`: every key's `get` 33 → 20 ms, `put` 97 → 62 ms, replaying a
/// log entry a key 118 → 80 ms.
fn field<'a>(bytes: &mut &'a [u8]) -> &'a [u8] {
    let len = match bytes.split_first() {
        Some((&len, rest)) if len < 0x80 => {
            *bytes = rest;
            usize::from(len)
        }
        _ => wire::get_varint(bytes).expect(CANONICAL) as usize,
    };
    let (field, rest) = bytes.split_at(len);
    *bytes = rest;
    field
}

impl<'a> Record<'a> {
    /// The length of the record [`write`](Self::write) appends for an
    /// entry.
    pub(crate) fn encoded_len(key: &str, meta: &Srv, value: Option<&[u8]>) -> usize {
        let meta_len = meta.as_core().snapshot_len();
        let value_len = value.map_or(0, |v| wire::bytes_len(v.len()));
        wire::bytes_len(key.len()) + wire::bytes_len(meta_len) + 1 + value_len
    }

    /// Appends one entry to `buf`, [`encoded_len`](Self::encoded_len)
    /// bytes: the one writer of the layout, called on the buffer the
    /// record is to live in — the page being built, where there is one.
    pub(crate) fn write(buf: &mut Vec<u8>, key: &str, meta: &Srv, value: Option<&[u8]>) {
        let start = buf.len();
        let core = meta.as_core();
        wire::put_bytes(buf, key.as_bytes());
        wire::put_varint(buf, core.snapshot_len() as u64);
        core.put_snapshot(buf);
        match value {
            Some(v) => {
                buf.put_u8(1);
                wire::put_bytes(buf, v);
            }
            None => buf.put_u8(0),
        }
        debug_assert_eq!(buf.len() - start, Self::encoded_len(key, meta, value));
    }

    /// Appends the record of `key` holding `state` to `buf` — the buffer
    /// it is to live in, reserved for [`View::record_len`] bytes by the
    /// caller — without building its vector: the key, the vector an
    /// image's reader made canonical and the value are copied, so the
    /// record is what [`write`](Self::write) writes for the state. Boot,
    /// log replay and a join's image all come through here, each state
    /// read by [`ImageEntries`](crate::codec::ImageEntries).
    pub(crate) fn write_state(buf: &mut Vec<u8>, key: &str, state: View<'_>) {
        wire::put_bytes(buf, key.as_bytes());
        wire::put_bytes(buf, state.meta);
        match state.value {
            Some(v) => {
                buf.put_u8(1);
                wire::put_bytes(buf, v);
            }
            None => buf.put_u8(0),
        }
    }

    /// The key of the record at the front of `bytes`, read without a
    /// walk over the rest of it.
    pub(crate) fn key_at(bytes: &'a [u8]) -> &'a [u8] {
        Record(bytes).key_bytes()
    }

    /// The record at the front of `bytes` — records written back to
    /// back, as a page holds them — and what follows it.
    pub(crate) fn split_first(bytes: &'a [u8]) -> (Record<'a>, &'a [u8]) {
        let mut rest = bytes;
        field(&mut rest);
        field(&mut rest);
        let (&tag, mut rest) = rest.split_first().expect(CANONICAL);
        if tag == 1 {
            field(&mut rest);
        }
        let (record, rest) = bytes.split_at(bytes.len() - rest.len());
        (Record(record), rest)
    }

    /// The whole record, as a page holds it.
    pub(crate) fn bytes(self) -> &'a [u8] {
        self.0
    }

    /// The key's bytes and the entry's state behind them — what
    /// [`KvStore::encode_entry`](crate::KvStore::encode_entry) returns.
    pub(crate) fn split(self) -> (&'a [u8], &'a [u8]) {
        let mut rest = self.0;
        let key = field(&mut rest);
        (key, rest)
    }

    pub(crate) fn key_bytes(self) -> &'a [u8] {
        self.split().0
    }

    pub(crate) fn view(self) -> View<'a> {
        let mut state = self.split().1;
        let meta = field(&mut state);
        let value = match state.split_first() {
            Some((1, mut rest)) => Some(field(&mut rest)),
            _ => None,
        };
        View { meta, value }
    }

    /// The key and the state, as a walk over entries wants them.
    pub(crate) fn entry(self) -> (&'a str, View<'a>) {
        let key = std::str::from_utf8(self.key_bytes()).expect(CANONICAL);
        (key, self.view())
    }
}

/// Appends to `out` exactly what [`Record::write`] writes for the vector
/// that fills `meta`, without building it: [`RotCore::recode_snapshot`]
/// of all of `meta`.
///
/// # Errors
///
/// The vector decoder's, then [`WireError::InvalidPayload`] for bytes
/// left inside `meta` (no encoder writes them); `out` is then left as
/// it was.
pub(crate) fn recode_vector(out: &mut Vec<u8>, mut meta: &[u8]) -> Result<(), WireError> {
    let start = out.len();
    RotCore::recode_snapshot(&mut meta, out)?;
    if !meta.is_empty() {
        out.truncate(start);
        return Err(WireError::InvalidPayload);
    }
    Ok(())
}

/// The varint at the front of `bytes`, taken off it, if it is written
/// as short as it goes: what every encoder writes.
///
/// # Errors
///
/// [`wire::get_varint`]'s, then [`WireError::InvalidPayload`] for an
/// overlong one.
pub(crate) fn canonical_varint(bytes: &mut &[u8]) -> Result<u64, WireError> {
    let before = bytes.len();
    let value = wire::get_varint(bytes)?;
    if before - bytes.len() != wire::varint_len(value) {
        return Err(WireError::InvalidPayload);
    }
    Ok(value)
}

/// The length-prefixed field at the front of `bytes`, its prefix as
/// short as it goes, taken off it.
fn canonical_field<'b>(bytes: &mut &'b [u8]) -> Option<&'b [u8]> {
    let len = usize::try_from(canonical_varint(bytes).ok()?).ok()?;
    let field = bytes.get(..len)?;
    *bytes = &bytes[len..];
    Some(field)
}

impl<'a> View<'a> {
    /// The state `state` holds if it is laid out as [`Record::write`]
    /// writes one — the vector's field and, behind tag 1, the value's,
    /// each length as short as it goes, and nothing behind them — and
    /// its vector is no empty field; else `None`. The vector is found,
    /// not decoded ([`written_vector`](Self::written_vector) decodes it).
    pub(crate) fn of_state(mut state: &'a [u8]) -> Option<Self> {
        let meta = canonical_field(&mut state).filter(|meta| !meta.is_empty())?;
        let value = match state.split_first()? {
            (0, rest) => {
                state = rest;
                None
            }
            (1, rest) => {
                state = rest;
                Some(canonical_field(&mut state)?)
            }
            _ => return None,
        };
        state.is_empty().then_some(View { meta, value })
    }

    /// Whether the vector is what [`Record::write`] writes for the
    /// vector it decodes to, re-encoded in `scratch`.
    pub(crate) fn written_vector(&self, scratch: &mut Vec<u8>) -> bool {
        scratch.clear();
        recode_vector(scratch, self.meta).is_ok() && scratch[..] == *self.meta
    }

    /// The length of the record [`Record::write_state`] writes of this
    /// state under `key`.
    pub(crate) fn record_len(&self, key: &str) -> usize {
        let value = self.value.map_or(0, |v| wire::bytes_len(v.len()));
        wire::bytes_len(key.len()) + wire::bytes_len(self.meta.len()) + 1 + value
    }

    /// The vector, materialised: a working copy to operate on.
    pub(crate) fn srv(&self) -> Srv {
        let mut meta = self.meta;
        Srv::decode_snapshot(&mut meta).expect(CANONICAL)
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
/// hashed) — passed through SplitMix64's finalizer. Each length, count
/// and site is fed as its 8 little-endian bytes. FNV-1a's last step is
/// `(h ^ count) · P⁸`, so a count that moves by one moves the raw hash
/// by a small multiple of `P⁸`, and such moves cancel in a sum across
/// entries (a key rewritten with the value it holds beside another);
/// finalized, a sum of hashes is a multiset hash, and a collision on
/// honest input is about 2⁻⁶⁴ a comparison.
pub(crate) fn entry_hash(record: Record<'_>) -> u64 {
    let (key, view) = (record.key_bytes(), record.view());
    let mut hash = fnv_bytes(fnv_word(FNV_OFFSET, key.len() as u64), key);
    hash = match view.value {
        Some(v) => fnv_bytes(fnv_word(fnv_bytes(hash, &[1]), v.len() as u64), v),
        None => fnv_bytes(hash, &[0]),
    };
    with_version_vector(view.meta, |pairs| {
        hash = fnv_word(hash, pairs.len() as u64);
        for &(site, count) in pairs {
            hash = fnv_word(fnv_word(hash, u64::from(site)), count);
        }
    });
    finalize(hash)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Eight FNV-1a steps over a zero byte are eight multiplications.
const FNV_PRIME_8: u64 = {
    let mut power = 1u64;
    let mut steps = 0;
    while steps < 8 {
        power = power.wrapping_mul(FNV_PRIME);
        steps += 1;
    }
    power
};

/// FNV-1a over `bytes`, from `hash`.
fn fnv_bytes(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// FNV-1a over `word`'s 8 little-endian bytes, from `hash`: a word below
/// 256 is one byte and seven zeros, one step for all eight.
fn fnv_word(hash: u64, word: u64) -> u64 {
    match word < 256 {
        true => (hash ^ word).wrapping_mul(FNV_PRIME_8),
        false => fnv_bytes(hash, &word.to_le_bytes()),
    }
}

#[cfg(test)]
mod tests;
