//! One stored entry as the bytes a page holds for it, and the only
//! code that knows that layout, which every image shares: its one
//! writer and its one reader ([`Coded`]), the one strict reading of a
//! state an image's writer is handed, and the re-encoding of a vector
//! read off the wire that an image's reader runs.

use optrep_core::error::WireError;
use optrep_core::order::RotCore;
use optrep_core::rng::finalize;
use optrep_core::{wire, RotatingVector, Srv};
use std::io::{self, Write};

/// An entry as a page or an image writes it, against the entry before
/// it: a key head packing the length of the prefix the key shares with
/// the key before and the length of the rest, the rest, then a state
/// head packing the value's length, or a tombstone, and whether the
/// vector is the entry before's, the vector's snapshot where it is not,
/// and the value:
///
/// ```text
/// entry: varint(shared << 3 | min(rest, 7)) | [varint(rest − 7)] | rest of key
///        varint(value_code << 1 | repeats) | [bytes vector] | value
///        (value_code: 0 a tombstone, len + 1 a value; the vector only
///         where repeats is 0; the rest's length only where it is 7 or more)
/// ```
///
/// A page holds its records so, back to back in strictly ascending key
/// order, the first written whole — its key and its vector — so the
/// page's first key is read off its front; each key after it shares the
/// longest prefix it can, and each vector is written only where it is
/// not the vector of the record before. A record is therefore read
/// against the records before it in its page: a walk holds the key it
/// rebuilt and the vector last written, and a lookup compares its key
/// against each record's from the prefix the record before shared with
/// it, rebuilding none. Key byte order is `str` order.
///
/// A record is **canonical**: only [`Coded::of`] codes one, from a key
/// and a state whose vector is the snapshot its encoder writes — built
/// from a vector, or an image's reader re-encoded it, never by keeping
/// input bytes — so two equal states hold equal bytes, and nothing a
/// store holds refers to the snapshot image, log record or socket chunk
/// it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Coded<'a> {
    /// The length of the prefix the key shares with the key before it:
    /// 0 for the first, written whole.
    pub(crate) shared: usize,
    /// The key past that prefix.
    pub(crate) rest: &'a [u8],
    /// The vector's snapshot where it is written out; `None` where it is
    /// the vector of the entry before.
    pub(crate) vector: Option<&'a [u8]>,
    /// The value; `None` for a tombstone.
    pub(crate) value: Option<&'a [u8]>,
}

/// An entry's state: the vector's snapshot bytes and the value (`None`
/// a tombstone), borrowed from the page that holds it, from a state
/// handed to an image's writer ([`View::of_state`]), or from an image as
/// its reader read it, the vector made canonical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct View<'a> {
    pub(crate) meta: &'a [u8],
    pub(crate) value: Option<&'a [u8]>,
}

/// Why a stored field always parses.
const CANONICAL: &str = "a record holds its own encoder's output";

/// The shortest rest of a key whose length its key head cannot hold:
/// the head's low bits hold a rest of up to 6 bytes, and 7 for a rest of
/// 7 or more, whose length less 7 follows.
pub(crate) const REST_ESCAPE: u64 = 7;

/// Takes the varint at the front of a page's `bytes` off it. A walk
/// over a page reads two to four of these a record, nearly all one byte
/// long, so that length is read here and not through
/// `wire::get_varint`'s `Buf` reads. Release, 100 000 keys × 32 B at 512
/// shards, on a two-core Xeon, built against `crates/perf`'s stand-in
/// `bytes`, reading a record's length-prefixed fields so: every key's
/// `get` 33 → 20 ms, `put` 97 → 62 ms, replaying a log entry a key
/// 118 → 80 ms.
fn varint(bytes: &mut &[u8]) -> u64 {
    match bytes.split_first() {
        Some((&byte, rest)) if byte < 0x80 => {
            *bytes = rest;
            u64::from(byte)
        }
        _ => wire::get_varint(bytes).expect(CANONICAL),
    }
}

/// Takes the `len` bytes at the front of a page's `bytes` off it.
fn take<'a>(bytes: &mut &'a [u8], len: u64) -> &'a [u8] {
    let (taken, rest) = bytes.split_at(len as usize);
    *bytes = rest;
    taken
}

/// The bytes a key this long or shorter takes in a [`Key`] without the
/// heap.
const INLINE_KEY: usize = 20;

/// A key rebuilt record by record — its prefix kept, its rest replaced —
/// by a walk over a page or an image, or a vector's snapshot: up to
/// [`INLINE_KEY`] bytes held inline, a longer one on the heap. A walk of a
/// store is a cursor a shard, so a cursor that took a block for its key
/// took 512 of them for a walk of a store of 512 shards; and a cursor
/// is bounded at 128 B with its heap entry (`Records`), so the inline
/// part is short.
#[derive(Clone)]
pub(crate) struct Key {
    inline: [u8; INLINE_KEY],
    len: u32,
    /// The whole key while it is longer than [`INLINE_KEY`].
    heap: Vec<u8>,
}

impl Default for Key {
    fn default() -> Self {
        Key {
            inline: [0; INLINE_KEY],
            len: 0,
            heap: Vec::new(),
        }
    }
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl Key {
    pub(crate) fn as_slice(&self) -> &[u8] {
        let len = self.len as usize;
        match len <= INLINE_KEY {
            true => &self.inline[..len],
            false => &self.heap[..len],
        }
    }

    /// Keeps the first `len` bytes and appends `rest` behind them.
    pub(crate) fn rebuild(&mut self, len: usize, rest: &[u8]) {
        let held = self.len as usize;
        let len = len.min(held);
        let whole = len + rest.len();
        if whole <= INLINE_KEY {
            if held > INLINE_KEY {
                self.inline[..len].copy_from_slice(&self.heap[..len]);
            }
            // A rest is a byte or two where keys share their prefixes: a
            // loop, not a call to copy so few.
            for (to, from) in self.inline[len..whole].iter_mut().zip(rest) {
                *to = *from;
            }
        } else {
            if held <= INLINE_KEY {
                self.heap.clear();
                self.heap.extend_from_slice(&self.inline[..len]);
            }
            self.heap.truncate(len);
            self.heap.extend_from_slice(rest);
        }
        self.len = u32::try_from(whole).expect("a key shorter than 4 GiB");
    }

    /// Replaces the whole of it with `bytes`.
    pub(crate) fn set(&mut self, bytes: &[u8]) {
        self.rebuild(0, bytes);
    }

    /// Replaces the whole of it with the `len` bytes `write` writes.
    pub(crate) fn fill(&mut self, len: usize, write: impl FnOnce(&mut [u8])) {
        if len <= INLINE_KEY {
            write(&mut self.inline[..len]);
        } else {
            self.heap.clear();
            self.heap.resize(len, 0);
            write(&mut self.heap);
        }
        self.len = u32::try_from(len).expect("a snapshot shorter than 4 GiB");
    }
}

/// The length of the prefix `a` and `b` share.
pub(crate) fn shared_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(a, b)| a == b).count()
}

impl<'a> Coded<'a> {
    /// `key` holding `state`, against the key and the vector of the
    /// entry before it (`None` for the first entry): the longest prefix
    /// shared, the vector left out where it is the one before. The key
    /// must be above the key before.
    pub(crate) fn of(key: &'a [u8], state: View<'a>, before: Option<(&[u8], &[u8])>) -> Self {
        let (shared, repeats) = match before {
            None => (0, false),
            Some((last, vector)) => (shared_prefix(key, last), state.meta == vector),
        };
        Coded {
            shared,
            rest: &key[shared..],
            vector: (!repeats).then_some(state.meta),
            value: state.value,
        }
    }

    /// `varint(shared << 3 | min(rest, 7))`, then the rest's length less
    /// 7 where it is 7 or more.
    fn key_head(&self) -> (u64, Option<u64>) {
        let rest = self.rest.len() as u64;
        let escape = (rest >= REST_ESCAPE).then(|| rest - REST_ESCAPE);
        ((self.shared as u64) << 3 | rest.min(REST_ESCAPE), escape)
    }

    /// `varint(value_code << 1 | repeats)`: the value's length plus one,
    /// 0 for a tombstone.
    fn state_head(&self) -> u64 {
        let code = self.value.map_or(0, |v| v.len() as u64 + 1);
        code << 1 | u64::from(self.vector.is_none())
    }

    /// Its length in bytes.
    pub(crate) fn len(&self) -> usize {
        let (head, escape) = self.key_head();
        wire::varint_len(head)
            + escape.map_or(0, wire::varint_len)
            + self.rest.len()
            + wire::varint_len(self.state_head())
            + self.vector.map_or(0, |v| wire::bytes_len(v.len()))
            + self.value.map_or(0, <[u8]>::len)
    }

    /// Writes it to `out`, [`len`](Self::len) bytes: a page's writer and
    /// an image's.
    pub(crate) fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        let (head, escape) = self.key_head();
        wire::write_varint(out, head)?;
        escape.map_or(Ok(()), |escape| wire::write_varint(out, escape))?;
        out.write_all(self.rest)?;
        wire::write_varint(out, self.state_head())?;
        if let Some(vector) = self.vector {
            wire::write_varint(out, vector.len() as u64)?;
            out.write_all(vector)?;
        }
        self.value.map_or(Ok(()), |value| out.write_all(value))
    }

    /// The record at the front of `bytes` — records written back to
    /// back, as a page holds them — and what follows it.
    pub(crate) fn split_first(mut bytes: &'a [u8]) -> (Self, &'a [u8]) {
        let head = varint(&mut bytes);
        let rest = match head & REST_ESCAPE {
            REST_ESCAPE => REST_ESCAPE + varint(&mut bytes),
            rest => rest,
        };
        let rest = take(&mut bytes, rest);
        let state = varint(&mut bytes);
        let vector = (state & 1 == 0).then(|| {
            let len = varint(&mut bytes);
            take(&mut bytes, len)
        });
        let value = match state >> 1 {
            0 => None,
            code => Some(take(&mut bytes, code - 1)),
        };
        let coded = Coded {
            shared: (head >> 3) as usize,
            rest,
            vector,
            value,
        };
        (coded, bytes)
    }
}

/// Appends to `out` the snapshot the vector's encoder writes for the
/// vector that fills `meta`, without building it: [`RotCore::recode_snapshot`]
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

impl<'a> View<'a> {
    /// The state `state` holds if it is laid out as
    /// [`KvStore::encode_entry`](crate::KvStore::encode_entry) writes one — the vector's field and, behind tag 1, the value's,
    /// each length as short as it goes, and nothing behind them — and
    /// its vector is no empty field; else `None`. The vector is found,
    /// not decoded ([`EntryImage::new`](crate::EntryImage::new) decodes
    /// it).
    pub(crate) fn of_state(mut state: &'a [u8]) -> Option<Self> {
        let meta = wire::get_slice(&mut state)
            .ok()
            .filter(|meta| !meta.is_empty())?;
        let value = match state.split_first()? {
            (0, rest) => {
                state = rest;
                None
            }
            (1, rest) => {
                state = rest;
                Some(wire::get_slice(&mut state).ok()?)
            }
            _ => return None,
        };
        state.is_empty().then_some(View { meta, value })
    }

    /// The state of `meta` and `value`, its vector's snapshot written
    /// into `snapshot` by the vector's encoder: inline where it is short,
    /// as nearly every vector is, so that a `put` takes no block for it.
    pub(crate) fn written(meta: &Srv, value: Option<&'a [u8]>, snapshot: &'a mut Key) -> Self {
        let core = meta.as_core();
        snapshot.fill(core.snapshot_len(), |out| core.write_snapshot(out));
        View {
            meta: snapshot.as_slice(),
            value,
        }
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
pub(crate) fn entry_hash(key: &[u8], view: View<'_>) -> u64 {
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
