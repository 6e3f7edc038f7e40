//! What a store writes and reads back: whole-store snapshots, a plan's
//! shard images, log records and values in flight. The first three are
//! one image ([`EntryImage`]): a count, then each entry in strictly
//! ascending key order behind two heads, written where it goes from
//! where the entries lie. The key head packs the length of the prefix
//! the key shares with the key before and the length of the rest; the
//! state head packs the value's length, or a tombstone, and whether the
//! vector is the entry before's, written out only where it is not:
//!
//! ```text
//! image: varint n | n × entry, keys strictly ascending
//! entry: varint(shared << 3 | min(rest, 7)) | [varint(rest − 7)] | rest of key
//!        varint(value_code << 1 | repeats) | [bytes vector] | value
//!        (value_code: 0 a tombstone, len + 1 a value; the vector only
//!         where repeats is 0; the rest's length only where it is 7 or more)
//! ```
//!
//! An entry is coded by `record::Coded`, the writer a shard's pages are
//! written with too: a page is an image of its records without the
//! count, so a store's own entries are handed to an image's writer as
//! the parts a page holds ([`Entries`]), each key rebuilt by a walk of
//! its page, and written against the entry before in the image.
//!
//! One entry reader ([`ImageEntries`]) reads every image back — a boot
//! through one chunked reader, a join's plan and a replayed log record
//! ([`KvStore::apply_image`]) from a buffer — and refuses every encoding
//! but the writer's.

use crate::record::{recode_vector, Coded, Key, View, REST_ESCAPE};
use crate::shard::{shard_index, Cursor, Named, Run};
use crate::{env_shards, KvStore, Value};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use optrep_core::error::WireError;
use optrep_core::wire;
#[cfg(test)]
use optrep_core::Srv;
use optrep_replication::planner::JOURNAL_CAP;
use std::io::{self, Read, Write};

impl KvStore {
    /// Encodes the records of the given plan shards at plan-shard count
    /// `count` (strictly increasing) as one image in key order: a varint
    /// entry count followed by each entry ([`EntryImage`]) — the layout
    /// of [`encode_snapshot`](Self::encode_snapshot) without the site
    /// header: a plan's image crosses sites, so it carries no site id. A
    /// plan's bulk-loaded shards cross as this.
    pub fn encode_shard_snapshot(&self, shards: &[u64], count: usize) -> Bytes {
        let named = Some(Named::new(shards, count, self.shards.len()));
        let image = EntryImage::of_records(Stored { store: self, named });
        let mut buf = Vec::with_capacity(image.encoded_len());
        image.write_to(&mut buf).expect("a Vec takes every byte");
        Bytes::from(buf)
    }

    /// Serializes the whole store into a durable snapshot: the site,
    /// then the image of every record in key order —
    /// [`snapshot_image`](Self::snapshot_image) written into one buffer
    /// of its exact size.
    pub fn encode_snapshot(&self) -> Bytes {
        let image = self.snapshot_image();
        let len = image.encoded_len();
        let mut buf = Vec::with_capacity(len);
        image.write_to(&mut buf).expect("a Vec takes every byte");
        debug_assert_eq!(buf.len(), len, "encoded_len must match write_to");
        Bytes::from(buf)
    }

    /// The store's snapshot, ready to be written where it goes without an
    /// image in memory: what [`encode_snapshot`](Self::encode_snapshot)
    /// encodes, and what a checkpoint streams into its file.
    pub fn snapshot_image(&self) -> SnapshotImage<'_> {
        let store = Stored {
            store: self,
            named: None,
        };
        SnapshotImage {
            site: self.site.index(),
            image: EntryImage::of_records(store),
        }
    }

    /// The wire form of one entry's *current* state, as the store holds
    /// it: the length-prefixed metadata snapshot, then the value behind a
    /// one-byte tag. Listed with its key in an [`EntryImage`], which
    /// reads it and writes it behind a head of its own, it is what a
    /// write-ahead log records per mutated key — logging post-states
    /// instead of operations makes replay exact and idempotent regardless
    /// of what produced the state (a local write, a fast-forward, or a
    /// resolver's reconciliation).
    ///
    /// Returns `None` if the key is not tracked (never written).
    pub fn encode_entry(&self, key: &str) -> Option<Bytes> {
        self.view(key.as_bytes()).map(encode_state)
    }

    /// The entries of `keys`, strictly ascending and each tracked, as the
    /// store holds them: what a log append writes for them, each key's
    /// state handed over as the parts its page holds, with nothing copied
    /// out of the store.
    ///
    /// # Panics
    ///
    /// A walk of them panics at a key the store does not track.
    pub fn entries_of<'s>(&'s self, keys: &'s [String]) -> impl Entries + 's {
        Keyed { store: self, keys }
    }

    /// Overwrites one entry with a state captured by
    /// [`encode_entry`](Self::encode_entry), bumping the write
    /// generation: [`apply_image`](Self::apply_image) of the image of
    /// that one entry.
    ///
    /// # Errors
    ///
    /// [`WireError::InvalidPayload`] for a state no store wrote — cut
    /// short, with bytes behind it, or written any other way than
    /// [`encode_entry`](Self::encode_entry) writes it — as
    /// [`EntryImage::new`] refuses it; the store is untouched on error.
    pub fn apply_encoded_entry(
        &mut self,
        key: impl Into<String>,
        buf: &mut Bytes,
    ) -> std::result::Result<(), WireError> {
        let key = key.into();
        let entry = std::iter::once((key.as_bytes(), &buf[..]));
        let image = EntryImage::new(entry).ok_or(WireError::InvalidPayload)?;
        let mut bytes = Vec::with_capacity(image.encoded_len());
        image.write_to(&mut bytes).expect("a Vec takes every byte");
        self.apply_image(&bytes)?;
        buf.advance(buf.len());
        Ok(())
    }

    /// Overwrites every entry one image lists — a log record's payload,
    /// written by [`EntryImage`] — with the state it lists, as that many
    /// writes: the generation and the change journal move once an entry,
    /// in key order, each entry counted against the record its shard
    /// holds. The entries before the image's last `JOURNAL_CAP` are
    /// evicted by its own: they are counted and passed, not summed. The
    /// WAL replay path: applying every logged record in order rebuilds
    /// the store the log described.
    ///
    /// The image is read by [`ImageEntries`], as a boot and a join read
    /// theirs, twice: once whole, storing nothing, and once in its key
    /// order, each entry journalled as it is read and written into the run
    /// of the shard it falls in; each touched shard then takes its run in
    /// one merge ([`Shard::append`](crate::shard::Shard::append)), which
    /// rewrites each page its keys fall in once, not once a key. An image
    /// of one entry builds one run, and no run a shard. Read once into
    /// the runs and journalled by a merge of the runs' cursors, a replay
    /// held a cursor a shard beside the runs, each holding the key it
    /// rebuilt: over `checkpoint_heap.rs`' bound of 128 B a shard at 512
    /// shards.
    ///
    /// # Errors
    ///
    /// [`ImageEntries::take`]'s — a key listed twice or out of order, a
    /// vector written any way but the writer's — and
    /// [`WireError::InvalidPayload`] for bytes past the last entry; the
    /// store is untouched on error: every entry is read before the first
    /// is counted or stored.
    pub fn apply_image(&mut self, image: &[u8]) -> std::result::Result<(), WireError> {
        let mut rest = image;
        let n = wire::get_varint(&mut rest)?;
        let body = rest;
        let mut entries = ImageEntries::default();
        for _ in 0..n {
            entries.take(&mut rest)?;
        }
        if !rest.is_empty() {
            return Err(WireError::InvalidPayload);
        }
        let physical = self.shards.len();
        let table = n > 1;
        let mut runs: Vec<Run> = (0..if table { physical } else { 1 })
            .map(|_| Run::default())
            .collect();
        let (mut rest, mut entries, mut alone) = (body, ImageEntries::default(), 0);
        let passed = (n as usize).saturating_sub(JOURNAL_CAP);
        for at in 0..n as usize {
            let read = entries.take(&mut rest);
            let (key, state) = read.expect("an image read whole reads again");
            let shard = shard_index(key.as_bytes(), physical);
            let change =
                (at >= passed).then(|| self.shards[shard].change_of(key.as_bytes(), state));
            self.touch(key.as_bytes(), change);
            alone = shard;
            runs[if table { shard } else { 0 }].push(key, state);
        }
        for (at, run) in runs.into_iter().enumerate() {
            if run.len() > 0 {
                self.shards[if table { at } else { alone }].append(run);
            }
        }
        Ok(())
    }

    /// Rebuilds a store from [`encode_snapshot`](Self::encode_snapshot)
    /// output: [`read_snapshot`](Self::read_snapshot) over `buf` as one
    /// chunk. `buf` is left holding what follows the image.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated or malformed input.
    pub fn decode_snapshot(buf: &mut Bytes) -> std::result::Result<Self, WireError> {
        let mut reader = ChunkReader::one(std::mem::take(buf));
        let store = Self::read_snapshot(&mut reader, |_| {});
        *buf = reader.into_rest();
        store.map_err(|e| match e {
            ReadError::Wire(e) => e,
            ReadError::Io(_) => unreachable!("a one-chunk reader has no source to fail"),
        })
    }

    /// Rebuilds a store from an [`encode_snapshot`](Self::encode_snapshot)
    /// image read off `reader` a record at a time, handing `seen` every
    /// byte of the image as it is decoded (a caller's checksum). The
    /// image is never whole in memory: the reader holds a chunk, or one
    /// record longer than a chunk. Each record is written into its
    /// shard's open page as it is decoded, and each shard is built whole
    /// from its pages once the image is read, its nodes full.
    ///
    /// # Errors
    ///
    /// [`ReadError::Io`] when the reader's source fails;
    /// [`ReadError::Wire`] on truncated or malformed input, keys that
    /// are not strictly ascending included.
    pub fn read_snapshot<R: Read>(
        reader: &mut ChunkReader<R>,
        seen: impl FnMut(&[u8]),
    ) -> std::result::Result<Self, ReadError> {
        // The shard count is a local layout choice, never serialized:
        // rebuilding at the environment's count reshards at boot for free.
        Self::read_snapshot_at(reader, seen, env_shards())
    }

    /// [`read_snapshot`](Self::read_snapshot) into a store of `shards`
    /// shards.
    pub(crate) fn read_snapshot_at<R: Read>(
        reader: &mut ChunkReader<R>,
        mut seen: impl FnMut(&[u8]),
        shards: usize,
    ) -> std::result::Result<Self, ReadError> {
        let (site, n) = reader.next_seen(
            |buf| {
                Reach::of(buf, |r| {
                    r.varint()?;
                    r.varint().map(drop)
                })
            },
            |buf| Ok((wire::get_site(buf)?, wire::get_varint(buf)?)),
            &mut seen,
        )?;
        let mut store = KvStore::with_shards(site, shards);
        let physical = store.shards.len();
        let mut runs: Vec<Run> = (0..physical).map(|_| Run::default()).collect();
        // Strictly ascending: each run lists its keys once, in order.
        let mut entries = ImageEntries::default();
        for _ in 0..n {
            let decode = |entry: &mut &[u8]| {
                let (key, state) = entries.take(entry)?;
                runs[shard_index(key.as_bytes(), physical)].push(key, state);
                Ok(())
            };
            reader.next_seen(entry_reach, decode, &mut seen)?;
        }
        for (shard, run) in store.shards.iter_mut().zip(runs) {
            shard.append(run);
        }
        Ok(store)
    }
}

/// The entries of an image, each read against the entry before it: the
/// one reader of a boot's image, a plan's image and a log record. An
/// entry's key is rebuilt by [`Ascending`]; then its state head says
/// whether its vector is the vector of the entry before, copied, or is
/// written out, re-encoded once, here, and kept for the entry after, and
/// how long its value is. Either way the state it hands on holds the
/// vector as a record holds it, to be copied. A state has one encoding
/// in an image, the writer's: its head as short as it goes, its vector
/// written out on the first entry and wherever it differs from the
/// vector before, and only there.
#[derive(Debug, Default)]
pub(crate) struct ImageEntries {
    keys: Ascending,
    /// The vector of the entry before, as a record holds it: empty
    /// before the first entry (no vector snapshot is empty).
    vector: Vec<u8>,
    /// Where an entry's own vector is re-encoded.
    recoded: Vec<u8>,
}

impl ImageEntries {
    /// Takes the entry at the front of `entry` off it: its key, rebuilt,
    /// and its state, its vector canonical.
    ///
    /// # Errors
    ///
    /// [`Ascending::take`]'s; then [`wire::get_varint`]'s for the state
    /// head, [`WireError::InvalidPayload`] for a repeated vector on the
    /// first entry and for an empty vector field, the vector decoder's and
    /// [`recode_vector`]'s, [`WireError::InvalidPayload`] for a vector
    /// written out that is the vector before, and
    /// [`WireError::UnexpectedEof`] for a value cut short.
    pub(crate) fn take<'s, 'e: 's>(
        &'s mut self,
        entry: &mut &'e [u8],
    ) -> std::result::Result<(&'s str, View<'s>), WireError> {
        let key = self.keys.take(entry)?;
        let head = wire::get_varint(entry)?;
        if head & 1 == 1 {
            if self.vector.is_empty() {
                return Err(WireError::InvalidPayload);
            }
        } else {
            let meta = wire::get_slice(entry)?;
            if meta.is_empty() {
                return Err(WireError::InvalidPayload);
            }
            self.recoded.clear();
            recode_vector(&mut self.recoded, meta)?;
            if self.recoded == self.vector {
                return Err(WireError::InvalidPayload);
            }
            std::mem::swap(&mut self.recoded, &mut self.vector);
        }
        let value = match head >> 1 {
            0 => None,
            code => Some(take_bytes(entry, code - 1)?),
        };
        let meta = &self.vector[..];
        Ok((key, View { meta, value }))
    }
}

/// `state` laid out as [`KvStore::encode_entry`] writes it.
pub(crate) fn encode_state(state: View<'_>) -> Bytes {
    let value = state.value.map_or(0, |v| wire::bytes_len(v.len()));
    let mut buf = BytesMut::with_capacity(wire::bytes_len(state.meta.len()) + 1 + value);
    wire::put_bytes(&mut buf, state.meta);
    match state.value {
        Some(v) => {
            buf.put_u8(1);
            wire::put_bytes(&mut buf, v);
        }
        None => buf.put_u8(0),
    }
    buf.freeze()
}

/// The `len` bytes at the front of `entry`, taken off it.
fn take_bytes<'e>(entry: &mut &'e [u8], len: u64) -> std::result::Result<&'e [u8], WireError> {
    let len = usize::try_from(len).unwrap_or(usize::MAX);
    let taken = entry.get(..len).ok_or(WireError::UnexpectedEof)?;
    *entry = &entry[len..];
    Ok(taken)
}

/// The keys of an image, each rebuilt in one reused buffer from the
/// length of the prefix it shares with the key before it (the first, none)
/// and the rest, both read off its key head. An image lists its keys
/// strictly ascending, each sharing all it can, so a key has one
/// encoding: any other is refused.
#[derive(Debug, Default)]
struct Ascending(Option<Vec<u8>>);

impl Ascending {
    /// Takes the key at the front of `entry` off it, rebuilt, if it
    /// follows every key taken before it.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] on a cut key; [`WireError::InvalidPayload`]
    /// on a head or a rest length written longer than it goes, a shared
    /// length past the key before (any on the first key), a shared prefix
    /// that is not the longest, an empty or descending rest and a rebuilt
    /// key that is not UTF-8.
    fn take(&mut self, entry: &mut &[u8]) -> std::result::Result<&str, WireError> {
        let first = self.0.is_none();
        let head = wire::get_varint(entry)?;
        let shared = usize::try_from(head >> 3).unwrap_or(usize::MAX);
        let rest = match head & REST_ESCAPE {
            REST_ESCAPE => REST_ESCAPE.saturating_add(wire::get_varint(entry)?),
            len => len,
        };
        let rest = take_bytes(entry, rest)?;
        let key = self.0.get_or_insert_default();
        // The rest starts above the byte it replaces, or extends the key
        // before; only a first key may be empty.
        let follows = match (key.get(shared..), rest.first()) {
            (Some([before, ..]), Some(byte)) => byte > before,
            (Some([]), Some(_)) => true,
            (Some(_), None) => first,
            (None, _) => false,
        };
        if !follows {
            return Err(WireError::InvalidPayload);
        }
        key.truncate(shared);
        key.extend_from_slice(rest);
        std::str::from_utf8(key).map_err(|_| WireError::InvalidPayload)
    }
}

/// The image a log record's writer would write of `entries` were it to
/// take them as listed — keys out of order or repeated, too: what a
/// hostile or corrupt log record holds, under a checksum that holds.
#[cfg(test)]
pub(crate) fn image_as_listed<K: AsRef<[u8]>, E: AsRef<[u8]>>(
    entries: impl Iterator<Item = (K, E)> + Clone,
) -> Vec<u8> {
    let mut buf = Vec::new();
    wire::write_varint(&mut buf, entries.clone().count() as u64).expect("a Vec takes every byte");
    let mut before: Option<(Vec<u8>, Vec<u8>)> = None;
    for (key, state) in entries {
        let state = View::of_state(state.as_ref()).expect("a state a store writes");
        let last = before.as_ref().map(|(key, vector)| (&key[..], &vector[..]));
        Coded::of(key.as_ref(), state, last)
            .write_to(&mut buf)
            .expect("a Vec takes every byte");
        before = Some((key.as_ref().to_vec(), state.meta.to_vec()));
    }
    buf
}

/// The test oracle for an image's state reader: an entry's state decoded
/// the way every decoder once read it — the vector built, the value a
/// slice of `buf` — to be written back by the store's writer. No store
/// path reads a state this way.
#[cfg(test)]
pub(crate) fn decode_state(buf: &mut Bytes) -> std::result::Result<(Srv, Value), WireError> {
    let mut meta_bytes = wire::get_bytes(buf)?;
    let meta = Srv::decode_snapshot(&mut meta_bytes)?;
    if meta_bytes.has_remaining() {
        return Err(WireError::InvalidPayload);
    }
    if !buf.has_remaining() {
        return Err(WireError::UnexpectedEof);
    }
    let value = match buf.get_u8() {
        0 => None,
        1 => Some(wire::get_bytes(buf)?),
        _ => return Err(WireError::InvalidPayload),
    };
    Ok((meta, value))
}

/// How far the entry at the front of `buf` reaches: the walk a decoder
/// makes, over its heads and the lengths they give.
fn entry_reach(buf: &[u8]) -> usize {
    let len = |len: u64| usize::try_from(len).unwrap_or(usize::MAX);
    Reach::of(buf, |r| {
        let rest = match r.varint()? & REST_ESCAPE {
            REST_ESCAPE => REST_ESCAPE.saturating_add(r.varint()?),
            rest => rest,
        };
        r.skip(len(rest))?;
        let head = r.varint()?;
        if head & 1 == 0 {
            r.field()?;
        }
        r.skip(len((head >> 1).saturating_sub(1)))
    })
}

/// A store's records in key order, as an image lists them: those of the
/// named plan shards, or every one. Each walk is a merge of the shards'
/// pages ([`KvStore::sorted`], [`Named::sorted`]).
#[derive(Debug)]
struct Stored<'a> {
    store: &'a KvStore,
    named: Option<Named>,
}

impl Entries for Stored<'_> {
    fn each<X>(&self, each: impl FnMut(Entry<'_>) -> Result<(), X>) -> Result<(), X> {
        match &self.named {
            Some(named) => hand(named.sorted(self.store, |_| true), each),
            None => hand(self.store.sorted(), each),
        }
    }
}

/// Hands `each` every record of `cursor`, in its order, until it returns
/// an error.
pub(crate) fn hand<'a, X>(
    mut cursor: impl Cursor<'a>,
    mut each: impl FnMut(Entry<'_>) -> Result<(), X>,
) -> Result<(), X> {
    while cursor.step() {
        each(Entry::of(cursor.key(), cursor.view()))?;
    }
    Ok(())
}

/// Listed keys of a store and their states ([`KvStore::entries_of`]).
struct Keyed<'s> {
    store: &'s KvStore,
    keys: &'s [String],
}

impl Entries for Keyed<'_> {
    fn each<X>(&self, mut each: impl FnMut(Entry<'_>) -> Result<(), X>) -> Result<(), X> {
        for key in self.keys {
            let state = self.store.view(key.as_bytes());
            each(Entry::of(
                key.as_bytes(),
                state.expect("a listed key is tracked"),
            ))?;
        }
        Ok(())
    }
}

/// A whole store's snapshot as the store it copies: the site, then the
/// [`EntryImage`] of every record in key order. It holds the store's
/// merge ([`KvStore::sorted`]) and the image's length, summed over one
/// walk of it, and is written where it goes, into one buffer of its
/// exact size or into a checkpoint's file, by a second.
#[derive(Debug)]
pub struct SnapshotImage<'a> {
    site: u32,
    image: EntryImage<Stored<'a>>,
}

impl SnapshotImage<'_> {
    /// The image's length in bytes.
    pub fn encoded_len(&self) -> usize {
        wire::varint_len(u64::from(self.site)) + self.image.encoded_len()
    }

    /// Writes the image to `out`: its header, then every record in key
    /// order, walking the store's merge a second time.
    ///
    /// # Errors
    ///
    /// The first error `out` returns.
    pub fn write_to(self, out: &mut impl Write) -> io::Result<()> {
        wire::write_varint(out, u64::from(self.site))?;
        self.image.write_to(out)
    }
}

/// One entry an image lists: its key and its state — `None` for a state
/// no store writes, which [`EntryImage::new`] refuses.
#[derive(Debug, Clone, Copy)]
pub struct Entry<'a> {
    key: &'a [u8],
    state: Option<View<'a>>,
}

impl<'a> Entry<'a> {
    /// Its key.
    pub(crate) fn key(&self) -> &'a [u8] {
        self.key
    }

    /// Its state; `None` for one no store writes.
    #[cfg(test)]
    pub(crate) fn state(&self) -> Option<View<'a>> {
        self.state
    }

    /// `key` holding `state`, as a store holds it.
    pub(crate) fn of(key: &'a [u8], state: View<'a>) -> Self {
        Entry {
            key,
            state: Some(state),
        }
    }
}

/// What an image lists: entries in strictly ascending key order, walked
/// once to size the image and once to write it. A list of keys and
/// states as [`KvStore::encode_entry`] writes them is one, each state
/// read as it is listed; so are a store's own entries
/// ([`KvStore::entries_of`], [`Committed::entries`](crate::Committed::entries)),
/// each handed over as the parts its page holds — the key rebuilt, the
/// vector and the value borrowed — never as a state's bytes.
pub trait Entries {
    /// Hands `each` every entry, in order, until it returns an error.
    ///
    /// # Errors
    ///
    /// The first error `each` returns.
    fn each<X>(&self, each: impl FnMut(Entry<'_>) -> Result<(), X>) -> Result<(), X>;
}

impl<I, K, E> Entries for I
where
    I: Iterator<Item = (K, E)> + Clone,
    K: AsRef<[u8]>,
    E: AsRef<[u8]>,
{
    fn each<X>(&self, mut each: impl FnMut(Entry<'_>) -> Result<(), X>) -> Result<(), X> {
        for (key, state) in self.clone() {
            let state = View::of_state(state.as_ref());
            each(Entry {
                key: key.as_ref(),
                state,
            })?;
        }
        Ok(())
    }
}

/// The body of every image — a snapshot's behind its site, a plan's bulk
/// shards, a log record's payload — of entries in strictly ascending key
/// order ([`Entries`]): a varint count, then each entry against the one
/// before it behind its key head and its state head ([`Coded`]; the
/// layout is the module's). It holds the entries and its length, summed
/// over one walk of them, and is written where it goes by a second.
#[derive(Debug, Clone)]
pub struct EntryImage<S> {
    entries: S,
    count: u64,
    len: usize,
}

impl<S: Entries> EntryImage<S> {
    /// The image of `entries`, sized by one walk of them; `None` when a
    /// key does not follow every key before it, or a state is not one a
    /// store writes ([`View::of_state`]): cut short, with bytes behind
    /// it, a tag other than 0 or 1, a length written longer than it goes,
    /// an empty vector field or a vector that does not re-encode to
    /// itself. Every image it writes, its reader reads.
    pub fn new(entries: S) -> Option<Self> {
        let mut recoded = Vec::new();
        Self::sized(entries, |vector| {
            recoded.clear();
            recode_vector(&mut recoded, vector).is_ok() && recoded[..] == *vector
        })
    }

    /// The image of a store's own records, whose states a store wrote:
    /// [`new`](Self::new) without re-encoding each vector.
    ///
    /// # Panics
    ///
    /// Panics if a key does not follow the key before it.
    pub(crate) fn of_records(entries: S) -> Self {
        Self::sized(entries, |_| true).expect("a store's records ascend, each as a store writes it")
    }

    /// The image of `entries`, sized by one walk of them that takes each
    /// state [`View::of_state`] reads, each vector written out `vector`
    /// passes (a vector left out is the one before it).
    fn sized(entries: S, mut vector: impl FnMut(&[u8]) -> bool) -> Option<Self> {
        let (mut count, mut len) = (0u64, 0);
        each_coded(&entries, |coded| {
            let coded = coded
                .filter(|coded| coded.vector.is_none_or(&mut vector))
                .ok_or(())?;
            count += 1;
            len += coded.len();
            Ok::<_, ()>(())
        })
        .ok()?;
        Some(EntryImage {
            entries,
            count,
            len: wire::varint_len(count) + len,
        })
    }

    /// How many entries it lists.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Its length in bytes.
    pub fn encoded_len(&self) -> usize {
        self.len
    }

    /// Writes it to `out`, walking the entries a second time: the
    /// count, then every entry.
    ///
    /// # Errors
    ///
    /// The first error `out` returns.
    pub fn write_to(self, out: &mut impl Write) -> io::Result<()> {
        wire::write_varint(out, self.count)?;
        each_coded(&self.entries, |coded| {
            coded.expect("the entries that were sized").write_to(out)
        })
    }
}

/// Hands `each` every entry of `entries` as an image writes it, against
/// the entry before it, in order, until it returns an error: `None` for
/// an entry whose state no store writes or whose key does not follow
/// the key before. The key before and the vector last written out are
/// kept in buffers of their own, for an entry's parts are lent only
/// while it is handed over.
fn each_coded<X>(
    entries: &impl Entries,
    mut each: impl FnMut(Option<Coded<'_>>) -> Result<(), X>,
) -> Result<(), X> {
    let (mut key, mut vector, mut first) = (Key::default(), Key::default(), true);
    entries.each(|entry| {
        let before = (!first).then(|| (key.as_slice(), vector.as_slice()));
        let coded = entry.state.map(|state| Coded::of(entry.key, state, before));
        // Past the prefix it shares with the key before, the key goes on
        // above it, or on where the key before ended.
        let follows =
            |coded: &Coded<'_>| match (coded.rest.first(), key.as_slice().get(coded.shared)) {
                (Some(byte), Some(before)) => byte > before,
                (next, _) => next.is_some(),
            };
        let coded = coded.filter(|coded| first || follows(coded));
        if let Some(coded) = coded {
            key.rebuild(coded.shared, coded.rest);
            if let Some(written) = coded.vector {
                vector.set(written);
            }
        }
        first = false;
        each(coded)
    })
}

/// Why a [`ChunkReader`] returned no record.
#[derive(Debug)]
pub enum ReadError {
    /// The source failed.
    Io(io::Error),
    /// The bytes do not decode; [`WireError::UnexpectedEof`] when the
    /// source ended inside the record.
    Wire(WireError),
}

impl From<WireError> for ReadError {
    fn from(e: WireError) -> Self {
        ReadError::Wire(e)
    }
}

/// Decodes records off a byte source a bounded chunk at a time, so that
/// reading a file costs a chunk of memory, not the file. A record that
/// straddles two chunks is completed before it is decoded; a record
/// longer than a chunk grows the buffer to the whole chunks that hold
/// that one record only. The buffer never holds more than one record and
/// one chunk, nor more than the source was declared to hold.
#[derive(Debug)]
pub struct ChunkReader<R> {
    source: R,
    /// Read from the source and not yet decoded.
    window: Bytes,
    /// Source bytes not yet read.
    left: u64,
    /// Source bytes read so far.
    read: u64,
    chunk: usize,
}

impl ChunkReader<io::Empty> {
    /// A reader over `buf` alone: one chunk, with nothing behind it.
    pub fn one(buf: Bytes) -> Self {
        let read = buf.len() as u64;
        ChunkReader {
            source: io::empty(),
            window: buf,
            left: 0,
            read,
            chunk: 0,
        }
    }
}

impl<R: Read> ChunkReader<R> {
    /// A reader of the `len` bytes `source` holds, `chunk` bytes a read.
    pub fn new(source: R, len: u64, chunk: usize) -> Self {
        ChunkReader {
            source,
            window: Bytes::new(),
            left: len,
            read: 0,
            chunk: chunk.max(1),
        }
    }

    /// Bytes consumed by decoded records.
    pub fn consumed(&self) -> u64 {
        self.read - self.window.len() as u64
    }

    /// Bytes not yet consumed, read or not.
    pub fn remaining(&self) -> u64 {
        self.window.len() as u64 + self.left
    }

    /// What the reader read and did not decode.
    pub fn into_rest(self) -> Bytes {
        self.window
    }

    /// Decodes the next record: reads until `reach` (see [`Reach`]) says
    /// the buffer holds it whole, or until the source cannot complete it,
    /// then runs `decode` over the buffer, which consumes the record.
    ///
    /// # Errors
    ///
    /// [`ReadError::Io`] when the source fails, and `decode`'s error
    /// otherwise — [`WireError::UnexpectedEof`] for a record the source
    /// ends inside.
    pub fn next<T>(
        &mut self,
        reach: impl Fn(&[u8]) -> usize,
        decode: impl FnOnce(&mut Bytes) -> std::result::Result<T, WireError>,
    ) -> std::result::Result<T, ReadError> {
        self.fill_to(reach)?;
        let mut rest = self.window.clone();
        let decoded = decode(&mut rest)?;
        self.window = rest;
        Ok(decoded)
    }

    /// [`next`](Self::next) with `decode` reading the record off the
    /// buffer as a slice, handing `seen` the bytes of the record it
    /// decoded.
    fn next_seen<T>(
        &mut self,
        reach: impl Fn(&[u8]) -> usize,
        decode: impl FnOnce(&mut &[u8]) -> std::result::Result<T, WireError>,
        mut seen: impl FnMut(&[u8]),
    ) -> std::result::Result<T, ReadError> {
        self.fill_to(reach)?;
        let mut rest = &self.window[..];
        let decoded = decode(&mut rest)?;
        let used = self.window.len() - rest.len();
        seen(&self.window[..used]);
        self.window.advance(used);
        Ok(decoded)
    }

    /// Reads until `reach` says the buffer holds the next record whole,
    /// or until the source cannot complete it.
    fn fill_to(&mut self, reach: impl Fn(&[u8]) -> usize) -> std::result::Result<(), ReadError> {
        while self.left > 0 {
            let want = reach(&self.window);
            let held = self.window.len();
            // A record the source cannot complete is left for `decode` to
            // refuse, without reading toward it.
            if want <= held || (want - held) as u64 > self.left {
                break;
            }
            self.fill(want).map_err(ReadError::Io)?;
        }
        Ok(())
    }

    /// Reads on from what the buffer holds to the next whole chunk, or,
    /// for a record that reaches further, to the whole chunk past `want`
    /// — that record's end or a length it reaches at least — into a
    /// buffer of exactly that size. Every buffer but the source's last is
    /// a whole number of chunks, so a boot's and a replay's buffers come
    /// in a few sizes, whatever the records' lengths, and one freed fits
    /// the next: read to each long record's end and a chunk past what was
    /// held, `dense_pull`'s set-up, which replays records of 8 192 keys,
    /// peaked 1 MiB higher in half the runs.
    fn fill(&mut self, want: usize) -> io::Result<()> {
        let held = self.window.len();
        let left = usize::try_from(self.left).unwrap_or(usize::MAX);
        let len = want.max(held + 1).next_multiple_of(self.chunk);
        let len = len.min(held.saturating_add(left));
        let mut buf = Vec::with_capacity(len);
        buf.extend_from_slice(&self.window);
        buf.resize(len, 0);
        self.source.read_exact(&mut buf[held..])?;
        self.left -= (len - held) as u64;
        self.read += (len - held) as u64;
        self.window = Bytes::from(buf);
        Ok(())
    }
}

/// A walk over the length prefixes of the record at the front of a
/// buffer, before it is decoded: how far a [`ChunkReader`] must read for
/// the record to be whole. Each step returns `Err` with how far the
/// record reaches at least when the buffer stops short of the step.
#[derive(Debug)]
pub struct Reach<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reach<'a> {
    /// The length of the record at the front of `buf` when `buf` holds it
    /// whole, else a length past `buf`'s end that it reaches at least;
    /// `walk` steps over its fields as its decoder reads them. A length
    /// prefix that is malformed ends the walk where it is: the decoder
    /// says what is wrong with it.
    pub fn of(buf: &'a [u8], walk: impl FnOnce(&mut Self) -> Result<(), usize>) -> usize {
        let mut reach = Reach { buf, at: 0 };
        match walk(&mut reach) {
            Ok(()) => reach.at,
            Err(at_least) => at_least,
        }
    }

    /// Steps over a varint and returns it.
    pub fn varint(&mut self) -> Result<u64, usize> {
        let mut rest = &self.buf[self.at..];
        match wire::get_varint(&mut rest) {
            Ok(value) => {
                self.at = self.buf.len() - rest.len();
                Ok(value)
            }
            Err(WireError::UnexpectedEof) => Err(self.buf.len() + 1),
            Err(_) => Err(self.at),
        }
    }

    /// Steps over a length-prefixed field.
    pub fn field(&mut self) -> Result<(), usize> {
        let len = self.varint()?;
        self.skip(usize::try_from(len).unwrap_or(usize::MAX))
    }

    /// Steps over `len` bytes.
    pub fn skip(&mut self, len: usize) -> Result<(), usize> {
        self.at = self.at.saturating_add(len);
        if self.at > self.buf.len() {
            return Err(self.at);
        }
        Ok(())
    }
}

/// Wire form of a value in flight: `[0]` is a tombstone, `[1, bytes…]` a
/// value — the same one-byte tag the snapshot format uses.
pub(crate) fn encode_value(value: Option<&[u8]>) -> Bytes {
    match value {
        Some(v) => {
            let mut buf = BytesMut::with_capacity(v.len() + 1);
            buf.put_u8(1);
            buf.put_slice(v);
            buf.freeze()
        }
        None => Bytes::from(vec![0u8]),
    }
}

pub(crate) fn decode_value(mut buf: Bytes) -> std::result::Result<Value, WireError> {
    if !buf.has_remaining() {
        return Err(WireError::UnexpectedEof);
    }
    match buf.get_u8() {
        0 if !buf.has_remaining() => Ok(None),
        1 => Ok(Some(buf)),
        _ => Err(WireError::InvalidPayload),
    }
}

#[cfg(test)]
mod tests;
