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
//! One entry reader ([`ImageEntries`]) reads every image back — a boot
//! through one chunked reader, a join's plan and a replayed log record
//! ([`KvStore::apply_image`]) from a buffer — and refuses every encoding
//! but the writer's.

use crate::record::{canonical_varint, recode_vector, Record, View};
use crate::shard::{shard_index, Merge, Records, Run};
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
        let records = self.records_in(shards, count, |_| true);
        let image = EntryImage::of_records(records.into_iter().map(Record::split));
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
        let records: Sorted<'_> = self.sorted().map(Record::split);
        SnapshotImage {
            site: self.site.index(),
            image: EntryImage::of_records(records),
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
        self.encoded_entry(key).map(Bytes::copy_from_slice)
    }

    /// [`encode_entry`](Self::encode_entry)'s bytes borrowed from the
    /// store instead of copied out of it: what a log append writes for
    /// the key, with no block of its own a key.
    pub fn encoded_entry(&self, key: &str) -> Option<&[u8]> {
        Some(self.record(key.as_bytes())?.split().1)
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
    /// theirs: each entry is written, as it is read, into the run of the
    /// shard it falls in, and each touched shard then takes its run in
    /// one merge ([`Shard::append`](crate::shard::Shard::append)), which
    /// rewrites each page its keys fall in once, not once a key. An
    /// image of one entry builds one run, and no run a shard.
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
        let physical = self.shards.len();
        let table = n > 1;
        let mut runs: Vec<Run> = (0..if table { physical } else { n as usize })
            .map(|_| Run::default())
            .collect();
        // The merge's heads are reserved beside the runs, before any page:
        // reserved behind the pages, they left `dense_pull`'s set-up, which
        // replays records of 8 192 keys, at a peak 1 MiB higher in 9 of
        // 15 runs; reserved here, in none of 10.
        let heads = Vec::with_capacity(runs.len());
        let mut entries = ImageEntries::default();
        for _ in 0..n {
            let (key, state) = entries.take(&mut rest)?;
            let at = if table {
                shard_index(key.as_bytes(), physical)
            } else {
                0
            };
            runs[at].push(key, state);
        }
        if !rest.is_empty() {
            return Err(WireError::InvalidPayload);
        }
        let passed = (n as usize).saturating_sub(JOURNAL_CAP);
        let records = Merge::with_heads(heads, runs.iter().map(Run::records));
        for (at, record) in records.enumerate() {
            let shard = &self.shards[shard_index(record.key_bytes(), physical)];
            let change = (at >= passed).then(|| shard.change_of(record));
            self.touch(record.key_bytes(), change);
        }
        for run in runs {
            let first = run.records().next().map(Record::key_bytes);
            if let Some(shard) = first.map(|key| shard_index(key, physical)) {
                self.shards[shard].append(run);
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
    /// [`Ascending::take`]'s; then [`canonical_varint`]'s for the state
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
        let head = canonical_varint(entry)?;
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

/// The `len` bytes at the front of `entry`, taken off it.
fn take_bytes<'e>(entry: &mut &'e [u8], len: u64) -> std::result::Result<&'e [u8], WireError> {
    let len = usize::try_from(len).unwrap_or(usize::MAX);
    let taken = entry.get(..len).ok_or(WireError::UnexpectedEof)?;
    *entry = &entry[len..];
    Ok(taken)
}

/// The shortest rest of a key whose length its key head cannot hold:
/// the head's low bits hold a rest of up to 6 bytes, and 7 for a rest of
/// 7 or more, whose length less 7 follows.
const REST_ESCAPE: u64 = 7;

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
        let head = canonical_varint(entry)?;
        let shared = usize::try_from(head >> 3).unwrap_or(usize::MAX);
        let rest = match head & REST_ESCAPE {
            REST_ESCAPE => REST_ESCAPE.saturating_add(canonical_varint(entry)?),
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
    each_coded(entries, |entry| entry.write_to(&mut buf)).expect("a Vec takes every byte");
    buf
}

/// The test oracle for [`Record::write_state`]: an entry's state decoded
/// the way every decoder once read it — the vector built, the value a
/// slice of `buf` — to be written back by [`Record::write`]. No store
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

/// A store's records in key order, each as its key and its state.
type Sorted<'a> = std::iter::Map<Merge<'a, Records<'a>>, fn(Record<'a>) -> (&'a [u8], &'a [u8])>;

/// A whole store's snapshot as the store it copies: the site, then the
/// [`EntryImage`] of every record in key order. It holds the store's
/// merge ([`KvStore::sorted`]) and the image's length, summed over one
/// walk of it, and is written where it goes, into one buffer of its
/// exact size or into a checkpoint's file, by a second.
#[derive(Debug)]
pub struct SnapshotImage<'a> {
    site: u32,
    image: EntryImage<Sorted<'a>>,
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

/// The body of every image — a snapshot's behind its site, a plan's bulk
/// shards, a log record's payload — of entries handed over as keys and
/// states ([`KvStore::encode_entry`]'s) in strictly ascending key order:
/// a varint count, then each entry against the one before it behind its
/// key head and its state head ([`Coded`]; the layout is the module's).
/// It holds the entries and its length, summed over one walk of them —
/// which reads every state as a store writes it, its vector re-encoded
/// — and is written where it goes by a second.
#[derive(Debug, Clone)]
pub struct EntryImage<I> {
    entries: I,
    count: u64,
    len: usize,
}

impl<I, K, E> EntryImage<I>
where
    I: Iterator<Item = (K, E)> + Clone,
    K: AsRef<[u8]>,
    E: AsRef<[u8]>,
{
    /// The image of `entries`, sized by one walk of them; `None` when a
    /// key does not follow every key before it, or a state is not one a
    /// store writes ([`View::of_state`]): cut short, with bytes behind
    /// it, a tag other than 0 or 1, a length written longer than it goes,
    /// an empty vector field or a vector that does not re-encode to
    /// itself. Every image it writes, its reader reads.
    pub fn new(entries: I) -> Option<Self> {
        let mut recoded = Vec::new();
        Self::sized(entries, |state| state.written_vector(&mut recoded))
    }

    /// The image of a store's own records, whose states a store wrote:
    /// [`new`](Self::new) without re-encoding each vector.
    ///
    /// # Panics
    ///
    /// Panics if a key does not follow the key before it or a state is
    /// laid out as no store lays one out.
    pub(crate) fn of_records(entries: I) -> Self {
        Self::sized(entries, |_| true).expect("a store's records ascend, each as a store writes it")
    }

    /// The image of `entries`, sized by one walk of them that takes each
    /// state [`View::of_state`] reads and `vector` passes.
    fn sized(entries: I, mut vector: impl FnMut(View<'_>) -> bool) -> Option<Self> {
        let (mut count, mut len) = (0u64, 0);
        each_coded(entries.clone(), |entry| {
            count += 1;
            len += entry.len();
            let written = entry.state.is_some_and(&mut vector);
            (entry.follows && written).then_some(()).ok_or(())
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
        each_coded(self.entries, |entry| entry.write_to(out))
    }
}

/// An entry as an image writes it, against the entry before it.
struct Coded<'a> {
    /// The length of the prefix its key shares with the key before it:
    /// 0 for the first key, written whole.
    shared: usize,
    /// The key past that prefix.
    rest: &'a [u8],
    /// Whether its vector is the entry before's: it is then not written.
    repeats: bool,
    /// Its state, as [`View::of_state`] reads it; `None` for a state no
    /// store writes, which [`EntryImage`] refuses before it writes a byte.
    state: Option<View<'a>>,
    /// Whether its key is above the key before it.
    follows: bool,
}

impl<'a> Coded<'a> {
    /// `key` holding `state`, against the key and the state before it.
    fn of(key: &'a [u8], state: &'a [u8], before: Option<(&[u8], &[u8])>) -> Self {
        let state = View::of_state(state);
        let Some((last, last_state)) = before else {
            return Coded {
                shared: 0,
                rest: key,
                repeats: false,
                state,
                follows: true,
            };
        };
        let shared = key.iter().zip(last).take_while(|(a, b)| a == b).count();
        let follows = match (key.get(shared), last.get(shared)) {
            (Some(byte), Some(before)) => byte > before,
            (next, _) => next.is_some(),
        };
        let mut last_vector = last_state;
        let repeats = (state.zip(wire::get_slice(&mut last_vector).ok()))
            .is_some_and(|(state, last_vector)| state.meta == last_vector);
        Coded {
            shared,
            rest: &key[shared..],
            repeats,
            state,
            follows,
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
        let code = self.value().map_or(0, |v| v.len() as u64 + 1);
        code << 1 | u64::from(self.repeats)
    }

    /// Its value; `None` for a tombstone.
    fn value(&self) -> Option<&'a [u8]> {
        self.state.and_then(|state| state.value)
    }

    /// The vector where it is written out.
    fn vector(&self) -> Option<&'a [u8]> {
        let state = self.state.filter(|_| !self.repeats)?;
        Some(state.meta)
    }

    fn len(&self) -> usize {
        let (head, escape) = self.key_head();
        wire::varint_len(head)
            + escape.map_or(0, wire::varint_len)
            + self.rest.len()
            + wire::varint_len(self.state_head())
            + self.vector().map_or(0, |v| wire::bytes_len(v.len()))
            + self.value().map_or(0, <[u8]>::len)
    }

    fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        let (head, escape) = self.key_head();
        wire::write_varint(out, head)?;
        escape.map_or(Ok(()), |escape| wire::write_varint(out, escape))?;
        out.write_all(self.rest)?;
        wire::write_varint(out, self.state_head())?;
        if let Some(vector) = self.vector() {
            wire::write_varint(out, vector.len() as u64)?;
            out.write_all(vector)?;
        }
        self.value().map_or(Ok(()), |value| out.write_all(value))
    }
}

/// Hands `each` every entry as an image writes it, in order, until it
/// returns an error.
fn each_coded<K: AsRef<[u8]>, E: AsRef<[u8]>, X>(
    entries: impl Iterator<Item = (K, E)>,
    mut each: impl FnMut(&Coded<'_>) -> std::result::Result<(), X>,
) -> std::result::Result<(), X> {
    let mut before: Option<(K, E)> = None;
    for (key, state) in entries {
        let last = before.as_ref().map(|(k, e)| (k.as_ref(), e.as_ref()));
        each(&Coded::of(key.as_ref(), state.as_ref(), last))?;
        before = Some((key, state));
    }
    Ok(())
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

    /// Steps over one byte and returns it.
    pub fn byte(&mut self) -> Result<u8, usize> {
        let byte = *self.buf.get(self.at).ok_or(self.at + 1)?;
        self.at += 1;
        Ok(byte)
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
