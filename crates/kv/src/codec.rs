//! What a store writes and reads back: whole-store snapshots, shard
//! images, log records and values in flight — an image written where it
//! goes, its keys front-coded and a record's vector written only where
//! it is not the vector of the record before, and read back through one
//! chunked reader and one entry reader.

use crate::record::{recode_vector, Record, State};
use crate::shard::{shard_index, Run};
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
    /// entry count followed by each entry's front-coded key, metadata
    /// snapshot (an empty field where it is the entry before's), and
    /// tagged value (the layout of [`encode_snapshot`](Self::encode_snapshot),
    /// without the site header — a plan's image crosses sites, so it
    /// carries no site id). A plan's bulk-loaded shards cross as this.
    pub fn encode_shard_snapshot(&self, shards: &[u64], count: usize) -> Bytes {
        let records = self.records_in(shards, count, |_| true);
        let count = records.len() as u64;
        let mut buf = Vec::with_capacity(records_len(count, records.iter().copied()));
        write_records(&mut buf, count, records.into_iter()).expect("a Vec takes every byte");
        Bytes::from(buf)
    }

    /// Serializes the whole store into a durable snapshot: the site,
    /// then the image of every record in key order —
    /// [`snapshot_image`](Self::snapshot_image) written into one buffer
    /// of its exact size.
    pub fn encode_snapshot(&self) -> Bytes {
        let image = self.snapshot_image();
        let mut buf = Vec::with_capacity(image.encoded_len());
        image.write_to(&mut buf).expect("a Vec takes every byte");
        debug_assert_eq!(
            buf.len(),
            image.encoded_len(),
            "encoded_len must match write_to"
        );
        Bytes::from(buf)
    }

    /// The store's snapshot, ready to be written where it goes without an
    /// image in memory: what [`encode_snapshot`](Self::encode_snapshot)
    /// encodes, and what a checkpoint streams into its file.
    pub fn snapshot_image(&self) -> SnapshotImage<'_> {
        let count = self.tracked_entries() as u64;
        let site = wire::varint_len(u64::from(self.site.index()));
        SnapshotImage {
            store: self,
            count,
            len: site + records_len(count, self.sorted()),
        }
    }

    /// The wire form of one entry's *current* state: metadata snapshot
    /// plus the tagged value, exactly the per-entry layout
    /// [`encode_snapshot`](Self::encode_snapshot) uses (minus the key,
    /// which the caller frames separately). This is what a write-ahead
    /// log records per mutated key — logging post-states instead of
    /// operations makes replay exact and idempotent regardless of what
    /// produced the state (a local write, a fast-forward, or a
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
    /// generation: [`apply_encoded_entries`](Self::apply_encoded_entries)
    /// of that one entry.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated or malformed input (trailing
    /// bytes included); the store is untouched on error.
    pub fn apply_encoded_entry(
        &mut self,
        key: impl Into<String>,
        buf: &mut Bytes,
    ) -> std::result::Result<(), WireError> {
        let key = key.into();
        self.apply_encoded_entries(std::iter::once((key.as_bytes(), &buf[..])))?;
        buf.advance(buf.len());
        Ok(())
    }

    /// Overwrites every entry one log record lists — each key's bytes
    /// with the state [`encode_entry`](Self::encode_entry) captured for
    /// it, in log order — as that many writes: the generation and the
    /// change journal move once an entry, in log order. The WAL replay
    /// path: applying every logged record in order rebuilds the store
    /// the log described.
    ///
    /// Each entry is written, as it is read, into the run of the shard it
    /// falls in (runs only for the shards the record touches), and each
    /// touched shard then takes its run in one merge
    /// ([`Shard::append`](crate::shard::Shard::append)): a record logged
    /// in key order rewrites each page its keys fall in once, not once a
    /// key. A record that lists a key twice, or a shard's keys out of
    /// order — a commit logs a pull's keys before its joined shards' —
    /// leaves what writing its entries one by one leaves: the last entry
    /// for a key wins.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on a key that is not UTF-8 and on a state
    /// that is truncated or malformed, trailing bytes included; the store
    /// is untouched on error: every entry is read before the first is
    /// counted or stored.
    pub fn apply_encoded_entries<'e>(
        &mut self,
        entries: impl Iterator<Item = (&'e [u8], &'e [u8])> + Clone,
    ) -> std::result::Result<(), WireError> {
        let physical = self.shards.len();
        let mut runs = Runs::default();
        let mut listed = 0usize;
        for (key, mut state) in entries.clone() {
            let key = std::str::from_utf8(key).map_err(|_| WireError::InvalidPayload)?;
            let shard = shard_index(key.as_bytes(), physical);
            runs.of(shard, physical)
                .push(key, State::take(&mut state)?)?;
            if !state.is_empty() {
                return Err(WireError::InvalidPayload);
            }
            listed += 1;
        }
        // Each entry counted in log order, with what it does to its
        // shard: against the record the shard holds, while a run that
        // names each key once waits to be merged; a run that may name a
        // key twice is stored record by record here, as the shard would
        // take it, so each entry is counted against the one before it.
        // The entries before the record's last `JOURNAL_CAP` are evicted
        // by the record's own: they are counted and passed, not summed.
        let passed = listed.saturating_sub(JOURNAL_CAP);
        let mut cursors: Vec<_> = (runs.iter())
            .map(|run| (run.unordered(), run.records()))
            .collect();
        for (at, (key, _)) in entries.enumerate() {
            let shard = shard_index(key, physical);
            let (inline, records) = &mut cursors[runs.slot(shard)];
            let record = records.next().expect("the run holds its entries");
            let change = (at >= passed).then(|| self.shards[shard].change_of(record));
            if *inline {
                self.shards[shard].upsert(record);
            }
            self.touch(key, change);
        }
        drop(cursors);
        for (shard, run) in runs.into_runs() {
            if !run.unordered() {
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
        for at in 0..n {
            let decode = |entry: &mut &[u8]| {
                let (key, state) = entries.take(entry)?;
                runs[shard_index(key.as_bytes(), physical)].push(key, state)
            };
            reader.next_seen(|buf| entry_reach(buf, at > 0), decode, &mut seen)?;
        }
        for (shard, run) in store.shards.iter_mut().zip(runs) {
            shard.append(run);
        }
        Ok(store)
    }
}

/// The entries of an image, each read against the entry before it: the
/// one reader of a boot's image and of a plan's image. An entry's
/// key is rebuilt by [`Ascending`]; its vector, where the field is empty,
/// is the vector of the entry before, copied, and is otherwise re-encoded
/// once, here, and kept for the entry after. Either way the state it
/// hands on holds the vector as a record holds it, to be copied. A
/// vector has one encoding in an image, the writer's: written out on the
/// first entry and wherever it differs from the vector before, empty
/// wherever it does not.
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
    /// [`Ascending::take`]'s; then [`WireError::InvalidPayload`] for an
    /// empty vector field on the first entry, the vector decoder's and
    /// [`recode_vector`]'s, and [`WireError::InvalidPayload`] for a vector
    /// written out that is the vector before. The value's, as
    /// [`Record::write_state`] meets them.
    pub(crate) fn take<'s, 'e: 's>(
        &'s mut self,
        entry: &mut &'e [u8],
    ) -> std::result::Result<(&'s str, State<'s>), WireError> {
        let key = self.keys.take(entry)?;
        match wire::get_slice(entry)? {
            [] if self.vector.is_empty() => return Err(WireError::InvalidPayload),
            [] => {}
            meta => {
                self.recoded.clear();
                recode_vector(&mut self.recoded, meta)?;
                if self.recoded == self.vector {
                    return Err(WireError::InvalidPayload);
                }
                std::mem::swap(&mut self.recoded, &mut self.vector);
            }
        }
        Ok((key, State::canonical(&self.vector, entry)))
    }
}

/// The keys of an image, each rebuilt in one reused buffer from the
/// length of the prefix it shares with the key before it (the first, none)
/// and the rest. An image lists its keys strictly ascending, each sharing
/// all it can, so a key has one encoding: any other is refused.
#[derive(Debug, Default)]
struct Ascending(Option<Vec<u8>>);

impl Ascending {
    /// Takes the key at the front of `entry` off it, rebuilt, if it
    /// follows every key taken before it.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] on a cut key; [`WireError::InvalidPayload`]
    /// on a shared length past the key before, a shared prefix that is
    /// not the longest, an empty or descending rest and a rebuilt key
    /// that is not UTF-8.
    fn take(&mut self, entry: &mut &[u8]) -> std::result::Result<&str, WireError> {
        let first = self.0.is_none();
        let shared = if first { 0 } else { wire::get_varint(entry)? };
        let shared = usize::try_from(shared).unwrap_or(usize::MAX);
        let rest = wire::get_slice(entry)?;
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

/// The runs one log record builds: one for each shard it touches. A
/// record of one key, or of keys of one shard, holds one run, inline,
/// and no index; past that, `at` maps a shard to its run.
#[derive(Debug, Default)]
struct Runs {
    /// The first shard touched, and its run.
    first: Option<(usize, Run)>,
    /// The other shards touched and their runs, in the order touched.
    more: Vec<(usize, Run)>,
    /// By shard: one past its run's index in `more`, `0` for none.
    /// Empty while one shard is touched.
    at: Vec<u32>,
}

impl Runs {
    /// Every run, in the order [`slot`](Self::slot) counts them.
    fn iter(&self) -> impl Iterator<Item = &Run> {
        (self.first.iter().chain(&self.more)).map(|(_, run)| run)
    }

    /// Where shard `shard`'s run — one the record touched — stands in
    /// [`iter`](Self::iter): the first, or one past its index in `more`.
    fn slot(&self, shard: usize) -> usize {
        match &self.first {
            Some((first, _)) if *first == shard => 0,
            _ => self.at[shard] as usize,
        }
    }

    /// Shard `shard`'s run, begun if the record has not touched it.
    fn of(&mut self, shard: usize, physical: usize) -> &mut Run {
        if self.first.as_ref().is_none_or(|(first, _)| *first == shard) {
            return &mut self.first.get_or_insert_with(|| (shard, Run::default())).1;
        }
        if self.at.is_empty() {
            self.at = vec![0; physical];
        }
        let at = &mut self.at[shard];
        if *at == 0 {
            self.more.push((shard, Run::default()));
            *at = self.more.len() as u32;
        }
        &mut self.more[*at as usize - 1].1
    }

    /// Every run, by shard.
    fn into_runs(self) -> impl Iterator<Item = (usize, Run)> {
        self.first.into_iter().chain(self.more)
    }
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
/// makes, over length prefixes only. An entry `after` another leads
/// with the length of the prefix its key shares with that one's.
fn entry_reach(buf: &[u8], after: bool) -> usize {
    Reach::of(buf, |r| {
        after.then(|| r.varint()).transpose()?;
        r.field()?;
        r.field()?;
        if r.byte()? == 1 {
            r.field()?;
        }
        Ok(())
    })
}

/// A whole store's snapshot as the store it copies: the site, a varint
/// count, then each record in key order, its key front-coded and its
/// vector an empty field where it is the record before's. It holds
/// the store and the image's length, summed over one walk of the store's
/// merge ([`KvStore::sorted`]), and is written where it goes, into one
/// buffer of its exact size or into a checkpoint's file, by a second.
#[derive(Debug)]
pub struct SnapshotImage<'a> {
    store: &'a KvStore,
    count: u64,
    len: usize,
}

impl SnapshotImage<'_> {
    /// The image's length in bytes.
    pub fn encoded_len(&self) -> usize {
        self.len
    }

    /// Writes the image to `out`: its header, then every record in key
    /// order.
    ///
    /// # Errors
    ///
    /// The first error `out` returns.
    pub fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        wire::write_varint(out, u64::from(self.store.site.index()))?;
        write_records(out, self.count, self.store.sorted())
    }
}

/// The length of what [`write_records`] writes.
fn records_len<'a>(count: u64, records: impl Iterator<Item = Record<'a>>) -> usize {
    wire::varint_len(count) + coded(records).map(|entry| entry.len()).sum::<usize>()
}

/// The body of every image, a whole store's and a shard's: a varint
/// count of the records, then each record as [`Coded`] writes it.
fn write_records<'a>(
    out: &mut impl Write,
    count: u64,
    records: impl Iterator<Item = Record<'a>>,
) -> io::Result<()> {
    wire::write_varint(out, count)?;
    coded(records).try_for_each(|entry| entry.write_to(out))
}

/// A record as an image writes it, against the record before it.
struct Coded<'a> {
    /// The length of the prefix its key shares with the key before it;
    /// none for the first key, written whole.
    shared: Option<u64>,
    /// The key past that prefix.
    rest: &'a [u8],
    /// Whether its vector is the record before's: the vector's field is
    /// then written empty.
    repeats: bool,
    /// The state the record holds, or where the vector repeats, what
    /// follows the vector's field in it: the tag and the value.
    state: &'a [u8],
}

impl Coded<'_> {
    fn len(&self) -> usize {
        self.shared.map_or(0, wire::varint_len)
            + wire::bytes_len(self.rest.len())
            + usize::from(self.repeats)
            + self.state.len()
    }

    fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        self.shared
            .map_or(Ok(()), |shared| wire::write_varint(out, shared))?;
        wire::write_varint(out, self.rest.len() as u64)?;
        out.write_all(self.rest)?;
        if self.repeats {
            out.write_all(&[0])?;
        }
        out.write_all(self.state)
    }
}

/// Each record as an image writes it: its key front-coded against the
/// key before it, its vector left out where it is the vector before.
fn coded<'a>(records: impl Iterator<Item = Record<'a>>) -> impl Iterator<Item = Coded<'a>> {
    let mut before: Option<(&[u8], &[u8])> = None;
    records.map(move |record| {
        let (key, state, vector) = record.fields();
        let (shared, repeats) = match before {
            None => (None, false),
            Some((last, last_vector)) => {
                let shared = key.iter().zip(last).take_while(|(a, b)| a == b).count();
                (Some(shared), vector == last_vector)
            }
        };
        before = Some((key, vector));
        // A stored record's length prefixes are minimal.
        let past_vector = wire::varint_len(vector.len() as u64) + vector.len();
        Coded {
            shared: shared.map(|shared| shared as u64),
            rest: &key[shared.unwrap_or(0)..],
            repeats,
            state: if repeats {
                &state[past_vector..]
            } else {
                state
            },
        }
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
/// longer than a chunk grows the buffer to that one record only. The
/// buffer never holds more than one record and one chunk, nor more than
/// the source was declared to hold.
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

    /// Reads the next chunk behind what the buffer holds — or, for a
    /// record that reaches further, up to `want`, that record's end or a
    /// length it reaches at least — into a buffer of exactly that size.
    fn fill(&mut self, want: usize) -> io::Result<()> {
        let held = self.window.len();
        let left = usize::try_from(self.left).unwrap_or(usize::MAX);
        let len = want.max(held + self.chunk).min(held.saturating_add(left));
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
