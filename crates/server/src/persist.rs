//! Durable daemon state: a write-ahead log plus snapshot checkpoints.
//!
//! A durable node keeps two files in its `--data-dir`:
//!
//! * **`snapshot`** — the last checkpoint: a whole-store image plus the
//!   WAL sequence number it covers, checksummed, written atomically (a
//!   tmp file, fsync, rename).
//! * **`wal`** — the write-ahead log: one length-prefixed, checksummed
//!   record per committed mutation since that checkpoint. A local
//!   `put`/`delete` is one record; a committed pull
//!   (`KvStore::apply_planned`) is also **one** record carrying every
//!   key the contact changed (`Committed::entries`), so crash
//!   recovery reinstates the whole contact or none of it.
//!
//! Records log *post-states*, not operations: each record lists the
//! mutated keys with their [`KvStore::encode_entry`] states. Replay is
//! therefore exact (the rebuilt entry is byte-identical metadata and
//! value) and idempotent, and it never needs the resolver — whatever a
//! reconciliation decided is already in the logged state.
//!
//! Record layout (log version 4), reusing the repo's varint framing
//! ([`wire`]):
//!
//! ```text
//! varint seq | bytes payload | varint fold_bytes(fold(basis, seq), payload)
//! payload: varint n | n × entry, keys strictly ascending   (kv::EntryImage)
//! entry:   varint(shared << 3 | min(rest, 7)) | [varint(rest − 7)] | rest of key
//!          varint(value_code << 1 | repeats) | [bytes vector] | value
//!          (value_code 0 a tombstone, len + 1 a value; the vector only
//!           where it is not the entry before's; the first shares nothing)
//! ```
//!
//! A payload is an image, the body a snapshot's image and a plan's bulk
//! shards are, and it is read back the one way they are
//! ([`KvStore::apply_image`]). A record that lists a key twice or out of
//! order, writes a head longer than it goes or a vector any way but the
//! writer's, is corrupt. An append writes only states a store writes —
//! [`KvStore::encode_entry`]'s, each read as the image's writer reads it
//! — and refuses any other before writing a byte, so no acknowledged
//! record refuses recovery.
//!
//! Replay tolerates exactly one failure shape: a record that runs past
//! end-of-file — a *torn tail*, the footprint of a crash mid-append —
//! is dropped (and the file truncated back to the last whole record).
//! Anything else — a checksum mismatch, a malformed payload, a
//! non-monotone sequence — is a hard replay error: the log is
//! corrupted, not merely unfinished, and silently skipping it would
//! resurrect a store that never existed.
//!
//! The snapshot file frames one store image, the same varint framing:
//!
//! ```text
//! "OPSN" | u8 version | varint covered_seq | varint image_len | image | varint fold_bytes(fold(basis, covered_seq), image)
//! image:  varint site | payload, every record of the store   (KvStore::encode_snapshot)
//! ```
//!
//! Both checksums are `optrep_core::rng`'s [`fold`], a word a step from
//! its basis: the sequence number, the length, then each 8 bytes of the
//! payload or image as a little-endian word, the last zero-padded. Each
//! step is a bijection, so a change confined to one 8-byte word — any
//! flipped byte — always moves the sum. A [`ByteFold`] holds at most
//! seven bytes unfolded, so the sum is the same however a writer or a
//! reader splits the bytes.
//!
//! The log and the snapshot carry versions of their own, and a file of
//! any other version is refused by name, undecoded: a version-1 log
//! listed each key whole and each state behind a length of its own, a
//! version-1 snapshot each key whole and a version-2 snapshot each
//! vector; a version-2 log's records and a version-3 snapshot's image
//! wrote each entry's shared length, rest length, vector field, tag and
//! value length as fields of their own, a repeated vector as an empty
//! field; a version-3 log and a version-4 snapshot summed their bytes
//! with FNV-1a a byte a step.
//!
//! Neither the log nor the snapshot is ever held whole. An append walks
//! the commit's entries where they lie — a daemon's, in its store — once
//! to size the record and once to write it through a buffer of at most
//! 64 KiB, folding the checksum over the payload as it passes: a join
//! that logs every key of a store holds that buffer, not its record.
//!
//! Nor does either end of a checkpoint hold its image. Writing, the
//! checkpoint streams the store's records ([`KvStore::snapshot_image`])
//! through one 64 KiB buffered writer into the tmp file, folding the
//! checksum over the image as it passes, and then syncs and renames the
//! file. Reading, a boot decodes the file through a [`ChunkReader`] of
//! 64 KiB chunks — the checksum folded over each record as it is decoded,
//! each record written into its shard's run as it is read and each shard
//! built whole, and the store dropped if the sum does not match — and
//! replays the WAL through the same reader, a record at a time: each
//! entry is written into the run of the shard it falls in, and each shard
//! the record touches merges its run once — a record of every key
//! rewrites each page once, not once a key. No entry's vector is built
//! on the way. A snapshot is written atomically, so any defect in it — a
//! short file, a trailing byte, a flipped one — refuses recovery.
//!
//! The fsync policy bounds what a crash can lose: `always` fsyncs every
//! append before the commit is acknowledged (an acked write survives
//! `kill -9`), `interval` fsyncs at most every configured period
//! (bounded loss, near-zero overhead), `never` leaves it to the OS.
//! Atomicity is policy-independent — a half-flushed tail is still a
//! torn record, so recovery still lands on a state the store actually
//! passed through.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use optrep_core::error::WireError;
use optrep_core::rng::{fold, fold_bytes, ByteFold, FOLD_BASIS};
use optrep_core::{wire, Error, Result, SiteId};
use optrep_kv::{ChunkReader, Entries, EntryImage, KvStore, Reach, ReadError};
use std::io::{self, BufWriter, Read, Write};
use std::ops::Deref;
use std::path::PathBuf;
use std::time::{Duration, Instant};

mod dir;

#[cfg(test)]
pub(crate) use dir::MemDir;
use dir::{tmp_name, Dir, DirFile, FsDir};

/// WAL file name inside the data dir.
pub const WAL_FILE: &str = "wal";
/// Snapshot (checkpoint) file name inside the data dir.
pub const SNAPSHOT_FILE: &str = "snapshot";

const WAL_MAGIC: [u8; 4] = *b"OPWL";
const SNAPSHOT_MAGIC: [u8; 4] = *b"OPSN";
const WAL_VERSION: u8 = 4;
const SNAPSHOT_VERSION: u8 = 5;

/// What a snapshot or a log is read in, and a snapshot or a log record
/// written through: the memory a checkpoint, a boot or an append holds
/// beside the store itself.
const CHUNK: usize = 64 * 1024;

/// Default `interval` fsync period.
pub const DEFAULT_FSYNC_INTERVAL: Duration = Duration::from_millis(50);
/// Default time between background checkpoints.
pub const DEFAULT_CHECKPOINT_INTERVAL: Duration = Duration::from_secs(30);
/// Default WAL size that forces a checkpoint before the interval.
pub const DEFAULT_CHECKPOINT_WAL_BYTES: u64 = 8 * 1024 * 1024;

/// When appended WAL records reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync every append before the commit is acknowledged.
    Always,
    /// Fsync at most once per period (appends in between are flushed by
    /// the next append past the deadline or the background tick).
    Interval(Duration),
    /// Never fsync explicitly; the OS flushes when it pleases.
    Never,
}

impl FsyncPolicy {
    /// Parses the `--fsync` flag forms: `always`, `never`, `interval`
    /// (default period) or `interval:<ms>`.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            "interval" => Some(FsyncPolicy::Interval(DEFAULT_FSYNC_INTERVAL)),
            other => {
                let ms: u64 = other.strip_prefix("interval:")?.parse().ok()?;
                Some(FsyncPolicy::Interval(Duration::from_millis(ms.max(1))))
            }
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Interval(d) => write!(f, "interval:{}", d.as_millis()),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// Durability settings for one node (see
/// [`NodeConfig::with_durability`](crate::NodeConfig::with_durability)).
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the `wal` and `snapshot` files; created if
    /// missing.
    pub data_dir: PathBuf,
    /// When appends reach the disk.
    pub fsync: FsyncPolicy,
    /// How often the background task writes a checkpoint and truncates
    /// the log.
    pub checkpoint_interval: Duration,
    /// WAL size that forces a checkpoint before the interval elapses.
    pub checkpoint_wal_bytes: u64,
}

impl DurabilityConfig {
    /// Durability in `data_dir` with the default policies
    /// (`interval` fsync, 30 s / 8 MiB checkpoints).
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            data_dir: data_dir.into(),
            fsync: FsyncPolicy::Interval(DEFAULT_FSYNC_INTERVAL),
            checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
            checkpoint_wal_bytes: DEFAULT_CHECKPOINT_WAL_BYTES,
        }
    }

    /// Sets the fsync policy.
    #[must_use]
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Sets the background checkpoint period.
    #[must_use]
    pub fn with_checkpoint_interval(mut self, interval: Duration) -> Self {
        self.checkpoint_interval = interval;
        self
    }

    /// Sets the WAL size that forces an early checkpoint.
    #[must_use]
    pub fn with_checkpoint_wal_bytes(mut self, bytes: u64) -> Self {
        self.checkpoint_wal_bytes = bytes;
        self
    }
}

/// What boot recovery found and did (surfaced by
/// [`Node::replay_report`](crate::Node::replay_report) and the
/// `optrepd` startup line).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayReport {
    /// Bytes of the snapshot image loaded (0 if none existed).
    pub snapshot_bytes: u64,
    /// WAL sequence the snapshot covered.
    pub snapshot_seq: u64,
    /// WAL records replayed into the store.
    pub wal_records_applied: u64,
    /// WAL records skipped because the snapshot already covered them
    /// (a crash landed between the snapshot rename and the log trim).
    pub wal_records_skipped: u64,
    /// WAL bytes scanned.
    pub wal_bytes: u64,
    /// Whether a torn tail record was dropped.
    pub torn_tail: bool,
    /// Tracked entries in the recovered store.
    pub entries: u64,
    /// Wall-clock spent recovering.
    pub elapsed: Duration,
}

/// The checksum of `len` bytes covered by sequence number `seq`, before
/// any of them: [`fold_bytes`] from the basis folded with `seq`, fed as
/// the bytes pass, so a snapshot is summed while it is written or read,
/// however its writer or its [`ChunkReader`] splits it.
fn summing(seq: u64, len: u64) -> ByteFold {
    ByteFold::new(fold(FOLD_BASIS, seq), len)
}

/// The checksum of one record: [`summing`] over its payload.
fn checksum(seq: u64, payload: &[u8]) -> u64 {
    fold_bytes(fold(FOLD_BASIS, seq), payload)
}

/// Encodes one WAL record: `varint seq | bytes payload | varint checksum`.
pub fn encode_record(seq: u64, payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(payload.len() + 24);
    wire::put_varint(&mut buf, seq);
    wire::put_bytes(&mut buf, payload);
    wire::put_varint(&mut buf, checksum(seq, payload));
    buf.freeze()
}

/// Decodes one WAL record, verifying its checksum.
///
/// # Errors
///
/// [`WireError::UnexpectedEof`] when the record runs past the buffer —
/// the torn-tail shape replay tolerates; [`WireError::InvalidPayload`]
/// on a checksum mismatch — corruption, which replay must not skip.
pub fn decode_record(buf: &mut Bytes) -> std::result::Result<(u64, Bytes), WireError> {
    let seq = wire::get_varint(buf)?;
    let payload = wire::get_bytes(buf)?;
    if wire::get_varint(buf)? != checksum(seq, &payload) {
        return Err(WireError::InvalidPayload);
    }
    Ok((seq, payload))
}

/// Writes the record of sequence `seq` whose payload is `image` to
/// `out`, byte for byte `encode_record(seq, ..)` of the image written
/// whole, walking its entries once more: through a buffer of at most a
/// [`CHUNK`] — the whole record, in one write, when it is shorter —
/// summing the payload as it passes. Returns the record's length; with
/// no entry, writes nothing and returns 0.
fn write_commit(out: impl Write, seq: u64, image: EntryImage<impl Entries>) -> io::Result<usize> {
    if image.count() == 0 {
        return Ok(0);
    }
    let len = image.encoded_len();
    let head = wire::varint_len(seq) + wire::varint_len(len as u64);
    let most = head + len + wire::MAX_VARINT_LEN;
    let mut out = BufWriter::with_capacity(most.min(CHUNK), out);
    wire::write_varint(&mut out, seq)?;
    wire::write_varint(&mut out, len as u64)?;
    let mut summed = Summed {
        out,
        hash: summing(seq, len as u64),
        len: 0,
    };
    image.write_to(&mut summed)?;
    let Summed {
        mut out,
        hash,
        len: written,
    } = summed;
    debug_assert_eq!(written, len, "the entries must be the ones that were sized");
    let sum = hash.sum();
    wire::write_varint(&mut out, sum)?;
    out.flush()?;
    Ok(head + len + wire::varint_len(sum))
}

fn wal_header(site: SiteId) -> Bytes {
    let mut buf = BytesMut::with_capacity(16);
    buf.put_slice(&WAL_MAGIC);
    buf.put_u8(WAL_VERSION);
    wire::put_varint(&mut buf, u64::from(site.index()));
    buf.freeze()
}

fn corrupt(message: impl Into<String>) -> Error {
    Error::UnexpectedMessage {
        protocol: "persist",
        message: message.into(),
    }
}

fn io_err(context: &str, e: &io::Error) -> Error {
    corrupt(format!("{context}: {e}"))
}

/// A writer that folds a snapshot's or a log record's checksum over the
/// bytes it passes on, and counts them.
struct Summed<W> {
    out: W,
    hash: ByteFold,
    len: usize,
}

impl<W: Write> Write for Summed<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.out.write(buf)?;
        self.hash.eat(&buf[..n]);
        self.len += n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Writes the snapshot file covering sequence `covered` as `dir`'s
/// snapshot tmp file, streaming the `len`-byte image from `image`
/// through a [`CHUNK`]-sized buffer and summing it on the way. Returns
/// the file written and flushed, not yet synced.
fn write_snapshot_tmp(
    dir: &mut dyn Dir,
    covered: u64,
    len: usize,
    image: impl FnOnce(&mut Summed<BufWriter<Box<dyn DirFile>>>) -> io::Result<()>,
) -> io::Result<Box<dyn DirFile>> {
    let file = dir.create(&tmp_name(SNAPSHOT_FILE))?;
    let mut head = BytesMut::with_capacity(SNAPSHOT_MAGIC.len() + 1 + 2 * wire::MAX_VARINT_LEN);
    head.put_slice(&SNAPSHOT_MAGIC);
    head.put_u8(SNAPSHOT_VERSION);
    wire::put_varint(&mut head, covered);
    wire::put_varint(&mut head, len as u64);
    let mut out = BufWriter::with_capacity(CHUNK, file);
    out.write_all(&head)?;
    let mut summed = Summed {
        out,
        hash: summing(covered, len as u64),
        len: 0,
    };
    image(&mut summed)?;
    let Summed {
        mut out,
        hash,
        len: written,
    } = summed;
    // A file whose image is not the length it declares is refused at
    // boot — and it is about to replace the log.
    if written != len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("snapshot image of {written} bytes declared as {len}"),
        ));
    }
    let mut tail = BytesMut::with_capacity(wire::MAX_VARINT_LEN);
    wire::put_varint(&mut tail, hash.sum());
    out.write_all(&tail)?;
    out.into_inner().map_err(io::IntoInnerError::into_error)
}

/// A [`ReadError`] as recovery reports it: `what` could not be read, or
/// is corrupt.
fn read_failed(what: &str, e: ReadError) -> Error {
    match e {
        ReadError::Io(e) => io_err(&format!("cannot read {what}"), &e),
        ReadError::Wire(e) => corrupt(format!("{what} corrupt: {e:?}")),
    }
}

/// Reads the snapshot file's header: magic, version, the sequence it
/// covers and its image's length.
fn decode_snapshot_header(buf: &mut Bytes) -> std::result::Result<(u64, u64), WireError> {
    if buf.remaining() < SNAPSHOT_MAGIC.len() + 1 {
        return Err(WireError::UnexpectedEof);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if magic != SNAPSHOT_MAGIC {
        return Err(WireError::InvalidPayload);
    }
    let version = buf.get_u8();
    if version != SNAPSHOT_VERSION {
        return Err(WireError::UnsupportedVersion {
            ours: SNAPSHOT_VERSION,
            theirs: version,
        });
    }
    Ok((wire::get_varint(buf)?, wire::get_varint(buf)?))
}

/// Decodes the `len`-byte snapshot `file` into the store it holds and
/// the sequence it covers, a chunk at a time. Unlike the WAL, *any*
/// defect is fatal — the file was written atomically, so a bad byte is
/// corruption, not a crash footprint — and the store decoded so far is
/// dropped with the error.
fn read_snapshot(file: impl Read, len: u64) -> Result<(KvStore, u64)> {
    let mut reader = ChunkReader::new(file, len, CHUNK);
    let header = |buf: &[u8]| {
        Reach::of(buf, |r| {
            r.skip(SNAPSHOT_MAGIC.len() + 1)?;
            r.varint()?;
            r.varint().map(drop)
        })
    };
    let file_corrupt = |e: ReadError| read_failed("snapshot file", e);
    let (covered, image_len) =
        (reader.next(header, decode_snapshot_header)).map_err(|e| match e {
            ReadError::Wire(WireError::UnsupportedVersion { ours, theirs }) => corrupt(format!(
                "snapshot file format version {theirs} (this build speaks {ours})"
            )),
            e => file_corrupt(e),
        })?;
    // The image and a checksum byte must fit in the file: a short file is
    // refused before any of it is decoded.
    if image_len >= reader.remaining() {
        return Err(file_corrupt(WireError::UnexpectedEof.into()));
    }
    let start = reader.consumed();
    let mut hash = summing(covered, image_len);
    let store = KvStore::read_snapshot(&mut reader, |bytes| hash.eat(bytes))
        .map_err(|e| read_failed("snapshot image", e))?;
    if reader.consumed() - start != image_len {
        return Err(file_corrupt(WireError::InvalidPayload.into()));
    }
    let checksum = reader
        .next(
            |buf| Reach::of(buf, |r| r.varint().map(drop)),
            wire::get_varint,
        )
        .map_err(file_corrupt)?;
    if checksum != hash.sum() || reader.remaining() > 0 {
        return Err(file_corrupt(WireError::InvalidPayload.into()));
    }
    Ok((store, covered))
}

/// The open durable state of one node: the WAL append handle, the
/// bookkeeping a checkpoint needs, and the cadence that says when one is
/// due. Callers serialize access behind the node's persist mutex; every
/// append happens under the store lock of the mutation it logs, so a
/// checkpoint that holds both sees a frozen (store, seq) pair.
pub struct Persist {
    dir: Box<dyn Dir>,
    site: SiteId,
    policy: FsyncPolicy,
    /// A checkpoint is due this long after the last one, or sooner once
    /// the log reaches `checkpoint_wal_bytes`.
    checkpoint_interval: Duration,
    checkpoint_wal_bytes: u64,
    wal: Box<dyn DirFile>,
    /// Sequence of the last appended (or replayed) record.
    seq: u64,
    /// Sequence the on-disk snapshot covers.
    snapshot_seq: u64,
    /// Current WAL file length (header included).
    wal_len: u64,
    /// Unsynced bytes sit in the file.
    dirty: bool,
    last_fsync: Instant,
    /// When the last checkpoint was tried: a failing one is retried on
    /// the cadence, not at every tick.
    last_checkpoint: Instant,
    /// Fsyncs issued by this process (a caller's per-append delta).
    fsyncs: u64,
}

/// What the data dir is owed at an instant ([`Persist::due`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Due {
    Nothing,
    Fsync,
    Checkpoint,
}

impl std::fmt::Debug for Persist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Persist")
            .field("seq", &self.seq)
            .field("snapshot_seq", &self.snapshot_seq)
            .field("wal_len", &self.wal_len)
            .finish_non_exhaustive()
    }
}

impl Persist {
    /// Opens (or initializes) the data dir and recovers the store:
    /// snapshot first, then every WAL record past the snapshot's
    /// sequence, dropping a torn tail record and truncating it away.
    ///
    /// # Errors
    ///
    /// I/O failures, a site mismatch (the dir belongs to another
    /// replica), or log corruption anywhere before the tail.
    pub fn open(
        config: &DurabilityConfig,
        site: SiteId,
    ) -> Result<(Persist, KvStore, ReplayReport)> {
        let dir = FsDir::open(config.data_dir.clone())
            .map_err(|e| io_err("cannot create data dir", &e))?;
        Persist::open_in(Box::new(dir), config, site)
    }

    /// [`open`](Self::open) on `dir`, whatever `config.data_dir` says.
    pub(crate) fn open_in(
        mut dir: Box<dyn Dir>,
        config: &DurabilityConfig,
        site: SiteId,
    ) -> Result<(Persist, KvStore, ReplayReport)> {
        let started = Instant::now();
        let mut report = ReplayReport::default();

        // Snapshot: the checkpointed base image, or an empty store.
        let snapshot = dir
            .read(SNAPSHOT_FILE)
            .map_err(|e| io_err("cannot open snapshot", &e))?;
        let (mut store, snapshot_seq) = match snapshot {
            Some((file, len)) => {
                report.snapshot_bytes = len;
                read_snapshot(file, len)?
            }
            None => (KvStore::new(site), 0),
        };
        if store.site() != site {
            return Err(corrupt(format!(
                "data dir belongs to site {}, not {}",
                store.site(),
                site
            )));
        }
        report.snapshot_seq = snapshot_seq;

        // WAL: replay every record past the snapshot, tolerating only a
        // torn tail.
        let mut seq = snapshot_seq;
        let wal = dir
            .read(WAL_FILE)
            .map_err(|e| io_err("cannot open wal", &e))?;
        let wal_len = match wal {
            Some((file, len)) => {
                report.wal_bytes = len;
                let scan = replay_wal(file, len, site, snapshot_seq, &mut store, &mut report)?;
                seq = seq.max(scan.last_seq);
                if scan.truncate_to < len {
                    // Cut the torn record off so future appends extend a
                    // clean log instead of garbage.
                    report.torn_tail = true;
                    dir.truncate(WAL_FILE, scan.truncate_to)
                        .map_err(|e| io_err("cannot truncate torn wal tail", &e))?;
                }
                scan.truncate_to
            }
            None => {
                let header = wal_header(site);
                dir.write_atomic(WAL_FILE, &header)
                    .map_err(|e| io_err("cannot initialize wal", &e))?;
                header.len() as u64
            }
        };

        let wal = dir
            .append(WAL_FILE)
            .map_err(|e| io_err("cannot open wal for append", &e))?;
        report.entries = store.tracked_entries() as u64;
        report.elapsed = started.elapsed();
        let now = Instant::now();
        let persist = Persist {
            dir,
            site,
            policy: config.fsync,
            checkpoint_interval: config.checkpoint_interval,
            checkpoint_wal_bytes: config.checkpoint_wal_bytes,
            wal,
            seq,
            snapshot_seq,
            wal_len,
            dirty: false,
            last_fsync: now,
            last_checkpoint: now,
            fsyncs: 0,
        };
        Ok((persist, store, report))
    }

    /// Appends one record logging the post-states of `changed`,
    /// fsyncing per policy. Call under the store lock of the mutation
    /// being logged, before acknowledging it. A no-op commit (`changed`
    /// empty) appends nothing. The record lists its keys in key order,
    /// each once: `changed` is sorted, and of a key it lists twice the
    /// state listed last is logged.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`], and nothing appended, for a state
    /// no store writes (see [`append_entries`](Self::append_entries)).
    /// The underlying write or fsync failure. The in-memory commit has
    /// already happened; the caller reports the durability failure
    /// instead of acknowledging.
    pub fn append(&mut self, changed: &[(String, Bytes)]) -> io::Result<u64> {
        let mut listed: Vec<&(String, Bytes)> = changed.iter().collect();
        // Stable: of a key's states, the one listed last stays last.
        listed.sort_by(|a, b| a.0.cmp(&b.0));
        let last = |(at, (key, _)): &(usize, &&(String, Bytes))| {
            listed.get(at + 1).is_none_or(|next| next.0 != *key)
        };
        let kept = listed.iter().enumerate().filter(last);
        self.append_entries(kept.map(|(_, (key, entry))| (key.as_bytes(), &entry[..])))
    }

    /// [`append`](Self::append) of entries read from where they lie — a
    /// daemon's, from its store ([`KvStore::entries_of`],
    /// [`Committed::entries`](optrep_kv::Committed::entries)), each key
    /// and the parts of its state as its page holds them — in strictly
    /// ascending key order, and walked, never collected: a commit of
    /// every key of a store holds a buffer of at most a [`CHUNK`], not
    /// its record or a list of its entries.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`], and nothing appended, when a key
    /// does not follow every key before it or a state is not one a store
    /// writes ([`EntryImage::new`]); else as [`append`](Self::append).
    pub fn append_entries(&mut self, changed: impl Entries) -> io::Result<u64> {
        let image = EntryImage::new(changed).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "a log record lists its keys strictly ascending, each with a state a store writes",
            )
        })?;
        let record = write_commit(&mut *self.wal, self.seq + 1, image)? as u64;
        if record == 0 {
            return Ok(0);
        }
        self.seq += 1;
        self.wal_len += record;
        self.dirty = true;
        match self.policy {
            FsyncPolicy::Always => {
                self.sync()?;
            }
            FsyncPolicy::Interval(period) => {
                if self.last_fsync.elapsed() >= period {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(record)
    }

    /// Fsyncs the WAL if it has unsynced bytes. Returns whether a sync
    /// actually ran.
    ///
    /// # Errors
    ///
    /// The underlying fsync failure.
    pub fn sync(&mut self) -> io::Result<bool> {
        if !self.dirty {
            return Ok(false);
        }
        self.wal.fsync()?;
        self.dirty = false;
        self.fsyncs += 1;
        self.last_fsync = Instant::now();
        Ok(true)
    }

    /// What is due at `now`: a checkpoint once the log holds records the
    /// snapshot does not and the checkpoint interval has passed or the
    /// log has outgrown its bound; else an fsync once the `interval`
    /// period has passed with bytes unsynced.
    pub(crate) fn due(&self, now: Instant) -> Due {
        let since = |then: Instant| now.saturating_duration_since(then);
        let cadence = since(self.last_checkpoint) >= self.checkpoint_interval
            || self.wal_len >= self.checkpoint_wal_bytes;
        let period = matches!(self.policy, FsyncPolicy::Interval(period) if since(self.last_fsync) >= period);
        if self.seq > self.snapshot_seq && cadence {
            Due::Checkpoint
        } else if self.dirty && period {
            Due::Fsync
        } else {
            Due::Nothing
        }
    }

    /// Writes `store` as the new snapshot, covering every record
    /// appended so far, then truncates the log to just its header. The
    /// image is streamed from the store's records into the snapshot's
    /// tmp file while `store` is held; `store` — in a daemon, the store
    /// lock's guard — is then released, and the file is synced and
    /// renamed and the log truncated under this handle alone. Call it
    /// with appends frozen: this handle's lock taken while `store`'s was
    /// held, as every appender holds both.
    ///
    /// # Errors
    ///
    /// As [`checkpoint`](Self::checkpoint).
    pub fn checkpoint_store(&mut self, store: impl Deref<Target = KvStore>) -> io::Result<()> {
        self.last_checkpoint = Instant::now();
        let file = {
            let image = store.snapshot_image();
            let len = image.encoded_len();
            write_snapshot_tmp(&mut *self.dir, self.seq, len, |out| image.write_to(out))?
        };
        drop(store);
        self.install_snapshot(file)
    }

    /// Writes `store_image` (an [`KvStore::encode_snapshot`] taken
    /// while this handle's lock froze appends) as the new snapshot,
    /// covering every record appended so far, then truncates the log to
    /// just its header. The snapshot is swapped in atomically and lands
    /// before the log shrinks, so a crash anywhere leaves a recoverable
    /// pair: old snapshot + full log, new snapshot + full log (replay
    /// skips covered records), or new snapshot + empty log.
    ///
    /// # Errors
    ///
    /// The underlying I/O failure; the previous snapshot and log remain
    /// in force.
    pub fn checkpoint(&mut self, store_image: &[u8]) -> io::Result<()> {
        self.last_checkpoint = Instant::now();
        let file = write_snapshot_tmp(&mut *self.dir, self.seq, store_image.len(), |out| {
            out.write_all(store_image)
        })?;
        self.install_snapshot(file)
    }

    /// Makes `file`, the snapshot tmp file written at the current
    /// sequence, the snapshot, and truncates the log to just its header.
    fn install_snapshot(&mut self, file: Box<dyn DirFile>) -> io::Result<()> {
        self.dir.install(SNAPSHOT_FILE, file)?;
        let header = wal_header(self.site).len() as u64;
        self.dir.truncate(WAL_FILE, header)?;
        self.snapshot_seq = self.seq;
        self.wal_len = header;
        self.dirty = false;
        self.last_fsync = Instant::now();
        Ok(())
    }

    /// Sequence of the last appended record.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Sequence the on-disk snapshot covers.
    pub fn snapshot_seq(&self) -> u64 {
        self.snapshot_seq
    }

    /// Current WAL file length in bytes.
    pub fn wal_len(&self) -> u64 {
        self.wal_len
    }

    /// Fsyncs issued by this process.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }
}

struct WalScan {
    /// Highest record sequence seen (whole records only).
    last_seq: u64,
    /// File offset just past the last whole record — where a torn tail,
    /// if any, begins.
    truncate_to: u64,
}

/// How far the WAL record at the front of `buf` reaches:
/// [`decode_record`]'s walk, over length prefixes only.
fn record_reach(buf: &[u8]) -> usize {
    Reach::of(buf, |r| {
        r.varint()?;
        r.field()?;
        r.varint().map(drop)
    })
}

/// Replays the `len`-byte WAL `file` into `store`, a chunk at a time
/// (a record longer than a chunk is read whole).
///
/// Records with `seq <= snapshot_seq` are validated but not applied
/// (the snapshot already holds their effect; they survive only when a
/// crash landed between the checkpoint's two file swaps). A record
/// failing with [`WireError::UnexpectedEof`] is the torn tail: replay
/// stops cleanly before it. Any other failure is corruption and aborts
/// recovery.
fn replay_wal(
    file: impl Read,
    len: u64,
    site: SiteId,
    snapshot_seq: u64,
    store: &mut KvStore,
    report: &mut ReplayReport,
) -> Result<WalScan> {
    let mut reader = ChunkReader::new(file, len, CHUNK);
    let header = wal_header(site);
    // Header: magic + version are fixed bytes; the site varint must
    // match this node (a foreign data dir is operator error).
    let head = reader
        .next(
            |_| header.len(),
            |buf| Ok(buf.split_to(buf.len().min(header.len()))),
        )
        .map_err(|e| read_failed("wal", e))?;
    if head.len() < header.len() || head[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(corrupt("wal header missing or wrong magic"));
    }
    if head[WAL_MAGIC.len()] != WAL_VERSION {
        return Err(corrupt(format!(
            "wal format version {} (this build speaks {})",
            head[WAL_MAGIC.len()],
            WAL_VERSION
        )));
    }
    if head != header {
        return Err(corrupt("wal belongs to a different site"));
    }

    let mut last_seq = snapshot_seq;
    let mut prev_seq: Option<u64> = None;
    loop {
        let offset = reader.consumed();
        if reader.remaining() == 0 {
            return Ok(WalScan {
                last_seq,
                truncate_to: offset,
            });
        }
        match reader.next(record_reach, decode_record) {
            Ok((seq, payload)) => {
                if prev_seq.is_some_and(|prev| seq != prev + 1) {
                    return Err(corrupt(format!(
                        "wal sequence jumped from {:?} to {seq}",
                        prev_seq
                    )));
                }
                prev_seq = Some(seq);
                last_seq = last_seq.max(seq);
                if seq <= snapshot_seq {
                    report.wal_records_skipped += 1;
                } else {
                    store
                        .apply_image(&payload)
                        .map_err(|e| corrupt(format!("wal record {seq} payload corrupt: {e:?}")))?;
                    report.wal_records_applied += 1;
                }
            }
            // The torn tail: the record ran past end-of-file, which is
            // exactly what a crash mid-append (or mid-flush) leaves.
            Err(ReadError::Wire(WireError::UnexpectedEof)) => {
                return Ok(WalScan {
                    last_seq,
                    truncate_to: offset,
                });
            }
            Err(ReadError::Wire(e)) => {
                return Err(corrupt(format!(
                    "wal corrupt at byte {offset}: {e:?} (not a torn tail; refusing to skip)"
                )));
            }
            Err(e) => return Err(read_failed("wal", e)),
        }
    }
}

#[cfg(test)]
mod tests;
