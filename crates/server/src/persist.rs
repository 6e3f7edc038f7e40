//! Durable daemon state: a write-ahead log plus snapshot checkpoints.
//!
//! A durable node keeps two files in its `--data-dir`:
//!
//! * **`snapshot`** — the last checkpoint: a whole
//!   [`KvStore::encode_snapshot`] image plus the WAL sequence number it
//!   covers, checksummed, written atomically (tmp + fsync + rename).
//! * **`wal`** — the write-ahead log: one length-prefixed, checksummed
//!   record per committed mutation since that checkpoint. A local
//!   `put`/`delete` is one record; a committed pull
//!   (`KvStore::apply_planned_tracked`) is also **one** record carrying
//!   every key the contact changed, so crash
//!   recovery reinstates the whole contact or none of it.
//!
//! Records log *post-states*, not operations: each record lists the
//! mutated keys with their [`KvStore::encode_entry`] images. Replay is
//! therefore exact (the rebuilt entry is byte-identical metadata and
//! value) and idempotent, and it never needs the resolver — whatever a
//! reconciliation decided is already in the logged state.
//!
//! Record layout, reusing the repo's varint framing ([`wire`]):
//!
//! ```text
//! varint seq | bytes payload | varint fnv64(seq, payload)
//! payload:  varint n, then n × { bytes key, bytes entry }
//! ```
//!
//! Replay tolerates exactly one failure shape: a record that runs past
//! end-of-file — a *torn tail*, the footprint of a crash mid-append —
//! is dropped (and the file truncated back to the last whole record).
//! Anything else — a checksum mismatch, a malformed payload, a
//! non-monotone sequence — is a hard replay error: the log is
//! corrupted, not merely unfinished, and silently skipping it would
//! resurrect a store that never existed.
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
use optrep_core::{wire, Error, Result, SiteId};
use optrep_kv::KvStore;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// WAL file name inside the data dir.
pub const WAL_FILE: &str = "wal";
/// Snapshot (checkpoint) file name inside the data dir.
pub const SNAPSHOT_FILE: &str = "snapshot";

const WAL_MAGIC: [u8; 4] = *b"OPWL";
const SNAPSHOT_MAGIC: [u8; 4] = *b"OPSN";
const FORMAT_VERSION: u8 = 1;

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

/// FNV-1a over the record's sequence number and payload — the same
/// cheap, deterministic hash [`KvStore::replica_digest`] uses.
fn fnv64(seq: u64, payload: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in seq.to_le_bytes().iter().chain(payload) {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Encodes one WAL record: `varint seq | bytes payload | varint checksum`.
pub fn encode_record(seq: u64, payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(payload.len() + 24);
    wire::put_varint(&mut buf, seq);
    wire::put_bytes(&mut buf, payload);
    wire::put_varint(&mut buf, fnv64(seq, payload));
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
    if wire::get_varint(buf)? != fnv64(seq, &payload) {
        return Err(WireError::InvalidPayload);
    }
    Ok((seq, payload))
}

/// How many bytes [`put_payload`] writes for `changed`.
fn payload_len(changed: &[(String, Bytes)]) -> usize {
    let entries = changed
        .iter()
        .map(|(key, entry)| wire::bytes_len(key.len()) + wire::bytes_len(entry.len()));
    wire::varint_len(changed.len() as u64) + entries.sum::<usize>()
}

fn put_payload(buf: &mut BytesMut, changed: &[(String, Bytes)]) {
    wire::put_varint(buf, changed.len() as u64);
    for (key, entry) in changed {
        wire::put_bytes(buf, key.as_bytes());
        wire::put_bytes(buf, entry);
    }
}

/// Encodes one record's payload: the post-state of every key a commit
/// changed.
pub fn encode_payload(changed: &[(String, Bytes)]) -> Bytes {
    let mut buf = BytesMut::with_capacity(payload_len(changed));
    put_payload(&mut buf, changed);
    buf.freeze()
}

/// `encode_record(seq, &encode_payload(changed))`, byte for byte, in
/// one buffer sized before the first write: a contact's record is most
/// of a megabyte and is built under the store guard, so the payload is
/// written where it will lie and checksummed there instead of being
/// grown by doubling and then copied behind its header.
fn encode_commit(seq: u64, changed: &[(String, Bytes)]) -> BytesMut {
    let len = payload_len(changed);
    let mut buf = BytesMut::with_capacity(2 * wire::MAX_VARINT_LEN + wire::bytes_len(len));
    wire::put_varint(&mut buf, seq);
    wire::put_varint(&mut buf, len as u64);
    let at = buf.len();
    put_payload(&mut buf, changed);
    debug_assert_eq!(buf.len() - at, len, "payload_len must match put_payload");
    let checksum = fnv64(seq, &buf[at..]);
    wire::put_varint(&mut buf, checksum);
    buf
}

/// Applies one record's payload to `store`. Each listed key is
/// overwritten with its logged post-state.
fn apply_payload(store: &mut KvStore, mut payload: Bytes) -> std::result::Result<(), WireError> {
    let n = wire::get_varint(&mut payload)?;
    for _ in 0..n {
        let key_bytes = wire::get_bytes(&mut payload)?;
        let key = String::from_utf8(key_bytes.to_vec()).map_err(|_| WireError::InvalidPayload)?;
        let mut entry = wire::get_bytes(&mut payload)?;
        store.apply_encoded_entry(key, &mut entry)?;
    }
    if payload.has_remaining() {
        return Err(WireError::InvalidPayload);
    }
    Ok(())
}

fn wal_header(site: SiteId) -> Bytes {
    let mut buf = BytesMut::with_capacity(16);
    buf.put_slice(&WAL_MAGIC);
    buf.put_u8(FORMAT_VERSION);
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

/// Writes `bytes` to `dir/name` atomically: tmp file, fsync, rename,
/// then a best-effort fsync of the directory so the rename itself is
/// durable. A crash at any point leaves either the old file or the new
/// one, never a mix.
fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_data()?;
    drop(file);
    std::fs::rename(&tmp, dir.join(name))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_data();
    }
    Ok(())
}

/// The open durable state of one node: the WAL append handle plus the
/// bookkeeping a checkpoint needs. Callers serialize access behind the
/// node's persist mutex; every append happens under the store lock of
/// the mutation it logs, so a checkpoint that holds both sees a frozen
/// (store, seq) pair.
pub struct Persist {
    dir: PathBuf,
    site: SiteId,
    policy: FsyncPolicy,
    wal: File,
    /// Sequence of the last appended (or replayed) record.
    seq: u64,
    /// Sequence the on-disk snapshot covers.
    snapshot_seq: u64,
    /// Current WAL file length (header included).
    wal_len: u64,
    /// Unsynced bytes sit in the file.
    dirty: bool,
    last_fsync: Instant,
    // Cumulative counters for this process lifetime (status/metrics).
    records: u64,
    appended_bytes: u64,
    fsyncs: u64,
    checkpoints: u64,
}

impl std::fmt::Debug for Persist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Persist")
            .field("dir", &self.dir)
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
        let started = Instant::now();
        let dir = config.data_dir.clone();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("cannot create data dir", &e))?;
        let mut report = ReplayReport::default();

        // Snapshot: the checkpointed base image, or an empty store.
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let (mut store, snapshot_seq) = match read_file(&snapshot_path)? {
            Some(bytes) => {
                report.snapshot_bytes = bytes.len() as u64;
                let (covered, image) = decode_snapshot_file(bytes)
                    .map_err(|e| corrupt(format!("snapshot file corrupt: {e:?}")))?;
                let mut image = image;
                let store = KvStore::decode_snapshot(&mut image)
                    .map_err(|e| corrupt(format!("snapshot image corrupt: {e:?}")))?;
                (store, covered)
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
        let wal_path = dir.join(WAL_FILE);
        let mut seq = snapshot_seq;
        match read_file(&wal_path)? {
            Some(bytes) => {
                report.wal_bytes = bytes.len() as u64;
                let scan = replay_wal(&bytes, site, snapshot_seq, &mut store, &mut report)?;
                seq = seq.max(scan.last_seq);
                if scan.truncate_to < bytes.len() as u64 {
                    // Cut the torn record off so future appends extend a
                    // clean log instead of garbage.
                    report.torn_tail = true;
                    let file = OpenOptions::new()
                        .write(true)
                        .open(&wal_path)
                        .map_err(|e| io_err("cannot reopen wal", &e))?;
                    file.set_len(scan.truncate_to)
                        .map_err(|e| io_err("cannot truncate torn wal tail", &e))?;
                    file.sync_data()
                        .map_err(|e| io_err("cannot sync wal", &e))?;
                }
            }
            None => {
                write_atomic(&dir, WAL_FILE, &wal_header(site))
                    .map_err(|e| io_err("cannot initialize wal", &e))?;
            }
        }

        let wal = OpenOptions::new()
            .append(true)
            .open(&wal_path)
            .map_err(|e| io_err("cannot open wal for append", &e))?;
        let wal_len = wal
            .metadata()
            .map_err(|e| io_err("cannot stat wal", &e))?
            .len();
        report.entries = store.tracked_entries() as u64;
        report.elapsed = started.elapsed();
        let persist = Persist {
            dir,
            site,
            policy: config.fsync,
            wal,
            seq,
            snapshot_seq,
            wal_len,
            dirty: false,
            last_fsync: Instant::now(),
            records: 0,
            appended_bytes: 0,
            fsyncs: 0,
            checkpoints: 0,
        };
        Ok((persist, store, report))
    }

    /// Appends one record logging the post-states of `changed`,
    /// fsyncing per policy. Call under the store lock of the mutation
    /// being logged, before acknowledging it. A no-op commit (`changed`
    /// empty) appends nothing.
    ///
    /// # Errors
    ///
    /// The underlying write or fsync failure. The in-memory commit has
    /// already happened; the caller reports the durability failure
    /// instead of acknowledging.
    pub fn append(&mut self, changed: &[(String, Bytes)]) -> io::Result<u64> {
        if changed.is_empty() {
            return Ok(0);
        }
        let record = encode_commit(self.seq + 1, changed);
        self.wal.write_all(&record)?;
        self.seq += 1;
        self.wal_len += record.len() as u64;
        self.records += 1;
        self.appended_bytes += record.len() as u64;
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
        Ok(record.len() as u64)
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
        self.wal.sync_data()?;
        self.dirty = false;
        self.fsyncs += 1;
        self.last_fsync = Instant::now();
        Ok(true)
    }

    /// Whether the `interval` policy owes the log an fsync (the
    /// background tick's backstop for quiet periods).
    pub fn fsync_due(&self) -> bool {
        match self.policy {
            FsyncPolicy::Interval(period) => self.dirty && self.last_fsync.elapsed() >= period,
            _ => false,
        }
    }

    /// Whether the WAL holds records the snapshot does not cover.
    pub fn needs_checkpoint(&self) -> bool {
        self.seq > self.snapshot_seq
    }

    /// Writes `store_image` (an [`KvStore::encode_snapshot`] taken
    /// while this handle's lock froze appends) as the new snapshot,
    /// covering every record appended so far, then truncates the log to
    /// just its header. Both file swaps are atomic, and the snapshot
    /// lands before the log shrinks, so a crash anywhere leaves a
    /// recoverable pair: old snapshot + full log, new snapshot + full
    /// log (replay skips covered records), or new snapshot + empty log.
    ///
    /// # Errors
    ///
    /// The underlying I/O failure; the previous snapshot and log remain
    /// in force.
    pub fn checkpoint(&mut self, store_image: &[u8]) -> io::Result<()> {
        let covered = self.seq;
        write_atomic(
            &self.dir,
            SNAPSHOT_FILE,
            &encode_snapshot_file(covered, store_image),
        )?;
        let header = wal_header(self.site);
        write_atomic(&self.dir, WAL_FILE, &header)?;
        self.wal = OpenOptions::new()
            .append(true)
            .open(self.dir.join(WAL_FILE))?;
        self.snapshot_seq = covered;
        self.wal_len = header.len() as u64;
        self.dirty = false;
        self.last_fsync = Instant::now();
        self.checkpoints += 1;
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

    /// Records appended by this process.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Record bytes appended by this process.
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Fsyncs issued by this process.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Checkpoints written by this process.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }
}

/// Reads a whole file, mapping "not found" to `None`.
fn read_file(path: &Path) -> Result<Option<Bytes>> {
    match File::open(path) {
        Ok(mut file) => {
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)
                .map_err(|e| io_err("cannot read file", &e))?;
            Ok(Some(Bytes::from(bytes)))
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_err("cannot open file", &e)),
    }
}

fn encode_snapshot_file(covered_seq: u64, store_image: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(store_image.len() + 24);
    buf.put_slice(&SNAPSHOT_MAGIC);
    buf.put_u8(FORMAT_VERSION);
    wire::put_varint(&mut buf, covered_seq);
    wire::put_bytes(&mut buf, store_image);
    wire::put_varint(&mut buf, fnv64(covered_seq, store_image));
    buf.freeze()
}

/// Decodes a snapshot file into (covered sequence, store image).
/// Unlike the WAL, *any* defect is fatal — the file was written
/// atomically, so a bad byte is corruption, not a crash footprint.
fn decode_snapshot_file(mut buf: Bytes) -> std::result::Result<(u64, Bytes), WireError> {
    if buf.remaining() < SNAPSHOT_MAGIC.len() + 1 {
        return Err(WireError::UnexpectedEof);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if magic != SNAPSHOT_MAGIC {
        return Err(WireError::InvalidPayload);
    }
    let version = buf.get_u8();
    if version != FORMAT_VERSION {
        return Err(WireError::UnsupportedVersion {
            ours: FORMAT_VERSION,
            theirs: version,
        });
    }
    let covered_seq = wire::get_varint(&mut buf)?;
    let image = wire::get_bytes(&mut buf)?;
    if wire::get_varint(&mut buf)? != fnv64(covered_seq, &image) {
        return Err(WireError::InvalidPayload);
    }
    if buf.has_remaining() {
        return Err(WireError::InvalidPayload);
    }
    Ok((covered_seq, image))
}

struct WalScan {
    /// Highest record sequence seen (whole records only).
    last_seq: u64,
    /// File offset just past the last whole record — where a torn tail,
    /// if any, begins.
    truncate_to: u64,
}

/// Replays one WAL image into `store`.
///
/// Records with `seq <= snapshot_seq` are validated but not applied
/// (the snapshot already holds their effect; they survive only when a
/// crash landed between the checkpoint's two file swaps). A record
/// failing with [`WireError::UnexpectedEof`] is the torn tail: replay
/// stops cleanly before it. Any other failure is corruption and aborts
/// recovery.
fn replay_wal(
    bytes: &Bytes,
    site: SiteId,
    snapshot_seq: u64,
    store: &mut KvStore,
    report: &mut ReplayReport,
) -> Result<WalScan> {
    let mut buf = bytes.clone();
    let header = wal_header(site);
    // Header: magic + version are fixed bytes; the site varint must
    // match this node (a foreign data dir is operator error).
    if buf.remaining() < header.len() || buf[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(corrupt("wal header missing or wrong magic"));
    }
    if buf[WAL_MAGIC.len()] != FORMAT_VERSION {
        return Err(corrupt(format!(
            "wal format version {} (this build speaks {})",
            buf[WAL_MAGIC.len()],
            FORMAT_VERSION
        )));
    }
    if buf[..header.len()] != header[..] {
        return Err(corrupt("wal belongs to a different site"));
    }
    buf.advance(header.len());

    let total = bytes.len() as u64;
    let mut last_seq = snapshot_seq;
    let mut prev_seq: Option<u64> = None;
    loop {
        let offset = total - buf.remaining() as u64;
        if !buf.has_remaining() {
            return Ok(WalScan {
                last_seq,
                truncate_to: offset,
            });
        }
        match decode_record(&mut buf) {
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
                    apply_payload(store, payload)
                        .map_err(|e| corrupt(format!("wal record {seq} payload corrupt: {e:?}")))?;
                    report.wal_records_applied += 1;
                }
            }
            // The torn tail: the record ran past end-of-file, which is
            // exactly what a crash mid-append (or mid-flush) leaves.
            Err(WireError::UnexpectedEof) => {
                return Ok(WalScan {
                    last_seq,
                    truncate_to: offset,
                });
            }
            Err(e) => {
                return Err(corrupt(format!(
                    "wal corrupt at byte {offset}: {e:?} (not a torn tail; refusing to skip)"
                )));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optrep_core::rng::SplitMix64;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "optrep-persist-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entry(store: &KvStore, key: &str) -> (String, Bytes) {
        (key.to_string(), store.encode_entry(key).unwrap())
    }

    #[test]
    fn record_roundtrip_and_checksum() {
        let payload = b"some payload";
        let mut buf = encode_record(7, payload);
        let (seq, got) = decode_record(&mut buf).unwrap();
        assert_eq!(seq, 7);
        assert_eq!(&got[..], payload);
        assert!(!buf.has_remaining());

        let mut flipped = encode_record(7, payload).to_vec();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        let mut buf = Bytes::from(flipped);
        assert_eq!(decode_record(&mut buf), Err(WireError::InvalidPayload));
    }

    /// What `append` writes is `encode_record(seq, &encode_payload(..))`
    /// to the byte, in the buffer it reserved up front: seeded commits
    /// whose counts, key and entry lengths and sequence numbers straddle
    /// the one-, two- and three-byte length prefixes.
    #[test]
    fn a_commit_is_encoded_in_place_as_the_record_of_its_payload() {
        let mut rng = SplitMix64::new(0x000C_0AA1_7ED5_EED5);
        const LENGTHS: [usize; 8] = [0, 1, 5, 127, 128, 300, 16_383, 16_384];
        for case in 0..200u64 {
            let keys = [1, 2, 127, 128, 300][(rng.next_u64() % 5) as usize];
            let changed: Vec<(String, Bytes)> = (0..keys)
                .map(|i| {
                    let key_len = LENGTHS[(rng.next_u64() % 6) as usize];
                    let entry_len = match rng.next_u64() % 16 {
                        0 => LENGTHS[6 + (rng.next_u64() % 2) as usize],
                        pick => LENGTHS[(pick % 6) as usize],
                    };
                    let fill = rng.next_u64();
                    let entry: Vec<u8> = (0..entry_len)
                        .map(|j| (fill >> (j % 8 * 8)) as u8)
                        .collect();
                    (format!("{i:0key_len$}"), Bytes::from(entry))
                })
                .collect();
            let seq = [0, 1, 127, 128, 16_384, u64::from(u32::MAX), u64::MAX]
                [(rng.next_u64() % 7) as usize];
            let record = encode_commit(seq, &changed);
            let reference = encode_record(seq, &encode_payload(&changed));
            assert_eq!(
                record[..],
                reference[..],
                "case {case}: {keys} keys, seq {seq}"
            );
            let reserved = 2 * wire::MAX_VARINT_LEN + wire::bytes_len(payload_len(&changed));
            assert!(
                record.len() <= reserved,
                "case {case}: grew past its reservation"
            );
            let (got, payload) = decode_record(&mut record.freeze()).expect("decodes");
            assert_eq!(
                (got, payload),
                (seq, encode_payload(&changed)),
                "case {case}"
            );
        }
    }

    #[test]
    fn empty_dir_opens_empty_and_replays_appends() {
        let dir = tmpdir("basic");
        let config = DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Always);
        let site = SiteId::new(3);
        let (mut persist, mut store, report) = Persist::open(&config, site).unwrap();
        assert_eq!(report.wal_records_applied, 0);
        assert!(store.is_empty());

        store.put("a", "1");
        persist.append(&[entry(&store, "a")]).unwrap();
        store.put("b", "2");
        store.delete("a");
        // One record carrying two post-states, like a contact commit.
        persist
            .append(&[entry(&store, "b"), entry(&store, "a")])
            .unwrap();
        assert_eq!(persist.seq(), 2);
        assert_eq!(persist.records(), 2);
        assert!(persist.fsyncs() >= 2, "fsync=always syncs every append");
        drop(persist);

        let (persist, recovered, report) = Persist::open(&config, site).unwrap();
        assert_eq!(report.wal_records_applied, 2);
        assert!(!report.torn_tail);
        assert_eq!(recovered.replica_digest(), store.replica_digest());
        assert_eq!(persist.seq(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_and_recovery_uses_both_layers() {
        let dir = tmpdir("ckpt");
        let config = DurabilityConfig::new(&dir);
        let site = SiteId::new(0);
        let (mut persist, mut store, _) = Persist::open(&config, site).unwrap();
        store.put("pre", "1");
        persist.append(&[entry(&store, "pre")]).unwrap();
        let wal_before = persist.wal_len();
        persist.checkpoint(&store.encode_snapshot()).unwrap();
        assert!(persist.wal_len() < wal_before, "checkpoint truncates");
        assert_eq!(persist.snapshot_seq(), 1);
        assert!(!persist.needs_checkpoint());

        store.put("post", "2");
        persist.append(&[entry(&store, "post")]).unwrap();
        assert!(persist.needs_checkpoint());
        drop(persist);

        let (persist, recovered, report) = Persist::open(&config, site).unwrap();
        assert_eq!(report.snapshot_seq, 1);
        assert_eq!(
            report.wal_records_applied, 1,
            "only the post-checkpoint record"
        );
        assert_eq!(recovered.replica_digest(), store.replica_digest());
        assert_eq!(persist.seq(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let dir = tmpdir("torn");
        let config = DurabilityConfig::new(&dir);
        let site = SiteId::new(1);
        let (mut persist, mut store, _) = Persist::open(&config, site).unwrap();
        store.put("whole", "survives");
        persist.append(&[entry(&store, "whole")]).unwrap();
        let survivor_digest = store.replica_digest();
        store.put("torn", "lost");
        persist.append(&[entry(&store, "torn")]).unwrap();
        let full = persist.wal_len();
        drop(persist);

        // Tear the final record: cut one byte off the file.
        let wal_path = dir.join(WAL_FILE);
        let file = OpenOptions::new().write(true).open(&wal_path).unwrap();
        file.set_len(full - 1).unwrap();
        drop(file);

        let (persist, recovered, report) = Persist::open(&config, site).unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.wal_records_applied, 1);
        assert_eq!(recovered.replica_digest(), survivor_digest);
        // The tear was truncated away: the file now ends at the last
        // whole record, so appends extend a clean log.
        assert_eq!(
            std::fs::metadata(&wal_path).unwrap().len(),
            persist.wal_len()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_log_corruption_is_a_hard_error() {
        let dir = tmpdir("corrupt");
        let config = DurabilityConfig::new(&dir);
        let site = SiteId::new(1);
        let (mut persist, mut store, _) = Persist::open(&config, site).unwrap();
        store.put("first", "aaaaaaaaaaaaaaaa");
        persist.append(&[entry(&store, "first")]).unwrap();
        let first_end = persist.wal_len();
        store.put("second", "b");
        persist.append(&[entry(&store, "second")]).unwrap();
        drop(persist);

        // Flip a byte inside the first record's payload (safely past
        // the varint framing): the checksum must catch it, and because
        // a whole record follows, this is corruption, not a tear.
        let wal_path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        let mid = (first_end as usize) - 4;
        bytes[mid] ^= 0xFF;
        std::fs::write(&wal_path, &bytes).unwrap();

        let err = Persist::open(&config, site).unwrap_err();
        assert!(format!("{err}").contains("refusing to skip"), "got: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_repeated_site_in_the_log_or_the_checkpoint_refuses_recovery() {
        // An honest two-site vector image, its second site renamed to its
        // first, under a checksum that holds: only the vector decoder can
        // tell, and it used to hand back a one-element vector.
        use optrep_core::{RotatingVector, Srv};
        let mut meta = Srv::new();
        meta.record_update(SiteId::new(3));
        meta.record_update(SiteId::new(5));
        let mut meta = meta.encode_snapshot().to_vec();
        assert_eq!(meta, [2, 5, 4, 3, 4], "count, then (site, value·4) pairs");
        meta[3] = meta[1];
        let mut forged = BytesMut::new();
        wire::put_bytes(&mut forged, &meta);
        forged.put_u8(1);
        wire::put_bytes(&mut forged, b"v");
        let forged = forged.freeze();

        let site = SiteId::new(5);
        let dir = tmpdir("repeat-wal");
        let config = DurabilityConfig::new(&dir);
        let (mut persist, _, _) = Persist::open(&config, site).unwrap();
        persist
            .append(&[("k".to_string(), forged.clone())])
            .unwrap();
        drop(persist);
        let err = Persist::open(&config, site).unwrap_err();
        assert!(format!("{err}").contains("payload corrupt"), "got: {err}");
        std::fs::remove_dir_all(&dir).unwrap();

        let dir = tmpdir("repeat-ckpt");
        let config = DurabilityConfig::new(&dir);
        let (mut persist, _, _) = Persist::open(&config, site).unwrap();
        let mut image = BytesMut::new();
        wire::put_varint(&mut image, u64::from(site.index()));
        wire::put_varint(&mut image, 1);
        wire::put_bytes(&mut image, b"k");
        image.put_slice(&forged);
        persist.checkpoint(&image).unwrap();
        drop(persist);
        let err = Persist::open(&config, site).unwrap_err();
        assert!(format!("{err}").contains("image corrupt"), "got: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_site_data_dir_is_refused() {
        let dir = tmpdir("foreign");
        let config = DurabilityConfig::new(&dir);
        let (_persist, _store, _) = Persist::open(&config, SiteId::new(4)).unwrap();
        let err = Persist::open(&config, SiteId::new(5)).unwrap_err();
        assert!(format!("{err}").contains("site"), "got: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_policy_parses_every_form() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(
            FsyncPolicy::parse("interval"),
            Some(FsyncPolicy::Interval(DEFAULT_FSYNC_INTERVAL))
        );
        assert_eq!(
            FsyncPolicy::parse("interval:250"),
            Some(FsyncPolicy::Interval(Duration::from_millis(250)))
        );
        assert_eq!(FsyncPolicy::parse("interval:x"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }
}
