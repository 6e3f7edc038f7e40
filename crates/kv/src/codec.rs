//! What a store writes and reads back: whole-store snapshots, shard
//! images, log records and values in flight.

use crate::record::Record;
use crate::{env_shards, KvStore, Value};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use optrep_core::error::WireError;
use optrep_core::{wire, SiteId, Srv};

impl KvStore {
    /// Encodes one plan shard's whole image at plan-shard count
    /// `count`: a varint entry count followed by each entry's key,
    /// metadata snapshot, and tagged value (the per-entry layout of
    /// [`encode_snapshot`](Self::encode_snapshot), without the site
    /// header — shard snapshots cross sites, so they carry no site id).
    pub fn encode_shard_snapshot(&self, shard: u64, count: usize) -> Bytes {
        encode_image(None, &self.records_in(&[shard], count, |_| true))
    }

    /// Serializes the whole store into a durable snapshot: the site,
    /// then the image of every record in key order.
    pub fn encode_snapshot(&self) -> Bytes {
        encode_image(Some(self.site), &self.records_sorted())
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
        let (_, state) = self.record(key.as_bytes())?.split();
        Some(Bytes::copy_from_slice(state))
    }

    /// Overwrites one entry with a state captured by
    /// [`encode_entry`](Self::encode_entry), bumping the write
    /// generation. The WAL replay path: applying every logged
    /// post-state in order rebuilds the store the log described.
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
        let (meta, value) = decode_state(buf)?;
        if buf.has_remaining() {
            return Err(WireError::InvalidPayload);
        }
        let key = key.into();
        let idx = self.touch(&key);
        self.shards[idx].upsert(Record::new(&key, &meta, value.as_deref()));
        Ok(())
    }

    /// Rebuilds a store from [`encode_snapshot`](Self::encode_snapshot)
    /// output.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated or malformed input.
    pub fn decode_snapshot(buf: &mut Bytes) -> std::result::Result<Self, WireError> {
        let site = wire::get_site(buf)?;
        let n = wire::get_varint(buf)? as usize;
        // The shard count is a local layout choice, never serialized:
        // rebuilding at the environment's count reshards at boot for free.
        let mut store = KvStore::with_shards(site, env_shards());
        for _ in 0..n {
            store.insert(decode_keyed(buf)?);
        }
        Ok(store)
    }
}

/// Reads the one wire form of an entry's state — its metadata snapshot,
/// length-prefixed, then the value behind a one-byte tag (`0` a
/// tombstone, `1` length-prefixed bytes) — into the vector and the value
/// a [`Record`] is built from. The value is still a slice of `buf`;
/// [`Record::new`] copies it.
pub(crate) fn decode_state(buf: &mut Bytes) -> std::result::Result<(Srv, Value), WireError> {
    let mut meta_bytes = wire::get_bytes(buf)?;
    let meta = Srv::decode_snapshot(&mut meta_bytes)?;
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

/// Reads one entry of an image: its key, which must be UTF-8, and its
/// state. Every decoded entry comes through [`decode_state`] and
/// [`Record::new`], so a store holds what its own encoder writes for the
/// state it read, never the bytes it read it from.
pub(crate) fn decode_keyed(buf: &mut Bytes) -> std::result::Result<Record, WireError> {
    let key = wire::get_bytes(buf)?;
    let key = std::str::from_utf8(&key).map_err(|_| WireError::InvalidPayload)?;
    let (meta, value) = decode_state(buf)?;
    Ok(Record::new(key, &meta, value.as_deref()))
}

/// An image of (sorted) `records`: the site for a whole store's
/// snapshot (a shard's crosses sites and carries none), a varint count,
/// then each record's bytes. One buffer of the image's exact size.
pub(crate) fn encode_image(site: Option<SiteId>, records: &[&Record]) -> Bytes {
    let site = site.map(|site| u64::from(site.index()));
    let body: usize = records.iter().map(|record| record.bytes().len()).sum();
    let head = site.map_or(0, wire::varint_len) + wire::varint_len(records.len() as u64);
    let mut buf = BytesMut::with_capacity(head + body);
    if let Some(site) = site {
        wire::put_varint(&mut buf, site);
    }
    wire::put_varint(&mut buf, records.len() as u64);
    for record in records {
        buf.put_slice(record.bytes());
    }
    buf.freeze()
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
