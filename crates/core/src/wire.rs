//! Compact wire encoding for protocol messages.
//!
//! Every communication claim in the paper is stated in bits; to measure them
//! honestly, all protocol messages are encoded with a real, compact format:
//! LEB128 varints for site names, element values and segment counters, plus
//! a one-byte message tag. The benchmark harness counts these encoded bytes
//! (not abstract element counts — those are reported separately).

use crate::error::WireError;
use crate::site::SiteId;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Maximum number of bytes a `u64` varint occupies.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends `value` to `buf` as an LEB128 varint.
///
/// ```
/// use optrep_core::wire;
/// let mut buf = bytes::BytesMut::new();
/// wire::put_varint(&mut buf, 300);
/// assert_eq!(&buf[..], &[0xac, 0x02]);
/// ```
pub fn put_varint(buf: &mut impl BufMut, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Writes `value` as [`put_varint`] does, straight into `out`, without a
/// buffer of its own: how an image or a log record streamed to a file
/// frames its lengths.
///
/// # Errors
///
/// The first error `out` returns.
pub fn write_varint(out: &mut impl std::io::Write, value: u64) -> std::io::Result<()> {
    let mut bytes = [0u8; MAX_VARINT_LEN];
    let len = varint_len(value);
    for (i, byte) in bytes[..len].iter_mut().enumerate() {
        let more = if i + 1 < len { 0x80 } else { 0 };
        *byte = (value >> (7 * i)) as u8 & 0x7f | more;
    }
    out.write_all(&bytes[..len])
}

/// Decodes an LEB128 varint from the front of `buf` — a [`Bytes`] in
/// flight, or a `&[u8]` a caller holds (a stored record's field).
///
/// # Errors
///
/// Returns [`WireError::UnexpectedEof`] if the buffer ends mid-varint,
/// [`WireError::VarintOverflow`] if the encoding exceeds
/// [`MAX_VARINT_LEN`] bytes or carries bits above the `u64` range, and
/// [`WireError::InvalidPayload`] if it is longer than it goes — a last
/// group of 0 after the first: a value has one encoding, the one
/// [`put_varint`] writes.
pub fn get_varint(buf: &mut impl Buf) -> Result<u64, WireError> {
    // Nearly every varint an image or a frame holds is one byte: it is
    // read off the chunk without the loop.
    if let Some(&byte) = buf.chunk().first() {
        if byte < 0x80 {
            buf.advance(1);
            return Ok(u64::from(byte));
        }
    }
    let mut value = 0u64;
    let mut shift = 0u32;
    for _ in 0..MAX_VARINT_LEN {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        let byte = buf.get_u8();
        let group = u64::from(byte & 0x7f);
        // The tenth byte sits at shift 63 and may only contribute bit 63;
        // anything higher would be silently shifted out of the u64.
        if group.leading_zeros() < shift {
            return Err(WireError::VarintOverflow);
        }
        value |= group << shift;
        if byte & 0x80 == 0 {
            return match byte {
                0 if shift > 0 => Err(WireError::InvalidPayload),
                _ => Ok(value),
            };
        }
        shift += 7;
    }
    Err(WireError::VarintOverflow)
}

/// Decodes a varint that must fit a `u32` — a site index, a sequence
/// number. An `as u32` here would read `2³² + 1` as `1`.
///
/// # Errors
///
/// As [`get_varint`], and [`WireError::InvalidPayload`] above `u32::MAX`.
pub fn get_u32(buf: &mut impl Buf) -> Result<u32, WireError> {
    u32::try_from(get_varint(buf)?).map_err(|_| WireError::InvalidPayload)
}

/// The site a decoded `u64` names.
///
/// # Errors
///
/// [`WireError::InvalidPayload`] above `u32::MAX`: no site has that name,
/// and truncating it would name another.
pub fn site_id(raw: u64) -> Result<SiteId, WireError> {
    u32::try_from(raw)
        .map(SiteId::new)
        .map_err(|_| WireError::InvalidPayload)
}

/// Decodes a varint site id.
///
/// # Errors
///
/// As [`get_u32`].
pub fn get_site(buf: &mut impl Buf) -> Result<SiteId, WireError> {
    get_u32(buf).map(SiteId::new)
}

/// Number of bytes [`put_varint`] uses for `value`.
///
/// ```
/// use optrep_core::wire::varint_len;
/// assert_eq!(varint_len(0), 1);
/// assert_eq!(varint_len(127), 1);
/// assert_eq!(varint_len(128), 2);
/// assert_eq!(varint_len(u64::MAX), 10);
/// ```
pub const fn varint_len(value: u64) -> usize {
    if value == 0 {
        return 1;
    }
    let bits = 64 - value.leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Appends a length-prefixed byte string.
pub fn put_bytes(buf: &mut impl BufMut, data: &[u8]) {
    put_varint(buf, data.len() as u64);
    buf.put_slice(data);
}

/// Decodes a length-prefixed byte string.
///
/// # Errors
///
/// Returns [`WireError::UnexpectedEof`] if fewer bytes remain than the
/// prefix promises.
pub fn get_bytes(buf: &mut Bytes) -> Result<Bytes, WireError> {
    let len = get_varint(buf)? as usize;
    if buf.remaining() < len {
        return Err(WireError::UnexpectedEof);
    }
    Ok(buf.split_to(len))
}

/// Decodes a length-prefixed byte string off the front of a slice, as
/// [`get_bytes`] does off a [`Bytes`]: the field, borrowed.
///
/// # Errors
///
/// As [`get_bytes`].
pub fn get_slice<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], WireError> {
    let len = get_varint(buf)? as usize;
    if buf.len() < len {
        return Err(WireError::UnexpectedEof);
    }
    let (field, rest) = buf.split_at(len);
    *buf = rest;
    Ok(field)
}

/// Byte length of a length-prefixed byte string of `len` payload bytes.
pub const fn bytes_len(len: usize) -> usize {
    varint_len(len as u64) + len
}

/// One frame on a multiplexed connection: a stream identifier plus an
/// opaque, length-prefixed payload.
///
/// The frame layer is what lets a single connection carry the
/// synchronization of an arbitrary set of objects as interleaved streams:
/// each object's session is a stream, and frames from different streams may
/// interleave freely on the byte stream. Stream `0` is reserved by
/// convention for connection-level control traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Stream the payload belongs to (`0` = control stream).
    pub stream: u64,
    /// Opaque payload bytes (typically one encoded protocol message).
    pub payload: Bytes,
}

impl Frame {
    /// Encoded size of a frame header plus `payload_len` payload bytes.
    pub const fn encoded_len(stream: u64, payload_len: usize) -> usize {
        varint_len(stream) + bytes_len(payload_len)
    }

    /// Bytes of framing overhead (header) for this frame.
    pub fn header_len(&self) -> usize {
        varint_len(self.stream) + varint_len(self.payload.len() as u64)
    }
}

/// Appends a frame (`stream` varint, payload length varint, payload bytes).
pub fn put_frame(buf: &mut BytesMut, stream: u64, payload: &[u8]) {
    put_varint(buf, stream);
    put_bytes(buf, payload);
}

/// Decodes one complete frame from the front of `buf`.
///
/// # Errors
///
/// Returns [`WireError::UnexpectedEof`] if the buffer holds less than one
/// whole frame; use [`FrameDecoder`] to reassemble frames from partial
/// reads on a byte stream.
pub fn get_frame(buf: &mut Bytes) -> Result<Frame, WireError> {
    let stream = get_varint(buf)?;
    let payload = get_bytes(buf)?;
    Ok(Frame { stream, payload })
}

/// What a byte-stream transport reads off its socket at a time and
/// pushes into a [`FrameDecoder`]: 8 KiB keeps syscall counts low
/// without hoarding memory per connection. The decoder holds a partial
/// frame's rest and one such read more, so the read that ends a frame
/// fits with whatever follows the frame in it.
pub const READ_CHUNK: usize = 8 * 1024;

/// The [`FrameDecoder`] payload cap: 16 MiB. Far above any frame the
/// protocols produce, far below what a hostile length prefix can name.
pub const DEFAULT_MAX_FRAME: usize = 1 << 24;

/// Decodes one varint from the front of `buf` without consuming it.
///
/// Returns `Ok(None)` on a short read, or the value and its encoded
/// length. Error semantics match [`get_varint`].
fn peek_varint(buf: &[u8]) -> Result<Option<(u64, usize)>, WireError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for i in 0..MAX_VARINT_LEN {
        let Some(&byte) = buf.get(i) else {
            return Ok(None);
        };
        let group = u64::from(byte & 0x7f);
        if group.leading_zeros() < shift {
            return Err(WireError::VarintOverflow);
        }
        value |= group << shift;
        if byte & 0x80 == 0 {
            return match byte {
                0 if i > 0 => Err(WireError::InvalidPayload),
                _ => Ok(Some((value, i + 1))),
            };
        }
        shift += 7;
    }
    Err(WireError::VarintOverflow)
}

/// Incremental frame reassembler for byte-stream transports.
///
/// Feed arbitrarily chopped chunks with [`push`](Self::push) and drain
/// complete frames with [`next_frame`](Self::next_frame). Partial input —
/// down to one byte at a time — is buffered until a whole frame is
/// available; a genuinely malformed header (varint overflow) is still
/// reported as an error rather than being mistaken for a short read.
///
/// The declared payload length is *not* trusted: lengths above
/// [`DEFAULT_MAX_FRAME`] are rejected with
/// [`WireError::FrameTooLarge`] before a single payload byte is buffered,
/// so a corrupt or hostile header near `u32::MAX`/`u64::MAX` cannot make
/// the decoder reserve unbounded memory.
///
/// A frame's payload is split off the buffer it was read into, without a
/// copy. The decoder reserves a partial frame's rest and one
/// [`READ_CHUNK`] beyond it, so a big frame is read into one buffer of
/// about its size, and it lets go of that buffer once a frame leaves it
/// empty: the payload then holds its allocation alone, and it is freed
/// with the payload.
///
/// ```
/// use optrep_core::wire::FrameDecoder;
/// let mut dec = FrameDecoder::new();
/// dec.push(&[0x07, 0x02, b'h']); // stream 7, 2-byte payload, first byte
/// assert!(dec.next_frame().unwrap().is_none()); // incomplete
/// dec.push(&[b'i']);
/// let frame = dec.next_frame().unwrap().unwrap();
/// assert_eq!(frame.stream, 7);
/// assert_eq!(&frame.payload[..], b"hi");
/// ```
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: BytesMut,
}

impl FrameDecoder {
    /// Creates an empty decoder with the [`DEFAULT_MAX_FRAME`] cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes received from the transport.
    pub fn push(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Extracts the next complete frame, if one is buffered.
    ///
    /// Returns `Ok(None)` when more input is needed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::VarintOverflow`] or
    /// [`WireError::InvalidPayload`] if a buffered header varint is
    /// malformed, as [`get_varint`] would, and
    /// [`WireError::FrameTooLarge`] if the header
    /// declares a payload above the cap — neither can become valid with
    /// more input.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        // Parse the header in place; only commit (split off) once the
        // whole frame is known to be present.
        let Some((stream, stream_len)) = peek_varint(&self.buf)? else {
            return Ok(None);
        };
        let Some((payload_len, len_len)) = peek_varint(&self.buf[stream_len..])? else {
            return Ok(None);
        };
        if payload_len > DEFAULT_MAX_FRAME as u64 {
            return Err(WireError::FrameTooLarge {
                declared: payload_len,
                max: DEFAULT_MAX_FRAME as u64,
            });
        }
        let payload_len = payload_len as usize;
        let header_len = stream_len + len_len;
        if self.buf.len() - header_len < payload_len {
            // The declared length is now known to be within the cap, so
            // pre-reserving the rest of the frame is bounded. The read
            // that completes it may carry the next frame's first bytes.
            let rest = header_len + payload_len - self.buf.len();
            self.buf.reserve(rest + READ_CHUNK);
            return Ok(None);
        }
        let _ = self.buf.split_to(header_len);
        let payload = self.buf.split_to(payload_len).freeze();
        if self.buf.is_empty() {
            self.buf = BytesMut::new();
        }
        crate::obs_emit!(crate::obs::SyncEvent::FrameRx {
            stream,
            bytes: (header_len + payload_len) as u64,
        });
        Ok(Some(Frame { stream, payload }))
    }
}

/// The four magic bytes opening every `optrepd` connection preamble.
pub const HANDSHAKE_MAGIC: [u8; 4] = *b"OPTR";

/// Wire protocol version carried by the [`Handshake`]. Bump on any
/// incompatible change to the frame or message formats.
///
/// v2 added the persistent [`Intent::Peer`] connection kind that carries
/// many pull contacts back-to-back over one socket. v3 lets a planned
/// pull open with a digest *delta* against the vector the connection's
/// last contact carried (`replication::planner`, tag `0x39`): a v2
/// server would accept a connection's first, full vector and then fail
/// its first delta, so the two must not be mixed. v4 lets the plan of a
/// connection's later pulls propose scopes (tag `0x3a`) and the scope
/// frame refuse them: a v3 puller would serve a connection's first pull
/// and fail to decode the plan of its second. v5 makes a proposal
/// binding — the server checks it against the puller's digest vector —
/// so it carries no residual and the scope frame no refusals, and a plan
/// that offers no children is answered with no scope frame: a v4 end
/// would misread the plan of a connection's second pull, and the `sync`
/// verb's report carries framing bytes where v4's carried refusals. v6
/// pushes a proposed shard's changed keys behind the plan (tag `0x30`)
/// and lists proposals as one bit an incremental shard, not as
/// candidates: a v5 puller would misread the plan of a connection's
/// second pull and refuse the push. v7 names only the keys in a push,
/// its stream ids, `⌊b⌋` and flags implied, leaves out a pushed stream's
/// `HALT` (its value implies it), and writes a plan's shard lists as
/// gaps: a v6 end would misread every plan that walks or bulk-loads a
/// shard. v8 writes each key after the first of a bulk-loaded shard's
/// image as the length of the prefix it shares with the key before it
/// and the rest: a v7 end would misread every image of two keys or more.
/// v9 writes a record's vector in such an image as an empty field where
/// it is the vector of the record before: a v8 end would refuse nearly
/// every image of two keys or more. v10 sends a plan's bulk-loaded
/// shards as one image in key order behind their gap list, writes an
/// empty shard's summary as its zero count alone, and finalizes each
/// entry hash before shard digests sum it: a v9 end would misread every
/// plan that bulk-loads two shards or more and every vector with an
/// empty shard, and no digest of a shard that holds anything would
/// match across the two. v11 lists only the walked and bulk-loaded
/// shards in a plan and retires the proposing plan tag (`0x3a`): a
/// proposed shard is the shard of a pushed key. A v10 puller would
/// refuse a push into a shard its plan does not list, and a v11 one
/// every plan a v10 server proposes in. v12 writes each entry of a
/// plan's image behind two heads — the key's shared and rest lengths,
/// the value's length and whether the vector repeats — in place of
/// their five fields: a v11 end would misread every image. v13 sends a
/// push as one frame behind the plan (tag `0x3b`) holding the image of
/// the pushed keys, in place of a frame of their names (tag `0x30`,
/// retired) and a frame for each of their elements and values: a v12
/// puller would refuse every push, and a v13 one every v12 push.
pub const HANDSHAKE_VERSION: u8 = 13;

/// What the connecting peer intends to do with the connection: byte 0
/// or 2 of the preamble. Byte 1 named a one-shot pull no build sends
/// any more, and decodes as [`WireError::UnsupportedIntent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intent {
    /// A client-verb session: request/response frames on stream 0
    /// (`get`/`put`/`delete`/`digest`/`sync`/`metrics`).
    Verbs,
    /// A persistent peer channel: the connector pipelines successive
    /// pull contacts over the same socket, each delimited by the mux
    /// FIN-marker exchange, with no per-contact dial or teardown.
    Peer,
}

/// The first frame on every socket connection: magic, protocol version,
/// the connector's site id and its [`Intent`]. Sent as the payload of a
/// stream-0 frame so the receiving side reassembles it with the same
/// [`FrameDecoder`] that carries the rest of the conversation; a peer
/// speaking anything else fails the magic check instead of wedging the
/// frame layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handshake {
    /// Index of the connecting site (`u32::MAX` for anonymous clients).
    pub site: u32,
    /// What the connection will carry.
    pub intent: Intent,
}

impl Handshake {
    /// A handshake from `site` with `intent`.
    pub fn new(site: u32, intent: Intent) -> Self {
        Handshake { site, intent }
    }

    /// Encodes the preamble: magic, version, site varint, intent byte.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_slice(&HANDSHAKE_MAGIC);
        buf.put_u8(HANDSHAKE_VERSION);
        put_varint(&mut buf, u64::from(self.site));
        buf.put_u8(match self.intent {
            Intent::Verbs => 0,
            Intent::Peer => 2,
        });
        buf.freeze()
    }

    /// Decodes a preamble.
    ///
    /// # Errors
    ///
    /// [`WireError::InvalidPayload`] on bad magic (the peer is not
    /// speaking this protocol), [`WireError::UnsupportedVersion`] /
    /// [`WireError::UnsupportedIntent`] on a version or intent this build
    /// does not speak — both carry the peer's advertised value so the
    /// mismatch is diagnosable from one end — [`WireError::UnexpectedEof`]
    /// on truncation, and [`WireError::InvalidPayload`] on bytes past the
    /// intent.
    pub fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < HANDSHAKE_MAGIC.len() + 1 {
            return Err(WireError::UnexpectedEof);
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if magic != HANDSHAKE_MAGIC {
            return Err(WireError::InvalidPayload);
        }
        let version = buf.get_u8();
        if version != HANDSHAKE_VERSION {
            return Err(WireError::UnsupportedVersion {
                ours: HANDSHAKE_VERSION,
                theirs: version,
            });
        }
        let site = get_u32(buf)?;
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        let intent = match buf.get_u8() {
            0 => Intent::Verbs,
            2 => Intent::Peer,
            tag => return Err(WireError::UnsupportedIntent { theirs: tag }),
        };
        if buf.has_remaining() {
            return Err(WireError::InvalidPayload);
        }
        Ok(Handshake { site, intent })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "length for {v}");
            let mut written = Vec::new();
            write_varint(&mut written, v).unwrap();
            assert_eq!(written, buf[..], "written {v}");
            let mut bytes = buf.freeze();
            assert_eq!(get_varint(&mut bytes).unwrap(), v);
            assert!(bytes.is_empty());
        }
    }

    #[test]
    fn varint_eof_detected() {
        let mut bytes = Bytes::from_static(&[0x80]);
        assert_eq!(get_varint(&mut bytes), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn varint_overflow_detected() {
        let mut bytes = Bytes::from_static(&[0xff; 11]);
        assert_eq!(get_varint(&mut bytes), Err(WireError::VarintOverflow));
    }

    #[test]
    fn varint_high_bits_rejected_not_truncated() {
        // Ten-byte varint whose final byte carries bits above the u64
        // range. The old decoder silently shifted them out and returned a
        // truncated value; it must be an overflow error instead.
        let mut encoded = [0xffu8; 10];
        encoded[9] = 0x7f;
        let mut bytes = Bytes::from(encoded.to_vec());
        assert_eq!(get_varint(&mut bytes), Err(WireError::VarintOverflow));

        // Even a single excess bit (bit 64) must be rejected.
        encoded[9] = 0x02;
        let mut bytes = Bytes::from(encoded.to_vec());
        assert_eq!(get_varint(&mut bytes), Err(WireError::VarintOverflow));

        // The canonical u64::MAX encoding still decodes.
        encoded[9] = 0x01;
        let mut bytes = Bytes::from(encoded.to_vec());
        assert_eq!(get_varint(&mut bytes), Ok(u64::MAX));
    }

    #[test]
    fn a_site_or_u32_above_the_range_is_refused_not_truncated() {
        let encoded = |value: u64| {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, value);
            buf.freeze()
        };
        let max = u64::from(u32::MAX);
        assert_eq!(get_u32(&mut encoded(max)), Ok(u32::MAX));
        assert_eq!(get_site(&mut encoded(max)), Ok(SiteId::new(u32::MAX)));
        assert_eq!(site_id(max), Ok(SiteId::new(u32::MAX)));
        // 2³² + 1 is not site 1.
        for above in [max + 1, max + 2, u64::MAX] {
            assert_eq!(get_u32(&mut encoded(above)), Err(WireError::InvalidPayload));
            assert_eq!(
                get_site(&mut encoded(above)),
                Err(WireError::InvalidPayload)
            );
            assert_eq!(site_id(above), Err(WireError::InvalidPayload));
        }
        // A slice reads like a `Bytes`, and is advanced like one.
        let mut slice: &[u8] = &[0xac, 0x02, 7];
        assert_eq!(get_varint(&mut slice), Ok(300));
        assert_eq!(slice, [7]);
    }

    #[test]
    fn byte_string_roundtrip() {
        let mut buf = BytesMut::new();
        put_bytes(&mut buf, b"hello");
        assert_eq!(buf.len(), bytes_len(5));
        let mut bytes = buf.freeze();
        assert_eq!(get_bytes(&mut bytes).unwrap(), Bytes::from_static(b"hello"));
    }

    #[test]
    fn byte_string_truncation_detected() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 10);
        buf.put_slice(b"abc");
        let mut bytes = buf.freeze();
        assert_eq!(get_bytes(&mut bytes), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn empty_byte_string() {
        let mut buf = BytesMut::new();
        put_bytes(&mut buf, b"");
        let mut bytes = buf.freeze();
        assert_eq!(get_bytes(&mut bytes).unwrap().len(), 0);
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = BytesMut::new();
        put_frame(&mut buf, 0, b"ctrl");
        put_frame(&mut buf, 300, b"");
        put_frame(&mut buf, 7, b"payload");
        let mut bytes = buf.freeze();
        let f0 = get_frame(&mut bytes).unwrap();
        assert_eq!((f0.stream, &f0.payload[..]), (0, &b"ctrl"[..]));
        let f1 = get_frame(&mut bytes).unwrap();
        assert_eq!((f1.stream, f1.payload.len()), (300, 0));
        let f2 = get_frame(&mut bytes).unwrap();
        assert_eq!((f2.stream, &f2.payload[..]), (7, &b"payload"[..]));
        assert!(bytes.is_empty());
        assert_eq!(Frame::encoded_len(300, 0), 3);
        assert_eq!(f2.header_len(), 2);
    }

    #[test]
    fn frame_decoder_handles_single_byte_reads() {
        let mut buf = BytesMut::new();
        put_frame(&mut buf, 1, b"abc");
        put_frame(&mut buf, 0, b"");
        let encoded = buf.freeze();

        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        for &b in encoded.iter() {
            dec.push(&[b]);
            while let Some(frame) = dec.next_frame().unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].stream, 1);
        assert_eq!(&frames[0].payload[..], b"abc");
        assert_eq!(frames[1].stream, 0);
        assert!(frames[1].payload.is_empty());
        assert_eq!(dec.buffered(), 0);
    }

    /// A frame of many reads is read into one buffer of about its size —
    /// the read that ends it carries the next frame's first bytes and
    /// still fits — and a decoder the next frame leaves empty holds no
    /// buffer at all.
    #[test]
    fn frame_decoder_reads_a_big_frame_into_one_buffer_and_lets_it_go() {
        let payload = vec![7u8; 20 * READ_CHUNK + 100];
        let mut buf = BytesMut::new();
        put_frame(&mut buf, 3, &payload);
        put_frame(&mut buf, 0, b"next");
        let frame = Frame::encoded_len(3, payload.len());
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        for chunk in buf.chunks(READ_CHUNK) {
            dec.push(chunk);
            let held = dec.buf.capacity();
            assert!(
                held <= frame + READ_CHUNK,
                "{held} B held for a {frame} B frame"
            );
            while let Some(frame) = dec.next_frame().unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].payload, payload);
        assert_eq!(&frames[1].payload[..], b"next");
        assert_eq!(dec.buf.capacity(), 0, "an empty decoder holds no buffer");
    }

    #[test]
    fn frame_decoder_reports_malformed_header() {
        let mut dec = FrameDecoder::new();
        dec.push(&[0xff; 10]); // stream varint with bits beyond u64
        dec.push(&[0x7f]);
        assert_eq!(dec.next_frame(), Err(WireError::VarintOverflow));
    }

    #[test]
    fn frame_decoder_rejects_oversized_declared_length() {
        // A header naming a payload just above the cap is rejected as soon
        // as the header itself is complete — no payload bytes needed, no
        // reservation attempted.
        let mut dec = FrameDecoder::new();
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 3); // stream
        put_varint(&mut buf, DEFAULT_MAX_FRAME as u64 + 1);
        dec.push(&buf);
        assert_eq!(
            dec.next_frame(),
            Err(WireError::FrameTooLarge {
                declared: DEFAULT_MAX_FRAME as u64 + 1,
                max: DEFAULT_MAX_FRAME as u64,
            })
        );
    }

    #[test]
    fn frame_decoder_rejects_u32_and_u64_adjacent_lengths() {
        for declared in [
            u32::MAX as u64 - 1,
            u32::MAX as u64,
            u32::MAX as u64 + 1,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut dec = FrameDecoder::new();
            let mut buf = BytesMut::new();
            put_varint(&mut buf, 0);
            put_varint(&mut buf, declared);
            dec.push(&buf);
            assert_eq!(
                dec.next_frame(),
                Err(WireError::FrameTooLarge {
                    declared,
                    max: DEFAULT_MAX_FRAME as u64,
                }),
                "declared length {declared}"
            );
        }
    }

    #[test]
    fn frame_decoder_cap_respected() {
        let mut dec = FrameDecoder::new();

        // At the cap: accepted.
        let payload = vec![7u8; DEFAULT_MAX_FRAME];
        let mut buf = BytesMut::new();
        put_frame(&mut buf, 1, &payload);
        dec.push(&buf);
        let frame = dec.next_frame().unwrap().unwrap();
        assert_eq!(frame.payload.len(), DEFAULT_MAX_FRAME);

        // One past the cap: rejected even though the bytes are all there.
        let mut buf = BytesMut::new();
        put_frame(&mut buf, 1, &[&payload[..], &[7]].concat());
        dec.push(&buf);
        assert_eq!(
            dec.next_frame(),
            Err(WireError::FrameTooLarge {
                declared: DEFAULT_MAX_FRAME as u64 + 1,
                max: DEFAULT_MAX_FRAME as u64,
            })
        );
    }

    #[test]
    fn handshake_roundtrip() {
        for intent in [Intent::Verbs, Intent::Peer] {
            let hs = Handshake::new(7, intent);
            let mut buf = hs.encode();
            assert_eq!(Handshake::decode(&mut buf), Ok(hs));
            assert!(buf.is_empty());
        }
        let anon = Handshake::new(u32::MAX, Intent::Verbs);
        let mut buf = anon.encode();
        assert_eq!(Handshake::decode(&mut buf), Ok(anon));
        // An unknown intent, the retired one-shot pull's 1 among them: the
        // error carries the peer's advertised tag.
        for tag in [1, 9] {
            let mut raw = anon.encode().to_vec();
            *raw.last_mut().unwrap() = tag;
            assert_eq!(
                Handshake::decode(&mut Bytes::from(raw)),
                Err(WireError::UnsupportedIntent { theirs: tag })
            );
        }
    }
}
