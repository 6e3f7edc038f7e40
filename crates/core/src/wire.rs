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

/// Decodes an LEB128 varint from the front of `buf` — a [`Bytes`] in
/// flight, or a `&[u8]` a caller holds (a stored record's field).
///
/// # Errors
///
/// Returns [`WireError::UnexpectedEof`] if the buffer ends mid-varint and
/// [`WireError::VarintOverflow`] if the encoding exceeds
/// [`MAX_VARINT_LEN`] bytes or carries bits above the `u64` range.
pub fn get_varint(buf: &mut impl Buf) -> Result<u64, WireError> {
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
            return Ok(value);
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

/// Default [`FrameDecoder`] payload cap: 16 MiB. Far above any frame the
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
            return Ok(Some((value, i + 1)));
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
/// The declared payload length is *not* trusted: lengths above the
/// decoder's `max_frame` cap ([`DEFAULT_MAX_FRAME`] unless configured
/// with [`with_max_frame`](Self::with_max_frame)) are rejected with
/// [`WireError::FrameTooLarge`] before a single payload byte is buffered,
/// so a corrupt or hostile header near `u32::MAX`/`u64::MAX` cannot make
/// the decoder reserve unbounded memory.
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
#[derive(Debug)]
pub struct FrameDecoder {
    buf: BytesMut,
    max_frame: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder {
            buf: BytesMut::new(),
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

impl FrameDecoder {
    /// Creates an empty decoder with the [`DEFAULT_MAX_FRAME`] cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty decoder rejecting payloads above `max_frame`.
    pub fn with_max_frame(max_frame: usize) -> Self {
        FrameDecoder {
            buf: BytesMut::new(),
            max_frame,
        }
    }

    /// The configured payload cap.
    pub fn max_frame(&self) -> usize {
        self.max_frame
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
    /// Returns [`WireError::VarintOverflow`] if a buffered header varint
    /// is malformed and [`WireError::FrameTooLarge`] if the header
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
        if payload_len > self.max_frame as u64 {
            return Err(WireError::FrameTooLarge {
                declared: payload_len,
                max: self.max_frame as u64,
            });
        }
        let payload_len = payload_len as usize;
        let header_len = stream_len + len_len;
        if self.buf.len() - header_len < payload_len {
            // The declared length is now known to be within the cap, so
            // pre-reserving the rest of the frame is bounded.
            self.buf
                .reserve((header_len + payload_len).saturating_sub(self.buf.len()));
            return Ok(None);
        }
        let _ = self.buf.split_to(header_len);
        let payload = self.buf.split_to(payload_len).freeze();
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
/// and fail to decode the plan of its second.
pub const HANDSHAKE_VERSION: u8 = 4;

/// What the connecting peer intends to do with the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intent {
    /// A client-verb session: request/response frames on stream 0
    /// (`get`/`put`/`sync`/`status`/`digest`).
    Verbs,
    /// An anti-entropy pull: the connector drives a batched mux contact
    /// as the pulling side; the accepting daemon serves its store. The
    /// socket carries exactly one contact and closes.
    Pull,
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
            Intent::Pull => 1,
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
    /// mismatch is diagnosable from one end — and
    /// [`WireError::UnexpectedEof`] on truncation.
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
            1 => Intent::Pull,
            2 => Intent::Peer,
            tag => return Err(WireError::UnsupportedIntent { theirs: tag }),
        };
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
    fn frame_decoder_custom_cap_respected() {
        let mut dec = FrameDecoder::with_max_frame(4);
        assert_eq!(dec.max_frame(), 4);

        // At the cap: accepted.
        let mut buf = BytesMut::new();
        put_frame(&mut buf, 1, b"abcd");
        dec.push(&buf);
        let frame = dec.next_frame().unwrap().unwrap();
        assert_eq!(&frame.payload[..], b"abcd");

        // One past the cap: rejected even though the bytes are all there.
        let mut buf = BytesMut::new();
        put_frame(&mut buf, 1, b"abcde");
        dec.push(&buf);
        assert_eq!(
            dec.next_frame(),
            Err(WireError::FrameTooLarge {
                declared: 5,
                max: 4
            })
        );
    }

    #[test]
    fn handshake_roundtrip() {
        for intent in [Intent::Verbs, Intent::Pull, Intent::Peer] {
            let hs = Handshake::new(7, intent);
            let mut buf = hs.encode();
            assert_eq!(Handshake::decode(&mut buf), Ok(hs));
            assert!(buf.is_empty());
        }
        let anon = Handshake::new(u32::MAX, Intent::Verbs);
        let mut buf = anon.encode();
        assert_eq!(Handshake::decode(&mut buf), Ok(anon));
    }

    #[test]
    fn handshake_rejects_garbage() {
        // Wrong magic: a peer speaking some other protocol.
        let mut buf = Bytes::from_static(b"HTTP/1.1 200");
        assert_eq!(Handshake::decode(&mut buf), Err(WireError::InvalidPayload));

        // Unsupported version: the error names both sides' versions.
        let mut raw = BytesMut::new();
        raw.put_slice(&HANDSHAKE_MAGIC);
        raw.put_u8(HANDSHAKE_VERSION + 1);
        put_varint(&mut raw, 0);
        raw.put_u8(0);
        let mut buf = raw.freeze();
        assert_eq!(
            Handshake::decode(&mut buf),
            Err(WireError::UnsupportedVersion {
                ours: HANDSHAKE_VERSION,
                theirs: HANDSHAKE_VERSION + 1,
            })
        );

        // Unknown intent: the error carries the peer's advertised tag.
        let mut raw = BytesMut::new();
        raw.put_slice(&HANDSHAKE_MAGIC);
        raw.put_u8(HANDSHAKE_VERSION);
        put_varint(&mut raw, 0);
        raw.put_u8(9);
        let mut buf = raw.freeze();
        assert_eq!(
            Handshake::decode(&mut buf),
            Err(WireError::UnsupportedIntent { theirs: 9 })
        );

        // Every truncation of a valid preamble is an error, never a panic.
        let full = Handshake::new(3, Intent::Pull).encode();
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            assert!(Handshake::decode(&mut buf).is_err(), "cut {cut}");
        }
    }
}
