//! Seeded property tests for the frame layer: arbitrary interleavings of
//! streams round-trip through the raw frame codec and the incremental
//! [`FrameDecoder`], under every possible chunking of the byte stream —
//! including one byte at a time — and malformed input errors instead of
//! panicking.

use bytes::{Bytes, BytesMut};
use optrep_core::error::WireError;
use optrep_core::rng::{cases, SplitMix64};
use optrep_core::sync::{Framed, Msg, WireMsg};
use optrep_core::wire::{self, FrameDecoder};
use optrep_core::SiteId;
use std::ops::Range;

/// A word of any magnitude, so every varint length is drawn.
fn word(rng: &mut SplitMix64) -> u64 {
    rng.next_u64() >> rng.below(64)
}

fn bytes(rng: &mut SplitMix64, len: Range<usize>) -> Vec<u8> {
    (0..rng.range(len)).map(|_| rng.next_u64() as u8).collect()
}

/// Arbitrary frames: any stream id, any payload (not necessarily a
/// well-formed message — the frame layer is content-agnostic).
fn frames(rng: &mut SplitMix64, count: Range<usize>) -> Vec<(u64, Vec<u8>)> {
    (0..rng.range(count))
        .map(|_| (word(rng), bytes(rng, 0..48)))
        .collect()
}

fn encode_frames(frames: &[(u64, Vec<u8>)]) -> Bytes {
    let mut buf = BytesMut::new();
    for (stream, payload) in frames {
        wire::put_frame(&mut buf, *stream, payload);
    }
    buf.freeze()
}

fn assert_frames_are(out: &[wire::Frame], frames: &[(u64, Vec<u8>)]) {
    assert_eq!(out.len(), frames.len());
    for (frame, (stream, payload)) in out.iter().zip(frames) {
        assert_eq!(frame.stream, *stream);
        assert_eq!(&frame.payload[..], &payload[..]);
    }
}

#[test]
fn frame_roundtrip() {
    cases(256, |_, rng| {
        let (stream, payload) = (word(rng), bytes(rng, 0..64));
        let mut buf = BytesMut::new();
        wire::put_frame(&mut buf, stream, &payload);
        assert_eq!(buf.len(), wire::Frame::encoded_len(stream, payload.len()));
        let mut bytes = buf.freeze();
        let frame = wire::get_frame(&mut bytes).unwrap();
        assert_eq!(frame.stream, stream);
        assert_eq!(&frame.payload[..], &payload[..]);
        assert!(bytes.is_empty());
    });
}

#[test]
fn interleaved_streams_decode_in_order() {
    cases(256, |_, rng| {
        // Arbitrary interleaving: stream ids repeat, collide and jump
        // around; the frame layer must preserve exact order and payloads.
        let frames = frames(rng, 0..12);
        let mut bytes = encode_frames(&frames);
        for (stream, payload) in &frames {
            let frame = wire::get_frame(&mut bytes).unwrap();
            assert_eq!(frame.stream, *stream);
            assert_eq!(&frame.payload[..], &payload[..]);
        }
        assert!(bytes.is_empty());
    });
}

#[test]
fn decoder_handles_any_chunking() {
    cases(256, |_, rng| {
        let frames = frames(rng, 1..8);
        let chunk = rng.range(1..24);
        let encoded = encode_frames(&frames);
        let mut decoder = FrameDecoder::new();
        let mut out = Vec::new();
        for piece in encoded.chunks(chunk) {
            decoder.push(piece);
            while let Some(frame) = decoder.next_frame().unwrap() {
                out.push(frame);
            }
        }
        assert_frames_are(&out, &frames);
        assert_eq!(decoder.buffered(), 0);
    });
}

#[test]
fn decoder_split_at_every_byte() {
    cases(256, |_, rng| {
        // The adversarial chunking: one byte per read. The decoder must
        // never yield a frame early, never duplicate one, and must hold
        // exactly the partial bytes in between.
        let frames = frames(rng, 1..5);
        let encoded = encode_frames(&frames);
        let mut decoder = FrameDecoder::new();
        let mut out = Vec::new();
        for byte in encoded.iter() {
            decoder.push(std::slice::from_ref(byte));
            while let Some(frame) = decoder.next_frame().unwrap() {
                out.push(frame);
            }
        }
        assert_frames_are(&out, &frames);
        assert_eq!(decoder.buffered(), 0);
    });
}

#[test]
fn truncated_frames_wait_rather_than_err() {
    cases(256, |_, rng| {
        // Every strict prefix of a single frame must leave the decoder
        // waiting for more input, not erroring and not yielding a frame.
        let mut buf = BytesMut::new();
        wire::put_frame(&mut buf, word(rng), &bytes(rng, 0..32));
        let encoded = buf.freeze();
        for cut in 0..encoded.len() {
            let mut decoder = FrameDecoder::new();
            decoder.push(&encoded[..cut]);
            assert!(decoder.next_frame().unwrap().is_none(), "cut {cut}");
            assert_eq!(decoder.buffered(), cut);
        }
    });
}

#[test]
fn decoder_never_panics_on_garbage() {
    cases(256, |_, rng| {
        // Byte soup either decodes to frames, waits for more input, or
        // errors (oversized varint headers, payload lengths above the
        // decoder cap) — it must never panic, and an error must be sticky
        // fatal rather than silently skipped.
        let soup = bytes(rng, 0..96);
        let chunk = rng.range(1..16);
        let mut decoder = FrameDecoder::new();
        'outer: for piece in soup.chunks(chunk) {
            decoder.push(piece);
            loop {
                match decoder.next_frame() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(WireError::VarintOverflow) | Err(WireError::FrameTooLarge { .. }) => {
                        break 'outer
                    }
                    Err(e) => panic!("unexpected error {e:?}"),
                }
            }
        }
    });
}

#[test]
fn framed_typed_messages_roundtrip() {
    cases(256, |_, rng| {
        // The typed `Framed<M>` wrapper is byte-identical to the raw frame
        // format: header + inner encoding, nothing else.
        let stream = word(rng);
        let msg = Msg::ElemB {
            site: SiteId::new(rng.below(1 << 20) as u32),
            value: word(rng) >> 3,
        };
        let framed = Framed::new(stream, msg);
        let bytes = framed.to_bytes();
        assert_eq!(bytes.len(), framed.encoded_len());

        let mut raw = bytes.clone();
        let frame = wire::get_frame(&mut raw).unwrap();
        assert_eq!(frame.stream, stream);
        assert_eq!(frame.payload.len(), framed.msg.encoded_len());

        let mut buf = bytes;
        let decoded = Framed::<Msg>::decode(&mut buf).unwrap();
        assert_eq!(decoded.stream, framed.stream);
        assert_eq!(decoded.msg, framed.msg);
        assert!(buf.is_empty());
    });
}
