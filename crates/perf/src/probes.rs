//! Single-layer probes of the traced run: each times one public call in
//! isolation, against benchmark-owned inputs, after the measured phase.
//! They say what a layer costs by itself; the mirror spans say what it
//! costs inside a pull.

use crate::cluster::{connect_options, Scratch};
use crate::estimator::median;
use crate::rng::{value_for, Rng};
use bytes::{Bytes, BytesMut};
use optrep_core::wire::{self, FrameDecoder};
use optrep_core::{Result, RotatingVector, SiteId, Srv};
use optrep_kv::KvStore;
use optrep_net::TcpLink;
use optrep_server::{Client, DurabilityConfig, FsyncPolicy, Persist};
use std::hint::black_box;
use std::net::{SocketAddr, TcpListener};
use std::time::Instant;

/// A probe's value and the samples behind it.
pub type Probe = (f64, usize);

/// How much each probe does; `smoke` shrinks it about 100×.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub frames: usize,
    pub pings: usize,
    pub bulk_frames: usize,
    pub dials: usize,
    pub replay_records: usize,
    pub appends: usize,
    pub repeats: usize,
}

impl Scale {
    pub fn new(smoke: bool) -> Scale {
        if smoke {
            Scale {
                frames: 2_000,
                pings: 100,
                bulk_frames: 16,
                dials: 3,
                replay_records: 500,
                appends: 50,
                repeats: 3,
            }
        } else {
            Scale {
                frames: 200_000,
                pings: 4_000,
                bulk_frames: 1_024,
                dials: 20,
                replay_records: 50_000,
                appends: 2_000,
                repeats: 5,
            }
        }
    }
}

fn mb_per_s(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds.max(1e-9)
}

/// `wire::put_frame` then `FrameDecoder` over 64-byte frames, fed in
/// 8 KiB reads as a socket would: MB/s of framed bytes through both.
pub fn frame_codec(scale: Scale) -> Probe {
    let payload = [0xa5u8; 64];
    let rates: Vec<f64> = (0..scale.repeats)
        .map(|_| {
            let started = Instant::now();
            let mut encoded = BytesMut::new();
            for stream in 0..scale.frames as u64 {
                wire::put_frame(&mut encoded, stream % 1024, &payload);
            }
            let mut decoder = FrameDecoder::new();
            let mut frames = 0usize;
            for chunk in encoded.chunks(8 * 1024) {
                decoder.push(chunk);
                while let Ok(Some(frame)) = decoder.next_frame() {
                    black_box(&frame);
                    frames += 1;
                }
            }
            assert_eq!(frames, scale.frames, "every frame decodes");
            mb_per_s(encoded.len(), started.elapsed().as_secs_f64())
        })
        .collect();
    (median(&rates), scale.frames)
}

/// The O(1) `COMPARE` of two skip rotating vectors, per call.
pub fn srv_compare(scale: Scale) -> Probe {
    let mut older = Srv::new();
    for site in 0..4 {
        older.record_update(SiteId::new(site));
    }
    let mut newer = older.clone();
    newer.record_update(SiteId::new(1));
    let mut concurrent = older.clone();
    concurrent.record_update(SiteId::new(2));
    const BATCH: usize = 1_000;
    let batches = (scale.frames / BATCH).max(10);
    let per_call: Vec<f64> = (0..batches)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..BATCH {
                black_box(black_box(&older).compare(black_box(&newer)));
                black_box(black_box(&newer).compare(black_box(&concurrent)));
            }
            started.elapsed().as_nanos() as f64 / (2 * BATCH) as f64
        })
        .collect();
    (median(&per_call), batches * 2 * BATCH)
}

/// A benchmark-owned echo peer on loopback: answers every frame on
/// stream 1 with the same payload, and every frame on stream 2 (bulk)
/// with nothing until a zero-length frame asks for one acknowledgement.
fn with_echo_peer<R>(f: impl FnOnce(&mut TcpLink) -> Result<R>) -> Result<R> {
    let listener = TcpListener::bind(SocketAddr::from(([127, 0, 0, 1], 0)))
        .expect("loopback binds an ephemeral port");
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> Result<()> {
            let (stream, _) = listener.accept().expect("the probe connects");
            let mut link = TcpLink::from_stream(stream, &connect_options())?;
            // The probe hangs up when it is done: that ends the loop.
            while let Ok(frame) = link.recv_frame() {
                if frame.stream == 1 || frame.payload.is_empty() {
                    link.send_frame(frame.stream, &frame.payload)?;
                }
            }
            Ok(())
        });
        let out = TcpLink::connect(addr, &connect_options()).and_then(|mut link| {
            let out = f(&mut link);
            link.fin();
            out
        });
        echo.join().expect("echo thread does not panic")?;
        out
    })
}

/// One 64-byte frame there and back over `TcpLink`: the floor under any
/// client verb.
///
/// # Errors
///
/// Socket trouble on loopback.
pub fn frame_rtt(scale: Scale) -> Result<Probe> {
    with_echo_peer(|link| {
        let payload = [7u8; 64];
        let mut rtts = Vec::with_capacity(scale.pings);
        for _ in 0..scale.pings {
            let started = Instant::now();
            link.send_frame(1, &payload)?;
            black_box(link.recv_frame()?);
            rtts.push(started.elapsed().as_nanos() as f64 / 1e3);
        }
        Ok((median(&rtts), rtts.len()))
    })
}

/// 64 KiB frames one way over `TcpLink`, acknowledged once at the end.
///
/// # Errors
///
/// Socket trouble on loopback.
pub fn tcp_bulk(scale: Scale) -> Result<Probe> {
    with_echo_peer(|link| {
        let payload = vec![0x5au8; 64 * 1024];
        let started = Instant::now();
        for _ in 0..scale.bulk_frames {
            link.send_frame(2, &payload)?;
        }
        link.send_frame(2, &[])?;
        black_box(link.recv_frame()?);
        let rate = mb_per_s(
            scale.bulk_frames * payload.len(),
            started.elapsed().as_secs_f64(),
        );
        Ok((rate, scale.bulk_frames))
    })
}

/// Connect, handshake and first answered verb against a running daemon.
///
/// # Errors
///
/// The daemon refuses or does not answer.
pub fn dial(addr: SocketAddr, scale: Scale) -> Result<Probe> {
    let mut times = Vec::with_capacity(scale.dials);
    for _ in 0..scale.dials {
        let started = Instant::now();
        let mut client = Client::connect(addr, &connect_options())?;
        black_box(client.digest()?);
        times.push(started.elapsed().as_secs_f64() * 1e3);
    }
    Ok((median(&times), times.len()))
}

/// `encode_snapshot` and `decode_snapshot` of `store`, MB/s of image.
pub fn snapshot_codec(store: &KvStore, scale: Scale) -> (Probe, Probe) {
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    for _ in 0..scale.repeats {
        let started = Instant::now();
        let image = store.encode_snapshot();
        encode.push(mb_per_s(image.len(), started.elapsed().as_secs_f64()));
        let mut buf: Bytes = image.clone();
        let started = Instant::now();
        let rebuilt = KvStore::decode_snapshot(&mut buf).expect("own image decodes");
        decode.push(mb_per_s(image.len(), started.elapsed().as_secs_f64()));
        black_box(rebuilt);
    }
    (
        (median(&encode), encode.len()),
        (median(&decode), decode.len()),
    )
}

/// `Persist::open` on a fixed log of single-key records, no checkpoint:
/// thousands of records replayed per second. This is recovery after a
/// crash, not the clean restart `restart_ms` measures.
///
/// # Errors
///
/// I/O trouble in the scratch dir.
pub fn wal_replay(scale: Scale) -> Result<Probe> {
    const KEYS: usize = 512;
    let scratch = Scratch::new("replay")?;
    let config = DurabilityConfig::new(scratch.path()).with_fsync(FsyncPolicy::Never);
    let site = SiteId::new(0);
    let mut store = KvStore::with_shards(site, crate::spec::SHARDS);
    let mut rng = Rng::new(0x5eed);
    {
        let (mut persist, _, _) = Persist::open(&config, site)?;
        for record in 0..scale.replay_records {
            let index = rng.below(KEYS);
            let key = format!("r{index:04}");
            store.put(key.clone(), value_for(0, index, record as u32, 32));
            let entry = store.encode_entry(&key).expect("just written");
            persist
                .append(&[(key, entry)])
                .expect("scratch log takes appends");
        }
    }
    let started = Instant::now();
    let (_, replayed, report) = Persist::open(&config, site)?;
    let seconds = started.elapsed().as_secs_f64();
    assert_eq!(
        (report.wal_records_applied, replayed.replica_digest()),
        (scale.replay_records as u64, store.replica_digest()),
        "replay rebuilds the logged store"
    );
    Ok((
        scale.replay_records as f64 / 1e3 / seconds.max(1e-9),
        scale.replay_records,
    ))
}

/// The host's speed, separate from the program's: a fixed hash kernel of
/// about 20 ms, timed once per block. Returns milliseconds.
pub fn calibrate() -> f64 {
    const STEPS: u64 = 12_000_000;
    let started = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..STEPS {
        x = (x ^ i).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23);
    }
    black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}
