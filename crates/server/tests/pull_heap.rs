//! The heap a warm puller holds while it takes a push, counted across
//! the whole process.
//!
//! A store of 20 000 keys of 256 B at 512 shards pulls over a warm
//! connection from a source that has rewritten 3 072 of them since the
//! connection's last contact: every dirty shard is proposed, so the
//! contact is the planning turn alone, the plan and the push behind it.
//! The source's turn is recorded first, against a copy of the puller;
//! what is counted is the puller alone, as a daemon pulls — its frames
//! read a 64 KiB chunk at a time, as a socket delivers them, the push
//! read into its client, the commit and its log record. It bounds what
//! the pull peaks at by what it keeps, the push frame held once and what
//! each pushed key's outcome holds until the commit. It prints what it
//! measured (`--nocapture`). It is its own test binary so the allocator
//! touches nothing else.

use bytes::{Bytes, BytesMut};
use optrep_core::hostile::{in_process, Counting};
use optrep_core::wire::{self, FrameDecoder};
use optrep_core::{Result, SiteId};
use optrep_kv::{Committed, JoinResolver, KvStore};
use optrep_net::FrameLink;
use optrep_replication::mux::{
    pull_planned, ContactAsk, ContactReport, InProcessLink, Serving, TURN_STREAM,
};
use optrep_replication::planner::VectorMemory;
use optrep_server::{DurabilityConfig, FsyncPolicy, Persist};
use std::path::PathBuf;

#[global_allocator]
static COUNTING: Counting = Counting;

const KEYS: usize = 20_000;
const VALUE: usize = 256;
const SHARDS: usize = 512;
const PUTS: usize = 3_072;
/// What a pushed key's outcome holds from the read of the push to the
/// commit: its result (168 B on a 64-bit target), validated in place,
/// and its name and vector on the heap.
const PER_KEY: usize = 320;
/// What the pull holds at its peak besides the push, what it keeps and
/// what its keys' outcomes hold: a read chunk, the digest vector and the
/// plan, the commit's runs and a log record's buffer.
const SLACK: usize = 256 * 1024;

/// The server's half of a contact, replayed whatever the puller says:
/// its writes, read a chunk at a time into a frame decoder, as a socket
/// hands them over.
struct Replayed {
    script: Bytes,
    decoder: FrameDecoder,
}

impl FrameLink for Replayed {
    fn send_bytes(&mut self, _bytes: &[u8]) -> Result<()> {
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<wire::Frame> {
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                return Ok(frame);
            }
            let chunk = self.script.split_to(self.script.len().min(64 * 1024));
            self.decoder.push(&chunk);
        }
    }

    fn fin(&mut self) {}
}

/// An in-process link that keeps what its far end wrote.
struct Recording<'a> {
    link: InProcessLink<'a>,
    script: BytesMut,
}

impl FrameLink for Recording<'_> {
    fn send_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        self.link.send_bytes(bytes)
    }

    fn recv_frame(&mut self) -> Result<wire::Frame> {
        let frame = self.link.recv_frame()?;
        wire::put_frame(&mut self.script, frame.stream, &frame.payload);
        Ok(frame)
    }

    fn fin(&mut self) {}
}

/// A daemon's pull of `dst` over `link`, short of its log record: the
/// planned pull, the commit, the memory settled.
fn pull(
    dst: &mut KvStore,
    link: &mut impl FrameLink,
    remembered: &mut VectorMemory,
) -> (Committed, ContactReport) {
    let (digests, digested_at) = (dst.shard_digest_vector(), dst.generation());
    let pulled = pull_planned(link, remembered, &digests, |plan, push| {
        dst.client_endpoint_refined(plan, push, digested_at)
    });
    let (client, plan, report) = pulled.expect("a pull");
    let committed = dst.apply_planned(&JoinResolver, client, &report, &plan);
    let committed = committed.expect("a commit");
    remembered.settle(&committed.landed);
    (committed, report)
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("optrep-pull-heap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A warm pull holds the push frame once — the frame decoder's buffer,
/// which the push is read from, each value a slice of it — and, for
/// each key, its outcome until the commit: no per-key stream, no copy of
/// a pushed value, no frame a key.
#[test]
fn a_warm_pull_holds_its_push_once() {
    let (source_site, sink_site) = (SiteId::new(1), SiteId::new(2));
    let mut src = KvStore::with_shards(source_site, SHARDS);
    for i in 0..KEYS {
        src.put(format!("k{i:07}"), vec![b'v'; VALUE]);
    }
    let mut dst = KvStore::with_shards(sink_site, SHARDS);
    dst.sync(&src).run().expect("the sink joins");
    let (mut serving, mut remembered) = (Serving::default(), VectorMemory::default());
    // The connection's first contact, which leaves both ends warm.
    {
        let mut source = |ask: ContactAsk<'_>| src.open_contact(ask);
        let mut link = InProcessLink::serving(&mut serving, &mut source);
        pull(&mut dst, &mut link, &mut remembered);
    }
    for i in (0..KEYS).step_by(KEYS / PUTS).take(PUTS) {
        src.put(format!("k{i:07}"), vec![b'w'; VALUE]);
    }
    // The source's turn, recorded against a copy of the puller.
    let script = {
        let mut source = |ask: ContactAsk<'_>| src.open_contact(ask);
        let mut link = Recording {
            link: InProcessLink::serving(&mut serving, &mut source),
            script: BytesMut::new(),
        };
        let (mut copy, mut memory) = (dst.clone(), remembered.clone());
        let (_, report) = pull(&mut copy, &mut link, &mut memory);
        assert_eq!(report.shards_proposed, report.shards_incremental);
        link.script.freeze()
    };
    // The push: every byte of the turn between the plan and the marker.
    let push = {
        let mut turn = script.clone();
        let _plan = wire::get_frame(&mut turn).expect("the plan");
        let behind = turn.len();
        while wire::get_frame(&mut turn).expect("a frame").stream != TURN_STREAM {}
        behind - turn.len() - wire::Frame::encoded_len(TURN_STREAM, 0)
    };
    let dir = tmpdir();
    let config = DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Never);
    let (mut persist, _, _) = Persist::open(&config, sink_site).unwrap();
    persist.append(&[]).unwrap();

    let mut link = Replayed {
        script,
        decoder: FrameDecoder::new(),
    };
    let ((synced, report), pulled) = in_process(|| {
        let (committed, report) = pull(&mut dst, &mut link, &mut remembered);
        persist.append_entries(committed.entries(&dst)).unwrap();
        (committed.report, report)
    });
    assert_eq!(synced.keys_fast_forwarded, PUTS);
    assert_eq!(report.shards_proposed, report.shards_incremental);
    assert_eq!(dst.replica_digest(), src.replica_digest());

    let kept = usize::try_from(pulled.kept).unwrap_or(0);
    let bound = kept + push + PUTS * PER_KEY + SLACK;
    eprintln!("a warm pull of {PUTS} of {KEYS} keys x {VALUE} B at {SHARDS} shards");
    eprintln!("what                                 B        bound B");
    eprintln!("  the push frame             {push:>11}");
    eprintln!("  the pull keeps             {kept:>11}");
    eprintln!(
        "  the pull's peak            {:>11}  {bound:>11}",
        pulled.peak
    );
    assert!(
        pulled.peak <= bound,
        "a warm pull peaked at {} B beside {kept} B kept and a {push} B push",
        pulled.peak
    );
    drop(persist);
    std::fs::remove_dir_all(&dir).unwrap();
}
