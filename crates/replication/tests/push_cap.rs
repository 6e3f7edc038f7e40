//! A push never makes a frame a puller's decoder refuses. Given more
//! changed values in the shards it would propose than one frame holds,
//! a source pushes the shards that fit and walks the rest, over
//! loopback, where every frame crosses a `FrameDecoder`.

use optrep_core::wire::{self, DEFAULT_MAX_FRAME};
use optrep_core::{Result, SiteId};
use optrep_kv::{JoinResolver, KvStore};
use optrep_net::{ConnectOptions, FrameLink, TcpLink};
use optrep_replication::mux::{pull_planned, serve_from, ContactAsk, ContactReport, Serving};
use optrep_replication::planner::VectorMemory;

const KEYS: usize = 2_100;
const VALUE: usize = 8 * 1024;
const SHARDS: usize = 16;

/// A link that checks every frame it writes against the cap a decoder
/// holds a frame to, and keeps the largest.
struct Capped {
    link: TcpLink,
    largest: usize,
}

impl FrameLink for Capped {
    fn send_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        let mut rest = bytes;
        while !rest.is_empty() {
            let _stream = wire::get_varint(&mut rest)?;
            let len = wire::get_varint(&mut rest)? as usize;
            assert!(len <= DEFAULT_MAX_FRAME, "a frame of {len} B");
            self.largest = self.largest.max(len);
            rest = &rest[len..];
        }
        self.link.send_bytes(bytes)
    }

    fn recv_frame(&mut self) -> Result<wire::Frame> {
        self.link.recv_frame()
    }

    fn fin(&mut self) {
        self.link.fin();
    }
}

/// One planned pull of `dst` over `link`, committed, the memory settled.
fn pull(dst: &mut KvStore, link: &mut TcpLink, remembered: &mut VectorMemory) -> ContactReport {
    let (digests, digested_at) = (dst.shard_digest_vector(), dst.generation());
    let pulled = pull_planned(link, remembered, &digests, |plan, push| {
        dst.client_endpoint_refined(plan, push, digested_at)
    });
    let (client, plan, report) = pulled.expect("a pull");
    let committed = dst.apply_planned(&JoinResolver, client, &report, &plan);
    remembered.settle(&committed.expect("a commit").landed);
    report
}

/// 2 100 keys of 8 KiB, every one rewritten since the connection's last
/// contact: 17 MiB of changed values in shards the source would propose.
/// The push takes the shards that fit in one frame; the others are
/// walked, each of their keys in a stream of its own; no frame the source
/// writes is over the cap, and one pull leaves the two replicas equal.
#[test]
fn a_push_past_a_frame_walks_the_shards_that_do_not_fit() {
    let mut src = KvStore::with_shards(SiteId::new(1), SHARDS);
    for i in 0..KEYS {
        src.put(format!("key-{i:04}"), vec![b'a'; VALUE]);
    }
    let mut dst = KvStore::with_shards(SiteId::new(0), SHARDS);
    dst.sync(&src).run().expect("the puller joins");

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let opts = ConnectOptions::new();
    let serving = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let link = TcpLink::from_stream(stream, &ConnectOptions::new()).expect("a link");
        let mut far = Capped { link, largest: 0 };
        let mut serving = Serving::default();
        let mut serve = |src: &KvStore, far: &mut Capped| {
            let mut source = |ask: ContactAsk<'_>| src.open_contact(ask);
            serve_from(&mut serving, &mut source, far).expect("serve");
        };
        serve(&src, &mut far);
        for i in 0..KEYS {
            src.put(format!("key-{i:04}"), vec![b'b'; VALUE]);
        }
        serve(&src, &mut far);
        (src.replica_digest(), far.largest)
    });
    let mut link = TcpLink::connect(addr, &opts).expect("dial");
    let mut remembered = VectorMemory::default();
    pull(&mut dst, &mut link, &mut remembered);
    let report = pull(&mut dst, &mut link, &mut remembered);
    link.fin();
    let (digest, largest) = serving.join().expect("the source");

    eprintln!("largest frame {largest} B; {report:?}");
    assert!(largest <= DEFAULT_MAX_FRAME);
    assert!(largest > DEFAULT_MAX_FRAME / 2, "the push fills a frame");
    // Every shard is dirty; those the push holds are proposed, the rest
    // walked.
    assert_eq!(report.shards_incremental, SHARDS as u64);
    assert!(
        (1..SHARDS as u64).contains(&report.shards_proposed),
        "{report:?}"
    );
    assert_eq!(dst.replica_digest(), digest);
}
