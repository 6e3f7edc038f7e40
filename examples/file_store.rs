//! A replicated file store: many objects (files) spread over a cluster of
//! sites, updated mostly in causal sequence with occasional genuine
//! conflicts — the Coda/Ficus-style scenario of the paper's introduction.
//!
//! 24 sites share five "files". Most edits happen where the freshest copy
//! lives (people edit the newest version they can see); now and then a
//! disconnected site edits a stale copy, producing a real concurrent
//! update that automatic reconciliation merges. The run reports the
//! total concurrency-control traffic under SRV vs the full-vector
//! baseline, and shows the converged content.
//!
//! ```text
//! cargo run --example file_store
//! ```

use optrep::core::rng::SplitMix64;
use optrep::core::{Causality, SiteId, Srv, VersionVector};
use optrep::replication::{
    Cluster, ContactOptions, ContactScheme, ObjectId, TokenSet, UnionReconciler,
};

const SITES: u32 = 24;
const FILES: u64 = 5;
const ROUNDS: u32 = 60;
/// Probability that an edit lands on a random (possibly stale) replica
/// instead of the freshest one — the source of genuine conflicts.
const STALE_EDIT_PROB: f64 = 0.08;

fn run_store<M: ContactScheme<TokenSet> + Send>(
    seed: u64,
) -> Cluster<M, TokenSet, UnionReconciler> {
    let mut rng = SplitMix64::new(seed);
    let mut cluster: Cluster<M, TokenSet, UnionReconciler> = Cluster::new(SITES, UnionReconciler);

    // Each file is created on a different site, which starts as its
    // freshest holder.
    let mut freshest: Vec<SiteId> = Vec::new();
    for f in 0..FILES {
        let origin = SiteId::new((f % u64::from(SITES)) as u32);
        cluster.site_mut(origin).create_object(
            ObjectId::new(f),
            TokenSet::singleton(format!("file{f}:header")),
        );
        freshest.push(origin);
    }

    let mut line = 0u64;
    for round in 0..ROUNDS {
        // A couple of edits per round.
        for _ in 0..2 {
            let f = rng.below(FILES as usize) as u64;
            let file = ObjectId::new(f);
            let site = if rng.chance(STALE_EDIT_PROB) {
                // A disconnected user edits whatever copy they have.
                SiteId::new(rng.below(SITES as usize) as u32)
            } else {
                freshest[f as usize]
            };
            if cluster.site(site).replica(file).is_some() {
                line += 1;
                let text = format!("file{f}:line{line} (by {site}, round {round})");
                cluster.site_mut(site).update(file, |p| {
                    p.insert(text);
                });
                if site == freshest[f as usize] || round == 0 {
                    freshest[f as usize] = site;
                }
            }
        }
        // One gossip round per file, then track where the freshest copy
        // travelled (any site now dominating the old holder).
        for f in 0..FILES {
            let file = ObjectId::new(f);
            cluster
                .round_with(&mut rng, &ContactOptions::direct().with_object(file))
                .expect("gossip");
            // Nightly sweep through the main server: reconciliation
            // results propagate promptly, stopping version-vector churn
            // (each Parker §C increment is itself a concurrent update that
            // would otherwise seed the next round's conflicts).
            if round % 5 == 4 {
                cluster.settle(file).expect("settle");
            }
            let holder = freshest[f as usize];
            let holder_meta = cluster.site(holder).replica(file).map(|r| r.meta.clone());
            if let Some(holder_meta) = holder_meta {
                let candidate = SiteId::new(rng.below(SITES as usize) as u32);
                if let Some(r) = cluster.site(candidate).replica(file) {
                    if matches!(
                        holder_meta.compare(&r.meta),
                        Causality::Before | Causality::Equal
                    ) {
                        freshest[f as usize] = candidate;
                    }
                }
            }
        }
    }
    // Quiesce with a deterministic star sweep (randomized gossip can
    // livelock: each reconciliation's Parker §C increment seeds the next
    // round's conflicts).
    for f in 0..FILES {
        cluster.settle(ObjectId::new(f)).expect("settle");
        assert!(cluster.is_consistent(ObjectId::new(f)));
    }
    cluster
}

fn main() {
    let srv = run_store::<Srv>(2024);
    let full = run_store::<VersionVector>(2024);

    let s = srv.stats();
    let f = full.stats();
    println!("file store: {SITES} sites, {FILES} files, {ROUNDS} edit/gossip rounds\n");
    println!("scheme  sessions  meta+compare bytes  payload bytes  reconciles");
    println!(
        "SRV     {:<8}  {:<18}  {:<13}  {}",
        s.sessions,
        s.meta_bytes + s.compare_bytes,
        s.payload_bytes,
        s.reconciliations
    );
    println!(
        "FULL    {:<8}  {:<18}  {:<13}  {}",
        f.sessions,
        f.meta_bytes + f.compare_bytes,
        f.payload_bytes,
        f.reconciliations
    );
    let (srv_cc, full_cc) = (
        s.meta_bytes + s.compare_bytes,
        f.meta_bytes + f.compare_bytes,
    );
    println!(
        "\nconcurrency-control traffic: SRV {srv_cc} B vs FULL {full_cc} B — {:.2}× less",
        full_cc as f64 / srv_cc as f64
    );
    println!(
        "conflicts were rare ({} reconciliations / {} sessions), as optimistic replication assumes",
        s.reconciliations, s.sessions
    );

    // Show one converged file.
    let file0 = ObjectId::new(0);
    let payload = &srv.site(SiteId::new(0)).replica(file0).unwrap().payload;
    println!(
        "\nfile0 has {} lines on every replica; first lines:",
        payload.len()
    );
    for line in payload.iter().take(4) {
        println!("  {line}");
    }
    for i in 0..SITES {
        if let Some(r) = srv.site(SiteId::new(i)).replica(file0) {
            assert_eq!(&r.payload, payload, "replica {i} diverged");
        }
    }
}
