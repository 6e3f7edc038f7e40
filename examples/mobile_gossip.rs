//! A delay-tolerant mobile network: power-constrained devices share a
//! participatory data store through opportunistic pairwise contacts (the
//! paper's DTN motivation, §1).
//!
//! 200 devices relay an incident log. New readings are recorded by the
//! device currently carrying the freshest replica (the "data mule"), so
//! writes are causally serialized and conflicts are rare — the regime
//! optimistic replication assumes. Over time most devices have appended
//! at least once, so the version vector spans many sites; the traditional
//! exchange then ships the whole O(n) vector on every contact, while SRV
//! ships only the few elements that changed.
//!
//! ```text
//! cargo run --example mobile_gossip
//! ```

use optrep::core::rng::SplitMix64;
use optrep::core::{SiteId, Srv, VersionVector};
use optrep::replication::{Cluster, ObjectId, ReplicaMeta, TokenSet, UnionReconciler};

const DEVICES: usize = 200;
const CONTACTS: u32 = 8000;
/// Probability that a contact involving the freshest replica logs a new
/// reading.
const UPDATE_PROB: f64 = 0.6;

fn run_network<M: ReplicaMeta>() -> (optrep::replication::ClusterSnapshot, usize) {
    let mut rng = SplitMix64::new(7);
    let object = ObjectId::new(0);
    let mut cluster: Cluster<M, TokenSet, UnionReconciler> =
        Cluster::new(DEVICES as u32, UnionReconciler);
    cluster
        .site_mut(SiteId::new(0))
        .create_object(object, TokenSet::singleton("incident-log"));

    // The device carrying the freshest replica.
    let mut mule = SiteId::new(0);
    let mut reading = 0u64;
    let mut writers = std::collections::BTreeSet::new();
    writers.insert(mule);
    for _ in 0..CONTACTS {
        // Opportunistic contact between two random devices: both pull.
        // The mule is the most active device (it is ferrying the data),
        // so it shows up in a quarter of all contacts.
        let x = if rng.chance(0.25) {
            mule.index() as usize
        } else {
            rng.below(DEVICES)
        };
        let y = (x + rng.range(1..DEVICES)) % DEVICES;
        let (x, y) = (SiteId::new(x as u32), SiteId::new(y as u32));
        cluster.sync(x, y, object).expect("contact sync");
        cluster.sync(y, x, object).expect("contact sync");

        // If the mule is part of this contact, both parties now hold the
        // freshest replica; one of them may log the next reading and
        // becomes the new mule. Writes are thus causally serialized —
        // conflicts stay rare, as §1 assumes.
        if (mule == x || mule == y) && rng.chance(UPDATE_PROB) {
            let dev = if rng.chance(0.5) { x } else { y };
            reading += 1;
            let entry = format!("{dev}:reading{reading}");
            cluster.site_mut(dev).update(object, |p| {
                p.insert(entry);
            });
            mule = dev;
            writers.insert(dev);
        }
    }
    (cluster.stats(), writers.len())
}

fn main() {
    println!("mobile DTN store: {DEVICES} devices, {CONTACTS} opportunistic contacts\n");
    let (srv, writers) = run_network::<Srv>();
    let (full, _) = run_network::<VersionVector>();

    println!("distinct writer devices (vector size n grows to this): {writers}\n");
    println!("scheme  meta bytes   elements sent  reconciles  fast-forwards");
    println!(
        "SRV     {:<11}  {:<13}  {:<10}  {}",
        srv.meta_bytes + srv.compare_bytes,
        srv.meta_elements,
        srv.reconciliations,
        srv.fast_forwards
    );
    println!(
        "FULL    {:<11}  {:<13}  {:<10}  {}",
        full.meta_bytes + full.compare_bytes,
        full.meta_elements,
        full.reconciliations,
        full.fast_forwards
    );
    let srv_total = srv.meta_bytes + srv.compare_bytes;
    let full_total = full.meta_bytes + full.compare_bytes;
    println!(
        "\nconcurrency-control radio traffic: SRV {srv_total} B vs FULL {full_total} B — {:.1}× less",
        full_total as f64 / srv_total as f64
    );
    println!("(FULL ships the whole {writers}-element vector on every contact; SRV ships |Δ|+1)");
    assert!(
        srv_total * 2 < full_total,
        "SRV must clearly beat FULL here"
    );
}
