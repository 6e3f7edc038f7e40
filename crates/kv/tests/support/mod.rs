//! The unplanned pull, the reference a planned pull is checked against:
//! every tracked key of both stores a stream, no digest turn — built from
//! the calls `crates/perf`'s mirror makes. The one copy: the kv crate's
//! unit and integration tests, `optrep-replication`'s `contact_paths` and
//! E15 include this file (`#[path]` where it is not a sibling), each
//! bringing `JoinResolver`, `KvStore` and `KvSyncReport` into scope.

use super::{JoinResolver, KvStore, KvSyncReport};
use optrep_replication::mux::{run_contact, ContactAnswer, ContactAsk};
use optrep_replication::planner::{Cut, ShardPlan};

/// Pulls `src` into `dst` unplanned and commits it.
pub fn unplanned_pull(dst: &mut KvStore, src: &KvStore) -> KvSyncReport {
    let mut client = dst.client_endpoint_for(&[0], 1);
    let every_key = Cut {
        count: 1,
        walked: &[0],
        offer: None,
        scope: None,
    };
    let ContactAnswer::Endpoint(mut server, _) = src.open_contact(ContactAsk::Endpoint(every_key))
    else {
        unreachable!("an endpoint is answered with an endpoint")
    };
    let contact = run_contact(&mut client, &mut server).expect("unplanned contact");
    let unplanned = ShardPlan::default();
    let applied = dst.apply_planned_tracked(&JoinResolver, client, &contact, &unplanned);
    applied.expect("unplanned commit").0
}
