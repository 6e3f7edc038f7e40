//! The replicated key-value store in action: two laptops and a phone
//! sharing a settings store, working offline, syncing opportunistically,
//! and resolving concurrent edits deterministically.
//!
//! ```text
//! cargo run --example kv_store
//! ```

use optrep::core::SiteId;
use optrep::kv::KvStore;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut laptop = KvStore::new(SiteId::new(0));
    let mut phone = KvStore::new(SiteId::new(1));
    let mut tablet = KvStore::new(SiteId::new(2));

    // Work starts on the laptop.
    laptop.put("theme", "dark");
    laptop.put("font-size", "14");
    laptop.put("scratch", "temp note");

    // The phone pulls everything on first sync: its shards are empty, so
    // each one the laptop has filled arrives whole, in the planner's turn.
    let report = phone.sync(&laptop).run()?;
    println!(
        "phone first sync: {} keys created, {} shards sent whole, {} planner bytes",
        report.keys_created, report.shards_snapshot, report.digest_bytes
    );

    // Offline edits: both devices change the theme (a genuine conflict),
    // the laptop also deletes a key and bumps the font size.
    laptop.delete("scratch");
    laptop.put("font-size", "16");
    laptop.put("theme", "solarized");
    phone.put("theme", "light");

    // Opportunistic sync both ways.
    let report = phone.sync(&laptop).run()?;
    println!(
        "phone ⇐ laptop: {} fast-forwarded, {} reconciled, {} unchanged",
        report.keys_fast_forwarded, report.keys_reconciled, report.keys_unchanged
    );
    let report = laptop.sync(&phone).run()?;
    println!(
        "laptop ⇐ phone: {} fast-forwarded, {} reconciled, {} unchanged",
        report.keys_fast_forwarded, report.keys_reconciled, report.keys_unchanged
    );
    assert!(laptop.consistent_with(&phone));

    // A tablet joins later and catches up in one pull.
    tablet.sync(&laptop).run()?;
    assert!(tablet.consistent_with(&laptop));

    println!("\nconverged settings:");
    for key in tablet.keys() {
        println!(
            "  {key} = {}",
            String::from_utf8_lossy(tablet.get(&key).expect("live key"))
        );
    }
    println!("(scratch was deleted; its tombstone is tracked for replication)");
    assert_eq!(tablet.get("scratch"), None);

    // Durable snapshot round-trip: what a restart would load.
    let mut snapshot = tablet.encode_snapshot();
    let restored = KvStore::decode_snapshot(&mut snapshot)?;
    assert!(restored.consistent_with(&tablet));
    println!(
        "\nsnapshot round-trip OK ({} tracked entries)",
        restored.tracked_entries()
    );
    Ok(())
}
