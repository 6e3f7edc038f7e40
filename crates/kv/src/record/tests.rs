use super::*;
use crate::shard::{Cursor, Records};
use crate::tests::s;
use optrep_core::rng::SplitMix64;
use optrep_replication::planner::placement;

/// The reference for [`entry_hash`]: the same feed built from the
/// decoded vector, its pairs collected on the heap and sorted, hashed
/// byte by byte and finalized.
fn entry_hash_by_the_vector(key: &str, meta: &Srv, value: Option<&[u8]>) -> u64 {
    let mut feed = Vec::new();
    feed.extend_from_slice(&(key.len() as u64).to_le_bytes());
    feed.extend_from_slice(key.as_bytes());
    match value {
        Some(v) => {
            feed.push(1);
            feed.extend_from_slice(&(v.len() as u64).to_le_bytes());
            feed.extend_from_slice(v);
        }
        None => feed.push(0),
    }
    let mut pairs: Vec<(u32, u64)> = (meta.as_core().iter())
        .filter(|e| e.value > 0)
        .map(|e| (e.site.index(), e.value))
        .collect();
    pairs.sort_unstable_by_key(|&(site, _)| site);
    feed.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
    for (site, count) in pairs {
        feed.extend_from_slice(&u64::from(site).to_le_bytes());
        feed.extend_from_slice(&count.to_le_bytes());
    }
    optrep_core::rng::finalize(placement(&feed))
}

/// A seeded entry state covering what moves a length prefix or a
/// branch: 0–12 sites (so both sides of `INLINE_SITES`), zero-valued
/// elements, both bits, every kind of value and key.
fn random_state(rng: &mut SplitMix64) -> (String, Srv, Option<Vec<u8>>) {
    let key = match rng.next_u64() % 8 {
        0 => String::new(),
        1 => "k".repeat(127),
        2 => "k".repeat(128),
        3 => format!("ключ-{}-鍵", rng.next_u64() % 100),
        _ => format!("k{:07}", rng.next_u64() % 10_000_000),
    };
    let mut sites = Vec::new();
    for _ in 0..rng.next_u64() % 13 {
        let site = match rng.next_u64() % 4 {
            0 => u32::MAX - (rng.next_u64() % 4) as u32,
            1 => 128 + (rng.next_u64() % 20_000) as u32,
            _ => (rng.next_u64() % 16) as u32,
        };
        if !sites.contains(&site) {
            sites.push(site);
        }
    }
    let meta = Srv::from_order(sites.into_iter().map(|site| {
        let bits = rng.next_u64();
        optrep_core::order::Element {
            site: s(site),
            value: match bits >> 8 & 3 {
                0 => 0,
                1 => bits >> 16 & 0x1f,
                _ => bits >> 16 & 0xffff_ffff,
            },
            conflict: bits & 1 == 1,
            segment: bits & 2 == 2,
        }
    }));
    let value = match rng.next_u64() % 6 {
        0 => None,
        1 => Some(0),
        2 => Some(1),
        3 => Some(127),
        4 => Some(128),
        _ => Some(20 * 1024),
    };
    let fill = rng.next_u64() as u8;
    (key, meta, value.map(|len| vec![fill; len]))
}

/// A record reads back as it was coded — alone, as a page's first
/// record, its key and vector whole, and behind the record before it,
/// sharing what it can — over seeded states of every shape, a quarter of
/// them taking the vector before theirs, as a write-once key repeats its
/// neighbour's; a walk of the page they make rebuilds every key and
/// state.
#[test]
fn a_record_reads_back_the_state_it_was_built_from() {
    let mut rng = SplitMix64::new(0x0005_EED0_F2EC_02D5);
    let (mut spilled, mut tombstones, mut repeated) = (0, 0, 0);
    // Every record coded behind the one before it, as a page holds them.
    let mut page = Vec::new();
    let mut states: Vec<(String, Vec<u8>, Option<Vec<u8>>)> = Vec::new();
    for case in 0..2000 {
        let (key, meta, value) = random_state(&mut rng);
        let snapshot = match states.last() {
            Some((_, before, _)) if case % 4 == 0 => before.clone(),
            _ => meta.encode_snapshot().to_vec(),
        };
        let meta = Srv::decode_snapshot(&mut &snapshot[..]).unwrap();
        let view = View {
            meta: &snapshot,
            value: value.as_deref(),
        };
        let alone = Coded::of(key.as_bytes(), view, None);
        let mut first = Vec::new();
        alone.write_to(&mut first).unwrap();
        assert_eq!(first.len(), alone.len(), "case {case}");
        let (read, rest) = Coded::split_first(&first);
        assert!(rest.is_empty(), "case {case}");
        assert_eq!(read, alone, "case {case}");
        assert_eq!((read.shared, read.rest), (0, key.as_bytes()), "case {case}");
        assert_eq!(read.vector, Some(&snapshot[..]), "case {case}");
        assert_eq!(read.value, value.as_deref(), "case {case}");
        // `==` on a vector is structural: `≺` order, values, both bits.
        assert_eq!(view.srv(), meta, "case {case}");
        assert_eq!(
            entry_hash(key.as_bytes(), view),
            entry_hash_by_the_vector(&key, &meta, value.as_deref()),
            "case {case}"
        );
        spilled += usize::from(meta.len() > INLINE_SITES);
        tombstones += usize::from(value.is_none());
        // Behind the record before it.
        let before = (states.last()).map(|(key, vector, _)| (key.as_bytes(), &vector[..]));
        let behind = Coded::of(key.as_bytes(), view, before);
        repeated += usize::from(behind.vector.is_none());
        let start = page.len();
        behind.write_to(&mut page).unwrap();
        assert_eq!(page.len() - start, behind.len(), "case {case}");
        assert_eq!(Coded::split_first(&page[start..]), (behind, &[][..]));
        states.push((key, snapshot, value));
    }
    assert!(spilled > 100 && tombstones > 100, "{spilled} {tombstones}");
    assert!(repeated >= 500, "{repeated}");
    let mut walk = Records::of_bytes(&page);
    for (case, (key, snapshot, value)) in states.iter().enumerate() {
        assert!(walk.step(), "case {case}");
        assert_eq!(walk.key(), key.as_bytes(), "case {case}");
        let view = View {
            meta: snapshot,
            value: value.as_deref(),
        };
        assert_eq!(walk.view(), view, "case {case}");
    }
    assert!(!walk.step());
}

/// `entry_hash` folds a short length, count or site in one step where
/// FNV-1a takes eight: seeded states either side of 256 in every field —
/// key and value lengths 0–300, 0–12 sites with sites and counts below
/// and above a byte, tombstones — hash exactly as the byte-wise feed
/// does.
#[test]
fn a_word_folded_in_one_step_hashes_as_its_eight_bytes() {
    let (mut short, mut long) = (0, 0);
    optrep_core::rng::cases(3000, |_, rng| {
        let key: String = (0..rng.below(301))
            .map(|_| char::from(b'a' + rng.below(26) as u8))
            .collect();
        let mut sites = Vec::new();
        for _ in 0..rng.below(13) {
            let site = match rng.chance(0.5) {
                true => rng.below(256) as u32,
                false => 256 + rng.next_u64() as u32 % (u32::MAX - 256),
            };
            if !sites.contains(&site) {
                sites.push(site);
            }
        }
        let meta = Srv::from_order(sites.into_iter().map(|site| {
            let value = match rng.below(3) {
                0 => rng.below(256) as u64,
                1 => 256 + rng.next_u64() % 100_000,
                _ => rng.next_u64() >> 2,
            };
            optrep_core::order::Element {
                site: s(site),
                value,
                conflict: false,
                segment: false,
            }
        }));
        let value = (!rng.chance(0.2)).then(|| vec![rng.next_u64() as u8; rng.below(301)]);
        for len in [key.len(), value.as_ref().map_or(0, Vec::len)] {
            match len < 256 {
                true => short += 1,
                false => long += 1,
            }
        }
        let snapshot = meta.encode_snapshot();
        let view = View {
            meta: &snapshot,
            value: value.as_deref(),
        };
        assert_eq!(
            entry_hash(key.as_bytes(), view),
            entry_hash_by_the_vector(&key, &meta, value.as_deref())
        );
    });
    assert!(short > 1000 && long > 500, "{short} {long}");
}
