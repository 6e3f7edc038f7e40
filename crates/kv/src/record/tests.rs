use super::*;
use crate::tests::s;
use bytes::BytesMut;
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

#[test]
fn a_record_reads_back_the_state_it_was_built_from() {
    let mut rng = SplitMix64::new(0x0005_EED0_F2EC_02D5);
    let (mut spilled, mut tombstones) = (0, 0);
    // Every record written behind the one before it, as a page holds
    // them, and where each ends.
    let (mut page, mut ends) = (Vec::new(), Vec::new());
    for case in 0..2000 {
        let (key, meta, value) = random_state(&mut rng);
        let mut buf = Vec::new();
        Record::write(&mut buf, &key, &meta, value.as_deref());
        let (record, rest) = Record::split_first(&buf);
        assert!(rest.is_empty(), "case {case}");
        let len = Record::encoded_len(&key, &meta, value.as_deref());
        assert_eq!(buf.len(), len, "case {case}");
        let snapshot = meta.encode_snapshot();
        let view = View {
            meta: &snapshot,
            value: value.as_deref(),
        };
        assert_eq!(record.entry(), (key.as_str(), view), "case {case}");
        assert_eq!(record.key_bytes(), key.as_bytes(), "case {case}");
        // `==` on a vector is structural: `≺` order, values, both bits.
        assert_eq!(record.view().srv(), meta, "case {case}");
        // The block is the stored layout and nothing else.
        let mut image = BytesMut::new();
        wire::put_bytes(&mut image, key.as_bytes());
        wire::put_bytes(&mut image, &snapshot);
        match &value {
            Some(v) => {
                image.put_u8(1);
                wire::put_bytes(&mut image, v);
            }
            None => image.put_u8(0),
        }
        assert_eq!(record.bytes(), &image[..], "case {case}");
        assert_eq!(record.split().1, &image[wire::bytes_len(key.len())..]);
        assert_eq!(
            entry_hash(record),
            entry_hash_by_the_vector(&key, &meta, value.as_deref()),
            "case {case}"
        );
        spilled += usize::from(meta.len() > INLINE_SITES);
        tombstones += usize::from(value.is_none());
        // Written where it is to live, behind another record, it is the
        // same bytes.
        Record::write(&mut page, &key, &meta, value.as_deref());
        assert_eq!(&page[page.len() - len..], &buf[..], "case {case}");
        ends.push(page.len());
    }
    assert!(spilled > 100 && tombstones > 100, "{spilled} {tombstones}");
    // Records back to back split apart where each was written to end.
    let mut rest = &page[..];
    for (case, end) in ends.into_iter().enumerate() {
        rest = Record::split_first(rest).1;
        assert_eq!(page.len() - rest.len(), end, "case {case}");
    }
    assert!(rest.is_empty());
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
        let mut buf = Vec::new();
        Record::write(&mut buf, &key, &meta, value.as_deref());
        let (record, _) = Record::split_first(&buf);
        assert_eq!(
            entry_hash(record),
            entry_hash_by_the_vector(&key, &meta, value.as_deref())
        );
    });
    assert!(short > 1000 && long > 500, "{short} {long}");
}
