use super::*;
use crate::shard::{Cursor, Records};
use crate::tests::s;
use optrep_core::rng::SplitMix64;

/// The reference for [`entry_hash`]: the same fields built from the
/// decoded vector, its pairs collected on the heap and sorted, laid out
/// as words — each byte field behind its length, its last word
/// zero-padded — folded one by one and finalized.
fn entry_hash_by_the_vector(key: &str, meta: &Srv, value: Option<&[u8]>) -> u64 {
    let mut pairs: Vec<(u32, u64)> = (meta.as_core().iter())
        .filter(|e| e.value > 0)
        .map(|e| (e.site.index(), e.value))
        .collect();
    pairs.sort_unstable_by_key(|&(site, _)| site);
    fold_words(&entry_words(key.as_bytes(), value, &pairs))
}

/// An entry's fields as the words [`entry_hash`] folds.
fn entry_words(key: &[u8], value: Option<&[u8]>, pairs: &[(u32, u64)]) -> Vec<u64> {
    let mut words = Vec::new();
    let field = |words: &mut Vec<u64>, bytes: &[u8]| {
        words.push(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            words.push(u64::from_le_bytes(word));
        }
    };
    field(&mut words, key);
    match value {
        Some(v) => {
            words.push(1);
            field(&mut words, v);
        }
        None => words.push(0),
    }
    words.push(pairs.len() as u64);
    for &(site, count) in pairs {
        words.extend([u64::from(site), count]);
    }
    words
}

/// `words` folded one by one from the basis, and finalized.
fn fold_words(words: &[u64]) -> u64 {
    finalize(
        words
            .iter()
            .fold(FOLD_BASIS, |hash, &word| fold(hash, word)),
    )
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

/// `entry_hash` folds an entry as the words its fields make, written
/// out here by hand: the key behind its length, a value behind a tag of
/// 1 and its length — of 7, 8 and 9 bytes, a last word partly, wholly
/// and barely filled — or a tombstone's tag of 0, then the vector's pair
/// count, site and count. A length keeps `"ab"` and `"ab\0"` apart, as
/// key and as value.
#[test]
fn each_field_folds_as_its_words_behind_its_length() {
    let mut meta = Srv::new();
    meta.record_update(s(3));
    let snapshot = meta.encode_snapshot();
    let hash = |key: &[u8], value: Option<&[u8]>| {
        let view = View {
            meta: &snapshot,
            value,
        };
        entry_hash(key, view)
    };
    let bytes: Vec<u8> = (1..=9).collect();
    let word = 0x0807_0605_0403_0201;
    let ab = 0x6261;
    let vector = [1, 3, 1];
    let cases: [(Option<&[u8]>, &[u64]); 4] = [
        (Some(&bytes[..7]), &[1, 7, 0x0007_0605_0403_0201]),
        (Some(&bytes[..8]), &[1, 8, word]),
        (Some(&bytes[..9]), &[1, 9, word, 9]),
        (None, &[0]),
    ];
    for (value, words) in cases {
        let words = [&[2, ab][..], words, &vector].concat();
        assert_eq!(hash(b"ab", value), fold_words(&words), "{value:?}");
        assert_eq!(words, entry_words(b"ab", value, &[(3, 1)]), "{value:?}");
    }
    assert_ne!(hash(b"ab", None), hash(b"ab\0", None));
    assert_ne!(hash(b"k", Some(b"ab")), hash(b"k", Some(b"ab\0")));
}
