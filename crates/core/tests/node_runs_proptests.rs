//! `NodeRuns::from_bitset` — the word-level walk behind
//! `FragmentEngine::to_global` — against the per-id map it replaced:
//! for any fragment member list (stretches of consecutive global ids with
//! jumps between them, as a grid fragment's rows give) and any local set,
//! the runs expand to exactly `cov.iter().map(|i| globals[i])`, no two of
//! them touch, and `len()` is the set's size. Runs in the release lane too:
//! the walk is shifts and masks across word boundaries.

use proptest::prelude::*;

use disks_core::bitset::BitSet;
use disks_core::NodeRuns;
use disks_roadnet::NodeId;

/// A member list from `(jump, stretch)` pairs: each stretch of consecutive
/// ids starts `jump` ids after the previous one ended (0: the two are one).
fn members(first: u32, rows: &[(u32, u32)]) -> Vec<NodeId> {
    let mut globals = Vec::new();
    let mut next = first;
    for &(jump, stretch) in rows {
        next += jump;
        globals.extend((next..next + stretch).map(NodeId));
        next += stretch;
    }
    globals
}

fn set_of(capacity: usize, bits: impl IntoIterator<Item = usize>) -> BitSet {
    let mut set = BitSet::new(capacity);
    for i in bits {
        set.insert(i);
    }
    set
}

/// The three properties, for one fragment and one local set.
fn check(globals: &[NodeId], cov: &BitSet) -> NodeRuns {
    let breaks = NodeRuns::breaks(globals);
    let runs = NodeRuns::from_bitset(cov, globals, &breaks);
    let per_id: Vec<NodeId> = cov.iter().map(|i| globals[i]).collect();
    assert_eq!(runs.to_vec(), per_id);
    assert_eq!(runs.len(), cov.count());
    assert!(
        runs.runs().windows(2).all(|w| u64::from(w[1].0) > u64::from(w[0].0) + u64::from(w[0].1)),
        "two runs touch: {:?}",
        runs.runs()
    );
    assert!(runs.runs().iter().all(|&(_, len)| len >= 1));
    runs
}

#[test]
fn word_boundaries_breaks_and_edges() {
    // 200 members, no break but the first: local i is global 1000 + i.
    let plain = members(1000, &[(0, 200)]);
    let on = |bits: Vec<usize>| set_of(200, bits);
    assert_eq!(check(&plain, &on(vec![])).runs(), []);
    assert_eq!(check(&plain, &on((0..200).collect())).runs(), [(1000, 200)]);
    // Bits 63 and 64 are neighbours in different words: one run.
    assert_eq!(check(&plain, &on(vec![63, 64])).runs(), [(1063, 2)]);
    assert_eq!(check(&plain, &on(vec![63])).runs(), [(1063, 1)]);
    assert_eq!(check(&plain, &on(vec![64])).runs(), [(1064, 1)]);
    // One run across three words, starting and ending mid-word.
    assert_eq!(check(&plain, &on((60..=190).collect())).runs(), [(1060, 131)]);
    // Exactly one full word, then the word after it as well.
    assert_eq!(check(&plain, &on((64..128).collect())).runs(), [(1064, 64)]);
    assert_eq!(check(&plain, &on((64..192).collect())).runs(), [(1064, 128)]);
    // The last, partial word (200 = 3 × 64 + 8), alone and reached from below.
    assert_eq!(check(&plain, &on((192..200).collect())).runs(), [(1192, 8)]);
    assert_eq!(check(&plain, &on((191..200).collect())).runs(), [(1191, 9)]);
    assert_eq!(check(&plain, &on(vec![0, 199])).runs(), [(1000, 1), (1199, 1)]);

    // Breaks at a word's first bit (local 64), at a word's last bit (local
    // 127) and mid-word (local 150): 64 + 63 + 23 + 50 members.
    let rows = members(0, &[(0, 64), (36, 63), (1, 23), (500, 50)]);
    assert_eq!(NodeRuns::breaks(&rows).iter().collect::<Vec<_>>(), [0, 64, 127, 150]);
    let on = |bits: Vec<usize>| set_of(200, bits);
    // The full set is one run a stretch.
    assert_eq!(
        check(&rows, &on((0..200).collect())).runs(),
        [(0, 64), (100, 63), (164, 23), (687, 50)]
    );
    // 63 and 64 are neighbours locally, 36 ids apart globally.
    assert_eq!(check(&rows, &on(vec![63, 64])).runs(), [(63, 1), (100, 1)]);
    // A local run over every break, from mid-word to mid-word.
    assert_eq!(
        check(&rows, &on((10..=160).collect())).runs(),
        [(10, 54), (100, 63), (164, 23), (687, 11)]
    );
    // 126 | 127 | 128: the break at a word's last bit cuts both sides.
    assert_eq!(check(&rows, &on(vec![126, 127, 128])).runs(), [(162, 1), (164, 2)]);

    // Nothing at all.
    assert_eq!(check(&[], &BitSet::new(0)).runs(), []);
    // The largest id there is.
    let top: Vec<NodeId> = (u32::MAX - 69..=u32::MAX).map(NodeId).collect();
    assert_eq!(check(&top, &set_of(70, 60..70)).runs(), [(u32::MAX - 9, 10)]);
}

/// Deterministic word patterns from a seed — empty, full and pseudo-random
/// words mixed, so runs over whole words and boundary bits come up often —
/// cut to `len` bits.
fn set_from_seed(mut seed: u64, len: usize) -> BitSet {
    let mut set = BitSet::new(len);
    for w in 0..len.div_ceil(64) {
        // splitmix64 step
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let word = match z % 5 {
            0 => 0,
            1 | 2 => u64::MAX,
            // Long runs with a few holes.
            3 => z | z.rotate_left(17) | z.rotate_left(41),
            _ => z,
        };
        for b in (0..64).filter(|b| word >> b & 1 == 1 && w * 64 + b < len) {
            set.insert(w * 64 + b);
        }
    }
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn word_level_runs_equal_the_per_id_map(
        first in prop_oneof![Just(0u32), 0u32..1_000_000],
        // Stretch lengths around a word and around a 70-wide grid row.
        rows in proptest::collection::vec(
            (prop_oneof![Just(0u32), Just(1u32), 1u32..300],
             prop_oneof![1u32..4, 60u32..70, 1u32..200]),
            0..12,
        ),
        seed in any::<u64>(),
        // Mostly a seeded set; now and then the empty and the full one.
        whole in prop_oneof![Just(None), Just(None), Just(None), Just(Some(false)), Just(Some(true))],
    ) {
        let globals = members(first, &rows);
        let cov = match whole {
            Some(true) => set_of(globals.len(), 0..globals.len()),
            Some(false) => BitSet::new(globals.len()),
            None => set_from_seed(seed, globals.len()),
        };
        let runs = check(&globals, &cov);
        // Maximal against the member list too: a run stops only where the
        // next global id is absent from the answer.
        let ids: std::collections::BTreeSet<u32> = runs.to_vec().iter().map(|n| n.0).collect();
        for &(start, len) in runs.runs() {
            prop_assert!(start == 0 || !ids.contains(&(start - 1)));
            prop_assert!(!ids.contains(&(start + len)));
        }
    }
}
