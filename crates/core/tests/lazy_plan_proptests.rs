//! Lazy, seed-ordered plan evaluation changes which searches run, never the
//! answer:
//!
//! 1. For random D-functions of every shape, a fragment's lazy result equals
//!    `QueryPlan::combine` over eagerly computed coverages, and the union
//!    over fragments equals `CentralizedCoverage`.
//! 2. What the driver skips is asserted by counters (settled nodes, store
//!    calls, `per_slot` entries), never by time.
//! 3. A ceiling — any superset of the ⋂ of the conjuncts after the last `∪`
//!    — never changes `evaluate_lazy`'s result; an empty one ends the
//!    evaluation before the first fetch; none is asked for while a conjunct
//!    is seedless.
//! 4. A bounded fetch — any set between `R ∩ acc` and `R` for a slot the
//!    program names once, handed the live accumulator `acc` as a ∩ or −
//!    operand — never changes the result either, a slot named twice is
//!    never handed one, and every conjunct the driver says holds `acc`
//!    does.
//! 5. A program of a decoded window, evaluated in place over the window's
//!    shared slot table, is the plan `SuperPlan::split` recovers for it:
//!    the same answer and the same per-slot costs on every fragment.

use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use disks_core::bitset::BitSet;
use disks_core::{
    build_all_indexes, CentralizedCoverage, CoverageStore, DFunction, DTerm, FragmentEngine,
    IndexConfig, NoCache, QueryPlan, ScoreCombine, SetOp, SuperPlan, Targets, Term, TopKQuery,
};
use disks_partition::{MultilevelPartitioner, Partitioner};
use disks_roadnet::codec::{Decode, Encode};
use disks_roadnet::generator::GridNetworkConfig;
use disks_roadnet::{KeywordId, NodeId, RoadNetwork};

/// `maxR` of the bounded indexes under test, in average edge weights.
const MAX_R_EDGES: u64 = 6;

fn engines(net: &RoadNetwork, k: usize, max_r: u64) -> Vec<FragmentEngine> {
    let p = MultilevelPartitioner::default().partition(net, k);
    build_all_indexes(net, &p, &IndexConfig::with_max_r(max_r))
        .iter()
        .map(|index| FragmentEngine::new(net, &p, index).unwrap())
        .collect()
}

/// A `∪`/`∩`/`−` chain of 1–6 operands over a small pool of keyword and
/// object-node terms and four radii in `0..=max_r`, so terms repeat within
/// a function and rare keywords give empty coverages on some fragments.
fn random_dfunction(rng: &mut StdRng, net: &RoadNetwork, max_r: u64) -> DFunction {
    let objects: Vec<NodeId> = net.node_ids().filter(|&n| net.is_object(n)).collect();
    let vocab = net.keyword_frequencies().len() as u32;
    let radii = [0, max_r / 3, max_r / 2, max_r];
    let operand = |rng: &mut StdRng| {
        let term = if rng.gen_bool(0.25) {
            Term::Node(objects[rng.gen_range(0..objects.len().min(4))])
        } else {
            Term::Keyword(KeywordId(rng.gen_range(0..vocab)))
        };
        (term, radii[rng.gen_range(0..radii.len())])
    };
    let (term, radius) = operand(rng);
    let mut f = DFunction::single(term, radius);
    for _ in 0..rng.gen_range(0..6) {
        let op = [SetOp::Union, SetOp::Intersect, SetOp::Subtract][rng.gen_range(0..3)];
        let (term, radius) = operand(rng);
        f = f.then(op, term, radius);
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lazy_equals_eager_combine_equals_centralized(
        net_seed in 0x70u64..0x78, k in 2usize..=4, stream_seed in any::<u64>()
    ) {
        let net = GridNetworkConfig::tiny(net_seed).generate();
        let max_r = MAX_R_EDGES * net.avg_edge_weight();
        let mut engines = engines(&net, k, max_r);
        let mut central = CentralizedCoverage::new(&net);
        let mut rng = StdRng::seed_from_u64(stream_seed);
        for _ in 0..12 {
            let f = random_dfunction(&mut rng, &net, max_r);
            let plan = QueryPlan::lower(&f);
            let mut distributed = Vec::new();
            for engine in &mut engines {
                let (lazy, cost) = engine.evaluate_plan(&plan).unwrap();
                let eager: Vec<Arc<BitSet>> = plan
                    .slots()
                    .iter()
                    .map(|s| engine.coverage(s.term, s.radius).unwrap().0)
                    .collect();
                prop_assert_eq!(
                    &lazy, &engine.to_global(&plan.combine(&eager)).to_vec(),
                    "{} on fragment {:?}", &f, engine.fragment()
                );
                prop_assert!(cost.per_slot.len() <= plan.num_slots());
                distributed.extend(lazy);
            }
            distributed.sort_unstable();
            prop_assert_eq!(distributed, central.evaluate(&f).unwrap(), "{}", &f);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A window of 1–16 plans, one in five a top-k's, each targeting a
    /// random set of fragments, goes through the codec; each decoded
    /// program is evaluated in place on every engine of one set, and its
    /// `split` plan on the same engine of a twin set, in the same order,
    /// since a keyword's first fetch leaves a list that later ones cut.
    #[test]
    fn a_window_program_evaluated_in_place_is_its_split_plan(
        net_seed in 0x70u64..0x78, k in 2usize..=4, stream_seed in any::<u64>()
    ) {
        let net = GridNetworkConfig::tiny(net_seed).generate();
        let max_r = MAX_R_EDGES * net.avg_edge_weight();
        let (mut in_place, mut twins) = (engines(&net, k, max_r), engines(&net, k, max_r));
        let mut rng = StdRng::seed_from_u64(stream_seed);
        let vocab = net.keyword_frequencies().len() as u32;
        let plans: Vec<QueryPlan> = (0..rng.gen_range(1..=16))
            .map(|_| {
                if rng.gen_bool(0.2) {
                    let kws: Vec<KeywordId> =
                        (0..rng.gen_range(1..4)).map(|_| KeywordId(rng.gen_range(0..vocab))).collect();
                    let horizon = rng.gen_range(0..=max_r);
                    let q = TopKQuery::new(kws, 3, horizon, ScoreCombine::Sum);
                    return QueryPlan::topk(&q).expect("a keyword");
                }
                QueryPlan::lower(&random_dfunction(&mut rng, &net, max_r))
            })
            .collect();
        let targets: Vec<Targets> = plans
            .iter()
            .map(|_| Targets::of_mask(&(0..k).map(|_| rng.gen_bool(0.7)).collect::<Vec<_>>()))
            .collect();
        let window = SuperPlan::merge_targeted(&plans, targets);
        let mut bytes = bytes::BytesMut::new();
        window.encode(&mut bytes);
        let decoded = SuperPlan::decode(&mut bytes.freeze()).unwrap();
        prop_assert_eq!(&decoded, &window);
        let split = window.split();
        for ((program, _), plan) in decoded.programs().iter().zip(&split) {
            prop_assert_eq!(program.rank(), plan.rank());
            for (engine, twin) in in_place.iter_mut().zip(&mut twins) {
                let (got, got_cost) = engine.evaluate_plan_with_cache(program, &mut NoCache).unwrap();
                let (want, want_cost) = twin.evaluate_plan_with_cache(plan, &mut NoCache).unwrap();
                prop_assert_eq!(&got, &want, "{} on fragment {:?}", plan, engine.fragment());
                prop_assert_eq!(&got_cost.per_slot, &want_cost.per_slot, "{}", plan);
            }
        }
    }
}

/// How the ceiling handed to the driver relates to `⋂pos`.
#[derive(Debug, Clone, Copy)]
enum Ceiling {
    /// "No such set is known."
    Unknown,
    /// Exactly `⋂pos`.
    Tight,
    /// `⋂pos` and whatever else the seed adds.
    Padded(u64),
    /// Every node of the fragment.
    Full,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Programs over a pool of 1–5 terms (so slots repeat) with a `∪`
    /// prefix, `∩` and `−` in any mix, over coverages from empty to full on
    /// a capacity that is not a whole number of words, each evaluated with
    /// whole fetches and with bounded ones that return `R ∩ acc` and a
    /// random part of the rest of `R`.
    #[test]
    fn a_ceiling_never_changes_the_answer(seed in any::<u64>()) {
        const CAPACITY: usize = 150;
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = rng.gen_range(1..=5u32);
        let term = |rng: &mut StdRng| Term::Keyword(KeywordId(rng.gen_range(0..pool)));
        let mut f = DFunction::single(term(&mut rng), 1);
        for _ in 0..rng.gen_range(0..7) {
            let op = [SetOp::Union, SetOp::Intersect, SetOp::Subtract][rng.gen_range(0..3)];
            f = f.then(op, term(&mut rng), 1);
        }
        let plan = QueryPlan::lower(&f);
        let sample = |rng: &mut StdRng, density: f64| {
            let mut set = BitSet::new(CAPACITY);
            (0..CAPACITY).filter(|_| rng.gen_bool(density)).for_each(|i| set.insert(i));
            set
        };
        let coverages: Vec<Arc<BitSet>> = (0..pool)
            .map(|_| {
                let density = [0.0, 0.03, 0.5, 1.0][rng.gen_range(0..4)];
                Arc::new(sample(&mut rng, density))
            })
            .collect();
        // Seedless only where the coverage is empty, as in an engine.
        let seeds: Vec<usize> =
            coverages.iter().map(|c| rng.gen_range(usize::from(!c.is_empty())..4)).collect();
        let of = |slot: &DTerm| match slot.term {
            Term::Keyword(k) => k.0 as usize,
            Term::Node(_) => unreachable!("the pool is keywords"),
        };
        let eager: Vec<_> = plan.slots().iter().map(|s| Arc::clone(&coverages[of(s)])).collect();
        let expect = plan.combine(&eager);
        // `pos`, read off the D-function: the ∩ operands after the last ∪,
        // and the first operand when there is none.
        let last_union = f.rest.iter().rposition(|(op, _)| *op == SetOp::Union);
        let tail = &f.rest[last_union.map_or(0, |u| u + 1)..];
        let pos: BTreeSet<usize> = last_union
            .is_none()
            .then_some(&f.first)
            .into_iter()
            .chain(tail.iter().filter(|(op, _)| *op == SetOp::Intersect).map(|(_, t)| t))
            .map(of)
            .collect();
        let seedless = pos.iter().any(|&t| seeds[t] == 0);
        let mut named = vec![0; pool as usize];
        std::iter::once(&f.first).chain(f.rest.iter().map(|(_, t)| t)).for_each(|t| named[of(t)] += 1);

        let kinds = [Ceiling::Unknown, Ceiling::Tight, Ceiling::Padded(rng.gen()), Ceiling::Full];
        for (kind, bounded) in kinds.into_iter().flat_map(|k| [(k, None), (k, Some(rng.gen()))]) {
            let mut rest = bounded.map(StdRng::seed_from_u64);
            let mut known = BitSet::new(CAPACITY);
            (0..CAPACITY).for_each(|i| known.insert(i));
            if let Ceiling::Tight | Ceiling::Padded(_) = kind {
                pos.iter().for_each(|&t| {
                    known.intersect_with(&coverages[t]);
                });
            }
            if let Ceiling::Padded(pad) = kind {
                known.union_with(&sample(&mut StdRng::seed_from_u64(pad), 0.1));
            }
            let known = if let Ceiling::Unknown = kind { None } else { Some(known) };
            let (asked, fetches) = (Cell::new(false), Cell::new(0));
            let ceiling = |conjuncts: &mut dyn Iterator<Item = &DTerm>| {
                asked.set(true);
                let handed: BTreeSet<usize> = conjuncts.map(of).collect();
                assert_eq!(handed, pos, "{f}: the conjuncts handed over are not `pos`");
                known.as_ref()
            };
            let got = plan
                .evaluate_lazy(
                    CAPACITY,
                    |slot| seeds[of(slot)],
                    ceiling,
                    |index, within| {
                        fetches.set(fetches.get() + 1);
                        let slot = &plan.slots()[index as usize];
                        let coverage = &coverages[of(slot)];
                        for inside in within.iter().flat_map(|w| w.inside) {
                            let mut outside = within.unwrap().acc.clone();
                            outside.subtract(&coverages[of(inside)]);
                            assert!(outside.is_empty(), "{f}: acc is not inside {inside:?}");
                        }
                        let (Some(rest), Some(acc)) = (rest.as_mut(), within.map(|w| w.acc)) else {
                            return Ok::<_, ()>(Arc::clone(coverage));
                        };
                        assert_eq!(named[of(slot)], 1, "{f}: a slot named twice fetched bounded");
                        assert!(!acc.is_empty(), "{f}: fetched against an empty accumulator");
                        let mut within = sample(rest, 0.5);
                        within.union_with(acc);
                        within.intersect_with(coverage);
                        Ok(Arc::new(within))
                    },
                )
                .unwrap();
            prop_assert_eq!(&*got, &expect, "{} under {:?}, bounded {:?}", &f, kind, bounded);
            prop_assert!(fetches.get() <= plan.num_slots(), "{}: a slot fetched twice", &f);
            if seedless {
                prop_assert!(!asked.get(), "{}: a ceiling asked for beside a seedless conjunct", &f);
            }
            if seedless || (asked.get() && known.as_ref().is_some_and(BitSet::is_empty)) {
                prop_assert_eq!(fetches.get(), 0, "{} under {:?}: fetched for a known ∅", &f, kind);
            }
        }
    }
}

/// A store that counts its calls and keeps nothing.
#[derive(Default)]
struct Counting {
    lookups: Vec<DTerm>,
    stores: Vec<DTerm>,
}

impl CoverageStore for Counting {
    fn lookup(&mut self, _: u32, slot: &DTerm) -> Option<Arc<BitSet>> {
        self.lookups.push(*slot);
        None
    }
    fn store(&mut self, _: u32, slot: &DTerm, _coverage: &Arc<BitSet>) {
        self.stores.push(*slot);
    }
}

/// One engine of a 4-way split with, at radius 0, a keyword it has no seed
/// for (`absent`) and two it bears locally (`present`): the one with the
/// fewest seeds, then the one with the most.
struct Fixture {
    engine: FragmentEngine,
    absent: Term,
    present: [Term; 2],
}

fn fixture() -> Fixture {
    let net = GridNetworkConfig::tiny(0x7A).generate();
    let vocab = net.keyword_frequencies().len() as u32;
    for engine in engines(&net, 4, MAX_R_EDGES * net.avg_edge_weight()) {
        let seeds: HashMap<u32, usize> =
            (0..vocab).map(|k| (k, engine.seed_count(Term::Keyword(KeywordId(k)), 0))).collect();
        let mut present: Vec<u32> = (0..vocab).filter(|k| seeds[k] > 0).collect();
        present.sort_by_key(|k| (seeds[k], *k));
        let absent = (0..vocab).find(|k| seeds[k] == 0);
        if let (Some(absent), [few, .., many]) = (absent, &present[..]) {
            if seeds[few] < seeds[many] {
                let kw = |k: u32| Term::Keyword(KeywordId(k));
                return Fixture { engine, absent: kw(absent), present: [kw(*few), kw(*many)] };
            }
        }
    }
    panic!("no fragment of the fixture network lacks one keyword and has a rarer and a commoner");
}

#[test]
fn a_zero_seed_conjunct_ends_evaluation_before_the_first_fetch() {
    let Fixture { mut engine, absent, present: [a, b] } = fixture();
    let f = DFunction::single(a, 0).then(SetOp::Intersect, b, 0).then(SetOp::Intersect, absent, 0);
    let plan = QueryPlan::lower(&f);
    let mut store = Counting::default();
    let (answer, cost) = engine.evaluate_plan_with_cache(&plan, &mut store).unwrap();
    assert!(answer.to_vec().is_empty());
    assert_eq!(cost.settled, 0, "nothing was searched");
    assert!(store.lookups.is_empty() && store.stores.is_empty(), "nothing was fetched");
    assert!(cost.per_slot.len() < plan.num_slots());
}

#[test]
fn an_empty_intersection_before_a_union_still_evaluates_the_union() {
    let Fixture { mut engine, absent, present: [a, c] } = fixture();
    let f = DFunction::single(a, 0).then(SetOp::Intersect, absent, 0).then(SetOp::Union, c, 0);
    let (nodes, cost) = engine.evaluate(&f).unwrap();
    let (want, _) = engine.evaluate(&DFunction::single(c, 0)).unwrap();
    assert!(!want.is_empty());
    assert_eq!(nodes, want);
    assert!(cost.per_slot.iter().any(|s| s.term == c), "the ∪ operand was searched");
}

#[test]
fn a_slot_referenced_twice_is_fetched_once() {
    let Fixture { mut engine, present: [a, b], .. } = fixture();
    // (A ∪ B) ∩ A − B: two slots, four operands, every one of them needed.
    let f = DFunction::single(a, 0).then(SetOp::Union, b, 0).then(SetOp::Intersect, a, 0).then(
        SetOp::Subtract,
        b,
        0,
    );
    let plan = QueryPlan::lower(&f);
    assert_eq!((plan.num_slots(), plan.num_operands()), (2, 4));
    let mut store = Counting::default();
    let (_, cost) = engine.evaluate_plan_with_cache(&plan, &mut store).unwrap();
    assert_eq!(store.lookups.len(), 2);
    assert_eq!(store.stores.len(), 2);
    assert_eq!(cost.per_slot.len(), 2);
}

#[test]
fn conjuncts_are_searched_cheapest_first_and_only_while_the_answer_is_live() {
    let Fixture { mut engine, present: [few, many], .. } = fixture();
    // Program order says `many` first; the seed rank says `few`.
    assert!(engine.seed_count(few, 0) < engine.seed_count(many, 0));
    let f = DFunction::single(many, 0).then(SetOp::Intersect, few, 0);
    let (_, cost) = engine.evaluate(&f).unwrap();
    assert_eq!(cost.per_slot[0].term, few);
    // At radius 0 two different keywords rarely share a node: if they share
    // none here, the second search never ran.
    let shared = !engine.evaluate(&f).unwrap().0.is_empty();
    assert_eq!(cost.per_slot.len(), if shared { 2 } else { 1 });
}
