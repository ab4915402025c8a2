//! Naive (non-minimal) index construction — the ablation baseline.
//!
//! §3.3/§3.4 of the paper motivate Rules 1 and 2 against the obvious
//! strawman: make `P` complete by adding a shortcut for **every** portal
//! pair, and record **every** `(external node, portal)` distance. Both are
//! valid (they form a *standard shortcut set* / *standard fragment index*,
//! Definitions 6–7), but Theorems 2 and 4 prove the rule-based components
//! are the unique minima. This module builds the naive variant so the
//! benchmark harness can measure exactly how much the minimality theorems
//! save — in index bytes and in query-time α/β (Theorem 5).

use std::collections::HashMap;

use disks_partition::{FragmentId, Partitioning};
use disks_roadnet::dijkstra::Control;
use disks_roadnet::{DijkstraWorkspace, KeywordId, NodeId, RoadNetwork};

use super::{DlScope, IndexConfig, NpdIndex};

/// Build the naive index: all portal-pair shortcuts (minus original edges)
/// and all `(external, portal)` DL pairs within `maxR`.
///
/// The result is interchangeable with the rule-based [`NpdIndex`] — it is a
/// standard fragment index, so every query evaluates to the same answer —
/// just larger.
pub fn build_naive_index(
    net: &RoadNetwork,
    partitioning: &Partitioning,
    fragment: FragmentId,
    config: &IndexConfig,
) -> NpdIndex {
    let start = std::time::Instant::now();
    let max_r = config.max_r;
    let portals = partitioning.portals(fragment);
    let portal_set: std::collections::HashSet<u32> = portals.iter().map(|p| p.0).collect();
    let assignment = partitioning.assignment();
    let p = fragment.0;

    let mut ws = DijkstraWorkspace::new(net.num_nodes());
    let mut sc_map: HashMap<(u32, u32), u64> = HashMap::new();
    let mut dl_entries: HashMap<NodeId, Vec<(NodeId, u64)>> = HashMap::new();
    let mut settled_total = 0u64;

    for &portal in portals {
        let stats = ws.run(net, [(portal.0, 0)], max_r, |u, d| {
            if u == portal.0 {
                return Control::Continue;
            }
            if assignment[u as usize] == p {
                if portal_set.contains(&u)
                    && net.edge_weight(NodeId(u), portal).map(u64::from) != Some(d)
                {
                    let key = if u < portal.0 { (u, portal.0) } else { (portal.0, u) };
                    sc_map.insert(key, d);
                }
            } else {
                let indexed = match config.dl_scope {
                    DlScope::ObjectsOnly => net.is_object(NodeId(u)),
                    DlScope::AllNodes => true,
                };
                if indexed {
                    dl_entries.entry(NodeId(u)).or_default().push((portal, d));
                }
            }
            Control::Continue
        });
        settled_total += stats.settled as u64;
    }

    let mut sc: Vec<(NodeId, NodeId, u64)> =
        sc_map.into_iter().map(|((a, b), d)| (NodeId(a), NodeId(b), d)).collect();
    sc.sort_unstable();
    for list in dl_entries.values_mut() {
        list.sort_unstable_by_key(|&(portal, d)| (d, portal.0));
    }
    let mut kw_min: HashMap<(KeywordId, u32), u64> = HashMap::new();
    for (&node, list) in &dl_entries {
        for &kw in net.keywords(node) {
            for &(portal, d) in list {
                kw_min.entry((kw, portal.0)).and_modify(|c| *c = (*c).min(d)).or_insert(d);
            }
        }
    }
    let mut keyword_portals: HashMap<KeywordId, Vec<(NodeId, u64)>> = HashMap::new();
    for ((kw, portal), d) in kw_min {
        keyword_portals.entry(kw).or_default().push((NodeId(portal), d));
    }
    for list in keyword_portals.values_mut() {
        list.sort_unstable_by_key(|&(portal, d)| (d, portal.0));
    }

    NpdIndex {
        fragment,
        max_r,
        dl_scope: config.dl_scope,
        sc,
        dl_entries,
        keyword_portals,
        build_time: start.elapsed(),
        build_settled: settled_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::CentralizedCoverage;
    use crate::dfunc::{DFunction, Term};
    use crate::engine::FragmentEngine;
    use crate::index::build_index;
    use disks_partition::{MultilevelPartitioner, Partitioner};
    use disks_roadnet::generator::GridNetworkConfig;
    use disks_roadnet::INF;

    #[test]
    fn naive_index_is_a_superset_of_the_minimal_one() {
        let net = GridNetworkConfig::tiny(120).generate();
        let p = MultilevelPartitioner::default().partition(&net, 3);
        let cfg = IndexConfig::unbounded();
        for f in p.fragment_ids() {
            let minimal = build_index(&net, &p, f, &cfg);
            let naive = build_naive_index(&net, &p, f, &cfg);
            // Theorem 2/4: the rule-based components are subsets.
            let naive_sc: std::collections::HashSet<_> = naive.shortcuts().iter().collect();
            for edge in minimal.shortcuts() {
                assert!(naive_sc.contains(edge), "missing shortcut {edge:?}");
            }
            for (node, list) in minimal.dl_entries() {
                let naive_list = naive.dl_entry(node).expect("entry must exist");
                for pair in list {
                    assert!(naive_list.contains(pair), "missing DL pair {pair:?} for {node}");
                }
            }
            assert!(naive.distances_recorded() >= minimal.distances_recorded());
        }
    }

    #[test]
    fn naive_index_answers_queries_identically() {
        let net = GridNetworkConfig::tiny(121).generate();
        let p = MultilevelPartitioner::default().partition(&net, 3);
        let cfg = IndexConfig::unbounded();
        let freqs = net.keyword_frequencies();
        let top = KeywordId((0..freqs.len()).max_by_key(|&k| freqs[k]).unwrap() as u32);
        let f = DFunction::single(Term::Keyword(top), 8 * net.avg_edge_weight());
        let mut got = Vec::new();
        for frag in p.fragment_ids() {
            let idx = build_naive_index(&net, &p, frag, &cfg);
            let mut engine = FragmentEngine::new(&net, &p, &idx).unwrap();
            got.extend(engine.evaluate(&f).unwrap().0);
        }
        got.sort_unstable();
        let mut central = CentralizedCoverage::new(&net);
        assert_eq!(got, central.evaluate(&f).unwrap());
    }

    #[test]
    fn minimality_gap_is_real_on_nontrivial_partitions() {
        // On a grid with multilevel fragments there are portal pairs whose
        // shortest paths run through the fragment interior — the naive SC
        // records them, Rule 1 does not.
        let net = GridNetworkConfig::small(122).generate();
        let p = MultilevelPartitioner::default().partition(&net, 4);
        let cfg = IndexConfig::with_max_r(20 * net.avg_edge_weight());
        let mut naive_total = 0usize;
        let mut minimal_total = 0usize;
        for f in p.fragment_ids() {
            naive_total += build_naive_index(&net, &p, f, &cfg).distances_recorded();
            minimal_total += build_index(&net, &p, f, &cfg).distances_recorded();
        }
        assert!(
            naive_total > minimal_total,
            "expected a strict gap: naive {naive_total} vs minimal {minimal_total}"
        );
        let _ = INF;
    }
}
