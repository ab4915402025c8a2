//! The fragment engine on the bucket kernel, at both ends of the bucket
//! width: a unit-weight network (Δ = 1, Dial's queue) and `tiny` (lightest
//! arc 100, Δ = 64), SC shortcut arcs in the searched graph both times.
//! Per fragment, `coverage` must equal the centralized coverage restricted
//! to the fragment and `distance_table` the oracle's distances — the oracle
//! searches unbounded, so it runs on the tuple heap.

use disks_core::{build_all_indexes, CentralizedCoverage, FragmentEngine, IndexConfig, Term};
use disks_partition::{MultilevelPartitioner, Partitioner};
use disks_roadnet::dijkstra::{kernel_for, Graph, Kernel};
use disks_roadnet::generator::GridNetworkConfig;
use disks_roadnet::{KeywordId, NodeId, RoadNetwork};

fn check_engines_against_oracle(net: &RoadNetwork, delta: std::ops::RangeInclusive<u32>) {
    let e = net.avg_edge_weight();
    let max_r = 8 * e;
    let p = MultilevelPartitioner::default().partition(net, 3);
    let indexes = build_all_indexes(net, &p, &IndexConfig::with_max_r(max_r));
    assert!(indexes.iter().any(|i| !i.shortcuts().is_empty()), "no SC arcs to search over");
    let mut oracle = CentralizedCoverage::new(net);

    let keywords = (0..net.vocab().len() as u32).map(|k| Term::Keyword(KeywordId(k)));
    let objects = net.node_ids().filter(|&n| net.is_object(n)).step_by(7).map(Term::Node);
    let terms: Vec<Term> = keywords.chain(objects).collect();

    for index in &indexes {
        let mut engine = FragmentEngine::new(net, &p, index).unwrap();
        let w_min = engine.min_arc_weight();
        assert!(delta.contains(&(1 << w_min.ilog2())), "w_min {w_min}");
        assert_eq!(kernel_for(max_r, w_min), Kernel::Bucket);
        let members = p.nodes(index.fragment());
        for &term in &terms {
            let exact = oracle.distance_table(term);
            for radius in [0, e, 3 * e, max_r] {
                let expect: Vec<NodeId> = oracle
                    .coverage(term, radius)
                    .iter()
                    .map(|i| NodeId(i as u32))
                    .filter(|n| members.binary_search(n).is_ok())
                    .collect();
                let (cov, cost) = engine.coverage(term, radius).unwrap();
                assert_eq!(engine.to_global(&cov).to_vec(), expect, "{term:?} r={radius}");
                assert_eq!(cost.settled, expect.len(), "every covered node settles once");

                let (table, _) = engine.distance_table(term, radius).unwrap();
                assert_eq!(table.len(), expect.len(), "{term:?} r={radius}");
                for (local, d) in table {
                    let global = members[local as usize];
                    assert_eq!(exact.get(&global), Some(&d), "{term:?} r={radius} at {global}");
                }
            }
        }
    }
}

#[test]
fn unit_weight_network_runs_on_dial_width_buckets() {
    let net = GridNetworkConfig { base_weight: 1, ..GridNetworkConfig::tiny(7) }.generate();
    assert_eq!(net.min_arc_weight(), 1);
    check_engines_against_oracle(&net, 1..=1);
}

#[test]
fn tiny_network_runs_on_wide_buckets() {
    let net = GridNetworkConfig::tiny(7).generate();
    check_engines_against_oracle(&net, 64..=u32::MAX);
}
