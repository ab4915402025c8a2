//! Property tests: every partitioner yields a valid, complete partitioning
//! with correctly identified portals on arbitrary generated networks.

use proptest::prelude::*;

use disks_partition::{
    BfsPartitioner, GridPartitioner, MultilevelPartitioner, PartitionMetrics, Partitioner,
};
use disks_roadnet::generator::GridNetworkConfig;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_partitioners_produce_valid_partitionings(seed in 0u64..5000, k in 1usize..9) {
        let net = GridNetworkConfig::tiny(seed).generate();
        for p in [
            MultilevelPartitioner::default().partition(&net, k),
            GridPartitioner.partition(&net, k),
            BfsPartitioner::default().partition(&net, k),
        ] {
            p.validate(&net).unwrap();
            prop_assert_eq!(p.num_fragments(), k);
            let m = PartitionMetrics::compute(&net, &p);
            prop_assert!(m.total_portals <= 2 * m.cut_edges);
            if k == 1 {
                prop_assert_eq!(m.cut_edges, 0);
            }
        }
    }

    #[test]
    fn multilevel_never_leaves_fragments_empty(seed in 0u64..5000, k in 2usize..8) {
        let net = GridNetworkConfig::tiny(seed).generate();
        if net.num_nodes() < k {
            return Ok(());
        }
        let p = MultilevelPartitioner::default().partition(&net, k);
        for f in p.fragment_ids() {
            prop_assert!(!p.nodes(f).is_empty(), "fragment {} empty", f);
        }
    }

    #[test]
    fn portals_are_exactly_cut_edge_endpoints(seed in 0u64..5000, k in 2usize..6) {
        let net = GridNetworkConfig::tiny(seed).generate();
        let p = BfsPartitioner::default().partition(&net, k);
        let mut expected: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for (a, b, _) in net.edges() {
            if !p.same_fragment(a, b) {
                expected.insert(a.0);
                expected.insert(b.0);
            }
        }
        let mut listed = std::collections::HashSet::new();
        for f in p.fragment_ids() {
            for &n in p.portals(f) {
                listed.insert(n.0);
            }
        }
        prop_assert_eq!(listed, expected);
    }
}
