//! Property tests for the road-network substrate: codec round-trips, graph
//! invariants, Dijkstra correctness against a Bellman–Ford oracle.

use proptest::prelude::*;

use disks_roadnet::codec::{Decode, Encode};
use disks_roadnet::{DijkstraWorkspace, NodeId, RoadNetwork, RoadNetworkBuilder, INF};

/// A random connected network from a spanning tree + extra edges.
fn arb_net() -> impl Strategy<Value = RoadNetwork> {
    (2usize..24)
        .prop_flat_map(|n| {
            let tree = proptest::collection::vec((any::<u32>(), 1u32..50), n - 1);
            let extra = proptest::collection::vec((any::<u32>(), any::<u32>(), 1u32..50), 0..n);
            let kw = proptest::collection::vec(0u8..4, n);
            (Just(n), tree, extra, kw)
        })
        .prop_map(|(n, tree, extra, kw)| {
            let mut b = RoadNetworkBuilder::new();
            let words = ["w0", "w1", "w2"];
            let mut nodes = Vec::new();
            for (i, &k) in kw.iter().enumerate() {
                let kws: Vec<&str> = if k == 0 { vec![] } else { vec![words[(k - 1) as usize]] };
                nodes.push(b.add_node(i as f32, 0.0, &kws));
            }
            for (i, &(pick, w)) in tree.iter().enumerate() {
                b.add_edge(nodes[i + 1], nodes[(pick as usize) % (i + 1)], w).unwrap();
            }
            for &(x, y, w) in &extra {
                let a = nodes[(x as usize) % n];
                let c = nodes[(y as usize) % n];
                if a != c {
                    b.add_edge(a, c, w).unwrap();
                }
            }
            b.build().unwrap()
        })
}

/// Feed `bytes` to the graph codec (`Vocabulary::decode` included): it must
/// not panic, and a network that does decode is one the rest of the system
/// can index into — every edge between nodes it has, every keyword id
/// inside its vocabulary.
fn decode_and_check(mut bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(net) = RoadNetwork::decode(&mut bytes) {
        for (a, b, _) in net.edges() {
            prop_assert!(a.index() < net.num_nodes() && b.index() < net.num_nodes());
        }
        for n in net.node_ids() {
            prop_assert!(net.keywords(n).iter().all(|k| k.index() < net.vocab().len()));
        }
    }
    Ok(())
}

/// Reference Bellman–Ford (no heap, no epoch tricks).
fn bellman_ford(net: &RoadNetwork, src: u32) -> Vec<u64> {
    let n = net.num_nodes();
    let mut dist = vec![INF; n];
    dist[src as usize] = 0;
    for _ in 0..n {
        let mut changed = false;
        for (a, b, w) in net.edges() {
            let via_a = dist[a.index()].saturating_add(u64::from(w));
            if via_a < dist[b.index()] {
                dist[b.index()] = via_a;
                changed = true;
            }
            let via_b = dist[b.index()].saturating_add(u64::from(w));
            if via_b < dist[a.index()] {
                dist[a.index()] = via_b;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn built_networks_validate(net in arb_net()) {
        net.validate().unwrap();
        prop_assert!(net.is_connected());
    }

    #[test]
    fn network_codec_round_trips(net in arb_net()) {
        use bytes::BytesMut;
        let mut buf = BytesMut::new();
        net.encode(&mut buf);
        let mut bytes = buf.freeze();
        let back = RoadNetwork::decode(&mut bytes).unwrap();
        prop_assert_eq!(back.num_nodes(), net.num_nodes());
        prop_assert_eq!(back.num_edges(), net.num_edges());
        let edges_a: Vec<_> = net.edges().collect();
        let edges_b: Vec<_> = back.edges().collect();
        prop_assert_eq!(edges_a, edges_b);
        for n in net.node_ids() {
            prop_assert_eq!(back.keywords(n), net.keywords(n));
        }
    }

    /// Arbitrary bytes — half of them zero, so that length prefixes are
    /// often small enough to pass — bare, and behind a one-word vocabulary
    /// so they reach the node and edge tables.
    #[test]
    fn arbitrary_bytes_never_panic_the_graph_codec(
        bytes in proptest::collection::vec(prop_oneof![Just(0u8), any::<u8>()], 0..192)
    ) {
        decode_and_check(&bytes)?;
        let mut framed = vec![1, 0, 0, 0, 1, 0, 0, 0, b'w'];
        framed.extend_from_slice(&bytes);
        decode_and_check(&framed)?;
    }

    #[test]
    fn a_flipped_bit_never_panics_the_graph_codec(
        net in arb_net(), at in any::<usize>(), bit in 0u8..8
    ) {
        let mut buf = bytes::BytesMut::new();
        net.encode(&mut buf);
        let mut bytes = buf.to_vec();
        let at = at % bytes.len();
        bytes[at] ^= 1 << bit;
        decode_and_check(&bytes)?;
    }

    #[test]
    fn text_io_round_trips(net in arb_net()) {
        let mut out = Vec::new();
        disks_roadnet::io::write_text(&net, &mut out).unwrap();
        let back = disks_roadnet::io::read_text(out.as_slice()).unwrap();
        prop_assert_eq!(back.num_nodes(), net.num_nodes());
        prop_assert_eq!(back.num_edges(), net.num_edges());
        for n in net.node_ids() {
            prop_assert_eq!(back.keywords(n).len(), net.keywords(n).len());
        }
    }

    #[test]
    fn dijkstra_matches_bellman_ford(net in arb_net(), src_pick in any::<u32>()) {
        let src = src_pick % net.num_nodes() as u32;
        let reference = bellman_ford(&net, src);
        let mut ws = DijkstraWorkspace::new(net.num_nodes());
        let got = ws.distances_from(&net, src, INF - 1);
        let mut dist = vec![INF; net.num_nodes()];
        for (n, d) in got {
            dist[n as usize] = d;
        }
        prop_assert_eq!(dist, reference);
    }

    #[test]
    fn bounded_dijkstra_is_a_prefix_of_unbounded(net in arb_net(), src_pick in any::<u32>(), bound in 0u64..200) {
        let src = src_pick % net.num_nodes() as u32;
        let mut ws = DijkstraWorkspace::new(net.num_nodes());
        let all: std::collections::HashMap<u32, u64> =
            ws.distances_from(&net, src, INF - 1).into_iter().collect();
        let bounded: std::collections::HashMap<u32, u64> =
            ws.distances_from(&net, src, bound).into_iter().collect();
        for (n, d) in &bounded {
            prop_assert!(d <= &bound);
            prop_assert_eq!(all.get(n), Some(d));
        }
        for (n, d) in &all {
            if *d <= bound {
                prop_assert!(bounded.contains_key(n), "missing node {} at {}", n, d);
            }
        }
    }

    #[test]
    fn largest_component_of_connected_net_is_identity(net in arb_net()) {
        let (same, mapping) = net.largest_component();
        prop_assert_eq!(same.num_nodes(), net.num_nodes());
        prop_assert!(mapping.iter().all(Option::is_some));
    }

    #[test]
    fn inverted_index_agrees_with_membership(net in arb_net()) {
        for (kw, _) in net.vocab().iter() {
            let listed: std::collections::HashSet<NodeId> =
                net.nodes_with_keyword(kw).iter().copied().collect();
            for n in net.node_ids() {
                prop_assert_eq!(net.contains_keyword(n, kw), listed.contains(&n));
            }
        }
    }
}
