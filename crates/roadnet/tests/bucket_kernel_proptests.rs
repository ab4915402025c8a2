//! The Δ-wide bucket kernel against the tuple heap: same settled set, same
//! final distances, every node settled once, buckets drained in order —
//! over random graphs whose lightest arc pins Δ, seeds whose offsets fall
//! anywhere relative to Δ and the bound, and bounds on either side of a
//! bucket edge and of the hand-over to the heap.

use proptest::prelude::*;

use disks_roadnet::dijkstra::{kernel_for, Control, DijkstraWorkspace, Graph, Kernel};
use disks_roadnet::{RoadNetwork, RoadNetworkBuilder};

/// Lightest arcs under test, with the bucket width each must give.
const LIGHTEST: [(u32, u64); 6] = [(1, 1), (2, 2), (63, 32), (64, 64), (65, 64), (1000, 512)];

/// A random connected network whose lightest edge weighs exactly `w_lo`
/// (the first tree edge) and whose other edges weigh up to three times that.
fn arb_net(w_lo: u32) -> impl Strategy<Value = RoadNetwork> {
    (2usize..40)
        .prop_flat_map(move |n| {
            let w = w_lo..3 * w_lo + 2;
            let tree = proptest::collection::vec((any::<u32>(), w.clone()), n - 1);
            let extra = proptest::collection::vec((any::<u32>(), any::<u32>(), w), 0..2 * n);
            (Just(n), tree, extra)
        })
        .prop_map(move |(n, tree, extra)| {
            let mut b = RoadNetworkBuilder::new();
            let nodes: Vec<_> = (0..n).map(|i| b.add_node(i as f32, 0.0, &[])).collect();
            for (i, &(pick, w)) in tree.iter().enumerate() {
                let w = if i == 0 { w_lo } else { w };
                b.add_edge(nodes[i + 1], nodes[(pick as usize) % (i + 1)], w).unwrap();
            }
            for &(x, y, w) in &extra {
                let (a, c) = (nodes[(x as usize) % n], nodes[(y as usize) % n]);
                if a != c {
                    b.add_edge(a, c, w).unwrap();
                }
            }
            b.build().unwrap()
        })
}

fn arb_lightest() -> impl Strategy<Value = (u32, u64)> {
    (0usize..LIGHTEST.len()).prop_map(|i| LIGHTEST[i])
}

/// A network, its Δ, a bound and a seed list. Bounds: 0, `kΔ − 1`, `kΔ`,
/// and the two sides of the hand-over, `(2¹⁶ ≪ shift) − 1` and `2¹⁶ ≪ shift`.
/// Seed offsets: anything below 3Δ + 5 (mostly not multiples of Δ), just
/// under the bound (the top buckets), and past it (must be dropped).
fn arb_search() -> impl Strategy<Value = (RoadNetwork, u64, u64, Vec<(u32, u64)>)> {
    arb_lightest()
        .prop_flat_map(|(w_lo, delta)| {
            let bound = prop_oneof![
                Just(0u64),
                (1u64..80).prop_map(move |k| k * delta - 1),
                (1u64..80).prop_map(move |k| k * delta),
                Just((delta << 16) - 1),
                Just(delta << 16),
            ];
            (arb_net(w_lo), Just(delta), bound)
        })
        .prop_flat_map(|(net, delta, bound)| {
            let offset = prop_oneof![
                0..3 * delta + 5,
                (0..2 * delta + 3).prop_map(move |x| bound.saturating_sub(x)),
                (1..delta + 2).prop_map(move |x| bound + x),
            ];
            let seeds = proptest::collection::vec((0..net.num_nodes() as u32, offset), 1..6);
            (Just(net), Just(delta), Just(bound), seeds)
        })
}

/// Every `(node, dist)` one kernel settles, in settle order.
fn settle(
    ws: &mut DijkstraWorkspace,
    kernel: Kernel,
    net: &RoadNetwork,
    seeds: &[(u32, u64)],
    bound: u64,
    mut steer: impl FnMut(u32) -> Control,
) -> Vec<(u32, u64)> {
    let mut out = Vec::new();
    ws.run_with(kernel, net, seeds, bound, |n, d| {
        out.push((n, d));
        steer(n)
    });
    out
}

fn sorted(mut v: Vec<(u32, u64)>) -> Vec<(u32, u64)> {
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bucket_kernel_equals_tuple_heap((net, delta, bound, seeds) in arb_search()) {
        let shift = delta.trailing_zeros();
        prop_assert!(delta <= u64::from(net.min_arc_weight()));
        prop_assert!(2 * delta > u64::from(net.min_arc_weight()), "Δ is the largest power of two");
        let picked = kernel_for(bound, net.min_arc_weight());
        prop_assert_eq!(picked == Kernel::Bucket, bound >> shift < 1 << 16);

        let mut ws = DijkstraWorkspace::new(0);
        // `run` takes the kernel `kernel_for` picked: the heap at the far
        // side of the hand-over, buckets everywhere else.
        let mut got = Vec::new();
        let stats = ws.run(&net, &seeds, bound, |n, d| {
            got.push((n, d));
            Control::Continue
        });
        let heap = settle(&mut ws, Kernel::Heap, &net, &seeds, bound, |_| Control::Continue);

        prop_assert_eq!(stats.settled, got.len());
        prop_assert!(got.iter().all(|&(_, d)| d <= bound));
        // Nondecreasing in ⌊d/Δ⌋ under either kernel.
        prop_assert!(got.windows(2).all(|w| w[0].1 >> shift <= w[1].1 >> shift), "{:?}", got);
        let got = sorted(got);
        // Once each: sorted by node, no node repeats.
        prop_assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "{:?}", got);
        prop_assert_eq!(got, sorted(heap));
    }

    #[test]
    fn skip_neighbors_prunes_alike((net, _delta, bound, seeds) in arb_search(), modulus in 2u32..5) {
        if kernel_for(bound, net.min_arc_weight()) == Kernel::Heap {
            return Ok(());
        }
        // Pruned by node, not by order: both kernels must agree exactly.
        let steer = |n: u32| if n.is_multiple_of(modulus) { Control::SkipNeighbors } else { Control::Continue };
        let mut ws = DijkstraWorkspace::new(0);
        let bucket = settle(&mut ws, Kernel::Bucket, &net, &seeds, bound, steer);
        let heap = settle(&mut ws, Kernel::Heap, &net, &seeds, bound, steer);
        prop_assert_eq!(sorted(bucket), sorted(heap));
    }

    /// The pool's helpers reuse one workspace across engines: an early stop
    /// must leave nothing behind, neither for the same search again (a
    /// leftover entry that is still live would settle its node twice) nor
    /// for a search on another graph with another Δ.
    #[test]
    fn stop_mid_bucket_leaves_nothing_behind(
        (first, _d1, bound1, seeds1) in arb_search(),
        (second, _d2, bound2, seeds2) in arb_search(),
        stop_after in 1usize..12,
    ) {
        if kernel_for(bound1, first.min_arc_weight()) == Kernel::Heap
            || kernel_for(bound2, second.min_arc_weight()) == Kernel::Heap
        {
            return Ok(());
        }
        let go_on = |_| Control::Continue;
        let mut ws = DijkstraWorkspace::new(0);
        let mut seen = 0;
        let stopped = settle(&mut ws, Kernel::Bucket, &first, &seeds1, bound1, |_| {
            seen += 1;
            if seen == stop_after { Control::Stop } else { Control::Continue }
        });
        prop_assert!(stopped.len() <= stop_after);
        let mut fresh = DijkstraWorkspace::new(0);
        let again = settle(&mut ws, Kernel::Bucket, &first, &seeds1, bound1, go_on);
        prop_assert_eq!(sorted(again), sorted(settle(&mut fresh, Kernel::Heap, &first, &seeds1, bound1, go_on)));

        settle(&mut ws, Kernel::Bucket, &first, &seeds1, bound1, |_| Control::Stop);
        let other = settle(&mut ws, Kernel::Bucket, &second, &seeds2, bound2, go_on);
        prop_assert_eq!(sorted(other), sorted(settle(&mut fresh, Kernel::Heap, &second, &seeds2, bound2, go_on)));
    }
}
