//! Directed road networks — the §2.1 adaptation ("Our method can be easily
//! adapted for the directed graph").
//!
//! A [`DirectedRoadNetwork`] stores arcs in both out-CSR and in-CSR form so
//! forward searches (query-time coverage) and backward searches (index
//! construction from in-portals over the reversed graph) are both cache
//! friendly. One-way streets are just arcs without a reverse twin;
//! `add_road` adds both directions with possibly different weights.

use std::collections::HashMap;

use crate::dijkstra::Graph;
use crate::error::RoadNetError;
use crate::graph::{NodeId, Weight};
use crate::vocab::{KeywordId, Vocabulary};

/// Builder for a [`DirectedRoadNetwork`].
#[derive(Debug, Default)]
pub struct DirectedRoadNetworkBuilder {
    coords: Vec<(f32, f32)>,
    node_keywords: Vec<Vec<KeywordId>>,
    arcs: Vec<(u32, u32, Weight)>,
    vocab: Vocabulary,
}

impl DirectedRoadNetworkBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn vocab_mut(&mut self) -> &mut Vocabulary {
        &mut self.vocab
    }

    /// Add a node at `(x, y)` with keywords (empty = junction).
    pub fn add_node(&mut self, x: f32, y: f32, keywords: &[&str]) -> NodeId {
        let mut kws: Vec<KeywordId> = keywords.iter().map(|w| self.vocab.intern(w)).collect();
        kws.sort_unstable();
        kws.dedup();
        let id = NodeId(u32::try_from(self.coords.len()).expect("node count exceeds u32"));
        self.coords.push((x, y));
        self.node_keywords.push(kws);
        id
    }

    /// Add a one-way arc `from → to`.
    pub fn add_arc(
        &mut self,
        from: NodeId,
        to: NodeId,
        weight: Weight,
    ) -> Result<(), RoadNetError> {
        if from == to {
            return Err(RoadNetError::SelfLoop(from.0));
        }
        if weight == 0 {
            return Err(RoadNetError::InvalidWeight { a: from.0, b: to.0, weight });
        }
        let n = self.coords.len() as u32;
        if from.0 >= n {
            return Err(RoadNetError::UnknownNode(from.0));
        }
        if to.0 >= n {
            return Err(RoadNetError::UnknownNode(to.0));
        }
        self.arcs.push((from.0, to.0, weight));
        Ok(())
    }

    /// Add a two-way road (both arcs, same weight).
    pub fn add_road(&mut self, a: NodeId, b: NodeId, weight: Weight) -> Result<(), RoadNetError> {
        self.add_arc(a, b, weight)?;
        self.add_arc(b, a, weight)
    }

    /// Finalize into CSR form. Duplicate arcs keep the minimum weight.
    pub fn build(mut self) -> Result<DirectedRoadNetwork, RoadNetError> {
        let n = self.coords.len();
        self.arcs.sort_unstable();
        self.arcs.dedup_by(|next, prev| {
            if next.0 == prev.0 && next.1 == prev.1 {
                prev.2 = prev.2.min(next.2);
                true
            } else {
                false
            }
        });
        let csr = |arcs: &[(u32, u32, Weight)],
                   key: fn(&(u32, u32, Weight)) -> u32,
                   other: fn(&(u32, u32, Weight)) -> u32| {
            let mut degree = vec![0u32; n];
            for a in arcs {
                degree[key(a) as usize] += 1;
            }
            let mut offsets = Vec::with_capacity(n + 1);
            offsets.push(0u32);
            let mut acc = 0u32;
            for &d in &degree {
                acc += d;
                offsets.push(acc);
            }
            let mut node = vec![0u32; arcs.len()];
            let mut weight = vec![0u32; arcs.len()];
            let mut cursor: Vec<u32> = offsets[..n].to_vec();
            for a in arcs {
                let c = cursor[key(a) as usize] as usize;
                node[c] = other(a);
                weight[c] = a.2;
                cursor[key(a) as usize] += 1;
            }
            (offsets, node, weight)
        };
        let (out_offsets, out_node, out_weight) = csr(&self.arcs, |a| a.0, |a| a.1);
        let (in_offsets, in_node, in_weight) = csr(&self.arcs, |a| a.1, |a| a.0);

        let mut kw_offsets = Vec::with_capacity(n + 1);
        kw_offsets.push(0u32);
        let mut kw_pool = Vec::new();
        for kws in &self.node_keywords {
            kw_pool.extend_from_slice(kws);
            kw_offsets.push(kw_pool.len() as u32);
        }
        let mut inv: HashMap<KeywordId, Vec<NodeId>> = HashMap::new();
        for (i, kws) in self.node_keywords.iter().enumerate() {
            for &k in kws {
                inv.entry(k).or_default().push(NodeId(i as u32));
            }
        }
        Ok(DirectedRoadNetwork {
            coords: self.coords,
            out_offsets,
            out_node,
            out_weight,
            in_offsets,
            in_node,
            in_weight,
            kw_offsets,
            kw_pool,
            inv,
            vocab: self.vocab,
            num_arcs: self.arcs.len(),
            min_arc_weight: self.arcs.iter().map(|a| a.2).min().unwrap_or(1),
        })
    }
}

/// An immutable directed road network.
#[derive(Debug, Clone)]
pub struct DirectedRoadNetwork {
    coords: Vec<(f32, f32)>,
    out_offsets: Vec<u32>,
    out_node: Vec<u32>,
    out_weight: Vec<u32>,
    in_offsets: Vec<u32>,
    in_node: Vec<u32>,
    in_weight: Vec<u32>,
    kw_offsets: Vec<u32>,
    kw_pool: Vec<KeywordId>,
    inv: HashMap<KeywordId, Vec<NodeId>>,
    vocab: Vocabulary,
    num_arcs: usize,
    /// Lightest arc, found at `build` (1 for an arcless network).
    min_arc_weight: Weight,
}

impl DirectedRoadNetwork {
    pub fn num_nodes(&self) -> usize {
        self.coords.len()
    }

    pub fn num_arcs(&self) -> usize {
        self.num_arcs
    }

    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    pub fn coord(&self, n: NodeId) -> (f32, f32) {
        self.coords[n.index()]
    }

    /// Out-neighbors (forward arcs).
    pub fn out_neighbors(&self, n: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        let lo = self.out_offsets[n.index()] as usize;
        let hi = self.out_offsets[n.index() + 1] as usize;
        self.out_node[lo..hi].iter().zip(&self.out_weight[lo..hi]).map(|(&u, &w)| (NodeId(u), w))
    }

    /// Weight of the arc `from → to`, if present.
    pub fn arc_weight(&self, from: NodeId, to: NodeId) -> Option<Weight> {
        self.out_neighbors(from).find(|&(n, _)| n == to).map(|(_, w)| w)
    }

    pub fn keywords(&self, n: NodeId) -> &[KeywordId] {
        let lo = self.kw_offsets[n.index()] as usize;
        let hi = self.kw_offsets[n.index() + 1] as usize;
        &self.kw_pool[lo..hi]
    }

    pub fn is_object(&self, n: NodeId) -> bool {
        !self.keywords(n).is_empty()
    }

    pub fn nodes_with_keyword(&self, kw: KeywordId) -> &[NodeId] {
        self.inv.get(&kw).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.coords.len() as u32).map(NodeId)
    }

    /// Iterate all arcs `(from, to, w)`.
    pub fn arcs(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        self.node_ids().flat_map(move |a| self.out_neighbors(a).map(move |(b, w)| (a, b, w)))
    }

    /// The forward graph view (arcs as stored).
    pub fn forward(&self) -> DirectedView<'_> {
        DirectedView { net: self, reversed: false }
    }

    /// The reversed graph view (every arc flipped) — used by the backward
    /// index-construction searches.
    pub fn reversed(&self) -> DirectedView<'_> {
        DirectedView { net: self, reversed: true }
    }
}

/// A [`Graph`] view of a directed network, forward or reversed.
#[derive(Clone, Copy)]
pub struct DirectedView<'a> {
    net: &'a DirectedRoadNetwork,
    reversed: bool,
}

impl Graph for DirectedView<'_> {
    fn num_nodes(&self) -> usize {
        self.net.num_nodes()
    }

    /// The network's lightest arc: reversal keeps every weight.
    fn min_arc_weight(&self) -> Weight {
        self.net.min_arc_weight
    }

    fn for_each_neighbor(&self, node: u32, mut f: impl FnMut(u32, Weight)) {
        let (offsets, nodes, weights) = if self.reversed {
            (&self.net.in_offsets, &self.net.in_node, &self.net.in_weight)
        } else {
            (&self.net.out_offsets, &self.net.out_node, &self.net.out_weight)
        };
        let lo = offsets[node as usize] as usize;
        let hi = offsets[node as usize + 1] as usize;
        for i in lo..hi {
            f(nodes[i], weights[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DijkstraWorkspace;

    /// A one-way triangle: a→b→c→a, weights 1/2/3, plus a two-way spur.
    fn triangle() -> (DirectedRoadNetwork, [NodeId; 4]) {
        let mut b = DirectedRoadNetworkBuilder::new();
        let a = b.add_node(0.0, 0.0, &["start"]);
        let bb = b.add_node(1.0, 0.0, &[]);
        let c = b.add_node(0.5, 1.0, &["goal"]);
        let d = b.add_node(2.0, 0.0, &[]);
        b.add_arc(a, bb, 1).unwrap();
        b.add_arc(bb, c, 2).unwrap();
        b.add_arc(c, a, 3).unwrap();
        b.add_road(bb, d, 5).unwrap();
        (b.build().unwrap(), [a, bb, c, d])
    }

    #[test]
    fn forward_and_reverse_views_are_consistent() {
        let (g, [a, bb, c, _]) = triangle();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        // Forward: a→c = a→b→c = 3; reverse from c reaches a at 3 as well
        // (reverse distance c⇠a = forward a→c).
        assert_eq!(ws.distance(&g.forward(), a.0, c.0), 3);
        assert_eq!(ws.distance(&g.reversed(), c.0, a.0), 3);
        // Asymmetry: c→a = 3 directly, a⇠c reversed = 3; but c→b = c→a→b = 4
        // while b→c = 2.
        assert_eq!(ws.distance(&g.forward(), c.0, bb.0), 4);
        assert_eq!(ws.distance(&g.forward(), bb.0, c.0), 2);
    }

    #[test]
    fn one_way_arcs_are_not_symmetric() {
        let (g, [a, bb, _, d]) = triangle();
        assert_eq!(g.arc_weight(a, bb), Some(1));
        assert_eq!(g.arc_weight(bb, a), None);
        // The two-way spur is symmetric.
        assert_eq!(g.arc_weight(bb, d), Some(5));
        assert_eq!(g.arc_weight(d, bb), Some(5));
    }

    #[test]
    fn keyword_index_works() {
        let (g, [a, _, c, _]) = triangle();
        let start = g.vocab().get("start").unwrap();
        let goal = g.vocab().get("goal").unwrap();
        assert_eq!(g.nodes_with_keyword(start), &[a]);
        assert_eq!(g.nodes_with_keyword(goal), &[c]);
        assert!(g.is_object(a) && !g.is_object(NodeId(1)));
    }

    #[test]
    fn duplicate_arcs_keep_min_weight() {
        let mut b = DirectedRoadNetworkBuilder::new();
        let x = b.add_node(0.0, 0.0, &[]);
        let y = b.add_node(1.0, 0.0, &[]);
        b.add_arc(x, y, 9).unwrap();
        b.add_arc(x, y, 4).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.num_arcs(), 1);
        assert_eq!(g.arc_weight(x, y), Some(4));
    }

    #[test]
    fn invalid_arcs_rejected() {
        let mut b = DirectedRoadNetworkBuilder::new();
        let x = b.add_node(0.0, 0.0, &[]);
        assert!(b.add_arc(x, x, 1).is_err());
        assert!(b.add_arc(x, NodeId(9), 1).is_err());
        let y = b.add_node(1.0, 0.0, &[]);
        assert!(b.add_arc(x, y, 0).is_err());
    }
}
