//! The road network `G(V, E, W, K, L)` (Definition 1 of the paper).
//!
//! Nodes are either *junctions* (no keywords) or *objects* (points of
//! interest carrying a keyword set). Edges are undirected with strictly
//! positive integer weights. The graph is stored in CSR form for cache-
//! friendly traversal, together with an inverted keyword → nodes index.

use std::collections::HashMap;

use bytes::{Buf, BufMut};

use crate::codec::{Decode, Encode};
use crate::dijkstra::Graph;
use crate::error::{DecodeError, RoadNetError};
use crate::vocab::{KeywordId, Vocabulary};

/// Dense node identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl Encode for NodeId {
    fn encode(&self, buf: &mut impl BufMut) {
        self.0.encode(buf);
    }
}
impl Decode for NodeId {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        Ok(NodeId(u32::decode(buf)?))
    }
}

/// Edge weight (road-segment length). Strictly positive.
pub type Weight = u32;

/// Incremental builder for a [`RoadNetwork`].
///
/// ```
/// use disks_roadnet::{RoadNetworkBuilder};
///
/// let mut b = RoadNetworkBuilder::new();
/// let a = b.add_node(0.0, 0.0, &["school"]);
/// let c = b.add_node(1.0, 0.0, &[]);
/// b.add_edge(a, c, 5).unwrap();
/// let g = b.build().unwrap();
/// assert_eq!(g.num_nodes(), 2);
/// assert_eq!(g.num_edges(), 1);
/// ```
#[derive(Debug, Default)]
pub struct RoadNetworkBuilder {
    coords: Vec<(f32, f32)>,
    node_keywords: Vec<Vec<KeywordId>>,
    edges: Vec<(u32, u32, Weight)>,
    vocab: Vocabulary,
}

impl RoadNetworkBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.coords.len()
    }

    /// Access the vocabulary being built (for pre-interning keywords).
    pub fn vocab_mut(&mut self) -> &mut Vocabulary {
        &mut self.vocab
    }

    /// Add a node at `(x, y)` with the given keyword strings. An empty slice
    /// makes it a junction node.
    pub fn add_node(&mut self, x: f32, y: f32, keywords: &[&str]) -> NodeId {
        let kws: Vec<KeywordId> = keywords.iter().map(|w| self.vocab.intern(w)).collect();
        self.add_node_with_ids(x, y, kws)
    }

    /// Add a node whose keywords are already interned ids.
    pub fn add_node_with_ids(&mut self, x: f32, y: f32, mut keywords: Vec<KeywordId>) -> NodeId {
        keywords.sort_unstable();
        keywords.dedup();
        let id = NodeId(u32::try_from(self.coords.len()).expect("node count exceeds u32::MAX"));
        self.coords.push((x, y));
        self.node_keywords.push(keywords);
        id
    }

    /// Add an undirected edge. Duplicate `(a, b)` pairs are collapsed at
    /// build time keeping the minimum weight.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, weight: Weight) -> Result<(), RoadNetError> {
        if a == b {
            return Err(RoadNetError::SelfLoop(a.0));
        }
        if weight == 0 {
            return Err(RoadNetError::InvalidWeight { a: a.0, b: b.0, weight });
        }
        let n = self.coords.len() as u32;
        if a.0 >= n {
            return Err(RoadNetError::UnknownNode(a.0));
        }
        if b.0 >= n {
            return Err(RoadNetError::UnknownNode(b.0));
        }
        let (lo, hi) = if a.0 < b.0 { (a.0, b.0) } else { (b.0, a.0) };
        self.edges.push((lo, hi, weight));
        Ok(())
    }

    /// Finalize into an immutable CSR [`RoadNetwork`].
    pub fn build(mut self) -> Result<RoadNetwork, RoadNetError> {
        let n = self.coords.len();
        // Deduplicate parallel edges, keeping the minimum weight (a longer
        // parallel road can never be on a shortest path).
        self.edges.sort_unstable();
        self.edges.dedup_by(|next, prev| {
            if next.0 == prev.0 && next.1 == prev.1 {
                prev.2 = prev.2.min(next.2);
                true
            } else {
                false
            }
        });

        let mut degree = vec![0u32; n];
        for &(a, b, _) in &self.edges {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u64;
        offsets.push(0u32);
        for &d in &degree {
            acc += u64::from(d);
            let off = u32::try_from(acc)
                .map_err(|_| RoadNetError::Validation("adjacency exceeds u32 offsets".into()))?;
            offsets.push(off);
        }
        let total = acc as usize;
        let mut adj_node = vec![0u32; total];
        let mut adj_weight = vec![0u32; total];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for &(a, b, w) in &self.edges {
            let ca = cursor[a as usize] as usize;
            adj_node[ca] = b;
            adj_weight[ca] = w;
            cursor[a as usize] += 1;
            let cb = cursor[b as usize] as usize;
            adj_node[cb] = a;
            adj_weight[cb] = w;
            cursor[b as usize] += 1;
        }

        // Keyword CSR + inverted index.
        let mut kw_offsets = Vec::with_capacity(n + 1);
        kw_offsets.push(0u32);
        let mut kw_pool = Vec::new();
        for kws in &self.node_keywords {
            kw_pool.extend_from_slice(kws);
            kw_offsets.push(
                u32::try_from(kw_pool.len())
                    .map_err(|_| RoadNetError::Validation("keyword pool exceeds u32".into()))?,
            );
        }
        let vocab_len = self.vocab.len();
        let mut inv: Vec<Vec<NodeId>> = vec![Vec::new(); vocab_len];
        for (node, kws) in self.node_keywords.iter().enumerate() {
            for &k in kws {
                if k.index() >= vocab_len {
                    return Err(RoadNetError::Validation(format!(
                        "node {node} references out-of-vocabulary keyword {k}"
                    )));
                }
                inv[k.index()].push(NodeId(node as u32));
            }
        }
        let mut inv_offsets = Vec::with_capacity(vocab_len + 1);
        inv_offsets.push(0u32);
        let mut inv_pool = Vec::new();
        for nodes in &inv {
            inv_pool.extend_from_slice(nodes);
            inv_offsets.push(inv_pool.len() as u32);
        }

        let total_weight: u64 = self.edges.iter().map(|&(_, _, w)| u64::from(w)).sum();
        let avg_edge_weight =
            if self.edges.is_empty() { 0 } else { (total_weight / self.edges.len() as u64).max(1) };
        let min_edge_weight = self.edges.iter().map(|&(_, _, w)| w).min().unwrap_or(1);

        Ok(RoadNetwork {
            coords: self.coords,
            adj_offsets: offsets,
            adj_node,
            adj_weight,
            kw_offsets,
            kw_pool,
            inv_offsets,
            inv_pool,
            vocab: self.vocab,
            num_edges: self.edges.len(),
            avg_edge_weight,
            min_edge_weight,
        })
    }
}

/// An immutable road network in CSR form.
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    coords: Vec<(f32, f32)>,
    adj_offsets: Vec<u32>,
    adj_node: Vec<u32>,
    adj_weight: Vec<u32>,
    kw_offsets: Vec<u32>,
    kw_pool: Vec<KeywordId>,
    inv_offsets: Vec<u32>,
    inv_pool: Vec<NodeId>,
    vocab: Vocabulary,
    num_edges: usize,
    avg_edge_weight: u64,
    /// Lightest edge, found at `build` (1 for an edgeless network).
    min_edge_weight: Weight,
}

impl RoadNetwork {
    pub fn num_nodes(&self) -> usize {
        self.coords.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Average edge weight `ē` (used for `maxR = λ·ē`, §3.7). At least 1.
    pub fn avg_edge_weight(&self) -> u64 {
        self.avg_edge_weight
    }

    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    pub fn coord(&self, node: NodeId) -> (f32, f32) {
        self.coords[node.index()]
    }

    /// Neighbors of `node` as `(neighbor, weight)` pairs.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        let lo = self.adj_offsets[node.index()] as usize;
        let hi = self.adj_offsets[node.index() + 1] as usize;
        self.adj_node[lo..hi].iter().zip(&self.adj_weight[lo..hi]).map(|(&n, &w)| (NodeId(n), w))
    }

    /// Degree of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        (self.adj_offsets[node.index() + 1] - self.adj_offsets[node.index()]) as usize
    }

    /// Weight of the edge `(a, b)` if it exists.
    pub fn edge_weight(&self, a: NodeId, b: NodeId) -> Option<Weight> {
        self.neighbors(a).find(|&(n, _)| n == b).map(|(_, w)| w)
    }

    /// True if the original graph has edge `(a, b)`.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.edge_weight(a, b).is_some()
    }

    /// The keyword set `L(node)`; empty for junctions.
    #[inline]
    pub fn keywords(&self, node: NodeId) -> &[KeywordId] {
        let lo = self.kw_offsets[node.index()] as usize;
        let hi = self.kw_offsets[node.index() + 1] as usize;
        &self.kw_pool[lo..hi]
    }

    /// True iff the node carries at least one keyword (an *object* node).
    #[inline]
    pub fn is_object(&self, node: NodeId) -> bool {
        self.kw_offsets[node.index()] != self.kw_offsets[node.index() + 1]
    }

    /// True iff `node` contains keyword `kw` (binary search; keyword lists
    /// are sorted at build time).
    #[inline]
    pub fn contains_keyword(&self, node: NodeId, kw: KeywordId) -> bool {
        self.keywords(node).binary_search(&kw).is_ok()
    }

    /// All nodes containing `kw`, via the inverted index.
    pub fn nodes_with_keyword(&self, kw: KeywordId) -> &[NodeId] {
        if kw.index() + 1 >= self.inv_offsets.len() {
            return &[];
        }
        let lo = self.inv_offsets[kw.index()] as usize;
        let hi = self.inv_offsets[kw.index() + 1] as usize;
        &self.inv_pool[lo..hi]
    }

    /// Number of object nodes.
    pub fn num_objects(&self) -> usize {
        (0..self.num_nodes()).filter(|&i| self.is_object(NodeId(i as u32))).count()
    }

    /// Iterate all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.coords.len() as u32).map(NodeId)
    }

    /// Iterate each undirected edge once as `(a, b, w)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        self.node_ids().flat_map(move |a| {
            self.neighbors(a).filter(move |&(b, _)| a < b).map(move |(b, w)| (a, b, w))
        })
    }

    /// Check structural invariants: symmetric adjacency, positive weights,
    /// sorted keyword lists, consistent inverted index.
    pub fn validate(&self) -> Result<(), RoadNetError> {
        for a in self.node_ids() {
            for (b, w) in self.neighbors(a) {
                if w == 0 {
                    return Err(RoadNetError::InvalidWeight { a: a.0, b: b.0, weight: w });
                }
                if b.index() >= self.num_nodes() {
                    return Err(RoadNetError::UnknownNode(b.0));
                }
                if self.edge_weight(b, a) != Some(w) {
                    return Err(RoadNetError::Validation(format!(
                        "asymmetric adjacency between {a} and {b}"
                    )));
                }
            }
            let kws = self.keywords(a);
            if kws.windows(2).any(|w| w[0] >= w[1]) {
                return Err(RoadNetError::Validation(format!(
                    "keyword list of {a} is not strictly sorted"
                )));
            }
            for &k in kws {
                if !self.nodes_with_keyword(k).contains(&a) {
                    return Err(RoadNetError::Validation(format!(
                        "inverted index missing ({k}, {a})"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Connected components as a node → component-id labelling plus count.
    pub fn connected_components(&self) -> (Vec<u32>, usize) {
        let n = self.num_nodes();
        let mut label = vec![u32::MAX; n];
        let mut count = 0u32;
        let mut stack = Vec::new();
        for start in 0..n {
            if label[start] != u32::MAX {
                continue;
            }
            label[start] = count;
            stack.push(start as u32);
            while let Some(u) = stack.pop() {
                for (v, _) in self.neighbors(NodeId(u)) {
                    if label[v.index()] == u32::MAX {
                        label[v.index()] = count;
                        stack.push(v.0);
                    }
                }
            }
            count += 1;
        }
        (label, count as usize)
    }

    /// True if the graph is connected (or empty).
    pub fn is_connected(&self) -> bool {
        self.connected_components().1 <= 1
    }

    /// Restrict to the largest connected component, renumbering nodes.
    /// Returns the new network and the old→new id mapping (None = dropped).
    pub fn largest_component(&self) -> (RoadNetwork, Vec<Option<NodeId>>) {
        let (label, count) = self.connected_components();
        if count <= 1 {
            let mapping = (0..self.num_nodes() as u32).map(|i| Some(NodeId(i))).collect();
            return (self.clone(), mapping);
        }
        let mut sizes = vec![0usize; count];
        for &l in &label {
            sizes[l as usize] += 1;
        }
        let keep =
            sizes.iter().enumerate().max_by_key(|&(_, s)| *s).map(|(i, _)| i as u32).unwrap_or(0);
        let mut builder = RoadNetworkBuilder::new();
        builder.vocab = self.vocab.clone();
        let mut mapping: Vec<Option<NodeId>> = vec![None; self.num_nodes()];
        for old in self.node_ids() {
            if label[old.index()] == keep {
                let (x, y) = self.coord(old);
                let new = builder.add_node_with_ids(x, y, self.keywords(old).to_vec());
                mapping[old.index()] = Some(new);
            }
        }
        for (a, b, w) in self.edges() {
            if let (Some(na), Some(nb)) = (mapping[a.index()], mapping[b.index()]) {
                builder.add_edge(na, nb, w).expect("remapped edge must be valid");
            }
        }
        let net = builder.build().expect("largest component rebuild cannot fail");
        (net, mapping)
    }

    /// Keyword frequency table: `freq[k] = |{nodes containing k}|`.
    pub fn keyword_frequencies(&self) -> Vec<usize> {
        (0..self.vocab.len()).map(|k| self.nodes_with_keyword(KeywordId(k as u32)).len()).collect()
    }

    /// Approximate in-memory size in bytes (CSR arrays + keyword pools).
    pub fn memory_bytes(&self) -> usize {
        self.coords.len() * std::mem::size_of::<(f32, f32)>()
            + self.adj_offsets.len() * 4
            + self.adj_node.len() * 4
            + self.adj_weight.len() * 4
            + self.kw_offsets.len() * 4
            + self.kw_pool.len() * 4
            + self.inv_offsets.len() * 4
            + self.inv_pool.len() * 4
    }
}

impl Graph for RoadNetwork {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.coords.len()
    }

    #[inline]
    fn min_arc_weight(&self) -> Weight {
        self.min_edge_weight
    }

    #[inline]
    fn for_each_neighbor(&self, node: u32, mut f: impl FnMut(u32, Weight)) {
        let lo = self.adj_offsets[node as usize] as usize;
        let hi = self.adj_offsets[node as usize + 1] as usize;
        for (&v, &w) in self.adj_node[lo..hi].iter().zip(&self.adj_weight[lo..hi]) {
            f(v, w);
        }
    }
}

impl Encode for RoadNetwork {
    fn encode(&self, buf: &mut impl BufMut) {
        self.vocab.encode(buf);
        crate::codec::encode_len(self.num_nodes(), buf);
        for i in 0..self.num_nodes() {
            let (x, y) = self.coords[i];
            x.encode(buf);
            y.encode(buf);
            let kws = self.keywords(NodeId(i as u32));
            crate::codec::encode_len(kws.len(), buf);
            for k in kws {
                k.encode(buf);
            }
        }
        crate::codec::encode_len(self.num_edges, buf);
        for (a, b, w) in self.edges() {
            a.encode(buf);
            b.encode(buf);
            w.encode(buf);
        }
    }
}

impl Decode for RoadNetwork {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        let vocab = Vocabulary::decode(buf)?;
        let n = crate::codec::decode_len(buf, "RoadNetwork.nodes")?;
        let mut builder = RoadNetworkBuilder::new();
        builder.vocab = vocab;
        for _ in 0..n {
            let x = f32::decode(buf)?;
            let y = f32::decode(buf)?;
            let nk = crate::codec::decode_len(buf, "RoadNetwork.node_keywords")?;
            let mut kws = Vec::with_capacity(nk);
            for _ in 0..nk {
                kws.push(KeywordId::decode(buf)?);
            }
            builder.add_node_with_ids(x, y, kws);
        }
        let m = crate::codec::decode_len(buf, "RoadNetwork.edges")?;
        for _ in 0..m {
            let a = NodeId::decode(buf)?;
            let b = NodeId::decode(buf)?;
            let w = u32::decode(buf)?;
            builder.add_edge(a, b, w).map_err(|_| DecodeError::LengthOutOfRange {
                context: "RoadNetwork.edge",
                len: u64::from(a.0),
            })?;
        }
        builder.build().map_err(|_| DecodeError::LengthOutOfRange {
            context: "RoadNetwork.build",
            len: n as u64,
        })
    }
}

/// Summary statistics in the shape of the paper's Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkStats {
    pub nodes: usize,
    pub objects: usize,
    pub edges: usize,
    pub keywords: usize,
    pub avg_edge_weight: u64,
}

impl RoadNetwork {
    pub fn stats(&self) -> NetworkStats {
        NetworkStats {
            nodes: self.num_nodes(),
            objects: self.num_objects(),
            edges: self.num_edges(),
            keywords: self.vocab.len(),
            avg_edge_weight: self.avg_edge_weight,
        }
    }
}

/// Build the small example network of the paper's Fig. 1 — handy in tests and
/// doc examples. Nodes: A(school), B(cinema), C(shop), D(museum), E(junction).
/// Weights are chosen so the paper's Examples 1–3 hold literally:
/// `SGKQ({museum, school}, 3) = {B, E}`, `R(school, 3) = {A, B, E}`, and
/// `RKQ(B, {museum}, 4) = {D}`.
pub fn figure1_network() -> (RoadNetwork, HashMap<&'static str, NodeId>) {
    let mut b = RoadNetworkBuilder::new();
    let a = b.add_node(0.0, 1.0, &["school"]);
    let bb = b.add_node(1.0, 1.0, &["cinema"]);
    let c = b.add_node(2.0, 1.0, &["shop"]);
    let d = b.add_node(1.0, 0.0, &["museum"]);
    let e = b.add_node(0.5, 0.5, &[]);
    b.add_edge(a, bb, 2).unwrap();
    b.add_edge(bb, c, 2).unwrap();
    b.add_edge(a, e, 1).unwrap();
    b.add_edge(e, d, 3).unwrap();
    b.add_edge(bb, d, 2).unwrap();
    let g = b.build().unwrap();
    let mut names = HashMap::new();
    names.insert("A", a);
    names.insert("B", bb);
    names.insert("C", c);
    names.insert("D", d);
    names.insert("E", e);
    (g, names)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructs_symmetric_csr() {
        let (g, names) = figure1_network();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 5);
        g.validate().unwrap();
        let a = names["A"];
        let b = names["B"];
        assert_eq!(g.edge_weight(a, b), Some(2));
        assert_eq!(g.edge_weight(b, a), Some(2));
        assert_eq!(g.degree(names["E"]), 2);
    }

    #[test]
    fn keywords_and_inverted_index_agree() {
        let (g, names) = figure1_network();
        let museum = g.vocab().get("museum").unwrap();
        assert!(g.contains_keyword(names["D"], museum));
        assert!(!g.contains_keyword(names["A"], museum));
        assert_eq!(g.nodes_with_keyword(museum), &[names["D"]]);
        assert!(g.is_object(names["A"]));
        assert!(!g.is_object(names["E"]));
        assert_eq!(g.num_objects(), 4);
    }

    #[test]
    fn duplicate_edges_keep_min_weight() {
        let mut b = RoadNetworkBuilder::new();
        let x = b.add_node(0.0, 0.0, &[]);
        let y = b.add_node(1.0, 0.0, &[]);
        b.add_edge(x, y, 9).unwrap();
        b.add_edge(y, x, 4).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(x, y), Some(4));
    }

    #[test]
    fn invalid_edges_rejected() {
        let mut b = RoadNetworkBuilder::new();
        let x = b.add_node(0.0, 0.0, &[]);
        let y = b.add_node(1.0, 0.0, &[]);
        assert!(matches!(b.add_edge(x, x, 1), Err(RoadNetError::SelfLoop(_))));
        assert!(matches!(b.add_edge(x, y, 0), Err(RoadNetError::InvalidWeight { .. })));
        assert!(matches!(b.add_edge(x, NodeId(99), 1), Err(RoadNetError::UnknownNode(99))));
    }

    #[test]
    fn duplicate_keywords_on_node_are_deduped() {
        let mut b = RoadNetworkBuilder::new();
        let x = b.add_node(0.0, 0.0, &["cafe", "CAFE", "cafe"]);
        let g = b.build().unwrap();
        assert_eq!(g.keywords(x).len(), 1);
    }

    #[test]
    fn connected_components_and_largest() {
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(0.0, 0.0, &["x"]);
        let c = b.add_node(1.0, 0.0, &[]);
        let d = b.add_node(5.0, 5.0, &["y"]);
        b.add_edge(a, c, 1).unwrap();
        let g = b.build().unwrap();
        let (_, count) = g.connected_components();
        assert_eq!(count, 2);
        assert!(!g.is_connected());
        let (big, mapping) = g.largest_component();
        assert_eq!(big.num_nodes(), 2);
        assert!(big.is_connected());
        assert!(mapping[a.index()].is_some());
        assert!(mapping[d.index()].is_none());
        // The vocabulary is preserved even if keyword "y" no longer occurs.
        assert!(big.vocab().get("y").is_some());
        assert!(big.nodes_with_keyword(big.vocab().get("y").unwrap()).is_empty());
    }

    #[test]
    fn avg_edge_weight_matches_paper_parameterization() {
        let (g, _) = figure1_network();
        // weights: 2+2+1+3+2 = 10 over 5 edges → 2
        assert_eq!(g.avg_edge_weight(), 2);
    }

    #[test]
    fn codec_round_trip_preserves_structure() {
        use bytes::BytesMut;
        let (g, names) = figure1_network();
        let mut buf = BytesMut::new();
        g.encode(&mut buf);
        let mut bytes = buf.freeze();
        let back = RoadNetwork::decode(&mut bytes).unwrap();
        assert_eq!(back.num_nodes(), g.num_nodes());
        assert_eq!(back.num_edges(), g.num_edges());
        assert_eq!(back.edge_weight(names["A"], names["B"]), Some(2));
        let school = back.vocab().get("school").unwrap();
        assert_eq!(back.nodes_with_keyword(school), &[names["A"]]);
        back.validate().unwrap();
    }

    #[test]
    fn stats_table1_shape() {
        let (g, _) = figure1_network();
        let s = g.stats();
        assert_eq!(s.nodes, 5);
        assert_eq!(s.objects, 4);
        assert_eq!(s.edges, 5);
        assert_eq!(s.keywords, 4);
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let (g, _) = figure1_network();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 5);
        for (a, b, _) in edges {
            assert!(a < b);
        }
    }
}
