//! The coordinator's copy of Alg. 2's seed test.
//!
//! A fragment's search for `R(kw, r)` starts from the fragment's nodes
//! bearing `kw` and from the DL pairs of `kw`'s keyword-portal list within
//! `r` (§3.7); its search for `R(l, r)` starts from `l` itself when `l` is
//! in the fragment, else from the pairs of `l`'s DL entry within `r`
//! (Lemma 1: a fragment neither holding `l` nor with a portal within `r` of
//! it covers nothing of `R(l, r)`). Whether there is any such seed is one
//! comparison against one number: per (fragment, keyword), 0 when a node of
//! the fragment bears the keyword, else the least distance in its
//! keyword-portal list; per (fragment, node), 0 when the node is the
//! fragment's, else the least distance in its DL entry there. The
//! coordinator holds those tables and leaves out every (query, fragment)
//! pair with a seedless conjunct ([`QueryPlan::can_answer`]): the
//! fragment's worker would answer it ∅ before fetching anything.

use std::collections::HashMap;

use disks_partition::{FragmentId, Partitioning};
use disks_roadnet::{NodeId, RoadNetwork, INF};

use crate::dfunc::Term;
use crate::index::NpdIndex;
use crate::plan::QueryPlan;

/// The least seed distance of every (fragment, keyword) and every
/// (fragment, node), built from the indexes and the partitioning with no
/// search.
#[derive(Debug, Clone)]
pub struct SeedFloors {
    /// Keywords a row holds: the vocabulary's ids.
    width: usize,
    /// `floors[f · width + kw]`: 0 when a node of fragment `f` bears `kw`,
    /// else the least distance in `kw`'s keyword-portal list, [`INF`] when
    /// the list is empty (no radius seeds it).
    floors: Vec<u64>,
    /// The fragment of every node, by node id: a location seeds its own
    /// fragment at any radius.
    home: Vec<u32>,
    /// `dl[f]`: every node with a DL entry on fragment `f`, and the least
    /// distance in that entry. A node outside `f` with no entry seeds it at
    /// no radius.
    dl: Vec<HashMap<NodeId, u64>>,
}

impl SeedFloors {
    /// The tables of `indexes`, one a fragment of `partitioning` in
    /// fragment order, over `net`'s vocabulary.
    ///
    /// # Panics
    /// Panics if `indexes[i]` is not fragment `i`'s index.
    pub fn new(net: &RoadNetwork, partitioning: &Partitioning, indexes: &[NpdIndex]) -> Self {
        let width = net.vocab().len();
        let mut floors = vec![INF; indexes.len() * width];
        let mut dl = Vec::with_capacity(indexes.len());
        for (i, index) in indexes.iter().enumerate() {
            assert_eq!(index.fragment().index(), i, "indexes must be in fragment order");
            let row = &mut floors[i * width..(i + 1) * width];
            for (&kw, list) in &index.keyword_portals {
                row[kw.index()] = list.iter().map(|&(_, d)| d).min().unwrap_or(INF);
            }
            for &node in partitioning.nodes(index.fragment()) {
                for &kw in net.keywords(node) {
                    row[kw.index()] = 0;
                }
            }
            let least = |(node, list): (NodeId, &[(NodeId, u64)])| {
                list.iter().map(|&(_, d)| d).min().map(|d| (node, d))
            };
            dl.push(index.dl_entries().filter_map(least).collect());
        }
        SeedFloors { width, floors, home: partitioning.assignment().to_vec(), dl }
    }

    /// Whether a search for `term` within `r` on `fragment` starts from any
    /// node: `FragmentEngine::seed_count` is non-zero.
    fn seeded(&self, fragment: FragmentId, term: Term, r: u64) -> bool {
        let floor = match term {
            Term::Keyword(kw) if kw.index() < self.width => {
                self.floors[fragment.index() * self.width + kw.index()]
            }
            Term::Keyword(_) => INF,
            Term::Node(l) if self.home.get(l.index()) == Some(&fragment.0) => 0,
            Term::Node(l) => self.dl[fragment.index()].get(&l).copied().unwrap_or(INF),
        };
        floor != INF && floor <= r
    }

    /// Whether `fragment` can answer `plan` anything: no conjunct, keyword
    /// or location, is seedless there.
    pub fn can_answer(&self, plan: &QueryPlan, fragment: FragmentId) -> bool {
        plan.can_answer(|slot| self.seeded(fragment, slot.term, slot.radius))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfunc::DFunction;
    use crate::index::{build_all_indexes, DlScope, IndexConfig};
    use disks_partition::{MultilevelPartitioner, Partitioner};
    use disks_roadnet::generator::GridNetworkConfig;

    /// `tiny` in three fragments, bounded at 8 ē, with the DL of every node
    /// or of objects only.
    fn fixture(scope: DlScope) -> (RoadNetwork, Partitioning, Vec<NpdIndex>, SeedFloors) {
        let net = GridNetworkConfig::tiny(0x4F).generate();
        let p = MultilevelPartitioner::default().partition(&net, 3);
        let cfg = IndexConfig::with_max_r(8 * net.avg_edge_weight()).with_scope(scope);
        let indexes = build_all_indexes(&net, &p, &cfg);
        let floors = SeedFloors::new(&net, &p, &indexes);
        (net, p, indexes, floors)
    }

    /// Whether the floors leave `R(l, r)` on `fragment`.
    fn reaches(floors: &SeedFloors, l: NodeId, r: u64, fragment: FragmentId) -> bool {
        floors.can_answer(&QueryPlan::lower(&DFunction::single(Term::Node(l), r)), fragment)
    }

    /// A location seeds its own fragment at every radius, 0 included.
    #[test]
    fn a_location_seeds_its_own_fragment_at_any_radius() {
        for scope in [DlScope::ObjectsOnly, DlScope::AllNodes] {
            let (net, p, indexes, floors) = fixture(scope);
            for l in net.node_ids() {
                for r in [0, 1, indexes[0].max_r(), INF] {
                    assert!(reaches(&floors, l, r, p.fragment_of(l)), "{l:?} at {r}, {scope:?}");
                }
            }
        }
    }

    /// A location outside a fragment seeds it from the least distance of
    /// its DL entry there on, and not one unit below it. Some entry holds
    /// two distances, so a table of largest distances would refuse it at
    /// its least.
    #[test]
    fn a_location_seeds_another_fragment_from_its_least_dl_distance() {
        let mut spread = 0;
        for scope in [DlScope::ObjectsOnly, DlScope::AllNodes] {
            let (_, _, indexes, floors) = fixture(scope);
            for index in &indexes {
                for (l, list) in index.dl_entries() {
                    let least = list.iter().map(|&(_, d)| d).min().unwrap();
                    let most = list.iter().map(|&(_, d)| d).max().unwrap();
                    assert!(least > 0, "{l:?}: an external node at distance 0");
                    let at = |r| reaches(&floors, l, r, index.fragment());
                    assert!(at(least) && at(most) && at(INF), "{l:?} on {:?}", index.fragment());
                    assert!(!at(least - 1) && !at(0), "{l:?} on {:?}", index.fragment());
                    spread += usize::from(most > least);
                }
            }
        }
        assert!(spread > 0, "no DL entry holds two distances");
    }

    /// A location outside a fragment with no DL entry there seeds it at no
    /// radius, `maxR` and [`INF`] included.
    #[test]
    fn a_location_with_no_dl_entry_never_seeds_the_fragment() {
        let mut unlisted = 0;
        for scope in [DlScope::ObjectsOnly, DlScope::AllNodes] {
            let (net, p, indexes, floors) = fixture(scope);
            for index in &indexes {
                let f = index.fragment();
                for l in net.node_ids().filter(|&l| p.fragment_of(l) != f) {
                    if index.dl_entry(l).is_none() {
                        unlisted += 1;
                        for r in [0, index.max_r(), INF] {
                            assert!(!reaches(&floors, l, r, f), "{l:?} at {r} on {f:?}");
                        }
                    }
                }
            }
        }
        assert!(unlisted > 0, "every location has a DL entry on every fragment");
    }
}
