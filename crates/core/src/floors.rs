//! The coordinator's copy of Alg. 2's seed test.
//!
//! A fragment's search for `R(kw, r)` starts from the fragment's nodes
//! bearing `kw` and from the DL pairs of `kw`'s keyword-portal list within
//! `r` (§3.7). Whether there is any such seed is one comparison against one
//! number per (fragment, keyword): 0 when a node of the fragment bears the
//! keyword, else the least distance in its keyword-portal list. The
//! coordinator holds that table and leaves out every (query, fragment) pair
//! with a seedless conjunct ([`QueryPlan::can_answer`]): the fragment's
//! worker would answer it ∅ before fetching anything.

use disks_partition::{FragmentId, Partitioning};
use disks_roadnet::{KeywordId, RoadNetwork, INF};

use crate::dfunc::Term;
use crate::index::NpdIndex;
use crate::plan::QueryPlan;

/// The least seed distance of every (fragment, keyword), built from the
/// indexes with no search.
#[derive(Debug, Clone)]
pub struct SeedFloors {
    /// Keywords a row holds: the vocabulary's ids.
    width: usize,
    /// `floors[f · width + kw]`: 0 when a node of fragment `f` bears `kw`,
    /// else the least distance in `kw`'s keyword-portal list, [`INF`] when
    /// the list is empty (no radius seeds it).
    floors: Vec<u64>,
}

impl SeedFloors {
    /// The table of `indexes`, one a fragment of `partitioning` in fragment
    /// order, over `net`'s vocabulary.
    ///
    /// # Panics
    /// Panics if `indexes[i]` is not fragment `i`'s index.
    pub fn new(net: &RoadNetwork, partitioning: &Partitioning, indexes: &[NpdIndex]) -> Self {
        let width = net.vocab().len();
        let mut floors = vec![INF; indexes.len() * width];
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
        }
        SeedFloors { width, floors }
    }

    /// Whether a search for keyword `kw` within `r` on `fragment` starts
    /// from any node: `FragmentEngine::seed_count` is non-zero.
    fn seeded(&self, fragment: FragmentId, kw: KeywordId, r: u64) -> bool {
        let floor = if kw.index() < self.width {
            self.floors[fragment.index() * self.width + kw.index()]
        } else {
            INF
        };
        floor != INF && floor <= r
    }

    /// Whether `fragment` can answer `plan` anything: no keyword conjunct
    /// is seedless there. A `Term::Node` conjunct is taken as seeded.
    pub fn can_answer(&self, plan: &QueryPlan, fragment: FragmentId) -> bool {
        plan.can_answer(|slot| match slot.term {
            Term::Keyword(kw) => self.seeded(fragment, kw, slot.radius),
            Term::Node(_) => true,
        })
    }
}
