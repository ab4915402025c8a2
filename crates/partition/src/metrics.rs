//! Partition-quality metrics reported by the experiment harness.

use disks_roadnet::RoadNetwork;

use crate::fragment::Partitioning;

/// Quality summary of a partitioning.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionMetrics {
    /// Number of fragments.
    pub k: usize,
    /// Cross-fragment edges.
    pub cut_edges: usize,
    /// Cut edges as a fraction of all edges.
    pub cut_fraction: f64,
    /// Largest fragment size / ideal size.
    pub balance: f64,
    /// Smallest / largest fragment sizes.
    pub min_size: usize,
    pub max_size: usize,
    /// Total portal nodes across fragments (drives NPD-index build cost).
    pub total_portals: usize,
    /// Largest per-fragment portal count.
    pub max_portals: usize,
}

impl PartitionMetrics {
    pub fn compute(net: &RoadNetwork, p: &Partitioning) -> Self {
        let sizes: Vec<usize> = p.fragment_ids().map(|f| p.nodes(f).len()).collect();
        let portal_counts: Vec<usize> = p.fragment_ids().map(|f| p.portals(f).len()).collect();
        PartitionMetrics {
            k: p.num_fragments(),
            cut_edges: p.cut_edges(),
            cut_fraction: if net.num_edges() == 0 {
                0.0
            } else {
                p.cut_edges() as f64 / net.num_edges() as f64
            },
            balance: p.balance(),
            min_size: sizes.iter().copied().min().unwrap_or(0),
            max_size: sizes.iter().copied().max().unwrap_or(0),
            total_portals: portal_counts.iter().sum(),
            max_portals: portal_counts.iter().copied().max().unwrap_or(0),
        }
    }
}

impl std::fmt::Display for PartitionMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "k={} cut={} ({:.2}%) balance={:.3} sizes=[{}, {}] portals={} (max {})",
            self.k,
            self.cut_edges,
            self.cut_fraction * 100.0,
            self.balance,
            self.min_size,
            self.max_size,
            self.total_portals,
            self.max_portals
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MultilevelPartitioner, Partitioner};
    use disks_roadnet::generator::GridNetworkConfig;

    #[test]
    fn metrics_are_consistent() {
        let net = GridNetworkConfig::small(1).generate();
        let p = MultilevelPartitioner::default().partition(&net, 4);
        let m = PartitionMetrics::compute(&net, &p);
        assert_eq!(m.k, 4);
        assert_eq!(m.cut_edges, p.cut_edges());
        assert!(m.min_size <= m.max_size);
        assert!(m.cut_fraction > 0.0 && m.cut_fraction < 1.0);
        assert!(m.total_portals >= m.max_portals);
        // Each cut edge contributes at most 2 portals.
        assert!(m.total_portals <= 2 * m.cut_edges);
        let rendered = m.to_string();
        assert!(rendered.contains("k=4"));
    }
}
