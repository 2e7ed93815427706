//! Network topologies: the paper's three-switch hardware triangle and
//! Google's B4 inter-datacenter backbone (used for the Fig 12 Mininet
//! experiment).

/// A node index within a topology.
pub type NodeIdx = usize;

/// An undirected network topology with named nodes and capacitated
/// links.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Node names.
    pub names: Vec<String>,
    /// Undirected links `(a, b, capacity_gbps)`, `a < b`.
    pub links: Vec<(NodeIdx, NodeIdx, f64)>,
}

impl Topology {
    /// Builds a topology from names and links.
    #[must_use]
    pub fn new(names: Vec<String>, links: Vec<(NodeIdx, NodeIdx, f64)>) -> Topology {
        let t = Topology { names, links };
        for &(a, b, cap) in &t.links {
            assert!(a < b, "links stored with a < b");
            assert!(b < t.names.len(), "link endpoint out of range");
            assert!(cap > 0.0, "capacity must be positive");
        }
        t
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True for the empty topology.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Neighbors of a node.
    #[must_use]
    pub fn neighbors(&self, n: NodeIdx) -> Vec<NodeIdx> {
        let mut out: Vec<NodeIdx> = self
            .links
            .iter()
            .filter_map(|&(a, b, _)| {
                if a == n {
                    Some(b)
                } else if b == n {
                    Some(a)
                } else {
                    None
                }
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Index of the link between two nodes, if present.
    #[must_use]
    pub fn link_between(&self, a: NodeIdx, b: NodeIdx) -> Option<usize> {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        self.links.iter().position(|&(x, y, _)| x == lo && y == hi)
    }

    /// A copy with one link removed (link-failure scenarios).
    #[must_use]
    pub fn without_link(&self, a: NodeIdx, b: NodeIdx) -> Topology {
        let idx = self
            .link_between(a, b)
            .expect("cannot fail a non-existent link");
        let mut links = self.links.clone();
        links.remove(idx);
        Topology {
            names: self.names.clone(),
            links,
        }
    }

    /// The paper's hardware testbed: three fully connected switches
    /// (s1, s2 from Vendor #1 and s3 from Vendor #3).
    #[must_use]
    pub fn triangle() -> Topology {
        Topology::new(
            vec!["s1".into(), "s2".into(), "s3".into()],
            vec![(0, 1, 10.0), (0, 2, 10.0), (1, 2, 10.0)],
        )
    }

    /// Google's B4 inter-datacenter WAN as published in the B4 paper
    /// (SIGCOMM 2013, Fig 1): 12 sites, 19 inter-site links.
    #[must_use]
    pub fn b4() -> Topology {
        let names: Vec<String> = [
            "us-west-1",    // 0
            "us-west-2",    // 1
            "us-west-3",    // 2
            "us-central-1", // 3
            "us-central-2", // 4
            "us-east-1",    // 5
            "us-east-2",    // 6
            "europe-1",     // 7
            "europe-2",     // 8
            "asia-1",       // 9
            "asia-2",       // 10
            "asia-3",       // 11
        ]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
        let links = vec![
            (0, 1, 100.0),
            (0, 2, 100.0),
            (1, 2, 100.0),
            (1, 3, 100.0),
            (2, 4, 100.0),
            (3, 4, 100.0),
            (3, 5, 100.0),
            (4, 6, 100.0),
            (5, 6, 100.0),
            (5, 7, 100.0),
            (6, 8, 100.0),
            (7, 8, 100.0),
            (0, 9, 100.0),
            (2, 10, 100.0),
            (9, 10, 100.0),
            (9, 11, 100.0),
            (10, 11, 100.0),
            (7, 11, 100.0),
            (4, 5, 100.0),
        ];
        Topology::new(names, links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_is_fully_connected() {
        let t = Topology::triangle();
        assert_eq!(t.len(), 3);
        assert_eq!(t.links.len(), 3);
        for n in 0..3 {
            assert_eq!(t.neighbors(n).len(), 2);
        }
    }

    #[test]
    fn b4_has_twelve_sites_nineteen_links() {
        let t = Topology::b4();
        assert_eq!(t.len(), 12);
        assert_eq!(t.links.len(), 19);
        // Connected: BFS reaches every node.
        let mut seen = vec![false; t.len()];
        let mut stack = vec![0];
        seen[0] = true;
        while let Some(n) = stack.pop() {
            for m in t.neighbors(n) {
                if !seen[m] {
                    seen[m] = true;
                    stack.push(m);
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "B4 must be connected");
    }

    #[test]
    fn link_removal() {
        let t = Topology::triangle();
        let broken = t.without_link(0, 1);
        assert_eq!(broken.links.len(), 2);
        assert!(broken.link_between(0, 1).is_none());
        assert!(broken.link_between(1, 0).is_none());
        assert!(broken.link_between(0, 2).is_some());
    }

    #[test]
    #[should_panic(expected = "non-existent link")]
    fn removing_missing_link_panics() {
        let mut t = Topology::triangle();
        t = t.without_link(0, 1);
        let _ = t.without_link(0, 1);
    }

    #[test]
    fn link_between_is_symmetric() {
        let t = Topology::b4();
        assert_eq!(t.link_between(1, 0), t.link_between(0, 1));
    }
}
