//! One-dimensional RTT clustering.
//!
//! Algorithm 1 clusters probe round-trip times "to determine the number
//! of flow table layers — each cluster corresponds to one layer" (§5.2).
//! Path-delay clusters are tight and widely separated (Fig 2/Fig 5), so a
//! gap-based split is the primary method; a k-means variant is provided
//! for the clustering ablation bench.

/// A clustering of scalar samples into ordered groups (ascending center).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Clustering {
    /// Cluster centers, ascending.
    pub centers: Vec<f64>,
    /// Decision boundaries between adjacent clusters (`len = k - 1`).
    pub boundaries: Vec<f64>,
    /// Cluster population counts.
    pub sizes: Vec<usize>,
}

impl Clustering {
    /// Number of clusters.
    #[must_use]
    pub fn k(&self) -> usize {
        self.centers.len()
    }

    /// Index of the cluster a value belongs to.
    #[must_use]
    pub fn classify(&self, v: f64) -> usize {
        for (i, b) in self.boundaries.iter().enumerate() {
            if v < *b {
                return i;
            }
        }
        self.centers.len().saturating_sub(1)
    }

    /// True if `v` falls in cluster `idx`.
    #[must_use]
    pub fn within(&self, v: f64, idx: usize) -> bool {
        self.classify(v) == idx
    }
}

/// Gap-based clustering: sort the samples and split wherever an adjacent
/// gap is at least `gap_factor` times the median gap *and* at least
/// `min_abs_gap`. Robust for the tight, well-separated latency clusters
/// switches produce.
#[must_use]
pub fn cluster_by_gaps(values: &[f64], gap_factor: f64, min_abs_gap: f64) -> Clustering {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    if sorted.is_empty() {
        return Clustering {
            centers: vec![],
            boundaries: vec![],
            sizes: vec![],
        };
    }
    if sorted.len() == 1 {
        return Clustering {
            centers: vec![sorted[0]],
            boundaries: vec![],
            sizes: vec![1],
        };
    }
    let mut gaps: Vec<f64> = sorted.windows(2).map(|w| w[1] - w[0]).collect();
    let mut gaps_sorted = gaps.clone();
    gaps_sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median_gap = gaps_sorted[gaps_sorted.len() / 2];
    let threshold = (median_gap * gap_factor).max(min_abs_gap);

    let mut boundaries = Vec::new();
    let mut groups: Vec<Vec<f64>> = vec![vec![sorted[0]]];
    for (i, gap) in gaps.drain(..).enumerate() {
        if gap > threshold {
            boundaries.push((sorted[i] + sorted[i + 1]) / 2.0);
            groups.push(Vec::new());
        }
        groups.last_mut().expect("non-empty").push(sorted[i + 1]);
    }
    // Merge runt clusters: a handful of tail samples separated by an
    // unlucky gap is jitter, not a flow-table layer. Anything smaller
    // than 2 % of the sample (and at least 3 points) merges into its
    // nearest neighbour.
    let min_size = (sorted.len() / 50).max(3).min(sorted.len());
    while let Some(idx) = groups
        .iter()
        .position(|g| g.len() < min_size)
        .filter(|_| groups.len() > 1)
    {
        let center = |g: &Vec<f64>| g.iter().sum::<f64>() / g.len() as f64;
        let runt_center = center(&groups[idx]);
        let left_dist = if idx > 0 {
            (runt_center - center(&groups[idx - 1])).abs()
        } else {
            f64::INFINITY
        };
        let right_dist = if idx + 1 < groups.len() {
            (center(&groups[idx + 1]) - runt_center).abs()
        } else {
            f64::INFINITY
        };
        let runt = groups.remove(idx);
        if left_dist <= right_dist {
            groups[idx - 1].extend(runt);
            boundaries.remove(idx - 1);
        } else {
            groups[idx].extend(runt);
            boundaries.remove(idx);
        }
    }
    let centers: Vec<f64> = groups
        .iter()
        .map(|g| g.iter().sum::<f64>() / g.len() as f64)
        .collect();
    let sizes = groups.iter().map(Vec::len).collect();
    Clustering {
        centers,
        boundaries,
        sizes,
    }
}

/// Default parameters suited to millisecond-scale switch RTTs: a split
/// requires a gap 8× the median jitter and at least 0.15 ms.
#[must_use]
pub fn cluster_rtts(values_ms: &[f64]) -> Clustering {
    cluster_by_gaps(values_ms, 8.0, 0.15)
}

/// Lloyd's k-means in one dimension with deterministic farthest-point
/// seeding (avoids the local optima quantile seeding falls into when
/// clusters are unevenly sized). Returns the clustering and the
/// within-cluster sum of squares.
#[must_use]
pub fn kmeans_1d(values: &[f64], k: usize) -> (Clustering, f64) {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    if sorted.is_empty() || k == 0 {
        return (
            Clustering {
                centers: vec![],
                boundaries: vec![],
                sizes: vec![],
            },
            0.0,
        );
    }
    let k = k.min(sorted.len());
    // Farthest-point seeding: start at the minimum, then repeatedly add
    // the sample farthest from its nearest existing seed.
    let mut centers: Vec<f64> = vec![sorted[0]];
    while centers.len() < k {
        let far = sorted
            .iter()
            .copied()
            .max_by(|a, b| {
                let da = centers
                    .iter()
                    .map(|c| (a - c).abs())
                    .fold(f64::INFINITY, f64::min);
                let db = centers
                    .iter()
                    .map(|c| (b - c).abs())
                    .fold(f64::INFINITY, f64::min);
                da.partial_cmp(&db).expect("finite")
            })
            .expect("non-empty");
        centers.push(far);
    }
    centers.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mut assign = vec![0usize; sorted.len()];
    for _ in 0..64 {
        let mut changed = false;
        for (i, v) in sorted.iter().enumerate() {
            let best = centers
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    (*v - **a)
                        .abs()
                        .partial_cmp(&(*v - **b).abs())
                        .expect("finite")
                })
                .map(|(j, _)| j)
                .expect("k >= 1");
            if assign[i] != best {
                assign[i] = best;
                changed = true;
            }
        }
        for (j, c) in centers.iter_mut().enumerate() {
            let members: Vec<f64> = sorted
                .iter()
                .zip(&assign)
                .filter(|(_, a)| **a == j)
                .map(|(v, _)| *v)
                .collect();
            if !members.is_empty() {
                *c = members.iter().sum::<f64>() / members.len() as f64;
            }
        }
        if !changed {
            break;
        }
    }
    let wcss: f64 = sorted
        .iter()
        .zip(&assign)
        .map(|(v, a)| (v - centers[*a]).powi(2))
        .sum();
    // Drop empty clusters, sort ascending, compute boundaries and sizes.
    let mut pairs: Vec<(f64, usize)> = centers
        .iter()
        .enumerate()
        .map(|(j, c)| (*c, assign.iter().filter(|a| **a == j).count()))
        .filter(|(_, n)| *n > 0)
        .collect();
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    let centers: Vec<f64> = pairs.iter().map(|(c, _)| *c).collect();
    let sizes: Vec<usize> = pairs.iter().map(|(_, n)| *n).collect();
    let boundaries: Vec<f64> = centers.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect();
    (
        Clustering {
            centers,
            boundaries,
            sizes,
        },
        wcss,
    )
}

/// Elbow-selected k-means: accepts `k` only while the WCSS improvement
/// over `k-1` exceeds 75 %. Splitting a genuine pair of well-separated
/// latency clusters removes ≳95 % of the WCSS, while splitting a single
/// Gaussian cluster in half removes only ~64 % — so 75 % cleanly
/// separates real layers from jitter. The k-means arm of the clustering
/// ablation.
#[must_use]
pub fn kmeans_auto(values: &[f64], max_k: usize) -> Clustering {
    let (mut best, mut prev_wcss) = kmeans_1d(values, 1);
    for k in 2..=max_k {
        let (c, wcss) = kmeans_1d(values, k);
        if prev_wcss <= f64::EPSILON {
            break;
        }
        if (prev_wcss - wcss) / prev_wcss < 0.75 {
            break;
        }
        best = c;
        prev_wcss = wcss;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::rng::DetRng;

    fn mixed_sample(centers: &[f64], per: usize, jitter: f64, seed: u64) -> Vec<f64> {
        let mut rng = DetRng::new(seed);
        let mut out = Vec::new();
        for &c in centers {
            for _ in 0..per {
                out.push(rng.normal(c, jitter).max(0.0));
            }
        }
        out
    }

    #[test]
    fn gap_clustering_finds_three_tiers() {
        // Fig 2(b)-like: 0.665 / 3.7 / 7.5 ms.
        let vals = mixed_sample(&[0.665, 3.7, 7.5], 200, 0.05, 1);
        let c = cluster_rtts(&vals);
        assert_eq!(c.k(), 3, "centers: {:?}", c.centers);
        assert!((c.centers[0] - 0.665).abs() < 0.05);
        assert!((c.centers[1] - 3.7).abs() < 0.1);
        assert!((c.centers[2] - 7.5).abs() < 0.15);
        assert_eq!(c.sizes.iter().sum::<usize>(), 600);
    }

    #[test]
    fn gap_clustering_single_cluster() {
        let vals = mixed_sample(&[0.4], 300, 0.03, 2);
        let c = cluster_rtts(&vals);
        assert_eq!(c.k(), 1);
    }

    #[test]
    fn classify_and_within() {
        let vals = mixed_sample(&[1.0, 10.0], 100, 0.05, 3);
        let c = cluster_rtts(&vals);
        assert_eq!(c.k(), 2);
        assert_eq!(c.classify(0.9), 0);
        assert_eq!(c.classify(9.5), 1);
        assert!(c.within(1.1, 0));
        assert!(!c.within(1.1, 1));
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let c = cluster_rtts(&[]);
        assert_eq!(c.k(), 0);
        let c = cluster_rtts(&[5.0]);
        assert_eq!(c.k(), 1);
        assert_eq!(c.classify(123.0), 0);
    }

    #[test]
    fn kmeans_matches_gap_method_on_separated_data() {
        let vals = mixed_sample(&[0.5, 4.0, 8.0], 150, 0.05, 4);
        let g = cluster_rtts(&vals);
        let k = kmeans_auto(&vals, 5);
        assert_eq!(g.k(), 3);
        assert_eq!(k.k(), 3);
        for (a, b) in g.centers.iter().zip(&k.centers) {
            assert!((a - b).abs() < 0.1, "gap {a} vs kmeans {b}");
        }
    }

    #[test]
    fn kmeans_exact_k() {
        let vals = mixed_sample(&[1.0, 5.0], 100, 0.05, 5);
        let (c, wcss) = kmeans_1d(&vals, 2);
        assert_eq!(c.k(), 2);
        assert!(wcss < 2.0);
    }

    #[test]
    fn non_finite_values_are_ignored() {
        let mut vals = mixed_sample(&[1.0], 50, 0.02, 6);
        vals.push(f64::NAN);
        vals.push(f64::INFINITY);
        let c = cluster_rtts(&vals);
        assert_eq!(c.k(), 1);
        assert_eq!(c.sizes[0], 50);
    }
}
