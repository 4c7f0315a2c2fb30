//! KD-tree for exact k-nearest-neighbour search.
//!
//! Brute-force kNN costs `O(n d)` per query; for the low-dimensional
//! datasets in the paper's benchmark suite (Annthyroid d=6, Shuttle d=9,
//! PageBlock d=10, ...) a KD-tree answers the same queries in roughly
//! `O(log n)` expected time. [`KnnIndex`](crate::distance::KnnIndex)
//! selects this backend automatically when the dimensionality is at or
//! below the configurable crossover
//! ([`KernelConfig::kdtree_crossover_dim`](crate::KernelConfig), default
//! [`DEFAULT_KDTREE_CROSSOVER_DIM`](crate::DEFAULT_KDTREE_CROSSOVER_DIM),
//! tuned from the committed `BENCH_kernels.json` sweep); results are
//! exact and identical to brute force for every supported metric
//! (per-axis distance lower-bounds every Lp distance, so
//! branch-and-bound pruning is safe).

use crate::distance::{DistanceMetric, Neighbor};
use crate::{Error, Matrix, Result};

const LEAF_SIZE: usize = 16;

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        /// Range into `order` holding this leaf's point ids.
        start: usize,
        end: usize,
    },
    Split {
        axis: usize,
        value: f64,
        left: usize,
        right: usize,
    },
}

/// Exact KD-tree over the rows of a matrix.
///
/// # Example
///
/// ```
/// use suod_linalg::kdtree::KdTree;
/// use suod_linalg::{DistanceMetric, Matrix};
///
/// # fn main() -> Result<(), suod_linalg::Error> {
/// let pts = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 0.0], vec![5.0, 5.0]])?;
/// let tree = KdTree::build(&pts, DistanceMetric::Euclidean)?;
/// let nn = tree.query(&[0.9, 0.1], 1);
/// assert_eq!(nn[0].index, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct KdTree {
    points: Matrix,
    metric: DistanceMetric,
    nodes: Vec<Node>,
    /// Point ids, permuted so each leaf owns a contiguous range.
    order: Vec<usize>,
}

impl KdTree {
    /// Builds a tree over the rows of `points`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Empty`] when `points` has no rows.
    pub fn build(points: &Matrix, metric: DistanceMetric) -> Result<Self> {
        let n = points.nrows();
        if n == 0 {
            return Err(Error::Empty("KdTree::build"));
        }
        let mut tree = Self {
            points: points.clone(),
            metric,
            nodes: Vec::with_capacity(2 * n / LEAF_SIZE + 2),
            order: (0..n).collect(),
        };
        let mut order = std::mem::take(&mut tree.order);
        tree.build_node(&mut order, 0);
        tree.order = order;
        Ok(tree)
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.nrows()
    }

    /// Always `false` (construction rejects empty inputs).
    pub fn is_empty(&self) -> bool {
        self.points.nrows() == 0
    }

    /// Recursively splits `order[start..]`; returns the node id.
    fn build_node(&mut self, order: &mut [usize], offset: usize) -> usize {
        if order.len() <= LEAF_SIZE {
            let id = self.nodes.len();
            self.nodes.push(Node::Leaf {
                start: offset,
                end: offset + order.len(),
            });
            return id;
        }
        // Split on the widest axis at the median.
        let axis = self.widest_axis(order);
        let mid = order.len() / 2;
        order.select_nth_unstable_by(mid, |&a, &b| {
            self.points
                .get(a, axis)
                .partial_cmp(&self.points.get(b, axis))
                .expect("finite coordinates")
        });
        let value = self.points.get(order[mid], axis);

        let id = self.nodes.len();
        self.nodes.push(Node::Leaf { start: 0, end: 0 }); // placeholder
        let (lo, hi) = order.split_at_mut(mid);
        let left = self.build_node(lo, offset);
        let right = self.build_node(hi, offset + mid);
        self.nodes[id] = Node::Split {
            axis,
            value,
            left,
            right,
        };
        id
    }

    fn widest_axis(&self, order: &[usize]) -> usize {
        let d = self.points.ncols();
        let mut best_axis = 0;
        let mut best_spread = f64::NEG_INFINITY;
        for axis in 0..d {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &i in order {
                let v = self.points.get(i, axis);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if hi - lo > best_spread {
                best_spread = hi - lo;
                best_axis = axis;
            }
        }
        best_axis
    }

    /// The `k` nearest neighbours of `query`, sorted by ascending distance
    /// with ties broken by index — bit-identical to brute-force search.
    ///
    /// # Panics
    ///
    /// Panics when `query.len()` differs from the indexed dimensionality.
    pub fn query(&self, query: &[f64], k: usize) -> Vec<Neighbor> {
        assert_eq!(
            query.len(),
            self.points.ncols(),
            "query dimensionality must match the index"
        );
        let k = k.min(self.len());
        if k == 0 {
            return Vec::new();
        }
        let mut best: Vec<Neighbor> = Vec::with_capacity(k + 1);
        self.search(0, query, k, &mut best);
        best
    }

    fn search(&self, node_id: usize, query: &[f64], k: usize, best: &mut Vec<Neighbor>) {
        match self.nodes[node_id] {
            Node::Leaf { start, end } => {
                for &i in &self.order[start..end] {
                    let distance = self.metric.distance(query, self.points.row(i));
                    let candidate = Neighbor { index: i, distance };
                    // Insert in sorted order (distance, then index).
                    let pos = best
                        .binary_search_by(|probe| {
                            probe
                                .distance
                                .partial_cmp(&candidate.distance)
                                .expect("finite distances")
                                .then(probe.index.cmp(&candidate.index))
                        })
                        .unwrap_or_else(|p| p);
                    if pos < k {
                        best.insert(pos, candidate);
                        best.truncate(k);
                    }
                }
            }
            Node::Split {
                axis,
                value,
                left,
                right,
            } => {
                let (near, far) = if query[axis] <= value {
                    (left, right)
                } else {
                    (right, left)
                };
                self.search(near, query, k, best);
                // The per-axis gap lower-bounds every Lp distance, so the
                // far side can only matter when the gap beats our worst.
                let gap = (query[axis] - value).abs();
                let worst = best.last().map_or(f64::INFINITY, |n| n.distance);
                if best.len() < k || gap <= worst {
                    self.search(far, query, k, best);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::KnnIndex;
    use crate::KernelConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * d).map(|_| rng.random_range(-10.0..10.0)).collect();
        Matrix::from_vec(n, d, data).unwrap()
    }

    /// Exact config with the KD-tree disabled.
    fn brute_force() -> KernelConfig {
        KernelConfig::default().with_kdtree_crossover_dim(0)
    }

    #[test]
    fn matches_brute_force_exactly() {
        for (n, d) in [(50usize, 2usize), (300, 3), (500, 8)] {
            let pts = random_points(n, d, 42 + n as u64);
            let tree = KdTree::build(&pts, DistanceMetric::Euclidean).unwrap();
            let brute =
                KnnIndex::build_with(&pts, DistanceMetric::Euclidean, brute_force(), 1).unwrap();
            let queries = random_points(20, d, 7);
            for q in 0..queries.nrows() {
                let a = tree.query(queries.row(q), 5);
                let b = brute.query(queries.row(q), 5);
                assert_eq!(a, b, "n={n} d={d} q={q}");
            }
        }
    }

    #[test]
    fn matches_brute_force_for_all_metrics() {
        let pts = random_points(200, 4, 3);
        let queries = random_points(10, 4, 9);
        for metric in [
            DistanceMetric::Euclidean,
            DistanceMetric::Manhattan,
            DistanceMetric::Minkowski(3.0),
        ] {
            let tree = KdTree::build(&pts, metric).unwrap();
            let brute = KnnIndex::build_with(&pts, metric, brute_force(), 1).unwrap();
            for q in 0..queries.nrows() {
                assert_eq!(
                    tree.query(queries.row(q), 7),
                    brute.query(queries.row(q), 7),
                    "{metric:?}"
                );
            }
        }
    }

    #[test]
    fn k_clamps_and_zero_k() {
        let pts = random_points(10, 2, 0);
        let tree = KdTree::build(&pts, DistanceMetric::Euclidean).unwrap();
        assert_eq!(tree.query(&[0.0, 0.0], 50).len(), 10);
        assert!(tree.query(&[0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn duplicate_points_handled() {
        let mut rows = vec![vec![1.0, 1.0]; 40];
        rows.push(vec![2.0, 2.0]);
        let pts = Matrix::from_rows(&rows).unwrap();
        let tree = KdTree::build(&pts, DistanceMetric::Euclidean).unwrap();
        let nn = tree.query(&[1.0, 1.0], 3);
        assert_eq!(nn.len(), 3);
        assert!(nn.iter().all(|n| n.distance == 0.0));
        // Tie-break by index: the smallest three ids.
        assert_eq!(
            nn.iter().map(|n| n.index).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn empty_rejected() {
        assert!(KdTree::build(&Matrix::zeros(0, 2), DistanceMetric::Euclidean).is_err());
    }

    #[test]
    fn single_point_tree() {
        let pts = Matrix::from_rows(&[vec![3.0, 4.0]]).unwrap();
        let tree = KdTree::build(&pts, DistanceMetric::Euclidean).unwrap();
        let nn = tree.query(&[0.0, 0.0], 1);
        assert_eq!(nn[0].index, 0);
        assert!((nn[0].distance - 5.0).abs() < 1e-12);
    }
}
