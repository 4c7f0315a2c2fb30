//! k-nearest-neighbour regressor.
//!
//! Included as a PSA approximator baseline: it is simple and accurate but
//! shares the *prediction* complexity of the proximity-based detectors it
//! would replace, so it deliberately violates the paper's requirement that
//! "the chosen approximator's prediction cost should be lower than the
//! underlying unsupervised model" (§3.4). The ablation bench uses it to
//! demonstrate why tree ensembles are the right default.

use crate::{check_fit_inputs, Error, Regressor, Result};
use suod_linalg::{DistanceMetric, KnnIndex, Matrix};

/// k-NN regressor: predicts the mean target of the k nearest training rows.
///
/// # Example
///
/// ```
/// use suod_linalg::Matrix;
/// use suod_supervised::{KnnRegressor, Regressor};
///
/// # fn main() -> Result<(), suod_supervised::Error> {
/// let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![10.0]]).unwrap();
/// let mut m = KnnRegressor::new(2)?;
/// m.fit(&x, &[0.0, 1.0, 10.0])?;
/// let p = m.predict(&Matrix::from_rows(&[vec![0.4]]).unwrap())?;
/// assert!((p[0] - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct KnnRegressor {
    k: usize,
    index: Option<KnnIndex>,
    targets: Vec<f64>,
}

impl KnnRegressor {
    /// Creates a k-NN regressor.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `k == 0`.
    pub fn new(k: usize) -> Result<Self> {
        if k == 0 {
            return Err(Error::InvalidParameter("k must be >= 1".into()));
        }
        Ok(Self {
            k,
            index: None,
            targets: Vec::new(),
        })
    }

    /// The neighbourhood size.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Regressor for KnnRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        check_fit_inputs(x, y)?;
        self.index = Some(KnnIndex::build(x, DistanceMetric::Euclidean)?);
        self.targets = y.to_vec();
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        let index = self
            .index
            .as_ref()
            .ok_or(Error::NotFitted("KnnRegressor"))?;
        let neighbors = index.query_batch(x, self.k, 1)?;
        Ok(neighbors
            .into_iter()
            .map(|nn| {
                nn.iter().map(|n| self.targets[n.index]).sum::<f64>() / nn.len().max(1) as f64
            })
            .collect())
    }

    fn name(&self) -> &'static str {
        "knn_regressor"
    }

    fn snapshot_write(&self, w: &mut suod_linalg::SnapshotWriter) -> Result<()> {
        w.write_usize(self.k);
        match &self.index {
            Some(ix) => {
                w.write_bool(true);
                ix.snapshot_write(w);
            }
            None => w.write_bool(false),
        }
        w.write_f64s(&self.targets);
        Ok(())
    }
}

impl KnnRegressor {
    /// Reads a model written by [`Regressor::snapshot_write`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on truncated or malformed state.
    pub fn snapshot_read(r: &mut suod_linalg::SnapshotReader<'_>) -> Result<Self> {
        let k = r.read_usize()?;
        let index = if r.read_bool()? {
            Some(KnnIndex::snapshot_read(r, 1)?)
        } else {
            None
        };
        Ok(Self {
            k,
            index,
            targets: r.read_f64s()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_on_k1() {
        let x = Matrix::from_rows(&[vec![0.0], vec![5.0]]).unwrap();
        let mut m = KnnRegressor::new(1).unwrap();
        m.fit(&x, &[1.0, 9.0]).unwrap();
        assert_eq!(m.predict(&x).unwrap(), vec![1.0, 9.0]);
    }

    #[test]
    fn averages_k_neighbors() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![100.0]]).unwrap();
        let mut m = KnnRegressor::new(2).unwrap();
        m.fit(&x, &[0.0, 2.0, 50.0]).unwrap();
        let p = m
            .predict(&Matrix::from_rows(&[vec![0.5]]).unwrap())
            .unwrap();
        assert_eq!(p, vec![1.0]);
    }

    #[test]
    fn k_larger_than_train_clamps() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let mut m = KnnRegressor::new(10).unwrap();
        m.fit(&x, &[2.0, 4.0]).unwrap();
        let p = m.predict(&x).unwrap();
        assert_eq!(p, vec![3.0, 3.0]);
    }

    #[test]
    fn zero_k_rejected() {
        assert!(KnnRegressor::new(0).is_err());
    }

    #[test]
    fn not_fitted_error() {
        let m = KnnRegressor::new(3).unwrap();
        assert!(matches!(
            m.predict(&Matrix::zeros(1, 1)).unwrap_err(),
            Error::NotFitted(_)
        ));
    }

    #[test]
    fn dimension_mismatch_error() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let mut m = KnnRegressor::new(1).unwrap();
        m.fit(&x, &[0.0, 1.0]).unwrap();
        assert!(m.predict(&Matrix::zeros(1, 2)).is_err());
    }
}
