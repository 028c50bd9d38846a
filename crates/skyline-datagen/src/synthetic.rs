//! Synthetic numeric + nominal data in the style of the paper's generator.
//!
//! Numeric dimensions follow the three classic models of Börzsönyi, Kossmann and Stocker
//! ("The skyline operator"):
//!
//! * **independent** — every dimension uniform in `[0, 1]`;
//! * **correlated** — points cluster around the diagonal (a point good in one dimension tends
//!   to be good in all), which produces very small skylines;
//! * **anti-correlated** — points cluster around the anti-diagonal plane `Σ xᵢ ≈ m/2` (a point
//!   good in one dimension tends to be bad in the others), which produces large skylines and
//!   is the workload the paper reports in detail.
//!
//! Nominal dimensions draw value ids from a [`crate::zipf::Zipf`] distribution with skew
//! θ, so value id 0 is the most frequent — matching the paper's template choice "the most
//! frequent value is universally preferred".

use crate::zipf::Zipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skyline_core::{Dataset, Dimension, NominalDomain, Schema};

/// Correlation model of the numeric dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Distribution {
    /// Uniform, independent dimensions.
    Independent,
    /// Correlated dimensions (small skylines).
    Correlated,
    /// Anti-correlated dimensions (large skylines; the paper's reported setting).
    #[default]
    AntiCorrelated,
}

impl Distribution {
    /// Short lowercase name (used by the benchmark harness for labels and CLI parsing).
    pub fn name(&self) -> &'static str {
        match self {
            Distribution::Independent => "independent",
            Distribution::Correlated => "correlated",
            Distribution::AntiCorrelated => "anti-correlated",
        }
    }

    /// Parses a name produced by [`Distribution::name`] (also accepts a few common synonyms).
    pub fn parse(text: &str) -> Option<Self> {
        match text.to_ascii_lowercase().as_str() {
            "independent" | "indep" | "uniform" => Some(Distribution::Independent),
            "correlated" | "corr" => Some(Distribution::Correlated),
            "anti-correlated" | "anticorrelated" | "anti" => Some(Distribution::AntiCorrelated),
            _ => None,
        }
    }
}

/// Builds the schema used by the synthetic generator: `numeric_dims` numeric dimensions named
/// `n0, n1, …` followed by `nominal_dims` nominal dimensions named `c0, c1, …`, each with an
/// anonymous domain of `cardinality` values.
pub fn synthetic_schema(numeric_dims: usize, nominal_dims: usize, cardinality: usize) -> Schema {
    let mut dims = Vec::with_capacity(numeric_dims + nominal_dims);
    for i in 0..numeric_dims {
        dims.push(Dimension::numeric(format!("n{i}")));
    }
    for i in 0..nominal_dims {
        dims.push(Dimension::nominal(
            format!("c{i}"),
            NominalDomain::anonymous(cardinality),
        ));
    }
    Schema::new(dims).expect("generated dimension names are unique")
}

/// Generates a synthetic dataset.
///
/// * `n` — number of rows;
/// * `numeric_dims`, `nominal_dims`, `cardinality` — schema shape (Table 4 defaults are 3, 2, 20);
/// * `distribution` — correlation model of the numeric dimensions;
/// * `theta` — Zipf skew of the nominal dimensions (Table 4 default is 1.0);
/// * `seed` — RNG seed, so every experiment is reproducible.
pub fn generate(
    n: usize,
    numeric_dims: usize,
    nominal_dims: usize,
    cardinality: usize,
    distribution: Distribution,
    theta: f64,
    seed: u64,
) -> Dataset {
    let schema = synthetic_schema(numeric_dims, nominal_dims, cardinality);
    let mut rng = SmallRng::seed_from_u64(seed);

    let mut numeric_cols: Vec<Vec<f64>> = vec![Vec::with_capacity(n); numeric_dims];
    let mut row = vec![0.0f64; numeric_dims];
    for _ in 0..n {
        numeric_row(&mut rng, distribution, &mut row);
        for (col, &v) in numeric_cols.iter_mut().zip(&row) {
            col.push(v);
        }
    }

    let zipf = if nominal_dims > 0 {
        Some(Zipf::new(cardinality, theta))
    } else {
        None
    };
    let nominal_cols: Vec<Vec<u16>> = (0..nominal_dims)
        .map(|_| {
            zipf.as_ref()
                .expect("zipf built when nominal dims exist")
                .sample_many(&mut rng, n)
        })
        .collect();

    Dataset::from_columns(schema, numeric_cols, nominal_cols)
        .expect("generated columns are consistent")
}

/// Fills `out` with one numeric row drawn from `distribution`.
fn numeric_row<R: Rng + ?Sized>(rng: &mut R, distribution: Distribution, out: &mut [f64]) {
    let m = out.len();
    if m == 0 {
        return;
    }
    match distribution {
        Distribution::Independent => {
            for v in out.iter_mut() {
                *v = rng.gen();
            }
        }
        Distribution::Correlated => {
            // A common base level plus small independent jitter keeps all dimensions close to
            // each other, so a point that is good somewhere is good everywhere.
            let base: f64 = rng.gen();
            for v in out.iter_mut() {
                *v = clamp01(base + normalish(rng) * 0.05);
            }
        }
        Distribution::AntiCorrelated => {
            // Points concentrate around the plane Σ xᵢ = m/2 with large spread *within* the
            // plane: improvements in one dimension trade off against the others.
            let target = clamp01(0.5 + normalish(rng) * 0.05) * m as f64;
            // Split `target` across the dimensions with uniform weights.
            let mut weights: Vec<f64> = (0..m).map(|_| rng.gen::<f64>() + 1e-9).collect();
            let total: f64 = weights.iter().sum();
            for w in &mut weights {
                *w /= total;
            }
            for (v, w) in out.iter_mut().zip(&weights) {
                *v = clamp01(w * target);
            }
        }
    }
}

/// Cheap approximately-normal variate in roughly `[-3, 3]` (sum of uniforms, Irwin–Hall).
fn normalish<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let sum: f64 = (0..12).map(|_| rng.gen::<f64>()).sum();
    sum - 6.0
}

fn clamp01(v: f64) -> f64 {
    v.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_core::algo::bnl;
    use skyline_core::{DominanceContext, Template};

    #[test]
    fn schema_shape_matches_request() {
        let schema = synthetic_schema(3, 2, 20);
        assert_eq!(schema.numeric_count(), 3);
        assert_eq!(schema.nominal_count(), 2);
        assert_eq!(schema.nominal_cardinalities(), vec![20, 20]);
    }

    #[test]
    fn generate_is_deterministic_per_seed() {
        let a = generate(200, 3, 2, 10, Distribution::AntiCorrelated, 1.0, 42);
        let b = generate(200, 3, 2, 10, Distribution::AntiCorrelated, 1.0, 42);
        let c = generate(200, 3, 2, 10, Distribution::AntiCorrelated, 1.0, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 200);
    }

    #[test]
    fn values_stay_in_unit_interval_and_domain() {
        for dist in [
            Distribution::Independent,
            Distribution::Correlated,
            Distribution::AntiCorrelated,
        ] {
            let data = generate(500, 4, 2, 8, dist, 1.0, 7);
            for j in 0..4 {
                assert!(
                    data.point_ids()
                        .all(|p| (0.0..=1.0).contains(&data.numeric(p, j))),
                    "{dist:?}"
                );
            }
            for j in 0..2 {
                assert!(data.point_ids().all(|p| data.nominal(p, j) < 8), "{dist:?}");
            }
        }
    }

    #[test]
    fn zipf_makes_value_zero_most_frequent() {
        let data = generate(5_000, 1, 1, 10, Distribution::Independent, 1.0, 3);
        let freq = data.nominal_value_frequencies(0);
        assert_eq!(data.values_by_frequency(0)[0], 0);
        assert!(freq[0] > freq[5]);
    }

    #[test]
    fn anti_correlated_has_larger_skyline_than_correlated() {
        let n = 2_000;
        let sizes: Vec<usize> = [
            Distribution::Correlated,
            Distribution::Independent,
            Distribution::AntiCorrelated,
        ]
        .into_iter()
        .map(|dist| {
            let data = generate(n, 3, 0, 1, dist, 1.0, 11);
            let template = Template::empty(data.schema());
            let ctx = DominanceContext::for_template(&data, &template).unwrap();
            bnl::skyline(&ctx).len()
        })
        .collect();
        assert!(
            sizes[0] < sizes[1],
            "correlated skyline should be smaller than independent"
        );
        assert!(
            sizes[1] < sizes[2],
            "independent skyline should be smaller than anti-correlated"
        );
    }

    #[test]
    fn distribution_parse_roundtrip() {
        for dist in [
            Distribution::Independent,
            Distribution::Correlated,
            Distribution::AntiCorrelated,
        ] {
            assert_eq!(Distribution::parse(dist.name()), Some(dist));
        }
        assert_eq!(
            Distribution::parse("anti"),
            Some(Distribution::AntiCorrelated)
        );
        assert_eq!(Distribution::parse("nonsense"), None);
    }

    #[test]
    fn zero_nominal_dims_supported() {
        let data = generate(50, 2, 0, 5, Distribution::Independent, 1.0, 1);
        assert_eq!(data.schema().nominal_count(), 0);
        assert_eq!(data.len(), 50);
    }
}
