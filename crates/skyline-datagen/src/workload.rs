//! Experiment configurations (Table 4), random implicit-preference query workloads, and
//! mixed read/write streams for dynamic-dataset benchmarks.

use crate::synthetic::{self, Distribution};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use skyline_core::{Dataset, ImplicitPreference, PointId, Preference, Schema, Template, ValueId};

/// The experimental parameters of Table 4 plus the knobs the figures sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Number of tuples (`No. of tuples`, default 500 K).
    pub n: usize,
    /// Number of numeric dimensions (default 3).
    pub numeric_dims: usize,
    /// Number of nominal dimensions (default 2).
    pub nominal_dims: usize,
    /// Number of values in a nominal dimension (default 20).
    pub cardinality: usize,
    /// Zipfian parameter θ (default 1).
    pub theta: f64,
    /// Order of the implicit preference queries (default 3).
    pub pref_order: usize,
    /// Correlation model of the numeric dimensions (the paper reports anti-correlated).
    pub distribution: Distribution,
    /// RNG seed for data and query generation.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The defaults of Table 4, at the paper's full scale (500 K tuples).
    pub fn paper_default() -> Self {
        Self {
            n: 500_000,
            numeric_dims: 3,
            nominal_dims: 2,
            cardinality: 20,
            theta: 1.0,
            pref_order: 3,
            distribution: Distribution::AntiCorrelated,
            seed: 42,
        }
    }

    /// The same parameter shape scaled down so a full figure sweep runs in seconds on a laptop.
    /// Only `n` changes; every other Table 4 default is kept.
    pub fn scaled_default() -> Self {
        Self {
            n: 20_000,
            ..Self::paper_default()
        }
    }

    /// Total dimensionality (numeric + nominal), the x-axis of Figure 5.
    pub fn total_dims(&self) -> usize {
        self.numeric_dims + self.nominal_dims
    }

    /// Generates the synthetic dataset described by this configuration.
    pub fn generate_dataset(&self) -> Dataset {
        synthetic::generate(
            self.n,
            self.numeric_dims,
            self.nominal_dims,
            self.cardinality,
            self.distribution,
            self.theta,
            self.seed,
        )
    }

    /// The paper's default template over `dataset`: the most frequent value of every nominal
    /// dimension is universally preferred.
    pub fn template(&self, dataset: &Dataset) -> Template {
        Template::most_frequent_value(dataset).expect("dataset matches its own schema")
    }

    /// A query generator seeded deterministically from this configuration.
    pub fn query_generator(&self) -> QueryGenerator {
        QueryGenerator::new(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(1),
        )
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::scaled_default()
    }
}

/// Generates random implicit-preference queries that refine a template.
///
/// Following Section 5, "in each experiment, we randomly generated 100 implicit preferences"
/// and "if the order of the implicit preference R̃′ is set to x, it means that the order of R̃′ᵢ
/// for each nominal attribute Dᵢ is x". Because every query must refine the template, the
/// template's listed values (if any) form the mandatory prefix of each generated choice list.
#[derive(Debug, Clone)]
pub struct QueryGenerator {
    rng: SmallRng,
}

impl QueryGenerator {
    /// Creates a generator with a fixed seed (reproducible workloads).
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Generates one random preference of the given per-dimension order.
    ///
    /// `allowed` optionally restricts, per nominal dimension, the pool of values the generator
    /// may list (e.g. the 10 most frequent values when exercising *IPO Tree-10*). The
    /// template's own values are always permitted.
    pub fn random_preference(
        &mut self,
        schema: &Schema,
        template: &Template,
        order: usize,
        allowed: Option<&[Vec<ValueId>]>,
    ) -> Preference {
        let mut dims = Vec::with_capacity(schema.nominal_count());
        for j in 0..schema.nominal_count() {
            let cardinality = schema.nominal_domain(j).map_or(0, |d| d.cardinality());
            let prefix: Vec<ValueId> = template
                .implicit()
                .map(|t| t.dim(j).choices().to_vec())
                .unwrap_or_default();
            let pool: Vec<ValueId> = match allowed.and_then(|a| a.get(j)) {
                Some(values) => values.clone(),
                None => (0..cardinality as ValueId).collect(),
            };
            let mut choices = prefix.clone();
            let mut candidates: Vec<ValueId> =
                pool.into_iter().filter(|v| !choices.contains(v)).collect();
            candidates.shuffle(&mut self.rng);
            while choices.len() < order && choices.len() < cardinality {
                match candidates.pop() {
                    Some(v) => choices.push(v),
                    None => break,
                }
            }
            dims.push(ImplicitPreference::new(choices).expect("generated choices are distinct"));
        }
        Preference::from_dims(dims)
    }

    /// Generates `count` random preferences (the paper uses `count = 100`).
    pub fn random_preferences(
        &mut self,
        schema: &Schema,
        template: &Template,
        order: usize,
        count: usize,
        allowed: Option<&[Vec<ValueId>]>,
    ) -> Vec<Preference> {
        (0..count)
            .map(|_| self.random_preference(schema, template, order, allowed))
            .collect()
    }

    /// Convenience access to the underlying RNG (used by benches that need extra randomness
    /// with the same reproducibility guarantees).
    pub fn rng(&mut self) -> &mut impl Rng {
        &mut self.rng
    }

    /// A Zipf-skewed **multi-user** query stream: `count` queries drawn (with repetition) from
    /// a pool of up to `pool_size` random preference profiles (independent draws, so the pool
    /// itself may contain repeats on small domains), where pool index `k` is requested with
    /// probability `∝ 1/(k+1)^θ`.
    ///
    /// This mirrors how a served system actually sees the paper's workload: many users, a few
    /// very popular preference profiles (the same skew the nominal *values* follow, Table 4)
    /// and a long tail of rare ones. A result cache keyed on canonical preferences should
    /// therefore see a hit rate approaching `1 - pool_size/count` for strong skew — the
    /// workload `skyline-service` benchmarks its throughput on.
    pub fn zipf_workload(
        &mut self,
        schema: &Schema,
        template: &Template,
        order: usize,
        pool_size: usize,
        count: usize,
        theta: f64,
    ) -> Vec<Preference> {
        assert!(pool_size > 0, "pool_size must be positive");
        assert!(
            pool_size <= u16::MAX as usize,
            "pool_size must fit the Zipf sampler's id range"
        );
        let pool = self.random_preferences(schema, template, order, pool_size, None);
        let zipf = crate::zipf::Zipf::new(pool.len(), theta);
        (0..count)
            .map(|_| pool[zipf.sample(&mut self.rng) as usize].clone())
            .collect()
    }

    /// An **open-loop** variant of [`QueryGenerator::zipf_workload`]: the same Zipf-skewed
    /// preference stream, each query stamped with an absolute arrival offset drawn from a
    /// Poisson process (exponential interarrival gaps of the given mean).
    ///
    /// Closed-loop replay — issue, wait for the answer, issue the next — lets a slow server
    /// throttle its own load, hiding queueing delay (coordinated omission). An open-loop
    /// harness fixes the arrival schedule in advance and measures each query's latency from
    /// its *scheduled* arrival, so time-to-first-row under a progressive result path is
    /// compared honestly against whole-result latency. Offsets are non-decreasing and the
    /// whole schedule is reproducible from the generator's seed.
    #[allow(clippy::too_many_arguments)]
    pub fn open_loop_zipf_workload(
        &mut self,
        schema: &Schema,
        template: &Template,
        order: usize,
        pool_size: usize,
        count: usize,
        theta: f64,
        mean_interarrival: std::time::Duration,
    ) -> Vec<(std::time::Duration, Preference)> {
        let prefs = self.zipf_workload(schema, template, order, pool_size, count, theta);
        let mean = mean_interarrival.as_secs_f64();
        let mut at = 0.0f64;
        prefs
            .into_iter()
            .map(|pref| {
                // Inverse-transform sampling of Exp(1/mean); `1 - u` keeps ln's argument
                // strictly positive for u ∈ [0, 1).
                let u: f64 = self.rng.gen::<f64>();
                at += -(1.0 - u).ln() * mean;
                (std::time::Duration::from_secs_f64(at), pref)
            })
            .collect()
    }

    /// A **mixed read/write stream** over a dynamic dataset: queries drawn from a Zipf-skewed
    /// preference pool (exactly like [`QueryGenerator::zipf_workload`]) interleaved with row
    /// insertions and deletions.
    ///
    /// Each of the `count` operations is a write with probability `write_fraction` (clamped
    /// to `[0, 1]`), split evenly between inserts and deletes. Inserted rows carry uniform
    /// numeric values in `[0, 1)` and Zipf(θ)-skewed nominal values — the same per-value skew
    /// the synthetic datasets use, so popular values keep arriving. Delete targets are drawn
    /// uniformly from every row id that exists at that point of the stream (`initial_rows`
    /// plus the inserts emitted so far); replaying a delete of an already-deleted row is the
    /// consumer's no-op, exactly as `SkylineEngine::delete_row` treats it.
    #[allow(clippy::too_many_arguments)]
    pub fn mixed_workload(
        &mut self,
        schema: &Schema,
        template: &Template,
        order: usize,
        pool_size: usize,
        count: usize,
        theta: f64,
        write_fraction: f64,
        initial_rows: usize,
    ) -> Vec<WorkloadOp> {
        let write_fraction = write_fraction.clamp(0.0, 1.0);
        let pool = self.random_preferences(schema, template, order, pool_size.max(1), None);
        let zipf = crate::zipf::Zipf::new(pool.len(), theta);
        let value_skews: Vec<crate::zipf::Zipf> = (0..schema.nominal_count())
            .map(|j| {
                let cardinality = schema
                    .nominal_domain(j)
                    .map_or(1, |d| d.cardinality().max(1));
                crate::zipf::Zipf::new(cardinality, theta)
            })
            .collect();
        let mut total_rows = initial_rows;
        let mut ops = Vec::with_capacity(count);
        for _ in 0..count {
            let is_write = self.rng.gen::<f64>() < write_fraction;
            // Deletes need at least one addressable row.
            if is_write && (total_rows == 0 || self.rng.gen::<bool>()) {
                let numeric: Vec<f64> = (0..schema.numeric_count())
                    .map(|_| self.rng.gen::<f64>())
                    .collect();
                let nominal: Vec<ValueId> = value_skews
                    .iter()
                    .map(|z| z.sample(&mut self.rng))
                    .collect();
                total_rows += 1;
                ops.push(WorkloadOp::Insert { numeric, nominal });
            } else if is_write {
                let row = self.rng.gen_range(0..total_rows) as PointId;
                ops.push(WorkloadOp::Delete { row });
            } else {
                let pref = pool[zipf.sample(&mut self.rng) as usize].clone();
                ops.push(WorkloadOp::Query(pref));
            }
        }
        ops
    }
}

/// One operation of a mixed read/write stream (see [`QueryGenerator::mixed_workload`]).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadOp {
    /// Answer an implicit-preference query.
    Query(Preference),
    /// Insert a row (numeric values in numeric-index order, nominal value ids in
    /// nominal-index order).
    Insert {
        /// Values for the numeric dimensions.
        numeric: Vec<f64>,
        /// Value ids for the nominal dimensions.
        nominal: Vec<ValueId>,
    },
    /// Logically delete a row that exists at this point of the stream (it may already have
    /// been deleted by an earlier operation — consumers treat that as a no-op).
    Delete {
        /// The target row id.
        row: PointId,
    },
}

/// The `k` most frequent values of every nominal dimension of `dataset` (used both by the
/// truncated IPO tree and by workloads that must stay within the materialized values).
pub fn top_k_values(dataset: &Dataset, k: usize) -> Vec<Vec<ValueId>> {
    (0..dataset.schema().nominal_count())
        .map(|j| dataset.values_by_frequency(j).into_iter().take(k).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ExperimentConfig {
        ExperimentConfig {
            n: 500,
            cardinality: 8,
            ..ExperimentConfig::scaled_default()
        }
    }

    #[test]
    fn table4_defaults() {
        let cfg = ExperimentConfig::paper_default();
        assert_eq!(cfg.n, 500_000);
        assert_eq!(cfg.numeric_dims, 3);
        assert_eq!(cfg.nominal_dims, 2);
        assert_eq!(cfg.cardinality, 20);
        assert_eq!(cfg.theta, 1.0);
        assert_eq!(cfg.pref_order, 3);
        assert_eq!(cfg.distribution, Distribution::AntiCorrelated);
        assert_eq!(cfg.total_dims(), 5);
        assert_eq!(
            ExperimentConfig::default(),
            ExperimentConfig::scaled_default()
        );
    }

    #[test]
    fn dataset_generation_respects_config() {
        let cfg = small_config();
        let data = cfg.generate_dataset();
        assert_eq!(data.len(), 500);
        assert_eq!(data.schema().numeric_count(), 3);
        assert_eq!(data.schema().nominal_count(), 2);
        assert_eq!(data.schema().nominal_cardinalities(), vec![8, 8]);
    }

    #[test]
    fn generated_queries_refine_the_template() {
        let cfg = small_config();
        let data = cfg.generate_dataset();
        let template = cfg.template(&data);
        let mut gen = cfg.query_generator();
        let queries = gen.random_preferences(data.schema(), &template, 3, 25, None);
        assert_eq!(queries.len(), 25);
        for q in &queries {
            assert!(
                q.refines(template.implicit().unwrap()),
                "query must refine the template"
            );
            assert_eq!(q.order(), 3);
            q.validate(data.schema()).unwrap();
        }
    }

    #[test]
    fn order_one_queries_equal_template_when_template_is_first_order() {
        let cfg = small_config();
        let data = cfg.generate_dataset();
        let template = cfg.template(&data);
        let mut gen = cfg.query_generator();
        let q = gen.random_preference(data.schema(), &template, 1, None);
        assert_eq!(&q, template.implicit().unwrap());
    }

    #[test]
    fn allowed_pool_is_respected() {
        let cfg = small_config();
        let data = cfg.generate_dataset();
        let template = cfg.template(&data);
        let allowed = top_k_values(&data, 3);
        assert_eq!(allowed.len(), 2);
        assert!(allowed.iter().all(|v| v.len() == 3));
        let mut gen = cfg.query_generator();
        for _ in 0..20 {
            let q = gen.random_preference(data.schema(), &template, 3, Some(&allowed));
            for (j, pool) in allowed.iter().enumerate() {
                for &v in q.dim(j).choices() {
                    let in_pool = pool.contains(&v);
                    let in_template = template.implicit().unwrap().dim(j).contains(v);
                    assert!(in_pool || in_template);
                }
            }
        }
    }

    #[test]
    fn order_is_capped_by_cardinality() {
        let cfg = ExperimentConfig {
            cardinality: 2,
            n: 200,
            ..ExperimentConfig::scaled_default()
        };
        let data = cfg.generate_dataset();
        let template = cfg.template(&data);
        let mut gen = cfg.query_generator();
        let q = gen.random_preference(data.schema(), &template, 5, None);
        for j in 0..2 {
            assert!(q.dim(j).order() <= 2);
        }
    }

    #[test]
    fn empty_template_queries_have_requested_order() {
        let cfg = small_config();
        let data = cfg.generate_dataset();
        let template = Template::empty(data.schema());
        let mut gen = QueryGenerator::new(9);
        let q = gen.random_preference(data.schema(), &template, 2, None);
        assert_eq!(q.order(), 2);
        assert!(q.dim(0).order() == 2 && q.dim(1).order() == 2);
        let _ = gen.rng().gen::<u32>();
    }

    #[test]
    fn zipf_workload_repeats_popular_preferences() {
        let cfg = small_config();
        let data = cfg.generate_dataset();
        let template = cfg.template(&data);
        let mut gen = cfg.query_generator();
        let queries = gen.zipf_workload(data.schema(), &template, 2, 20, 400, 1.0);
        assert_eq!(queries.len(), 400);
        for q in &queries {
            assert!(q.refines(template.implicit().unwrap()));
            q.validate(data.schema()).unwrap();
        }
        // At most pool_size distinct preferences, and the skew forces actual repetition.
        let mut distinct: Vec<&Preference> = Vec::new();
        for q in &queries {
            if !distinct.contains(&q) {
                distinct.push(q);
            }
        }
        assert!(distinct.len() <= 20);
        assert!(
            distinct.len() < queries.len(),
            "a Zipf-skewed stream of 400 over a pool of 20 must repeat"
        );
        // The most common preference should clearly dominate under θ = 1.
        let max_count = distinct
            .iter()
            .map(|d| queries.iter().filter(|q| q == d).count())
            .max()
            .unwrap();
        assert!(max_count > 400 / 20, "skew concentrates on the pool head");
    }

    #[test]
    fn zipf_workload_is_reproducible() {
        let cfg = small_config();
        let data = cfg.generate_dataset();
        let template = cfg.template(&data);
        let a = cfg
            .query_generator()
            .zipf_workload(data.schema(), &template, 2, 8, 50, 1.0);
        let b = cfg
            .query_generator()
            .zipf_workload(data.schema(), &template, 2, 8, 50, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "pool_size must be positive")]
    fn zipf_workload_rejects_empty_pool() {
        let cfg = small_config();
        let data = cfg.generate_dataset();
        let template = cfg.template(&data);
        cfg.query_generator()
            .zipf_workload(data.schema(), &template, 2, 0, 10, 1.0);
    }

    #[test]
    fn open_loop_workload_has_monotone_reproducible_poisson_arrivals() {
        use std::time::Duration;
        let cfg = small_config();
        let data = cfg.generate_dataset();
        let template = cfg.template(&data);
        let mean = Duration::from_millis(2);
        let a = cfg.query_generator().open_loop_zipf_workload(
            data.schema(),
            &template,
            2,
            16,
            2000,
            1.0,
            mean,
        );
        assert_eq!(a.len(), 2000);
        // Offsets are absolute and non-decreasing; queries refine the template.
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        for (_, pref) in &a {
            assert!(pref.refines(template.implicit().unwrap()));
            pref.validate(data.schema()).unwrap();
        }
        // The empirical mean gap matches the requested interarrival mean (law of large
        // numbers slack: ±30% over 2000 exponential draws is conservative).
        let mean_gap = a.last().unwrap().0.as_secs_f64() / a.len() as f64;
        let want = mean.as_secs_f64();
        assert!(
            (mean_gap - want).abs() < want * 0.3,
            "mean gap {mean_gap}s vs requested {want}s"
        );
        // Gaps vary (a Poisson process, not a fixed-rate ticker)...
        let gaps: Vec<f64> = a
            .windows(2)
            .map(|w| (w[1].0 - w[0].0).as_secs_f64())
            .collect();
        assert!(gaps.iter().any(|&g| g > want * 2.0));
        assert!(gaps.iter().any(|&g| g < want / 2.0));
        // ...and the whole schedule replays bit-identically from the seed.
        let b = cfg.query_generator().open_loop_zipf_workload(
            data.schema(),
            &template,
            2,
            16,
            2000,
            1.0,
            mean,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn mixed_workload_interleaves_valid_reads_and_writes() {
        let cfg = small_config();
        let data = cfg.generate_dataset();
        let template = cfg.template(&data);
        let mut gen = cfg.query_generator();
        let ops = gen.mixed_workload(data.schema(), &template, 2, 12, 400, 1.0, 0.3, data.len());
        assert_eq!(ops.len(), 400);
        let mut total_rows = data.len();
        let (mut queries, mut inserts, mut deletes) = (0usize, 0usize, 0usize);
        for op in &ops {
            match op {
                WorkloadOp::Query(pref) => {
                    pref.validate(data.schema()).unwrap();
                    assert!(pref.refines(template.implicit().unwrap()));
                    queries += 1;
                }
                WorkloadOp::Insert { numeric, nominal } => {
                    assert_eq!(numeric.len(), data.schema().numeric_count());
                    assert_eq!(nominal.len(), data.schema().nominal_count());
                    for (j, &v) in nominal.iter().enumerate() {
                        let card = data.schema().nominal_domain(j).unwrap().cardinality();
                        assert!((v as usize) < card, "value {v} outside domain {card}");
                    }
                    total_rows += 1;
                    inserts += 1;
                }
                WorkloadOp::Delete { row } => {
                    assert!(
                        (*row as usize) < total_rows,
                        "delete target {row} must exist at this stream position"
                    );
                    deletes += 1;
                }
            }
        }
        // ~30% writes: both kinds occur, reads still dominate.
        assert!(queries > 200, "got {queries} queries");
        assert!(inserts > 10, "got {inserts} inserts");
        assert!(deletes > 10, "got {deletes} deletes");
    }

    #[test]
    fn mixed_workload_is_reproducible_and_clamps_write_fraction() {
        let cfg = small_config();
        let data = cfg.generate_dataset();
        let template = cfg.template(&data);
        let a = cfg.query_generator().mixed_workload(
            data.schema(),
            &template,
            2,
            8,
            60,
            1.0,
            0.5,
            data.len(),
        );
        let b = cfg.query_generator().mixed_workload(
            data.schema(),
            &template,
            2,
            8,
            60,
            1.0,
            0.5,
            data.len(),
        );
        assert_eq!(a, b);
        // write_fraction 0 → pure query stream; > 1 clamps to all-writes.
        let reads = cfg.query_generator().mixed_workload(
            data.schema(),
            &template,
            2,
            8,
            40,
            1.0,
            0.0,
            data.len(),
        );
        assert!(reads.iter().all(|op| matches!(op, WorkloadOp::Query(_))));
        let writes = cfg.query_generator().mixed_workload(
            data.schema(),
            &template,
            2,
            8,
            40,
            1.0,
            7.5,
            data.len(),
        );
        assert!(writes.iter().all(|op| !matches!(op, WorkloadOp::Query(_))));
        // Starting from an empty dataset, the first write must be an insert.
        let from_empty =
            cfg.query_generator()
                .mixed_workload(data.schema(), &template, 2, 8, 40, 1.0, 1.0, 0);
        assert!(matches!(from_empty[0], WorkloadOp::Insert { .. }));
    }

    #[test]
    fn top_k_values_ordered_by_frequency() {
        let cfg = small_config();
        let data = cfg.generate_dataset();
        let top = top_k_values(&data, 4);
        for (j, top_j) in top.iter().enumerate() {
            let freq = data.nominal_value_frequencies(j);
            for w in top_j.windows(2) {
                assert!(freq[w[0] as usize] >= freq[w[1] as usize]);
            }
        }
    }
}
