//! Cross-fragment skyline merge: the divide-and-conquer merge step promoted to a
//! first-class operator.
//!
//! The union property behind every entry point: for any partition `D = D₁ ∪ … ∪ Dₘ`,
//! `SKY(D) ⊆ SKY(D₁) ∪ … ∪ SKY(Dₘ)` — a point dominated inside its own fragment is dominated
//! in the union, so merging the per-fragment skylines with one cross-fragment elimination
//! pass yields exactly the global skyline. This holds for the paper's partial-order
//! preferences because dominance is transitive (numeric `≤` composed with strict-order
//! closures), not just for total orders.
//!
//! Two forms over one elimination:
//!
//! * [`merge_skylines`] — all fragments live in **one** [`Dataset`];
//!   no serving path calls it; it is the single-dataset form the tests and benches compare
//!   the other against;
//! * [`SkylineMerger`] — fragments come from **different** sources with their own row-id
//!   spaces: callers push each candidate's raw values and get back `(source, id)` tags. A
//!   sharded service runs it once per epoch vector, under the template's orders over every
//!   shard's template skyline, to find the global template skyline it serves every query
//!   from; no query runs a merge.
//!
//! Both preserve the input/push order of the surviving points, so feeding score-sorted
//! candidates yields a score-sorted skyline (what the SFS machinery relies on). Both test
//! dominance on the packed lanes alone — each source's rows in 64-row blocks, probed with
//! `u64` mask algebra; the `merge_equivalence` suite checks them against BNL under the
//! reference [`DominanceContext`](crate::DominanceContext).
//!
//! # The precondition: every source is its own skyline
//!
//! The rows of one source (fragment, shard) must be **mutually non-dominating** — the source's
//! local skyline, which is what every caller has in hand: engine answers and Adaptive-SFS
//! sorted lists are exact local skylines. The elimination leans on it twice. A candidate is
//! tested against the **other** sources only (with one source that is no test at all), and a
//! candidate found dominated is dropped at once, so later candidates are tested against
//! survivors only. The second is sound by transitivity given the first: if a dropped row `d`
//! dominated a candidate `c`, then `d`'s own dominator `e` dominates `c` too, `e` cannot share
//! `c`'s source (that source's rows do not dominate one another), and following the chain — it
//! strictly descends in a finite order — ends in a live row of another source, which the probe
//! finds. **Without** the precondition a row dominated only by a source-mate survives the
//! merge: the answer is a superset of the skyline, never a subset.
//!
//! Fragments must not repeat a row: duplicates are value-identical, never dominate each
//! other, and would both survive.

use crate::dataset::Dataset;
use crate::error::{Result, SkylineError};
use crate::kernel::{CompiledOrder, CompiledRelation};
use crate::lanes::PackedLanes;
use crate::value::{PointId, ValueId};
use std::ops::Deref;

/// One candidate's raw values: numeric and nominal, each in dimension-index order.
type Row<'a> = (&'a [f64], &'a [ValueId]);

/// Stages a row's nominal values as the `(value id, layered rank)` pairs the lanes take.
fn stage_probe(orders: &[CompiledOrder], nominal: &[ValueId], probe: &mut Vec<u16>) {
    probe.clear();
    for (order, &v) in orders.iter().zip(nominal) {
        probe.push(v);
        probe.push(order.layer(v));
    }
}

/// Clusters a source's candidates by nominal tuple, then first numeric value, so that its
/// 64-row lane blocks come out value-homogeneous and the lanes' zone maps rule most of them
/// out unopened. Only the blocks' composition depends on the key — any packing order gives
/// the same survivors — so the leading four nominal dimensions are enough.
fn cluster_key((pn, pm): Row<'_>) -> (u64, u64) {
    let nominal = pm.iter().take(4).fold(0, |k, &v| k << 16 | u64::from(v));
    let numeric = pn.first().map_or(0, |v| {
        let bits = v.to_bits();
        bits ^ (((bits as i64 >> 63) as u64) | 1 << 63)
    });
    (nominal, numeric)
}

/// The cross-source elimination behind [`merge_skylines`] and [`SkylineMerger::merge`]:
/// `alive[c]` is false exactly when a candidate of **another** source dominates candidate
/// `c` (see the module header for why own-source rows are never tested).
///
/// Each source's candidates are packed into their own lanes; then, one source after another,
/// every candidate probes the other sources' lanes and loses its validity bit at once when
/// dominated, so later sources probe survivors only. There is no reverse pass: a row is only
/// ever killed by its own probe. One distinct source means no test at all.
fn eliminate<'a>(
    orders: &[CompiledOrder],
    numeric_dims: usize,
    n: usize,
    source: impl Fn(usize) -> usize,
    row: impl Fn(usize) -> Row<'a>,
) -> Vec<bool> {
    if (1..n).all(|c| source(c) == source(0)) {
        return vec![true; n];
    }
    // `(source, cluster key, candidate)`: one sort groups the sources and clusters each.
    let mut sorted: Vec<(usize, (u64, u64), usize)> = (0..n)
        .map(|c| (source(c), cluster_key(row(c)), c))
        .collect();
    sorted.sort_unstable();
    let groups: Vec<_> = sorted.chunk_by(|a, b| a.0 == b.0).collect();
    let mut lanes = vec![PackedLanes::default(); groups.len()];
    let mut probe: Vec<u16> = Vec::with_capacity(orders.len() * 2);
    for (group, packed) in groups.iter().zip(lanes.iter_mut()) {
        packed.reset(numeric_dims, orders.len());
        for &(_, _, c) in *group {
            let (pn, pm) = row(c);
            stage_probe(orders, pm, &mut probe);
            packed.push(pn, &probe);
        }
    }
    let mut alive = vec![true; n];
    for (g, group) in groups.iter().enumerate() {
        for (l, &(_, _, c)) in group.iter().enumerate() {
            let (pn, pm) = row(c);
            stage_probe(orders, pm, &mut probe);
            let dominated = lanes
                .iter()
                .enumerate()
                .any(|(s, other)| s != g && other.first_dominator(orders, pn, &probe).is_some());
            if dominated {
                lanes[g].clear_valid(l);
                alive[c] = false;
            }
        }
    }
    alive
}

/// Merges per-fragment skylines of disjoint row sets of one dataset into the skyline of their
/// union, preserving the concatenated input order of the survivors.
///
/// **Each fragment must already be the skyline of its own rows**: rows are tested against the
/// other fragments only, so a row dominated by nothing but a fragment-mate would survive
/// (module header). Fragments must not repeat a row id either: duplicates never dominate
/// each other and would both survive.
pub fn merge_skylines<R: Deref<Target = Dataset>>(
    relation: &CompiledRelation<R>,
    fragments: &[&[PointId]],
) -> Vec<PointId> {
    let tagged: Vec<(usize, PointId)> = fragments
        .iter()
        .enumerate()
        .flat_map(|(f, fragment)| fragment.iter().map(move |&p| (f, p)))
        .collect();
    let data = relation.dataset();
    let alive = eliminate(
        relation.orders(),
        data.schema().numeric_count(),
        tagged.len(),
        |c| tagged[c].0,
        |c| {
            let p = tagged[c].1;
            (data.numeric_row(p), data.nominal_row(p))
        },
    );
    tagged
        .into_iter()
        .zip(alive)
        .filter_map(|((_, p), keep)| keep.then_some(p))
        .collect()
}

/// Push-based cross-source skyline merge on compiled nominal orders.
///
/// Sources with different row-id spaces (dataset shards, remote partitions) cannot share a
/// [`Dataset`], so the merger owns a row-major copy of the candidate values instead:
/// push every per-source skyline member with its raw values, then [`SkylineMerger::merge`]
/// returns the `(source, id)` tags of the global skyline in push order.
///
/// **Each source's pushed rows must be mutually non-dominating** — its local skyline. Rows
/// are tested against the other sources only, so a row dominated by nothing but a
/// source-mate would survive (module header); push order across sources is free.
///
/// Dominance matches [`CompiledRelation::dominates`] exactly — numeric smaller-is-better
/// over the finite cells a [`Dataset`] holds, nominal strict preference through the
/// compiled closures, and value-identical candidates co-existing.
#[derive(Debug, Clone)]
pub struct SkylineMerger {
    orders: Vec<CompiledOrder>,
    numeric_dims: usize,
    /// Every pushed row's values, row-major: candidate `c` is the `c`-th push.
    numerics: Vec<f64>,
    nominals: Vec<ValueId>,
    tags: Vec<(usize, PointId)>,
}

impl SkylineMerger {
    /// An empty merger over `numeric_dims` numeric dimensions and one compiled order per
    /// nominal dimension (compile them once per query and reuse across sources).
    pub fn new(orders: Vec<CompiledOrder>, numeric_dims: usize) -> Self {
        Self {
            orders,
            numeric_dims,
            numerics: Vec::new(),
            nominals: Vec::new(),
            tags: Vec::new(),
        }
    }

    /// Number of candidates pushed so far.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// True when no candidate has been pushed.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Pushes one candidate: its source index, its id within that source, and its raw values
    /// in dimension-index order — a [`Dataset`] row's, so the numeric cells are finite. Values
    /// must match the merger's dimensionality, and every nominal value must be inside its
    /// compiled order's domain.
    pub fn push(
        &mut self,
        source: usize,
        id: PointId,
        numeric: &[f64],
        nominal: &[ValueId],
    ) -> Result<()> {
        if numeric.len() != self.numeric_dims || nominal.len() != self.orders.len() {
            return Err(SkylineError::InvalidArgument(format!(
                "candidate has {} numeric / {} nominal values but the merger expects {} / {}",
                numeric.len(),
                nominal.len(),
                self.numeric_dims,
                self.orders.len()
            )));
        }
        for (j, (&v, order)) in nominal.iter().zip(&self.orders).enumerate() {
            if (v as usize) >= order.cardinality() {
                return Err(SkylineError::InvalidArgument(format!(
                    "nominal value {v} on dimension {j} is outside the compiled order's \
                     cardinality {}",
                    order.cardinality()
                )));
            }
        }
        self.numerics.extend_from_slice(numeric);
        self.nominals.extend_from_slice(nominal);
        self.tags.push((source, id));
        Ok(())
    }

    /// Candidate `c`'s values.
    fn row(&self, c: usize) -> Row<'_> {
        let (nd, md) = (self.numeric_dims, self.orders.len());
        (
            &self.numerics[c * nd..(c + 1) * nd],
            &self.nominals[c * md..(c + 1) * md],
        )
    }

    /// Runs the cross-source elimination and returns the surviving `(source, id)` tags in
    /// push order. The merger is left empty, ready for the next query.
    pub fn merge(&mut self) -> Vec<(usize, PointId)> {
        let alive = eliminate(
            &self.orders,
            self.numeric_dims,
            self.tags.len(),
            |c| self.tags[c].0,
            |c| self.row(c),
        );
        let survivors = self
            .tags
            .iter()
            .zip(alive)
            .filter_map(|(&tag, keep)| keep.then_some(tag))
            .collect();
        self.numerics.clear();
        self.nominals.clear();
        self.tags.clear();
        survivors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::bnl;
    use crate::dataset::{Dataset, DatasetBuilder, RowValue};
    use crate::dominance::DominanceContext;
    use crate::order::{Preference, Template};
    use crate::schema::{Dimension, Schema};

    /// Table 3 of the paper: two numeric + two nominal dimensions, six rows.
    fn table3_data() -> Dataset {
        let schema = Schema::new(vec![
            Dimension::numeric("price"),
            Dimension::numeric("class-neg"),
            Dimension::nominal_with_labels("hotel-group", ["T", "H", "M"]),
            Dimension::nominal_with_labels("airline", ["G", "R", "W"]),
        ])
        .unwrap();
        let mut b = DatasetBuilder::new(schema);
        for (price, class, group, airline) in [
            (1600.0, 4.0, "T", "G"),
            (2400.0, 1.0, "T", "G"),
            (3000.0, 5.0, "H", "G"),
            (3600.0, 4.0, "H", "R"),
            (2400.0, 2.0, "M", "R"),
            (3000.0, 3.0, "M", "W"),
        ] {
            b.push_row([
                RowValue::Num(price),
                RowValue::Num(-class),
                group.into(),
                airline.into(),
            ])
            .unwrap();
        }
        b.build().unwrap()
    }

    fn query_relation<'a>(
        data: &'a Dataset,
        spec: &[(&str, &str)],
    ) -> (CompiledRelation<&'a Dataset>, Preference) {
        let template = Template::empty(data.schema());
        let pref = Preference::parse(data.schema(), spec.to_vec()).unwrap();
        let rel = CompiledRelation::for_query(data, &template, &pref).unwrap();
        (rel, pref)
    }

    fn oracle(data: &Dataset, pref: &Preference) -> Vec<PointId> {
        let template = Template::empty(data.schema());
        let ctx = DominanceContext::for_query(data, &template, pref).unwrap();
        let mut sky = bnl::skyline(&ctx);
        sky.sort_unstable();
        sky
    }

    #[test]
    fn merge_of_every_two_way_split_is_the_global_skyline() {
        let data = table3_data();
        let (rel, pref) = query_relation(&data, &[("hotel-group", "T < *"), ("airline", "G < *")]);
        let expected = oracle(&data, &pref);
        let all: Vec<PointId> = data.point_ids().collect();
        for cut in 0..=all.len() {
            let (left, right) = all.split_at(cut);
            // Per-fragment skylines first (the operator's contract), then the merge.
            let ctx =
                DominanceContext::for_query(&data, &Template::empty(data.schema()), &pref).unwrap();
            let left_sky = bnl::skyline_of(&ctx, left);
            let right_sky = bnl::skyline_of(&ctx, right);
            let mut merged = merge_skylines(&rel, &[&left_sky, &right_sky]);
            merged.sort_unstable();
            assert_eq!(merged, expected, "split at {cut}");
        }
    }

    #[test]
    fn merge_preserves_input_order() {
        let data = table3_data();
        let (rel, _) = query_relation(&data, &[("hotel-group", "T < *")]);
        // Feed raw fragments (each a singleton, trivially its own skyline) in a fixed order:
        // the survivors must come back in that order, not sorted.
        let fragments: Vec<Vec<PointId>> =
            (0..data.len() as PointId).rev().map(|p| vec![p]).collect();
        let views: Vec<&[PointId]> = fragments.iter().map(Vec::as_slice).collect();
        let merged = merge_skylines(&rel, &views);
        let mut sorted_back = merged.clone();
        sorted_back.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(
            merged, sorted_back,
            "survivors stay in (descending) feed order"
        );
    }

    #[test]
    fn merger_matches_single_block_merge_across_sources() {
        let data = table3_data();
        let template = Template::empty(data.schema());
        let pref = Preference::parse(
            data.schema(),
            [("hotel-group", "T < *"), ("airline", "G < *")],
        )
        .unwrap();
        let orders: Vec<CompiledOrder> = template
            .effective_orders(data.schema(), &pref)
            .unwrap()
            .iter()
            .map(CompiledOrder::compile)
            .collect();

        // Split the rows across two "shards" (even/odd), push each shard's local skyline.
        let ctx = DominanceContext::for_query(&data, &template, &pref).unwrap();
        let shard_rows: [Vec<PointId>; 2] = [
            data.point_ids().filter(|p| p % 2 == 0).collect(),
            data.point_ids().filter(|p| p % 2 == 1).collect(),
        ];
        let mut merger = SkylineMerger::new(orders, data.schema().numeric_count());
        for (s, rows) in shard_rows.iter().enumerate() {
            for &p in &bnl::skyline_of(&ctx, rows) {
                let numeric: Vec<f64> = (0..data.schema().numeric_count())
                    .map(|j| data.numeric(p, j))
                    .collect();
                let nominal: Vec<ValueId> = (0..data.schema().nominal_count())
                    .map(|j| data.nominal(p, j))
                    .collect();
                merger.push(s, p, &numeric, &nominal).unwrap();
            }
        }
        assert!(!merger.is_empty());
        let mut global: Vec<PointId> = merger.merge().into_iter().map(|(_, p)| p).collect();
        global.sort_unstable();
        assert_eq!(global, oracle(&data, &pref));
        assert!(merger.is_empty(), "merge drains the candidates");
    }

    #[test]
    fn value_identical_candidates_across_sources_both_survive() {
        let orders = vec![CompiledOrder::compile(&crate::order::PartialOrder::empty(
            2,
        ))];
        let mut merger = SkylineMerger::new(orders, 1);
        merger.push(0, 7, &[1.0], &[0]).unwrap();
        merger.push(1, 3, &[1.0], &[0]).unwrap();
        assert_eq!(merger.merge(), vec![(0, 7), (1, 3)]);
    }

    #[test]
    fn merger_rejects_mismatched_rows() {
        let orders = vec![CompiledOrder::compile(&crate::order::PartialOrder::empty(
            2,
        ))];
        let mut merger = SkylineMerger::new(orders, 2);
        assert!(merger.push(0, 0, &[1.0], &[0]).is_err(), "numeric arity");
        assert!(
            merger.push(0, 0, &[1.0, 2.0], &[]).is_err(),
            "nominal arity"
        );
        assert!(
            merger.push(0, 0, &[1.0, 2.0], &[5]).is_err(),
            "value outside the order's domain"
        );
        assert_eq!(merger.len(), 0);
    }

    #[test]
    fn rows_are_tested_against_the_other_sources_only() {
        // (1) ≺ (2) ≺ (3). Handing (1) and (2) in as one source breaks the "each source is
        // its own skyline" contract: (2) is never tested against its source-mate and
        // survives, while (3), from another source, is eliminated as usual.
        let mut merger = SkylineMerger::new(Vec::new(), 1);
        merger.push(0, 1, &[1.0], &[]).unwrap();
        merger.push(0, 2, &[2.0], &[]).unwrap();
        merger.push(4, 3, &[3.0], &[]).unwrap();
        assert_eq!(merger.merge(), vec![(0, 1), (0, 2)]);
    }

    /// Brute-force `p ≺ q` on raw rows: not worse on every dimension, and the rows differ
    /// somewhere.
    fn row_dominates(orders: &[CompiledOrder], (pn, pm): Row<'_>, (qn, qm): Row<'_>) -> bool {
        pn.iter().zip(qn).all(|(p, q)| p <= q)
            && orders
                .iter()
                .zip(pm.iter().zip(qm))
                .all(|(order, (&p, &q))| p == q || order.strictly_preferred(p, q))
            && (pn != qn || pm != qm)
    }

    #[test]
    fn elimination_matches_brute_force_across_lane_blocks() {
        // Three sources of 150 mutually non-dominating rows each (one anti-diagonal per
        // source, half a unit apart, so a row is dominated by its neighbours on the lower
        // diagonals unless the nominal order 0 ≺ 1 objects): several lane blocks per source.
        let orders = vec![CompiledOrder::compile(
            &crate::order::PartialOrder::from_pairs(2, [(0, 1)]).unwrap(),
        )];
        let mut rows = SkylineMerger::new(orders, 2);
        for s in 0..3usize {
            for i in 0..150usize {
                let x = ((i * 7 + s * 3) % 150) as f64;
                rows.push(
                    s,
                    i as PointId,
                    &[x + [0.0, 0.5, -0.5][s], 150.0 - x],
                    &[((i + s) % 2) as ValueId],
                )
                .unwrap();
            }
        }
        let n = rows.len();
        let alive = eliminate(&rows.orders, 2, n, |c| rows.tags[c].0, |c| rows.row(c));
        // Each source is its own skyline, so the survivors are exactly the rows no row of
        // the union dominates.
        let oracle: Vec<bool> = (0..n)
            .map(|c| !(0..n).any(|k| row_dominates(&rows.orders, rows.row(k), rows.row(c))))
            .collect();
        assert_eq!(alive, oracle);
        let survivors = alive.iter().filter(|&&keep| keep).count();
        assert!(0 < survivors && survivors < n, "{survivors}");
    }
}
