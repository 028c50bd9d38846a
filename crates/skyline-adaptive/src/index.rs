//! Per-dimension value index over the template skyline.
//!
//! Algorithm 4 (step 2) needs "an index for each nominal dimension" so that the data points of
//! `SKY(R̃)` carrying a particular value can be found without scanning the whole sorted list.
//! [`SkylineValueIndex`] is that index: `(nominal dimension, value id) → point ids`. A query
//! walks only the values it lists *beyond the template's prefix*
//! ([`SkylineValueIndex::affected_by`]): by the lemma in [`crate::asfs`], rows without such a
//! value neither move in the sorted list nor gain a dominator.
//!
//! [`LiveRowIndex`] is the same shape over **all live rows** (not just the skyline). The
//! incremental-maintenance delete path uses it to restrict the resurface scan to the deleted
//! member's dominance region instead of rescanning every live row.

use skyline_core::kernel::CompiledOrder;
use skyline_core::{Dataset, PointId, Preference, ValueId};

/// Value → skyline-point lookup for every nominal dimension.
#[derive(Debug, Clone, Default)]
pub struct SkylineValueIndex {
    /// `lists[j][v]` = skyline points whose value on nominal dimension `j` is `v` (ascending).
    lists: Vec<Vec<Vec<PointId>>>,
}

impl SkylineValueIndex {
    /// Builds the index for the given skyline members (in any order; the per-value lists are
    /// kept sorted by point id so later insertions and removals can binary-search).
    pub fn build(data: &Dataset, skyline: &[PointId]) -> Self {
        let schema = data.schema();
        let mut lists = Vec::with_capacity(schema.nominal_count());
        for j in 0..schema.nominal_count() {
            let cardinality = schema.nominal_domain(j).map_or(0, |d| d.cardinality());
            let mut per_value = vec![Vec::new(); cardinality];
            for &p in skyline {
                per_value[data.nominal(p, j) as usize].push(p);
            }
            for list in &mut per_value {
                list.sort_unstable();
                list.dedup();
            }
            lists.push(per_value);
        }
        Self { lists }
    }

    /// Skyline points carrying value `v` on nominal dimension `j`.
    pub fn points_with(&self, nominal_index: usize, v: ValueId) -> &[PointId] {
        &self.lists[nominal_index][v as usize]
    }

    /// The skyline points affected by `pref` over a template listing `template`: those
    /// carrying a value `pref` lists *beyond the template's prefix* on some dimension (the
    /// AFFECT of the [`crate::asfs`] lemma — rows with only prefix values keep their score and
    /// every relation among them). A point is yielded once per dimension it qualifies on.
    ///
    /// `pref` must refine `template` (`Template::check_refinement`), which makes the first
    /// `template.dim(j).order()` entries of its list the template's own; an all-empty template
    /// skips nothing. [`skyline_core::stats::affected_points`] — the paper's Figure (d) ratio —
    /// counts every listed value instead.
    pub fn affected_by<'a>(
        &'a self,
        template: &'a Preference,
        pref: &'a Preference,
    ) -> impl Iterator<Item = PointId> + 'a {
        self.lists.iter().enumerate().flat_map(move |(j, lists)| {
            let newly_listed = pref.dim(j).choices().iter().skip(template.dim(j).order());
            newly_listed
                .filter_map(move |&v| lists.get(v as usize))
                .flatten()
                .copied()
        })
    }

    /// Adds one point to the index (used by incremental maintenance).
    pub fn insert(&mut self, data: &Dataset, p: PointId) {
        for (j, lists) in self.lists.iter_mut().enumerate() {
            let v = data.nominal(p, j) as usize;
            let list = &mut lists[v];
            if let Err(pos) = list.binary_search(&p) {
                list.insert(pos, p);
            }
        }
    }

    /// Removes one point from the index (used by incremental maintenance).
    pub fn remove(&mut self, data: &Dataset, p: PointId) {
        for (j, lists) in self.lists.iter_mut().enumerate() {
            let v = data.nominal(p, j) as usize;
            let list = &mut lists[v];
            if let Ok(pos) = list.binary_search(&p) {
                list.remove(pos);
            }
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn approximate_bytes(&self) -> usize {
        self.lists
            .iter()
            .flat_map(|per_value| {
                per_value
                    .iter()
                    .map(|l| l.len() * std::mem::size_of::<PointId>())
            })
            .sum()
    }
}

/// Value → live-row lookup for every nominal dimension, over the **whole dataset**.
///
/// Built lazily by the incremental-maintenance mode on its first mutation (a one-off O(n·m')
/// pass) and updated per row afterwards with a binary search plus an in-place `Vec`
/// insert/remove — O(log n) to locate, O(k) element shifting within the touched value's list
/// (k can approach n on heavily skewed dimensions; acceptable because deletes already pay a
/// resurface scan, and fresh inserts append at the tail). When a skyline member is deleted, only
/// rows inside its *dominance region* can resurface — on each nominal dimension they must
/// carry the deleted member's value or one the template order ranks strictly worse. The index
/// makes that candidate set enumerable per dimension, so the resurface pass scans the most
/// selective dimension's list instead of every live row.
#[derive(Debug, Clone, Default)]
pub struct LiveRowIndex {
    /// `lists[j][v]` = live rows whose value on nominal dimension `j` is `v` (ascending ids).
    lists: Vec<Vec<Vec<PointId>>>,
}

impl LiveRowIndex {
    /// Builds the index over the rows for which `is_live` holds.
    pub fn build(data: &Dataset, is_live: impl Fn(PointId) -> bool) -> Self {
        let schema = data.schema();
        let mut lists = Vec::with_capacity(schema.nominal_count());
        for j in 0..schema.nominal_count() {
            let cardinality = schema.nominal_domain(j).map_or(0, |d| d.cardinality());
            let mut per_value = vec![Vec::new(); cardinality];
            for p in data.point_ids().filter(|&p| is_live(p)) {
                per_value[data.nominal(p, j) as usize].push(p);
            }
            lists.push(per_value);
        }
        Self { lists }
    }

    /// Live rows carrying value `v` on nominal dimension `j`.
    pub fn rows_with(&self, nominal_index: usize, v: ValueId) -> &[PointId] {
        &self.lists[nominal_index][v as usize]
    }

    /// Adds one (newly live) row.
    pub fn insert(&mut self, data: &Dataset, p: PointId) {
        for (j, lists) in self.lists.iter_mut().enumerate() {
            let list = &mut lists[data.nominal(p, j) as usize];
            if let Err(pos) = list.binary_search(&p) {
                list.insert(pos, p);
            }
        }
    }

    /// Removes one (tombstoned) row.
    pub fn remove(&mut self, data: &Dataset, p: PointId) {
        for (j, lists) in self.lists.iter_mut().enumerate() {
            let list = &mut lists[data.nominal(p, j) as usize];
            if let Ok(pos) = list.binary_search(&p) {
                list.remove(pos);
            }
        }
    }

    /// The candidate rows of point `p`'s dominance region, restricted along the most selective
    /// nominal dimension, or `None` when no dimension narrows the scan.
    ///
    /// A row `q` dominated by `p` must, on every nominal dimension `j`, carry `p`'s value or
    /// one strictly worse under the template order. This returns the per-dimension candidate
    /// union for whichever dimension yields the fewest rows — a superset of the dominance
    /// region, so callers still run the full pairwise test on each candidate. With no nominal
    /// dimensions the caller falls back to the full live scan.
    pub fn dominance_region_candidates(
        &self,
        data: &Dataset,
        orders: &[CompiledOrder],
        p: PointId,
    ) -> Option<Vec<PointId>> {
        let mut best: Option<(usize, usize, Vec<ValueId>)> = None; // (count, dim, worse values)
        for (j, order) in orders.iter().enumerate() {
            let pv = data.nominal(p, j);
            let worse: Vec<ValueId> = (0..order.cardinality() as ValueId)
                .filter(|&v| v == pv || order.strictly_preferred(pv, v))
                .collect();
            let count: usize = worse.iter().map(|&v| self.rows_with(j, v).len()).sum();
            if best.as_ref().is_none_or(|(c, _, _)| count < *c) {
                best = Some((count, j, worse));
            }
        }
        let (_, dim, worse) = best?;
        let mut candidates: Vec<PointId> = worse
            .iter()
            .flat_map(|&v| self.rows_with(dim, v).iter().copied())
            .collect();
        candidates.sort_unstable();
        Some(candidates)
    }

    /// Approximate heap footprint in bytes.
    pub fn approximate_bytes(&self) -> usize {
        self.lists
            .iter()
            .flat_map(|per_value| {
                per_value
                    .iter()
                    .map(|l| l.len() * std::mem::size_of::<PointId>())
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_core::{Dataset, Dimension, ImplicitPreference, Schema};

    fn data() -> Dataset {
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::nominal_with_labels("g", ["a", "b", "c"]),
            Dimension::nominal_with_labels("h", ["p", "q"]),
        ])
        .unwrap();
        Dataset::from_columns(
            schema,
            vec![vec![1.0, 2.0, 3.0, 4.0]],
            vec![vec![0, 1, 2, 0], vec![0, 1, 0, 1]],
        )
        .unwrap()
    }

    #[test]
    fn lookup_by_value() {
        let data = data();
        // Build from a score-ordered (non id-sorted) skyline: lists must still come out sorted.
        let index = SkylineValueIndex::build(&data, &[3, 0, 1]);
        assert_eq!(index.points_with(0, 0), &[0, 3]);
        assert_eq!(index.points_with(0, 1), &[1]);
        assert_eq!(index.points_with(0, 2), &[] as &[PointId]);
        assert_eq!(index.points_with(1, 1), &[1, 3]);
        assert!(index.approximate_bytes() > 0);
    }

    fn affected(
        index: &SkylineValueIndex,
        template: &Preference,
        pref: &Preference,
    ) -> Vec<PointId> {
        let mut out: Vec<PointId> = index.affected_by(template, pref).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn affected_by_unions_dimensions() {
        let data = data();
        let index = SkylineValueIndex::build(&data, &[0, 1, 2, 3]);
        let none = Preference::none(2);
        let pref = Preference::from_dims(vec![
            ImplicitPreference::new([2]).unwrap(),
            ImplicitPreference::new([1]).unwrap(),
        ]);
        assert_eq!(affected(&index, &none, &pref), vec![1, 2, 3]);
        assert!(affected(&index, &none, &none).is_empty());
        // Point 1 carries g=b and h=q: yielded once per qualifying dimension.
        let both = Preference::from_dims(vec![
            ImplicitPreference::new([1]).unwrap(),
            ImplicitPreference::new([1]).unwrap(),
        ]);
        let raw: Vec<PointId> = index.affected_by(&none, &both).collect();
        assert_eq!(raw, vec![1, 1, 3]);
    }

    #[test]
    fn affected_by_skips_the_template_prefix_per_dimension() {
        let data = data();
        let index = SkylineValueIndex::build(&data, &[0, 1, 2, 3]);
        // Template: a ≺ * on g (prefix length 1), nothing on h (prefix length 0).
        let template = Preference::from_dims(vec![
            ImplicitPreference::new([0]).unwrap(),
            ImplicitPreference::none(),
        ]);
        // Query ≡ template: nothing is newly listed.
        assert!(affected(&index, &template, &template).is_empty());
        // g: a is the template's own, c is new (point 2); h: p is new (points 0 and 2).
        let pref = Preference::from_dims(vec![
            ImplicitPreference::new([0, 2]).unwrap(),
            ImplicitPreference::new([0]).unwrap(),
        ]);
        assert_eq!(affected(&index, &template, &pref), vec![0, 2]);
        // Only g refined: rows with g=a (points 0, 3) stay unaffected.
        let pref = Preference::from_dims(vec![
            ImplicitPreference::new([0, 1]).unwrap(),
            ImplicitPreference::none(),
        ]);
        assert_eq!(affected(&index, &template, &pref), vec![1]);
    }

    #[test]
    fn a_non_refining_query_never_reaches_the_index() {
        use skyline_core::{SkylineError, Template};
        // Template a ≺ *; the query lists b first, so its position 0 is *not* the template's
        // prefix — it must be rejected before any prefix length is applied to it.
        let data = data();
        let schema = data.schema().clone();
        let template = Template::from_preference(
            &schema,
            Preference::from_dims(vec![
                ImplicitPreference::new([0]).unwrap(),
                ImplicitPreference::none(),
            ]),
        )
        .unwrap();
        let asfs = crate::AdaptiveSfs::build(data, &template).unwrap();
        let bad = Preference::from_dims(vec![
            ImplicitPreference::new([1, 0]).unwrap(),
            ImplicitPreference::none(),
        ]);
        assert!(matches!(
            asfs.query(&bad),
            Err(SkylineError::NotARefinement { .. })
        ));
        assert!(matches!(
            asfs.query_scan(
                &bad,
                crate::ScanMode::default(),
                &mut crate::QueryScratch::new()
            ),
            Err(SkylineError::NotARefinement { .. })
        ));
    }

    #[test]
    fn insert_and_remove_maintain_sorted_lists() {
        let data = data();
        let mut index = SkylineValueIndex::build(&data, &[1]);
        index.insert(&data, 3);
        index.insert(&data, 0);
        index.insert(&data, 0); // duplicate insert is a no-op
        assert_eq!(index.points_with(0, 0), &[0, 3]);
        index.remove(&data, 0);
        index.remove(&data, 0);
        assert_eq!(index.points_with(0, 0), &[3]);
        assert_eq!(index.points_with(0, 1), &[1]);
    }

    #[test]
    fn live_row_index_tracks_all_live_rows() {
        let data = data();
        let mut index = LiveRowIndex::build(&data, |p| p != 2);
        assert_eq!(index.rows_with(0, 0), &[0, 3]);
        assert_eq!(index.rows_with(0, 2), &[] as &[PointId]);
        index.insert(&data, 2);
        assert_eq!(index.rows_with(0, 2), &[2]);
        index.remove(&data, 3);
        assert_eq!(index.rows_with(0, 0), &[0]);
        assert!(index.approximate_bytes() > 0);
    }

    #[test]
    fn dominance_region_picks_the_most_selective_dimension() {
        use skyline_core::PartialOrder;
        let data = data();
        let index = LiveRowIndex::build(&data, |_| true);
        // Empty template orders: the region of a value is the value itself.
        let empty = [
            CompiledOrder::compile(&PartialOrder::empty(3)),
            CompiledOrder::compile(&PartialOrder::empty(2)),
        ];
        // Point 2 carries g=2 (1 row) and h=0 (2 rows): dimension g is more selective.
        let candidates = index.dominance_region_candidates(&data, &empty, 2).unwrap();
        assert_eq!(candidates, vec![2]);
        // With a template order 0 ≺ 1 on h, point 0 (h=0) dominates rows with h ∈ {0, 1}:
        // the g dimension (value 0 → rows {0, 3}) still ties or wins.
        let ordered = [
            CompiledOrder::compile(&PartialOrder::empty(3)),
            CompiledOrder::compile(&PartialOrder::from_pairs(2, [(0, 1)]).unwrap()),
        ];
        let candidates = index
            .dominance_region_candidates(&data, &ordered, 0)
            .unwrap();
        assert_eq!(candidates, vec![0, 3]);
        // No nominal dimensions → no restriction possible.
        let numeric_only = Schema::new(vec![Dimension::numeric("x")]).unwrap();
        let tiny = Dataset::from_columns(numeric_only, vec![vec![1.0]], vec![]).unwrap();
        let bare = LiveRowIndex::build(&tiny, |_| true);
        assert!(bare.dominance_region_candidates(&tiny, &[], 0).is_none());
    }
}
