//! Compiled dominance kernel: query-compiled orders over the dataset's row-major rows.
//!
//! [`crate::DominanceContext`] is the *reference* dominance implementation: per-cell lookups
//! into the [`Dataset`] plus a [`PartialOrder`] closure probe per nominal dimension. Correct,
//! but every pairwise test pays several layers of bounds-checked indirection — and the
//! pairwise test is the innermost loop of every algorithm in this workspace (BNL, SFS,
//! Adaptive SFS, the hybrid engine's fallback), each of which performs an O(n²)-shaped number
//! of them.
//!
//! This module compiles the same relation into a form the hardware likes. The rows need no
//! compiling: a [`Dataset`] already stores them **row-major and interleaved** (all numeric
//! values of one point are contiguous, and so are its nominal value ids), so one pairwise test
//! touches two short contiguous runs, and the one copy of the rows is shared (`Arc`) across
//! every query, engine and worker thread.
//!
//! * [`CompiledOrder`] — one nominal dimension's strict order flattened into **dense per-value
//!   closure bitmask rows** (`u64` words: bit `v` of row `u` says `u ≺ v`) plus **layered
//!   ranks** (topological depth in the order's DAG), giving a branch-light `u ≺ v` probe with
//!   a one-compare early out. Compiling is O(c²) bit probes over a cardinality-`c` domain —
//!   nominal cardinalities are tiny (4–40 in the paper), so this costs well under a
//!   microsecond per query.
//! * [`CompiledRelation`] — the kernel itself: a handle to the rows plus one compiled order
//!   per nominal dimension. Behaviourally identical to
//!   [`DominanceContext`](crate::DominanceContext) (asserted by the `kernel_equivalence`
//!   property suite) but with the inner loop reduced to contiguous loads, integer compares and
//!   single-word bit tests.
//!
//! Algorithms accept either implementation through the [`Dominance`] trait, keeping
//! [`DominanceContext`](crate::DominanceContext) as the executable specification the kernel
//! is checked against.

use crate::dataset::Dataset;
use crate::dominance::Dominance;
use crate::error::{Result, SkylineError};
use crate::lanes::PackedLanes;
use crate::order::{PartialOrder, Preference, Template};
use crate::value::{PointId, ValueId};
use std::ops::Deref;
use std::sync::Arc;

/// The dominance inner loop the compiled kernel runs: the bit-parallel window, where accepted
/// rows are packed 64 to a block and one pass of `u64` mask algebra tests the candidate
/// against all of them at once. It is the only one;
/// [`DominanceContext`](crate::DominanceContext) is the reference it is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Bit-parallel 64-lane window walk.
    Packed,
}

/// Always [`KernelMode::Packed`]. The function's only remaining job is the repo benchmark's
/// host stamp: it records `format!("{:?}", kernel_mode())` in every result, and `--compare`
/// refuses two result sets whose stamps differ.
pub fn kernel_mode() -> KernelMode {
    KernelMode::Packed
}

/// One nominal dimension's strict order, compiled to dense closure bitmasks and layered ranks.
///
/// Row `u` of the bitmask (`words_per_row` `u64`s) has bit `v` set exactly when `u ≺ v` in the
/// transitive closure, so the strict-preference probe is one shift-and-mask on a flat array.
/// The **layer** of a value is its depth in the order's DAG (longest strict chain of better
/// values above it); `u ≺ v` implies `layer(u) < layer(v)`, and for **ranked** orders (weak
/// orders, which every implicit preference induces — see [`CompiledOrder::is_ranked`]) the
/// implication is an equivalence, so the packed lanes replace the bit probe by integer rank
/// compares.
///
/// The closure is also kept **transposed and folded** for the packed lanes' zone maps: one
/// word per value `v` holding `{u : u = v ∨ u ≺ v}` (bit `u mod 64` per member), the only
/// values a row dominating a `v`-valued row can carry on this dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledOrder {
    cardinality: usize,
    words_per_row: usize,
    strict: Vec<u64>,
    layers: Vec<u16>,
    not_worse: Vec<u64>,
    ranked: bool,
}

impl CompiledOrder {
    /// Flattens `order`'s closure into bitmask rows and computes the layered ranks.
    pub fn compile(order: &PartialOrder) -> Self {
        let cardinality = order.cardinality();
        let words_per_row = cardinality.div_ceil(64).max(1);
        let mut strict = vec![0u64; cardinality * words_per_row];
        let mut not_worse: Vec<u64> = (0..cardinality).map(|v| 1 << (v & 63)).collect();
        for u in 0..cardinality {
            for v in 0..cardinality {
                if order.strictly_preferred(u as ValueId, v as ValueId) {
                    strict[u * words_per_row + (v >> 6)] |= 1 << (v & 63);
                    not_worse[v] |= 1 << (u & 63);
                }
            }
        }
        // Layer = longest chain of strictly-better values above a value. Orders are acyclic
        // (PartialOrder construction rejects cycles), so relaxing `cardinality` times reaches
        // the fixpoint.
        let mut layers = vec![0u16; cardinality];
        for _ in 0..cardinality {
            let mut changed = false;
            for u in 0..cardinality {
                for v in 0..cardinality {
                    if strict[u * words_per_row + (v >> 6)] >> (v & 63) & 1 != 0
                        && layers[v] <= layers[u]
                    {
                        layers[v] = layers[u] + 1;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Rankedness: the layers are a *faithful* linearization (`u ≺ v ⟺ layer(u) <
        // layer(v)`) exactly when the order is a weak order — which every implicit-preference
        // order is, so the packed lanes can replace the closure probe by integer rank
        // compares. General partial orders that fail the check keep the bitmask path.
        let ranked = (0..cardinality).all(|u| {
            (0..cardinality).all(|v| {
                u == v
                    || ((strict[u * words_per_row + (v >> 6)] >> (v & 63) & 1 != 0)
                        == (layers[u] < layers[v]))
            })
        });
        Self {
            cardinality,
            words_per_row,
            strict,
            layers,
            not_worse,
            ranked,
        }
    }

    /// True when the layers are a faithful linearization of the order (`u ≺ v ⟺ layer(u) <
    /// layer(v)`), i.e. the order is a weak order. Every implicit-preference order is ranked;
    /// the packed lanes then test dominance with integer compares instead of bitmask probes.
    pub fn is_ranked(&self) -> bool {
        self.ranked
    }

    /// Number of values in the dimension's domain.
    pub fn cardinality(&self) -> usize {
        self.cardinality
    }

    /// True when `u ≺ v` in the compiled closure.
    #[inline]
    pub fn strictly_preferred(&self, u: ValueId, v: ValueId) -> bool {
        let (u, v) = (u as usize, v as usize);
        self.strict[u * self.words_per_row + (v >> 6)] >> (v & 63) & 1 != 0
    }

    /// Layered rank of `v`: its depth in the order's DAG. `u ≺ v` implies
    /// `layer(u) < layer(v)`, so equal layers mean "not strictly related".
    #[inline]
    pub fn layer(&self, v: ValueId) -> u16 {
        self.layers[v as usize]
    }

    /// The values not worse than `v` — `{u : u = v ∨ u ≺ v}`, the transposed closure row —
    /// folded into one word: bit `u mod 64` per member. Exact up to cardinality 64; above it
    /// distinct values may share a bit, which only ever adds members (the zone-map test in
    /// [`crate::lanes`] needs a superset, never the exact set).
    #[inline]
    pub(crate) fn not_worse_set(&self, v: ValueId) -> u64 {
        self.not_worse[v as usize]
    }

    /// Approximate heap footprint in bytes.
    pub fn approximate_bytes(&self) -> usize {
        (self.strict.len() + self.not_worse.len()) * std::mem::size_of::<u64>()
            + self.layers.len() * std::mem::size_of::<u16>()
    }
}

/// Accepted window for elimination scans over a [`CompiledRelation`].
///
/// Every accepted point's rows are *copied* into 64-row lane blocks, so testing the next
/// candidate against the whole window is one pass of `u64` mask algebra per block — no id
/// indirection, no strided loads. A window of at most 16 rows is tested pairwise instead
/// (`PAIRWISE_WINDOW`). Nominal cells are stored as `(value id, layered rank)`
/// pairs: for ranked (weak) orders the dominance test is then integer compares, with no
/// closure-probe loads at all. Each scan owns its window, starting empty.
#[derive(Debug, Clone, Default)]
pub struct DenseWindow {
    /// Per-call scratch holding the candidate point's `(id, rank)` pairs.
    probe: Vec<u16>,
    /// The accepted rows, bit-parallel.
    lanes: PackedLanes,
    /// Member point ids, lane-aligned with `lanes`: the pairwise test of a short window
    /// ([`PAIRWISE_WINDOW`]) reaches back to the dataset's rows through them.
    members: Vec<PointId>,
}

/// The longest window both window probes test with the pairwise
/// [`CompiledRelation::dominates`] alone; a longer window is tested by the 64-lane mask walk
/// alone. A packed pass costs a full 64-lane block per dimension whatever the block holds,
/// while the pairwise test exits on the first worse dimension, so a window that fills a small
/// part of its only block is cheaper to walk row by row. Sixteen rows is the smallest bound
/// that keeps the all-nominal Nursery workload's windows pairwise: with no preference its
/// skyline is one row per `(form, children)` pair, and a candidate's one dominator sits
/// anywhere in that 16-row window.
///
/// Correctness does not depend on the bound: both tests return the first dominating member,
/// so either yields the same decision and the same index.
const PAIRWISE_WINDOW: usize = 16;

/// The compiled dominance kernel: a handle to the rows (a shared [`Dataset`]) plus one
/// [`CompiledOrder`] per nominal dimension.
///
/// Semantically identical to a [`DominanceContext`](crate::DominanceContext) over the same
/// dataset and orders (the `kernel_equivalence` property suite asserts `dominates` agrees
/// point-for-point) but an order of magnitude cheaper per pairwise test: contiguous row loads,
/// no per-cell bounds-checked indirection, and single-word bit probes for the nominal orders.
///
/// The rows are held through `R`: an `Arc<Dataset>` (the default) for relations that outlive
/// the caller's borrow — an engine's query scans and streams — or a plain `&Dataset` for
/// one-shot passes such as the IPO-tree build. Either way compiling a relation for a new query
/// preference costs only the per-dimension O(c²) order flattening; the rows are never copied.
#[derive(Debug, Clone)]
pub struct CompiledRelation<R = Arc<Dataset>> {
    data: R,
    orders: Vec<CompiledOrder>,
}

impl<R: Deref<Target = Dataset>> CompiledRelation<R> {
    /// Compiles per-nominal-dimension orders against the rows of `data`.
    ///
    /// Fails when the number of orders does not match the dataset's nominal dimensions or an
    /// order's cardinality cannot cover a value id present in the data.
    pub fn new(data: R, orders: &[PartialOrder]) -> Result<Self> {
        Self::validate_cardinalities(&data, orders.len(), |j| orders[j].cardinality())?;
        let orders = orders.iter().map(CompiledOrder::compile).collect();
        Ok(Self { data, orders })
    }

    /// Builds a relation from **already compiled** orders, skipping the O(c²) closure
    /// flattening.
    ///
    /// Incremental-maintenance paths evaluate the *same* template relation on every row
    /// insertion or deletion; they compile the template orders once at construction and clone
    /// the (tiny) compiled form per mutation instead of re-deriving the closure each time.
    pub fn from_compiled_orders(data: R, orders: Vec<CompiledOrder>) -> Result<Self> {
        Self::validate_cardinalities(&data, orders.len(), |j| orders[j].cardinality())?;
        Ok(Self { data, orders })
    }

    /// Shared validation: one order per nominal dimension, each covering every value id the
    /// data holds on that dimension.
    fn validate_cardinalities(
        data: &Dataset,
        count: usize,
        cardinality_of: impl Fn(usize) -> usize,
    ) -> Result<()> {
        let nominal_dims = data.schema().nominal_count();
        if count != nominal_dims {
            return Err(SkylineError::InvalidArgument(format!(
                "expected {nominal_dims} nominal orders, got {count}",
            )));
        }
        for (j, &max) in data.max_values().iter().enumerate() {
            let needed = if data.is_empty() { 0 } else { max as usize + 1 };
            if cardinality_of(j) < needed {
                return Err(SkylineError::InvalidArgument(format!(
                    "order on nominal dimension {j} has cardinality {} but the data holds \
                     value id {max}",
                    cardinality_of(j),
                )));
            }
        }
        Ok(())
    }

    /// Compiles the relation of a template alone (`R`).
    pub fn for_template(data: R, template: &Template) -> Result<Self> {
        Self::new(data, template.orders())
    }

    /// Compiles the relation of a query preference evaluated against a template
    /// (`R ∪ P(R̃′)`), mirroring
    /// [`DominanceContext::for_query`](crate::DominanceContext::for_query).
    pub fn for_query(data: R, template: &Template, query: &Preference) -> Result<Self> {
        let orders = template.effective_orders(data.schema(), query)?;
        Self::new(data, &orders)
    }

    /// The rows the relation evaluates over.
    pub fn dataset(&self) -> &Dataset {
        &self.data
    }

    /// The compiled per-nominal-dimension orders.
    pub fn orders(&self) -> &[CompiledOrder] {
        &self.orders
    }

    /// True when `p` dominates `q`: `p ⪯ q` on every dimension and `p ≺ q` on at least one.
    ///
    /// Same contract as [`DominanceContext::dominates`](crate::DominanceContext::dominates),
    /// compiled form.
    #[inline]
    pub fn dominates(&self, p: PointId, q: PointId) -> bool {
        if p == q {
            return false;
        }
        let mut strict = false;
        for (pv, qv) in self
            .data
            .numeric_row(p)
            .iter()
            .zip(self.data.numeric_row(q))
        {
            if pv > qv {
                return false;
            }
            strict |= pv < qv;
        }
        for (order, (&pv, &qv)) in self.orders.iter().zip(
            self.data
                .nominal_row(p)
                .iter()
                .zip(self.data.nominal_row(q)),
        ) {
            if pv != qv {
                if !order.strictly_preferred(pv, qv) {
                    return false;
                }
                strict = true;
            }
        }
        strict
    }

    /// Index into `candidates` of the first point dominating `p`, with `p`'s rows hoisted out
    /// of the candidate loop and a branchless per-candidate evaluation.
    pub fn first_dominator(&self, p: PointId, candidates: &[PointId]) -> Option<usize> {
        let pn = self.data.numeric_row(p);
        let pm = self.data.nominal_row(p);
        for (i, &q) in candidates.iter().enumerate() {
            if q == p {
                continue;
            }
            let mut not_worse = true;
            let mut strict = false;
            for (qv, pv) in self.data.numeric_row(q).iter().zip(pn) {
                not_worse &= qv <= pv;
                strict |= qv < pv;
            }
            for (order, (&qv, &pv)) in self
                .orders
                .iter()
                .zip(self.data.nominal_row(q).iter().zip(pm))
            {
                let differs = qv != pv;
                let preferred = order.strictly_preferred(qv, pv);
                not_worse &= !differs | preferred;
                strict |= differs & preferred;
            }
            if not_worse && strict {
                return Some(i);
            }
        }
        None
    }

    /// Approximate heap footprint of the compiled orders in bytes (the rows are shared and
    /// accounted once via [`Dataset::approximate_bytes`]).
    pub fn approximate_bytes(&self) -> usize {
        self.orders
            .iter()
            .map(CompiledOrder::approximate_bytes)
            .sum()
    }

    /// Appends point `p`'s `(id, rank)` nominal pairs to `out`.
    fn extend_nominal_keys(&self, out: &mut Vec<u16>, p: PointId) {
        for (order, &v) in self.orders.iter().zip(self.data.nominal_row(p)) {
            out.push(v);
            out.push(order.layer(v));
        }
    }
}

impl<R: Deref<Target = Dataset>> Dominance for CompiledRelation<R> {
    type Window = DenseWindow;

    fn reset_window(&self, window: &mut DenseWindow) {
        window.members.clear();
        let schema = self.data.schema();
        window
            .lanes
            .reset(schema.numeric_count(), schema.nominal_count());
    }

    fn push_window(&self, window: &mut DenseWindow, p: PointId) {
        window.probe.clear();
        self.extend_nominal_keys(&mut window.probe, p);
        window.lanes.push(self.data.numeric_row(p), &window.probe);
        window.members.push(p);
    }

    fn window_first_dominator(&self, window: &mut DenseWindow, p: PointId) -> Option<usize> {
        if window.members.len() <= PAIRWISE_WINDOW {
            return window
                .members
                .iter()
                .position(|&m| CompiledRelation::dominates(self, m, p));
        }
        // Hoist the candidate's (id, rank) pairs once per call.
        window.probe.clear();
        self.extend_nominal_keys(&mut window.probe, p);
        window
            .lanes
            .first_dominator(&self.orders, self.data.numeric_row(p), &window.probe)
    }

    #[inline]
    fn dominates(&self, p: PointId, q: PointId) -> bool {
        CompiledRelation::dominates(self, p, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetBuilder, DatasetEpoch};
    use crate::dominance::DominanceContext;
    use crate::order::ImplicitPreference;
    use crate::schema::Dimension;
    use crate::schema::Schema;

    fn vacation_data() -> Dataset {
        let schema = Schema::new(vec![
            Dimension::numeric("price"),
            Dimension::numeric("class-neg"),
            Dimension::nominal_with_labels("hotel-group", ["T", "H", "M"]),
        ])
        .unwrap();
        let mut b = DatasetBuilder::new(schema);
        for (price, class, group) in [
            (1600.0, 4.0, "T"),
            (2400.0, 1.0, "T"),
            (3000.0, 5.0, "H"),
            (3600.0, 4.0, "H"),
            (2400.0, 2.0, "M"),
            (3000.0, 3.0, "M"),
        ] {
            b.push_row([
                crate::dataset::RowValue::Num(price),
                crate::dataset::RowValue::Num(-class),
                group.into(),
            ])
            .unwrap();
        }
        b.build().unwrap()
    }

    /// The unranked (general partial order) window walk, including the mixed
    /// ranked/unranked case, against the reference context and the plain-id window.
    #[test]
    fn unranked_orders_take_the_probe_path_and_match_the_reference() {
        use crate::algo::sfs::Scan;
        use crate::score::ScoreFn;

        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::nominal("g", crate::value::NominalDomain::anonymous(5)),
            Dimension::nominal("h", crate::value::NominalDomain::anonymous(3)),
        ])
        .unwrap();
        let mut data = Dataset::empty(schema);
        // Exhaustive little grid: every (g, h) combination at two numeric levels.
        for g in 0..5u16 {
            for h in 0..3u16 {
                data.push_row_ids(&[f64::from(g) + f64::from(h)], &[g, h])
                    .unwrap();
                data.push_row_ids(&[f64::from(5 - g)], &[g, h]).unwrap();
            }
        }
        // `g`: 0 ≺ 2 ≺ 1 plus the island 3 ≺ 4 — NOT a weak order (0 and 3 share a layer
        // with 1 and 4 incomparable across chains); `h`: implicit-style weak order.
        let g_order = PartialOrder::from_pairs(5, [(0, 2), (2, 1), (3, 4)]).unwrap();
        let h_order = PartialOrder::from_pairs(3, [(1, 0), (1, 2)]).unwrap();
        let template =
            Template::from_partial_orders(data.schema(), vec![g_order, h_order]).unwrap();

        let ctx = DominanceContext::for_template(&data, &template).unwrap();
        let kernel = CompiledRelation::for_template(&data, &template).unwrap();
        assert!(!kernel.orders()[0].is_ranked(), "g must be unranked");
        assert!(kernel.orders()[1].is_ranked(), "h must be ranked");

        // Pairwise agreement plus the full elimination scan (dense window vs. id window).
        for p in data.point_ids() {
            for q in data.point_ids() {
                assert_eq!(kernel.dominates(p, q), ctx.dominates(p, q), "({p}, {q})");
            }
        }
        let score = ScoreFn::default_ranking(data.schema());
        let sorted = score.sort_by_score(&data, &data.point_ids().collect::<Vec<_>>());
        assert_eq!(
            Scan::presorted(&kernel, &sorted).collect::<Vec<_>>(),
            Scan::presorted(&ctx, &sorted).collect::<Vec<_>>(),
            "dense-window scan must match the reference scan on unranked orders"
        );
    }

    /// The row-major layout the kernel reads: each row's numeric values are contiguous, then
    /// its nominal value ids, and the per-dimension max value covers every row.
    #[test]
    fn block_layout_roundtrips_the_dataset() {
        let data = vacation_data();
        assert_eq!(data.len(), 6);
        assert!(!data.is_empty());
        assert_eq!(data.numeric_row(2), &[3000.0, -5.0]);
        assert_eq!(data.nominal_row(2), &[1]);
        assert_eq!(data.nominal_label(2, 0), "H");
        let mut nums = Vec::new();
        let mut noms = Vec::new();
        for p in data.point_ids() {
            nums.extend_from_slice(data.numeric_row(p));
            noms.extend_from_slice(data.nominal_row(p));
        }
        assert_eq!(data.numeric_values(), nums.as_slice());
        assert_eq!(data.nominal_values(), noms.as_slice());
        assert_eq!(data.max_values(), &[2]);
        assert_eq!(data.approximate_bytes(), 6 * (2 * 8 + 2));
    }

    #[test]
    fn compiled_order_matches_partial_order() {
        let order = PartialOrder::from_pairs(5, [(0, 2), (2, 1), (3, 4)]).unwrap();
        let compiled = CompiledOrder::compile(&order);
        assert_eq!(compiled.cardinality(), 5);
        for u in 0..5 {
            for v in 0..5 {
                assert_eq!(
                    compiled.strictly_preferred(u, v),
                    order.strictly_preferred(u, v),
                    "({u}, {v})"
                );
                if order.strictly_preferred(u, v) {
                    assert!(
                        compiled.layer(u) < compiled.layer(v),
                        "layers of ({u}, {v})"
                    );
                }
            }
        }
        // Chain 0 ≺ 2 ≺ 1 produces layers 0, 2, 1; independent chain 3 ≺ 4 restarts at 0.
        assert_eq!(
            (0..5).map(|v| compiled.layer(v)).collect::<Vec<_>>(),
            vec![0, 2, 1, 0, 1]
        );
        assert!(compiled.approximate_bytes() > 0);
    }

    #[test]
    fn wide_domains_use_multiple_words_per_row() {
        let order = PartialOrder::from_pairs(70, [(0, 69), (69, 1)]).unwrap();
        let compiled = CompiledOrder::compile(&order);
        assert!(compiled.strictly_preferred(0, 69));
        assert!(compiled.strictly_preferred(69, 1));
        assert!(compiled.strictly_preferred(0, 1));
        assert!(!compiled.strictly_preferred(1, 0));
    }

    #[test]
    fn kernel_agrees_with_the_reference_context() {
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let query = Preference::from_dims(vec![ImplicitPreference::new([0, 2]).unwrap()]);
        let ctx = DominanceContext::for_query(&data, &template, &query).unwrap();
        let kernel =
            CompiledRelation::for_query(Arc::new(data.clone()), &template, &query).unwrap();
        for p in data.point_ids() {
            for q in data.point_ids() {
                assert_eq!(kernel.dominates(p, q), ctx.dominates(p, q), "({p}, {q})");
            }
        }
        assert_eq!(kernel.orders().len(), 1);
        assert_eq!(kernel.dataset().len(), 6);
        assert!(kernel.approximate_bytes() > 0);
    }

    #[test]
    fn validation_rejects_mismatched_orders() {
        let data = vacation_data();
        assert!(CompiledRelation::new(&data, &[]).is_err());
        // Cardinality 2 cannot cover value id 2 present in the data.
        assert!(CompiledRelation::new(&data, &[PartialOrder::empty(2)]).is_err());
        assert!(CompiledRelation::new(&data, &[PartialOrder::empty(3)]).is_ok());
    }

    #[test]
    fn append_and_tombstone_bump_the_epoch_and_track_liveness() {
        let mut data = vacation_data();
        assert_eq!(data.epoch(), DatasetEpoch::INITIAL);
        assert_eq!(data.live_count(), 6);
        assert_eq!(data.live_ids().count(), 6);

        let p = data.append_row(&[1000.0, -5.0], &[1]).unwrap();
        assert_eq!(p, 6);
        assert_eq!(data.len(), 7);
        assert_eq!(data.live_count(), 7);
        assert_eq!(data.epoch().get(), 1);
        assert_eq!(data.numeric_row(p), &[1000.0, -5.0]);
        assert_eq!(data.nominal_row(p), &[1]);

        assert!(data.tombstone(2).unwrap());
        assert!(!data.is_live(2));
        assert_eq!(data.live_count(), 6);
        assert_eq!(data.epoch().get(), 2);
        assert!(!data.tombstone(2).unwrap(), "double tombstone is a no-op");
        assert_eq!(data.epoch().get(), 2, "no-op must not bump the epoch");
        assert!(data.tombstone(99).is_err());
        assert_eq!(data.live_ids().collect::<Vec<_>>(), vec![0, 1, 3, 4, 5, 6]);
        // Appends keep the max-value validation in sync.
        let mut grown = vacation_data();
        grown.append_row(&[1.0, 1.0], &[2]).unwrap();
        assert!(grown.append_row(&[1.0], &[2]).is_err(), "arity checked");
        assert!(DatasetEpoch::INITIAL < grown.epoch());
        assert_eq!(format!("{}", grown.epoch()), "epoch 1");
    }

    #[test]
    fn compaction_reclaims_dead_rows_and_publishes_a_remap() {
        let mut data = vacation_data();
        assert_eq!(data.dead_count(), 0);
        assert_eq!(data.dead_ratio(), 0.0);
        data.tombstone(1).unwrap();
        data.tombstone(3).unwrap();
        let p = data.append_row(&[100.0, -9.0], &[2]).unwrap();
        assert_eq!(p, 6);
        assert_eq!(data.dead_count(), 2);
        assert!((data.dead_ratio() - 2.0 / 7.0).abs() < 1e-12);
        let before_epoch = data.epoch();

        let (compact, remap) = data.compacted();
        // Only live rows survive, all live, renumbered in order.
        assert_eq!(compact.len(), 5);
        assert_eq!(compact.live_count(), compact.len());
        assert_eq!(compact.dead_count(), 0);
        assert_eq!(
            compact.live_ids().collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4],
            "every surviving row is live"
        );
        assert!(
            compact.epoch() > before_epoch,
            "renumbering moves the epoch"
        );
        // The remap round-trips: survivors keep their values under new ids.
        assert_eq!(remap.old_len(), 7);
        assert_eq!(remap.new_len(), 5);
        assert_eq!(remap.reclaimed(), 2);
        assert_eq!(remap.new_id(0), Some(0));
        assert_eq!(remap.new_id(1), None, "reclaimed rows have no new id");
        assert_eq!(remap.new_id(2), Some(1));
        assert_eq!(remap.new_id(6), Some(4));
        assert_eq!(remap.new_id(99), None);
        assert_eq!(remap.old_id(4), Some(6));
        assert_eq!(remap.old_id(5), None);
        for new in 0..compact.len() as PointId {
            let old = remap.old_id(new).unwrap();
            assert_eq!(compact.numeric_row(new), data.numeric_row(old));
            assert_eq!(compact.nominal_row(new), data.nominal_row(old));
        }
        // Sorted translation stays sorted; lists naming a reclaimed row are unsalvageable.
        assert_eq!(remap.translate_ids(&[0, 2, 6]), Some(vec![0, 1, 4]));
        assert_eq!(remap.translate_ids(&[0, 1]), None);
        // max_value is recomputed over the survivors.
        assert_eq!(compact.max_values(), &[2]);
    }

    #[test]
    fn remap_extends_over_replayed_appends() {
        let mut data = vacation_data();
        data.tombstone(0).unwrap();
        let (mut compact, mut remap) = data.compacted();
        // A mutation that arrived mid-build is replayed onto the new data and recorded.
        let new = compact.append_row(&[1.0, 1.0], &[0]).unwrap();
        remap.push_appended(new);
        assert_eq!(remap.old_len(), 7);
        assert_eq!(remap.new_id(6), Some(5));
        assert_eq!(remap.old_id(5), Some(6));
        // An identity compaction (nothing dead) maps every id to itself.
        let (_, identity) = compact.compacted();
        assert_eq!(identity.reclaimed(), 0);
        assert_eq!(identity.translate_ids(&[0, 3, 5]), Some(vec![0, 3, 5]));
    }

    #[test]
    fn from_compiled_orders_matches_the_fresh_compilation() {
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let fresh = CompiledRelation::for_template(&data, &template).unwrap();
        let reused =
            CompiledRelation::from_compiled_orders(&data, fresh.orders().to_vec()).unwrap();
        for p in data.point_ids() {
            for q in data.point_ids() {
                assert_eq!(fresh.dominates(p, q), reused.dominates(p, q), "({p}, {q})");
            }
        }
        // Validation still applies: wrong count and undersized cardinality are rejected.
        assert!(CompiledRelation::from_compiled_orders(&data, vec![]).is_err());
        let tiny = CompiledOrder::compile(&PartialOrder::empty(1));
        assert!(CompiledRelation::from_compiled_orders(&data, vec![tiny]).is_err());
    }

    #[test]
    fn empty_dataset_accepts_any_cardinality() {
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::nominal_with_labels("g", ["a", "b"]),
        ])
        .unwrap();
        let data = Dataset::from_columns(schema, vec![vec![]], vec![vec![]]).unwrap();
        assert!(data.is_empty());
        assert!(CompiledRelation::new(&data, &[PartialOrder::empty(0)]).is_ok());
    }

    /// A dataset whose skyline is large enough to push the dense window past several 64-lane
    /// blocks: an anti-correlated numeric staircase (all survive) interleaved with dominated
    /// fill rows (all killed, at varying window depths), over a 3-value nominal dimension.
    fn window_stress_data() -> Dataset {
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::numeric("y"),
            Dimension::nominal("g", crate::value::NominalDomain::anonymous(3)),
        ])
        .unwrap();
        let mut data = Dataset::empty(schema);
        for i in 0..200u16 {
            let a = f64::from(i);
            data.push_row_ids(&[a, 200.0 - a], &[i % 3]).unwrap();
            // Dominated by the staircase row above it (same group, both dims worse).
            data.push_row_ids(&[a + 0.5, 200.5 - a], &[i % 3]).unwrap();
        }
        data
    }

    /// The kernel scan emits the reference context's skylines, and the scan reports
    /// the reference scan's `Work`: the pairwise test of a short window and the packed walk
    /// both return the first dominator, so the kill index, and with it `dominance_tests`,
    /// match. The first 20 rows keep the window short enough for the pairwise test; all
    /// rows push it past the bound and kill candidates past the first 64-lane block.
    #[test]
    fn packed_scan_matches_reference_answers_and_work() {
        use crate::algo::sfs::Scan;
        use crate::score::ScoreFn;

        let data = window_stress_data();
        let g_order = PartialOrder::from_pairs(3, [(0, 2)]).unwrap();
        let template = Template::from_partial_orders(data.schema(), vec![g_order]).unwrap();
        let ctx = DominanceContext::for_template(&data, &template).unwrap();
        let kernel = CompiledRelation::for_template(&data, &template).unwrap();
        let score = ScoreFn::default_ranking(data.schema());
        let mut kills = Vec::new();
        for n in [20, data.len()] {
            let points: Vec<PointId> = (0..n as PointId).collect();
            let sorted = score.sort_by_score(&data, &points);
            let mut window = Vec::new();
            for &p in &sorted {
                match ctx.window_first_dominator(&mut window, p) {
                    Some(i) => kills.push((window.len(), i)),
                    None => window.push(p),
                }
            }

            let mut reference = Scan::presorted(&ctx, &sorted);
            let mut packed = Scan::presorted(&kernel, &sorted);
            assert_eq!(
                packed.by_ref().collect::<Vec<_>>(),
                reference.by_ref().collect::<Vec<_>>(),
            );
            assert_eq!(packed.work, reference.work);
            assert_eq!(reference.work.candidates, n as u64);
            assert_eq!(reference.work.rows_emitted, window.len() as u64);
        }
        assert!(kills.iter().any(|&(len, _)| len <= PAIRWISE_WINDOW));
        assert!(kills.iter().any(|&(len, _)| len > PAIRWISE_WINDOW));
        assert!(kills.iter().any(|&(_, i)| i >= 64));
    }

    /// The repo benchmark writes `format!("{:?}", kernel_mode())` into every host stamp and
    /// `--compare` refuses two result sets whose stamps differ: renaming the variant would
    /// make every parent/change pair incomparable.
    #[test]
    fn kernel_mode_stamp_reads_packed() {
        assert_eq!(format!("{:?}", kernel_mode()), "Packed");
    }
}
