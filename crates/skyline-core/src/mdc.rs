//! Minimal Disqualifying Conditions (MDCs).
//!
//! For a base relation `R` and a point `p`, a *disqualifying condition* is a set of extra value
//! pairs `R'` (disjoint from and conflict-free with `R`) whose addition makes some other point
//! dominate `p`. A **minimal** disqualifying condition (MDC) is one with no proper subset that
//! already disqualifies `p`. The concept comes from the authors' earlier "Mining favorable
//! facets" work (\[20\]) and is used here the way Section 3.1 describes: during IPO-tree
//! construction, a node's disqualified set `A` is the set of template skyline points one of
//! whose MDCs is implied by the node's first-order choices
//! ([`MdcIndex::disqualified_by_first_order`] reads it off the conditions keyed by their
//! `(dim, better)` pairs).
//!
//! The miner finds a point's dominators by their numeric witnesses: one walk over the
//! dominators' numeric columns, packed 64 rows to a block, answers `!(q > p)` for a whole block
//! at once (see [`compute_mdcs_with_dominators`]).
//!
//! The base relation is whatever the miner's [`CompiledRelation`] compiles. The IPO-tree
//! builder mines against the **empty** relation of `SKY(∅)`, not the template: a node
//! disqualifies `p` when a `SKY(∅)` point dominates it under the node's path-only orders (one
//! first-order choice per dimension on the path, nothing from the template).
//!
//! Every MDC pair states "`better` must be preferred to `worse` on nominal dimension `dim`".

use crate::bitset::BitSet;
use crate::dataset::Dataset;
use crate::kernel::{CompiledOrder, CompiledRelation};
use crate::lanes::PackedLanes;
use crate::order::Preference;
use crate::value::{PointId, ValueId};
use std::collections::HashMap;
use std::ops::Deref;

/// One required binary order `(better ≺ worse)` on a nominal dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MdcPair {
    /// Nominal dimension index the pair applies to.
    pub dim: u16,
    /// The value that must become preferred…
    pub better: ValueId,
    /// …to this value.
    pub worse: ValueId,
}

/// A minimal disqualifying condition: a set of [`MdcPair`]s that together disqualify one
/// template skyline point. Pairs are kept sorted so subset tests and deduplication are cheap.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Mdc {
    pairs: Vec<MdcPair>,
}

impl Mdc {
    /// Creates a condition from pairs (sorted and deduplicated).
    pub fn new(mut pairs: Vec<MdcPair>) -> Self {
        pairs.sort_unstable();
        pairs.dedup();
        Self { pairs }
    }

    /// The pairs of the condition.
    pub fn pairs(&self) -> &[MdcPair] {
        &self.pairs
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when the condition contains no pair (never produced by the miner).
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Subset test between two conditions (both sorted).
    pub fn is_subset_of(&self, other: &Mdc) -> bool {
        if self.pairs.len() > other.pairs.len() {
            return false;
        }
        let mut it = other.pairs.iter();
        'outer: for pair in &self.pairs {
            for candidate in it.by_ref() {
                match candidate.cmp(pair) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// True when every pair of the condition is implied by a *first-order* choice per
    /// dimension: `choices[dim] = Some(v)` represents the preference `v ≺ ∗` on that
    /// dimension, which implies `(v, w)` for every `w ≠ v`. (The definition
    /// [`MdcIndex::disqualified_by_first_order`] answers through its signature index.)
    #[cfg(test)]
    pub fn implied_by_first_order(&self, choices: &[Option<ValueId>]) -> bool {
        self.pairs
            .iter()
            .all(|pair| choices.get(pair.dim as usize).copied().flatten() == Some(pair.better))
    }

    /// True when every pair of the condition can be derived from the given implicit preference
    /// profile (`P(R̃′)` contains the pair).
    pub fn implied_by_preference(&self, pref: &Preference) -> bool {
        self.pairs.iter().all(|pair| {
            let dim_pref = pref.dim(pair.dim as usize);
            match dim_pref.position(pair.better) {
                None => false,
                Some(bi) => match dim_pref.position(pair.worse) {
                    // better listed, worse unlisted: implied.
                    None => true,
                    Some(wi) => bi < wi,
                },
            }
        })
    }

    /// Approximate heap footprint in bytes.
    pub fn approximate_bytes(&self) -> usize {
        self.pairs.len() * std::mem::size_of::<MdcPair>()
    }
}

/// The `(dim, better)` pairs a path of first-order choices must make to imply a condition.
type Signature = Vec<(u16, ValueId)>;

/// The MDCs of every point of a template skyline.
#[derive(Debug, Clone, Default)]
pub struct MdcIndex {
    skyline: Vec<PointId>,
    mdcs: Vec<Vec<Mdc>>,
    /// The conditions keyed by their first-order [`Signature`], each with the skyline indexes
    /// (ascending) of the points one of whose conditions has it.
    by_signature: HashMap<Signature, Vec<u32>>,
}

impl MdcIndex {
    fn new(skyline: Vec<PointId>, mdcs: Vec<Vec<Mdc>>) -> Self {
        let mut by_signature: HashMap<Signature, Vec<u32>> = HashMap::new();
        let mut signature = Vec::new();
        for (i, point_mdcs) in mdcs.iter().enumerate() {
            let i = i as u32;
            for mdc in point_mdcs {
                signature.clear();
                signature.extend(mdc.pairs().iter().map(|p| (p.dim, p.better)));
                signature.dedup();
                match by_signature.get_mut(signature.as_slice()) {
                    Some(points) if points.last() == Some(&i) => {}
                    Some(points) => points.push(i),
                    None => {
                        by_signature.insert(signature.clone(), vec![i]);
                    }
                }
            }
        }
        Self {
            skyline,
            mdcs,
            by_signature,
        }
    }

    /// The template skyline the index was built for (same order as [`MdcIndex::mdcs_of_index`]).
    pub fn skyline(&self) -> &[PointId] {
        &self.skyline
    }

    /// Number of skyline points covered.
    pub fn len(&self) -> usize {
        self.skyline.len()
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.skyline.is_empty()
    }

    /// MDCs of the `i`-th skyline point.
    pub fn mdcs_of_index(&self, i: usize) -> &[Mdc] {
        &self.mdcs[i]
    }

    /// MDCs of a specific point id, if it is part of the indexed skyline.
    pub fn mdcs_of_point(&self, p: PointId) -> Option<&[Mdc]> {
        self.skyline
            .iter()
            .position(|&s| s == p)
            .map(|i| self.mdcs[i].as_slice())
    }

    /// Indexes (into the skyline ordering) of the points disqualified by a combination of
    /// first-order choices (`choices[dim] = Some(v)` ⇔ the node applies `v ≺ ∗` on `dim`).
    ///
    /// A condition is implied exactly when its signature is a subset of the choices, so the
    /// set is the union of the index entries of those subsets: looked up one subset at a time,
    /// or, when the choices have more subsets than the index has signatures, by testing every
    /// signature. Either way a call makes at most one probe per signature instead of a pass
    /// over every point's conditions.
    pub fn disqualified_by_first_order(&self, choices: &[Option<ValueId>]) -> BitSet {
        let chosen: Signature = choices
            .iter()
            .enumerate()
            .filter_map(|(j, c)| c.map(|v| (j as u16, v)))
            .collect();
        let mut out = BitSet::new(self.skyline.len());
        let mut union = |points: &[u32]| points.iter().for_each(|&i| out.insert(i as usize));
        if chosen.len() < usize::BITS as usize && 1 << chosen.len() <= self.by_signature.len() {
            let mut signature = Vec::with_capacity(chosen.len());
            for subset in 0..1usize << chosen.len() {
                signature.clear();
                signature.extend(
                    chosen
                        .iter()
                        .enumerate()
                        .filter(|&(k, _)| subset >> k & 1 != 0)
                        .map(|(_, &c)| c),
                );
                if let Some(points) = self.by_signature.get(&signature) {
                    union(points);
                }
            }
        } else {
            for (signature, points) in &self.by_signature {
                let implied = signature
                    .iter()
                    .all(|&(dim, v)| choices.get(dim as usize).copied().flatten() == Some(v));
                if implied {
                    union(points);
                }
            }
        }
        out
    }

    /// Point ids disqualified by an arbitrary implicit preference profile.
    pub fn disqualified_by_preference(&self, pref: &Preference) -> Vec<PointId> {
        self.skyline
            .iter()
            .zip(&self.mdcs)
            .filter(|(_, mdcs)| mdcs.iter().any(|m| m.implied_by_preference(pref)))
            .map(|(&p, _)| p)
            .collect()
    }

    /// Total number of stored conditions (for storage accounting).
    pub fn condition_count(&self) -> usize {
        self.mdcs.iter().map(Vec::len).sum()
    }

    /// Approximate heap footprint in bytes.
    pub fn approximate_bytes(&self) -> usize {
        self.skyline.len() * std::mem::size_of::<PointId>()
            + self
                .mdcs
                .iter()
                .flat_map(|v| v.iter().map(Mdc::approximate_bytes))
                .sum::<usize>()
            + self
                .by_signature
                .iter()
                .map(|(s, points)| {
                    s.len() * std::mem::size_of::<(u16, ValueId)>()
                        + points.len() * std::mem::size_of::<u32>()
                })
                .sum::<usize>()
    }
}

/// Computes the MDCs of every point in `skyline` against the relation compiled into `ctx`,
/// considering only `dominators` as potential dominating points.
///
/// For a skyline point `p` and a dominator `q`, the candidate condition is the set of pairs
/// `(q.Dᵢ, p.Dᵢ)` on the nominal dimensions where the two values are distinct and not yet
/// related by `ctx`'s orders. It is feasible when `q` is at least as good as `p` on every
/// numeric dimension (`q ≤ p`) and never *worse* than `p` on a nominal dimension under those
/// orders.
///
/// The condition depends only on `q`'s nominal tuple, so the miner first finds the tuples
/// that hold a **numeric witness** for `p` — a dominator not worse than `p` on every numeric
/// dimension — and then forms one candidate per distinct witness tuple. The witnesses come
/// from one walk over the dominators' numeric columns, packed 64 rows to a block and sorted on
/// numeric dimension 0: each block answers `q ≤ p` for all 64 lanes at once, a block whose
/// zone minimum exceeds `p` on some dimension is skipped, and the walk stops at the first
/// block past `p₀`. With no numeric dimension every dominator is a witness. Only the minimal
/// candidates are kept.
///
/// `ctx`'s orders fix what a node's set means. The IPO-tree builder mines against the *empty*
/// relation of `SKY(∅)`, with `SKY(∅)` as the dominators: a node disqualifies `p` when some
/// dominator beats it under the node's first-order choices alone (path-only orders, as
/// `skyline_ipo::build::direct_disqualified` defines them). Restricting the dominators to the
/// skyline under `ctx`'s relation is lossless: if any point disqualifies `p` under a refinement,
/// some skyline point does too (follow the dominance chain upwards).
pub fn compute_mdcs_with_dominators<R: Deref<Target = Dataset>>(
    ctx: &CompiledRelation<R>,
    skyline: &[PointId],
    dominators: &[PointId],
) -> MdcIndex {
    let data = ctx.dataset();
    let (nd, md) = (data.schema().numeric_count(), data.schema().nominal_count());
    let zone = |q: PointId| data.numeric_row(q).first().copied().unwrap_or_default();
    // The distinct dominator tuples, in tuple order: the order candidates are formed in.
    let mut rows = dominators.to_vec();
    rows.sort_unstable_by(|&a, &b| data.nominal_row(a).cmp(data.nominal_row(b)));
    let mut tuples: Vec<&[ValueId]> = Vec::new();
    for &q in &rows {
        let tuple = data.nominal_row(q);
        if tuples.last() != Some(&tuple) {
            tuples.push(tuple);
        }
    }
    // The dominators' numeric columns packed in zone order, each lane with its tuple's index.
    rows.sort_unstable_by(|&a, &b| zone(a).total_cmp(&zone(b)));
    let lane_tuple: Vec<u32> = rows
        .iter()
        .map(|&q| tuples.partition_point(|&t| t < data.nominal_row(q)) as u32)
        .collect();
    let mut lanes = PackedLanes::default();
    lanes.reset(nd, 0);
    lanes.reserve(rows.len());
    for &q in &rows {
        lanes.push(data.numeric_row(q), &[]);
    }
    // Only the lanes are read from here on; the row list goes before the conditions grow.
    drop(rows);

    // `seen[t]` is the index of the last point that found a witness in tuple `t`.
    let mut seen = vec![usize::MAX; tuples.len()];
    let mut witnesses: Vec<u32> = Vec::new();
    let mut pairs: Vec<MdcPair> = Vec::with_capacity(md);
    let mdcs = skyline
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let (pn, pm) = (data.numeric_row(p), data.nominal_row(p));
            witnesses.clear();
            if nd == 0 {
                witnesses.extend(0..tuples.len() as u32);
            } else {
                lanes.for_each_numeric_not_worse(pn, |l| {
                    let t = lane_tuple[l];
                    if seen[t as usize] != i {
                        seen[t as usize] = i;
                        witnesses.push(t);
                    }
                });
                witnesses.sort_unstable();
            }
            let mut candidates = Vec::new();
            for &t in &witnesses {
                if tuple_pairs(ctx.orders(), tuples[t as usize], pm, &mut pairs) {
                    candidates.push(Mdc::new(pairs.clone()));
                }
            }
            minimalize(candidates)
        })
        .collect();
    MdcIndex::new(skyline.to_vec(), mdcs)
}

/// Fills `pairs` with the condition a dominator tuple `q` induces on a point with tuple `p`:
/// one pair per dimension where the values differ and `orders` does not already prefer `q`'s.
/// False when the tuple induces nothing — `orders` prefers `p`'s value somewhere (any
/// refinement keeps `p` strictly better there, so `q` can never dominate `p`), or no pair is
/// needed (`q` already dominates `p`, impossible for a skyline point, or the tuples are equal).
fn tuple_pairs(
    orders: &[CompiledOrder],
    q: &[ValueId],
    p: &[ValueId],
    pairs: &mut Vec<MdcPair>,
) -> bool {
    pairs.clear();
    for (j, (order, (&qv, &pv))) in orders.iter().zip(q.iter().zip(p)).enumerate() {
        if qv == pv || order.strictly_preferred(qv, pv) {
            continue;
        }
        if order.strictly_preferred(pv, qv) {
            return false;
        }
        pairs.push(MdcPair {
            dim: j as u16,
            better: qv,
            worse: pv,
        });
    }
    !pairs.is_empty()
}

/// Removes duplicate conditions and prunes conditions that strictly contain a kept single-pair
/// condition.
///
/// Full subset-minimality is only an optimization (a superset condition can never change which
/// preferences disqualify the point, it is just redundant), and computing it exactly is
/// quadratic in the number of candidate conditions. A point has at most one candidate per
/// dominator tuple — at most `∏ cᵢ`, 400 on the paper's default schema — so deduplication plus
/// single-pair pruning at linear cost removes nearly all of the redundancy; the few remaining
/// redundant multi-pair conditions only cost a few bytes of storage.
fn minimalize(candidates: Vec<Mdc>) -> Vec<Mdc> {
    use std::collections::HashSet;
    let mut distinct: Vec<Mdc> = Vec::with_capacity(candidates.len().min(1024));
    let mut seen: HashSet<Mdc> = HashSet::with_capacity(candidates.len().min(1024));
    let mut single_pairs: HashSet<MdcPair> = HashSet::new();
    for cand in candidates {
        if seen.insert(cand.clone()) {
            if cand.len() == 1 {
                single_pairs.insert(cand.pairs()[0]);
            }
            distinct.push(cand);
        }
    }
    let mut kept: Vec<Mdc> = distinct
        .into_iter()
        .filter(|c| c.len() == 1 || !c.pairs().iter().any(|p| single_pairs.contains(p)))
        .collect();
    kept.sort_by_key(Mdc::len);
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::bnl;
    use crate::dataset::{DatasetBuilder, RowValue};
    use crate::dominance::DominanceContext;
    use crate::order::{ImplicitPreference, PartialOrder, Template};
    use crate::schema::{Dimension, Schema};
    use crate::value::NominalDomain;

    /// Mines against `template`'s relation with every row as a potential dominator.
    fn mine(data: &Dataset, template: &Template, skyline: &[PointId]) -> MdcIndex {
        let rel = CompiledRelation::for_template(data, template).unwrap();
        let all: Vec<PointId> = data.point_ids().collect();
        compute_mdcs_with_dominators(&rel, skyline, &all)
    }

    /// The oracle: the pairwise miner, one candidate per feasible (point, dominator) pair,
    /// read through the reference `DominanceContext`'s columns and orders.
    fn pairwise_oracle(
        ctx: &DominanceContext<'_>,
        skyline: &[PointId],
        dominators: &[PointId],
    ) -> MdcIndex {
        let data = ctx.dataset();
        let mut mdcs = Vec::with_capacity(skyline.len());
        for &p in skyline {
            let mut candidates: Vec<Mdc> = Vec::new();
            'next_q: for &q in dominators {
                if q == p {
                    continue;
                }
                for j in 0..data.schema().numeric_count() {
                    if data.numeric(q, j) > data.numeric(p, j) {
                        continue 'next_q;
                    }
                }
                let mut pairs: Vec<MdcPair> = Vec::new();
                for (j, order) in ctx.orders().iter().enumerate() {
                    let (qv, pv) = (data.nominal(q, j), data.nominal(p, j));
                    if qv == pv || order.strictly_preferred(qv, pv) {
                        continue;
                    }
                    if order.strictly_preferred(pv, qv) {
                        continue 'next_q;
                    }
                    pairs.push(MdcPair {
                        dim: j as u16,
                        better: qv,
                        worse: pv,
                    });
                }
                if !pairs.is_empty() {
                    candidates.push(Mdc::new(pairs));
                }
            }
            mdcs.push(minimalize(candidates));
        }
        MdcIndex::new(skyline.to_vec(), mdcs)
    }

    /// SplitMix64: a dependency-free deterministic stream for the adversarial generator.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// A small adversarial dataset: values from {0, 1, 2, 3} (ties on every dimension,
    /// dimension 0 included), whole-row duplicates and rows that repeat an earlier row's
    /// numerics under a fresh tuple. `tuples` picks the nominal layout: 0 random, 1 a single
    /// tuple, 2 every row in its own tuple.
    fn adversarial_data(rng: &mut Rng, tuples: usize) -> Dataset {
        let (nd, md, card) = (rng.below(3), 1 + rng.below(2), 2 + rng.below(3));
        let mut dims: Vec<Dimension> = (0..nd)
            .map(|i| Dimension::numeric(format!("x{i}")))
            .collect();
        dims.extend(
            (0..md).map(|j| Dimension::nominal(format!("g{j}"), NominalDomain::anonymous(card))),
        );
        let mut data = Dataset::empty(Schema::new(dims).unwrap());
        let n = (1 + rng.below(14)).min(if tuples == 2 {
            card.pow(md as u32)
        } else {
            usize::MAX
        });
        for i in 0..n {
            let mut nums: Vec<f64> = (0..nd).map(|_| rng.below(4) as f64).collect();
            let mut noms: Vec<ValueId> = match tuples {
                0 => (0..md).map(|_| rng.below(card) as ValueId).collect(),
                1 => vec![1; md],
                _ => (0..md)
                    .map(|j| (i / card.pow(j as u32) % card) as ValueId)
                    .collect(),
            };
            if i > 0 && rng.below(4) == 0 {
                let src = rng.below(i) as PointId;
                nums = (0..nd).map(|j| data.numeric(src, j)).collect();
                if tuples != 2 && rng.below(2) == 0 {
                    noms = (0..md).map(|j| data.nominal(src, j)).collect();
                }
            }
            data.push_row_ids(&nums, &noms).unwrap();
        }
        data
    }

    /// The values of nominal dimension `j`, shuffled.
    fn shuffled(rng: &mut Rng, data: &Dataset, j: usize) -> Vec<ValueId> {
        let card = data.schema().nominal_domain(j).unwrap().cardinality();
        let mut values: Vec<ValueId> = (0..card as ValueId).collect();
        for i in (1..card).rev() {
            values.swap(i, rng.below(i + 1));
        }
        values
    }

    /// Either the empty relation or random acyclic orders (pairs along a shuffled chain).
    fn random_orders(rng: &mut Rng, data: &Dataset, empty: bool) -> Vec<PartialOrder> {
        (0..data.schema().nominal_count())
            .map(|j| {
                let chain = shuffled(rng, data, j);
                let card = chain.len();
                let pairs: Vec<(ValueId, ValueId)> = (0..card)
                    .flat_map(|a| (a + 1..card).map(move |b| (a, b)))
                    .filter(|_| !empty && rng.below(3) == 0)
                    .map(|(a, b)| (chain[a], chain[b]))
                    .collect();
                PartialOrder::from_pairs(card, pairs).unwrap()
            })
            .collect()
    }

    /// Every first-order path: per dimension φ or one value.
    fn first_order_paths(data: &Dataset) -> Vec<Vec<Option<ValueId>>> {
        let mut paths = vec![Vec::new()];
        for j in 0..data.schema().nominal_count() {
            let card = data.schema().nominal_domain(j).unwrap().cardinality() as ValueId;
            paths = paths
                .into_iter()
                .flat_map(|path| {
                    std::iter::once(None)
                        .chain((0..card).map(Some))
                        .map(move |c| {
                            let mut next = path.clone();
                            next.push(c);
                            next
                        })
                })
                .collect();
        }
        paths
    }

    /// The grouped miner ≡ the pairwise oracle on adversarial inputs: the same conditions per
    /// point (as sets), the same count, and the same disqualified sets for every first-order
    /// path and for random implicit preferences, under an empty and a non-empty relation and
    /// with all rows or a random subset as dominators.
    #[test]
    fn grouped_miner_matches_the_pairwise_oracle_on_adversarial_inputs() {
        let mut rng = Rng(0x5eed);
        for case in 0..600 {
            let data = adversarial_data(&mut rng, case % 3);
            assert_matches_the_pairwise_oracle(&mut rng, case, &data, case % 2 == 0);
        }
    }

    /// A dataset of 65–300 rows, so the packed witness walk crosses at least one 64-row
    /// block: numeric dimension 0 drawn from {−1, 0, 1, 2}, so runs of ties straddle the
    /// block boundaries once the rows are sorted, and about one row in four a whole-row
    /// duplicate of an earlier one. `shape` picks the dimensions: 0 no numeric dimension,
    /// 1 one to three numeric and one or two nominal, 2 one to three numeric and three
    /// nominal.
    fn block_crossing_data(rng: &mut Rng, shape: usize) -> Dataset {
        let nd = if shape == 0 { 0 } else { 1 + rng.below(3) };
        let (md, card) = if shape == 2 {
            (3, 2 + rng.below(2))
        } else {
            (1 + rng.below(2), 2 + rng.below(3))
        };
        let mut dims: Vec<Dimension> = (0..nd)
            .map(|i| Dimension::numeric(format!("x{i}")))
            .collect();
        dims.extend(
            (0..md).map(|j| Dimension::nominal(format!("g{j}"), NominalDomain::anonymous(card))),
        );
        let mut data = Dataset::empty(Schema::new(dims).unwrap());
        for i in 0..65 + rng.below(236) {
            if i > 0 && rng.below(4) == 0 {
                let src = rng.below(i) as PointId;
                let nums: Vec<f64> = (0..nd).map(|j| data.numeric(src, j)).collect();
                let noms: Vec<ValueId> = (0..md).map(|j| data.nominal(src, j)).collect();
                data.push_row_ids(&nums, &noms).unwrap();
                continue;
            }
            let nums: Vec<f64> = (0..nd)
                .map(|j| match j {
                    0 => rng.below(4) as f64 - 1.0,
                    _ => rng.below(5) as f64,
                })
                .collect();
            let noms: Vec<ValueId> = (0..md).map(|_| rng.below(card) as ValueId).collect();
            data.push_row_ids(&nums, &noms).unwrap();
        }
        data
    }

    /// The packed witness walk ≡ the pairwise oracle on inputs that fill more than one
    /// 64-row block, with the same assertions as the small adversarial cases.
    #[test]
    fn packed_miner_matches_the_pairwise_oracle_across_lane_blocks() {
        let mut rng = Rng(0xb10c);
        for case in 0..30 {
            let data = block_crossing_data(&mut rng, case % 3);
            assert!(data.len() > 64);
            assert_matches_the_pairwise_oracle(&mut rng, case, &data, case / 3 % 2 == 0);
        }
    }

    /// Mines `data` (every row a skyline point) under the empty relation or random orders,
    /// with all rows and with a random subset as dominators, and checks the result against
    /// the pairwise oracle: the same conditions per point (as sets), the same count, and the
    /// same disqualified sets for every first-order path and for random implicit preferences.
    fn assert_matches_the_pairwise_oracle(rng: &mut Rng, case: usize, data: &Dataset, empty: bool) {
        let orders = random_orders(rng, data, empty);
        let ctx = DominanceContext::new(data, orders.clone()).unwrap();
        let rel = CompiledRelation::new(data, &orders).unwrap();
        let all: Vec<PointId> = data.point_ids().collect();
        let some: Vec<PointId> = all.iter().copied().filter(|_| rng.below(3) > 0).collect();
        for dominators in [&all, &some] {
            let got = compute_mdcs_with_dominators(&rel, &all, dominators);
            let want = pairwise_oracle(&ctx, &all, dominators);
            let sets = |index: &MdcIndex, i: usize| {
                let mut set: Vec<Vec<MdcPair>> = index
                    .mdcs_of_index(i)
                    .iter()
                    .map(|m| m.pairs().to_vec())
                    .collect();
                set.sort();
                set
            };
            for i in 0..all.len() {
                assert_eq!(sets(&got, i), sets(&want, i), "case {case}, point {i}");
            }
            assert_eq!(got.condition_count(), want.condition_count(), "case {case}");
            for path in first_order_paths(data) {
                assert_eq!(
                    got.disqualified_by_first_order(&path),
                    want.disqualified_by_first_order(&path),
                    "case {case}, path {path:?}"
                );
                // The signature index against the definition, condition by condition.
                let implied: Vec<usize> = (0..all.len())
                    .filter(|&i| {
                        want.mdcs_of_index(i)
                            .iter()
                            .any(|m| m.implied_by_first_order(&path))
                    })
                    .collect();
                assert_eq!(
                    got.disqualified_by_first_order(&path)
                        .iter()
                        .collect::<Vec<_>>(),
                    implied,
                    "case {case}, path {path:?}"
                );
            }
            for _ in 0..4 {
                let dims = (0..data.schema().nominal_count())
                    .map(|j| {
                        let mut values = shuffled(rng, data, j);
                        values.truncate(rng.below(values.len() + 1));
                        ImplicitPreference::new(values).unwrap()
                    })
                    .collect();
                let pref = Preference::from_dims(dims);
                assert_eq!(
                    got.disqualified_by_preference(&pref),
                    want.disqualified_by_preference(&pref),
                    "case {case}, preference {pref:?}"
                );
            }
        }
    }

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
            b.push_row([RowValue::Num(price), RowValue::Num(-class), group.into()])
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn mdc_subset_and_implication() {
        let a = Mdc::new(vec![MdcPair {
            dim: 0,
            better: 1,
            worse: 2,
        }]);
        let b = Mdc::new(vec![
            MdcPair {
                dim: 0,
                better: 1,
                worse: 2,
            },
            MdcPair {
                dim: 1,
                better: 0,
                worse: 3,
            },
        ]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(a.is_subset_of(&a));

        assert!(a.implied_by_first_order(&[Some(1), None]));
        assert!(!a.implied_by_first_order(&[Some(2), None]));
        assert!(!b.implied_by_first_order(&[Some(1), None]));
        assert!(b.implied_by_first_order(&[Some(1), Some(0)]));

        let pref = Preference::from_dims(vec![
            ImplicitPreference::new([1]).unwrap(),
            ImplicitPreference::new([0, 3]).unwrap(),
        ]);
        assert!(b.implied_by_preference(&pref));
        let weaker = Preference::from_dims(vec![
            ImplicitPreference::new([1]).unwrap(),
            ImplicitPreference::new([3, 0]).unwrap(),
        ]);
        assert!(!b.implied_by_preference(&weaker));
    }

    #[test]
    fn mdcs_disqualify_exactly_the_right_points() {
        // Under the empty template, SKY = {a, c, e, f}. Checking each preference of Table 2
        // against the MDCs must reproduce the disqualified points.
        let data = vacation_data();
        let schema = data.schema().clone();
        let template = Template::empty(&schema);
        let ctx = DominanceContext::for_template(&data, &template).unwrap();
        let sky = bnl::skyline(&ctx);
        assert_eq!(sky, vec![0, 2, 4, 5]);
        let index = mine(&data, &template, &sky);
        assert_eq!(index.len(), 4);
        assert!(!index.is_empty());

        let cases = [
            ("T < M < *", vec![4, 5]), // Alice keeps {a, c}
            ("H < M < *", vec![5]),    // Chris keeps {a, c, e}
            ("H < T < *", vec![4, 5]), // Emily keeps {a, c}
            ("M < *", vec![]),         // Fred keeps all four
        ];
        for (text, expected_disqualified) in cases {
            let pref = Preference::parse(&schema, [("hotel-group", text)]).unwrap();
            let got = index.disqualified_by_preference(&pref);
            assert_eq!(got, expected_disqualified, "preference {text}");
        }
    }

    #[test]
    fn disqualified_by_first_order_matches_preference_form() {
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let ctx = DominanceContext::for_template(&data, &template).unwrap();
        let sky = bnl::skyline(&ctx);
        let index = mine(&data, &template, &sky);
        // First-order choice T ≺ * on the only nominal dimension.
        let bits = index.disqualified_by_first_order(&[Some(0)]);
        let by_pref = index.disqualified_by_preference(&Preference::from_dims(vec![
            ImplicitPreference::first_order(0),
        ]));
        let from_bits: Vec<PointId> = bits.iter().map(|i| index.skyline()[i]).collect();
        assert_eq!(from_bits, by_pref);
        // No choice at all disqualifies nothing.
        assert!(index.disqualified_by_first_order(&[None]).is_empty());
    }

    #[test]
    fn skyline_points_never_have_empty_mdcs() {
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let ctx = DominanceContext::for_template(&data, &template).unwrap();
        let sky = bnl::skyline(&ctx);
        let index = mine(&data, &template, &sky);
        for i in 0..index.len() {
            for mdc in index.mdcs_of_index(i) {
                assert!(!mdc.is_empty());
            }
        }
        assert!(index.condition_count() > 0);
        assert!(index.approximate_bytes() > 0);
        assert!(index.mdcs_of_point(0).is_some());
        assert!(index.mdcs_of_point(1).is_none());
    }

    #[test]
    fn minimalize_prunes_supersets_and_duplicates() {
        let small = Mdc::new(vec![MdcPair {
            dim: 0,
            better: 1,
            worse: 0,
        }]);
        let big = Mdc::new(vec![
            MdcPair {
                dim: 0,
                better: 1,
                worse: 0,
            },
            MdcPair {
                dim: 1,
                better: 2,
                worse: 0,
            },
        ]);
        let other = Mdc::new(vec![MdcPair {
            dim: 1,
            better: 2,
            worse: 0,
        }]);
        let kept = minimalize(vec![
            big.clone(),
            small.clone(),
            small.clone(),
            other.clone(),
        ]);
        assert_eq!(kept.len(), 2);
        assert!(kept.contains(&small));
        assert!(kept.contains(&other));
        assert!(!kept.contains(&big));
    }
}
