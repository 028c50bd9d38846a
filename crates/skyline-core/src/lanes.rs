//! Bit-parallel packed window lanes: the hardware floor of the dominance scan.
//!
//! The compiled kernel's pairwise test ([`crate::kernel::CompiledRelation::dominates`]) is
//! contiguous loads and integer compares, but answers for **one row at a time**. Every
//! window the kernel scans — SFS, the cross-source merges, the MDC miner's witness walk
//! ([`PackedLanes::for_each_numeric_not_worse`]) — is instead laid out in 64-row
//! **blocks with one lane per row**, so a single pass over a block answers the dominance
//! question for all 64 rows at once as plain `u64` mask algebra:
//!
//! * values are stored **block-major, dimension-major**: lane `l` of dimension `j` in block
//!   `b` lives at `(b * dims + j) * 64 + l`. A per-dimension mask kernel streams 64
//!   contiguous cells, compares each against the probe's value and packs the outcomes into
//!   one `u64` — a movemask without `std::simd`, autovectorizable on stable;
//! * per block, a `not_worse` mask is narrowed dimension by dimension (starting from the
//!   block's **validity mask**, so tail padding and evicted rows can never produce a false
//!   dominator) and a `strict` mask is accumulated; `not_worse & strict` is the set of lanes
//!   dominating the probe, and `trailing_zeros` recovers the first one in push order;
//! * a lane is evicted by clearing its validity bit ([`PackedLanes::clear_valid`], the
//!   cross-source merge's step), leaving the stored values in place: lanes are never reused.
//!
//! Nominal dimensions store `(value id, layered rank)` lanes: ranked (weak) orders compare
//! ranks with pure integer masks, general partial orders probe the compiled closure per
//! lane (the closure table is a few hundred bytes, L1-resident).
//!
//! # Zone maps
//!
//! `p ≺ q` needs `p` not worse than `q` on **every** dimension, so one dimension on which no
//! lane of a block can be not-worse than the probe rules the whole block out before a single
//! lane is compared. Each block therefore carries a summary, maintained by
//! [`PackedLanes::push`] and consulted inside [`PackedLanes::first_dominator`]'s block loop:
//!
//! * per nominal dimension the **set of value ids present**, folded into one `u64` (bit
//!   `v mod 64`). The block is skipped when that set misses
//!   [`CompiledOrder::not_worse_set`] of the probe's value — the equally folded set
//!   `{u : u = v ∨ u ≺ v}`. Folding only ever merges bits, so an empty folded intersection
//!   implies an empty true one: exact up to cardinality 64, conservative above. Tested first,
//!   before any lane is read: on value-clustered blocks this is the test that fires;
//! * per numeric dimension the **minimum** lane value. The block is left when
//!   `min > probe`: then `lane > probe` on all 64 lanes. Tested per dimension, right before
//!   that dimension's mask pass, so a score-sorted window scan — whose blocks mostly die on
//!   their first numeric pass and are never value-clustered — pays one compare per pass it
//!   would have run anyway.
//!
//! The summaries cover every lane ever pushed into the block, evicted or not — a superset of
//! the live lanes, so eviction can only make a skip rarer, never wrong. Padding lanes are in
//! no summary and have no validity bit. A skip therefore never hides a dominator; how often
//! it fires depends on how value-homogeneous the caller makes its blocks (the cross-source
//! merge sorts its candidates for exactly that).

use crate::kernel::CompiledOrder;

/// Rows per packed block: one lane per bit of the `u64` masks.
pub(crate) const LANE_COUNT: usize = 64;

/// A packed, cache-blocked copy of accepted rows, 64 per block, with one validity bit per
/// lane.
///
/// Pushing appends to the next free lane (allocating a zero-filled block when the previous
/// one is full); eviction clears validity bits and never compacts, so a lane index is a
/// stable identity for the lifetime of the scan.
#[derive(Debug, Clone, Default)]
pub(crate) struct PackedLanes {
    numeric_dims: usize,
    nominal_dims: usize,
    /// Numeric lanes, block-major: cell `(b * numeric_dims + j) * 64 + l`.
    nums: Vec<f64>,
    /// Nominal value-id lanes, same layout with `nominal_dims`.
    vals: Vec<u16>,
    /// Nominal layered-rank lanes, aligned with `vals`.
    ranks: Vec<u16>,
    /// One validity mask per block; bit `l` set when lane `l` holds a live row.
    valid: Vec<u64>,
    /// Numeric zone map: cell `b * numeric_dims + j` is block `b`'s minimum on dimension `j`.
    zone_min: Vec<f64>,
    /// Nominal zone map: cell `b * nominal_dims + j` is the set of value ids block `b` holds
    /// on dimension `j`, folded to bit `v mod 64`.
    zone_vals: Vec<u64>,
    /// Lanes allocated so far (push count; evicted lanes stay allocated but invalid).
    len: usize,
}

impl PackedLanes {
    /// Empties the lanes and binds them to a relation's dimensions, keeping allocations.
    pub fn reset(&mut self, numeric_dims: usize, nominal_dims: usize) {
        self.numeric_dims = numeric_dims;
        self.nominal_dims = nominal_dims;
        self.nums.clear();
        self.vals.clear();
        self.ranks.clear();
        self.valid.clear();
        self.zone_min.clear();
        self.zone_vals.clear();
        self.len = 0;
    }

    /// Reserves room for `rows` more lanes' numeric values, validity masks and numeric zone
    /// minima, so a caller that knows its row count allocates them once.
    pub fn reserve(&mut self, rows: usize) {
        let blocks = (self.len + rows).div_ceil(LANE_COUNT) - self.valid.len();
        self.nums
            .reserve_exact(blocks * self.numeric_dims * LANE_COUNT);
        self.valid.reserve_exact(blocks);
        self.zone_min.reserve_exact(blocks * self.numeric_dims);
    }

    /// Lanes allocated so far (including evicted ones).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when lane `l` is allocated and has not been evicted.
    #[cfg(test)]
    pub fn is_valid(&self, l: usize) -> bool {
        l < self.len && self.valid[l / LANE_COUNT] >> (l % LANE_COUNT) & 1 != 0
    }

    /// Evicts lane `l` (marks it invalid; its stored values are left in place).
    pub fn clear_valid(&mut self, l: usize) {
        debug_assert!(l < self.len);
        self.valid[l / LANE_COUNT] &= !(1u64 << (l % LANE_COUNT));
    }

    /// Appends one row to the next lane: `nums_row` in numeric-dimension order and
    /// `noms_pairs` as the `(value id, layered rank)` interleaved pairs of the nominal
    /// dimensions (the same format [`crate::kernel::DenseWindow`] stages its probe in).
    pub fn push(&mut self, nums_row: &[f64], noms_pairs: &[u16]) {
        debug_assert_eq!(nums_row.len(), self.numeric_dims);
        debug_assert_eq!(noms_pairs.len(), self.nominal_dims * 2);
        let lane = self.len % LANE_COUNT;
        if lane == 0 {
            // Zero-filled padding is harmless: padding lanes have no validity bit, and
            // every mask query starts from the validity mask.
            self.nums
                .resize(self.nums.len() + self.numeric_dims * LANE_COUNT, 0.0);
            self.vals
                .resize(self.vals.len() + self.nominal_dims * LANE_COUNT, 0);
            self.ranks
                .resize(self.ranks.len() + self.nominal_dims * LANE_COUNT, 0);
            self.valid.push(0);
            self.zone_min
                .resize(self.zone_min.len() + self.numeric_dims, f64::INFINITY);
            self.zone_vals
                .resize(self.zone_vals.len() + self.nominal_dims, 0);
        }
        let b = self.len / LANE_COUNT;
        for (j, &v) in nums_row.iter().enumerate() {
            self.nums[(b * self.numeric_dims + j) * LANE_COUNT + lane] = v;
            let zone = &mut self.zone_min[b * self.numeric_dims + j];
            *zone = zone.min(v);
        }
        for j in 0..self.nominal_dims {
            self.vals[(b * self.nominal_dims + j) * LANE_COUNT + lane] = noms_pairs[2 * j];
            self.ranks[(b * self.nominal_dims + j) * LANE_COUNT + lane] = noms_pairs[2 * j + 1];
            self.zone_vals[b * self.nominal_dims + j] |= 1 << (noms_pairs[2 * j] & 63);
        }
        self.valid[b] |= 1 << lane;
        self.len += 1;
    }

    /// The nominal zone test (see the module header): true when, on some nominal dimension,
    /// block `b` holds none of the values a row dominating the probe could carry there.
    #[inline]
    fn nominal_zone_excludes(&self, b: usize, orders: &[CompiledOrder], probe: &[u16]) -> bool {
        let sets = &self.zone_vals[b * self.nominal_dims..][..self.nominal_dims];
        for (j, order) in orders.iter().enumerate() {
            if sets[j] & order.not_worse_set(probe[2 * j]) == 0 {
                return true;
            }
        }
        false
    }

    /// Index (in push order) of the first valid lane whose row dominates the probe (`pn`
    /// numeric values, `probe` nominal `(id, rank)` pairs), or `None`.
    pub fn first_dominator(
        &self,
        orders: &[CompiledOrder],
        pn: &[f64],
        probe: &[u16],
    ) -> Option<usize> {
        'blocks: for (b, &valid) in self.valid.iter().enumerate() {
            let mut nw = valid;
            if nw == 0 || self.nominal_zone_excludes(b, orders, probe) {
                continue;
            }
            let mut st = 0u64;
            let mins = &self.zone_min[b * self.numeric_dims..][..self.numeric_dims];
            for (j, &pv) in pn.iter().enumerate() {
                if mins[j] > pv {
                    continue 'blocks;
                }
                let lane = self.numeric_lane(b, j);
                let (not_worse, strict) = numeric_masks(lane, pv);
                nw &= not_worse;
                st |= strict;
                if nw == 0 {
                    continue 'blocks;
                }
            }
            for (j, order) in orders.iter().enumerate() {
                let (pvv, pvr) = (probe[2 * j], probe[2 * j + 1]);
                let vals = self.value_lane(b, j);
                let (not_worse, strict) = if order.is_ranked() {
                    ranked_masks(vals, self.rank_lane(b, j), pvv, pvr)
                } else {
                    closure_masks(order, vals, pvv)
                };
                nw &= not_worse;
                st |= strict;
                if nw == 0 {
                    continue 'blocks;
                }
            }
            let hit = nw & st;
            if hit != 0 {
                return Some(b * LANE_COUNT + hit.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Calls `f` with every valid lane (in push order) not worse than `pn` on every numeric
    /// dimension — the `not_worse` half of [`PackedLanes::first_dominator`]'s numeric passes.
    /// The nominal lanes are not read.
    ///
    /// The lanes must have been pushed in ascending order of numeric dimension 0:
    /// the walk stops at the first block whose zone minimum there exceeds `pn[0]`, and skips a
    /// block whose zone minimum exceeds the probe on another dimension.
    pub fn for_each_numeric_not_worse(&self, pn: &[f64], mut f: impl FnMut(usize)) {
        'blocks: for (b, &valid) in self.valid.iter().enumerate() {
            let mut nw = valid;
            let mins = &self.zone_min[b * self.numeric_dims..][..self.numeric_dims];
            for (j, &pv) in pn.iter().enumerate() {
                if mins[j] > pv {
                    if j == 0 {
                        return;
                    }
                    continue 'blocks;
                }
                if nw == 0 {
                    continue 'blocks;
                }
                nw &= numeric_masks(self.numeric_lane(b, j), pv).0;
            }
            while nw != 0 {
                f(b * LANE_COUNT + nw.trailing_zeros() as usize);
                nw &= nw - 1;
            }
        }
    }

    #[inline]
    fn numeric_lane(&self, b: usize, j: usize) -> &[f64] {
        let start = (b * self.numeric_dims + j) * LANE_COUNT;
        &self.nums[start..start + LANE_COUNT]
    }

    #[inline]
    fn value_lane(&self, b: usize, j: usize) -> &[u16] {
        let start = (b * self.nominal_dims + j) * LANE_COUNT;
        &self.vals[start..start + LANE_COUNT]
    }

    #[inline]
    fn rank_lane(&self, b: usize, j: usize) -> &[u16] {
        let start = (b * self.nominal_dims + j) * LANE_COUNT;
        &self.ranks[start..start + LANE_COUNT]
    }
}

/// Numeric movemask, lane-dominates-probe direction: bit `l` of `not_worse` when lane `l`'s
/// value is not worse than (not greater than) `pv`, of `strict` when it is strictly better.
#[inline]
fn numeric_masks(lane: &[f64], pv: f64) -> (u64, u64) {
    let mut not_worse = 0u64;
    let mut strict = 0u64;
    for (l, &qv) in lane.iter().enumerate() {
        not_worse |= u64::from(qv <= pv) << l;
        strict |= u64::from(qv < pv) << l;
    }
    (not_worse, strict)
}

/// Ranked (weak-order) nominal movemask, lane-dominates-probe direction: `q ⪯ p ⟺ q = p ∨
/// rank(q) < rank(p)`, strict exactly on the rank compare.
#[inline]
fn ranked_masks(vals: &[u16], ranks: &[u16], pvv: u16, pvr: u16) -> (u64, u64) {
    let mut not_worse = 0u64;
    let mut strict = 0u64;
    for l in 0..LANE_COUNT {
        let better = ranks[l] < pvr;
        not_worse |= u64::from((vals[l] == pvv) | better) << l;
        strict |= u64::from(better) << l;
    }
    (not_worse, strict)
}

/// General partial-order nominal mask, lane-dominates-probe direction: probes the compiled
/// closure per lane (strict orders are irreflexive, so `preferred` is false on equal values
/// and `strict` needs no extra `differs` term).
#[inline]
fn closure_masks(order: &CompiledOrder, vals: &[u16], pvv: u16) -> (u64, u64) {
    let mut not_worse = 0u64;
    let mut strict = 0u64;
    for (l, &qv) in vals.iter().enumerate() {
        let preferred = order.strictly_preferred(qv, pvv);
        not_worse |= u64::from((qv == pvv) | preferred) << l;
        strict |= u64::from(preferred) << l;
    }
    (not_worse, strict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::PartialOrder;

    fn ranked_order(card: usize, chain: &[u16]) -> CompiledOrder {
        let pairs: Vec<(u16, u16)> = chain.windows(2).map(|w| (w[0], w[1])).collect();
        // Close the chain over the remaining values: every listed value beats the rest.
        let mut all = pairs.clone();
        if let Some(&last) = chain.last() {
            for v in 0..card as u16 {
                if !chain.contains(&v) {
                    all.push((last, v));
                }
            }
        }
        CompiledOrder::compile(&PartialOrder::from_pairs(card, all).unwrap())
    }

    fn pairs_for(orders: &[CompiledOrder], vals: &[u16]) -> Vec<u16> {
        orders
            .iter()
            .zip(vals)
            .flat_map(|(o, &v)| [v, o.layer(v)])
            .collect()
    }

    #[test]
    fn push_fills_lanes_across_block_boundaries() {
        let mut lanes = PackedLanes::default();
        lanes.reset(1, 1);
        let orders = vec![ranked_order(3, &[0, 1])];
        for i in 0..130 {
            let pairs = pairs_for(&orders, &[(i % 3) as u16]);
            lanes.push(&[i as f64], &pairs);
        }
        assert_eq!(lanes.len(), 130);
        assert!(lanes.is_valid(0));
        assert!(lanes.is_valid(129));
        assert!(!lanes.is_valid(130), "unallocated lanes are invalid");
        lanes.clear_valid(64);
        assert!(!lanes.is_valid(64));
        assert!(lanes.is_valid(65));
    }

    #[test]
    fn first_dominator_finds_the_earliest_live_lane() {
        let mut lanes = PackedLanes::default();
        lanes.reset(2, 0);
        // Lanes 0..70 all have value (5, 5); the probe (6, 6) is dominated by each.
        for _ in 0..70 {
            lanes.push(&[5.0, 5.0], &[]);
        }
        assert_eq!(lanes.first_dominator(&[], &[6.0, 6.0], &[]), Some(0));
        // Evict the whole first block: the first dominator moves to lane 64.
        for l in 0..64 {
            lanes.clear_valid(l);
        }
        assert_eq!(lanes.first_dominator(&[], &[6.0, 6.0], &[]), Some(64));
        // Equal rows never dominate (no strict dimension).
        assert_eq!(lanes.first_dominator(&[], &[5.0, 5.0], &[]), None);
    }

    /// Lane-dominates-probe on raw `(numeric, value)` rows.
    fn scalar_dominates(order: &CompiledOrder, q: (f64, u16), p: (f64, u16)) -> bool {
        let preferred = order.strictly_preferred(q.1, p.1);
        q.0 <= p.0 && (q.1 == p.1 || preferred) && (q.0 < p.0 || preferred)
    }

    #[test]
    fn zone_skip_fires_on_incompatible_blocks_and_never_hides_a_dominator() {
        // 0 ≺ 1 ≺ {2, 3, 4}: a probe valued 2 can only be dominated by lanes valued 0, 1 or 2.
        let orders = vec![ranked_order(5, &[0, 1])];
        let mut lanes = PackedLanes::default();
        lanes.reset(1, 1);
        // Block 0: 64 lanes valued 3/4 — nominally incompatible with a probe valued 2.
        // Block 1: 63 such lanes and, at lane 100, the one compatible dominator.
        // Block 2: compatible values, but every numeric above the probe's.
        for l in 0..192 {
            let row = match l {
                100 => (1.0, 1),
                0..=127 => (1.0, 3 + (l % 2) as u16),
                _ => (9.0, 0),
            };
            lanes.push(&[row.0], &pairs_for(&orders, &[row.1]));
        }
        let probe = pairs_for(&orders, &[2]);
        assert!(lanes.nominal_zone_excludes(0, &orders, &probe));
        assert!(!lanes.nominal_zone_excludes(1, &orders, &probe));
        assert!(!lanes.nominal_zone_excludes(2, &orders, &probe));
        assert!(
            lanes.zone_min[2] > 5.0,
            "block 2 is ruled out by its minimum"
        );
        assert_eq!(lanes.first_dominator(&orders, &[5.0], &probe), Some(100));
        // Evicting the dominator leaves the summaries a superset of the live lanes: the
        // block is still opened, nothing is found, nothing evicted is reported.
        lanes.clear_valid(100);
        assert!(!lanes.nominal_zone_excludes(1, &orders, &probe));
        assert_eq!(lanes.first_dominator(&orders, &[5.0], &probe), None);
        // A probe valued 0 is dominated by nothing here, equal-valued block 2 included.
        let best = pairs_for(&orders, &[0]);
        assert!(lanes.nominal_zone_excludes(0, &orders, &best));
        assert_eq!(lanes.first_dominator(&orders, &[9.0], &best), None);
    }

    #[test]
    fn folded_value_sets_stay_sound_above_cardinality_64() {
        // 70 values: 69 ≺ 3 and 5 ≺ 68, everything else incomparable. Values 5 and 69 share
        // zone bit 5, values 4 and 68 bit 4, so some blocks are opened needlessly — but every
        // answer must still match the scalar oracle.
        let order =
            CompiledOrder::compile(&PartialOrder::from_pairs(70, [(69, 3), (5, 68)]).unwrap());
        let orders = std::slice::from_ref(&order);
        let lane_rows: Vec<(f64, u16)> = (0..256)
            .map(|i| ((i % 7) as f64, ((i / 64) * 17 + i % 6 + 60) as u16 % 70))
            .collect();
        let mut lanes = PackedLanes::default();
        lanes.reset(1, 1);
        for &(num, val) in &lane_rows {
            lanes.push(&[num], &pairs_for(orders, &[val]));
        }
        let mut skipped = 0;
        for pn in 0..7 {
            for pv in 0..70u16 {
                let p = (pn as f64, pv);
                let probe = pairs_for(orders, &[pv]);
                skipped += (0..4)
                    .filter(|&b| lanes.nominal_zone_excludes(b, orders, &probe))
                    .count();
                assert_eq!(
                    lanes.first_dominator(orders, &[p.0], &probe),
                    lane_rows
                        .iter()
                        .position(|&q| scalar_dominates(&order, q, p)),
                    "probe ({pn}, {pv})"
                );
            }
        }
        assert!(skipped > 0, "the folded sets still rule blocks out");
    }

    #[test]
    fn unranked_orders_take_the_closure_path_and_match_a_scalar_oracle() {
        // 0 ≺ 2 ≺ 1 plus the island 3 ≺ 4: not a weak order, so every mask must come from
        // the closure probes. Check them against a scalar re-derivation.
        let order =
            CompiledOrder::compile(&PartialOrder::from_pairs(5, [(0, 2), (2, 1), (3, 4)]).unwrap());
        assert!(!order.is_ranked());
        let orders = std::slice::from_ref(&order);
        let lane_rows: Vec<(f64, u16)> =
            (0..70).map(|i| ((i % 3) as f64, (i % 5) as u16)).collect();
        let mut lanes = PackedLanes::default();
        lanes.reset(1, 1);
        for &(num, val) in &lane_rows {
            lanes.push(&[num], &pairs_for(orders, &[val]));
        }
        let dominates = |q, p| scalar_dominates(&order, q, p);
        for pn in 0..3 {
            for pv in 0..5u16 {
                let p = (pn as f64, pv);
                let probe = pairs_for(orders, &[pv]);
                let expected = lane_rows.iter().position(|&q| dominates(q, p));
                assert_eq!(
                    lanes.first_dominator(orders, &[p.0], &probe),
                    expected,
                    "probe ({pn}, {pv})"
                );
            }
        }
    }
}
