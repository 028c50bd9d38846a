//! Compiled dominance kernel: query-compiled orders over a cache-friendly point layout.
//!
//! [`crate::DominanceContext`] is the *reference* dominance implementation: per-column lookups
//! into the columnar [`Dataset`] plus a [`PartialOrder`] closure probe per nominal dimension.
//! Correct, but every pairwise test pays strided column access (one cache line per dimension
//! per point) and several layers of bounds-checked indirection — and the pairwise test is the
//! innermost loop of every algorithm in this workspace (BNL, SFS, Adaptive SFS, the hybrid
//! engine's fallback), each of which performs an O(n²)-shaped number of them.
//!
//! This module compiles the same relation into a form the hardware likes:
//!
//! * [`PointBlock`] — a **row-major, interleaved layout** of the dataset: all numeric values
//!   of one point are contiguous, and so are its nominal value ids. One pairwise test touches
//!   two short contiguous runs instead of `d` strided columns. A block depends only on the
//!   dataset, so it is built **once** and shared (`Arc`) across every query, engine and
//!   worker thread.
//! * [`CompiledOrder`] — one nominal dimension's strict order flattened into **dense per-value
//!   closure bitmask rows** (`u64` words: bit `v` of row `u` says `u ≺ v`) plus **layered
//!   ranks** (topological depth in the order's DAG), giving a branch-light `u ≺ v` probe with
//!   a one-compare early out. Compiling is O(c²) bit probes over a cardinality-`c` domain —
//!   nominal cardinalities are tiny (4–40 in the paper), so this costs well under a
//!   microsecond per query.
//! * [`CompiledRelation`] — the kernel itself: a shared block plus one compiled order per
//!   nominal dimension. Behaviourally identical to [`DominanceContext`] (asserted by the
//!   `kernel_equivalence` property suite) but with the inner loop reduced to contiguous loads,
//!   integer compares and single-word bit tests.
//!
//! Algorithms accept either implementation through the [`Dominance`] trait, keeping
//! [`DominanceContext`] as the executable specification the kernel is checked against.

use crate::dataset::Dataset;
use crate::dominance::{DomRelation, Dominance, DominanceContext};
use crate::error::{Result, SkylineError};
use crate::lanes::PackedLanes;
use crate::order::{PartialOrder, Preference, Template};
use crate::schema::Schema;
use crate::value::{PointId, ValueId};
use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

/// The dominance inner loop the compiled kernel runs: the bit-parallel window, where accepted
/// rows are packed 64 to a block and one pass of `u64` mask algebra tests the candidate
/// against all of them at once. It is the only one; [`DominanceContext`] is the reference
/// it is checked against.
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

/// Version counter of a mutable dataset: every row insertion or logical deletion bumps it.
///
/// Query answers are only meaningful relative to the epoch they were computed at, so serving
/// layers tag derived artifacts (cached skylines, materialized statistics) with the epoch and
/// treat a mismatch as staleness. Epochs are totally ordered; [`DatasetEpoch::INITIAL`] is the
/// epoch of a freshly built, never-mutated block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DatasetEpoch(u64);

impl DatasetEpoch {
    /// The epoch of a freshly built, never-mutated dataset.
    pub const INITIAL: Self = Self(0);

    /// The raw counter value.
    pub fn get(self) -> u64 {
        self.0
    }

    /// Reconstructs an epoch from its raw counter — the snapshot load path uses this to
    /// restore a rehydrated block's mutation epoch so epoch-tagged artifacts (cached
    /// skylines, remap chains) keep composing across a process restart.
    pub fn from_raw(raw: u64) -> Self {
        Self(raw)
    }
}

impl fmt::Display for DatasetEpoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epoch {}", self.0)
    }
}

/// Mapping between the row-id spaces of a [`PointBlock`] and its physically compacted
/// successor.
///
/// Compaction ([`PointBlock::compacted`]) drops tombstoned rows and renumbers the survivors,
/// so every id minted before the compaction is stale afterwards. The remap is the published
/// translation: `new_id(old)` is the surviving row's new id (or `None` when the old row was
/// dead and physically reclaimed), `old_id(new)` goes the other way. Both directions are
/// **order-preserving** — compaction keeps surviving rows in their original relative order and
/// appends replayed rows at the end — so translating a sorted id list yields a sorted list.
///
/// Serving layers hold the remap next to the epochs it bridges so derived artifacts (cached
/// skylines, caller-held row handles) can be translated instead of discarded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowIdRemap {
    /// `forward[old]` = the row's id in the new space, `None` when it was reclaimed.
    forward: Vec<Option<PointId>>,
    /// `backward[new]` = the row's id in the old space.
    backward: Vec<PointId>,
}

impl RowIdRemap {
    /// Builds the remap for a compaction that keeps exactly the rows where `live` is true,
    /// in order.
    fn from_liveness(live: &[bool]) -> Self {
        let mut forward = Vec::with_capacity(live.len());
        let mut backward = Vec::new();
        for (old, &is_live) in live.iter().enumerate() {
            if is_live {
                forward.push(Some(backward.len() as PointId));
                backward.push(old as PointId);
            } else {
                forward.push(None);
            }
        }
        Self { forward, backward }
    }

    /// The new id of old row `old`, or `None` when the row was physically reclaimed (it was
    /// tombstoned before the compaction) or never existed.
    pub fn new_id(&self, old: PointId) -> Option<PointId> {
        self.forward.get(old as usize).copied().flatten()
    }

    /// The old id of new row `new`, or `None` when `new` is out of range.
    pub fn old_id(&self, new: PointId) -> Option<PointId> {
        self.backward.get(new as usize).copied()
    }

    /// Number of rows in the old id space (including the reclaimed ones).
    pub fn old_len(&self) -> usize {
        self.forward.len()
    }

    /// Number of rows in the new id space.
    pub fn new_len(&self) -> usize {
        self.backward.len()
    }

    /// Number of old rows physically reclaimed by the compaction.
    pub fn reclaimed(&self) -> usize {
        self.old_len() - self.new_len()
    }

    /// True when the compaction dropped nothing (every old id maps to itself).
    pub fn is_identity(&self) -> bool {
        self.old_len() == self.new_len()
    }

    /// The old ids of the surviving rows, in new-id order (`kept_old_ids()[new] == old`) —
    /// exactly the `keep` list [`crate::Dataset::retained`] expects for the dataset half of a
    /// compaction.
    pub fn kept_old_ids(&self) -> &[PointId] {
        &self.backward
    }

    /// Records a row appended (in both spaces) **after** the compaction snapshot was taken:
    /// the next old id maps to `new`. The generation-swap replay path uses this to keep the
    /// published remap covering rows inserted while the new generation was being built.
    /// Replayed rows land at the tail of the new space, so `new` must equal
    /// [`RowIdRemap::new_len`].
    pub fn push_appended(&mut self, new: PointId) {
        debug_assert_eq!(new as usize, self.backward.len());
        let old = self.forward.len() as PointId;
        self.forward.push(Some(new));
        self.backward.push(old);
    }

    /// Translates a list of old ids, preserving order; `None` when any id has no mapping
    /// (i.e. some listed row was reclaimed — the caller's artifact is unsalvageable).
    pub fn translate_ids(&self, old: &[PointId]) -> Option<Vec<PointId>> {
        old.iter().map(|&p| self.new_id(p)).collect()
    }
}

/// Row-major, interleaved copy of a dataset's values, shared by every compiled relation.
///
/// Point `p` occupies `numeric_dims` contiguous `f64`s in [`PointBlock::numeric_row`] and
/// `nominal_dims` contiguous [`ValueId`]s in [`PointBlock::nominal_row`], so a pairwise
/// dominance test reads two short cache-resident runs instead of one strided cell per column.
/// The block is query-independent: build it once per dataset (an O(n·d) transpose) and hand
/// the same `Arc` to every [`CompiledRelation`].
///
/// Blocks support **dynamic datasets** without a rebuild: [`PointBlock::append_row`] adds a
/// point at the end and [`PointBlock::tombstone`] logically deletes one. Both bump the block's
/// [`DatasetEpoch`]. Tombstoned rows keep their id (so existing query answers stay
/// addressable) but are excluded from [`PointBlock::live_ids`], which is what the elimination
/// scans enumerate — dead rows simply never enter a window or candidate list.
#[derive(Debug, Clone, PartialEq)]
pub struct PointBlock {
    len: usize,
    numeric_dims: usize,
    nominal_dims: usize,
    nums: Vec<f64>,
    noms: Vec<ValueId>,
    /// Per nominal dimension: the largest value id present (0 for empty datasets); used to
    /// validate compiled orders against the block without retaining the schema.
    max_value: Vec<ValueId>,
    /// `live[p]` is false when row `p` has been tombstoned.
    live: Vec<bool>,
    live_len: usize,
    epoch: u64,
}

impl PointBlock {
    /// Transposes `data` into the interleaved row-major layout.
    pub fn new(data: &Dataset) -> Self {
        let schema = data.schema();
        let len = data.len();
        let numeric_dims = schema.numeric_count();
        let nominal_dims = schema.nominal_count();
        let mut nums = Vec::with_capacity(len * numeric_dims);
        let mut noms = Vec::with_capacity(len * nominal_dims);
        for p in 0..len as PointId {
            for j in 0..numeric_dims {
                nums.push(data.numeric(p, j));
            }
            for j in 0..nominal_dims {
                noms.push(data.nominal(p, j));
            }
        }
        let max_value = (0..nominal_dims)
            .map(|j| {
                data.nominal_column(j)
                    .iter()
                    .copied()
                    .max()
                    .unwrap_or_default()
            })
            .collect();
        Self {
            len,
            numeric_dims,
            nominal_dims,
            nums,
            noms,
            max_value,
            live: vec![true; len],
            live_len: len,
            epoch: 0,
        }
    }

    /// Number of points in the block, **including** tombstoned rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the block holds no points at all (live or dead).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The block's current mutation epoch (bumped by every append or tombstone).
    pub fn epoch(&self) -> DatasetEpoch {
        DatasetEpoch(self.epoch)
    }

    /// Number of live (non-tombstoned) rows.
    pub fn live_count(&self) -> usize {
        self.live_len
    }

    /// Number of tombstoned rows still physically occupying the block.
    pub fn dead_count(&self) -> usize {
        self.len - self.live_len
    }

    /// Fraction of the block's rows that are tombstoned (0 for an empty block) — the quantity
    /// maintenance policies watch to decide when physical compaction pays off.
    pub fn dead_ratio(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.dead_count() as f64 / self.len as f64
        }
    }

    /// Physically compacts the block: tombstoned rows are dropped, survivors renumbered in
    /// order. Returns the new block — every row live, `len() == live_count()` — and the
    /// [`RowIdRemap`] translating old ids to new ones.
    ///
    /// The compacted block's epoch is the source epoch **plus one**: renumbering invalidates
    /// every id minted against the old block, so derived artifacts tagged with the old epoch
    /// must observe a mismatch. Per-dimension `max_value` bounds are recomputed over the
    /// surviving rows, so order-cardinality validation stays as tight as a fresh build.
    pub fn compacted(&self) -> (Self, RowIdRemap) {
        let remap = RowIdRemap::from_liveness(&self.live);
        let live_len = remap.new_len();
        let mut nums = Vec::with_capacity(live_len * self.numeric_dims);
        let mut noms = Vec::with_capacity(live_len * self.nominal_dims);
        let mut max_value = vec![ValueId::default(); self.nominal_dims];
        for new in 0..live_len as PointId {
            let old = remap.old_id(new).expect("new id in range by construction");
            nums.extend_from_slice(self.numeric_row(old));
            let row = self.nominal_row(old);
            noms.extend_from_slice(row);
            for (m, &v) in max_value.iter_mut().zip(row) {
                *m = (*m).max(v);
            }
        }
        let block = Self {
            len: live_len,
            numeric_dims: self.numeric_dims,
            nominal_dims: self.nominal_dims,
            nums,
            noms,
            max_value,
            live: vec![true; live_len],
            live_len,
            epoch: self.epoch + 1,
        };
        (block, remap)
    }

    /// True when row `p` exists and has not been tombstoned.
    #[inline]
    pub fn is_live(&self, p: PointId) -> bool {
        self.live.get(p as usize).copied().unwrap_or(false)
    }

    /// The ids of all live rows, in ascending order — what elimination scans over a mutable
    /// dataset enumerate so compiled scans skip dead rows without a rebuild.
    pub fn live_ids(&self) -> impl Iterator<Item = PointId> + '_ {
        self.live
            .iter()
            .enumerate()
            .filter(|(_, &l)| l)
            .map(|(p, _)| p as PointId)
    }

    /// Appends one row (numeric values in numeric-index order, nominal value ids in
    /// nominal-index order) and bumps the epoch. Returns the new row id.
    ///
    /// The caller is responsible for keeping the block in sync with its [`Dataset`]
    /// (values are validated against the schema when they are pushed into the dataset).
    pub fn append_row(&mut self, numeric: &[f64], nominal: &[ValueId]) -> Result<PointId> {
        if numeric.len() != self.numeric_dims || nominal.len() != self.nominal_dims {
            return Err(SkylineError::RowShapeMismatch {
                expected: self.numeric_dims + self.nominal_dims,
                got: numeric.len() + nominal.len(),
            });
        }
        self.nums.extend_from_slice(numeric);
        self.noms.extend_from_slice(nominal);
        for (m, &v) in self.max_value.iter_mut().zip(nominal) {
            *m = (*m).max(v);
        }
        let id = self.len as PointId;
        self.len += 1;
        self.live.push(true);
        self.live_len += 1;
        self.epoch += 1;
        Ok(id)
    }

    /// Logically deletes row `p`, bumping the epoch. Returns `true` when the row was live
    /// (tombstoning an already-dead row is a no-op that leaves the epoch untouched); rows that
    /// never existed are an error.
    pub fn tombstone(&mut self, p: PointId) -> Result<bool> {
        let Some(slot) = self.live.get_mut(p as usize) else {
            return Err(SkylineError::InvalidArgument(format!(
                "row {p} does not exist"
            )));
        };
        if !*slot {
            return Ok(false);
        }
        *slot = false;
        self.live_len -= 1;
        self.epoch += 1;
        Ok(true)
    }

    /// Number of numeric dimensions per point.
    pub fn numeric_dims(&self) -> usize {
        self.numeric_dims
    }

    /// Number of nominal dimensions per point.
    pub fn nominal_dims(&self) -> usize {
        self.nominal_dims
    }

    /// The contiguous numeric values of point `p`.
    #[inline]
    pub fn numeric_row(&self, p: PointId) -> &[f64] {
        let start = p as usize * self.numeric_dims;
        &self.nums[start..start + self.numeric_dims]
    }

    /// The contiguous nominal value ids of point `p`.
    #[inline]
    pub fn nominal_row(&self, p: PointId) -> &[ValueId] {
        let start = p as usize * self.nominal_dims;
        &self.noms[start..start + self.nominal_dims]
    }

    /// Approximate heap footprint in bytes (for the storage plots).
    pub fn approximate_bytes(&self) -> usize {
        self.nums.len() * std::mem::size_of::<f64>()
            + self.noms.len() * std::mem::size_of::<ValueId>()
            + self.live.len()
    }

    /// The full interleaved numeric array (`len × numeric_dims` values, row-major) — the
    /// snapshot writer persists this verbatim so the load side can bulk-decode it.
    pub fn numeric_values(&self) -> &[f64] {
        &self.nums
    }

    /// The full interleaved nominal array (`len × nominal_dims` ids, row-major).
    pub fn nominal_values(&self) -> &[ValueId] {
        &self.noms
    }

    /// Per-nominal-dimension largest value id present (see the field invariant: the max is
    /// over all physical rows, live and tombstoned).
    pub fn max_values(&self) -> &[ValueId] {
        &self.max_value
    }

    /// The per-row liveness flags (`liveness()[p]` is false for tombstoned rows).
    pub fn liveness(&self) -> &[bool] {
        &self.live
    }

    /// Reassembles a block from persisted parts (the snapshot load path). The caller —
    /// [`crate::snapshot::read_block`] — has already validated array lengths, liveness
    /// consistency and the max-value invariant against the decoded header.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        len: usize,
        numeric_dims: usize,
        nominal_dims: usize,
        nums: Vec<f64>,
        noms: Vec<ValueId>,
        max_value: Vec<ValueId>,
        live: Vec<bool>,
        epoch: u64,
    ) -> Self {
        debug_assert_eq!(nums.len(), len * numeric_dims);
        debug_assert_eq!(noms.len(), len * nominal_dims);
        debug_assert_eq!(max_value.len(), nominal_dims);
        debug_assert_eq!(live.len(), len);
        let live_len = live.iter().filter(|&&l| l).count();
        Self {
            len,
            numeric_dims,
            nominal_dims,
            nums,
            noms,
            max_value,
            live,
            live_len,
            epoch,
        }
    }
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
/// indirection, no strided loads. Nominal cells are stored as `(value id, layered rank)`
/// pairs: for ranked (weak) orders the dominance test is then integer compares, with no
/// closure-probe loads at all. Windows are reusable scratch: [`Dominance::reset_window`]
/// keeps the allocations, so a worker thread serving thousands of queries re-runs its scans
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct DenseWindow {
    /// Per-call scratch holding the candidate point's `(id, rank)` pairs.
    probe: Vec<u16>,
    /// The accepted rows, bit-parallel.
    lanes: PackedLanes,
    /// Member point ids, lane-aligned with `lanes`: the scalar-peek prefix test reaches back
    /// to the block rows through them.
    members: Vec<PointId>,
    /// Adaptive scalar-peek depth; persists across resets so reused scratch windows carry
    /// their recent kill-depth signal from scan to scan.
    peek: PeekDepth,
}

/// Seed depth for the scalar peek: how many leading window members the packed probes test
/// with the pairwise [`CompiledRelation::dominates`] before falling into 64-lane mask
/// algebra. Score-sorted scans kill most candidates with the first handful of accepted rows
/// (on the all-nominal Nursery workload, usually the very first); the pairwise test
/// early-exits on the first worse dimension, while a packed pass always pays full mask passes
/// over every dimension of a 64-lane block. The peek keeps quickly-dominated candidates at
/// pairwise cost and leaves deep survivors — where the window is long and lane parallelism
/// wins — to the packed walk.
///
/// The effective depth is **adaptive** per window ([`PeekDepth`]): each scan tracks an EWMA
/// of its recent kill depths and sizes the peek to roughly twice that, within
/// [`WINDOW_PEEK_MIN`]..=[`WINDOW_PEEK_MAX`]. [`with_window_peek`] pins the depth instead,
/// on the calling thread.
const WINDOW_PEEK: usize = 8;

/// Lower bound of the adaptive peek depth — never give up the first couple of scalar tests.
const WINDOW_PEEK_MIN: usize = 2;

/// Upper bound of the adaptive peek depth — beyond this the 64-lane walk wins regardless.
const WINDOW_PEEK_MAX: usize = 32;

thread_local! {
    /// The calling thread's pinned peek depth (the innermost [`with_window_peek`]); `None`
    /// means the depth adapts per scan.
    static PEEK_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Runs `f` with the calling thread's scalar-peek depth pinned to `depth` (0 disables the
/// peek entirely), restoring the previous override afterwards (also on panic). Equivalence
/// tests sweep this to pin packed ≡ reference at every depth; it does not affect other
/// threads.
pub fn with_window_peek<T>(depth: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            PEEK_OVERRIDE.set(self.0);
        }
    }
    let _restore = Restore(PEEK_OVERRIDE.replace(Some(depth.min(64))));
    f()
}

/// Adaptive scalar-peek depth: a per-window EWMA of recent kill depths (the 1-based index of
/// the first dominator found) sized so that the typical kill stays on the cheap pairwise path
/// while deep survivors fall through to the packed walk quickly. The state persists across
/// [`Dominance::reset_window`] — reused scratch windows carry their recent-workload signal
/// from scan to scan — and a pinned depth ([`with_window_peek`]) disables
/// adaptation for reproducibility.
///
/// Correctness does not depend on the depth: the peek tests a prefix of the window with the
/// pairwise test and the packed pass re-covers every lane, so any depth (including 0) yields
/// the same accept/reject decision for every candidate.
#[derive(Debug, Clone)]
struct PeekDepth {
    depth: usize,
    /// EWMA of observed kill depths, scaled by 8 for integer arithmetic.
    ewma8: u32,
    pinned: bool,
}

impl Default for PeekDepth {
    fn default() -> Self {
        let mut peek = Self {
            depth: WINDOW_PEEK,
            ewma8: (WINDOW_PEEK as u32) * 8,
            pinned: false,
        };
        peek.resync();
        peek
    }
}

impl PeekDepth {
    /// Re-reads the thread's pin; called on every window reset so a window created outside
    /// a [`with_window_peek`] scope still honours it.
    fn resync(&mut self) {
        match PEEK_OVERRIDE.get() {
            Some(d) => {
                self.depth = d;
                self.ewma8 = (d as u32) * 8;
                self.pinned = true;
            }
            None => self.pinned = false,
        }
    }

    /// Records one observed kill depth (1-based) and re-targets the peek to roughly twice
    /// the recent typical depth: `ewma ← (3·ewma + d) / 4`, `depth ← clamp(2·ewma)`.
    #[inline]
    fn observe(&mut self, kill_depth: usize) {
        if self.pinned {
            return;
        }
        let d8 = (kill_depth.min(WINDOW_PEEK_MAX) as u32) * 8;
        self.ewma8 = (3 * self.ewma8 + d8) / 4;
        self.depth = ((self.ewma8 as usize) / 4).clamp(WINDOW_PEEK_MIN, WINDOW_PEEK_MAX);
    }
}

impl DenseWindow {
    /// Number of points in the window.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no point has been pushed since the last reset.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// The compiled dominance kernel: a shared [`PointBlock`] plus one [`CompiledOrder`] per
/// nominal dimension.
///
/// Semantically identical to a [`DominanceContext`] over the same dataset and orders (the
/// `kernel_equivalence` property suite asserts `dominates` and `compare` agree point-for-point)
/// but an order of magnitude cheaper per pairwise test: contiguous row loads, no per-cell
/// column indirection, and single-word bit probes for the nominal orders.
///
/// The block is shared via `Arc`, so compiling a relation for a new query preference costs
/// only the per-dimension O(c²) order flattening — the point layout is reused across every
/// query, engine and thread.
#[derive(Debug, Clone)]
pub struct CompiledRelation {
    block: Arc<PointBlock>,
    orders: Vec<CompiledOrder>,
}

impl CompiledRelation {
    /// Compiles per-nominal-dimension orders against a shared block.
    ///
    /// Fails when the number of orders does not match the block's nominal dimensions or an
    /// order's cardinality cannot cover a value id present in the block.
    pub fn new(block: Arc<PointBlock>, orders: &[PartialOrder]) -> Result<Self> {
        Self::validate_cardinalities(&block, orders.len(), |j| orders[j].cardinality())?;
        let orders = orders.iter().map(CompiledOrder::compile).collect();
        Ok(Self { block, orders })
    }

    /// Builds a relation from **already compiled** orders, skipping the O(c²) closure
    /// flattening.
    ///
    /// Incremental-maintenance paths evaluate the *same* template relation on every row
    /// insertion or deletion; they compile the template orders once at construction and clone
    /// the (tiny) compiled form per mutation instead of re-deriving the closure each time.
    pub fn from_compiled_orders(
        block: Arc<PointBlock>,
        orders: Vec<CompiledOrder>,
    ) -> Result<Self> {
        Self::validate_cardinalities(&block, orders.len(), |j| orders[j].cardinality())?;
        Ok(Self { block, orders })
    }

    /// Shared validation: one order per nominal dimension, each covering every value id the
    /// block holds on that dimension.
    fn validate_cardinalities(
        block: &PointBlock,
        count: usize,
        cardinality_of: impl Fn(usize) -> usize,
    ) -> Result<()> {
        if count != block.nominal_dims() {
            return Err(SkylineError::InvalidArgument(format!(
                "expected {} nominal orders, got {count}",
                block.nominal_dims(),
            )));
        }
        for j in 0..count {
            let needed = if block.is_empty() {
                0
            } else {
                block.max_value[j] as usize + 1
            };
            if cardinality_of(j) < needed {
                return Err(SkylineError::InvalidArgument(format!(
                    "order on nominal dimension {j} has cardinality {} but the data holds \
                     value id {}",
                    cardinality_of(j),
                    block.max_value[j]
                )));
            }
        }
        Ok(())
    }

    /// Compiles the relation of a template alone (`R`).
    pub fn for_template(block: Arc<PointBlock>, template: &Template) -> Result<Self> {
        Self::new(block, template.orders())
    }

    /// Compiles the relation of a query preference evaluated against a template
    /// (`R ∪ P(R̃′)`), mirroring [`DominanceContext::for_query`].
    pub fn for_query(
        block: Arc<PointBlock>,
        schema: &Schema,
        template: &Template,
        query: &Preference,
    ) -> Result<Self> {
        let orders = template.effective_orders(schema, query)?;
        Self::new(block, &orders)
    }

    /// One-shot convenience: builds the block *and* compiles the query relation.
    ///
    /// Prefer [`CompiledRelation::for_query`] with a cached block on any hot path — this
    /// variant re-transposes the dataset every call.
    pub fn compile_query(data: &Dataset, template: &Template, query: &Preference) -> Result<Self> {
        Self::for_query(
            Arc::new(PointBlock::new(data)),
            data.schema(),
            template,
            query,
        )
    }

    /// The shared point layout the relation evaluates over.
    pub fn block(&self) -> &Arc<PointBlock> {
        &self.block
    }

    /// The compiled per-nominal-dimension orders.
    pub fn orders(&self) -> &[CompiledOrder] {
        &self.orders
    }

    /// True when `p` dominates `q`: `p ⪯ q` on every dimension and `p ≺ q` on at least one.
    ///
    /// Same contract as [`DominanceContext::dominates`], compiled form.
    #[inline]
    pub fn dominates(&self, p: PointId, q: PointId) -> bool {
        if p == q {
            return false;
        }
        let mut strict = false;
        for (pv, qv) in self
            .block
            .numeric_row(p)
            .iter()
            .zip(self.block.numeric_row(q))
        {
            if pv > qv {
                return false;
            }
            strict |= pv < qv;
        }
        for (order, (&pv, &qv)) in self.orders.iter().zip(
            self.block
                .nominal_row(p)
                .iter()
                .zip(self.block.nominal_row(q)),
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
    // `!(qv > pv)` is deliberate, not `qv <= pv`: NaN must neither block nor establish
    // dominance, exactly mirroring the reference `if pv > qv { return false }`.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn first_dominator(&self, p: PointId, candidates: &[PointId]) -> Option<usize> {
        let pn = self.block.numeric_row(p);
        let pm = self.block.nominal_row(p);
        for (i, &q) in candidates.iter().enumerate() {
            if q == p {
                continue;
            }
            let mut not_worse = true;
            let mut strict = false;
            for (qv, pv) in self.block.numeric_row(q).iter().zip(pn) {
                not_worse &= !(qv > pv);
                strict |= qv < pv;
            }
            for (order, (&qv, &pv)) in self
                .orders
                .iter()
                .zip(self.block.nominal_row(q).iter().zip(pm))
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

    /// Full three-way (plus equality) comparison, mirroring [`DominanceContext::compare`].
    pub fn compare(&self, p: PointId, q: PointId) -> DomRelation {
        if p == q {
            return DomRelation::Equal;
        }
        let mut p_strict = false;
        let mut q_strict = false;
        let mut p_ok = true;
        let mut q_ok = true;
        for (pv, qv) in self
            .block
            .numeric_row(p)
            .iter()
            .zip(self.block.numeric_row(q))
        {
            if pv < qv {
                p_strict = true;
                q_ok = false;
            } else if qv < pv {
                q_strict = true;
                p_ok = false;
            }
            if !p_ok && !q_ok {
                return DomRelation::Incomparable;
            }
        }
        let mut all_equal = !p_strict && !q_strict;
        for (order, (&pv, &qv)) in self.orders.iter().zip(
            self.block
                .nominal_row(p)
                .iter()
                .zip(self.block.nominal_row(q)),
        ) {
            if pv == qv {
                continue;
            }
            all_equal = false;
            if order.strictly_preferred(pv, qv) {
                p_strict = true;
                q_ok = false;
            } else if order.strictly_preferred(qv, pv) {
                q_strict = true;
                p_ok = false;
            } else {
                p_ok = false;
                q_ok = false;
            }
            if !p_ok && !q_ok {
                return DomRelation::Incomparable;
            }
        }
        if all_equal {
            DomRelation::Equal
        } else if p_ok && p_strict {
            DomRelation::Dominates
        } else if q_ok && q_strict {
            DomRelation::DominatedBy
        } else {
            DomRelation::Incomparable
        }
    }

    /// True when point `p` is dominated by at least one point of `candidates`.
    pub fn dominated_by_any(&self, p: PointId, candidates: &[PointId]) -> bool {
        candidates.iter().any(|&q| self.dominates(q, p))
    }

    /// Compiles the same relation a [`DominanceContext`] evaluates, sharing `block`.
    pub fn from_context(block: Arc<PointBlock>, ctx: &DominanceContext<'_>) -> Result<Self> {
        Self::new(block, ctx.orders())
    }

    /// Approximate heap footprint of the compiled orders in bytes (the block is shared and
    /// accounted once via [`PointBlock::approximate_bytes`]).
    pub fn approximate_bytes(&self) -> usize {
        self.orders
            .iter()
            .map(CompiledOrder::approximate_bytes)
            .sum()
    }

    /// Appends point `p`'s `(id, rank)` nominal pairs to `out`.
    fn extend_nominal_keys(&self, out: &mut Vec<u16>, p: PointId) {
        for (order, &v) in self.orders.iter().zip(self.block.nominal_row(p)) {
            out.push(v);
            out.push(order.layer(v));
        }
    }
}

impl Dominance for CompiledRelation {
    type Window = DenseWindow;

    fn reset_window(&self, window: &mut DenseWindow) {
        window.members.clear();
        window.peek.resync();
        window
            .lanes
            .reset(self.block.numeric_dims(), self.block.nominal_dims());
    }

    fn push_window(&self, window: &mut DenseWindow, p: PointId) {
        window.probe.clear();
        self.extend_nominal_keys(&mut window.probe, p);
        window.lanes.push(self.block.numeric_row(p), &window.probe);
        window.members.push(p);
    }

    fn window_first_dominator(&self, window: &mut DenseWindow, p: PointId) -> Option<usize> {
        // Scalar peek first (see [`WINDOW_PEEK`]): the leading accepted rows dominate most
        // candidates, and the pairwise test exits on the first worse dimension. The depth
        // adapts to the scan's recent kill depths.
        for (i, &m) in window.members.iter().take(window.peek.depth).enumerate() {
            if CompiledRelation::dominates(self, m, p) {
                window.peek.observe(i + 1);
                return Some(i);
            }
        }
        // Hoist the candidate's (id, rank) pairs once per call.
        window.probe.clear();
        self.extend_nominal_keys(&mut window.probe, p);
        let hit =
            window
                .lanes
                .first_dominator(&self.orders, self.block.numeric_row(p), &window.probe);
        if let Some(i) = hit {
            window.peek.observe(i + 1);
        }
        hit
    }

    #[inline]
    fn dominates(&self, p: PointId, q: PointId) -> bool {
        CompiledRelation::dominates(self, p, q)
    }

    fn compare(&self, p: PointId, q: PointId) -> DomRelation {
        CompiledRelation::compare(self, p, q)
    }

    #[inline]
    fn first_dominator(&self, p: PointId, candidates: &[PointId]) -> Option<usize> {
        CompiledRelation::first_dominator(self, p, candidates)
    }

    /// BNL over the packed window: candidates stream through 64-lane blocks, the dominator
    /// probe and the eviction sweep are both one pass of mask algebra per block, and evicted
    /// rows just lose their validity bit (lanes are never reused, so a lane index stays
    /// aligned with the side list of member ids).
    fn bnl_skyline(&self, points: &[PointId]) -> Vec<PointId> {
        let mut lanes = PackedLanes::default();
        lanes.reset(self.block.numeric_dims(), self.block.nominal_dims());
        let mut members: Vec<PointId> = Vec::new();
        let mut probe: Vec<u16> = Vec::with_capacity(self.block.nominal_dims() * 2);
        // First still-valid lane; advances monotonically as evictions only clear bits.
        let mut first_valid = 0usize;
        // Local adaptive peek depth, tracking this scan's recent kill depths.
        let mut peek = PeekDepth::default();
        'points: for &p in points {
            // Scalar peek over the leading surviving members (see [`WINDOW_PEEK`]).
            while first_valid < members.len() && !lanes.is_valid(first_valid) {
                first_valid += 1;
            }
            let mut peeked = 0usize;
            for (l, &m) in members.iter().enumerate().skip(first_valid) {
                if peeked == peek.depth {
                    break;
                }
                if lanes.is_valid(l) {
                    if CompiledRelation::dominates(self, m, p) {
                        peek.observe(peeked + 1);
                        continue 'points;
                    }
                    peeked += 1;
                }
            }
            probe.clear();
            self.extend_nominal_keys(&mut probe, p);
            let pn = self.block.numeric_row(p);
            // Window members are mutually undominated, so when one dominates `p`, none can
            // be dominated by `p` (transitivity) — probing before evicting loses nothing.
            if let Some(l) = lanes.first_dominator(&self.orders, pn, &probe) {
                peek.observe(l + 1);
                continue;
            }
            lanes.clear_dominated_by(&self.orders, pn, &probe);
            lanes.push(pn, &probe);
            members.push(p);
        }
        let mut skyline: Vec<PointId> = members
            .iter()
            .enumerate()
            .filter(|&(l, _)| lanes.is_valid(l))
            .map(|(_, &p)| p)
            .collect();
        skyline.sort_unstable();
        skyline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::order::ImplicitPreference;
    use crate::schema::Dimension;

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
        let kernel =
            CompiledRelation::for_template(Arc::new(PointBlock::new(&data)), &template).unwrap();
        assert!(!kernel.orders()[0].is_ranked(), "g must be unranked");
        assert!(kernel.orders()[1].is_ranked(), "h must be ranked");

        // Pairwise agreement plus the full elimination scan (dense window vs. id window).
        for p in data.point_ids() {
            for q in data.point_ids() {
                assert_eq!(kernel.dominates(p, q), ctx.dominates(p, q), "({p}, {q})");
                assert_eq!(kernel.compare(p, q), ctx.compare(p, q), "({p}, {q})");
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

    #[test]
    fn block_layout_roundtrips_the_dataset() {
        let data = vacation_data();
        let block = PointBlock::new(&data);
        assert_eq!(block.len(), 6);
        assert!(!block.is_empty());
        assert_eq!(block.numeric_dims(), 2);
        assert_eq!(block.nominal_dims(), 1);
        for p in data.point_ids() {
            assert_eq!(
                block.numeric_row(p),
                &[data.numeric(p, 0), data.numeric(p, 1)]
            );
            assert_eq!(block.nominal_row(p), &[data.nominal(p, 0)]);
        }
        assert_eq!(block.max_value, vec![2]);
        assert!(block.approximate_bytes() >= 6 * (2 * 8 + 2));
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
        let kernel = CompiledRelation::compile_query(&data, &template, &query).unwrap();
        for p in data.point_ids() {
            for q in data.point_ids() {
                assert_eq!(kernel.dominates(p, q), ctx.dominates(p, q), "({p}, {q})");
                assert_eq!(kernel.compare(p, q), ctx.compare(p, q), "({p}, {q})");
            }
        }
        assert!(kernel.dominated_by_any(1, &[0]));
        assert!(!kernel.dominated_by_any(0, &[]));
        assert_eq!(kernel.orders().len(), 1);
        assert_eq!(kernel.block().len(), 6);
        assert!(kernel.approximate_bytes() > 0);
    }

    #[test]
    fn from_context_shares_the_block() {
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let ctx = DominanceContext::for_template(&data, &template).unwrap();
        let block = Arc::new(PointBlock::new(&data));
        let kernel = CompiledRelation::from_context(block.clone(), &ctx).unwrap();
        assert!(Arc::ptr_eq(kernel.block(), &block));
        assert!(kernel.dominates(0, 1));
        assert!(!kernel.dominates(0, 2));
    }

    #[test]
    fn validation_rejects_mismatched_orders() {
        let data = vacation_data();
        let block = Arc::new(PointBlock::new(&data));
        assert!(CompiledRelation::new(block.clone(), &[]).is_err());
        // Cardinality 2 cannot cover value id 2 present in the data.
        assert!(CompiledRelation::new(block.clone(), &[PartialOrder::empty(2)]).is_err());
        assert!(CompiledRelation::new(block, &[PartialOrder::empty(3)]).is_ok());
    }

    #[test]
    fn append_and_tombstone_bump_the_epoch_and_track_liveness() {
        let data = vacation_data();
        let mut block = PointBlock::new(&data);
        assert_eq!(block.epoch(), DatasetEpoch::INITIAL);
        assert_eq!(block.live_count(), 6);
        assert_eq!(block.live_ids().count(), 6);

        let p = block.append_row(&[1000.0, -5.0], &[1]).unwrap();
        assert_eq!(p, 6);
        assert_eq!(block.len(), 7);
        assert_eq!(block.live_count(), 7);
        assert_eq!(block.epoch().get(), 1);
        assert_eq!(block.numeric_row(p), &[1000.0, -5.0]);
        assert_eq!(block.nominal_row(p), &[1]);

        assert!(block.tombstone(2).unwrap());
        assert!(!block.is_live(2));
        assert_eq!(block.live_count(), 6);
        assert_eq!(block.epoch().get(), 2);
        assert!(!block.tombstone(2).unwrap(), "double tombstone is a no-op");
        assert_eq!(block.epoch().get(), 2, "no-op must not bump the epoch");
        assert!(block.tombstone(99).is_err());
        assert_eq!(block.live_ids().collect::<Vec<_>>(), vec![0, 1, 3, 4, 5, 6]);
        // Appends keep the max-value validation in sync.
        let mut grown = PointBlock::new(&data);
        grown.append_row(&[1.0, 1.0], &[2]).unwrap();
        assert!(grown.append_row(&[1.0], &[2]).is_err(), "arity checked");
        assert!(DatasetEpoch::INITIAL < grown.epoch());
        assert_eq!(format!("{}", grown.epoch()), "epoch 1");
    }

    #[test]
    fn compaction_reclaims_dead_rows_and_publishes_a_remap() {
        let data = vacation_data();
        let mut block = PointBlock::new(&data);
        assert_eq!(block.dead_count(), 0);
        assert_eq!(block.dead_ratio(), 0.0);
        block.tombstone(1).unwrap();
        block.tombstone(3).unwrap();
        let p = block.append_row(&[100.0, -9.0], &[2]).unwrap();
        assert_eq!(p, 6);
        assert_eq!(block.dead_count(), 2);
        assert!((block.dead_ratio() - 2.0 / 7.0).abs() < 1e-12);
        let before_epoch = block.epoch();

        let (compact, remap) = block.compacted();
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
        assert!(!remap.is_identity());
        assert_eq!(remap.new_id(0), Some(0));
        assert_eq!(remap.new_id(1), None, "reclaimed rows have no new id");
        assert_eq!(remap.new_id(2), Some(1));
        assert_eq!(remap.new_id(6), Some(4));
        assert_eq!(remap.new_id(99), None);
        assert_eq!(remap.old_id(4), Some(6));
        assert_eq!(remap.old_id(5), None);
        for new in 0..compact.len() as PointId {
            let old = remap.old_id(new).unwrap();
            assert_eq!(compact.numeric_row(new), block.numeric_row(old));
            assert_eq!(compact.nominal_row(new), block.nominal_row(old));
        }
        // Sorted translation stays sorted; lists naming a reclaimed row are unsalvageable.
        assert_eq!(remap.translate_ids(&[0, 2, 6]), Some(vec![0, 1, 4]));
        assert_eq!(remap.translate_ids(&[0, 1]), None);
        // max_value is recomputed over the survivors.
        assert_eq!(compact.max_value, vec![2]);
    }

    #[test]
    fn remap_extends_over_replayed_appends() {
        let data = vacation_data();
        let mut block = PointBlock::new(&data);
        block.tombstone(0).unwrap();
        let (mut compact, mut remap) = block.compacted();
        // A mutation that arrived mid-build is replayed onto the new block and recorded.
        let new = compact.append_row(&[1.0, 1.0], &[0]).unwrap();
        remap.push_appended(new);
        assert_eq!(remap.old_len(), 7);
        assert_eq!(remap.new_id(6), Some(5));
        assert_eq!(remap.old_id(5), Some(6));
        // An identity compaction (nothing dead) maps every id to itself.
        let (_, identity) = compact.compacted();
        assert!(identity.is_identity());
        assert_eq!(identity.translate_ids(&[0, 3, 5]), Some(vec![0, 3, 5]));
    }

    #[test]
    fn from_compiled_orders_matches_the_fresh_compilation() {
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let block = Arc::new(PointBlock::new(&data));
        let fresh = CompiledRelation::for_template(block.clone(), &template).unwrap();
        let reused =
            CompiledRelation::from_compiled_orders(block.clone(), fresh.orders().to_vec()).unwrap();
        for p in data.point_ids() {
            for q in data.point_ids() {
                assert_eq!(fresh.dominates(p, q), reused.dominates(p, q), "({p}, {q})");
            }
        }
        // Validation still applies: wrong count and undersized cardinality are rejected.
        assert!(CompiledRelation::from_compiled_orders(block.clone(), vec![]).is_err());
        let tiny = CompiledOrder::compile(&PartialOrder::empty(1));
        assert!(CompiledRelation::from_compiled_orders(block, vec![tiny]).is_err());
    }

    #[test]
    fn empty_dataset_accepts_any_cardinality() {
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::nominal_with_labels("g", ["a", "b"]),
        ])
        .unwrap();
        let data = Dataset::from_columns(schema, vec![vec![]], vec![vec![]]).unwrap();
        let block = Arc::new(PointBlock::new(&data));
        assert!(block.is_empty());
        assert!(CompiledRelation::new(block, &[PartialOrder::empty(0)]).is_ok());
    }

    /// A dataset whose skyline is large enough to push the dense window past several 64-lane
    /// blocks: an anti-correlated numeric staircase (all survive) interleaved with dominated
    /// fill rows (all killed, at varying window depths), over a 3-value nominal dimension.
    fn peek_stress_data() -> Dataset {
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

    /// Satellite: the scalar-peek depth is a pure performance knob. The packed scan and BNL
    /// must emit the reference context's skylines at every pinned depth, including 0 (peek
    /// disabled) and 64 (peek covers a whole lane block).
    #[test]
    fn packed_matches_reference_at_every_pinned_peek_depth() {
        use crate::algo::sfs::Scan;
        use crate::score::ScoreFn;

        let data = peek_stress_data();
        let g_order = PartialOrder::from_pairs(3, [(0, 2)]).unwrap();
        let template = Template::from_partial_orders(data.schema(), vec![g_order]).unwrap();
        let ctx = DominanceContext::for_template(&data, &template).unwrap();
        let kernel =
            CompiledRelation::for_template(Arc::new(PointBlock::new(&data)), &template).unwrap();
        let score = ScoreFn::default_ranking(data.schema());
        let all: Vec<PointId> = data.point_ids().collect();
        let sorted = score.sort_by_score(&data, &all);
        let reference: Vec<PointId> = Scan::presorted(&ctx, &sorted).collect();
        let reference_bnl = ctx.bnl_skyline(&all);
        for depth in [0usize, 1, 2, 8, 32, 64] {
            with_window_peek(depth, || {
                assert_eq!(
                    Scan::presorted(&kernel, &sorted).collect::<Vec<_>>(),
                    reference,
                    "scan mismatch at peek depth {depth}"
                );
                assert_eq!(
                    kernel.bnl_skyline(&all),
                    reference_bnl,
                    "bnl mismatch at peek depth {depth}"
                );
            });
        }
    }

    /// The repo benchmark writes `format!("{:?}", kernel_mode())` into every host stamp and
    /// `--compare` refuses two result sets whose stamps differ: renaming the variant would
    /// make every parent/change pair incomparable.
    #[test]
    fn kernel_mode_stamp_reads_packed() {
        assert_eq!(format!("{:?}", kernel_mode()), "Packed");
    }

    /// Satellite: adaptation tracks observed kill depths within bounds, and pinning (env or
    /// [`with_window_peek`]) freezes the depth.
    #[test]
    fn peek_depth_adapts_within_bounds_and_pinning_freezes_it() {
        let mut peek = PeekDepth::default();
        assert_eq!(peek.depth, WINDOW_PEEK, "seed depth");
        // A run of shallow kills drags the depth down to the floor, never below.
        for _ in 0..64 {
            peek.observe(1);
        }
        assert_eq!(peek.depth, WINDOW_PEEK_MIN);
        // A run of deep kills saturates at the ceiling, never above.
        for _ in 0..64 {
            peek.observe(1000);
        }
        assert_eq!(peek.depth, WINDOW_PEEK_MAX);
        // Mid-range kills settle near twice the typical depth.
        for _ in 0..64 {
            peek.observe(4);
        }
        assert_eq!(peek.depth, 8);

        // Pinning through the thread-local override freezes the depth against observations.
        with_window_peek(5, || {
            let mut pinned = PeekDepth::default();
            assert_eq!(pinned.depth, 5);
            for _ in 0..64 {
                pinned.observe(1000);
            }
            assert_eq!(pinned.depth, 5, "pinned depth must ignore observations");
        });
        // Outside the scope a fresh window adapts again.
        let mut fresh = PeekDepth::default();
        assert!(!fresh.pinned);
        fresh.observe(1000);
        assert_ne!(fresh.depth, WINDOW_PEEK);

        // reset_window resyncs the pin for windows created outside the override scope.
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let kernel =
            CompiledRelation::for_template(Arc::new(PointBlock::new(&data)), &template).unwrap();
        let mut window = DenseWindow::default();
        with_window_peek(3, || {
            kernel.reset_window(&mut window);
            assert!(window.peek.pinned);
            assert_eq!(window.peek.depth, 3);
        });
        kernel.reset_window(&mut window);
        assert!(!window.peek.pinned, "pin clears outside the scope");
    }
}
