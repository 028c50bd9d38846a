//! The row store: one [`Dataset`] per relation, holding every row once.
//!
//! Rows are stored row-major and interleaved: all numeric values of one row are contiguous,
//! and so are its nominal value ids (`u16` per cell). Skyline evaluation is dominated by
//! pairwise dominance tests that touch every dimension of two rows, so this layout is the one
//! the compiled kernel ([`crate::kernel`]), the packed lanes, MDC mining, the cross-shard merge
//! and the snapshot sections all read. The same store carries the state a served relation
//! mutates: per-row liveness, the live count, per-dimension max values and the
//! [`DatasetEpoch`]. Compaction ([`Dataset::compacted`]) publishes a [`RowIdRemap`].

use crate::error::{Result, SkylineError};
use crate::schema::{DimensionKind, Schema};
use crate::value::{PointId, ValueId};
use std::fmt;

/// A single cell value used when building datasets row by row.
#[derive(Debug, Clone, PartialEq)]
pub enum RowValue {
    /// Value for a numeric dimension (smaller is better).
    Num(f64),
    /// Value for a nominal dimension, by label. New labels are interned into the domain.
    Label(String),
    /// Value for a nominal dimension, by pre-interned value id.
    Id(ValueId),
}

impl From<f64> for RowValue {
    fn from(v: f64) -> Self {
        RowValue::Num(v)
    }
}

impl From<&str> for RowValue {
    fn from(v: &str) -> Self {
        RowValue::Label(v.to_string())
    }
}

impl From<String> for RowValue {
    fn from(v: String) -> Self {
        RowValue::Label(v)
    }
}

/// Version counter of a mutable dataset: every [`Dataset::append_row`] and every live
/// [`Dataset::tombstone`] bumps it.
///
/// Row ids and liveness are only meaningful relative to the epoch they were read at, so an
/// engine query names the epoch it expects and fails on a mismatch. Epochs are totally
/// ordered; [`DatasetEpoch::INITIAL`] is the epoch of a freshly ingested, never-mutated
/// dataset.
///
/// Answers move less often than the dataset: every refinement's skyline lies in the template
/// skyline `SKY(R)`, so the serving layers tag cached answers with a *skyline epoch* — the
/// epoch at which `SKY(R)` last changed membership — and a write that leaves `SKY(R)`
/// unchanged keeps them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DatasetEpoch(u64);

impl DatasetEpoch {
    /// The epoch of a freshly ingested, never-mutated dataset.
    pub const INITIAL: Self = Self(0);

    /// The raw counter value.
    pub fn get(self) -> u64 {
        self.0
    }

    /// Reconstructs an epoch from its raw counter — the snapshot load path uses this to
    /// restore a rehydrated engine's epochs so epoch-tagged artifacts (cached skylines, remap
    /// chains) keep composing across a process restart.
    pub fn from_raw(raw: u64) -> Self {
        Self(raw)
    }
}

impl fmt::Display for DatasetEpoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epoch {}", self.0)
    }
}

/// Mapping between the row-id spaces of a [`Dataset`] and its physically compacted
/// successor.
///
/// Compaction ([`Dataset::compacted`]) drops tombstoned rows and renumbers the survivors,
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

/// The relation: every row of one schema, stored once, row-major.
///
/// Rows are addressed by [`PointId`] in insertion order. Row `p` occupies
/// `schema.numeric_count()` contiguous `f64`s ([`Dataset::numeric_row`]) and
/// `schema.nominal_count()` contiguous [`ValueId`]s ([`Dataset::nominal_row`]), so a pairwise
/// dominance test — the innermost loop of every algorithm here — reads two short contiguous
/// runs instead of one strided cell per column. Numeric values are indexed by the *numeric
/// index* (position among numeric dimensions) and nominal values by the *nominal index*
/// (position among nominal dimensions), mirroring [`Schema`]. Every numeric cell is a
/// finite `f64`: [`Dataset::push_row_ids`], which every ingest path goes through, refuses NaN
/// and `±∞`.
///
/// A dataset is also **mutable in place**: [`Dataset::append_row`] adds a row at the end and
/// [`Dataset::tombstone`] logically deletes one, and both bump the [`DatasetEpoch`].
/// Tombstoned rows keep their id — so existing answers stay addressable — and still count in
/// [`Dataset::len`] and [`Dataset::point_ids`], but are excluded from [`Dataset::live_ids`],
/// which is what the elimination scans enumerate. [`Dataset::compacted`] reclaims them.
/// Ingest ([`Dataset::from_columns`], [`Dataset::push_row_ids`], [`DatasetBuilder`]) leaves
/// the epoch at [`DatasetEpoch::INITIAL`].
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    schema: Schema,
    nums: Vec<f64>,
    noms: Vec<ValueId>,
    /// Per nominal dimension: the largest value id present in any physical row (0 for an
    /// empty dataset); compiled orders are validated against it.
    max_value: Vec<ValueId>,
    /// `live[p]` is false when row `p` has been tombstoned.
    live: Vec<bool>,
    live_len: usize,
    epoch: u64,
}

impl Dataset {
    /// Creates an empty dataset for `schema`.
    pub fn empty(schema: Schema) -> Self {
        Self {
            max_value: vec![ValueId::default(); schema.nominal_count()],
            schema,
            nums: Vec::new(),
            noms: Vec::new(),
            live: Vec::new(),
            live_len: 0,
            epoch: 0,
        }
    }

    /// Builds a dataset from pre-assembled columns.
    ///
    /// `numeric_cols[j]` must correspond to the `j`-th numeric dimension of `schema` and
    /// `nominal_cols[j]` to the `j`-th nominal dimension; all columns must share one length.
    pub fn from_columns(
        schema: Schema,
        numeric_cols: Vec<Vec<f64>>,
        nominal_cols: Vec<Vec<ValueId>>,
    ) -> Result<Self> {
        if numeric_cols.len() != schema.numeric_count()
            || nominal_cols.len() != schema.nominal_count()
        {
            return Err(SkylineError::RowShapeMismatch {
                expected: schema.arity(),
                got: numeric_cols.len() + nominal_cols.len(),
            });
        }
        let len = numeric_cols
            .first()
            .map(Vec::len)
            .or_else(|| nominal_cols.first().map(Vec::len))
            .unwrap_or(0);
        if numeric_cols.iter().any(|col| col.len() != len) {
            return Err(SkylineError::InvalidArgument(
                "ragged numeric columns".into(),
            ));
        }
        if nominal_cols.iter().any(|col| col.len() != len) {
            return Err(SkylineError::InvalidArgument(
                "ragged nominal columns".into(),
            ));
        }
        let mut data = Self::empty(schema);
        data.nums.reserve(len * numeric_cols.len());
        data.noms.reserve(len * nominal_cols.len());
        let (mut numeric, mut nominal) = (Vec::new(), Vec::new());
        for p in 0..len {
            numeric.clear();
            numeric.extend(numeric_cols.iter().map(|col| col[p]));
            nominal.clear();
            nominal.extend(nominal_cols.iter().map(|col| col[p]));
            data.push_row_ids(&numeric, &nominal)?;
        }
        Ok(data)
    }

    /// The dataset schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of physical rows (`N` / `|D|` in the paper), **including** tombstoned ones.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when the dataset has no rows at all (live or dead).
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Iterator over all physical point ids `0..len`, tombstoned ones included.
    pub fn point_ids(&self) -> impl Iterator<Item = PointId> + '_ {
        0..self.len() as PointId
    }

    /// Value of row `p` in the `j`-th numeric dimension.
    #[inline]
    pub fn numeric(&self, p: PointId, numeric_index: usize) -> f64 {
        self.numeric_row(p)[numeric_index]
    }

    /// Value id of row `p` in the `j`-th nominal dimension.
    #[inline]
    pub fn nominal(&self, p: PointId, nominal_index: usize) -> ValueId {
        self.nominal_row(p)[nominal_index]
    }

    /// The contiguous numeric values of row `p`.
    #[inline]
    pub fn numeric_row(&self, p: PointId) -> &[f64] {
        let width = self.schema.numeric_count();
        let start = p as usize * width;
        &self.nums[start..start + width]
    }

    /// The contiguous nominal value ids of row `p`.
    #[inline]
    pub fn nominal_row(&self, p: PointId) -> &[ValueId] {
        let width = self.schema.nominal_count();
        let start = p as usize * width;
        &self.noms[start..start + width]
    }

    /// Label of row `p`'s value in the `j`-th nominal dimension (for display).
    pub fn nominal_label(&self, p: PointId, nominal_index: usize) -> &str {
        let id = self.nominal(p, nominal_index);
        self.schema
            .nominal_domain(nominal_index)
            .and_then(|d| d.label(id))
            .unwrap_or("<unknown>")
    }

    /// Appends a row given values for the numeric dimensions (in numeric-index order) and
    /// value ids for the nominal dimensions (in nominal-index order), validated against the
    /// schema. Returns the new row id. This is ingest: the epoch is left unchanged.
    ///
    /// Every way a row enters a dataset goes through here, so this is where a numeric cell
    /// is made finite: NaN, `+∞` and `−∞` are refused with
    /// [`SkylineError::InvalidArgument`]. Numeric domains are then totally ordered by `<`,
    /// and dominance is a strict partial order.
    pub fn push_row_ids(&mut self, numeric: &[f64], nominal: &[ValueId]) -> Result<PointId> {
        if numeric.len() != self.schema.numeric_count()
            || nominal.len() != self.schema.nominal_count()
        {
            return Err(SkylineError::RowShapeMismatch {
                expected: self.schema.arity(),
                got: numeric.len() + nominal.len(),
            });
        }
        if let Some(j) = numeric.iter().position(|v| !v.is_finite()) {
            return Err(non_finite(&self.schema, j, numeric[j]));
        }
        for (j, &v) in nominal.iter().enumerate() {
            let card = self.schema.nominal_domain(j).map_or(0, |d| d.cardinality());
            if (v as usize) >= card {
                return Err(out_of_domain(&self.schema, j, v));
            }
        }
        self.nums.extend_from_slice(numeric);
        self.noms.extend_from_slice(nominal);
        for (m, &v) in self.max_value.iter_mut().zip(nominal) {
            *m = (*m).max(v);
        }
        let id = self.len() as PointId;
        self.live.push(true);
        self.live_len += 1;
        Ok(id)
    }

    /// Inserts a row into a served dataset: [`Dataset::push_row_ids`] plus an epoch bump.
    pub fn append_row(&mut self, numeric: &[f64], nominal: &[ValueId]) -> Result<PointId> {
        let id = self.push_row_ids(numeric, nominal)?;
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

    /// The current mutation epoch (bumped by every append or live tombstone).
    pub fn epoch(&self) -> DatasetEpoch {
        DatasetEpoch(self.epoch)
    }

    /// Number of live (non-tombstoned) rows.
    pub fn live_count(&self) -> usize {
        self.live_len
    }

    /// Number of tombstoned rows still physically occupying the dataset.
    pub fn dead_count(&self) -> usize {
        self.len() - self.live_len
    }

    /// Fraction of the rows that are tombstoned (0 for an empty dataset) — the quantity
    /// maintenance policies watch to decide when physical compaction pays off.
    pub fn dead_ratio(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.dead_count() as f64 / self.len() as f64
        }
    }

    /// True when row `p` exists and has not been tombstoned.
    #[inline]
    pub fn is_live(&self, p: PointId) -> bool {
        self.live.get(p as usize).copied().unwrap_or(false)
    }

    /// The ids of all live rows, in ascending order — what elimination scans over a mutable
    /// dataset enumerate, so they skip dead rows without a rebuild.
    pub fn live_ids(&self) -> impl Iterator<Item = PointId> + '_ {
        self.live
            .iter()
            .enumerate()
            .filter(|(_, &l)| l)
            .map(|(p, _)| p as PointId)
    }

    /// Physically compacts the dataset: tombstoned rows are dropped, survivors renumbered in
    /// order. Returns the new dataset — every row live, `len() == live_count()` — and the
    /// [`RowIdRemap`] translating old ids to new ones.
    ///
    /// The compacted dataset's epoch is the source epoch **plus one**: renumbering
    /// invalidates every id minted against the old rows, so derived artifacts tagged with the
    /// old epoch must observe a mismatch.
    pub fn compacted(&self) -> (Self, RowIdRemap) {
        let remap = RowIdRemap::from_liveness(&self.live);
        let mut data = self.retained(&remap.backward);
        data.epoch = self.epoch + 1;
        (data, remap)
    }

    /// A new dataset holding exactly the rows of `keep`, renumbered in the given order, all
    /// live, at [`DatasetEpoch::INITIAL`]. Per-dimension max values are recomputed over the
    /// kept rows, so order validation stays as tight as a fresh ingest.
    ///
    /// Out-of-range ids panic (callers derive `keep` from this dataset, so a bad id is a logic
    /// error, not input validation).
    pub fn retained(&self, keep: &[PointId]) -> Self {
        let mut data = Self::empty(self.schema.clone());
        for &p in keep {
            data.push_row_ids(self.numeric_row(p), self.nominal_row(p))
                .expect("a row of this dataset fits its own schema");
        }
        data
    }

    /// Counts how many live rows carry each value of the `j`-th nominal dimension.
    ///
    /// Index `v` of the returned vector is the frequency of value id `v`. Used to pick the
    /// paper's default template ("most frequent value preferred") and the popular values kept
    /// by the truncated IPO tree.
    pub fn nominal_value_frequencies(&self, nominal_index: usize) -> Vec<usize> {
        let card = self
            .schema
            .nominal_domain(nominal_index)
            .map_or(0, |d| d.cardinality());
        let mut freq = vec![0usize; card];
        for p in self.live_ids() {
            freq[self.nominal(p, nominal_index) as usize] += 1;
        }
        freq
    }

    /// The value ids of the `j`-th nominal dimension sorted by decreasing frequency.
    pub fn values_by_frequency(&self, nominal_index: usize) -> Vec<ValueId> {
        let freq = self.nominal_value_frequencies(nominal_index);
        let mut ids: Vec<ValueId> = (0..freq.len() as ValueId).collect();
        ids.sort_by_key(|&v| std::cmp::Reverse(freq[v as usize]));
        ids
    }

    /// Approximate in-memory footprint of the raw data in bytes (used for the storage plots).
    pub fn approximate_bytes(&self) -> usize {
        self.nums.len() * std::mem::size_of::<f64>()
            + self.noms.len() * std::mem::size_of::<ValueId>()
    }

    /// The full interleaved numeric array (`len × numeric_count` values, row-major) — the
    /// snapshot writer persists it verbatim.
    pub(crate) fn numeric_values(&self) -> &[f64] {
        &self.nums
    }

    /// The full interleaved nominal array (`len × nominal_count` ids, row-major).
    pub(crate) fn nominal_values(&self) -> &[ValueId] {
        &self.noms
    }

    /// Per-nominal-dimension largest value id over all physical rows, live and tombstoned.
    pub(crate) fn max_values(&self) -> &[ValueId] {
        &self.max_value
    }

    /// The per-row liveness flags (`liveness()[p]` is false for tombstoned rows).
    pub(crate) fn liveness(&self) -> &[bool] {
        &self.live
    }

    /// Reassembles a dataset from persisted parts (the snapshot load path). The caller —
    /// [`crate::snapshot::read_dataset`] — has already validated array lengths, liveness
    /// (`live_len` is its count of live rows), the max-value invariant and the schema
    /// domains.
    pub(crate) fn from_parts(
        schema: Schema,
        nums: Vec<f64>,
        noms: Vec<ValueId>,
        max_value: Vec<ValueId>,
        live: Vec<bool>,
        live_len: usize,
        epoch: u64,
    ) -> Self {
        debug_assert_eq!(nums.len(), live.len() * schema.numeric_count());
        debug_assert_eq!(noms.len(), live.len() * schema.nominal_count());
        debug_assert_eq!(max_value.len(), schema.nominal_count());
        debug_assert_eq!(live_len, live.iter().filter(|&&l| l).count());
        Self {
            schema,
            nums,
            noms,
            max_value,
            live,
            live_len,
            epoch,
        }
    }
}

/// The error for value id `v` outside the domain of nominal dimension `j` of `schema`.
pub(crate) fn out_of_domain(schema: &Schema, j: usize, v: ValueId) -> SkylineError {
    let name = schema
        .dimension(schema.schema_index_of_nominal(j).unwrap_or(0))
        .map(|d| d.name().to_string())
        .unwrap_or_default();
    SkylineError::ValueOutOfDomain {
        dimension: name,
        value: v as u32,
        cardinality: schema.nominal_domain(j).map_or(0, |d| d.cardinality()),
    }
}

/// The error for the non-finite cell `v` of numeric dimension `j` of `schema`.
pub(crate) fn non_finite(schema: &Schema, j: usize, v: f64) -> SkylineError {
    let name = schema
        .dimension(schema.numeric_dims()[j])
        .map(|d| d.name().to_string())
        .unwrap_or_default();
    SkylineError::InvalidArgument(format!(
        "numeric dimension `{name}` holds {v}: numeric cells must be finite"
    ))
}

/// Row-oriented builder that accepts labels and interns them into the schema domains.
///
/// Use this for hand-written examples and tests; bulk generators should assemble columns and
/// call [`Dataset::from_columns`], or append with [`Dataset::push_row_ids`], instead.
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    schema: Schema,
    rows_numeric: Vec<Vec<f64>>,
    rows_nominal: Vec<Vec<ValueId>>,
}

impl DatasetBuilder {
    /// Starts building a dataset with the given schema.
    pub fn new(schema: Schema) -> Self {
        Self {
            schema,
            rows_numeric: Vec::new(),
            rows_nominal: Vec::new(),
        }
    }

    /// Appends one row. `values` must supply one [`RowValue`] per schema dimension, in schema
    /// order. Nominal labels that are not yet part of the domain are interned on the fly.
    pub fn push_row<I, V>(&mut self, values: I) -> Result<&mut Self>
    where
        I: IntoIterator<Item = V>,
        V: Into<RowValue>,
    {
        let values: Vec<RowValue> = values.into_iter().map(Into::into).collect();
        if values.len() != self.schema.arity() {
            return Err(SkylineError::RowShapeMismatch {
                expected: self.schema.arity(),
                got: values.len(),
            });
        }
        let mut numeric = Vec::with_capacity(self.schema.numeric_count());
        let mut nominal = Vec::with_capacity(self.schema.nominal_count());
        for (i, value) in values.into_iter().enumerate() {
            let dim_name = self
                .schema
                .dimension(i)
                .map(|d| d.name().to_string())
                .unwrap_or_default();
            let kind_is_numeric = self
                .schema
                .dimension(i)
                .map(|d| matches!(d.kind(), DimensionKind::Numeric))
                .unwrap_or(false);
            match (value, kind_is_numeric) {
                (RowValue::Num(v), true) => numeric.push(v),
                (RowValue::Label(label), false) => {
                    let dim = self.schema.dimension_mut(i).expect("dimension exists");
                    let id = dim.domain_mut().expect("nominal dimension").intern(label);
                    nominal.push(id);
                }
                (RowValue::Id(id), false) => nominal.push(id),
                (RowValue::Num(_), false) => {
                    return Err(SkylineError::KindMismatch {
                        dimension: dim_name,
                        detail: "numeric value supplied for a nominal dimension".into(),
                    })
                }
                (v, true) => {
                    return Err(SkylineError::KindMismatch {
                        dimension: dim_name,
                        detail: format!("nominal value {v:?} supplied for a numeric dimension"),
                    })
                }
            }
        }
        self.rows_numeric.push(numeric);
        self.rows_nominal.push(nominal);
        Ok(self)
    }

    /// Number of rows pushed so far.
    pub fn len(&self) -> usize {
        self.rows_numeric.len()
    }

    /// True when no rows have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.rows_numeric.is_empty()
    }

    /// Finalizes the builder into a [`Dataset`], validating every row against the schema.
    pub fn build(self) -> Result<Dataset> {
        let mut data = Dataset::empty(self.schema);
        for (numeric, nominal) in self.rows_numeric.iter().zip(&self.rows_nominal) {
            data.push_row_ids(numeric, nominal)?;
        }
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Dimension;

    fn schema() -> Schema {
        Schema::new(vec![
            Dimension::numeric("price"),
            Dimension::numeric("class-neg"),
            Dimension::nominal_with_labels("group", Vec::<String>::new()),
        ])
        .unwrap()
    }

    #[test]
    fn builder_interns_labels_and_builds_columns() {
        let mut b = DatasetBuilder::new(schema());
        b.push_row([
            RowValue::Num(1600.0),
            RowValue::Num(-4.0),
            RowValue::Label("T".into()),
        ])
        .unwrap();
        b.push_row([
            RowValue::Num(2400.0),
            RowValue::Num(-1.0),
            RowValue::Label("T".into()),
        ])
        .unwrap();
        b.push_row([
            RowValue::Num(3000.0),
            RowValue::Num(-5.0),
            RowValue::Label("H".into()),
        ])
        .unwrap();
        let d = b.build().unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.numeric(0, 0), 1600.0);
        assert_eq!(d.numeric(2, 1), -5.0);
        assert_eq!(d.nominal(0, 0), d.nominal(1, 0));
        assert_ne!(d.nominal(0, 0), d.nominal(2, 0));
        assert_eq!(d.nominal_label(2, 0), "H");
    }

    #[test]
    fn builder_rejects_bad_arity_and_kinds() {
        let mut b = DatasetBuilder::new(schema());
        assert!(matches!(
            b.push_row([RowValue::Num(1.0)]),
            Err(SkylineError::RowShapeMismatch {
                expected: 3,
                got: 1
            })
        ));
        assert!(matches!(
            b.push_row([
                RowValue::Num(1.0),
                RowValue::Label("x".into()),
                RowValue::Label("T".into())
            ]),
            Err(SkylineError::KindMismatch { .. })
        ));
        assert!(matches!(
            b.push_row([RowValue::Num(1.0), RowValue::Num(2.0), RowValue::Num(3.0)]),
            Err(SkylineError::KindMismatch { .. })
        ));
    }

    #[test]
    fn from_columns_validates_shape() {
        let schema = schema();
        let err = Dataset::from_columns(schema.clone(), vec![vec![1.0]], vec![]).unwrap_err();
        assert!(matches!(err, SkylineError::RowShapeMismatch { .. }));

        let err = Dataset::from_columns(
            schema.clone(),
            vec![vec![1.0], vec![2.0, 3.0]],
            vec![vec![0]],
        )
        .unwrap_err();
        assert!(matches!(err, SkylineError::InvalidArgument(_)));
    }

    #[test]
    fn from_columns_validates_domain() {
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::nominal_with_labels("g", ["a", "b"]),
        ])
        .unwrap();
        let err = Dataset::from_columns(schema, vec![vec![1.0]], vec![vec![5]]).unwrap_err();
        assert!(matches!(
            err,
            SkylineError::ValueOutOfDomain { value: 5, .. }
        ));
    }

    #[test]
    fn push_row_ids_appends() {
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::nominal_with_labels("g", ["a", "b"]),
        ])
        .unwrap();
        let mut d = Dataset::empty(schema);
        assert_eq!(d.push_row_ids(&[1.0], &[1]).unwrap(), 0);
        assert_eq!(d.push_row_ids(&[2.0], &[0]).unwrap(), 1);
        assert!(d.push_row_ids(&[2.0], &[7]).is_err());
        assert!(d.push_row_ids(&[2.0, 1.0], &[0]).is_err());
        assert_eq!(d.len(), 2);
        assert_eq!(d.nominal(0, 0), 1);
        assert_eq!(
            d.epoch(),
            DatasetEpoch::INITIAL,
            "ingest leaves the epoch alone"
        );
        assert_eq!(d.append_row(&[3.0], &[1]).unwrap(), 2);
        assert_eq!(d.epoch().get(), 1, "a served insert bumps it");
        assert!(d.append_row(&[3.0], &[2]).is_err());
        for v in NON_FINITE {
            assert!(matches!(
                d.append_row(&[v], &[1]),
                Err(SkylineError::InvalidArgument(_))
            ));
        }
        assert_eq!(d.len(), 3);
        assert_eq!(d.epoch().get(), 1, "a rejected insert does not");
    }

    const NON_FINITE: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

    fn two_numeric() -> Schema {
        Schema::new(vec![Dimension::numeric("x"), Dimension::numeric("y")]).unwrap()
    }

    /// Refused among others: rows on which non-finite cells break the skyline methods. On
    /// `(−∞, 1)` and `(−∞, 0)` the score-sorted engines keep both rows and BNL one; on
    /// `(5, 0)`, `(NaN, 1)` and `(1, 2)` every method keeps rows 0 and 2 although row 1
    /// dominates row 2.
    #[test]
    fn from_columns_refuses_non_finite_cells() {
        for (x, y) in [
            (vec![f64::NEG_INFINITY, f64::NEG_INFINITY], vec![1.0, 0.0]),
            (vec![5.0, f64::NAN, 1.0], vec![0.0, 1.0, 2.0]),
        ] {
            let err = Dataset::from_columns(two_numeric(), vec![x, y], vec![]).unwrap_err();
            assert!(matches!(err, SkylineError::InvalidArgument(_)), "{err:?}");
        }
        for v in NON_FINITE {
            let err =
                Dataset::from_columns(two_numeric(), vec![vec![1.0], vec![v]], vec![]).unwrap_err();
            assert!(matches!(err, SkylineError::InvalidArgument(_)), "{v}");
            assert!(err.to_string().contains("`y`"), "{err}");
        }
        let finite = [f64::MIN, -0.0, f64::MIN_POSITIVE / 2.0, f64::MAX];
        let d = Dataset::from_columns(two_numeric(), vec![finite.to_vec(); 2], vec![]).unwrap();
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn builder_refuses_non_finite_cells() {
        for v in NON_FINITE {
            let mut b = DatasetBuilder::new(schema());
            b.push_row([
                RowValue::Num(1.0),
                RowValue::Num(1.0),
                RowValue::Label("T".into()),
            ])
            .unwrap();
            b.push_row([
                RowValue::Num(v),
                RowValue::Num(1.0),
                RowValue::Label("T".into()),
            ])
            .unwrap();
            assert!(
                matches!(b.build(), Err(SkylineError::InvalidArgument(_))),
                "{v}"
            );
        }
    }

    #[test]
    fn retained_renumbers_rows_in_order() {
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::nominal_with_labels("g", ["a", "b", "c"]),
        ])
        .unwrap();
        let d = Dataset::from_columns(
            schema,
            vec![vec![1.0, 2.0, 3.0, 4.0]],
            vec![vec![0, 1, 2, 1]],
        )
        .unwrap();
        let mut d = d;
        d.tombstone(1).unwrap();
        let kept = d.retained(&[0, 2, 3]);
        assert_eq!(kept.len(), 3);
        assert_eq!(kept.numeric_values(), &[1.0, 3.0, 4.0]);
        assert_eq!(kept.nominal_values(), &[0, 2, 1]);
        assert_eq!(kept.max_values(), &[2]);
        assert_eq!(kept.schema(), d.schema());
        assert_eq!(kept.live_count(), 3);
        assert_eq!(kept.epoch(), DatasetEpoch::INITIAL);
        assert!(d.retained(&[]).is_empty());
    }

    #[test]
    fn frequencies_and_popular_order() {
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::nominal_with_labels("g", ["a", "b", "c"]),
        ])
        .unwrap();
        let d = Dataset::from_columns(schema, vec![vec![0.0; 6]], vec![vec![1, 1, 1, 2, 2, 0]])
            .unwrap();
        assert_eq!(d.nominal_value_frequencies(0), vec![1, 3, 2]);
        assert_eq!(d.values_by_frequency(0), vec![1, 2, 0]);
        // Tombstoned rows no longer count.
        let mut d = d;
        d.tombstone(0).unwrap();
        assert_eq!(d.nominal_value_frequencies(0), vec![1, 2, 2]);
    }

    #[test]
    fn approximate_bytes_counts_cells() {
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::nominal_with_labels("g", ["a"]),
        ])
        .unwrap();
        let d = Dataset::from_columns(schema, vec![vec![0.0; 10]], vec![vec![0; 10]]).unwrap();
        assert_eq!(d.approximate_bytes(), 10 * 8 + 10 * 2);
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::empty(schema());
        assert!(d.is_empty());
        assert_eq!(d.point_ids().count(), 0);
    }
}
