//! Adaptive SFS (the paper's **SFS-A**): preprocessing (Algorithm 3), query processing
//! (Algorithm 4) with a progressive result iterator, and incremental maintenance
//! (Section 4.3) — row insertions and logical deletions keep the sorted list and the value
//! index up to date in place.
//!
//! Preprocessing runs once per structure: one [`Scan::presorted`] drain over the live rows in
//! template-score order. Mutations never re-run it; the engine's generation rebuild, which
//! reclaims tombstoned rows, builds a fresh structure with [`AdaptiveSfs::build`] over the
//! compacted dataset.
//!
//! # What a query touches: AFFECT = rows carrying a *newly listed* value
//!
//! Let the template list `t_j` values on nominal dimension `j` and the query refine it (the
//! template's list is a prefix of the query's, [`Template::check_refinement`]). A value is
//! *newly listed* on `j` when it sits at a position `> t_j` of the query's list; a member of
//! `SKY(R)` is **affected** when it carries a newly listed value on some dimension, and AFFECT
//! is the set of affected members ([`ValueIndex::affected_by`], counted in
//! [`Work::affected`]). This is narrower than the paper's Figure (d) ratio
//! [`skyline_core::stats::affected_points`], which counts every *listed* value — including
//! the template's own prefix, whose rows keep their score and every relation among them.
//!
//! **Lemma.** (a) A pair of `P(R̃′)` whose better side sits at a position `≤ t_j` is already
//! in `P(R̃)` — its worse side is listed later, or unlisted, there too — so every pair of
//! `P(R̃′) \ P(R̃)` has a newly listed better side. (b) If `p ∈ SKY(R)` and `q ≻_{R′} p` then
//! `q` is affected: otherwise every nominal relation `q.j ⪯′ p.j` already holds under `R`,
//! the numeric cells are the same, hence `q ≻_R p`, contradicting `p ∈ SKY(R)`. (c) The score
//! ranks a listed value by its position and an unlisted one by `c_j`; neither changes for a
//! row with no newly listed value, so only affected entries move in the sorted list.
//!
//! Hence Algorithm 4 re-ranks AFFECT only and tests **every** candidate — affected or not —
//! against the *accepted affected* rows only: a rejected dominator is itself dominated by an
//! accepted affected row (the transitivity argument SFS already relies on). That is the core
//! SFS [`Scan`] with only AFFECT flagged "may dominate later rows". AFFECT = ∅ — for one, a
//! query equal to the template — answers `SKY(R)` with zero dominance tests.
//!
//! Every row the scan yields is final (SFS is progressive), so there is one query call shape:
//! [`AdaptiveSfs::query_scan`] opens the scan, which allocates and owns its candidate list
//! and window, and a batch answer ([`AdaptiveSfs::query_with_stats`]) is that scan drained.

use crate::index::ValueIndex;
use crate::sorted_list::ScoredEntry;
use skyline_core::algo::sfs::Scan;
use skyline_core::kernel::{CompiledOrder, CompiledRelation};
use skyline_core::score::ScoreFn;
use skyline_core::{
    Dataset, DatasetEpoch, PointId, Preference, Result, SkylineError, Template, ValueId, Work,
};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// How the elimination pass of Algorithm 4 is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanMode {
    /// Every candidate is tested against the accepted *affected* rows only (the module-level
    /// lemma): the paper's "there is no need to follow the SFS from scratch". The default.
    #[default]
    AffectedOnly,
    /// Plain SFS elimination over the re-ranked template skyline — the same scan with every
    /// candidate flagged affected, so each one is tested against everything accepted before
    /// it. Kept as the reference the tests and the scan-mode ablation compare against.
    FullRescan,
}

/// Statistics recorded by the preprocessing pass ([`AdaptiveSfs::build`]); mutations leave
/// them as the pass recorded them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PreprocessStats {
    /// `|D|`.
    pub dataset_size: usize,
    /// `|SKY(R̃)|`: the number of entries in the sorted list.
    pub template_skyline_size: usize,
    /// Wall-clock seconds spent computing and sorting the template skyline.
    pub preprocess_seconds: f64,
}

/// Counters accumulated by the incremental-maintenance mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Rows inserted since the structure was built.
    pub inserts: u64,
    /// Rows logically deleted (tombstoned) since the structure was built.
    pub deletes: u64,
    /// Candidate rows actually tested by delete resurface passes (the quantity the
    /// dominance-region restriction shrinks).
    pub resurface_candidates: u64,
}

/// The Adaptive SFS query structure.
///
/// The dataset is held by shared ownership ([`Arc`]), so the structure is `Send + Sync` and
/// one build can serve queries from many threads concurrently (`&self` queries only read).
///
/// # Incremental maintenance (Section 4.3)
///
/// [`AdaptiveSfs::insert_row`] and [`AdaptiveSfs::delete_row`] mutate the dataset in place —
/// appending a row or tombstoning one — and update the sorted list
/// and the value index incrementally: an insert is one dominance check against the current
/// skyline plus an `O(log n)` list update, a delete of a skyline member additionally scans the
/// deleted point's *dominance region* for resurfacing rows. Every mutation bumps the
/// structure's [`DatasetEpoch`]; queries answer against the current epoch. A mutation that
/// changes the sorted list's membership also moves [`AdaptiveSfs::skyline_epoch`], the epoch
/// every refinement's answer depends on.
///
/// Mutations take `&mut self`. When other `Arc` handles to the dataset are still alive (for
/// example an open query [`Scan`]), the first mutation copies the rows once (`Arc::make_mut`)
/// so those handles keep an immutable snapshot; subsequent mutations are in place.
#[derive(Debug, Clone)]
pub struct AdaptiveSfs {
    data: Arc<Dataset>,
    template: Template,
    /// The template's ranking, shared by the sorted list and every mutation.
    template_score: ScoreFn,
    /// The template's nominal orders, compiled once at construction; mutations reuse them
    /// instead of re-deriving the dominance closure per call.
    template_compiled: Vec<CompiledOrder>,
    entries: Vec<ScoredEntry>,
    /// The dataset epoch at which `entries` last changed membership (or was built).
    skyline_epoch: DatasetEpoch,
    index: ValueIndex,
    /// Value → live-row index over the whole dataset; built lazily by the first deletion and
    /// maintained incrementally afterwards.
    row_index: Option<ValueIndex>,
    maintenance: MaintenanceStats,
    stats: PreprocessStats,
}

impl AdaptiveSfs {
    /// Algorithm 3: computes `SKY(R̃)`, scores it under the template ranking and sorts it —
    /// one serial [`Scan::presorted`] drain over the dataset's live rows in template-score
    /// order. The monotone score sorts every dominator before the rows it dominates, so the
    /// scan accepts exactly `SKY(R̃)`, already in sorted-list order.
    ///
    /// Accepts either an owned [`Dataset`] or an [`Arc<Dataset>`] (share the same `Arc` across
    /// engines and threads to avoid copying the data). Requires a template with an implicit
    /// form (the sorted list's ranking is derived from it); general partial-order templates
    /// are rejected.
    ///
    /// This is also the engine lifecycle's entry point for building the next generation's
    /// query structure off a physically compacted dataset: the structure adopts the
    /// dataset's [`DatasetEpoch`] as-is, so epoch-tagged artifacts built against the old
    /// generation keep failing their staleness checks against the new one.
    pub fn build(data: impl Into<Arc<Dataset>>, template: &Template) -> Result<Self> {
        let started = Instant::now();
        let mut this = Self::assemble(data.into(), template.clone(), |data, score| {
            let compiled = CompiledRelation::for_template(data, template)?;
            let live: Vec<PointId> = data.live_ids().collect();
            let sorted = score.sort_by_score(data, &live);
            Ok(scored_list(
                data,
                score,
                Scan::presorted(&compiled, &sorted),
            ))
        })?;
        this.stats.preprocess_seconds = started.elapsed().as_secs_f64();
        Ok(this)
    }

    /// Builds the structure from an already-computed template skyline. The hybrid engine
    /// seeds its fallback structure this way, with its IPO tree's `SKY(R)`.
    pub fn from_precomputed(
        data: impl Into<Arc<Dataset>>,
        template: Template,
        skyline: Vec<PointId>,
    ) -> Result<Self> {
        Self::assemble(data.into(), template, |data, score| {
            Ok(scored_list(data, score, skyline))
        })
    }

    /// Rehydrates the structure from an already-scored, already-sorted list — the snapshot
    /// load path. Where [`AdaptiveSfs::from_precomputed`] still scores and sorts the skyline,
    /// this constructor trusts the decoded `(score, point)` entries and only re-establishes
    /// the invariants it depends on: strict ascending `(score.total_cmp, point)` order, every
    /// point id in range and live in `data`. The remaining work — compiling the template
    /// ranking and rebuilding the value index — is `O(skyline · dims)`, independent of the
    /// dataset size.
    pub fn from_sorted_entries(
        data: impl Into<Arc<Dataset>>,
        template: Template,
        entries: Vec<ScoredEntry>,
    ) -> Result<Self> {
        Self::assemble(data.into(), template, |data, _| {
            if entries.windows(2).any(|w| w[0] >= w[1]) {
                return Err(SkylineError::Snapshot(
                    "sorted list entries are not strictly ascending by (score, point)".into(),
                ));
            }
            for e in &entries {
                if !data.is_live(e.point) {
                    return Err(SkylineError::Snapshot(format!(
                        "sorted list references point {} which is not a live row",
                        e.point
                    )));
                }
            }
            // Strict (score, point) ordering cannot rule out one point listed under two
            // different scores, which would corrupt the value index — check ids themselves.
            let mut ids: Vec<PointId> = entries.iter().map(|e| e.point).collect();
            ids.sort_unstable();
            if ids.windows(2).any(|w| w[0] == w[1]) {
                return Err(SkylineError::Snapshot(
                    "sorted list references the same point twice".into(),
                ));
            }
            Ok(entries)
        })
    }

    /// The one assembler behind every constructor: checks the template for an implicit form,
    /// derives the template ranking, lets `sorted_list` produce the sorted entries under it
    /// (scanning the live rows, scoring a raw skyline, or validating decoded entries), then
    /// compiles the template orders and indexes the list.
    fn assemble(
        data: Arc<Dataset>,
        template: Template,
        sorted_list: impl FnOnce(&Dataset, &ScoreFn) -> Result<Vec<ScoredEntry>>,
    ) -> Result<Self> {
        let template_pref = template.implicit().cloned().ok_or_else(|| {
            SkylineError::InvalidArgument(
                "Adaptive SFS requires a template with an implicit form".into(),
            )
        })?;
        let score = ScoreFn::for_preference(data.schema(), &template_pref)?;
        let entries = sorted_list(&data, &score)?;
        let template_compiled: Vec<CompiledOrder> = template
            .orders()
            .iter()
            .map(CompiledOrder::compile)
            .collect();
        let index = ValueIndex::build(&data, entries.iter().map(|e| e.point));
        let stats = PreprocessStats {
            dataset_size: data.len(),
            template_skyline_size: entries.len(),
            preprocess_seconds: 0.0,
        };
        Ok(Self {
            skyline_epoch: data.epoch(),
            data,
            template,
            template_score: score,
            template_compiled,
            entries,
            index,
            row_index: None,
            maintenance: MaintenanceStats::default(),
            stats,
        })
    }

    /// The dataset the structure is bound to.
    pub fn dataset(&self) -> &Dataset {
        &self.data
    }

    /// Shared handle to the dataset (cheap to clone; hand it to sibling engines or threads).
    pub fn dataset_arc(&self) -> &Arc<Dataset> {
        &self.data
    }

    /// The template the structure was preprocessed for.
    pub fn template(&self) -> &Template {
        &self.template
    }

    /// Preprocessing statistics.
    pub fn preprocess_stats(&self) -> &PreprocessStats {
        &self.stats
    }

    /// The sorted list entries (`SKY(R̃)` in ascending template-score order).
    pub fn sorted_entries(&self) -> &[ScoredEntry] {
        &self.entries
    }

    /// The template skyline as sorted point ids.
    pub fn template_skyline(&self) -> Vec<PointId> {
        let mut ids: Vec<PointId> = self.entries.iter().map(|e| e.point).collect();
        ids.sort_unstable();
        ids
    }

    /// Approximate heap footprint in bytes (sorted list + value index), for the storage plots.
    pub fn approximate_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<ScoredEntry>() + self.index.approximate_bytes()
    }

    /// Algorithm 4 with the default [`ScanMode::AffectedOnly`]; returns sorted point ids.
    pub fn query(&self, pref: &Preference) -> Result<Vec<PointId>> {
        self.query_with_stats(pref, ScanMode::default())
            .map(|(r, _)| r)
    }

    /// Algorithm 4 with an explicit scan mode, reporting the query's [`Work`]: dominance
    /// tests, AFFECT size, candidates examined and rows emitted. The answer is the drained
    /// [`AdaptiveSfs::query_scan`], sorted by id.
    pub fn query_with_stats(
        &self,
        pref: &Preference,
        mode: ScanMode,
    ) -> Result<(Vec<PointId>, Work)> {
        let mut scan = self.query_scan(pref, mode)?;
        let mut result: Vec<PointId> = scan.by_ref().collect();
        result.sort_unstable();
        Ok((result, scan.work))
    }

    /// Opens Algorithm 4 for `pref` as a progressive [`Scan`] that yields `SKY(R̃′)` in
    /// ascending query-score order; each row is final as soon as it is produced (the
    /// progressiveness property of Section 4.3), so a caller can stop early without wasted
    /// work. The scan owns its compiled relation (which shares this structure's dataset), so
    /// it carries no borrow of the structure and keeps a snapshot across later mutations.
    ///
    /// Validates `pref` and re-ranks AFFECT into the merged candidate order; the scan owns
    /// that order and its window. A batch answer is the drained scan.
    pub fn query_scan(&self, pref: &Preference, mode: ScanMode) -> Result<Scan<CompiledRelation>> {
        let (mut order, affected) = self.reranked_order(pref)?;
        let full = mode == ScanMode::FullRescan;
        let dom = if full || affected > 0 {
            CompiledRelation::for_query(self.data.clone(), &self.template, pref)?
        } else {
            // No candidate may dominate, so the scan never probes its relation: the template's,
            // compiled at construction, stands in for compiling the query's.
            self.template_relation()
        };
        if full {
            for (_, may_dominate) in &mut order {
                *may_dominate = true;
            }
        }
        let mut scan = Scan::new(dom, order);
        scan.work.affected = affected as u64;
        Ok(scan)
    }

    /// The query-score-ordered candidate list as `(point, is_affected)` pairs, with
    /// `|AFFECT|`. Cost is proportional to `|AFFECT|` plus one pass over the list.
    fn reranked_order(&self, pref: &Preference) -> Result<(Vec<(PointId, bool)>, usize)> {
        let (data, schema) = (&*self.data, self.data.schema());
        // Refinement is checked before the index applies the template's prefix lengths.
        pref.validate(schema)?;
        self.template.check_refinement(schema, pref)?;
        let template_pref = self
            .template
            .implicit()
            .expect("construction rejects templates without an implicit form");
        let query_score = ScoreFn::for_preference(schema, pref)?;

        // Affected points are deleted from the sorted list and re-inserted with their new
        // score; everything else keeps its template-score position (lemma (c)). The flag
        // vector de-duplicates rows affected on several dimensions.
        let mut affected = vec![false; data.len()];
        let mut reinserted = Vec::new();
        for p in self.index.affected_by(template_pref, pref) {
            if !std::mem::replace(&mut affected[p as usize], true) {
                reinserted.push(ScoredEntry::new(p, query_score.score(data, p)));
            }
        }
        reinserted.sort_unstable();

        let mut merged = Vec::with_capacity(self.entries.len());
        let mut moved = reinserted.iter().peekable();
        for kept in &self.entries {
            if affected[kept.point as usize] {
                continue;
            }
            while let Some(m) = moved.next_if(|m| *m < kept) {
                merged.push((m.point, true));
            }
            merged.push((kept.point, false));
        }
        merged.extend(moved.map(|m| (m.point, true)));
        Ok((merged, reinserted.len()))
    }
}

/// Incremental maintenance (Section 4.3): in-place inserts and logical deletes.
impl AdaptiveSfs {
    /// The structure's current mutation epoch (bumped by every insert or live delete).
    pub fn epoch(&self) -> DatasetEpoch {
        self.data.epoch()
    }

    /// The epoch at which the template skyline `SKY(R̃)` last changed membership, or at which
    /// the structure was built. Every refinement's answer lies in `SKY(R̃)`
    /// (`SKY(R̃′) = SKY_{R̃′}(SKY(R̃))`), so while this epoch holds every answer is the same
    /// set of row ids: a dominated insert or a non-member delete leaves it where it is.
    pub fn skyline_epoch(&self) -> DatasetEpoch {
        self.skyline_epoch
    }

    /// Number of live (non-deleted) rows.
    pub fn live_rows(&self) -> usize {
        self.data.live_count()
    }

    /// Current size of the sorted list (`|SKY(R̃)|`).
    pub fn skyline_size(&self) -> usize {
        self.entries.len()
    }

    /// Counters accumulated by the maintenance mode.
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        self.maintenance
    }

    /// The template relation over the current rows, from the orders compiled at construction
    /// (no per-mutation closure derivation).
    fn template_relation(&self) -> CompiledRelation {
        CompiledRelation::from_compiled_orders(self.data.clone(), self.template_compiled.clone())
            .expect("template orders cover the schema domains by construction")
    }

    /// Inserts a row (numeric values in numeric-index order, nominal value ids in
    /// nominal-index order) and updates the skyline structures in place. Returns the new
    /// row id.
    ///
    /// Cost: one dominance check of the new point against the current template skyline plus
    /// `O(log n)` sorted-list updates — the cheap path the paper's maintenance analysis
    /// promises. The structure's [`DatasetEpoch`] is bumped.
    pub fn insert_row(&mut self, numeric: &[f64], nominal: &[ValueId]) -> Result<PointId> {
        let p = Arc::make_mut(&mut self.data).append_row(numeric, nominal)?;
        if let Some(idx) = &mut self.row_index {
            idx.insert(&self.data, p);
        }
        self.maintenance.inserts += 1;

        let rel = self.template_relation();
        let members: Vec<PointId> = self.entries.iter().map(|e| e.point).collect();
        // If an existing skyline member dominates the new point, the skyline is unchanged.
        if rel.first_dominator(p, &members).is_none() {
            // Otherwise the new point joins the skyline and evicts the members it dominates.
            let evicted: Vec<PointId> = members
                .iter()
                .copied()
                .filter(|&q| rel.dominates(p, q))
                .collect();
            if !evicted.is_empty() {
                self.entries.retain(|e| !evicted.contains(&e.point));
                for &q in &evicted {
                    self.index.remove(&self.data, q);
                }
            }
            let entry = ScoredEntry::new(p, self.template_score.score(&self.data, p));
            if let Err(pos) = self.entries.binary_search(&entry) {
                self.entries.insert(pos, entry);
            }
            self.index.insert(&self.data, p);
            self.skyline_epoch = self.data.epoch();
        }
        Ok(p)
    }

    /// Logically deletes a row, updating the skyline structures in place. Returns `true` when
    /// the row was live before the call (double deletes are a no-op that does not bump the
    /// epoch); rows that never existed are an error.
    ///
    /// Deleting a non-member is `O(log n)`. Deleting a skyline member runs a resurface pass
    /// restricted to the member's *dominance region*: only live rows carrying the deleted
    /// point's value (or a template-order-worse one) on the most selective nominal dimension
    /// are tested, instead of every live row. [`AdaptiveSfs::delete_row_rescan_all`] is the
    /// unrestricted reference path the equivalence tests pin this against.
    pub fn delete_row(&mut self, p: PointId) -> Result<bool> {
        self.delete_row_impl(p, true)
    }

    /// [`AdaptiveSfs::delete_row`] with the resurface pass scanning **all** live rows (the
    /// ablation/reference path; same result, more dominance tests).
    pub fn delete_row_rescan_all(&mut self, p: PointId) -> Result<bool> {
        self.delete_row_impl(p, false)
    }

    fn delete_row_impl(&mut self, p: PointId, restrict: bool) -> Result<bool> {
        if !Arc::make_mut(&mut self.data).tombstone(p)? {
            return Ok(false);
        }
        if let Some(idx) = &mut self.row_index {
            idx.remove(&self.data, p);
        }
        self.maintenance.deletes += 1;

        let entry = ScoredEntry::new(p, self.template_score.score(&self.data, p));
        let Ok(pos) = self.entries.binary_search(&entry) else {
            // Not a skyline member: nothing else changes.
            return Ok(true);
        };
        self.entries.remove(pos);
        self.index.remove(&self.data, p);
        self.skyline_epoch = self.data.epoch();

        // Rows previously shadowed (possibly only by p) may resurface: a live non-member
        // joins the skyline when no remaining member dominates it. Any such row was dominated
        // by p (it was shadowed before, and every other shadow still stands), so the scan can
        // be restricted to p's dominance region.
        let rel = self.template_relation();
        let members: Vec<PointId> = self.entries.iter().map(|e| e.point).collect();
        let member_set: HashSet<PointId> = members.iter().copied().collect();
        let region = if restrict {
            self.ensure_row_index();
            self.row_index.as_ref().and_then(|idx| {
                idx.dominance_region_candidates(&self.data, &self.template_compiled, p)
            })
        } else {
            None
        };
        let candidates: Vec<PointId> = match region {
            Some(rows) => rows,
            None => self.data.live_ids().collect(),
        };
        let mut resurfaced: Vec<PointId> = Vec::new();
        for q in candidates {
            if !self.data.is_live(q) || member_set.contains(&q) || !rel.dominates(p, q) {
                continue;
            }
            self.maintenance.resurface_candidates += 1;
            if rel.first_dominator(q, &members).is_none() {
                resurfaced.push(q);
            }
        }
        // Resurfacing candidates can shadow each other; only the mutually undominated ones
        // join the skyline.
        let confirmed: Vec<PointId> = resurfaced
            .iter()
            .copied()
            .filter(|&q| !resurfaced.iter().any(|&r| rel.dominates(r, q)))
            .collect();
        for q in confirmed {
            let entry = ScoredEntry::new(q, self.template_score.score(&self.data, q));
            if let Err(pos) = self.entries.binary_search(&entry) {
                self.entries.insert(pos, entry);
            }
            self.index.insert(&self.data, q);
        }
        Ok(true)
    }

    fn ensure_row_index(&mut self) {
        if self.row_index.is_none() {
            self.row_index = Some(ValueIndex::build(&self.data, self.data.live_ids()));
        }
    }
}

/// Scores `skyline` under the template ranking into the sorted list's entries, in ascending
/// `(score, point)` order.
fn scored_list(
    data: &Dataset,
    score: &ScoreFn,
    skyline: impl IntoIterator<Item = PointId>,
) -> Vec<ScoredEntry> {
    let mut entries: Vec<ScoredEntry> = skyline
        .into_iter()
        .map(|p| ScoredEntry::new(p, score.score(data, p)))
        .collect();
    entries.sort();
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_core::algo::bnl;
    use skyline_core::{
        DatasetBuilder, Deadline, Dimension, DominanceContext, ImplicitPreference, RowValue, Schema,
    };

    fn vacation_data() -> Arc<Dataset> {
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
        Arc::new(b.build().unwrap())
    }

    /// The progressive scan of `pref` under the default mode.
    fn stream(asfs: &AdaptiveSfs, pref: &Preference) -> Scan<CompiledRelation> {
        asfs.query_scan(pref, ScanMode::default()).unwrap()
    }

    #[test]
    fn build_materializes_template_skyline() {
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let asfs = AdaptiveSfs::build(data.clone(), &template).unwrap();
        assert_eq!(asfs.template_skyline(), vec![0, 2, 4, 5]);
        assert_eq!(asfs.preprocess_stats().template_skyline_size, 4);
        assert_eq!(asfs.preprocess_stats().dataset_size, 6);
        assert!(asfs.approximate_bytes() > 0);
        assert_eq!(asfs.sorted_entries().len(), 4);
        assert_eq!(asfs.template().nominal_count(), 1);
        assert!(std::ptr::eq(asfs.dataset(), &*data));
        assert!(Arc::ptr_eq(asfs.dataset_arc(), &data));
    }

    #[test]
    fn table2_preferences_match_the_oracle() {
        let data = vacation_data();
        let schema = data.schema().clone();
        let template = Template::empty(&schema);
        let asfs = AdaptiveSfs::build(data.clone(), &template).unwrap();
        for text in [
            "*",
            "T < M < *",
            "H < M < *",
            "H < M < T",
            "H < T < *",
            "M < *",
        ] {
            let pref = Preference::parse(&schema, [("hotel-group", text)]).unwrap();
            let ctx = DominanceContext::for_query(&data, &template, &pref).unwrap();
            let expected = bnl::skyline(&ctx);
            assert_eq!(asfs.query(&pref).unwrap(), expected, "preference {text}");
            let (full, _) = asfs.query_with_stats(&pref, ScanMode::FullRescan).unwrap();
            assert_eq!(full, expected, "full rescan, preference {text}");
        }
    }

    #[test]
    fn query_stats_count_affected_points() {
        let data = vacation_data();
        let schema = data.schema().clone();
        let template = Template::empty(&schema);
        let asfs = AdaptiveSfs::build(data.clone(), &template).unwrap();
        let pref = Preference::parse(&schema, [("hotel-group", "M < *")]).unwrap();
        let (result, stats) = asfs
            .query_with_stats(&pref, ScanMode::AffectedOnly)
            .unwrap();
        // Affected = skyline points with hotel-group M = {e, f}.
        assert_eq!(stats.affected, 2);
        assert_eq!(stats.rows_emitted, result.len() as u64);
        assert_eq!(result, vec![0, 2, 4, 5]);
    }

    #[test]
    fn a_query_equal_to_the_template_costs_a_copy() {
        let data = vacation_data();
        let schema = data.schema().clone();
        let pref = Preference::parse(&schema, [("hotel-group", "H < *")]).unwrap();
        let template = Template::from_preference(&schema, pref.clone()).unwrap();
        let asfs = AdaptiveSfs::build(data, &template).unwrap();
        let (result, stats) = asfs
            .query_with_stats(&pref, ScanMode::AffectedOnly)
            .unwrap();
        assert_eq!(result, asfs.template_skyline());
        assert_eq!((stats.affected, stats.dominance_tests), (0, 0));
        let streamed: Vec<PointId> = stream(&asfs, &pref).collect();
        let in_list_order: Vec<PointId> = asfs.sorted_entries().iter().map(|e| e.point).collect();
        assert_eq!(streamed, in_list_order);
        // The reference path answers the same through the full elimination scan.
        let (full, full_stats) = asfs.query_with_stats(&pref, ScanMode::FullRescan).unwrap();
        assert_eq!(full, result);
        assert_eq!(full_stats.affected, 0);
        assert!(full_stats.dominance_tests > 0);
    }

    #[test]
    fn an_aborted_drain_fails_on_the_deadline_and_a_new_scan_answers() {
        let data = vacation_data();
        let schema = data.schema().clone();
        let template = Template::empty(&schema);
        let asfs = AdaptiveSfs::build(data, &template).unwrap();
        let pref = Preference::parse(&schema, [("hotel-group", "T < M < *")]).unwrap();
        let expected = asfs.query(&pref).unwrap();
        let expired = Deadline::within(std::time::Duration::ZERO);
        let mut rows = Vec::new();
        assert_eq!(
            stream(&asfs, &pref)
                .drain_into(&mut rows, &expired)
                .unwrap_err(),
            SkylineError::DeadlineExceeded
        );
        assert!(rows.is_empty());
        stream(&asfs, &pref)
            .drain_into(&mut rows, &Deadline::none())
            .unwrap();
        rows.sort_unstable();
        assert_eq!(rows, expected);
    }

    #[test]
    fn progressive_scan_yields_final_points_in_score_order() {
        let data = vacation_data();
        let schema = data.schema().clone();
        let template = Template::empty(&schema);
        let asfs = AdaptiveSfs::build(data.clone(), &template).unwrap();
        let pref = Preference::parse(&schema, [("hotel-group", "T < M < *")]).unwrap();
        let full = asfs.query(&pref).unwrap();
        let mut streamed: Vec<PointId> = Vec::new();
        for p in stream(&asfs, &pref) {
            // Progressiveness: every yielded point must be in the final answer.
            assert!(
                full.contains(&p),
                "point {p} streamed but not in the skyline"
            );
            streamed.push(p);
        }
        let mut sorted = streamed.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, full);
        // First streamed result must be the best-scoring point (a = id 0 here).
        assert_eq!(streamed[0], 0);
    }

    #[test]
    fn queries_must_refine_the_template() {
        let data = vacation_data();
        let schema = data.schema().clone();
        let template = Template::from_preference(
            &schema,
            Preference::parse(&schema, [("hotel-group", "H < *")]).unwrap(),
        )
        .unwrap();
        let asfs = AdaptiveSfs::build(data.clone(), &template).unwrap();
        let bad = Preference::parse(&schema, [("hotel-group", "M < *")]).unwrap();
        assert!(asfs.query(&bad).is_err());
        let good = Preference::parse(&schema, [("hotel-group", "H < M < *")]).unwrap();
        let ctx = DominanceContext::for_query(&data, &template, &good).unwrap();
        assert_eq!(asfs.query(&good).unwrap(), bnl::skyline(&ctx));
    }

    #[test]
    fn general_templates_are_rejected() {
        let data = vacation_data();
        let schema = data.schema().clone();
        let template = Template::from_partial_orders(
            &schema,
            vec![skyline_core::PartialOrder::from_pairs(3, [(0, 1)]).unwrap()],
        )
        .unwrap();
        assert!(matches!(
            AdaptiveSfs::build(data.clone(), &template),
            Err(SkylineError::InvalidArgument(_))
        ));
    }

    #[test]
    fn wrong_arity_preferences_are_rejected() {
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let asfs = AdaptiveSfs::build(data.clone(), &template).unwrap();
        let pref =
            Preference::from_dims(vec![ImplicitPreference::none(), ImplicitPreference::none()]);
        assert!(asfs.query(&pref).is_err());
    }

    /// Brute-force skyline of the live rows only.
    fn oracle(asfs: &AdaptiveSfs, pref: &Preference) -> Vec<PointId> {
        let ctx = DominanceContext::for_query(asfs.dataset(), asfs.template(), pref).unwrap();
        let live: Vec<PointId> = asfs.dataset().live_ids().collect();
        bnl::skyline_of(&ctx, &live)
    }

    #[test]
    fn inserting_a_dominated_row_changes_nothing() {
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let mut asfs = AdaptiveSfs::build(data, &template).unwrap();
        assert_eq!(asfs.epoch(), skyline_core::DatasetEpoch::INITIAL);
        // Worse than a in every way, same group.
        let p = asfs.insert_row(&[5000.0, 0.0], &[0]).unwrap();
        assert_eq!(p, 6);
        assert_eq!(asfs.template_skyline(), vec![0, 2, 4, 5]);
        assert_eq!(asfs.live_rows(), 7);
        assert_eq!(asfs.epoch().get(), 1);
        assert_eq!(asfs.maintenance_stats().inserts, 1);
    }

    #[test]
    fn inserting_a_dominating_row_evicts_members() {
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let mut asfs = AdaptiveSfs::build(data, &template).unwrap();
        // Cheaper and better class than every Tulips package.
        let p = asfs.insert_row(&[1000.0, -5.0], &[0]).unwrap();
        assert_eq!(asfs.template_skyline(), vec![2, 4, 5, p]);
        // Query results stay consistent with the oracle.
        let schema = asfs.dataset().schema().clone();
        let pref = Preference::parse(&schema, [("hotel-group", "T < M < *")]).unwrap();
        assert_eq!(asfs.query(&pref).unwrap(), oracle(&asfs, &pref));
    }

    #[test]
    fn deleting_a_skyline_member_resurfaces_shadowed_points() {
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let mut asfs = AdaptiveSfs::build(data, &template).unwrap();
        // Deleting a (id 0) lets b (id 1, the other Tulips package) resurface.
        assert!(asfs.delete_row(0).unwrap());
        let epoch = asfs.epoch();
        assert!(!asfs.delete_row(0).unwrap(), "double delete is a no-op");
        assert_eq!(asfs.epoch(), epoch, "no-op must not bump the epoch");
        assert_eq!(asfs.template_skyline(), vec![1, 2, 4, 5]);
        assert_eq!(asfs.live_rows(), 5);
        assert!(!asfs.dataset().is_live(0));
        assert!(asfs.dataset().is_live(1));
        assert!(
            !asfs.dataset().is_live(99),
            "rows that never existed are not live"
        );
        let schema = asfs.dataset().schema().clone();
        for text in ["*", "T < M < *", "H < M < *", "M < *"] {
            let pref = Preference::parse(&schema, [("hotel-group", text)]).unwrap();
            assert_eq!(
                asfs.query(&pref).unwrap(),
                oracle(&asfs, &pref),
                "preference {text}"
            );
        }
    }

    #[test]
    fn deleting_a_non_member_is_cheap_and_correct() {
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let mut asfs = AdaptiveSfs::build(data, &template).unwrap();
        assert!(asfs.delete_row(1).unwrap());
        assert_eq!(asfs.template_skyline(), vec![0, 2, 4, 5]);
        assert_eq!(
            asfs.maintenance_stats().resurface_candidates,
            0,
            "non-member deletes must not scan"
        );
        assert!(asfs.delete_row(999).is_err());
    }

    #[test]
    fn restricted_and_full_resurface_scans_agree() {
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let mut restricted = AdaptiveSfs::build(data, &template).unwrap();
        let mut full = restricted.clone();
        for p in [0, 4, 2] {
            assert_eq!(
                restricted.delete_row(p).unwrap(),
                full.delete_row_rescan_all(p).unwrap(),
                "deleting {p}"
            );
            assert_eq!(
                restricted.template_skyline(),
                full.template_skyline(),
                "after deleting {p}"
            );
        }
        assert!(
            restricted.maintenance_stats().resurface_candidates
                <= full.maintenance_stats().resurface_candidates,
            "the dominance-region restriction must never test more rows"
        );
    }

    #[test]
    fn mixed_update_sequence_stays_consistent_with_rebuild() {
        let data = vacation_data();
        let schema = data.schema().clone();
        let template = Template::empty(&schema);
        let mut asfs = AdaptiveSfs::build(data, &template).unwrap();
        asfs.insert_row(&[2000.0, -3.0], &[1]).unwrap();
        asfs.delete_row(2).unwrap();
        asfs.insert_row(&[1500.0, -1.0], &[2]).unwrap();
        asfs.delete_row(4).unwrap();
        asfs.insert_row(&[1500.0, -1.0], &[2]).unwrap();
        assert_eq!(asfs.epoch().get(), 5);

        let pref = Preference::parse(&schema, [("hotel-group", "M < H < *")]).unwrap();
        assert_eq!(asfs.query(&pref).unwrap(), oracle(&asfs, &pref));
        // The maintained skyline equals a from-scratch skyline of the live rows.
        let ctx = DominanceContext::for_template(asfs.dataset(), asfs.template()).unwrap();
        let live: Vec<PointId> = asfs.dataset().live_ids().collect();
        assert_eq!(asfs.template_skyline(), bnl::skyline_of(&ctx, &live));
    }

    #[test]
    fn mutations_never_rerun_preprocessing() {
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let mut asfs = AdaptiveSfs::build(data, &template).unwrap();
        let built = *asfs.preprocess_stats();
        // One mutation past 4 096, with every fourth step a delete of a pseudo-random row (a
        // dead row makes it a no-op that does not count).
        let mut state = 7u64;
        for step in 0u64.. {
            if asfs.epoch().get() > 4_096 {
                break;
            }
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = state >> 33;
            if step % 4 == 3 {
                let row = (r % asfs.dataset().len() as u64) as PointId;
                asfs.delete_row(row).unwrap();
            } else {
                let numeric = [(r % 97) as f64 * 50.0, -((r % 5) as f64)];
                asfs.insert_row(&numeric, &[(r % 3) as ValueId]).unwrap();
            }
        }
        assert_eq!(*asfs.preprocess_stats(), built);
        let ctx = DominanceContext::for_template(asfs.dataset(), asfs.template()).unwrap();
        let live: Vec<PointId> = asfs.dataset().live_ids().collect();
        assert_eq!(asfs.template_skyline(), bnl::skyline_of(&ctx, &live));
    }

    /// `skyline_epoch` moves exactly when the sorted list's membership changes — then to the
    /// epoch of the write that changed it — and stays put through every other write.
    #[test]
    fn skyline_epoch_moves_exactly_when_the_template_skyline_changes() {
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let mut asfs = AdaptiveSfs::build(data, &template).unwrap();
        assert_eq!(asfs.skyline_epoch(), DatasetEpoch::INITIAL);
        enum Write {
            Insert([f64; 2], ValueId),
            Delete(PointId),
        }
        use Write::{Delete, Insert};
        let writes = [
            // Worse than a (id 0) in every way, same group: row 6.
            ("dominated insert", Insert([5000.0, 0.0], 0), false),
            // d (id 3) is dominated by c.
            ("non-member delete", Delete(3), false),
            // Cheaper than c (id 2) but worse class, same group: joins, evicts nothing (row 7).
            ("incomparable insert", Insert([100.0, 0.0], 1), true),
            // Better than a in every way, same group: joins and evicts a (row 8).
            ("dominating insert", Insert([1000.0, -5.0], 0), true),
            // a resurfaces.
            ("member delete with resurfacing", Delete(8), true),
            ("member delete", Delete(7), true),
            ("double delete", Delete(7), false),
        ];
        for (what, write, changes) in writes {
            let (members, epoch) = (asfs.template_skyline(), asfs.skyline_epoch());
            match write {
                Insert(numeric, group) => {
                    asfs.insert_row(&numeric, &[group]).unwrap();
                }
                Delete(p) => {
                    asfs.delete_row(p).unwrap();
                }
            }
            assert_eq!(asfs.template_skyline() != members, changes, "{what}");
            let expected = if changes { asfs.epoch() } else { epoch };
            assert_eq!(asfs.skyline_epoch(), expected, "{what}");
        }
        assert_eq!(asfs.template_skyline(), vec![0, 2, 4, 5]);
        assert_eq!(asfs.epoch().get(), 6);
    }

    /// The generation rebuild's path: a structure built over the compacted dataset matches a
    /// fresh build over the same rows and adopts the compacted dataset's epoch.
    #[test]
    fn rebased_matches_a_fresh_build_and_keeps_the_block_epoch() {
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let mut asfs = AdaptiveSfs::build(data, &template).unwrap();
        asfs.delete_row(1).unwrap();
        asfs.delete_row(4).unwrap();
        let (compact, remap) = asfs.dataset().compacted();
        let epoch = compact.epoch();
        assert!(epoch > asfs.epoch(), "compaction moves the epoch");

        let rebased = AdaptiveSfs::build(compact, &template).unwrap();
        assert_eq!(rebased.epoch(), epoch, "the compacted epoch is adopted");
        let live: Vec<PointId> = asfs.dataset().live_ids().collect();
        let fresh = AdaptiveSfs::build(asfs.dataset().retained(&live), &template).unwrap();
        assert_eq!(fresh.epoch(), DatasetEpoch::INITIAL);
        assert_eq!(rebased.sorted_entries(), fresh.sorted_entries());
        // The rebuilt skyline is the maintained one renumbered through the remap.
        let renumbered = remap.translate_ids(&asfs.template_skyline()).unwrap();
        assert_eq!(rebased.template_skyline(), renumbered);
        assert_eq!(
            rebased.preprocess_stats().dataset_size,
            fresh.preprocess_stats().dataset_size
        );
    }

    #[test]
    fn progressive_scans_keep_a_snapshot_across_mutations() {
        let data = vacation_data();
        let schema = data.schema().clone();
        let template = Template::empty(&schema);
        let mut asfs = AdaptiveSfs::build(data, &template).unwrap();
        let pref = Preference::parse(&schema, [("hotel-group", "T < M < *")]).unwrap();
        let snapshot = stream(&asfs, &pref);
        let before: Vec<PointId> = {
            let mut v = asfs.query(&pref).unwrap();
            v.sort_unstable();
            v
        };
        // Mutating while the scan is alive copies the shared dataset; the scan still yields
        // the pre-mutation answer.
        asfs.insert_row(&[100.0, -5.0], &[0]).unwrap();
        let mut streamed: Vec<PointId> = snapshot.collect();
        streamed.sort_unstable();
        assert_eq!(streamed, before);
        // New queries see the new row.
        assert_eq!(asfs.query(&pref).unwrap(), oracle(&asfs, &pref));
    }

    #[test]
    fn progressive_scan_honours_deadlines_and_resumes_after_expiry() {
        let data = vacation_data();
        let schema = data.schema().clone();
        let template = Template::empty(&schema);
        let asfs = AdaptiveSfs::build(data, &template).unwrap();
        let pref = Preference::parse(&schema, [("hotel-group", "T < M < *")]).unwrap();
        let expected: Vec<PointId> = stream(&asfs, &pref).collect();

        let mut scan = stream(&asfs, &pref);
        // An already-expired deadline aborts before the first candidate is examined.
        let expired = Deadline::within(std::time::Duration::ZERO);
        assert_eq!(
            scan.next_row(&expired).unwrap_err(),
            SkylineError::DeadlineExceeded
        );
        assert_eq!(scan.position(), 0, "nothing consumed on abort");
        // A fresh unbounded deadline resumes the same scan and yields the full sequence.
        let mut resumed = Vec::new();
        while let Some(p) = scan.next_row(&Deadline::none()).unwrap() {
            resumed.push(p);
        }
        assert_eq!(resumed, expected);
        assert!(scan.is_exhausted());
        assert_eq!(scan.next_row(&Deadline::none()).unwrap(), None);
    }

    #[test]
    fn affected_only_and_full_rescan_agree_on_many_preferences() {
        let data = vacation_data();
        let schema = data.schema().clone();
        let template = Template::empty(&schema);
        let asfs = AdaptiveSfs::build(data.clone(), &template).unwrap();
        let values: Vec<u16> = vec![0, 1, 2];
        for &a in &values {
            for &b in &values {
                if a == b {
                    continue;
                }
                let pref = Preference::from_dims(vec![ImplicitPreference::new([a, b]).unwrap()]);
                let (fast, _) = asfs
                    .query_with_stats(&pref, ScanMode::AffectedOnly)
                    .unwrap();
                let (slow, _) = asfs.query_with_stats(&pref, ScanMode::FullRescan).unwrap();
                assert_eq!(fast, slow, "preference {a} < {b} < *");
            }
        }
    }
}
