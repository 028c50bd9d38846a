//! Engine-level persistence: [`SkylineEngine::write_snapshot`] / [`SkylineEngine::from_snapshot`].
//!
//! A snapshot captures one serving [`Generation`] in the versioned, checksummed container of
//! [`skyline_core::snapshot`]: the dataset's row-major arrays as raw sections, the
//! Adaptive-SFS sorted list as a score/point table, and the IPO tree as delta-encoded vbyte
//! posting lists. Loading is the inverse *without the preprocessing*: no template-skyline
//! computation, no score sort, no node materialization — just decode, validate, and
//! reassemble, which is what makes a snapshot cold start at `n = 100k` an order of magnitude
//! faster than [`SkylineEngine::build`] (hard-asserted by `bench_snapshot`).
//!
//! Continuity: the generation [`Generation::id`] and the dataset's [`DatasetEpoch`] survive
//! the round trip, so epoch-tagged artifacts (result caches) built before a process restart
//! keep validating against the reloaded engine. The skyline epoch is not persisted: a loaded engine's
//! [`SkylineEngine::skyline_epoch`] is its dataset epoch, so answers tagged with an earlier
//! skyline epoch miss once.
//!
//! The hybrid's [`Generation::tree_epoch`] is settled at load by the tree's members. A tree
//! whose template skyline is the sorted list's describes the loaded `SKY_R(D)`, so it loads
//! current: its tree epoch becomes the dataset epoch, and a tree that was still serving
//! before the write keeps serving after the load. A tree with other members keeps its
//! written epoch and loads stale; written at the dataset epoch, it is corruption.
//!
//! Failure model: any parse or validation problem — bad magic, checksum mismatch, truncated
//! or structurally inconsistent payloads — surfaces as [`SkylineError::Snapshot`]. The caller
//! treats that as "no usable snapshot" and falls back to a full preprocess; a partially
//! loaded engine is never produced.

use crate::engine::{EngineConfig, Generation, SkylineEngine};
use skyline_adaptive::snapshot::{decode_entries, encode_entries};
use skyline_adaptive::AdaptiveSfs;
use skyline_core::snapshot::{self as snap, ByteReader, ByteWriter, SnapshotBuilder, SnapshotView};
use skyline_core::{Dataset, DatasetEpoch, PointId, Result, SkylineError};
use skyline_ipo::{decode_tree, encode_tree};
use std::path::Path;
use std::sync::Arc;

/// Wire tags for [`EngineConfig`] in the `SECTION_ENGINE_META` payload. Tags 2, 3 and 4
/// belonged to retired tree-only configurations (full set-based tree, top-`k` tree, full
/// bitmap tree): they stay reserved — never reuse them — and [`SkylineEngine::from_snapshot`]
/// refuses them by name, pointing at the `Hybrid { top_k }` that replaces each.
const CONFIG_SFS_D: u8 = 0;
const CONFIG_ADAPTIVE_SFS: u8 = 1;
const CONFIG_HYBRID: u8 = 5;

/// Reconstruction errors are corruption reports: a decoded payload that fails a structural
/// constructor check means the snapshot does not describe a buildable engine.
fn as_snapshot_error(e: SkylineError) -> SkylineError {
    match e {
        SkylineError::Snapshot(_) => e,
        other => SkylineError::Snapshot(format!("decoded state is inconsistent: {other}")),
    }
}

impl SkylineEngine {
    /// Serializes the engine's serving generation into a self-describing snapshot buffer.
    ///
    /// The write path reads `&self` only — run it off the maintenance build pool (see
    /// `skyline-service`) while readers keep serving.
    pub fn write_snapshot(&self) -> Result<Vec<u8>> {
        let generation = self.generation();
        let mut builder = SnapshotBuilder::new();
        let mut meta = ByteWriter::new();
        match self.config() {
            EngineConfig::SfsD => meta.put_u8(CONFIG_SFS_D),
            EngineConfig::AdaptiveSfs => meta.put_u8(CONFIG_ADAPTIVE_SFS),
            EngineConfig::Hybrid { top_k } => {
                meta.put_u8(CONFIG_HYBRID);
                meta.put_vbyte(top_k as u64);
            }
        }
        meta.put_u64(generation.id());
        meta.put_u64(generation.tree_epoch().get());
        builder.section(snap::SECTION_ENGINE_META, meta.into_inner());
        builder.section(
            snap::SECTION_SCHEMA,
            snap::encode_schema(self.dataset().schema()),
        );
        builder.section(
            snap::SECTION_TEMPLATE,
            snap::encode_template(self.template()),
        );
        snap::write_dataset_sections(self.dataset(), &mut builder);
        if let Some(tree) = self.ipo_tree() {
            builder.section(snap::SECTION_IPO_TREE, encode_tree(tree));
        }
        if let Some(asfs) = &self.generation.asfs {
            builder.section(
                snap::SECTION_ASFS_ENTRIES,
                encode_entries(asfs.sorted_entries()),
            );
        }
        Ok(builder.finish())
    }

    /// [`SkylineEngine::write_snapshot`] to a file, atomically (temp file + rename): a
    /// crashed writer leaves either the previous snapshot or none, never a torn one.
    pub fn write_snapshot_file(&self, path: &Path) -> Result<()> {
        let bytes = self.write_snapshot()?;
        snap::write_atomic(path, &bytes)?;
        Ok(())
    }

    /// Reconstructs an engine from a snapshot buffer without re-running preprocessing.
    ///
    /// Everything is re-validated on the way in — container checksums first, then every
    /// structural invariant of the decoded structures — so a corrupt buffer fails with
    /// [`SkylineError::Snapshot`] rather than panicking or serving wrong rows. On success
    /// the engine is query-for-query equivalent to the one that wrote the snapshot, with
    /// its generation id and epochs intact.
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self> {
        let view = SnapshotView::parse(bytes)?;
        let mut meta = ByteReader::new(view.section(snap::SECTION_ENGINE_META)?);
        let config = match meta.get_u8()? {
            CONFIG_SFS_D => EngineConfig::SfsD,
            CONFIG_ADAPTIVE_SFS => EngineConfig::AdaptiveSfs,
            CONFIG_HYBRID => EngineConfig::Hybrid {
                top_k: meta.get_vbyte()? as usize,
            },
            // The retired tags: 3 carried its `k`, 2 and 4 materialized every value.
            retired @ 2..=4 => {
                let top_k = match retired {
                    3 => meta.get_vbyte()?.to_string(),
                    _ => "usize::MAX".to_owned(),
                };
                return Err(SkylineError::Snapshot(format!(
                    "engine configuration tag {retired} was retired with the tree-only \
                     configurations; preprocess the data again as Hybrid {{ top_k: {top_k} }}"
                )));
            }
            other => {
                return Err(SkylineError::Snapshot(format!(
                    "unknown engine configuration tag {other}"
                )))
            }
        };
        let generation_id = meta.get_u64()?;
        let mut tree_epoch = DatasetEpoch::from_raw(meta.get_u64()?);
        meta.expect_end()?;

        // The section set must be exactly what this configuration writes — a present-but-
        // unexpected section means the meta and the payloads disagree about the config.
        let mut expected = vec![
            snap::SECTION_ENGINE_META,
            snap::SECTION_SCHEMA,
            snap::SECTION_TEMPLATE,
            snap::SECTION_BLOCK_HEADER,
            snap::SECTION_BLOCK_NUMERICS,
            snap::SECTION_BLOCK_NOMINALS,
            snap::SECTION_BLOCK_MAX_VALUES,
            snap::SECTION_BLOCK_LIVENESS,
        ];
        match config {
            EngineConfig::SfsD => {}
            EngineConfig::AdaptiveSfs => expected.push(snap::SECTION_ASFS_ENTRIES),
            EngineConfig::Hybrid { .. } => {
                expected.extend([snap::SECTION_ASFS_ENTRIES, snap::SECTION_IPO_TREE])
            }
        }
        let mut present = view.section_ids();
        present.sort_unstable();
        expected.sort_unstable();
        if present != expected {
            return Err(SkylineError::Snapshot(format!(
                "section set {present:?} does not match configuration {config:?}"
            )));
        }

        let schema = snap::decode_schema(view.section(snap::SECTION_SCHEMA)?)?;
        let template = snap::decode_template(&schema, view.section(snap::SECTION_TEMPLATE)?)?;
        let data = Arc::new(snap::read_dataset(&view, &schema)?);
        let data_epoch = data.epoch();
        if tree_epoch > data_epoch {
            return Err(SkylineError::Snapshot(format!(
                "tree epoch {} is ahead of the dataset epoch {}",
                tree_epoch.get(),
                data_epoch.get()
            )));
        }
        let decode_asfs = |data: Arc<Dataset>| {
            let entries = decode_entries(view.section(snap::SECTION_ASFS_ENTRIES)?, data.len())?;
            AdaptiveSfs::from_sorted_entries(data, template.clone(), entries)
                .map_err(as_snapshot_error)
        };
        let generation = match config {
            EngineConfig::SfsD => Generation::scanning(data),
            EngineConfig::AdaptiveSfs => Generation::adaptive(decode_asfs(data)?, None),
            EngineConfig::Hybrid { top_k } => {
                let tree = decode_tree(
                    template.clone(),
                    data.len(),
                    view.section(snap::SECTION_IPO_TREE)?,
                )?;
                if tree.top_k() != Some(top_k) {
                    return Err(SkylineError::Snapshot(format!(
                        "tree truncation {:?} does not match configuration {config:?}",
                        tree.top_k()
                    )));
                }
                let asfs = decode_asfs(data)?;
                // A tree holding the sorted list's members describes the loaded `SKY_R(D)`,
                // and with it every refinement's answer (`SKY_{R′}(D) = SKY_{R′}(SKY_R(D))`),
                // so it is current at the loaded epoch. A tree with other members is stale —
                // the list was maintained past it, so `tree_epoch` must be behind — and is
                // never consulted until a rebuild.
                let mut list_ids: Vec<PointId> =
                    asfs.sorted_entries().iter().map(|e| e.point).collect();
                list_ids.sort_unstable();
                if list_ids == tree.skyline() {
                    tree_epoch = data_epoch;
                } else if tree_epoch == data_epoch {
                    return Err(SkylineError::Snapshot(
                        "current hybrid tree and sorted list disagree on the template skyline"
                            .into(),
                    ));
                }
                Generation::adaptive(asfs, Some(tree))
            }
        };
        let generation = Generation {
            id: generation_id,
            tree_epoch,
            ..generation
        };
        Ok(SkylineEngine {
            template,
            config,
            generation,
            replay_log: None,
            mutations_since_rebuild: 0,
            carried_stats: Default::default(),
            sfsd_stats: Default::default(),
        })
    }

    /// [`SkylineEngine::from_snapshot`] from a file.
    pub fn from_snapshot_file(path: &Path) -> Result<Self> {
        let bytes = snap::read_file(path)?;
        Self::from_snapshot(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_core::{
        Dataset, DatasetBuilder, Dimension, Preference, RowValue, Schema, Template,
    };

    fn table3_data() -> Arc<Dataset> {
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
        Arc::new(b.build().unwrap())
    }

    fn all_configs() -> Vec<EngineConfig> {
        vec![
            EngineConfig::SfsD,
            EngineConfig::AdaptiveSfs,
            EngineConfig::Hybrid { top_k: usize::MAX },
            EngineConfig::Hybrid { top_k: 2 },
        ]
    }

    fn some_prefs(data: &Dataset) -> Vec<Preference> {
        [
            vec![("hotel-group", "T < M < *")],
            vec![("airline", "G < *")],
            vec![("hotel-group", "M < *"), ("airline", "R < G < *")],
        ]
        .into_iter()
        .map(|spec| Preference::parse(data.schema(), spec).unwrap())
        .collect()
    }

    #[test]
    fn every_config_round_trips_query_for_query() {
        let data = table3_data();
        for config in all_configs() {
            let template = Template::empty(data.schema());
            let engine = SkylineEngine::build(data.clone(), template, config).unwrap();
            let bytes = engine.write_snapshot().unwrap();
            let loaded = SkylineEngine::from_snapshot(&bytes).unwrap();
            assert_eq!(loaded.config(), config);
            assert_eq!(loaded.generation().id(), engine.generation().id());
            assert_eq!(loaded.epoch(), engine.epoch());
            assert_eq!(
                loaded.generation().tree_epoch(),
                engine.generation().tree_epoch()
            );
            for pref in some_prefs(&data) {
                assert_eq!(
                    loaded.query(&pref).unwrap(),
                    engine.query(&pref).unwrap(),
                    "config {config:?}"
                );
            }
        }
    }

    /// The tags are a file format: the surviving ones keep their numbers (a renumbering
    /// would orphan every snapshot already written) and the retired ones are refused by
    /// name, never decoded as some other configuration.
    #[test]
    fn surviving_tags_are_stable_and_retired_tags_are_refused_by_name() {
        assert_eq!(
            (CONFIG_SFS_D, CONFIG_ADAPTIVE_SFS, CONFIG_HYBRID),
            (0, 1, 5)
        );
        for (tag, replacement) in [
            (2u8, "Hybrid { top_k: usize::MAX }"),
            (3, "Hybrid { top_k: 7 }"),
            (4, "Hybrid { top_k: usize::MAX }"),
        ] {
            let mut meta = ByteWriter::new();
            meta.put_u8(tag);
            if tag == 3 {
                meta.put_vbyte(7);
            }
            meta.put_u64(0);
            meta.put_u64(0);
            let mut builder = SnapshotBuilder::new();
            builder.section(snap::SECTION_ENGINE_META, meta.into_inner());
            match SkylineEngine::from_snapshot(&builder.finish()) {
                Err(SkylineError::Snapshot(message)) => assert!(
                    message.contains("retired") && message.contains(replacement),
                    "tag {tag}: {message}"
                ),
                other => panic!("tag {tag} was not refused as a snapshot error: {other:?}"),
            }
        }
    }

    #[test]
    fn mutated_engine_round_trips_with_epoch_continuity() {
        let data = table3_data();
        let template = Template::empty(data.schema());
        let mut engine =
            SkylineEngine::build(data.clone(), template, EngineConfig::Hybrid { top_k: 3 })
                .unwrap();
        engine.insert_row(&[1500.0, -5.0], &[1, 2]).unwrap();
        engine.delete_row(2).unwrap();
        let bytes = engine.write_snapshot().unwrap();
        let loaded = SkylineEngine::from_snapshot(&bytes).unwrap();
        assert_eq!(loaded.epoch(), engine.epoch());
        assert_eq!(loaded.live_rows(), engine.live_rows());
        // The tree is stale on both sides, so both route every query to Adaptive SFS.
        for pref in some_prefs(&data) {
            assert!(!loaded.serves_from_tree(&pref));
            assert_eq!(loaded.query(&pref).unwrap(), engine.query(&pref).unwrap());
        }
    }

    /// A write that leaves the template skyline alone keeps the hybrid's tree serving, and
    /// so does a snapshot round trip: the loaded tree holds the loaded sorted list's members,
    /// so it loads current at the loaded epoch instead of behind it.
    #[test]
    fn a_current_hybrid_tree_keeps_serving_across_a_round_trip() {
        use skyline_datagen::workload::top_k_values;
        use skyline_datagen::{Distribution, ExperimentConfig, QueryGenerator};
        let config = ExperimentConfig {
            n: 1_500,
            numeric_dims: 2,
            nominal_dims: 2,
            cardinality: 8,
            theta: 1.0,
            pref_order: 2,
            distribution: Distribution::AntiCorrelated,
            seed: 7,
        };
        let data = Arc::new(config.generate_dataset());
        let template = config.template(&data);
        let mut engine = SkylineEngine::build(
            data.clone(),
            template.clone(),
            EngineConfig::Hybrid { top_k: 3 },
        )
        .unwrap();
        let allowed = top_k_values(&data, 3);
        let mut generator = QueryGenerator::new(31);
        let pref = std::iter::repeat_with(|| {
            generator.random_preference(data.schema(), &template, 2, Some(&allowed))
        })
        .find(|pref| engine.serves_from_tree(pref))
        .unwrap();
        // Row 0's nominal values with numerics above every row's: row 0 dominates it.
        let nominal = data.nominal_row(0).to_vec();
        engine.insert_row(&[2.0, 2.0], &nominal).unwrap();
        assert!(engine.skyline_epoch() < engine.epoch());
        assert!(engine.serves_from_tree(&pref));

        let loaded = SkylineEngine::from_snapshot(&engine.write_snapshot().unwrap()).unwrap();
        assert_eq!(loaded.epoch(), engine.epoch());
        assert_eq!(loaded.generation().tree_epoch(), loaded.epoch());
        assert!(loaded.serves_from_tree(&pref), "the loaded tree is current");
        let answer = loaded.query(&pref).unwrap();
        assert_eq!(answer.method, crate::MethodUsed::IpoTree);
        assert_eq!(answer.skyline, engine.query(&pref).unwrap().skyline);
    }

    #[test]
    fn snapshot_survives_a_generation_swap() {
        let data = table3_data();
        let template = Template::empty(data.schema());
        let engine =
            SkylineEngine::build(data.clone(), template, EngineConfig::AdaptiveSfs).unwrap();
        let shared = crate::SharedEngine::new(engine);
        shared.write().delete_row(0).unwrap();
        shared.rebuild_now().unwrap();
        let engine = shared.read();
        let bytes = engine.write_snapshot().unwrap();
        let loaded = SkylineEngine::from_snapshot(&bytes).unwrap();
        assert_eq!(loaded.generation().id(), 1);
        assert_eq!(loaded.epoch(), engine.epoch());
        for pref in some_prefs(&data) {
            assert_eq!(loaded.query(&pref).unwrap(), engine.query(&pref).unwrap());
        }
    }

    #[test]
    fn corrupt_engine_snapshots_error_and_never_panic() {
        let data = table3_data();
        let template = Template::empty(data.schema());
        let engine =
            SkylineEngine::build(data.clone(), template, EngineConfig::Hybrid { top_k: 2 })
                .unwrap();
        let bytes = engine.write_snapshot().unwrap();
        for i in 0..bytes.len() {
            for mask in [0x01u8, 0x80u8] {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= mask;
                assert!(
                    SkylineEngine::from_snapshot(&corrupt).is_err(),
                    "flip at byte {i} went undetected"
                );
            }
        }
        for len in 0..bytes.len() {
            assert!(SkylineEngine::from_snapshot(&bytes[..len]).is_err());
        }
    }

    #[test]
    fn file_round_trip() {
        let data = table3_data();
        let template = Template::empty(data.schema());
        let engine = SkylineEngine::build(data.clone(), template, EngineConfig::SfsD).unwrap();
        let dir = std::env::temp_dir().join("skyline-engine-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.snap");
        engine.write_snapshot_file(&path).unwrap();
        let loaded = SkylineEngine::from_snapshot_file(&path).unwrap();
        for pref in some_prefs(&data) {
            assert_eq!(loaded.query(&pref).unwrap(), engine.query(&pref).unwrap());
        }
        std::fs::remove_file(&path).ok();
    }
}
