//! Snapshot round-trip: a service rehydrated from its persistent binary snapshots is
//! observationally identical to the one that wrote them — query for query, for every
//! engine configuration and any shard count from 1 to 4 — and every way of damaging a
//! snapshot directory (byte flips, truncations, version bumps, mixed configurations, a
//! shard count that does not match) is a structured [`SkylineError::Snapshot`], never a
//! panic and never silently wrong rows.

use proptest::prelude::*;
use skyline::prelude::*;
use skyline_service::{ShardPartition, ShardedConfig, ShardedService};
use std::path::PathBuf;
use std::sync::Arc;

const CARD: usize = 3;

/// Every engine configuration a service is built with: the full tree, a truncated one (some
/// preferences tree-served, the rest answered by the fallback), and the tree-less Adaptive
/// SFS. Only a one-shard service keeps a tree; at two or more shards a hybrid config builds
/// Adaptive-SFS shards.
const CONFIGS: [EngineConfig; 3] = [
    EngineConfig::AdaptiveSfs,
    EngineConfig::Hybrid { top_k: usize::MAX },
    EngineConfig::Hybrid { top_k: 2 },
];

type Rows = Vec<(Vec<f64>, Vec<ValueId>)>;

fn rows_strategy() -> impl Strategy<Value = Rows> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0i32..6, 2)
                .prop_map(|v| v.into_iter().map(f64::from).collect::<Vec<f64>>()),
            proptest::collection::vec(0..(CARD as ValueId), 1),
        ),
        1..16,
    )
}

fn initial_dataset(rows: &[(Vec<f64>, Vec<ValueId>)]) -> Dataset {
    let schema = Schema::new(vec![
        Dimension::numeric("x"),
        Dimension::numeric("y"),
        Dimension::nominal("g", NominalDomain::anonymous(CARD)),
    ])
    .unwrap();
    let mut data = Dataset::empty(schema);
    for (numeric, nominal) in rows {
        data.push_row_ids(numeric, nominal).unwrap();
    }
    data
}

/// A row's identity across services: its raw values (numeric bit patterns + nominal ids).
type ValueKey = (Vec<u64>, Vec<ValueId>);

fn value_key(data: &Dataset, p: PointId) -> ValueKey {
    let schema = data.schema();
    (
        (0..schema.numeric_count())
            .map(|j| data.numeric(p, j).to_bits())
            .collect(),
        (0..schema.nominal_count())
            .map(|j| data.nominal(p, j))
            .collect(),
    )
}

/// The observable outcome of serving `pref`: the sorted value multiset, or the error the
/// service rejected the query with (a snapshot-loaded service must reproduce a rejection
/// too).
fn sharded_values(
    service: &ShardedService,
    pref: &Preference,
) -> std::result::Result<Vec<ValueKey>, String> {
    let served = service.serve(pref).map_err(|e| e.to_string())?;
    let mut values: Vec<ValueKey> = served
        .outcome
        .skyline
        .iter()
        .map(|g| value_key(service.shard(g.shard).read().dataset(), g.row))
        .collect();
    values.sort();
    Ok(values)
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "skyline-snapshot-roundtrip-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Write → load is observationally the identity, for every engine configuration and
    /// 1–4 shards.
    #[test]
    fn snapshot_round_trip_is_observationally_identical(
        initial in rows_strategy(),
        shards in 1usize..=4,
        query_choices in proptest::sample::subsequence(
            (0..CARD as ValueId).collect::<Vec<_>>(), 0..=2
        ).prop_shuffle(),
    ) {
        let data = Arc::new(initial_dataset(&initial));
        let template = Template::empty(data.schema());
        let pref = Preference::from_dims(vec![ImplicitPreference::new(query_choices).unwrap()]);
        let dir = scratch_dir("roundtrip");

        for config in CONFIGS {
            let sharded = ShardedConfig {
                shards,
                partition: ShardPartition::HashNominal { dim: 0 },
                workers: 2,
                ..ShardedConfig::default()
            };
            let service = ShardedService::build(&data, template.clone(), config, sharded.clone())
                .unwrap();
            let expected = sharded_values(&service, &pref);

            let written = service.write_snapshots(&dir);
            prop_assert_eq!(written.unwrap().len(), shards.max(1));

            let loaded = ShardedService::from_snapshots(&dir, sharded.clone()).unwrap();
            prop_assert_eq!(loaded.shard_count(), service.shard_count());
            prop_assert_eq!(loaded.live_rows(), service.live_rows());
            for s in 0..service.shard_count() {
                prop_assert_eq!(
                    loaded.shard(s).read().epoch(),
                    service.shard(s).read().epoch(),
                    "shard {} epoch must survive the round trip", s
                );
            }
            prop_assert_eq!(
                sharded_values(&loaded, &pref), expected,
                "config {:?}, shards {}", config, shards
            );
            prop_assert_eq!(loaded.stats().snapshot_loads, shards.max(1) as u64);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Builds the single-shard corruption target: a small hybrid engine with enough structure
/// to populate every snapshot section (numerics, nominals, Adaptive-SFS list, IPO tree).
fn corruption_target() -> Vec<u8> {
    let rows: Rows = (0..12i32)
        .map(|i| {
            (
                vec![f64::from(i % 5), f64::from((i * 3) % 7)],
                vec![(i as usize % CARD) as ValueId],
            )
        })
        .collect();
    let data = Arc::new(initial_dataset(&rows));
    let template = Template::empty(data.schema());
    let engine = SkylineEngine::build(data, template, EngineConfig::Hybrid { top_k: 2 }).unwrap();
    engine.write_snapshot().unwrap()
}

/// Every single-byte flip anywhere in the snapshot is detected: the load returns a
/// structured error — it never panics and never yields an engine with different rows.
#[test]
fn every_byte_flip_is_detected() {
    let bytes = corruption_target();
    let baseline = SkylineEngine::from_snapshot(&bytes).expect("pristine snapshot loads");
    for i in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x01;
        assert!(
            SkylineEngine::from_snapshot(&corrupt).is_err(),
            "flipping byte {i} of {} went undetected",
            bytes.len()
        );
    }
    assert_eq!(
        SkylineEngine::from_snapshot(&bytes).unwrap().live_rows(),
        baseline.live_rows()
    );
}

/// Every truncation — from the empty file up to one byte short — is a structured error.
#[test]
fn every_truncation_is_detected() {
    let bytes = corruption_target();
    for len in 0..bytes.len() {
        assert!(
            SkylineEngine::from_snapshot(&bytes[..len]).is_err(),
            "truncating to {len} of {} bytes went undetected",
            bytes.len()
        );
    }
    // Trailing garbage past the declared end is equally rejected.
    let mut extended = bytes.clone();
    extended.push(0);
    assert!(SkylineEngine::from_snapshot(&extended).is_err());
}

/// A bumped container version is refused up front with a structured error, not parsed.
#[test]
fn version_bump_is_refused() {
    let mut bytes = corruption_target();
    // Container layout: 8-byte magic, then the little-endian u32 format version.
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    bytes[8..12].copy_from_slice(&(version + 1).to_le_bytes());
    let err = SkylineEngine::from_snapshot(&bytes);
    assert!(err.is_err(), "future container version must be refused");
}

/// `from_snapshots` refuses a directory whose shard files disagree on configuration —
/// mixing shards written by services built with different engine configs is a structured
/// error, not a service that answers from an incoherent ensemble.
#[test]
fn mixed_config_shard_files_are_refused() {
    let rows: Rows = (0..10i32)
        .map(|i| {
            (
                vec![f64::from(i % 4), f64::from((i * 5) % 6)],
                vec![(i as usize % CARD) as ValueId],
            )
        })
        .collect();
    let data = Arc::new(initial_dataset(&rows));
    let template = Template::empty(data.schema());
    let sharded = ShardedConfig {
        shards: 2,
        partition: ShardPartition::HashNominal { dim: 0 },
        ..ShardedConfig::default()
    };

    let dir = scratch_dir("mixed-config");
    let adaptive = ShardedService::build(
        &data,
        template.clone(),
        EngineConfig::AdaptiveSfs,
        sharded.clone(),
    )
    .unwrap();
    adaptive.write_snapshots(&dir).unwrap();

    // Replace shard 1's file with a hybrid engine over the same rows: configs now disagree.
    let rows = adaptive.shard(1).read().dataset_arc().clone();
    SkylineEngine::build(rows, template, EngineConfig::Hybrid { top_k: 2 })
        .unwrap()
        .write_snapshot_file(&dir.join("shard-0001.snap"))
        .unwrap();
    let err = ShardedService::from_snapshots(&dir, sharded);
    assert!(
        matches!(err, Err(SkylineError::Snapshot(_))),
        "mixed-config shard files must be a structured snapshot error, got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `from_snapshots` refuses a directory written by a service with more shards than the
/// configured count: serving its first shards alone would drop the other shards' rows and
/// route later inserts by the wrong shard count.
#[test]
fn larger_shard_directory_is_refused() {
    let rows: Rows = (0..24i32)
        .map(|i| {
            (
                vec![f64::from(i % 5), f64::from((i * 7) % 9)],
                vec![(i as usize % CARD) as ValueId],
            )
        })
        .collect();
    let data = Arc::new(initial_dataset(&rows));
    let sharded = |shards| ShardedConfig {
        shards,
        partition: ShardPartition::HashNominal { dim: 0 },
        ..ShardedConfig::default()
    };
    let dir = scratch_dir("larger-directory");
    let service = ShardedService::build(
        &data,
        Template::empty(data.schema()),
        EngineConfig::AdaptiveSfs,
        sharded(4),
    )
    .unwrap();
    service.write_snapshots(&dir).unwrap();

    // Shards 0–2 all hold rows here, so the 2-shard prefix would serve 16 of 24 (`Ok(16)`).
    let err = ShardedService::from_snapshots(&dir, sharded(2)).map(|s| s.live_rows());
    assert!(
        matches!(&err, Err(SkylineError::Snapshot(msg)) if msg.contains("shard-0002.snap")),
        "a 4-shard directory loaded as 2 shards must be refused, got {err:?}"
    );
    // The matching count still loads every row.
    let loaded = ShardedService::from_snapshots(&dir, sharded(4)).unwrap();
    assert_eq!(loaded.live_rows(), service.live_rows());
    let _ = std::fs::remove_dir_all(&dir);
}
