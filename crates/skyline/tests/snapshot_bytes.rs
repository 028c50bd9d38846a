//! Snapshot bytes pinned exactly, and the load path's schema-domain check.
//!
//! `golden_snapshot_bytes` records the CRC-32 of `SkylineEngine::write_snapshot()` for the
//! three configurations over one paper-default corpus (Table 4 shape, anti-correlated,
//! n = 2 000, seed 1, most-frequent-value template) at three points of a fixed lifecycle:
//! freshly built, after an insert/delete sequence, and after one `SharedEngine::rebuild_now`
//! followed by one more insert and delete. The file format is part of the product, so a change
//! that moves any literal changed what is written to disk.

use skyline::datagen::ExperimentConfig;
use skyline::{EngineConfig, SharedEngine, SkylineEngine};
use skyline_core::snapshot::{
    self as snap, crc32, ByteReader, ByteWriter, SnapshotBuilder, SnapshotView,
};
use skyline_core::{Dataset, PointId, SkylineError, ValueId};

fn corpus() -> (Dataset, skyline_core::Template) {
    let cfg = ExperimentConfig {
        n: 2_000,
        seed: 1,
        ..ExperimentConfig::paper_default()
    };
    let data = cfg.generate_dataset();
    let template = cfg.template(&data);
    (data, template)
}

/// A copy of row `p` with its numeric values shifted by `shift` (so it lands elsewhere in
/// the score order) and its nominal values rotated within their domains.
fn shifted_row(data: &Dataset, p: PointId, shift: f64) -> (Vec<f64>, Vec<ValueId>) {
    let schema = data.schema();
    let numeric = (0..schema.numeric_count())
        .map(|j| data.numeric(p, j) + shift)
        .collect();
    let nominal = (0..schema.nominal_count())
        .map(|j| {
            let card = schema.nominal_domain(j).unwrap().cardinality() as ValueId;
            (data.nominal(p, j) + 1) % card
        })
        .collect();
    (numeric, nominal)
}

fn snapshot_crc(engine: &SharedEngine) -> u32 {
    crc32(&engine.read().write_snapshot().unwrap())
}

/// The lifecycle's three snapshot CRCs for one configuration.
fn lifecycle_crcs(
    data: &Dataset,
    template: &skyline_core::Template,
    config: EngineConfig,
) -> [u32; 3] {
    let engine =
        SharedEngine::new(SkylineEngine::build(data.clone(), template.clone(), config).unwrap());
    let built = snapshot_crc(&engine);
    {
        let mut e = engine.write();
        for (i, p) in (0..2_000).step_by(97).enumerate() {
            let (numeric, nominal) = shifted_row(data, p, if i % 2 == 0 { -0.05 } else { 0.05 });
            e.insert_row(&numeric, &nominal).unwrap();
        }
        for p in (3..2_000).step_by(41) {
            e.delete_row(p).unwrap();
        }
        // Delete a few of the inserted rows too, and repeat one delete (a no-op).
        e.delete_row(2_001).unwrap();
        e.delete_row(2_004).unwrap();
        e.delete_row(3).unwrap();
    }
    let mutated = snapshot_crc(&engine);
    engine.rebuild_now().unwrap().expect("no rebuild in flight");
    {
        let mut e = engine.write();
        let (numeric, nominal) = shifted_row(data, 5, -0.1);
        e.insert_row(&numeric, &nominal).unwrap();
        e.delete_row(7).unwrap();
    }
    let rebuilt = snapshot_crc(&engine);
    [built, mutated, rebuilt]
}

#[test]
fn golden_snapshot_bytes() {
    let golden: [(EngineConfig, [u32; 3]); 3] = [
        (EngineConfig::SfsD, [0x2cb1_6dac, 0x262f_7c86, 0xf637_3a36]),
        (
            EngineConfig::AdaptiveSfs,
            [0x908b_880b, 0xcfda_3130, 0x253d_74fc],
        ),
        (
            EngineConfig::Hybrid { top_k: 10 },
            [0x205b_1087, 0x7afd_21a1, 0x9ae2_9609],
        ),
    ];
    let (data, template) = corpus();
    let got: Vec<(EngineConfig, [u32; 3])> = golden
        .iter()
        .map(|&(config, _)| (config, lifecycle_crcs(&data, &template, config)))
        .collect();
    assert_eq!(got, golden, "{got:#010x?}");
}

/// Re-encodes `bytes` with the nominal value of row 0, dimension 0 set to the dimension's
/// cardinality — one past its domain — and the per-dimension max-value section raised to
/// match, so every structural check except the domain check still passes and every CRC is
/// valid.
fn with_out_of_domain_value(bytes: &[u8], cardinality: usize) -> Vec<u8> {
    let view = SnapshotView::parse(bytes).unwrap();
    let header = view.section(snap::SECTION_BLOCK_HEADER).unwrap();
    let mut r = ByteReader::new(header);
    let len = r.get_u64().unwrap() as usize;
    let _numeric_dims = r.get_u32().unwrap();
    let nominal_dims = r.get_u32().unwrap() as usize;
    let mut r = ByteReader::new(view.section(snap::SECTION_BLOCK_NOMINALS).unwrap());
    let mut noms = r.get_u16_vec(len * nominal_dims).unwrap();
    noms[0] = cardinality as ValueId;
    let mut r = ByteReader::new(view.section(snap::SECTION_BLOCK_MAX_VALUES).unwrap());
    let mut max = r.get_u16_vec(nominal_dims).unwrap();
    max[0] = cardinality as ValueId;

    let mut builder = SnapshotBuilder::new();
    for id in view.section_ids() {
        let mut w = ByteWriter::new();
        match id {
            snap::SECTION_BLOCK_NOMINALS => w.put_u16_slice(&noms),
            snap::SECTION_BLOCK_MAX_VALUES => w.put_u16_slice(&max),
            _ => {
                builder.section(id, view.section(id).unwrap().to_vec());
                continue;
            }
        }
        builder.section(id, w.into_inner());
    }
    builder.finish()
}

/// A snapshot whose nominal array holds a value id at or past the schema's cardinality is
/// rejected on load, even with every checksum and the max-value bounds consistent. SFS-D is
/// the configuration where nothing else would notice: no structure is decoded against the
/// rows, and no order is compiled until a query runs.
#[test]
fn load_rejects_nominal_values_outside_the_schema_domain() {
    let (data, template) = corpus();
    let cardinality = data.schema().nominal_domain(0).unwrap().cardinality();
    let engine = SkylineEngine::build(data, template, EngineConfig::SfsD).unwrap();
    let bytes = engine.write_snapshot().unwrap();
    SkylineEngine::from_snapshot(&bytes).expect("the untouched snapshot loads");

    let corrupt = with_out_of_domain_value(&bytes, cardinality);
    SnapshotView::parse(&corrupt).expect("every checksum matches");
    match SkylineEngine::from_snapshot(&corrupt) {
        Err(SkylineError::Snapshot(msg)) => {
            assert!(msg.contains("outside the domain"), "{msg}")
        }
        Err(other) => panic!("expected a snapshot error, got {other:?}"),
        Ok(_) => panic!("an out-of-domain value id was accepted"),
    }
}
