//! Golden work counts: the dominance-test, AFFECT, IPO and result-size counters of every SFS
//! consumer, summed over 20 seeded preferences on each of three paper-default corpora (Table 4
//! shape, anti-correlated, n = 2 000, seeds 1–3, most-frequent-value template).
//!
//! The counts are deterministic — they depend on neither the host nor the thread count — so
//! they are pinned exactly. Emission order is pinned too, as an order-sensitive checksum of
//! each engine stream, since a progressive scan's contract is its order. A change that moves
//! any literal changed what the algorithms do, not how fast they do it.

use skyline::adaptive::{AdaptiveSfs, ScanMode};
use skyline::datagen::ExperimentConfig;
use skyline::ipo::{BitmapIpoTree, IpoTreeBuilder};
use skyline::{EngineConfig, SkylineEngine};
use skyline_core::algo::sfs;
use skyline_core::score::ScoreFn;
use skyline_core::{Dataset, Deadline, DominanceContext, PointId, Preference, Template};

/// Per corpus: every counter, summed over its preferences.
#[derive(Debug, Default, PartialEq, Eq)]
struct Counts {
    /// `sfs::skyline_sorted_with_stats` on `DominanceContext`: dominance tests, result rows.
    sfs: (u64, usize),
    /// `EngineConfig::SfsD`: batch result rows, and the checksum of the drained streams.
    sfsd_engine: (usize, u64),
    /// `AdaptiveSfs::query_with_stats`, affected-only: dominance tests, AFFECT, result rows.
    asfs: (u64, usize, usize),
    /// The same under `ScanMode::FullRescan`.
    asfs_full: (u64, usize, usize),
    /// `|SKY(R)|` of the Adaptive-SFS build, and the checksum of its sorted list.
    asfs_build: (usize, u64),
    /// `EngineConfig::AdaptiveSfs`: checksum of the drained streams.
    asfs_stream: u64,
    /// `IpoTree::query_with_stats`: nodes visited, set operations, leaf results, result rows.
    ipo: (u64, u64, u64, usize),
    /// `BitmapIpoTree::query_with_stats`: the same four.
    bitmap: (u64, u64, u64, usize),
}

/// Folds `ids`, in order, into an order-sensitive FNV-1a style checksum.
fn checksum(hash: u64, ids: impl IntoIterator<Item = PointId>) -> u64 {
    ids.into_iter().fold(hash, |h, p| {
        (h ^ u64::from(p)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn drain(engine: &SkylineEngine, pref: &Preference) -> Vec<PointId> {
    let mut stream = engine
        .query_streaming_at(pref, engine.epoch(), Deadline::none())
        .unwrap();
    let mut rows = Vec::new();
    while let Some(p) = stream.next_row().unwrap() {
        rows.push(p);
    }
    rows
}

fn counts(data: &Dataset, template: &Template, prefs: &[Preference]) -> Counts {
    let mut c = Counts::default();
    let all: Vec<PointId> = data.point_ids().collect();
    for pref in prefs {
        let ctx = DominanceContext::for_query(data, template, pref).unwrap();
        let score = ScoreFn::for_preference(data.schema(), pref).unwrap();
        let (rows, work) = sfs::skyline_sorted_with_stats(&ctx, &score, &all);
        c.sfs.0 += work.dominance_tests;
        c.sfs.1 += rows.len();
    }

    let sfsd = SkylineEngine::build(data.clone(), template.clone(), EngineConfig::SfsD).unwrap();
    c.sfsd_engine.1 = 0xcbf2_9ce4_8422_2325;
    for pref in prefs {
        let batch = sfsd.query(pref).unwrap().skyline;
        let streamed = drain(&sfsd, pref);
        let mut sorted = streamed.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, batch, "SFS-D stream ≡ batch");
        c.sfsd_engine.0 += batch.len();
        c.sfsd_engine.1 = checksum(c.sfsd_engine.1, streamed);
    }

    let asfs = AdaptiveSfs::build(data.clone(), template).unwrap();
    c.asfs_build = (
        asfs.sorted_entries().len(),
        checksum(
            0xcbf2_9ce4_8422_2325,
            asfs.sorted_entries().iter().map(|e| e.point),
        ),
    );
    for pref in prefs {
        let (rows, work) = asfs.query_with_stats(pref, ScanMode::AffectedOnly).unwrap();
        c.asfs.0 += work.dominance_tests;
        c.asfs.1 += work.affected as usize;
        c.asfs.2 += rows.len();
        let (rows, work) = asfs.query_with_stats(pref, ScanMode::FullRescan).unwrap();
        c.asfs_full.0 += work.dominance_tests;
        c.asfs_full.1 += work.affected as usize;
        c.asfs_full.2 += rows.len();
    }
    let engine =
        SkylineEngine::build(data.clone(), template.clone(), EngineConfig::AdaptiveSfs).unwrap();
    c.asfs_stream = prefs.iter().fold(0xcbf2_9ce4_8422_2325, |h, pref| {
        checksum(h, drain(&engine, pref))
    });

    let tree = IpoTreeBuilder::new().build(data, template).unwrap();
    let bitmap = BitmapIpoTree::from_tree(&tree, data);
    for pref in prefs {
        let (rows, work) = tree.query_with_stats(data, pref).unwrap();
        c.ipo.0 += work.nodes_visited;
        c.ipo.1 += work.set_operations;
        c.ipo.2 += work.leaf_results;
        c.ipo.3 += rows.len();
        let (rows, work) = bitmap.query_with_stats(data, pref).unwrap();
        c.bitmap.0 += work.nodes_visited;
        c.bitmap.1 += work.set_operations;
        c.bitmap.2 += work.leaf_results;
        c.bitmap.3 += rows.len();
    }
    c
}

#[test]
fn work_counts_on_paper_default_corpora() {
    let golden: [(u64, Counts); 3] = [
        (
            1,
            Counts {
                sfs: (6_037_115, 14_483),
                sfsd_engine: (14_483, 0x3ca7_b504_0845_6715),
                asfs: (936_925, 2_365, 14_483),
                asfs_full: (5_459_993, 2_365, 14_483),
                asfs_build: (822, 0xc4d1_f139_901a_e3f9),
                asfs_stream: 0x3ca7_b504_0845_6715,
                ipo: (260, 720, 180, 14_483),
                bitmap: (260, 720, 180, 14_483),
            },
        ),
        (
            2,
            Counts {
                sfs: (3_651_566, 11_149),
                sfsd_engine: (11_149, 0x8710_63c9_ed90_a93a),
                asfs: (601_485, 2_173, 11_149),
                asfs_full: (3_278_823, 2_173, 11_149),
                asfs_build: (646, 0x3e1d_abcf_a816_c9bf),
                asfs_stream: 0x8710_63c9_ed90_a93a,
                ipo: (260, 720, 180, 11_149),
                bitmap: (260, 720, 180, 11_149),
            },
        ),
        (
            3,
            Counts {
                sfs: (4_282_385, 12_206),
                sfsd_engine: (12_206, 0xb960_4746_d020_d492),
                asfs: (627_179, 1_913, 12_206),
                asfs_full: (3_883_094, 1_913, 12_206),
                asfs_build: (688, 0x5911_bbb9_7dfb_3b03),
                asfs_stream: 0xb960_4746_d020_d492,
                ipo: (260, 720, 180, 12_206),
                bitmap: (260, 720, 180, 12_206),
            },
        ),
    ];
    for (seed, expected) in golden {
        let cfg = ExperimentConfig {
            n: 2_000,
            seed,
            ..ExperimentConfig::paper_default()
        };
        let data = cfg.generate_dataset();
        let template = cfg.template(&data);
        let prefs = cfg.query_generator().random_preferences(
            data.schema(),
            &template,
            cfg.pref_order,
            20,
            None,
        );
        let got = counts(&data, &template, &prefs);
        assert_eq!(got, expected, "seed {seed}: {got:?}");
    }
}
