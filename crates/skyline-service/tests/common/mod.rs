//! Helpers shared by the service integration suites (each suite is its own crate and pulls
//! this file in with `mod common;`, and uses some of them).
#![allow(dead_code)]

use skyline::prelude::*;
use skyline_core::algo::bnl;
use skyline_service::{GlobalRowId, ShardedServed, ShardedService};

/// A one-shard answer in the engine's own row-id space: shard 0's local ids *are* the ids
/// `service.shard(0)` answers with, so the two compare directly.
pub fn rows(served: &ShardedServed) -> Vec<PointId> {
    served
        .outcome
        .skyline
        .iter()
        .map(|g| {
            assert_eq!(g.shard, 0, "rows() reads one-shard answers");
            g.row
        })
        .collect()
}

/// The brute-force (BNL) skyline over every row live on any shard right now, in the layout
/// of a served answer (ascending by shard, then row id) — the reference at any shard count,
/// independent of the engines' own query paths and of the cross-shard merge.
pub fn live_oracle(service: &ShardedService, pref: &Preference) -> Vec<GlobalRowId> {
    let schema = service.schema();
    let mut union = Dataset::empty(schema.clone());
    let mut ids = Vec::new();
    for shard in 0..service.shard_count() {
        let engine = service.shard(shard).read();
        let data = engine.dataset();
        for row in data.point_ids().filter(|&p| engine.is_row_live(p)) {
            let numeric: Vec<f64> = (0..schema.numeric_count())
                .map(|j| data.numeric(row, j))
                .collect();
            let nominal: Vec<ValueId> = (0..schema.nominal_count())
                .map(|j| data.nominal(row, j))
                .collect();
            union.push_row_ids(&numeric, &nominal).unwrap();
            ids.push(GlobalRowId { shard, row });
        }
    }
    let ctx = DominanceContext::for_query(&union, service.template(), pref).unwrap();
    bnl::skyline(&ctx)
        .into_iter()
        .map(|p| ids[p as usize])
        .collect()
}

/// The template (empty, or `listed` preferred on `g`) and a query refining it: the listed
/// value first, then `choices` without it. `g` is the schema's only nominal dimension.
pub fn template_and_refinement(
    schema: &Schema,
    listed: Option<ValueId>,
    choices: Vec<ValueId>,
) -> (Template, Preference) {
    let values: Vec<ValueId> = listed
        .into_iter()
        .chain(choices.into_iter().filter(|&v| Some(v) != listed))
        .collect();
    let pref = Preference::from_dims(vec![ImplicitPreference::new(values).unwrap()]);
    let template = match listed {
        None => Template::empty(schema),
        Some(v) => Template::from_preference(
            schema,
            Preference::from_dims(vec![ImplicitPreference::new([v]).unwrap()]),
        )
        .unwrap(),
    };
    (template, pref)
}
