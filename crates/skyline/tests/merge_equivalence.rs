//! One equivalence suite for the two cross-source merge operators.
//!
//! For random datasets split into 1–5 sources, every operator fed the sources' **local
//! skylines** (the contract they share) must return exactly the brute-force skyline of the
//! union under the reference [`DominanceContext`]:
//!
//! `SkylineMerger::merge` ≡ `merge_skylines` ≡ `bnl::skyline`
//!
//! with both preserving push order. The instances cover what the source-aware, zone-mapped
//! elimination has to get right: empty sources, push order interleaved across sources,
//! value-identical rows in different sources, a nominal dimension of cardinality 70 whose
//! values collide in the lanes' folded 64-bit value sets, general (non-ranked) partial
//! orders, and per-source skylines that straddle the 64-row lane blocks.

use proptest::prelude::*;
use skyline::prelude::*;
use skyline_core::algo::bnl;
use skyline_core::{merge_skylines, PartialOrder, SkylineMerger};
use std::sync::Arc;

/// Cardinality of the wide nominal dimension, and the values rows actually take on it:
/// `v` and `v + 64` share a bit in the lanes' folded value sets.
const WIDE_CARD: usize = 70;
const WIDE_VALUES: [ValueId; 12] = [0, 1, 2, 3, 4, 5, 64, 65, 66, 67, 68, 69];
const NARROW_CARD: usize = 4;

#[derive(Debug, Clone)]
struct Instance {
    /// Three numeric columns.
    numeric: Vec<Vec<f64>>,
    /// Two nominal columns: cardinality 4 and cardinality 70.
    nominal: Vec<Vec<ValueId>>,
    /// Per nominal dimension: acyclic `a ≺ b` edges of a general partial order.
    edges: Vec<Vec<(ValueId, ValueId)>>,
    /// Source of every row; sources without rows stay empty.
    source_of: Vec<usize>,
    sources: usize,
    /// A permutation of the rows: the cross-source push / turn order.
    order: Vec<usize>,
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    let rows = prop_oneof![1usize..40, 150usize..260];
    (rows, 1usize..=5, 0usize..4).prop_flat_map(|(n, sources, dupes)| {
        let numeric = proptest::collection::vec(
            proptest::collection::vec(0i32..6, n)
                .prop_map(|v| v.into_iter().map(f64::from).collect::<Vec<f64>>()),
            3,
        );
        let nominal = (
            proptest::collection::vec(0..NARROW_CARD as ValueId, n),
            proptest::collection::vec(0..WIDE_VALUES.len(), n)
                .prop_map(|v| v.into_iter().map(|i| WIDE_VALUES[i]).collect::<Vec<_>>()),
        );
        // Only "earlier ≺ later" edges, so `from_pairs` always gets a DAG; sparse picks leave
        // incomparable islands (unranked orders), dense ones close into weak orders.
        let pairs = |values: Vec<ValueId>| -> Vec<(ValueId, ValueId)> {
            (0..values.len())
                .flat_map(|i| (i + 1..values.len()).map(move |j| (i, j)))
                .map(|(i, j)| (values[i], values[j]))
                .collect()
        };
        let edges = (
            proptest::sample::subsequence(pairs((0..NARROW_CARD as ValueId).collect()), 0..=4),
            proptest::sample::subsequence(pairs(WIDE_VALUES.to_vec()), 0..=8),
        );
        let source_of = proptest::collection::vec(0..sources, n);
        (numeric, nominal, edges, source_of).prop_flat_map(
            move |(mut numeric, (narrow, wide), (narrow_edges, wide_edges), mut source_of)| {
                let mut nominal = vec![narrow, wide];
                // Value-identical rows in a *different* source (when there is one): they
                // never dominate each other, so both must survive every merge.
                for i in 0..dupes.min(n) {
                    for column in &mut numeric {
                        column.push(column[i]);
                    }
                    for column in &mut nominal {
                        column.push(column[i]);
                    }
                    source_of.push((source_of[i] + 1) % sources);
                }
                let total = source_of.len();
                let instance = Instance {
                    numeric,
                    nominal,
                    edges: vec![narrow_edges, wide_edges],
                    source_of,
                    sources,
                    order: Vec::new(),
                };
                Just((0..total).collect::<Vec<usize>>())
                    .prop_shuffle()
                    .prop_map(move |order| Instance {
                        order,
                        ..instance.clone()
                    })
            },
        )
    })
}

fn build_dataset(instance: &Instance) -> Arc<Dataset> {
    let schema = Schema::new(vec![
        Dimension::numeric("x"),
        Dimension::numeric("y"),
        Dimension::numeric("z"),
        Dimension::nominal("g", NominalDomain::anonymous(NARROW_CARD)),
        Dimension::nominal("h", NominalDomain::anonymous(WIDE_CARD)),
    ])
    .unwrap();
    Arc::new(
        Dataset::from_columns(schema, instance.numeric.clone(), instance.nominal.clone()).unwrap(),
    )
}

/// Runs both operators and checks each against `expected`, the sorted skyline of the
/// union.
fn assert_operators_agree(
    instance: &Instance,
    kernel: &CompiledRelation,
    locals: &[Vec<PointId>],
    expected: &[PointId],
) {
    let data = kernel.dataset();
    let numeric_dims = data.schema().numeric_count();
    let is_global = |p: PointId| expected.binary_search(&p).is_ok();

    // merge_skylines: survivors in concatenated fragment order.
    let views: Vec<&[PointId]> = locals.iter().map(Vec::as_slice).collect();
    let concatenated: Vec<PointId> = locals.concat();
    let want: Vec<PointId> = concatenated
        .iter()
        .copied()
        .filter(|&p| is_global(p))
        .collect();
    assert_eq!(merge_skylines(kernel, &views), want, "merge_skylines");

    // SkylineMerger: candidates pushed interleaved across sources, survivors in push order.
    let is_local = |p: PointId| locals[instance.source_of[p as usize]].contains(&p);
    let pushed: Vec<(usize, PointId)> = instance
        .order
        .iter()
        .map(|&row| row as PointId)
        .filter(|&p| is_local(p))
        .map(|p| (instance.source_of[p as usize], p))
        .collect();
    let mut merger = SkylineMerger::new(kernel.orders().to_vec(), numeric_dims);
    for &(source, p) in &pushed {
        merger
            .push(source, p, data.numeric_row(p), data.nominal_row(p))
            .unwrap();
    }
    assert_eq!(merger.len(), concatenated.len());
    let want: Vec<(usize, PointId)> = pushed
        .iter()
        .copied()
        .filter(|&(_, p)| is_global(p))
        .collect();
    assert_eq!(merger.merge(), want, "SkylineMerger");
    assert!(merger.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

    #[test]
    fn every_merge_operator_returns_the_skyline_of_the_union(instance in instance_strategy()) {
        let data = build_dataset(&instance);
        let orders: Vec<PartialOrder> = [NARROW_CARD, WIDE_CARD]
            .iter()
            .zip(&instance.edges)
            .map(|(&card, edges)| PartialOrder::from_pairs(card, edges.iter().copied()).unwrap())
            .collect();
        let template = Template::from_partial_orders(data.schema(), orders).unwrap();
        let ctx = DominanceContext::for_template(&data, &template).unwrap();
        let kernel = CompiledRelation::for_template(data.clone(), &template).unwrap();

        let expected = bnl::skyline(&ctx);
        // The operators' shared contract: each source hands in the skyline of its own rows.
        let locals: Vec<Vec<PointId>> = (0..instance.sources)
            .map(|s| {
                let rows: Vec<PointId> = data
                    .point_ids()
                    .filter(|&p| instance.source_of[p as usize] == s)
                    .collect();
                bnl::skyline_of(&ctx, &rows)
            })
            .collect();

        assert_operators_agree(&instance, &kernel, &locals, &expected);
    }
}
