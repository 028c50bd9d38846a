//! Integration tests that reproduce every worked example of the paper:
//! Table 1/2 (customer preferences), Table 3 + Figure 2 (IPO-tree contents) and Example 1 /
//! Figure 3 (query evaluation walkthrough).

use skyline::prelude::*;

/// Table 1: vacation packages with one nominal attribute.
fn table1() -> std::sync::Arc<Dataset> {
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
    std::sync::Arc::new(b.build().unwrap())
}

/// Table 3: the same packages with a second nominal attribute (airline).
fn table3() -> std::sync::Arc<Dataset> {
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
    std::sync::Arc::new(b.build().unwrap())
}

/// Package names in row order, for readable assertions.
const NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

fn named(skyline: &[PointId]) -> Vec<&'static str> {
    skyline.iter().map(|&p| NAMES[p as usize]).collect()
}

#[test]
fn table2_customer_preferences() {
    let data = table1();
    let template = Template::empty(data.schema());
    // Every engine configuration must reproduce Table 2 exactly.
    let configs = [
        EngineConfig::SfsD,
        EngineConfig::AdaptiveSfs,
        EngineConfig::Hybrid { top_k: usize::MAX },
        EngineConfig::Hybrid { top_k: 2 },
    ];
    let customers = [
        ("Alice", "T < M < *", vec!["a", "c"]),
        ("Bob", "*", vec!["a", "c", "e", "f"]),
        ("Chris", "H < M < *", vec!["a", "c", "e"]),
        ("David", "H < M < T", vec!["a", "c", "e"]),
        ("Emily", "H < T < *", vec!["a", "c"]),
        ("Fred", "M < *", vec!["a", "c", "e", "f"]),
    ];
    for config in configs {
        let engine = SkylineEngine::build(data.clone(), template.clone(), config).unwrap();
        for (customer, pref_text, expected) in &customers {
            let pref = Preference::parse(data.schema(), [("hotel-group", *pref_text)]).unwrap();
            let outcome = engine.query(&pref).unwrap();
            assert_eq!(
                &named(&outcome.skyline),
                expected,
                "{customer} under {config:?}"
            );
        }
    }
}

#[test]
fn figure2_ipo_tree_contents() {
    let data = table3();
    let template = Template::empty(data.schema());
    let tree = IpoTreeBuilder::new().build(&data, &template).unwrap();

    // Root: S = {a, c, d, e, f}; 21 nodes in total.
    assert_eq!(named(tree.skyline()), vec!["a", "c", "d", "e", "f"]);
    assert_eq!(tree.node_count(), 21);

    // Node 6 of Figure 2 ("T ≺ ∗, G ≺ ∗") has A = {d, e, f}.
    let node = tree.node_for_choices(&[Some(0), Some(0)]).unwrap();
    assert_eq!(named(tree.node(node).disqualified()), vec!["d", "e", "f"]);
    // Figure 2 also shows A = {d, f} under "H ≺ ∗, G ≺ ∗" and A = {d} under "M ≺ ∗, G ≺ ∗"
    // and under "φ, G ≺ ∗".
    let node = tree.node_for_choices(&[Some(1), Some(0)]).unwrap();
    assert_eq!(named(tree.node(node).disqualified()), vec!["d", "f"]);
    let node = tree.node_for_choices(&[Some(2), Some(0)]).unwrap();
    assert_eq!(named(tree.node(node).disqualified()), vec!["d"]);
    let node = tree.node_for_choices(&[None, Some(0)]).unwrap();
    assert_eq!(named(tree.node(node).disqualified()), vec!["d"]);
    // The R ≺ ∗ and W ≺ ∗ airline children disqualify nothing, as drawn.
    for group_choice in [None, Some(0), Some(1), Some(2)] {
        for airline in [1u16, 2u16] {
            let node = tree
                .node_for_choices(&[group_choice, Some(airline)])
                .unwrap();
            assert!(
                tree.node(node).disqualified().is_empty(),
                "{group_choice:?}, airline {airline}"
            );
        }
    }
}

#[test]
fn example1_query_walkthrough() {
    let data = table3();
    let template = Template::empty(data.schema());
    let tree = IpoTreeBuilder::new().build(&data, &template).unwrap();

    // Q_A = "M ≺ ∗"                          → {a, c, d, e, f}
    let q_a = Preference::parse(data.schema(), [("hotel-group", "M < *")]).unwrap();
    assert_eq!(
        named(&tree.query(&data, &q_a).unwrap()),
        vec!["a", "c", "d", "e", "f"]
    );

    // Q_B = "M ≺ ∗, G ≺ ∗"                   → {a, c, e, f}
    let q_b = Preference::parse(
        data.schema(),
        [("hotel-group", "M < *"), ("airline", "G < *")],
    )
    .unwrap();
    assert_eq!(
        named(&tree.query(&data, &q_b).unwrap()),
        vec!["a", "c", "e", "f"]
    );

    // Q_C = "M ≺ H ≺ ∗, G ≺ ∗"               → {a, c, e, f}
    let q_c = Preference::parse(
        data.schema(),
        [("hotel-group", "M < H < *"), ("airline", "G < *")],
    )
    .unwrap();
    assert_eq!(
        named(&tree.query(&data, &q_c).unwrap()),
        vec!["a", "c", "e", "f"]
    );

    // Q_D = "M ≺ H ≺ ∗, G ≺ R ≺ ∗" (Figure 3) → {a, c, e, f}, evaluated through 4 leaves.
    let q_d = Preference::parse(
        data.schema(),
        [("hotel-group", "M < H < *"), ("airline", "G < R < *")],
    )
    .unwrap();
    let (result, stats) = tree.query_with_stats(&data, &q_d).unwrap();
    assert_eq!(named(&result), vec!["a", "c", "e", "f"]);
    assert_eq!(
        stats.leaf_results, 4,
        "Figure 3 processes 4 leaf sub-queries"
    );
}

#[test]
fn figure1_merging_property_example() {
    // Figure 1: SKY(M ≺ ∗) = {a, c, e, f}, SKY(H ≺ ∗) = {a, c, e}, PSKY = {e, f},
    // SKY(M ≺ H ≺ ∗) = (SKY1 ∩ SKY2) ∪ PSKY1 = {a, c, e, f}   (over the Table 1 data).
    let data = table1();
    let template = Template::empty(data.schema());
    let engine = SkylineEngine::build(data.clone(), template, EngineConfig::SfsD).unwrap();

    let sky1 = engine
        .query(&Preference::parse(data.schema(), [("hotel-group", "M < *")]).unwrap())
        .unwrap()
        .skyline;
    let sky2 = engine
        .query(&Preference::parse(data.schema(), [("hotel-group", "H < *")]).unwrap())
        .unwrap()
        .skyline;
    let sky3 = engine
        .query(&Preference::parse(data.schema(), [("hotel-group", "M < H < *")]).unwrap())
        .unwrap()
        .skyline;
    assert_eq!(named(&sky1), vec!["a", "c", "e", "f"]);
    assert_eq!(named(&sky2), vec!["a", "c", "e"]);
    assert_eq!(named(&sky3), vec!["a", "c", "e", "f"]);

    // Recombine by hand exactly as Theorem 2 prescribes.
    let psky1: Vec<PointId> = sky1
        .iter()
        .copied()
        .filter(|&p| data.nominal_label(p, 0) == "M")
        .collect();
    assert_eq!(named(&psky1), vec!["e", "f"]);
    let mut merged: Vec<PointId> = sky1.iter().copied().filter(|p| sky2.contains(p)).collect();
    for p in psky1 {
        if !merged.contains(&p) {
            merged.push(p);
        }
    }
    merged.sort_unstable();
    assert_eq!(merged, sky3);
}

#[test]
fn nursery_real_data_setup_matches_section_5_2() {
    // 12,960 instances, 8 attributes, two nominal attributes of cardinality 4.
    let data = std::sync::Arc::new(skyline::datagen::nursery::generate());
    assert_eq!(data.len(), 12_960);
    assert_eq!(data.schema().arity(), 8);
    assert_eq!(data.schema().nominal_count(), 2);
    assert_eq!(data.schema().nominal_cardinalities(), vec![4, 4]);

    // The paper's algorithms all agree on it with the default template.
    let template = Template::most_frequent_value(&data).unwrap();
    let asfs = AdaptiveSfs::build(data.clone(), &template).unwrap();
    let engine = SkylineEngine::build(
        data.clone(),
        template.clone(),
        EngineConfig::Hybrid { top_k: usize::MAX },
    )
    .unwrap();
    let pref = Preference::parse(
        data.schema(),
        [
            ("form", "complete < foster < *"),
            ("children", "1 < more < *"),
        ],
    )
    .unwrap();
    assert!(engine.serves_from_tree(&pref));
    let from_tree = engine.query(&pref).unwrap().skyline;
    let from_asfs = asfs.query(&pref).unwrap();
    assert_eq!(from_tree, from_asfs);
    assert!(!from_tree.is_empty());
}
