//! IPO-tree snapshot codec: the [`skyline_core::snapshot::SECTION_IPO_TREE`] payload.
//!
//! The materialized sets are the bulk of a tree — `O(c^{m'})` nodes, each carrying a sorted
//! subset of the template skyline — so they are stored as **delta-encoded vbyte posting
//! lists** ([`ByteWriter::put_postings`]): sorted skyline subsets have small gaps, and the
//! gap encoding routinely shrinks them well below raw `u32` ids. Both tree representations
//! share this one encoding: a [`BitmapIpoTree`](crate::BitmapIpoTree) serializes through
//! [`BitmapIpoTree::to_ipo_tree`](crate::BitmapIpoTree::to_ipo_tree) and is reconstituted
//! with [`BitmapIpoTree::from_tree`](crate::BitmapIpoTree::from_tree) after decoding.
//!
//! Decoding trusts nothing. The container CRC already catches random corruption; this layer
//! re-establishes every *structural* invariant the query paths `expect()` on, so even a
//! checksum-colliding payload can only fail with a
//! [`SnapshotError`], never panic or serve out-of-range rows:
//!
//! * every disqualified set is a subset of the skyline — checked against one bitmap of the
//!   skyline's ids, built once per tree, so each decoded id costs one bit test (this is
//!   what [`BitmapIpoTree::from_tree`](crate::BitmapIpoTree::from_tree)'s position lookup
//!   requires);
//! * the node graph is a tree rooted at node 0 whose children at depth `d` are exactly the
//!   φ child plus one child per materialized value of dimension `d` (what
//!   `child_of(..).expect(..)` requires after `require_materialized` passes);
//! * skyline ids stay below the row count (what `data.nominal(p, d)` in the merge step and
//!   the inverted-index build require).

use crate::tree::{IpoNode, IpoTree, Materialization};
use skyline_core::snapshot::{ByteReader, ByteWriter, SnapshotError};
use skyline_core::{PointId, Template, ValueId};

/// Serializes `tree` into the `SECTION_IPO_TREE` payload.
///
/// Layout: truncation flag (+ vbyte `k`), skyline posting list, per-dimension materialized
/// value lists, then per node (arena order, root first) its disqualified posting list and
/// labelled child edges. Node dimensions/labels are *not* stored — they are implied by the
/// topology and re-derived (and cross-checked) during decode.
pub fn encode_tree(tree: &IpoTree) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match tree.top_k() {
        Some(k) => {
            w.put_u8(1);
            w.put_vbyte(k as u64);
        }
        None => w.put_u8(0),
    }
    w.put_postings(tree.skyline());
    w.put_u32(tree.nominal_count() as u32);
    for j in 0..tree.nominal_count() {
        let values = tree.materialized_values(j);
        w.put_u32(values.len() as u32);
        w.put_u16_slice(values);
    }
    w.put_u32(tree.node_count() as u32);
    for (_, node) in tree.iter_nodes() {
        w.put_postings(node.disqualified());
        w.put_u32(node.children.len() as u32);
        for &(label, child) in &node.children {
            match label {
                Some(v) => {
                    w.put_u8(1);
                    w.put_u16(v);
                }
                None => {
                    w.put_u8(0);
                    w.put_u16(0);
                }
            }
            w.put_u32(child);
        }
    }
    w.into_inner()
}

/// Decodes a tree written by [`encode_tree`] and re-validates every structural invariant
/// (see the module docs). `n_rows` is the row count of the dataset the tree serves —
/// skyline ids must stay below it.
pub fn decode_tree(
    template: Template,
    n_rows: usize,
    bytes: &[u8],
) -> Result<IpoTree, SnapshotError> {
    let mut r = ByteReader::new(bytes);
    let top_k = match r.get_u8()? {
        0 => None,
        1 => Some(r.get_vbyte()? as usize),
        other => {
            return Err(SnapshotError::Corrupt(format!(
                "unknown tree truncation tag {other}"
            )))
        }
    };
    let skyline = r.get_postings(n_rows)?;
    if let Some(&last) = skyline.last() {
        if last as usize >= n_rows {
            return Err(SnapshotError::Corrupt(format!(
                "skyline id {last} is outside the dataset's {n_rows} rows"
            )));
        }
    }
    let m = r.get_u32()? as usize;
    if m != template.nominal_count() {
        return Err(SnapshotError::Corrupt(format!(
            "tree covers {m} nominal dimensions but the template has {}",
            template.nominal_count()
        )));
    }
    let mut materialized = Vec::with_capacity(m);
    for _ in 0..m {
        let count = r.get_u32()? as usize;
        if count > ValueId::MAX as usize + 1 {
            return Err(SnapshotError::Corrupt(format!(
                "{count} materialized values exceed the ValueId range"
            )));
        }
        materialized.push(r.get_u16_vec(count)?);
    }
    let node_count = r.get_u32()? as usize;
    // Each serialized node occupies at least five bytes, so a count beyond the payload
    // length is corrupt — reject before the arena allocation.
    if node_count == 0 || node_count > bytes.len() {
        return Err(SnapshotError::Corrupt(format!(
            "implausible node count {node_count} for a {}-byte payload",
            bytes.len()
        )));
    }
    // One bit per row id up to the last skyline member: the subset check reads a bit per
    // disqualified id, and an id past the bitmap (so also one ≥ `n_rows`) is no member.
    let mut members = vec![0u64; skyline.last().map_or(0, |&p| p as usize / 64 + 1)];
    for &p in &skyline {
        members[p as usize / 64] |= 1 << (p % 64);
    }
    let is_member = |p: PointId| {
        members
            .get(p as usize / 64)
            .is_some_and(|word| word >> (p % 64) & 1 != 0)
    };
    let mut nodes = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        let disqualified = r.get_postings(skyline.len())?;
        if !disqualified.iter().all(|&p| is_member(p)) {
            return Err(SnapshotError::Corrupt(
                "disqualified set is not a subset of the template skyline".into(),
            ));
        }
        let child_count = r.get_u32()? as usize;
        if child_count > ValueId::MAX as usize + 2 {
            return Err(SnapshotError::Corrupt(format!(
                "node claims {child_count} children, beyond one per domain value plus φ"
            )));
        }
        let mut children = Vec::with_capacity(child_count);
        for _ in 0..child_count {
            let label = match r.get_u8()? {
                0 => {
                    r.get_u16()?;
                    None
                }
                1 => Some(r.get_u16()?),
                other => {
                    return Err(SnapshotError::Corrupt(format!(
                        "unknown child label tag {other}"
                    )))
                }
            };
            children.push((label, r.get_u32()?));
        }
        nodes.push(IpoNode {
            dim: usize::MAX,
            label: None,
            disqualified,
            children,
        });
    }
    r.expect_end()?;

    // Topology walk from the root: assigns each node's dimension (= depth) and label (= its
    // incoming edge), and verifies the invariants the query recursion relies on.
    let mut expected_labels: Vec<Vec<Option<ValueId>>> = Vec::with_capacity(m);
    for values in &materialized {
        let mut sorted = values.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(SnapshotError::Corrupt(
                "a dimension materializes the same value twice".into(),
            ));
        }
        expected_labels.push(
            std::iter::once(None)
                .chain(sorted.into_iter().map(Some))
                .collect(),
        );
    }
    let mut depth = vec![usize::MAX; node_count];
    depth[0] = 0;
    let mut queue = std::collections::VecDeque::from([0u32]);
    let mut visited = 1usize;
    while let Some(id) = queue.pop_front() {
        let d = depth[id as usize];
        let children = nodes[id as usize].children.clone();
        if d == m {
            if !children.is_empty() {
                return Err(SnapshotError::Corrupt(
                    "leaf-level tree node has children".into(),
                ));
            }
            continue;
        }
        let labels: Vec<Option<ValueId>> = children.iter().map(|&(label, _)| label).collect();
        if labels != expected_labels[d] {
            return Err(SnapshotError::Corrupt(format!(
                "children of a depth-{d} node do not match the φ child plus the \
                 materialized values of dimension {d}"
            )));
        }
        for (label, child) in children {
            let c = child as usize;
            if c >= node_count {
                return Err(SnapshotError::Corrupt(format!(
                    "child id {child} is outside the {node_count}-node arena"
                )));
            }
            if depth[c] != usize::MAX {
                return Err(SnapshotError::Corrupt(format!(
                    "node {child} is reachable along more than one path"
                )));
            }
            depth[c] = d + 1;
            nodes[c].dim = d;
            nodes[c].label = label;
            visited += 1;
            queue.push_back(child);
        }
    }
    if visited != node_count {
        return Err(SnapshotError::Corrupt(format!(
            "{} tree nodes are unreachable from the root",
            node_count - visited
        )));
    }
    // The root and every φ node carry no disqualified set (the query paths never consult
    // them; a non-empty set there means the payload was not produced by the builder).
    for node in &nodes {
        if node.label.is_none() && !node.disqualified.is_empty() {
            return Err(SnapshotError::Corrupt(
                "root/φ node carries a non-empty disqualified set".into(),
            ));
        }
    }
    Ok(IpoTree {
        template,
        skyline,
        materialization: Materialization {
            values: materialized,
            top_k,
        },
        nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::BitmapIpoTree;
    use crate::build::IpoTreeBuilder;
    use skyline_core::{
        Dataset, DatasetBuilder, Dimension, Preference, RowValue, Schema, Template,
    };

    fn table3_data() -> Dataset {
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
        b.build().unwrap()
    }

    fn all_small_preferences() -> Vec<Preference> {
        use skyline_core::ImplicitPreference;
        let values: Vec<u16> = vec![0, 1, 2];
        let mut dims = vec![ImplicitPreference::none()];
        for &a in &values {
            dims.push(ImplicitPreference::new([a]).unwrap());
            for &b in &values {
                if a != b {
                    dims.push(ImplicitPreference::new([a, b]).unwrap());
                }
            }
        }
        let mut prefs = Vec::new();
        for hotel in &dims {
            for airline in &dims {
                prefs.push(Preference::from_dims(vec![hotel.clone(), airline.clone()]));
            }
        }
        prefs
    }

    #[test]
    fn full_tree_round_trips_query_for_query() {
        let data = table3_data();
        let template = Template::empty(data.schema());
        let tree = IpoTreeBuilder::new().build(&data, &template).unwrap();
        let bytes = encode_tree(&tree);
        let decoded = decode_tree(template.clone(), data.len(), &bytes).unwrap();
        assert_eq!(decoded.skyline(), tree.skyline());
        assert_eq!(decoded.node_count(), tree.node_count());
        assert_eq!(decoded.top_k(), None);
        for pref in all_small_preferences() {
            assert_eq!(
                decoded.query(&data, &pref).unwrap(),
                tree.query(&data, &pref).unwrap()
            );
        }
    }

    #[test]
    fn truncated_tree_round_trips_with_policy() {
        let data = table3_data();
        let template = Template::empty(data.schema());
        let tree = IpoTreeBuilder::new()
            .top_k_values(1)
            .build(&data, &template)
            .unwrap();
        let bytes = encode_tree(&tree);
        let decoded = decode_tree(template, data.len(), &bytes).unwrap();
        assert_eq!(decoded.top_k(), Some(1));
        for j in 0..tree.nominal_count() {
            assert_eq!(decoded.materialized_values(j), tree.materialized_values(j));
        }
        for pref in all_small_preferences() {
            // Same servability *and* same answers where servable.
            assert_eq!(
                decoded.query(&data, &pref).ok(),
                tree.query(&data, &pref).ok()
            );
            assert_eq!(
                decoded.materialization().first_unmaterialized(&pref),
                tree.materialization().first_unmaterialized(&pref)
            );
        }
    }

    #[test]
    fn bitmap_tree_round_trips_through_the_set_encoding() {
        let data = table3_data();
        let template = Template::empty(data.schema());
        let full = IpoTreeBuilder::new().build(&data, &template).unwrap();
        let top_1 = IpoTreeBuilder::new()
            .top_k_values(1)
            .build(&data, &template)
            .unwrap();
        // One more (M, W) row: hysteresis keeps the displaced T next to the new top value M,
        // so a dimension materializes more than `k` values.
        let mut grown_data = data.clone();
        grown_data.push_row_ids(&[100.0, -9.0], &[2, 2]).unwrap();
        let grown = top_1
            .materialization()
            .rebuilt_for(&grown_data, &template)
            .unwrap();
        assert_eq!(grown.materialized_values(0), &[2, 0]);
        for (set_tree, data) in [(full, &data), (top_1, &data), (grown, &grown_data)] {
            let bitmap = BitmapIpoTree::from_tree(&set_tree, data);
            // The bitmap form writes byte for byte what the set form writes — the truncation
            // policy and the materialization order included.
            let bytes = encode_tree(&bitmap.to_ipo_tree());
            assert_eq!(
                bytes,
                encode_tree(&set_tree),
                "top_k {:?}",
                set_tree.top_k()
            );
            let decoded = decode_tree(template.clone(), data.len(), &bytes).unwrap();
            assert_eq!(decoded.materialization(), set_tree.materialization());
            let rebuilt = BitmapIpoTree::from_tree(&decoded, data);
            assert_eq!(rebuilt.materialization(), bitmap.materialization());
            assert_eq!(rebuilt.node_count(), bitmap.node_count());
            assert_eq!(rebuilt.skyline(), bitmap.skyline());
            for pref in all_small_preferences() {
                assert_eq!(
                    rebuilt.query(data, &pref).ok(),
                    bitmap.query(data, &pref).ok()
                );
                assert_eq!(
                    bitmap.query(data, &pref).ok(),
                    set_tree.query(data, &pref).ok()
                );
            }
        }
    }

    #[test]
    fn decode_rejects_out_of_range_skyline_ids() {
        let data = table3_data();
        let template = Template::empty(data.schema());
        let tree = IpoTreeBuilder::new().build(&data, &template).unwrap();
        let bytes = encode_tree(&tree);
        // Claiming fewer rows than the skyline references must fail the range check.
        assert!(matches!(
            decode_tree(template, 1, &bytes),
            Err(SnapshotError::Corrupt(_) | SnapshotError::Truncated { .. })
        ));
    }

    /// A labelled node whose disqualified set is `ids` instead of what the builder wrote:
    /// the decode refuses it as no subset of the template skyline.
    fn refusal_for_disqualified(ids: Vec<PointId>) -> Result<IpoTree, SnapshotError> {
        let data = table3_data();
        let template = Template::empty(data.schema());
        let mut tree = IpoTreeBuilder::new().build(&data, &template).unwrap();
        let node = tree
            .nodes
            .iter_mut()
            .find(|node| node.label.is_some())
            .expect("a labelled node");
        node.disqualified = ids;
        decode_tree(template, data.len(), &encode_tree(&tree))
    }

    const NOT_A_SUBSET: &str = "disqualified set is not a subset of the template skyline";

    #[test]
    fn decode_refuses_a_disqualified_id_outside_the_skyline() {
        let data = table3_data();
        let template = Template::empty(data.schema());
        let tree = IpoTreeBuilder::new().build(&data, &template).unwrap();
        let outside = (0..data.len() as PointId)
            .find(|p| !tree.skyline().contains(p))
            .expect("a row outside the template skyline");
        assert_eq!(
            refusal_for_disqualified(vec![outside]).err(),
            Some(SnapshotError::Corrupt(NOT_A_SUBSET.into()))
        );
    }

    #[test]
    fn decode_refuses_a_disqualified_id_beyond_the_rows() {
        let n_rows = table3_data().len() as PointId;
        for id in [n_rows, n_rows + 64, 1 << 20] {
            assert_eq!(
                refusal_for_disqualified(vec![id]).err(),
                Some(SnapshotError::Corrupt(NOT_A_SUBSET.into())),
                "id {id}"
            );
        }
    }

    #[test]
    fn decode_rejects_wrong_template_arity() {
        let data = table3_data();
        let template = Template::empty(data.schema());
        let tree = IpoTreeBuilder::new().build(&data, &template).unwrap();
        let bytes = encode_tree(&tree);
        let narrow_schema = Schema::new(vec![
            Dimension::numeric("price"),
            Dimension::nominal_with_labels("g", ["a", "b"]),
        ])
        .unwrap();
        let narrow = Template::empty(&narrow_schema);
        assert!(matches!(
            decode_tree(narrow, data.len(), &bytes),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn decode_rejects_structural_corruption_without_panicking() {
        let data = table3_data();
        let template = Template::empty(data.schema());
        let tree = IpoTreeBuilder::new().build(&data, &template).unwrap();
        let bytes = encode_tree(&tree);
        // Truncations at every prefix length: an error, never a panic.
        for len in 0..bytes.len() {
            assert!(
                decode_tree(template.clone(), data.len(), &bytes[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
        // Single-byte flips: either a decode error or a tree that still upholds the
        // validated invariants (a flip inside a posting gap can produce a different but
        // still-valid subset — the container CRC is what rules those out in practice).
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            let _ = decode_tree(template.clone(), data.len(), &corrupt);
        }
    }
}
