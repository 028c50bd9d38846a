//! Bitmap-based IPO-tree representation and query evaluation.
//!
//! Section 3.2, *Implementation*: "Another efficient implementation is to store the skyline for
//! each node in the IPO-tree by means of a bitmap (replacing A) and to create an inverted list
//! for each nominal attribute … Efficient bitwise operations can then be used for the set
//! operations."
//!
//! [`BitmapIpoTree`] mirrors the topology of a set-based [`IpoTree`], but each node keeps a
//! bitmap over the *positions* of the template skyline, and the whole of Algorithm 1/2 runs on
//! bitmaps; the answer is materialized into point ids only at the very end.
//!
//! Node sets are small dense subsets of one fixed universe `SKY(R)`, the shape where bitmaps
//! beat id lists (two orders of magnitude per query at `n = 100k`, about half the memory, under
//! a millisecond to derive). The set-based [`IpoTree`] is what the builder produces, what the
//! snapshot codec reads and writes ([`BitmapIpoTree::to_ipo_tree`] /
//! [`BitmapIpoTree::from_tree`] convert losslessly, truncation policy included) and what the
//! engine serves from today; this form is measured beside it (equivalence suites, the
//! representation ablation, the benchmark's `ipo.bitmap_query_us`) and becomes the served one
//! once the benchmark can resolve the change — see `ROADMAP.md`, item 4(a).

use crate::inverted::InvertedIndex;
use crate::tree::{IpoTree, Materialization};
use skyline_core::{BitSet, Dataset, PointId, Preference, Result, Template, ValueId, Work};

/// One node of the bitmap tree: the same label/children layout as the set-based node, with the
/// disqualified set stored as a bitmap over skyline positions.
#[derive(Debug, Clone)]
struct BitmapNode {
    disqualified: BitSet,
    children: Vec<(Option<ValueId>, u32)>,
}

/// Bitmap variant of the IPO-tree (plus the inverted lists needed by the merge step).
#[derive(Debug, Clone)]
pub struct BitmapIpoTree {
    template: Template,
    skyline: Vec<PointId>,
    materialization: Materialization,
    nodes: Vec<BitmapNode>,
    inverted: InvertedIndex,
}

impl BitmapIpoTree {
    /// Converts a set-based tree into its bitmap representation.
    pub fn from_tree(tree: &IpoTree, data: &Dataset) -> Self {
        let skyline = tree.skyline().to_vec();
        // Point id → skyline position as a flat table: a snapshot load converts ~10⁵ set
        // entries, and a binary search per entry was most of the conversion.
        let mut positions = vec![0u32; skyline.last().map_or(0, |&p| p as usize + 1)];
        for (position, &p) in skyline.iter().enumerate() {
            positions[p as usize] = position as u32;
        }
        let position_of = |p: PointId| {
            let position = positions[p as usize] as usize;
            debug_assert_eq!(skyline[position], p, "disqualified ⊆ skyline");
            position
        };
        let nodes = tree
            .iter_nodes()
            .map(|(_, node)| BitmapNode {
                disqualified: BitSet::from_indexes(
                    skyline.len(),
                    node.disqualified().iter().map(|&p| position_of(p)),
                ),
                children: node.children.clone(),
            })
            .collect();
        let inverted = InvertedIndex::build(data, &skyline);
        Self {
            template: tree.template().clone(),
            skyline,
            materialization: tree.materialization().clone(),
            nodes,
            inverted,
        }
    }

    /// The template skyline (sorted point ids).
    pub fn skyline(&self) -> &[PointId] {
        &self.skyline
    }

    /// The template the tree was built for.
    pub fn template(&self) -> &Template {
        &self.template
    }

    /// Which values the tree materializes and under which truncation policy (the same value
    /// the [`IpoTree`] it was converted from holds).
    pub fn materialization(&self) -> &Materialization {
        &self.materialization
    }

    /// Number of nominal dimensions.
    pub fn nominal_count(&self) -> usize {
        self.materialization.nominal_count()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The inverted lists used by the merge step.
    pub fn inverted(&self) -> &InvertedIndex {
        &self.inverted
    }

    fn child_of(&self, node: u32, label: Option<ValueId>) -> Option<u32> {
        let children = &self.nodes[node as usize].children;
        children
            .binary_search_by_key(&label, |(l, _)| *l)
            .ok()
            .map(|i| children[i].1)
    }

    /// Evaluates an implicit-preference query; same contract as [`IpoTree::query`].
    pub fn query(&self, data: &Dataset, pref: &Preference) -> Result<Vec<PointId>> {
        self.query_with_stats(data, pref).map(|(r, _)| r)
    }

    /// Evaluates a query and reports work counters.
    pub fn query_with_stats(
        &self,
        data: &Dataset,
        pref: &Preference,
    ) -> Result<(Vec<PointId>, Work)> {
        let schema = data.schema();
        pref.validate(schema)?;
        self.template.check_refinement(schema, pref)?;
        self.materialization.require_materialized(schema, pref)?;
        let mut work = Work::default();
        let all = BitSet::full(self.skyline.len());
        let bits = self.query_rec(pref, 0, 0, all, &mut work);
        let result = bits.iter().map(|pos| self.skyline[pos]).collect();
        Ok((result, work))
    }

    fn query_rec(
        &self,
        pref: &Preference,
        dim: usize,
        node: u32,
        s: BitSet,
        work: &mut Work,
    ) -> BitSet {
        work.nodes_visited += 1;
        if dim == self.nominal_count() {
            work.leaf_results += 1;
            return s;
        }
        let dim_pref = pref.dim(dim);
        if dim_pref.is_none() {
            let child = self.child_of(node, None).expect("φ child exists");
            return self.query_rec(pref, dim + 1, child, s, work);
        }
        let mut partials = Vec::with_capacity(dim_pref.order());
        for &v in dim_pref.choices() {
            let child = self
                .child_of(node, Some(v))
                .expect("materialization checked");
            let mut reduced = s.clone();
            reduced.difference_with(&self.nodes[child as usize].disqualified);
            work.set_operations += 1;
            partials.push(self.query_rec(pref, dim + 1, child, reduced, work));
        }
        self.merge(dim, dim_pref.choices(), partials, work)
    }

    /// Algorithm 2 on bitmaps: `X ← (X ∩ Y) ∪ (X ∩ positions(prefix values))`.
    fn merge(
        &self,
        dim: usize,
        choices: &[ValueId],
        partials: Vec<BitSet>,
        work: &mut Work,
    ) -> BitSet {
        let mut partials = partials.into_iter();
        let mut x = partials
            .next()
            .unwrap_or_else(|| BitSet::new(self.skyline.len()));
        for (i, y) in partials.enumerate() {
            let prefix = &choices[..=i];
            work.set_operations += 3;
            let mut z = self.inverted.positions_of_any(dim, prefix);
            z.intersect_with(&x);
            x.intersect_with(&y);
            x.union_with(&z);
        }
        x
    }

    /// Reconstructs the set-based [`IpoTree`] this bitmap tree mirrors: position bitmaps
    /// are turned back into sorted point-id sets, and each node's dimension/label — which
    /// the bitmap representation does not store — is re-derived from the topology (a node's
    /// dimension is its depth minus one, its label the edge it hangs from).
    ///
    /// The snapshot writer uses this so both tree representations share one on-disk
    /// encoding — byte for byte what [`encode_tree`](crate::encode_tree) writes for the tree
    /// this one was converted from; the loader converts back with
    /// [`BitmapIpoTree::from_tree`].
    pub fn to_ipo_tree(&self) -> IpoTree {
        use crate::tree::IpoNode;
        let mut nodes: Vec<IpoNode> = self
            .nodes
            .iter()
            .map(|n| IpoNode {
                dim: usize::MAX,
                label: None,
                disqualified: n.disqualified.iter().map(|pos| self.skyline[pos]).collect(),
                children: n.children.clone(),
            })
            .collect();
        let mut queue = std::collections::VecDeque::from([(0u32, 0usize)]);
        while let Some((id, depth)) = queue.pop_front() {
            for (label, child) in nodes[id as usize].children.clone() {
                nodes[child as usize].dim = depth;
                nodes[child as usize].label = label;
                queue.push_back((child, depth + 1));
            }
        }
        IpoTree {
            template: self.template.clone(),
            skyline: self.skyline.clone(),
            materialization: self.materialization.clone(),
            nodes,
        }
    }

    /// Approximate heap footprint of the bitmap tree in bytes.
    pub fn approximate_bytes(&self) -> usize {
        let node_bytes: usize = self
            .nodes
            .iter()
            .map(|n| n.disqualified.approximate_bytes() + n.children.len() * 8 + 16)
            .sum();
        node_bytes
            + self.skyline.len() * std::mem::size_of::<PointId>()
            + self.inverted.approximate_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::IpoTreeBuilder;
    use skyline_core::algo::bnl;
    use skyline_core::{
        DatasetBuilder, Dimension, DominanceContext, ImplicitPreference, RowValue, Schema,
        SkylineError,
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

    #[test]
    fn bitmap_tree_matches_set_tree_on_all_small_queries() {
        let data = table3_data();
        let template = Template::empty(data.schema());
        let set_tree = IpoTreeBuilder::new().build(&data, &template).unwrap();
        let bitmap_tree = BitmapIpoTree::from_tree(&set_tree, &data);
        assert_eq!(bitmap_tree.node_count(), set_tree.node_count());
        assert_eq!(bitmap_tree.skyline(), set_tree.skyline());
        assert!(bitmap_tree.approximate_bytes() > 0);
        assert_eq!(bitmap_tree.template().nominal_count(), 2);
        assert_eq!(
            bitmap_tree.inverted().skyline_len(),
            set_tree.skyline().len()
        );

        let values: Vec<u16> = vec![0, 1, 2];
        let mut prefs = vec![ImplicitPreference::none()];
        for &a in &values {
            prefs.push(ImplicitPreference::new([a]).unwrap());
            for &b in &values {
                if a != b {
                    prefs.push(ImplicitPreference::new([a, b]).unwrap());
                }
            }
        }
        for hotel in &prefs {
            for airline in &prefs {
                let pref = Preference::from_dims(vec![hotel.clone(), airline.clone()]);
                let expected = set_tree.query(&data, &pref).unwrap();
                let got = bitmap_tree.query(&data, &pref).unwrap();
                assert_eq!(got, expected, "hotel {hotel:?} airline {airline:?}");
                let ctx = DominanceContext::for_query(&data, &template, &pref).unwrap();
                assert_eq!(got, bnl::skyline(&ctx));
            }
        }
    }

    #[test]
    fn bitmap_tree_rejects_non_materialized_values() {
        let data = table3_data();
        let template = Template::empty(data.schema());
        let set_tree = IpoTreeBuilder::new()
            .top_k_values(1)
            .build(&data, &template)
            .unwrap();
        let bitmap_tree = BitmapIpoTree::from_tree(&set_tree, &data);
        let schema = data.schema().clone();
        let pref = Preference::parse(&schema, [("hotel-group", "M < *")]).unwrap();
        assert!(matches!(
            bitmap_tree.query(&data, &pref),
            Err(SkylineError::NotMaterialized { .. })
        ));
    }

    #[test]
    fn bitmap_query_stats_match_set_based_shape() {
        let data = table3_data();
        let template = Template::empty(data.schema());
        let set_tree = IpoTreeBuilder::new().build(&data, &template).unwrap();
        let bitmap_tree = BitmapIpoTree::from_tree(&set_tree, &data);
        let schema = data.schema().clone();
        let pref = Preference::parse(
            &schema,
            [("hotel-group", "M < H < *"), ("airline", "G < R < *")],
        )
        .unwrap();
        let (_, set_stats) = set_tree.query_with_stats(&data, &pref).unwrap();
        let (_, bitmap_stats) = bitmap_tree.query_with_stats(&data, &pref).unwrap();
        assert_eq!(set_stats.leaf_results, bitmap_stats.leaf_results);
        assert_eq!(set_stats.nodes_visited, bitmap_stats.nodes_visited);
    }
}
