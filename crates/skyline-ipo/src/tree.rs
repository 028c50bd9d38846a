//! The IPO-tree structure (Section 3.1).
//!
//! The tree has `m' + 1` levels, where `m'` is the number of nominal dimensions. The root
//! stores the template skyline `SKY(R)`. The children of a level-`d` node correspond to the
//! first-order implicit preferences `v ≺ ∗` on nominal dimension `d` (0-based here), plus one
//! special child labelled φ meaning "no preference on this dimension". Every non-root,
//! non-φ node stores the disqualified set `A`: the points of `SKY(R)` that the combination of
//! first-order choices along its path removes from the skyline, so that `SKY(R) − A` is the
//! skyline for that combination.

use skyline_core::{PointId, Preference, Template, ValueId};

/// One node of the IPO-tree.
#[derive(Debug, Clone)]
pub struct IpoNode {
    /// Nominal dimension this node's label refers to (`usize::MAX` for the root).
    pub(crate) dim: usize,
    /// The first-order choice `v ≺ ∗` this node adds, or `None` for the root and φ nodes.
    pub(crate) label: Option<ValueId>,
    /// Points of `SKY(R)` disqualified by the path's combination of first-order choices.
    /// Sorted and duplicate-free. Empty for the root and for φ nodes (a φ node adds no
    /// constraint, so the query evaluation never consults its set).
    pub(crate) disqualified: Vec<PointId>,
    /// Children, keyed by their label (`None` = the φ child). Kept sorted by label so lookups
    /// are a small binary search.
    pub(crate) children: Vec<(Option<ValueId>, u32)>,
}

impl IpoNode {
    /// The nominal dimension this node constrains (`None` for the root).
    pub fn dimension(&self) -> Option<usize> {
        (self.dim != usize::MAX).then_some(self.dim)
    }

    /// The first-order choice of this node (`None` for the root and φ nodes).
    pub fn label(&self) -> Option<ValueId> {
        self.label
    }

    /// The disqualified set `A` of this node.
    pub fn disqualified(&self) -> &[PointId] {
        &self.disqualified
    }

    /// Number of children.
    pub fn child_count(&self) -> usize {
        self.children.len()
    }

    pub(crate) fn child(&self, label: Option<ValueId>) -> Option<u32> {
        self.children
            .binary_search_by_key(&label, |(l, _)| *l)
            .ok()
            .map(|i| self.children[i].1)
    }
}

/// The materialization policy of a tree: which values of each nominal dimension have nodes,
/// and the truncation the tree was built with.
///
/// Both tree forms hold one (the set-based [`IpoTree`] and the
/// [`BitmapIpoTree`](crate::BitmapIpoTree) derived from it), and a rebuild snapshot clones it — a few value
/// ids per dimension — so every "can the tree answer this?" decision runs through the same
/// predicates: the tree's own query rejection, the engine's Adaptive-SFS fallback test, and
/// the choice of values a rebuild re-materializes can never disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Materialization {
    /// Per nominal dimension, the value ids that have materialized children (in the order the
    /// children were created — most frequent first when the tree is truncated).
    pub(crate) values: Vec<Vec<ValueId>>,
    /// The truncation the tree was built with (`None` = every value materialized), recorded
    /// so [`Materialization::rebuilt_for`] can re-materialize an equivalent tree over changed
    /// data.
    pub(crate) top_k: Option<usize>,
}

impl Materialization {
    /// Number of nominal dimensions covered.
    pub fn nominal_count(&self) -> usize {
        self.values.len()
    }

    /// The value ids materialized for nominal dimension `j`.
    pub fn values(&self, nominal_index: usize) -> &[ValueId] {
        &self.values[nominal_index]
    }

    /// The per-dimension truncation the tree was built with (`None` = full materialization,
    /// the paper's *IPO Tree*; `Some(k)` = *IPO Tree-k*).
    pub fn top_k(&self) -> Option<usize> {
        self.top_k
    }

    /// True when value `v` of dimension `j` has materialized nodes.
    pub fn is_materialized(&self, nominal_index: usize, v: ValueId) -> bool {
        self.values[nominal_index].contains(&v)
    }

    /// The first `(nominal dimension, value)` listed by `pref` that is **not** materialized,
    /// or `None` when the tree can answer the preference.
    ///
    /// This is the single source of truth for "is this preference materialized?": query
    /// rejection ([`SkylineError::NotMaterialized`](skyline_core::SkylineError::NotMaterialized))
    /// and the hybrid engine's Adaptive-SFS fallback both consult it, so the two can never
    /// diverge. The preference's arity must match the tree (extra dimensions are ignored;
    /// missing ones count as "no preference").
    pub fn first_unmaterialized(&self, pref: &Preference) -> Option<(usize, ValueId)> {
        (0..self.nominal_count().min(pref.nominal_count())).find_map(|j| {
            pref.dim(j)
                .choices()
                .iter()
                .find(|&&v| !self.is_materialized(j, v))
                .map(|&v| (j, v))
        })
    }

    /// True when every value listed by `pref` is materialized, i.e. the tree can answer the
    /// query without falling back to another method (Section 5.3).
    pub fn materializes(&self, pref: &Preference) -> bool {
        self.first_unmaterialized(pref).is_none()
    }

    /// Errors with [`SkylineError::NotMaterialized`](skyline_core::SkylineError::NotMaterialized)
    /// — naming the offending dimension and value — when the tree cannot answer `pref`.
    ///
    /// The one place the rejection error is constructed; both trees' query evaluation calls
    /// it.
    pub fn require_materialized(
        &self,
        schema: &skyline_core::Schema,
        pref: &Preference,
    ) -> skyline_core::Result<()> {
        let Some((j, v)) = self.first_unmaterialized(pref) else {
            return Ok(());
        };
        Err(skyline_core::SkylineError::NotMaterialized {
            dimension: schema.nominal_dimension_name(j),
            value: v as u32,
        })
    }

    /// Re-materializes an equivalent tree — same truncation policy — over (typically
    /// compacted or otherwise mutated) `data` under `template`.
    ///
    /// This is the rebuild entry point a generation rebuild uses to bring a mutated hybrid
    /// engine's tree back in sync with its dataset: the rebuild does not need to remember
    /// how the original tree was configured, the policy does.
    ///
    /// # Materialization hysteresis
    ///
    /// A truncated (top-`k`) tree does **not** simply re-take the `k` most frequent values:
    /// churn would then flap values in and out of the tree on every small frequency shift,
    /// and a preference served from the tree before the rebuild could silently regress to
    /// the engine's fallback path afterwards. Instead the rebuilt tree materializes, per
    /// dimension, the union of the fresh top-`k` with every *previously materialized* value
    /// that is still within the top `2k` by frequency — a value must fall well out of the
    /// top `k` before it is demoted. The recorded policy ([`Materialization::top_k`]) is
    /// preserved, so hysteresis does not compound across rebuilds: values a past rebuild
    /// retained are re-examined against the same `2k` window every time.
    pub fn rebuilt_for(
        &self,
        data: &skyline_core::Dataset,
        template: &Template,
    ) -> skyline_core::Result<IpoTree> {
        let mut builder = crate::build::IpoTreeBuilder::new();
        if let Some(k) = self.top_k {
            builder = builder
                .top_k_values(k)
                .materialize_values(self.hysteresis_values(data, k));
        }
        builder.build(data, template)
    }

    /// Per-dimension value sets for a top-`k` rebuild over `data`: the fresh top-`k` plus
    /// previously materialized values still within the top `2k`, most frequent first.
    fn hysteresis_values(&self, data: &skyline_core::Dataset, k: usize) -> Vec<Vec<ValueId>> {
        let window = k.saturating_mul(2);
        (0..self.nominal_count())
            .map(|j| {
                data.values_by_frequency(j)
                    .into_iter()
                    .enumerate()
                    .filter(|&(rank, v)| rank < k || (rank < window && self.is_materialized(j, v)))
                    .map(|(_, v)| v)
                    .collect()
            })
            .collect()
    }
}

/// The materialized IPO-tree in its set-based form: template skyline, materialization policy
/// and the node arena. Built with [`crate::build::IpoTreeBuilder`], queried with the methods
/// in [`crate::query`] (Algorithms 1 and 2 on sorted id lists).
#[derive(Debug, Clone)]
pub struct IpoTree {
    pub(crate) template: Template,
    /// `SKY(R)`, sorted ascending.
    pub(crate) skyline: Vec<PointId>,
    pub(crate) materialization: Materialization,
    /// Node arena; index 0 is the root.
    pub(crate) nodes: Vec<IpoNode>,
}

impl IpoTree {
    /// The template the tree was built for.
    pub fn template(&self) -> &Template {
        &self.template
    }

    /// The template skyline `SKY(R)` (sorted point ids).
    pub fn skyline(&self) -> &[PointId] {
        &self.skyline
    }

    /// Which values the tree materializes and under which truncation policy.
    pub fn materialization(&self) -> &Materialization {
        &self.materialization
    }

    /// Number of nominal dimensions covered (the tree depth minus one).
    pub fn nominal_count(&self) -> usize {
        self.materialization.nominal_count()
    }

    /// The value ids materialized for nominal dimension `j`.
    pub fn materialized_values(&self, nominal_index: usize) -> &[ValueId] {
        self.materialization.values(nominal_index)
    }

    /// The per-dimension truncation the tree was built with; see [`Materialization::top_k`].
    pub fn top_k(&self) -> Option<usize> {
        self.materialization.top_k
    }

    /// True when the tree can answer `pref`; see [`Materialization::materializes`].
    pub fn materializes(&self, pref: &Preference) -> bool {
        self.materialization.materializes(pref)
    }

    /// Total number of nodes (the paper's `O(c^{m'})` size measure).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Access a node by id.
    pub fn node(&self, id: u32) -> &IpoNode {
        &self.nodes[id as usize]
    }

    /// The root node.
    pub fn root(&self) -> &IpoNode {
        &self.nodes[0]
    }

    /// Child of `node` with the given label (`None` = φ child).
    pub fn child_of(&self, node: u32, label: Option<ValueId>) -> Option<u32> {
        self.nodes[node as usize].child(label)
    }

    /// Iterator over all nodes with their ids.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (u32, &IpoNode)> {
        self.nodes.iter().enumerate().map(|(i, n)| (i as u32, n))
    }

    /// Sum of the sizes of all disqualified sets (a proxy for materialized result volume).
    pub fn total_disqualified_entries(&self) -> usize {
        self.nodes.iter().map(|n| n.disqualified.len()).sum()
    }

    /// Walks the path for one combination of first-order choices and returns the deepest node
    /// reached. `choices[j] = Some(v)` applies `v ≺ ∗` on dimension `j`; `None` follows the φ
    /// child. Returns `None` as soon as a requested child is not materialized.
    pub fn node_for_choices(&self, choices: &[Option<ValueId>]) -> Option<u32> {
        let mut node = 0u32;
        for &choice in choices.iter().take(self.nominal_count()) {
            node = self.child_of(node, choice)?;
        }
        Some(node)
    }

    /// The skyline for one combination of first-order choices, straight from the materialized
    /// sets: `SKY(R) − A(deepest node)`. Returns `None` if some choice is not materialized.
    pub fn first_order_skyline(&self, choices: &[Option<ValueId>]) -> Option<Vec<PointId>> {
        // The disqualified sets along a path grow monotonically, so the deepest *labelled*
        // node on the path carries the full combination's set; φ nodes contribute nothing.
        let mut node = 0u32;
        let mut disqualified: &[PointId] = &[];
        for (j, &choice) in choices.iter().take(self.nominal_count()).enumerate() {
            let _ = j;
            node = self.child_of(node, choice)?;
            if choice.is_some() {
                disqualified = &self.nodes[node as usize].disqualified;
            }
        }
        Some(crate::setops::difference(&self.skyline, disqualified))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_core::{Dimension, Schema, Template};

    fn tiny_tree() -> IpoTree {
        // Hand-built two-dimension tree over a fake skyline {10, 20, 30}.
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::nominal_with_labels("g", ["a", "b"]),
            Dimension::nominal_with_labels("h", ["p", "q"]),
        ])
        .unwrap();
        let template = Template::empty(&schema);
        // Node layout:
        // 0 root (dim MAX)
        //   1: g=φ   2: g=a (A={30})  3: g=b (A={10})
        // each of those has children for dim 1: φ / p / q
        let mut nodes = vec![IpoNode {
            dim: usize::MAX,
            label: None,
            disqualified: vec![],
            children: vec![],
        }];
        let add = |dim: usize,
                   label: Option<ValueId>,
                   disq: Vec<PointId>,
                   nodes: &mut Vec<IpoNode>|
         -> u32 {
            let id = nodes.len() as u32;
            nodes.push(IpoNode {
                dim,
                label,
                disqualified: disq,
                children: vec![],
            });
            id
        };
        let g_phi = add(0, None, vec![], &mut nodes);
        let g_a = add(0, Some(0), vec![30], &mut nodes);
        let g_b = add(0, Some(1), vec![10], &mut nodes);
        nodes[0].children = vec![(None, g_phi), (Some(0), g_a), (Some(1), g_b)];
        for parent in [g_phi, g_a, g_b] {
            let base: Vec<PointId> = nodes[parent as usize].disqualified.clone();
            let h_phi = add(1, None, vec![], &mut nodes);
            let h_p = add(1, Some(0), crate::setops::union(&base, &[20]), &mut nodes);
            let h_q = add(1, Some(1), base.clone(), &mut nodes);
            nodes[parent as usize].children = vec![(None, h_phi), (Some(0), h_p), (Some(1), h_q)];
        }
        IpoTree {
            template,
            skyline: vec![10, 20, 30],
            materialization: Materialization {
                values: vec![vec![0, 1], vec![0, 1]],
                top_k: None,
            },
            nodes,
        }
    }

    #[test]
    fn navigation_and_accessors() {
        let tree = tiny_tree();
        assert_eq!(tree.node_count(), 13);
        assert_eq!(tree.nominal_count(), 2);
        assert_eq!(tree.skyline(), &[10, 20, 30]);
        assert!(tree.materialization().is_materialized(0, 1));
        assert!(!tree.materialization().is_materialized(0, 5));
        assert_eq!(tree.materialized_values(1), &[0, 1]);
        assert!(tree.root().dimension().is_none());
        assert_eq!(tree.root().child_count(), 3);
        let g_a = tree.child_of(0, Some(0)).unwrap();
        assert_eq!(tree.node(g_a).dimension(), Some(0));
        assert_eq!(tree.node(g_a).label(), Some(0));
        assert_eq!(tree.node(g_a).disqualified(), &[30]);
        assert!(tree.child_of(0, Some(9)).is_none());
        assert_eq!(tree.iter_nodes().count(), 13);
        assert!(tree.total_disqualified_entries() > 0);
    }

    #[test]
    fn materialization_predicate_reports_the_first_gap() {
        use skyline_core::{ImplicitPreference, Preference};
        let mut tree = tiny_tree();
        // Truncate: dimension 0 only materializes value 0, dimension 1 both values.
        tree.materialization.values = vec![vec![0], vec![0, 1]];

        let ok = Preference::from_dims(vec![
            ImplicitPreference::new([0]).unwrap(),
            ImplicitPreference::new([1, 0]).unwrap(),
        ]);
        assert!(tree.materializes(&ok));
        assert_eq!(tree.materialization().first_unmaterialized(&ok), None);

        let gap_dim0 = Preference::from_dims(vec![
            ImplicitPreference::new([0, 1]).unwrap(),
            ImplicitPreference::none(),
        ]);
        assert!(!tree.materializes(&gap_dim0));
        assert_eq!(
            tree.materialization().first_unmaterialized(&gap_dim0),
            Some((0, 1))
        );

        // The first gap in dimension order is reported, not a later one.
        let gaps_everywhere = Preference::from_dims(vec![
            ImplicitPreference::new([1]).unwrap(),
            ImplicitPreference::new([1]).unwrap(),
        ]);
        assert_eq!(
            tree.materialization()
                .first_unmaterialized(&gaps_everywhere),
            Some((0, 1))
        );

        // An empty preference is always answerable.
        assert!(tree.materializes(&Preference::none(2)));
        // Extra dimensions beyond the tree's arity are ignored by the predicate
        // (arity errors are query validation's job).
        let extra = Preference::from_dims(vec![
            ImplicitPreference::new([0]).unwrap(),
            ImplicitPreference::none(),
            ImplicitPreference::new([1]).unwrap(),
        ]);
        assert!(tree.materializes(&extra));
    }

    #[test]
    fn node_for_choices_walks_paths() {
        let tree = tiny_tree();
        let node = tree.node_for_choices(&[Some(0), Some(1)]).unwrap();
        assert_eq!(tree.node(node).label(), Some(1));
        assert_eq!(tree.node(node).dimension(), Some(1));
        assert!(tree.node_for_choices(&[Some(7), None]).is_none());
        assert_eq!(tree.node_for_choices(&[]), Some(0));
    }

    #[test]
    fn first_order_skyline_subtracts_the_deepest_labelled_set() {
        let tree = tiny_tree();
        assert_eq!(
            tree.first_order_skyline(&[None, None]).unwrap(),
            vec![10, 20, 30]
        );
        assert_eq!(
            tree.first_order_skyline(&[Some(0), None]).unwrap(),
            vec![10, 20]
        );
        assert_eq!(
            tree.first_order_skyline(&[Some(1), Some(1)]).unwrap(),
            vec![20, 30]
        );
        assert_eq!(
            tree.first_order_skyline(&[None, Some(0)]).unwrap(),
            vec![10, 30]
        );
        assert!(tree.first_order_skyline(&[Some(9), None]).is_none());
    }
}
