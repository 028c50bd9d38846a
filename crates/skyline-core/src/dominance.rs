//! Dominance testing under combined numeric and nominal preference orders.

use crate::dataset::Dataset;
use crate::error::{Result, SkylineError};
use crate::order::{PartialOrder, Preference, Template};
use crate::value::PointId;

/// Pairwise dominance testing, implemented by both the reference [`DominanceContext`] and the
/// compiled kernel ([`crate::kernel::CompiledRelation`]).
///
/// The skyline algorithms are generic over this trait, so the same elimination loops run
/// against either implementation: [`crate::algo::sfs::Scan`] through the window methods,
/// [`crate::algo::bnl`] — the test oracle — through [`Dominance::dominates`] alone. The
/// context is the executable specification, the kernel is the fast path, and the
/// `kernel_equivalence` property suite holds the two together.
pub trait Dominance {
    /// Accumulator for the accepted window of an elimination scan.
    ///
    /// Implementations choose their own representation: the reference context keeps plain
    /// point ids, while the compiled kernel copies accepted rows into 64-row lane blocks
    /// ([`crate::kernel::DenseWindow`]) so one pass of mask algebra tests a whole block.
    /// A `Default` window is empty and must be [`reset`](Dominance::reset_window) against
    /// the relation before reuse.
    type Window: Default;

    /// Empties `window` and binds it to this relation's dimensions, keeping its allocations.
    fn reset_window(&self, window: &mut Self::Window);

    /// Appends point `p` to the accepted window.
    fn push_window(&self, window: &mut Self::Window, p: PointId);

    /// Index (in push order) of the first window member dominating `p`, if any.
    ///
    /// The caller guarantees `p` itself was never pushed into `window`. The window is `&mut`
    /// because implementations may keep per-call scratch inside it (the compiled kernel
    /// stages the candidate's nominal keys there); the accepted contents are not modified.
    fn window_first_dominator(&self, window: &mut Self::Window, p: PointId) -> Option<usize>;

    /// True when `p` dominates `q`: `p ⪯ q` on every dimension and `p ≺ q` on at least one.
    fn dominates(&self, p: PointId, q: PointId) -> bool;
}

/// A borrowed relation is a relation: batch scans run on `&D` and owning scans on `D`, with
/// the same monomorphized loop. Every method forwards.
impl<D: Dominance + ?Sized> Dominance for &D {
    type Window = D::Window;

    fn reset_window(&self, window: &mut D::Window) {
        D::reset_window(self, window)
    }

    fn push_window(&self, window: &mut D::Window, p: PointId) {
        D::push_window(self, window, p)
    }

    fn window_first_dominator(&self, window: &mut D::Window, p: PointId) -> Option<usize> {
        D::window_first_dominator(self, window, p)
    }

    fn dominates(&self, p: PointId, q: PointId) -> bool {
        D::dominates(self, p, q)
    }
}

/// A dominance relation `R = (R1, …, Rm)` bound to a dataset.
///
/// Numeric dimensions always use the universal "smaller is better" total order; each nominal
/// dimension `j` uses the strict partial order `orders[j]` (typically the union of the template
/// order and a query's implicit preference, see [`Template::effective_orders`]).
#[derive(Debug, Clone)]
pub struct DominanceContext<'a> {
    data: &'a Dataset,
    orders: Vec<PartialOrder>,
}

impl<'a> DominanceContext<'a> {
    /// Binds per-nominal-dimension orders to a dataset.
    pub fn new(data: &'a Dataset, orders: Vec<PartialOrder>) -> Result<Self> {
        let schema = data.schema();
        if orders.len() != schema.nominal_count() {
            return Err(SkylineError::InvalidArgument(format!(
                "expected {} nominal orders, got {}",
                schema.nominal_count(),
                orders.len()
            )));
        }
        for (j, order) in orders.iter().enumerate() {
            let card = schema.nominal_domain(j).map_or(0, |d| d.cardinality());
            if order.cardinality() != card {
                return Err(SkylineError::InvalidArgument(format!(
                    "order on nominal dimension {j} has cardinality {} but the domain has {card}",
                    order.cardinality()
                )));
            }
        }
        Ok(Self { data, orders })
    }

    /// Builds the context for a template alone (`R`), i.e. the relation every query refines.
    pub fn for_template(data: &'a Dataset, template: &Template) -> Result<Self> {
        Self::new(data, template.orders().to_vec())
    }

    /// Builds the context for a query preference evaluated against a template
    /// (`R ∪ P(R̃′)`).
    pub fn for_query(data: &'a Dataset, template: &Template, query: &Preference) -> Result<Self> {
        let orders = template.effective_orders(data.schema(), query)?;
        Self::new(data, orders)
    }

    /// The dataset this context is bound to.
    pub fn dataset(&self) -> &'a Dataset {
        self.data
    }

    /// The per-nominal-dimension orders of the relation.
    pub fn orders(&self) -> &[PartialOrder] {
        &self.orders
    }

    /// True when `p` dominates `q`: `p ⪯ q` on every dimension and `p ≺ q` on at least one.
    pub fn dominates(&self, p: PointId, q: PointId) -> bool {
        if p == q {
            return false;
        }
        let mut strict = false;
        let schema = self.data.schema();
        for j in 0..schema.numeric_count() {
            let pv = self.data.numeric(p, j);
            let qv = self.data.numeric(q, j);
            if pv > qv {
                return false;
            }
            if pv < qv {
                strict = true;
            }
        }
        for (j, order) in self.orders.iter().enumerate() {
            let pv = self.data.nominal(p, j);
            let qv = self.data.nominal(q, j);
            if pv == qv {
                continue;
            }
            if order.strictly_preferred(pv, qv) {
                strict = true;
            } else {
                return false;
            }
        }
        strict
    }
}

impl Dominance for DominanceContext<'_> {
    /// The reference window is just the accepted point ids.
    type Window = Vec<PointId>;

    fn reset_window(&self, window: &mut Vec<PointId>) {
        window.clear();
    }

    fn push_window(&self, window: &mut Vec<PointId>, p: PointId) {
        window.push(p);
    }

    fn window_first_dominator(&self, window: &mut Vec<PointId>, p: PointId) -> Option<usize> {
        window.iter().position(|&q| self.dominates(q, p))
    }

    #[inline]
    fn dominates(&self, p: PointId, q: PointId) -> bool {
        DominanceContext::dominates(self, p, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::order::ImplicitPreference;
    use crate::schema::{Dimension, Schema};

    /// The vacation packages of Table 1 (price, hotel-class stored negated, hotel-group).
    fn vacation_data() -> Dataset {
        let schema = Schema::new(vec![
            Dimension::numeric("price"),
            Dimension::numeric("class-neg"),
            Dimension::nominal_with_labels("hotel-group", ["T", "H", "M"]),
        ])
        .unwrap();
        let mut b = DatasetBuilder::new(schema);
        for (price, class, group) in [
            (1600.0, 4.0, "T"), // a = 0
            (2400.0, 1.0, "T"), // b = 1
            (3000.0, 5.0, "H"), // c = 2
            (3600.0, 4.0, "H"), // d = 3
            (2400.0, 2.0, "M"), // e = 4
            (3000.0, 3.0, "M"), // f = 5
        ] {
            b.push_row([
                crate::dataset::RowValue::Num(price),
                crate::dataset::RowValue::Num(-class),
                group.into(),
            ])
            .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn dominance_without_nominal_preference() {
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let ctx = DominanceContext::for_template(&data, &template).unwrap();
        // a dominates b (same group, cheaper, better class).
        assert!(ctx.dominates(0, 1));
        assert!(!ctx.dominates(1, 0));
        // c dominates d.
        assert!(ctx.dominates(2, 3));
        // a does not dominate c: different incomparable groups.
        assert!(!ctx.dominates(0, 2));
        assert!(!ctx.dominates(2, 0));
        assert!(!ctx.dominates(4, 4), "a point never dominates itself");
    }

    #[test]
    fn dominance_with_alice_preference() {
        // Alice: T ≺ M ≺ * — her skyline is {a, c} (Table 2), so e and f must be dominated.
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let query = Preference::from_dims(vec![ImplicitPreference::new([0, 2]).unwrap()]);
        let ctx = DominanceContext::for_query(&data, &template, &query).unwrap();
        assert!(
            ctx.dominates(0, 4),
            "a dominates e under Alice's preference"
        );
        assert!(
            ctx.dominates(0, 5),
            "a dominates f under Alice's preference"
        );
        assert!(
            !ctx.dominates(0, 2),
            "c stays incomparable to a (H unlisted)"
        );
        assert!(ctx.dominates(0, 1));
    }

    #[test]
    fn equal_rows_are_equal_not_dominating() {
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::nominal_with_labels("g", ["a", "b"]),
        ])
        .unwrap();
        let data = Dataset::from_columns(schema, vec![vec![1.0, 1.0]], vec![vec![0, 0]]).unwrap();
        let template = Template::empty(data.schema());
        let ctx = DominanceContext::for_template(&data, &template).unwrap();
        assert!(!ctx.dominates(0, 1));
        assert!(!ctx.dominates(1, 0));
    }

    #[test]
    fn context_validates_order_arity_and_cardinality() {
        let data = vacation_data();
        assert!(DominanceContext::new(&data, vec![]).is_err());
        assert!(DominanceContext::new(&data, vec![PartialOrder::empty(7)]).is_err());
        assert!(DominanceContext::new(&data, vec![PartialOrder::empty(3)]).is_ok());
    }

    #[test]
    fn strictness_is_required() {
        // Same nominal value, identical numeric values: no dominance either way.
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::numeric("y"),
            Dimension::nominal_with_labels("g", ["a", "b"]),
        ])
        .unwrap();
        let data = Dataset::from_columns(
            schema,
            vec![vec![1.0, 1.0], vec![2.0, 2.0]],
            vec![vec![0, 1]],
        )
        .unwrap();
        // With preference a ≺ *, point 0 dominates point 1 purely via the nominal dimension.
        let template = Template::empty(data.schema());
        let query = Preference::from_dims(vec![ImplicitPreference::first_order(0)]);
        let ctx = DominanceContext::for_query(&data, &template, &query).unwrap();
        assert!(ctx.dominates(0, 1));
        assert!(!ctx.dominates(1, 0));
        // Without the preference the nominal values are incomparable, so no dominance.
        let ctx = DominanceContext::for_template(&data, &template).unwrap();
        assert!(!ctx.dominates(0, 1));
        assert!(!ctx.dominates(1, 0));
    }
}
