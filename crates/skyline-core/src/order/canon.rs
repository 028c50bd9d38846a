//! Canonical preference keys for result caching.
//!
//! A served skyline system (millions of users, one shared dataset) answers many queries that
//! are *textually* different but *semantically* identical: two implicit preferences induce the
//! same strict partial order — and therefore the same skyline — even when they are written
//! differently. [`CanonicalPreference`] maps every [`Preference`] to a stable, hashable key
//! such that two preferences get the same key **iff** they induce the same per-dimension
//! partial orders over the schema's nominal domains. Result caches key on it.
//!
//! Two normalizations are applied per dimension:
//!
//! * **Full-list truncation.** When the choice list covers the whole domain
//!   (`order == cardinality`), the last listed value is implied: `v1 ≺ … ≺ v_{k-1} ≺ v_k ≺ ∗`
//!   and `v1 ≺ … ≺ v_{k-1} ≺ ∗` are the same total order. The trailing value is dropped
//!   (so on a cardinality-1 domain, listing the single value is equivalent to `∗`).
//! * **Edge-order independence.** Implicit choice lists are already a canonical edge listing
//!   of their induced partial order, so no further work is needed; the derived
//!   [`PartialOrder`](crate::order::PartialOrder) pair sets would compare equal in any
//!   listing order.
//!
//! The 64-bit fingerprint is computed with FNV-1a over the normalized lists, so it is stable
//! across processes, platforms and releases — safe to persist or shard on.

use crate::error::Result;
use crate::order::Preference;
use crate::schema::Schema;
use crate::value::ValueId;
use std::hash::{Hash, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, byte: u8) {
    *hash ^= u64::from(byte);
    *hash = hash.wrapping_mul(FNV_PRIME);
}

fn fnv1a_u16(hash: &mut u64, v: u16) {
    for byte in v.to_le_bytes() {
        fnv1a(hash, byte);
    }
}

/// A canonical, hashable key for a [`Preference`] over a given [`Schema`].
///
/// Equality means "induces the same per-dimension partial orders"; the precomputed
/// [`CanonicalPreference::fingerprint`] is a stable 64-bit hash of the normalized form
/// (collisions are resolved by the full `Eq` comparison, as in any hash map).
///
/// ```
/// use skyline_core::{CanonicalPreference, Dimension, Preference, Schema};
///
/// let schema = Schema::new(vec![
///     Dimension::numeric("price"),
///     Dimension::nominal_with_labels("hotel-group", ["T", "H"]),
/// ]).unwrap();
/// // On a two-value domain, `T < H < *` and `T < *` are the same partial order.
/// let a = Preference::parse(&schema, [("hotel-group", "T < H < *")]).unwrap();
/// let b = Preference::parse(&schema, [("hotel-group", "T < *")]).unwrap();
/// assert_ne!(a, b);
/// assert_eq!(
///     CanonicalPreference::new(&schema, &a).unwrap(),
///     CanonicalPreference::new(&schema, &b).unwrap(),
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalPreference {
    dims: Vec<Vec<ValueId>>,
    fingerprint: u64,
}

impl CanonicalPreference {
    /// Canonicalizes `pref` against `schema` (which supplies the domain cardinalities).
    ///
    /// Fails when the preference does not validate against the schema (wrong arity or a value
    /// outside its domain).
    pub fn new(schema: &Schema, pref: &Preference) -> Result<Self> {
        pref.validate(schema)?;
        let mut dims = Vec::with_capacity(pref.nominal_count());
        for (j, dim_pref) in pref.dims().iter().enumerate() {
            let cardinality = schema.nominal_domain(j).map_or(0, |d| d.cardinality());
            let mut choices = dim_pref.choices().to_vec();
            // A list covering the whole domain pins its last value by elimination.
            if choices.len() == cardinality {
                choices.pop();
            }
            dims.push(choices);
        }
        let mut fingerprint = FNV_OFFSET;
        for dim in &dims {
            // Length prefix keeps `[1],[2]` and `[1,2],[]` from colliding structurally.
            fnv1a_u16(&mut fingerprint, dim.len() as u16);
            for &v in dim {
                fnv1a_u16(&mut fingerprint, v);
            }
        }
        Ok(Self { dims, fingerprint })
    }

    /// The normalized per-dimension choice lists.
    pub fn dims(&self) -> &[Vec<ValueId>] {
        &self.dims
    }

    /// The stable 64-bit FNV-1a fingerprint of the normalized form.
    ///
    /// Equal keys always have equal fingerprints; the converse holds up to hash collisions, so
    /// use the fingerprint for sharding and the full key for map lookups.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl Hash for CanonicalPreference {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::ImplicitPreference;
    use crate::schema::Dimension;
    use std::collections::HashMap;

    fn schema() -> Schema {
        Schema::new(vec![
            Dimension::numeric("price"),
            Dimension::nominal_with_labels("hotel-group", ["T", "H", "M"]),
            Dimension::nominal_with_labels("airline", ["G", "R"]),
        ])
        .unwrap()
    }

    #[test]
    fn equal_preferences_share_a_key() {
        let schema = schema();
        let p = Preference::parse(&schema, [("hotel-group", "M < H < *")]).unwrap();
        let a = CanonicalPreference::new(&schema, &p).unwrap();
        let b = CanonicalPreference::new(&schema, &p.clone()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn full_domain_lists_drop_the_implied_tail() {
        let schema = schema();
        // airline has cardinality 2: `G < R < *` ≡ `G < *`.
        let long = Preference::parse(&schema, [("airline", "G < R < *")]).unwrap();
        let short = Preference::parse(&schema, [("airline", "G < *")]).unwrap();
        assert_ne!(long, short);
        let a = CanonicalPreference::new(&schema, &long).unwrap();
        let b = CanonicalPreference::new(&schema, &short).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.dims()[1], vec![0]);
        // hotel-group has cardinality 3: `M < H < *` keeps both values.
        let three = Preference::parse(&schema, [("hotel-group", "M < H < *")]).unwrap();
        let key = CanonicalPreference::new(&schema, &three).unwrap();
        assert_eq!(key.dims()[0], vec![2, 1]);
    }

    #[test]
    fn different_orders_get_different_keys() {
        let schema = schema();
        let cases = [
            vec![("hotel-group", "T < *")],
            vec![("hotel-group", "H < *")],
            vec![("hotel-group", "T < H < *")],
            vec![("hotel-group", "H < T < *")],
            vec![("hotel-group", "T < *"), ("airline", "G < *")],
            vec![("airline", "G < *")],
            vec![],
        ];
        let keys: Vec<CanonicalPreference> = cases
            .iter()
            .map(|spec| {
                let pref = Preference::parse(&schema, spec.clone()).unwrap();
                CanonicalPreference::new(&schema, &pref).unwrap()
            })
            .collect();
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "cases {i} and {j} must not collide");
                }
            }
        }
    }

    #[test]
    fn length_prefix_prevents_structural_collisions() {
        let schema = schema();
        // `[1] on dim 0, [] on dim 1` vs `[] on dim 0, [1] on dim 1`.
        let a = Preference::from_dims(vec![
            ImplicitPreference::new([1]).unwrap(),
            ImplicitPreference::none(),
        ]);
        let b = Preference::from_dims(vec![
            ImplicitPreference::none(),
            ImplicitPreference::new([1]).unwrap(),
        ]);
        let ka = CanonicalPreference::new(&schema, &a).unwrap();
        let kb = CanonicalPreference::new(&schema, &b).unwrap();
        assert_ne!(ka, kb);
        assert_ne!(ka.fingerprint(), kb.fingerprint());
    }

    #[test]
    fn fingerprint_is_stable_across_builds() {
        // Guards the on-disk/cross-process stability contract: this constant may only change
        // with an intentional cache-format bump.
        let schema = schema();
        let pref = Preference::parse(
            &schema,
            [("hotel-group", "M < H < *"), ("airline", "R < *")],
        )
        .unwrap();
        let key = CanonicalPreference::new(&schema, &pref).unwrap();
        let mut expected = FNV_OFFSET;
        fnv1a_u16(&mut expected, 2);
        fnv1a_u16(&mut expected, 2);
        fnv1a_u16(&mut expected, 1);
        fnv1a_u16(&mut expected, 1);
        fnv1a_u16(&mut expected, 1);
        assert_eq!(key.fingerprint(), expected);
    }

    #[test]
    fn invalid_preferences_are_rejected() {
        let schema = schema();
        let wrong_arity = Preference::none(1);
        assert!(CanonicalPreference::new(&schema, &wrong_arity).is_err());
        let out_of_domain = Preference::none(2).with_dim(0, ImplicitPreference::new([9]).unwrap());
        assert!(CanonicalPreference::new(&schema, &out_of_domain).is_err());
    }

    #[test]
    fn usable_as_a_hash_map_key() {
        let schema = schema();
        let mut map: HashMap<CanonicalPreference, usize> = HashMap::new();
        let a = Preference::parse(&schema, [("airline", "G < R < *")]).unwrap();
        let b = Preference::parse(&schema, [("airline", "G < *")]).unwrap();
        map.insert(CanonicalPreference::new(&schema, &a).unwrap(), 1);
        // The equivalent preference overwrites the same slot.
        map.insert(CanonicalPreference::new(&schema, &b).unwrap(), 2);
        assert_eq!(map.len(), 1);
        assert_eq!(map[&CanonicalPreference::new(&schema, &a).unwrap()], 2);
    }
}
