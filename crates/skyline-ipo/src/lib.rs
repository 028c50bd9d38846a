//! # skyline-ipo
//!
//! The **IPO-Tree** (Implicit Preference Order tree) of Section 3 of *"Efficient Skyline
//! Querying with Variable User Preferences on Nominal Attributes"*: a partial materialization
//! of the skylines of all combinations of *first-order* implicit preferences, from which the
//! skyline for an implicit preference of **any** order is assembled with a handful of set
//! operations using the merging property (Theorem 2).
//!
//! * [`tree::IpoTree`] — the materialized structure in its set-based form: one node per
//!   combination of at most one `v ≺ ∗` choice per nominal dimension, storing the set of
//!   template-skyline points that the combination disqualifies. It is what the builder
//!   produces, what the snapshot codec reads and writes, and the form the engine **serves**
//!   from.
//! * [`tree::Materialization`] — which values a tree materializes and under which top-`k`
//!   policy: the one home of the "can the tree answer this?" predicates and of the rebuild
//!   hysteresis, held by both tree forms.
//! * [`build::IpoTreeBuilder`] — construction through minimal disqualifying conditions (the
//!   paper's approach, [`skyline_core::mdc`]), with optional restriction to the `K` most
//!   frequent values per dimension (*IPO Tree-10*).
//! * [`query`] — Algorithms 1 and 2: recursive decomposition into first-order sub-queries and
//!   the merge step that applies Theorem 2 (set-based evaluation over sorted id lists).
//! * [`bitmap::BitmapIpoTree`] — the implementation suggested in §3.2: per-node bitmaps over
//!   the template skyline plus per-dimension inverted lists, so the merge becomes bitwise
//!   AND/OR (two orders of magnitude faster per query than the id lists at `n = 100k`). No
//!   engine holds one yet: it is derived from a set-based tree and compared against it by the
//!   equivalence suites, the ablation bench and the benchmark.
//!
//! Both tree types exist because the benchmark adapter (`benchmark/src/sut.rs`) measures
//! `IpoTree::query` against `BitmapIpoTree::query` by name; serving from the bitmaps and
//! folding the two into one type both start with a PR that moves the benchmark (see
//! `ROADMAP.md`, item 4(a)).
//! * [`storage`] — byte-level accounting used by the storage plots of Figures 4–8.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmap;
pub mod build;
pub mod inverted;
pub mod query;
pub mod setops;
pub mod snapshot;
pub mod storage;
pub mod tree;

pub use bitmap::BitmapIpoTree;
pub use build::{BuildStats, IpoTreeBuilder};
pub use snapshot::{decode_tree, encode_tree};
pub use tree::{IpoTree, Materialization};
