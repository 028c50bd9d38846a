//! # skyline-service
//!
//! A concurrent, cache-backed query service over the engines of the `skyline` facade —
//! the serving layer the paper's premise calls for: *many* users issue implicit-preference
//! skyline queries over the *same* dataset, and popular preferences repeat with the same
//! Zipfian skew as the nominal values themselves.
//!
//! Three pieces:
//!
//! * [`ShardedService`] — *the* service: N dataset shards, each a [`skyline::SharedEngine`]
//!   (the engine is `Send + Sync`, so one preprocessing pass serves every thread), answered
//!   from one global template skyline via [`ShardedService::serve`] /
//!   [`ShardedService::serve_batch`] / [`ShardedService::serve_streaming`]. One shard is the
//!   single-engine case — there is no separate single-engine service (see the [`sharded`]
//!   module docs);
//! * [`cache::ResultCache`] — a sharded LRU keyed on [`skyline_core::CanonicalPreference`],
//!   so semantically equal preferences share one memoized answer;
//! * a worker-pool batch executor on `std::thread` + channels, plus lock-free
//!   [`stats`] (hit rate, p50/p99 latency).
//!
//! ```
//! use skyline::prelude::*;
//! use skyline_service::{GlobalRowId, ShardedConfig, ShardedServed, ShardedService};
//!
//! // Table 1 of the paper, served to a crowd.
//! let schema = Schema::new(vec![
//!     Dimension::numeric("price"),
//!     Dimension::numeric("class-neg"),
//!     Dimension::nominal_with_labels("hotel-group", ["T", "H", "M"]),
//! ]).unwrap();
//! let mut builder = DatasetBuilder::new(schema.clone());
//! for (price, class, group) in [
//!     (1600.0, 4.0, "T"), (2400.0, 1.0, "T"), (3000.0, 5.0, "H"),
//!     (3600.0, 4.0, "H"), (2400.0, 2.0, "M"), (3000.0, 3.0, "M"),
//! ] {
//!     builder.push_row([RowValue::Num(price), RowValue::Num(-class), group.into()]).unwrap();
//! }
//! let data = builder.build().unwrap();
//! let template = Template::empty(&schema);
//! let engine = SkylineEngine::build(data, template, EngineConfig::Hybrid { top_k: 10 }).unwrap();
//! // One engine = one shard. One worker serves the batch in order, so the first query
//! // misses and the other 99 hit its cached answer. With a pool, concurrent identical misses
//! // each run the engine, so the miss count is "up to the worker count", not "one".
//! let service = ShardedService::from_engines(
//!     vec![engine.into()],
//!     ShardedConfig { workers: 1, ..ShardedConfig::default() },
//! ).unwrap();
//! // With one shard, a row's id inside shard 0 is the engine's own row id.
//! let rows = |served: &ShardedServed| -> Vec<PointId> {
//!     served.outcome.skyline.iter().map(|g| g.row).collect()
//! };
//!
//! let alice = Preference::parse(&schema, [("hotel-group", "T < M < *")]).unwrap();
//! let batch: Vec<Preference> = std::iter::repeat(alice.clone()).take(100).collect();
//! let answers = service.serve_batch(&batch);
//! assert!(answers.iter().all(|a| rows(a.as_ref().unwrap()) == vec![0, 2]));
//! // 100 equivalent queries, one engine evaluation.
//! assert_eq!(service.stats().misses, 1);
//! assert_eq!(service.stats().hits, 99);
//!
//! // Dynamic data: a mutation that changes the owning shard's template skyline moves its
//! // skyline epoch, which atomically invalidates every cached result — the next serve
//! // recomputes instead of replaying the stale answer.
//! let tulips = service.insert_row(&[1000.0, -5.0], &[0]).unwrap(); // an even better package
//! assert_eq!(tulips, GlobalRowId { shard: 0, row: 6 });
//! let fresh = service.serve(&alice).unwrap();
//! assert!(!fresh.cache_hit);
//! assert_eq!(rows(&fresh), vec![6]);
//! assert_eq!(service.stats().mutations, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
mod executor;
pub mod faults;
mod maintenance;
pub mod sharded;
pub mod stats;

pub use admission::{AdmissionPermit, AdmissionQueue};
pub use cache::ResultCache;
pub use faults::FaultInjector;
pub use sharded::{
    DegradePolicy, GlobalRowId, RecoveryPolicy, ShardPartition, ShardedConfig, ShardedOutcome,
    ShardedServed, ShardedService, ShardedStream,
};
pub use stats::{ServiceMetrics, StatsSnapshot};
