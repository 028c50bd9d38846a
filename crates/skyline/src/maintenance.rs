//! When a generation rebuild — physical compaction with row-id remapping plus IPO
//! re-materialization — is worth paying for: the [`MaintenancePolicy`].
//!
//! Production skyline systems treat index maintenance as a lifecycle concern rather than a
//! foreground cost: mutations stay cheap in-place updates, and background threads
//! periodically fold the accumulated tombstones and stale materializations back into a
//! fresh, compact generation. A rebuild is exactly the three steps of
//! [`SharedEngine::rebuild_now`](crate::SharedEngine::rebuild_now): snapshot under the write
//! lock (microseconds), build with **no lock held** (readers are never blocked on a build),
//! swap atomically. Mutations that land mid-build are replayed onto the new generation
//! before the swap. The threads that run it belong to the `skyline-service` crate's
//! `ShardedService`, which evaluates this policy on every shard.

use std::time::Duration;

/// When a background worker should rebuild an engine's generation.
///
/// Two debts accumulate under sustained writes, and each has a knob:
///
/// * **memory** — tombstoned rows still physically occupy the dataset and block until a
///   compaction reclaims them: [`MaintenancePolicy::dead_row_ratio`];
/// * **latency** — a mutated hybrid engine abandons its IPO tree and serves every query from
///   the slower Adaptive-SFS fallback until the tree is re-materialized:
///   [`MaintenancePolicy::max_mutations_since_rebuild`].
#[derive(Debug, Clone, PartialEq)]
pub struct MaintenancePolicy {
    /// Rebuild when at least this fraction of the dataset's rows are tombstoned (and at least
    /// one is). `1.0` effectively disables the ratio trigger.
    pub dead_row_ratio: f64,
    /// Rebuild when this many epoch-bumping mutations have been applied since the last swap
    /// (or the build). For a hybrid engine this bounds how long queries stay on the fallback
    /// path; `1` re-materializes after every mutation burst, `u64::MAX` disables the trigger.
    pub max_mutations_since_rebuild: u64,
    /// The build scheduler's one heartbeat: how often it wakes to evaluate the policy on
    /// every shard when no mutation nudges it.
    pub poll_interval: Duration,
}

impl Default for MaintenancePolicy {
    fn default() -> Self {
        Self {
            dead_row_ratio: 0.25,
            max_mutations_since_rebuild: 4096,
            poll_interval: Duration::from_millis(100),
        }
    }
}

impl MaintenancePolicy {
    /// True when the engine's accumulated debt crosses either threshold. An engine with a
    /// rebuild already in flight is never due.
    pub fn due(&self, engine: &crate::SkylineEngine) -> bool {
        if engine.rebuild_in_flight() {
            return false;
        }
        let data = engine.dataset();
        let dead_due = data.dead_count() > 0 && data.dead_ratio() >= self.dead_row_ratio;
        let mutation_due = engine.mutations_since_rebuild() >= self.max_mutations_since_rebuild
            && engine.mutations_since_rebuild() > 0;
        dead_due || mutation_due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, SharedEngine, SkylineEngine};
    use skyline_core::{Dataset, Dimension, NominalDomain, Schema, Template};
    use std::sync::Arc;

    fn shared(config: EngineConfig) -> SharedEngine {
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::nominal("g", NominalDomain::anonymous(3)),
        ])
        .unwrap();
        let mut data = Dataset::empty(schema.clone());
        for (x, g) in [(3.0, 0), (2.0, 1), (1.0, 2), (5.0, 0), (4.0, 1)] {
            data.push_row_ids(&[x], &[g]).unwrap();
        }
        let template = Template::empty(&schema);
        SharedEngine::new(SkylineEngine::build(Arc::new(data), template, config).unwrap())
    }

    #[test]
    fn policy_triggers_on_either_threshold() {
        let policy = MaintenancePolicy {
            dead_row_ratio: 0.3,
            max_mutations_since_rebuild: 3,
            ..MaintenancePolicy::default()
        };
        let engine = shared(EngineConfig::AdaptiveSfs);
        assert!(!policy.due(&engine.read()), "fresh engines owe nothing");

        // One delete: 1/5 dead < 0.3, 1 mutation < 3 → not due.
        engine.write().delete_row(0).unwrap();
        assert!(!policy.due(&engine.read()));
        // Second delete crosses the dead-row ratio (2/5 ≥ 0.3).
        engine.write().delete_row(1).unwrap();
        assert!(policy.due(&engine.read()));

        // A swap clears the debt.
        engine.rebuild_now().unwrap();
        assert!(!policy.due(&engine.read()));

        // Pure inserts never add dead rows but do cross the mutation threshold.
        for _ in 0..3 {
            engine.write().insert_row(&[9.0], &[0]).unwrap();
        }
        assert!(policy.due(&engine.read()));
    }

    #[test]
    fn policy_ignores_in_flight_engines() {
        let policy = MaintenancePolicy {
            max_mutations_since_rebuild: 1,
            ..MaintenancePolicy::default()
        };
        let engine = shared(EngineConfig::AdaptiveSfs);
        engine.write().delete_row(0).unwrap();
        assert!(policy.due(&engine.read()));
        let _snapshot = engine.write().begin_rebuild().unwrap();
        assert!(
            !policy.due(&engine.read()),
            "one rebuild in flight is enough"
        );
        assert!(
            engine.rebuild_now().unwrap().is_none(),
            "a second rebuild skips instead of failing"
        );
        engine.write().abort_rebuild();
        assert!(policy.due(&engine.read()));
    }
}
