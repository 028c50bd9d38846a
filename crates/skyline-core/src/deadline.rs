//! Per-request deadlines and cooperative cancellation.
//!
//! A serving layer that promises tail-latency bounds needs every expensive loop to be
//! interruptible: a query that will blow its budget should stop *mid-scan* and release its
//! worker, not run to completion and then be discarded. [`Deadline`] is the token the
//! service threads through batch execution, the sharded scatter and down into the
//! elimination scans, which poll it at **block granularity** (once per
//! [`DEADLINE_CHECK_INTERVAL`] candidates — one packed 64-lane window block), so the cost of
//! the check is amortized over thousands of dominance tests.
//!
//! Cancellation is *cooperative*: an expired deadline makes the next poll return
//! [`SkylineError::DeadlineExceeded`], the scan unwinds normally via `?`, and every
//! invariant (caches, build latches, locks) is released on the ordinary error path —
//! nothing is poisoned, nothing partial is published.

use crate::error::{Result, SkylineError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scan loops poll the deadline every this many candidates — the packed kernel's 64-lane
/// window block, so one wall-clock read is amortized over a full block of dominance tests.
pub const DEADLINE_CHECK_INTERVAL: usize = 64;

/// A shared cancellation flag: cloning hands the same flag to another thread, and
/// [`CancelToken::cancel`] makes every [`Deadline`] carrying a clone report expiry on its
/// next poll. Useful for "user closed the connection" style aborts that have no time bound.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fires the token: every deadline carrying a clone of it is now expired.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether [`CancelToken::cancel`] has been called (on this clone or any other).
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// A per-request time budget plus optional cancel token, checked cooperatively.
///
/// `Deadline::none()` (the default) never expires and its polls compile down to two branch
/// checks — the unbounded path costs nothing measurable. Deadlines are `Clone` and cheap to
/// pass by reference through every layer of a query.
#[derive(Debug, Clone, Default)]
pub struct Deadline {
    at: Option<Instant>,
    cancel: Option<CancelToken>,
}

impl Deadline {
    /// No time bound and no cancel token: polls always pass.
    pub fn none() -> Self {
        Self::default()
    }

    /// Expires `budget` from now.
    pub fn within(budget: Duration) -> Self {
        Self {
            at: Some(Instant::now() + budget),
            cancel: None,
        }
    }

    /// Expires at `at`.
    pub fn at(at: Instant) -> Self {
        Self {
            at: Some(at),
            cancel: None,
        }
    }

    /// Attaches a cancel token: the deadline also expires when the token fires.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Whether this deadline can ever expire (false for [`Deadline::none`]).
    pub fn is_bounded(&self) -> bool {
        self.at.is_some() || self.cancel.is_some()
    }

    /// Polls the deadline: true once the time budget is spent or the cancel token fired.
    #[inline]
    pub fn expired(&self) -> bool {
        if let Some(cancel) = &self.cancel {
            if cancel.is_cancelled() {
                return true;
            }
        }
        match self.at {
            Some(at) => Instant::now() >= at,
            None => false,
        }
    }

    /// Polls the deadline as a `Result`: [`SkylineError::DeadlineExceeded`] once expired.
    /// This is the check the scan loops call at block granularity.
    #[inline]
    pub fn check(&self) -> Result<()> {
        if self.expired() {
            Err(SkylineError::DeadlineExceeded)
        } else {
            Ok(())
        }
    }

    /// Time left before expiry: `None` for an unbounded deadline, `Some(ZERO)` once expired
    /// (also when only the cancel token fired). The service uses this to bound how long a
    /// miss may wait on another's build of its global template skyline.
    pub fn remaining(&self) -> Option<Duration> {
        if let Some(cancel) = &self.cancel {
            if cancel.is_cancelled() {
                return Some(Duration::ZERO);
            }
        }
        self.at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_deadline_never_expires() {
        let d = Deadline::none();
        assert!(!d.is_bounded());
        assert!(!d.expired());
        assert!(d.check().is_ok());
        assert_eq!(d.remaining(), None);
    }

    #[test]
    fn elapsed_budget_expires() {
        let d = Deadline::within(Duration::ZERO);
        assert!(d.is_bounded());
        assert!(d.expired());
        assert_eq!(d.check(), Err(SkylineError::DeadlineExceeded));
        assert_eq!(d.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn generous_budget_passes() {
        let d = Deadline::within(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.check().is_ok());
        assert!(d.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn cancel_token_fires_across_clones() {
        let token = CancelToken::new();
        let d = Deadline::within(Duration::from_secs(3600)).with_cancel(token.clone());
        let d2 = Deadline::none().with_cancel(token.clone());
        assert!(!d.expired());
        assert!(!d2.expired());
        token.cancel();
        assert!(token.is_cancelled());
        assert!(d.expired());
        assert!(
            d2.expired(),
            "a tokened deadline without a time bound still cancels"
        );
        assert_eq!(d.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn explicit_instant_deadline() {
        let d = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(d.expired());
        let d = Deadline::at(Instant::now() + Duration::from_secs(60));
        assert!(!d.expired());
    }
}
