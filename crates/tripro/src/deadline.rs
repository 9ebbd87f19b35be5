//! Cooperative deadlines and cancellation for query execution.
//!
//! A long-lived service cannot let an expiring request keep paying for
//! higher-LOD decode: the Filter-Progressive-Refine ladder makes the natural
//! preemption points explicit — *between refinement rounds* every candidate
//! is in a consistent P1/P2 early-out state, so stopping there loses no
//! already-bought work and never yields a wrong (partial) answer, only a
//! typed [`Error::DeadlineExceeded`].
//!
//! [`Deadline`] carries an optional wall-clock expiry plus an optional
//! shared cancel flag (used by graceful server shutdown to abandon queued
//! work). It is threaded through [`QueryConfig`](crate::QueryConfig) so
//! every `Engine::*_one` refinement loop and the point-containment ladder
//! can poll it without new method signatures.

use crate::error::{Error, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative deadline/cancellation token.
///
/// Cheap to clone (an `Option<Instant>` plus an `Option<Arc>`); the default
/// token never expires and is never cancelled, so existing callers pay one
/// branch per refinement round.
#[derive(Debug, Clone, Default)]
pub struct Deadline {
    /// Absolute expiry; `None` = unbounded.
    at: Option<Instant>,
    /// Shared cancel flag; `None` = not cancellable.
    cancel: Option<Arc<AtomicBool>>,
}

impl Deadline {
    /// A token that never expires.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// A token expiring at the absolute instant `at`.
    #[must_use]
    pub fn at(at: Instant) -> Self {
        Self {
            at: Some(at),
            cancel: None,
        }
    }

    /// A token expiring `budget` from now. `Duration::ZERO` yields a token
    /// that is already expired — useful for shed-everything tests.
    #[must_use]
    pub fn within(budget: Duration) -> Self {
        Self::at(Instant::now() + budget)
    }

    /// Attach a shared cancel flag (e.g. a server's shutdown flag). The
    /// token reports expiry as soon as the flag is raised, regardless of
    /// the wall clock.
    #[must_use]
    pub fn with_cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Is this token past its deadline or cancelled?
    #[must_use]
    pub fn is_over(&self) -> bool {
        if let Some(flag) = &self.cancel {
            // ORDERING: Relaxed — cancellation is level-triggered and
            // re-polled at every refinement step; no data is transferred
            // under the flag, so a stale read only delays the stop by one
            // poll interval.
            if flag.load(Ordering::Relaxed) {
                return true;
            }
        }
        match self.at {
            Some(at) => Instant::now() >= at,
            None => false,
        }
    }

    /// Does this token bound execution at all (deadline or cancel flag)?
    #[must_use]
    pub fn is_bounded(&self) -> bool {
        self.at.is_some() || self.cancel.is_some()
    }

    /// Time left before expiry: `None` for unbounded tokens, `Some(ZERO)`
    /// once expired.
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// Checkpoint: `Err(Error::DeadlineExceeded)` once over, `Ok(())`
    /// otherwise. Called between LOD refinement rounds.
    pub fn check(&self) -> Result<()> {
        if self.is_over() {
            Err(Error::DeadlineExceeded)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_expires() {
        let d = Deadline::none();
        assert!(!d.is_over());
        assert!(!d.is_bounded());
        assert!(d.check().is_ok());
        assert_eq!(d.remaining(), None);
    }

    #[test]
    fn zero_budget_is_already_over() {
        let d = Deadline::within(Duration::ZERO);
        assert!(d.is_over());
        assert!(matches!(d.check(), Err(Error::DeadlineExceeded)));
        assert_eq!(d.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn generous_budget_is_live() {
        let d = Deadline::within(Duration::from_secs(3600));
        assert!(!d.is_over());
        assert!(d.is_bounded());
        assert!(d.remaining().is_some_and(|r| r > Duration::from_secs(3599)));
    }

    #[test]
    fn cancel_flag_overrides_clock() {
        let flag = Arc::new(AtomicBool::new(false));
        let d = Deadline::within(Duration::from_secs(3600)).with_cancel(Arc::clone(&flag));
        assert!(!d.is_over());
        flag.store(true, Ordering::Relaxed);
        assert!(d.is_over());
        // Clones share the flag.
        let d2 = d.clone();
        assert!(d2.is_over());
    }

    #[test]
    fn cancel_only_token_is_bounded() {
        let flag = Arc::new(AtomicBool::new(false));
        let d = Deadline::none().with_cancel(flag);
        assert!(d.is_bounded());
        assert!(!d.is_over());
        assert_eq!(d.remaining(), None);
    }
}
