//! Cooperative query budgets: deadlines and check limits.
//!
//! A [`Budget`] is threaded through the hot loops of the search
//! algorithms and BiG-index's specialization / answer-generation
//! pipeline so a long-running query can be abandoned mid-flight — the
//! serving layer (`bgi-service`) uses it to enforce per-request
//! deadlines without preemption. Checks are *cooperative*: each loop
//! calls [`Budget::is_exhausted`] (or the `Result`-flavoured
//! [`Budget::check`]) at its head, and the clock read is amortized over
//! [`CHECK_PERIOD`] calls so an unlimited budget costs two branch
//! predictions per iteration.
//!
//! A budget combines two independent stop conditions:
//!
//! - a **deadline** (`Instant`), for per-query timeouts; and
//! - a **check limit** (a deterministic op-count), for reproducible
//!   partial runs — the anytime-search tests and bounded wrap-up slices
//!   use it because wall-clock deadlines are nondeterministic.
//!
//! Budgets are cheap to clone and are owned by one worker thread at a
//! time (the amortization counter is a `Cell`, so `Budget` is `Send`
//! but deliberately not `Sync`; fan one out through a [`BudgetSeed`]).

use std::cell::Cell;
use std::time::{Duration, Instant};

/// How many exhaustion checks share one `Instant::now()` read.
///
/// Once a budget observes exhaustion it latches, so the worst case is
/// overshooting a deadline by `CHECK_PERIOD` loop iterations.
pub const CHECK_PERIOD: u32 = 64;

/// The error a budgeted operation returns when its budget ran out.
///
/// Deliberately carries no payload. Best-effort partial results
/// travel in the `Ok` arm: `KeywordSearch::search_anytime` and every
/// stage of Algo. 2 return them with an explicit `Completeness`
/// marker instead of this error. `Interrupted` therefore means
/// "nothing usable was produced before the budget ran out".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupted;

impl std::fmt::Display for Interrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("query interrupted: budget exhausted (deadline or check limit)")
    }
}

impl std::error::Error for Interrupted {}

/// A `Sync` snapshot of a [`Budget`]'s stop conditions, for fanning a
/// single request's budget out across worker threads.
///
/// `Budget` itself is `Send` but not `Sync` (its amortization counter
/// is a `Cell`), so a scatter–gather executor cannot share one budget
/// between legs. A seed captures the *conditions* — deadline and
/// remaining check limit — without the per-thread counters, and
/// [`BudgetSeed::budget`] mints a fresh budget per leg. All legs
/// observe the same absolute deadline; a check limit is copied per leg
/// (each leg gets the full remaining count), which preserves
/// determinism per leg.
#[derive(Debug, Clone, Default)]
pub struct BudgetSeed {
    deadline: Option<Instant>,
    checks: Option<u64>,
}

impl BudgetSeed {
    /// Mints a fresh [`Budget`] with this seed's stop conditions.
    pub fn budget(&self) -> Budget {
        Budget {
            deadline: self.deadline,
            checks_left: self.checks.map(Cell::new),
            countdown: Cell::new(0),
            expired: Cell::new(false),
        }
    }
}

/// A cooperative execution budget: optional deadline plus optional
/// check limit.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    // Checks remaining before a check-limited budget exhausts; `None`
    // disables the limit. Cloning copies the *remaining* count — clones
    // do not share the counter.
    checks_left: Option<Cell<u64>>,
    // Calls remaining until the next clock read; starts at 0 so the
    // very first check always consults the clock (a 0 ms deadline must
    // trip immediately).
    countdown: Cell<u32>,
    // Latched once exhaustion is observed: checks after the first hit
    // are branch-only.
    expired: Cell<bool>,
}

impl Budget {
    /// A budget that never runs out (the default).
    pub const fn unlimited() -> Self {
        Budget {
            deadline: None,
            checks_left: None,
            countdown: Cell::new(0),
            expired: Cell::new(false),
        }
    }

    /// A budget expiring `timeout` from now. A zero timeout is already
    /// expired — the first check fails.
    pub fn with_timeout(timeout: Duration) -> Self {
        // Saturate rather than wrap on absurd timeouts.
        match Instant::now().checked_add(timeout) {
            Some(at) => Self::with_deadline(at),
            None => Self::unlimited(),
        }
    }

    /// A budget expiring at the absolute instant `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        Budget {
            deadline: Some(deadline),
            ..Self::unlimited()
        }
    }

    /// A deterministic budget that exhausts after `checks` calls to
    /// [`Budget::is_exhausted`] (a zero limit is already expired — the
    /// first check fails).
    ///
    /// Unlike a wall-clock deadline this stop condition is exactly
    /// reproducible, which is what the anytime-search property tests
    /// (quality monotone in budget) and bounded wrap-up slices need.
    pub fn with_check_limit(checks: u64) -> Self {
        Budget {
            checks_left: Some(Cell::new(checks)),
            ..Self::unlimited()
        }
    }

    /// A fresh op-limited budget for bounded *wrap-up* work after this
    /// budget exhausted: it replaces the deadline with a deterministic
    /// limit of `checks` exhaustion checks, so best-effort
    /// materialization overshoots a deadline by a bounded op count
    /// rather than stopping with nothing.
    pub fn grace(&self, checks: u64) -> Budget {
        Budget::with_check_limit(checks)
    }

    /// Captures this budget's stop conditions as a `Sync` [`BudgetSeed`]
    /// so they can be shared across scatter–gather worker threads. The
    /// seed copies the *remaining* check count, not the original limit.
    pub fn seed(&self) -> BudgetSeed {
        BudgetSeed {
            deadline: self.deadline,
            checks: self.checks_left.as_ref().map(Cell::get),
        }
    }

    /// Cooperative check: true once the deadline passed or the check
    /// limit ran out. Amortizes clock reads over [`CHECK_PERIOD`]
    /// calls; once exhausted, stays exhausted.
    pub fn is_exhausted(&self) -> bool {
        if self.expired.get() {
            return true;
        }
        if let Some(left) = &self.checks_left {
            let n = left.get();
            if n == 0 {
                self.expired.set(true);
                return true;
            }
            left.set(n - 1);
        }
        if let Some(deadline) = self.deadline {
            let left = self.countdown.get();
            if left == 0 {
                self.countdown.set(CHECK_PERIOD);
                if Instant::now() >= deadline {
                    self.expired.set(true);
                    return true;
                }
            } else {
                self.countdown.set(left - 1);
            }
        }
        false
    }

    /// Like [`Budget::is_exhausted`] but reads the clock unconditionally
    /// — for coarse checkpoints (phase boundaries) where amortization
    /// would delay detection by a whole phase.
    pub fn is_exhausted_now(&self) -> bool {
        self.countdown.set(0);
        self.is_exhausted()
    }

    /// `Result`-flavoured [`Budget::is_exhausted`] for `?` threading.
    pub fn check(&self) -> Result<(), Interrupted> {
        if self.is_exhausted() {
            Err(Interrupted)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            assert!(!b.is_exhausted());
        }
        assert!(b.check().is_ok());
    }

    #[test]
    fn zero_timeout_trips_on_first_check() {
        let b = Budget::with_timeout(Duration::ZERO);
        assert!(b.is_exhausted());
        assert_eq!(b.check(), Err(Interrupted));
    }

    #[test]
    fn exhaustion_latches() {
        let b = Budget::with_timeout(Duration::ZERO);
        assert!(b.is_exhausted());
        // Stays exhausted on every subsequent check.
        for _ in 0..100 {
            assert!(b.is_exhausted());
        }
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let b = Budget::with_timeout(Duration::from_secs(3600));
        for _ in 0..1000 {
            assert!(!b.is_exhausted());
        }
    }

    #[test]
    fn amortization_still_catches_deadline() {
        let b = Budget::with_timeout(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(10));
        // Within CHECK_PERIOD calls the clock must be consulted.
        let tripped = (0..=CHECK_PERIOD).any(|_| b.is_exhausted());
        assert!(tripped);
    }

    #[test]
    fn exhausted_now_bypasses_amortization() {
        let b = Budget::with_timeout(Duration::from_millis(2));
        assert!(!b.is_exhausted()); // consumes the first clock read
        std::thread::sleep(Duration::from_millis(5));
        assert!(b.is_exhausted_now());
    }

    #[test]
    fn check_limit_is_deterministic() {
        let b = Budget::with_check_limit(5);
        for _ in 0..5 {
            assert!(!b.is_exhausted());
        }
        assert!(b.is_exhausted());
        assert!(b.is_exhausted(), "exhaustion latches");

        // A zero limit trips on the first check, like a zero timeout.
        assert!(Budget::with_check_limit(0).is_exhausted());
    }

    #[test]
    fn grace_budget_drops_the_deadline() {
        let b = Budget::with_timeout(Duration::ZERO);
        assert!(b.is_exhausted());
        let g = b.grace(10);
        // The grace slice is fresh: the parent's expiry does not carry
        // over, and the op limit replaces the deadline.
        for _ in 0..10 {
            assert!(!g.is_exhausted());
        }
        assert!(g.is_exhausted());
    }

    #[test]
    fn seed_reproduces_conditions_across_threads() {
        let seed = Budget::with_check_limit(3).seed();
        // Seeds are Sync: usable from a scoped worker thread.
        std::thread::scope(|s| {
            let seed_ref = &seed;
            s.spawn(move || {
                let leg = seed_ref.budget();
                for _ in 0..3 {
                    assert!(!leg.is_exhausted());
                }
                assert!(leg.is_exhausted(), "check limit carries into the leg");
            });
        });
        // Seeding after partial consumption copies the remaining count.
        let c = Budget::with_check_limit(5);
        assert!(!c.is_exhausted());
        assert!(!c.is_exhausted());
        let leg = c.seed().budget();
        for _ in 0..3 {
            assert!(!leg.is_exhausted());
        }
        assert!(leg.is_exhausted());
    }

    #[test]
    fn clone_does_not_share_the_latch() {
        let a = Budget::with_check_limit(1);
        let b = a.clone();
        assert!(!a.is_exhausted());
        assert!(a.is_exhausted());
        // The clone kept its own count and its own latch.
        assert!(!b.is_exhausted());
        assert!(b.is_exhausted());
    }
}
