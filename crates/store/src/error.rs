//! Typed store errors and the transient-I/O retry policy.

use std::io;
use std::time::Duration;

/// Why a store operation failed. Recovery never panics on bad data —
/// every on-disk defect maps to one of these.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O operation failed. [`StoreError::is_transient`] tells the
    /// loader whether retrying makes sense.
    Io {
        /// What the store was doing (path and operation).
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// A generation's data failed checksum, framing, or structural
    /// validation. The generation is quarantined, not served.
    Corrupt {
        /// The offending generation number.
        generation: u64,
        /// What exactly did not hold.
        detail: String,
    },
    /// A generation is intact but was written in another codec version
    /// (by an older or newer build). Quarantined, not served: its files
    /// are never parsed under this build's layout.
    UnsupportedVersion {
        /// The offending generation number.
        generation: u64,
        /// The version its manifest was written with.
        found: u16,
    },
    /// A generation directory has no committed `MANIFEST` — the writer
    /// crashed mid-save. Quarantined, not served.
    Partial {
        /// The offending generation number.
        generation: u64,
    },
    /// The decoded index failed the `bgi-verify` invariant suite.
    VerifyFailed {
        /// The offending generation number.
        generation: u64,
        /// Total invariant violations reported.
        violations: usize,
    },
    /// The write-ahead log holds a committed record that is internally
    /// inconsistent (e.g. a sequence number going backwards) or was
    /// written in another codec version — not a torn tail, which replay
    /// tolerates and cuts off, but a log this build must not touch.
    WalCorrupt {
        /// What exactly did not hold.
        detail: String,
    },
    /// No complete, verifiable generation exists in the store.
    NoGeneration,
    /// A fault-injection point fired a simulated crash. Only produced
    /// under test harnesses; the on-disk state is exactly what a real
    /// crash at that instant would leave.
    Injected {
        /// The failpoint label that fired.
        label: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { context, source } => write!(f, "I/O error {context}: {source}"),
            StoreError::Corrupt { generation, detail } => {
                write!(f, "generation {generation} is corrupt: {detail}")
            }
            StoreError::UnsupportedVersion { generation, found } => write!(
                f,
                "generation {generation} is in codec version {found}, this build reads {}",
                crate::codec::VERSION
            ),
            StoreError::Partial { generation } => {
                write!(f, "generation {generation} has no committed manifest")
            }
            StoreError::VerifyFailed {
                generation,
                violations,
            } => write!(
                f,
                "generation {generation} failed index verification with \
                 {violations} invariant violation(s)"
            ),
            StoreError::WalCorrupt { detail } => {
                write!(f, "write-ahead log is corrupt: {detail}")
            }
            StoreError::NoGeneration => write!(f, "no complete generation in store"),
            StoreError::Injected { label } => {
                write!(f, "simulated crash at failpoint {label:?}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl StoreError {
    /// True for errors worth retrying: transient I/O conditions
    /// (interruptions, contention) as opposed to structural damage.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            StoreError::Io { source, .. }
                if matches!(
                    source.kind(),
                    io::ErrorKind::Interrupted
                        | io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                )
        )
    }
}

/// Capped exponential backoff for transient read errors: attempt `i`
/// (0-based) sleeps `min(base · 2^i, cap)` before retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (0 retries ⇔ `attempts: 1`).
    pub attempts: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Upper bound on any single backoff sleep.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            base: Duration::ZERO,
            cap: Duration::ZERO,
        }
    }

    /// The backoff to sleep after failed attempt `attempt` (0-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.min(16);
        self.base.saturating_mul(factor).min(self.cap)
    }

    /// Runs `op`, retrying transient failures with capped backoff.
    /// Non-transient errors propagate immediately.
    pub fn run<T>(&self, mut op: impl FnMut() -> Result<T, StoreError>) -> Result<T, StoreError> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && attempt + 1 < self.attempts.max(1) => {
                    std::thread::sleep(self.backoff(attempt));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transient() -> StoreError {
        StoreError::Io {
            context: "test".into(),
            source: io::Error::new(io::ErrorKind::Interrupted, "flaky"),
        }
    }

    #[test]
    fn transient_classification() {
        assert!(transient().is_transient());
        assert!(!StoreError::NoGeneration.is_transient());
        let hard = StoreError::Io {
            context: "test".into(),
            source: io::Error::new(io::ErrorKind::NotFound, "gone"),
        };
        assert!(!hard.is_transient());
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let p = RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(45),
        };
        assert_eq!(p.backoff(0), Duration::from_millis(10));
        assert_eq!(p.backoff(1), Duration::from_millis(20));
        assert_eq!(p.backoff(2), Duration::from_millis(40));
        assert_eq!(p.backoff(3), Duration::from_millis(45)); // capped
        assert_eq!(p.backoff(12), Duration::from_millis(45));
    }

    #[test]
    fn run_retries_transient_until_budget() {
        let policy = RetryPolicy {
            attempts: 3,
            base: Duration::ZERO,
            cap: Duration::ZERO,
        };
        let mut calls = 0;
        let out: Result<u32, _> = policy.run(|| {
            calls += 1;
            if calls < 3 {
                Err(transient())
            } else {
                Ok(7)
            }
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(calls, 3);

        let mut calls = 0;
        let out: Result<u32, _> = policy.run(|| {
            calls += 1;
            Err(transient())
        });
        assert!(out.is_err());
        assert_eq!(calls, 3); // attempts exhausted

        let mut calls = 0;
        let out: Result<u32, _> = policy.run(|| {
            calls += 1;
            Err(StoreError::NoGeneration)
        });
        assert!(matches!(out, Err(StoreError::NoGeneration)));
        assert_eq!(calls, 1); // non-transient: no retry
    }
}
