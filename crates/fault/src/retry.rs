//! Retry/timeout/backoff policy for the DES fault path.

/// How the DES coordinator reacts to a lost or unanswered sub-request:
/// declare it failed after [`RetryPolicy::timeout_ns`], then re-send
/// after an exponentially growing, capped backoff, up to
/// [`RetryPolicy::max_attempts`] total attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total send attempts per sub-request (first try included); the
    /// query fails once a sub-request exhausts them.
    pub max_attempts: u32,
    /// Coordinator-side detection delay before a sub-request with no
    /// reply is declared lost, nanoseconds.
    pub timeout_ns: u64,
    /// Backoff before the first re-send, nanoseconds; doubles per
    /// further attempt.
    pub base_backoff_ns: u64,
    /// Upper bound on any single backoff, nanoseconds.
    pub backoff_cap_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            timeout_ns: 2_000_000,     // 2 ms — a few service times
            base_backoff_ns: 500_000,  // 0.5 ms
            backoff_cap_ns: 8_000_000, // 8 ms
        }
    }
}

impl RetryPolicy {
    /// Backoff before re-sending after `attempt` failed attempts
    /// (1-based): `base · 2^(attempt-1)`, capped. Monotone
    /// non-decreasing in `attempt` and never above the cap.
    pub fn backoff_ns(&self, attempt: u32) -> u64 {
        let exp = attempt.saturating_sub(1).min(32);
        self.base_backoff_ns.saturating_mul(1u64 << exp).min(self.backoff_cap_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_until_cap() {
        let r = RetryPolicy::default();
        assert_eq!(r.backoff_ns(1), 500_000);
        assert_eq!(r.backoff_ns(2), 1_000_000);
        assert_eq!(r.backoff_ns(3), 2_000_000);
        assert_eq!(r.backoff_ns(5), 8_000_000);
        assert_eq!(r.backoff_ns(50), 8_000_000);
    }

    #[test]
    fn backoff_is_monotone_and_capped() {
        let r = RetryPolicy { base_backoff_ns: 3, backoff_cap_ns: 1_000, ..Default::default() };
        let mut prev = 0;
        for a in 1..64 {
            let b = r.backoff_ns(a);
            assert!(b >= prev, "backoff must not shrink: {b} after {prev}");
            assert!(b <= r.backoff_cap_ns);
            prev = b;
        }
    }

    #[test]
    fn attempt_zero_is_treated_as_first() {
        let r = RetryPolicy::default();
        assert_eq!(r.backoff_ns(0), r.backoff_ns(1));
    }
}
