//! Deterministic fault schedules, shared by every transport.
//!
//! A schedule is a *pure function* from a logical operation index to an
//! optional fault. That purity is the whole design: the in-process
//! transport (which simulates a timeout by doubling virtual cost) and the
//! TCP transport (where [`crate::proxy::FaultProxy`] drops real frames)
//! consult the **same** schedule with the **same** op numbering, so one
//! seed produces one retry sequence no matter which wire carries the
//! bytes. Determinism makes fault tests replayable instead of flaky.
//!
//! Op indexes count *logical operations* (one rfork, one commit-back),
//! not wire frames: a retransmit of op 7 is still op 7 and is never
//! re-faulted, so every scheduled fault costs exactly one retry.

/// What the wire does to the k-th logical operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The request frame vanishes; the client times out and retries.
    Drop,
    /// The request is forwarded only after `ms` milliseconds — long
    /// enough past the client deadline to force a timeout, short enough
    /// that tests stay fast.
    Delay { ms: u64 },
    /// The reply is cut mid-frame and the connection closed; the client
    /// sees a truncated/corrupt frame and retries.
    Truncate,
    /// The client's connection is reset before the request is forwarded.
    Reset,
    /// The request is applied but its reply vanishes — the probe for
    /// idempotency, because the retry re-delivers an already-applied
    /// operation.
    DropReply,
}

/// A deterministic mapping from logical op index to fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSchedule {
    mode: Mode,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    None,
    /// Every k-th op (1-based: ops k-1, 2k-1, …) suffers `kind`.
    Every {
        k: u64,
        kind: FaultKind,
    },
    /// Op `op` (0-based) suffers `kind`; no other op faults.
    Once {
        op: u64,
        kind: FaultKind,
    },
    /// Roughly one op in `period` faults, kind chosen by hash — a
    /// deterministic stand-in for a flaky network.
    Seeded {
        seed: u64,
        period: u64,
    },
}

impl FaultSchedule {
    /// The clean network: no faults, ever.
    pub fn none() -> FaultSchedule {
        FaultSchedule { mode: Mode::None }
    }

    /// Every `k`-th operation's request frame is dropped (the classic
    /// `fault_every` semantics: timeout once, retry succeeds).
    /// `k = 0` means no faults.
    pub fn every(k: u64) -> FaultSchedule {
        FaultSchedule::every_with(k, FaultKind::Drop)
    }

    /// Every `k`-th operation suffers `kind`.
    pub fn every_with(k: u64, kind: FaultKind) -> FaultSchedule {
        if k == 0 {
            return FaultSchedule::none();
        }
        FaultSchedule {
            mode: Mode::Every { k, kind },
        }
    }

    /// Only logical operation `op` (0-based) suffers `kind`: the schedule
    /// a fail-the-k-th-op sweep arms once per `k`.
    pub fn once(op: u64, kind: FaultKind) -> FaultSchedule {
        FaultSchedule {
            mode: Mode::Once { op, kind },
        }
    }

    /// A seeded pseudo-random schedule faulting roughly one op in
    /// `period`, cycling through all fault kinds. Same seed, same
    /// schedule — forever.
    pub fn seeded(seed: u64, period: u64) -> FaultSchedule {
        if period == 0 {
            return FaultSchedule::none();
        }
        FaultSchedule {
            mode: Mode::Seeded { seed, period },
        }
    }

    /// The fault (if any) scheduled for logical operation `op`
    /// (0-based). Pure: same inputs, same answer.
    pub fn fault_for(&self, op: u64) -> Option<FaultKind> {
        match self.mode {
            Mode::None => None,
            Mode::Every { k, kind } => (op + 1).is_multiple_of(k).then_some(kind),
            Mode::Once { op: at, kind } => (op == at).then_some(kind),
            Mode::Seeded { seed, period } => {
                let h = splitmix64(seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                if !h.is_multiple_of(period) {
                    return None;
                }
                Some(match (h >> 32) % 5 {
                    0 => FaultKind::Drop,
                    1 => FaultKind::Delay { ms: 400 },
                    2 => FaultKind::Truncate,
                    3 => FaultKind::Reset,
                    _ => FaultKind::DropReply,
                })
            }
        }
    }

    /// Whether this schedule ever faults.
    pub fn is_active(&self) -> bool {
        self.mode != Mode::None
    }
}

impl Default for FaultSchedule {
    fn default() -> Self {
        FaultSchedule::none()
    }
}

/// SplitMix64 — tiny, seedable, and good enough to scatter faults (and
/// the client's backoff jitter, which must be deterministic for the
/// same-seed-same-retry-sequence guarantee).
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_k_matches_fault_every_semantics() {
        let s = FaultSchedule::every(3);
        let pattern: Vec<bool> = (0..9).map(|op| s.fault_for(op).is_some()).collect();
        assert_eq!(
            pattern,
            [false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(s.fault_for(2), Some(FaultKind::Drop));
    }

    #[test]
    fn once_faults_exactly_one_op() {
        let s = FaultSchedule::once(2, FaultKind::Reset);
        assert!(s.is_active());
        let pattern: Vec<_> = (0..5).map(|op| s.fault_for(op)).collect();
        assert_eq!(pattern, [None, None, Some(FaultKind::Reset), None, None]);
    }

    #[test]
    fn zero_means_none() {
        assert!(!FaultSchedule::every(0).is_active());
        assert!(!FaultSchedule::seeded(9, 0).is_active());
        assert_eq!(FaultSchedule::none().fault_for(5), None);
    }

    #[test]
    fn seeded_is_deterministic_and_seed_sensitive() {
        let a: Vec<_> = (0..200)
            .map(|op| FaultSchedule::seeded(1, 4).fault_for(op))
            .collect();
        let b: Vec<_> = (0..200)
            .map(|op| FaultSchedule::seeded(1, 4).fault_for(op))
            .collect();
        let c: Vec<_> = (0..200)
            .map(|op| FaultSchedule::seeded(2, 4).fault_for(op))
            .collect();
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        let hits = a.iter().filter(|f| f.is_some()).count();
        assert!(
            hits > 10,
            "period 4 over 200 ops should fault often: {hits}"
        );
    }
}
