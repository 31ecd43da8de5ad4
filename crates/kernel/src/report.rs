//! Results of a simulated alternative block.

use crate::VirtualTime;

/// How one alternative ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AltStatus {
    /// First to synchronize with a passing guard: its state was committed.
    Won,
    /// Ran, but another alternative won first; it was eliminated.
    Eliminated,
    /// Its guard failed (wherever guards were placed), so it aborted
    /// without synchronizing.
    GuardFailed,
    /// Never spawned (pre-spawn guard evaluation rejected it).
    NotSpawned,
    /// Still running when the block timed out.
    TimedOut,
}

/// Per-alternative outcome details.
#[derive(Debug, Clone)]
pub struct AltOutcome {
    /// Alternative label from the spec.
    pub label: String,
    /// Final status.
    pub status: AltStatus,
    /// Virtual time at which the alternative finished or was
    /// aborted/eliminated (block-relative).
    pub finished_at: Option<VirtualTime>,
    /// CPU time this alternative consumed (compute + faults + guard).
    pub cpu_time: VirtualTime,
    /// Pages it dirtied (COW copies it caused).
    pub pages_cowed: u64,
    /// This alternative's *isolated* runtime: what it would take running
    /// alone on the machine, guards and faults included — `τ(Cᵢ, λ)` in the
    /// paper's analysis.
    pub isolated_time: VirtualTime,
}

/// The block-level result.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// An alternative won and its state was committed.
    Winner {
        /// Index into the spec's alternative list.
        index: usize,
        /// The winner's label.
        label: String,
    },
    /// No alternative satisfied its guard (the failure alternative fired).
    AllFailed,
    /// The parent's `alt_wait` TIMEOUT expired first.
    TimedOut,
}

/// Everything measured about one simulated block execution.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Winner / failure / timeout.
    pub outcome: Outcome,
    /// Response time: virtual time from block start to the parent resuming
    /// (what the paper's wall-clock `par` column measures).
    pub wall: VirtualTime,
    /// Per-alternative details, in spec order.
    pub alts: Vec<AltOutcome>,
    /// Virtual time spent forking the worlds (charged to the parent before
    /// any child ran).
    pub spawn_overhead: VirtualTime,
    /// Virtual time for the winning rendezvous + state commit.
    pub commit_overhead: VirtualTime,
    /// Virtual time spent eliminating siblings *on the parent's critical
    /// path* (zero for async elimination).
    pub elim_overhead: VirtualTime,
    /// Virtual CPU time spent on elimination off the critical path (async
    /// mode); a throughput cost, not a response-time cost.
    pub elim_background: VirtualTime,
    /// Total pages copied by COW faults across all alternatives.
    pub pages_cowed: u64,
    /// Total CPU time consumed by all processes (the throughput cost of
    /// speculation).
    pub total_cpu: VirtualTime,
}

impl SimReport {
    /// `τ(C_best, λ)`: the fastest *successful* alternative's isolated
    /// runtime. `None` when no alternative succeeds.
    pub fn t_best(&self) -> Option<VirtualTime> {
        self.successful_isolated_times().min()
    }

    /// `τ(C_mean, λ)`: the arithmetic mean of the successful alternatives'
    /// isolated runtimes — the expected cost of the paper's Scheme B
    /// (pick one at random). `None` when no alternative succeeds.
    pub fn t_mean(&self) -> Option<VirtualTime> {
        let times: Vec<u64> = self
            .successful_isolated_times()
            .map(|t| t.as_ns())
            .collect();
        if times.is_empty() {
            None
        } else {
            Some(VirtualTime::from_ns(
                times.iter().sum::<u64>() / times.len() as u64,
            ))
        }
    }

    /// Measured `τ(overhead)` = response time − `τ(C_best)`. `None` if
    /// nothing succeeded.
    pub fn t_overhead(&self) -> Option<VirtualTime> {
        self.t_best().map(|b| self.wall.saturating_sub(b))
    }

    /// Measured performance improvement `PI = τ(C_mean) / wall` — the
    /// paper's ratio of the expected nondeterministic-sequential cost to
    /// the parallel cost (§3.3). `None` if nothing succeeded.
    pub fn pi(&self) -> Option<f64> {
        let mean = self.t_mean()?.as_ns() as f64;
        let wall = self.wall.as_ns() as f64;
        if wall == 0.0 {
            None
        } else {
            Some(mean / wall)
        }
    }

    /// Measured `Rμ = τ(C_mean) / τ(C_best)`.
    pub fn r_mu(&self) -> Option<f64> {
        let best = self.t_best()?.as_ns() as f64;
        if best == 0.0 {
            return None;
        }
        Some(self.t_mean()?.as_ns() as f64 / best)
    }

    /// Measured `Ro = τ(overhead) / τ(C_best)`.
    pub fn r_o(&self) -> Option<f64> {
        let best = self.t_best()?.as_ns() as f64;
        if best == 0.0 {
            return None;
        }
        Some(self.t_overhead()?.as_ns() as f64 / best)
    }

    /// Count of alternatives whose guards failed.
    pub fn failures(&self) -> usize {
        self.alts
            .iter()
            .filter(|a| matches!(a.status, AltStatus::GuardFailed | AltStatus::NotSpawned))
            .count()
    }

    fn successful_isolated_times(&self) -> impl Iterator<Item = VirtualTime> + '_ {
        // "Successful" = would have produced an acceptable result: any
        // alternative whose guard passes, regardless of who won the race.
        self.alts
            .iter()
            .filter(|a| {
                matches!(
                    a.status,
                    AltStatus::Won | AltStatus::Eliminated | AltStatus::TimedOut
                )
            })
            .map(|a| a.isolated_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_report() -> SimReport {
        SimReport {
            outcome: Outcome::Winner {
                index: 1,
                label: "fast".into(),
            },
            wall: VirtualTime::from_ms(120.0),
            alts: vec![
                AltOutcome {
                    label: "slow".into(),
                    status: AltStatus::Eliminated,
                    finished_at: None,
                    cpu_time: VirtualTime::from_ms(120.0),
                    pages_cowed: 4,
                    isolated_time: VirtualTime::from_ms(300.0),
                },
                AltOutcome {
                    label: "fast".into(),
                    status: AltStatus::Won,
                    finished_at: Some(VirtualTime::from_ms(110.0)),
                    cpu_time: VirtualTime::from_ms(100.0),
                    pages_cowed: 2,
                    isolated_time: VirtualTime::from_ms(100.0),
                },
                AltOutcome {
                    label: "broken".into(),
                    status: AltStatus::GuardFailed,
                    finished_at: Some(VirtualTime::from_ms(5.0)),
                    cpu_time: VirtualTime::from_ms(5.0),
                    pages_cowed: 0,
                    isolated_time: VirtualTime::from_ms(5.0),
                },
            ],
            spawn_overhead: VirtualTime::from_ms(10.0),
            commit_overhead: VirtualTime::from_ms(10.0),
            elim_overhead: VirtualTime::ZERO,
            elim_background: VirtualTime::from_ms(2.0),
            pages_cowed: 6,
            total_cpu: VirtualTime::from_ms(225.0),
        }
    }

    #[test]
    fn best_and_mean_exclude_guard_failures() {
        let r = mk_report();
        assert_eq!(r.t_best().unwrap().as_ms(), 100.0);
        assert_eq!(r.t_mean().unwrap().as_ms(), 200.0); // (300+100)/2
        assert_eq!(r.failures(), 1);
    }

    #[test]
    fn derived_ratios() {
        let r = mk_report();
        assert!((r.pi().unwrap() - 200.0 / 120.0).abs() < 1e-9);
        assert!((r.r_mu().unwrap() - 2.0).abs() < 1e-9);
        assert!((r.r_o().unwrap() - 0.2).abs() < 1e-9); // (120-100)/100
        assert_eq!(r.t_overhead().unwrap().as_ms(), 20.0);
    }

    #[test]
    fn all_failed_yields_none() {
        let mut r = mk_report();
        for a in &mut r.alts {
            a.status = AltStatus::GuardFailed;
        }
        r.outcome = Outcome::AllFailed;
        assert_eq!(r.t_best(), None);
        assert_eq!(r.t_mean(), None);
        assert_eq!(r.pi(), None);
        assert_eq!(r.failures(), 3);
    }
}
