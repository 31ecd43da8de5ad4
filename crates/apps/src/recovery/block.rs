//! The recovery-block construct and its two execution strategies.

use std::sync::Arc;
use std::time::{Duration, Instant};

use worlds::{AltBlock, AltError, Alternative, ElimMode, Speculation, WorldCtx};

/// How a recovery block concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// Some alternate produced a value the acceptance test passed.
    Accepted {
        /// Label of the accepted alternate.
        label: String,
        /// Sequential: 1-based index of the accepted attempt.
        /// Parallel: number of alternates raced.
        attempts: usize,
    },
    /// Every alternate failed the acceptance test (or errored).
    Exhausted,
}

/// Result of running a recovery block.
#[derive(Debug)]
pub struct RecoveryReport<T> {
    /// Accepted / exhausted.
    pub outcome: RecoveryOutcome,
    /// The accepted value, if any.
    pub value: Option<T>,
    /// Wall-clock time of the whole block.
    pub wall: Duration,
}

impl<T> RecoveryReport<T> {
    /// Did any alternate get accepted?
    pub fn accepted(&self) -> bool {
        matches!(self.outcome, RecoveryOutcome::Accepted { .. })
    }
}

type AltFn<T> = Arc<dyn Fn(&mut WorldCtx) -> Result<T, AltError> + Send + Sync>;
type AcceptFn<T> = Arc<dyn Fn(&T) -> bool + Send + Sync>;

/// A recovery block: a primary, alternates, and an acceptance test.
///
/// "Alternatives may attempt to update shared state, e.g., database files
/// or external variables. Our 'Multiple Worlds' mechanism for preventing
/// observation of a sibling's actions is necessary, and the copy-on-write
/// memory management reduces the amount of state which must be
/// maintained" (§4.1).
pub struct RecoveryBlock<T> {
    alternates: Vec<(String, AltFn<T>)>,
    acceptance: AcceptFn<T>,
}

impl<T: Send + 'static> RecoveryBlock<T> {
    /// A block with the given acceptance test and no alternates yet.
    pub fn new(acceptance: impl Fn(&T) -> bool + Send + Sync + 'static) -> Self {
        RecoveryBlock {
            alternates: Vec::new(),
            acceptance: Arc::new(acceptance),
        }
    }

    /// Add an alternate; the first added is the primary.
    pub fn alternate(
        mut self,
        label: impl Into<String>,
        f: impl Fn(&mut WorldCtx) -> Result<T, AltError> + Send + Sync + 'static,
    ) -> Self {
        self.alternates.push((label.into(), Arc::new(f)));
        self
    }

    /// Number of alternates (including the primary).
    pub fn len(&self) -> usize {
        self.alternates.len()
    }

    /// True when no alternates have been added.
    pub fn is_empty(&self) -> bool {
        self.alternates.is_empty()
    }

    /// Classical sequential execution: attempt alternates in order, each
    /// in its own speculative world; a rejected attempt's world is
    /// discarded (automatic state restoration) before the next attempt.
    pub fn run_sequential(&self, spec: &Speculation) -> RecoveryReport<T> {
        let start = Instant::now();
        for (i, (label, f)) in self.alternates.iter().enumerate() {
            let f = f.clone();
            let acc = self.acceptance.clone();
            let alt = Alternative::new(label.clone(), move |ctx: &mut WorldCtx| f(ctx))
                .guard(move |v| acc(v));
            let report = spec.run(AltBlock::new().alternative(alt).elim(ElimMode::Sync));
            if report.succeeded() {
                return RecoveryReport {
                    outcome: RecoveryOutcome::Accepted {
                        label: label.clone(),
                        attempts: i + 1,
                    },
                    value: report.value,
                    wall: start.elapsed(),
                };
            }
        }
        RecoveryReport {
            outcome: RecoveryOutcome::Exhausted,
            value: None,
            wall: start.elapsed(),
        }
    }

    /// Parallel "standby-spares" execution: every alternate races in a
    /// sibling world; the first acceptance-test pass commits. Losing
    /// alternates are eliminated asynchronously — the paper's measured
    /// faster choice (§2.2.1); use [`Self::run_parallel_elim`] to pick.
    ///
    /// The alternates race last-first: a block's first alternative runs
    /// on the calling thread (see [`Speculation::run`]), and the call
    /// returns only once that alternative returns or reaches a
    /// cancellation point (`checkpoint`, a state write). That is the last
    /// alternate, by convention the simplest and most trusted; the primary
    /// under suspicion runs on the pool, so a primary that hangs cannot
    /// hold up a spare's commit.
    pub fn run_parallel(&self, spec: &Speculation) -> RecoveryReport<T> {
        self.run_parallel_elim(spec, ElimMode::Async)
    }

    /// Parallel execution with an explicit sibling-elimination mode.
    pub fn run_parallel_elim(&self, spec: &Speculation, elim: ElimMode) -> RecoveryReport<T> {
        let start = Instant::now();
        let mut block: AltBlock<T> = AltBlock::new().elim(elim);
        for (label, f) in self.alternates.iter().rev() {
            let f = f.clone();
            let acc = self.acceptance.clone();
            block = block.alternative(
                Alternative::new(label.clone(), move |ctx: &mut WorldCtx| f(ctx))
                    .guard(move |v| acc(v)),
            );
        }
        let report = spec.run(block);
        let outcome = match report.winner_label() {
            Some(label) => RecoveryOutcome::Accepted {
                label: label.to_string(),
                attempts: self.alternates.len(),
            },
            None => RecoveryOutcome::Exhausted,
        };
        RecoveryReport {
            outcome,
            value: report.value,
            wall: start.elapsed(),
        }
    }
}

impl<T> std::fmt::Debug for RecoveryBlock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoveryBlock")
            .field(
                "alternates",
                &self.alternates.iter().map(|(l, _)| l).collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::fault::FaultPlan;

    fn compute_ok(v: u64) -> impl Fn(&mut WorldCtx) -> Result<u64, AltError> + Send + Sync {
        move |ctx| {
            ctx.put_u64("result", v)?;
            Ok(v)
        }
    }

    #[test]
    fn primary_passing_needs_one_attempt() {
        let spec = Speculation::new();
        let block = RecoveryBlock::new(|v: &u64| *v > 0)
            .alternate("primary", compute_ok(10))
            .alternate("spare", compute_ok(20));
        let r = block.run_sequential(&spec);
        assert_eq!(
            r.outcome,
            RecoveryOutcome::Accepted {
                label: "primary".into(),
                attempts: 1
            }
        );
        assert_eq!(r.value, Some(10));
        assert_eq!(spec.read(|c| c.get_u64("result")), Some(10));
    }

    #[test]
    fn faulty_primary_falls_through_to_spare() {
        let spec = Speculation::new();
        let plan = FaultPlan::on_invocations(vec![0]); // primary's invocation
        let p = plan.clone();
        let block = RecoveryBlock::new(|v: &u64| *v != 0)
            .alternate("primary", move |ctx| {
                if p.next_faults() {
                    ctx.put_u64("result", 0)?; // corrupt state…
                    Ok(0) // …and produce a rejected value
                } else {
                    compute_ok(10)(ctx)
                }
            })
            .alternate("spare", compute_ok(20));
        let r = block.run_sequential(&spec);
        assert_eq!(
            r.outcome,
            RecoveryOutcome::Accepted {
                label: "spare".into(),
                attempts: 2
            }
        );
        assert_eq!(r.value, Some(20));
        // The corrupt write from the rejected primary never committed.
        assert_eq!(spec.read(|c| c.get_u64("result")), Some(20));
    }

    #[test]
    fn state_restoration_between_attempts() {
        let spec = Speculation::new();
        spec.setup(|c| c.put_str("db", "pristine")).unwrap();
        let block = RecoveryBlock::new(|v: &u64| *v == 1)
            .alternate("vandal", |ctx| {
                ctx.put_str("db", "CORRUPTED")?;
                Ok(0) // rejected by acceptance
            })
            .alternate("good", |ctx| {
                // Must see pristine state, not the vandal's writes.
                let seen = ctx.get_str("db").unwrap();
                ctx.put_str("db", &format!("{seen}-updated"))?;
                Ok(1)
            });
        let r = block.run_sequential(&spec);
        assert!(r.accepted());
        assert_eq!(
            spec.read(|c| c.get_str("db")).as_deref(),
            Some("pristine-updated")
        );
    }

    #[test]
    fn exhausted_when_all_fail() {
        let spec = Speculation::new();
        let block = RecoveryBlock::new(|_: &u64| false)
            .alternate("a", compute_ok(1))
            .alternate("b", compute_ok(2));
        let r = block.run_sequential(&spec);
        assert_eq!(r.outcome, RecoveryOutcome::Exhausted);
        assert_eq!(r.value, None);
        let r = block.run_parallel(&spec);
        assert_eq!(r.outcome, RecoveryOutcome::Exhausted);
    }

    #[test]
    fn parallel_spares_mask_slow_faulty_primary() {
        let spec = Speculation::new();
        let block = RecoveryBlock::new(|v: &u64| *v != 0)
            .alternate("slow-faulty", |ctx| {
                std::thread::sleep(Duration::from_millis(150));
                ctx.checkpoint()?;
                Ok(0) // would be rejected anyway
            })
            .alternate("spare", compute_ok(7));
        let r = block.run_parallel(&spec);
        assert!(r.accepted());
        assert_eq!(r.value, Some(7));
        assert!(
            r.wall < Duration::from_millis(140),
            "spare must commit without waiting for the faulty primary: {:?}",
            r.wall
        );
    }

    #[test]
    fn parallel_and_sequential_agree_on_acceptance() {
        // Whatever wins, it must satisfy the acceptance test.
        let spec = Speculation::new();
        let block = RecoveryBlock::new(|v: &u64| (*v).is_multiple_of(2))
            .alternate("odd", compute_ok(3))
            .alternate("even", compute_ok(4));
        let seq = block.run_sequential(&spec);
        assert_eq!(seq.value, Some(4));
        let par = block.run_parallel(&spec);
        assert_eq!(par.value, Some(4), "only the even alternate passes");
    }

    #[test]
    fn empty_block_is_exhausted() {
        let spec = Speculation::new();
        let block: RecoveryBlock<u64> = RecoveryBlock::new(|_| true);
        assert!(block.is_empty());
        assert_eq!(
            block.run_sequential(&spec).outcome,
            RecoveryOutcome::Exhausted
        );
        assert_eq!(
            block.run_parallel(&spec).outcome,
            RecoveryOutcome::Exhausted
        );
    }

    #[test]
    fn debug_lists_alternates() {
        let block = RecoveryBlock::new(|_: &u64| true).alternate("p", compute_ok(1));
        assert!(format!("{block:?}").contains("p"));
        assert_eq!(block.len(), 1);
    }
}
