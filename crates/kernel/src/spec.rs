//! Workload specifications: alternatives as cost scripts.
//!
//! The simulator runs *specifications* of alternatives rather than live
//! closures: a [`Segment`] list describing how much CPU an alternative
//! burns, which pages it dirties, and whether its guard holds. This is what
//! lets the figure benches dial in exact `Rμ`/`Ro` values, and it mirrors
//! how the paper's analysis treats alternatives — as opaque computations
//! with a time `τ(Cᵢ, λ)` and a footprint.

use crate::VirtualTime;

/// One step of an alternative's execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Segment {
    /// Burn CPU for the given virtual duration.
    Compute(VirtualTime),
    /// Dirty `n` (further) distinct pages of the inherited address space.
    /// First touches take COW faults, charged at the machine's page-copy
    /// cost; re-touches are free (the page is already private).
    WritePages(u64),
    /// Read `n` pages (never faults; reads share frames).
    ReadPages(u64),
    /// Send a message of the given payload size to an external observer
    /// process; costs the machine's per-message time.
    SendMessage {
        /// Payload size in bytes (recorded, not charged beyond the fixed
        /// per-message cost).
        bytes: u64,
    },
}

/// Where guard conditions are evaluated (§2.2: "the GUARDs can be executed
/// serially before spawning the alternatives ...; in the child process; at
/// the synchronization point; or at any combination of these places, for
/// redundancy").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuardPlacement {
    /// Guards run serially in the parent before `alt_spawn`; failing
    /// alternatives are never spawned. Improves throughput at the expense
    /// of response time.
    PreSpawn,
    /// Each child evaluates its own guard first thing; failing children
    /// abort early (the default).
    #[default]
    InChild,
    /// Guards are checked only at the synchronization point: failing
    /// children run to completion, then cannot win.
    AtSync,
}

/// How losing siblings are eliminated (§2.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ElimMode {
    /// The parent resumes only after every sibling is terminated.
    Sync,
    /// Deletion "occurs at some time after the alt_wait() resumes in the
    /// parent" — measured by the paper to give better execution-time
    /// performance (the default).
    #[default]
    Async,
}

/// One alternative method.
#[derive(Debug, Clone, PartialEq)]
pub struct AltSpec {
    /// Label for reports.
    pub label: String,
    /// Execution script.
    pub segments: Vec<Segment>,
    /// Whether this alternative's guard condition holds.
    pub guard_pass: bool,
    /// CPU cost of evaluating the guard (charged where the block's
    /// [`GuardPlacement`] says).
    pub guard_cost: VirtualTime,
}

impl AltSpec {
    /// A new alternative with an empty script and a passing, free guard.
    pub fn new(label: impl Into<String>) -> Self {
        AltSpec {
            label: label.into(),
            segments: Vec::new(),
            guard_pass: true,
            guard_cost: VirtualTime::ZERO,
        }
    }

    /// Append a compute segment (builder).
    pub fn compute(mut self, t: VirtualTime) -> Self {
        self.segments.push(Segment::Compute(t));
        self
    }

    /// Append a compute segment in milliseconds (builder).
    pub fn compute_ms(self, ms: f64) -> Self {
        self.compute(VirtualTime::from_ms(ms))
    }

    /// Append a page-dirtying segment (builder).
    pub fn write_pages(mut self, n: u64) -> Self {
        self.segments.push(Segment::WritePages(n));
        self
    }

    /// Append a page-reading segment (builder).
    pub fn read_pages(mut self, n: u64) -> Self {
        self.segments.push(Segment::ReadPages(n));
        self
    }

    /// Append a message send (builder).
    pub fn send_message(mut self, bytes: u64) -> Self {
        self.segments.push(Segment::SendMessage { bytes });
        self
    }

    /// Set the guard outcome (builder).
    pub fn guard(mut self, pass: bool) -> Self {
        self.guard_pass = pass;
        self
    }

    /// Set the guard evaluation cost (builder).
    pub fn guard_cost(mut self, t: VirtualTime) -> Self {
        self.guard_cost = t;
        self
    }

    /// Total pages this script dirties.
    pub fn total_pages_written(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::WritePages(n) => *n,
                _ => 0,
            })
            .sum()
    }

    /// Total raw compute time in the script (excluding page-copy and guard
    /// charges).
    pub fn total_compute(&self) -> VirtualTime {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Compute(t) => *t,
                _ => VirtualTime::ZERO,
            })
            .fold(VirtualTime::ZERO, |a, b| a + b)
    }
}

/// A full alternative block: the unit `alt_spawn`/`alt_wait` executes.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSpec {
    /// The alternatives (at least one).
    pub alts: Vec<AltSpec>,
    /// Pages of shared state the parent owns before spawning; children
    /// inherit all of them COW.
    pub shared_pages: u64,
    /// `alt_wait` TIMEOUT in the parent; `None` waits forever.
    pub timeout: Option<VirtualTime>,
    /// Guard evaluation placement.
    pub guard_placement: GuardPlacement,
    /// Sibling elimination mode.
    pub elim: ElimMode,
}

impl BlockSpec {
    /// A block over `alts` with paper-flavoured defaults: a 320 KB shared
    /// address space (the §3.4 measurement configuration), no timeout,
    /// in-child guards, asynchronous elimination.
    pub fn new(alts: Vec<AltSpec>) -> Self {
        assert!(
            !alts.is_empty(),
            "an alternative block needs at least one alternative"
        );
        BlockSpec {
            alts,
            shared_pages: 160, // 320 KB at 2 KiB pages
            timeout: None,
            guard_placement: GuardPlacement::default(),
            elim: ElimMode::default(),
        }
    }

    /// Set the shared address-space size in pages (builder).
    pub fn shared_pages(mut self, pages: u64) -> Self {
        self.shared_pages = pages;
        self
    }

    /// Set the parent's `alt_wait` timeout (builder).
    pub fn timeout(mut self, t: VirtualTime) -> Self {
        self.timeout = Some(t);
        self
    }

    /// Set guard placement (builder).
    pub fn guard_placement(mut self, p: GuardPlacement) -> Self {
        self.guard_placement = p;
        self
    }

    /// Set elimination mode (builder).
    pub fn elim(mut self, e: ElimMode) -> Self {
        self.elim = e;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let alt = AltSpec::new("a")
            .compute_ms(5.0)
            .write_pages(3)
            .read_pages(2)
            .send_message(100)
            .guard(false)
            .guard_cost(VirtualTime::from_ms(1.0));
        assert_eq!(alt.segments.len(), 4);
        assert!(!alt.guard_pass);
        assert_eq!(alt.total_pages_written(), 3);
        assert_eq!(alt.total_compute().as_ms(), 5.0);
    }

    #[test]
    fn block_defaults() {
        let b = BlockSpec::new(vec![AltSpec::new("x")]);
        assert_eq!(b.shared_pages, 160);
        assert_eq!(b.timeout, None);
        assert_eq!(b.guard_placement, GuardPlacement::InChild);
        assert_eq!(b.elim, ElimMode::Async);
    }

    #[test]
    #[should_panic(expected = "at least one alternative")]
    fn empty_block_rejected() {
        let _ = BlockSpec::new(vec![]);
    }

    #[test]
    fn block_builders() {
        let b = BlockSpec::new(vec![AltSpec::new("x")])
            .shared_pages(99)
            .timeout(VirtualTime::from_secs(2.0))
            .guard_placement(GuardPlacement::AtSync)
            .elim(ElimMode::Sync);
        assert_eq!(b.shared_pages, 99);
        assert_eq!(b.timeout.unwrap().as_secs(), 2.0);
        assert_eq!(b.guard_placement, GuardPlacement::AtSync);
        assert_eq!(b.elim, ElimMode::Sync);
    }

    #[test]
    fn totals_over_multiple_segments() {
        let alt = AltSpec::new("a")
            .compute_ms(1.0)
            .write_pages(2)
            .compute_ms(3.0)
            .write_pages(5);
        assert_eq!(alt.total_pages_written(), 7);
        assert_eq!(alt.total_compute().as_ms(), 4.0);
    }
}
