//! Machine cost models, calibrated from §3.4 of the paper.
//!
//! The paper measured, on real 1989 hardware:
//!
//! * AT&T 3B2/310 — `fork()` of a 320 KB address space ≈ **31 ms**;
//!   page-copy service rate **326 2K-pages/second** (≈ 3.07 ms/page);
//! * HP 9000/350 — `fork()` ≈ **12 ms**; **1034 4K-pages/second**
//!   (≈ 0.967 ms/page);
//! * remote fork over a LAN — ≈ **1 s** for a 70 KB process, ≈ 1.3 s
//!   observed end-to-end;
//! * sibling elimination — 16 subprocesses in ≈ **40 ms** waiting for
//!   termination (synchronous) and ≈ **20 ms** asynchronously.
//!
//! Those numbers become [`CostModel`] parameters, so simulated experiments
//! reproduce the measured cost *structure* exactly.

use crate::VirtualTime;

/// Cost parameters of a simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Human-readable machine name (appears in reports).
    pub name: &'static str,
    /// Number of processors.
    pub cpus: usize,
    /// Page size in bytes (must match the page store the machine builds).
    pub page_size: usize,
    /// Cost, charged to the parent, of creating one alternative world
    /// (process + page-map inheritance) — the paper's `fork()` latency.
    pub fork: VirtualTime,
    /// CPU cost of copying one page on a COW fault.
    pub page_copy: VirtualTime,
    /// Fixed cost of the `alt_wait` rendezvous (commit handshake).
    pub rendezvous: VirtualTime,
    /// Per-page cost of committing the winner's dirty pages into the
    /// parent. Zero on shared-memory machines — adoption is an atomic
    /// page-map pointer swap; nonzero for the distributed (rfork) case,
    /// where "some copying might be needed for efficiency" (§2.2).
    pub commit_copy: VirtualTime,
    /// Cost, per sibling, of synchronous elimination (issue + wait).
    pub elim_sync: VirtualTime,
    /// Cost, per sibling, of issuing an asynchronous elimination (the wait
    /// happens off the critical path).
    pub elim_async: VirtualTime,
    /// Scheduler preemption quantum.
    pub quantum: VirtualTime,
    /// Cost of sending one message.
    pub message: VirtualTime,
}

impl CostModel {
    /// AT&T 3B2/310: 31 ms fork, 326 2K-pages/s (§3.4). One CPU.
    pub fn att_3b2() -> Self {
        CostModel {
            name: "AT&T 3B2/310",
            cpus: 1,
            page_size: 2048,
            fork: VirtualTime::from_ms(31.0),
            page_copy: VirtualTime::from_ms(1000.0 / 326.0), // ≈ 3.07 ms
            rendezvous: VirtualTime::from_ms(1.0),
            commit_copy: VirtualTime::ZERO,
            // 16 subprocesses in ~40 ms sync / ~20 ms async → per-child.
            elim_sync: VirtualTime::from_ms(40.0 / 16.0),
            elim_async: VirtualTime::from_ms(20.0 / 16.0),
            quantum: VirtualTime::from_ms(10.0),
            message: VirtualTime::from_us(500.0),
        }
    }

    /// HP 9000/350: 12 ms fork, 1034 4K-pages/s (§3.4). One CPU.
    pub fn hp9000_350() -> Self {
        CostModel {
            name: "HP 9000/350",
            cpus: 1,
            page_size: 4096,
            fork: VirtualTime::from_ms(12.0),
            page_copy: VirtualTime::from_ms(1000.0 / 1034.0), // ≈ 0.967 ms
            rendezvous: VirtualTime::from_ms(0.5),
            commit_copy: VirtualTime::ZERO,
            elim_sync: VirtualTime::from_ms(40.0 / 16.0),
            elim_async: VirtualTime::from_ms(20.0 / 16.0),
            quantum: VirtualTime::from_ms(10.0),
            message: VirtualTime::from_us(300.0),
        }
    }

    /// The distributed case (Smith & Ioannidis rfork, §3.4): ≈ 1 s to
    /// checkpoint/ship a process, observed ≈ 1.3 s end-to-end; commits must
    /// copy changed pages back over the network. Eight nodes.
    pub fn rfork_lan() -> Self {
        CostModel {
            name: "rfork over LAN",
            cpus: 8,
            page_size: 4096,
            fork: VirtualTime::from_secs(1.0),
            page_copy: VirtualTime::from_ms(1.0),
            rendezvous: VirtualTime::from_ms(50.0),
            commit_copy: VirtualTime::from_ms(5.0), // network copy per page
            elim_sync: VirtualTime::from_ms(25.0),
            elim_async: VirtualTime::from_ms(5.0),
            quantum: VirtualTime::from_ms(10.0),
            message: VirtualTime::from_ms(2.0),
        }
    }

    /// The Table I machine: a 2-processor Ardent Titan. Fork cost scaled to
    /// a fast 1989 workstation; the Table I overhead estimate (4.25 − 4.07
    /// ≈ 0.18 s for two processes) calibrates spawn + commit ≈ 90 ms per
    /// process.
    pub fn ardent_titan() -> Self {
        CostModel {
            name: "Ardent Titan (2 CPU)",
            cpus: 2,
            page_size: 4096,
            fork: VirtualTime::from_ms(80.0),
            page_copy: VirtualTime::from_ms(0.5),
            rendezvous: VirtualTime::from_ms(10.0),
            commit_copy: VirtualTime::ZERO,
            elim_sync: VirtualTime::from_ms(2.5),
            elim_async: VirtualTime::from_ms(1.25),
            quantum: VirtualTime::from_ms(10.0),
            message: VirtualTime::from_us(200.0),
        }
    }

    /// A generous modern machine, for "what would this look like today"
    /// extrapolations: microsecond forks, many cores.
    pub fn modern(cpus: usize) -> Self {
        CostModel {
            name: "modern SMP",
            cpus,
            page_size: 4096,
            fork: VirtualTime::from_us(50.0),
            page_copy: VirtualTime::from_us(1.0),
            rendezvous: VirtualTime::from_us(5.0),
            commit_copy: VirtualTime::ZERO,
            elim_sync: VirtualTime::from_us(20.0),
            elim_async: VirtualTime::from_us(5.0),
            quantum: VirtualTime::from_ms(1.0),
            message: VirtualTime::from_us(1.0),
        }
    }

    /// A zero-overhead ideal machine (for isolating algorithmic effects in
    /// ablations; `Ro = 0` in the paper's model).
    pub fn ideal(cpus: usize) -> Self {
        CostModel {
            name: "ideal (zero overhead)",
            cpus,
            page_size: 4096,
            fork: VirtualTime::ZERO,
            page_copy: VirtualTime::ZERO,
            rendezvous: VirtualTime::ZERO,
            commit_copy: VirtualTime::ZERO,
            elim_sync: VirtualTime::ZERO,
            elim_async: VirtualTime::ZERO,
            quantum: VirtualTime::from_ms(10.0),
            message: VirtualTime::ZERO,
        }
    }

    /// Override the CPU count (builder style).
    pub fn with_cpus(mut self, cpus: usize) -> Self {
        assert!(cpus > 0, "a machine needs at least one CPU");
        self.cpus = cpus;
        self
    }

    /// Override the fork cost (builder style) — used by overhead sweeps.
    pub fn with_fork(mut self, fork: VirtualTime) -> Self {
        self.fork = fork;
        self
    }

    /// Override the page-copy cost (builder style).
    pub fn with_page_copy(mut self, page_copy: VirtualTime) -> Self {
        self.page_copy = page_copy;
        self
    }

    /// Pages per second this model copies (the §3.4 "service rate" view).
    pub fn page_copy_rate(&self) -> f64 {
        if self.page_copy == VirtualTime::ZERO {
            f64::INFINITY
        } else {
            1e9 / self.page_copy.as_ns() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fork_latencies() {
        assert_eq!(CostModel::att_3b2().fork.as_ms(), 31.0);
        assert_eq!(CostModel::hp9000_350().fork.as_ms(), 12.0);
        assert_eq!(CostModel::rfork_lan().fork.as_secs(), 1.0);
    }

    #[test]
    fn paper_page_copy_rates() {
        // 326 2K-pages/s and 1034 4K-pages/s, within rounding.
        assert!((CostModel::att_3b2().page_copy_rate() - 326.0).abs() < 1.0);
        assert!((CostModel::hp9000_350().page_copy_rate() - 1034.0).abs() < 1.0);
    }

    #[test]
    fn paper_elimination_costs() {
        // "the elimination of 16 subprocesses can be accomplished in about
        // 40 milliseconds if waiting ... and 20 milliseconds ... async".
        let m = CostModel::att_3b2();
        assert_eq!((m.elim_sync.as_ms() * 16.0).round(), 40.0);
        assert_eq!((m.elim_async.as_ms() * 16.0).round(), 20.0);
        assert!(m.elim_async < m.elim_sync);
    }

    #[test]
    fn titan_has_two_cpus() {
        assert_eq!(CostModel::ardent_titan().cpus, 2);
    }

    #[test]
    fn builders() {
        let m = CostModel::ideal(4)
            .with_cpus(6)
            .with_fork(VirtualTime::from_ms(1.0));
        assert_eq!(m.cpus, 6);
        assert_eq!(m.fork.as_ms(), 1.0);
        let m = m.with_page_copy(VirtualTime::from_ms(2.0));
        assert_eq!(m.page_copy.as_ms(), 2.0);
    }

    #[test]
    fn ideal_copy_rate_is_infinite() {
        assert!(CostModel::ideal(1).page_copy_rate().is_infinite());
    }

    #[test]
    #[should_panic(expected = "at least one CPU")]
    fn zero_cpus_rejected() {
        let _ = CostModel::ideal(1).with_cpus(0);
    }
}
