//! The Multiple-Worlds parallel rootfinder (§4.3, Table I).
//!
//! Each alternative runs the **strict** single-angle driver with its own
//! starting angle; the first to find (and verify) all roots wins the
//! block. Losing angles — including ones that would have *failed* — are
//! eliminated, so the block's response time tracks the fastest successful
//! angle rather than the sequential retry ladder.

use std::time::Duration;

use worlds::{AltBlock, AltError, ElimMode, RunReport, Speculation};

use super::complex::Complex;
use super::jt::{find_all_roots, JtConfig};
use super::poly::Poly;

/// Result of one parallel race.
#[derive(Debug)]
pub struct ParallelRootResult {
    /// The winning angle (degrees).
    pub angle: f64,
    /// All roots found by the winner.
    pub roots: Vec<Complex>,
    /// Iterations the winner spent.
    pub iterations: u64,
}

/// Race `angles` over the polynomial inside a Multiple-Worlds block.
///
/// Each alternative writes its roots into the speculative state cell
/// `"roots"`, so the committed world carries the winner's answer — the
/// losing worlds' writes vanish with them.
pub fn parallel_find_roots(
    spec: &Speculation,
    poly: &Poly,
    angles: &[f64],
    cfg: &JtConfig,
    timeout: Option<Duration>,
) -> RunReport<ParallelRootResult> {
    assert!(!angles.is_empty(), "need at least one starting angle");
    let mut block: AltBlock<ParallelRootResult> =
        AltBlock::new().site("rootfinder/race").elim(ElimMode::Sync);
    if let Some(t) = timeout {
        block = block.timeout(t);
    }
    for &angle in angles {
        let poly = poly.clone();
        let cfg = *cfg;
        block = block.alt(format!("angle={angle}"), move |ctx| {
            ctx.checkpoint()?;
            let report = find_all_roots(&poly, angle, &cfg)
                .map_err(|e| AltError::GuardFailed(e.to_string()))?;
            ctx.checkpoint()?;
            // Persist the answer into speculative state: committed iff we
            // win.
            let mut bytes = Vec::with_capacity(16 * report.roots.len());
            for r in &report.roots {
                bytes.extend_from_slice(&r.re.to_le_bytes());
                bytes.extend_from_slice(&r.im.to_le_bytes());
            }
            ctx.put_bytes("roots", &bytes)?;
            ctx.put_f64("winning_angle", angle)?;
            Ok(ParallelRootResult {
                angle,
                roots: report.roots,
                iterations: report.iterations,
            })
        });
    }
    spec.run(block)
}

/// Decode the committed `"roots"` cell written by the winning alternative.
pub fn committed_roots(spec: &Speculation) -> Option<Vec<Complex>> {
    spec.read(|ctx| {
        let bytes = ctx.get_bytes("roots")?;
        let mut roots = Vec::with_capacity(bytes.len() / 16);
        for chunk in bytes.chunks_exact(16) {
            let re = f64::from_le_bytes(chunk[..8].try_into().expect("8 bytes"));
            let im = f64::from_le_bytes(chunk[8..].try_into().expect("8 bytes"));
            roots.push(Complex::new(re, im));
        }
        Some(roots)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rootfinder::fixtures::{legendre_like, TEST_ANGLES};

    #[test]
    fn parallel_race_finds_all_roots() {
        let (p, expected) = legendre_like(10);
        let spec = Speculation::new();
        let report = parallel_find_roots(&spec, &p, &TEST_ANGLES[..4], &JtConfig::default(), None);
        assert!(report.succeeded(), "outcome: {:?}", report.outcome);
        let result = report.value.expect("winner value");
        assert_eq!(result.roots.len(), expected.len());

        // Committed state matches the winner's in-memory answer.
        let committed = committed_roots(&spec).expect("roots cell committed");
        assert_eq!(committed.len(), result.roots.len());
        for (a, b) in committed.iter().zip(&result.roots) {
            assert!((*a - *b).abs() < 1e-15);
        }
        // And they are genuine zeros.
        for r in &committed {
            assert!(
                p.monic().eval(*r).abs() < 1e-5,
                "residual {}",
                p.monic().eval(*r).abs()
            );
        }
    }

    #[test]
    fn failing_angles_lose_but_block_succeeds() {
        let (p, _) = legendre_like(12);
        // Starve stage 2 so some angles fail; at least one of eight should
        // still converge.
        let cfg = JtConfig {
            stage2_iters: 8,
            ..JtConfig::default()
        };
        let spec = Speculation::new();
        let report = parallel_find_roots(&spec, &p, &TEST_ANGLES, &cfg, None);
        if report.succeeded() {
            assert!(committed_roots(&spec).is_some());
        } else {
            // All angles failing is acceptable for this starved config,
            // but the block must then report AllFailed, not hang.
            assert!(report.value.is_none());
        }
    }

    #[test]
    #[should_panic(expected = "at least one starting angle")]
    fn empty_angle_list_rejected() {
        let (p, _) = legendre_like(4);
        let spec = Speculation::new();
        let _ = parallel_find_roots(&spec, &p, &[], &JtConfig::default(), None);
    }
}
