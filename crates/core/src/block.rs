//! The alternative-block builder.

use std::time::Duration;

use crate::alternative::{AltResult, Alternative};
use crate::ctx::WorldCtx;

/// Sibling-elimination mode for the thread executor (§2.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ElimMode {
    /// The block returns only after every losing alternative's thread has
    /// been joined.
    Sync,
    /// Losing threads are detached and clean themselves up after the block
    /// returns — "asynchronous elimination gives better execution-time
    /// performance" (the default, matching the paper's finding).
    #[default]
    Async,
}

/// A block of mutually exclusive alternatives: "the meaning is that one of
/// the alternatives (including failure) are selected non-deterministically;
/// this selection is the result of the block" (§1.1).
pub struct AltBlock<T> {
    pub(crate) alts: Vec<Alternative<T>>,
    pub(crate) timeout: Option<Duration>,
    pub(crate) elim: ElimMode,
    pub(crate) site: Option<worlds_obs::SiteId>,
}

impl<T> Default for AltBlock<T> {
    fn default() -> Self {
        AltBlock {
            alts: Vec::new(),
            timeout: None,
            elim: ElimMode::default(),
            site: None,
        }
    }
}

impl<T> AltBlock<T> {
    /// An empty block (add alternatives before running it).
    pub fn new() -> Self {
        AltBlock::default()
    }

    /// Add an alternative (builder).
    pub fn alt(
        mut self,
        label: impl Into<String>,
        body: impl FnOnce(&mut WorldCtx) -> AltResult<T> + Send + 'static,
    ) -> Self {
        self.alts.push(Alternative::new(label, body));
        self
    }

    /// Add a pre-built alternative, e.g. one with an at-sync guard
    /// (builder).
    pub fn alternative(mut self, alt: Alternative<T>) -> Self {
        self.alts.push(alt);
        self
    }

    /// Set the parent's `alt_wait` TIMEOUT: how long to wait for *any*
    /// alternative before declaring failure. "TIMEOUT's value should be
    /// chosen so that after TIMEOUT time units have elapsed, it is unlikely
    /// that any of the alternatives have succeeded" (§2.2).
    ///
    /// From the deadline on, every alternative's cancellation points
    /// (`checkpoint`, state writes) fail with [`AltError::Cancelled`], and
    /// only a report sent before it can win. The first alternative runs
    /// on the calling thread, so the block returns past the deadline if
    /// that alternative does not reach a cancellation point or return in
    /// time; the others run on the pool and cannot delay the return. (A
    /// block without a timeout lets the caller take back and run its
    /// still-queued siblings while it is undecided; such a sibling
    /// behaves like the caller's own alternative. A timed block leaves
    /// them to the workers, and takes back unrun the ones still queued
    /// when it is decided.)
    ///
    /// [`AltError::Cancelled`]: crate::AltError::Cancelled
    pub fn timeout(mut self, d: Duration) -> Self {
        self.timeout = Some(d);
        self
    }

    /// Set the sibling-elimination mode (builder).
    pub fn elim(mut self, mode: ElimMode) -> Self {
        self.elim = mode;
        self
    }

    /// Label this block as a named call site (builder). The label is
    /// interned once ([`worlds_obs::site_id`]) and stamped on every
    /// guard/commit/elimination event the block emits, which is what
    /// keys the telemetry plane's per-site `Rμ`/`Ro`/`PI` estimates.
    /// Unlabelled blocks emit site-less events, exactly as before.
    pub fn site(mut self, label: &str) -> Self {
        self.site = Some(worlds_obs::site_id(label));
        self
    }

    /// Number of alternatives currently in the block.
    pub fn len(&self) -> usize {
        self.alts.len()
    }

    /// True when no alternatives have been added yet.
    pub fn is_empty(&self) -> bool {
        self.alts.is_empty()
    }
}

impl<T> std::fmt::Debug for AltBlock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AltBlock")
            .field(
                "alts",
                &self.alts.iter().map(|a| &a.label).collect::<Vec<_>>(),
            )
            .field("timeout", &self.timeout)
            .field("elim", &self.elim)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let b: AltBlock<u32> = AltBlock::new()
            .alt("one", |_| Ok(1))
            .alt("two", |_| Ok(2))
            .alternative(Alternative::new("three", |_| Ok(3)).guard(|v| *v == 3))
            .timeout(Duration::from_millis(100))
            .elim(ElimMode::Sync);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.timeout, Some(Duration::from_millis(100)));
        assert_eq!(b.elim, ElimMode::Sync);
        let dbg = format!("{b:?}");
        assert!(dbg.contains("one") && dbg.contains("three"));
    }

    #[test]
    fn defaults() {
        let b: AltBlock<()> = AltBlock::new();
        assert!(b.is_empty());
        assert_eq!(b.timeout, None);
        assert_eq!(b.elim, ElimMode::Async);
    }
}
