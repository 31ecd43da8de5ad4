//! One alternative method: body closure + optional at-sync guard.

use crate::ctx::WorldCtx;
use crate::error::AltError;

/// Result type alternatives return.
pub type AltResult<T> = Result<T, AltError>;

type Body<T> = Box<dyn FnOnce(&mut WorldCtx) -> AltResult<T> + Send + 'static>;
type Guard<T> = Box<dyn Fn(&T) -> bool + Send + 'static>;
type PreGuard = Box<dyn Fn() -> bool + Send + 'static>;

/// An alternative method of computing a `T`.
///
/// The paper's guards can run "in the child process; at the synchronization
/// point; or at any combination of these places" (§2.2):
///
/// * **in-child** guards are simply early `Err(AltError::GuardFailed(..))`
///   returns from the body;
/// * **at-sync** guards are the optional [`Alternative::guard`] closure,
///   evaluated on the produced value just before the rendezvous — a value
///   rejected there never synchronizes.
pub struct Alternative<T> {
    /// Label used in reports.
    pub label: String,
    pub(crate) body: Body<T>,
    pub(crate) at_sync_guard: Option<Guard<T>>,
    pub(crate) pre_spawn_guard: Option<PreGuard>,
}

impl<T> Alternative<T> {
    /// A new alternative with the given label and body.
    pub fn new(
        label: impl Into<String>,
        body: impl FnOnce(&mut WorldCtx) -> AltResult<T> + Send + 'static,
    ) -> Self {
        Alternative {
            label: label.into(),
            body: Box::new(body),
            at_sync_guard: None,
            pre_spawn_guard: None,
        }
    }

    /// Attach an at-sync guard: the produced value must satisfy it to be
    /// eligible to win.
    pub fn guard(mut self, g: impl Fn(&T) -> bool + Send + 'static) -> Self {
        self.at_sync_guard = Some(Box::new(g));
        self
    }

    /// Attach a pre-spawn guard: evaluated **serially in the parent**
    /// before any world is forked; a failing alternative is never spawned
    /// — §2.2's throughput-friendly placement ("the GUARDs can be executed
    /// serially before spawning the alternatives, thus improving
    /// throughput at the expense of response time").
    pub fn pre_guard(mut self, g: impl Fn() -> bool + Send + 'static) -> Self {
        self.pre_spawn_guard = Some(Box::new(g));
        self
    }

    /// Run body + at-sync guard inside `ctx`. Used by executors.
    pub(crate) fn execute(self, ctx: &mut WorldCtx) -> AltResult<T> {
        let value = (self.body)(ctx)?;
        if let Some(g) = &self.at_sync_guard {
            if !g(&value) {
                return Err(AltError::GuardFailed(format!(
                    "at-sync guard rejected result of '{}'",
                    self.label
                )));
            }
        }
        Ok(value)
    }
}

impl<T> std::fmt::Debug for Alternative<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Alternative")
            .field("label", &self.label)
            .field("has_at_sync_guard", &self.at_sync_guard.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{Pid, PredicateSet};
    use crate::word::Decision;
    use worlds_pagestore::{FileSystem, PageStore};

    fn ctx() -> WorldCtx {
        let store = PageStore::new(256);
        let world = store.create_world();
        WorldCtx::new(
            FileSystem::new(store),
            world,
            Pid::fresh(),
            PredicateSet::empty(),
            Decision::new(0, None),
            worlds_obs::TraceCtx {
                root: world.raw(),
                world: world.raw(),
            },
        )
    }

    #[test]
    fn body_runs_and_returns() {
        let alt = Alternative::new("double", |_ctx| Ok(21 * 2));
        assert_eq!(alt.execute(&mut ctx()).unwrap(), 42);
    }

    #[test]
    fn in_child_guard_is_an_early_err() {
        let alt: Alternative<u32> = Alternative::new("nope", |_| {
            Err(AltError::GuardFailed("precondition".into()))
        });
        assert!(matches!(
            alt.execute(&mut ctx()),
            Err(AltError::GuardFailed(_))
        ));
    }

    #[test]
    fn at_sync_guard_filters_values() {
        let pass = Alternative::new("ok", |_| Ok(10)).guard(|v| *v > 5);
        let fail = Alternative::new("ko", |_| Ok(3)).guard(|v| *v > 5);
        assert_eq!(pass.execute(&mut ctx()).unwrap(), 10);
        assert!(matches!(
            fail.execute(&mut ctx()),
            Err(AltError::GuardFailed(_))
        ));
    }

    #[test]
    fn debug_shows_label() {
        let alt = Alternative::new("x", |_| Ok(())).guard(|_| true);
        let s = format!("{alt:?}");
        assert!(s.contains("x") && s.contains("true"));
    }
}
