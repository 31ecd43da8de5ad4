//! Execution traces: the paper's Figure 1 as data.
//!
//! "The taken path is reflected in the execution history of the running
//! process" (§2.2). A [`Trace`] records the block's history — spawns,
//! dispatches, guard verdicts, the rendezvous, eliminations — in virtual
//! time, so tests and tools can assert on *how* a result was reached, not
//! just what it was. `Machine::run_block_traced` produces one.
//!
//! Since the `worlds-obs` layer landed, a trace is a thin projection of
//! the machine's observability event stream: the scheduler records
//! [`worlds_obs::Event`]s once, and [`TraceEvent::from_obs`] maps each
//! onto the trace vocabulary (dropping events with no trace analogue,
//! such as passing guard verdicts or bookkeeping eliminations of worlds
//! that already self-aborted).

use crate::VirtualTime;
use worlds_obs::{Event as ObsEvent, EventKind};

/// One event in a block's execution history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// The parent's fork for this alternative completed; the child is
    /// runnable from this instant.
    Spawned {
        /// Alternative index.
        alt: usize,
        /// When it became ready.
        at: VirtualTime,
    },
    /// The alternative finished its script with a passing guard and
    /// attempted to synchronize.
    Synchronized {
        /// Alternative index.
        alt: usize,
        /// When.
        at: VirtualTime,
    },
    /// The alternative's guard failed; it aborted without synchronizing.
    GuardFailed {
        /// Alternative index.
        alt: usize,
        /// When.
        at: VirtualTime,
    },
    /// The first synchronization won: the parent adopted this
    /// alternative's world.
    Committed {
        /// Winning alternative index.
        alt: usize,
        /// When the commit (rendezvous + state copy) finished.
        at: VirtualTime,
    },
    /// A losing sibling was eliminated.
    Eliminated {
        /// Alternative index.
        alt: usize,
        /// When its elimination was issued.
        at: VirtualTime,
    },
    /// The parent's `alt_wait` TIMEOUT expired with no winner.
    TimedOut {
        /// When.
        at: VirtualTime,
    },
}

impl TraceEvent {
    /// The event's timestamp.
    pub fn at(&self) -> VirtualTime {
        match self {
            TraceEvent::Spawned { at, .. }
            | TraceEvent::Synchronized { at, .. }
            | TraceEvent::GuardFailed { at, .. }
            | TraceEvent::Committed { at, .. }
            | TraceEvent::Eliminated { at, .. }
            | TraceEvent::TimedOut { at } => *at,
        }
    }

    /// Project an observability event onto the trace vocabulary.
    ///
    /// `alt` is the alternative index of the world the event concerns
    /// (the obs layer speaks world ids, the trace speaks alternative
    /// indices; the machine knows the mapping). Events with no trace
    /// analogue — passing guard verdicts, page traffic, RPC activity —
    /// return `None`.
    pub(crate) fn from_obs(ev: &ObsEvent, alt: Option<usize>) -> Option<TraceEvent> {
        let at = VirtualTime(ev.vt_ns);
        match ev.kind {
            EventKind::Spawn { .. } => Some(TraceEvent::Spawned { alt: alt?, at }),
            EventKind::GuardVerdict { pass: false, .. } => {
                Some(TraceEvent::GuardFailed { alt: alt?, at })
            }
            EventKind::Rendezvous => Some(TraceEvent::Synchronized { alt: alt?, at }),
            EventKind::Commit { .. } => Some(TraceEvent::Committed { alt: alt?, at }),
            EventKind::EliminateSync { .. } | EventKind::EliminateAsync => {
                Some(TraceEvent::Eliminated { alt: alt?, at })
            }
            EventKind::Timeout => Some(TraceEvent::TimedOut { at }),
            _ => None,
        }
    }

    /// The alternative the event concerns, if any.
    pub fn alt(&self) -> Option<usize> {
        match self {
            TraceEvent::Spawned { alt, .. }
            | TraceEvent::Synchronized { alt, .. }
            | TraceEvent::GuardFailed { alt, .. }
            | TraceEvent::Committed { alt, .. }
            | TraceEvent::Eliminated { alt, .. } => Some(*alt),
            TraceEvent::TimedOut { .. } => None,
        }
    }
}

/// A block's full execution history, in time order.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    pub(crate) fn push(&mut self, ev: TraceEvent) {
        debug_assert!(
            self.events.last().is_none_or(|last| last.at() <= ev.at()),
            "trace must be time-ordered"
        );
        self.events.push(ev);
    }

    /// All events, in time order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events concerning one alternative.
    pub fn for_alt(&self, alt: usize) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.alt() == Some(alt))
            .collect()
    }

    /// The committed alternative, if the block succeeded.
    pub fn winner(&self) -> Option<usize> {
        self.events.iter().find_map(|e| match e {
            TraceEvent::Committed { alt, .. } => Some(*alt),
            _ => None,
        })
    }

    /// Render the history as indented text, one line per event.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let line = match e {
                TraceEvent::Spawned { alt, at } => format!("{at:>12}  spawn      alt{alt}"),
                TraceEvent::Synchronized { alt, at } => {
                    format!("{at:>12}  sync       alt{alt}")
                }
                TraceEvent::GuardFailed { alt, at } => {
                    format!("{at:>12}  guard-fail alt{alt}")
                }
                TraceEvent::Committed { alt, at } => format!("{at:>12}  COMMIT     alt{alt}"),
                TraceEvent::Eliminated { alt, at } => format!("{at:>12}  eliminate  alt{alt}"),
                TraceEvent::TimedOut { at } => format!("{at:>12}  TIMEOUT"),
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: f64) -> VirtualTime {
        VirtualTime::from_ms(ms)
    }

    #[test]
    fn accessors_and_ordering() {
        let mut tr = Trace::default();
        tr.push(TraceEvent::Spawned { alt: 0, at: t(1.0) });
        tr.push(TraceEvent::Spawned { alt: 1, at: t(2.0) });
        tr.push(TraceEvent::GuardFailed { alt: 1, at: t(3.0) });
        tr.push(TraceEvent::Synchronized { alt: 0, at: t(5.0) });
        tr.push(TraceEvent::Committed { alt: 0, at: t(6.0) });
        assert_eq!(tr.events().len(), 5);
        assert_eq!(tr.winner(), Some(0));
        assert_eq!(tr.for_alt(1).len(), 2);
        assert_eq!(tr.events()[0].alt(), Some(0));
        assert_eq!(tr.events()[0].at(), t(1.0));
    }

    #[test]
    fn render_is_one_line_per_event() {
        let mut tr = Trace::default();
        tr.push(TraceEvent::Spawned { alt: 0, at: t(1.0) });
        tr.push(TraceEvent::TimedOut { at: t(9.0) });
        let s = tr.render();
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("TIMEOUT"));
        assert!(s.contains("spawn"));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_push_asserts() {
        let mut tr = Trace::default();
        tr.push(TraceEvent::Spawned { alt: 0, at: t(5.0) });
        tr.push(TraceEvent::Spawned { alt: 1, at: t(1.0) });
    }
}
