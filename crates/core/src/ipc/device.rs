//! Source devices and the speculation barrier.
//!
//! §2.1 divides system state by idempotence: *sink* operations (e.g. a page
//! of backing store) can be retried without observable effect and are
//! handled by the COW page store; *source* operations (e.g. a teletype)
//! cannot be retried. §2.4.2: "While a process has predicates which are
//! unsatisfied, it is restricted from causing observable side-effects, and
//! thus cannot interface with sources."
//!
//! [`Teletype`] enforces that restriction directly; [`BufferedSource`]
//! implements the §5 alternative (after Jefferson's Time Warp `stdout`
//! process): buffer source operations while speculative and flush them at
//! commit — "idempotency of some source state can be forced through
//! buffering".

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::predicate::PredicateSet;

/// Error from a source-device operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// The calling world still runs under unsatisfied predicates and may
    /// not cause observable side effects.
    Unresolved {
        /// How many assumptions are outstanding.
        pending_assumptions: usize,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::Unresolved {
                pending_assumptions,
            } => write!(
                f,
                "world has {pending_assumptions} unresolved assumption(s); source access denied"
            ),
        }
    }
}

impl std::error::Error for DeviceError {}

/// A non-idempotent output device.
pub trait SourceDevice {
    /// Emit one observable operation under the caller's predicate set.
    fn emit(&self, predicates: &PredicateSet, data: &[u8]) -> Result<(), DeviceError>;
}

/// The canonical source device of §2.1: a teletype. Output is observable
/// the moment it is written, so only fully resolved worlds may write.
#[derive(Clone, Debug, Default)]
pub struct Teletype {
    lines: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl Teletype {
    /// A fresh device with empty output history.
    pub fn new() -> Self {
        Teletype::default()
    }

    /// Everything ever printed, in order (the observable history).
    pub fn output(&self) -> Vec<Vec<u8>> {
        self.lines.lock().clone()
    }

    /// Observable history decoded as UTF-8 lines (lossy), for tests.
    pub fn output_strings(&self) -> Vec<String> {
        self.lines
            .lock()
            .iter()
            .map(|l| String::from_utf8_lossy(l).into_owned())
            .collect()
    }
}

impl SourceDevice for Teletype {
    fn emit(&self, predicates: &PredicateSet, data: &[u8]) -> Result<(), DeviceError> {
        if !predicates.is_resolved() {
            return Err(DeviceError::Unresolved {
                pending_assumptions: predicates.len(),
            });
        }
        self.lines.lock().push(data.to_vec());
        Ok(())
    }
}

/// Jefferson-style buffering wrapper: speculative emissions queue up
/// invisibly; `commit()` flushes them to the inner device once the world's
/// fate is decided, `discard()` throws them away when the world loses.
#[derive(Debug)]
pub struct BufferedSource<D: SourceDevice> {
    inner: D,
    pending: Mutex<Vec<Vec<u8>>>,
}

impl<D: SourceDevice> BufferedSource<D> {
    /// Wrap `inner` with an empty speculation buffer.
    pub fn new(inner: D) -> Self {
        BufferedSource {
            inner,
            pending: Mutex::new(Vec::new()),
        }
    }

    /// Queue an emission regardless of predicate state. Resolved worlds
    /// could write through, but buffering everything keeps output ordering
    /// within the block deterministic.
    pub fn emit_buffered(&self, data: &[u8]) {
        self.pending.lock().push(data.to_vec());
    }

    /// Number of queued (not yet observable) emissions.
    pub fn pending_count(&self) -> usize {
        self.pending.lock().len()
    }

    /// Flush the queue to the real device. Called with the *winner's*
    /// now-resolved predicates at commit.
    pub fn commit(&self, predicates: &PredicateSet) -> Result<usize, DeviceError> {
        if !predicates.is_resolved() {
            return Err(DeviceError::Unresolved {
                pending_assumptions: predicates.len(),
            });
        }
        let drained: Vec<Vec<u8>> = std::mem::take(&mut *self.pending.lock());
        let n = drained.len();
        for d in &drained {
            self.inner.emit(predicates, d)?;
        }
        Ok(n)
    }

    /// Drop all queued emissions (the world was eliminated). Returns how
    /// many side effects were prevented.
    pub fn discard(&self) -> usize {
        std::mem::take(&mut *self.pending.lock()).len()
    }

    /// Access the wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Pid;

    #[test]
    fn teletype_accepts_resolved_worlds() {
        let tty = Teletype::new();
        tty.emit(&PredicateSet::empty(), b"hello").unwrap();
        assert_eq!(tty.output_strings(), vec!["hello"]);
    }

    #[test]
    fn teletype_rejects_speculative_worlds() {
        let tty = Teletype::new();
        let preds = PredicateSet::new([Pid(1)], [Pid(2)]);
        let err = tty.emit(&preds, b"leak!").unwrap_err();
        assert_eq!(
            err,
            DeviceError::Unresolved {
                pending_assumptions: 2
            }
        );
        assert!(tty.output().is_empty(), "nothing observable leaked");
    }

    #[test]
    fn buffered_source_defers_until_commit() {
        let buf = BufferedSource::new(Teletype::new());
        buf.emit_buffered(b"a");
        buf.emit_buffered(b"b");
        assert_eq!(buf.pending_count(), 2);
        assert!(buf.inner().output().is_empty());

        let n = buf.commit(&PredicateSet::empty()).unwrap();
        assert_eq!(n, 2);
        assert_eq!(buf.inner().output_strings(), vec!["a", "b"]);
        assert_eq!(buf.pending_count(), 0);
    }

    #[test]
    fn buffered_commit_requires_resolution() {
        let buf = BufferedSource::new(Teletype::new());
        buf.emit_buffered(b"x");
        let preds = PredicateSet::new([Pid(1)], []);
        assert!(buf.commit(&preds).is_err());
        assert_eq!(buf.pending_count(), 1, "failed commit keeps the buffer");
    }

    #[test]
    fn buffered_discard_prevents_side_effects() {
        let buf = BufferedSource::new(Teletype::new());
        buf.emit_buffered(b"doomed output");
        assert_eq!(buf.discard(), 1);
        assert_eq!(buf.commit(&PredicateSet::empty()).unwrap(), 0);
        assert!(buf.inner().output().is_empty());
    }

    #[test]
    fn commit_preserves_emission_order() {
        let buf = BufferedSource::new(Teletype::new());
        for i in 0..10 {
            buf.emit_buffered(format!("line{i}").as_bytes());
        }
        buf.commit(&PredicateSet::empty()).unwrap();
        let out = buf.inner().output_strings();
        for (i, line) in out.iter().enumerate() {
            assert_eq!(line, &format!("line{i}"));
        }
    }

    #[test]
    fn device_error_display() {
        let e = DeviceError::Unresolved {
            pending_assumptions: 3,
        };
        assert!(e.to_string().contains('3'));
    }
}
