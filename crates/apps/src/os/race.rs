//! The forked alternative race: fork, pipe rendezvous, SIGKILL
//! elimination.

use std::io;
use std::time::Duration;

/// Maximum result payload a child may return. One header byte + two
/// length bytes + payload must fit `PIPE_BUF` (≥ 4096 on Linux) so the
/// rendezvous write is atomic.
pub const MAX_PAYLOAD: usize = 4093;

/// The child computation type: fills the scratch buffer, returns the
/// result length or a guard failure.
pub type ChildFn = Box<dyn FnMut(&mut [u8]) -> Result<usize, ()> + Send>;

/// One alternative to run in a forked child.
pub struct ForkAlt {
    /// Label for reports.
    pub label: String,
    /// The child computation. Runs **in the forked child**: it receives a
    /// preallocated scratch buffer and must return `Ok(len)` with its
    /// result occupying `buf[..len]`, or `Err(())` if its guard fails.
    /// In multithreaded embedders this closure must not allocate or lock
    /// (see module docs).
    pub run: ChildFn,
}

impl ForkAlt {
    /// Convenience constructor.
    pub fn new(
        label: impl Into<String>,
        run: impl FnMut(&mut [u8]) -> Result<usize, ()> + Send + 'static,
    ) -> Self {
        ForkAlt {
            label: label.into(),
            run: Box::new(run),
        }
    }
}

/// Sibling elimination policy, as in §2.2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ForkElim {
    /// SIGKILL then `waitpid` each sibling before returning.
    Sync,
    /// SIGKILL and return; zombies are reaped when the [`ForkReport`] is
    /// dropped (off the response-time path — the paper measured this to
    /// be roughly twice as fast).
    #[default]
    Async,
}

/// Outcome of the race.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForkOutcome {
    /// A child rendezvoused first; here is its payload.
    Winner {
        /// Index of the winning alternative.
        index: usize,
        /// The winner's label.
        label: String,
        /// Bytes the winner wrote.
        payload: Vec<u8>,
    },
    /// Every child exited without writing a result (guards failed).
    AllFailed,
    /// The timeout expired with no winner.
    TimedOut,
}

/// Race result plus deferred-reap bookkeeping.
#[derive(Debug)]
pub struct ForkReport {
    /// What happened.
    pub outcome: ForkOutcome,
    /// Pids killed but not yet reaped (async elimination). Reaped on
    /// drop.
    pending: Vec<i32>,
}

impl ForkReport {
    /// Number of children whose reaping was deferred.
    pub fn pending_reaps(&self) -> usize {
        self.pending.len()
    }

    /// Block until all deferred children are reaped.
    pub fn reap(&mut self) {
        for pid in self.pending.drain(..) {
            let mut status = 0;
            unsafe { libc::waitpid(pid, &mut status, 0) };
        }
    }
}

impl Drop for ForkReport {
    fn drop(&mut self) {
        self.reap();
    }
}

/// A configured race of forked alternatives.
pub struct ForkRace {
    alts: Vec<ForkAlt>,
    timeout: Option<Duration>,
    elim: ForkElim,
}

impl ForkRace {
    /// A race over the given alternatives.
    pub fn new(alts: Vec<ForkAlt>) -> Self {
        assert!(!alts.is_empty(), "a race needs at least one alternative");
        assert!(alts.len() <= 255, "indices are one byte on the pipe");
        ForkRace {
            alts,
            timeout: None,
            elim: ForkElim::default(),
        }
    }

    /// Set the parent's wait timeout.
    pub fn timeout(mut self, t: Duration) -> Self {
        self.timeout = Some(t);
        self
    }

    /// Set the elimination mode.
    pub fn elim(mut self, e: ForkElim) -> Self {
        self.elim = e;
        self
    }

    /// Fork every alternative and wait for the first rendezvous.
    pub fn run(mut self) -> io::Result<ForkReport> {
        let labels: Vec<String> = self.alts.iter().map(|a| a.label.clone()).collect();
        let n = self.alts.len();

        // Shared pipe: all children write, the parent reads.
        let mut fds = [0i32; 2];
        if unsafe { libc::pipe(fds.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        let (read_fd, write_fd) = (fds[0], fds[1]);

        // Preallocate every child's scratch + message buffer BEFORE
        // forking (fork-safety: no child-side allocation).
        let mut scratches: Vec<Vec<u8>> = (0..n).map(|_| vec![0u8; MAX_PAYLOAD]).collect();
        let mut msg_buf: Vec<u8> = vec![0u8; 3 + MAX_PAYLOAD];

        let mut pids: Vec<i32> = Vec::with_capacity(n);
        for (i, alt) in self.alts.iter_mut().enumerate() {
            let pid = unsafe { libc::fork() };
            match pid {
                -1 => {
                    // Fork failed: kill what we started, clean up.
                    let err = io::Error::last_os_error();
                    for &p in &pids {
                        unsafe {
                            libc::kill(p, libc::SIGKILL);
                            let mut st = 0;
                            libc::waitpid(p, &mut st, 0);
                        }
                    }
                    unsafe {
                        libc::close(read_fd);
                        libc::close(write_fd);
                    }
                    return Err(err);
                }
                0 => {
                    // Child: run the alternative; on success, one atomic
                    // write of [idx, len_lo, len_hi, payload...].
                    unsafe { libc::close(read_fd) };
                    let scratch = &mut scratches[i];
                    let status = match (alt.run)(scratch) {
                        Ok(len) if len <= MAX_PAYLOAD => {
                            msg_buf[0] = i as u8;
                            msg_buf[1] = (len & 0xFF) as u8;
                            msg_buf[2] = ((len >> 8) & 0xFF) as u8;
                            msg_buf[3..3 + len].copy_from_slice(&scratch[..len]);
                            let total = 3 + len;
                            let wrote =
                                unsafe { libc::write(write_fd, msg_buf.as_ptr().cast(), total) };
                            if wrote == total as isize {
                                0
                            } else {
                                2
                            }
                        }
                        Ok(_) => 3,   // oversized result: protocol violation
                        Err(()) => 1, // guard failed: exit silently
                    };
                    unsafe { libc::_exit(status) };
                }
                child => pids.push(child),
            }
        }
        // Parent: close its copy of the write end so EOF means "all
        // children are gone".
        unsafe { libc::close(write_fd) };

        let outcome = self.parent_wait(read_fd, &labels)?;
        unsafe { libc::close(read_fd) };

        // Eliminate the siblings.
        let winner_pid = match &outcome {
            ForkOutcome::Winner { index, .. } => Some(pids[*index]),
            _ => None,
        };
        let mut pending = Vec::new();
        for &pid in &pids {
            if Some(pid) != winner_pid {
                unsafe { libc::kill(pid, libc::SIGKILL) };
            }
        }
        // The winner exited on its own; reap it now (cheap).
        if let Some(wp) = winner_pid {
            let mut st = 0;
            unsafe { libc::waitpid(wp, &mut st, 0) };
        }
        match self.elim {
            ForkElim::Sync => {
                for &pid in &pids {
                    if Some(pid) != winner_pid {
                        let mut st = 0;
                        unsafe { libc::waitpid(pid, &mut st, 0) };
                    }
                }
            }
            ForkElim::Async => {
                pending = pids
                    .iter()
                    .copied()
                    .filter(|&p| Some(p) != winner_pid)
                    .collect();
            }
        }
        Ok(ForkReport { outcome, pending })
    }

    /// Wait for the first full message, EOF, or timeout.
    fn parent_wait(&self, read_fd: i32, labels: &[String]) -> io::Result<ForkOutcome> {
        let deadline_ms: i32 = match self.timeout {
            Some(t) => t.as_millis().min(i32::MAX as u128) as i32,
            None => -1,
        };
        let start = std::time::Instant::now();
        let mut header = [0u8; 3];
        let mut got = 0usize;
        loop {
            let remaining_ms = if deadline_ms < 0 {
                -1
            } else {
                let used = start.elapsed().as_millis() as i64;
                let left = deadline_ms as i64 - used;
                if left <= 0 {
                    return Ok(ForkOutcome::TimedOut);
                }
                left as i32
            };
            let mut pfd = libc::pollfd {
                fd: read_fd,
                events: libc::POLLIN,
                revents: 0,
            };
            let pr = unsafe { libc::poll(&mut pfd, 1, remaining_ms) };
            if pr == 0 {
                return Ok(ForkOutcome::TimedOut);
            }
            if pr < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(e);
            }
            // Read the 3-byte header, then the payload (the message was a
            // single atomic write, so it is fully available).
            while got < 3 {
                let r = unsafe { libc::read(read_fd, header[got..].as_mut_ptr().cast(), 3 - got) };
                if r == 0 {
                    return Ok(ForkOutcome::AllFailed); // EOF: every child died silently
                }
                if r < 0 {
                    let e = io::Error::last_os_error();
                    if e.kind() == io::ErrorKind::Interrupted {
                        continue;
                    }
                    return Err(e);
                }
                got += r as usize;
            }
            let index = header[0] as usize;
            let len = header[1] as usize | ((header[2] as usize) << 8);
            let mut payload = vec![0u8; len];
            let mut have = 0usize;
            while have < len {
                let r =
                    unsafe { libc::read(read_fd, payload[have..].as_mut_ptr().cast(), len - have) };
                if r <= 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "child died mid-message despite atomic write",
                    ));
                }
                have += r as usize;
            }
            return Ok(ForkOutcome::Winner {
                index,
                label: labels[index].clone(),
                payload,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spin for roughly `ms` milliseconds without syscalls or allocation
    /// (children must stay fork-safe).
    fn spin_ms(ms: u64) {
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn fastest_child_wins() {
        let race = ForkRace::new(vec![
            ForkAlt::new("slow", |buf| {
                spin_ms(300);
                buf[0] = b'S';
                Ok(1)
            }),
            ForkAlt::new("fast", |buf| {
                buf[..4].copy_from_slice(b"FAST");
                Ok(4)
            }),
        ])
        .elim(ForkElim::Sync);
        let report = race.run().unwrap();
        match &report.outcome {
            ForkOutcome::Winner {
                index,
                label,
                payload,
            } => {
                assert_eq!(*index, 1);
                assert_eq!(label, "fast");
                assert_eq!(payload, b"FAST");
            }
            other => panic!("expected winner, got {other:?}"),
        }
        assert_eq!(report.pending_reaps(), 0, "sync elimination reaps inline");
    }

    #[test]
    fn guard_failures_exit_silently() {
        let race = ForkRace::new(vec![
            ForkAlt::new("bad1", |_| Err(())),
            ForkAlt::new("bad2", |_| Err(())),
        ])
        .elim(ForkElim::Sync);
        let report = race.run().unwrap();
        assert_eq!(report.outcome, ForkOutcome::AllFailed);
    }

    #[test]
    fn failed_guard_loses_to_successful_sibling() {
        let race = ForkRace::new(vec![
            ForkAlt::new("bad", |_| Err(())),
            ForkAlt::new("good", |buf| {
                buf[0] = 42;
                Ok(1)
            }),
        ])
        .elim(ForkElim::Sync);
        let report = race.run().unwrap();
        assert!(matches!(
            &report.outcome,
            ForkOutcome::Winner { index: 1, .. }
        ));
    }

    #[test]
    fn timeout_with_stuck_children() {
        let race = ForkRace::new(vec![ForkAlt::new("stuck", |buf| {
            spin_ms(5_000);
            buf[0] = 0;
            Ok(1)
        })])
        .timeout(Duration::from_millis(60))
        .elim(ForkElim::Sync);
        let t0 = std::time::Instant::now();
        let report = race.run().unwrap();
        assert_eq!(report.outcome, ForkOutcome::TimedOut);
        assert!(
            t0.elapsed() < Duration::from_millis(2_000),
            "SIGKILL must cut the wait short"
        );
    }

    #[test]
    fn cow_isolation_between_parent_and_children() {
        // The child mutates a large inherited buffer; the parent's copy
        // must be untouched (the kernel's COW is doing the Multiple
        // Worlds work).
        let shared: Vec<u8> = vec![7u8; 64 * 1024];
        let probe = shared.as_ptr() as usize; // moved into the closure as a value
        let race = ForkRace::new(vec![ForkAlt::new("mutator", move |buf| {
            let slice = unsafe { std::slice::from_raw_parts_mut(probe as *mut u8, 64 * 1024) };
            for b in slice.iter_mut() {
                *b = 9;
            }
            buf[0] = slice[0];
            Ok(1)
        })])
        .elim(ForkElim::Sync);
        let report = race.run().unwrap();
        match &report.outcome {
            ForkOutcome::Winner { payload, .. } => assert_eq!(payload[0], 9),
            other => panic!("expected winner, got {other:?}"),
        }
        assert!(
            shared.iter().all(|&b| b == 7),
            "parent pages must be COW-protected"
        );
    }

    #[test]
    fn async_elimination_defers_reaping() {
        let race = ForkRace::new(vec![
            ForkAlt::new("win", |buf| {
                buf[0] = 1;
                Ok(1)
            }),
            ForkAlt::new("lose", |buf| {
                spin_ms(2_000);
                buf[0] = 2;
                Ok(1)
            }),
        ])
        .elim(ForkElim::Async);
        let mut report = race.run().unwrap();
        assert!(matches!(
            &report.outcome,
            ForkOutcome::Winner { index: 0, .. }
        ));
        assert_eq!(report.pending_reaps(), 1);
        report.reap();
        assert_eq!(report.pending_reaps(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_race_rejected() {
        let _ = ForkRace::new(vec![]);
    }
}
