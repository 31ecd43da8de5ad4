//! Reliable-FIFO transport.
//!
//! §2.1: "Interprocess communication (IPC) is assumed to behave reliably (no
//! lost or duplicated messages) and FIFO (no out of order messages)." The
//! [`Network`] enforces both by construction: sends append to the
//! destination's mailbox under a lock and are stamped with a global,
//! monotonically increasing [`MsgId`].

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;

use super::message::{Message, MsgId};
use crate::predicate::Pid;

/// One receiver's pending-message queue, in arrival order.
#[derive(Debug, Default)]
pub struct Mailbox {
    queue: VecDeque<Message>,
}

impl Mailbox {
    /// Messages waiting.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Look at the head message without removing it.
    pub fn peek(&self) -> Option<&Message> {
        self.queue.front()
    }

    fn push(&mut self, msg: Message) {
        self.queue.push_back(msg);
    }

    fn pop(&mut self) -> Option<Message> {
        self.queue.pop_front()
    }
}

#[derive(Debug, Default)]
struct NetInner {
    boxes: HashMap<Pid, Mailbox>,
    next_id: u64,
    sent: u64,
    delivered: u64,
}

/// A reliable, FIFO, in-memory message network between processes.
///
/// Clones share the same network (internally `Arc`), so each simulated or
/// real thread can hold a handle.
#[derive(Clone, Debug, Default)]
pub struct Network {
    inner: Arc<Mutex<NetInner>>,
}

impl Network {
    /// A fresh, empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Send `msg` (stamping its id). Never lost, never duplicated, never
    /// reordered relative to other sends to the same destination.
    pub fn send(&self, mut msg: Message) -> MsgId {
        let mut inner = self.inner.lock();
        inner.next_id += 1;
        let id = MsgId(inner.next_id);
        msg.id = id;
        inner.sent += 1;
        inner.boxes.entry(msg.dst).or_default().push(msg);
        id
    }

    /// Remove and return the next message for `dst`, if any.
    pub fn recv(&self, dst: Pid) -> Option<Message> {
        let mut inner = self.inner.lock();
        let msg = inner.boxes.get_mut(&dst)?.pop();
        if msg.is_some() {
            inner.delivered += 1;
        }
        msg
    }

    /// Number of messages waiting for `dst`.
    pub fn pending(&self, dst: Pid) -> usize {
        self.inner.lock().boxes.get(&dst).map_or(0, |b| b.len())
    }

    /// Copy every message waiting for `src_box` into a new mailbox for
    /// `dst_box`, preserving order. Used when a receiver world-splits: both
    /// copies must be able to see the still-queued traffic.
    pub fn duplicate_mailbox(&self, src_box: Pid, dst_box: Pid) {
        let mut inner = self.inner.lock();
        let msgs: Vec<Message> = inner
            .boxes
            .get(&src_box)
            .map(|b| b.queue.iter().cloned().collect())
            .unwrap_or_default();
        let dst = inner.boxes.entry(dst_box).or_default();
        for mut m in msgs {
            m.dst = dst_box;
            dst.push(m);
        }
    }

    /// Drop the mailbox of an eliminated process.
    pub fn discard_mailbox(&self, pid: Pid) {
        self.inner.lock().boxes.remove(&pid);
    }

    /// Total messages ever sent.
    pub fn total_sent(&self) -> u64 {
        self.inner.lock().sent
    }

    /// Total messages ever received (delivered to a `recv` call).
    pub fn total_delivered(&self) -> u64 {
        self.inner.lock().delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::PredicateSet;

    fn msg(src: u64, dst: u64, body: &str) -> Message {
        Message::new(Pid(src), Pid(dst), PredicateSet::empty(), body)
    }

    #[test]
    fn fifo_per_destination() {
        let net = Network::new();
        net.send(msg(1, 9, "a"));
        net.send(msg(2, 9, "b"));
        net.send(msg(1, 9, "c"));
        assert_eq!(net.pending(Pid(9)), 3);
        assert_eq!(net.recv(Pid(9)).unwrap().payload_str(), Some("a"));
        assert_eq!(net.recv(Pid(9)).unwrap().payload_str(), Some("b"));
        assert_eq!(net.recv(Pid(9)).unwrap().payload_str(), Some("c"));
        assert!(net.recv(Pid(9)).is_none());
    }

    #[test]
    fn ids_are_globally_monotonic() {
        let net = Network::new();
        let a = net.send(msg(1, 2, "x"));
        let b = net.send(msg(3, 4, "y"));
        assert!(b > a);
    }

    #[test]
    fn no_loss_no_duplication() {
        let net = Network::new();
        for i in 0..100 {
            net.send(msg(1, 7, &format!("m{i}")));
        }
        let mut seen = std::collections::HashSet::new();
        while let Some(m) = net.recv(Pid(7)) {
            assert!(seen.insert(m.id), "duplicate delivery");
        }
        assert_eq!(seen.len(), 100);
        assert_eq!(net.total_sent(), 100);
        assert_eq!(net.total_delivered(), 100);
    }

    #[test]
    fn recv_from_empty_or_unknown_is_none() {
        let net = Network::new();
        assert!(net.recv(Pid(42)).is_none());
    }

    #[test]
    fn duplicate_mailbox_preserves_order_and_retargets() {
        let net = Network::new();
        net.send(msg(1, 5, "a"));
        net.send(msg(1, 5, "b"));
        net.duplicate_mailbox(Pid(5), Pid(6));
        // Original untouched.
        assert_eq!(net.pending(Pid(5)), 2);
        assert_eq!(net.pending(Pid(6)), 2);
        let m = net.recv(Pid(6)).unwrap();
        assert_eq!(m.payload_str(), Some("a"));
        assert_eq!(m.dst, Pid(6), "copies are re-addressed to the new world");
    }

    #[test]
    fn discard_mailbox_drops_pending() {
        let net = Network::new();
        net.send(msg(1, 5, "a"));
        net.discard_mailbox(Pid(5));
        assert_eq!(net.pending(Pid(5)), 0);
        assert!(net.recv(Pid(5)).is_none());
    }

    #[test]
    fn concurrent_senders_never_lose_messages() {
        use std::thread;
        let net = Network::new();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let net = net.clone();
                thread::spawn(move || {
                    for i in 0..50 {
                        net.send(msg(t, 9, &format!("{t}:{i}")));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(net.pending(Pid(9)), 200);
        // Per-sender FIFO: each sender's messages arrive in its send order.
        let mut last = [0usize; 4];
        let mut count = [0usize; 4];
        while let Some(m) = net.recv(Pid(9)) {
            let s = m.payload_str().unwrap();
            let (t, i) = s.split_once(':').unwrap();
            let (t, i): (usize, usize) = (t.parse().unwrap(), i.parse().unwrap());
            if count[t] > 0 {
                assert!(i > last[t], "sender {t} reordered: {i} after {}", last[t]);
            }
            last[t] = i;
            count[t] += 1;
        }
        assert_eq!(count.iter().sum::<usize>(), 200);
    }

    #[test]
    fn mailbox_peek_does_not_consume() {
        let mut mb = Mailbox::default();
        assert!(mb.is_empty());
        mb.push(msg(1, 2, "x"));
        assert_eq!(mb.peek().unwrap().payload_str(), Some("x"));
        assert_eq!(mb.len(), 1);
    }
}
