//! The upper half every MAC shares: the two send services of §3.3.
//!
//! RMAC and the 802.11 baselines offer the upper layer the same Reliable
//! Send and Unreliable Send; they differ only in the exchange that carries
//! a reliable frame. Everything before that exchange is the same for all
//! of them and lives here: bounded admission with its counters, sequence
//! numbering, the expansion of a destination into a receiver list, the
//! vacuous completion of a send with nobody to reach, and the whole of the
//! (fire-and-forget) Unreliable Send.

use std::collections::VecDeque;

use bytes::Bytes;
use rmac_wire::{Dest, Frame, NodeId};

use crate::api::{MacContext, TxOutcome, TxRequest};

/// A Reliable Send ready for its exchange: at least one receiver, none of
/// them the sender, none listed twice.
#[derive(Debug)]
pub struct ReliableSend {
    pub token: u64,
    pub payload: Bytes,
    pub seq: u32,
    pub receivers: Vec<NodeId>,
}

/// An Unreliable Send: one data frame, no feedback.
#[derive(Debug)]
pub struct UnreliableSend {
    token: u64,
    payload: Bytes,
    dest: Dest,
    seq: u32,
}

impl UnreliableSend {
    /// Put the frame on the air as `src`, booking its air time.
    pub fn transmit(&self, ctx: &mut dyn MacContext, src: NodeId) {
        let frame = Frame::data_unreliable(src, self.dest.clone(), self.payload.clone(), self.seq);
        ctx.counters().unreliable_data_airtime += frame.airtime();
        ctx.start_tx(frame);
    }

    /// The frame left the antenna (or was aborted — fire-and-forget either
    /// way): report the outcome.
    pub fn sent(self, ctx: &mut dyn MacContext) {
        ctx.notify(self.token, TxOutcome::Sent);
    }
}

/// What [`SendQueue::next`] hands the MAC to serve.
#[derive(Debug)]
pub enum Next {
    Reliable(ReliableSend),
    Unreliable(UnreliableSend),
}

/// One node's transmit queue.
pub struct SendQueue {
    id: NodeId,
    capacity: usize,
    queue: VecDeque<TxRequest>,
    next_seq: u32,
}

impl SendQueue {
    /// The queue of node `id`, holding at most `capacity` waiting requests.
    pub fn new(id: NodeId, capacity: usize) -> SendQueue {
        SendQueue {
            id,
            capacity,
            queue: VecDeque::new(),
            next_seq: 0,
        }
    }

    /// Waiting requests (the one being served is not among them).
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no request is waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Admit `req`, or reject it when the queue is full. Returns whether it
    /// was queued: a MAC must not look for progress after a rejection (that
    /// can draw from the RNG on behalf of a request that does not exist).
    pub fn submit(&mut self, ctx: &mut dyn MacContext, req: TxRequest) -> bool {
        if self.queue.len() >= self.capacity {
            ctx.counters().queue_rejections += 1;
            ctx.notify(req.token, TxOutcome::Rejected);
            return false;
        }
        if req.reliable {
            ctx.counters().reliable_accepted += 1;
        } else {
            ctx.counters().unreliable_accepted += 1;
        }
        self.queue.push_back(req);
        true
    }

    /// The next request that needs the air. A reliable request whose
    /// receiver set is empty once the sender itself is taken out completes
    /// vacuously on the way.
    pub fn next(&mut self, ctx: &mut dyn MacContext) -> Option<Next> {
        loop {
            let req = self.queue.pop_front()?;
            let seq = self.next_seq;
            self.next_seq += 1;
            if !req.reliable {
                return Some(Next::Unreliable(UnreliableSend {
                    token: req.token,
                    payload: req.payload,
                    dest: req.dest,
                    seq,
                }));
            }
            let listed = match req.dest {
                Dest::Node(n) => vec![n],
                Dest::Group(g) => g,
                // §3.3.2: a reliable broadcast addresses the one-hop
                // neighbors known right now.
                Dest::Broadcast => ctx.neighbors(),
            };
            // Every receiver gets one place in the exchange (one ABT slot,
            // one RTS/CTS round), the first it was listed at.
            let mut receivers = Vec::with_capacity(listed.len());
            for n in listed {
                if n != self.id && !receivers.contains(&n) {
                    receivers.push(n);
                }
            }
            if receivers.is_empty() {
                let (delivered, failed) = (vec![], vec![]);
                ctx.notify(req.token, TxOutcome::Reliable { delivered, failed });
                continue;
            }
            return Some(Next::Reliable(ReliableSend {
                token: req.token,
                payload: req.payload,
                seq,
                receivers,
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::Mock;

    fn reliable(dest: Dest, token: u64) -> TxRequest {
        TxRequest {
            reliable: true,
            dest,
            payload: Bytes::from_static(b"p"),
            token,
        }
    }

    #[test]
    fn repeated_receivers_keep_their_first_place_only() {
        let n = NodeId;
        let mut m = Mock::new();
        let mut q = SendQueue::new(n(0), 8);
        // `dedup()` would keep the second `1`: it is not adjacent.
        let group = vec![n(1), n(2), n(1), n(0), n(3), n(3), n(2)];
        assert!(q.submit(&mut m, reliable(Dest::Group(group), 5)));
        let Some(Next::Reliable(send)) = q.next(&mut m) else {
            panic!("a reliable send was queued");
        };
        assert_eq!(send.receivers, vec![n(1), n(2), n(3)]);
        assert!(q.next(&mut m).is_none());
    }

    #[test]
    fn numbering_counts_every_request_served() {
        let n = NodeId;
        let mut m = Mock::new();
        m.neighbor_list = vec![n(4), n(9)];
        let mut q = SendQueue::new(n(0), 8);
        q.submit(&mut m, reliable(Dest::Group(vec![n(0)]), 1));
        q.submit(&mut m, reliable(Dest::Broadcast, 2));
        let Some(Next::Reliable(send)) = q.next(&mut m) else {
            panic!("the broadcast needs the air");
        };
        assert_eq!((send.seq, send.receivers), (1, vec![n(4), n(9)]));
        assert_eq!(m.notifications.len(), 1, "the self-only group completed");
    }
}
