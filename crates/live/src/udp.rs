//! [`UdpTransport`]: the real-socket backend (`std::net` + threads only).
//!
//! Each endpoint has one socket, bound to an OS-assigned port, and fans
//! data out by unicast: control datagrams go to one known peer, data
//! datagrams to every known peer. Because everything leaves from this one
//! socket, every arrival carries the sender's address as its source, and
//! peers learn each other's addresses from traffic alone: any datagram whose
//! header and CRC check out (a tone edge is enough to bootstrap).
//!
//! The endpoint is sans-select: [`UdpTransport::poll`] never blocks, and
//! [`UdpTransport::wait_until`] blocks at most until a MAC-time deadline
//! (the node's next timer) — the two calls [`Driver`](crate::Driver)'s pump
//! loop is made of.
//!
//! A reader thread stamps arrivals in MAC time (a shared [`WallClock`])
//! *at receive time*, so sleeps in `wait_until` don't smear arrival
//! timestamps, and forwards them over an in-process queue. The incoming
//! channel tag is read from the checked header: frames are data-channel
//! traffic, everything else (and a datagram whose header or CRC fails)
//! control. The node decodes the body.
//!
//! MAC time runs `scale`× slower than wall time (default 200×), so that
//! host latency shrinks below the paper's 2 µs tone margin in MAC units.
//! What has to fit in the margin is a round trip, not one hop: a tone
//! answers a frame, so its rise is late by the frame's hop, the answering
//! node's timer wake and the tone's own hop (socket, reader thread, channel
//! and driver thread each time). Measured on a 2-core host in a debug
//! build that is 0.3–0.8 ms of wall, which 200× turns into 1.4–3.8 µs —
//! about half of all attempts miss and are retried; `tests/udp_end_to_end.rs`
//! runs at 1000×. See `rmac_core::clock`.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use rmac_core::WallClock;
use rmac_sim::SimTime;
use rmac_wire::{decode_header, NodeId};

use crate::transport::{DgramChannel, Incoming, TransportError};

/// Configuration for a [`UdpTransport`].
#[derive(Clone, Debug)]
pub struct UdpConfig {
    /// Wall nanoseconds per MAC nanosecond (see [`WallClock`]).
    pub scale: u32,
    /// Local bind address of the socket.
    pub ctrl_bind: SocketAddr,
    /// Peers whose addresses are known up front; others are learned from
    /// incoming traffic.
    pub peers: Vec<(NodeId, SocketAddr)>,
}

/// The reader thread's poll quantum (bounds shutdown latency).
const READ_TIMEOUT: Duration = Duration::from_millis(50);

impl Default for UdpConfig {
    fn default() -> Self {
        UdpConfig {
            scale: 200,
            ctrl_bind: "127.0.0.1:0".parse().expect("literal addr"),
            peers: Vec::new(),
        }
    }
}

/// What a reader thread forwards: an arrival stamped at receive time.
struct Packet {
    at: SimTime,
    bytes: Vec<u8>,
    from: SocketAddr,
}

/// The real-socket endpoint. See the module docs.
pub struct UdpTransport {
    id: NodeId,
    clock: WallClock,
    ctrl: UdpSocket,
    ctrl_addr: SocketAddr,
    peers: HashMap<NodeId, SocketAddr>,
    rx: Receiver<Packet>,
    backlog: VecDeque<Packet>,
    shutdown: Arc<AtomicBool>,
    reader: Option<JoinHandle<()>>,
}

fn spawn_reader(
    sock: UdpSocket,
    clock: WallClock,
    tx: Sender<Packet>,
    shutdown: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut buf = vec![0u8; 64 * 1024];
        while !shutdown.load(Ordering::Relaxed) {
            match sock.recv_from(&mut buf) {
                Ok((len, from)) => {
                    let pkt = Packet {
                        at: clock.now(),
                        bytes: buf[..len].to_vec(),
                        from,
                    };
                    if tx.send(pkt).is_err() {
                        break; // transport dropped
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(_) => break,
            }
        }
    })
}

impl UdpTransport {
    /// Bind the socket and start the reader thread. MAC time zero is the
    /// moment this returns.
    pub fn new(id: NodeId, cfg: UdpConfig) -> io::Result<UdpTransport> {
        let clock = WallClock::new(cfg.scale);
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();

        let ctrl = UdpSocket::bind(cfg.ctrl_bind)?;
        ctrl.set_read_timeout(Some(READ_TIMEOUT))?;
        let ctrl_addr = ctrl.local_addr()?;
        let reader = spawn_reader(ctrl.try_clone()?, clock.clone(), tx, Arc::clone(&shutdown));

        Ok(UdpTransport {
            id,
            clock,
            ctrl,
            ctrl_addr,
            peers: cfg.peers.into_iter().collect(),
            rx,
            backlog: VecDeque::new(),
            shutdown,
            reader: Some(reader),
        })
    }

    /// The socket's bound address (give this to peers).
    pub fn ctrl_addr(&self) -> SocketAddr {
        self.ctrl_addr
    }

    /// Register (or update) a peer's address.
    pub fn add_peer(&mut self, id: NodeId, addr: SocketAddr) {
        self.peers.insert(id, addr);
    }

    /// Peers currently known (configured + learned).
    pub fn peers(&self) -> &HashMap<NodeId, SocketAddr> {
        &self.peers
    }

    /// Learn the sender's address and classify the channel (see
    /// [`classify`]).
    fn admit(&mut self, pkt: Packet) -> Incoming {
        let (channel, src) = classify(&pkt.bytes);
        if let Some(src) = src.filter(|&src| src != self.id) {
            self.peers.insert(src, pkt.from);
        }
        Incoming {
            at: pkt.at,
            channel,
            bytes: pkt.bytes,
            // Real UDP has no "faded but present" state: the kernel drops
            // checksum failures before we see them.
            corrupt: false,
        }
    }

    /// This endpoint's node id.
    pub fn local(&self) -> NodeId {
        self.id
    }

    /// Current MAC time on the endpoint's scaled wall clock (monotone).
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Send `bytes` on the data channel: to every known peer.
    pub fn send_data(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        for addr in self.peers.values() {
            self.ctrl.send_to(bytes, addr)?;
        }
        Ok(())
    }

    /// Send `bytes` on the control channel to `to`, whose address must be
    /// known (configured or learned).
    pub fn send_ctrl(&mut self, to: NodeId, bytes: &[u8]) -> Result<(), TransportError> {
        let addr = *self.peers.get(&to).ok_or(TransportError::UnknownPeer(to))?;
        self.ctrl.send_to(bytes, addr)?;
        Ok(())
    }

    /// Non-blocking receive: the next datagram already available, if any.
    pub fn poll(&mut self) -> Result<Option<Incoming>, TransportError> {
        if let Some(pkt) = self.backlog.pop_front() {
            return Ok(Some(self.admit(pkt)));
        }
        match self.rx.try_recv() {
            Ok(pkt) => Ok(Some(self.admit(pkt))),
            Err(_) => Ok(None),
        }
    }

    /// Block until MAC time `deadline` or until traffic arrives, whichever
    /// is first; an early arrival goes to the backlog for the next
    /// [`poll`](Self::poll).
    pub fn wait_until(&mut self, deadline: SimTime) -> Result<(), TransportError> {
        let dur = self.clock.until(deadline);
        if dur.is_zero() {
            return Ok(());
        }
        match self.rx.recv_timeout(dur) {
            Ok(pkt) => self.backlog.push_back(pkt),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {}
        }
        Ok(())
    }
}

/// A datagram's channel, and its sender when its header and CRC check out
/// (a sender to learn): frames are data traffic, the rest control. Only the
/// header is read; the node decodes the body.
fn classify(bytes: &[u8]) -> (DgramChannel, Option<NodeId>) {
    match decode_header(bytes) {
        Ok(h) if h.frame => (DgramChannel::Data, Some(h.src)),
        Ok(h) => (DgramChannel::Ctrl, Some(h.src)),
        Err(_) => (DgramChannel::Ctrl, None),
    }
}

impl Drop for UdpTransport {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmac_wire::{decode_datagram, encode_datagram, Datagram, DgramBody};

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn dgram(src: u16, body: DgramBody) -> Vec<u8> {
        encode_datagram(&Datagram {
            src: n(src),
            counter: 0,
            body,
        })
    }

    /// Poll with patience: loopback delivery is fast but not instant.
    fn recv_one(t: &mut UdpTransport) -> Option<Incoming> {
        for _ in 0..400 {
            if let Some(inc) = t.poll().unwrap() {
                return Some(inc);
            }
            t.wait_until(t.now() + SimTime::from_micros(50)).unwrap();
        }
        None
    }

    /// Fan-out end to end: peer learning from a tone edge, data and
    /// control both flowing, channel classified by body.
    #[test]
    fn unicast_exchange_with_peer_learning() {
        let cfg = |scale| UdpConfig {
            scale,
            ..UdpConfig::default()
        };
        let mut a = UdpTransport::new(n(1), cfg(1)).unwrap();
        let mut b = UdpTransport::new(n(2), cfg(1)).unwrap();
        // a knows b up front; b knows nobody.
        a.add_peer(n(2), b.ctrl_addr());
        assert!(matches!(
            b.send_ctrl(n(1), b"x"),
            Err(TransportError::UnknownPeer(_))
        ));
        // a raises a tone on the control channel; b learns a's address.
        a.send_ctrl(n(2), &dgram(1, DgramBody::Tone { tone: 0, on: true }))
            .unwrap();
        let inc = recv_one(&mut b).expect("tone arrives");
        assert_eq!(inc.channel, DgramChannel::Ctrl);
        assert_eq!(b.peers().get(&n(1)), Some(&a.ctrl_addr()));
        // b can now reply; a's tone datagram classifies as control…
        b.send_ctrl(n(1), &dgram(2, DgramBody::Tone { tone: 0, on: true }))
            .unwrap();
        let inc = recv_one(&mut a).expect("tone arrives");
        assert_eq!(inc.channel, DgramChannel::Ctrl);
        // …and a frame body classifies as data.
        a.send_data(&dgram(1, DgramBody::Frame(bytes::Bytes::from_static(b"f"))))
            .unwrap();
        let inc = recv_one(&mut b).expect("data arrives");
        assert_eq!(inc.channel, DgramChannel::Data);
    }

    /// Every body kind classifies to the channel a full decode gave it
    /// (frames data, the rest control) and names its sender; a datagram
    /// whose CRC fails, or which is not a datagram, names none.
    #[test]
    fn the_header_classifies_as_the_decoded_body_did() {
        let bodies = [
            DgramBody::Frame(bytes::Bytes::from_static(b"frame")),
            DgramBody::Tone { tone: 1, on: true },
            DgramBody::Abort { counter: 9 },
        ];
        for body in bodies {
            let wire = dgram(6, body);
            let before = match decode_datagram(&wire).expect("well formed").body {
                DgramBody::Frame(_) => DgramChannel::Data,
                _ => DgramChannel::Ctrl,
            };
            assert_eq!(classify(&wire), (before, Some(n(6))), "{wire:?}");
            let mut bad = wire.clone();
            *bad.last_mut().expect("a trailer") ^= 1;
            assert_eq!(classify(&bad), (DgramChannel::Ctrl, None), "{bad:?}");
        }
        assert_eq!(classify(b"noise"), (DgramChannel::Ctrl, None));
    }

    /// Arrival timestamps come from the reader thread, not from when the
    /// caller got around to polling.
    #[test]
    fn arrivals_are_stamped_at_receive_time() {
        let mut a = UdpTransport::new(
            n(1),
            UdpConfig {
                scale: 1,
                ..UdpConfig::default()
            },
        )
        .unwrap();
        let mut b = UdpTransport::new(
            n(2),
            UdpConfig {
                scale: 1,
                ..UdpConfig::default()
            },
        )
        .unwrap();
        a.add_peer(n(2), b.ctrl_addr());
        a.send_ctrl(n(2), &dgram(1, DgramBody::Abort { counter: 0 }))
            .unwrap();
        // Give the datagram ample time to land, then sleep some more
        // before polling: the stamp must predate the poll.
        std::thread::sleep(Duration::from_millis(60));
        let polled_at = b.now();
        let inc = recv_one(&mut b).expect("abort arrives");
        assert!(
            inc.at <= polled_at,
            "stamped {} but polled {}",
            inc.at,
            polled_at
        );
    }
}
