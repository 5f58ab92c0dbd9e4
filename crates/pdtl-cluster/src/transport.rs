//! Counted message transports.
//!
//! The runner talks to nodes through the [`Transport`] trait so the same
//! protocol runs over an in-process channel (the default simulated
//! cluster — deterministic and dependency-free) or a real TCP socket
//! (loopback or an actual network). Every sent message is charged to the
//! shared [`NetTraffic`] counters by traffic class.
//!
//! Receives come in two flavours: blocking [`recv`](Transport::recv)
//! and deadline-bounded [`recv_deadline`](Transport::recv_deadline),
//! which the fault-tolerant runner polls so a dead or wedged node
//! surfaces as [`ClusterError::Timeout`] instead of hanging the master
//! forever. The TCP implementation buffers partial frames across
//! timed-out reads, so a deadline expiring mid-frame never corrupts the
//! stream, and it refuses any frame larger than [`MAX_FRAME_BYTES`].

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::error::{ClusterError, Result};
use crate::message::{Message, Wire};
use crate::netmodel::NetTraffic;

/// The largest message a TCP frame may carry. The largest legal message
/// is a serve `QueryResult` echoing the list cap of 2^22 triples
/// (48 MiB); nodes send their triangle lists in batches far below it.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// A bidirectional, message-oriented endpoint.
pub trait Transport: Send + Sync {
    /// Send one message (counted).
    fn send(&self, msg: &Message) -> Result<()>;
    /// Receive the next message (blocking).
    fn recv(&self) -> Result<Message>;
    /// Receive the next message, waiting at most `timeout`; returns
    /// [`ClusterError::Timeout`] when nothing (complete) arrived in
    /// time. Partial data read before the deadline is retained for the
    /// next call.
    fn recv_deadline(&self, timeout: Duration) -> Result<Message>;
}

fn charge(traffic: &NetTraffic, msg: &Message, bytes: u64) {
    match msg {
        // Serve-mode queries are the configuration of a dispatch, and
        // their answers are results — the same Θ-classes as the cluster
        // protocol, so stats stay comparable across both modes.
        Message::Config { .. } | Message::Query { .. } => traffic.add_config(bytes),
        Message::Results { .. }
        | Message::NodeError { .. }
        | Message::QueryResult { .. }
        | Message::QueryError { .. } => traffic.add_result(bytes),
        Message::Triangles { .. } => traffic.add_triangles(bytes),
        Message::Progress { .. }
        | Message::Shutdown
        | Message::StatsRequest
        | Message::StatsResult { .. } => traffic.add_control(bytes),
    }
}

/// In-process transport endpoint over std channels. The receiver sits
/// in a `Mutex` because `Transport` endpoints are shared across threads
/// and std's `Receiver` is not `Sync`.
pub struct InProcTransport {
    tx: Sender<Vec<u8>>,
    rx: Mutex<Receiver<Vec<u8>>>,
    traffic: Arc<NetTraffic>,
}

/// Create a connected pair of in-process endpoints sharing `traffic`.
pub fn in_proc_pair(traffic: Arc<NetTraffic>) -> (InProcTransport, InProcTransport) {
    let (atx, brx) = channel();
    let (btx, arx) = channel();
    (
        InProcTransport {
            tx: atx,
            rx: Mutex::new(arx),
            traffic: traffic.clone(),
        },
        InProcTransport {
            tx: btx,
            rx: Mutex::new(brx),
            traffic,
        },
    )
}

impl Transport for InProcTransport {
    fn send(&self, msg: &Message) -> Result<()> {
        let encoded = msg.encode();
        charge(&self.traffic, msg, encoded.len() as u64);
        self.tx
            .send(encoded)
            .map_err(|_| ClusterError::Disconnected("in-proc peer"))
    }

    fn recv(&self) -> Result<Message> {
        let raw = self
            .rx
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .recv()
            .map_err(|_| ClusterError::Disconnected("in-proc peer"))?;
        Message::decode(&raw)
    }

    fn recv_deadline(&self, timeout: Duration) -> Result<Message> {
        let raw = self
            .rx
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .recv_timeout(timeout)
            .map_err(|e| match e {
                RecvTimeoutError::Timeout => ClusterError::Timeout {
                    peer: "in-proc peer",
                    after: timeout,
                },
                RecvTimeoutError::Disconnected => ClusterError::Disconnected("in-proc peer"),
            })?;
        Message::decode(&raw)
    }
}

/// Reader half of a [`TcpTransport`]: the stream plus an accumulation
/// buffer so a deadline can expire mid-frame without losing the bytes
/// already read.
struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl FrameReader {
    /// Decode one complete `[u32 len | message]` frame from the front
    /// of the buffer, if present. A header announcing more than
    /// [`MAX_FRAME_BYTES`] is refused as soon as it arrives.
    fn take_frame(&mut self) -> Result<Option<Message>> {
        let Some(&header) = self.buf.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(header) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(ClusterError::Protocol(format!(
                "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
            )));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let msg = Message::decode(&self.buf[4..4 + len]);
        self.buf.drain(..4 + len);
        msg.map(Some)
    }

    /// Read until a full frame is available, or `deadline` (when set)
    /// passes. `None` blocks indefinitely.
    fn recv_frame(&mut self, deadline: Option<Instant>) -> Result<Message> {
        loop {
            if let Some(msg) = self.take_frame()? {
                return Ok(msg);
            }
            let timeout = match deadline {
                None => None,
                Some(d) => {
                    let Some(left) = d
                        .checked_duration_since(Instant::now())
                        .filter(|l| !l.is_zero())
                    else {
                        return Err(ClusterError::Timeout {
                            peer: "tcp peer",
                            after: Duration::ZERO,
                        });
                    };
                    Some(left)
                }
            };
            // `set_read_timeout(Some(ZERO))` is an error on std
            // sockets; the filter above guarantees non-zero.
            self.stream.set_read_timeout(timeout).map_err(|e| {
                ClusterError::Io(pdtl_io::IoError::os("set_read_timeout", "tcp", e))
            })?;
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ClusterError::Disconnected("tcp peer")),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Err(ClusterError::Timeout {
                        peer: "tcp peer",
                        after: Duration::ZERO,
                    })
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Err(ClusterError::Disconnected("tcp peer")),
            }
        }
    }
}

/// TCP transport endpoint with length-prefixed frames.
pub struct TcpTransport {
    reader: Mutex<FrameReader>,
    writer: Mutex<TcpStream>,
    traffic: Arc<NetTraffic>,
}

impl TcpTransport {
    /// Wrap an established stream.
    pub fn from_stream(stream: TcpStream, traffic: Arc<NetTraffic>) -> Result<Self> {
        let reader = stream
            .try_clone()
            .map_err(|e| ClusterError::Io(pdtl_io::IoError::os("clone", "tcp", e)))?;
        Ok(Self {
            reader: Mutex::new(FrameReader {
                stream: reader,
                buf: Vec::new(),
            }),
            writer: Mutex::new(stream),
            traffic,
        })
    }

    /// Connect to `addr`.
    pub fn connect(addr: &str, traffic: Arc<NetTraffic>) -> Result<Self> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| ClusterError::Io(pdtl_io::IoError::os("connect", addr, e)))?;
        Self::from_stream(stream, traffic)
    }

    fn recv_inner(&self, deadline: Option<Instant>, timeout: Duration) -> Result<Message> {
        let mut r = self.reader.lock().unwrap_or_else(|e| e.into_inner());
        r.recv_frame(deadline).map_err(|e| match e {
            // Stamp the caller's timeout onto the error for display.
            ClusterError::Timeout { peer, .. } => ClusterError::Timeout {
                peer,
                after: timeout,
            },
            other => other,
        })
    }
}

impl Transport for TcpTransport {
    /// Encode the header and message into one buffer and write it with
    /// one `write_all`: a separate header write would leave the payload
    /// waiting on Nagle's algorithm for the peer's delayed ACK.
    fn send(&self, msg: &Message) -> Result<()> {
        let mut frame = vec![0u8; 4];
        msg.put(&mut frame);
        let len = frame.len() - 4;
        if len > MAX_FRAME_BYTES {
            return Err(ClusterError::Protocol(format!(
                "refusing to send a {len}-byte message: the frame cap is {MAX_FRAME_BYTES} bytes"
            )));
        }
        frame[..4].copy_from_slice(&(len as u32).to_le_bytes());
        // frame header + payload both cross the wire
        charge(&self.traffic, msg, frame.len() as u64);
        self.writer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .write_all(&frame)
            .map_err(|e| ClusterError::Io(pdtl_io::IoError::os("send", "tcp", e)))
    }

    fn recv(&self) -> Result<Message> {
        self.recv_inner(None, Duration::ZERO)
    }

    fn recv_deadline(&self, timeout: Duration) -> Result<Message> {
        self.recv_inner(Some(Instant::now() + timeout), timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{NodeDirectives, WorkerConfig};

    fn config_msg() -> Message {
        Message::Config {
            node: 1,
            graph_base: "/tmp/g".into(),
            workers: vec![WorkerConfig {
                start: 0,
                end: 10,
                budget_edges: 5,
                scan_pruning: true,
                backend: pdtl_io::IoBackend::default(),
                io_latency_us: 0,
                read_fault: None,
                codec: pdtl_io::Codec::Raw,
            }],
            listing: false,
            directives: NodeDirectives::default(),
        }
    }

    fn loopback() -> (std::net::TcpListener, String) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        (listener, addr)
    }

    #[test]
    fn in_proc_round_trip_and_accounting() {
        let traffic = NetTraffic::new();
        let (a, b) = in_proc_pair(traffic.clone());
        let msg = config_msg();
        a.send(&msg).unwrap();
        assert_eq!(b.recv().unwrap(), msg);
        assert_eq!(traffic.config_bytes(), msg.wire_size());

        let reply = Message::Results {
            node: 1,
            workers: vec![],
        };
        b.send(&reply).unwrap();
        assert_eq!(a.recv().unwrap(), reply);
        assert_eq!(traffic.result_bytes(), reply.wire_size());
    }

    #[test]
    fn in_proc_disconnect_reported() {
        let traffic = NetTraffic::new();
        let (a, b) = in_proc_pair(traffic);
        drop(b);
        assert!(matches!(
            a.send(&config_msg()),
            Err(ClusterError::Disconnected(_))
        ));
        assert!(matches!(a.recv(), Err(ClusterError::Disconnected(_))));
        assert!(matches!(
            a.recv_deadline(Duration::from_secs(5)),
            Err(ClusterError::Disconnected(_))
        ));
    }

    #[test]
    fn in_proc_deadline_distinguishes_timeout_from_disconnect() {
        let traffic = NetTraffic::new();
        let (a, b) = in_proc_pair(traffic);
        assert!(matches!(
            a.recv_deadline(Duration::from_millis(5)),
            Err(ClusterError::Timeout { .. })
        ));
        b.send(&Message::Shutdown).unwrap();
        assert_eq!(
            a.recv_deadline(Duration::from_secs(5)).unwrap(),
            Message::Shutdown
        );
    }

    #[test]
    fn control_traffic_classified() {
        let traffic = NetTraffic::new();
        let (a, b) = in_proc_pair(traffic.clone());
        let hb = Message::Progress { node: 1, seq: 0 };
        a.send(&hb).unwrap();
        a.send(&Message::Shutdown).unwrap();
        b.recv().unwrap();
        b.recv().unwrap();
        assert_eq!(
            traffic.control_bytes(),
            hb.wire_size() + Message::Shutdown.wire_size()
        );
        assert_eq!(traffic.config_bytes(), 0);
        assert_eq!(traffic.result_bytes(), 0);
    }

    #[test]
    fn triangle_traffic_classified() {
        let traffic = NetTraffic::new();
        let (a, b) = in_proc_pair(traffic.clone());
        let msg = Message::Triangles {
            node: 0,
            triples: vec![(1, 2, 3); 10],
        };
        a.send(&msg).unwrap();
        b.recv().unwrap();
        assert_eq!(traffic.triangle_bytes(), msg.wire_size());
        assert_eq!(traffic.config_bytes(), 0);
    }

    #[test]
    fn tcp_round_trip_over_loopback() {
        let traffic = NetTraffic::new();
        let (listener, addr) = loopback();
        let t2 = traffic.clone();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let t = TcpTransport::from_stream(stream, t2).unwrap();
            let msg = t.recv().unwrap();
            t.send(&msg).unwrap(); // echo
        });
        let client = TcpTransport::connect(&addr, traffic.clone()).unwrap();
        let msg = config_msg();
        client.send(&msg).unwrap();
        assert_eq!(client.recv().unwrap(), msg);
        server.join().unwrap();
        // both directions counted, with 4-byte frame headers
        assert_eq!(traffic.config_bytes(), 2 * (msg.wire_size() + 4));
    }

    #[test]
    fn tcp_deadline_times_out_then_delivers() {
        let traffic = NetTraffic::new();
        let (listener, addr) = loopback();
        let t2 = traffic.clone();
        let (release_tx, release_rx) = channel::<()>();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let t = TcpTransport::from_stream(stream, t2).unwrap();
            release_rx.recv().unwrap(); // hold the reply until told
            t.send(&Message::Progress { node: 2, seq: 1 }).unwrap();
        });
        let client = TcpTransport::connect(&addr, traffic).unwrap();
        // nothing sent yet: deadline expires as a Timeout
        assert!(matches!(
            client.recv_deadline(Duration::from_millis(10)),
            Err(ClusterError::Timeout { .. })
        ));
        release_tx.send(()).unwrap();
        // the same reader then delivers the full frame
        assert_eq!(
            client.recv_deadline(Duration::from_secs(30)).unwrap(),
            Message::Progress { node: 2, seq: 1 }
        );
        server.join().unwrap();
    }

    #[test]
    fn tcp_partial_frame_survives_a_deadline() {
        // A frame split across the deadline: the first half arrives,
        // the deadline fires, then the second half completes the frame
        // on the next call — framing must not desynchronize.
        let traffic = NetTraffic::new();
        let (listener, addr) = loopback();
        let (release_tx, release_rx) = channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let msg = Message::NodeError {
                node: 5,
                detail: "split across reads".into(),
            };
            let encoded = msg.encode();
            let mut framed = (encoded.len() as u32).to_le_bytes().to_vec();
            framed.extend_from_slice(&encoded);
            let mid = framed.len() / 2;
            stream.write_all(&framed[..mid]).unwrap();
            stream.flush().unwrap();
            release_rx.recv().unwrap();
            stream.write_all(&framed[mid..]).unwrap();
        });
        let client = TcpTransport::connect(&addr, traffic).unwrap();
        // long enough to surely buffer the first half, short enough to
        // expire before the second half is released
        let first = client.recv_deadline(Duration::from_millis(50));
        assert!(
            matches!(first, Err(ClusterError::Timeout { .. })),
            "{first:?}"
        );
        release_tx.send(()).unwrap();
        assert_eq!(
            client.recv_deadline(Duration::from_secs(30)).unwrap(),
            Message::NodeError {
                node: 5,
                detail: "split across reads".into(),
            }
        );
        server.join().unwrap();
    }

    #[test]
    fn tcp_oversized_frames_refused_without_waiting_for_payload() {
        let (listener, addr) = loopback();
        let (release_tx, release_rx) = channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let header = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
            stream.write_all(&header).unwrap();
            // Hold the connection open with no payload behind the header.
            release_rx.recv().unwrap();
        });
        let traffic = NetTraffic::new();
        let client = TcpTransport::connect(&addr, traffic.clone()).unwrap();
        // A protocol error, not a 30 s timeout waiting for the payload.
        let got = client.recv_deadline(Duration::from_secs(30));
        assert!(
            matches!(&got, Err(ClusterError::Protocol(d)) if d.contains("cap")),
            "{got:?}"
        );
        let oversized = Message::NodeError {
            node: 0,
            detail: "x".repeat(MAX_FRAME_BYTES),
        };
        let got = client.send(&oversized);
        assert!(
            matches!(&got, Err(ClusterError::Protocol(d)) if d.contains("cap")),
            "{got:?}"
        );
        assert_eq!(traffic.result_bytes(), 0, "nothing sent, nothing charged");
        release_tx.send(()).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn tcp_disconnect_reported_on_deadline_recv() {
        let traffic = NetTraffic::new();
        let (listener, addr) = loopback();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            drop(stream); // immediate close
        });
        let client = TcpTransport::connect(&addr, NetTraffic::new()).unwrap();
        drop(traffic);
        server.join().unwrap();
        assert!(matches!(
            client.recv_deadline(Duration::from_secs(30)),
            Err(ClusterError::Disconnected(_))
        ));
    }
}
