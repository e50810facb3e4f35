//! TCP transport: the same node workers over loopback sockets, started
//! with [`LiveCluster::start_tcp`](crate::LiveCluster::start_tcp).
//!
//! Frame format on the wire: `u32 len (LE) | u32 sender (LE) | u32 lane
//! (LE) | bundle bytes`. The lane field names the destination
//! coordinator lane, so a multi-lane node's frames reach the lane that
//! owns their transaction without a dispatch hop. One outbound
//! connection per (sending lane, destination node) pair, established
//! lazily; one acceptor thread per node spawns a reader per connection,
//! and each reader hands every frame to its lane's inbound channel. A
//! frame naming a lane the node does not run drops the connection, as an
//! oversized length does.
//!
//! Sends are asynchronous and coalesced: a [`TcpTransport`] send enqueues
//! the frame to a per-peer sender thread, which drains everything queued
//! behind it and hands the whole run of frames to the kernel in a single
//! `write_all` (bounded by [`MAX_COALESCE_BYTES`] / frames). Under a
//! concurrent commit workload this collapses the per-message syscall
//! storm — decision and ack frames to the same peer ride one write —
//! while `TCP_NODELAY` stays on, so an isolated frame still leaves
//! immediately instead of waiting on Nagle. Frame boundaries are carried
//! by the length prefix, never by write/packet boundaries.
//!
//! The transport is hardened for chaos runs: connection and write
//! failures never panic, and backoff sleeps happen on the sender thread,
//! not in the node worker's protocol loop. A failed send reconnects with
//! capped exponential backoff plus seeded jitter, bounded by
//! [`RetryPolicy::max_attempts`]; when retries are exhausted the sender
//! reports [`Inbound::PartnerDown`] to its own node so the engine aborts
//! or re-drives the affected transactions instead of wedging.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use tpc_common::{BufferPool, NodeId, PooledBuf};

use crate::node::{Inbound, Transport, TransportHealth};

/// Cap on bytes coalesced into one `write_all` (keeps a slow peer from
/// accumulating an unbounded batch in memory before the first byte
/// moves).
pub const MAX_COALESCE_BYTES: usize = 256 * 1024;

/// Cap on frames coalesced into one `write_all`.
pub const MAX_COALESCE_FRAMES: u64 = 128;

/// Bytes of wire header in front of every frame: length, sender, lane.
const HEADER_LEN: usize = 12;

/// Reconnect discipline for a [`TcpTransport`].
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Connection/write attempts per frame before giving the peer up.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Seed for the jitter generator (so a scripted run reproduces).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(200),
            seed: 1,
        }
    }
}

impl RetryPolicy {
    /// Backoff before attempt `attempt` (1-based; attempt 0 is
    /// immediate): `min(base << (attempt-1), max)`, scaled by a jitter
    /// factor in `[0.5, 1.0]` drawn from `rng` so simultaneous retriers
    /// do not stampede in lockstep.
    fn backoff(&self, attempt: u32, rng: &mut u64) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.max_delay);
        *rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let jitter = 0.5 + ((*rng >> 11) as f64 / (1u64 << 53) as f64) / 2.0;
        exp.mul_f64(jitter)
    }
}

/// Counters for the per-peer sender threads of one [`TcpTransport`].
/// `writes < frames` is the coalescing win: each `write_all` covered
/// `frames / writes` frames on average.
#[derive(Debug, Default)]
pub struct TcpSendStats {
    /// Frames handed to the kernel (after coalescing, before any drop).
    pub frames: AtomicU64,
    /// `write_all` calls — syscall batches, each covering ≥1 frame.
    pub writes: AtomicU64,
    /// Total bytes written, including the 12-byte frame headers.
    pub bytes: AtomicU64,
    /// Frames dropped after retry exhaustion (peer unreachable).
    pub dropped: AtomicU64,
    /// Backoff sleeps taken by sender threads (one per failed
    /// connect/write attempt that was retried).
    pub retries: AtomicU64,
    /// Successful re-connects after a previously-established connection
    /// was lost.
    pub reconnects: AtomicU64,
    /// Frames enqueued to sender threads and not yet written or dropped
    /// — the outbound backlog gauge. Grows when a peer link (or the
    /// kernel) is slower than the protocol produces frames.
    pub queued: AtomicU64,
}

/// Asynchronous TCP sender: frames are queued to one sender thread per
/// peer, which coalesces queued runs into single writes and owns all
/// reconnect/backoff waiting.
pub struct TcpTransport {
    me: NodeId,
    addrs: Vec<SocketAddr>,
    policy: RetryPolicy,
    /// The owning lane's inbound channel, for failure notifications.
    self_tx: Sender<Inbound>,
    /// Lazily-spawned per-peer outbound queues of `(destination lane,
    /// payload)`; dropping the transport closes them, and each sender
    /// thread drains what is already queued and exits. Queued frames are
    /// pooled payloads — the wire header is written by the sender thread
    /// straight into its pooled coalescing batch, so the enqueue path
    /// never copies or allocates.
    peers: HashMap<NodeId, Sender<(u32, PooledBuf)>>,
    stats: Arc<TcpSendStats>,
    /// Shared buffer pool: the node encodes into it, sender threads
    /// recycle payloads and batch buffers back into it, and the node's
    /// reader threads assemble inbound frames from it.
    pool: BufferPool,
}

impl TcpTransport {
    pub(crate) fn new(
        me: NodeId,
        addrs: Vec<SocketAddr>,
        policy: RetryPolicy,
        self_tx: Sender<Inbound>,
        pool: BufferPool,
    ) -> Self {
        TcpTransport {
            me,
            addrs,
            policy,
            self_tx,
            peers: HashMap::new(),
            stats: Arc::new(TcpSendStats::default()),
            pool,
        }
    }

    /// Shared counters for this transport's sender threads.
    pub fn stats(&self) -> Arc<TcpSendStats> {
        Arc::clone(&self.stats)
    }

    fn peer_queue(&mut self, to: NodeId) -> Option<&Sender<(u32, PooledBuf)>> {
        if !self.peers.contains_key(&to) {
            let addr = *self.addrs.get(to.index())?;
            let (tx, rx) = unbounded();
            let policy = self.policy.clone();
            let self_tx = self.self_tx.clone();
            let stats = Arc::clone(&self.stats);
            let pool = self.pool.clone();
            let me = self.me;
            std::thread::Builder::new()
                .name(format!("tpc-tcp-send-{}-{}", me.0, to.0))
                .spawn(move || peer_sender(me, to, addr, policy, rx, self_tx, stats, pool))
                .ok()?;
            self.peers.insert(to, tx);
        }
        self.peers.get(&to)
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, to: NodeId, lane: usize, bytes: PooledBuf) {
        if let Some(tx) = self.peer_queue(to) {
            if tx.send((lane as u32, bytes)).is_ok() {
                self.stats.queued.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn buffer_pool(&self) -> Option<BufferPool> {
        Some(self.pool.clone())
    }

    fn health(&self) -> TransportHealth {
        TransportHealth {
            send_retries: self.stats.retries.load(Ordering::Relaxed),
            reconnects: self.stats.reconnects.load(Ordering::Relaxed),
            dropped_frames: self.stats.dropped.load(Ordering::Relaxed),
        }
    }

    fn counters(&self) -> Vec<(&'static str, &'static str, u64)> {
        vec![
            (
                "tpc_tcp_send_retries_total",
                "Backoff sleeps taken by TCP sender threads after a failed connect or write.",
                self.stats.retries.load(Ordering::Relaxed),
            ),
            (
                "tpc_tcp_reconnects_total",
                "Successful TCP re-connects after a previously-established connection was lost.",
                self.stats.reconnects.load(Ordering::Relaxed),
            ),
            (
                "tpc_tcp_frames_dropped_total",
                "Frames dropped after TCP retry exhaustion (peer unreachable).",
                self.stats.dropped.load(Ordering::Relaxed),
            ),
        ]
    }

    fn backlog(&self) -> u64 {
        self.stats.queued.load(Ordering::Relaxed)
    }
}

/// Appends one wire frame (`u32 len | u32 sender | u32 lane | payload`)
/// to the coalescing batch. The payload buffer recycles to the pool when
/// the caller drops it.
fn append_frame(batch: &mut Vec<u8>, me: NodeId, lane: u32, payload: &[u8]) {
    batch.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    batch.extend_from_slice(&me.0.to_le_bytes());
    batch.extend_from_slice(&lane.to_le_bytes());
    batch.extend_from_slice(payload);
}

/// One peer's sender loop: block for a frame, drain the run queued
/// behind it (bounded), write the whole run with one `write_all`,
/// reconnecting with backoff on failure. Exits when the transport side
/// of the queue is dropped — after flushing what was already queued.
///
/// The coalescing batch is itself a pooled buffer: one checkout per
/// `write_all`, recycled when the batch goes out of scope, so the
/// steady-state sender performs zero allocations per frame.
#[allow(clippy::too_many_arguments)]
fn peer_sender(
    me: NodeId,
    to: NodeId,
    addr: SocketAddr,
    policy: RetryPolicy,
    rx: Receiver<(u32, PooledBuf)>,
    self_tx: Sender<Inbound>,
    stats: Arc<TcpSendStats>,
    pool: BufferPool,
) {
    let mut rng = policy
        .seed
        .wrapping_add(u64::from(me.0) << 8)
        .wrapping_add(u64::from(to.0))
        | 1;
    let mut conn: Option<TcpStream> = None;
    // Set while the peer is reported unreachable; cleared by the next
    // successful connect so a recovered-then-failed peer is re-reported.
    let mut reported_down = false;
    // A connection was established at some point: a later successful
    // connect counts as a reconnect.
    let mut connected_once = false;
    'frames: loop {
        let Ok((lane, first)) = rx.recv() else { return };
        let mut batch = pool.checkout();
        append_frame(&mut batch, me, lane, &first);
        drop(first); // payload recycles while we keep draining
        let mut frames = 1u64;
        while batch.len() < MAX_COALESCE_BYTES && frames < MAX_COALESCE_FRAMES {
            match rx.try_recv() {
                Ok((lane, f)) => {
                    append_frame(&mut batch, me, lane, &f);
                    frames += 1;
                }
                Err(_) => break,
            }
        }
        // Dequeued (written or dropped below, either way no longer
        // queued): the backlog gauge shrinks as soon as the batch forms.
        let dec = frames.min(stats.queued.load(Ordering::Relaxed));
        stats.queued.fetch_sub(dec, Ordering::Relaxed);
        let mut attempt = 0;
        loop {
            if conn.is_none() {
                conn = TcpStream::connect(addr).ok();
                if let Some(stream) = conn.as_ref() {
                    stream.set_nodelay(true).ok();
                    reported_down = false;
                    if connected_once {
                        stats.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    connected_once = true;
                }
            }
            if let Some(stream) = conn.as_mut() {
                if stream.write_all(&batch).is_ok() {
                    stats.frames.fetch_add(frames, Ordering::Relaxed);
                    stats.writes.fetch_add(1, Ordering::Relaxed);
                    stats.bytes.fetch_add(batch.len() as u64, Ordering::Relaxed);
                    continue 'frames;
                }
                conn = None;
            }
            attempt += 1;
            if attempt >= policy.max_attempts {
                // Retries exhausted: drop the batch and tell our own
                // engine so it can abort unvoted work and lean on timers
                // for the rest, instead of silently losing frames.
                stats.dropped.fetch_add(frames, Ordering::Relaxed);
                if !reported_down {
                    reported_down = true;
                    let _ = self_tx.send(Inbound::PartnerDown { peer: to });
                }
                continue 'frames;
            }
            stats.retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(policy.backoff(attempt, &mut rng));
        }
    }
}

/// Binds one loopback listener per node and spawns its acceptor, which
/// feeds the node's lane inboxes (`inboxes[node][lane]`). Returns the
/// listening addresses and the per-node buffer pools: a node's pool is
/// shared by its lanes' transports (outbound encode + sender batches) and
/// its readers (inbound frame assembly), and outlives a restart so warmed
/// capacity survives the crash. Listeners stay bound across a kill —
/// the model is a crashed transaction manager whose endpoint reappears
/// on restart.
pub(crate) fn listen(
    inboxes: &[Vec<Sender<Inbound>>],
) -> std::io::Result<(Vec<SocketAddr>, Vec<BufferPool>)> {
    let mut addrs = Vec::with_capacity(inboxes.len());
    let mut pools = Vec::with_capacity(inboxes.len());
    for (i, lanes) in inboxes.iter().enumerate() {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        addrs.push(listener.local_addr()?);
        let pool = BufferPool::new();
        pools.push(pool.clone());
        let lanes = lanes.clone();
        std::thread::Builder::new()
            .name(format!("tpc-acceptor-{i}"))
            .spawn(move || acceptor(listener, lanes, pool))?;
    }
    Ok((addrs, pools))
}

fn acceptor(listener: TcpListener, lanes: Vec<Sender<Inbound>>, pool: BufferPool) {
    for stream in listener.incoming() {
        let Ok(stream) = stream else { break };
        let lanes = lanes.clone();
        let pool = pool.clone();
        if std::thread::Builder::new()
            .name("tpc-tcp-reader".into())
            .spawn(move || reader(stream, lanes, pool))
            .is_err()
        {
            // Could not spawn a reader: drop the connection; the peer
            // will reconnect and retry.
            continue;
        }
    }
}

/// One connection's reader: parses frames and hands each to the inbox of
/// the lane its header names (`lanes[lane]`). A malformed header — an
/// absurd length or a lane the node does not run — drops the connection.
fn reader(mut stream: TcpStream, lanes: Vec<Sender<Inbound>>, pool: BufferPool) {
    let mut header = [0u8; HEADER_LEN];
    let field = |h: &[u8; HEADER_LEN], at: usize| {
        u32::from_le_bytes([h[at], h[at + 1], h[at + 2], h[at + 3]])
    };
    loop {
        if stream.read_exact(&mut header).is_err() {
            return; // peer closed or died: reader ends quietly
        }
        let len = field(&header, 0) as usize;
        let from = NodeId(field(&header, 4));
        let Some(tx) = lanes.get(field(&header, 8) as usize) else {
            return; // no such lane: drop the connection
        };
        if len > 64 * 1024 * 1024 {
            return; // absurd frame: drop the connection
        }
        // Pooled frame assembly: the worker drops the buffer after
        // decoding and the capacity comes back here for the next frame.
        let mut bytes = pool.checkout();
        bytes.resize(len, 0);
        if stream.read_exact(&mut bytes).is_err() {
            return;
        }
        if tx.send(Inbound::Frame { from, bytes }).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LiveCluster, LiveNodeConfig};
    use tpc_common::{Op, Outcome, ProtocolKind};

    #[test]
    fn commit_over_real_sockets() {
        let c = LiveCluster::start_tcp(vec![
            LiveNodeConfig::new(ProtocolKind::PresumedAbort),
            LiveNodeConfig::new(ProtocolKind::PresumedAbort),
            LiveNodeConfig::new(ProtocolKind::PresumedAbort),
        ])
        .expect("bind loopback");
        let t = c.begin(NodeId(0));
        t.work(NodeId(1), vec![Op::put("tcp-a", "1")]);
        t.work(NodeId(2), vec![Op::put("tcp-b", "2")]);
        let r = t.commit().expect("root alive");
        assert_eq!(r.outcome, Outcome::Commit);
        let wait = Duration::from_secs(5);
        assert_eq!(
            c.read_eventually(NodeId(1), "tcp-a", wait),
            Some(b"1".to_vec())
        );
        assert_eq!(
            c.read_eventually(NodeId(2), "tcp-b", wait),
            Some(b"2".to_vec())
        );
        c.shutdown();
    }

    #[test]
    fn several_transactions_over_tcp() {
        let c = LiveCluster::start_tcp(vec![
            LiveNodeConfig::new(ProtocolKind::PresumedNothing),
            LiveNodeConfig::new(ProtocolKind::PresumedNothing),
        ])
        .expect("bind loopback");
        for i in 0..5 {
            let t = c.begin(NodeId(0));
            t.work(NodeId(1), vec![Op::put("seq", &i.to_string())]);
            assert_eq!(t.commit().expect("root alive").outcome, Outcome::Commit);
        }
        // "seq" is rewritten by each txn: the root's outcome reply races
        // the decision frame to the subordinate, so wait on the cluster
        // progress signal (no sleep-polling) until the last write lands.
        let deadline = Duration::from_secs(5);
        let v = c
            .signal
            .wait_for(deadline, || c.read(NodeId(1), "seq").filter(|v| v == b"4"));
        assert_eq!(v, Some(b"4".to_vec()), "expected seq=4 at the subordinate");
        c.shutdown();
    }

    #[test]
    fn backoff_grows_and_caps_with_jitter_bounds() {
        let policy = RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(40),
            seed: 7,
        };
        let mut rng = 99u64;
        let mut last = Duration::ZERO;
        for attempt in 1..6 {
            let d = policy.backoff(attempt, &mut rng);
            let raw = policy
                .base_delay
                .saturating_mul(1 << (attempt - 1))
                .min(policy.max_delay);
            assert!(
                d >= raw.mul_f64(0.5) && d <= raw,
                "jitter within [0.5, 1.0]"
            );
            assert!(d >= last.mul_f64(0.25), "roughly monotone under jitter");
            last = d;
        }
        // Capped: attempt 5 raw backoff is 160ms, clamped to 40ms.
        let d = policy.backoff(5, &mut rng);
        assert!(d <= Duration::from_millis(40));
    }

    #[test]
    fn unreachable_peer_reports_partner_down_after_bounded_retries() {
        // A listener we bind then drop: connecting to it fails fast.
        let dead_addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let (self_tx, self_rx) = unbounded();
        let live = TcpListener::bind("127.0.0.1:0").unwrap();
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(4),
            seed: 11,
        };
        let mut t = TcpTransport::new(
            NodeId(0),
            vec![live.local_addr().unwrap(), dead_addr],
            policy,
            self_tx,
            BufferPool::new(),
        );
        let stats = t.stats();
        // Sends are asynchronous now: the report arrives once the sender
        // thread exhausts its retries, so wait on the channel.
        t.send(NodeId(1), 0, vec![1, 2, 3].into());
        match self_rx.recv_timeout(Duration::from_secs(10)) {
            Ok(Inbound::PartnerDown { peer }) => assert_eq!(peer, NodeId(1)),
            other => panic!(
                "expected PartnerDown after retry exhaustion, got ok={:?}",
                other.is_ok()
            ),
        }
        assert!(stats.dropped.load(Ordering::Relaxed) >= 1);
        assert!(t.health().dropped_frames >= 1, "health mirrors the drop");
        // Reported once, not per frame.
        t.send(NodeId(1), 0, vec![4, 5, 6].into());
        assert!(
            self_rx.recv_timeout(Duration::from_millis(300)).is_err(),
            "no duplicate report"
        );
    }

    /// Collects parsed frames from one accepted connection.
    fn collect_frames(listener: TcpListener) -> Receiver<Inbound> {
        let (tx, rx) = unbounded();
        std::thread::spawn(move || {
            if let Ok((stream, _)) = listener.accept() {
                reader(stream, vec![tx], BufferPool::new());
            }
        });
        rx
    }

    #[test]
    fn frame_boundaries_survive_coalescing() {
        // Rapid-fire sends queue behind the sender thread's first
        // connect/write, so later frames are coalesced into shared
        // write_all calls. Every frame must still arrive intact, in
        // order: boundaries live in the length prefix, not in write
        // boundaries.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let frames_rx = collect_frames(listener);
        let (self_tx, _self_rx) = unbounded();
        let pool = BufferPool::new();
        let mut t = TcpTransport::new(
            NodeId(3),
            vec![addr],
            RetryPolicy::default(),
            self_tx,
            pool.clone(),
        );
        let stats = t.stats();

        const N: usize = 2000;
        for i in 0..N {
            // Varying lengths so a misplaced boundary corrupts a parse.
            let body = format!("frame-{i}-{}", "x".repeat(i % 97));
            let mut buf = pool.checkout();
            buf.extend_from_slice(body.as_bytes());
            t.send(NodeId(0), 0, buf);
        }
        for i in 0..N {
            match frames_rx.recv_timeout(Duration::from_secs(10)) {
                Ok(Inbound::Frame { from, bytes }) => {
                    assert_eq!(from, NodeId(3));
                    let expect = format!("frame-{i}-{}", "x".repeat(i % 97));
                    assert_eq!(*bytes, expect.into_bytes(), "frame {i} corrupted");
                }
                other => panic!("frame {i} missing, got ok={:?}", other.is_ok()),
            }
        }
        let frames = stats.frames.load(Ordering::Relaxed);
        let writes = stats.writes.load(Ordering::Relaxed);
        assert_eq!(frames, N as u64, "every frame written exactly once");
        assert!(
            writes < frames,
            "sender should coalesce queued frames: {writes} writes for {frames} frames"
        );
        // Payloads and batch buffers recycle: the steady state reuses
        // capacity instead of allocating per frame.
        let ps = pool.stats();
        assert!(ps.hits > 0, "pool must see reuse: {ps:?}");
        assert!(ps.recycled > 0, "dropped buffers must recycle: {ps:?}");
    }

    /// Deterministic LCG so the fuzz shapes reproduce from a seed.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 11
    }

    fn fuzz_body(seed: u64, i: usize) -> Vec<u8> {
        let mut s = seed.wrapping_add(i as u64) | 1;
        // Lengths from 0 to ~4 KiB, heavily varied so any boundary error
        // desynchronizes the parse immediately.
        let len = (lcg(&mut s) % 4096) as usize;
        let mut body = Vec::with_capacity(len + 8);
        body.extend_from_slice(&(i as u64).to_le_bytes());
        while body.len() < len + 8 {
            body.push((lcg(&mut s) & 0xFF) as u8);
        }
        body
    }

    #[test]
    fn random_frame_sizes_survive_coalescing() {
        // The PR 3 regression test with fixed shapes, generalized: seeded
        // random frame lengths (including empty bodies) through the real
        // sender thread. Coalescing must never move a frame boundary.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let frames_rx = collect_frames(listener);
        let (self_tx, _self_rx) = unbounded();
        let mut t = TcpTransport::new(
            NodeId(5),
            vec![addr],
            RetryPolicy::default(),
            self_tx,
            BufferPool::new(),
        );

        const SEED: u64 = 0xF00D_CAFE;
        const N: usize = 1500;
        for i in 0..N {
            t.send(NodeId(0), 0, fuzz_body(SEED, i).into());
        }
        for i in 0..N {
            match frames_rx.recv_timeout(Duration::from_secs(10)) {
                Ok(Inbound::Frame { from, bytes }) => {
                    assert_eq!(from, NodeId(5));
                    assert_eq!(*bytes, fuzz_body(SEED, i), "frame {i} corrupted");
                }
                other => panic!("frame {i} missing, got ok={:?}", other.is_ok()),
            }
        }
    }

    #[test]
    fn partial_writes_never_split_frame_boundaries() {
        // The receiving half under adversarial segmentation: a writer
        // that chops the byte stream into random small chunks (flushing
        // between them), so headers and bodies straddle read boundaries
        // arbitrarily. The reader must reassemble every frame exactly.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let frames_rx = collect_frames(listener);

        const SEED: u64 = 0xDEAD_BEEF;
        const N: usize = 400;
        let writer = std::thread::spawn(move || {
            let mut wire = Vec::new();
            for i in 0..N {
                let body = fuzz_body(SEED, i);
                wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
                wire.extend_from_slice(&9u32.to_le_bytes()); // sender id
                wire.extend_from_slice(&0u32.to_le_bytes()); // lane
                wire.extend_from_slice(&body);
            }
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).ok();
            let mut s = SEED | 1;
            let mut off = 0;
            while off < wire.len() {
                // Forced partial writes: 1..=97 bytes at a time, so every
                // frame is split across many TCP segments.
                let chunk = (1 + lcg(&mut s) % 97) as usize;
                let end = (off + chunk).min(wire.len());
                stream.write_all(&wire[off..end]).expect("chunk write");
                stream.flush().ok();
                off = end;
            }
        });

        for i in 0..N {
            match frames_rx.recv_timeout(Duration::from_secs(10)) {
                Ok(Inbound::Frame { from, bytes }) => {
                    assert_eq!(from, NodeId(9));
                    assert_eq!(*bytes, fuzz_body(SEED, i), "frame {i} corrupted");
                }
                other => panic!("frame {i} missing, got ok={:?}", other.is_ok()),
            }
        }
        writer.join().expect("writer thread");
    }

    #[test]
    fn frames_reach_the_lane_their_header_names() {
        // One reader for a four-lane node per connection, run to its end.
        let four_lane_reader = || {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let (txs, rxs): (Vec<_>, Vec<_>) = (0..4).map(|_| unbounded()).unzip();
            let done = std::thread::spawn(move || {
                let (stream, _) = listener.accept().expect("accept");
                reader(stream, txs, BufferPool::new());
            });
            (addr, rxs, done)
        };

        // A frame the transport addresses to lane 3 lands on lane 3's
        // inbox and nowhere else.
        let (addr, rxs, done) = four_lane_reader();
        let (self_tx, _self_rx) = unbounded();
        let mut t = TcpTransport::new(
            NodeId(2),
            vec![addr],
            RetryPolicy::default(),
            self_tx,
            BufferPool::new(),
        );
        t.send(NodeId(0), 3, vec![7, 7, 7].into());
        match rxs[3].recv_timeout(Duration::from_secs(10)) {
            Ok(Inbound::Frame { from, bytes }) => {
                assert_eq!(from, NodeId(2));
                assert_eq!(*bytes, vec![7, 7, 7]);
            }
            other => panic!("lane 3 got nothing, ok={:?}", other.is_ok()),
        }
        assert!(
            rxs[..3].iter().all(|rx| rx.is_empty()),
            "other lanes stay empty"
        );
        // Dropping the transport closes its connection: the reader ends.
        drop(t);
        done.join().expect("reader ends without a panic");

        // A frame naming lane 7 drops the connection instead of indexing
        // past the lane table.
        let (addr, rxs, done) = four_lane_reader();
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut wire = Vec::new();
        wire.extend_from_slice(&3u32.to_le_bytes()); // len
        wire.extend_from_slice(&9u32.to_le_bytes()); // sender id
        wire.extend_from_slice(&7u32.to_le_bytes()); // lane: out of range
        wire.extend_from_slice(&[1, 2, 3]);
        stream.write_all(&wire).expect("write");
        done.join()
            .expect("an out-of-range lane closes the reader without a panic");
        let mut buf = [0u8; 1];
        assert_eq!(stream.read(&mut buf).unwrap_or(0), 0, "connection dropped");
        assert!(rxs.iter().all(|rx| rx.is_empty()), "no lane got the frame");
    }
}
