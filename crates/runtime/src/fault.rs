//! Seeded fault injection for live transports.
//!
//! [`FaultyWire`] wraps any [`Transport`] — the crossbeam channel
//! transport or the TCP one — and subjects outbound frames to drops,
//! duplication, reordering-by-delay and a hard disconnect, all driven by
//! a seeded generator so a failing run reproduces from its seed.
//!
//! Delays are counted in *sends*, not wall-clock time: a delayed frame is
//! held back until `delay_frames` further sends have happened, then
//! released ahead of the next one. That keeps scripted chaos runs
//! deterministic while still exercising reordering on a live transport.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tpc_common::wire::Decode;
use tpc_common::{BufferPool, NodeId, PooledBuf};
use tpc_core::messages::{Frame, ProtocolMsg};

use crate::node::{Transport, TransportHealth};

/// Whether an encoded frame carries application work (conversation
/// traffic, spared by default — see [`FaultPlan::fault_work_frames`]).
fn carries_work(bytes: &[u8]) -> bool {
    Frame::decode_all(bytes)
        .map(|f| {
            f.bundle
                .0
                .iter()
                .any(|m| matches!(m, ProtocolMsg::Work { .. }))
        })
        .unwrap_or(false)
}

/// What a [`FaultyWire`] does to traffic, with which probabilities.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed for the deterministic generator.
    pub seed: u64,
    /// Probability an outbound frame is silently dropped.
    pub drop_rate: f64,
    /// Probability an outbound frame is delivered twice.
    pub duplicate_rate: f64,
    /// Probability an outbound frame is held back (reordered).
    pub delay_rate: f64,
    /// How many subsequent sends a held frame waits before release.
    pub delay_frames: u32,
    /// The wire goes permanently dead after this many sends (everything
    /// after, including held frames, is lost).
    pub disconnect_after: Option<u64>,
    /// Whether frames carrying `Work` payloads are also subject to
    /// faults. Off by default: in the paper's model, conversation
    /// traffic rides reliable sessions (LU6.2) and it is the *commit
    /// protocol* messages that face loss. Dropping work silently is
    /// indistinguishable from the application never sending it — the
    /// transaction commits cleanly with the write absent — so it is
    /// opt-in for tests that want that failure mode.
    pub fault_work_frames: bool,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a base to build on).
    pub fn clean(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            delay_rate: 0.0,
            delay_frames: 2,
            disconnect_after: None,
            fault_work_frames: false,
        }
    }

    /// Sets the drop probability.
    pub fn with_drops(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Sets the duplication probability.
    pub fn with_duplicates(mut self, rate: f64) -> Self {
        self.duplicate_rate = rate;
        self
    }

    /// Sets the delay probability and how many sends a held frame waits.
    pub fn with_delays(mut self, rate: f64, frames: u32) -> Self {
        self.delay_rate = rate;
        self.delay_frames = frames;
        self
    }

    /// Kills the wire after `sends` outbound frames.
    pub fn with_disconnect_after(mut self, sends: u64) -> Self {
        self.disconnect_after = Some(sends);
        self
    }

    /// Subjects `Work`-carrying frames to faults too (normally spared —
    /// see [`FaultPlan::fault_work_frames`]).
    pub fn with_faulty_work_frames(mut self) -> Self {
        self.fault_work_frames = true;
        self
    }
}

/// Counters a [`FaultyWire`] keeps; shared with the test harness via
/// [`FaultyWire::stats`] so assertions can confirm faults actually fired.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Frames passed through unharmed.
    pub delivered: AtomicU64,
    /// Frames silently dropped.
    pub dropped: AtomicU64,
    /// Extra deliveries from duplication.
    pub duplicated: AtomicU64,
    /// Frames held back for later release.
    pub delayed: AtomicU64,
    /// Frames lost to the hard disconnect.
    pub disconnected: AtomicU64,
}

impl FaultStats {
    /// Total frames that did not reach the peer (drops + disconnect).
    pub fn lost(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed) + self.disconnected.load(Ordering::Relaxed)
    }
}

struct HeldFrame {
    release_after: u64,
    to: NodeId,
    lane: usize,
    bytes: PooledBuf,
}

/// A [`Transport`] wrapper injecting seeded faults into outbound frames.
pub struct FaultyWire<T> {
    inner: T,
    plan: FaultPlan,
    rng: u64,
    sends: u64,
    held: VecDeque<HeldFrame>,
    stats: Arc<FaultStats>,
}

impl<T> FaultyWire<T> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        // Splash the seed so seed=0 and seed=1 diverge immediately.
        let rng = plan.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        FaultyWire {
            inner,
            plan,
            rng,
            sends: 0,
            held: VecDeque::new(),
            stats: Arc::new(FaultStats::default()),
        }
    }

    /// Handle to the fault counters (clone before moving the wire into a
    /// worker thread).
    pub fn stats(&self) -> Arc<FaultStats> {
        Arc::clone(&self.stats)
    }

    /// Next uniform sample in `[0, 1)`.
    fn roll(&mut self) -> f64 {
        // Constants from Knuth's MMIX linear congruential generator.
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.rng >> 11) as f64 / (1u64 << 53) as f64
    }

    fn disconnected(&self) -> bool {
        // `sends` is incremented before this check, so `>` lets exactly
        // `disconnect_after` frames through.
        self.plan.disconnect_after.is_some_and(|n| self.sends > n)
    }
}

impl<T: Transport> Transport for FaultyWire<T> {
    fn send(&mut self, to: NodeId, lane: usize, bytes: PooledBuf) {
        self.sends += 1;
        if self.disconnected() {
            self.stats.disconnected.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Release held frames that have waited long enough.
        while self
            .held
            .front()
            .is_some_and(|h| h.release_after <= self.sends)
        {
            let h = self.held.pop_front().expect("checked front");
            self.inner.send(h.to, h.lane, h.bytes);
        }
        if !self.plan.fault_work_frames && carries_work(&bytes) {
            self.stats.delivered.fetch_add(1, Ordering::Relaxed);
            self.inner.send(to, lane, bytes);
            return;
        }
        let roll = self.roll();
        if roll < self.plan.drop_rate {
            self.stats.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if roll < self.plan.drop_rate + self.plan.delay_rate {
            self.stats.delayed.fetch_add(1, Ordering::Relaxed);
            self.held.push_back(HeldFrame {
                release_after: self.sends + u64::from(self.plan.delay_frames),
                to,
                lane,
                bytes,
            });
            return;
        }
        if roll < self.plan.drop_rate + self.plan.delay_rate + self.plan.duplicate_rate {
            self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
            // The duplicate is a detached copy: pooled buffers are
            // uniquely owned, so the clone pays one allocation (rare
            // path — duplication is a fault, not the steady state).
            let copy = PooledBuf::from(bytes.to_vec());
            self.inner.send(to, lane, copy);
        }
        self.stats.delivered.fetch_add(1, Ordering::Relaxed);
        self.inner.send(to, lane, bytes);
    }

    fn counters(&self) -> Vec<(&'static str, &'static str, u64)> {
        self.inner.counters()
    }

    fn buffer_pool(&self) -> Option<BufferPool> {
        self.inner.buffer_pool()
    }

    fn health(&self) -> TransportHealth {
        self.inner.health()
    }

    fn backlog(&self) -> u64 {
        self.inner.backlog()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    type Sent = Vec<(NodeId, Vec<u8>)>;

    #[derive(Clone, Default)]
    struct Recorder(Arc<Mutex<Sent>>);

    impl Transport for Recorder {
        fn send(&mut self, to: NodeId, _lane: usize, bytes: PooledBuf) {
            self.0.lock().unwrap().push((to, bytes.into_vec()));
        }
    }

    fn frame(i: u8) -> PooledBuf {
        vec![i].into()
    }

    #[test]
    fn clean_plan_passes_everything_through() {
        let rec = Recorder::default();
        let mut wire = FaultyWire::new(rec.clone(), FaultPlan::clean(7));
        for i in 0..10 {
            wire.send(NodeId(1), 0, frame(i));
        }
        assert_eq!(rec.0.lock().unwrap().len(), 10);
        assert_eq!(wire.stats().delivered.load(Ordering::Relaxed), 10);
        assert_eq!(wire.stats().lost(), 0);
    }

    #[test]
    fn same_seed_same_fault_pattern() {
        let observe = |seed: u64| {
            let rec = Recorder::default();
            let plan = FaultPlan::clean(seed).with_drops(0.3).with_duplicates(0.2);
            let mut wire = FaultyWire::new(rec.clone(), plan);
            for i in 0..50 {
                wire.send(NodeId(0), 0, frame(i));
            }
            let log = rec.0.lock().unwrap();
            log.iter().map(|(_, b)| b[0]).collect::<Vec<_>>()
        };
        assert_eq!(observe(42), observe(42));
        assert_ne!(observe(42), observe(43), "different seeds should diverge");
    }

    #[test]
    fn drops_lose_frames() {
        let rec = Recorder::default();
        let mut wire = FaultyWire::new(rec.clone(), FaultPlan::clean(1).with_drops(1.0));
        for i in 0..5 {
            wire.send(NodeId(0), 0, frame(i));
        }
        assert_eq!(rec.0.lock().unwrap().len(), 0);
        assert_eq!(wire.stats().dropped.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn delayed_frames_are_released_later_in_order_position() {
        let rec = Recorder::default();
        // Delay everything by 2 sends: frame N surfaces while sending N+2.
        let mut wire = FaultyWire::new(rec.clone(), FaultPlan::clean(3).with_delays(1.0, 2));
        for i in 0..4 {
            wire.send(NodeId(0), 0, frame(i));
        }
        // Frames 0 and 1 released (while sending 2 and 3); 2 and 3 still
        // held.
        let seen: Vec<u8> = rec.0.lock().unwrap().iter().map(|(_, b)| b[0]).collect();
        assert_eq!(seen, vec![0, 1]);
        assert_eq!(wire.stats().delayed.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn disconnect_kills_the_wire_for_good() {
        let rec = Recorder::default();
        let mut wire = FaultyWire::new(rec.clone(), FaultPlan::clean(5).with_disconnect_after(3));
        for i in 0..8 {
            wire.send(NodeId(0), 0, frame(i));
        }
        assert_eq!(rec.0.lock().unwrap().len(), 3);
        assert_eq!(wire.stats().disconnected.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn duplicates_deliver_twice() {
        let rec = Recorder::default();
        let mut wire = FaultyWire::new(rec.clone(), FaultPlan::clean(9).with_duplicates(1.0));
        wire.send(NodeId(2), 0, frame(7));
        let log = rec.0.lock().unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0], log[1]);
    }
}
