//! Progress signalling between node workers and cluster-level waiters.
//!
//! Cluster calls like `read_eventually` and `quiesce` used to poll on a
//! fixed sleep. With a throughput-grade workload driver that burns a core
//! (and wakes every node with summary requests) for nothing. Instead,
//! every worker bumps a shared [`ClusterSignal`] whenever it makes
//! observable progress (processed a message, fired a timer, flushed a
//! group-commit batch, exited); waiters block on the condvar and re-check
//! their predicate only when something actually happened — with a capped
//! wait so a lost wakeup degrades to slow polling, never to a hang.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Cap on a single condvar wait: bounds staleness if a state change
/// escapes instrumentation (e.g. a worker killed without a final bump).
const MAX_WAIT_SLICE: Duration = Duration::from_millis(50);

/// A monotonically-bumped generation counter with a condvar.
#[derive(Debug, Default)]
pub struct ClusterSignal {
    gen: Mutex<u64>,
    cv: Condvar,
}

impl ClusterSignal {
    /// A fresh signal at generation zero.
    pub fn new() -> Self {
        ClusterSignal::default()
    }

    /// Records that cluster-observable state may have changed and wakes
    /// every waiter.
    pub fn bump(&self) {
        let mut gen = self.gen.lock().unwrap_or_else(|e| e.into_inner());
        *gen += 1;
        drop(gen);
        self.cv.notify_all();
    }

    /// The current generation (pair with [`ClusterSignal::wait_past`]).
    pub fn generation(&self) -> u64 {
        *self.gen.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until the generation exceeds `seen` or `deadline` passes;
    /// returns the generation observed on wakeup.
    pub fn wait_past(&self, seen: u64, deadline: Instant) -> u64 {
        let mut gen = self.gen.lock().unwrap_or_else(|e| e.into_inner());
        while *gen <= seen {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let slice = (deadline - now).min(MAX_WAIT_SLICE);
            let (g, _timeout) = self
                .cv
                .wait_timeout(gen, slice)
                .unwrap_or_else(|e| e.into_inner());
            gen = g;
            if Instant::now() >= deadline {
                break;
            }
        }
        *gen
    }

    /// Runs `predicate` each time the cluster makes progress (and at
    /// least every `MAX_WAIT_SLICE`) until it returns `Some`, or
    /// `timeout` elapses. This is the shared backbone of
    /// `read_eventually` / `quiesce` / `await_death`.
    pub fn wait_for<R>(
        &self,
        timeout: Duration,
        mut predicate: impl FnMut() -> Option<R>,
    ) -> Option<R> {
        let deadline = Instant::now() + timeout;
        loop {
            let seen = self.generation();
            if let Some(r) = predicate() {
                return Some(r);
            }
            if Instant::now() >= deadline {
                return None;
            }
            self.wait_past(seen, deadline);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn wait_for_wakes_on_bump() {
        let sig = Arc::new(ClusterSignal::new());
        let s2 = Arc::clone(&sig);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            s2.bump();
        });
        let start = Instant::now();
        let mut calls = 0;
        let got = sig.wait_for(Duration::from_secs(5), || {
            calls += 1;
            (calls > 1).then_some(())
        });
        assert!(got.is_some());
        assert!(start.elapsed() < Duration::from_secs(2));
        h.join().unwrap();
    }

    #[test]
    fn wait_for_times_out() {
        let sig = ClusterSignal::new();
        let start = Instant::now();
        let got: Option<()> = sig.wait_for(Duration::from_millis(30), || None);
        assert!(got.is_none());
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn wait_past_returns_immediately_when_already_past() {
        let sig = ClusterSignal::new();
        sig.bump();
        let g = sig.wait_past(0, Instant::now() + Duration::from_secs(5));
        assert!(g >= 1);
    }
}
