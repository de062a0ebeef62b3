//! Per-replica health state machine.
//!
//! Every replication link carries a small state machine that classifies
//! the replica's condition from two observable signals — its oplog lag
//! (entries behind the primary's head) and explicit partition events from
//! the transport:
//!
//! ```text
//!            lag > threshold                  partition
//!  Healthy ──────────────────▶ Lagging ────────────────▶ Partitioned
//!     ▲ ▲                        │   ▲                        │
//!     │ │   lag back under       │   │                        │ heal
//!     │ └────────────────────────┘   └── partition ── Healthy │
//!     │                                                       ▼
//!     └──────────────────── lag drains to 0 ──────────── CatchingUp
//! ```
//!
//! `Partitioned` is sticky: lag observations cannot clear it, only an
//! explicit heal — which lands in `CatchingUp`, the state in which the
//! replica replays its oplog gap via cursor catch-up. Catch-up completes
//! (back to `Healthy`) only when the lag drains to zero. Each step says
//! whether the state changed, so the owner can count transitions into the
//! engine's metrics snapshot.

/// The four conditions a replication link can be in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicaHealth {
    /// Keeping up: lag at or under the threshold.
    #[default]
    Healthy,
    /// Reachable but behind: lag exceeded the threshold (slow apply,
    /// bursty primary, queue backpressure).
    Lagging,
    /// The transport reported the replica unreachable; no traffic flows.
    Partitioned,
    /// Reconnected after a partition (or overflow) and replaying its
    /// oplog gap from the retained cursor window.
    CatchingUp,
}

impl ReplicaHealth {
    /// Stable lowercase name used in telemetry event payloads.
    pub fn name(self) -> &'static str {
        match self {
            ReplicaHealth::Healthy => "healthy",
            ReplicaHealth::Lagging => "lagging",
            ReplicaHealth::Partitioned => "partitioned",
            ReplicaHealth::CatchingUp => "catching_up",
        }
    }
}

impl From<ReplicaHealth> for dbdedup_core::health::LinkState {
    /// The health model's view of a link state (core cannot depend on
    /// repl, so it mirrors this enum; the two must stay in lockstep).
    fn from(h: ReplicaHealth) -> Self {
        use dbdedup_core::health::LinkState;
        match h {
            ReplicaHealth::Healthy => LinkState::Healthy,
            ReplicaHealth::Lagging => LinkState::Lagging,
            ReplicaHealth::Partitioned => LinkState::Partitioned,
            ReplicaHealth::CatchingUp => LinkState::CatchingUp,
        }
    }
}

/// Tracks one replica's [`ReplicaHealth`]. Its owner counts transitions
/// and the worst lag on the primary (`health_transitions`,
/// `max_replica_lag`).
#[derive(Debug)]
pub struct HealthTracker {
    state: ReplicaHealth,
    lag_threshold: u64,
}

impl HealthTracker {
    /// Creates a tracker that declares a replica `Lagging` once it falls
    /// more than `lag_threshold` oplog entries behind.
    pub fn new(lag_threshold: u64) -> Self {
        Self { state: ReplicaHealth::Healthy, lag_threshold }
    }

    /// Current state.
    pub fn state(&self) -> ReplicaHealth {
        self.state
    }

    fn transition(&mut self, next: ReplicaHealth) -> bool {
        if self.state == next {
            return false;
        }
        self.state = next;
        true
    }

    /// Feeds a lag observation. Returns whether the state changed.
    pub fn observe_lag(&mut self, lag: u64) -> bool {
        match self.state {
            // Only an explicit heal clears a partition; a stale lag
            // number means nothing while the link is down.
            ReplicaHealth::Partitioned => false,
            // Catch-up completes only when the gap is fully drained.
            ReplicaHealth::CatchingUp => {
                if lag == 0 {
                    self.transition(ReplicaHealth::Healthy)
                } else {
                    false
                }
            }
            _ => {
                if lag > self.lag_threshold {
                    self.transition(ReplicaHealth::Lagging)
                } else {
                    self.transition(ReplicaHealth::Healthy)
                }
            }
        }
    }

    /// The transport lost the replica. Returns whether the state changed.
    pub fn partitioned(&mut self) -> bool {
        self.transition(ReplicaHealth::Partitioned)
    }

    /// The replica is back (post-partition or post-overflow) and starts
    /// replaying its gap. Returns whether the state changed.
    pub fn begin_catchup(&mut self) -> bool {
        self.transition(ReplicaHealth::CatchingUp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_until_lag_exceeds_threshold() {
        let mut t = HealthTracker::new(10);
        assert!(!t.observe_lag(0));
        assert!(!t.observe_lag(10), "at threshold is still healthy");
        assert!(t.observe_lag(11));
        assert_eq!(t.state(), ReplicaHealth::Lagging);
        assert!(t.observe_lag(2), "recovers once lag drains");
        assert_eq!(t.state(), ReplicaHealth::Healthy);
    }

    #[test]
    fn partition_is_sticky_until_heal() {
        let mut t = HealthTracker::new(10);
        assert!(t.partitioned());
        assert!(!t.observe_lag(0), "lag cannot clear a partition");
        assert_eq!(t.state(), ReplicaHealth::Partitioned);
        assert!(t.begin_catchup());
        assert_eq!(t.state(), ReplicaHealth::CatchingUp);
        assert!(!t.observe_lag(5), "catch-up holds while the gap drains");
        assert!(t.observe_lag(0));
        assert_eq!(t.state(), ReplicaHealth::Healthy);
    }

    #[test]
    fn repeated_events_do_not_inflate_transitions() {
        let mut t = HealthTracker::new(1);
        assert!(t.partitioned());
        assert!(!t.partitioned());
        assert!(t.begin_catchup());
        assert!(!t.begin_catchup());
        assert_eq!(t.state(), ReplicaHealth::CatchingUp);
    }
}
