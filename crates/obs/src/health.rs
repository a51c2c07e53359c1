//! Streaming health watchdog: typed [`HealthEvent`]s on the sim timeline.
//!
//! The disaster suite computes availability metrics *after* a run; this
//! monitor watches the same instrumentation *during* the run, so a
//! stalled IRMC window or a view-change storm is visible at the moment
//! it happens (and can be asserted against a known fault schedule).
//!
//! The monitor is a pure observer fed from [`crate::Recorder`] hooks:
//!
//! * **Progress marks** ([`HealthMonitor::mark`]): an IRMC channel
//!   window moved, or a receiver delivered a slot. Stall state is kept
//!   per *logical* channel `(component, key)`, joining sender-side
//!   outstanding gauges with receiver-side delivery marks: ack windows
//!   legitimately sit still between checkpoints (and senders retain
//!   delivered-but-unacked content across request gaps), so neither
//!   window movement nor a bare `pending > 0` can tell a low-rate
//!   channel from a severed one. What can: a *transmission with no
//!   delivery behind it*. The stall clock arms when a link's summed
//!   gauge grows and disarms on any progress mark; if it stays armed
//!   for [`STALL_AFTER`] the link raises
//!   [`HealthEvent::IrmcWindowStall`], and the next mark (or a drain
//!   to zero) raises [`HealthEvent::IrmcWindowRecover`].
//! * **Backpressure gauges** ([`HealthMonitor::pending`]): outstanding
//!   (unacked) work per endpoint; the current and high-water values are
//!   exported per `(node, component, key)`.
//! * **View changes** ([`HealthMonitor::view`]): each new view raises
//!   [`HealthEvent::ViewChange`]; several within
//!   [`VIEW_STORM_WINDOW`] raise
//!   [`HealthEvent::ViewChangeStorm`].
//! * **Rolling latency windows** ([`HealthMonitor::latency`]):
//!   request latencies bucketed into fixed windows of
//!   [`WINDOW`], each a full [`Histogram`], so tail
//!   behaviour over time survives into the report.
//!
//! Stall detection is *lazy*: there are no timers of its own (that
//! would perturb the simulation). Every feed call first scans tracked
//! channels against the latest observed time; a stall event is stamped
//! at the instant the deadline expired (first unserved transmission
//! plus [`STALL_AFTER`]) — not the (later) time the scan happened to
//! run, so event times are a deterministic function of the run.

use crate::metrics::Histogram;
use spider_types::{NodeId, SimTime};
use std::collections::BTreeMap;

/// A channel with outstanding work and no window movement for this long
/// is declared stalled.
pub const STALL_AFTER: SimTime = SimTime::from_secs(1);
/// Width of one rolling latency window.
pub const WINDOW: SimTime = SimTime::from_secs(1);
/// Window over which view changes count towards a storm.
pub const VIEW_STORM_WINDOW: SimTime = SimTime::from_secs(10);
/// View changes within [`VIEW_STORM_WINDOW`] that raise a
/// [`HealthEvent::ViewChangeStorm`].
pub const VIEW_STORM_COUNT: u32 = 3;

/// A typed event on the sim timeline, emitted by the watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthEvent {
    /// A logical channel (keyed by `(component, key)`) accepted new
    /// work but recorded no progress — no window movement and no
    /// delivery at any endpoint — for [`STALL_AFTER`].
    IrmcWindowStall {
        /// When the stall deadline expired (first unserved
        /// transmission plus [`STALL_AFTER`]).
        at: SimTime,
        /// Endpoint with the deepest outstanding-work gauge at the
        /// stall (ties broken toward the lowest node id).
        node: NodeId,
        /// Channel family (e.g. `"commit"`).
        component: &'static str,
        /// Channel index within the family (e.g. the execution group).
        key: u32,
    },
    /// A previously stalled channel recorded progress again.
    IrmcWindowRecover {
        /// When the progress mark arrived.
        at: SimTime,
        /// Endpoint that reported the progress.
        node: NodeId,
        /// Channel family.
        component: &'static str,
        /// Channel index within the family.
        key: u32,
    },
    /// A consensus replica entered a new view.
    ViewChange {
        /// When the view change was observed.
        at: SimTime,
        /// The replica's node.
        node: NodeId,
        /// The new view number.
        view: u64,
    },
    /// At least [`VIEW_STORM_COUNT`] view changes within
    /// [`VIEW_STORM_WINDOW`] on one node.
    ViewChangeStorm {
        /// When the threshold was crossed.
        at: SimTime,
        /// The replica's node.
        node: NodeId,
        /// View changes inside the window at the crossing.
        count: u32,
    },
}

impl HealthEvent {
    /// Event time.
    pub fn at(&self) -> SimTime {
        match *self {
            HealthEvent::IrmcWindowStall { at, .. }
            | HealthEvent::IrmcWindowRecover { at, .. }
            | HealthEvent::ViewChange { at, .. }
            | HealthEvent::ViewChangeStorm { at, .. } => at,
        }
    }

    /// Stable lowercase tag for rendering and digests.
    pub fn tag(&self) -> &'static str {
        match self {
            HealthEvent::IrmcWindowStall { .. } => "irmc_window_stall",
            HealthEvent::IrmcWindowRecover { .. } => "irmc_window_recover",
            HealthEvent::ViewChange { .. } => "view_change",
            HealthEvent::ViewChangeStorm { .. } => "view_change_storm",
        }
    }
}

/// Per-endpoint backpressure gauge, keyed `(component, key, node)`.
#[derive(Debug, Default)]
struct ChanState {
    pending: u64,
    high_water: u64,
}

/// Stall-detection state of one *logical* channel, keyed
/// `(component, key)`. A channel spans nodes — senders report
/// outstanding work, receivers (and sender window movements) report
/// progress — and only the global observer can join the two: a sender
/// alone cannot tell "the receiver is slow by design" (windows move in
/// checkpoint quanta) from "the receiver is unreachable".
#[derive(Debug, Default)]
struct LinkState {
    /// Earliest gauge growth (new transmission) not yet followed by a
    /// progress mark. `None` while every transmission has a delivery
    /// or window movement behind it — even if content is retained
    /// unacked, that is batching, not a stall.
    owed_since: Option<SimTime>,
    /// Outstanding work summed across the link's reporting endpoints.
    pending: u64,
    stalled: bool,
}

#[derive(Debug, Default)]
struct ViewState {
    last_view: u64,
    recent: Vec<SimTime>,
    storm_reported: bool,
}

/// The streaming watchdog state. Owned by an enabled [`crate::Recorder`].
#[derive(Debug, Default)]
pub struct HealthMonitor {
    chans: BTreeMap<(&'static str, u32, u32), ChanState>,
    links: BTreeMap<(&'static str, u32), LinkState>,
    views: BTreeMap<u32, ViewState>,
    events: Vec<HealthEvent>,
    windows: BTreeMap<u64, Histogram>,
}

impl HealthMonitor {
    /// A fresh monitor.
    pub fn new() -> Self {
        HealthMonitor::default()
    }

    /// Flags links whose stall deadline expired before `now`. Called
    /// from every feed, so detection latency is bounded by the inter-
    /// arrival time of *any* recorded activity, not by a dedicated timer.
    pub fn scan(&mut self, now: SimTime) {
        for (&(component, key), st) in self.links.iter_mut() {
            if st.stalled {
                continue;
            }
            let Some(since) = st.owed_since else { continue };
            let deadline = since + STALL_AFTER;
            if deadline <= now {
                st.stalled = true;
                // Blame the endpoint with the deepest backlog
                // (ties: lowest node id, for determinism).
                let node = self
                    .chans
                    .range((component, key, 0)..=(component, key, u32::MAX))
                    .max_by_key(|(&(_, _, n), s)| (s.pending, std::cmp::Reverse(n)))
                    .map_or(0, |(&(_, _, n), _)| n);
                self.events.push(HealthEvent::IrmcWindowStall {
                    at: deadline,
                    node: NodeId(node),
                    component,
                    key,
                });
            }
        }
    }

    /// Feeds a progress mark for a link: a sender's window moved, or a
    /// receiver delivered. Any endpoint's progress disarms the link's
    /// stall clock — the ack window legitimately sits still between
    /// checkpoints, so deliveries are what distinguish "batching toward
    /// the next checkpoint" from "partitioned".
    pub fn mark(&mut self, at: SimTime, node: NodeId, component: &'static str, key: u32) {
        self.scan(at);
        let st = self.links.entry((component, key)).or_default();
        st.owed_since = None;
        if st.stalled {
            st.stalled = false;
            self.events.push(HealthEvent::IrmcWindowRecover { at, node, component, key });
        }
    }

    /// Feeds one endpoint's outstanding-work gauge. A gauge *increase*
    /// is a new transmission: it arms the link's stall clock, which
    /// only the next progress mark (or a drain to zero) disarms. A
    /// gauge that merely stays positive — retained content waiting for
    /// a checkpoint ack, with nothing newly in flight — never stalls.
    pub fn pending(
        &mut self,
        at: SimTime,
        node: NodeId,
        component: &'static str,
        key: u32,
        pending: u64,
    ) {
        self.scan(at);
        let st = self.chans.entry((component, key, node.0)).or_default();
        let old = st.pending;
        st.pending = pending;
        st.high_water = st.high_water.max(pending);
        let link = self.links.entry((component, key)).or_default();
        link.pending = (link.pending - old) + pending;
        if pending > old && link.owed_since.is_none() {
            link.owed_since = Some(at);
        }
        if link.pending == 0 {
            link.owed_since = None;
            if link.stalled {
                link.stalled = false;
                self.events.push(HealthEvent::IrmcWindowRecover { at, node, component, key });
            }
        }
    }

    /// Feeds a consensus view observation for a replica.
    pub fn view(&mut self, at: SimTime, node: NodeId, view: u64) {
        self.scan(at);
        let st = self.views.entry(node.0).or_default();
        if view <= st.last_view && !(view == 0 && st.recent.is_empty()) {
            return;
        }
        st.last_view = view;
        if view == 0 {
            return;
        }
        self.events.push(HealthEvent::ViewChange { at, node, view });
        st.recent.push(at);
        let cutoff = at.saturating_sub(VIEW_STORM_WINDOW);
        st.recent.retain(|&t| t >= cutoff);
        let count = st.recent.len() as u32;
        if count >= VIEW_STORM_COUNT {
            if !st.storm_reported {
                st.storm_reported = true;
                self.events.push(HealthEvent::ViewChangeStorm { at, node, count });
            }
        } else {
            st.storm_reported = false;
        }
    }

    /// Feeds one completed-request latency into the rolling windows.
    pub fn latency(&mut self, at: SimTime, latency: SimTime) {
        self.scan(at);
        let w = WINDOW.as_nanos();
        let idx = at.as_nanos() / w;
        self.windows.entry(idx).or_default().record(latency.as_nanos());
    }

    /// Events emitted so far, sorted by event time (stable within a tie).
    pub fn events(&self) -> Vec<HealthEvent> {
        let mut out = self.events.clone();
        out.sort_by_key(|e| e.at());
        out
    }

    /// Rolling latency windows as `(window_start, histogram)` pairs.
    pub fn windows(&self) -> Vec<(SimTime, Histogram)> {
        let w = WINDOW.as_nanos();
        self.windows.iter().map(|(&idx, h)| (SimTime::from_nanos(idx * w), h.clone())).collect()
    }

    /// Backpressure gauges as `((node, component, key), (current, high_water))`.
    pub fn gauges(&self) -> BTreeMap<(u32, &'static str, u32), (u64, u64)> {
        self.chans
            .iter()
            .map(|(&(component, key, node), st)| {
                ((node, component, key), (st.pending, st.high_water))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn healthy_channel_never_stalls() {
        let mut m = HealthMonitor::new();
        m.pending(ms(0), NodeId(1), "commit", 0, 3);
        for t in (100..5000).step_by(100) {
            m.mark(ms(t), NodeId(1), "commit", 0);
        }
        m.scan(ms(5500));
        assert!(m.events().is_empty(), "marks every 100ms must never stall");
        // Once the channel drains, silence is healthy for any duration.
        m.pending(ms(5600), NodeId(1), "commit", 0, 0);
        m.scan(ms(60_000));
        assert!(m.events().is_empty());
    }

    #[test]
    fn stall_is_stamped_at_the_deadline_and_recovers() {
        let mut m = HealthMonitor::new();
        m.pending(ms(1000), NodeId(1), "commit", 2, 4);
        // No progress; unrelated activity at 3.7s triggers the lazy scan.
        m.latency(ms(3700), ms(5));
        let evs = m.events();
        assert_eq!(evs.len(), 1);
        match evs[0] {
            HealthEvent::IrmcWindowStall { at, node, component, key } => {
                assert_eq!(at, ms(2000), "stamped at transmission + stall_after, not scan time");
                assert_eq!((node, component, key), (NodeId(1), "commit", 2));
            }
            ref other => panic!("expected stall, got {other:?}"),
        }
        // A later mark recovers; no duplicate stall in between.
        m.latency(ms(4000), ms(5));
        m.mark(ms(4500), NodeId(1), "commit", 2);
        let evs = m.events();
        assert_eq!(evs.len(), 2);
        assert!(matches!(evs[1], HealthEvent::IrmcWindowRecover { at, .. } if at == ms(4500)));
    }

    #[test]
    fn drained_channel_does_not_stall() {
        let mut m = HealthMonitor::new();
        m.pending(ms(0), NodeId(1), "commit", 0, 2);
        m.mark(ms(100), NodeId(1), "commit", 0);
        m.pending(ms(150), NodeId(1), "commit", 0, 0);
        m.scan(ms(10_000));
        assert!(m.events().is_empty(), "nothing outstanding => no stall");
        // The stall clock restarts when work appears again.
        m.pending(ms(20_000), NodeId(1), "commit", 0, 1);
        m.scan(ms(20_500));
        assert!(m.events().is_empty());
        m.scan(ms(21_100));
        assert_eq!(m.events().len(), 1);
    }

    #[test]
    fn receiver_deliveries_keep_a_checkpoint_paced_link_healthy() {
        let mut m = HealthMonitor::new();
        // Sender (node 1) transmits every 100 ms and retains the cast
        // content across the whole span — its ack window only moves at
        // checkpoints, several seconds apart. Receiver (node 9)
        // delivers every 100 ms.
        let mut backlog = 16;
        m.pending(ms(0), NodeId(1), "commit", 0, backlog);
        for t in (100..5000).step_by(100) {
            backlog += 1;
            m.pending(ms(t), NodeId(1), "commit", 0, backlog);
            m.mark(ms(t), NodeId(9), "commit", 0);
        }
        m.scan(ms(5500));
        assert!(
            m.events().is_empty(),
            "deliveries are progress: a slow ack window alone must not stall the link"
        );
        // Retention with nothing newly in flight is batching, not a
        // stall — a quiet sender may sit on unacked content forever.
        m.scan(ms(60_000));
        assert!(m.events().is_empty());
        // A fresh transmission with no delivery behind it is the real
        // signal: the stall names the endpoint holding the backlog,
        // not the receiver.
        m.pending(ms(60_100), NodeId(1), "commit", 0, backlog + 1);
        m.latency(ms(62_000), ms(5));
        let evs = m.events();
        assert_eq!(evs.len(), 1);
        assert!(matches!(
            evs[0],
            HealthEvent::IrmcWindowStall { at, node, component: "commit", key: 0 }
                if at == ms(61_100) && node == NodeId(1)
        ));
    }

    #[test]
    fn view_changes_and_storm_threshold() {
        let mut m = HealthMonitor::new();
        m.view(ms(0), NodeId(7), 0); // initial view: not a change
        m.view(ms(1000), NodeId(7), 1);
        m.view(ms(1000), NodeId(7), 1); // duplicate: ignored
        m.view(ms(2000), NodeId(7), 2);
        assert_eq!(m.events().len(), 2);
        m.view(ms(3000), NodeId(7), 3);
        let evs = m.events();
        assert_eq!(evs.len(), 4, "third change within 10s raises a storm");
        assert!(matches!(evs[3], HealthEvent::ViewChangeStorm { count: 3, .. }));
    }

    #[test]
    fn latency_windows_bucket_by_time() {
        let mut m = HealthMonitor::new();
        m.latency(ms(100), ms(5));
        m.latency(ms(900), ms(7));
        m.latency(ms(1500), ms(50));
        let w = m.windows();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].0, SimTime::ZERO);
        assert_eq!(w[0].1.count(), 2);
        assert_eq!(w[1].1.count(), 1);
        assert!(w[1].1.quantile(0.5) >= ms(50).as_nanos());
    }

    #[test]
    fn gauges_track_high_water() {
        let mut m = HealthMonitor::new();
        m.pending(ms(0), NodeId(3), "commit", 1, 5);
        m.pending(ms(10), NodeId(3), "commit", 1, 12);
        m.pending(ms(20), NodeId(3), "commit", 1, 2);
        let g = m.gauges();
        assert_eq!(g[&(3, "commit", 1)], (2, 12));
    }
}
