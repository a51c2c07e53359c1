//! Simulation-wide measurement: bytes per link class, CPU busy time.
//!
//! The paper's Figure 9c reports CPU utilization of IRMC endpoints and
//! Figure 9d reports LAN/WAN data transfer; both fall out of the counters
//! kept here.

use serde::{Deserialize, Serialize};
use spider_types::{NodeId, SimTime};

/// Classification of a link for byte accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkClass {
    /// Same region (possibly different availability zone).
    Lan,
    /// Crosses a region boundary — the expensive kind in public clouds.
    Wan,
}

impl std::fmt::Display for LinkClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkClass::Lan => write!(f, "LAN"),
            LinkClass::Wan => write!(f, "WAN"),
        }
    }
}

/// Send-side byte and message counters of one node.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct NetStats {
    /// Bytes sent over intra-region links.
    pub lan_sent: u64,
    /// Bytes sent over inter-region links.
    pub wan_sent: u64,
    /// Messages sent (any class).
    pub messages_sent: u64,
}

/// CPU accounting for one node.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct NodeStats {
    /// Total CPU time charged by this node's handlers.
    pub busy: SimTime,
}

impl NodeStats {
    /// CPU utilization over a window of wall-clock (simulated) time.
    pub fn utilization(&self, window: SimTime) -> f64 {
        if window == SimTime::ZERO {
            0.0
        } else {
            self.busy.as_nanos() as f64 / window.as_nanos() as f64
        }
    }
}

/// All measurements of a simulation run.
#[derive(Debug, Default)]
pub struct SimStats {
    net: Vec<NetStats>,
    cpu: Vec<NodeStats>,
    /// Messages dropped by fault injection.
    pub dropped_messages: u64,
    /// Total events processed.
    pub total_events: u64,
}

impl SimStats {
    pub(crate) fn ensure_node(&mut self, node: NodeId) {
        let idx = node.0 as usize;
        if self.net.len() <= idx {
            self.net.resize(idx + 1, NetStats::default());
            self.cpu.resize(idx + 1, NodeStats::default());
        }
    }

    pub(crate) fn record_send(&mut self, from: NodeId, class: LinkClass, bytes: u64) {
        let s = &mut self.net[from.0 as usize];
        s.messages_sent += 1;
        match class {
            LinkClass::Lan => s.lan_sent += bytes,
            LinkClass::Wan => s.wan_sent += bytes,
        }
    }

    pub(crate) fn record_busy(&mut self, node: NodeId, busy: SimTime) {
        self.cpu[node.0 as usize].busy += busy;
    }

    /// Network counters of a node.
    pub fn net(&self, node: NodeId) -> NetStats {
        self.net.get(node.0 as usize).copied().unwrap_or_default()
    }

    /// CPU counters of a node.
    pub fn cpu(&self, node: NodeId) -> NodeStats {
        self.cpu.get(node.0 as usize).copied().unwrap_or_default()
    }

    /// Sum of WAN bytes sent by all nodes.
    pub fn total_wan_sent(&self) -> u64 {
        self.net.iter().map(|n| n.wan_sent).sum()
    }

    /// Sum of LAN bytes sent by all nodes.
    pub fn total_lan_sent(&self) -> u64 {
        self.net.iter().map(|n| n.lan_sent).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_class() {
        let mut s = SimStats::default();
        s.ensure_node(NodeId(1));
        s.record_send(NodeId(1), LinkClass::Wan, 100);
        s.record_send(NodeId(1), LinkClass::Lan, 40);
        let n = s.net(NodeId(1));
        assert_eq!(n.wan_sent, 100);
        assert_eq!(n.lan_sent, 40);
        assert_eq!(n.messages_sent, 2);
        assert_eq!(s.total_wan_sent(), 100);
        assert_eq!(s.total_lan_sent(), 40);
    }

    #[test]
    fn utilization_is_busy_over_window() {
        let mut s = SimStats::default();
        s.ensure_node(NodeId(0));
        s.record_busy(NodeId(0), SimTime::from_millis(250));
        let u = s.cpu(NodeId(0)).utilization(SimTime::from_secs(1));
        assert!((u - 0.25).abs() < 1e-12);
    }

    #[test]
    fn unknown_node_reads_as_default() {
        let s = SimStats::default();
        assert_eq!(s.net(NodeId(42)).wan_sent, 0);
        assert_eq!(s.cpu(NodeId(42)).busy, SimTime::ZERO);
    }
}
