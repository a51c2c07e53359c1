//! Figures 9b–9d: IRMC microbenchmarks — throughput, CPU usage, and
//! LAN/WAN data transfer of IRMC-RC vs IRMC-SC for message sizes
//! 256 B … 16 KiB over a Virginia → Tokyo channel.
//!
//! Paper result: IRMC-RC reaches higher maximum throughput (sender
//! endpoints only sign, never verify certificate shares), while IRMC-SC
//! transfers far less WAN data (one certificate per receiver instead of
//! `n_s × n_r` signed copies) at the cost of LAN share traffic and extra
//! sender CPU.
//!
//! The rig floods the channel: every sender keeps the subchannel window
//! full with single-slot submissions, receivers consume and advance
//! windows; the busy-server CPU model then yields the saturation
//! throughput directly.

use super::channel_rig::{Feed, Rig};
use spider_irmc::Variant;
use spider_types::SimTime;

/// One measurement of the IRMC microbenchmark.
#[derive(Debug, Clone, serde::Serialize)]
pub struct IrmcRow {
    /// Channel variant.
    pub variant: String,
    /// Message size in bytes.
    pub msg_size: usize,
    /// Delivered messages per second (averaged over receivers).
    pub throughput_rps: f64,
    /// Mean CPU utilization of sender endpoints (0..1).
    pub sender_cpu: f64,
    /// Mean CPU utilization of receiver endpoints (0..1).
    pub receiver_cpu: f64,
    /// WAN bytes per second (sender group -> receiver group + control).
    pub wan_mbps: f64,
    /// LAN bytes per second within the sender group (IRMC-SC shares).
    pub lan_mbps: f64,
}

/// Scale configuration for Figures 9b–9d.
#[derive(Debug, Clone)]
pub struct Config {
    /// Message sizes to sweep (paper: 256, 1024, 4096, 16384).
    pub sizes: Vec<usize>,
    /// Measurement duration per point.
    pub duration: SimTime,
    /// Subchannel capacity (in-flight positions).
    pub capacity: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            sizes: vec![256, 1024, 4096, 16384],
            duration: SimTime::from_secs(5),
            capacity: 256,
            seed: 42,
        }
    }
}

/// Runs one (variant, size) point and returns its row.
pub fn run_point(variant: Variant, msg_size: usize, cfg: &Config) -> IrmcRow {
    let o = Rig {
        mode: variant.into(),
        feed: Feed::FillWindow,
        msg_size,
        capacity: cfg.capacity,
        move_every: (cfg.capacity / 4).max(1),
        traced: false,
        duration: cfg.duration,
        seed: cfg.seed,
    }
    .run();
    let secs = cfg.duration.as_secs_f64();
    IrmcRow {
        variant: variant.to_string(),
        msg_size,
        throughput_rps: o.slots_per_sec,
        sender_cpu: o.sender_cpu,
        receiver_cpu: o.receiver_cpu,
        wan_mbps: o.wan_bytes as f64 / secs / 1e6,
        lan_mbps: o.lan_bytes as f64 / secs / 1e6,
    }
}

/// Runs the full sweep: both variants × all sizes.
pub fn run(cfg: &Config) -> Vec<IrmcRow> {
    let mut rows = Vec::new();
    for variant in [Variant::ReceiverCollect, Variant::SenderCollect] {
        for &size in &cfg.sizes {
            rows.push(run_point(variant, size, cfg));
        }
    }
    rows
}

/// Renders Figures 9b (throughput), 9c (CPU), and 9d (network) as text.
pub fn render(rows: &[IrmcRow]) -> String {
    let mut out =
        String::from("Figures 9b-9d — IRMC variants over a Virginia->Tokyo channel (flooded)\n");
    out.push_str(&format!(
        "{:<9} {:>7} {:>12} {:>11} {:>13} {:>10} {:>10}\n",
        "variant",
        "size[B]",
        "thruput[r/s]",
        "sender-cpu",
        "receiver-cpu",
        "WAN[MB/s]",
        "LAN[MB/s]"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<9} {:>7} {:>12.0} {:>10.0}% {:>12.0}% {:>10.2} {:>10.2}\n",
            r.variant,
            r.msg_size,
            r.throughput_rps,
            r.sender_cpu * 100.0,
            r.receiver_cpu * 100.0,
            r.wan_mbps,
            r.lan_mbps
        ));
    }
    out
}
