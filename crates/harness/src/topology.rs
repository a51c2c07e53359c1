//! The paper's EC2 deployment topology.
//!
//! Regions and availability-zone counts as of the paper's evaluation
//! (2020): Virginia (us-east-1, 6 AZs — the agreement-group host),
//! Oregon, Ireland, Tokyo, São Paulo (client expansion site, Fig 10), and
//! the four "nearby" regions used for extra fault domains at `f = 2`
//! (Fig 11): Ohio, California, London, Seoul.
//!
//! One-way latencies derive from published EC2 inter-region RTT
//! measurements of that era (RTT / 2, rounded). Exact values shift by a
//! few milliseconds month to month; the *ordering* of distances — which
//! determines every qualitative result — is stable.

use spider_sim::Topology;
use spider_types::SimTime;

/// The four client regions of the main experiments.
pub const REGIONS4: [&str; 4] = ["virginia", "oregon", "ireland", "tokyo"];

/// The five client regions of the adaptability experiment (Fig 10).
pub const REGIONS5: [&str; 5] = ["virginia", "oregon", "ireland", "tokyo", "saopaulo"];

/// Neighbor regions providing extra fault domains at `f = 2` (Fig 11),
/// aligned with [`REGIONS4`]: Virginia+Ohio, Oregon+California,
/// Ireland+London, Tokyo+Seoul.
pub const NEIGHBORS4: [&str; 4] = ["ohio", "california", "london", "seoul"];

/// Round-trip times in milliseconds between all regions.
const RTT_MS: [(&str, &str, u64); 36] = [
    ("virginia", "oregon", 62),
    ("virginia", "ireland", 76),
    ("virginia", "tokyo", 146),
    ("virginia", "saopaulo", 116),
    ("virginia", "ohio", 12),
    ("virginia", "california", 61),
    ("virginia", "london", 76),
    ("virginia", "seoul", 172),
    ("oregon", "ireland", 124),
    ("oregon", "tokyo", 98),
    ("oregon", "saopaulo", 182),
    ("oregon", "ohio", 50),
    ("oregon", "california", 21),
    ("oregon", "london", 128),
    ("oregon", "seoul", 126),
    ("ireland", "tokyo", 212),
    ("ireland", "saopaulo", 184),
    ("ireland", "ohio", 86),
    ("ireland", "california", 137),
    ("ireland", "london", 10),
    ("ireland", "seoul", 238),
    ("tokyo", "saopaulo", 256),
    ("tokyo", "ohio", 160),
    ("tokyo", "california", 107),
    ("tokyo", "london", 210),
    ("tokyo", "seoul", 32),
    ("saopaulo", "ohio", 128),
    ("saopaulo", "california", 172),
    ("saopaulo", "london", 186),
    ("saopaulo", "seoul", 294),
    ("ohio", "california", 52),
    ("ohio", "london", 84),
    ("ohio", "seoul", 176),
    ("california", "london", 140),
    ("california", "seoul", 134),
    ("london", "seoul", 246),
];

/// Builds the paper's EC2 topology (all nine regions).
///
/// # Examples
///
/// ```
/// let topo = spider_harness::ec2_topology();
/// assert_eq!(topo.num_zones(topo.region("virginia")), 6);
/// ```
pub fn ec2_topology() -> Topology {
    let mut b = Topology::builder()
        // Virginia had six AZs (the paper's V-1 … V-6); the others three.
        .region("virginia", 6)
        .region("oregon", 3)
        .region("ireland", 3)
        .region("tokyo", 3)
        .region("saopaulo", 3)
        .region("ohio", 3)
        .region("california", 3)
        .region("london", 3)
        .region("seoul", 3)
        // Inter-AZ RTT ~1ms, intra-AZ ~0.3ms.
        .inter_zone_latency(SimTime::from_micros(500))
        .intra_zone_latency(SimTime::from_micros(150))
        .jitter(0.10);
    for (a, bb, rtt) in RTT_MS {
        b = b.symmetric_latency(a, bb, SimTime::from_micros(rtt * 500));
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_region_pairs_have_latencies() {
        let t = ec2_topology();
        let regions = [
            "virginia",
            "oregon",
            "ireland",
            "tokyo",
            "saopaulo",
            "ohio",
            "california",
            "london",
            "seoul",
        ];
        for a in regions {
            for b in regions {
                let l = t.base_latency(t.zone(a, 0), t.zone(b, 0));
                if a == b {
                    assert!(l < SimTime::from_millis(1));
                } else {
                    assert!(l >= SimTime::from_millis(5), "{a}->{b} = {l}");
                }
            }
        }
    }

    #[test]
    fn latency_matrix_matches_geography() {
        let t = ec2_topology();
        let one_way = |a: &str, b: &str| t.base_latency(t.zone(a, 0), t.zone(b, 0));
        // Virginia is closer to Ireland than to Tokyo; Tokyo is closest
        // to Seoul; Ohio is Virginia's neighbor.
        assert!(one_way("virginia", "ireland") < one_way("virginia", "tokyo"));
        assert!(one_way("tokyo", "seoul") < one_way("tokyo", "virginia"));
        assert!(one_way("virginia", "ohio") < one_way("virginia", "oregon"));
    }

    #[test]
    fn rtt_table_is_symmetric_and_complete() {
        // 9 regions -> 36 unordered pairs.
        assert_eq!(RTT_MS.len(), 36);
        let mut seen = std::collections::BTreeSet::new();
        for (a, b, _) in RTT_MS {
            assert!(seen.insert((a.min(b), a.max(b))), "duplicate {a}-{b}");
        }
    }
}
