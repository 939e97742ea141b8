//! Network link model.

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Link bandwidth, stored in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// From megabits per second.
    pub fn mbps(mbps: f64) -> Self {
        Bandwidth(mbps * 1_000_000.0)
    }

    /// From gigabits per second.
    pub fn gbps(gbps: f64) -> Self {
        Bandwidth(gbps * 1_000_000_000.0)
    }

    /// In bits per second.
    pub fn bits_per_sec(&self) -> f64 {
        self.0
    }

    /// In megabits per second.
    pub fn as_mbps(&self) -> f64 {
        self.0 / 1_000_000.0
    }

    /// Time to move `bytes` payload bytes at this rate.
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 * 8.0 / self.0)
    }
}

/// A point-to-point link between a client and a registry.
///
/// A request costs `rtt + request_overhead + payload_bits / bandwidth`. The
/// per-request overhead models HTTP/registry processing; it is what makes
/// many small fetches (Slacker's blocks) slower than few larger ones (Gear's
/// files) at the same total byte count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Payload bandwidth.
    pub bandwidth: Bandwidth,
    /// Round-trip latency charged once per request.
    pub rtt: Duration,
    /// Fixed server/client processing overhead per request.
    pub request_overhead: Duration,
}

impl Link {
    /// A link of the given bandwidth with LAN-like latency defaults
    /// (0.2 ms RTT, 0.5 ms per-request overhead).
    pub fn mbps(mbps: f64) -> Self {
        Link {
            bandwidth: Bandwidth::mbps(mbps),
            rtt: Duration::from_micros(200),
            request_overhead: Duration::from_micros(500),
        }
    }

    /// The paper's measured testbed link: 904 Mbps between two servers
    /// (paper §V-A).
    pub fn paper_testbed() -> Self {
        Link::mbps(904.0)
    }

    /// The four bandwidth settings used in the deployment-time experiments
    /// (paper Fig. 9): 904, 100, 20, and 5 Mbps.
    pub fn figure9_presets() -> [(&'static str, Link); 4] {
        [
            ("904Mbps", Link::paper_testbed()),
            ("100Mbps", Link::mbps(100.0)),
            ("20Mbps", Link::mbps(20.0)),
            ("5Mbps", Link::mbps(5.0)),
        ]
    }

    /// Returns a copy with a different RTT.
    pub fn with_rtt(mut self, rtt: Duration) -> Self {
        self.rtt = rtt;
        self
    }

    /// Total time for one request transferring `payload_bytes`.
    pub fn request_time(&self, payload_bytes: u64) -> Duration {
        self.rtt + self.request_overhead + self.bandwidth.transfer_time(payload_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_transfer_time() {
        // 1 MB at 8 Mbps = 1 second.
        let bw = Bandwidth::mbps(8.0);
        assert_eq!(bw.transfer_time(1_000_000), Duration::from_secs(1));
        assert_eq!(Bandwidth::gbps(1.0).as_mbps(), 1000.0);
    }

    #[test]
    fn request_time_includes_fixed_costs() {
        let link = Link::mbps(8.0);
        let t = link.request_time(1_000_000);
        assert!(t > Duration::from_secs(1));
        assert!(t < Duration::from_millis(1010));
    }

    #[test]
    fn presets_cover_paper_settings() {
        let presets = Link::figure9_presets();
        assert_eq!(presets.len(), 4);
        assert!((presets[0].1.bandwidth.as_mbps() - 904.0).abs() < 1e-9);
        assert!((presets[3].1.bandwidth.as_mbps() - 5.0).abs() < 1e-9);
    }
}
