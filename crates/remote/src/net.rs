//! Network cost model for inter-node transfers.

use worlds_obs::VirtualTime;

/// Latency + bandwidth model: a transfer of `n` bytes costs
/// `latency + n / bandwidth`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetModel {
    /// Human-readable name.
    pub name: &'static str,
    /// Per-message one-way latency.
    pub latency: VirtualTime,
    /// Bytes per second.
    pub bandwidth: f64,
}

impl NetModel {
    /// The paper's 1989 LAN: calibrated so shipping the §3.4 reference
    /// process (70 KB checkpoint) costs ≈ 1 s — dominated by checkpoint
    /// write + transfer + restore on 10 Mbit-era equipment with hefty
    /// software overheads.
    pub fn lan_1989() -> NetModel {
        NetModel {
            name: "1989 LAN (rfork-calibrated)",
            latency: VirtualTime::from_ms(150.0),
            // ≈ 84 KB/s effective: 70 KB / 0.85 s, leaving the rest of the
            // observed second to latency.
            bandwidth: 84.0 * 1024.0,
        }
    }

    /// A modern datacenter network: 25 µs latency, 10 GB/s.
    pub fn datacenter() -> NetModel {
        NetModel {
            name: "modern datacenter",
            latency: VirtualTime::from_us(25.0),
            bandwidth: 10e9,
        }
    }

    /// An infinitely fast network (for isolating compute effects).
    pub fn ideal() -> NetModel {
        NetModel {
            name: "ideal",
            latency: VirtualTime::ZERO,
            bandwidth: f64::INFINITY,
        }
    }

    /// Virtual time to move `bytes` across this network once.
    pub fn transfer_time(&self, bytes: usize) -> VirtualTime {
        if self.bandwidth.is_infinite() {
            return self.latency;
        }
        let secs = bytes as f64 / self.bandwidth;
        self.latency + VirtualTime::from_secs(secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_70kb_calibration_point() {
        // §3.4: "An rfork() of a 70K process requires slightly less than a
        // second" — our model should land in [0.8 s, 1.2 s].
        let net = NetModel::lan_1989();
        let t = net.transfer_time(70 * 1024);
        assert!(
            (0.8..1.2).contains(&t.as_secs()),
            "70 KB ship took {t} on the 1989 LAN model"
        );
    }

    #[test]
    fn transfer_scales_with_size() {
        let net = NetModel::lan_1989();
        let small = net.transfer_time(1024);
        let big = net.transfer_time(1024 * 1024);
        assert!(big > small);
        // Latency floor.
        assert!(net.transfer_time(0) == net.latency);
    }

    #[test]
    fn ideal_network_is_free() {
        assert_eq!(NetModel::ideal().transfer_time(1 << 30), VirtualTime::ZERO);
    }

    #[test]
    fn datacenter_is_orders_of_magnitude_faster() {
        let old = NetModel::lan_1989().transfer_time(70 * 1024);
        let new = NetModel::datacenter().transfer_time(70 * 1024);
        assert!(old.as_ns() / new.as_ns().max(1) > 1000);
    }
}
