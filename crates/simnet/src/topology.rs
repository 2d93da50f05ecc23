//! Network topology: data centers, link latencies, bandwidth, and per-link
//! byte accounting.
//!
//! Scrub deployments span "thousands of machines in many data centers
//! across the globe" (§4); what matters for the experiments is (a) how much
//! data leaves the application hosts and (b) how long it takes to reach
//! ScrubCentral — so the model is a latency by distance (same host, same
//! DC, or across DCs) plus a serialization delay from message size and link
//! bandwidth, with byte counters per link.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// Topology and link parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    /// One-way latency between processes on the same host.
    pub loopback_us: i64,
    /// One-way latency between hosts in the same data center.
    pub intra_dc_us: i64,
    /// One-way latency between different data centers.
    pub inter_dc_us: i64,
    /// Bandwidth per host NIC, bytes per microsecond (e.g. 1.25 = 10 Gb/s).
    pub bandwidth_bytes_per_us: f64,
}

impl Default for Topology {
    fn default() -> Self {
        Topology {
            loopback_us: 10,
            intra_dc_us: 250,
            inter_dc_us: 60_000,          // cross-continental: 60 ms one-way
            bandwidth_bytes_per_us: 1.25, // 10 Gb/s
        }
    }
}

impl Topology {
    /// One-way delivery delay for a message of `bytes` from `from_dc` to
    /// `to_dc` (`same_host` short-circuits to loopback).
    pub fn delay(&self, from_dc: &str, to_dc: &str, same_host: bool, bytes: usize) -> SimDuration {
        let base = if same_host {
            self.loopback_us
        } else if from_dc == to_dc {
            self.intra_dc_us
        } else {
            self.inter_dc_us
        };
        let transmit = (bytes as f64 / self.bandwidth_bytes_per_us).ceil() as i64;
        SimDuration(base + transmit)
    }
}

/// Traffic counters for one (from-DC, to-DC) link direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Messages delivered.
    pub messages: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
}

/// Accumulates traffic per DC pair over a simulation run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrafficAccounting {
    links: HashMap<(String, String), LinkStats>,
}

impl TrafficAccounting {
    /// Record one message on the (from, to) link.
    pub fn record(&mut self, from_dc: &str, to_dc: &str, bytes: usize) {
        let e = self
            .links
            .entry((from_dc.to_string(), to_dc.to_string()))
            .or_default();
        e.messages += 1;
        e.bytes += bytes as u64;
    }

    /// Stats for one directed link.
    pub fn link(&self, from_dc: &str, to_dc: &str) -> LinkStats {
        self.links
            .get(&(from_dc.to_string(), to_dc.to_string()))
            .copied()
            .unwrap_or_default()
    }

    /// Total bytes crossing DC boundaries (from != to).
    pub fn cross_dc_bytes(&self) -> u64 {
        self.links
            .iter()
            .filter(|((f, t), _)| f != t)
            .map(|(_, s)| s.bytes)
            .sum()
    }

    /// Total bytes over all links.
    pub fn total_bytes(&self) -> u64 {
        self.links.values().map(|s| s.bytes).sum()
    }

    /// Total messages over all links.
    pub fn total_messages(&self) -> u64 {
        self.links.values().map(|s| s.messages).sum()
    }

    /// Iterate over all (from, to) -> stats entries.
    pub fn iter(&self) -> impl Iterator<Item = (&(String, String), &LinkStats)> {
        self.links.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_tiers() {
        let t = Topology::default();
        let lo = t.delay("DC1", "DC1", true, 0);
        let intra = t.delay("DC1", "DC1", false, 0);
        let inter = t.delay("DC1", "DC2", false, 0);
        assert!(lo < intra && intra < inter);
    }

    #[test]
    fn size_adds_transmit_delay() {
        let t = Topology::default();
        let small = t.delay("DC1", "DC2", false, 100);
        let big = t.delay("DC1", "DC2", false, 1_250_000); // 1.25 MB at 10Gb/s = 1ms
        assert_eq!(big.as_us() - small.as_us(), 1_000_000 - 80);
    }

    #[test]
    fn traffic_accounting() {
        let mut acc = TrafficAccounting::default();
        acc.record("DC1", "DC1", 100);
        acc.record("DC1", "DC2", 200);
        acc.record("DC1", "DC2", 300);
        assert_eq!(acc.link("DC1", "DC2").messages, 2);
        assert_eq!(acc.link("DC1", "DC2").bytes, 500);
        assert_eq!(acc.cross_dc_bytes(), 500);
        assert_eq!(acc.total_bytes(), 600);
        assert_eq!(acc.total_messages(), 3);
        assert_eq!(acc.link("DC9", "DC1"), LinkStats::default());
    }
}
