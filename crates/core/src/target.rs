//! Resolution of the `@[...]` target-host clause against a host inventory.
//!
//! §3.2: "Putting this construct in the language instead of, for instance,
//! using a selection on the host name, allows Scrub to limit the execution
//! of the query to the specified hosts, again reducing the load on the
//! target system." Resolution happens entirely at the query server; hosts
//! that do not match never see the query object at all.

use serde::{Deserialize, Serialize};

use crate::ql::ast::TargetExpr;

/// Descriptor of one application host as known to the service registry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostInfo {
    /// Unique host name (e.g. `"bid-sj-0007"`).
    pub name: String,
    /// Service the host runs (e.g. `"BidServers"`).
    pub service: String,
    /// Data center the host resides in (e.g. `"DC1"`).
    pub dc: String,
}

impl HostInfo {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, service: impl Into<String>, dc: impl Into<String>) -> Self {
        HostInfo {
            name: name.into(),
            service: service.into(),
            dc: dc.into(),
        }
    }

    /// Does this host satisfy the target expression?
    pub fn matches(&self, target: &TargetExpr) -> bool {
        match target {
            TargetExpr::All => true,
            TargetExpr::Service(ss) => ss.iter().any(|s| eq_ci(s, &self.service)),
            TargetExpr::Host(hs) => hs.iter().any(|h| eq_ci(h, &self.name)),
            TargetExpr::Dc(ds) => ds.iter().any(|d| eq_ci(d, &self.dc)),
            TargetExpr::And(a, b) => self.matches(a) && self.matches(b),
            TargetExpr::Or(a, b) => self.matches(a) || self.matches(b),
            TargetExpr::Not(t) => !self.matches(t),
        }
    }

    /// Does the target clause *explicitly name* this host — its host name
    /// or its service, written out, anywhere in the expression?
    ///
    /// Blanket selectors (`@[all]`, a DC filter, a negation) do not count.
    /// Scrub's own nodes are resolvable targets only for queries that name
    /// them (`@[Service in ScrubCentral]`): applications asking for
    /// "everything" get application hosts, never the troubleshooter's.
    pub fn explicitly_named(&self, target: &TargetExpr) -> bool {
        match target {
            TargetExpr::All | TargetExpr::Dc(_) => false,
            TargetExpr::Service(ss) => ss.iter().any(|s| eq_ci(s, &self.service)),
            TargetExpr::Host(hs) => hs.iter().any(|h| eq_ci(h, &self.name)),
            TargetExpr::And(a, b) | TargetExpr::Or(a, b) => {
                self.explicitly_named(a) || self.explicitly_named(b)
            }
            TargetExpr::Not(t) => self.explicitly_named(t),
        }
    }
}

fn eq_ci(a: &str, b: &str) -> bool {
    a.eq_ignore_ascii_case(b)
}

/// Deterministically sample `fraction` of `n` indices using a seeded
/// linear-congruential shuffle. Host sampling must be stable for a given
/// query id so re-dispatch after a server restart picks the same hosts.
pub fn sample_indices(n: usize, fraction: f64, seed: u64) -> Vec<usize> {
    let keep = if fraction >= 1.0 {
        n
    } else {
        ((n as f64) * fraction).round().max(1.0) as usize
    };
    if keep >= n {
        return (0..n).collect();
    }
    // Fisher-Yates with an xorshift generator seeded through splitmix64 so
    // nearby query ids give unrelated samples.
    let mut idx: Vec<usize> = (0..n).collect();
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let mut state = (z ^ (z >> 31)) | 1;
    for i in (1..n).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % (i as u64 + 1)) as usize;
        idx.swap(i, j);
    }
    let mut chosen: Vec<usize> = idx.into_iter().take(keep).collect();
    chosen.sort_unstable();
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inventory() -> Vec<HostInfo> {
        vec![
            HostInfo::new("bid-1", "BidServers", "DC1"),
            HostInfo::new("bid-2", "BidServers", "DC2"),
            HostInfo::new("ad-1", "AdServers", "DC1"),
            HostInfo::new("pres-1", "PresentationServers", "DC1"),
        ]
    }

    /// Names of the inventory hosts `target` matches, in inventory order.
    fn matching(target: &TargetExpr) -> Vec<String> {
        inventory()
            .into_iter()
            .filter(|h| h.matches(target))
            .map(|h| h.name)
            .collect()
    }

    #[test]
    fn all_matches_everything() {
        assert_eq!(matching(&TargetExpr::All).len(), 4);
    }

    #[test]
    fn service_filter() {
        let t = TargetExpr::Service(vec!["BidServers".into()]);
        assert_eq!(matching(&t), ["bid-1", "bid-2"]);
    }

    #[test]
    fn service_and_dc_conjunction() {
        let t =
            TargetExpr::Service(vec!["BidServers".into()]).and(TargetExpr::Dc(vec!["DC1".into()]));
        assert_eq!(matching(&t), ["bid-1"]);
    }

    #[test]
    fn host_list_and_or() {
        let t = TargetExpr::Host(vec!["bid-1".into()]).or(TargetExpr::Host(vec!["ad-1".into()]));
        assert_eq!(matching(&t), ["bid-1", "ad-1"]);
    }

    #[test]
    fn negation() {
        let t = TargetExpr::Not(Box::new(TargetExpr::Dc(vec!["DC1".into()])));
        assert_eq!(matching(&t), ["bid-2"]);
    }

    #[test]
    fn matching_is_case_insensitive() {
        let t = TargetExpr::Service(vec!["bidservers".into()]);
        assert_eq!(matching(&t), ["bid-1", "bid-2"]);
    }

    #[test]
    fn explicit_naming_requires_the_name_or_service_spelled_out() {
        let central = HostInfo::new("scrub-central", "ScrubCentral", "DC1");
        assert!(!central.explicitly_named(&TargetExpr::All));
        assert!(!central.explicitly_named(&TargetExpr::Dc(vec!["DC1".into()])));
        assert!(central.explicitly_named(&TargetExpr::Service(vec!["scrubcentral".into()])));
        assert!(central.explicitly_named(&TargetExpr::Host(vec!["scrub-central".into()])));
        // naming it inside a conjunction/negation still counts
        let t = TargetExpr::Service(vec!["ScrubCentral".into()])
            .and(TargetExpr::Dc(vec!["DC1".into()]));
        assert!(central.explicitly_named(&t));
        assert!(!central.explicitly_named(&TargetExpr::Service(vec!["BidServers".into()])));
    }

    #[test]
    fn sampling_is_deterministic_and_sized() {
        let a = sample_indices(100, 0.1, 42);
        let b = sample_indices(100, 0.1, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let c = sample_indices(100, 0.1, 43);
        assert_ne!(a, c); // different seed, different sample (overwhelmingly)
    }

    #[test]
    fn sampling_keeps_at_least_one() {
        assert_eq!(sample_indices(50, 0.001, 7).len(), 1);
        assert_eq!(sample_indices(10, 1.0, 7).len(), 10);
        assert_eq!(sample_indices(0, 0.5, 7).len(), 0);
    }
}
