//! Loss ledger: where did the events that never reached a result go?
//!
//! Scrub drops events on purpose (sampling, load shedding) and by
//! accident (a lossy network, dead hosts); the [`QueryProfile`] carries
//! enough cumulative per-host counters to attribute every missing event
//! to a cause — including the per-host events of degraded windows and the
//! dead-host flags — and this module does the bookkeeping from that one
//! record alone. The central invariant, enforced per host:
//!
//! ```text
//! tapped == delivered + sampled_out + load_shed + budget_shed + batch_dropped
//! ```
//!
//! where the right-hand buckets are derived from counters with a
//! provable ordering:
//!
//! * the agent maintains `tapped = selected + sampled_out + shed +
//!   budget_shed` as a single-threaded identity, and ships the
//!   cumulative `(tapped, selected, shed, budget_shed)` tuple on every
//!   batch header; central max-merges them, so the tuple it holds is the
//!   agent's own consistent snapshot at the highest-seq batch received →
//!   `sampled_out = tapped - selected - shed - budget_shed ≥ 0`;
//! * delivered events are a subset of the batches `0..=max_seq`, whose
//!   event total equals `selected` at that same snapshot → `batch_dropped
//!   = selected - delivered ≥ 0`.
//!
//! Two further buckets are *annotations*, not terms of the sum (they
//! classify events already counted above, so adding them would
//! double-count): `deduped_retransmit` (events that arrived again on a
//! duplicate batch copy — the first copy is in `delivered`) and
//! `window_degraded` (delivered events whose window later closed
//! degraded). `host_dead` flags hosts currently suspected dead, the
//! usual explanation for a large `batch_dropped`.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::profile::QueryProfile;

/// Where one host's tapped events went, bucketed by cause.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostLosses {
    /// Events tapped (matched selection) on the host — the total the
    /// buckets below must account for.
    pub tapped: u64,
    /// Events that reached central and entered the executor.
    pub delivered: u64,
    /// Events dropped by the agent's per-event sampler.
    pub sampled_out: u64,
    /// Events dropped by agent load shedding (per-second budget).
    pub load_shed: u64,
    /// Events dropped by the per-host CPU budget tracker: they passed
    /// sampling, but shipping them would have broken `host_cpu_budget`
    /// that second.
    #[serde(default)]
    pub budget_shed: u64,
    /// Events selected for shipment that never arrived: dropped in
    /// flight, buffered past the retransmit-buffer cap, or stranded on a
    /// dead host.
    pub batch_dropped: u64,
    /// Annotation: events that arrived again on duplicate batch copies
    /// and were discarded by dedup (the first copy is in `delivered`;
    /// not a term of the invariant sum).
    pub deduped_retransmit: u64,
    /// Annotation: delivered events whose window later closed degraded
    /// (subset of `delivered`; not a term of the invariant sum).
    pub window_degraded: u64,
    /// The host is currently suspected dead — the likely explanation for
    /// `batch_dropped`.
    pub host_dead: bool,
}

impl HostLosses {
    /// Events lost for any reason (the invariant's right side minus
    /// `delivered`).
    fn total_lost(&self) -> u64 {
        self.sampled_out + self.load_shed + self.budget_shed + self.batch_dropped
    }

    /// Does `tapped == delivered + sampled_out + load_shed + budget_shed
    /// + batch_dropped` hold?
    pub fn reconciles(&self) -> bool {
        self.tapped
            == self.delivered
                + self.sampled_out
                + self.load_shed
                + self.budget_shed
                + self.batch_dropped
    }
}

/// Per-query, per-host loss accounting, reconciled against the query's
/// profile.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LossLedger {
    /// The query this ledger describes.
    pub query_id: u64,
    /// Per-host buckets.
    pub hosts: BTreeMap<String, HostLosses>,
}

impl LossLedger {
    /// Derive the ledger from a query's profile.
    ///
    /// Debug builds assert the counter orderings the derivation relies
    /// on (`selected + shed <= tapped`, `delivered <= selected`) — a
    /// violation means a producer broke the cumulative-counter contract.
    pub fn build(profile: &QueryProfile) -> Self {
        let mut hosts = BTreeMap::new();
        for (host, hp) in &profile.hosts {
            debug_assert!(
                hp.selected + hp.shed + hp.budget_shed <= hp.tapped,
                "host {host}: selected {} + shed {} + budget_shed {} > tapped {} — cumulative counter contract broken",
                hp.selected,
                hp.shed,
                hp.budget_shed,
                hp.tapped
            );
            debug_assert!(
                hp.events <= hp.selected,
                "host {host}: delivered {} > selected {} — events arrived that were never selected",
                hp.events,
                hp.selected
            );
            let sampled_out = hp
                .tapped
                .saturating_sub(hp.selected + hp.shed + hp.budget_shed);
            let batch_dropped = hp.selected.saturating_sub(hp.events);
            let losses = HostLosses {
                tapped: hp.tapped,
                delivered: hp.events,
                sampled_out,
                load_shed: hp.shed,
                budget_shed: hp.budget_shed,
                batch_dropped,
                deduped_retransmit: hp.duplicate_events,
                window_degraded: hp.window_degraded,
                host_dead: hp.suspected_dead,
            };
            debug_assert!(
                losses.reconciles(),
                "host {host}: ledger does not reconcile: {losses:?}"
            );
            hosts.insert(host.clone(), losses);
        }
        LossLedger {
            query_id: profile.query_id,
            hosts,
        }
    }

    /// Does every host reconcile?
    pub fn reconciles(&self) -> bool {
        self.hosts.values().all(HostLosses::reconciles)
    }

    /// True when no event was lost anywhere (every bucket zero on every
    /// host — the clean-run shape).
    pub fn is_all_zero(&self) -> bool {
        self.hosts.values().all(|h| {
            h.total_lost() == 0
                && h.deduped_retransmit == 0
                && h.window_degraded == 0
                && !h.host_dead
        })
    }

    /// Sum one bucket across hosts.
    pub fn total<F: Fn(&HostLosses) -> u64>(&self, f: F) -> u64 {
        self.hosts.values().map(f).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::TypeCounters;

    fn profile_with(
        host: &str,
        delivered: u64,
        tapped: u64,
        selected: u64,
        shed: u64,
    ) -> QueryProfile {
        profile_with_budget(host, delivered, tapped, selected, shed, 0)
    }

    fn profile_with_budget(
        host: &str,
        delivered: u64,
        tapped: u64,
        selected: u64,
        shed: u64,
        budget_shed: u64,
    ) -> QueryProfile {
        let mut p = QueryProfile::new(9);
        let header = TypeCounters {
            tapped,
            selected,
            shed,
            budget_shed,
            ..Default::default()
        };
        p.observe_batch(host, 0, &header, 100, delivered, false);
        p
    }

    #[test]
    fn clean_run_reconciles_all_zero() {
        let p = profile_with("h1", 50, 50, 50, 0);
        let l = LossLedger::build(&p);
        assert!(l.reconciles());
        assert!(l.is_all_zero());
        assert_eq!(l.hosts["h1"].delivered, 50);
    }

    #[test]
    fn losses_bucket_by_cause() {
        // tapped 100: 60 selected (10 never arrived), 25 sampled out, 15 shed
        let mut p = profile_with("h1", 50, 100, 60, 15);
        let h = p.hosts.get_mut("h1").unwrap();
        h.window_degraded = 7;
        h.suspected_dead = true;
        let l = LossLedger::build(&p);
        let h = &l.hosts["h1"];
        assert_eq!(h.sampled_out, 25);
        assert_eq!(h.load_shed, 15);
        assert_eq!(h.batch_dropped, 10);
        assert_eq!(h.window_degraded, 7);
        assert!(h.host_dead);
        assert!(h.reconciles());
        assert!(!l.is_all_zero());
        assert_eq!(l.total(|h| h.batch_dropped), 10);
    }

    #[test]
    fn budget_shed_is_its_own_bucket() {
        // tapped 100: 60 selected (5 never arrived), 12 budget-shed,
        // 8 load-shed, 20 sampled out
        let p = profile_with_budget("h1", 55, 100, 60, 8, 12);
        let l = LossLedger::build(&p);
        let h = &l.hosts["h1"];
        assert_eq!(h.budget_shed, 12);
        assert_eq!(h.load_shed, 8);
        assert_eq!(h.sampled_out, 20);
        assert_eq!(h.batch_dropped, 5);
        assert!(h.reconciles());
        assert_eq!(h.total_lost(), 45);
        assert!(!l.is_all_zero());
    }

    #[test]
    fn duplicates_are_annotations_not_losses() {
        let mut p = profile_with("h1", 50, 50, 50, 0);
        p.observe_duplicate("h1", 20);
        let l = LossLedger::build(&p);
        let h = &l.hosts["h1"];
        assert_eq!(h.deduped_retransmit, 20);
        assert_eq!(h.total_lost(), 0, "dup copies are not lost events");
        assert!(h.reconciles());
    }

    #[test]
    fn ledger_serializes() {
        let p = profile_with("h1", 5, 10, 6, 2);
        let l = LossLedger::build(&p);
        let json = serde_json::to_string(&l).unwrap();
        let back: LossLedger = serde_json::from_str(&json).unwrap();
        assert_eq!(l, back);
    }
}
