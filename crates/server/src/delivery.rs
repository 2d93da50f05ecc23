//! What ScrubCentral knows about one (query, host) batch stream: which
//! sequence numbers it has, how far the host has vouched for, and when it
//! last heard news from the host.
//!
//! Delivery is at-least-once and unordered, so a batch is a duplicate when
//! its sequence number lies below the contiguous prefix already ingested or
//! among the few ingested ahead of a gap — state proportional to the gap,
//! not to the batches ever received. The same prefix is what makes a
//! watermark safe to act on: a batch's mark speaks for every batch numbered
//! at or below it, so it counts only once all of those are in. The time of
//! the last fresh batch is the failure detector's input: every targeted
//! host ships at least a header per flush interval, so a stream that stops
//! moving while its peers' keep going belongs to a host that is down or
//! cut off.

use std::collections::BTreeMap;

/// Dedup, watermark and liveness state of one (query, host) stream.
#[derive(Debug, Default)]
pub(crate) struct HostStream {
    /// Every sequence number below this was ingested, or abandoned by the
    /// sender.
    next_expected: u64,
    /// Batches ingested ahead of a gap, with the watermark each carried.
    ahead: BTreeMap<u64, Option<i64>>,
    /// The highest watermark carried inside the contiguous prefix.
    watermark_ms: Option<i64>,
    /// When the last fresh (non-duplicate) batch arrived.
    last_fresh_ms: Option<i64>,
}

impl HostStream {
    /// Take note of a batch arriving at `now_ms`; `false` when it is a
    /// duplicate.
    ///
    /// `seq_floor` is the lowest sequence number the sender still waited on
    /// when this copy left: anything below it that is not here was evicted
    /// from the sender's retransmit buffer and then went unacknowledged for
    /// a whole retry ceiling more — lost, not in flight — so the prefix
    /// steps over it instead of waiting.
    pub fn accept(
        &mut self,
        seq: u64,
        seq_floor: u64,
        watermark_ms: Option<i64>,
        now_ms: i64,
    ) -> bool {
        if self.next_expected < seq_floor {
            let at_or_above = self.ahead.split_off(&seq_floor);
            for mark in std::mem::replace(&mut self.ahead, at_or_above).into_values() {
                self.watermark_ms = self.watermark_ms.max(mark);
            }
            self.next_expected = seq_floor;
            self.absorb();
        }
        if seq < self.next_expected || self.ahead.contains_key(&seq) {
            return false;
        }
        self.ahead.insert(seq, watermark_ms);
        self.absorb();
        self.last_fresh_ms = Some(now_ms);
        true
    }

    /// Move the prefix over the run of held batches that starts at it.
    fn absorb(&mut self) {
        while let Some(mark) = self.ahead.remove(&self.next_expected) {
            self.next_expected += 1;
            self.watermark_ms = self.watermark_ms.max(mark);
        }
    }

    /// The host's watermark: no event of the query older than this is
    /// still to come from it. `None` until a mark arrives gap-free.
    pub fn watermark_ms(&self) -> Option<i64> {
        self.watermark_ms
    }

    /// When the last fresh batch arrived; `None` until one does.
    pub fn last_fresh_ms(&self) -> Option<i64> {
        self.last_fresh_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_are_recognised_below_the_prefix_and_ahead_of_a_gap() {
        let mut s = HostStream::default();
        assert!(s.accept(0, 0, None, 0));
        assert!(s.accept(1, 0, None, 0));
        assert!(s.accept(4, 0, None, 0)); // ahead of the gap at 2, 3
        for dup in [0, 1, 4] {
            assert!(!s.accept(dup, 0, None, 0), "seq {dup} came twice");
        }
        assert!(!s.ahead.is_empty());
        assert!(s.accept(3, 0, None, 0));
        assert!(s.accept(2, 0, None, 0));
        assert!(s.ahead.is_empty());
        for dup in 0..5 {
            assert!(!s.accept(dup, 0, None, 0));
        }
        assert!(s.accept(5, 0, None, 0));
    }

    #[test]
    fn state_is_the_gap_not_the_history() {
        let mut s = HostStream::default();
        for seq in 0..100_000u64 {
            assert!(s.accept(seq, seq.saturating_sub(3), Some(seq as i64), 0));
            assert!(s.ahead.is_empty());
        }
        assert_eq!(s.watermark_ms(), Some(99_999));
        // a reordered stretch holds exactly what is ahead of the hole
        for seq in 100_001..100_050u64 {
            assert!(s.accept(seq, 100_000, None, 0));
        }
        assert_eq!(s.ahead.len(), 49);
        assert!(s.accept(100_000, 100_000, None, 0));
        assert!(s.ahead.is_empty());
        assert!(!s.accept(7, 0, None, 0), "old duplicates stay duplicates");
    }

    #[test]
    fn a_watermark_counts_only_once_everything_below_it_is_in() {
        let mut s = HostStream::default();
        assert!(s.accept(0, 0, Some(1_000), 0));
        // seq 2 overtook seq 1, which may hold events below 3000
        assert!(s.accept(2, 0, Some(3_000), 0));
        assert_eq!(s.watermark_ms(), Some(1_000));
        assert!(s.accept(1, 0, None, 0));
        assert_eq!(s.watermark_ms(), Some(3_000));
        // a silent batch takes nothing back
        assert!(s.accept(3, 0, None, 0));
        assert_eq!(s.watermark_ms(), Some(3_000));
    }

    #[test]
    fn the_senders_floor_steps_over_abandoned_batches() {
        let mut s = HostStream::default();
        assert!(s.accept(0, 0, Some(1_000), 0));
        // 1 and 2 are lost; 3 arrives while the sender still holds them
        assert!(s.accept(3, 1, Some(4_000), 0));
        assert_eq!(s.watermark_ms(), Some(1_000));
        // the sender evicted 1 and 2: its next copy says so
        assert!(s.accept(4, 3, Some(5_000), 0));
        assert!(s.ahead.is_empty());
        assert_eq!(s.watermark_ms(), Some(5_000));
        // the sender gave up on 1 and 2 a retry ceiling after their last
        // copy left; one turning up now is past every window it could feed
        assert!(!s.accept(2, 1, None, 0));
        // a stale floor on a late copy moves nothing back
        assert!(s.accept(5, 0, None, 0));
        assert!(s.ahead.is_empty());
    }

    #[test]
    fn a_floor_below_a_held_batch_keeps_what_is_held() {
        let mut s = HostStream::default();
        assert!(s.accept(2, 0, Some(2_000), 0));
        assert!(s.accept(5, 0, Some(5_000), 0));
        // floor 4: 0, 1 and 3 are gone for good, 4 is still to come
        assert!(s.accept(6, 4, Some(6_000), 0));
        assert_eq!(s.watermark_ms(), Some(2_000));
        assert!(!s.accept(2, 4, None, 0));
        assert!(s.accept(4, 4, None, 0));
        assert_eq!(s.watermark_ms(), Some(6_000));
    }

    #[test]
    fn only_fresh_batches_count_as_news() {
        let mut s = HostStream::default();
        assert_eq!(s.last_fresh_ms(), None);
        assert!(s.accept(0, 0, Some(1_000), 1_000));
        assert!(s.accept(1, 0, None, 2_000));
        assert_eq!(s.last_fresh_ms(), Some(2_000));
        // a late copy says the network is slow, not that the host is up
        assert!(!s.accept(0, 0, Some(1_000), 9_000));
        assert_eq!(s.last_fresh_ms(), Some(2_000));
        // a batch ahead of a gap is news
        assert!(s.accept(5, 0, None, 9_500));
        assert_eq!(s.last_fresh_ms(), Some(9_500));
    }
}
