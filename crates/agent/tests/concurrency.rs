//! Thread-safety stress tests: the agent is shared by all application
//! threads in a real deployment (`&self` API). These tests hammer the tap
//! from multiple OS threads while queries install/remove concurrently, and
//! verify the counters stay exactly consistent.

#![allow(clippy::field_reassign_with_default)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use scrub_agent::ScrubAgent;
use scrub_core::config::ScrubConfig;
use scrub_core::event::RequestId;
use scrub_core::plan::{compile, QueryId};
use scrub_core::ql::parser::parse_query;
use scrub_core::schema::{EventSchema, EventTypeId, FieldDef, FieldType, SchemaRegistry};
use scrub_core::value::Value;

fn registry() -> SchemaRegistry {
    let reg = SchemaRegistry::new();
    reg.register(
        EventSchema::new(
            "bid",
            vec![
                FieldDef::new("user_id", FieldType::Long),
                FieldDef::new("price", FieldType::Double),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    reg
}

fn plan(src: &str, qid: u64) -> scrub_core::plan::HostPlan {
    compile(
        &parse_query(src).unwrap(),
        &registry(),
        &ScrubConfig::default(),
        QueryId(qid),
    )
    .unwrap()
    .host_plans[0]
        .clone()
}

#[test]
fn concurrent_taps_count_exactly() {
    let mut config = ScrubConfig::default();
    config.agent_events_per_sec_budget = u64::MAX;
    let agent = Arc::new(ScrubAgent::new("mt-host", config));
    agent
        .install(plan(
            "select bid.user_id, COUNT(*) from bid group by bid.user_id",
            1,
        ))
        .unwrap();

    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 20_000;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let agent = Arc::clone(&agent);
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    agent.log(
                        EventTypeId(0),
                        RequestId(t * PER_THREAD + i),
                        (i / 100) as i64,
                        &[Value::Long((i % 50) as i64), Value::Double(1.0)],
                    );
                }
            });
        }
    });

    let snap = agent.stats().snapshot();
    assert_eq!(snap.events_seen, THREADS * PER_THREAD);
    assert_eq!(snap.events_matched, THREADS * PER_THREAD);
    // drain everything and count shipped events
    let batches = agent.take_batches(1_000_000);
    let shipped: u64 = batches.iter().map(|b| b.len() as u64).sum();
    assert_eq!(shipped, THREADS * PER_THREAD);
    let final_counters = batches.iter().map(|b| b.matched).max().unwrap();
    assert_eq!(final_counters, THREADS * PER_THREAD);
}

/// Sets the flag when dropped, so a panicking thread still releases the
/// threads that wait on it and the test fails instead of hanging.
struct StopOnDrop(Arc<AtomicBool>);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

#[test]
fn install_remove_races_never_lose_or_corrupt() {
    let agent = Arc::new(ScrubAgent::new("mt-host", ScrubConfig::default()));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        // logger thread: hammers the tap until the churn thread is done
        // (bounded, should the flag never come)
        {
            let agent = Arc::clone(&agent);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) && i < 500_000_000 {
                    agent.log(
                        EventTypeId(0),
                        RequestId(i),
                        (i / 1000) as i64,
                        &[Value::Long((i % 10) as i64), Value::Double(0.5)],
                    );
                    i += 1;
                }
            });
        }
        // churn thread: installs and removes queries repeatedly
        {
            let agent = Arc::clone(&agent);
            let stop = StopOnDrop(Arc::clone(&stop));
            s.spawn(move || {
                let _stop = stop;
                for round in 0..200u64 {
                    let qid = 100 + round;
                    agent
                        .install(plan("select COUNT(*) from bid where bid.price > 0.1", qid))
                        .unwrap();
                    // Nothing else drains the agent, so the removal's tail
                    // is every batch the query produced: together they
                    // hold exactly the events its cumulative counters —
                    // carried by the last batch — say were kept.
                    let tail = agent.remove(QueryId(qid), round as i64);
                    let Some(last) = tail.last() else {
                        continue; // no event arrived while it was installed
                    };
                    let shipped: u64 = tail.iter().map(|b| b.len() as u64).sum();
                    assert_eq!(shipped, last.sampled);
                    assert_eq!(last.sampled + last.shed, last.matched);
                    assert_eq!(last.matched, last.seen);
                    for pair in tail.windows(2) {
                        assert!(pair[0].sampled <= pair[1].sampled);
                        assert!(pair[0].seen <= pair[1].seen);
                    }
                }
            });
        }
    });

    assert_eq!(agent.subscription_count(), 0);
    // no subscriptions remain; the tap is back to the disabled fast path
    assert!(!agent.is_active(EventTypeId(0)));
}

#[test]
fn concurrent_sampling_is_close_to_nominal() {
    let agent = Arc::new(ScrubAgent::new("mt-host", ScrubConfig::default()));
    agent
        .install(plan("select COUNT(*) from bid sample events 20%", 1))
        .unwrap();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let agent = Arc::clone(&agent);
            s.spawn(move || {
                for i in 0..25_000u64 {
                    agent.log(
                        EventTypeId(0),
                        RequestId(t << 32 | i),
                        0,
                        &[Value::Long(1), Value::Double(1.0)],
                    );
                }
            });
        }
    });
    let snap = agent.stats().snapshot();
    assert_eq!(snap.events_matched, 100_000);
    let kept = snap.events_matched - snap.events_sampled_out;
    let frac = kept as f64 / 100_000.0;
    assert!((0.18..=0.22).contains(&frac), "sampled fraction {frac}");
}
