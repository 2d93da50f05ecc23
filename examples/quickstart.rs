//! Quickstart: build a tiny simulated cluster, define an event type, run a
//! ScrubQL query, and print the windowed results.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use scrub::prelude::*;
use scrub_core::event::RequestId;
use scrub_core::schema::EventTypeId;
use scrub_simnet::{Context, Node};

/// A minimal application host: emits one `request` event per millisecond.
struct AppHost {
    harness: AgentHarness,
    n: u64,
}

impl Node<ScrubMsg> for AppHost {
    fn on_start(&mut self, ctx: &mut Context<'_, ScrubMsg>) {
        self.harness.start(ctx);
        ctx.set_timer(SimDuration::from_ms(1), 1);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ScrubMsg>, _from: NodeId, msg: ScrubMsg) {
        let _ = self.harness.on_message(ctx, msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ScrubMsg>, timer: u64) {
        if self.harness.on_timer(ctx, timer) {
            return;
        }
        // the application-side tap: one log() call per event site (§3.1)
        self.harness.agent().log(
            EventTypeId(0),
            RequestId(self.n),
            ctx.now.as_ms(),
            &[
                Value::Str(["/home", "/search", "/cart"][(self.n % 3) as usize].into()),
                Value::Long((self.n % 100) as i64),
            ],
        );
        self.n += 1;
        ctx.set_timer(SimDuration::from_ms(1), 1);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn main() {
    // 1. The application declares its event types (compare Figure 1).
    let registry = SchemaRegistry::new();
    registry
        .register(
            EventSchema::new(
                "request",
                vec![
                    FieldDef::new("endpoint", FieldType::Str),
                    FieldDef::new("latency_ms", FieldType::Long),
                ],
            )
            .unwrap(),
        )
        .unwrap();
    let registry = Arc::new(registry);

    // 2. Build a simulated cluster: 3 app hosts + a Scrub deployment.
    let mut sim: Sim<ScrubMsg> = Sim::new(Topology::default(), 1);
    let central = deploy_central(&mut sim, &registry, ScrubConfig::default(), "DC1");
    for i in 0..3 {
        let name = format!("web-{i}");
        let harness = AgentHarness::new(name.clone(), ScrubConfig::default(), central);
        sim.add_node(
            NodeMeta::new(name, "WebServers", "DC1"),
            Box::new(AppHost { harness, n: 0 }),
        );
    }
    let scrub = deploy_server(&mut sim, registry, ScrubConfig::default(), central, "DC1");

    // 3. A troubleshooter submits a ScrubQL query.
    let qid = ScrubClient::new(&scrub)
        .submit(
            &mut sim,
            "select request.endpoint, COUNT(*), AVG(request.latency_ms) \
         from request \
         @[Service in WebServers] \
         group by request.endpoint \
         window 5 s duration 20 s",
        )
        .expect("query accepted");

    // 4. Run the cluster and read the windowed results.
    sim.run_until(SimTime::from_secs(40));
    let record = qid.record(&sim).expect("query accepted");
    println!("query state: {:?}", record.state);
    println!("window_start\tendpoint\tcount\tavg_latency");
    for row in &record.rows {
        println!("{}", row.to_tsv());
    }
    let summary = record.summary.as_ref().expect("summary");
    println!(
        "\n{} hosts reported, {} events matched, {} shipped",
        summary.hosts_reporting, summary.total_matched, summary.total_sampled
    );
}
