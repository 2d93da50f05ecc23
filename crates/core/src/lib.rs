//! # scrub-core
//!
//! Core of the Scrub troubleshooting system (Satish et al., EuroSys '18):
//! the event model, the ScrubQL query language, and the query planner that
//! splits each query into *query objects* — host-side selection/projection
//! plans and a central join/group-by/aggregation plan.
//!
//! The design follows the paper's singular goal: minimal impact on the
//! hosts running the monitored application. Everything expensive runs in
//! ScrubCentral; hosts only select, project and sample.
//!
//! ```
//! use scrub_core::prelude::*;
//!
//! // 1. The application registers its event types (compare Figure 1).
//! let registry = SchemaRegistry::new();
//! registry
//!     .register(
//!         EventSchema::new(
//!             "bid",
//!             vec![
//!                 FieldDef::new("user_id", FieldType::Long),
//!                 FieldDef::new("bid_price", FieldType::Double),
//!             ],
//!         )
//!         .unwrap(),
//!     )
//!     .unwrap();
//!
//! // 2. A troubleshooter writes a ScrubQL query (compare Figure 9).
//! let spec = parse_query(
//!     "select bid.user_id, COUNT(*) from bid \
//!      @[Service in BidServers] group by bid.user_id window 10 s",
//! )
//! .unwrap();
//!
//! // 3. The query server validates and splits it into query objects.
//! let compiled = compile(&spec, &registry, &ScrubConfig::default(), QueryId(1)).unwrap();
//! assert_eq!(compiled.host_plans.len(), 1);
//! assert_eq!(compiled.window_ms, 10_000);
//! ```

pub mod columnar;
pub mod config;
mod encode;
pub mod error;
pub mod event;
pub mod expr;
pub mod plan;
pub mod ql;
pub mod schema;
pub mod target;
pub mod value;

/// Convenience re-exports of the items nearly every consumer needs.
pub mod prelude {
    pub use crate::config::ScrubConfig;
    pub use crate::error::{ScrubError, ScrubResult};
    pub use crate::event::{Event, FieldSlot, RequestId, ToEvent};
    pub use crate::expr::{Expr, FieldRef, ResolvedExpr};
    pub use crate::plan::{compile, CentralPlan, CompiledQuery, HostPlan, QueryId};
    pub use crate::ql::ast::{AggFn, QuerySpec, SampleSpec, SelectItem, StartSpec, TargetExpr};
    pub use crate::ql::parser::parse_query;
    pub use crate::schema::{EventSchema, EventTypeId, FieldDef, FieldType, SchemaRegistry};
    pub use crate::target::HostInfo;
    pub use crate::value::Value;
}
