//! # `tca-sim` — deterministic simulation substrate
//!
//! The foundation of the `tca` workspace: a single-threaded discrete-event
//! simulator of a distributed cluster. Everything the paper's cloud
//! applications run on — machines, a network that delays, drops, duplicates
//! and partitions, crash-restart failures, durable disks, virtual time —
//! is modelled here so that every experiment is reproducible bit-for-bit
//! from a seed.
//!
//! ## Quick tour
//!
//! ```
//! use tca_sim::{Sim, Process, Ctx, Payload, ProcessId, SimDuration};
//!
//! struct Hello;
//! impl Process for Hello {
//!     fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, msg: Payload) {
//!         let who = msg.expect::<String>();
//!         ctx.metrics().incr("greeted", 1);
//!         assert_eq!(who, "world");
//!     }
//! }
//!
//! let mut sim = Sim::with_seed(42);
//! let node = sim.add_node();
//! let hello = sim.spawn(node, "hello", |_| Box::new(Hello));
//! sim.inject(hello, Payload::new("world".to_string()));
//! sim.run_for(SimDuration::from_millis(1));
//! assert_eq!(sim.metrics().counter("greeted"), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod check;
pub mod detmap;
pub mod faults;
pub mod kernel;
pub mod mc;
pub mod metrics;
pub mod network;
pub mod payload;
pub mod place;
pub mod proc;
pub mod queue;
pub mod rng;
pub mod time;
pub mod trace;
pub mod window;
pub mod wire;

pub use check::{torture, torture_plan, TortureConfig};
pub use detmap::{DetHashMap, DetHashSet, DetState};
pub use faults::{FaultEvent, FaultPlan, FaultProfile};
pub use kernel::{Sim, SimConfig};
pub use mc::{Choice, McConfig, McReport, McScenario, McViolation, ReplayError, Schedule};
pub use metrics::{FastCounter, Histogram, Metrics};
pub use network::{Network, NetworkConfig, ScriptedFate};
pub use payload::Payload;
pub use place::{fnv1a, key_shard, Fnv64, ShardMap};
pub use proc::{Boot, Ctx, Disk, NodeId, Process, ProcessId, TimerId};
pub use queue::{EventKey, EventQueue};
pub use rng::{SimRng, Zipf};
pub use time::{SimDuration, SimTime};
pub use trace::{Span, SpanEvent, SpanId, SpanKind, Tracer};
pub use window::RecentWindow;
pub use wire::{RpcReply, RpcRequest};
