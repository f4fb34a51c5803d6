//! # oar-simnet — deterministic simulation of an asynchronous system
//!
//! This crate is the substrate on which the Optimistic Active Replication (OAR)
//! protocol and its baselines are implemented and evaluated. It models the
//! system of the paper's §3: an **asynchronous message-passing system** of
//! processes that fail only by crashing, connected by (configurably) reliable
//! FIFO channels.
//!
//! The simulator is a classic discrete-event engine:
//!
//! * every protocol participant is a [`Process`] — a non-blocking, event-driven
//!   state machine reacting to `on_start` / `on_message` / `on_timer`;
//! * processes interact with the world only through the [`Runtime`] trait
//!   (send a message, set a timer, annotate the trace), whose simulator
//!   implementation is the action-buffering [`Context`]. The same trait is
//!   implemented by the real-clock threaded backend (`oar-rtnet`), so
//!   protocol code is runtime-agnostic;
//! * the [`World`] owns the event queue, the [`Network`] (latency models,
//!   message loss, partitions) and a seeded RNG, so that every run is exactly
//!   reproducible from `(configuration, seed)`.
//!
//! Fault injection — crashes, partitions, link loss — is part of the substrate
//! because the OAR paper's interesting behaviours (Figures 3 and 4, the
//! external-inconsistency scenario of Figure 1b) only appear under failures and
//! wrong suspicions.
//!
//! ```
//! use oar_simnet::{NetConfig, Process, ProcessId, Runtime, SimTime, World};
//!
//! struct Counter { seen: usize }
//! impl Process<&'static str> for Counter {
//!     fn on_message(&mut self, _rt: &mut dyn Runtime<&'static str>, _from: ProcessId, _msg: &'static str) {
//!         self.seen += 1;
//!     }
//! }
//!
//! let mut world: World<&'static str> = World::new(NetConfig::lan(), 1);
//! let a = world.add_process(Counter { seen: 0 });
//! let b = world.add_process(Counter { seen: 0 });
//! world.send_external(a, b, "hello");
//! world.run_until_quiescent(SimTime::from_secs(1));
//! assert_eq!(world.process_ref::<Counter>(b).seen, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod context;
pub mod metrics;
pub mod network;
pub mod process;
mod queue;
pub mod rng;
pub mod runtime;
pub mod time;
pub mod trace;
pub mod world;

pub use config::{LatencyModel, LinkConfig, NetConfig, PartitionMode};
pub use context::{Action, Context, Payload};
pub use metrics::{BucketHistogram, PeakGauge, Samples, Summary};
pub use network::{Network, Routing};
pub use process::{AsAny, GroupId, Process, ProcessId, Timer, TimerId};
pub use rng::SimRng;
pub use runtime::{Runtime, TimerTag};
pub use time::{SimDuration, SimTime};
pub use trace::{DropReason, NetStats, TraceEvent, TraceKind, Tracer};
pub use world::{
    horizon_for, ForkError, PendingEvent, PendingEventInfo, ProcessCall, ProcessFactory,
    RunOutcome, StopReason, World, DEFAULT_HORIZON,
};
