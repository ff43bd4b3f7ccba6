#![warn(missing_docs)]

//! Simulation substrate for the Mach duality reproduction.
//!
//! The paper evaluates Mach on 1987-era hardware: VAX multiprocessors, the
//! Encore MultiMax, the Sequent Balance, Ethernet-connected workstations and
//! real disks. None of that hardware is available, so every experiment in
//! this repository runs against a *simulated machine*: a virtual clock that
//! components charge costs to, a cost model capturing the paper's published
//! access-time ratios (Section 7), and a statistics registry that counts the
//! events the paper reports (I/O operations, messages, page faults).
//!
//! The substrate is deliberately passive: it never schedules anything. Real
//! OS threads provide concurrency; the simulation layer only accounts for
//! *how long things would have taken* and *how often they happened*, which
//! is exactly what Section 9's claims are about (2x cached compilation, 10x
//! fewer I/O operations).

pub mod clock;
pub mod cost;
pub mod export;
pub mod lockdep;
pub mod machine;
pub mod rng;
pub mod span;
pub mod stats;
pub mod topology;
pub mod trace;
pub mod wall;

pub use clock::SimClock;
pub use cost::CostModel;
pub use machine::{Machine, SpanGuard};
pub use rng::SplitMix64;
pub use span::{ChainAttribution, CriticalPathReport, SpanRecord};
pub use stats::{StatsRegistry, StatsSnapshot};
pub use topology::{MemoryKind, Topology};
pub use trace::{
    CorrelationId, CorrelationScope, EventKind, Histogram, LatencyRegistry, SpanInfo, SpanScope,
    TraceBuffer, TraceEvent,
};
