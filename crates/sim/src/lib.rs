//! # nd-sim — the simulation model for neighbor discovery
//!
//! This crate defines what the reproduction of *On Optimal Neighbor
//! Discovery* (SIGCOMM 2019) simulates; the `nd-netsim` crate runs it. It
//! describes `N` duty-cycled radios on a single shared broadcast channel
//! under exactly the model the paper analyzes:
//!
//! * radios sleep, transmit beacons of airtime ω, or listen in reception
//!   windows ([`behavior::Op`]);
//! * a beacon is received when it meets the configured overlap model
//!   (paper §3.2 default: beacon start inside a window; Appendix A.3
//!   full-containment model available);
//! * overlapping transmissions collide (ALOHA, Eq. 12), half-duplex radios
//!   blank their own windows (Appendix A.5), and smoltcp-style fault
//!   injection can drop packets randomly;
//! * everything is deterministic given a seed.
//!
//! Protocols drive devices through the [`behavior::Behavior`] trait —
//! static periodic schedules use [`behavior::ScheduleBehavior`], reactive
//! protocols (mutual assistance, BLE advDelay) implement the trait
//! directly, and [`drift::Drifting`] skews any of them. [`config`] holds
//! the channel and radio settings ([`SimConfig`]) and who hears whom
//! ([`Topology`]); [`stats`] holds what a run measures.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod behavior;
pub mod config;
pub mod drift;
pub mod stats;

pub use behavior::{Behavior, IdleBehavior, Op, Payload, ScheduleBehavior};
pub use config::{SimConfig, Topology};
pub use drift::Drifting;
pub use stats::{DeviceStats, DiscoveryMatrix, PacketCounters};
