//! The HASTE scheduling **service**: a long-running daemon that drives the
//! incremental online engine
//! ([`OnlineEngine`](haste_distributed::OnlineEngine)) over a TCP wire
//! protocol, plus the matching typed client and a load-generator harness.
//!
//! * [`serve`] — starts the daemon: a `std::net` TCP listener whose
//!   connections are handled on a [`haste_parallel::ThreadPool`] (no async
//!   runtime; the workspace builds fully offline),
//! * [`serve_router`] / the `routerd` binary — the sharded deployment:
//!   one engine-owning [`Shard`] per cell of a
//!   [`Partition`](haste_model::Partition), `SUBMIT` routed by cell,
//!   lockstep `TICK`, and composite consistent-cut `SNAPSHOT`/`RESTORE`
//!   (protocol v2),
//! * [`proto`] — the versioned line-oriented wire protocol (`HELLO`,
//!   `LOAD`, `SUBMIT`, `TICK`, `SCHEDULE?`, `SNAPSHOT`/`RESTORE`, …),
//!   documented normatively in `docs/service_protocol.md`,
//! * [`Client`] — a blocking client speaking that protocol,
//! * [`loadgen`] — N concurrent connections submitting Poisson task
//!   arrivals in virtual time, measuring submit-to-ack latency and
//!   verifying the streamed session against a batch replay of its own
//!   submission trace.
//!
//! Virtual time: the daemon never sleeps. A slot closes when a client says
//! `TICK`; arrivals admitted into the slot are negotiated at that moment
//! (rescheduling delay `τ` and switching delay `ρ` apply exactly as in the
//! batch online solver). Because the engine is bit-deterministic, a daemon
//! killed mid-run and restored from its last `SNAPSHOT` finishes with the
//! same schedule and utility, bit for bit.
//!
//! Fault tolerance: with [`RouterConfig::process`] set, the router runs
//! each shard as a supervised `haste-shardd` child process
//! ([`supervisor`]). Child crashes and hangs are detected by per-request
//! deadlines; the affected cell degrades (`ERR unavailable` on its
//! submissions) while the rest of the fleet keeps the lockstep, and the
//! supervisor restarts the child and replays its snapshot baseline plus
//! journaled operations — bit-identically, by the same determinism.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod framing;
mod front;
pub mod loadgen;
pub mod proto;
mod router;
mod server;
pub mod shard;
pub mod supervisor;
mod telemetry;
pub mod wal;

pub use client::{Client, ClientError, ShardInfo, Topology};
pub use router::{
    parse_composite, render_composite, serve_router, CompositeSnapshot, HistOp, RouterConfig,
    RouterHandle,
};
pub use server::{serve, ServerConfig, ServerHandle};
pub use shard::{LoadInfo, Shard, ShardError, ShardHealth, ShardStatus, UtilityParts};
pub use supervisor::{
    resolve_routerd, resolve_shardd, FaultPlan, ProcessShardConfig, DEFAULT_SHARD_DEADLINE,
};
