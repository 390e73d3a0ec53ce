//! The single-engine daemon: one [`Shard`] (engine + admission +
//! metrics) behind the shared front door ([`crate::front`]). All
//! connections share the shard: requests are serialized by its mutex,
//! which matches the engine's semantics (submissions within a slot are
//! ordered by admission, and that order *is* the determinism contract).
//!
//! This file owns the wire formatting for the single-engine daemon; the
//! engine state itself lives in [`crate::shard`], shared with the
//! multi-shard router in [`crate::router`].

use std::io::BufRead;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use haste_distributed::{AdmitError, OnlineConfig, TaskSpec};
use haste_geometry::{Angle, Vec2};

use crate::framing::BatchAck;
use crate::front::{read_payload, Endpoint, Running};
use crate::proto::{ErrCode, Reply, Request, VERSION, VERSION_V2, VERSION_V3};
use crate::shard::{Shard, ShardError, ShardHealth};
use crate::telemetry::Telemetry;

/// Configuration of a daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; use port 0 to let the OS pick (the bound address is
    /// available on the returned handle).
    pub addr: String,
    /// Connection-handler threads. This is the connection cap: with `c`
    /// workers, connection `c + 1` waits until one closes. Keep it at or
    /// above the expected client count (barrier-coordinated load
    /// generators deadlock below it).
    pub worker_threads: usize,
    /// Admission bound: submissions per open slot before `ERR overload`.
    pub max_pending: usize,
    /// Scheduling configuration for engines created by `LOAD`.
    pub scheduling: OnlineConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            worker_threads: 64,
            max_pending: 4096,
            scheduling: OnlineConfig::default(),
        }
    }
}

/// State shared by every connection of one daemon.
struct Shared {
    shard: Shard,
    shutdown: AtomicBool,
    telemetry: Telemetry,
}

impl Endpoint for Shared {
    type Session = ();

    fn execute<R: BufRead>(
        &self,
        request: Request,
        reader: &mut R,
        _session: &(),
    ) -> std::io::Result<(Reply, bool)> {
        execute(request, reader, self)
    }

    /// Per-record admission in frame order under the shard's own
    /// serialization — the same order contract as the equivalent sequence
    /// of text `SUBMIT`s.
    fn execute_batch(&self, specs: &[TaskSpec], _session: &()) -> Vec<BatchAck> {
        specs
            .iter()
            .map(|spec| {
                if !(spec.device_pos.x.is_finite()
                    && spec.device_pos.y.is_finite()
                    && spec.device_facing.radians().is_finite())
                {
                    BatchAck::rejected(ErrCode::BadTask, "non-finite position/facing")
                } else {
                    match self.shard.submit(*spec) {
                        Ok((id, release)) => BatchAck::Ok {
                            task: u64::from(id.0),
                            release: release as u64,
                        },
                        Err(e) => {
                            let (code, message) = shard_err_parts(e);
                            BatchAck::rejected(code, message)
                        }
                    }
                }
            })
            .collect()
    }

    fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    fn shutdown(&self) -> &AtomicBool {
        &self.shutdown
    }
}

/// A running daemon. Dropping the handle shuts the daemon down and joins
/// its threads.
pub struct ServerHandle {
    addr: SocketAddr,
    running: Running<Shared>,
}

impl ServerHandle {
    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown and joins the accept loop and all handlers. Open
    /// connections are closed after their in-flight request completes.
    pub fn shutdown(mut self) {
        self.running.stop();
    }
}

/// Starts a daemon and returns its handle. The accept loop and handlers
/// run on background threads; the call itself returns immediately after
/// binding.
pub fn serve(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let mut running = Running::new(Arc::new(Shared {
        shard: Shard::new(config.scheduling.clone(), config.max_pending),
        shutdown: AtomicBool::new(false),
        telemetry: Telemetry::new(),
    }));
    running.serve("haste-service-accept", listener, config.worker_threads)?;
    Ok(ServerHandle { addr, running })
}

/// Maps a structured shard failure onto the wire error space.
pub(crate) fn shard_err(e: ShardError) -> Reply {
    let (code, message) = shard_err_parts(e);
    Reply::Err(code, message)
}

/// The code/message pair of [`shard_err`], for emitters that frame the
/// error themselves (the batch-submit ack path).
pub(crate) fn shard_err_parts(e: ShardError) -> (ErrCode, String) {
    let code = match &e {
        ShardError::NoScenario => ErrCode::NoScenario,
        ShardError::AlreadyLoaded => ErrCode::AlreadyLoaded,
        ShardError::AtHorizon => ErrCode::AtHorizon,
        ShardError::BadScenario(_) => ErrCode::BadRequest,
        ShardError::BadSnapshot(_) => ErrCode::BadSnapshot,
        ShardError::Admit(AdmitError::Backpressure { .. }) => ErrCode::Overload,
        ShardError::Admit(AdmitError::Closed) => ErrCode::AtHorizon,
        ShardError::Admit(AdmitError::BadTask(_)) => ErrCode::BadTask,
    };
    (code, e.to_string())
}

/// Formats the HELLO reply shared by the daemon and the router: version
/// negotiation plus (for v2) the shard topology advertisement.
pub(crate) fn hello_reply(version: &str, shards: usize, cells: (usize, usize)) -> Reply {
    if version == VERSION {
        Reply::Ok(format!("haste-service {VERSION}"))
    } else if version == VERSION_V2 || version == VERSION_V3 {
        // v3 advertises the same topology; the caller switches the
        // connection to binary frames after writing this (text) greeting.
        Reply::Ok(format!(
            "haste-service {version} shards={shards} cells={}x{}",
            cells.0, cells.1
        ))
    } else {
        Reply::Err(
            ErrCode::Version,
            format!(
                "unsupported version `{version}` (this daemon speaks {VERSION}, {VERSION_V2} and {VERSION_V3})"
            ),
        )
    }
}

/// Formats one `SHARDS?` payload line. Shared with the router so both
/// emitters stay field-compatible. `health`/`restarts`/`replay` come from
/// the out-of-process supervisor; in-process shards report `up 0 0`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn shard_line(
    index: usize,
    cell: (usize, usize),
    status: &crate::shard::ShardStatus,
    health: ShardHealth,
    restarts: u64,
    replay: u64,
    tenant: &str,
    map_version: u64,
) -> String {
    format!(
        "shard={index} cell={},{} slot={} open={} tasks={} staged={} admitted={} rejected={} pending={} health={} restarts={restarts} replay={replay} tenant={tenant} map={map_version}\n",
        cell.0,
        cell.1,
        status.clock,
        u8::from(status.open),
        status.tasks,
        status.staged,
        status.admitted,
        status.rejected,
        status.pending,
        health.as_str()
    )
}

/// Formats a `PARTS?` payload: one `full relaxed` pair per task, in
/// task-id (= arrival) order, shortest-roundtrip floats. Shared by the
/// daemon and the router (which re-merges shard streams by arrival order).
pub(crate) fn parts_payload(parts: &crate::shard::UtilityParts) -> String {
    let mut payload = String::new();
    for (full, relaxed) in parts.full.iter().zip(&parts.relaxed) {
        payload.push_str(&format!("{full} {relaxed}\n"));
    }
    payload
}

/// Executes one parsed request; returns the reply and whether the
/// connection should close.
fn execute<R: BufRead>(
    request: Request,
    reader: &mut R,
    shared: &Shared,
) -> std::io::Result<(Reply, bool)> {
    let reply = match request {
        Request::Hello(version) => hello_reply(&version, 1, (1, 1)),
        Request::Load(count) => {
            let payload = match read_payload(reader, count, &shared.shutdown, "LOAD")? {
                Ok(payload) => payload,
                Err(refusal) => return Ok((refusal, true)),
            };
            match shared.shard.load_text(&payload) {
                Ok(info) => Reply::Ok(format!(
                    "chargers={} staged={} slots={}",
                    info.chargers, info.staged, info.slots
                )),
                Err(e) => shard_err(e),
            }
        }
        Request::Submit {
            x,
            y,
            facing,
            end_slot,
            energy,
            weight,
        } => {
            if !(x.is_finite() && y.is_finite() && facing.is_finite()) {
                Reply::Err(ErrCode::BadTask, "non-finite position/facing".to_string())
            } else {
                let spec = TaskSpec {
                    device_pos: Vec2::new(x, y),
                    device_facing: Angle::from_radians(facing),
                    end_slot,
                    required_energy: energy,
                    weight,
                };
                match shared.shard.submit(spec) {
                    Ok((id, release)) => Reply::Ok(format!("task={} release={release}", id.0)),
                    Err(e) => shard_err(e),
                }
            }
        }
        Request::Tick(n) => match shared.shard.tick(n) {
            Ok((slot, open)) => Reply::Ok(format!("slot={slot} open={}", u8::from(open))),
            Err(e) => shard_err(e),
        },
        Request::Clock => match shared.shard.clock() {
            Ok((slot, open)) => Reply::Ok(format!("slot={slot} open={}", u8::from(open))),
            Err(e) => shard_err(e),
        },
        Request::Schedule => match shared.shard.schedule_text() {
            Ok(text) => Reply::Data(text),
            Err(e) => shard_err(e),
        },
        Request::Utility => match shared.shard.utility() {
            Ok((utility, relaxed)) => Reply::Ok(format!("utility={utility} relaxed={relaxed}")),
            Err(e) => shard_err(e),
        },
        Request::Parts => match shared.shard.utility_parts() {
            Ok(parts) => Reply::Data(parts_payload(&parts)),
            Err(e) => shard_err(e),
        },
        Request::Export => {
            // The typed registry plus the engine families of the current
            // status (absent before `LOAD` — a fresh daemon still
            // exposes its request metrics).
            let snap = shared.telemetry.export(shared.shard.status().ok().as_ref());
            Reply::Data(snap.render())
        }
        Request::Shards => match shared.shard.status() {
            Err(e) => shard_err(e),
            // The single-engine daemon is its own one-shard topology:
            // fixed default tenant, routing map version 0 (never swapped).
            Ok(status) => Reply::Data(shard_line(
                0,
                (0, 0),
                &status,
                ShardHealth::Up,
                0,
                0,
                "default",
                0,
            )),
        },
        Request::Snapshot => match shared.shard.snapshot() {
            Ok(text) => Reply::Data(text),
            Err(e) => shard_err(e),
        },
        Request::Restore(count) => {
            let payload = match read_payload(reader, count, &shared.shutdown, "RESTORE")? {
                Ok(payload) => payload,
                Err(refusal) => return Ok((refusal, true)),
            };
            match shared.shard.restore_text(&payload) {
                Ok(info) => Reply::Ok(format!("slot={} open={}", info.clock, u8::from(info.open))),
                Err(e) => shard_err(e),
            }
        }
        // The single-engine daemon serves exactly one tenant. Selecting it
        // is a no-op (so v1 clients written against a router still work);
        // any other id names state this process does not hold.
        Request::Tenant { id, .. } => {
            if id == "default" {
                Reply::Ok("tenant=default".to_string())
            } else {
                Reply::Err(
                    ErrCode::UnknownTenant,
                    format!("tenant `{id}` does not exist on a single-engine daemon"),
                )
            }
        }
        Request::ReshardSplit(_) | Request::ReshardMerge(..) => Reply::Err(
            ErrCode::BadRequest,
            "RESHARD requires a router (single-engine daemon has no cells)".to_string(),
        ),
        Request::Bye => return Ok((Reply::Ok("bye".to_string()), true)),
    };
    Ok((reply, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front::{catching, dispatch};
    use std::panic::AssertUnwindSafe;

    fn fresh_shared() -> Shared {
        Shared {
            shard: Shard::new(OnlineConfig::default(), 4),
            shutdown: AtomicBool::new(false),
            telemetry: Telemetry::new(),
        }
    }

    #[test]
    fn a_panicking_handler_becomes_err_internal() {
        let result = catching(AssertUnwindSafe(|| -> std::io::Result<(Reply, bool)> {
            panic!("boom {}", 42)
        }));
        let (reply, close) = result.expect("catching never returns Err for a panic");
        assert!(!close, "a caught panic must keep the connection open");
        match reply {
            Reply::Err(code, message) => {
                assert_eq!(code, ErrCode::Internal);
                assert!(message.contains("boom 42"), "lost panic context: {message}");
            }
            other => panic!("expected ERR internal, got {other:?}"),
        }
    }

    #[test]
    fn static_panic_payloads_keep_their_message() {
        let result = catching(AssertUnwindSafe(|| -> std::io::Result<(Reply, bool)> {
            panic!("static payload")
        }));
        let (reply, _) = result.expect("catching never returns Err for a panic");
        match reply {
            Reply::Err(ErrCode::Internal, message) => {
                assert!(message.contains("static payload"), "{message}");
            }
            other => panic!("expected ERR internal, got {other:?}"),
        }
    }

    #[test]
    fn dispatch_replies_structurally_off_a_socketless_reader() {
        let shared = fresh_shared();
        let mut reader = std::io::Cursor::new(Vec::<u8>::new());
        let (reply, close) = dispatch(&shared, "NOPE 1 2", &mut reader, &()).unwrap();
        assert!(matches!(reply, Reply::Err(ErrCode::BadRequest, _)));
        assert!(!close);
        let (reply, close) = dispatch(&shared, "SNAPSHOT", &mut reader, &()).unwrap();
        assert!(matches!(reply, Reply::Err(ErrCode::NoScenario, _)));
        assert!(!close);
        // A truncated LOAD payload is the one bad-request that also closes
        // the connection: the stream is desynchronized beyond recovery.
        let (reply, close) = dispatch(&shared, "LOAD 3", &mut reader, &()).unwrap();
        assert!(matches!(reply, Reply::Err(ErrCode::BadRequest, _)));
        assert!(close);
    }

    #[test]
    fn hello_negotiates_every_version() {
        match hello_reply("v1", 1, (1, 1)) {
            Reply::Ok(message) => assert_eq!(message, "haste-service v1"),
            other => panic!("expected OK, got {other:?}"),
        }
        match hello_reply("v2", 4, (2, 2)) {
            Reply::Ok(message) => assert_eq!(message, "haste-service v2 shards=4 cells=2x2"),
            other => panic!("expected OK, got {other:?}"),
        }
        match hello_reply("v3", 4, (2, 2)) {
            Reply::Ok(message) => assert_eq!(message, "haste-service v3 shards=4 cells=2x2"),
            other => panic!("expected OK, got {other:?}"),
        }
        assert!(matches!(
            hello_reply("v4", 1, (1, 1)),
            Reply::Err(ErrCode::Version, _)
        ));
    }

    #[test]
    fn export_renders_parseable_exposition_with_request_counts() {
        let shared = fresh_shared();
        let mut reader = std::io::Cursor::new(Vec::<u8>::new());
        let (reply, _) = dispatch(&shared, "CLOCK?", &mut reader, &()).unwrap();
        assert!(matches!(reply, Reply::Err(ErrCode::NoScenario, _)));
        let (reply, _) = dispatch(&shared, "EXPORT?", &mut reader, &()).unwrap();
        let payload = match reply {
            Reply::Data(payload) => payload,
            other => panic!("expected DATA, got {other:?}"),
        };
        let snap = haste_metrics::Snapshot::parse(&payload)
            .unwrap_or_else(|e| panic!("exposition must parse: {e}"));
        match snap.get("haste_service_requests_total", &[("opcode", "CLOCK?")]) {
            Some(haste_metrics::Value::Counter(n)) => assert_eq!(*n, 1),
            other => panic!("expected CLOCK? counter, got {other:?}"),
        }
        match snap.get("haste_service_errors_total", &[("err_code", "no-scenario")]) {
            Some(haste_metrics::Value::Counter(n)) => assert_eq!(*n, 1),
            other => panic!("expected no-scenario counter, got {other:?}"),
        }
    }

    #[test]
    fn shards_query_reports_the_single_engine_as_shard_zero() {
        let shared = fresh_shared();
        let mut reader = std::io::Cursor::new(Vec::<u8>::new());
        let (reply, _) = dispatch(&shared, "SHARDS?", &mut reader, &()).unwrap();
        assert!(matches!(reply, Reply::Err(ErrCode::NoScenario, _)));
        let scenario = "params 10000 40 20 1 1\ngrid 60 6\ndelays 0.083333 1\n\
                        charger 0 0 0\ntask 0 8 0 3.14159 0 6 500 1";
        shared.shard.load_text(scenario).unwrap();
        let (reply, _) = dispatch(&shared, "SHARDS?", &mut reader, &()).unwrap();
        match reply {
            Reply::Data(payload) => {
                assert!(
                    payload.starts_with("shard=0 cell=0,0 slot=0 open=1"),
                    "{payload}"
                );
                assert!(
                    payload
                        .trim_end()
                        .ends_with("health=up restarts=0 replay=0 tenant=default map=0"),
                    "{payload}"
                );
            }
            other => panic!("expected DATA, got {other:?}"),
        }
    }
}
