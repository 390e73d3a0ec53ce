//! The wire protocol: request parsing and reply formatting.
//!
//! The protocol is line-oriented UTF-8 (in practice ASCII), `\n`-terminated,
//! with whitespace-separated fields — the same conventions as the
//! `model::io` text formats, so scenario/schedule/snapshot documents embed
//! verbatim. Multi-line payloads are length-prefixed by a line count
//! (`LOAD <n>`, `DATA <n>`, `RESTORE <n>`); there are no sentinels to
//! escape. `docs/service_protocol.md` is the normative spec.
//!
//! Every request gets exactly one reply:
//!
//! * `OK [key=value]...` — success, fields are informational,
//! * `DATA <n>` followed by `n` payload lines — success with a document,
//! * `ERR <code> <message>` — failure; `code` is one of [`ErrCode`] and is
//!   stable, the message is free-form.

/// Protocol version spoken by this crate (the `HELLO v1` handshake).
pub const VERSION: &str = "v1";

/// The sharded protocol revision (the `HELLO v2` handshake): the greeting
/// advertises shard topology, `SHARDS?` becomes available, and snapshots
/// of a router are composite documents. Every v1 request keeps its exact
/// v1 semantics.
pub const VERSION_V2: &str = "v2";

/// The binary-framing revision (the `HELLO v3` handshake): after the
/// (text) `OK` greeting the connection switches to length-prefixed binary
/// frames — text requests and replies ride inside `OP_TEXT`/`OP_REPLY`
/// frames with unchanged semantics and byte-exact reply text, and batched
/// `SUBMIT`s (`OP_BATCH`, one vectored ack) become available. Snapshot and
/// schedule documents stay text: shortest-roundtrip f64 text is the
/// determinism anchor. Frame layout: the `framing` module and the
/// "Protocol v3" section of `docs/service_protocol.md`.
pub const VERSION_V3: &str = "v3";

/// Stable machine-readable error codes of `ERR` replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// Malformed request line (unknown directive, bad field count/values).
    BadRequest,
    /// The submitted task is invalid (bad window, non-finite fields, …).
    BadTask,
    /// Admission control rejected the submission; retry after a `TICK`.
    Overload,
    /// No scenario loaded yet (`LOAD` or `RESTORE` first).
    NoScenario,
    /// A scenario is already loaded (`RESTORE` replaces, `LOAD` does not).
    AlreadyLoaded,
    /// The virtual clock has consumed every slot of the grid.
    AtHorizon,
    /// A `RESTORE` payload failed to parse.
    BadSnapshot,
    /// The loaded scenario cannot be split across the configured shard
    /// grid: a charger sits inside the reach halo of an interior cell
    /// boundary, or a task's reachable chargers span two cells.
    Unpartitionable,
    /// The shard owning the request's cell is down or recovering; the
    /// message starts with the cell index. Healthy cells keep serving —
    /// retry after the shard rejoins (watch `SHARDS?`).
    Unavailable,
    /// A request-level deadline expired before the reply arrived. Never
    /// sent by a daemon: clients and the router's shard supervisor
    /// synthesize it when [`TcpStream::set_read_timeout`] fires, so the
    /// code shares the protocol's error namespace.
    Timeout,
    /// Unsupported protocol version in `HELLO`.
    Version,
    /// The request handler panicked; the daemon caught it and kept the
    /// connection. Engine state is unspecified — `RESTORE` (or `LOAD` on a
    /// fresh daemon) to recover a known-good state.
    Internal,
    /// The session's tenant id names a tenant that was never created
    /// (`LOAD` under a `TENANT` binding creates one). Only sent by a
    /// router — the single daemon serves the `default` tenant alone.
    UnknownTenant,
    /// The tenant's admission quota for the open slot is exhausted; retry
    /// after a `TICK` (the per-slot counter resets when the slot closes).
    Quota,
}

impl ErrCode {
    /// The wire token of this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrCode::BadRequest => "bad-request",
            ErrCode::BadTask => "bad-task",
            ErrCode::Overload => "overload",
            ErrCode::NoScenario => "no-scenario",
            ErrCode::AlreadyLoaded => "already-loaded",
            ErrCode::AtHorizon => "at-horizon",
            ErrCode::BadSnapshot => "bad-snapshot",
            ErrCode::Unpartitionable => "unpartitionable",
            ErrCode::Unavailable => "unavailable",
            ErrCode::Timeout => "timeout",
            ErrCode::Version => "version",
            ErrCode::Internal => "internal",
            ErrCode::UnknownTenant => "unknown-tenant",
            ErrCode::Quota => "quota",
        }
    }

    /// The inverse of [`as_str`](ErrCode::as_str): parses a wire token
    /// back into a code. Used by the router's shard supervisor to pass a
    /// child daemon's structured `ERR` replies through unchanged.
    pub fn parse(token: &str) -> Option<ErrCode> {
        const ALL: [ErrCode; 14] = [
            ErrCode::BadRequest,
            ErrCode::BadTask,
            ErrCode::Overload,
            ErrCode::NoScenario,
            ErrCode::AlreadyLoaded,
            ErrCode::AtHorizon,
            ErrCode::BadSnapshot,
            ErrCode::Unpartitionable,
            ErrCode::Unavailable,
            ErrCode::Timeout,
            ErrCode::Version,
            ErrCode::Internal,
            ErrCode::UnknownTenant,
            ErrCode::Quota,
        ];
        ALL.into_iter().find(|code| code.as_str() == token)
    }
}

impl std::fmt::Display for ErrCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A reply to one request, ready to serialize with [`Reply::serialize`].
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// `OK <text>`.
    Ok(String),
    /// `DATA <n>` + the payload (must be newline-terminated or empty).
    Data(String),
    /// `ERR <code> <message>`.
    Err(ErrCode, String),
}

impl Reply {
    /// Renders the reply as wire bytes (always newline-terminated).
    pub fn serialize(&self) -> String {
        match self {
            Reply::Ok(text) if text.is_empty() => "OK\n".to_string(),
            Reply::Ok(text) => format!("OK {text}\n"),
            Reply::Data(payload) => {
                debug_assert!(payload.is_empty() || payload.ends_with('\n'));
                format!("DATA {}\n{payload}", payload.lines().count())
            }
            Reply::Err(code, message) => format!("ERR {code} {message}\n"),
        }
    }
}

/// A refused request: the code and message of its `ERR` reply. Handlers
/// build each refusal in one place and convert it at the edge — into a
/// [`Reply`] (with `?`) or into one batch ack per record.
pub(crate) type Refusal = (ErrCode, String);

impl From<Refusal> for Reply {
    fn from((code, message): Refusal) -> Reply {
        Reply::Err(code, message)
    }
}

/// A parsed request line. Multi-line payload sections (`LOAD`, `RESTORE`)
/// carry their announced line count; the connection handler reads the
/// payload lines after parsing the head line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `HELLO <version>` — handshake.
    Hello(String),
    /// `LOAD <n>` — load a scenario document of `n` lines.
    Load(usize),
    /// `SUBMIT <x> <y> <facing_rad> <end_slot> <energy> <weight>`.
    Submit {
        /// Device position x (meters).
        x: f64,
        /// Device position y (meters).
        y: f64,
        /// Receiving-sector orientation (radians).
        facing: f64,
        /// One past the last active slot (absolute).
        end_slot: usize,
        /// Required charging energy (joules).
        energy: f64,
        /// Weight in the overall utility.
        weight: f64,
    },
    /// `TICK [n]` — close `n` slots (default 1).
    Tick(usize),
    /// `CLOCK?` — current open slot.
    Clock,
    /// `SCHEDULE?` — the schedule as planned/executed so far.
    Schedule,
    /// `UTILITY?` — full P1 utility and relaxed (HASTE-R) value.
    Utility,
    /// `PARTS?` — per-task weighted utility terms in arrival order (v2).
    Parts,
    /// `EXPORT?` — Prometheus-style text exposition of the typed metric
    /// registry (`# TYPE`/`# HELP` comments plus cumulative histogram
    /// bucket lines); `docs/service_protocol.md` has the normative schema.
    Export,
    /// `SHARDS?` — per-shard slot, cell, and admission counters (v2).
    Shards,
    /// `TENANT <id> [<quota>]` — bind this connection's session tenant,
    /// optionally (re)setting its per-slot admission quota (v2 router).
    Tenant {
        /// The tenant id (alphanumeric plus `-`, `_`, `.`; max 64 bytes).
        id: String,
        /// Per-slot accepted-submission cap; `None` leaves it unchanged
        /// (unlimited for a tenant that never set one).
        quota: Option<u64>,
    },
    /// `RESHARD SPLIT <cell>` — split a cell of the session tenant's
    /// partition in two and migrate its engine live (v2 router).
    ReshardSplit(usize),
    /// `RESHARD MERGE <a> <b>` — merge two rect-adjacent cells of the
    /// session tenant's partition live (v2 router).
    ReshardMerge(usize, usize),
    /// `SNAPSHOT` — serialize full engine state.
    Snapshot,
    /// `RESTORE <n>` — replace engine state from an `n`-line snapshot.
    Restore(usize),
    /// `BYE` — close the connection.
    Bye,
}

/// Every wire directive [`Request::opcode`] returns, for pre-building the
/// per-opcode metric series (a request whose opcode is missing here would
/// go uncounted).
pub const OPCODES: [&str; 15] = [
    "HELLO",
    "LOAD",
    "SUBMIT",
    "TICK",
    "CLOCK?",
    "SCHEDULE?",
    "UTILITY?",
    "PARTS?",
    "EXPORT?",
    "SHARDS?",
    "TENANT",
    "RESHARD",
    "SNAPSHOT",
    "RESTORE",
    "BYE",
];

impl Request {
    /// The wire directive of this request, for metric `opcode` labels.
    /// Stable tokens: exactly the directives of the protocol spec, all
    /// listed in [`OPCODES`].
    pub fn opcode(&self) -> &'static str {
        match self {
            Request::Hello(_) => "HELLO",
            Request::Load(_) => "LOAD",
            Request::Submit { .. } => "SUBMIT",
            Request::Tick(_) => "TICK",
            Request::Clock => "CLOCK?",
            Request::Schedule => "SCHEDULE?",
            Request::Utility => "UTILITY?",
            Request::Parts => "PARTS?",
            Request::Export => "EXPORT?",
            Request::Shards => "SHARDS?",
            Request::Tenant { .. } => "TENANT",
            Request::ReshardSplit(_) | Request::ReshardMerge(..) => "RESHARD",
            Request::Snapshot => "SNAPSHOT",
            Request::Restore(_) => "RESTORE",
            Request::Bye => "BYE",
        }
    }

    /// Parses one request line (already stripped of its newline).
    ///
    /// Field access is by slice pattern throughout — no indexing, nothing
    /// that can panic on a short line (lint rule P1 enforces this for all
    /// request-handling code).
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut fields = line.split_whitespace();
        let directive = fields.next().ok_or("empty request")?;
        let rest: Vec<&str> = fields.collect();
        let arity =
            |n: usize| -> String { format!("{directive} expects {n} fields, got {}", rest.len()) };
        let uint = |s: &str| -> Result<usize, String> {
            s.parse().map_err(|_| format!("`{s}` is not a count"))
        };
        let num = |s: &str| -> Result<f64, String> {
            s.parse().map_err(|_| format!("`{s}` is not a number"))
        };
        let tenant_id = |s: &str| -> Result<String, String> {
            let well_formed = !s.is_empty()
                && s.len() <= 64
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'));
            if well_formed {
                Ok(s.to_string())
            } else {
                Err(format!(
                    "`{s}` is not a tenant id (alphanumeric plus `-`, `_`, `.`; max 64 bytes)"
                ))
            }
        };
        match (directive, rest.as_slice()) {
            ("HELLO", [version]) => Ok(Request::Hello(version.to_string())),
            ("HELLO", _) => Err(arity(1)),
            ("LOAD", [count]) => Ok(Request::Load(uint(count)?)),
            ("LOAD", _) => Err(arity(1)),
            ("SUBMIT", [x, y, facing, end_slot, energy, weight]) => Ok(Request::Submit {
                x: num(x)?,
                y: num(y)?,
                facing: num(facing)?,
                end_slot: uint(end_slot)?,
                energy: num(energy)?,
                weight: num(weight)?,
            }),
            ("SUBMIT", _) => Err(arity(6)),
            ("TICK", []) => Ok(Request::Tick(1)),
            ("TICK", [n]) => {
                let n = uint(n)?;
                if n == 0 {
                    return Err("TICK of 0 slots".to_string());
                }
                Ok(Request::Tick(n))
            }
            ("TICK", _) => Err("TICK expects at most 1 field".to_string()),
            ("CLOCK?", []) => Ok(Request::Clock),
            ("CLOCK?", _) => Err(arity(0)),
            ("SCHEDULE?", []) => Ok(Request::Schedule),
            ("SCHEDULE?", _) => Err(arity(0)),
            ("UTILITY?", []) => Ok(Request::Utility),
            ("UTILITY?", _) => Err(arity(0)),
            ("PARTS?", []) => Ok(Request::Parts),
            ("PARTS?", _) => Err(arity(0)),
            ("EXPORT?", []) => Ok(Request::Export),
            ("EXPORT?", _) => Err(arity(0)),
            ("SHARDS?", []) => Ok(Request::Shards),
            ("SHARDS?", _) => Err(arity(0)),
            ("TENANT", [id]) => Ok(Request::Tenant {
                id: tenant_id(id)?,
                quota: None,
            }),
            ("TENANT", [id, quota]) => Ok(Request::Tenant {
                id: tenant_id(id)?,
                quota: Some(uint(quota)? as u64),
            }),
            ("TENANT", _) => Err("TENANT expects 1 or 2 fields".to_string()),
            ("RESHARD", ["SPLIT", cell]) => Ok(Request::ReshardSplit(uint(cell)?)),
            ("RESHARD", ["MERGE", a, b]) => Ok(Request::ReshardMerge(uint(a)?, uint(b)?)),
            ("RESHARD", _) => Err("RESHARD expects SPLIT <cell> or MERGE <a> <b>".to_string()),
            ("SNAPSHOT", []) => Ok(Request::Snapshot),
            ("SNAPSHOT", _) => Err(arity(0)),
            ("RESTORE", [count]) => Ok(Request::Restore(uint(count)?)),
            ("RESTORE", _) => Err(arity(1)),
            ("BYE", []) => Ok(Request::Bye),
            ("BYE", _) => Err(arity(0)),
            (other, _) => Err(format!("unknown directive `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_directive() {
        assert_eq!(
            Request::parse("HELLO v1"),
            Ok(Request::Hello("v1".to_string()))
        );
        assert_eq!(Request::parse("LOAD 12"), Ok(Request::Load(12)));
        assert_eq!(
            Request::parse("SUBMIT 1.5 -2 0.25 8 900 1"),
            Ok(Request::Submit {
                x: 1.5,
                y: -2.0,
                facing: 0.25,
                end_slot: 8,
                energy: 900.0,
                weight: 1.0,
            })
        );
        assert_eq!(Request::parse("TICK"), Ok(Request::Tick(1)));
        assert_eq!(Request::parse("TICK 4"), Ok(Request::Tick(4)));
        assert_eq!(Request::parse("CLOCK?"), Ok(Request::Clock));
        assert_eq!(Request::parse("SCHEDULE?"), Ok(Request::Schedule));
        assert_eq!(Request::parse("UTILITY?"), Ok(Request::Utility));
        assert_eq!(Request::parse("PARTS?"), Ok(Request::Parts));
        assert_eq!(Request::parse("EXPORT?"), Ok(Request::Export));
        assert_eq!(Request::parse("SHARDS?"), Ok(Request::Shards));
        assert_eq!(
            Request::parse("TENANT acme"),
            Ok(Request::Tenant {
                id: "acme".to_string(),
                quota: None,
            })
        );
        assert_eq!(
            Request::parse("TENANT acme-2 500"),
            Ok(Request::Tenant {
                id: "acme-2".to_string(),
                quota: Some(500),
            })
        );
        assert_eq!(
            Request::parse("RESHARD SPLIT 0"),
            Ok(Request::ReshardSplit(0))
        );
        assert_eq!(
            Request::parse("RESHARD MERGE 1 2"),
            Ok(Request::ReshardMerge(1, 2))
        );
        assert_eq!(Request::parse("SNAPSHOT"), Ok(Request::Snapshot));
        assert_eq!(Request::parse("RESTORE 40"), Ok(Request::Restore(40)));
        assert_eq!(Request::parse("BYE"), Ok(Request::Bye));
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(Request::parse("").is_err());
        assert!(Request::parse("NOPE 1").is_err());
        assert!(Request::parse("LOAD").is_err());
        assert!(Request::parse("LOAD x").is_err());
        assert!(Request::parse("SUBMIT 1 2 3").is_err());
        assert!(Request::parse("SUBMIT 1 2 3 four 5 6").is_err());
        assert!(Request::parse("TICK 0").is_err());
        assert!(Request::parse("TICK 1 2").is_err());
        assert!(Request::parse("CLOCK? now").is_err());
        assert!(Request::parse("PARTS? 1").is_err());
        assert!(Request::parse("EXPORT? all").is_err());
        assert!(Request::parse("TENANT").is_err());
        assert!(Request::parse("TENANT bad id extra").is_err());
        assert!(Request::parse("TENANT spaced/slash").is_err());
        assert!(Request::parse("TENANT acme lots").is_err());
        assert!(Request::parse("RESHARD").is_err());
        assert!(Request::parse("RESHARD SPLIT").is_err());
        assert!(Request::parse("RESHARD SPLIT x").is_err());
        assert!(Request::parse("RESHARD MERGE 1").is_err());
        assert!(Request::parse("RESHARD GROW 1").is_err());
        // Retired verb: the typed `EXPORT?` exposition replaced it.
        assert!(Request::parse("METRICS?").is_err());
    }

    #[test]
    fn opcode_round_trips_through_parse() {
        let mut seen = Vec::new();
        for line in [
            "HELLO v1",
            "LOAD 3",
            "SUBMIT 1 2 0.5 8 900 1",
            "TICK",
            "CLOCK?",
            "SCHEDULE?",
            "UTILITY?",
            "PARTS?",
            "EXPORT?",
            "SHARDS?",
            "TENANT acme",
            "RESHARD SPLIT 0",
            "RESHARD MERGE 0 1",
            "SNAPSHOT",
            "RESTORE 4",
            "BYE",
        ] {
            let request = Request::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            let directive = line.split_whitespace().next().unwrap_or_default();
            assert_eq!(request.opcode(), directive);
            assert!(
                OPCODES.contains(&request.opcode()),
                "{line}: opcode missing from OPCODES"
            );
            seen.push(request.opcode());
        }
        for opcode in OPCODES {
            assert!(
                seen.contains(&opcode),
                "OPCODES lists `{opcode}` no verb has"
            );
        }
    }

    #[test]
    fn errcode_parse_inverts_as_str() {
        for token in [
            "bad-request",
            "bad-task",
            "overload",
            "no-scenario",
            "already-loaded",
            "at-horizon",
            "bad-snapshot",
            "unpartitionable",
            "unavailable",
            "timeout",
            "version",
            "internal",
            "unknown-tenant",
            "quota",
        ] {
            let code = ErrCode::parse(token).unwrap_or_else(|| panic!("unknown token {token}"));
            assert_eq!(code.as_str(), token);
        }
        assert_eq!(ErrCode::parse("nope"), None);
    }

    #[test]
    fn reply_serialization() {
        assert_eq!(Reply::Ok(String::new()).serialize(), "OK\n");
        assert_eq!(Reply::Ok("slot=3".to_string()).serialize(), "OK slot=3\n");
        assert_eq!(
            Reply::Data("a\nb\n".to_string()).serialize(),
            "DATA 2\na\nb\n"
        );
        assert_eq!(Reply::Data(String::new()).serialize(), "DATA 0\n");
        assert_eq!(
            Reply::Err(ErrCode::Overload, "queue full".to_string()).serialize(),
            "ERR overload queue full\n"
        );
    }
}
