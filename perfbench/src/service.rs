//! The service workloads: an in-process 2×1 router driven over loopback
//! TCP by one client thread holding two connections (a submitter and a
//! controller), in closed loop and virtual time.
//!
//! Per slot, the submitter sends that slot's arrivals (one request at a
//! time, each only after the previous ack), then the controller closes
//! the slot with `TICK` and reads `UTILITY?`. A run repeats one seeded
//! session until the measured drive time reaches the run length; the
//! repeats see identical inputs, so their deterministic counters and
//! final utility must agree exactly.
//!
//! The traced run adds one more session with a span around every client
//! call, then replays the identical inputs in process through the layer
//! APIs the router itself calls — `Request::parse`, `OnlineEngine`
//! submit/tick/evaluate, `CoverageMap::build`, `TenantWal`
//! append/sync/checkpoint, `render_composite` — with each replay span
//! parented to the client call it mirrors.

use std::path::{Path, PathBuf};
use std::time::Instant;

use haste_distributed::{OnlineConfig, OnlineEngine, TaskSpec};
use haste_geometry::{Angle, Vec2};
use haste_metrics::{Snapshot, Value};
use haste_model::{
    evaluate_relaxed, io as model_io, Charger, ChargingParams, CoverageMap, Partition, RoutingMap,
    Scenario, TimeGrid,
};
use haste_service::proto::Request;
use haste_service::wal::{frame, TenantWal, WalConfig, WalRecord, DEFAULT_CHECKPOINT_EVERY};
use haste_service::{
    parse_composite, render_composite, serve_router, Client, CompositeSnapshot, HistOp,
    RouterConfig, RouterHandle,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{mean, nearest_rank, quantile, tail};
use crate::trace::Tracer;
use crate::{host, Failure, Outcome, Values};

/// Client threads the service workloads use.
pub const CLIENT_THREADS: usize = 1;
/// Client connections the service workloads open (submitter + controller).
pub const CLIENT_CONNECTIONS: usize = 2;
/// The tenant every session runs as (the router's default).
const TENANT: &str = "default";
/// Share of the VM's CPU time that hypervisor steal may take during a
/// session's drive before the session counts as disturbed: its figures
/// then measure the neighbours as much as the program.
const STEAL_LIMIT: f64 = 0.05;
/// Kernel clock ticks per second, the unit of `/proc/stat` (`USER_HZ`,
/// 100 on Linux).
const CLOCK_TICKS_PER_S: f64 = 100.0;
/// Undisturbed sessions a run wants before it stops measuring.
const MIN_UNDISTURBED: usize = 3;
/// How far past `--seconds` a run keeps measuring while it has fewer
/// than [`MIN_UNDISTURBED`] undisturbed sessions, as a factor.
const MAX_EXTENSION: f64 = 1.5;
/// Set-up-only cycles (start, connect, `LOAD`, stop) before the timed
/// sessions; `setup_s` is the lower quartile over these and every
/// session's own set-up.
const SETUP_PROBES: usize = 9;

/// One service workload's shape.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Workload name (names the span file).
    pub name: &'static str,
    /// Chargers in the base scenario.
    pub chargers: usize,
    /// Side of the square field, meters.
    pub field: f64,
    /// Router partition grid.
    pub cells: (usize, usize),
    /// Slots of the virtual-time grid (one `TICK` each).
    pub slots: usize,
    /// Task arrivals over the whole session.
    pub tasks: usize,
    /// `Some(n)`: protocol v3 binary framing with `n` tasks per `OP_BATCH`
    /// frame. `None`: text protocol, one task per `SUBMIT`.
    pub batch: Option<usize>,
    /// Run the router with a write-ahead log (every-tick fsync, default
    /// checkpoint threshold).
    pub durable: bool,
}

/// Seeded inputs of one session: the base scenario (chargers only) and the
/// arrivals of each slot.
pub struct Inputs {
    /// Chargers, grid and charging model; tasks arrive over the wire.
    pub scenario: Scenario,
    /// Arrivals per slot, in submission order.
    pub per_slot: Vec<Vec<TaskSpec>>,
}

/// Generates a session's inputs: chargers round-robin over the cells,
/// inside each cell's interior shrunk by the charging radius (the
/// placement `LOAD` requires of a partitioned router), and seeded uniform
/// arrivals — each task draws a slot, a 2–8 slot window, a position, a
/// facing and an energy demand.
pub fn generate(spec: &ServiceSpec, seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = ChargingParams::simulation_default();
    let (cells_x, cells_y) = spec.cells;
    let (cw, ch) = (spec.field / cells_x as f64, spec.field / cells_y as f64);
    let inset = params.radius + 1.0;
    assert!(
        2.0 * inset < cw.min(ch),
        "cells too small for halo-safe chargers"
    );
    // The deployment is fixed: each cell's chargers sit at the centres of
    // a grid of equal sub-rects of its interior, so runs with different
    // seeds differ only in their arrivals.
    let num_cells = cells_x * cells_y;
    let per_cell = spec.chargers.div_ceil(num_cells).max(1);
    let cols = (per_cell as f64).sqrt().ceil() as usize;
    let rows = per_cell.div_ceil(cols);
    let (sw, sh) = (
        (cw - 2.0 * inset) / cols as f64,
        (ch - 2.0 * inset) / rows as f64,
    );
    let chargers = (0..spec.chargers)
        .map(|i| {
            let (cell, rank) = (i % num_cells, i / num_cells);
            let x0 = (cell % cells_x) as f64 * cw + inset + (rank % cols) as f64 * sw;
            let y0 = (cell / cells_x) as f64 * ch + inset + (rank / cols) as f64 * sh;
            Charger::new(i as u32, Vec2::new(x0 + sw / 2.0, y0 + sh / 2.0))
        })
        .collect();
    let scenario = Scenario::new(
        params,
        TimeGrid::new(60.0, spec.slots),
        chargers,
        Vec::new(),
        1.0 / 12.0,
        1,
    )
    .expect("generated base scenario is valid");
    let mut per_slot = vec![Vec::new(); spec.slots];
    for _ in 0..spec.tasks {
        let slot = rng.gen_range(0..spec.slots);
        let duration = rng.gen_range(2..=8usize);
        per_slot[slot].push(TaskSpec {
            device_pos: Vec2::new(
                rng.gen_range(0.0..spec.field),
                rng.gen_range(0.0..spec.field),
            ),
            device_facing: Angle::from_radians(rng.gen_range(0.0..std::f64::consts::TAU)),
            end_slot: (slot + duration).min(spec.slots),
            required_energy: rng.gen_range(500.0..3000.0),
            weight: 1.0,
        });
    }
    Inputs { scenario, per_slot }
}

/// The wire line [`Client::submit`] sends for a task.
fn submit_line(spec: &TaskSpec) -> String {
    format!(
        "SUBMIT {} {} {} {} {} {}",
        spec.device_pos.x,
        spec.device_pos.y,
        spec.device_facing.radians(),
        spec.end_slot,
        spec.required_energy,
        spec.weight
    )
}

/// Which client call an operation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Submit,
    Tick,
    Query,
}

impl OpKind {
    /// Name of the client span around the call.
    fn client_span(self) -> &'static str {
        match self {
            OpKind::Submit => "client.submit",
            OpKind::Tick => "client.tick",
            OpKind::Query => "client.query",
        }
    }

    /// The router's `opcode` label for the request.
    fn opcode(self) -> &'static str {
        match self {
            OpKind::Submit => "SUBMIT",
            OpKind::Tick => "TICK",
            OpKind::Query => "UTILITY?",
        }
    }
}

/// How one operation kind's client RTT is accounted: the named layers
/// whose replay self time it contains, and where the remainder goes.
struct Account {
    kind: OpKind,
    layers: &'static [&'static str],
    unattributed: &'static str,
    share: &'static str,
    /// Nanoseconds per reported unit.
    unit_ns: f64,
    unit: &'static str,
}

const ACCOUNTS: [Account; 3] = [
    Account {
        kind: OpKind::Submit,
        layers: &["proto.parse", "engine.submit", "wal.append"],
        unattributed: "router.submit_unattributed_us",
        share: "share.submit_unattributed",
        unit_ns: 1e3,
        unit: "us",
    },
    Account {
        kind: OpKind::Tick,
        layers: &[
            "proto.parse",
            "engine.tick",
            "wal.append",
            "wal.fsync",
            "wal.checkpoint_render",
            "wal.checkpoint_write",
        ],
        unattributed: "router.tick_unattributed_ms",
        share: "share.tick_unattributed",
        unit_ns: 1e6,
        unit: "ms",
    },
    Account {
        kind: OpKind::Query,
        layers: &[
            "proto.parse",
            "shard.utility_parts",
            "model.coverage_build",
            "model.eval",
        ],
        unattributed: "router.query_unattributed_ms",
        share: "share.query_unattributed",
        unit_ns: 1e6,
        unit: "ms",
    },
];

/// A running router with the two client connections.
struct Endpoint {
    handle: RouterHandle,
    submitter: Client,
    control: Client,
}

fn client_err(what: &str) -> impl Fn(haste_service::ClientError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Starts the router, connects both clients and loads the scenario — the
/// set-up a user pays before the first submission.
fn open(spec: &ServiceSpec, inputs: &Inputs, wal: Option<&Path>) -> Result<Endpoint, String> {
    let handle = serve_router(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        // Both connections plus one spare handler.
        worker_threads: CLIENT_CONNECTIONS + 1,
        // No admission refusals: every arrival is accepted.
        max_pending: spec.tasks.max(1),
        cells: spec.cells,
        origin: (0.0, 0.0),
        field: (spec.field, spec.field),
        wal: wal.map(WalConfig::new),
        ..RouterConfig::default()
    })
    .map_err(|e| format!("router start: {e}"))?;
    let addr = handle.addr();
    let submitter = match spec.batch {
        Some(_) => {
            let (client, _) = Client::connect_v3(addr).map_err(client_err("connect v3"))?;
            if !client.is_binary() {
                return Err("the router did not negotiate binary framing".to_string());
            }
            client
        }
        None => Client::connect(addr).map_err(client_err("connect"))?,
    };
    let mut control = Client::connect(addr).map_err(client_err("connect"))?;
    control.load(&inputs.scenario).map_err(client_err("LOAD"))?;
    Ok(Endpoint {
        handle,
        submitter,
        control,
    })
}

fn close(endpoint: Endpoint) -> Result<(), String> {
    endpoint.submitter.bye().map_err(client_err("BYE"))?;
    endpoint.control.bye().map_err(client_err("BYE"))?;
    endpoint.handle.shutdown();
    Ok(())
}

fn reset_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// What one timed session observed.
struct Session {
    setup_s: f64,
    drive_s: f64,
    submit_us: Vec<f64>,
    tick_ms: Vec<f64>,
    query_ms: Vec<f64>,
    /// `(utility, relaxed)` read after every tick.
    queries: Vec<(f64, f64)>,
    accepted: u64,
    requests: u64,
    failed: u64,
    /// The router's exposition, read right after the drive.
    export: Snapshot,
    /// The composite snapshot taken after the export.
    snapshot: String,
    /// The client span of every operation, in drive order (traced only).
    client_spans: Vec<(OpKind, usize)>,
    /// Hypervisor steal during the drive, clock ticks summed over CPUs.
    steal_ticks: u64,
}

impl Session {
    fn final_utility(&self) -> (f64, f64) {
        self.queries.last().copied().unwrap_or((0.0, 0.0))
    }

    /// Whether the hypervisor took more than [`STEAL_LIMIT`] of this VM's
    /// CPU time during the drive.
    fn disturbed(&self, nproc: usize) -> bool {
        self.steal_ticks as f64 > STEAL_LIMIT * CLOCK_TICKS_PER_S * self.drive_s * nproc as f64
    }
}

/// Runs one session: set-up, the closed-loop drive over every slot, then
/// (outside the timed drive) the exposition and the composite snapshot.
fn run_session(
    spec: &ServiceSpec,
    inputs: &Inputs,
    wal: Option<&Path>,
    mut tracer: Option<&mut Tracer>,
) -> Result<Session, String> {
    // Clearing the previous session's log is housekeeping, not set-up.
    if let Some(dir) = wal {
        reset_dir(dir)?;
    }
    let setup_start = Instant::now();
    let mut endpoint = open(spec, inputs, wal)?;
    let setup_s = setup_start.elapsed().as_secs_f64();

    let mut session = Session {
        setup_s,
        drive_s: 0.0,
        submit_us: Vec::new(),
        tick_ms: Vec::new(),
        query_ms: Vec::new(),
        queries: Vec::with_capacity(spec.slots),
        accepted: 0,
        requests: 0,
        failed: 0,
        export: Snapshot::new(),
        snapshot: String::new(),
        client_spans: Vec::new(),
        steal_ticks: 0,
    };
    let chunk = spec.batch.unwrap_or(1).max(1);
    let mut op = 0u64;
    let steal_start = host::steal_ticks();
    let drive_start = Instant::now();
    for slot_arrivals in &inputs.per_slot {
        for specs in slot_arrivals.chunks(chunk) {
            let span_start = tracer.as_ref().map(|t| t.now());
            let sent = Instant::now();
            let outcomes: Vec<bool> = match spec.batch {
                Some(_) => endpoint
                    .submitter
                    .submit_batch(specs)
                    .map_err(client_err("SUBMIT batch"))?
                    .iter()
                    .map(Result::is_ok)
                    .collect(),
                None => vec![endpoint.submitter.submit(&specs[0]).is_ok()],
            };
            session.submit_us.push(sent.elapsed().as_secs_f64() * 1e6);
            if let (Some(t), Some(start)) = (tracer.as_deref_mut(), span_start) {
                let end = t.now();
                let index = t.record("client.submit", start, end, None, op);
                session.client_spans.push((OpKind::Submit, index));
            }
            op += 1;
            session.requests += 1;
            let accepted = outcomes.iter().filter(|ok| **ok).count() as u64;
            session.accepted += accepted;
            if accepted != outcomes.len() as u64 {
                session.failed += 1;
            }
        }

        let span_start = tracer.as_ref().map(|t| t.now());
        let sent = Instant::now();
        let ticked = endpoint.control.tick(1);
        session.tick_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        if let (Some(t), Some(start)) = (tracer.as_deref_mut(), span_start) {
            let end = t.now();
            let index = t.record("client.tick", start, end, None, op);
            session.client_spans.push((OpKind::Tick, index));
        }
        op += 1;
        session.requests += 1;
        if ticked.is_err() {
            session.failed += 1;
        }

        let span_start = tracer.as_ref().map(|t| t.now());
        let sent = Instant::now();
        let utility = endpoint.control.utility();
        session.query_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        if let (Some(t), Some(start)) = (tracer.as_deref_mut(), span_start) {
            let end = t.now();
            let index = t.record("client.query", start, end, None, op);
            session.client_spans.push((OpKind::Query, index));
        }
        op += 1;
        session.requests += 1;
        match utility {
            Ok(pair) => session.queries.push(pair),
            Err(_) => session.failed += 1,
        }
    }
    session.drive_s = drive_start.elapsed().as_secs_f64();
    session.steal_ticks = host::steal_ticks().saturating_sub(steal_start);

    let export = endpoint.control.export().map_err(client_err("EXPORT?"))?;
    session.export =
        Snapshot::parse(&export).map_err(|e| format!("the exposition does not parse: {e}"))?;
    session.snapshot = endpoint
        .control
        .snapshot()
        .map_err(client_err("SNAPSHOT"))?;
    close(endpoint)?;
    Ok(session)
}

/// Deterministic work counters of a session; identical for identical
/// inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters {
    /// Tasks the router accepted.
    pub accepted: u64,
    /// Marginal-gain oracle evaluations, all shards.
    pub oracle_marginals: u128,
    /// Optimizer commits, all shards.
    pub oracle_commits: u128,
    /// Negotiation messages, all shards.
    pub messages: u128,
    /// Negotiation rounds, all shards.
    pub rounds: u128,
    /// Write-ahead-log checkpoints the router wrote.
    pub wal_checkpoints: u128,
    /// Bits of the final streamed utility.
    pub utility_bits: u64,
}

impl std::fmt::Display for Counters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "accepted={} oracle_marginals={} oracle_commits={} messages={} rounds={} \
             wal_checkpoints={} utility_bits={:#018x}",
            self.accepted,
            self.oracle_marginals,
            self.oracle_commits,
            self.messages,
            self.rounds,
            self.wal_checkpoints,
            self.utility_bits
        )
    }
}

fn counter(export: &Snapshot, name: &str, labels: &[(&str, &str)]) -> u128 {
    match export.get(name, labels) {
        Some(Value::Counter(v)) | Some(Value::Gauge(v)) => *v,
        _ => 0,
    }
}

/// Mean server-side handling time of one opcode, microseconds, from the
/// router's request-duration histogram.
fn server_mean_us(export: &Snapshot, opcode: &str) -> f64 {
    match export.get("haste_service_request_duration_us", &[("opcode", opcode)]) {
        Some(Value::Histogram { buckets, sum_us }) => {
            let count: u64 = buckets.iter().sum();
            if count == 0 {
                0.0
            } else {
                *sum_us as f64 / count as f64
            }
        }
        _ => 0.0,
    }
}

fn counters(session: &Session) -> Counters {
    let export = &session.export;
    Counters {
        accepted: session.accepted,
        oracle_marginals: counter(export, "haste_engine_oracle_marginals_total", &[]),
        oracle_commits: counter(export, "haste_engine_oracle_commits_total", &[]),
        messages: counter(export, "haste_engine_negotiation_messages_total", &[]),
        rounds: counter(export, "haste_engine_negotiation_rounds_total", &[]),
        wal_checkpoints: counter(export, "haste_wal_checkpoints_total", &[("tenant", TENANT)]),
        utility_bits: session.final_utility().0.to_bits(),
    }
}

/// Eq. 10 of the paper: the P1 utility `u` of a schedule lies between
/// `(1 − ρ)·u_r` and its HASTE-R value `u_r` (a relative 1e-9 slack
/// absorbs summation rounding).
pub fn check_eq10(u: f64, u_r: f64, rho: f64) -> Result<(), String> {
    let slack = 1e-9 * u_r.abs().max(1.0);
    if !(u.is_finite() && u_r.is_finite()) {
        return Err(format!("non-finite utility {u} / relaxed {u_r}"));
    }
    if u > u_r + slack {
        return Err(format!("Eq. 10 violated: U = {u} exceeds U_R = {u_r}"));
    }
    if u < (1.0 - rho) * u_r - slack {
        return Err(format!(
            "Eq. 10 violated: U = {u} is below (1 - rho) U_R = {}",
            (1.0 - rho) * u_r
        ));
    }
    Ok(())
}

/// The correctness gate of a service session: the streamed utility
/// bit-equals the merged per-shard replay, and every utility read obeys
/// Eq. 10.
pub fn gate(streamed: f64, replayed: f64, reads: &[(f64, f64)], rho: f64) -> Result<(), String> {
    if streamed.to_bits() != replayed.to_bits() {
        return Err(format!(
            "streamed utility {streamed} != per-shard replay {replayed} (bitwise)"
        ));
    }
    for &(u, u_r) in reads {
        check_eq10(u, u_r, rho)?;
    }
    Ok(())
}

/// Replays every shard of a composite snapshot from its own submission
/// trace (`replay_trace`) and re-merges the per-task `w·U` terms in the
/// recorded global arrival order.
pub fn merged_replay(composite_text: &str) -> Result<f64, String> {
    let composite =
        parse_composite(composite_text).map_err(|e| format!("router snapshot unusable: {e}"))?;
    let mut parts: Vec<Vec<f64>> = Vec::with_capacity(composite.shards.len());
    for snapshot in &composite.shards {
        let engine =
            OnlineEngine::restore(snapshot).map_err(|e| format!("shard snapshot unusable: {e}"))?;
        let trace = engine.scenario().clone();
        let weights: Vec<f64> = trace.tasks.iter().map(|t| t.weight).collect();
        let replayed = haste_distributed::replay_trace(trace, engine.config().clone());
        parts.push(
            weights
                .iter()
                .zip(&replayed.report.per_task_utility)
                .map(|(w, u)| w * u)
                .collect(),
        );
    }
    merge_in_order(&parts, &composite.order)
}

/// Sums per-shard term lists in global arrival order (`order[i]` is the
/// shard owning the `i`-th arrival) — the router's exact addend sequence.
fn merge_in_order(parts: &[Vec<f64>], order: &[u32]) -> Result<f64, String> {
    let mut cursors = vec![0usize; parts.len()];
    let mut total = 0.0f64;
    for &owner in order {
        let shard = owner as usize;
        let term = cursors
            .get_mut(shard)
            .and_then(|cursor| {
                let term = parts.get(shard)?.get(*cursor).copied();
                *cursor += 1;
                term
            })
            .ok_or("arrival order exceeds the shard task lists")?;
        total += term;
    }
    Ok(total)
}

/// Runs a service workload for `seconds` of measured drive time.
pub fn run(
    spec: &ServiceSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Result<Outcome, Failure> {
    let nproc = host::nproc();
    host::refuse_oversubscribed(CLIENT_THREADS, CLIENT_CONNECTIONS, nproc)
        .map_err(Failure::Setup)?;
    let wal_root = out_dir.join(format!("wal-{}", std::process::id()));
    let mut notes = Vec::new();
    if spec.durable {
        std::fs::create_dir_all(&wal_root)
            .map_err(|e| Failure::Setup(format!("{}: {e}", wal_root.display())))?;
        let fs = host::fs_type(&wal_root).map_err(Failure::Setup)?;
        notes.push(format!("wal_dir={} fs={fs}", wal_root.display()));
        if let Err(e) = host::refuse_memory_fs(&fs) {
            let _ = std::fs::remove_dir_all(&wal_root);
            return Err(Failure::Setup(e));
        }
    }
    let result = run_in(spec, seed, seconds, trace, out_dir, &wal_root, notes);
    if spec.durable {
        let _ = std::fs::remove_dir_all(&wal_root);
    }
    result
}

fn run_in(
    spec: &ServiceSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
    wal_root: &Path,
    mut notes: Vec<String>,
) -> Result<Outcome, Failure> {
    let inputs = generate(spec, seed);
    let wal_dir: Option<PathBuf> = spec.durable.then(|| wal_root.join("router"));
    let wal = wal_dir.as_deref();
    let rho = inputs.scenario.rho;

    let mut setup_samples = Vec::new();
    for _ in 0..SETUP_PROBES {
        if let Some(dir) = wal {
            reset_dir(dir).map_err(Failure::Setup)?;
        }
        let start = Instant::now();
        let endpoint = open(spec, &inputs, wal).map_err(Failure::Setup)?;
        setup_samples.push(start.elapsed().as_secs_f64());
        close(endpoint).map_err(Failure::Setup)?;
    }

    let mut sessions: Vec<Session> = Vec::new();
    let mut measured = 0.0;
    // Read after the first session, so every run measures the same work.
    let mut peak_rss_mb = 0.0;
    let nproc = host::nproc();
    let undisturbed =
        |sessions: &[Session]| sessions.iter().filter(|s| !s.disturbed(nproc)).count();
    // Measure `seconds` of drive; while steal has disturbed all but a few
    // sessions, keep going, up to `MAX_EXTENSION` times as long.
    while sessions.is_empty()
        || measured < seconds
        || (undisturbed(&sessions) < MIN_UNDISTURBED && measured < seconds * MAX_EXTENSION)
    {
        let session = run_session(spec, &inputs, wal, None).map_err(Failure::Setup)?;
        if sessions.is_empty() {
            peak_rss_mb = host::peak_rss_mb().map_err(Failure::Setup)?;
        }
        measured += session.drive_s;
        setup_samples.push(session.setup_s);
        sessions.push(session);
    }
    let attempted: u64 = sessions.iter().map(|s| s.requests).sum();
    let failed: u64 = sessions.iter().map(|s| s.failed).sum();

    // Correctness gate, outside the timed drive: the first session is
    // replayed shard by shard; every repeat must match it exactly.
    let first = &sessions[0];
    let expected_tasks: usize = inputs.per_slot.iter().map(Vec::len).sum();
    let incorrect = |reason: String| Failure::Incorrect {
        attempted,
        failed: failed.max(1),
        reason,
    };
    if failed > 0 || first.accepted != expected_tasks as u64 {
        return Err(incorrect(format!(
            "{failed} operations failed; {} of {expected_tasks} tasks accepted",
            first.accepted
        )));
    }
    let replayed = merged_replay(&first.snapshot).map_err(incorrect)?;
    gate(first.final_utility().0, replayed, &first.queries, rho).map_err(incorrect)?;
    let reference = counters(first);
    for (i, session) in sessions.iter().enumerate().skip(1) {
        let other = counters(session);
        if other != reference {
            return Err(incorrect(format!(
                "session {i} counters differ from session 0: {other} vs {reference}"
            )));
        }
    }
    notes.push(format!(
        "sessions={} measured_s={measured:.3} counters: {reference}",
        sessions.len()
    ));

    let e2e = end_to_end(&sessions, nproc, &setup_samples, peak_rss_mb, &mut notes)
        .map_err(Failure::Setup)?;
    if !trace {
        return Ok(Outcome {
            attempted,
            failed,
            metrics: e2e,
            notes,
        });
    }

    // Traced run: one more session with client spans, then the in-process
    // layer replay of the same inputs.
    let mut tracer = Tracer::new();
    let traced = run_session(spec, &inputs, wal, Some(&mut tracer)).map_err(Failure::Setup)?;
    let traced_counters = counters(&traced);
    if traced.failed > 0 || traced_counters != reference {
        return Err(incorrect(format!(
            "traced session: {} failed operations, counters {traced_counters} vs {reference}",
            traced.failed
        )));
    }
    let traced_e2e = end_to_end(
        std::slice::from_ref(&traced),
        nproc,
        &[traced.setup_s],
        peak_rss_mb,
        &mut Vec::new(),
    )
    .map_err(Failure::Setup)?;
    // The overhead baseline is one untraced session too: the one with the
    // median drive time, so both sides are single sessions.
    let mut by_drive: Vec<&Session> = sessions.iter().collect();
    by_drive.sort_by(|a, b| a.drive_s.total_cmp(&b.drive_s));
    let typical = by_drive[by_drive.len() / 2];
    let baseline = end_to_end(
        std::slice::from_ref(typical),
        nproc,
        &[typical.setup_s],
        peak_rss_mb,
        &mut Vec::new(),
    )
    .map_err(Failure::Setup)?;
    let replay_dir = spec.durable.then(|| wal_root.join("replay"));
    let replay = replay_layers(spec, &inputs, replay_dir.as_deref(), &mut tracer, &traced)
        .map_err(incorrect)?;
    if replay.engine_marginals != reference.oracle_marginals
        || replay.engine_messages != reference.messages
        || replay.checkpoints != reference.wal_checkpoints
    {
        return Err(incorrect(format!(
            "the layer replay diverged from the run: marginals {} vs {}, messages {} vs {}, \
             checkpoints {} vs {}",
            replay.engine_marginals,
            reference.oracle_marginals,
            replay.engine_messages,
            reference.messages,
            replay.checkpoints,
            reference.wal_checkpoints
        )));
    }
    let layers = per_layer(
        &tracer,
        &traced,
        &replay,
        &baseline,
        &traced_e2e,
        &mut notes,
    );
    tracer
        .write_csv(&out_dir.join(format!("{}-seed{seed}.spans.csv", spec.name)))
        .map_err(|e| Failure::Setup(format!("writing spans: {e}")))?;
    Ok(Outcome {
        attempted: attempted + traced.requests,
        failed,
        metrics: layers,
        notes,
    })
}

/// End-to-end metrics: each session's own figures (its throughput and
/// the percentiles of its own samples), then their lower quartile over
/// the undisturbed sessions — over all sessions when fewer than
/// [`MIN_UNDISTURBED`] are — and the upper quartile for throughput.
/// Interference from outside the process (hypervisor steal on a shared
/// VM, neighbours' memory traffic) only ever slows a session, so this
/// quantile tracks the program.
fn end_to_end(
    sessions: &[Session],
    nproc: usize,
    setup_samples: &[f64],
    peak_rss_mb: f64,
    notes: &mut Vec<String>,
) -> Result<Values, String> {
    const LATENCIES: [&str; 5] = [
        "submit_p50_us",
        "tick_p50_ms",
        "tick_p90_ms",
        "query_p50_ms",
        "query_p90_ms",
    ];
    let use_all = sessions.iter().filter(|s| !s.disturbed(nproc)).count() < MIN_UNDISTURBED;
    let mut per_session: Vec<Vec<f64>> = vec![Vec::new(); LATENCIES.len() + 1];
    for (i, session) in sessions.iter().enumerate() {
        let used = use_all || !session.disturbed(nproc);
        let sorted = |samples: &[f64]| {
            let mut samples = samples.to_vec();
            samples.sort_by(f64::total_cmp);
            samples
        };
        let (submit, tick, query) = (
            sorted(&session.submit_us),
            sorted(&session.tick_ms),
            sorted(&session.query_ms),
        );
        let figures = [
            nearest_rank(&submit, 50.0),
            nearest_rank(&tick, 50.0),
            tail(&tick, 90.0),
            nearest_rank(&query, 50.0),
            tail(&query, 90.0),
            Some(session.accepted as f64 / session.drive_s.max(1e-9)),
        ];
        let mut line = format!(
            "session {i}: setup={:.4}s drive={:.3}s steal_ticks={} used={} samples submit={} \
             tick={} query={}",
            session.setup_s,
            session.drive_s,
            session.steal_ticks,
            u8::from(used),
            submit.len(),
            tick.len(),
            query.len()
        );
        let names = LATENCIES.iter().chain(["tasks_per_s"].iter());
        for ((name, slot), figure) in names.zip(per_session.iter_mut()).zip(figures) {
            let figure = figure.ok_or("too few samples in a session for a tail percentile")?;
            line.push_str(&format!(" {name}={figure:.3}"));
            if used {
                slot.push(figure);
            }
        }
        // The submit tail is reported, not gated: hypervisor steal moves it
        // by up to 2x between runs of the same code.
        if let Some(p90) = tail(&submit, 90.0) {
            line.push_str(&format!(" submit_p90_us={p90:.3}"));
        }
        notes.push(line);
    }
    let requests: u64 = sessions.iter().map(|s| s.requests).sum();
    let failed: u64 = sessions.iter().map(|s| s.failed).sum();
    let mut values = Values::new();
    values.insert(
        "setup_s",
        quantile(setup_samples, 25.0).ok_or("no set-up samples")?,
    );
    let throughput = quantile(&per_session[LATENCIES.len()], 75.0).ok_or("no sessions")?;
    values.insert("tasks_per_s", throughput);
    for (name, column) in LATENCIES.iter().zip(&per_session) {
        values.insert(name, quantile(column, 25.0).ok_or("no sessions")?);
    }
    values.insert("utility", sessions[0].final_utility().0);
    values.insert("peak_rss_mb", peak_rss_mb);
    values.insert("ok_ratio", 1.0 - failed as f64 / requests.max(1) as f64);
    Ok(values)
}

/// Work the layer replay did, beyond its spans.
#[derive(Debug, Default)]
struct Replay {
    /// Engine phase time summed over shards and ticks, nanoseconds:
    /// coverage, instance, negotiation, rounding.
    coverage_ns: u128,
    instance_ns: u128,
    negotiation_ns: u128,
    rounding_ns: u128,
    engine_marginals: u128,
    engine_messages: u128,
    wal_records: u64,
    wal_fsyncs: u64,
    checkpoints: u128,
    auto_checkpoints: u64,
    log_bytes: u64,
    checkpoint_bytes: u64,
    parsed_lines: u64,
}

/// The composite document the router checkpoints: rendered from the
/// replay's own engines exactly as the router renders its shards.
fn render_cut(
    partition: &Partition,
    scenario_text: &str,
    ops: &[HistOp],
    engines: &[OnlineEngine],
) -> String {
    let origin = partition.origin();
    render_composite(&CompositeSnapshot {
        tenant: TENANT.to_string(),
        map_version: RoutingMap::identity(partition.num_cells()).version(),
        grid: (partition.cells_x(), partition.cells_y()),
        origin: (origin.x, origin.y),
        field: partition.field(),
        halo: partition.halo(),
        cells: partition.cells().to_vec(),
        scenario: scenario_text.to_string(),
        ops: ops.to_vec(),
        shards: engines.iter().map(OnlineEngine::snapshot).collect(),
        order: Vec::new(),
    })
}

fn wal_io(e: std::io::Error) -> String {
    format!("replay WAL: {e}")
}

/// Replays the traced session's inputs through the layer APIs, one replay
/// span tree per client operation, and checks that the replay reaches the
/// very state the router reached.
fn replay_layers(
    spec: &ServiceSpec,
    inputs: &Inputs,
    wal_dir: Option<&Path>,
    tracer: &mut Tracer,
    traced: &Session,
) -> Result<Replay, String> {
    // The router parses the LOAD payload and splits it by partition.
    let scenario_text = model_io::write_scenario(&inputs.scenario);
    let scenario = model_io::read_scenario(&scenario_text).map_err(|e| e.to_string())?;
    let scenario_text = model_io::write_scenario(&scenario);
    let partition = Partition::grid(
        Vec2::new(0.0, 0.0),
        spec.field,
        spec.field,
        spec.cells.0,
        spec.cells.1,
        scenario.params.radius,
    )
    .map_err(|e| e.to_string())?;
    let mut engines: Vec<OnlineEngine> = partition
        .split(&scenario)
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|cell| OnlineEngine::new(cell, OnlineConfig::default(), spec.tasks.max(1)))
        .collect();
    let mut replay = Replay::default();
    let mut ops: Vec<HistOp> = Vec::new();
    let mut order: Vec<u32> = Vec::new();
    let mut wal = match wal_dir {
        Some(dir) => {
            reset_dir(dir)?;
            let mut wal = TenantWal::create(dir, TENANT).map_err(wal_io)?;
            // LOAD installs the tenant's first checkpoint.
            let text = render_cut(&partition, &scenario_text, &ops, &engines);
            wal.checkpoint(&text, None).map_err(wal_io)?;
            replay.checkpoints += 1;
            replay.wal_records += 1;
            replay.checkpoint_bytes += text.len() as u64;
            Some(wal)
        }
        None => None,
    };

    let mut client_ops = traced.client_spans.iter();
    let mut next_op = |want: OpKind| -> Result<usize, String> {
        match client_ops.next() {
            Some(&(kind, index)) if kind == want => Ok(index),
            _ => Err("the replay lost step with the traced session".to_string()),
        }
    };
    let chunk = spec.batch.unwrap_or(1).max(1);
    for (slot, slot_arrivals) in inputs.per_slot.iter().enumerate() {
        for specs in slot_arrivals.chunks(chunk) {
            let client = next_op(OpKind::Submit)?;
            let op = tracer.spans()[client].op;
            let root = tracer.open("replay.submit", Some(client), op);
            if spec.batch.is_none() {
                let line = submit_line(&specs[0]);
                let parsed = tracer.time("proto.parse", Some(root), op, || Request::parse(&line));
                if !matches!(parsed, Ok(Request::Submit { .. })) {
                    return Err(format!("Request::parse rejected `{line}`"));
                }
                replay.parsed_lines += 1;
            }
            let mut records = Vec::with_capacity(specs.len());
            for task in specs {
                let cell = partition.cell_of(task.device_pos);
                let engine = &mut engines[cell];
                let admitted =
                    tracer.time("engine.submit", Some(root), op, || engine.submit(*task));
                admitted.map_err(|e| format!("replay submit refused: {e}"))?;
                order.push(cell as u32);
                ops.push(HistOp::Submit(*task));
                records.push(WalRecord::Submit(*task));
            }
            if let Some(wal) = wal.as_mut() {
                tracer
                    .time("wal.append", Some(root), op, || wal.append(&records))
                    .map_err(wal_io)?;
                replay.wal_records += records.len() as u64;
                replay.log_bytes += records
                    .iter()
                    .map(|r| frame(r.render().as_bytes()).len() as u64)
                    .sum::<u64>();
            }
            tracer.close(root);
        }

        let client = next_op(OpKind::Tick)?;
        let op = tracer.spans()[client].op;
        let root = tracer.open("replay.tick", Some(client), op);
        let parsed = tracer.time("proto.parse", Some(root), op, || Request::parse("TICK 1"));
        if !matches!(parsed, Ok(Request::Tick(1))) {
            return Err("Request::parse rejected `TICK 1`".to_string());
        }
        replay.parsed_lines += 1;
        let before: Vec<_> = engines.iter().map(|e| e.metrics().clone()).collect();
        // The router ticks its in-process shards concurrently and joins.
        tracer.time("engine.tick", Some(root), op, || {
            std::thread::scope(|scope| {
                for engine in engines.iter_mut() {
                    scope.spawn(move || engine.tick());
                }
            })
        });
        for (engine, before) in engines.iter().zip(&before) {
            let after = engine.metrics();
            replay.coverage_ns += (after.coverage_build - before.coverage_build).as_nanos();
            replay.instance_ns += (after.instance_build - before.instance_build).as_nanos();
            replay.negotiation_ns += (after.greedy - before.greedy).as_nanos();
            replay.rounding_ns += (after.rounding - before.rounding).as_nanos();
        }
        ops.push(HistOp::Tick);
        if let Some(wal) = wal.as_mut() {
            let tick = [WalRecord::Tick];
            tracer
                .time("wal.append", Some(root), op, || wal.append(&tick))
                .map_err(wal_io)?;
            replay.wal_records += 1;
            replay.log_bytes += frame(WalRecord::Tick.render().as_bytes()).len() as u64;
            tracer
                .time("wal.fsync", Some(root), op, || wal.sync())
                .map_err(wal_io)?;
            replay.wal_fsyncs += 1;
            if wal.ops_since_checkpoint >= DEFAULT_CHECKPOINT_EVERY {
                let text = tracer.time("wal.checkpoint_render", Some(root), op, || {
                    render_cut(&partition, &scenario_text, &ops, &engines)
                });
                tracer
                    .time("wal.checkpoint_write", Some(root), op, || {
                        wal.checkpoint(&text, None)
                    })
                    .map_err(wal_io)?;
                replay.checkpoints += 1;
                replay.auto_checkpoints += 1;
                replay.wal_records += 1;
                replay.checkpoint_bytes += text.len() as u64;
            }
        }
        tracer.close(root);

        let client = next_op(OpKind::Query)?;
        let op = tracer.spans()[client].op;
        let root = tracer.open("replay.query", Some(client), op);
        let parsed = tracer.time("proto.parse", Some(root), op, || Request::parse("UTILITY?"));
        if !matches!(parsed, Ok(Request::Utility)) {
            return Err("Request::parse rejected `UTILITY?`".to_string());
        }
        replay.parsed_lines += 1;
        // `Shard::utility_parts`, call by call: P1 evaluation, a fresh
        // coverage map, the relaxed evaluation, then the `w·U` terms.
        let mut full_parts = Vec::with_capacity(engines.len());
        let mut relaxed_parts = Vec::with_capacity(engines.len());
        for engine in engines.iter_mut() {
            let parts = tracer.open("shard.utility_parts", Some(root), op);
            let report = tracer.time("model.eval", Some(parts), op, || engine.evaluate());
            let coverage = tracer.time("model.coverage_build", Some(parts), op, || {
                CoverageMap::build(engine.scenario())
            });
            let relaxed = tracer.time("model.eval", Some(parts), op, || {
                evaluate_relaxed(engine.scenario(), &coverage, engine.schedule())
            });
            let weights: Vec<f64> = engine.scenario().tasks.iter().map(|t| t.weight).collect();
            full_parts.push(
                weights
                    .iter()
                    .zip(&report.per_task_utility)
                    .map(|(w, u)| w * u)
                    .collect::<Vec<f64>>(),
            );
            relaxed_parts.push(
                weights
                    .iter()
                    .zip(&relaxed.per_task_utility)
                    .map(|(w, u)| w * u)
                    .collect::<Vec<f64>>(),
            );
            tracer.close(parts);
        }
        let utility = merge_in_order(&full_parts, &order)?;
        let relaxed = merge_in_order(&relaxed_parts, &order)?;
        tracer.close(root);
        let streamed = traced.queries.get(slot).copied().unwrap_or((f64::NAN, 0.0));
        if utility.to_bits() != streamed.0.to_bits() || relaxed.to_bits() != streamed.1.to_bits() {
            return Err(format!(
                "replayed UTILITY? after slot {slot} = ({utility}, {relaxed}), the router \
                 answered ({}, {})",
                streamed.0, streamed.1
            ));
        }
    }

    // The replay must end in the very cut the router snapshotted.
    let cut = render_cut(&partition, &scenario_text, &ops, &engines);
    if cut != traced.snapshot {
        return Err("the replayed composite snapshot differs from the router's".to_string());
    }
    replay.engine_marginals = engines
        .iter()
        .map(|e| u128::from(e.metrics().oracle_marginals))
        .sum();
    replay.engine_messages = engines.iter().map(|e| u128::from(e.stats().messages)).sum();
    Ok(replay)
}

/// Per-layer metrics of the traced run, and the layer accounting report.
fn per_layer(
    tracer: &Tracer,
    traced: &Session,
    replay: &Replay,
    untraced: &Values,
    traced_e2e: &Values,
    notes: &mut Vec<String>,
) -> Values {
    let self_ns = tracer.self_times_ns();
    // Self time per (operation kind, layer), nanoseconds.
    let mut layer_ns: std::collections::BTreeMap<(&'static str, &'static str), u128> =
        Default::default();
    let spans = tracer.spans();
    let kind_of = |mut index: usize| -> &'static str {
        while let Some(parent) = spans[index].parent {
            index = parent;
        }
        spans[index].name
    };
    for (index, span) in spans.iter().enumerate() {
        if span.parent.is_some() && !span.name.starts_with("replay.") {
            *layer_ns.entry((kind_of(index), span.name)).or_default() += u128::from(self_ns[index]);
        }
    }
    let count = |kind: OpKind| {
        traced
            .client_spans
            .iter()
            .filter(|(k, _)| *k == kind)
            .count()
    };
    let (submits, ticks, queries) = (
        count(OpKind::Submit),
        count(OpKind::Tick),
        count(OpKind::Query),
    );
    let per = |kind: &'static str, layer: &'static str, n: usize, unit_ns: f64| -> f64 {
        layer_ns.get(&(kind, layer)).copied().unwrap_or(0) as f64 / n.max(1) as f64 / unit_ns
    };
    let mean_rtt = |kind: OpKind| -> f64 {
        let rtts: Vec<f64> = traced
            .client_spans
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, index)| spans[*index].duration_ns() as f64)
            .collect();
        mean(&rtts)
    };
    const US: f64 = 1e3;
    const MS: f64 = 1e6;
    let export = &traced.export;
    let server_submit_us = server_mean_us(export, "SUBMIT");
    let server_tick_us = server_mean_us(export, "TICK");
    let server_query_us = server_mean_us(export, "UTILITY?");

    let mut v = Values::new();
    v.insert(
        "engine.submit_us",
        per("client.submit", "engine.submit", submits, US),
    );
    v.insert(
        "engine.tick_ms",
        per("client.tick", "engine.tick", ticks, MS),
    );
    let per_tick = |ns: u128| ns as f64 / ticks.max(1) as f64 / MS;
    v.insert("engine.coverage_ms", per_tick(replay.coverage_ns));
    v.insert("engine.instance_ms", per_tick(replay.instance_ns));
    v.insert("engine.negotiation_ms", per_tick(replay.negotiation_ns));
    v.insert("engine.rounding_ms", per_tick(replay.rounding_ns));
    v.insert("engine.oracle_marginals", replay.engine_marginals as f64);
    v.insert("engine.negotiation_messages", replay.engine_messages as f64);
    v.insert(
        "shard.utility_parts_ms",
        per("client.query", "shard.utility_parts", queries, MS),
    );
    v.insert(
        "model.coverage_build_ms",
        per("client.query", "model.coverage_build", queries, MS),
    );
    v.insert(
        "model.eval_ms",
        per("client.query", "model.eval", queries, MS),
    );
    v.insert(
        "wal.append_us",
        per("client.submit", "wal.append", submits, US),
    );
    v.insert("wal.fsync_ms", per("client.tick", "wal.fsync", ticks, MS));
    let per_checkpoint =
        |layer: &'static str| per("client.tick", layer, replay.auto_checkpoints as usize, MS);
    v.insert(
        "wal.checkpoint_render_ms",
        per_checkpoint("wal.checkpoint_render"),
    );
    v.insert(
        "wal.checkpoint_write_ms",
        per_checkpoint("wal.checkpoint_write"),
    );
    v.insert("wal.records", replay.wal_records as f64);
    v.insert("wal.fsyncs", replay.wal_fsyncs as f64);
    v.insert("wal.checkpoints", replay.checkpoints as f64);
    v.insert("wal.log_bytes", replay.log_bytes as f64);
    v.insert("wal.checkpoint_bytes", replay.checkpoint_bytes as f64);
    let parse_ns: u128 = ["client.submit", "client.tick", "client.query"]
        .iter()
        .map(|kind| layer_ns.get(&(*kind, "proto.parse")).copied().unwrap_or(0))
        .sum();
    v.insert(
        "proto.parse_us",
        parse_ns as f64 / replay.parsed_lines.max(1) as f64 / US,
    );
    v.insert("router.submit_server_us", server_submit_us);
    v.insert("router.tick_server_ms", server_tick_us / 1e3);
    v.insert("router.query_server_ms", server_query_us / 1e3);
    let rtt_submit_us = mean_rtt(OpKind::Submit) / US;
    v.insert("wire.submit_us", rtt_submit_us - server_submit_us);

    // Layer accounting: client RTT = wire + named layer self times +
    // unattributed, per operation kind.
    for account in &ACCOUNTS {
        let kind = account.kind;
        let n = count(kind);
        let rtt = mean_rtt(kind) / account.unit_ns;
        let server = server_mean_us(export, kind.opcode()) * US / account.unit_ns;
        let mut line = format!(
            "layers {}: n={n} rtt={rtt:.4}{} wire={:.4}",
            kind.opcode(),
            account.unit,
            rtt - server
        );
        let mut named = 0.0;
        for layer in account.layers {
            let t = per(kind.client_span(), layer, n, account.unit_ns);
            named += t;
            line.push_str(&format!(" {layer}={t:.4}"));
        }
        let rest = server - named;
        line.push_str(&format!(
            " unattributed={rest:.4} ({:.1}% of rtt)",
            100.0 * rest / rtt.max(1e-12)
        ));
        notes.push(line);
        v.insert(account.unattributed, rest);
        v.insert(account.share, rest / rtt.max(1e-12));
    }
    crate::fill_layer_defaults(&mut v);
    crate::insert_overhead(&mut v, untraced, traced_e2e, notes);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{service_spec, Size, Workload};

    #[test]
    fn eq10_bounds_both_sides() {
        let rho = 1.0 / 12.0;
        assert!(check_eq10(10.0, 10.0, rho).is_ok());
        assert!(check_eq10(9.5, 10.0, rho).is_ok());
        assert!(check_eq10(10.5, 10.0, rho).is_err());
        assert!(check_eq10(9.0, 10.0, rho).is_err());
        assert!(check_eq10(f64::NAN, 10.0, rho).is_err());
    }

    #[test]
    fn the_gate_rejects_a_tampered_replay() {
        let spec = service_spec(Workload::Replan, Size::Smoke).expect("a service workload");
        let inputs = generate(&spec, 5);
        let rho = inputs.scenario.rho;
        let session = run_session(&spec, &inputs, None, None).expect("smoke session");
        let (streamed, _) = session.final_utility();
        assert!(streamed > 0.0);
        let replayed = merged_replay(&session.snapshot).expect("replay");
        gate(streamed, replayed, &session.queries, rho).expect("an honest run passes");

        // A replay value one ulp off is a different result.
        let nudged = f64::from_bits(replayed.to_bits() + 1);
        assert!(gate(streamed, nudged, &session.queries, rho).is_err());

        // A tampered trace: every task in the shard sections re-weighted.
        let tampered: String = session
            .snapshot
            .lines()
            .map(|line| match line.strip_suffix(" 1") {
                Some(head) if line.starts_with("task ") => format!("{head} 2\n"),
                _ => format!("{line}\n"),
            })
            .collect();
        assert_ne!(tampered, session.snapshot);
        let replayed = merged_replay(&tampered).expect("the tampered document still parses");
        assert!(gate(streamed, replayed, &session.queries, rho).is_err());

        // A utility read outside Eq. 10.
        let reads = [(2.0, 1.0)];
        let honest = merged_replay(&session.snapshot).expect("replay");
        assert!(gate(streamed, honest, &reads, rho).is_err());
    }
}
