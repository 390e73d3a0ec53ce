//! The sharded router: per-tenant shard fleets behind one listener,
//! in-process or supervised child processes, with **elastic resharding**.
//!
//! The router owns one shard per cell of a [`Partition`] (rect tiling
//! with a charger-reach halo). `LOAD` splits the scenario into per-cell
//! sub-scenarios — rejecting unpartitionable inputs with
//! `ERR unpartitionable` — and `SUBMIT` routes each task to the shard
//! owning its device position through a versioned [`RoutingMap`].
//! `TICK` and `UTILITY?` fan out to every shard of the session's
//! tenant; `SHARDS?` and `EXPORT?` span all tenants.
//!
//! **Multi-tenancy.** Each tenant owns a full routing universe: its own
//! partition, shard fleet, routing map, accepted-operation history, and
//! (optionally) a per-slot admission quota. `TENANT <id> [<quota>]`
//! binds a connection's session to a tenant; `LOAD` creates the tenant
//! on first use (spawning its fleet in process mode), and every other
//! stateful verb on a never-created tenant fails with
//! `ERR unknown-tenant`. The `default` tenant always exists, so the
//! single-tenant protocol of earlier versions works unchanged. Tenants
//! share nothing but the listener and the router mutex, so two tenants'
//! runs are bit-identical to each running alone.
//!
//! **Elastic resharding.** `RESHARD SPLIT <cell>` / `RESHARD MERGE <a>
//! <b>` change the session tenant's topology *live*: the new partition
//! is validated (halo invariants, charger reach), replacement shards for
//! the affected cell(s) are built off to the side — baseline sub-scenario
//! load plus a replay of the tenant's accepted-operation history — and
//! the routing map swaps atomically under the router mutex, bumping its
//! version. Unaffected shards are untouched. Because replay repeats
//! exactly the accepted submissions and ticks in arrival order, and
//! localized replanning is per-cell-deterministic, the rebuilt cells'
//! engine state is bitwise what a fresh run under the new partition
//! would have produced — so global utility is bit-identical across the
//! swap (DESIGN.md §13 has the full argument). A per-cell submission
//! gauge can trigger splits automatically
//! ([`RouterConfig::split_threshold`]).
//!
//! **Deployment modes.** By default every shard is an in-process
//! [`Shard`]. With [`RouterConfig::process`] set, each shard instead
//! lives in a spawned `haste-shardd` child reached over localhost TCP
//! (see [`crate::supervisor`]): same protocol, same bits — the wire
//! round-trips floats losslessly — plus a real failure domain per cell.
//! The launcher is retained, so tenants created later and reshard
//! children spawn the same way. Fault-plan directives bind to the cells
//! that exist at startup; shards spawned later carry no directives.
//!
//! **Failure model (out-of-process).** A child crash, hang past the
//! per-request deadline, or injected fault marks its shard *down*; the
//! router keeps serving. Submissions routed to a down cell fail with
//! `ERR unavailable <cell> ...`; `TICK` advances the healthy shards in
//! lockstep and journals the slots a down shard misses. At the start of
//! each tick step the supervisor restarts down children and replays
//! their last baseline (the loaded sub-scenario or last committed
//! `SNAPSHOT` section) plus the journal of acked operations — engine
//! determinism makes the rebuilt state bit-identical, so a recovered
//! cell rejoins the lockstep exactly where the router believes it is.
//! `SHARDS?` reports each shard as `up`, `restarting`, or `degraded`
//! (recovered after ≥1 restart); `EXPORT?` counts restarts, replayed
//! operations, and currently-down shards.
//!
//! **Bit-equivalence contract.** With localized replanning
//! ([`OnlineConfig::localized`](haste_distributed::OnlineConfig)) the
//! negotiation of Alg. 3 never crosses a partition boundary, so each
//! shard's schedule is bitwise the restriction of the single-engine
//! schedule. The router reconstructs the single engine's totals exactly:
//! it records the **global arrival order** of tasks (initial release-0
//! tasks, then staged releases and live submissions as slots open) and
//! sums per-task `wⱼ·Uⱼ` terms in that order — the same addends in the
//! same sequence as the single engine's evaluator, hence the same bits.
//! Arrival order is stored as device *positions*, so it survives cell
//! renumbering: owners are re-derived from the current partition on
//! every merge.
//!
//! **Consistent cut.** All request handling serializes on one router
//! mutex and `TICK` advances every shard in lockstep inside it — the
//! per-shard replans of one slot run *concurrently* (scoped
//! `haste-parallel` threads in-process; concurrently-issued child
//! requests out-of-process), but the router joins them all before its
//! clock moves, so between requests all healthy shards still sit at the
//! router's virtual slot and the pipelining is invisible to every other
//! request. `SNAPSHOT` (under that mutex) therefore captures a trivially
//! consistent cut; it requires every shard up (a down shard's state is
//! mid-replay by definition) and, once the composite document is
//! assembled, commits each section as its shard's new replay baseline.
//! Resharding runs under the same mutex, so a migration is always a
//! between-ticks cut too. The composite document restores
//! bit-identically, into the tenant it names.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use haste_distributed::{OnlineConfig, OnlineEngine, TaskSpec};
use haste_geometry::{Angle, Vec2};
use haste_model::{
    io as model_io, CellRect, ChargerId, Partition, PartitionError, RoutingMap, Scenario, Schedule,
};
use parking_lot::Mutex;

use crate::client::Client;
use crate::framing::BatchAck;
use crate::front::{finite, text_submission, Endpoint, Running};
use crate::proto::{ErrCode, Refusal, Reply, Request};
use crate::server::{hello_reply, parts_payload, shard_err, shard_line, slot_reply};
use crate::shard::{Shard, ShardError, ShardHealth, ShardStatus, UtilityParts};
use crate::supervisor::{
    resolve_shardd, Launcher, ProcessShardConfig, RemoteShard, ShardSlot, SlotError,
};
use crate::telemetry::{self, SupervisorCounters, Telemetry, TenantCounters, WalTelemetry};
use crate::wal::{self, TenantWal, WalConfig, WalRecord, WalSync};

/// Magic first line of a composite router snapshot.
const COMPOSITE_MAGIC: &str = "# haste-router snapshot v3";

/// The tenant every connection starts bound to; it exists from startup,
/// so single-tenant clients never need `TENANT`.
const DEFAULT_TENANT: &str = "default";

/// Configuration of a router instance.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address; use port 0 to let the OS pick.
    pub addr: String,
    /// Connection-handler threads (the connection cap, as for the plain
    /// daemon).
    pub worker_threads: usize,
    /// Admission bound per shard: submissions per open slot before
    /// `ERR overload`.
    pub max_pending: usize,
    /// Scheduling configuration for every shard's engine. Bit-equivalence
    /// with a single-engine run requires `localized: true` here and on the
    /// reference daemon.
    pub scheduling: OnlineConfig,
    /// Initial partition grid as `(cells_x, cells_y)`; one shard per
    /// cell. Every tenant starts on this grid; resharding departs from it
    /// per tenant.
    pub cells: (usize, usize),
    /// Field origin `(x, y)` in meters.
    pub origin: (f64, f64),
    /// Field extent `(width, height)` in meters.
    pub field: (f64, f64),
    /// `Some` runs every shard as a supervised `haste-shardd` child
    /// process instead of in-process (see the module docs' failure
    /// model); `None` is the original in-process mode.
    pub process: Option<ProcessShardConfig>,
    /// `Some(addr)` additionally binds a plain-HTTP scrape listener that
    /// answers any `GET` with the router's `EXPORT?` exposition text
    /// (Prometheus-style). `None` disables it; `EXPORT?` on the wire
    /// protocol is always available.
    pub metrics_addr: Option<String>,
    /// `Some(n)`: at each `TICK`, a cell that accepted more than `n`
    /// submissions during the closing slot is split automatically (best
    /// effort — an unsplittable cell keeps its load). `None` disables
    /// the trigger; `RESHARD SPLIT` always works.
    pub split_threshold: Option<u64>,
    /// `Some` makes the router durable: every tenant mutation is framed
    /// into a per-tenant write-ahead log under the configured directory,
    /// checkpointed through the composite-snapshot machinery, and at
    /// startup every tenant found there is recovered bit-identically
    /// before the first connection is accepted. `None` is the original
    /// in-memory router.
    pub wal: Option<WalConfig>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            worker_threads: 64,
            max_pending: 4096,
            scheduling: OnlineConfig::default(),
            cells: (2, 1),
            origin: (0.0, 0.0),
            field: (200.0, 100.0),
            process: None,
            metrics_addr: None,
            split_threshold: None,
            wal: None,
        }
    }
}

/// One entry of a tenant's accepted-operation history: exactly the
/// state-changing operations the router acked since `LOAD`, in arrival
/// order. Replaying this history into a freshly loaded cell rebuilds its
/// engine bit-identically (engine determinism + localized replanning),
/// which is how live migration reconstructs the children of a split or
/// the union cell of a merge. Rejected submissions are *not* recorded:
/// they changed no state, and a child cell's pending set is a subset of
/// its parent's at every prefix, so replaying only acceptances can never
/// hit an admission bound the original run did not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HistOp {
    /// An accepted live submission (`SUBMIT` or one `OP_BATCH` record).
    Submit(TaskSpec),
    /// One lockstep tick.
    Tick,
}

/// Everything one tenant owns: its shard fleet, partition, versioned
/// routing map, accepted-operation history, global arrival bookkeeping,
/// and admission quota. Arrival order and the staged-release plan store
/// device *positions* — owners are derived from the current partition on
/// demand, so they survive cell renumbering across resharding.
struct TenantCore {
    shards: Vec<ShardSlot>,
    /// Built at `LOAD`/`RESTORE` (the halo is the scenario's radius).
    partition: Option<Partition>,
    /// Versioned cell → shard assignment; bumped on every reshard.
    map: RoutingMap,
    /// The loaded scenario, kept verbatim: reshard baselines re-split it.
    scenario: Option<Scenario>,
    /// Accepted-operation history since `LOAD` (see [`HistOp`]).
    ops: Vec<HistOp>,
    /// Device position of every materialized task, in global arrival
    /// order. Shard-local task ids follow by per-shard counting.
    order: Vec<Vec2>,
    /// Staged tasks not yet released: `(release_slot, position)` in the
    /// single engine's injection order (stable by release slot).
    plan: VecDeque<(usize, Vec2)>,
    /// Time-grid length, for merging schedules.
    slots: usize,
    /// The tenant's virtual clock. This is the authority — healthy shards
    /// follow it in lockstep, and a down shard rejoins *to it* by replay —
    /// so it stays correct even while children are dead.
    clock: usize,
    /// Per-slot accepted-submission cap; `None` is unlimited.
    quota: Option<u64>,
    /// Accepted submissions in the currently open slot.
    quota_used: u64,
    /// Accepted submissions per cell in the currently open slot — the
    /// elastic-split load trigger.
    cell_submits: Vec<u64>,
    /// Tenant-labeled counters (reshards, quota rejections).
    counters: TenantCounters,
}

impl TenantCore {
    fn new(shards: Vec<ShardSlot>, quota: Option<u64>, counters: TenantCounters) -> TenantCore {
        let cells = shards.len();
        TenantCore {
            shards,
            partition: None,
            map: RoutingMap::identity(cells.max(1)),
            scenario: None,
            ops: Vec::new(),
            order: Vec::new(),
            plan: VecDeque::new(),
            slots: 0,
            clock: 0,
            quota,
            quota_used: 0,
            cell_submits: vec![0; cells],
            counters,
        }
    }

    /// Appends to `order` every planned staged release for slots up to and
    /// including `clock` (the single engine injects staged tasks the
    /// moment their slot opens, before any live submission of that slot).
    fn drain_plan(&mut self, clock: usize) {
        while let Some(&(slot, pos)) = self.plan.front() {
            if slot > clock {
                break;
            }
            self.order.push(pos);
            self.plan.pop_front();
        }
    }

    /// Whether the tenant's grid still has open slots.
    fn open(&self) -> bool {
        self.clock < self.slots
    }
}

/// One durable tenant's log handle. `Poisoned` is the fail-stop state: a
/// log write failed after its operation was already applied, so the
/// router can no longer promise recovery equals the acked history — the
/// tenant stays readable, every further mutation is refused, and only a
/// restart (recovery from the last durable state) or a `RESTORE` (which
/// re-creates the log wholesale) clears it. This is divergence-safe: the
/// applied-but-unlogged operation was NACKed and is the tenant's last
/// mutation ever, so the durable state never silently forks from the
/// acked one.
enum WalHandle {
    Open(TenantWal),
    Poisoned,
}

/// Mutable router state: every tenant's universe, under one mutex.
struct RouterCore {
    /// Tenant id → tenant state. `BTreeMap` so cross-tenant fan-outs
    /// (`SHARDS?`, `EXPORT?`) iterate in a stable order.
    tenants: BTreeMap<String, TenantCore>,
    /// Tenant id → open write-ahead log. Populated only on a durable
    /// router ([`RouterConfig::wal`]), and only for tenants with state
    /// (`LOAD`/`RESTORE` create the entry; recovery re-opens it). Lives
    /// beside `tenants` under the same mutex so the log order is exactly
    /// the apply order.
    wals: BTreeMap<String, WalHandle>,
}

/// The durability runtime of one router: the `--wal-dir` configuration
/// plus the pre-resolved `haste_wal_*` hot-path histograms.
struct WalRuntime {
    config: WalConfig,
    telemetry: WalTelemetry,
}

/// State shared by every connection of one router.
struct RouterShared {
    core: Mutex<RouterCore>,
    config: RouterConfig,
    shutdown: AtomicBool,
    telemetry: Telemetry,
    /// Retained in process mode so tenants created after startup and
    /// reshard children spawn the same `haste-shardd` fleet; `None` in
    /// in-process mode.
    launcher: Option<Launcher>,
    /// `Some` on a durable router (see [`RouterConfig::wal`]).
    wal: Option<WalRuntime>,
}

/// Per-connection session state: which tenant the connection is bound
/// to, plus a quota remembered from a `TENANT` naming a not-yet-created
/// tenant (applied when `LOAD` creates it).
struct Session {
    tenant: String,
    pending_quota: Option<u64>,
}

impl Default for Session {
    fn default() -> Session {
        Session {
            tenant: DEFAULT_TENANT.to_string(),
            pending_quota: None,
        }
    }
}

impl Endpoint for RouterShared {
    /// The connection's tenant binding. A `RefCell` because the framed
    /// loop hands the session to two closures (text and batch frames).
    type Session = RefCell<Session>;

    fn execute(
        &self,
        request: Request,
        payload: &str,
        session: &RefCell<Session>,
    ) -> Result<Reply, Reply> {
        execute(request, payload, self, session)
    }

    fn execute_batch(&self, specs: &[TaskSpec], session: &RefCell<Session>) -> Vec<BatchAck> {
        execute_batch(specs, self, session)
    }

    fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    fn shutdown(&self) -> &AtomicBool {
        &self.shutdown
    }
}

/// A running router. Dropping the handle shuts it down and joins its
/// threads.
pub struct RouterHandle {
    addr: SocketAddr,
    running: Running<RouterShared>,
}

impl RouterHandle {
    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The number of shards the initial grid gives every tenant.
    pub fn shards(&self) -> usize {
        let cells = self.running.endpoint().config.cells;
        cells.0 * cells.1
    }

    /// Blocks until the accept loop exits (i.e. forever, unless another
    /// thread signals shutdown). For foreground daemon binaries.
    pub fn join(mut self) {
        self.running.wait();
    }

    /// Signals shutdown and joins the accept loop and all handlers.
    pub fn shutdown(mut self) {
        self.running.stop();
    }
}

/// Starts a router and returns its handle. Mirrors [`crate::serve`] but
/// owns per-tenant shard fleets instead of one engine. With
/// [`RouterConfig::process`] set this spawns one `haste-shardd` child per
/// cell of the default tenant before binding; a launch failure aborts
/// startup (there is no state to recover yet — supervision begins once
/// the fleet is up). The launcher is retained for tenants created later.
pub fn serve_router(config: RouterConfig) -> std::io::Result<RouterHandle> {
    if config.cells.0 == 0 || config.cells.1 == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "router needs at least one cell per axis",
        ));
    }
    let num_shards = config.cells.0 * config.cells.1;
    let router_telemetry = Telemetry::new();
    let mut launcher = None;
    let shards: Vec<ShardSlot> = match &config.process {
        None => (0..num_shards)
            .map(|_| ShardSlot::Local(Shard::new(config.scheduling.clone(), config.max_pending)))
            .collect(),
        Some(process) => {
            if !config.scheduling.failures.is_empty() {
                // Charger-failure injection mutates engine internals the
                // wire protocol does not carry; it stays in-process.
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "charger failure injection is not supported with out-of-process shards",
                ));
            }
            let plan = process.fault_plan.clone().unwrap_or_default();
            if let Some(cell) = plan.cells().into_iter().find(|&cell| cell >= num_shards) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!(
                        "fault plan targets cell {cell}, but the router has {num_shards} shards"
                    ),
                ));
            }
            let program = resolve_shardd(process.shardd.as_deref())?;
            let spawner = Launcher::new(
                program,
                &config.scheduling,
                config.max_pending,
                process.effective_deadline(),
            );
            let mut shards = Vec::with_capacity(num_shards);
            for cell in 0..num_shards {
                shards.push(ShardSlot::Remote(RemoteShard::launch(
                    cell,
                    spawner.clone(),
                    plan.for_cell(cell),
                    SupervisorCounters::for_cell(router_telemetry.registry(), cell),
                )?));
            }
            launcher = Some(spawner);
            shards
        }
    };
    let mut tenants = BTreeMap::new();
    tenants.insert(
        DEFAULT_TENANT.to_string(),
        TenantCore::new(
            shards,
            None,
            TenantCounters::for_tenant(router_telemetry.registry(), DEFAULT_TENANT),
        ),
    );
    TenantCounters::set_shards(router_telemetry.registry(), DEFAULT_TENANT, num_shards);
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    // Bind the scrape listener before spawning anything, so a bad
    // `metrics_addr` aborts startup instead of failing silently later.
    let metrics_listener = match &config.metrics_addr {
        Some(scrape_addr) => Some(TcpListener::bind(scrape_addr)?),
        None => None,
    };
    let wal_runtime = match &config.wal {
        None => None,
        Some(wal_config) => {
            std::fs::create_dir_all(&wal_config.dir)?;
            Some(WalRuntime {
                config: wal_config.clone(),
                telemetry: WalTelemetry::new(router_telemetry.registry()),
            })
        }
    };
    let shared = Arc::new(RouterShared {
        core: Mutex::new(RouterCore {
            tenants,
            wals: BTreeMap::new(),
        }),
        config: config.clone(),
        shutdown: AtomicBool::new(false),
        telemetry: router_telemetry,
        launcher,
        wal: wal_runtime,
    });
    // Durable startup: recover every tenant the WAL directory holds —
    // newest checkpoint plus log-tail replay — before the accept thread
    // exists, so the first connection already sees the recovered state.
    // (The listener is bound; early connectors wait in its backlog.)
    recover_from_wal(&shared)?;
    let mut running = Running::new(shared);
    running.serve("haste-router-accept", listener, config.worker_threads)?;
    if let Some(listener) = metrics_listener {
        running.serve_with(
            "haste-router-metrics",
            listener,
            SCRAPE_DEADLINE,
            SCRAPE_DEADLINE,
            move |stream| {
                let _ = serve_scrape(stream, addr);
            },
        )?;
    }
    Ok(RouterHandle { addr, running })
}

/// Every socket deadline on the HTTP scrape path — the scraper-facing
/// stream (both directions) and the internal dial back into the router's
/// protocol port. One constant so the whole scrape is uniformly bounded.
const SCRAPE_DEADLINE: Duration = Duration::from_secs(5);

/// Answers one HTTP scrape: any `GET` gets the router's `EXPORT?`
/// exposition as `200 text/plain`. The handler dials the router's own
/// protocol port as an ordinary client, so the scrape sees exactly the
/// document wire clients see (merged child registries included) and the
/// HTTP layer stays a dozen lines: request head + headers in, one
/// `Content-Length`-framed response out, connection closed.
fn serve_scrape(stream: TcpStream, router: SocketAddr) -> std::io::Result<()> {
    serve_scrape_with(stream, router, SCRAPE_DEADLINE)
}

/// [`serve_scrape`] with the deadline injectable, so tests can exercise
/// the wedged-router path in milliseconds instead of [`SCRAPE_DEADLINE`].
fn serve_scrape_with(
    stream: TcpStream,
    router: SocketAddr,
    deadline: Duration,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(deadline))?;
    stream.set_write_timeout(Some(deadline))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut head = String::new();
    reader.read_line(&mut head)?;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 || header.trim_end().is_empty() {
            break;
        }
    }
    let mut writer = BufWriter::new(stream);
    if !head.starts_with("GET ") {
        writer.write_all(
            b"HTTP/1.1 405 Method Not Allowed\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        )?;
        return writer.flush();
    }
    // The inner dial carries the same deadline end to end: a wedged
    // router (or one that accepts and never greets) turns into a prompt
    // `503` with the timeout in the body, never a hung scrape thread.
    let body =
        Client::connect_with_deadline(router, Some(deadline)).and_then(|mut conn| conn.export());
    match body {
        Ok(body) => {
            writer.write_all(
                format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n",
                    body.len()
                )
                .as_bytes(),
            )?;
            writer.write_all(body.as_bytes())?;
        }
        Err(e) => {
            let detail = format!("scrape failed: {e}\n");
            writer.write_all(
                format!(
                    "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n",
                    detail.len()
                )
                .as_bytes(),
            )?;
            writer.write_all(detail.as_bytes())?;
        }
    }
    writer.flush()
}

/// Executes a batched submission on the router: one lock acquisition,
/// the same [`writable`] gate as `SUBMIT`, then per record the exact
/// `SUBMIT` path — finiteness check, quota gate, cell routing, shard
/// admission, and a push onto the tenant's arrival order and operation
/// history. Holding the lock across the whole frame means the batch
/// occupies a contiguous run of the arrival order, but any interleaving
/// with other connections' submissions would be equally valid: within a
/// slot the recorded order *is* the determinism contract, exactly as for
/// text submits racing on separate connections. A gate refusal or a
/// failed log append refuses every record.
fn execute_batch(
    specs: &[TaskSpec],
    shared: &RouterShared,
    session: &RefCell<Session>,
) -> Vec<BatchAck> {
    let tenant_id = session.borrow().tenant.clone();
    let mut core = shared.core.lock();
    let mut records: Vec<WalRecord> = Vec::new();
    let acks = writable(&mut core, &tenant_id).map(|tenant| {
        specs
            .iter()
            .map(|spec| {
                // A non-finite record never reaches the tenant: nothing to log.
                let spec = match finite(*spec) {
                    Ok(spec) => spec,
                    Err(refusal) => return refusal.into(),
                };
                // haste-lint: allow(L2) — lockstep contract: `core` serializes shard traffic so global arrival order stays bit-identical; the child request is deadline-bounded
                let routed = submit_routed(tenant, &tenant_id, spec, shared);
                records.push(admission_record(&routed, spec));
                match routed {
                    Ok((global, release, _shard)) => BatchAck::Ok {
                        task: global as u64,
                        release: release as u64,
                    },
                    Err(refusal) => refusal.into(),
                }
            })
            .collect::<Vec<_>>()
    });
    // The whole frame is durable or none of it is acked: a record acked
    // as applied but missing from the log would not survive recovery.
    match acks.and_then(|acks| wal_append(&mut core, shared, &tenant_id, &records).map(|()| acks)) {
        Ok(acks) => acks,
        Err(refusal) => specs.iter().map(|_| refusal.clone().into()).collect(),
    }
}

/// Maps a partition failure onto the wire error space: geometry/split
/// violations are the client's scenario-vs-topology mismatch.
fn partition_err(e: PartitionError) -> Refusal {
    (ErrCode::Unpartitionable, e.to_string())
}

/// Maps a shard-slot failure onto the wire error space. Structured child
/// errors pass through with their original code; a down shard becomes
/// `ERR unavailable` with the cell index leading the message, so clients
/// can tell *which* cell is degraded without a `SHARDS?` round trip.
fn slot_err(e: SlotError) -> Refusal {
    match e {
        SlotError::Shard(e) => shard_err(e),
        SlotError::Remote { code, message } => (code, message),
        SlotError::Unavailable { cell, detail } => {
            (ErrCode::Unavailable, format!("{cell} shard down: {detail}"))
        }
    }
}

fn internal(reason: &str) -> Refusal {
    (ErrCode::Internal, reason.to_string())
}

/// The stable text of a refusal, for recovery error reporting.
fn refusal_text((code, message): Refusal) -> String {
    format!("{} {message}", code.as_str())
}

/// The tenant-existence gate: the session's tenant, or
/// `ERR unknown-tenant`.
fn known<'a>(core: &'a mut RouterCore, id: &str) -> Result<&'a mut TenantCore, Refusal> {
    match core.tenants.get_mut(id) {
        Some(tenant) => Ok(tenant),
        None => Err((
            ErrCode::UnknownTenant,
            format!("tenant `{id}` does not exist (LOAD creates it)"),
        )),
    }
}

/// The refusal every mutation of a tenant in the fail-stop state gets
/// (see [`WalHandle`]).
fn read_only(id: &str) -> Refusal {
    internal(&format!(
        "tenant `{id}` is read-only: its write-ahead log failed; restart the router to recover, or RESTORE a snapshot"
    ))
}

/// Refuses a mutation of a tenant whose log is in the fail-stop state.
fn refuse_read_only(core: &RouterCore, id: &str) -> Result<(), Refusal> {
    match core.wals.get(id) {
        Some(WalHandle::Poisoned) => Err(read_only(id)),
        _ => Ok(()),
    }
}

/// The mutation gate (`SUBMIT`, batches, `TICK`, `RESHARD`): a read-only
/// tenant is refused first, then an unknown one (DESIGN.md §9).
fn writable<'a>(core: &'a mut RouterCore, id: &str) -> Result<&'a mut TenantCore, Refusal> {
    refuse_read_only(core, id)?;
    known(core, id)
}

/// The engine gate (`CLOCK?`, `TICK`): the tenant must hold a scenario.
/// Chained after [`known`] or [`writable`], so an unknown tenant is
/// refused before a not-loaded one.
fn loaded(tenant: &mut TenantCore) -> Result<&mut TenantCore, Refusal> {
    match tenant.partition {
        Some(_) => Ok(tenant),
        None => Err(shard_err(ShardError::NoScenario)),
    }
}

/// Builds one empty shard slot for cell index `cell`: in-process, or a
/// freshly spawned `haste-shardd` child via the retained launcher. New
/// slots carry no fault directives — the fault plan bound to the cells
/// that existed at startup.
fn fresh_slot(shared: &RouterShared, cell: usize) -> Result<ShardSlot, Refusal> {
    match &shared.launcher {
        None => Ok(ShardSlot::Local(Shard::new(
            shared.config.scheduling.clone(),
            shared.config.max_pending,
        ))),
        Some(launcher) => RemoteShard::launch(
            cell,
            launcher.clone(),
            Vec::new(),
            SupervisorCounters::for_cell(shared.telemetry.registry(), cell),
        )
        .map(ShardSlot::Remote)
        .map_err(|e| internal(&format!("spawning a shard child failed: {e}"))),
    }
}

/// The session's tenant for `LOAD`, created with an empty fleet on the
/// configured grid if it does not exist yet (`TENANT` only selects). A
/// quota parked by `TENANT` applies only to a tenant created here, where
/// the `LOAD`'s checkpoint makes it durable; on a tenant that already
/// exists (another connection created it) it would hold in memory with
/// no log record behind it, so it is dropped.
fn ensure_tenant<'a>(
    core: &'a mut RouterCore,
    shared: &RouterShared,
    id: &str,
    quota: Option<u64>,
) -> Result<&'a mut TenantCore, Refusal> {
    if !core.tenants.contains_key(id) {
        let count = shared.config.cells.0 * shared.config.cells.1;
        let shards = (0..count)
            .map(|cell| fresh_slot(shared, cell))
            .collect::<Result<Vec<_>, _>>()?;
        let counters = TenantCounters::for_tenant(shared.telemetry.registry(), id);
        core.tenants
            .insert(id.to_string(), TenantCore::new(shards, quota, counters));
        TenantCounters::set_shards(shared.telemetry.registry(), id, count);
    }
    known(core, id)
}

/// The shared `SUBMIT` path (text and batch): quota gate, cell routing
/// through the tenant's routing map, shard admission, then the
/// bookkeeping pushes — arrival order (position), operation history,
/// quota usage, and the per-cell submission gauge that feeds the
/// elastic-split trigger.
fn submit_routed(
    tenant: &mut TenantCore,
    tenant_id: &str,
    spec: TaskSpec,
    shared: &RouterShared,
) -> Result<(usize, usize, usize), Refusal> {
    let Some(partition) = tenant.partition.as_ref() else {
        return Err(shard_err(ShardError::NoScenario));
    };
    if let Some(quota) = tenant.quota {
        if tenant.quota_used >= quota {
            tenant.counters.quota_rejected.inc();
            return Err((
                ErrCode::Quota,
                format!(
                    "tenant `{tenant_id}` exhausted its quota of {quota} submissions this slot"
                ),
            ));
        }
    }
    let cell = partition.cell_of(spec.device_pos);
    let shard_index = tenant.map.shard_of(cell) as usize;
    let outcome = match tenant.shards.get(shard_index) {
        Some(shard) => shard.submit(spec),
        None => Err(SlotError::Shard(ShardError::NoScenario)),
    };
    match outcome {
        Ok((_local, release)) => {
            let global = tenant.order.len();
            tenant.order.push(spec.device_pos);
            tenant.ops.push(HistOp::Submit(spec));
            tenant.quota_used += 1;
            if let Some(count) = tenant.cell_submits.get_mut(cell) {
                *count += 1;
            }
            if tenant_id == DEFAULT_TENANT {
                telemetry::count_cell_submit(shared.telemetry.registry(), cell);
            }
            Ok((global, release, shard_index))
        }
        Err(e) => Err(slot_err(e)),
    }
}

/// The log record of one admission decision: an accepted submission
/// replays; a rejection is logged so the decision itself is durable.
fn admission_record<T>(routed: &Result<T, Refusal>, spec: TaskSpec) -> WalRecord {
    match routed {
        Ok(_) => WalRecord::Submit(spec),
        Err((code, _)) => WalRecord::Reject {
            code: code.as_str().to_string(),
            spec,
        },
    }
}

/// Puts a durable tenant into the fail-stop state (see [`WalHandle`])
/// after its log failed at `what`, and returns the refusal every further
/// mutation of it gets.
fn poison(core: &mut RouterCore, tenant_id: &str, what: &str, e: std::io::Error) -> Refusal {
    eprintln!(
        "haste-router: {what} for tenant `{tenant_id}` failed ({e}); the tenant is now read-only"
    );
    core.wals.insert(tenant_id.to_string(), WalHandle::Poisoned);
    read_only(tenant_id)
}

/// Logs already-applied operations to a durable tenant's WAL, fsyncing
/// per the configured policy (`always`, or `every-tick` when the batch
/// carries a slot close). `Ok` when the operations are as durable as the
/// policy promises — including the vacuous cases (no WAL configured,
/// tenant has no log yet). On a write or sync failure the tenant's log
/// poisons (fail-stop; see [`WalHandle`]) and the caller must reply with
/// the refusal *instead of* the success ack, because an
/// acked-but-unlogged mutation would survive in memory but not in
/// recovery.
fn wal_append(
    core: &mut RouterCore,
    shared: &RouterShared,
    tenant_id: &str,
    records: &[WalRecord],
) -> Result<(), Refusal> {
    let Some(runtime) = shared.wal.as_ref() else {
        return Ok(());
    };
    if records.is_empty() {
        return Ok(());
    }
    let Some(WalHandle::Open(tenant_wal)) = core.wals.get_mut(tenant_id) else {
        // No log yet (tenant not loaded — nothing durable to protect) or
        // poisoned (the gate already refused the mutation up front).
        return Ok(());
    };
    let start = telemetry::clock_start();
    let appended = tenant_wal.append(records);
    runtime
        .telemetry
        .append
        .observe(telemetry::elapsed_us(start));
    let synced = appended.and_then(|()| {
        let must_sync = match runtime.config.sync {
            WalSync::Always => true,
            WalSync::EveryTick => records
                .iter()
                .any(|record| matches!(record, WalRecord::Tick)),
        };
        if must_sync {
            let start = telemetry::clock_start();
            let result = tenant_wal.sync();
            runtime
                .telemetry
                .fsync
                .observe(telemetry::elapsed_us(start));
            result
        } else {
            Ok(())
        }
    });
    synced.map_err(|e| poison(core, tenant_id, "wal append", e))
}

/// Creates (or wholesale re-creates) a durable tenant's log and writes
/// its first checkpoint — the `LOAD`/`RESTORE` invariant: a tenant with
/// state always has a checkpoint, so its log tail only ever carries
/// post-load operations and recovery always has a scenario to start
/// from. A composite failure (a down shard) propagates untouched; a file
/// failure poisons the tenant (the state was already installed but
/// cannot be made durable).
fn wal_install(
    core: &mut RouterCore,
    shared: &RouterShared,
    tenant_id: &str,
) -> Result<(), Refusal> {
    let Some(runtime) = shared.wal.as_ref() else {
        return Ok(());
    };
    match TenantWal::create(&runtime.config.dir, tenant_id) {
        Ok(tenant_wal) => core
            .wals
            .insert(tenant_id.to_string(), WalHandle::Open(tenant_wal)),
        Err(e) => return Err(poison(core, tenant_id, "creating the wal", e)),
    };
    let text = composite_snapshot(known(core, tenant_id)?, tenant_id)?;
    wal_checkpoint(core, shared, tenant_id, &text)
}

/// Installs `text` — the tenant's composite consistent-cut document,
/// rendered by the exact code path the operator-facing `SNAPSHOT` verb
/// uses — as a durable tenant's checkpoint, atomically, and truncates the
/// log behind it. A no-op without an open log; a file failure poisons
/// the tenant. The one checkpoint writer: `LOAD`/`RESTORE`, `SNAPSHOT`
/// and the automatic trigger all come through here.
fn wal_checkpoint(
    core: &mut RouterCore,
    shared: &RouterShared,
    tenant_id: &str,
    text: &str,
) -> Result<(), Refusal> {
    let quota = core.tenants.get(tenant_id).and_then(|tenant| tenant.quota);
    let Some(WalHandle::Open(tenant_wal)) = core.wals.get_mut(tenant_id) else {
        return Ok(());
    };
    tenant_wal
        .checkpoint(text, quota)
        .map_err(|e| poison(core, tenant_id, "checkpoint", e))?;
    WalTelemetry::count_checkpoint(shared.telemetry.registry(), tenant_id);
    Ok(())
}

/// The automatic checkpoint trigger, attempted at slot close: once a
/// durable tenant's log accumulated [`WalConfig::checkpoint_every`]
/// records, take a checkpoint. Best effort — a composite failure (e.g. a
/// shard is down mid-restart) skips this attempt and the threshold
/// re-arms at the next tick; a file failure poisons the tenant (via
/// [`wal_checkpoint`]) but leaves the already-durable tick acked.
fn maybe_wal_checkpoint(core: &mut RouterCore, shared: &RouterShared, tenant_id: &str) {
    let Some(runtime) = shared.wal.as_ref() else {
        return;
    };
    let every = runtime.config.checkpoint_every;
    let due = every > 0
        && matches!(
            core.wals.get(tenant_id),
            Some(WalHandle::Open(tenant_wal)) if tenant_wal.ops_since_checkpoint >= every
        );
    let text = match core.tenants.get(tenant_id) {
        Some(tenant) if due => composite_snapshot(tenant, tenant_id),
        _ => return,
    };
    if let Ok(text) = text {
        let _ = wal_checkpoint(core, shared, tenant_id, &text);
    }
}

/// Replays one log record into a recovered tenant through the *live*
/// request paths, so replay determinism is the router's ordinary
/// determinism. Rejected submissions and checkpoint markers replay as
/// no-ops: neither ever mutated tenant state (rejections are logged so
/// the admission decision is durable; orphaned markers belong to
/// checkpoints that never finished installing).
fn apply_wal_record(
    core: &mut RouterCore,
    shared: &RouterShared,
    tenant_id: &str,
    record: &WalRecord,
) -> Result<(), String> {
    let Some(tenant) = core.tenants.get_mut(tenant_id) else {
        return Err("tenant vanished mid-recovery".to_string());
    };
    let op = match record {
        WalRecord::Reject { .. } | WalRecord::Checkpoint { .. } => return Ok(()),
        WalRecord::Quota(q) => {
            tenant.quota = Some(*q);
            return Ok(());
        }
        WalRecord::Submit(spec) => {
            return submit_routed(tenant, tenant_id, *spec, shared)
                .map(drop)
                .map_err(|refusal| {
                    format!(
                        "logged-accepted submit re-rejected: {}",
                        refusal_text(refusal)
                    )
                })
        }
        WalRecord::Tick => {
            return tick_lockstep(tenant, 1, &shared.telemetry)
                .map(drop)
                .map_err(refusal_text)
        }
        WalRecord::ReshardSplit(cell) => ReshardOp::Split(*cell),
        WalRecord::ReshardMerge(a, b) => ReshardOp::Merge(*a, *b),
    };
    reshard(tenant, tenant_id, op, shared)
        .map(drop)
        .map_err(refusal_text)
}

/// Durable startup: recovers every tenant found in the WAL directory —
/// `RESTORE` the newest checkpoint through the ordinary composite path,
/// then replay the log tail through the live request paths, then re-open
/// the log (truncated at the last valid CRC boundary) for appending.
/// Runs before the accept thread exists, so recovery is single-threaded
/// under one lock hold and no connection can observe a half-recovered
/// tenant. A tenant whose checkpoint or tail fails to apply is skipped
/// with a warning (its files are left on disk for inspection) rather
/// than failing startup — the other tenants' durability should not be
/// hostage to one corrupt directory entry.
fn recover_from_wal(shared: &Arc<RouterShared>) -> std::io::Result<()> {
    let Some(runtime) = shared.wal.as_ref() else {
        return Ok(());
    };
    let recovered = wal::recover_dir(&runtime.config.dir)?;
    let mut core = shared.core.lock();
    for entry in recovered {
        // haste-lint: allow(L2) — startup-only recovery before the accept thread exists; per-cell work is deadline-bounded
        let restored = match restore_composite_state(&mut core, shared, &entry.checkpoint) {
            Ok(restored) => restored,
            Err(refusal) => {
                eprintln!(
                    "haste-router: skipping recovery of tenant `{}`: bad checkpoint: {}",
                    entry.tenant,
                    refusal_text(refusal)
                );
                continue;
            }
        };
        if restored.tenant != entry.tenant {
            eprintln!(
                "haste-router: skipping recovery of `{}`: its checkpoint names tenant `{}`",
                entry.tenant, restored.tenant
            );
            core.tenants.remove(&restored.tenant);
            continue;
        }
        if let Some(reason) = &entry.truncated {
            eprintln!(
                "haste-router: tenant `{}` log tail torn ({reason}); truncating to the last valid record",
                entry.tenant
            );
        }
        let mut replay_failed = false;
        for record in &entry.tail {
            // haste-lint: allow(L2) — startup-only replay before the accept thread exists; child requests are deadline-bounded
            if let Err(reason) = apply_wal_record(&mut core, shared, &entry.tenant, record) {
                eprintln!(
                    "haste-router: skipping recovery of tenant `{}`: log replay failed: {reason}",
                    entry.tenant
                );
                core.tenants.remove(&entry.tenant);
                replay_failed = true;
                break;
            }
        }
        if replay_failed {
            continue;
        }
        // haste-lint: allow(L2) — startup-only local file I/O before the accept thread exists
        let tenant_wal = TenantWal::open_recovered(
            &runtime.config.dir,
            &entry.tenant,
            entry.valid_len,
            entry.tail.len(),
        )?;
        core.wals
            .insert(entry.tenant.clone(), WalHandle::Open(tenant_wal));
        WalTelemetry::count_recovery(
            shared.telemetry.registry(),
            &entry.tenant,
            entry.tail.len() as u64,
        );
        eprintln!(
            "haste-router: recovered tenant `{}` at slot {} (replayed {} logged ops)",
            entry.tenant,
            restored.slot,
            entry.tail.len()
        );
    }
    // Connections start bound to the default tenant, which always exists
    // on a fresh router. If its recovery was skipped above (and removed
    // the half-restored entry), put back an empty fleet so the startup
    // contract holds.
    // haste-lint: allow(L2) — startup-only rebuild before the accept thread exists; child spawns are deadline-bounded
    if let Err(refusal) = ensure_tenant(&mut core, shared, DEFAULT_TENANT, None) {
        eprintln!(
            "haste-router: rebuilding the default tenant after a failed recovery failed: {}",
            refusal_text(refusal)
        );
    }
    Ok(())
}

/// Executes one parsed request for the connection's session tenant.
/// Every refusal has one constructor and propagates with `?`; the gates
/// check in a fixed order — read-only, then unknown tenant, then no
/// scenario (DESIGN.md §9).
fn execute(
    request: Request,
    payload: &str,
    shared: &RouterShared,
    session: &RefCell<Session>,
) -> Result<Reply, Reply> {
    let config = &shared.config;
    let tenant_id = session.borrow().tenant.clone();
    Ok(match request {
        Request::Hello(version) => {
            let core = shared.core.lock();
            let shards = core
                .tenants
                .get(&tenant_id)
                .map(|tenant| tenant.shards.len())
                .unwrap_or(config.cells.0 * config.cells.1);
            hello_reply(&version, shards, config.cells)
        }
        Request::Tenant { id, quota } => {
            let mut core = shared.core.lock();
            if quota.is_some() {
                refuse_read_only(&core, &id)?;
            }
            let mut session = session.borrow_mut();
            session.tenant = id.clone();
            let quota = match core.tenants.get_mut(&id) {
                // Selecting never creates: the quota waits for the `LOAD`
                // that will create this tenant.
                None => {
                    session.pending_quota = quota;
                    quota
                }
                // The tenant exists: a quota applies (and is logged)
                // immediately, and any quota parked from an earlier
                // `TENANT` is moot.
                Some(tenant) => {
                    session.pending_quota = None;
                    let current = quota.or(tenant.quota);
                    if let Some(q) = quota {
                        tenant.quota = quota;
                        wal_append(&mut core, shared, &id, &[WalRecord::Quota(q)])?;
                    }
                    current
                }
            };
            match quota {
                Some(q) => Reply::Ok(format!("tenant={id} quota={q}")),
                None => Reply::Ok(format!("tenant={id}")),
            }
        }
        Request::Load(_) => {
            let pending_quota = session.borrow_mut().pending_quota.take();
            let mut core = shared.core.lock();
            refuse_read_only(&core, &tenant_id)?;
            // haste-lint: allow(L2) — spawning the tenant's fleet is deadline-bounded per child; `core` must be held so no request observes a half-created tenant
            let tenant = ensure_tenant(&mut core, shared, &tenant_id, pending_quota)?;
            // haste-lint: allow(L2) — per-cell LOADs are deadline-bounded; `core` must be held so no request observes a half-partitioned scenario
            let reply = load_scenario_text(tenant, &tenant_id, shared, payload)?;
            // A freshly loaded tenant starts durable from a checkpoint, so
            // the log tail only ever carries post-load operations.
            // haste-lint: allow(L2) — durability point: the checkpoint must land before LOAD is acked; `core` must be held so no request observes a non-durable loaded tenant
            wal_install(&mut core, shared, &tenant_id)?;
            reply
        }
        Request::Submit {
            x,
            y,
            facing,
            end_slot,
            energy,
            weight,
        } => {
            let spec = text_submission(x, y, facing, end_slot, energy, weight)?;
            let mut core = shared.core.lock();
            let tenant = writable(&mut core, &tenant_id)?;
            // haste-lint: allow(L2) — lockstep contract: `core` serializes shard traffic so global arrival order stays bit-identical; the child request is deadline-bounded
            let routed = submit_routed(tenant, &tenant_id, spec, shared);
            wal_append(
                &mut core,
                shared,
                &tenant_id,
                &[admission_record(&routed, spec)],
            )?;
            let (global, release, shard) = routed?;
            Reply::Ok(format!("task={global} release={release} shard={shard}"))
        }
        Request::Tick(n) => {
            let mut core = shared.core.lock();
            let tenant = writable(&mut core, &tenant_id).and_then(loaded)?;
            // The load trigger fires between slots: a cell whose closing
            // slot ran hot is split before the clock moves (best effort).
            // haste-lint: allow(L2) — the migration must be one consistent between-ticks cut under `core`; each child call is deadline-bounded
            let split = maybe_auto_split(tenant, &tenant_id, shared);
            let before = tenant.clock;
            // haste-lint: allow(L2) — the lockstep pipelines deadline-bounded TICKs across cells under `core`; interleaving another request mid-round would fork the clock
            let outcome = tick_lockstep(tenant, n, &shared.telemetry);
            // Log what actually happened — an auto-split and every slot
            // that closed — even when a later step of a multi-slot TICK
            // failed: the clock moved for the completed steps.
            let closed = tenant.clock - before;
            let mut records = Vec::with_capacity(closed + 1);
            records.extend(split.map(WalRecord::ReshardSplit));
            records.extend(std::iter::repeat_n(WalRecord::Tick, closed));
            wal_append(&mut core, shared, &tenant_id, &records)?;
            let (slot, open) = outcome?;
            // The slot closed cleanly — the moment the automatic
            // checkpoint threshold is checked.
            // haste-lint: allow(L2) — durability point: the automatic checkpoint must land before the TICK ack; per-cell snapshots are deadline-bounded
            maybe_wal_checkpoint(&mut core, shared, &tenant_id);
            slot_reply(slot, open)
        }
        Request::Clock => {
            let mut core = shared.core.lock();
            let tenant = known(&mut core, &tenant_id).and_then(loaded)?;
            // The tenant clock is authoritative (healthy shards track it
            // in lockstep; down shards rejoin to it), so CLOCK? answers
            // even while children are restarting.
            slot_reply(tenant.clock, tenant.open())
        }
        Request::Schedule => {
            let mut core = shared.core.lock();
            let tenant = known(&mut core, &tenant_id)?;
            // haste-lint: allow(L2) — merge must read every cell at one consistent clock; each child SCHEDULE? is deadline-bounded
            Reply::Data(model_io::write_schedule(&merged_schedule(tenant)?))
        }
        Request::Utility => {
            let mut core = shared.core.lock();
            let tenant = known(&mut core, &tenant_id)?;
            // haste-lint: allow(L2) — merge must read every cell at one consistent clock; each child PARTS? is deadline-bounded
            let parts = merged_parts(tenant)?;
            // Sequential left-to-right sums over the arrival order: the
            // single engine's exact addend sequence.
            let utility: f64 = parts.full.iter().sum();
            let relaxed: f64 = parts.relaxed.iter().sum();
            Reply::Ok(format!("utility={utility} relaxed={relaxed}"))
        }
        Request::Parts => {
            let mut core = shared.core.lock();
            let tenant = known(&mut core, &tenant_id)?;
            // haste-lint: allow(L2) — merge must read every cell at one consistent clock; each child PARTS? is deadline-bounded
            Reply::Data(parts_payload(&merged_parts(tenant)?))
        }
        Request::Export => {
            let core = shared.core.lock();
            let mut snap = shared.telemetry.registry().snapshot();
            // Engine families and the down gauge come from the status view,
            // uniformly across deployment modes and tenants; the router
            // renders them itself so child engine series are never
            // double-counted.
            let mut merged = ShardStatus::default();
            let mut down = 0u64;
            let mut saw_status = false;
            for tenant in core.tenants.values() {
                for shard in &tenant.shards {
                    // haste-lint: allow(L2) — deadline-bounded STATUS? per cell; a down shard answers from its cache instead of blocking the scrape
                    if let Ok((status, health, _restarts, _replay)) = shard.status_view() {
                        merged.absorb(&status);
                        saw_status = true;
                        if health == ShardHealth::Restarting {
                            down += 1;
                        }
                    }
                }
            }
            if saw_status {
                telemetry::engine_snapshot(&merged, &mut snap);
            }
            snap.set_gauge("haste_supervisor_down_shards", &[], u128::from(down));
            // Out-of-process children carry their own registries: fetch
            // each child's exposition, keep only its service-side request
            // series, rename them into the shard-scoped families, and
            // merge bucket-wise. A down or unparsable child contributes
            // nothing this scrape; counters resume after its rejoin.
            for tenant in core.tenants.values() {
                for shard in &tenant.shards {
                    // haste-lint: allow(L2) — deadline-bounded EXPORT? per cell; a down child contributes nothing this scrape rather than wedging it
                    if let Some(Ok(document)) = shard.export_document() {
                        if let Ok(mut child) = haste_metrics::Snapshot::parse(&document) {
                            child.retain_prefix("haste_service_");
                            child.rename_prefix("haste_service_", "haste_shard_");
                            snap.merge(child);
                        }
                    }
                }
            }
            Reply::Data(snap.render())
        }
        Request::Shards => {
            let core = shared.core.lock();
            // haste-lint: allow(L2) — deadline-bounded STATUS? per cell under one `core` hold so SHARDS? reports a consistent cut
            Reply::Data(shards_payload(&core)?)
        }
        Request::Snapshot => {
            let mut core = shared.core.lock();
            let tenant = known(&mut core, &tenant_id)?;
            // haste-lint: allow(L2) — per-cell SNAP?s are deadline-bounded; `core` held so the composite is one consistent clock cut
            let text = composite_snapshot(tenant, &tenant_id)?;
            // An operator SNAPSHOT doubles as a durability checkpoint,
            // written from the very bytes of this reply — the `.ckpt`
            // file and the operator's copy can never drift.
            wal_checkpoint(&mut core, shared, &tenant_id, &text)?;
            Reply::Data(text)
        }
        Request::Restore(_) => {
            let mut core = shared.core.lock();
            // haste-lint: allow(L2) — per-cell RESTOREs are deadline-bounded; `core` held so no request observes a half-restored composite
            restore_composite(&mut core, shared, payload)?
        }
        Request::ReshardSplit(cell) => reshard_live(shared, &tenant_id, ReshardOp::Split(cell))?,
        Request::ReshardMerge(a, b) => reshard_live(shared, &tenant_id, ReshardOp::Merge(a, b))?,
        Request::Bye => Reply::Ok("bye".to_string()),
    })
}

/// `RESHARD SPLIT`/`RESHARD MERGE` on the session tenant: the live
/// migration, then its log record.
fn reshard_live(shared: &RouterShared, tenant_id: &str, op: ReshardOp) -> Result<Reply, Refusal> {
    let mut core = shared.core.lock();
    let tenant = writable(&mut core, tenant_id)?;
    // haste-lint: allow(L2) — the migration must be one consistent between-ticks cut: children are rebuilt and swapped in under `core`, each child call deadline-bounded
    let (cells, version) = reshard(tenant, tenant_id, op, shared)?;
    let record = match op {
        ReshardOp::Split(cell) => WalRecord::ReshardSplit(cell),
        ReshardOp::Merge(a, b) => WalRecord::ReshardMerge(a, b),
    };
    wal_append(&mut core, shared, tenant_id, &[record])?;
    Ok(Reply::Ok(format!("cells={cells} map={version}")))
}

/// The `SHARDS?` payload: one line per shard of every loaded tenant, in
/// tenant order, each carrying the tenant id and the routing-map version
/// that currently serves it. Cell coordinates come from the base grid
/// while the tenant still sits on one; after a split the tiling is no
/// longer a uniform grid and cells are numbered linearly as `(i, 0)`.
fn shards_payload(core: &RouterCore) -> Result<String, Refusal> {
    let mut payload = String::new();
    let mut any = false;
    for (tenant_id, tenant) in &core.tenants {
        let Some(partition) = tenant.partition.as_ref() else {
            continue;
        };
        any = true;
        let grid = partition.base_grid();
        for (index, shard) in tenant.shards.iter().enumerate() {
            match shard.status_view() {
                Ok((status, health, restarts, replay)) => {
                    let cell = match grid {
                        Some((gx, _)) => (index % gx, index / gx),
                        None => (index, 0),
                    };
                    payload.push_str(&shard_line(
                        index,
                        cell,
                        &status,
                        health,
                        restarts,
                        replay,
                        tenant_id,
                        tenant.map.version(),
                    ));
                }
                Err(e) => return Err(slot_err(e)),
            }
        }
    }
    if !any {
        return Err(shard_err(ShardError::NoScenario));
    }
    Ok(payload)
}

/// `LOAD` on a tenant: parse, partition, split, install per-cell
/// engines, and record the global bookkeeping (release-0 arrival order,
/// staged release plan, the scenario itself for reshard baselines).
/// Totals come from the split itself (each charger and task belongs to
/// exactly one cell), so the reply is correct even if a child shard is
/// down — its baseline is recorded and the first tick's rejoin pass
/// replays the load into a fresh child.
fn load_scenario_text(
    tenant: &mut TenantCore,
    tenant_id: &str,
    shared: &RouterShared,
    payload: &str,
) -> Result<Reply, Refusal> {
    if tenant.partition.is_some() {
        return Err(shard_err(ShardError::AlreadyLoaded));
    }
    let scenario = model_io::read_scenario(payload)
        .map_err(|e| (ErrCode::BadRequest, format!("bad scenario: {e}")))?;
    let config = &shared.config;
    let partition = Partition::grid(
        Vec2::new(config.origin.0, config.origin.1),
        config.field.0,
        config.field.1,
        config.cells.0,
        config.cells.1,
        scenario.params.radius,
    )
    .map_err(partition_err)?;
    partition
        .validate_chargers(&scenario)
        .map_err(partition_err)?;
    let cells = partition.split(&scenario).map_err(partition_err)?;
    let mut total_chargers = 0;
    let mut total_staged = 0;
    for (shard, cell) in tenant.shards.iter().zip(cells) {
        total_chargers += cell.chargers.len();
        total_staged += cell.tasks.len();
        match shard.load_scenario(cell) {
            Ok(()) => {}
            // A down child shard: the supervisor holds the sub-scenario
            // as its baseline, so the rejoin replay loads it later.
            Err(SlotError::Unavailable { .. }) => {}
            // `split` validated every sub-scenario, so a structured
            // failure here is a router bug; surface it without
            // half-initialized routing state (RESTORE recovers).
            Err(e) => return Err(slot_err(e)),
        }
    }
    let (order, plan, _clock) = rebuild_bookkeeping(&scenario, &[]);
    tenant.order = order;
    tenant.plan = plan;
    tenant.slots = scenario.grid.num_slots;
    tenant.clock = 0;
    tenant.ops = Vec::new();
    tenant.map = RoutingMap::identity(tenant.shards.len());
    tenant.quota_used = 0;
    tenant.cell_submits = vec![0; tenant.shards.len()];
    tenant.partition = Some(partition);
    tenant.scenario = Some(scenario);
    TenantCounters::set_shards(shared.telemetry.registry(), tenant_id, tenant.shards.len());
    // Slot-0 fault directives mature the moment the grid opens.
    for shard in &tenant.shards {
        shard.apply_slot_faults(0);
    }
    Ok(Reply::Ok(format!(
        "chargers={total_chargers} staged={total_staged} slots={} shards={}",
        tenant.slots,
        tenant.shards.len()
    )))
}

/// Advances one tenant's lockstep one slot at a time, releasing staged
/// arrivals into the global order as their slots open. Down shards do
/// not stall the fleet: each step first gives them a rejoin (restart +
/// replay to the tenant clock), then ticks every shard, *pipelined*; a
/// shard that is still down has the missed slot journaled so its
/// eventual replay catches up, and fault directives for the newly opened
/// slot mature last. Closing a slot resets the quota usage and the
/// per-cell submission counts (they measure the closing slot only).
///
/// **Pipelined negotiation.** The per-shard `tick1` calls of one step run
/// concurrently on scoped `haste-parallel` threads: every [`ShardSlot`]
/// ticks through `&self` behind its own interior lock (an in-process
/// shard's engine mutex; an out-of-process shard's connection state, so a
/// remote step is a concurrently-issued child request under the usual
/// per-request deadline). The join below is the consistent-cut barrier —
/// the tenant clock, the staged-release plan, and slot faults advance
/// only after *every* shard has finished (or missed) the slot, so between
/// requests all healthy shards still sit at the tenant's virtual slot.
/// Replanning is per-shard-deterministic and shards share no state, so
/// thread interleaving cannot reach any output bits; tick outcomes are
/// processed sequentially in shard order, keeping error reporting
/// deterministic too (DESIGN.md §11 has the full argument).
fn tick_lockstep(
    tenant: &mut TenantCore,
    n: usize,
    router_telemetry: &Telemetry,
) -> Result<(usize, bool), Refusal> {
    if !tenant.open() {
        return Err(shard_err(ShardError::AtHorizon));
    }
    for _ in 0..n {
        if !tenant.open() {
            break;
        }
        for shard in &tenant.shards {
            shard.rejoin(tenant.clock);
        }
        let step_start = telemetry::clock_start();
        let outcomes = haste_parallel::par_map(&tenant.shards, tenant.shards.len(), |_, shard| {
            let replan_start = telemetry::clock_start();
            let outcome = shard.tick1();
            (outcome, telemetry::elapsed_us(replan_start))
        });
        // The join above is the consistent-cut barrier: a shard's wait is
        // the gap between its own replan finishing and the whole step.
        let step_us = telemetry::elapsed_us(step_start);
        for (index, (shard, (outcome, replan_us))) in tenant.shards.iter().zip(outcomes).enumerate()
        {
            let cell_label = index.to_string();
            let registry = router_telemetry.registry();
            registry
                .histogram_with("haste_router_tick_replan_duration_us", "cell", &cell_label)
                .observe(replan_us);
            registry
                .histogram_with("haste_router_join_wait_duration_us", "cell", &cell_label)
                .observe((step_us - replan_us).max(0.0));
            match outcome {
                Ok((slot, _open)) => {
                    if slot != tenant.clock + 1 {
                        return Err(internal(&format!(
                            "lockstep broken: shard at slot {slot} after ticking from {}",
                            tenant.clock
                        )));
                    }
                }
                Err(SlotError::Unavailable { .. }) => shard.note_missed_tick(),
                Err(e) => return Err(slot_err(e)),
            }
        }
        tenant.clock += 1;
        tenant.ops.push(HistOp::Tick);
        tenant.drain_plan(tenant.clock);
        tenant.quota_used = 0;
        for count in &mut tenant.cell_submits {
            *count = 0;
        }
        for shard in &tenant.shards {
            shard.apply_slot_faults(tenant.clock);
        }
    }
    Ok((tenant.clock, tenant.open()))
}

/// The elastic-split load trigger: if any cell accepted more than
/// [`RouterConfig::split_threshold`] submissions during the closing slot,
/// split the first such cell. Best effort — an unsplittable hot cell
/// (too thin, a charger too close to the midline) keeps its load and the
/// trigger re-arms next slot. Returns the cell that was actually split,
/// if any, so the caller can journal the topology change: recovery
/// replays the *logged* split rather than re-running this heuristic
/// (whose per-slot submission counters don't survive a restart).
fn maybe_auto_split(
    tenant: &mut TenantCore,
    tenant_id: &str,
    shared: &RouterShared,
) -> Option<usize> {
    let threshold = shared.config.split_threshold?;
    let hot = tenant.cell_submits.iter().position(|&n| n > threshold)?;
    reshard(tenant, tenant_id, ReshardOp::Split(hot), shared)
        .ok()
        .map(|_| hot)
}

/// A live topology change.
#[derive(Debug, Clone, Copy)]
enum ReshardOp {
    Split(usize),
    Merge(usize, usize),
}

/// Live migration: split one cell in two, or merge two adjacent cells,
/// without touching any other shard. Runs entirely under the router
/// mutex, so the whole migration is one between-ticks consistent cut.
///
/// Phase 1 builds the replacement shard(s) *off to the side*: the new
/// partition re-splits the loaded scenario into per-cell baselines, the
/// affected cell(s) get fresh shards loaded with their baselines, and the
/// tenant's accepted-operation history replays into them in arrival
/// order (ticks tick every rebuilt child; submissions route by the *new*
/// partition and land only in rebuilt cells). Accepted-only replay never
/// re-rejects: a child cell's pending set is a subset of its parent's at
/// every prefix. Any failure aborts with the live topology untouched
/// (dropped spawned children are killed by their supervisor guard).
///
/// Phase 2 swaps atomically: surviving shards are renumbered around the
/// rebuilt ones, the routing map bumps its version, and the per-cell
/// submission counters reset to the new width. DESIGN.md §13 argues why
/// the global utility is bit-identical across the swap.
fn reshard(
    tenant: &mut TenantCore,
    tenant_id: &str,
    op: ReshardOp,
    shared: &RouterShared,
) -> Result<(usize, u64), Refusal> {
    let (Some(partition), Some(scenario)) = (tenant.partition.as_ref(), tenant.scenario.as_ref())
    else {
        return Err(shard_err(ShardError::NoScenario));
    };
    let new_partition = match op {
        ReshardOp::Split(cell) => partition.split_cell(cell),
        ReshardOp::Merge(a, b) => partition.merge_cells(a, b),
    }
    .map_err(partition_err)?;
    if matches!(op, ReshardOp::Split(_)) {
        // A split introduces a new interior boundary; every charger's
        // reach must still stay inside its (possibly shrunken) cell.
        // Merging only removes boundaries, so it never needs this.
        new_partition
            .validate_chargers(scenario)
            .map_err(partition_err)?;
    }
    let baselines = new_partition.split(scenario).map_err(partition_err)?;
    let new_count = new_partition.num_cells();
    // New cell index → surviving old shard index; `None` marks the
    // rebuilt cell(s). Split(c): children take c and c+1, later cells
    // shift up. Merge(a, b): the union takes min(a, b), later cells
    // shift down.
    let old_of: Vec<Option<usize>> = match op {
        ReshardOp::Split(cell) => (0..new_count)
            .map(|j| {
                if j < cell {
                    Some(j)
                } else if j <= cell + 1 {
                    None
                } else {
                    Some(j - 1)
                }
            })
            .collect(),
        ReshardOp::Merge(a, b) => {
            let (lo, hi) = (a.min(b), a.max(b));
            (0..new_count)
                .map(|j| {
                    if j == lo {
                        None
                    } else if j < hi {
                        Some(j)
                    } else {
                        Some(j + 1)
                    }
                })
                .collect()
        }
    };
    // Validate the remap before touching live state: every surviving
    // reference must be unique and in range, so the swap below is
    // infallible once the old fleet is drained. (Old shards nothing
    // references — the split parent, the merged pair — are retired when
    // they drop; a remote child's guard kills its process.)
    {
        let mut seen = vec![false; tenant.shards.len()];
        for entry in old_of.iter().flatten() {
            if *entry >= seen.len() || seen[*entry] {
                return Err(internal("reshard remap is not injective"));
            }
            seen[*entry] = true;
        }
    }
    // Phase 1: build and rebuild the replacement shard(s) off to the
    // side. `children` pairs each fresh slot with its new cell index.
    let mut children: Vec<(usize, ShardSlot)> = Vec::new();
    for (j, old) in old_of.iter().enumerate() {
        if old.is_none() {
            children.push((j, fresh_slot(shared, j)?));
        }
    }
    for (j, child) in &children {
        let Some(baseline) = baselines.get(*j).cloned() else {
            return Err(internal("reshard lost a cell baseline"));
        };
        child.load_scenario(baseline).map_err(slot_err)?;
    }
    // Replay the accepted-operation history in arrival order. Ticks
    // advance every rebuilt child; submissions route by the *new*
    // partition and only matter if they land in a rebuilt cell.
    for histop in &tenant.ops {
        match histop {
            HistOp::Tick => {
                for (_, child) in &children {
                    child.tick1().map_err(slot_err)?;
                }
            }
            HistOp::Submit(spec) => {
                let cell = new_partition.cell_of(spec.device_pos);
                if let Some((_, child)) = children.iter().find(|(j, _)| *j == cell) {
                    child.submit(*spec).map_err(slot_err)?;
                }
            }
        }
    }
    // The rebuilt children must have landed exactly on the tenant clock.
    for (j, child) in &children {
        let (slot, _open) = child.clock().map_err(slot_err)?;
        if slot != tenant.clock {
            return Err(internal(&format!(
                "rebuilt cell {j} landed on slot {slot}, tenant clock {}",
                tenant.clock
            )));
        }
    }
    // Phase 2: the atomic swap. Everything fallible already happened.
    let mut old: Vec<Option<ShardSlot>> = tenant.shards.drain(..).map(Some).collect();
    let mut fresh = children.into_iter();
    let mut new_shards = Vec::with_capacity(new_count);
    for entry in &old_of {
        match entry {
            // haste-lint: allow(P1) — the remap was validated injective-in-range before the drain, so each old slot is taken exactly once
            Some(i) => new_shards.push(old[*i].take().expect("remap validated above")),
            None => {
                // haste-lint: allow(P1) — `children` was built with one entry per `None` in the remap, in order
                new_shards.push(fresh.next().expect("one fresh child per rebuilt cell").1)
            }
        }
    }
    for (index, shard) in new_shards.iter().enumerate() {
        shard.set_cell(index);
    }
    tenant.shards = new_shards;
    tenant.partition = Some(new_partition);
    tenant.map = tenant.map.renumbered(new_count);
    tenant.cell_submits = vec![0; new_count];
    tenant.counters.reshards.inc();
    TenantCounters::set_shards(shared.telemetry.registry(), tenant_id, new_count);
    Ok((new_count, tenant.map.version()))
}

/// Re-merges shard schedules into original charger numbering. Bitwise
/// faithful: orientations are copied, never recomputed. Charger owners
/// are derived from positions against the *current* partition, so the
/// merge is correct across any number of reshards.
fn merged_schedule(tenant: &TenantCore) -> Result<Schedule, Refusal> {
    let (Some(partition), Some(scenario)) = (tenant.partition.as_ref(), tenant.scenario.as_ref())
    else {
        return Err(shard_err(ShardError::NoScenario));
    };
    let mut shard_schedules = Vec::with_capacity(tenant.shards.len());
    for shard in &tenant.shards {
        shard_schedules.push(shard.schedule().map_err(slot_err)?);
    }
    let mut merged = Schedule::empty(scenario.chargers.len(), tenant.slots);
    let mut locals = vec![0u32; tenant.shards.len()];
    for (i, charger) in scenario.chargers.iter().enumerate() {
        let shard = tenant.map.shard_of(partition.cell_of(charger.pos)) as usize;
        let local = match locals.get_mut(shard) {
            Some(counter) => {
                let local = *counter;
                *counter += 1;
                local
            }
            None => return Err(internal("charger owner out of range")),
        };
        let Some(source) = shard_schedules.get(shard) else {
            return Err(internal("charger owner out of range"));
        };
        for slot in 0..tenant.slots {
            merged.set(
                ChargerId(i as u32),
                slot,
                source.get(ChargerId(local), slot),
            );
        }
    }
    Ok(merged)
}

/// Merges per-shard `wⱼ·Uⱼ` terms into the global arrival order — the
/// exact addend sequence of a single engine's evaluator (see module
/// docs). `UTILITY?` sums this; `PARTS?` serves it verbatim. Task owners
/// are derived from the recorded arrival *positions* against the current
/// partition, so the walk is correct across any number of reshards. The
/// shards are read concurrently, one worker each, like `tick_lockstep`;
/// the merge itself runs in shard order afterwards.
fn merged_parts(tenant: &TenantCore) -> Result<UtilityParts, Refusal> {
    let Some(partition) = tenant.partition.as_ref() else {
        return Err(shard_err(ShardError::NoScenario));
    };
    let parts = haste_parallel::par_map(&tenant.shards, tenant.shards.len(), |_, shard| {
        shard.utility_parts()
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()
    .map_err(slot_err)?;
    let mut cursors = vec![0usize; tenant.shards.len()];
    let mut full = Vec::with_capacity(tenant.order.len());
    let mut relaxed = Vec::with_capacity(tenant.order.len());
    for pos in &tenant.order {
        let shard = tenant.map.shard_of(partition.cell_of(*pos)) as usize;
        let (Some(cursor), Some(part)) = (cursors.get_mut(shard), parts.get(shard)) else {
            return Err(internal("task owner out of range"));
        };
        let (Some(full_term), Some(relaxed_term)) =
            (part.full.get(*cursor), part.relaxed.get(*cursor))
        else {
            return Err(internal("arrival order longer than shard task lists"));
        };
        full.push(*full_term);
        relaxed.push(*relaxed_term);
        *cursor += 1;
    }
    Ok(UtilityParts { full, relaxed })
}

/// Serializes one tenant's consistent cut: tenancy, routing-map version,
/// partition geometry (base grid + explicit cell rects, so post-reshard
/// tilings round-trip), the loaded scenario, the accepted-operation
/// history, and every shard's embedded engine snapshot. Every shard must
/// be up and sitting on the tenant clock (a down shard's state is
/// mid-replay by definition, so `SNAPSHOT` in degraded mode fails with
/// `ERR unavailable`). Once the document is assembled, each section is
/// committed as its shard's new replay baseline — never before, so a
/// failed snapshot moves no baseline.
fn composite_snapshot(tenant: &TenantCore, tenant_id: &str) -> Result<String, Refusal> {
    let (Some(partition), Some(scenario)) = (tenant.partition.as_ref(), tenant.scenario.as_ref())
    else {
        return Err(shard_err(ShardError::NoScenario));
    };
    let mut sections = Vec::with_capacity(tenant.shards.len());
    for shard in &tenant.shards {
        // Lockstep is an invariant (one mutex, ticks inside it); this
        // re-checks it so a corrupt snapshot can never be emitted
        // silently, and surfaces `unavailable` for down shards.
        let (slot, _open) = shard.clock().map_err(slot_err)?;
        if slot != tenant.clock {
            return Err(internal(&format!(
                "shards out of lockstep: slot={slot} vs tenant clock {}",
                tenant.clock
            )));
        }
        sections.push(shard.snapshot().map_err(slot_err)?);
    }
    let origin = partition.origin();
    let composite = CompositeSnapshot {
        tenant: tenant_id.to_string(),
        map_version: tenant.map.version(),
        grid: (partition.cells_x(), partition.cells_y()),
        origin: (origin.x, origin.y),
        field: partition.field(),
        halo: partition.halo(),
        cells: partition.cells().to_vec(),
        scenario: model_io::write_scenario(scenario),
        ops: tenant.ops.clone(),
        shards: sections.clone(),
        order: tenant
            .order
            .iter()
            .map(|pos| partition.cell_of(*pos) as u32)
            .collect(),
    };
    let text = render_composite(&composite);
    // Commit: the cut is complete, so each section becomes its shard's
    // replay baseline and the journals empty (bounding replay depth).
    for (shard, section) in tenant.shards.iter().zip(sections) {
        shard.checkpoint(&section);
    }
    Ok(text)
}

/// A parsed composite router snapshot (format v3). [`parse_composite`]
/// and [`render_composite`] are public so out-of-process tooling
/// (loadgen verification, operators) can split a composite document back
/// into per-shard engine snapshots and re-render it bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositeSnapshot {
    /// The tenant this cut belongs to (`RESTORE` targets it).
    pub tenant: String,
    /// Routing-map version at the cut.
    pub map_version: u64,
    /// Base partition grid `(cells_x, cells_y)` the tiling descends from.
    pub grid: (usize, usize),
    /// Field origin `(x, y)`.
    pub origin: (f64, f64),
    /// Field extent `(width, height)`.
    pub field: (f64, f64),
    /// Charger-reach halo width.
    pub halo: f64,
    /// The cell rects of the tiling, in cell order (not necessarily a
    /// uniform grid after resharding).
    pub cells: Vec<CellRect>,
    /// The loaded scenario, in canonical `write_scenario` text.
    pub scenario: String,
    /// The accepted-operation history since `LOAD`, in arrival order.
    pub ops: Vec<HistOp>,
    /// Each shard's embedded engine snapshot document.
    pub shards: Vec<String>,
    /// Owning shard of each materialized task, in global arrival order —
    /// **derived** at parse time from the scenario, the history, and the
    /// cell rects (not serialized; [`render_composite`] ignores it).
    pub order: Vec<u32>,
}

/// Renders a composite snapshot into the v3 wire document. Inverse of
/// [`parse_composite`]: `render(parse(text)) == text` for any document
/// `parse_composite` accepts.
pub fn render_composite(composite: &CompositeSnapshot) -> String {
    let mut text = String::new();
    text.push_str(COMPOSITE_MAGIC);
    text.push('\n');
    text.push_str(&format!("tenant {}\n", composite.tenant));
    text.push_str(&format!("map {}\n", composite.map_version));
    text.push_str(&format!("grid {} {}\n", composite.grid.0, composite.grid.1));
    text.push_str(&format!(
        "field {} {} {} {} {}\n",
        composite.origin.0,
        composite.origin.1,
        composite.field.0,
        composite.field.1,
        composite.halo
    ));
    text.push_str(&format!("cells {}\n", composite.cells.len()));
    for rect in &composite.cells {
        text.push_str(&format!(
            "{} {} {} {}\n",
            rect.x0, rect.y0, rect.x1, rect.y1
        ));
    }
    text.push_str(&format!(
        "scenario {}\n",
        composite.scenario.lines().count()
    ));
    text.push_str(&composite.scenario);
    if !composite.scenario.is_empty() && !composite.scenario.ends_with('\n') {
        text.push('\n');
    }
    text.push_str(&format!("ops {}\n", composite.ops.len()));
    for op in &composite.ops {
        match op {
            HistOp::Tick => text.push_str("tick\n"),
            HistOp::Submit(spec) => text.push_str(&format!(
                "submit {} {} {} {} {} {}\n",
                spec.device_pos.x,
                spec.device_pos.y,
                spec.device_facing.radians(),
                spec.end_slot,
                spec.required_energy,
                spec.weight
            )),
        }
    }
    for (index, snapshot) in composite.shards.iter().enumerate() {
        text.push_str(&format!("shard {index} {}\n", snapshot.lines().count()));
        text.push_str(snapshot);
        if !snapshot.is_empty() && !snapshot.ends_with('\n') {
            text.push('\n');
        }
    }
    text
}

/// The tenant-id grammar of the wire protocol (`TENANT`), shared by the
/// composite document's `tenant` line.
fn valid_tenant_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'))
}

/// Rebuilds the arrival bookkeeping a cut implies: the device positions
/// of every materialized task in global arrival order, the staged
/// releases still pending, and the clock the history has reached. Pure —
/// shared by `LOAD` (empty history), `RESTORE`, and [`parse_composite`].
fn rebuild_bookkeeping(
    scenario: &Scenario,
    ops: &[HistOp],
) -> (Vec<Vec2>, VecDeque<(usize, Vec2)>, usize) {
    let mut order: Vec<Vec2> = scenario
        .tasks
        .iter()
        .filter(|t| t.release_slot == 0)
        .map(|t| t.device_pos)
        .collect();
    let mut staged: Vec<(usize, Vec2)> = scenario
        .tasks
        .iter()
        .filter(|t| t.release_slot > 0)
        .map(|t| (t.release_slot, t.device_pos))
        .collect();
    // Stable by release slot — the exact injection order of the single
    // engine's staging queue.
    staged.sort_by_key(|&(slot, _)| slot);
    let mut plan: VecDeque<(usize, Vec2)> = staged.into();
    let mut clock = 0usize;
    for op in ops {
        match op {
            HistOp::Tick => {
                clock += 1;
                while let Some(&(slot, pos)) = plan.front() {
                    if slot > clock {
                        break;
                    }
                    order.push(pos);
                    plan.pop_front();
                }
            }
            HistOp::Submit(spec) => order.push(spec.device_pos),
        }
    }
    (order, plan, clock)
}

/// Parses a composite router snapshot document (format v3), re-deriving
/// the arrival-order owners from the scenario, the operation history,
/// and the cell rects.
pub fn parse_composite(text: &str) -> Result<CompositeSnapshot, String> {
    let mut lines = text.lines();
    if lines.next() != Some(COMPOSITE_MAGIC) {
        return Err(format!("missing magic line `{COMPOSITE_MAGIC}`"));
    }
    let tenant_line = lines.next().ok_or("truncated before tenant")?;
    let tenant = match tenant_line
        .split_whitespace()
        .collect::<Vec<_>>()
        .as_slice()
    {
        ["tenant", id] if valid_tenant_id(id) => id.to_string(),
        _ => return Err(format!("bad tenant line `{tenant_line}`")),
    };
    let map_line = lines.next().ok_or("truncated before map")?;
    let map_version = match map_line.split_whitespace().collect::<Vec<_>>().as_slice() {
        ["map", version] => version
            .parse::<u64>()
            .map_err(|_| format!("bad map version `{version}`"))?,
        _ => return Err(format!("bad map line `{map_line}`")),
    };
    let grid_line = lines.next().ok_or("truncated before grid")?;
    let grid = match grid_line.split_whitespace().collect::<Vec<_>>().as_slice() {
        ["grid", gx, gy] => (
            gx.parse::<usize>().map_err(|_| "bad grid x".to_string())?,
            gy.parse::<usize>().map_err(|_| "bad grid y".to_string())?,
        ),
        _ => return Err(format!("bad grid line `{grid_line}`")),
    };
    if grid.0 == 0 || grid.1 == 0 {
        return Err("grid must be positive".to_string());
    }
    let field_line = lines.next().ok_or("truncated before field")?;
    let field_fields = field_line.split_whitespace().collect::<Vec<_>>();
    let (origin, field, halo) = match field_fields.as_slice() {
        ["field", ox, oy, w, h, halo] => {
            let parse = |s: &str, what: &str| -> Result<f64, String> {
                s.parse::<f64>().map_err(|_| format!("bad {what} `{s}`"))
            };
            (
                (parse(ox, "origin x")?, parse(oy, "origin y")?),
                (parse(w, "field width")?, parse(h, "field height")?),
                parse(halo, "halo")?,
            )
        }
        _ => return Err(format!("bad field line `{field_line}`")),
    };
    let counted_section =
        |lines: &mut std::str::Lines<'_>, header: &str| -> Result<Vec<String>, String> {
            let head = lines
                .next()
                .ok_or_else(|| format!("truncated before {header}"))?;
            let count = match head.split_whitespace().collect::<Vec<_>>().as_slice() {
                [h, count] if *h == header => count
                    .parse::<usize>()
                    .map_err(|_| format!("bad {header} count `{count}`"))?,
                _ => return Err(format!("bad {header} line `{head}`")),
            };
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                entries.push(
                    lines
                        .next()
                        .ok_or_else(|| format!("truncated {header} section"))?
                        .to_string(),
                );
            }
            Ok(entries)
        };
    let cells = counted_section(&mut lines, "cells")?
        .iter()
        .map(|line| -> Result<CellRect, String> {
            let parse = |s: &str| -> Result<f64, String> {
                s.parse::<f64>()
                    .map_err(|_| format!("bad cell rect `{line}`"))
            };
            match line.split_whitespace().collect::<Vec<_>>().as_slice() {
                [x0, y0, x1, y1] => Ok(CellRect {
                    x0: parse(x0)?,
                    y0: parse(y0)?,
                    x1: parse(x1)?,
                    y1: parse(y1)?,
                }),
                _ => Err(format!("bad cell rect `{line}`")),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    if cells.is_empty() {
        return Err("cells must be positive".to_string());
    }
    let scenario_text = {
        let mut text = counted_section(&mut lines, "scenario")?.join("\n");
        if !text.is_empty() {
            text.push('\n');
        }
        text
    };
    let scenario = model_io::read_scenario(&scenario_text)
        .map_err(|e| format!("bad embedded scenario: {e}"))?;
    let ops = counted_section(&mut lines, "ops")?
        .iter()
        .map(|line| -> Result<HistOp, String> {
            match line.split_whitespace().collect::<Vec<_>>().as_slice() {
                ["tick"] => Ok(HistOp::Tick),
                ["submit", x, y, facing, end, energy, weight] => {
                    let parse = |s: &str| -> Result<f64, String> {
                        let value = s
                            .parse::<f64>()
                            .map_err(|_| format!("bad op line `{line}`"))?;
                        if !value.is_finite() {
                            return Err(format!("non-finite value in op line `{line}`"));
                        }
                        Ok(value)
                    };
                    Ok(HistOp::Submit(TaskSpec {
                        device_pos: Vec2::new(parse(x)?, parse(y)?),
                        device_facing: Angle::from_radians(parse(facing)?),
                        end_slot: end
                            .parse::<usize>()
                            .map_err(|_| format!("bad op line `{line}`"))?,
                        required_energy: parse(energy)?,
                        weight: parse(weight)?,
                    }))
                }
                _ => Err(format!("bad op line `{line}`")),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let num_shards = cells.len();
    let mut shards = Vec::with_capacity(num_shards);
    for expected in 0..num_shards {
        let head = lines
            .next()
            .ok_or_else(|| format!("truncated before shard {expected}"))?;
        let nlines = match head.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["shard", index, nlines] if index.parse() == Ok(expected) => nlines
                .parse::<usize>()
                .map_err(|_| format!("bad shard line count `{head}`"))?,
            _ => {
                return Err(format!(
                    "bad shard header `{head}` (expected shard {expected})"
                ))
            }
        };
        let mut snapshot = String::new();
        for _ in 0..nlines {
            snapshot.push_str(
                lines
                    .next()
                    .ok_or_else(|| format!("truncated shard {expected} snapshot"))?,
            );
            snapshot.push('\n');
        }
        shards.push(snapshot);
    }
    if lines.next().is_some() {
        return Err("trailing lines after the last shard snapshot".to_string());
    }
    // Validate the geometry as a whole and re-derive the arrival-order
    // owners (`cell_of` is total, so every derived owner is in range).
    let partition = Partition::from_rects(
        Vec2::new(origin.0, origin.1),
        field.0,
        field.1,
        halo,
        grid,
        cells.clone(),
    )
    .map_err(|e| format!("bad partition geometry: {e}"))?;
    let (positions, _plan, clock) = rebuild_bookkeeping(&scenario, &ops);
    if clock > scenario.grid.num_slots {
        return Err(format!(
            "history ticks past the horizon: clock {clock} of {} slots",
            scenario.grid.num_slots
        ));
    }
    let order = positions
        .iter()
        .map(|pos| partition.cell_of(*pos) as u32)
        .collect();
    Ok(CompositeSnapshot {
        tenant,
        map_version,
        grid,
        origin,
        field,
        halo,
        cells,
        scenario: scenario_text,
        ops,
        shards,
        order,
    })
}

/// `RESTORE` on the router, two-phase so no failure can leave a partial
/// cut behind. The document names its tenant; `RESTORE` creates that
/// tenant if needed (or rebuilds its fleet to the document's cell
/// count), then overwrites its state wholesale. Phase 1 parses the
/// composite document and restores every embedded engine *off to the
/// side*, validating the set as a whole (per section parse/validate,
/// clock consistency across the cut and against the operation history);
/// any failure returns a structured `ERR` with all live state untouched.
/// Phase 2 commits: every shard installs its restored engine
/// (in-process) or receives the snapshot text as its new baseline (child
/// process — a push failure there just marks the child down, and the
/// rejoin replay rebuilds it from that same committed baseline).
fn restore_composite(
    core: &mut RouterCore,
    shared: &RouterShared,
    payload: &str,
) -> Result<Reply, Refusal> {
    let restored = restore_composite_state(core, shared, payload)?;
    // Durable router: a restore wholesale replaces the tenant, so its log
    // starts over from a checkpoint of the restored state (this also
    // clears a poisoned log — the operator just handed us a full
    // replacement for whatever the failed log could not persist).
    wal_install(core, shared, &restored.tenant)?;
    Ok(slot_reply(restored.slot, restored.open))
}

/// What [`restore_composite_state`] installed: which tenant, at which
/// clock.
struct RestoredTenant {
    tenant: String,
    slot: usize,
    open: bool,
}

/// The state-install half of `RESTORE`, shared verbatim by the wire verb
/// and WAL recovery (recovery must not re-checkpoint or touch the log,
/// so the durability hook lives in the verb wrapper above).
fn restore_composite_state(
    core: &mut RouterCore,
    shared: &RouterShared,
    payload: &str,
) -> Result<RestoredTenant, Refusal> {
    let bad = |reason: String| (ErrCode::BadSnapshot, reason);
    let composite = parse_composite(payload).map_err(bad)?;
    let partition = Partition::from_rects(
        Vec2::new(composite.origin.0, composite.origin.1),
        composite.field.0,
        composite.field.1,
        composite.halo,
        composite.grid,
        composite.cells.clone(),
    )
    .map_err(|e| bad(e.to_string()))?;
    let scenario = model_io::read_scenario(&composite.scenario)
        .map_err(|e| bad(format!("bad embedded scenario: {e}")))?;
    let (order, plan, ops_clock) = rebuild_bookkeeping(&scenario, &composite.ops);
    if composite.shards.len() != composite.cells.len() {
        return Err(bad("shard count does not match cell count".to_string()));
    }
    // Phase 1: restore and validate every section without installing.
    let mut engines = Vec::with_capacity(composite.shards.len());
    let mut clock: Option<(usize, bool)> = None;
    let mut slots = 0;
    for (index, snapshot) in composite.shards.iter().enumerate() {
        let engine =
            OnlineEngine::restore(snapshot).map_err(|e| bad(format!("shard {index}: {e}")))?;
        let seen = (engine.clock(), !engine.is_closed());
        slots = slots.max(engine.scenario().grid.num_slots);
        match clock {
            None => clock = Some(seen),
            Some(common) if common == seen => {}
            Some(common) => {
                return Err(bad(format!(
                    "inconsistent cut: shard clocks differ ({} vs {})",
                    common.0, seen.0
                )));
            }
        }
        engines.push(engine);
    }
    let Some((slot, open)) = clock else {
        return Err(bad("snapshot has no shards".to_string()));
    };
    if slot != ops_clock {
        return Err(bad(format!(
            "inconsistent cut: operation history reaches clock {ops_clock}, shards sit at {slot}"
        )));
    }
    // The document's tenant: create it (or rebuild its fleet) to the
    // document's cell count. Fresh slots are built before any live state
    // is replaced, so a spawn failure aborts cleanly.
    let count = composite.shards.len();
    let matches_fleet = core
        .tenants
        .get(&composite.tenant)
        .map(|tenant| tenant.shards.len() == count)
        .unwrap_or(false);
    if !matches_fleet {
        let fresh = (0..count)
            .map(|cell| fresh_slot(shared, cell))
            .collect::<Result<Vec<_>, _>>()?;
        match core.tenants.get_mut(&composite.tenant) {
            Some(tenant) => tenant.shards = fresh,
            None => {
                core.tenants.insert(
                    composite.tenant.clone(),
                    TenantCore::new(
                        fresh,
                        None,
                        TenantCounters::for_tenant(shared.telemetry.registry(), &composite.tenant),
                    ),
                );
            }
        }
    }
    let Some(tenant) = core.tenants.get_mut(&composite.tenant) else {
        return Err(internal("the restored tenant vanished mid-request"));
    };
    // Phase 2: the whole cut validated — commit it everywhere.
    for ((shard, engine), snapshot) in tenant
        .shards
        .iter()
        .zip(engines)
        .zip(composite.shards.iter())
    {
        shard.install_restored(engine, snapshot);
    }
    for (index, shard) in tenant.shards.iter().enumerate() {
        shard.set_cell(index);
    }
    tenant.partition = Some(partition);
    tenant.map = RoutingMap::at_version(composite.map_version, count);
    tenant.scenario = Some(scenario);
    tenant.ops = composite.ops;
    tenant.order = order;
    tenant.plan = plan;
    tenant.slots = slots;
    tenant.clock = slot;
    tenant.quota_used = 0;
    tenant.cell_submits = vec![0; count];
    TenantCounters::set_shards(shared.telemetry.registry(), &composite.tenant, count);
    Ok(RestoredTenant {
        tenant: composite.tenant,
        slot,
        open,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;

    /// The worst wedge for the metrics shim: the inner dial connects but
    /// the "router" never greets. The scrape must come back as a prompt
    /// `503` carrying the deadline error, never hang the handler thread.
    #[test]
    fn a_wedged_router_scrape_returns_503_promptly() {
        let wedged = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let router = wedged.local_addr().expect("bound listener has an address");
        let hold = std::thread::spawn(move || {
            // Accept, then hold the socket open in silence until the
            // handler has long since given up.
            if let Ok((stream, _)) = wedged.accept() {
                std::thread::sleep(Duration::from_millis(500));
                drop(stream);
            }
        });

        let scrape = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let scrape_addr = scrape.local_addr().expect("bound listener has an address");
        let handler = std::thread::spawn(move || {
            let (stream, _) = scrape.accept().expect("scraper connects");
            serve_scrape_with(stream, router, Duration::from_millis(100))
        });

        let mut stream = TcpStream::connect(scrape_addr).expect("dial the scrape port");
        // The scraper's own read deadline doubles as the promptness
        // assertion: if the handler sat out the full 500 ms hold (or
        // hung), this read would time out and fail the test.
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("set the scrape read deadline");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
            .expect("send the scrape request");
        let mut response = String::new();
        stream
            .read_to_string(&mut response)
            .expect("the 503 arrives before the scraper deadline");

        assert!(
            response.starts_with("HTTP/1.1 503 "),
            "expected 503, got {response:?}"
        );
        assert!(
            response.contains("request deadline expired"),
            "body names the timeout: {response:?}"
        );
        handler
            .join()
            .expect("handler thread")
            .expect("handler completes the 503 write");
        hold.join().expect("hold thread");
    }
}
