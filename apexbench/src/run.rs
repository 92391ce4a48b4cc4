//! The socket run: set-up, the measured window over real loopback
//! sockets, the live and recovered correctness checks, and the restart
//! that gives `recovery_s`.

use std::collections::hash_map::{Entry, HashMap};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apex_core::{EngineConfig, Mode, TranslatorCache};
use apex_data::Dataset;
use apex_serve::{
    serve_sharded, PersistOptions, RecoveryReport, ServeConfig, ServerState, ShardServerHandle,
    ShardSet,
};

use crate::check::{self, DataState, ServerLedger, WcqAnswer, WireLedger};
use crate::client::{counts_field, num_field, str_field, Conn, Tally};
use crate::stats::ms;
use crate::workload::{
    self, Plan, Query, Role, Shape, Spec, TenantData, CACHE_CAP, LOADER_DEPTH, SHARDS, SLICE,
    TENANT_BUDGET, WRITER_HZ,
};

/// Boxed error for the run's I/O plumbing.
pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// A run's directories: the shard WALs and the paged stores.
#[derive(Debug, Clone)]
pub struct Dirs {
    /// Shard state (`shard-K/` snapshot + WAL).
    pub wal: PathBuf,
    /// Paged stores (`<tenant>/`) and audit transcripts.
    pub data: PathBuf,
}

impl Dirs {
    /// `root/wal` and `root/data`.
    pub fn under(root: &Path) -> Self {
        Self {
            wal: root.join("wal"),
            data: root.join("data"),
        }
    }
}

/// Builds (recovers) the shard set over `dirs`, the way `apex-serve`
/// does with `--state-dir` and `--data-dir`: every shard registers every
/// tenant, paged tenants are opened from the store through the shard's
/// own pool, and paged deployments keep per-shard audit transcripts.
pub fn build_set(
    spec: &Spec,
    seed: u64,
    tenants: &[TenantData],
    dirs: &Dirs,
) -> Result<(ShardSet, Vec<RecoveryReport>), Error> {
    let cache = TranslatorCache::with_capacity(CACHE_CAP);
    let paged = tenants.iter().any(|t| t.paged);
    let mk = |k: usize| {
        let mut b = ServerState::builder_with_cache(cache.clone());
        for (i, t) in tenants.iter().enumerate() {
            let data = if t.paged {
                Dataset::open_paged(&dirs.data.join(&t.name), spec.pool_frames)
                    .expect("the paged store set-up wrote opens")
            } else {
                t.data.clone()
            };
            let config = EngineConfig {
                budget: TENANT_BUDGET,
                mode: Mode::Optimistic,
                seed: seed ^ 0xE9_0000 ^ ((k as u64) << 32) ^ i as u64,
            };
            b = b.dataset(&t.name, data, config);
        }
        if paged {
            let dir = dirs.data.join("transcripts").join(format!("shard-{k}"));
            b = b
                .transcripts_under(&dir)
                .expect("transcript logs open under the data directory");
        }
        b
    };
    let (set, reports) = ShardSet::recover(&dirs.wal, SHARDS, mk, |d| PersistOptions::new(d))?;
    Ok((set, reports))
}

/// A running server.
pub struct Server {
    /// The shard set behind it.
    pub set: Arc<ShardSet>,
    handle: ShardServerHandle,
    /// Its loopback address.
    pub addr: SocketAddr,
}

impl Server {
    /// Stops the server, waits for every worker, and hands back the
    /// shard set (no other owner remains).
    pub fn stop(self) -> ShardSet {
        self.handle.stop();
        self.handle.join();
        Arc::try_unwrap(self.set).expect("no handle outlives the stopped server")
    }
}

/// What set-up leaves behind.
pub struct Setup {
    /// The running server.
    pub server: Server,
    /// The benchmark's own copy of every tenant.
    pub tenants: Vec<TenantData>,
    /// What the warm-up sessions acked, per tenant.
    pub wire: Vec<WireLedger>,
    /// Set-up time up to the first measured request.
    pub took: Duration,
}

/// Set-up: synthesis, paged ingest, `ShardSet::recover`, bind, and one
/// warm-up session per tenant.
pub fn setup(spec: &Spec, plan: &Plan, seed: u64, dirs: &Dirs) -> Result<Setup, Error> {
    let t0 = Instant::now();
    let tenants = spec.synthesize(seed);
    for t in tenants.iter().filter(|t| t.paged) {
        t.data
            .ingest_paged(&dirs.data.join(&t.name), 1, spec.pool_frames)?;
    }
    let (set, _) = build_set(spec, seed, &tenants, dirs)?;
    let set = Arc::new(set);
    let handle = serve_sharded("127.0.0.1:0", set.clone(), ServeConfig::default())?;
    let addr = handle.addr();
    let mut wire = vec![WireLedger::default(); tenants.len()];
    let mut conn = Conn::connect(addr)?;
    for (t, w) in wire.iter_mut().enumerate() {
        let (r, _) = conn.call("POST", "/v1/sessions", &plan.open_body(t))?;
        let id = session_id(r.status, &r.body)?;
        w.opened += 1;
        let (r, _) = conn.call(
            "POST",
            &format!("/v1/sessions/{id}/query"),
            &workload::warmup_body(spec, plan, t),
        )?;
        if r.status != 200 {
            return Err(format!(
                "warm-up query on {}: {} {}",
                plan.tenants[t], r.status, r.body
            )
            .into());
        }
        w.answers += 1;
        w.epsilon += num_field(&r.body, "epsilon").ok_or("answer without epsilon")?;
        let (r, _) = conn.call("POST", &format!("/v1/sessions/{id}/close"), "{}")?;
        if r.status != 200 {
            return Err(format!("warm-up close: {} {}", r.status, r.body).into());
        }
        w.closed += 1;
    }
    Ok(Setup {
        server: Server { set, handle, addr },
        tenants,
        wire,
        took: t0.elapsed(),
    })
}

fn session_id(status: u16, body: &str) -> Result<u64, Error> {
    if status != 201 {
        return Err(format!("session open answered {status}: {body}").into());
    }
    Ok(num_field(body, "session").ok_or("open without a session id")? as u64)
}

/// One request as the traced socket run saw it.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// When it was first sent.
    pub start: Instant,
    /// When its final response arrived.
    pub end: Instant,
    /// Whether it went out in a pipelined batch (its timing is then the
    /// batch's, not its own).
    pub pipelined: bool,
    /// The operation.
    pub op: Op,
}

/// A replayable operation. Sessions are named by `(connection, n-th
/// session of that connection)`, so the replay can map them onto the
/// ids its own shard set hands out.
#[derive(Debug, Clone)]
pub enum Op {
    /// Open a session on a tenant.
    Open {
        /// Tenant index.
        tenant: usize,
        /// Session key.
        key: (usize, u64),
    },
    /// Submit a query.
    Query {
        /// Tenant index.
        tenant: usize,
        /// Session key.
        key: (usize, u64),
        /// The JSON body.
        body: String,
    },
    /// Close a session.
    Close {
        /// Session key.
        key: (usize, u64),
    },
    /// Apply the writer's batch.
    Mutate {
        /// Tenant index.
        tenant: usize,
        /// The JSON body.
        body: String,
    },
}

/// What one connection observed in a window.
#[derive(Debug, Default)]
pub struct ConnResult {
    /// Request accounting.
    pub tally: Tally,
    /// Query latencies of an unpipelined analyst, ms.
    pub query_ms: Vec<f64>,
    /// When each of `query_ms` completed.
    pub query_at: Vec<Instant>,
    /// When each answer arrived.
    pub answer_at: Vec<Instant>,
    /// Session latencies (open → all queries → close), ms.
    pub session_ms: Vec<f64>,
    /// Per-tenant wire ledger.
    pub wire: Vec<WireLedger>,
    /// Acked durable operations (open, answer, close, mutation).
    pub durable_ops: u64,
    /// Answered WCQs with their shapes, for the accuracy check.
    pub wcq: Vec<(usize, Shape, Vec<f64>)>,
    /// Query requests sent (resends not counted).
    pub queries: u64,
    /// Answers per mechanism name.
    pub mechanisms: std::collections::BTreeMap<String, u64>,
    /// Writer: mutation latency from when each batch was due, ms.
    pub mutate_ms: Vec<f64>,
    /// Writer: how late each batch was sent, ms.
    pub lag_ms: Vec<f64>,
    /// Writer: acked inserts and deletes.
    pub inserts: u64,
    /// See `inserts`.
    pub deletes: u64,
    /// Writer: epoch the last acked mutation reported.
    pub last_epoch: Option<u64>,
    /// Traced windows: every request, in send order.
    pub ops: Vec<OpRecord>,
    /// When the connection finished its last request.
    pub finished: Option<Instant>,
}

/// What a measured window produced.
#[derive(Debug)]
pub struct Window {
    /// When the first request went out.
    pub start: Instant,
    /// Wall time from the first request to the last response.
    pub elapsed: Duration,
    /// Per-connection results.
    pub conns: Vec<ConnResult>,
    /// `write_bytes` of this process over the window.
    pub write_bytes: u64,
    /// Share of the host's CPU time the hypervisor stole over the window
    /// (a noisy-neighbour signal for reading a slow run).
    pub steal_frac: f64,
}

impl Window {
    /// Answers acked on every connection.
    pub fn answers(&self) -> u64 {
        self.conns
            .iter()
            .flat_map(|c| c.wire.iter())
            .map(|w| w.answers)
            .sum()
    }

    /// Answered queries per second.
    pub fn answers_per_s(&self) -> f64 {
        self.answers() as f64 / self.elapsed.as_secs_f64()
    }

    /// Splits the window into `k` equal slices and returns, per slice,
    /// the events of `at` that fall in it (with their values).
    pub fn slices<'a>(
        &self,
        k: usize,
        at: impl Iterator<Item = (Instant, f64)> + 'a,
    ) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); k];
        let len = self.elapsed.as_secs_f64() / k as f64;
        for (t, v) in at {
            let i = ((t - self.start).as_secs_f64() / len) as usize;
            out[i.min(k - 1)].push(v);
        }
        out
    }

    /// Answers per second in each of `k` equal slices.
    pub fn slice_rates(&self, k: usize) -> Vec<f64> {
        let len = self.elapsed.as_secs_f64() / k as f64;
        self.slices(
            k,
            self.conns
                .iter()
                .flat_map(|c| c.answer_at.iter().map(|&t| (t, 1.0))),
        )
        .iter()
        .map(|s| s.len() as f64 / len)
        .collect()
    }

    /// Request accounting summed over connections.
    pub fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for c in &self.conns {
            t.add(&c.tally);
        }
        t
    }

    /// All values of one per-connection series.
    pub fn series(&self, f: impl Fn(&ConnResult) -> &Vec<f64>) -> Vec<f64> {
        self.conns
            .iter()
            .flat_map(|c| f(c).iter().copied())
            .collect()
    }
}

/// Per-connection positions in the plan's streams, carried across
/// windows so a second window continues the scripts.
pub type Cursors = [usize; 2];

/// Runs both connections for `length` and collects what they observed.
pub fn window(
    spec: &Spec,
    plan: &Plan,
    addr: SocketAddr,
    length: Duration,
    trace: bool,
    cursors: &mut Cursors,
) -> Result<Window, Error> {
    let io0 = write_bytes();
    let cpu0 = cpu_times();
    let start = Instant::now();
    let deadline = start + length;
    let results: Vec<Result<(ConnResult, usize), Error>> = std::thread::scope(|scope| {
        let handles: Vec<_> = spec
            .roles
            .iter()
            .enumerate()
            .map(|(c, &role)| {
                let cursor = cursors[c];
                scope.spawn(move || {
                    let mut conn = Conn::connect(addr)?;
                    let mut out = ConnResult {
                        wire: vec![WireLedger::default(); plan.tenants.len()],
                        ..Default::default()
                    };
                    let ctx = Ctx {
                        plan,
                        c,
                        trace,
                        deadline,
                        start,
                    };
                    let next = match role {
                        Role::Analyst => analyst(&ctx, &mut conn, &mut out, cursor)?,
                        Role::Loader => loader(&ctx, &mut conn, &mut out, cursor)?,
                        Role::Writer => writer(&ctx, &mut conn, &mut out)?,
                    };
                    out.tally = conn.tally;
                    out.finished = Some(Instant::now());
                    Ok((out, next))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut conns = Vec::new();
    for (c, r) in results.into_iter().enumerate() {
        let (out, next) = r?;
        cursors[c] = next;
        conns.push(out);
    }
    let end = conns
        .iter()
        .filter_map(|c| c.finished)
        .max()
        .unwrap_or_else(Instant::now);
    let cpu1 = cpu_times();
    let total = cpu1.0.saturating_sub(cpu0.0).max(1);
    Ok(Window {
        start,
        elapsed: end - start,
        conns,
        write_bytes: write_bytes().saturating_sub(io0),
        steal_frac: cpu1.1.saturating_sub(cpu0.1) as f64 / total as f64,
    })
}

struct Ctx<'a> {
    plan: &'a Plan,
    c: usize,
    trace: bool,
    deadline: Instant,
    start: Instant,
}

impl Ctx<'_> {
    fn record(&self, out: &mut ConnResult, start: Instant, pipelined: bool, op: Op) {
        if self.trace {
            out.ops.push(OpRecord {
                start,
                end: Instant::now(),
                pipelined,
                op,
            });
        }
    }
}

/// Books one query reply into the wire ledger.
fn book_answer(
    out: &mut ConnResult,
    tenant: usize,
    status: u16,
    body: &str,
) -> Result<bool, Error> {
    if status != 200 {
        return Ok(false);
    }
    let eps = num_field(body, "epsilon").ok_or("answer without epsilon")?;
    out.wire[tenant].answers += 1;
    out.wire[tenant].epsilon += eps;
    out.answer_at.push(Instant::now());
    out.durable_ops += 1;
    if let Some(m) = str_field(body, "mechanism") {
        *out.mechanisms.entry(m.to_string()).or_default() += 1;
    }
    Ok(true)
}

/// Closed loop, one request at a time: open → the script's queries →
/// close, until the deadline. Returns the next stream position.
fn analyst(ctx: &Ctx, conn: &mut Conn, out: &mut ConnResult, mut i: usize) -> Result<usize, Error> {
    let stream = &ctx.plan.streams[ctx.c];
    let mut seq = 0u64;
    while Instant::now() < ctx.deadline {
        let s = &stream[i % stream.len()];
        i += 1;
        seq += 1;
        let key = (ctx.c, seq);
        let t = s.tenant;
        let t_session = Instant::now();
        let (r, _) = conn.call("POST", "/v1/sessions", &ctx.plan.open_body(t))?;
        ctx.record(out, t_session, false, Op::Open { tenant: t, key });
        if r.status != 201 {
            continue;
        }
        let id = session_id(r.status, &r.body)?;
        out.wire[t].opened += 1;
        out.durable_ops += 1;
        for q in &s.queries {
            let body = ctx.plan.body(t, q);
            let t_query = Instant::now();
            let (r, took) = conn.call("POST", &format!("/v1/sessions/{id}/query"), &body)?;
            out.queries += 1;
            out.query_ms.push(ms(took));
            out.query_at.push(Instant::now());
            let answered = book_answer(out, t, r.status, &r.body)?;
            if let (true, Query::Shape(shape)) = (answered, q) {
                if shape.is_wcq() {
                    let counts = counts_field(&r.body).ok_or("WCQ answer without counts")?;
                    out.wcq.push((t, shape.clone(), counts));
                }
            }
            ctx.record(
                out,
                t_query,
                false,
                Op::Query {
                    tenant: t,
                    key,
                    body,
                },
            );
        }
        let t_close = Instant::now();
        let (r, _) = conn.call("POST", &format!("/v1/sessions/{id}/close"), "{}")?;
        ctx.record(out, t_close, false, Op::Close { key });
        if r.status == 200 {
            out.wire[t].closed += 1;
            out.durable_ops += 1;
        }
        out.session_ms.push(ms(t_session.elapsed()));
    }
    Ok(i)
}

/// Closed loop, pipelined: `LOADER_DEPTH` opens in one segment, then
/// their queries, then their closes, until the deadline.
fn loader(ctx: &Ctx, conn: &mut Conn, out: &mut ConnResult, mut i: usize) -> Result<usize, Error> {
    use crate::client::raw_request;
    let stream = &ctx.plan.streams[ctx.c];
    let mut seq = 0u64;
    while Instant::now() < ctx.deadline {
        let batch: Vec<(usize, (usize, u64))> = (0..LOADER_DEPTH)
            .map(|_| {
                let s = &stream[i % stream.len()];
                i += 1;
                seq += 1;
                (s.tenant, (ctx.c, seq))
            })
            .collect();
        let t0 = Instant::now();
        let opens: Vec<String> = batch
            .iter()
            .map(|&(t, _)| raw_request("POST", "/v1/sessions", &ctx.plan.open_body(t)))
            .collect();
        let replies = conn.call_pipelined(&opens)?;
        let mut ids = Vec::new();
        for (&(t, key), r) in batch.iter().zip(&replies) {
            ctx.record(out, t0, true, Op::Open { tenant: t, key });
            if r.status == 201 {
                out.wire[t].opened += 1;
                out.durable_ops += 1;
                ids.push((t, key, session_id(r.status, &r.body)?));
            }
        }
        let t1 = Instant::now();
        let bodies: Vec<String> = ids
            .iter()
            .map(|&(t, ..)| ctx.plan.body(t, &Query::Fixed(0)))
            .collect();
        let queries: Vec<String> = ids
            .iter()
            .zip(&bodies)
            .map(|(&(_, _, id), b)| raw_request("POST", &format!("/v1/sessions/{id}/query"), b))
            .collect();
        out.queries += queries.len() as u64;
        for ((&(t, key, _), r), body) in ids.iter().zip(conn.call_pipelined(&queries)?).zip(bodies)
        {
            book_answer(out, t, r.status, &r.body)?;
            ctx.record(
                out,
                t1,
                true,
                Op::Query {
                    tenant: t,
                    key,
                    body,
                },
            );
        }
        let t2 = Instant::now();
        let closes: Vec<String> = ids
            .iter()
            .map(|&(_, _, id)| raw_request("POST", &format!("/v1/sessions/{id}/close"), "{}"))
            .collect();
        for (&(t, key, _), r) in ids.iter().zip(conn.call_pipelined(&closes)?) {
            ctx.record(out, t2, true, Op::Close { key });
            if r.status == 200 {
                out.wire[t].closed += 1;
                out.durable_ops += 1;
            }
        }
    }
    Ok(i)
}

/// Open loop, one batch per `1 / WRITER_HZ` period: batch `k` is due at
/// `start + (k + jitter_k) / WRITER_HZ`, alternating insert and delete of
/// the same rows; latency runs from the due time.
fn writer(ctx: &Ctx, conn: &mut Conn, out: &mut ConnResult) -> Result<usize, Error> {
    let (insert, delete) = ctx.plan.writer.as_ref().ok_or("writer without a batch")?;
    let t = workload::WRITER_TENANT;
    let path = format!("/v1/datasets/{}/rows", ctx.plan.tenants[t]);
    let period = Duration::from_secs_f64(1.0 / WRITER_HZ);
    let jitter = &ctx.plan.writer_jitter;
    let mut k = 0u32;
    loop {
        let due = ctx.start + period.mul_f64(f64::from(k) + jitter[k as usize % jitter.len()]);
        if due >= ctx.deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        out.lag_ms.push(ms(sent - due));
        let ins = k % 2 == 0;
        let body = if ins { insert } else { delete };
        let (r, _) = conn.call("POST", &path, body)?;
        out.mutate_ms.push(ms(due.elapsed()));
        ctx.record(
            out,
            sent,
            false,
            Op::Mutate {
                tenant: t,
                body: body.clone(),
            },
        );
        if r.status == 200 {
            out.durable_ops += 1;
            out.last_epoch = num_field(&r.body, "epoch").map(|e| e as u64);
            if ins {
                out.inserts += 1;
            } else {
                out.deletes += 1;
            }
        }
        k += 1;
    }
    Ok(0)
}

/// `write_bytes` of this process (`/proc/self/io`; 0 where absent).
pub fn write_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("write_bytes:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Host CPU time and its stolen part, in ticks (`/proc/stat`).
fn cpu_times() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.iter().sum(), ticks.get(7).copied().unwrap_or(0))
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The wire ledger per tenant: set-up's warm-ups plus every window.
pub fn wire_total(base: &[WireLedger], windows: &[&Window]) -> Vec<WireLedger> {
    let mut total = base.to_vec();
    for w in windows {
        for c in &w.conns {
            for (t, l) in c.wire.iter().enumerate() {
                total[t].add(l);
            }
        }
    }
    total
}

/// What the writer's acked mutations imply for the writer's tenant.
pub fn acked_data(initial_rows: u64, windows: &[&Window]) -> Option<DataState> {
    let mut state: Option<DataState> = None;
    for w in windows {
        for c in &w.conns {
            if let Some(epoch) = c.last_epoch {
                let s = state.get_or_insert(DataState {
                    epoch: 0,
                    rows: initial_rows,
                });
                s.epoch = s.epoch.max(epoch);
                s.rows = s.rows + c.inserts * workload::WRITER_BATCH as u64
                    - c.deletes * workload::WRITER_BATCH as u64;
            }
        }
    }
    state
}

/// Every correctness check against a (live or recovered) shard set.
pub fn check_set(
    when: &str,
    set: &ShardSet,
    plan: &Plan,
    wire: &[WireLedger],
    data: Option<DataState>,
) -> Vec<String> {
    let mut v = Vec::new();
    for (t, name) in plan.tenants.iter().enumerate() {
        let owner = set.owner(name);
        let Some(tenant) = owner.tenant(name) else {
            v.push(format!("{when}: tenant {name} missing"));
            continue;
        };
        let server = ServerLedger {
            budget: tenant.engine.budget(),
            spent: set.spent(name),
            reclaimed: set
                .states()
                .iter()
                .filter_map(|s| s.tenant(name))
                .map(apex_serve::state::Tenant::reclaimed)
                .sum(),
        };
        v.extend(check::ledger(when, name, &server, &wire[t], SLICE));
        if t == workload::WRITER_TENANT {
            if let Some(acked) = data {
                let got = DataState {
                    epoch: tenant.engine.epoch(),
                    rows: tenant.engine.with_engine(|e| e.dataset_scan_rows()),
                };
                v.extend(
                    check::recovered_data(name, acked, got)
                        .into_iter()
                        .map(|m| m.replacen("recovered", when, 1)),
                );
            }
        }
    }
    if set.session_count() != 0 {
        v.push(format!(
            "{when}: {} sessions still live after every client closed its own",
            set.session_count()
        ));
    }
    v
}

/// The accuracy check over every answered drill-down WCQ, with true
/// answers computed from the benchmark's own copy of the data.
pub fn accuracy(
    tenants: &[TenantData],
    windows: &[&Window],
) -> Result<(check::Accuracy, Vec<String>), Error> {
    // Sorted attribute values per (tenant, attribute): a bin's true
    // count is two binary searches.
    let mut columns: HashMap<(usize, &'static str), Vec<f64>> = HashMap::new();
    let mut answers = Vec::new();
    for w in windows {
        for c in &w.conns {
            for (t, shape, noisy) in &c.wcq {
                let col = match columns.entry((*t, shape.attr)) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => {
                        let data = &tenants[*t].data;
                        let idx = data.schema().index_of(shape.attr)?;
                        let mut col = Vec::with_capacity(data.len());
                        data.for_each_row(|row| {
                            if let Some(x) = row[idx].as_f64() {
                                col.push(x);
                            }
                        });
                        col.sort_by(f64::total_cmp);
                        e.insert(col)
                    }
                };
                let below = |x: f64| col.partition_point(|&v| v < x) as f64;
                let truth = shape
                    .ranges()
                    .iter()
                    .map(|&(a, b)| below(b) - below(a))
                    .collect();
                answers.push(WcqAnswer {
                    noisy: noisy.clone(),
                    truth,
                    alpha: shape.alpha,
                });
            }
        }
    }
    Ok(check::accuracy(&answers, workload::DRILL_BETA))
}

/// Copies `from` to `to` (recursively) and makes the copy durable,
/// leaving out directory lock files so the copy can be recovered in
/// this process. Syncing here keeps the copy's own writeback out of the
/// recovery that is timed next.
pub fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else if entry.file_name() != "lock" {
            std::fs::copy(entry.path(), &target)?;
            std::fs::File::open(&target)?.sync_all()?;
        }
    }
    settle(to)
}

/// Syncs directory `dir`, which commits the filesystem journal: metadata
/// left dirty by earlier steps (removed trees, new files) is written
/// before the next timed step instead of during it.
pub fn settle(dir: &Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}
