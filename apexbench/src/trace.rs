//! The traced run (`--trace 1`): per-layer numbers. End-to-end numbers
//! never come from here.
//!
//! 1. **Socket run.** After set-up, one untraced and one traced window
//!    of equal length over the same server. The traced window records a
//!    client span per request and snapshots counters before and after
//!    (`/v1/stats`, `Tenant::store_stats`). The two windows' answer
//!    rates give `trace.overhead_frac`.
//! 2. **In-process replay** of the traced window's requests, in send
//!    order, one at a time, against a shard set built the same way. Each
//!    request span wraps the `ServerState` call the router makes; replica
//!    engines with caches of their own (so their warmth follows the same
//!    stream) are driven through the public calls `submit` is made of.
//!
//! A layer's number is its span's self time; time a container span's
//! children do not cover is reported as `unattributed` under it.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

use apex_core::{
    choose_mechanism_cached_at_epoch, ApexEngine, EngineConfig, EngineResponse, EngineSession,
    Mode, SharedEngine, TranslatorCache,
};
use apex_data::{Dataset, PoolStats};
use apex_mech::{CacheStats, PreparedQuery};
use apex_serve::wal::{WalRecord, WalWriter};
use apex_serve::{json, wire, Json, ShardSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::client::Conn;
use crate::run::{self, Dirs, Error, Op, OpRecord, Window};
use crate::stats::{self, Tracer};
use crate::workload::{Kind, Plan, Spec, TenantData, CACHE_CAP, SLICE, TENANT_BUDGET};
use crate::Metric;

/// Replay requests between forced compactions of every replay shard.
const COMPACT_EVERY: usize = 256;

/// Container spans: their self time is `unattributed`, never a layer.
const CONTAINERS: [&str; 3] = ["request", "replica", "decomp"];

/// The four mechanisms, in report order.
const MECHANISMS: [&str; 4] = ["LM", "SM", "MPM", "LTM"];

fn mech_span(name: &str) -> &'static str {
    match name {
        "LM" => "mech.run.LM",
        "SM" => "mech.run.SM",
        "MPM" => "mech.run.MPM",
        "LTM" => "mech.run.LTM",
        _ => "mech.run.other",
    }
}

/// Everything the traced run reports.
#[derive(Debug)]
pub struct TraceOut {
    /// Per-layer metrics, in report order.
    pub layers: Vec<Metric>,
    /// p50 and total of `unattributed` time per container span, µs.
    pub unattributed: Vec<(&'static str, f64, f64, u64)>,
    /// Whether each workload's stated purpose held, with the numbers.
    pub purpose: (bool, String),
    /// Correctness violations of the socket run.
    pub violations: Vec<String>,
    /// Requests attempted and failed over both socket windows.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Traced-window requests the replay covered, of those recorded.
    pub replayed: (usize, usize),
    /// Where the spans were written.
    pub spans_file: std::path::PathBuf,
}

/// Counter snapshot around the traced window.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    cache: CacheStats,
    pool: PoolStats,
}

impl Counters {
    fn take(set: &ShardSet, conn: &mut Conn) -> Result<Self, Error> {
        let (r, _) = conn.call("GET", "/v1/stats", "")?;
        let stats = json::parse(&r.body)?;
        let global = stats
            .get("cache")
            .and_then(|c| c.get("global"))
            .ok_or("/v1/stats without cache.global")?;
        let n = |k: &str| global.get(k).and_then(Json::as_u64).unwrap_or(0);
        let mut pool = PoolStats::default();
        for st in set.states() {
            for (_, t) in st.tenants() {
                if let Some(s) = t.store_stats() {
                    pool = pool.merge(&s);
                }
            }
        }
        Ok(Self {
            cache: CacheStats {
                hits: n("hits"),
                misses: n("misses"),
                evictions: n("evictions"),
            },
            pool,
        })
    }
}

/// The traced run for `spec`.
pub fn run(
    spec: &Spec,
    plan: &Plan,
    seed: u64,
    root: &Path,
    seconds: f64,
) -> Result<TraceOut, Error> {
    let third = Duration::from_secs_f64(seconds / 3.0);
    let dirs = Dirs::under(&root.join("socket"));
    let s = run::setup(spec, plan, seed, &dirs)?;
    let addr = s.server.addr;
    let mut cursors = [0, 0];
    let untraced = run::window(spec, plan, addr, third, false, &mut cursors)?;
    let mut probe = Conn::connect(addr)?;
    let before = Counters::take(&s.server.set, &mut probe)?;
    let traced = run::window(spec, plan, addr, third, true, &mut cursors)?;
    let after = Counters::take(&s.server.set, &mut probe)?;
    drop(probe);
    let set = s.server.stop();

    // The correctness gate holds on traced runs too.
    let windows = [&untraced, &traced];
    let wire = run::wire_total(&s.wire, &windows);
    let initial_rows = s.tenants[crate::workload::WRITER_TENANT].data.len() as u64;
    let data = run::acked_data(initial_rows, &windows);
    let mut violations = run::check_set("live", &set, plan, &wire, data);
    drop(set);
    let t0 = Instant::now();
    let (recovered, reports) = run::build_set(spec, seed, &s.tenants, &dirs)?;
    let recover_ms = stats::ms(t0.elapsed());
    let replayed_records: usize = reports.iter().map(|r| r.replayed).sum();
    violations.extend(run::check_set("recovered", &recovered, plan, &wire, data));
    drop(recovered);
    if spec.kind == Kind::Drilldown {
        violations.extend(run::accuracy(&s.tenants, &windows)?.1);
    }

    let mut ops: Vec<&OpRecord> = traced.conns.iter().flat_map(|c| c.ops.iter()).collect();
    ops.sort_by_key(|o| o.start);
    let rep = replay(spec, plan, seed, &s.tenants, root, &ops, third)?;

    // Spans stay in memory during the run and are written out once,
    // next to (not inside) the run's scratch directory.
    let spans_file = root.with_file_name(format!("spans-{}.tsv", spec.name));
    write_spans(&spans_file, rep.tracer.spans())?;

    let mut t = untraced.tally();
    t.add(&traced.tally());
    let mut out = TraceOut {
        layers: Vec::new(),
        unattributed: Vec::new(),
        purpose: (false, String::new()),
        violations,
        attempted: t.attempted,
        failed: t.failed,
        replayed: (rep.done, ops.len()),
        spans_file,
    };
    layers(
        &mut out,
        spec,
        &untraced,
        &traced,
        &rep,
        before,
        after,
        (recover_ms, replayed_records),
    );
    Ok(out)
}

/// What the replay measured beyond its spans.
struct Replay {
    tracer: Tracer,
    /// Requests replayed.
    done: usize,
    /// Per replayed unpipelined request: client round trip and the
    /// `ServerState` call, µs, and whether it was a query.
    http: Vec<(f64, f64, bool)>,
    /// Per query: `submit` minus evaluate and commit, µs.
    wait: Vec<f64>,
    /// `core.translate` calls that missed the replica cache, ms.
    prepare_ms: Vec<f64>,
    /// Workload cells per compiled query.
    cells: Vec<f64>,
    /// Σ charged ε and Σ εᵘ over replica runs.
    eps: (f64, f64),
    /// Rows the replica's scans read, and the answers they served.
    rows: (u64, u64),
    /// Mechanism runs by name.
    mechs: BTreeMap<&'static str, u64>,
    /// WAL bytes and records the replica appended.
    wal: (u64, u64),
}

/// A paged copy of `t` under `dir` (or an in-memory clone).
fn replica_data(spec: &Spec, t: &TenantData, dir: &Path) -> Result<Dataset, Error> {
    Ok(if t.paged {
        t.data
            .ingest_paged(&dir.join(&t.name), 1, spec.pool_frames)?
    } else {
        t.data.clone()
    })
}

/// Replays `ops` one at a time until done or `budget` runs out.
#[allow(clippy::too_many_lines)]
fn replay(
    spec: &Spec,
    plan: &Plan,
    seed: u64,
    tenants: &[TenantData],
    root: &Path,
    ops: &[&OpRecord],
    budget: Duration,
) -> Result<Replay, Error> {
    let dirs = Dirs::under(&root.join("replay"));
    for t in tenants.iter().filter(|t| t.paged) {
        t.data
            .ingest_paged(&dirs.data.join(&t.name), 1, spec.pool_frames)?;
    }
    let (set, _) = run::build_set(spec, seed, tenants, &dirs)?;
    // One caller at a time: group commit must not gather for a peer
    // that can never arrive (the state's default, restated for clarity).
    // Waiting the socket run did for gathering therefore shows up in
    // `serve.http.self_us`, not in the replayed state call.
    for st in set.states() {
        st.set_sync_peers(1);
    }
    // Replica A: engines with their own cache, driven through the
    // calls `ServerState::submit` is made of.
    let a_cache = TranslatorCache::with_capacity(CACHE_CAP);
    let mut a_engines = Vec::new();
    for (i, t) in tenants.iter().enumerate() {
        let k = set.ring().shard_for(&t.name);
        let config = EngineConfig {
            budget: TENANT_BUDGET,
            mode: Mode::Optimistic,
            seed: seed ^ 0xE9_0000 ^ ((k as u64) << 32) ^ i as u64,
        };
        let data = replica_data(spec, t, &root.join("replica-a"))?;
        a_engines.push(SharedEngine::new(ApexEngine::with_translator_cache(
            data,
            config,
            a_cache.scoped(),
        )));
    }
    // Replica B: the tenant's data and a cache of its own, driven
    // through compile, translate, run and scan directly.
    let b_cache = TranslatorCache::with_capacity(CACHE_CAP);
    let mut b_data = Vec::new();
    for t in tenants {
        b_data.push(replica_data(spec, t, &root.join("replica-b"))?);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB0B);
    let wal_path = root.join("replica-wal.log");
    let mut wal = WalWriter::open(&wal_path, true)?;
    let wal_base = std::fs::metadata(&wal_path)?.len();

    let mut tr = Tracer::new();
    let mut rep = Replay {
        tracer: Tracer::new(),
        done: 0,
        http: Vec::new(),
        wait: Vec::new(),
        prepare_ms: Vec::new(),
        cells: Vec::new(),
        eps: (0.0, 0.0),
        rows: (0, 0),
        mechs: BTreeMap::new(),
        wal: (0, 0),
    };
    let mut sessions: HashMap<(usize, u64), (u64, EngineSession)> = HashMap::new();
    let started = Instant::now();
    for (i, rec) in ops.iter().enumerate() {
        if started.elapsed() > budget {
            break;
        }
        let r = i as u64;
        let req = tr.begin("request", None, r);
        let state_span;
        match &rec.op {
            Op::Open { tenant, key } => {
                let name = &plan.tenants[*tenant];
                let owner = set.owner(name);
                let body = plan.open_body(*tenant);
                let create = tr.time("serve.decode.open", Some(req), r, || {
                    wire::parse_create_session(&json::parse(&body)?).map_err(Error::from)
                })?;
                state_span = tr.begin("serve.state.open", Some(req), r);
                let id = owner
                    .create_session(&create.dataset, create.budget)?
                    .ok_or("replay open on an unknown tenant")?;
                tr.end(state_span);
                tr.end(req);
                let rp = tr.begin("replica", None, r);
                let session = a_engines[*tenant].session(SLICE);
                tr.time("serve.wal.append", Some(rp), r, || {
                    wal.append(&WalRecord::Open {
                        session: id,
                        dataset: name.clone(),
                        allowance: SLICE,
                    })
                })?;
                rep.wal.1 += 1;
                tr.end(rp);
                sessions.insert(*key, (id, session));
            }
            Op::Query { tenant, key, body } => {
                let name = &plan.tenants[*tenant];
                let owner = set.owner(name);
                let (id, session) = sessions.get(key).ok_or("query on an unopened session")?;
                let (query, acc) = tr.time("serve.decode", Some(req), r, || {
                    wire::parse_query_request(&json::parse(body)?).map_err(Error::from)
                })?;
                state_span = tr.begin("serve.state.submit", Some(req), r);
                match owner.submit(*id, &query, &acc) {
                    Ok(apex_serve::SubmitOutcome::Response(EngineResponse::Answered(_))) => {}
                    other => return Err(format!("replay submit: {other:?}").into()),
                }
                tr.end(state_span);
                tr.end(req);

                let rp = tr.begin("replica", None, r);
                let ev = tr.begin("core.evaluate", Some(rp), r);
                let pending = session.evaluate(&query, &acc)?;
                tr.end(ev);
                let cm = tr.begin("core.commit", Some(rp), r);
                let mut appended = None;
                let response = session
                    .commit_with(pending, |resp| {
                        let rec = match resp {
                            EngineResponse::Answered(a) => WalRecord::Debit {
                                session: *id,
                                epsilon: a.epsilon,
                            },
                            EngineResponse::Denied => WalRecord::Deny { session: *id },
                        };
                        let t0 = Instant::now();
                        let res = wal.append(&rec);
                        appended = Some((t0, Instant::now()));
                        res
                    })
                    .map_err(|e| format!("replica commit: {e:?}"))?;
                tr.end(cm);
                if let Some((a, b)) = appended {
                    tr.push("serve.wal.append", tr.at(a), tr.at(b), Some(cm), r);
                    rep.wal.1 += 1;
                }
                tr.end(rp);
                let spans = tr.spans();
                let len = |s: usize| spans[s].len() as f64 / 1e3;
                rep.wait.push(len(state_span) - len(ev) - len(cm));
                if response.is_denied() {
                    return Err("replica denied a query; budgets are sized so none is".into());
                }

                let dp = tr.begin("decomp", None, r);
                let data = &b_data[*tenant];
                let prepared = tr.time("query.compile", Some(dp), r, || {
                    PreparedQuery::prepare(data.schema(), &query)
                })?;
                rep.cells.push(prepared.compiled().n_cells() as f64);
                let misses = b_cache.stats().misses;
                let t0 = Instant::now();
                let choice = tr.time("core.translate", Some(dp), r, || {
                    choose_mechanism_cached_at_epoch(
                        &prepared,
                        &acc,
                        SLICE,
                        Mode::Optimistic,
                        Some(b_cache.handle()),
                        data.epoch(),
                    )
                })?;
                if b_cache.stats().misses > misses {
                    rep.prepare_ms.push(stats::ms(t0.elapsed()));
                }
                let choice = choice.ok_or("no mechanism fits; budgets are sized so one does")?;
                let name = choice.mechanism.name();
                let run_out = tr.time(mech_span(name), Some(dp), r, || {
                    choice.mechanism.run(&prepared, &acc, data, &mut rng)
                })?;
                *rep.mechs.entry(mech_span(name)).or_default() += 1;
                rep.eps.0 += run_out.epsilon;
                rep.eps.1 += choice.translation.upper;
                let hist = tr.time("data.scan", Some(dp), r, || {
                    prepared.compiled().histogram(data)
                });
                std::hint::black_box(hist);
                rep.rows.0 += data.len() as u64;
                rep.rows.1 += 1;
                tr.end(dp);
            }
            Op::Close { key } => {
                let (id, session) = sessions.remove(key).ok_or("close of an unopened session")?;
                let owner = set
                    .states()
                    .iter()
                    .find(|s| s.session_status(id) == apex_serve::SessionStatus::Live)
                    .ok_or("replay close of a session no shard holds")?;
                state_span = tr.begin("serve.state.close", Some(req), r);
                owner.expire_session(id)?;
                tr.end(state_span);
                tr.end(req);
                let rp = tr.begin("replica", None, r);
                let released = session.close().unwrap_or(0.0);
                tr.time("serve.wal.append", Some(rp), r, || {
                    wal.append(&WalRecord::Close {
                        session: id,
                        released,
                    })
                })?;
                rep.wal.1 += 1;
                tr.end(rp);
            }
            Op::Mutate { tenant, body } => {
                let name = &plan.tenants[*tenant];
                let owner = set.owner(name);
                let m = tr.time("serve.decode.mutate", Some(req), r, || {
                    wire::parse_mutate_rows(&json::parse(body)?).map_err(Error::from)
                })?;
                state_span = tr.begin("serve.state.mutate", Some(req), r);
                owner
                    .mutate_rows(name, m.insert, &m.rows)
                    .map_err(|e| format!("replay mutation: {e}"))?;
                tr.end(state_span);
                tr.end(req);
                let rp = tr.begin("replica", None, r);
                let engine = &a_engines[*tenant];
                let delta = tr.time("core.mutate", Some(rp), r, || {
                    if m.insert {
                        engine.insert_rows(&m.rows)
                    } else {
                        engine.delete_rows(&m.rows)
                    }
                })?;
                tr.time("serve.wal.append", Some(rp), r, || {
                    wal.append(&WalRecord::Mutate {
                        dataset: name.clone(),
                        insert: m.insert,
                        epoch_after: delta.epoch,
                        rows: m.rows.clone(),
                    })
                })?;
                rep.wal.1 += 1;
                tr.end(rp);
                let dp = tr.begin("decomp", None, r);
                let data = &mut b_data[*tenant];
                tr.time("data.mutate", Some(dp), r, || {
                    if m.insert {
                        data.insert_rows(&m.rows)
                    } else {
                        data.delete_rows(&m.rows)
                    }
                })?;
                tr.end(dp);
            }
        }
        if !rec.pipelined {
            let client = (rec.end - rec.start).as_secs_f64() * 1e6;
            let state = tr.spans()[state_span].len() as f64 / 1e3;
            rep.http
                .push((client, state, matches!(rec.op, Op::Query { .. })));
        }
        rep.done += 1;
        if rep.done % COMPACT_EVERY == 0 {
            compact_all(&mut tr, &set, r)?;
        }
    }
    compact_all(&mut tr, &set, rep.done as u64)?;
    rep.wal.0 = std::fs::metadata(&wal_path)?.len() - wal_base;
    rep.tracer = tr;
    Ok(rep)
}

/// One line per span: name, start and end (ns), parent index, request
/// id, and self time (ns).
fn write_spans(path: &Path, spans: &[stats::Span]) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let selfs = stats::self_times(spans);
    let mut out = String::from("name\tstart_ns\tend_ns\tparent\treq\tself_ns\n");
    for (s, own) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{parent}\t{}\t{own}",
            s.name, s.start, s.end, s.req
        );
    }
    std::fs::write(path, out)
}

fn compact_all(tr: &mut Tracer, set: &ShardSet, r: u64) -> Result<(), Error> {
    for st in set.states() {
        tr.time("serve.snapshot.compact", None, r, || st.compact())?;
    }
    Ok(())
}

/// Builds every per-layer metric from the two socket windows, the
/// replay, and the counter deltas.
#[allow(clippy::too_many_arguments)]
fn layers(
    out: &mut TraceOut,
    spec: &Spec,
    untraced: &Window,
    traced: &Window,
    rep: &Replay,
    before: Counters,
    after: Counters,
    (recover_ms, recover_replayed): (f64, usize),
) {
    let spans = rep.tracer.spans();
    let selfs = stats::self_times(spans);
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(&selfs) {
        by_name.entry(s.name).or_default().push(*t as f64 / 1e3);
    }
    let empty = Vec::new();
    let us = |name: &str| by_name.get(name).unwrap_or(&empty);
    // HTTP self time is read off opens, closes and mutations: their
    // server-side work is small, so waiting for a core held by a
    // concurrent query cannot pass for HTTP time, as it does in the
    // query difference (printed beside it).
    let http = |query: bool| -> Vec<f64> {
        rep.http
            .iter()
            .filter(|h| h.2 == query)
            .map(|h| h.0 - h.1)
            .collect()
    };
    let ops = stats::sorted(&http(false));
    out.layers.push(
        Metric::new(
            "serve.http.self_us",
            "us",
            stats::quantile(&ops, 0.5),
            ops.len() as u64,
        )
        .with("p99", Json::Num(stats::quantile(&ops, 0.99)))
        .with("queries_p50", Json::Num(stats::median(&http(true)))),
    );
    let mut push = |name: &'static str, unit: &'static str, v: &[f64], scale: f64| {
        let s = stats::sorted(v);
        out.layers.push(
            Metric::new(name, unit, stats::quantile(&s, 0.5) * scale, s.len() as u64)
                .with("p99", Json::Num(stats::quantile(&s, 0.99) * scale)),
        );
    };

    push("serve.decode_us", "us", us("serve.decode"), 1.0);
    push("serve.state.open_us", "us", us("serve.state.open"), 1.0);
    push("serve.state.submit_us", "us", us("serve.state.submit"), 1.0);
    push("serve.state.close_us", "us", us("serve.state.close"), 1.0);
    push("serve.state.mutate_us", "us", us("serve.state.mutate"), 1.0);
    push("serve.state.wait_us", "us", &rep.wait, 1.0);
    push("serve.wal.append_us", "us", us("serve.wal.append"), 1.0);
    push(
        "serve.snapshot.compact_ms",
        "ms",
        us("serve.snapshot.compact"),
        1e-3,
    );
    push("query.compile_us", "us", us("query.compile"), 1.0);
    push("core.translate_us", "us", us("core.translate"), 1.0);
    push("core.prepare_ms", "ms", &rep.prepare_ms, 1.0);
    push("core.evaluate_us", "us", us("core.evaluate"), 1.0);
    push("core.commit_us", "us", us("core.commit"), 1.0);
    push("core.mutate_us", "us", us("core.mutate"), 1.0);
    for (name, span) in [
        ("mech.run_us.LM", "mech.run.LM"),
        ("mech.run_us.SM", "mech.run.SM"),
        ("mech.run_us.MPM", "mech.run.MPM"),
        ("mech.run_us.LTM", "mech.run.LTM"),
    ] {
        push(name, "us", us(span), 1.0);
    }
    push("data.scan_us", "us", us("data.scan"), 1.0);
    push("data.mutate_us", "us", us("data.mutate"), 1.0);
    push(
        "gen.writer_lag_ms",
        "ms",
        &traced.series(|c| &c.lag_ms),
        1.0,
    );

    let tally = traced.tally();
    let queries: u64 = traced.conns.iter().map(|c| c.queries).sum();
    let runs: u64 = rep.mechs.values().sum();
    let cache_hits = after.cache.hits - before.cache.hits;
    let cache_misses = after.cache.misses - before.cache.misses;
    let pool_hits = after.pool.hits - before.pool.hits;
    let pool_misses = after.pool.misses - before.pool.misses;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut count = |name: &'static str, unit: &'static str, value: f64, samples: u64| {
        out.layers.push(Metric::new(name, unit, value, samples));
    };
    count(
        "serve.http.shed_frac",
        "1",
        ratio(tally.sheds as f64, tally.sent as f64),
        tally.sent,
    );
    count(
        "serve.wal.bytes_per_record",
        "B",
        ratio(rep.wal.0 as f64, rep.wal.1 as f64),
        rep.wal.1,
    );
    count("serve.recover_ms", "ms", recover_ms, 1);
    count(
        "serve.recover.replayed",
        "count",
        recover_replayed as f64,
        1,
    );
    count(
        "query.cells",
        "count",
        stats::median(&rep.cells),
        rep.cells.len() as u64,
    );
    count(
        "core.translate.hit_ratio",
        "1",
        ratio(cache_hits as f64, (cache_hits + cache_misses) as f64),
        cache_hits + cache_misses,
    );
    count(
        "core.translate.misses",
        "count",
        cache_misses as f64,
        cache_hits + cache_misses,
    );
    count(
        "core.translate.evictions",
        "count",
        (after.cache.evictions - before.cache.evictions) as f64,
        cache_hits + cache_misses,
    );
    count(
        "core.commit.stale_frac",
        "1",
        ratio(tally.stale as f64, (queries + tally.stale) as f64),
        queries + tally.stale,
    );
    for m in MECHANISMS {
        let n = rep.mechs.get(mech_span(m)).copied().unwrap_or(0);
        let name = match m {
            "LM" => "mech.share.LM",
            "SM" => "mech.share.SM",
            "MPM" => "mech.share.MPM",
            _ => "mech.share.LTM",
        };
        count(name, "1", ratio(n as f64, runs as f64), runs);
    }
    count("mech.eps_ratio", "1", ratio(rep.eps.0, rep.eps.1), runs);
    count(
        "data.rows_per_answer",
        "count",
        ratio(rep.rows.0 as f64, rep.rows.1 as f64),
        rep.rows.1,
    );
    count(
        "data.pool.hit_ratio",
        "1",
        ratio(pool_hits as f64, (pool_hits + pool_misses) as f64),
        pool_hits + pool_misses,
    );
    count(
        "data.pool.misses",
        "count",
        pool_misses as f64,
        pool_hits + pool_misses,
    );
    count(
        "data.pool.evictions",
        "count",
        (after.pool.evictions - before.pool.evictions) as f64,
        pool_hits + pool_misses,
    );
    count(
        "trace.overhead_frac",
        "1",
        1.0 - ratio(traced.answers_per_s(), untraced.answers_per_s()),
        traced.answers() + untraced.answers(),
    );

    for c in CONTAINERS {
        let v = us(c);
        out.unattributed
            .push((c, stats::median(v), v.iter().sum(), v.len() as u64));
    }
    out.purpose = purpose(spec, out, traced);
}

/// Checks the prediction each workload exists to test.
fn purpose(spec: &Spec, out: &TraceOut, traced: &Window) -> (bool, String) {
    let get = |n: &str| {
        out.layers
            .iter()
            .find(|l| l.name == n)
            .map_or(0.0, |l| l.value)
    };
    let mech_us: f64 = MECHANISMS
        .iter()
        .map(|m| get(&format!("mech.share.{m}")) * get(&format!("mech.run_us.{m}")))
        .sum();
    match spec.kind {
        Kind::HotSessions => {
            let engine = get("core.translate_us") + mech_us + get("data.scan_us");
            let submit = get("serve.state.submit_us");
            (
                engine < 0.1 * submit,
                format!(
                    "translate + run + scan = {engine:.1} us vs a tenth of submit = {:.1} us",
                    0.1 * submit
                ),
            )
        }
        Kind::Drilldown => {
            let q50 = stats::median(&traced.series(|c| &c.query_ms)) * 1e3;
            let edge = get("serve.http.self_us") + get("serve.wal.append_us");
            (
                edge < 0.1 * q50,
                format!(
                    "http self + WAL append = {edge:.1} us vs a tenth of query p50 = {:.1} us",
                    0.1 * q50
                ),
            )
        }
        Kind::LiveIngest => {
            let stale = get("core.commit.stale_frac");
            let misses = get("core.translate.misses");
            (
                stale > 0.0 && misses > 0.0,
                format!("stale_frac = {stale:.4}, translate misses = {misses}"),
            )
        }
    }
}
