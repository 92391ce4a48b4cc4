//! The three workloads: their sizes, their synthetic tenants, and the
//! query scripts each connection runs, all derived from `--seed`.
//! Scripts are generated before the run, so no query depends on a noisy
//! answer. WORKLOADS.md gives the rationale and the per-layer
//! predictions each workload tests.

use apex_data::synth::{adult_dataset, nytaxi_dataset, ADULT_SIZE};
use apex_data::{Attribute, Dataset, Domain, Schema, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Rows of the synthetic taxi tenant.
pub const TAXI_ROWS: usize = 100_000;

/// Translator-cache capacity every shard set shares (the server default).
pub const CACHE_CAP: usize = 128;

/// The buffer-pool size `apex-serve` defaults to (64 × 8 KiB = 512 KiB).
pub const DEFAULT_POOL_FRAMES: usize = 64;

/// A pool that holds every page of the adult tenant (~350 pages).
pub const FITTING_POOL_FRAMES: usize = 1024;

/// Per-tenant budget `B`: high enough that nothing is ever denied.
pub const TENANT_BUDGET: f64 = 1.0e12;

/// Budget slice each session asks for.
pub const SLICE: f64 = 1000.0;

/// Shards of every workload's shard set.
pub const SHARDS: usize = 2;

/// Sessions one pipelined loader batch opens, queries and closes.
pub const LOADER_DEPTH: usize = 8;

/// Open-loop writer rate of `live_ingest`, batches per second. Every
/// batch costs the closed-loop analyst about one stale-epoch resubmit
/// and one re-prepare: a fixed cost per second whose share of the
/// analyst's time grows when the host runs slow, so a higher rate turns
/// host noise into wider swings of every analyst metric (WORKLOADS.md).
pub const WRITER_HZ: f64 = 2.0;

/// The writer's tenant (adult, the only `live_ingest` tenant).
pub const WRITER_TENANT: usize = 0;

/// The fixed tail percentile of `mutate_tail_ms`: a 30 s window holds
/// 60 batches, and p80 keeps twelve of them beyond it.
pub const MUTATE_TAIL_Q: f64 = 0.8;

/// Rows per writer batch.
pub const WRITER_BATCH: usize = 16;

/// Bin counts of the drill-down shape pool. With the histogram and
/// prefix forms that is 192 distinct strategy workloads, against a
/// 128-entry translator cache.
pub const BIN_POOL: std::ops::RangeInclusive<usize> = 8..=103;

/// Drill-down tenants by session, repeating: two adult sessions per taxi
/// one. A fixed mix keeps seeds from moving the cost mix (a taxi scan
/// reads three times the pages), and an uneven one keeps the session
/// median inside one tenant's cluster.
const DRILL_TENANTS: [usize; 3] = [0, 0, 1];

/// The failure probability of every WCQ the accuracy check covers.
pub const DRILL_BETA: f64 = 0.05;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Tiny resident tenants; the serving stack carries the time.
    HotSessions,
    /// Paged tenants larger than the pool; query and data layers.
    Drilldown,
    /// Paged adult with a fitting pool plus an open-loop writer.
    LiveIngest,
}

/// What a connection does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Closed loop, one request at a time; latency is measured here.
    Analyst,
    /// Closed loop, `LOADER_DEPTH` sessions per pipelined batch.
    Loader,
    /// Open loop, `WRITER_HZ` mutation batches per second.
    Writer,
}

/// One tenant as synthesized.
#[derive(Debug)]
pub struct TenantData {
    /// Tenant (dataset) name.
    pub name: String,
    /// The rows, in memory — the benchmark's own copy of the data.
    pub data: Dataset,
    /// Whether the server holds it in the paged store.
    pub paged: bool,
}

/// A workload's fixed parameters.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// Its name on the command line.
    pub name: &'static str,
    /// The two connections' roles.
    pub roles: [Role; 2],
    /// Buffer-pool frames of paged tenants.
    pub pool_frames: usize,
    /// The fixed tail percentile of `query_tail_ms`.
    pub query_tail_q: f64,
    /// Equal slices of the window: `answers_per_s` is the median of the
    /// per-slice rates, and `query_tail_ms` the median of per-slice tails
    /// over the most slices (up to this many) that each hold ten samples
    /// beyond the tail percentile. A few seconds of disk stall or CPU
    /// steal on a shared host then move one slice, not the run.
    pub slices: usize,
}

impl Spec {
    /// The workload named `name`.
    pub fn named(name: &str) -> Option<Spec> {
        let (kind, name, roles, pool_frames, query_tail_q, slices) = match name {
            "hot_sessions" => (
                Kind::HotSessions,
                "hot_sessions",
                [Role::Analyst, Role::Loader],
                DEFAULT_POOL_FRAMES,
                0.9,
                30,
            ),
            "drilldown" => (
                Kind::Drilldown,
                "drilldown",
                [Role::Analyst, Role::Analyst],
                DEFAULT_POOL_FRAMES,
                0.9,
                1,
            ),
            "live_ingest" => (
                Kind::LiveIngest,
                "live_ingest",
                [Role::Analyst, Role::Writer],
                FITTING_POOL_FRAMES,
                0.9,
                10,
            ),
            _ => return None,
        };
        Some(Spec {
            kind,
            name,
            roles,
            pool_frames,
            query_tail_q,
            slices,
        })
    }

    /// Tenant names, in tenant-index order.
    pub fn tenant_names(&self) -> Vec<String> {
        match self.kind {
            Kind::HotSessions => (0..32).map(|i| format!("t{i}")).collect(),
            Kind::Drilldown => vec!["adult".into(), "taxi".into()],
            Kind::LiveIngest => vec!["adult".into()],
        }
    }

    /// Synthesizes the tenants from `seed` (the timed first step of
    /// set-up).
    pub fn synthesize(&self, seed: u64) -> Vec<TenantData> {
        match self.kind {
            Kind::HotSessions => {
                let schema = Schema::new(vec![Attribute::new(
                    "v",
                    Domain::IntRange { min: 0, max: 7 },
                )])
                .expect("static schema");
                let mut rng = StdRng::seed_from_u64(seed ^ 0x4807);
                self.tenant_names()
                    .into_iter()
                    .map(|name| {
                        let rows = (0..16)
                            .map(|_| vec![Value::Int(rng.gen_range(0..8i64))])
                            .collect();
                        TenantData {
                            name,
                            data: Dataset::new(schema.clone(), rows).expect("rows fit the schema"),
                            paged: false,
                        }
                    })
                    .collect()
            }
            Kind::Drilldown => vec![
                TenantData {
                    name: "adult".into(),
                    data: adult_dataset(ADULT_SIZE, seed ^ 0xAD17),
                    paged: true,
                },
                TenantData {
                    name: "taxi".into(),
                    data: nytaxi_dataset(TAXI_ROWS, seed ^ 0x7A41),
                    paged: true,
                },
            ],
            Kind::LiveIngest => vec![TenantData {
                name: "adult".into(),
                data: adult_dataset(ADULT_SIZE, seed ^ 0xAD17),
                paged: true,
            }],
        }
    }
}

/// How a drill-down query bins its attribute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Form {
    /// WCQ over disjoint bins.
    Hist,
    /// WCQ over nested prefixes `[lo, lo + (i+1)·width)`.
    Prefix,
    /// ICQ over disjoint bins: which bins hold more than `c` rows.
    Icq(f64),
    /// TCQ over disjoint bins: the `k` largest.
    Tcq(usize),
}

/// A binned query over one numeric attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// Attribute.
    pub attr: &'static str,
    /// Lower edge of the first bin.
    pub lo: f64,
    /// Bin width.
    pub width: f64,
    /// Number of predicates.
    pub bins: usize,
    /// Query class.
    pub form: Form,
    /// Requested α.
    pub alpha: f64,
    /// Requested β.
    pub beta: f64,
}

impl Shape {
    /// Every predicate's `[lo, hi)`.
    pub fn ranges(&self) -> Vec<(f64, f64)> {
        (0..self.bins)
            .map(|i| {
                let hi = self.lo + (i + 1) as f64 * self.width;
                match self.form {
                    Form::Prefix => (self.lo, hi),
                    _ => (self.lo + i as f64 * self.width, hi),
                }
            })
            .collect()
    }

    /// The statement in the paper's concrete syntax.
    pub fn text(&self, table: &str) -> String {
        let preds: Vec<String> = self
            .ranges()
            .iter()
            .map(|(a, b)| format!("{} IN [{a}, {b})", self.attr))
            .collect();
        let clause = match self.form {
            Form::Hist | Form::Prefix => String::new(),
            Form::Icq(c) => format!(" HAVING COUNT(*) > {c}"),
            Form::Tcq(k) => format!(" ORDER BY COUNT(*) LIMIT {k}"),
        };
        format!(
            "BIN {table} ON COUNT(*) WHERE W = {{ {} }}{clause} ERROR {} CONFIDENCE {};",
            preds.join(", "),
            self.alpha,
            1.0 - self.beta
        )
    }

    /// Whether the accuracy check covers it (a WCQ).
    pub fn is_wcq(&self) -> bool {
        matches!(self.form, Form::Hist | Form::Prefix)
    }
}

/// One query of a session script.
#[derive(Debug, Clone)]
pub enum Query {
    /// Index into [`Plan::fixed`].
    Fixed(usize),
    /// A generated drill-down query.
    Shape(Shape),
}

/// One scripted session: open on `tenant`, run `queries`, close.
#[derive(Debug, Clone)]
pub struct Session {
    /// Tenant index.
    pub tenant: usize,
    /// The queries, in order.
    pub queries: Vec<Query>,
}

/// Everything the connections send, generated before the run.
#[derive(Debug)]
pub struct Plan {
    /// Tenant names, in tenant-index order.
    pub tenants: Vec<String>,
    /// Fixed query texts (hot_sessions, live_ingest).
    pub fixed: Vec<String>,
    /// Session scripts per connection (cycled if a run outlasts them).
    pub streams: [Vec<Session>; 2],
    /// The writer's insert and delete bodies (same 16 rows), if any.
    pub writer: Option<(String, String)>,
    /// Where in its period each writer batch is due, as a share of the
    /// period (cycled). One batch per period keeps the rate fixed; the
    /// seeded offset keeps the periodic writer from locking phase with
    /// the closed-loop analyst, which would make collisions (and so
    /// latencies) depend on a run's starting phase.
    pub writer_jitter: Vec<f64>,
}

impl Plan {
    /// The request body of query `q`.
    pub fn body(&self, tenant: usize, q: &Query) -> String {
        let text = match q {
            Query::Fixed(i) => self.fixed[*i].clone(),
            Query::Shape(s) => s.text(&self.tenants[tenant]),
        };
        format!("{{\"query\":\"{text}\"}}")
    }

    /// The open body for tenant `t`.
    pub fn open_body(&self, t: usize) -> String {
        format!("{{\"dataset\":\"{}\",\"budget\":{SLICE}}}", self.tenants[t])
    }
}

/// The hot_sessions query: one 2-bucket WCQ, the same text for all.
pub const HOT_QUERY: &str =
    "BIN t ON COUNT(*) WHERE W = { v IN [0, 4), v IN [4, 8) } ERROR 8 CONFIDENCE 0.95;";

/// Adult's α for Table 1 queries: 0.02·|D|.
fn adult_alpha() -> f64 {
    0.02 * ADULT_SIZE as f64
}

/// The six adult queries of the paper's Table 1 (QW1, QW2, QI1, QI2,
/// QT1, QT2), in the concrete syntax, at α = 0.02·|D| and β = 5e-4.
pub fn table1_adult() -> Vec<String> {
    let acc = format!("ERROR {} CONFIDENCE 0.9995;", adult_alpha());
    let c = 0.1 * ADULT_SIZE as f64;
    let stmt = |preds: Vec<String>, clause: &str| {
        format!(
            "BIN adult ON COUNT(*) WHERE W = {{ {} }}{clause} {acc}",
            preds.join(", ")
        )
    };
    let hist: Vec<String> = (0..100)
        .map(|i| format!("capital_gain IN [{}, {})", 50 * i, 50 * (i + 1)))
        .collect();
    let prefix: Vec<String> = (1..=100)
        .map(|i| format!("capital_gain IN [0, {})", 50 * i))
        .collect();
    let by_sex: Vec<String> = (0..50)
        .flat_map(|i| {
            ["M", "F"].map(|s| {
                format!(
                    "capital_gain IN [{}, {}) AND sex = '{s}'",
                    100 * i,
                    100 * (i + 1)
                )
            })
        })
        .collect();
    let ages: Vec<String> = (0..100).map(|a| format!("age = {a}")).collect();
    let cumulative: Vec<String> = (0..50)
        .flat_map(|i| {
            [
                format!("age >= {}", 17 + 73 * i / 50),
                format!("hours_per_week >= {}", 1 + 2 * i),
            ]
        })
        .collect();
    vec![
        stmt(hist, ""),
        stmt(prefix.clone(), ""),
        stmt(prefix, &format!(" HAVING COUNT(*) > {c}")),
        stmt(by_sex, &format!(" HAVING COUNT(*) > {c}")),
        stmt(ages, " ORDER BY COUNT(*) LIMIT 10"),
        stmt(cumulative, " ORDER BY COUNT(*) LIMIT 10"),
    ]
}

/// Bin counts dealt from seeded shuffles of [`BIN_POOL`], one full
/// shuffle at a time: every run draws each count about equally often,
/// while the order (and so the cache's reuse distances) stays random.
struct Deck {
    cards: Vec<usize>,
}

impl Deck {
    fn new() -> Self {
        Self { cards: Vec::new() }
    }

    fn deal(&mut self, rng: &mut StdRng) -> usize {
        if self.cards.is_empty() {
            self.cards = BIN_POOL.collect();
            self.cards.shuffle(rng);
        }
        self.cards.pop().expect("refilled above")
    }
}

/// One drill-down session on `tenant` (0 = adult, 1 = taxi): a histogram
/// over the attribute's full range, then a prefix, an ICQ and a top-k
/// over a zoomed window. The three strategy-mechanism queries take their
/// bin counts from `decks`.
fn drill_session(rng: &mut StdRng, decks: &mut [Deck; 3], tenant: usize) -> Session {
    let (attr, full_lo, full_len, window, rows, int) = if tenant == 0 {
        ("capital_gain", 0.0, 5000.0, 2500.0, ADULT_SIZE as f64, true)
    } else {
        ("fare_amount", 0.0, 100.0, 50.0, TAXI_ROWS as f64, false)
    };
    let alpha = 0.02 * rows;
    let width = |len: f64, b: usize| {
        if int {
            (len / b as f64).floor()
        } else {
            len / b as f64
        }
    };
    let shape = |lo: f64, len: f64, b: usize, form: Form| Shape {
        attr,
        lo,
        width: width(len, b),
        bins: b,
        form,
        alpha,
        beta: DRILL_BETA,
    };
    let zoom_lo = if int {
        rng.gen_range(0..=(full_len - window) as i64) as f64
    } else {
        (rng.gen_range(0.0..(full_len - window)) * 100.0).round() / 100.0
    };
    let b1 = decks[0].deal(rng);
    let b2 = decks[1].deal(rng);
    let b3 = decks[2].deal(rng);
    let b4 = rng.gen_range(12..=*BIN_POOL.end());
    let c = (rows / (2.0 * b3 as f64)).round();
    Session {
        tenant,
        queries: vec![
            Query::Shape(shape(full_lo, full_len, b1, Form::Hist)),
            Query::Shape(shape(zoom_lo, window, b2, Form::Prefix)),
            Query::Shape(shape(zoom_lo, window, b3, Form::Icq(c))),
            Query::Shape(shape(zoom_lo, window, b4, Form::Tcq(10))),
        ],
    }
}

/// The writer's insert and delete bodies over one seeded 16-row batch.
fn writer_bodies(seed: u64) -> (String, String) {
    let batch = adult_dataset(WRITER_BATCH, seed ^ 0x5752);
    let rows: Vec<String> = batch
        .rows()
        .iter()
        .map(|r| {
            let cells: Vec<String> = r
                .iter()
                .map(|v| match v {
                    Value::Int(i) => i.to_string(),
                    Value::Float(f) => format!("{f:?}"),
                    Value::Str(s) => format!("\"{s}\""),
                    Value::Bool(b) => b.to_string(),
                    Value::Null => "null".into(),
                })
                .collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    let rows = rows.join(",");
    (
        format!("{{\"op\":\"insert\",\"rows\":[{rows}]}}"),
        format!("{{\"op\":\"delete\",\"rows\":[{rows}]}}"),
    )
}

/// Sessions pre-generated per connection.
fn stream_len(kind: Kind) -> usize {
    match kind {
        Kind::HotSessions => 60_000,
        Kind::Drilldown | Kind::LiveIngest => 4_000,
    }
}

/// The run's plan for `spec` and `seed`.
pub fn plan(spec: &Spec, seed: u64) -> Plan {
    let names = spec.tenant_names();
    let tenants = names.len();
    let n = stream_len(spec.kind);
    let stream = |conn: u64| -> Vec<Session> {
        let mut rng = StdRng::seed_from_u64(seed ^ (0x5C21_7000 + conn));
        let mut decks = [Deck::new(), Deck::new(), Deck::new()];
        (0..n)
            .map(|i| match spec.kind {
                Kind::HotSessions => Session {
                    tenant: rng.gen_range(0..tenants),
                    queries: vec![Query::Fixed(0)],
                },
                Kind::Drilldown => {
                    let t = DRILL_TENANTS[(i + conn as usize) % DRILL_TENANTS.len()];
                    drill_session(&mut rng, &mut decks, t)
                }
                Kind::LiveIngest => Session {
                    tenant: 0,
                    queries: (0..6).map(Query::Fixed).collect(),
                },
            })
            .collect()
    };
    let fixed = match spec.kind {
        Kind::HotSessions => vec![HOT_QUERY.to_string()],
        Kind::Drilldown => Vec::new(),
        Kind::LiveIngest => table1_adult(),
    };
    Plan {
        tenants: names,
        fixed,
        streams: [stream(0), stream(1)],
        writer: (spec.kind == Kind::LiveIngest).then(|| writer_bodies(seed)),
        writer_jitter: {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x317E);
            (0..4096).map(|_| rng.gen_range(0.0..1.0)).collect()
        },
    }
}

/// The warm-up query set-up runs once per tenant.
pub fn warmup_body(spec: &Spec, plan: &Plan, tenant: usize) -> String {
    match spec.kind {
        Kind::HotSessions | Kind::LiveIngest => plan.body(tenant, &Query::Fixed(0)),
        Kind::Drilldown => {
            let mut rng = StdRng::seed_from_u64(0x3A4E ^ tenant as u64);
            let s = drill_session(
                &mut rng,
                &mut [Deck::new(), Deck::new(), Deck::new()],
                tenant,
            );
            plan.body(tenant, &s.queries[0])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_a_function_of_the_seed() {
        let spec = Spec::named("drilldown").unwrap();
        let a = plan(&spec, 7);
        let b = plan(&spec, 7);
        let c = plan(&spec, 8);
        let body = |p: &Plan| p.body(p.streams[0][3].tenant, &p.streams[0][3].queries[1]);
        assert_eq!(body(&a), body(&b));
        assert_ne!(body(&a), body(&c));
    }

    #[test]
    fn every_generated_statement_parses() {
        let p = plan(&Spec::named("drilldown").unwrap(), 3);
        for s in p.streams[0].iter().take(50) {
            for q in &s.queries {
                let body = apex_serve::json::parse(&p.body(s.tenant, q)).unwrap();
                apex_serve::wire::parse_query_request(&body).unwrap();
            }
        }
        for text in table1_adult().into_iter().chain([HOT_QUERY.to_string()]) {
            apex_query::parse_query(&text).unwrap();
        }
    }

    #[test]
    fn prefix_and_hist_ranges() {
        let s = Shape {
            attr: "x",
            lo: 10.0,
            width: 5.0,
            bins: 3,
            form: Form::Prefix,
            alpha: 1.0,
            beta: 0.05,
        };
        assert_eq!(s.ranges(), vec![(10.0, 15.0), (10.0, 20.0), (10.0, 25.0)]);
        let h = Shape {
            form: Form::Hist,
            ..s
        };
        assert_eq!(h.ranges(), vec![(10.0, 15.0), (15.0, 20.0), (20.0, 25.0)]);
    }
}
