//! `apexbench` — the APEx service benchmark.
//!
//! ```text
//! cargo run --release --manifest-path apexbench/Cargo.toml -- \
//!     --workload <hot_sessions|drilldown|live_ingest> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Runs an in-process sharded `apex-serve` (`serve_sharded` over real
//! loopback sockets, fsync-on-ack WALs, paged stores where the workload
//! says so) under one seeded analyst workload. Two client threads drive
//! two connections. Every run checks the budget ledger live and after a
//! restart, and `drilldown` checks the (α, β) guarantee; any violation
//! exits non-zero.
//!
//! Output: a human summary, one `report` JSON line with every metric,
//! its unit and sample count, the checks and the host, and — last — the
//! result line: `--trace 0` gives the end-to-end metrics, `--trace 1`
//! the per-layer ones. State lives under `.bench_state/` in the working
//! directory and is removed on exit; a traced run leaves its spans there
//! (`spans-<workload>.tsv`).

mod check;
mod client;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use apex_serve::Json;

use crate::run::{Dirs, Error};
use crate::stats::{median, quantile, sorted};
use crate::workload::{Kind, Spec};

/// Set-ups per measured run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Restarts per measured run, each from its own copy of the run's
/// directories; `recovery_s` is their median.
const RECOVERIES: usize = 5;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds: f64 = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "apexbench: {e}\nusage: apexbench --workload <hot_sessions|drilldown|live_ingest> \
                 --seed N --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload) else {
        eprintln!("apexbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let root = match std::env::current_dir() {
        Ok(d) => d
            .join(".bench_state")
            .join(format!("{}-{}", spec.name, std::process::id())),
        Err(e) => {
            eprintln!("apexbench: working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let _ = std::fs::remove_dir_all(&root);
    let outcome = std::fs::create_dir_all(&root)
        .map_err(Error::from)
        .and_then(|()| {
            if args.trace {
                traced(&spec, &args, &root)
            } else {
                measured(&spec, &args, &root)
            }
        });
    let _ = std::fs::remove_dir_all(&root);
    match outcome {
        Ok(correct) => {
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("apexbench: {} run failed: {e}", spec.name);
            ExitCode::FAILURE
        }
    }
}

/// One reported number.
#[derive(Debug)]
pub(crate) struct Metric {
    pub(crate) name: &'static str,
    unit: &'static str,
    pub(crate) value: f64,
    samples: u64,
    /// Extra fields for the report line (percentile, p99, …).
    extra: Vec<(&'static str, Json)>,
}

impl Metric {
    pub(crate) fn new(name: &'static str, unit: &'static str, value: f64, samples: u64) -> Self {
        Self {
            name,
            unit,
            value: if value.is_finite() { value } else { 0.0 },
            samples,
            extra: Vec::new(),
        }
    }

    pub(crate) fn with(mut self, key: &'static str, v: Json) -> Self {
        self.extra.push((key, v));
        self
    }

    fn report(&self) -> (String, Json) {
        let mut pairs = vec![
            ("value", Json::Num(self.value)),
            ("unit", Json::from(self.unit)),
            ("samples", Json::from(self.samples)),
        ];
        pairs.extend(self.extra.iter().cloned());
        (self.name.to_string(), Json::obj(pairs))
    }
}

/// The end-to-end metrics `BENCHMARK.json` gates on (`--trace 0`).
const GATED: [&str; 9] = [
    "setup_s",
    "answers_per_s",
    "query_p50_ms",
    "query_tail_ms",
    "session_p50_ms",
    "epsilon_per_answer",
    "recovery_s",
    "peak_rss_mb",
    "disk_bytes_per_op",
];

/// Prints the report line and the result line.
#[allow(clippy::too_many_arguments)]
fn emit(
    spec: &Spec,
    args: &Args,
    root: &Path,
    metrics: &[Metric],
    result_names: &[&str],
    extra: Vec<(&str, Json)>,
    violations: &[String],
    (attempted, failed): (u64, u64),
) -> bool {
    let correct = violations.is_empty();
    for v in violations {
        eprintln!("apexbench: VIOLATION {v}");
    }
    for m in metrics {
        println!(
            "{:>28} {:>14.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let mut report = vec![
        ("workload", Json::from(spec.name)),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("provenance", provenance(root, args.seed)),
        (
            "metrics",
            Json::Obj(metrics.iter().map(Metric::report).collect()),
        ),
        (
            "violations",
            Json::Arr(violations.iter().map(|v| Json::from(v.as_str())).collect()),
        ),
    ];
    report.extend(extra);
    println!(
        "{}",
        Json::obj(vec![("report", Json::obj(report))]).render()
    );
    let result: Vec<(String, Json)> = result_names
        .iter()
        .map(|n| {
            let m = metrics
                .iter()
                .find(|m| m.name == *n)
                .expect("every result metric is measured");
            (
                m.name.to_string(),
                Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::from(m.unit)),
                ]),
            )
        })
        .collect();
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::from(attempted.max(1))),
            ("failed", Json::from(failed)),
            ("metrics", Json::Obj(result)),
        ])
        .render()
    );
    correct
}

/// Host and build facts recorded with every result.
fn provenance(root: &Path, seed: u64) -> Json {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj(vec![
        ("nproc", Json::from(nproc)),
        ("cpu", Json::from(cpu)),
        (
            "kernel",
            Json::from(read("/proc/sys/kernel/osrelease").trim()),
        ),
        ("state_fs", Json::from(filesystem_of(root))),
        ("git_commit", Json::from(git_commit())),
        ("seed", Json::from(seed)),
    ])
}

/// The filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mounts`).
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/self/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The checkout's commit, read from `.git` when the working directory
/// is a git checkout ("unknown" otherwise — exported trees carry none).
fn git_commit() -> String {
    let git = PathBuf::from(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(git.join("packed-refs")).map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or_default()
                        .to_string()
                })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if commit.is_empty() {
        "unknown".into()
    } else {
        commit
    }
}

/// A timing series reported at its median, with its fixed tail: the
/// median over `slices` of each slice's tail. `tail_rule_met` says
/// whether every slice had ten samples beyond the tail percentile.
fn latency(
    p50: &'static str,
    tail: &'static str,
    q: f64,
    values: &[f64],
    slices: &[Vec<f64>],
) -> (Metric, Metric) {
    let n = values.len();
    let tails: Vec<f64> = slices.iter().map(|s| quantile(&sorted(s), q)).collect();
    let thinnest = slices.iter().map(Vec::len).min().unwrap_or(0);
    let supported = stats::beyond(thinnest, q) >= stats::TAIL_MIN_BEYOND;
    let all = sorted(values);
    let ladder: Vec<(String, Json)> = stats::TAIL_LADDER
        .iter()
        .map(|&p| (format!("p{}", p * 100.0), Json::Num(quantile(&all, p))))
        .collect();
    (
        Metric::new(p50, "ms", median(values), n as u64),
        Metric::new(tail, "ms", median(&tails), n as u64)
            .with("percentile", Json::Num(q * 100.0))
            .with("whole_window", Json::Obj(ladder))
            .with("slices", Json::from(slices.len()))
            .with("beyond_per_slice", Json::from(stats::beyond(thinnest, q)))
            .with("tail_rule_met", Json::Bool(supported))
            .with(
                "rule_percentile",
                stats::tail_percentile(n).map_or(Json::Null, |p| Json::Num(p * 100.0)),
            ),
    )
}

/// The measured run (`--trace 0`).
fn measured(spec: &Spec, args: &Args, root: &Path) -> Result<bool, Error> {
    let plan = workload::plan(spec, args.seed);
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let dirs = Dirs::under(&root.join(format!("setup-{i}")));
        run::settle(root)?;
        let s = run::setup(spec, &plan, args.seed, &dirs)?;
        setup_s.push(s.took.as_secs_f64());
        if i + 1 < SETUPS {
            drop(s.server.stop());
            std::fs::remove_dir_all(root.join(format!("setup-{i}")))?;
        } else {
            kept = Some((s, dirs));
        }
    }
    let (s, dirs) = kept.expect("at least one set-up");
    let mut cursors = [0, 0];
    let w = run::window(
        spec,
        &plan,
        s.server.addr,
        Duration::from_secs_f64(args.seconds),
        false,
        &mut cursors,
    )?;
    let set = s.server.stop();
    let wire = run::wire_total(&s.wire, &[&w]);
    let initial_rows = s.tenants[workload::WRITER_TENANT].data.len() as u64;
    let data = run::acked_data(initial_rows, &[&w]);
    let mut violations = run::check_set("live", &set, &plan, &wire, data);
    drop(set);

    let mut recovery_s = Vec::new();
    for j in 0..RECOVERIES {
        let copy = Dirs::under(&root.join(format!("recover-{j}")));
        run::copy_tree(&dirs.wal, &copy.wal)?;
        if s.tenants.iter().any(|t| t.paged) {
            run::copy_tree(&dirs.data, &copy.data)?;
        }
        let t0 = std::time::Instant::now();
        let (recovered, _) = run::build_set(spec, args.seed, &s.tenants, &copy)?;
        recovery_s.push(t0.elapsed().as_secs_f64());
        violations.extend(run::check_set("recovered", &recovered, &plan, &wire, data));
        drop(recovered);
        std::fs::remove_dir_all(root.join(format!("recover-{j}")))?;
    }

    let mut extra = Vec::new();
    if spec.kind == Kind::Drilldown {
        let (acc, v) = run::accuracy(&s.tenants, &[&w])?;
        violations.extend(v);
        extra.push((
            "accuracy",
            Json::obj(vec![
                ("wcq_answers", Json::from(acc.answers)),
                ("over_alpha", Json::from(acc.over_alpha)),
                ("share", Json::Num(acc.share())),
                ("allowed", Json::Num(acc.allowed)),
            ]),
        ));
    }

    let tally = w.tally();
    let answers = w.answers();
    let eps: f64 = w
        .conns
        .iter()
        .flat_map(|c| c.wire.iter())
        .map(|l| l.epsilon)
        .sum();
    let durable: u64 = w.conns.iter().map(|c| c.durable_ops).sum();
    let query_ms = w.series(|c| &c.query_ms);
    let events: Vec<(std::time::Instant, f64)> = w
        .conns
        .iter()
        .flat_map(|c| c.query_at.iter().copied().zip(c.query_ms.iter().copied()))
        .collect();
    // The most slices, up to the workload's, that each keep ten samples
    // beyond the tail percentile.
    let query_slices = (1..=spec.slices)
        .rev()
        .map(|k| w.slices(k, events.iter().copied()))
        .find(|sl| {
            sl.iter()
                .all(|x| stats::beyond(x.len(), spec.query_tail_q) >= stats::TAIL_MIN_BEYOND)
        })
        .unwrap_or_else(|| vec![query_ms.clone()]);
    let (q50, qtail) = latency(
        "query_p50_ms",
        "query_tail_ms",
        spec.query_tail_q,
        &query_ms,
        &query_slices,
    );
    let mutate_ms = w.series(|c| &c.mutate_ms);
    let (m50, mtail) = latency(
        "mutate_p50_ms",
        "mutate_tail_ms",
        workload::MUTATE_TAIL_Q,
        &mutate_ms,
        std::slice::from_ref(&mutate_ms),
    );
    let sessions = w.series(|c| &c.session_ms);
    let mut mechs = std::collections::BTreeMap::new();
    for c in &w.conns {
        for (m, n) in &c.mechanisms {
            *mechs.entry(m.clone()).or_insert(0u64) += n;
        }
    }
    extra.push((
        "mechanisms",
        Json::Obj(mechs.into_iter().map(|(m, n)| (m, Json::from(n))).collect()),
    ));
    extra.push((
        "requests",
        Json::obj(vec![
            ("attempted", Json::from(tally.attempted)),
            ("failed", Json::from(tally.failed)),
            ("sent", Json::from(tally.sent)),
            ("sheds", Json::from(tally.sheds)),
            ("stale_resubmits", Json::from(tally.stale)),
            ("window_s", Json::Num(w.elapsed.as_secs_f64())),
        ]),
    ));
    extra.push(("cpu_steal_frac", Json::Num(w.steal_frac)));
    let writer = spec.kind == Kind::LiveIngest;
    let lag = w.series(|c| &c.lag_ms);
    let mut metrics = vec![
        Metric::new("setup_s", "s", median(&setup_s), setup_s.len() as u64),
        Metric::new(
            "answers_per_s",
            "1/s",
            median(&w.slice_rates(spec.slices)),
            answers,
        )
        .with("slices", Json::from(spec.slices)),
        q50,
        qtail,
        Metric::new(
            "session_p50_ms",
            "ms",
            median(&sessions),
            sessions.len() as u64,
        ),
    ];
    if writer {
        metrics.push(m50.with("from", Json::from("due time")));
        metrics.push(mtail);
        metrics.push(Metric::new(
            "writer_lag_ms",
            "ms",
            median(&lag),
            lag.len() as u64,
        ));
    }
    metrics.extend([
        Metric::new(
            "epsilon_per_answer",
            "eps",
            eps / answers.max(1) as f64,
            answers,
        ),
        Metric::new(
            "recovery_s",
            "s",
            median(&recovery_s),
            recovery_s.len() as u64,
        ),
        Metric::new("peak_rss_mb", "MiB", run::peak_rss_mb(), 1),
        Metric::new(
            "disk_bytes_per_op",
            "B",
            w.write_bytes as f64 / durable.max(1) as f64,
            durable,
        ),
        Metric::new(
            "failed_frac",
            "1",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            tally.attempted,
        ),
    ]);
    if !writer {
        extra.push((
            "not_applicable",
            Json::from("mutate_p50_ms, mutate_tail_ms: no writer on this workload"),
        ));
    }
    Ok(emit(
        spec,
        args,
        root,
        &metrics,
        &GATED,
        extra,
        &violations,
        (tally.attempted, tally.failed),
    ))
}

/// The traced run (`--trace 1`).
fn traced(spec: &Spec, args: &Args, root: &Path) -> Result<bool, Error> {
    let plan = workload::plan(spec, args.seed);
    let out = trace::run(spec, &plan, args.seed, root, args.seconds)?;
    let metrics = &out.layers;
    // Mechanism shares describe the mix; they are neither better nor
    // worse, so they stay in the report line only.
    let names: Vec<&str> = metrics
        .iter()
        .map(|m| m.name)
        .filter(|n| !n.starts_with("mech.share."))
        .collect();
    let extra = vec![
        (
            "unattributed_us",
            Json::Obj(
                out.unattributed
                    .iter()
                    .map(|(name, p50, total, n)| {
                        (
                            name.to_string(),
                            Json::obj(vec![
                                ("p50", Json::Num(*p50)),
                                ("total", Json::Num(*total)),
                                ("samples", Json::from(*n)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "purpose",
            Json::obj(vec![
                ("confirmed", Json::Bool(out.purpose.0)),
                ("detail", Json::from(out.purpose.1.as_str())),
            ]),
        ),
        (
            "replayed",
            Json::obj(vec![
                ("requests", Json::from(out.replayed.0)),
                ("of", Json::from(out.replayed.1)),
            ]),
        ),
        (
            "spans_file",
            Json::from(out.spans_file.display().to_string()),
        ),
    ];
    Ok(emit(
        spec,
        args,
        root,
        metrics,
        &names,
        extra,
        &out.violations,
        (out.attempted, out.failed),
    ))
}
