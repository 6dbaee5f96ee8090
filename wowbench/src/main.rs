//! `wowbench` — clerk-visible latency of the served durable world.
//!
//! ```text
//! wowbench --workload <browse|qbf|commit_push> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds a durable world in `wowbench/tmp/` under the current directory,
//! serves it over loopback TCP exactly as `wow-serve` does, and drives it
//! with closed-loop clerks for `--seconds`. With `--trace 0` the last line
//! of standard output is the JSON result holding every end-to-end metric;
//! with `--trace 1` it holds the per-layer ledger, measured by timing each
//! layer's public entry points from outside over the same operation
//! stream. Earlier lines carry the effective configuration and a readable
//! summary. Any failed correctness check exits with code 1.

mod clerk;
mod clock;
mod ledger;
mod setup;
mod stats;
mod workloads;

use clock::{cpu, wall};
use stats::{mean, median, tail};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use workloads::Workload;

/// Environment variables that would change what is measured. Each is
/// removed before anything reads it, and any value found is reported.
const PINNED_ENV: &[&str] = &[
    "WOW_FSYNC",
    "WOW_WORKERS",
    "WOW_VECTORIZED",
    "WOW_CKPT_EVERY",
    "WOW_SLOW_NS",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("wowbench: {msg}");
    eprintln!(
        "usage: wowbench --workload <browse|qbf|commit_push> --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = args.next() {
        let Some(v) = args.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&v).unwrap_or_else(|| usage("unknown workload")))
            }
            "--seed" => seed = v.parse().unwrap_or_else(|_| usage("bad seed")),
            "--seconds" => seconds = v.parse().unwrap_or_else(|_| usage("bad seconds")),
            "--trace" => trace = v == "1",
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds: seconds.max(1),
        trace,
    }
}

/// The filesystem type holding `path`, from the longest matching mount
/// point in `/proc/self/mountinfo`.
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(l, _)| mount.len() >= *l) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map(|(_, t)| t).unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process (the serving process), MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The effective configuration, pinned and recorded.
fn config_json(a: &Args, tmp: &Path, stray: &[(String, String)]) -> String {
    use wow_core::WorldConfig;
    let cfg = WorldConfig::default();
    let fsync = wow_storage::wal::SyncPolicy::resolve(wow_storage::wal::SyncPolicy::Commit);
    let sizes = a.workload.shape().sizes();
    let mut o = String::from("{");
    let _ = write!(
        o,
        "\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},",
        json_str(a.workload.name()),
        a.seed,
        a.seconds,
        a.trace as u8
    );
    let _ = write!(
        o,
        "\"fsync\":{},\"workers\":{},\"vectorized\":{},\"checkpoint_every\":{},\"slow_query_ns\":{},\"tracer_enabled\":{},",
        json_str(&format!("{fsync:?}")),
        wow_par::resolve_workers(cfg.workers),
        wow_rel::db::resolve_vectorized(cfg.vectorized),
        wow_rel::durable::resolve_checkpoint_every(cfg.checkpoint_every),
        wow_obs::resolve_slow_threshold_ns(cfg.slow_query_ns),
        wow_obs::tracer().enabled()
    );
    let _ = write!(
        o,
        "\"data_seed\":{},\"pool_frames\":{},\"page_size\":{},\"students\":{},\"courses\":{},\"enrollments\":{},\"memo_bytes\":{},",
        setup::DATA_SEED,
        wow_rel::db::DEFAULT_POOL_FRAMES,
        cfg.page_size,
        sizes.students,
        sizes.courses,
        sizes.enrollments,
        sizes.memo_bytes
    );
    let _ = write!(
        o,
        "\"tmp_dir\":{},\"tmp_fs\":{},\"nproc\":{},\"setups\":{},\"top_up_slices\":{},\"recover_commits\":{},\"recover_reps\":{},\"clock\":\"process_cpu\",",
        json_str(&tmp.display().to_string()),
        json_str(&filesystem_of(tmp)),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        workloads::SETUPS,
        workloads::SLICES,
        setup::RECOVER_COMMITS,
        setup::RECOVER_REPS
    );
    o.push_str("\"ignored_env\":{");
    for (i, (k, v)) in stray.iter().enumerate() {
        let _ = write!(
            o,
            "{}{}:{}",
            if i > 0 { "," } else { "" },
            json_str(k),
            json_str(v)
        );
    }
    o.push_str("}}");
    o
}

/// One metric: name, value, unit.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric value with its unit.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut o = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            o,
            "{}{}:{{\"value\":{},\"unit\":{}}}",
            if i > 0 { "," } else { "" },
            json_str(&m.name),
            m.value,
            json_str(m.unit)
        );
    }
    o.push_str("}}");
    o
}

/// End-to-end metrics of an untraced run; `Err` names a metric the run
/// could not support. Latencies and the action rate are on the process
/// CPU clock (see `clock`), and so is `setup_s`.
fn end_to_end(run: &workloads::RunOut) -> Result<Vec<Metric>, String> {
    let s = &run.samples;
    let need = |name: &str, v: Option<f64>| v.ok_or_else(|| format!("too few samples for {name}"));
    let mut m = vec![
        Metric::new("setup_s", need("setup_s", median(&run.setup_s))?, "s"),
        Metric::new(
            "actions_per_cpu_s",
            stats::ratio(run.actions as f64, run.cpu_secs),
            "1/s",
        ),
    ];
    for (name, v, unit, scale) in [
        ("open", &s.open, "us", 1.0),
        ("page", &s.page, "us", 1.0),
        ("lookup", &s.lookup, "ms", 1e-3),
        ("filter", &s.filter, "ms", 1e-3),
        ("commit", &s.commit, "us", 1.0),
        ("push", &s.push, "us", 1.0),
    ] {
        let v = cpu(v);
        let avg = format!("{name}_cpu_mean_{unit}");
        let p90 = format!("{name}_cpu_p90_{unit}");
        m.push(Metric::new(&avg, need(&avg, mean(&v))? * scale, unit));
        m.push(Metric::new(&p90, need(&p90, tail(&v, 90.0))? * scale, unit));
    }
    m.push(Metric::new(
        "recover_cpu_ms",
        need("recover_cpu_ms", mean(&run.recover_ms))?,
        "ms",
    ));
    m.push(Metric::new(
        "peak_rss_mb",
        need("peak_rss_mb", peak_rss_mb())?,
        "MiB",
    ));
    Ok(m)
}

/// Print the first correctness violations to standard error.
fn report_violations(violations: &[String]) {
    for v in violations.iter().take(20) {
        eprintln!("wowbench: check failed: {v}");
    }
    if violations.len() > 20 {
        eprintln!("wowbench: ... and {} more", violations.len() - 20);
    }
}

fn summary(run: &workloads::RunOut) {
    let s = &run.samples;
    println!(
        "# loop: {} actions in {:.2} s wall, {:.2} s CPU; attempted {} failed {}",
        run.actions, run.secs, run.cpu_secs, run.tally.attempted, run.tally.failed
    );
    for (name, v) in [
        ("open", &s.open),
        ("page", &s.page),
        ("lookup", &s.lookup),
        ("filter", &s.filter),
        ("commit", &s.commit),
        ("push", &s.push),
    ] {
        for (clock, v) in [("cpu", cpu(v)), ("wall", wall(v))] {
            println!(
                "# {name:>6} {clock:<4}: n={:>6} mean={:>10.1}us p50={:>10.1}us p90={:>10.1}us ({} beyond) p99={:>10.1}us ({} beyond)",
                v.len(),
                mean(&v).unwrap_or(0.0),
                median(&v).unwrap_or(0.0),
                stats::percentile(&v, 90.0).unwrap_or(0.0),
                stats::beyond(&v, 90.0),
                stats::percentile(&v, 99.0).unwrap_or(0.0),
                stats::beyond(&v, 99.0)
            );
        }
        let deciles: Vec<String> = (1..10)
            .map(|d| {
                format!(
                    "{:.0}",
                    stats::percentile(&cpu(v), d as f64 * 10.0).unwrap_or(0.0)
                )
            })
            .collect();
        println!("# {name:>6} cpu deciles: {}", deciles.join(" "));
    }
    println!(
        "# setup cpu_s={:?} wall_s={:?}; recover cpu_ms={:?} wall_ms={:?}",
        run.setup_s, run.setup_wall_s, run.recover_ms, run.recover_wall_ms
    );
}

fn main() {
    // Pin the environment before any library reads it.
    let mut stray = Vec::new();
    for k in PINNED_ENV {
        if let Some(v) = std::env::var_os(k) {
            stray.push((k.to_string(), v.to_string_lossy().into_owned()));
            std::env::remove_var(k);
        }
    }
    wow_obs::tracer().set_enabled(false);
    let args = parse_args();
    let tmp: PathBuf = std::env::current_dir()
        .expect("current directory")
        .join("wowbench")
        .join("tmp")
        .join(format!("{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create temp dir");
    println!("# config {}", config_json(&args, &tmp, &stray));

    let (correct, attempted, failed, metrics) = if args.trace {
        let l = ledger::run(args.workload, args.seed, args.seconds, &tmp);
        ledger::print(&l);
        report_violations(&l.tally.violations);
        (
            l.tally.violations.is_empty(),
            l.tally.attempted,
            l.tally.failed,
            l.metrics,
        )
    } else {
        let run = workloads::run(args.workload, args.seed, args.seconds, &tmp);
        summary(&run);
        report_violations(&run.tally.violations);
        let metrics = match end_to_end(&run) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("wowbench: {e}");
                let _ = std::fs::remove_dir_all(&tmp);
                std::process::exit(1);
            }
        };
        (
            run.tally.violations.is_empty(),
            run.tally.attempted,
            run.tally.failed,
            metrics,
        )
    };
    let _ = std::fs::remove_dir_all(&tmp);
    println!(
        "{}",
        result_json(correct, attempted.max(1), failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
