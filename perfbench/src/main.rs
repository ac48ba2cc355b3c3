//! `perfbench` — the served-system benchmark.
//!
//! ```text
//! perfbench --workload hot_read|cold_eval|update_mix --seed N --seconds S
//!           --trace 0|1 [--holdout] [--serve PATH] [--spans PATH]
//! ```
//!
//! Drives the real `serve` binary over TCP from this one process, checks
//! every answer against an in-process `expfinder_core` evaluation, and
//! prints a report followed by one JSON line: the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
//! See `README.md` beside this crate for the workloads and metrics.

mod inputs;
mod load;
mod net;
mod outcome;
mod plan;
mod tcp;
mod trace;
mod verify;

use outcome::Outcome;
use plan::{Plan, Workload};
use std::path::{Path, PathBuf};

/// `serve` instances per untraced run, each running the workload for
/// an equal share of `--seconds` on its own stream (see
/// [`outcome::combine`]).
const INSTANCES: u64 = 3;
/// Set-ups per instance; `setup_s` is the median of all of them.
const SETUPS: usize = 3;
/// Seed of each workload's graph and hot pool (the run seed drives the
/// request streams).
const DATA_SEED: u64 = 20130408;
/// `--holdout` moves both seeds into a range no tuning run used: a
/// different graph and pool, and different streams.
const HOLDOUT_OFFSET: u64 = 1 << 32;

/// Order of the end-to-end metrics in `BENCHMARK.json`.
const E2E: [&str; 4] = ["setup_s", "rss_mb", "p50_ms", "cpu_us_per_op"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    holdout: bool,
    serve: PathBuf,
    spans: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload hot_read|cold_eval|update_mix --seed N --seconds S \
         --trace 0|1 [--holdout] [--serve PATH] [--spans PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut holdout = false;
    let mut serve = None;
    let mut spans = None;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut val = || {
            i += 1;
            argv.get(i).cloned().unwrap_or_else(|| usage())
        };
        match flag {
            "--workload" => workload = Some(Workload::parse(&val()).unwrap_or_else(|| usage())),
            "--seed" => seed = Some(val().parse::<u64>().unwrap_or_else(|_| usage())),
            "--seconds" => seconds = Some(val().parse::<f64>().unwrap_or_else(|_| usage())),
            "--trace" => trace = Some(val() == "1"),
            "--holdout" => holdout = true,
            "--serve" => serve = Some(PathBuf::from(val())),
            "--spans" => spans = Some(PathBuf::from(val())),
            _ => usage(),
        }
        i += 1;
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    Args {
        workload: workload.unwrap_or_else(|| usage()),
        seed: seed.unwrap_or_else(|| usage()),
        seconds: seconds.filter(|s| *s > 0.0).unwrap_or_else(|| usage()),
        trace: trace.unwrap_or_else(|| usage()),
        holdout,
        serve: serve.unwrap_or_else(|| Path::new(&target).join("release").join("serve")),
        spans,
    }
}

fn print_meta(a: &Args, plan: &Plan, data_seed: u64, seed: u64) {
    let (n, m) = plan.graph_size();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("# perfbench {}", a.workload.name());
    println!("nproc            {nproc}");
    println!(
        "seed             {} (streams from {seed}, graph and pool from {data_seed}{})",
        a.seed,
        if a.holdout { ", holdout" } else { "" }
    );
    println!("graph            {n} nodes, {m} edges");
    println!("offered load     {}", plan.offered);
    println!("server workers   {}", tcp::WORKERS);
    println!(
        "cpus             {}",
        if plan.one_cpu {
            "generator and serve on one CPU during the TCP phases"
        } else {
            "generator and serve on every CPU"
        }
    );
    println!(
        "backend          {}",
        if plan.durable {
            "durable (serve --data-dir), fsync policy Always (the serve default)"
        } else {
            "in-memory"
        }
    );
}

fn print_outcome(label: &str, o: &Outcome) {
    println!("## {label}");
    for (k, t) in &o.tallies {
        println!(
            "ops {:<7} attempted {:>6} ok {:>6} non-2xx {:>3} transport {:>3} wrong {:>3}",
            k.name(),
            t.attempted,
            t.ok,
            t.non_2xx,
            t.transport,
            t.wrong
        );
    }
    println!("generator lateness p99 {:.3} ms", o.gen_lag_p99_ms);
    for (name, v, unit) in &o.detail {
        println!("{name:<24} {v:>14.4} {unit}");
    }
    for name in E2E {
        if let Some((_, v, unit)) = o.e2e.iter().find(|e| e.0 == name) {
            println!("{name:<24} {v:>14.4} {unit}");
        }
    }
    for p in &o.problems {
        println!("PROBLEM: {p}");
    }
}

/// The result line. Non-finite values cannot be measurements; they make
/// the run incorrect rather than malformed.
fn result_line(
    mut correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() {
                *v
            } else {
                correct = false;
                0.0
            };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        fields.join(", ")
    )
}

fn run(a: &Args) -> Result<String, String> {
    if !a.serve.is_file() {
        return Err(format!("no serve binary at {}", a.serve.display()));
    }
    let offset = if a.holdout { HOLDOUT_OFFSET } else { 0 };
    let (data_seed, seed) = (DATA_SEED + offset, a.seed.wrapping_add(offset));
    // instance j streams from seed × INSTANCES + j, so no two seeds share
    // a stream; a traced run uses one instance on the run seed
    let plans: Vec<Plan> = if a.trace {
        vec![Plan::build(a.workload, data_seed, seed, a.seconds)]
    } else {
        (0..INSTANCES)
            .map(|j| {
                let s = seed.wrapping_mul(INSTANCES).wrapping_add(j);
                Plan::build(a.workload, data_seed, s, a.seconds / INSTANCES as f64)
            })
            .collect()
    };
    print_meta(a, &plans[0], data_seed, seed);
    println!("serve instances  {}", plans.len());
    let run_dir = PathBuf::from(".bench_run").join(format!(
        "{}-{}-{}",
        a.workload.name(),
        a.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let result = if a.trace {
        traced(a, &plans[0], &run_dir)
    } else {
        let mut parts = Vec::new();
        for plan in &plans {
            let run = tcp::run(&a.serve, &run_dir, plan, SETUPS)?;
            parts.push(outcome::evaluate(plan, &run));
        }
        let p50s: Vec<String> = parts
            .iter()
            .filter_map(|o| o.e2e.iter().find(|e| e.0 == "p50_ms"))
            .map(|e| format!("{:.4}", e.1))
            .collect();
        println!("p50_ms per instance {} ms", p50s.join(" "));
        let o = outcome::combine(parts);
        print_outcome("end-to-end (untraced)", &o);
        let metrics: Vec<_> = E2E
            .iter()
            .map(|n| {
                *o.e2e
                    .iter()
                    .find(|e| e.0 == *n)
                    .expect("every metric computed")
            })
            .collect();
        Ok(result_line(
            o.correct(),
            o.attempted(),
            o.failed(),
            &metrics,
        ))
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

fn traced(a: &Args, plan: &Plan, run_dir: &Path) -> Result<String, String> {
    let base_run = tcp::run(&a.serve, run_dir, plan, 1)?;
    let base = outcome::evaluate(plan, &base_run);
    drop(base_run);
    let run = tcp::run(&a.serve, run_dir, plan, 1)?;
    let o = outcome::evaluate(plan, &run);
    print_outcome("untraced TCP run", &base);
    print_outcome("traced TCP run", &o);
    println!("## tracing overhead (traced vs untraced TCP run)");
    for name in E2E {
        let get = |x: &Outcome| x.e2e.iter().find(|e| e.0 == name).map_or(f64::NAN, |e| e.1);
        let (u, t) = (get(&base), get(&o));
        println!(
            "{name:<12} untraced {u:>12.4} traced {t:>12.4} ({:+.1}%)",
            100.0 * (t - u) / u
        );
    }
    let layers = trace::layers(plan, &run, &o, &base, run_dir)?;
    println!("## per-layer self time (in-process replay of the traced stream)");
    println!(
        "{:<20} {:>8} {:>12} {:>12}",
        "span", "calls", "mean_us", "self_us"
    );
    for (name, calls, mean_us, self_us) in &layers.self_time {
        println!("{name:<20} {calls:>8} {mean_us:>12.2} {self_us:>12.2}");
    }
    println!(
        "primary op: client mean {:.1} us, in-process layers {:.1} us, unattributed share {:.3}",
        o.client_mean_us, layers.inproc_request_us, layers.unattributed_share
    );
    println!("probes: {}", trace::probe_note(a.workload));
    println!("## per-layer metrics -> end-to-end metric @ workload");
    for (name, v, unit) in &layers.metrics {
        let maps = trace::LAYER_MAP
            .iter()
            .find(|(k, _)| k == name)
            .map_or("", |(_, m)| m);
        println!("{name:<38} {v:>14.4} {unit:<6} -> {maps}");
    }
    let spans = a.spans.clone().unwrap_or_else(|| {
        PathBuf::from(".bench_run").join(format!("spans-{}-{}.tsv", a.workload.name(), a.seed))
    });
    if let Some(dir) = spans.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    trace::write_spans(&spans, &layers, &run).map_err(|e| format!("spans: {e}"))?;
    println!("spans written to {}", spans.display());
    Ok(result_line(
        o.correct() && base.correct(),
        o.attempted(),
        o.failed(),
        &layers.metrics,
    ))
}

fn main() {
    let args = parse_args();
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
