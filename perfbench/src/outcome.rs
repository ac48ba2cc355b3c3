//! Turn one served run into checked results: verify every answer,
//! count failures per operation type, and compute the end-to-end
//! metrics.

use crate::inputs::{self, REGISTERED, TOP_K};
use crate::load::{mean, pct, Kind, Sample, Tally};
use crate::plan::{Plan, Workload};
use crate::tcp::{delta, TcpRun};
use crate::verify::{self, Expected};
use expfinder_graph::json::Value;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Checked results of one served run.
pub struct Outcome {
    /// `(name, value, unit)` of every end-to-end metric, in
    /// `BENCHMARK.json` order.
    pub e2e: Vec<(&'static str, f64, &'static str)>,
    /// Workload-specific figures, named as in the benchmark's README.
    pub detail: Vec<(String, f64, &'static str)>,
    pub tallies: BTreeMap<Kind, Tally>,
    /// Problems found (wrong answers, audit failures), for the report.
    pub problems: Vec<String>,
    /// Mean client-side service time (send → reply) of the primary
    /// operation, in µs, and the open-loop generator lateness p99 (ms).
    pub client_mean_us: f64,
    pub gen_lag_p99_ms: f64,
    /// Connections the server opened during the timed phases.
    pub conns_opened: f64,
    /// Every set-up time of the run, in seconds.
    pub setup_samples: Vec<f64>,
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        self.tallies.values().map(|t| t.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.tallies.values().map(|t| t.failed()).sum()
    }

    pub fn wrong(&self) -> u64 {
        self.tallies.values().map(|t| t.wrong).sum()
    }

    /// Every answer verified and the connection audit held.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

fn median(v: &[f64]) -> f64 {
    pct(v, 0.5)
}

/// Median over consecutive windows of `window_s` seconds (by `at`) of
/// `stat` of each window's values. The timed phases are cut into
/// windows and each end-to-end figure is the median of its per-window
/// values, so one stalled window on a shared host moves it little.
fn windowed(points: &[(Instant, f64)], window_s: f64, stat: impl Fn(&[f64]) -> f64) -> f64 {
    let Some(start) = points.iter().map(|p| p.0).min() else {
        return f64::NAN;
    };
    let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(at, v) in points {
        let w = ((at - start).as_secs_f64() / window_s) as u64;
        windows.entry(w).or_default().push(v);
    }
    let stats: Vec<f64> = windows.values().map(|v| stat(v)).collect();
    median(&stats)
}

/// Latency figures of one operation stream: the median across windows
/// of the per-window p50 (end-to-end) and p90 (reported).
fn latency_e2e(out: &mut Outcome, op: &str, points: &[(Instant, f64)], window_s: f64) {
    out.e2e
        .push(("p50_ms", windowed(points, window_s, |v| pct(v, 0.5)), "ms"));
    let p90 = windowed(points, window_s, |v| pct(v, 0.9));
    out.detail
        .push((format!("{op}_p90_ms_windowed"), p90, "ms"));
}

/// The reply document of a 200, `None` otherwise. The checks count a
/// 200 whose body does not parse as a wrong answer.
fn parse(s: &Sample) -> Option<Value> {
    (s.status == 200).then(|| s.reply().json().ok()).flatten()
}

pub fn evaluate(plan: &Plan, run: &TcpRun) -> Outcome {
    let mut out = Outcome {
        e2e: Vec::new(),
        detail: Vec::new(),
        tallies: BTreeMap::new(),
        problems: Vec::new(),
        client_mean_us: 0.0,
        gen_lag_p99_ms: 0.0,
        conns_opened: delta(&run.m0, &run.m1, &["connections", "opened"]),
        setup_samples: run.setup_s.clone(),
    };
    if out.conns_opened > run.reconnects as f64 {
        out.problems.push(format!(
            "{} connections opened during timing, only {} by the generator",
            out.conns_opened, run.reconnects
        ));
    }
    let all: Vec<&Sample> = run.open.iter().chain(&run.closed).collect();
    let primary: Vec<&Sample> = all
        .iter()
        .copied()
        .filter(|s| s.kind == plan.primary)
        .collect();
    out.client_mean_us = mean(
        &primary
            .iter()
            .map(|s| s.service_ms() * 1e3)
            .collect::<Vec<_>>(),
    );
    let lag: Vec<f64> = if run.open.is_empty() {
        run.closed.iter().map(|s| s.lag_ms()).collect()
    } else {
        run.open.iter().map(|s| s.lag_ms()).collect()
    };
    out.gen_lag_p99_ms = pct(&lag, 0.99);

    let wrong = match plan.workload {
        Workload::HotRead => check_hot(plan, run, &mut out),
        Workload::ColdEval => check_cold(plan, run, &mut out),
        Workload::UpdateMix => check_mix(plan, run, &mut out),
    };
    for (i, s) in all.iter().enumerate() {
        out.tallies
            .entry(s.kind)
            .or_default()
            .add(s, wrong.get(i).copied().unwrap_or(false));
    }
    let n_wrong = out.wrong();
    if n_wrong > 0 {
        out.problems.push(format!("{n_wrong} wrong answers"));
    }

    out.e2e.push(("setup_s", median(&run.setup_s), "s"));
    out.e2e.push(("rss_mb", run.rss_mb, "MB"));
    // server CPU per request over the paced open loop where there is one
    // (thousands of requests, each handled alone), else over the closed
    // loop; idle housekeeping is a negligible share of either
    let (cpu_s, ops) = if run.open.is_empty() {
        (run.closed_cpu_s, run.closed.len())
    } else {
        (run.open_cpu_s, run.open.len())
    };
    out.e2e
        .push(("cpu_us_per_op", cpu_s * 1e6 / ops as f64, "us"));
    out
}

/// Pool the outcomes of one run's `serve` instances. A `serve` process
/// keeps its memory layout, and where it is not pinned its thread
/// placement, for its whole life: on a 2-core VM one instance's latency
/// median differed from the next one's in the same run by up to a fifth
/// (unpinned `hot_read`) and by 8% (`cold_eval`). The run reports the
/// mean over its instances, so one unlucky instance moves it by a third
/// of that.
/// `setup_s` is the median of every set-up and `rss_mb` the median of
/// the instances' peaks (one instance in a few peaks 1.4 MB higher);
/// the other figures are means over the instances, and counts add up.
pub fn combine(parts: Vec<Outcome>) -> Outcome {
    let n = parts.len() as f64;
    let mean_of = |get: &dyn Fn(&Outcome) -> f64| parts.iter().map(get).sum::<f64>() / n;
    let first = &parts[0];
    let setup_samples: Vec<f64> = parts
        .iter()
        .flat_map(|p| p.setup_samples.iter().copied())
        .collect();
    let e2e = first
        .e2e
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| {
            let v = match name {
                "setup_s" => median(&setup_samples),
                "rss_mb" => median(&parts.iter().map(|p| p.e2e[i].1).collect::<Vec<_>>()),
                _ => mean_of(&|p| p.e2e[i].1),
            };
            (name, v, unit)
        })
        .collect();
    let detail = first
        .detail
        .iter()
        .enumerate()
        .map(|(i, (name, _, unit))| (name.clone(), mean_of(&|p| p.detail[i].1), *unit))
        .collect();
    let mut tallies: BTreeMap<Kind, Tally> = BTreeMap::new();
    for (k, t) in parts.iter().flat_map(|p| &p.tallies) {
        let sum = tallies.entry(*k).or_default();
        sum.attempted += t.attempted;
        sum.ok += t.ok;
        sum.non_2xx += t.non_2xx;
        sum.transport += t.transport;
        sum.wrong += t.wrong;
    }
    let problems = parts
        .iter()
        .enumerate()
        .flat_map(|(j, p)| p.problems.iter().map(move |e| format!("instance {j}: {e}")))
        .collect();
    Outcome {
        e2e,
        detail,
        tallies,
        problems,
        client_mean_us: mean_of(&|p| p.client_mean_us),
        gen_lag_p99_ms: parts
            .iter()
            .map(|p| p.gen_lag_p99_ms)
            .fold(f64::NAN, f64::max),
        conns_opened: parts.iter().map(|p| p.conns_opened).sum(),
        setup_samples,
    }
}

/// Latency figures of the open-loop reads (`hot_read`, `update_mix`).
/// `p50_ms` times each read from its send. A read due while the one
/// before it on the same connection is stalled waits for it, so timed
/// from the due time one 50 ms stall of a shared host moves fifty reads
/// at 1,000/s; timed from the send it moves the one in flight. The
/// figures from the due time, which include that wait, are reported as
/// `query_p50_ms` and `query_p99_ms`.
fn read_latency(plan: &Plan, run: &TcpRun, out: &mut Outcome) {
    let reads: Vec<&Sample> = run.open.iter().filter(|s| s.kind == Kind::Query).collect();
    let lat: Vec<f64> = reads.iter().map(|s| s.latency_ms()).collect();
    out.detail
        .push(("query_p50_ms".into(), pct(&lat, 0.5), "ms"));
    out.detail
        .push(("query_p99_ms".into(), pct(&lat, 0.99), "ms"));
    out.detail
        .push(("query_samples".into(), lat.len() as f64, "count"));
    let points: Vec<(Instant, f64)> = reads.iter().map(|s| (s.sent, s.service_ms())).collect();
    latency_e2e(out, "query", &points, plan.window_s);
}

/// `hot_read`: every reply against the 32 expected answers on the
/// uploaded graph.
fn check_hot(plan: &Plan, run: &TcpRun, out: &mut Outcome) -> Vec<bool> {
    let dsls: Vec<&str> = plan.pool.iter().map(String::as_str).collect();
    let want = verify::expect_all(&plan.graph, &dsls, Some(TOP_K));
    let wrong: Vec<bool> = run
        .open
        .iter()
        .chain(&run.closed)
        .map(|s| match parse(s) {
            Some(doc) => {
                verify::version_of(&doc) != Some(run.v0) || !verify::matches(&doc, &want[s.item])
            }
            None => s.status == 200,
        })
        .collect();
    read_latency(plan, run, out);
    let rps = run.closed.iter().filter(|s| s.status == 200).count() as f64 / run.closed_wall_s;
    out.detail.push(("query_rps".into(), rps, "1/s"));
    wrong
}

/// `cold_eval`: every slot of every batch against its own bounded
/// simulation on the uploaded graph.
fn check_cold(plan: &Plan, run: &TcpRun, out: &mut Outcome) -> Vec<bool> {
    let sent: Vec<usize> = run.closed.iter().map(|s| s.item).collect();
    let dsls: Vec<&str> = sent
        .iter()
        .flat_map(|&b| plan.batches[b].iter().map(String::as_str))
        .collect();
    // a CSR snapshot of the same graph: the same fixpoint, computed faster
    let csr = expfinder_graph::CsrGraph::snapshot(&plan.graph);
    let want = verify::expect_all(&csr, &dsls, None);
    let mut answered = 0usize;
    let wrong: Vec<bool> = run
        .closed
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let Some(doc) = parse(s) else {
                return s.status == 200;
            };
            let Ok(slots) = doc.field("results").and_then(|r| r.as_array()) else {
                return true;
            };
            let expected = &want[i * inputs::BATCH..(i + 1) * inputs::BATCH];
            let ok = slots.len() == expected.len()
                && slots.iter().zip(expected).all(|(slot, w)| {
                    slot.field("ok").is_ok_and(|d| {
                        verify::version_of(d) == Some(run.v0) && verify::matches(d, w)
                    })
                });
            if ok {
                answered += slots.len();
            }
            !ok
        })
        .collect();
    let points: Vec<(Instant, f64)> = run
        .closed
        .iter()
        .map(|s| (s.sent, s.service_ms()))
        .collect();
    let lat: Vec<f64> = points.iter().map(|p| p.1).collect();
    out.detail
        .push(("batch_p50_ms".into(), pct(&lat, 0.5), "ms"));
    out.detail
        .push(("batch_p99_ms".into(), pct(&lat, 0.99), "ms"));
    out.detail
        .push(("batch_samples".into(), lat.len() as f64, "count"));
    out.detail.push((
        "eval_qps".into(),
        answered as f64 / run.closed_wall_s,
        "1/s",
    ));
    latency_e2e(out, "batch", &points, plan.window_s);
    wrong
}

/// `update_mix`: update replies against the replayed version sequence,
/// reads against the graph replayed to their `graph_version`, a sample
/// of registered-query deltas against fresh evaluations, and every
/// pushed frame against its update's reply.
fn check_mix(plan: &Plan, run: &TcpRun, out: &mut Outcome) -> Vec<bool> {
    let all: Vec<&Sample> = run.open.iter().chain(&run.closed).collect();
    let docs: Vec<Option<Value>> = all.iter().map(|s| parse(s)).collect();
    let mut wrong: Vec<bool> = all
        .iter()
        .zip(&docs)
        .map(|(s, d)| d.is_none() && s.status == 200)
        .collect();

    // version → number of update batches applied; trusted only up to the
    // first update whose outcome is unknown
    let mut prefix_of: HashMap<u64, usize> = HashMap::from([(run.v0, 0)]);
    let mut expected_version = run.v0;
    let mut known = true;
    // (prefix, pattern index, sample index or usize::MAX for a
    // registered-delta check of query name qN)
    let mut checks: Vec<(usize, usize, usize)> = Vec::new();
    let mut acked = 0usize;
    for (i, s) in all.iter().enumerate() {
        if s.kind != Kind::Update {
            continue;
        }
        let Some(doc) = &docs[i] else {
            known = false;
            continue;
        };
        let n = plan.updates[s.item].len() as i64;
        let applied = doc.field("applied").and_then(|v| v.as_i64()).ok();
        let attempted = doc.field("attempted").and_then(|v| v.as_i64()).ok();
        let version = verify::version_of(doc);
        if applied != Some(n) || attempted != Some(n) {
            wrong[i] = true;
        }
        acked += applied.unwrap_or(0) as usize;
        if known {
            // the graph version counts edge mutations, not batches
            expected_version += n as u64;
            if version != Some(expected_version) {
                wrong[i] = true;
            }
            prefix_of.insert(expected_version, s.item + 1);
            if s.item % 8 == 0 {
                for (j, q) in inputs::registered().enumerate() {
                    checks.push((s.item + 1, q, all.len() + i * REGISTERED + j));
                }
            }
        }
    }
    let mut unverified = 0usize;
    for (i, s) in all.iter().enumerate() {
        if s.kind != Kind::Query {
            continue;
        }
        if let Some(doc) = &docs[i] {
            match verify::version_of(doc).and_then(|v| prefix_of.get(&v)) {
                Some(&k) => checks.push((k, s.item, i)),
                None => unverified += 1,
            }
        }
    }
    // replay the graph through the update stream, evaluating each check
    // at its version
    checks.sort();
    let mut g = plan.graph.clone();
    let mut at = 0usize;
    let mut memo: HashMap<(usize, usize), Expected> = HashMap::new();
    for &(k, pat, idx) in &checks {
        while at < k {
            inputs::apply(&mut g, &plan.updates[at]);
            at += 1;
        }
        let want = memo
            .entry((k, pat))
            .or_insert_with(|| verify::expect(&g, &plan.pool[pat], Some(TOP_K)));
        if idx < all.len() {
            let doc = docs[idx].as_ref().expect("checked reads parsed");
            if !verify::matches(doc, want) {
                wrong[idx] = true;
            }
        } else {
            let i = (idx - all.len()) / REGISTERED;
            let pairs = docs[i].as_ref().and_then(|d| {
                d.field("registered_delta")
                    .and_then(|r| r.field(&format!("q{pat}")))
                    .and_then(|q| q.field("after_pairs"))
                    .and_then(|p| p.as_i64())
                    .ok()
            });
            if pairs != Some(want.pairs) {
                wrong[i] = true;
            }
        }
    }
    if unverified > 0 {
        out.problems.push(format!(
            "{unverified} reads at a version the replay cannot place"
        ));
    }

    // pushed frames: one per acknowledged update, report identical to the
    // reply, arrival measured from the update's send
    let mut frame_at: HashMap<u64, (std::time::Instant, Value)> = HashMap::new();
    for (t, bytes) in &run.frames {
        let Ok(doc) = std::str::from_utf8(bytes)
            .map_err(|_| ())
            .and_then(|t| expfinder_graph::json::parse(t).map_err(|_| ()))
        else {
            out.problems.push("unparseable frame".into());
            continue;
        };
        if let Ok(report) = doc.field("report") {
            if let Some(v) = verify::version_of(report) {
                frame_at.insert(v, (*t, report.clone()));
            }
        }
    }
    let mut lag = Vec::new();
    let mut missing = 0usize;
    for (i, s) in all.iter().enumerate() {
        if s.kind != Kind::Update {
            continue;
        }
        let Some(doc) = &docs[i] else { continue };
        match verify::version_of(doc).and_then(|v| frame_at.get(&v)) {
            Some((t, report)) if report == doc => lag.push(crate::load::ms(*t - s.sent)),
            Some(_) => wrong[i] = true,
            None => missing += 1,
        }
    }
    if missing > 0 {
        out.problems.push(format!(
            "{missing} acknowledged updates without a pushed frame"
        ));
    }

    read_latency(plan, run, out);
    let ups: Vec<f64> = run
        .open
        .iter()
        .filter(|s| s.kind == Kind::Update)
        .map(|s| s.latency_ms())
        .collect();
    out.detail
        .push(("update_p50_ms".into(), pct(&ups, 0.5), "ms"));
    out.detail
        .push(("update_p99_ms".into(), pct(&ups, 0.99), "ms"));
    out.detail
        .push(("update_samples".into(), ups.len() as f64, "count"));
    out.detail
        .push(("push_lag_p50_ms".into(), pct(&lag, 0.5), "ms"));
    let open_acked: i64 = run
        .open
        .iter()
        .enumerate()
        .filter(|(_, s)| s.kind == Kind::Update)
        .filter_map(|(i, _)| docs[i].as_ref())
        .filter_map(|d| d.field("applied").and_then(|v| v.as_i64()).ok())
        .sum();
    out.detail.push((
        "disk_bytes_per_update".into(),
        run.disk_after_open.saturating_sub(run.disk_before) as f64 / open_acked.max(1) as f64,
        "B",
    ));
    let applied = |j: usize| {
        docs[run.open.len() + j]
            .as_ref()
            .and_then(|d| d.field("applied").and_then(|v| v.as_i64()).ok())
            .unwrap_or(0) as f64
    };
    let closed_acked: f64 = (0..run.closed.len()).map(applied).sum();
    out.detail.push((
        "closed_updates_per_s".into(),
        closed_acked / run.closed_wall_s,
        "1/s",
    ));
    out.detail
        .push(("acked_edge_updates".into(), acked as f64, "count"));
    wrong
}
