//! Wall-clock benchmark for axml.
//!
//! ```text
//! perfbench --workload <edos_poll|feed_mix|plan_select|all> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Each workload runs closed-loop: one caller thread issues an operation,
//! waits for its reply, checks it outside the timed window and issues
//! the next. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! alternates untraced and traced rounds and prints the per-layer
//! metrics, writing the kept spans and events under `--out`. The last
//! line of standard output is one JSON object. A wrong answer, or a run
//! report that does not reconcile, ends the run with exit code 1 and no
//! result line. `--workload all` runs every workload in a fresh process
//! of its own and fails if any of them does.

mod alloc;
mod edos_poll;
mod feed_mix;
mod gen;
mod measure;
mod plan_select;
mod trace;

use measure::{best, best_pct_us, mean_us, ratio, Cfg, Tally};
use std::process::ExitCode;
use trace::Tracer;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 3] = ["edos_poll", "feed_mix", "plan_select"];

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Args {
    workload: String,
    cfg: Cfg,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        cfg: Cfg {
            seed: 1,
            seconds: 10.0,
            trace: false,
        },
        out: "perfbench/out".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if !args.cfg.seconds.is_finite() || args.cfg.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The metrics a user of the system sees, from the untraced rounds.
fn end_to_end(t: &Tally) -> Vec<Metric> {
    let ops = t.ops() as f64;
    vec![
        m("ops_per_s", t.ops_per_s(), "1/s"),
        m("p50_us", best_pct_us(&t.all, t.rounds, 0.50), "us"),
        m("p99_us", best_pct_us(&t.all, t.rounds, 0.99), "us"),
        m("read_p50_us", best_pct_us(&t.reads, t.rounds, 0.50), "us"),
        m("read_p99_us", best_pct_us(&t.reads, t.rounds, 0.99), "us"),
        m("ok_ratio", (ops - t.failed as f64) / ops, "ratio"),
        m("wire_bytes_per_op", t.wire_bytes as f64 / ops, "B"),
        m("virtual_ms_per_op", t.virtual_ms / ops, "virtual_ms"),
        m("setup_s", best(&t.setup_s), "s"),
        m("peak_rss_mib", t.peak_rss_mib, "MiB"),
    ]
}

/// Per-layer metrics from the traced rounds. Spans named `xml.size`,
/// `xml.canon`, `query.eval` and `matcher.probe` are replays of a call
/// the program makes, timed outside the operation; their `_share_est`
/// is per-call time × the calls the program counted ÷ operation time.
fn per_layer(plain: &Tally, t: &Tally, tr: &Tracer) -> Vec<Metric> {
    let c = &t.c;
    let ops = t.ops() as f64;
    let feeds = t.writes.len() as f64;
    let read_us = t.reads.iter().sum::<u64>() as f64 / 1e3;
    let write_us = t.writes.iter().sum::<u64>() as f64 / 1e3;
    let op_us = read_us + write_us;
    let (read, write) = (tr.agg("op.read"), tr.agg("op.write"));
    let size_us = tr.agg("xml.size").mean_us();
    let canon_us = tr.agg("xml.canon").mean_us();
    let query_us = tr.agg("query.eval").mean_us();
    let probe_us = tr.agg("matcher.probe").mean_us();
    let optimize = tr.agg("optimizer.optimize");
    let recomputed = (c.fresh + c.suppressed) as f64;
    vec![
        m("engine.eval_us", tr.agg("engine.eval").mean_us(), "us"),
        m("engine.defs_per_op", c.defs as f64 / ops, "count"),
        m("engine.tasks_per_op", c.tasks as f64 / ops, "count"),
        m("engine.retries_per_op", c.retries as f64 / ops, "count"),
        m("engine.failovers_per_op", c.failovers as f64 / ops, "count"),
        m("net.msgs_per_op", c.msgs as f64 / ops, "count"),
        m(
            "net.drop_ratio",
            ratio(c.dropped as f64, (c.msgs + c.dropped) as f64),
            "ratio",
        ),
        m("sched.scheduled_per_op", c.scheduled as f64 / ops, "count"),
        m("sched.peak_pending", c.peak_pending as f64, "count"),
        m("xml.parse_us", tr.agg("xml.parse").mean_us(), "us"),
        m("xml.size_us", size_us, "us"),
        m(
            "xml.size_share_est",
            ratio(size_us * t.reads.len() as f64, read_us),
            "ratio",
        ),
        m("xml.canon_us", canon_us, "us"),
        m(
            "xml.canon_share_est",
            ratio(canon_us * (recomputed + c.fresh as f64), write_us),
            "ratio",
        ),
        m("xml.copied_bytes_per_op", c.copied_bytes as f64 / ops, "B"),
        m("xml.shared_bytes_per_op", c.shared_bytes as f64 / ops, "B"),
        m("xml.cow_per_op", c.cow as f64 / ops, "count"),
        m("query.eval_us", query_us, "us"),
        m(
            "query.eval_share_est",
            ratio(query_us * (c.pumps + c.service_calls) as f64, op_us),
            "ratio",
        ),
        m("matcher.probe_us", probe_us, "us"),
        m(
            "matcher.probe_share_est",
            ratio(probe_us * feeds, write_us),
            "ratio",
        ),
        m(
            "matcher.probes_per_feed",
            ratio(c.matcher_probes as f64, feeds),
            "count",
        ),
        m(
            "matcher.skip_ratio",
            ratio(c.matcher_skips as f64, c.matcher_probes as f64),
            "ratio",
        ),
        m(
            "continuous.activate_us",
            tr.agg("continuous.activate").mean_us(),
            "us",
        ),
        m(
            "continuous.feed_us",
            tr.agg("continuous.feed").mean_us(),
            "us",
        ),
        m(
            "continuous.pumps_per_feed",
            ratio(c.pumps as f64, feeds),
            "count",
        ),
        m(
            "continuous.recomputed_per_feed",
            ratio(recomputed, feeds),
            "count",
        ),
        m(
            "continuous.fresh_ratio",
            ratio(c.fresh as f64, recomputed),
            "ratio",
        ),
        m(
            "cost.model_build_us",
            tr.agg("cost.model_build").mean_us(),
            "us",
        ),
        m("optimizer.optimize_us", optimize.mean_us(), "us"),
        m(
            "optimizer.explored_per_call",
            ratio(c.explored as f64, optimize.calls as f64),
            "count",
        ),
        m(
            "optimizer.memo_hit_ratio",
            ratio(c.memo_hits as f64, (c.memo_hits + c.memo_misses) as f64),
            "ratio",
        ),
        m(
            "optimizer.rule_accept_ratio",
            ratio(c.rule_accepts as f64, c.rule_attempts as f64),
            "ratio",
        ),
        m("core.build_us", tr.agg("core.build").mean_us(), "us"),
        m(
            "op.self_us",
            ratio((read.self_ns + write.self_ns) as f64 / 1e3, ops),
            "us",
        ),
        m("obs.events_per_op", c.events as f64 / ops, "count"),
        m(
            "obs.overhead_ratio",
            ratio(t.ops_per_s(), plain.ops_per_s()),
            "ratio",
        ),
        m(
            "alloc.count_per_op",
            (read.allocs + write.allocs) as f64 / ops,
            "count",
        ),
        m(
            "alloc.bytes_per_op",
            (read.alloc_bytes + write.alloc_bytes) as f64 / ops,
            "B",
        ),
    ]
}

fn print_result(t: &Tally, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.ops(),
        t.failed,
        body.join(", ")
    );
}

fn run_one(args: &Args) -> Result<(), String> {
    let mut tr = Tracer::new();
    let (plain, traced) = match args.workload.as_str() {
        "edos_poll" => edos_poll::run(&args.cfg, &mut tr),
        "feed_mix" => feed_mix::run(&args.cfg, &mut tr),
        "plan_select" => plan_select::run(&args.cfg, &mut tr),
        other => unreachable!("workload {other} passed argument checks"),
    }?;
    let mode = if args.cfg.trace { "traced" } else { "untraced" };
    println!(
        "workload {} seed {} ({mode}): {} rounds, {} reads, {} writes, {} failed",
        args.workload,
        args.cfg.seed,
        plain.rounds + traced.rounds,
        plain.reads.len() + traced.reads.len(),
        plain.writes.len() + traced.writes.len(),
        plain.failed + traced.failed,
    );
    let (shown, metrics) = if args.cfg.trace {
        let path = std::path::Path::new(&args.out)
            .join(format!("{}-{}.tsv", args.workload, args.cfg.seed));
        tr.write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("trace: {}", path.display());
        (&traced, per_layer(&plain, &traced, &tr))
    } else {
        let p = &plain;
        println!(
            "  samples: {} reads, {} writes; error_rate {}",
            p.reads.len(),
            p.writes.len(),
            ratio(p.failed as f64, p.ops() as f64)
        );
        if !p.writes.is_empty() {
            println!(
                "  write_p50_us {} us, write_p99_us {} us, write mean {} us",
                best_pct_us(&p.writes, p.rounds, 0.5),
                best_pct_us(&p.writes, p.rounds, 0.99),
                mean_us(&p.writes)
            );
        }
        (&plain, end_to_end(&plain))
    };
    for x in &metrics {
        println!("  {:<32} {:>16.4} {}", x.name, x.value, x.unit);
    }
    print_result(shown, &metrics);
    Ok(())
}

/// Run every workload, each in a fresh process of its own.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut failed = Vec::new();
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.cfg.seed.to_string()])
            .args(["--seconds", &args.cfg.seconds.to_string()])
            .args(["--trace", if args.cfg.trace { "1" } else { "0" }])
            .args(["--out", &args.out])
            .status()
            .map_err(|e| format!("starting {w}: {e}"))?;
        if !status.success() {
            failed.push(w);
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("failed: {}", failed.join(", ")))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let r = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
