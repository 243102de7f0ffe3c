//! The measuring loop shared by the workloads: rounds of set-up plus a
//! fixed operation list, each round on a freshly built system, repeated
//! until the time is up. A traced run alternates untraced and traced
//! rounds, so the two halves see the same inputs and their throughput
//! ratio is the tracing overhead.

use crate::trace::Tracer;
use axml_core::prelude::*;
use axml_xml::equiv::{canonicalize, Canon};
use axml_xml::stats::CopyStats;
use axml_xml::tree::Tree;
use std::time::{Duration, Instant};

pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Samples of an operation kind a run holds at the least: enough for a
/// p99 with ten samples beyond it.
pub const MIN_SAMPLES: usize = 1_000;

/// Set-ups timed per round; the round runs on the last one.
pub const SETUPS: usize = 5;

/// Counters read from the program at the end of each round, summed.
#[derive(Debug, Default)]
pub struct Counters {
    pub defs: u64,
    pub retries: u64,
    pub failovers: u64,
    pub service_calls: u64,
    pub msgs: u64,
    pub dropped: u64,
    pub scheduled: u64,
    pub peak_pending: u64,
    pub copied_bytes: u64,
    pub shared_bytes: u64,
    pub cow: u64,
    pub matcher_probes: u64,
    pub matcher_skips: u64,
    pub fresh: u64,
    pub suppressed: u64,
    pub explored: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub rule_attempts: u64,
    pub rule_accepts: u64,
    pub events: u64,
    pub tasks: u64,
    pub pumps: u64,
}

/// What one kind of round (untraced or traced) accumulated.
#[derive(Debug, Default)]
pub struct Tally {
    pub rounds: u64,
    /// Latencies in nanoseconds, per kind and in issue order.
    pub reads: Vec<u64>,
    pub writes: Vec<u64>,
    pub all: Vec<u64>,
    pub failed: u64,
    /// Set-up times in seconds, one per set-up.
    pub setup_s: Vec<f64>,
    pub wire_bytes: u64,
    pub virtual_ms: f64,
    /// Process peak RSS after the warm-up round.
    pub peak_rss_mib: f64,
    pub c: Counters,
}

impl Tally {
    pub fn ops(&self) -> u64 {
        (self.reads.len() + self.writes.len()) as u64
    }

    /// Closed loop with one caller: the operations of one round per
    /// second of their summed best times (see [`best_per_position`]).
    pub fn ops_per_s(&self) -> f64 {
        let best = best_per_position(&self.all, self.rounds);
        if best.is_empty() {
            return 0.0;
        }
        best.len() as f64 / (best.iter().sum::<u64>() as f64 / 1e9)
    }

    pub fn record(&mut self, write: bool, took: Duration, ok: bool) {
        let ns = took.as_nanos() as u64;
        self.all.push(ns);
        if write {
            self.writes.push(ns);
        } else {
            self.reads.push(ns);
        }
        if !ok {
            self.failed += 1;
        }
    }
}

/// Program state right after set-up, subtracted at the end of the round.
pub struct Mark {
    copy: CopyStats,
    scheduled: u64,
    now_ms: f64,
    events: u64,
    tasks: u64,
    pumps: u64,
}

/// Zero the system's statistics and note where the timed part starts.
pub fn mark(sys: &mut AxmlSystem, tr: &Tracer) -> Mark {
    sys.reset_stats();
    let ev = tr.events();
    Mark {
        copy: CopyStats::snapshot(),
        scheduled: sys.net().sched_stats().scheduled,
        now_ms: sys.now_ms(),
        events: ev.total(),
        tasks: ev.count("task"),
        pumps: ev.count("delta"),
    }
}

/// Check the round's run report and fold its counters into `t`.
pub fn harvest(sys: &AxmlSystem, tr: &Tracer, m: &Mark, t: &mut Tally) -> Result<(), String> {
    let report = sys.run_report("round");
    if !report.reconciled {
        return Err("run report does not reconcile with the network statistics".into());
    }
    let metrics = sys.metrics();
    if !metrics.matcher_consistent() {
        return Err("matcher counters are inconsistent".into());
    }
    let stats = sys.stats();
    let sched = sys.net().sched_stats();
    let copy = CopyStats::snapshot().delta_since(&m.copy);
    let ev = tr.events();
    t.rounds += 1;
    t.wire_bytes += stats.total_bytes();
    t.virtual_ms += sys.now_ms() - m.now_ms;
    let c = &mut t.c;
    c.defs += metrics.defs().iter().map(|(_, n)| n).sum::<u64>();
    c.retries += metrics.retries;
    c.failovers += metrics.failovers;
    c.service_calls += metrics.service_calls;
    c.msgs += stats.total_messages();
    c.dropped += stats.total_dropped();
    c.scheduled += sched.scheduled - m.scheduled;
    c.peak_pending = c.peak_pending.max(sched.peak_pending);
    c.copied_bytes += copy.bytes_copied;
    c.shared_bytes += copy.bytes_shared;
    c.cow += copy.cow_materializations;
    c.matcher_probes += metrics.matcher_probes;
    c.matcher_skips += metrics.matcher_skips;
    c.fresh += metrics.delta_fresh;
    c.suppressed += metrics.delta_suppressed;
    c.explored += metrics.explored;
    c.memo_hits += metrics.memo_hits;
    c.memo_misses += metrics.memo_misses;
    for (_, r) in metrics.rules() {
        c.rule_attempts += r.attempted;
        c.rule_accepts += r.accepted;
    }
    c.events += ev.total() - m.events;
    c.tasks += ev.count("task") - m.tasks;
    c.pumps += ev.count("delta") - m.pumps;
    Ok(())
}

/// Run one warm-up round, then rounds until `cfg.seconds` have passed
/// and at least `min_rounds` ran. Returns the untraced and the traced
/// tallies.
pub fn drive(
    cfg: &Cfg,
    tr: &mut Tracer,
    min_rounds: u64,
    mut round: impl FnMut(&mut Tracer, &mut Tally) -> Result<(), String>,
) -> Result<(Tally, Tally), String> {
    // The warm-up round is checked but not counted. The peak RSS after it
    // covers a whole round, set-up and every operation, before the sample
    // buffers of the measured rounds grow with the machine's speed.
    round(tr, &mut Tally::default())?;
    let peak_rss_mib = axml_obs::MemStats::snapshot().peak_rss_mb();
    let start = Instant::now();
    let (mut plain, mut traced) = (Tally::default(), Tally::default());
    plain.peak_rss_mib = peak_rss_mib;
    let mut i = 0u64;
    loop {
        let on = cfg.trace && i % 2 == 1;
        tr.set_on(on);
        let r = round(tr, if on { &mut traced } else { &mut plain });
        tr.set_on(false);
        r?;
        i += 1;
        let enough = if cfg.trace { i >= 2 } else { i >= min_rounds };
        if enough && start.elapsed().as_secs_f64() >= cfg.seconds {
            return Ok((plain, traced));
        }
    }
}

/// Set up [`SETUPS`] times, each in a `setup` span and timed, and return
/// the last system.
pub fn timed_setup<S>(
    t: &mut Tally,
    tr: &mut Tracer,
    mut f: impl FnMut(&mut Tracer) -> Result<S, String>,
) -> Result<S, String> {
    let mut last = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        tr.enter("setup");
        let s = f(tr);
        tr.exit();
        let s = s?;
        t.setup_s.push(t0.elapsed().as_secs_f64());
        // The previous system is dropped here, outside the timed part.
        last = Some(s);
    }
    Ok(last.expect("at least one set-up"))
}

/// Nearest-rank percentile of nanosecond samples, in microseconds.
fn pct_us(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64 / 1e3
}

/// Each operation's best time over the rounds. Every round runs the same
/// operation list on a freshly built system, so the samples at one
/// position of the list are the same work; on a shared host other
/// tenants only ever add time to them. A slower program raises every
/// sample and so the best one too, while the best sample stays put when
/// the host's speed swings between runs, which moves medians and means
/// by a quarter. `samples` holds whole rounds in issue order.
pub fn best_per_position(samples: &[u64], rounds: u64) -> Vec<u64> {
    if rounds == 0 || samples.len() < rounds as usize {
        return Vec::new();
    }
    let per_round = samples.len() / rounds as usize;
    let mut best = samples[..per_round].to_vec();
    for round in samples.chunks_exact(per_round).skip(1) {
        for (b, &x) in best.iter_mut().zip(round) {
            *b = (*b).min(x);
        }
    }
    best
}

/// A latency percentile over the operations of one round, each at its
/// best time over the rounds (see [`best_per_position`]), in microseconds.
pub fn best_pct_us(samples: &[u64], rounds: u64, q: f64) -> f64 {
    pct_us(&best_per_position(samples, rounds), q)
}

/// The canonical forms of a forest's trees, sorted: equal for forests
/// that are equivalent as multisets.
pub fn canon_sorted(forest: &[Tree]) -> Vec<Canon> {
    let mut v: Vec<Canon> = forest.iter().map(|t| canonicalize(t, t.root())).collect();
    v.sort();
    v
}

/// The smallest value, for set-up times: like an operation's best time,
/// it stays put while other tenants slow the host.
pub fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

pub fn mean_us(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<u64>() as f64 / samples.len() as f64 / 1e3
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
