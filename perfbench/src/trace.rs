//! Tracing from outside the program: spans the benchmark opens around
//! each direct call into a layer, and a trace sink that stamps every
//! engine event with the wall clock and the span it happened in.
//!
//! Spans and events are aggregated as they close and the first few are
//! also kept in memory; [`Tracer::write`] dumps those once the run ends.

use crate::alloc;
use axml_obs::{TraceEvent, TraceSink};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// Raw span and event records kept for the trace file; aggregates count
/// every span and event regardless.
const SPAN_KEEP: usize = 20_000;
const EVENT_KEEP: usize = 100_000;

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanAgg {
    pub calls: u64,
    pub total_ns: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl SpanAgg {
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    start: Instant,
    child_ns: u64,
    alloc0: (u64, u64),
}

struct SpanRec {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    self_ns: u64,
    allocs: u64,
    alloc_bytes: u64,
}

/// Events seen by the sink: counts per kind, plus the first few stamped.
#[derive(Default)]
pub struct EventLog {
    counts: BTreeMap<&'static str, u64>,
    kept: Vec<(u64, u32, &'static str)>,
}

impl EventLog {
    pub fn count(&self, kind: &str) -> u64 {
        self.counts.get(kind).copied().unwrap_or(0)
    }

    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }
}

/// The benchmark's trace sink: stamps each event with the wall clock and
/// the id of the innermost open benchmark span.
struct StampSink {
    epoch: Instant,
    current: Rc<Cell<u32>>,
    log: Rc<RefCell<EventLog>>,
}

impl TraceSink for StampSink {
    fn record(&mut self, event: TraceEvent) {
        let t = self.epoch.elapsed().as_nanos() as u64;
        let kind = event.kind();
        let mut log = self.log.borrow_mut();
        *log.counts.entry(kind).or_insert(0) += 1;
        if log.kept.len() < EVENT_KEEP {
            log.kept.push((t, self.current.get(), kind));
        }
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    current: Rc<Cell<u32>>,
    stack: Vec<Open>,
    next_id: u32,
    agg: BTreeMap<&'static str, SpanAgg>,
    kept: Vec<SpanRec>,
    log: Rc<RefCell<EventLog>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            current: Rc::new(Cell::new(0)),
            stack: Vec::new(),
            next_id: 1,
            agg: BTreeMap::new(),
            kept: Vec::new(),
            log: Rc::new(RefCell::new(EventLog::default())),
        }
    }

    /// Switch span recording and allocation counting on or off; only
    /// between spans.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.on = on;
        alloc::set_counting(on);
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A fresh sink for a system, sharing this tracer's clock, span
    /// cursor and event log.
    pub fn sink(&self) -> Box<dyn TraceSink> {
        Box::new(StampSink {
            epoch: self.epoch,
            current: self.current.clone(),
            log: self.log.clone(),
        })
    }

    pub fn events(&self) -> std::cell::Ref<'_, EventLog> {
        self.log.borrow()
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.stack.push(Open {
            id,
            parent: self.current.get(),
            name,
            start: Instant::now(),
            child_ns: 0,
            alloc0: alloc::counts(),
        });
        self.current.set(id);
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let open = self.stack.pop().expect("exit matches an enter");
        let dur = open.start.elapsed().as_nanos() as u64;
        let (n, b) = alloc::counts();
        let self_ns = dur.saturating_sub(open.child_ns);
        let a = self.agg.entry(open.name).or_default();
        a.calls += 1;
        a.total_ns += dur;
        a.self_ns += self_ns;
        a.allocs += n - open.alloc0.0;
        a.alloc_bytes += b - open.alloc0.1;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        self.current.set(open.parent);
        if self.kept.len() < SPAN_KEEP {
            self.kept.push(SpanRec {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns: open.start.duration_since(self.epoch).as_nanos() as u64,
                dur_ns: dur,
                self_ns,
                allocs: n - open.alloc0.0,
                alloc_bytes: b - open.alloc0.1,
            });
        }
    }

    /// Time `f` as a span. The result passes through `black_box`, so a
    /// replayed call whose result is dropped still runs.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = std::hint::black_box(f());
        self.exit();
        r
    }

    pub fn agg(&self, name: &str) -> SpanAgg {
        self.agg.get(name).copied().unwrap_or_default()
    }

    /// Write the kept spans and events as tab-separated lines:
    /// `span id parent name start_ns dur_ns self_ns allocs alloc_bytes`
    /// and `event t_ns span kind`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            writeln!(
                w,
                "span\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.start_ns, s.dur_ns, s.self_ns, s.allocs, s.alloc_bytes
            )?;
        }
        for (t, span, kind) in &self.log.borrow().kept {
            writeln!(w, "event\t{t}\t{span}\t{kind}")?;
        }
        w.flush()
    }
}
