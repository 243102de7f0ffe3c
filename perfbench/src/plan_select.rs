//! `plan_select`: the optimizer on the request path. A client, `data-1`
//! over a WAN link and a `data-2` replica over a slow link (LAN between
//! the two) hold a 100-package catalog of which 5 % is selected. Each
//! operation takes one of four naive plan shapes, in a seeded order,
//! builds the cost model, searches for the cheapest equivalent plan and
//! evaluates it. No faults, no subscriptions.

use crate::gen::{catalog, Rng, BIG};
use crate::measure::{canon_sorted, drive, harvest, mark, timed_setup, Cfg, Tally, MIN_SAMPLES};
use crate::trace::Tracer;
use axml_core::prelude::*;
use axml_xml::equiv::Canon;
use std::time::Instant;

pub const PKGS: usize = 100;
pub const SELECTIVITY: f64 = 0.05;
/// Per round: this many blocks, each running every shape in a seeded
/// order, so every seed runs the same mix.
pub const BLOCKS: usize = 8;
/// How often each shape runs per block. `remote-selection`, E8's headline
/// shape, runs twice: with five operations per block the median of the
/// latency mix falls inside one shape's latencies, never on the gap
/// between two shapes, where it would jump from run to run.
pub const WEIGHTS: [usize; 4] = [2, 1, 1, 1];
pub const SHAPES: [&str; 4] = [
    "remote-selection",
    "query-over-sc",
    "generic-doc-selection",
    "double-use",
];

struct Inputs {
    catalog: String,
    shapes: Vec<Expr>,
    order: Vec<usize>,
}

/// What the naive plan of each shape returns and ships.
struct Reference {
    forest: Vec<Canon>,
    bytes: u64,
}

fn query(name: &str, src: &str) -> Result<Query, String> {
    Query::parse(name, src).map_err(|e| e.to_string())
}

fn inputs(seed: u64) -> Result<Inputs, String> {
    let (client, data1) = (PeerId(0), PeerId(1));
    let select = query(
        "select-big",
        &format!(
            r#"for $p in $0//pkg where $p/size/text() > {BIG}
               return <big name="{{$p/@name}}">{{$p/size}}</big>"#
        ),
    )?;
    let doc = |name: &str, at: PeerRef| Expr::Doc {
        name: name.into(),
        at,
    };
    let shapes = vec![
        Expr::Apply {
            query: LocatedQuery::new(select.clone(), client),
            args: vec![doc("catalog", PeerRef::At(data1))],
        },
        Expr::Apply {
            query: LocatedQuery::new(
                query(
                    "fmt",
                    &format!(
                        r#"for $t in $0 where $t/size/text() > {BIG} return <w>{{$t/@name}}</w>"#
                    ),
                )?,
                client,
            ),
            args: vec![Expr::Sc {
                provider: PeerRef::At(data1),
                service: "all-pkgs".into(),
                params: vec![],
                forward: vec![],
            }],
        },
        Expr::Apply {
            query: LocatedQuery::new(select, client),
            args: vec![doc("cat-any", PeerRef::Any)],
        },
        Expr::Apply {
            query: LocatedQuery::new(
                query(
                    "pair",
                    &format!(
                        r#"for $x in $0//pkg for $y in $1//pkg
                           where $x/@name = $y/@name and $x/size/text() > {BIG}
                           return <p>{{$x/@name}}</p>"#
                    ),
                )?,
                client,
            ),
            args: vec![
                doc("catalog", PeerRef::At(data1)),
                doc("catalog", PeerRef::At(data1)),
            ],
        },
    ];
    let mut rng = Rng::stream(seed, "plan.order");
    let mut order = Vec::new();
    for _ in 0..BLOCKS {
        let mut block: Vec<usize> = (0..SHAPES.len())
            .flat_map(|s| std::iter::repeat_n(s, WEIGHTS[s]))
            .collect();
        rng.shuffle(&mut block);
        order.extend(block);
    }
    Ok(Inputs {
        catalog: catalog(PKGS, SELECTIVITY, &mut Rng::stream(seed, "plan.catalog")),
        shapes,
        order,
    })
}

fn build(inp: &Inputs) -> CoreResult<(AxmlSystem, PeerId)> {
    let mut sys = AxmlSystem::builder()
        .peers(["client", "data-1", "data-2"])
        .link("client", "data-1", LinkCost::wan())
        .link("client", "data-2", LinkCost::slow())
        .link("data-1", "data-2", LinkCost::lan())
        .doc("data-1", "catalog", inp.catalog.as_str())
        .replica("data-2", "cat-any", "catalog", inp.catalog.as_str())
        .service(
            "data-1",
            "all-pkgs",
            r#"for $p in doc("catalog")//pkg return {$p}"#,
        )
        .build()?;
    let data1 = sys.peer_id("data-1").expect("declared peer");
    sys.catalog_mut()
        .add_doc_replica("cat-any", data1, "catalog");
    let client = sys.peer_id("client").expect("declared peer");
    Ok((sys, client))
}

/// Evaluate every naive shape once, on a system of its own.
fn references(inp: &Inputs) -> Result<Vec<Reference>, String> {
    let (mut sys, client) = build(inp).map_err(|e| e.to_string())?;
    inp.shapes
        .iter()
        .zip(SHAPES)
        .map(|(shape, name)| {
            let b0 = sys.stats().total_bytes();
            let forest = sys
                .eval(client, shape)
                .map_err(|e| format!("plan_select: naive {name}: {e}"))?;
            Ok(Reference {
                forest: canon_sorted(&forest),
                bytes: sys.stats().total_bytes() - b0,
            })
        })
        .collect()
}

fn round(
    inp: &Inputs,
    refs: &[Reference],
    opt: &Optimizer,
    tr: &mut Tracer,
    t: &mut Tally,
) -> Result<(), String> {
    let (mut sys, client) = timed_setup(t, tr, |tr| {
        tr.span("core.build", || build(inp))
            .map_err(|e| format!("plan_select set-up: {e}"))
    })?;
    if tr.is_on() {
        sys.set_trace_sink(tr.sink());
    }
    let m = mark(&mut sys, tr);
    for &s in &inp.order {
        let b0 = sys.stats().total_bytes();
        let t0 = Instant::now();
        tr.enter("op.read");
        let model = tr.span("cost.model_build", || CostModel::from_system(&sys));
        let plan = tr.span("optimizer.optimize", || {
            opt.optimize_with(&model, client, &inp.shapes[s], sys.obs_mut())
        });
        let r = tr.span("engine.eval", || sys.eval(client, &plan.expr));
        tr.exit();
        t.record(false, t0.elapsed(), r.is_ok());
        let Ok(forest) = r else { continue };
        let bytes = sys.stats().total_bytes() - b0;
        let name = SHAPES[s];
        if canon_sorted(&forest) != refs[s].forest {
            return Err(format!(
                "plan_select: {name}: the optimized plan's answer differs from the naive plan's"
            ));
        }
        if bytes > refs[s].bytes {
            return Err(format!(
                "plan_select: {name}: the optimized plan shipped {bytes} B, the naive one {} B",
                refs[s].bytes
            ));
        }
    }
    harvest(&sys, tr, &m, t)
}

pub fn run(cfg: &Cfg, tr: &mut Tracer) -> Result<(Tally, Tally), String> {
    let inp = inputs(cfg.seed)?;
    let refs = references(&inp)?;
    let opt = Optimizer::standard();
    let min_rounds = MIN_SAMPLES.div_ceil(inp.order.len()) as u64;
    drive(cfg, tr, min_rounds, |tr, t| round(&inp, &refs, &opt, tr, t))
}
