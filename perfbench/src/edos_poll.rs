//! `edos_poll`: the EDOS replica network under Zipf polls. A 10⁴-peer
//! uniform WAN carries 8 mirrors of a 40-package catalog and of the
//! `names` service; 192 clients, each on a LAN route to a home mirror,
//! poll `catalog@any` (80 %) or `names@any` (20 %) under 2 % drops and
//! outage windows on the hottest route, with retries and failover on.
//! Reads only: the engine, pick/retry/failover, the simulated transport
//! and payload serialization do the work.

use crate::gen::{catalog, Rng, Zipf};
use crate::measure::{canon_sorted, drive, harvest, mark, timed_setup, Cfg, Tally};
use crate::trace::Tracer;
use axml_core::prelude::*;
use axml_xml::equiv::{canonicalize, Canon};
use axml_xml::tree::Tree;
use std::collections::HashMap;
use std::time::Instant;

pub const PEERS: usize = 10_000;
pub const MIRRORS: usize = 8;
pub const CLIENTS: usize = 192;
pub const PKGS: usize = 40;
/// Polls per round; one round spans every outage window.
pub const POLLS: usize = 4_000;
pub const ZIPF_S: f64 = 1.1;
pub const CATALOG_SHARE: f64 = 0.8;
pub const DROP: f64 = 0.02;
pub const OUTAGES: usize = 12;
const NAMES: &str = r#"doc("catalog")//pkg/@name"#;

struct Inputs {
    catalog: String,
    /// `(client rank, catalog poll?)` per poll.
    polls: Vec<(usize, bool)>,
    fault_seed: u64,
    want_catalog: Canon,
    want_names: Vec<Canon>,
}

fn inputs(seed: u64) -> Result<Inputs, String> {
    let catalog = catalog(PKGS, 0.1, &mut Rng::stream(seed, "edos.catalog"));
    let tree = Tree::parse(&catalog).map_err(|e| e.to_string())?;
    let zipf = Zipf::new(CLIENTS, ZIPF_S);
    let mut rng = Rng::stream(seed, "edos.polls");
    let polls = (0..POLLS)
        .map(|_| (zipf.sample(&mut rng), rng.chance(CATALOG_SHARE)))
        .collect();
    // The `names` answer, computed directly by the query layer.
    let q = Query::parse("names", NAMES).map_err(|e| e.to_string())?;
    let docs: HashMap<DocName, Tree> = [("catalog".into(), tree.clone())].into();
    let names = q.eval_with_docs(&[], &docs).map_err(|e| e.to_string())?;
    Ok(Inputs {
        want_catalog: canonicalize(&tree, tree.root()),
        want_names: canon_sorted(&names),
        catalog,
        polls,
        fault_seed: Rng::stream(seed, "edos.faults").next_u64(),
    })
}

fn build(inp: &Inputs) -> CoreResult<(AxmlSystem, Vec<PeerId>, Vec<PeerId>)> {
    let mut sys = AxmlSystem::with_topology(&Topology::Uniform {
        n: PEERS,
        cost: LinkCost::wan(),
    });
    sys.set_retry_policy(RetryPolicy::standard());
    sys.set_failover(true);
    let mirrors: Vec<PeerId> = (0..MIRRORS)
        .map(|j| PeerId((j * PEERS / MIRRORS) as u32))
        .collect();
    for &m in &mirrors {
        let tree = Tree::parse(&inp.catalog).map_err(CoreError::Xml)?;
        sys.install_replica(m, "catalog", "catalog", tree)?;
        sys.register_declarative_service(m, "names", NAMES)?;
        sys.catalog_mut().add_service_replica("names", m, "names");
    }
    let mut clients = Vec::with_capacity(CLIENTS);
    for i in 0..CLIENTS {
        let mut idx = (i + 1) * PEERS / (CLIENTS + 1);
        while mirrors.iter().any(|m| m.index() == idx) {
            idx += 1;
        }
        clients.push(PeerId(idx as u32));
    }
    // Client rank r lives on mirror r mod 8's LAN.
    for (r, &c) in clients.iter().enumerate() {
        sys.net_mut()
            .set_link(c, mirrors[r % MIRRORS], LinkCost::lan());
    }
    let mut plan = FaultPlan::new(inp.fault_seed).drop_prob(DROP);
    for j in 0..OUTAGES {
        let start = 50.0 + 900.0 * j as f64;
        plan = plan.outage_directed(clients[0], mirrors[0], start, start + 350.0);
    }
    sys.net_mut().set_fault_plan(plan);
    Ok((sys, clients, mirrors))
}

fn round(inp: &Inputs, tr: &mut Tracer, t: &mut Tally) -> Result<(), String> {
    let (mut sys, clients, mirrors) = timed_setup(t, tr, |tr| {
        tr.span("core.build", || build(inp))
            .map_err(|e| format!("edos_poll set-up: {e}"))
    })?;
    if tr.is_on() {
        sys.set_trace_sink(tr.sink());
    }
    let names_query = sys
        .peer(mirrors[0])
        .service(&"names".into(), mirrors[0])
        .map_err(|e| e.to_string())?
        .query
        .clone();
    let fetch = Expr::Doc {
        name: "catalog".into(),
        at: PeerRef::Any,
    };
    let call = Expr::Sc {
        provider: PeerRef::Any,
        service: "names".into(),
        params: vec![],
        forward: vec![],
    };
    let m = mark(&mut sys, tr);
    for &(rank, is_fetch) in &inp.polls {
        let client = clients[rank];
        let t0 = Instant::now();
        tr.enter("op.read");
        let r = tr.span("engine.eval", || {
            sys.eval(client, if is_fetch { &fetch } else { &call })
        });
        tr.exit();
        t.record(false, t0.elapsed(), r.is_ok());
        // Errors under faults count as failed; wrong answers abort.
        let Ok(forest) = r else { continue };
        let got: Vec<Canon> = forest
            .iter()
            .map(|x| tr.span("xml.canon", || canonicalize(x, x.root())))
            .collect();
        let ok = if is_fetch {
            got.len() == 1 && got[0] == inp.want_catalog
        } else {
            let mut got = got;
            got.sort();
            got == inp.want_names
        };
        if !ok {
            return Err(format!(
                "edos_poll: client {client} got a wrong {} answer",
                if is_fetch { "catalog" } else { "names" }
            ));
        }
        if tr.is_on() {
            tr.span("xml.size", || {
                forest.iter().map(Tree::serialized_size).sum::<usize>()
            });
            if !is_fetch {
                let home = mirrors[rank % MIRRORS];
                tr.span("query.eval", || {
                    names_query
                        .eval_with_docs(&[], sys.peer(home))
                        .map(|f| f.len())
                })
                .map_err(|e| e.to_string())?;
            }
        }
    }
    harvest(&sys, tr, &m, t)
}

pub fn run(cfg: &Cfg, tr: &mut Tracer) -> Result<(Tally, Tally), String> {
    let inp = inputs(cfg.seed)?;
    drive(cfg, tr, 1, |tr, t| round(&inp, tr, t))
}
