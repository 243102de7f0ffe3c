//! The network-aware cost model driving the optimizer.
//!
//! §3.3's rewrite rules describe *equivalent* strategies; choosing among
//! them needs an estimate of what each one ships. [`CostModel`] snapshots
//! the cost-relevant facts of a system — link parameters, document sizes
//! and statistics, visible service definitions, replica catalogs — and
//! [`CostModel::estimate`] predicts, without executing, the traffic of
//! `eval@site(expr)`: a mirror of the evaluator in [`crate::eval`] that
//! adds up *estimated* transfers instead of performing them.
//!
//! Result sizes of queries come from `axml-query`'s cardinality estimator
//! over per-document statistics; unknown shapes fall back to documented
//! default selectivities. Estimates are intentionally cheap and
//! conservative — the benchmarks compare *measured* traffic; the model
//! only has to rank candidate plans correctly.

use crate::expr::{Expr, PeerRef, SendDest};
use crate::pick::PickPolicy;
use crate::system::AxmlSystem;
use axml_net::link::LinkCost;
use axml_query::estimate::{estimate as estimate_query, ForestStats};
use axml_query::Query;
use axml_xml::ids::{DocName, PeerId, ServiceName};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

/// Estimated cost of an evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cost {
    /// Estimated bytes crossing links (payload + overhead).
    pub bytes: f64,
    /// Estimated messages.
    pub messages: f64,
    /// Estimated total transfer time (sum over messages; the sequential
    /// model of the evaluator).
    pub time_ms: f64,
}

impl Cost {
    /// The zero cost.
    pub fn zero() -> Self {
        Cost::default()
    }

    /// The scalar the optimizer minimizes.
    pub fn scalar(&self) -> f64 {
        self.time_ms
    }

    /// Accumulate another cost into this one.
    pub fn add(&mut self, other: Cost) {
        self.bytes += other.bytes;
        self.messages += other.messages;
        self.time_ms += other.time_ms;
    }

    fn charge(&mut self, link: &LinkCost, payload_bytes: f64, local: bool) {
        if local {
            return;
        }
        let n = axml_net::link::saturating_bytes_f64(payload_bytes);
        self.bytes += link.charged_bytes(n) as f64;
        self.messages += 1.0;
        self.time_ms += link.transfer_ms(n);
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "~{:.0} B / {:.0} msg / {:.2} ms",
            self.bytes, self.messages, self.time_ms
        )
    }
}

/// Outcome of estimating one (sub)expression.
#[derive(Debug, Clone, Copy)]
pub struct EstimatedEval {
    /// Estimated serialized bytes of the forest materializing at the site.
    pub value_bytes: f64,
    /// Estimated traffic to get there.
    pub cost: Cost,
}

/// Default result-size ratio when a query's output cannot be estimated
/// from statistics.
pub const DEFAULT_QUERY_RATIO: f64 = 0.3;
/// Nominal size of a remote-evaluation request envelope beyond the
/// serialized expression.
pub const REQUEST_OVERHEAD: f64 = 0.0;

/// A snapshot of the cost-relevant state of an [`AxmlSystem`].
#[derive(Debug, Clone)]
pub struct CostModel {
    n_peers: usize,
    links: Vec<Vec<LinkCost>>,
    up: Vec<Vec<bool>>,
    doc_sizes: HashMap<(PeerId, DocName), f64>,
    doc_stats: HashMap<(PeerId, DocName), ForestStats>,
    peer_stats: HashMap<PeerId, ForestStats>,
    services: HashMap<(PeerId, ServiceName), Query>,
    doc_replicas: HashMap<DocName, Vec<(PeerId, DocName)>>,
    service_replicas: HashMap<ServiceName, Vec<(PeerId, ServiceName)>>,
    pick: PickPolicy,
}

impl CostModel {
    /// Snapshot a system.
    pub fn from_system(sys: &AxmlSystem) -> Self {
        let n = sys.peer_count();
        let mut links = vec![vec![LinkCost::local(); n]; n];
        let mut up = vec![vec![true; n]; n];
        for a in 0..n {
            for b in 0..n {
                links[a][b] = sys.net().link(PeerId(a as u32), PeerId(b as u32));
                up[a][b] = sys.net().link_up(PeerId(a as u32), PeerId(b as u32));
            }
        }
        let mut doc_sizes = HashMap::new();
        let mut doc_stats = HashMap::new();
        let mut peer_stats = HashMap::new();
        let mut services = HashMap::new();
        for p in 0..n {
            let pid = PeerId(p as u32);
            let state = sys.peer(pid);
            let mut all_trees = Vec::new();
            for doc in state.docs.iter() {
                let tree = doc.tree().clone();
                doc_sizes.insert((pid, doc.name().clone()), tree.serialized_size() as f64);
                doc_stats.insert(
                    (pid, doc.name().clone()),
                    ForestStats::collect(std::slice::from_ref(&tree)),
                );
                all_trees.push(tree);
            }
            peer_stats.insert(pid, ForestStats::collect(&all_trees));
            for (name, svc) in &state.services {
                services.insert((pid, name.clone()), svc.query.clone());
            }
        }
        let mut doc_replicas: HashMap<DocName, Vec<(PeerId, DocName)>> = HashMap::new();
        let mut service_replicas: HashMap<ServiceName, Vec<(PeerId, ServiceName)>> = HashMap::new();
        // The catalog is read through its public views.
        for (class, members) in sys.catalog_view() {
            doc_replicas.insert(class, members);
        }
        for (class, members) in sys.catalog_service_view() {
            service_replicas.insert(class, members);
        }
        CostModel {
            n_peers: n,
            links,
            up,
            doc_sizes,
            doc_stats,
            peer_stats,
            services,
            doc_replicas,
            service_replicas,
            pick: sys.pick_policy(),
        }
    }

    /// Number of peers in the snapshot.
    pub fn peer_count(&self) -> usize {
        self.n_peers
    }

    /// Link cost between two peers. A failed (down) link is returned as a
    /// poisoned cost so any plan crossing it is ranked out — the optimizer
    /// routes around partitions (rule (12) right-to-left finds relays).
    pub fn link(&self, a: PeerId, b: PeerId) -> LinkCost {
        if a != b && !self.up[a.index()][b.index()] {
            return LinkCost {
                latency_ms: 1e12,
                bytes_per_ms: 1e-6,
                per_msg_bytes: 0,
            };
        }
        self.links[a.index()][b.index()]
    }

    /// The size of a document, if known.
    pub fn doc_size(&self, at: PeerId, name: &DocName) -> Option<f64> {
        self.doc_sizes.get(&(at, name.clone())).copied()
    }

    /// The visible definition of a service (declarative services only).
    pub fn service_query(&self, at: PeerId, name: &ServiceName) -> Option<&Query> {
        self.services.get(&(at, name.clone()))
    }

    /// Replicas of a generic document class.
    pub fn doc_replicas(&self, class: &DocName) -> &[(PeerId, DocName)] {
        self.doc_replicas
            .get(class)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Replicas of a generic service class.
    pub fn service_replicas(&self, class: &ServiceName) -> &[(PeerId, ServiceName)] {
        self.service_replicas
            .get(class)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Resolve a generic document reference the way the *runtime* will:
    /// the model mirrors the system's pick policy (definition (9)), so
    /// estimates of `d@any` plans match what evaluation does.
    pub fn resolve_doc(
        &self,
        site: PeerId,
        name: &DocName,
        at: &PeerRef,
    ) -> Option<(PeerId, DocName)> {
        match at {
            PeerRef::At(p) => Some((*p, name.clone())),
            PeerRef::Any => {
                let members = self.doc_replicas(name);
                match self.pick {
                    PickPolicy::Closest => members
                        .iter()
                        .min_by(|(a, _), (b, _)| {
                            let ca = self.link(site, *a).transfer_ms(65536);
                            let cb = self.link(site, *b).transfer_ms(65536);
                            ca.partial_cmp(&cb).unwrap_or(std::cmp::Ordering::Equal)
                        })
                        .cloned(),
                    // First/Random/RoundRobin: the first member is the
                    // deterministic representative (exact for First, a
                    // representative sample otherwise).
                    _ => members.first().cloned(),
                }
            }
        }
    }

    /// Estimate `eval@site(expr)`.
    pub fn estimate(&self, site: PeerId, expr: &Expr) -> EstimatedEval {
        let mut cost = Cost::zero();
        let value_bytes = self.est(site, expr, None, &mut cost);
        // Infinities are legal (unreachable links price a plan out), but a
        // NaN would poison every comparison downstream of the beam search.
        debug_assert!(
            !cost.scalar().is_nan() && !value_bytes.is_nan(),
            "cost model produced NaN for {expr:?} at {site:?}"
        );
        EstimatedEval { value_bytes, cost }
    }

    /// Convenience: the scalar cost of a candidate plan.
    pub fn scalar_cost(&self, site: PeerId, expr: &Expr) -> f64 {
        self.estimate(site, expr).cost.scalar()
    }

    /// Estimate `eval@site(expr)` into `cost`, returning the value's bytes.
    ///
    /// `shipped_to` is set once `expr` sits inside a plan delegated to that
    /// peer: the inline payloads it carries (query definitions, literal
    /// trees) then reside there, as [`Expr::relocate_query_defs`] records
    /// for the evaluator. Passing the override down stands in for a
    /// relocated copy of the delegated plan.
    fn est(&self, site: PeerId, expr: &Expr, shipped_to: Option<PeerId>, cost: &mut Cost) -> f64 {
        let moved = |p: PeerId| shipped_to.unwrap_or(p);
        match expr {
            Expr::Tree { tree, at } => {
                let size = tree.serialized_size() as f64;
                let at = moved(*at);
                if at != site {
                    // The evaluator fetches literal trees by reference
                    // (small request), then ships the tree back.
                    let link_req = self.link(site, at);
                    cost.charge(&link_req, 48.0 + REQUEST_OVERHEAD, false);
                    let link = self.link(at, site);
                    cost.charge(&link, size, false);
                }
                size
            }
            Expr::Doc { name, at } => {
                let Some((home, concrete)) = self.resolve_doc(site, name, at) else {
                    return 0.0;
                };
                let size = self.doc_size(home, &concrete).unwrap_or(1024.0);
                if home != site {
                    cost.charge(&self.link(site, home), expr.wire_size() as f64, false);
                    cost.charge(&self.link(home, site), size, false);
                }
                size
            }
            Expr::Apply { query, args } => {
                let def_at = moved(query.def_at);
                if def_at != site {
                    cost.charge(
                        &self.link(def_at, site),
                        query.query.wire_size() as f64,
                        false,
                    );
                }
                let mut arg_bytes = Vec::with_capacity(args.len());
                for a in args {
                    arg_bytes.push(self.est(site, a, shipped_to, cost));
                }
                self.query_result_bytes(site, &query.query, args, &arg_bytes)
            }
            Expr::Send { dest, payload } => {
                let v = self.est(site, payload, shipped_to, cost);
                match dest {
                    SendDest::Peer(q) => {
                        cost.charge(&self.link(site, *q), v, *q == site);
                    }
                    SendDest::Nodes(addrs) => {
                        for a in addrs {
                            cost.charge(&self.link(site, a.peer), v, a.peer == site);
                        }
                    }
                    SendDest::NewDoc { peer, .. } => {
                        cost.charge(&self.link(site, *peer), v, *peer == site);
                    }
                }
                0.0
            }
            Expr::Sc {
                provider,
                service,
                params,
                forward,
            } => {
                let (prov, concrete) = match provider {
                    PeerRef::At(p) => (*p, service.clone()),
                    PeerRef::Any => match self
                        .service_replicas(service)
                        .iter()
                        .min_by(|(a, _), (b, _)| {
                            let ca = self.link(site, *a).transfer_ms(65536);
                            let cb = self.link(site, *b).transfer_ms(65536);
                            ca.partial_cmp(&cb).unwrap_or(std::cmp::Ordering::Equal)
                        })
                        .cloned()
                    {
                        Some(m) => m,
                        None => return 0.0,
                    },
                };
                let mut param_bytes = Vec::with_capacity(params.len());
                let mut total_params = 0.0;
                for p in params {
                    let b = self.est(site, p, shipped_to, cost);
                    total_params += b;
                    param_bytes.push(b);
                }
                if prov != site {
                    cost.charge(&self.link(site, prov), total_params + 32.0, false);
                }
                let result = match self.service_query(prov, &concrete) {
                    Some(q) => self.query_result_bytes(prov, q, params, &param_bytes),
                    None => DEFAULT_QUERY_RATIO * total_params + 64.0,
                };
                if forward.is_empty() {
                    if prov != site {
                        cost.charge(&self.link(prov, site), result, false);
                    }
                    result
                } else {
                    for a in forward {
                        cost.charge(&self.link(prov, a.peer), result, a.peer == prov);
                    }
                    0.0
                }
            }
            Expr::EvalAt { peer, expr: inner } => {
                let shipped_to = if *peer != site {
                    let bytes = inner.shipped_wire_size(shipped_to);
                    cost.charge(&self.link(site, *peer), bytes as f64, false);
                    Some(*peer)
                } else {
                    shipped_to
                };
                if let Expr::Send {
                    dest: SendDest::Peer(back),
                    payload,
                } = &**inner
                {
                    if back == &site {
                        let v = self.est(*peer, payload, shipped_to, cost);
                        cost.charge(&self.link(*peer, site), v, *peer == site);
                        return v;
                    }
                }
                let _ = self.est(*peer, inner, shipped_to, cost);
                0.0
            }
            Expr::Deploy { to, query, .. } => {
                let def_at = moved(query.def_at);
                if def_at != *to {
                    cost.charge(
                        &self.link(def_at, *to),
                        query.query.wire_size() as f64,
                        false,
                    );
                }
                0.0
            }
            Expr::Seq(es) => {
                let mut last = 0.0;
                for e in es {
                    last = self.est(site, e, shipped_to, cost);
                }
                last
            }
        }
    }

    /// Estimate the result bytes of a query over given argument
    /// expressions (whose own value sizes are already estimated).
    fn query_result_bytes(
        &self,
        site: PeerId,
        query: &Query,
        args: &[Expr],
        arg_bytes: &[f64],
    ) -> f64 {
        if let Some(plan) = query.plan() {
            // Build stats per parameter where the argument is a document
            // reference with known statistics.
            let mut stats: Vec<Cow<'_, ForestStats>> = Vec::with_capacity(args.len());
            let mut usable = !args.is_empty() || plan.arity == 0;
            for a in args {
                match a {
                    Expr::Doc { name, at } => {
                        match self
                            .resolve_doc(site, name, at)
                            .and_then(|(p, n)| self.doc_stats.get(&(p, n)))
                        {
                            Some(s) => stats.push(Cow::Borrowed(s)),
                            None => {
                                usable = false;
                                break;
                            }
                        }
                    }
                    Expr::Tree { tree, .. } => {
                        stats.push(Cow::Owned(ForestStats::collect(std::slice::from_ref(tree))));
                    }
                    _ => {
                        usable = false;
                        break;
                    }
                }
            }
            if usable {
                // doc("…") sources read the evaluation site's documents.
                let mut all = stats;
                if all.is_empty() {
                    if let Some(ps) = self.peer_stats.get(&site) {
                        all.push(Cow::Borrowed(ps));
                    }
                }
                let e = estimate_query(plan, &all);
                return e.bytes.max(16.0);
            }
        }
        DEFAULT_QUERY_RATIO * arg_bytes.iter().sum::<f64>() + 64.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LocatedQuery;
    use axml_net::link::LinkCost;
    use axml_xml::tree::Tree;

    fn system() -> (AxmlSystem, PeerId, PeerId) {
        let mut sys = AxmlSystem::new();
        let a = sys.add_peer("a");
        let b = sys.add_peer("b");
        sys.net_mut().set_link(a, b, LinkCost::wan());
        let mut xml = String::from("<catalog>");
        for i in 0..100 {
            xml.push_str(&format!(
                r#"<pkg name="p{i}"><size>{}</size></pkg>"#,
                i * 100
            ));
        }
        xml.push_str("</catalog>");
        sys.install_doc(b, "catalog", Tree::parse(&xml).unwrap())
            .unwrap();
        (sys, a, b)
    }

    #[test]
    fn local_doc_is_free() {
        let (sys, _a, b) = system();
        let m = CostModel::from_system(&sys);
        let e = m.estimate(
            b,
            &Expr::Doc {
                name: "catalog".into(),
                at: PeerRef::At(b),
            },
        );
        assert_eq!(e.cost.messages, 0.0);
        assert!(e.value_bytes > 1000.0);
    }

    #[test]
    fn remote_doc_costs_its_size() {
        let (sys, a, b) = system();
        let m = CostModel::from_system(&sys);
        let size = m.doc_size(b, &"catalog".into()).unwrap();
        let e = m.estimate(
            a,
            &Expr::Doc {
                name: "catalog".into(),
                at: PeerRef::At(b),
            },
        );
        assert!(e.cost.bytes >= size);
        assert_eq!(e.cost.messages, 2.0, "request + data");
        assert!(e.cost.time_ms > 0.0);
    }

    #[test]
    fn estimator_ranks_delegation_correctly() {
        let (sys, a, b) = system();
        let m = CostModel::from_system(&sys);
        let q = Query::parse(
            "sel",
            r#"for $p in $0//pkg where $p/size/text() > 9000 return {$p/@name}"#,
        )
        .unwrap();
        let naive = Expr::Apply {
            query: LocatedQuery::new(q.clone(), a),
            args: vec![Expr::Doc {
                name: "catalog".into(),
                at: PeerRef::At(b),
            }],
        };
        let delegated = Expr::EvalAt {
            peer: b,
            expr: Box::new(Expr::Send {
                dest: SendDest::Peer(a),
                payload: Box::new(Expr::Apply {
                    query: LocatedQuery::new(q, a),
                    args: vec![Expr::Doc {
                        name: "catalog".into(),
                        at: PeerRef::At(b),
                    }],
                }),
            }),
        };
        let cn = m.scalar_cost(a, &naive);
        let cd = m.scalar_cost(a, &delegated);
        assert!(
            cd < cn,
            "delegation should be estimated cheaper: {cd} vs {cn}"
        );
    }

    #[test]
    fn estimate_tracks_measured_traffic_shape() {
        // The estimator need not be exact, but for a plain remote fetch it
        // should be within a small factor of the measured bytes.
        let (mut sys, a, b) = system();
        let e = Expr::Doc {
            name: "catalog".into(),
            at: PeerRef::At(b),
        };
        let m = CostModel::from_system(&sys);
        let est = m.estimate(a, &e);
        sys.eval(a, &e).unwrap();
        let measured = sys.stats().total_bytes() as f64;
        assert!(
            est.cost.bytes > 0.5 * measured && est.cost.bytes < 2.0 * measured,
            "estimated {} vs measured {}",
            est.cost.bytes,
            measured
        );
    }

    #[test]
    fn generic_doc_resolves_to_cheapest() {
        let mut sys = AxmlSystem::new();
        let a = sys.add_peer("a");
        let b = sys.add_peer("b");
        let c = sys.add_peer("c");
        sys.net_mut().set_link(a, b, LinkCost::slow());
        sys.net_mut().set_link(a, c, LinkCost::lan());
        sys.install_replica(b, "cat", "cat-b", Tree::parse("<c/>").unwrap())
            .unwrap();
        sys.install_replica(c, "cat", "cat-c", Tree::parse("<c/>").unwrap())
            .unwrap();
        let m = CostModel::from_system(&sys);
        let (home, _) = m.resolve_doc(a, &"cat".into(), &PeerRef::Any).unwrap();
        assert_eq!(home, c);
        assert!(m.resolve_doc(a, &"none".into(), &PeerRef::Any).is_none());
    }

    #[test]
    fn shipped_override_matches_a_relocated_copy() {
        // Twelve peers, so relocating a definition from `a` (p0) to `z`
        // (p11) changes its serialized `def-at` width.
        let mut sys = AxmlSystem::new();
        let peers: Vec<PeerId> = (0..12).map(|i| sys.add_peer(format!("p{i}"))).collect();
        let (a, z) = (peers[0], peers[11]);
        sys.net_mut().set_link(a, z, LinkCost::wan());
        let m = CostModel::from_system(&sys);
        let q = Query::parse("sel", r#"for $p in $0//pkg return {$p/@name}"#).unwrap();
        let apply = Expr::Apply {
            query: LocatedQuery::new(q.clone(), a),
            args: vec![Expr::Tree {
                tree: Tree::parse("<catalog><pkg name=\"x\"/></catalog>").unwrap(),
                at: a,
            }],
        };
        let delegate = |peer: PeerId, back: PeerId, e: Expr| Expr::EvalAt {
            peer,
            expr: Box::new(Expr::Send {
                dest: SendDest::Peer(back),
                payload: Box::new(e),
            }),
        };
        let nested = delegate(a, z, apply.clone());
        // A delegation inside a delegation: the inner one ships a body
        // whose definitions already moved with the outer one.
        let twice = delegate(z, a, delegate(a, z, apply.clone()));
        let deploy = Expr::Deploy {
            to: z,
            query: LocatedQuery::new(q, a),
            as_service: "svc".into(),
        };
        for e in [apply, nested, twice, deploy] {
            for site in [a, z] {
                for to in [a, z] {
                    let mut moved = e.clone();
                    moved.relocate_query_defs(to);
                    let (mut c1, mut c2) = (Cost::zero(), Cost::zero());
                    let v1 = m.est(site, &e, Some(to), &mut c1);
                    let v2 = m.est(site, &moved, None, &mut c2);
                    assert_eq!((v1, c1), (v2, c2), "{e} at {site}, held at {to}");
                }
            }
        }
    }

    #[test]
    fn cost_display_and_scalar() {
        let c = Cost {
            bytes: 100.0,
            messages: 2.0,
            time_ms: 5.5,
        };
        assert_eq!(c.scalar(), 5.5);
        assert!(c.to_string().contains("100 B"));
        assert_eq!(Cost::zero().scalar(), 0.0);
    }
}
