//! Collapsed subscription pumps: subscriptions that call the same
//! service with the same parameters share one evaluation per feed (and
//! per activation) through the engine's request-collapsing memo, and
//! nothing they deliver may change.
//!
//! Each case runs a fixed feed schedule under both matcher modes and is
//! pinned as FNV-1a digests (plus lengths) of every peer's documents in
//! document order, of the trace and of the `RunReport` JSON. The
//! expected lines were recorded before pumps shared the memo, when every
//! subscription evaluated its service on its own.
//!
//! A second test checks the collapsing itself: on every activation and
//! feed, `collapsed_calls()` grows by the number of pumps minus the
//! number of distinct `(service, parameters)` calls among them — except
//! where a pump grafts into its own provider, which starts a new state
//! epoch that the next pump must evaluate against afresh.

use axml::net::frame::fnv1a64;
use axml::prelude::*;
use std::collections::BTreeSet;

/// The provider's services: a fixed-topic watch, the same watch with
/// the topic as a parameter, a watch over every `item` in the board
/// (results grafted into the board are read back), and a constant
/// stamp for `@after` chains.
const SERVICES: [(&str, &str); 4] = [
    (
        "watch",
        r#"for $i in doc("board")/item where $i/@topic = "db" return {$i}"#,
    ),
    (
        "by-topic",
        r#"for $i in doc("board")/item where $i/@topic = $0/text() return {$i}"#,
    ),
    (
        "deep-watch",
        r#"for $i in doc("board")//item where $i/@topic = "db" return {$i}"#,
    ),
    ("stamp", r#"doc("stamps")/mark"#),
];

/// Every case feeds the board the same items: two new `db` items, an
/// `ai` item, a `db` item equal to the first (a multiset duplicate) and
/// an item on a topic nobody watches.
const FEEDS: [&str; 5] = [
    r#"<item topic="db" seq="1">a</item>"#,
    r#"<item topic="ai" seq="2">b</item>"#,
    r#"<item topic="db" seq="3">c</item>"#,
    r#"<item topic="db" seq="1">a</item>"#,
    r#"<item topic="web" seq="4">d</item>"#,
];

fn sc(service: &str, param: Option<&str>, attrs: &str) -> String {
    let param = param.map_or(String::new(), |t| {
        format!("<param1><topic>{t}</topic></param1>")
    });
    format!("<sc{attrs}><peer>p0</peer><service>{service}</service>{param}</sc>")
}

/// One case: the provider's board, then `(hosting peer, document)`
/// pairs activated in order. Peer 0 is the provider; clients follow.
struct Case {
    name: &'static str,
    board: String,
    clients: Vec<String>,
    /// Documents to activate, as `(peer index, name, xml)`.
    activations: Vec<(usize, &'static str, String)>,
}

fn cases() -> Vec<Case> {
    let seed_item = r#"<item topic="db" seq="0">seed</item>"#;
    let plain_board = format!("<board>{seed_item}</board>");
    vec![
        // k = 6 identical subscriptions over three clients.
        Case {
            name: "identical",
            board: plain_board.clone(),
            clients: vec!["c1".into(), "c2".into(), "c3".into()],
            activations: (1..=3)
                .map(|c| {
                    let two = sc("watch", None, "").repeat(2);
                    (c, "inbox", format!("<inbox>{two}</inbox>"))
                })
                .collect(),
        },
        // One service called with different parameters (and the fixed
        // watch beside it): only equal parameter forests collapse.
        Case {
            name: "params",
            board: plain_board.clone(),
            clients: vec!["c1".into(), "c2".into()],
            activations: vec![
                (
                    1,
                    "inbox",
                    format!(
                        "<inbox>{}{}{}</inbox>",
                        sc("by-topic", Some("db"), ""),
                        sc("by-topic", Some("ai"), ""),
                        sc("by-topic", Some("db"), "")
                    ),
                ),
                (
                    2,
                    "inbox",
                    format!(
                        "<inbox>{}{}</inbox>",
                        sc("by-topic", Some("ai"), ""),
                        sc("watch", None, "")
                    ),
                ),
            ],
        },
        // Two subscriptions hosted in the board itself, each sinking into
        // the board the service reads: the second pump must see the
        // first one's graft. Two remote subscriptions follow them.
        Case {
            name: "local-sink",
            board: format!(
                "<board>{seed_item}<log>{}</log><log>{}</log></board>",
                sc("deep-watch", None, ""),
                sc("deep-watch", None, "")
            ),
            clients: vec!["c1".into()],
            activations: vec![
                (0, "board", String::new()),
                (
                    1,
                    "inbox",
                    format!("<inbox>{}</inbox>", sc("deep-watch", None, "").repeat(2)),
                ),
            ],
        },
        // `@after` chains whose chained service is called three times
        // per answer batch, behind a duplicated watch.
        Case {
            name: "after-chain",
            board: plain_board,
            clients: vec!["c1".into(), "c2".into()],
            activations: vec![
                (
                    1,
                    "inbox",
                    format!(
                        "<inbox>{}{}</inbox>",
                        sc("watch", None, r#" id="first""#),
                        sc("stamp", None, r#" after="first""#)
                    ),
                ),
                (
                    2,
                    "inbox",
                    format!(
                        "<inbox>{}{}{}</inbox>",
                        sc("watch", None, r#" id="second""#),
                        sc("stamp", None, r#" after="second""#),
                        sc("stamp", None, r#" after="second""#)
                    ),
                ),
            ],
        },
    ]
}

fn build(case: &Case, mode: MatcherMode) -> AxmlSystem {
    let mut b = AxmlSystem::builder()
        .peer("provider")
        .doc("provider", "board", case.board.as_str())
        .doc("provider", "stamps", "<stamps><mark>seen</mark></stamps>");
    for (name, src) in SERVICES {
        b = b.service("provider", name, src);
    }
    for c in &case.clients {
        b = b
            .peer(c.as_str())
            .link("provider", c.as_str(), LinkCost::lan());
    }
    for (peer, doc, xml) in &case.activations {
        if *peer != 0 {
            let host = case.clients[peer - 1].as_str();
            b = b.doc(host, *doc, xml.as_str());
        }
    }
    let mut sys = b.seed(0xC011).build().unwrap();
    sys.set_matcher_mode(mode);
    sys
}

/// The collapsing the memo must do in one step (activation or feed),
/// given the pumps it made in order as `(subscription, fresh results)`:
/// pumps minus distinct calls, where a call evaluated before a graft
/// into its provider counts as distinct again after it.
fn expected_collapses(sys: &AxmlSystem, pumps: &[(u64, usize)]) -> u64 {
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    let mut collapsed = 0;
    for &(id, fresh) in pumps {
        let sub = sys
            .subscriptions()
            .iter()
            .find(|s| s.id == id)
            .expect("pumped subscriptions stay live");
        let params: String = sub
            .params
            .iter()
            .flat_map(|f| f.iter().map(Tree::serialize))
            .collect();
        if !seen.insert((sub.service.as_str().to_string(), params)) {
            collapsed += 1;
        }
        if fresh > 0 && sub.sink.iter().any(|a| a.peer == sub.provider) {
            seen.clear();
        }
    }
    collapsed
}

/// What one case under one mode produced: its digest line, and per
/// step the `collapsed_calls()` growth beside the expected one.
struct Outcome {
    line: String,
    growth: Vec<(String, u64, u64)>,
}

fn fnv(s: &str) -> String {
    format!("{:016x}/{}", fnv1a64(s.as_bytes()), s.len())
}

fn run(case: &Case, mode: MatcherMode) -> Outcome {
    let mut sys = build(case, mode);
    let sink = VecSink::new();
    sys.set_trace_sink(Box::new(sink.clone()));
    let mut growth = Vec::new();
    let mut step = |sys: &mut AxmlSystem, label: String, act: &dyn Fn(&mut AxmlSystem) -> usize| {
        let (events, collapsed) = (sink.events().len(), sys.collapsed_calls());
        let delivered = act(sys);
        let pumps: Vec<(u64, usize)> = sink.events()[events..]
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SubscriptionDelta {
                    subscription,
                    fresh,
                    ..
                } => Some((*subscription, *fresh)),
                _ => None,
            })
            .collect();
        let want = expected_collapses(sys, &pumps);
        growth.push((label, sys.collapsed_calls() - collapsed, want));
        delivered
    };
    let mut delivered = Vec::new();
    for (peer, doc, _) in &case.activations {
        let at = PeerId(*peer as u32);
        let doc: DocName = (*doc).into();
        delivered.push(step(&mut sys, format!("activate p{peer}/{doc}"), &|sys| {
            sys.activate_document(at, &doc).unwrap().len()
        }));
    }
    let provider = sys.peer_id("provider").unwrap();
    for (k, item) in FEEDS.iter().enumerate() {
        delivered.push(step(&mut sys, format!("feed {k}"), &|sys| {
            sys.feed(provider, "board", Tree::parse(item).unwrap())
                .unwrap()
        }));
    }
    let mut docs = String::new();
    for p in 0..sys.peer_count() {
        for d in sys.peer(PeerId(p as u32)).docs.iter() {
            docs.push_str(&format!("p{p}/{}={}\n", d.name(), d.tree().serialize()));
        }
    }
    let trace: String = sink.events().iter().map(|e| format!("{e:?}\n")).collect();
    let report = sys.run_report("collapse").to_json();
    Outcome {
        line: format!(
            "{} {mode:?}: steps={delivered:?} docs={} trace={} report={}",
            case.name,
            fnv(&docs),
            fnv(&trace),
            fnv(&report),
        ),
        growth,
    }
}

/// Recorded before subscription pumps shared the session memo.
const EXPECTED: &[&str] = &[
    "identical Shared: steps=[2, 2, 2, 6, 0, 6, 6, 0] docs=203f60ed493ed59d/1445 trace=2fc40b561d20dcd0/9656 report=c88859670db33a4a/1252",
    "identical Naive: steps=[2, 2, 2, 6, 0, 6, 6, 0] docs=203f60ed493ed59d/1445 trace=4c0317083e5851c0/10844 report=f7ae68007b47a8df/1249",
    "params Shared: steps=[3, 2, 3, 2, 3, 3, 0] docs=1756bc0148d21b1c/1181 trace=8e9ce7834a6de417/7558 report=3a3813f0089d11c0/1085",
    "params Naive: steps=[3, 2, 3, 2, 3, 3, 0] docs=1756bc0148d21b1c/1181 trace=1c20c5cc81cd79f9/7769 report=cab4249d4239341d/1083",
    // Known-divergent pair: with a sink in the board its service reads,
    // Shared and Naive deliver different documents (the matcher's probe
    // is unsound there; see ROADMAP "Fix first"). These two lines pin the
    // current behaviour and are to be re-recorded once that is fixed.
    "local-sink Shared: steps=[2, 2, 35, 0, 98, 263, 0] docs=397599649e8cbb90/14751 trace=4f9e449515634d0b/4338 report=2831a01dd67b099a/925",
    "local-sink Naive: steps=[2, 2, 35, 87, 239, 632, 1650] docs=e0c2e41b97e825b6/93591 trace=aefc6feb22364dbb/6255 report=d32f8d8730114bb3/938",
    "after-chain Shared: steps=[2, 3, 2, 0, 2, 2, 0] docs=04adf4e59f2d0298/950 trace=9b16f183904262bf/6219 report=c5dd560138260772/1083",
    "after-chain Naive: steps=[2, 3, 2, 0, 2, 2, 0] docs=04adf4e59f2d0298/950 trace=c5f396e4e000229f/6641 report=d26ed3a16785c97c/1082",
];

#[test]
fn collapsed_pumps_deliver_exactly_what_separate_pumps_did() {
    let mut rows = Vec::new();
    for case in &cases() {
        for mode in [MatcherMode::Shared, MatcherMode::Naive] {
            rows.push(run(case, mode).line);
        }
    }
    assert_eq!(rows, EXPECTED, "outputs changed:\n{}", rows.join("\n"));
}

#[test]
fn collapsed_calls_grow_by_pumps_minus_distinct_calls() {
    for case in &cases() {
        for mode in [MatcherMode::Shared, MatcherMode::Naive] {
            let out = run(case, mode);
            for (step, got, want) in &out.growth {
                assert_eq!(
                    got, want,
                    "{} {mode:?} {step}: collapsed_calls grew by {got}, expected {want}",
                    case.name
                );
            }
            // Every case has duplicate calls to collapse somewhere.
            assert!(
                out.growth.iter().any(|(_, got, _)| *got > 0),
                "{} {mode:?}: nothing collapsed",
                case.name
            );
        }
    }
}
