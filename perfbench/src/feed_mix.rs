//! `feed_mix`: subscription feeds beside reads on one document. A
//! provider's `board` carries 50 `watch-t` services; a client activates
//! 500 continuous subscriptions to them (10 per topic). The stream is two
//! one-item feeds on a Zipf-drawn topic, then one `board@provider` read,
//! repeated. Feeds go through the continuous layer (matcher probe, full
//! recompute, multiset delta) and XML graft; reads fetch the tree the
//! feeds mutate. The board grows through a round, so every round starts
//! from an empty board and runs the same fixed operation list.

use crate::gen::{Rng, Zipf};
use crate::measure::{drive, harvest, mark, timed_setup, Cfg, Tally, MIN_SAMPLES};
use crate::trace::Tracer;
use axml_core::prelude::*;
use axml_query::matcher::MatchIndex;
use axml_xml::equiv::canonicalize;
use axml_xml::tree::Tree;
use std::fmt::Write as _;
use std::time::Instant;

pub const SUBS: usize = 500;
pub const TOPICS: usize = 50;
/// Feeds per round; a read follows every second feed. With rounds of
/// 1 000 feeds the working set outgrew the caches and the run-to-run
/// spread was half again that of the other workloads.
pub const FEEDS: usize = 500;
pub const READS: usize = FEEDS / 2;
pub const ZIPF_S: f64 = 1.1;

enum Op {
    /// One-item delta on a topic, as XML text.
    Feed {
        topic: usize,
        xml: String,
    },
    Read,
}

struct Inputs {
    inbox: String,
    /// `(service name, query source)` per topic.
    services: Vec<(String, String)>,
    queries: Vec<Query>,
    ops: Vec<Op>,
    subs_on: Vec<usize>,
}

fn inputs(seed: u64) -> Result<Inputs, String> {
    let services: Vec<(String, String)> = (0..TOPICS)
        .map(|t| {
            (
                format!("watch-{t}"),
                format!(r#"for $i in doc("board")/item where $i/@topic = "t{t}" return {{$i}}"#),
            )
        })
        .collect();
    let queries = services
        .iter()
        .map(|(n, src)| Query::parse(n.as_str(), src).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut inbox = String::from("<inbox>");
    let mut subs_on = vec![0; TOPICS];
    for k in 0..SUBS {
        let t = k % TOPICS;
        subs_on[t] += 1;
        let _ = write!(
            inbox,
            "<sc><peer>p0</peer><service>watch-{t}</service></sc>"
        );
    }
    inbox.push_str("</inbox>");
    // Which topic is hot is seeded; so is the draw sequence.
    let mut rng = Rng::stream(seed, "feed.topics");
    let mut perm: Vec<usize> = (0..TOPICS).collect();
    rng.shuffle(&mut perm);
    let zipf = Zipf::new(TOPICS, ZIPF_S);
    let mut ops = Vec::with_capacity(FEEDS + READS);
    for f in 0..FEEDS {
        let topic = perm[zipf.sample(&mut rng)];
        let xml =
            format!(r#"<item topic="t{topic}" seq="{f}">update {f} on topic t{topic}</item>"#);
        ops.push(Op::Feed { topic, xml });
        if f % 2 == 1 {
            ops.push(Op::Read);
        }
    }
    Ok(Inputs {
        inbox,
        services,
        queries,
        ops,
        subs_on,
    })
}

fn build(inp: &Inputs) -> CoreResult<(AxmlSystem, PeerId, PeerId)> {
    let mut b = AxmlSystem::builder()
        .peers(["provider", "client"])
        .link("provider", "client", LinkCost::lan())
        .doc("provider", "board", Tree::new("board"));
    for (name, src) in &inp.services {
        b = b.service("provider", name.as_str(), src);
    }
    let sys = b.doc("client", "inbox", inp.inbox.as_str()).build()?;
    let provider = sys.peer_id("provider").expect("declared peer");
    let client = sys.peer_id("client").expect("declared peer");
    Ok((sys, provider, client))
}

/// Build the system and activate the client's subscriptions.
fn setup(inp: &Inputs, tr: &mut Tracer) -> CoreResult<(AxmlSystem, PeerId, PeerId)> {
    let (mut sys, provider, client) = tr.span("core.build", || build(inp))?;
    if tr.is_on() {
        sys.set_trace_sink(tr.sink());
    }
    let ids = tr.span("continuous.activate", || {
        sys.activate_document(client, &"inbox".into())
    })?;
    if ids.len() != SUBS {
        return Err(CoreError::Malformed(format!(
            "{} subscriptions activated, {SUBS} expected",
            ids.len()
        )));
    }
    Ok((sys, provider, client))
}

fn round(inp: &Inputs, index: &MatchIndex, tr: &mut Tracer, t: &mut Tally) -> Result<(), String> {
    let (mut sys, provider, client) = timed_setup(t, tr, |tr| {
        setup(inp, tr).map_err(|e| format!("feed_mix set-up: {e}"))
    })?;
    let board: DocName = "board".into();
    let fetch = Expr::Doc {
        name: board.clone(),
        at: PeerRef::At(provider),
    };
    let m = mark(&mut sys, tr);
    for op in &inp.ops {
        match op {
            Op::Feed { topic, xml } => {
                let t0 = Instant::now();
                tr.enter("op.write");
                let r = tr
                    .span("xml.parse", || Tree::parse(xml))
                    .map_err(CoreError::Xml)
                    .and_then(|delta| {
                        tr.span("continuous.feed", || {
                            sys.feed(provider, board.clone(), delta)
                        })
                    });
                tr.exit();
                t.record(true, t0.elapsed(), r.is_ok());
                let Ok(delivered) = r else { continue };
                if delivered != inp.subs_on[*topic] {
                    return Err(format!(
                        "feed_mix: a feed on topic t{topic} delivered {delivered} results, {} expected",
                        inp.subs_on[*topic]
                    ));
                }
                if tr.is_on() {
                    replay_feed(&sys, provider, inp, index, *topic, xml, tr)?;
                }
            }
            Op::Read => {
                let t0 = Instant::now();
                tr.enter("op.read");
                let r = tr.span("engine.eval", || sys.eval(client, &fetch));
                tr.exit();
                t.record(false, t0.elapsed(), r.is_ok());
                let Ok(forest) = r else { continue };
                let now = sys
                    .peer(provider)
                    .doc(&board, provider)
                    .map_err(|e| e.to_string())?;
                if forest.len() != 1
                    || canonicalize(&forest[0], forest[0].root()) != canonicalize(now, now.root())
                {
                    return Err("feed_mix: a read differs from the board as it stands".into());
                }
                if tr.is_on() {
                    tr.span("xml.size", || {
                        forest.iter().map(Tree::serialized_size).sum::<usize>()
                    });
                }
            }
        }
    }
    harvest(&sys, tr, &m, t)
}

/// Replay, outside the operation, the calls a feed makes: the hit
/// topic's query over the provider, the canonical form of each result,
/// and a probe of an index built by the benchmark over the same queries.
fn replay_feed(
    sys: &AxmlSystem,
    provider: PeerId,
    inp: &Inputs,
    index: &MatchIndex,
    topic: usize,
    xml: &str,
    tr: &mut Tracer,
) -> Result<(), String> {
    let results = tr
        .span("query.eval", || {
            inp.queries[topic].eval_with_docs(&[], sys.peer(provider))
        })
        .map_err(|e| e.to_string())?;
    for x in &results {
        tr.span("xml.canon", || canonicalize(x, x.root()));
    }
    let delta = Tree::parse(xml).map_err(|e| e.to_string())?;
    let hits = tr.span("matcher.probe", || index.probe(&delta));
    // A probe may over-report but must never miss a touched subscription.
    if hits.len() < inp.subs_on[topic] {
        return Err(format!(
            "feed_mix: the benchmark's index reports {} subscriptions for topic t{topic}",
            hits.len()
        ));
    }
    Ok(())
}

pub fn run(cfg: &Cfg, tr: &mut Tracer) -> Result<(Tally, Tally), String> {
    let inp = inputs(cfg.seed)?;
    let mut index = MatchIndex::new("board".into());
    for k in 0..SUBS {
        let _ = index.register(k as u64, &inp.queries[k % TOPICS]);
    }
    let min_rounds = MIN_SAMPLES.div_ceil(READS) as u64;
    drive(cfg, tr, min_rounds, |tr, t| round(&inp, &index, tr, t))
}
