//! Search-identity regression: the optimizer must explore exactly the
//! same plan space however plan identity and wire size are computed.
//!
//! For E8's four plan shapes (plus its beam sweep) and E11's relay
//! topology (the full rule set and every one-rule ablation) the test
//! pins the chosen plan's fingerprint (as a 64-bit FNV-1a digest plus
//! its length), its estimated cost, its rewrite trace, the number of candidates explored and
//! the memo hit/miss and cost-estimate counters. Any change to what the
//! search memoizes, estimates or keeps shows up as a changed row.

use super::{e11_rule_ablation as e11, e8_optimizer as e8};
use crate::workload::{naive_apply, selective_query};
use axml_core::cost::CostModel;
use axml_core::prelude::*;
use axml_core::rules::RewriteRule;
use axml_obs::Obs;

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One search, summarized as a single comparable line.
fn signature(label: &str, model: &CostModel, opt: &Optimizer, naive: &Expr) -> String {
    let mut obs = Obs::new();
    let plan = opt.optimize_with(model, PeerId(0), naive, &mut obs);
    let fp = plan.expr.fingerprint();
    let m = &obs.metrics;
    format!(
        "{label}: fp={:016x}/{} cost={:?}ms/{:?}B trace={} explored={} hits={} misses={} estimates={}",
        fnv1a(&fp),
        fp.len(),
        plan.cost.time_ms,
        plan.cost.bytes,
        plan.trace.join("+"),
        plan.explored,
        m.memo_hits,
        m.memo_misses,
        m.cost_estimates,
    )
}

/// Recorded with the tree-building fingerprint and wire size, before the
/// direct wire writer replaced them.
const E8_EXPECTED: &[&str] = &[
    "remote-selection: fp=cf49c549993f0e1e/535 cost=84.03200000000001ms/5040.0B trace=R14-relocate+R10-delegate+R11-push-selections explored=283 hits=94 misses=283 estimates=283",
    "query-over-sc: fp=718aab59d402dbbf/471 cost=84.9016ms/6127.0B trace=R14-relocate+R11-push-selections explored=195 hits=45 misses=195 estimates=195",
    "generic-doc-selection: fp=cf49c549993f0e1e/535 cost=84.03200000000001ms/5040.0B trace=R9-generic+R14-relocate+R10-delegate+R11-push-selections explored=360 hits=81 misses=360 estimates=360",
    "double-use: fp=1e2ec33b087d3a31/468 cost=101.81039999999999ms/27263.0B trace=R14-relocate+R10-delegate explored=184 hits=63 misses=184 estimates=184",
    "beam=1: fp=01e38dc1e2c6bb80/535 cost=85.3896ms/6737.0B trace=R11-push-selections+R10-delegate explored=36 hits=5 misses=36 estimates=36",
    "beam=2: fp=eda8214028f26919/602 cost=84.0856ms/5107.0B trace=R14-relocate+R11-push-selections+R10-delegate explored=118 hits=25 misses=118 estimates=118",
    "beam=4: fp=cf49c549993f0e1e/535 cost=84.03200000000001ms/5040.0B trace=R14-relocate+R10-delegate+R11-push-selections explored=161 hits=37 misses=161 estimates=161",
    "beam=8: fp=cf49c549993f0e1e/535 cost=84.03200000000001ms/5040.0B trace=R14-relocate+R10-delegate+R11-push-selections explored=283 hits=94 misses=283 estimates=283",
    "beam=16: fp=cf49c549993f0e1e/535 cost=84.03200000000001ms/5040.0B trace=R14-relocate+R10-delegate+R11-push-selections explored=488 hits=204 misses=488 estimates=488",
];

const E11_EXPECTED: &[&str] = &[
    "full: fp=1697b36428ca83f5/602 cost=1.39208ms/7401.0B trace=R14-relocate+R10-delegate+R12-add-stop+R11-push-selections explored=354 hits=121 misses=354 estimates=354",
    "without R10-delegate: fp=1697b36428ca83f5/602 cost=1.39208ms/7401.0B trace=R14-relocate+R14-relocate+R12-add-stop+R11-push-selections explored=354 hits=88 misses=354 estimates=354",
    "without R11-push-selections: fp=d8a7823f9a9c38ba/452 cost=2.4652000000000003ms/20815.0B trace=R14-relocate+R10-delegate+R12-add-stop explored=187 hits=108 misses=187 estimates=187",
    "without R12-add-stop: fp=cf49c549993f0e1e/535 cost=640.51ms/4051.0B trace=R14-relocate+R10-delegate+R11-push-selections explored=89 hits=73 misses=89 estimates=89",
    "without R12-remove-stop: fp=1697b36428ca83f5/602 cost=1.39208ms/7401.0B trace=R14-relocate+R10-delegate+R12-add-stop+R11-push-selections explored=351 hits=93 misses=351 estimates=351",
    "without R13-share-transfer: fp=1697b36428ca83f5/602 cost=1.39208ms/7401.0B trace=R14-relocate+R10-delegate+R12-add-stop+R11-push-selections explored=354 hits=121 misses=354 estimates=354",
    "without R14-relocate: fp=f5eb062ddecc332c/535 cost=1.58392ms/9799.0B trace=R10-delegate+R12-add-stop+R11-push-selections explored=143 hits=89 misses=143 estimates=143",
    "without R15-sc-relocate: fp=1697b36428ca83f5/602 cost=1.39208ms/7401.0B trace=R14-relocate+R10-delegate+R12-add-stop+R11-push-selections explored=354 hits=121 misses=354 estimates=354",
    "without R16-push-over-sc: fp=1697b36428ca83f5/602 cost=1.39208ms/7401.0B trace=R14-relocate+R10-delegate+R12-add-stop+R11-push-selections explored=354 hits=121 misses=354 estimates=354",
    "without R9-generic: fp=1697b36428ca83f5/602 cost=1.39208ms/7401.0B trace=R14-relocate+R10-delegate+R12-add-stop+R11-push-selections explored=354 hits=121 misses=354 estimates=354",
];

#[test]
fn e8_search_is_unchanged() {
    let model = CostModel::from_system(&e8::build());
    let mut rows: Vec<String> = e8::shapes()
        .iter()
        .map(|(name, naive)| signature(name, &model, &Optimizer::standard(), naive))
        .collect();
    let naive = e8::shapes().remove(0).1;
    for &beam in e8::BEAMS {
        let mut opt = Optimizer::standard();
        opt.beam_width = beam;
        rows.push(signature(&format!("beam={beam}"), &model, &opt, &naive));
    }
    assert_eq!(rows, E8_EXPECTED);
}

#[test]
fn e11_search_is_unchanged() {
    let model = CostModel::from_system(&e11::build());
    let naive = naive_apply(selective_query(), PeerId(0), PeerId(1));
    let mut configs: Vec<(String, Vec<Box<dyn RewriteRule>>)> =
        vec![("full".into(), axml_core::rules::standard_rules())];
    let mut names = Optimizer::standard().rule_names();
    names.sort_unstable();
    for name in names {
        configs.push((format!("without {name}"), e11::rules_without(name)));
    }
    let rows: Vec<String> = configs
        .into_iter()
        .map(|(label, rules)| signature(&label, &model, &Optimizer::with_rules(rules), &naive))
        .collect();
    assert_eq!(rows, E11_EXPECTED);
}
