//! Churn suite for the shared subscription matcher: activations and
//! unsubscriptions interleaved with feeds at 1k+ subscriptions,
//! differentially comparing [`MatcherMode::Shared`] against
//! [`MatcherMode::Naive`] across seeds. The two modes must deliver *bit-identical* results in the same order — the
//! matcher may only skip work, never change it.

use axml::prelude::*;
use axml::xml::tree::Tree;
use axml_prng::SplitMix64;

/// Distinct topics; each subscription watches one.
const TOPICS: usize = 20;

/// Churn steps per run (each step = one feed + random churn).
const STEPS: usize = 40;

/// Subscription batches: in release 12 × 100 = 1 200 subscriptions, in
/// debug (the plain `cargo test` tier) 6 × 50 = 300 so the naive arm
/// stays quick.
fn shape() -> (usize, usize) {
    if cfg!(debug_assertions) {
        (6, 50)
    } else {
        (12, 100)
    }
}

/// Provider with `TOPICS` watch services plus `batches` client documents
/// of `per_batch` subscriptions each, topics round-robin.
fn build(mode: MatcherMode) -> AxmlSystem {
    let (batches, per_batch) = shape();
    let mut b = AxmlSystem::builder()
        .peers(["provider", "client"])
        .link("provider", "client", LinkCost::lan())
        .doc("provider", "board", "<board/>");
    for t in 0..TOPICS {
        b = b.service(
            "provider",
            format!("watch-{t}"),
            &format!(r#"for $i in doc("board")/item where $i/@topic = "t{t}" return {{$i}}"#),
        );
    }
    for d in 0..batches {
        let mut xml = format!("<batch{d}>");
        for k in 0..per_batch {
            let t = (d * per_batch + k) % TOPICS;
            xml.push_str(&format!(
                r#"<sc><peer>p0</peer><service>watch-{t}</service></sc>"#
            ));
        }
        xml.push_str(&format!("</batch{d}>"));
        b = b.doc("client", format!("batch{d}"), xml.as_str());
    }
    let mut sys = b.build().unwrap();
    sys.set_matcher_mode(mode);
    sys
}

/// Drive one seeded churn schedule: activate half the batches up front,
/// then interleave feeds with random unsubscriptions and late
/// activations. Returns the per-step delivery counts and the final
/// serialized state of every batch document.
fn churn(sys: &mut AxmlSystem, seed: u64) -> (Vec<usize>, Vec<String>) {
    let (batches, _) = shape();
    let provider = sys.peer_id("provider").unwrap();
    let client = sys.peer_id("client").unwrap();
    let mut rng = SplitMix64::new(seed);
    let mut live: Vec<u64> = Vec::new();
    for d in 0..batches / 2 {
        live.extend(
            sys.activate_document(client, &format!("batch{d}").into())
                .unwrap(),
        );
    }
    let mut next_batch = batches / 2;
    let mut delivered = Vec::new();
    for step in 0..STEPS {
        let t = rng.gen_range(0..TOPICS);
        let n = sys
            .feed(
                provider,
                "board",
                Tree::parse(&format!(r#"<item topic="t{t}">s{step}</item>"#)).unwrap(),
            )
            .unwrap();
        delivered.push(n);
        if !live.is_empty() && rng.gen_bool(0.3) {
            let i = rng.gen_range(0..live.len());
            assert!(sys.unsubscribe(live.swap_remove(i)));
        }
        if next_batch < batches && rng.gen_bool(0.25) {
            live.extend(
                sys.activate_document(client, &format!("batch{next_batch}").into())
                    .unwrap(),
            );
            next_batch += 1;
        }
    }
    delivered.push(sys.subscriptions().len());
    let snaps = (0..batches)
        .map(|d| {
            sys.peer(client)
                .docs
                .get(&format!("batch{d}").into())
                .unwrap()
                .tree()
                .serialize()
        })
        .collect();
    (delivered, snaps)
}

#[test]
fn shared_matcher_is_equivalent_under_churn() {
    for seed in [0xC0FF_EE01u64, 0xC0FF_EE02] {
        let mut shared = build(MatcherMode::Shared);
        let mut naive = build(MatcherMode::Naive);
        let (d_shared, s_shared) = churn(&mut shared, seed);
        let (d_naive, s_naive) = churn(&mut naive, seed);
        assert_eq!(
            d_shared, d_naive,
            "delivery counts diverged (seed {seed:#x})"
        );
        assert_eq!(s_shared, s_naive, "inbox bytes diverged (seed {seed:#x})");
        let m = shared.metrics();
        assert!(m.matcher_skips > 0, "churn must exercise the skip path");
        assert!(m.matcher_consistent());
        assert_eq!(naive.metrics().matcher_probes, 0);
        assert!(
            shared.run_report("churn").reconciled,
            "shared-mode run must reconcile"
        );
    }
}
