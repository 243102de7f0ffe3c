//! Zero-copy substrate micro-bench series.
//!
//! Times the data-model hot operations (parse, whole-tree clone, subtree
//! extraction, graft, pattern match) and accounts deep-copied bytes on the
//! E9 8-way duplicate fan-in workload through
//! [`axml_xml::stats::CopyStats`]. The measured rows are recorded in
//! `bench_tables.txt` (ZC series) with before/after columns across the
//! Symbol/Frag redesign.
//!
//! ```text
//! cargo run --release -p axml-bench --bin zc-bench
//! ```

use axml_bench::experiments::e9_scalability::fan_in;
use axml_bench::workload::{catalog, selective_query};
use axml_xml::stats::CopyStats;
use axml_xml::tree::Tree;
use std::hint::black_box;
use std::time::Instant;

/// Median time per op in microseconds over `reps` batches of `iters`.
fn time_us<F: FnMut()>(reps: usize, iters: usize, mut f: F) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(t0.elapsed().as_secs_f64() * 1e6 / iters as f64);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1_000_000 {
        format!("{:.1} MB", b as f64 / 1e6)
    } else if b >= 1_000 {
        format!("{:.1} KB", b as f64 / 1e3)
    } else {
        format!("{b} B")
    }
}

fn main() {
    let cat = catalog(1000, 0.1, 7);
    let text = cat.serialize();
    let pkg = cat.first_child_labeled(cat.root(), "pkg").unwrap();
    let cat100 = catalog(100, 0.1, 8);
    let q = selective_query();

    println!("op                             median");
    let parse = time_us(9, 20, || {
        black_box(Tree::parse(black_box(&text)).unwrap());
    });
    println!("parse catalog(1000)            {parse:10.1} us");

    let clone = time_us(9, 200, || {
        black_box(black_box(&cat).clone());
    });
    println!("clone tree (1000 pkgs)         {clone:10.2} us");

    let share = time_us(9, 2000, || {
        black_box(black_box(&cat).share(pkg).unwrap());
    });
    println!("share pkg subtree (Frag)       {share:10.3} us");

    let deep_sub = time_us(9, 2000, || {
        black_box(black_box(&cat).deep_copy(pkg));
    });
    println!("deep_copy pkg subtree          {deep_sub:10.3} us");

    let graft = time_us(9, 200, || {
        let mut dst = Tree::new("mirror");
        let r = dst.root();
        black_box(dst.graft(r, &cat100, cat100.root()).unwrap());
    });
    println!("graft 100-pkg subtree          {graft:10.2} us");

    let input = vec![cat];
    let pat = time_us(9, 20, || {
        black_box(
            q.eval_batch(std::slice::from_ref(black_box(&input)))
                .unwrap()
                .len(),
        );
    });
    println!("pattern match //pkg[size>...]  {pat:10.1} us");

    // E9 8-way duplicate fan-in, copy accounting around it.
    let before = CopyStats::snapshot();
    let m = fan_in(8, 1500);
    let d = CopyStats::snapshot().delta_since(&before);
    println!(
        "E9 fan-in (8x dup calls)       {:.1} ms, {} collapsed",
        m.wall_ms, m.collapsed
    );
    println!(
        "  deep-copied: {} in {} nodes; shared (copy avoided): {} in {} nodes; cow: {}",
        fmt_bytes(d.bytes_copied),
        d.nodes_copied,
        fmt_bytes(d.bytes_shared),
        d.nodes_shared,
        d.cow_materializations
    );
}
