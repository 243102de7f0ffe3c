//! Input generators. Every input a workload feeds the program derives
//! from the `--seed` argument through these functions, and nothing here
//! calls into the program beyond building the generated trees, so the
//! same seed gives the same inputs on every commit.

use std::fmt::Write as _;

/// SplitMix64: a tiny, well-mixed generator, kept local so the inputs do
/// not change when the program's own PRNG does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream, so adding a stream never
    /// shifts the draws of another.
    pub fn stream(seed: u64, name: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Zipf law over ranks `0..n` (rank 0 most popular), drawn by inverse CDF.
pub struct Zipf {
    cum: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let cum = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        Zipf { cum }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cum.last().expect("Zipf over at least one rank");
        let u = rng.next_f64() * total;
        self.cum.partition_point(|&c| c < u).min(self.cum.len() - 1)
    }
}

/// Package sizes above this are "big": the selective queries keep them.
pub const BIG: u32 = 100_000;

/// A catalog of `n` packages of which a `selectivity` share is big, as
/// XML text: the program parses it when a system is built.
pub fn catalog(n: usize, selectivity: f64, rng: &mut Rng) -> String {
    let mut xml = String::from("<catalog>");
    for i in 0..n {
        let big = (i as f64 + 0.5) / n as f64 <= selectivity;
        let size = if big {
            BIG as u64 + 1 + rng.below(10_000)
        } else {
            rng.below(BIG as u64 / 2)
        };
        let _ = write!(
            xml,
            r#"<pkg name="pkg-{i}"><size>{size}</size><desc>package number {i}, a member of the synthetic catalog</desc></pkg>"#
        );
    }
    xml.push_str("</catalog>");
    xml
}
