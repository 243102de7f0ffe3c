//! Copy/share accounting for the zero-copy substrate.
//!
//! The whole point of the Symbol/[`crate::frag::Frag`] redesign is that
//! subtrees move by handle, not by copy. This module makes that claim
//! *measurable*: every materializing copy (an explicit
//! [`crate::tree::Tree::deep_copy`], a graft, or a copy-on-write
//! materialization of a shared arena) and every avoided copy (a handle
//! clone or share of an already-shared arena) is counted. Benchmarks and
//! tests read the counters through [`CopyStats::snapshot`] /
//! [`CopyStats::delta_since`]; the E9 fan-in benchmark asserts on the
//! copied/shared ratio.
//!
//! Counters are **thread-local**: a snapshot delta taken on one thread
//! counts exactly the copies that thread made, however many other tests
//! or runs are copying trees beside it. The engine runs a session on
//! the calling thread, so that thread's delta is the run's whole count.

use std::cell::Cell;

thread_local! {
    static COUNTERS: Cell<CopyStats> = const { Cell::new(CopyStats::ZERO) };
}

fn bump(f: impl FnOnce(&mut CopyStats)) {
    COUNTERS.with(|c| {
        let mut s = c.get();
        f(&mut s);
        c.set(s);
    });
}

/// Record a materializing copy of `nodes` nodes / `bytes` heap bytes.
pub(crate) fn record_copy(nodes: u64, bytes: u64) {
    bump(|s| {
        s.nodes_copied += nodes;
        s.bytes_copied += bytes;
    });
}

/// Record an avoided copy: a handle was shared instead of deep-copying
/// `nodes` nodes / `bytes` heap bytes.
pub(crate) fn record_share(nodes: u64, bytes: u64) {
    bump(|s| {
        s.nodes_shared += nodes;
        s.bytes_shared += bytes;
    });
}

/// Record one copy-on-write materialization (a shared arena was cloned
/// because a mutation needed exclusive ownership).
pub(crate) fn record_cow() {
    bump(|s| s.cow_materializations += 1);
}

/// Record one O(1) subtree handle share ([`crate::tree::Tree::share`] /
/// [`crate::tree::Tree::subtree`]). Counted as an event only: the subtree's
/// byte size is not known in O(1), and the whole arena's bytes are already
/// credited at handle-clone time.
pub(crate) fn record_handle_share() {
    bump(|s| s.handle_shares += 1);
}

/// A point-in-time snapshot of the calling thread's copy/share counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CopyStats {
    /// Heap bytes materialized by deep copies (deep-copy, graft, and
    /// copy-on-write materialization).
    pub bytes_copied: u64,
    /// Nodes materialized by deep copies.
    pub nodes_copied: u64,
    /// Heap bytes whose copy was avoided by sharing a handle.
    pub bytes_shared: u64,
    /// Nodes whose copy was avoided by sharing a handle.
    pub nodes_shared: u64,
    /// Number of copy-on-write arena materializations.
    pub cow_materializations: u64,
    /// Number of O(1) subtree handle shares (`share`/`subtree`).
    pub handle_shares: u64,
}

impl CopyStats {
    const ZERO: CopyStats = CopyStats {
        bytes_copied: 0,
        nodes_copied: 0,
        bytes_shared: 0,
        nodes_shared: 0,
        cow_materializations: 0,
        handle_shares: 0,
    };

    /// Read the calling thread's current counter values.
    pub fn snapshot() -> Self {
        COUNTERS.with(Cell::get)
    }

    /// Counter growth since an earlier snapshot of the same thread.
    pub fn delta_since(&self, earlier: &CopyStats) -> CopyStats {
        CopyStats {
            bytes_copied: self.bytes_copied.saturating_sub(earlier.bytes_copied),
            nodes_copied: self.nodes_copied.saturating_sub(earlier.nodes_copied),
            bytes_shared: self.bytes_shared.saturating_sub(earlier.bytes_shared),
            nodes_shared: self.nodes_shared.saturating_sub(earlier.nodes_shared),
            cow_materializations: self
                .cow_materializations
                .saturating_sub(earlier.cow_materializations),
            handle_shares: self.handle_shares.saturating_sub(earlier.handle_shares),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_delta() {
        let before = CopyStats::snapshot();
        record_copy(3, 100);
        record_share(5, 400);
        record_cow();
        record_handle_share();
        let d = CopyStats::snapshot().delta_since(&before);
        assert_eq!(d.nodes_copied, 3);
        assert_eq!(d.bytes_copied, 100);
        assert_eq!(d.nodes_shared, 5);
        assert_eq!(d.bytes_shared, 400);
        assert_eq!(d.cow_materializations, 1);
        assert_eq!(d.handle_shares, 1);
    }

    #[test]
    fn counters_are_per_thread() {
        let before = CopyStats::snapshot();
        let worker = std::thread::spawn(|| {
            let w0 = CopyStats::snapshot();
            record_copy(2, 50);
            CopyStats::snapshot().delta_since(&w0)
        })
        .join()
        .unwrap();
        assert_eq!((worker.nodes_copied, worker.bytes_copied), (2, 50));
        assert_eq!(
            CopyStats::snapshot(),
            before,
            "another thread's copy leaked in"
        );
    }
}
