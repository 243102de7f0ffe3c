//! Evaluation drivers: the sequential reference loop and the parallel
//! peer-mailbox driver.
//!
//! The simulator's semantics are defined by the **sequential** driver:
//! drain ready tasks in FIFO order, deliver the earliest batch of
//! in-flight messages mailbox-by-mailbox, repeat until quiescent. The
//! **parallel** driver keeps those semantics *bit-for-bit* — same
//! result forests, same `NetStats`, same `RunReport`, same PRNG stream
//! for the same seed — by splitting each scheduling step into two
//! phases:
//!
//! 1. **Speculative precompute** (workers): the heavy, *pure* pieces of
//!    a wave — query evaluations against a peer's documents and forest
//!    serializations for the wire — run on a scoped worker pool over an
//!    immutable borrow of Σ. Each job snapshots the owning peer's
//!    *state epoch* (a counter bumped on every peer-state mutation).
//! 2. **Ordered commit** (coordinator): the wave is then replayed in
//!    exactly the sequential order through exactly the sequential code
//!    path. A precomputed result is used only if its epoch still
//!    matches — i.e. no earlier commit in the wave mutated that peer —
//!    otherwise it is discarded and recomputed inline. Everything with
//!    global ordering (network sends, call ids, metrics, trace events,
//!    slot fills, the tie-breaking PRNG) happens only here, on one
//!    thread, which is what makes equivalence structural rather than
//!    hoped-for.
//!
//! A *wave* is one drain of the ready queue (spawned tasks form the
//! next wave — provably the same global FIFO order) or one drain of
//! all peer mailboxes after an arrival batch (deliveries never refill
//! mailboxes, so batching them is order-equivalent too).
//!
//! On top of the pool the parallel driver adds deterministic **request
//! collapsing**: identical service invocations (same provider, service
//! and parameter forests, same state epoch) within a session are
//! evaluated once and the result reused — in-wave via job
//! deduplication, across waves via a session-scoped cache. Because
//! service bodies are pure functions of the provider's documents and
//! the parameters, and the epoch guard invalidates on any mutation,
//! collapsed calls return bit-identical forests. The sequential driver
//! never collapses: it stays the plain reference.
//!
//! Per-worker counters are accumulated privately and merged into
//! [`ParallelStats`] at the scope's join barrier (the same shape
//! [`axml_obs::EvalMetrics::merge`] provides for metric accumulators),
//! so `EvalMetrics`⇄`NetStats` reconciliation is untouched: metrics
//! are only ever written by the committing coordinator. The workers'
//! thread-local [`CopyStats`] deltas are folded into the coordinator's
//! at the same barrier, so a run's copy accounting does not depend on
//! the driver.

use crate::engine::{Cont, Delivery, EvalSession, Intent, Runnable};
use crate::error::{CoreError, CoreResult};
use crate::peer::PeerState;
use crate::system::AxmlSystem;
use axml_query::Query;
use axml_xml::ids::{PeerId, ServiceName};
use axml_xml::stats::CopyStats;
use axml_xml::tree::Tree;

/// Which driver [`AxmlSystem`] uses to run evaluation sessions.
///
/// Select it with [`crate::builder::SystemBuilder::driver`] (or
/// [`AxmlSystem::set_driver`]). Both drivers produce bit-identical
/// results, statistics and reports for the same seed; `Parallel` also
/// precomputes pure work on a worker pool and collapses identical
/// service calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DriverKind {
    /// The single-threaded reference driver.
    #[default]
    Sequential,
    /// The wave-based parallel driver.
    Parallel {
        /// Worker threads for the precompute pool. `0` means "use
        /// [`std::thread::available_parallelism`]". With one thread the
        /// pool is bypassed but request collapsing stays active.
        threads: usize,
    },
}

/// The sequential reference driver (see [`DriverKind::Sequential`]).
pub struct SequentialDriver;

/// The parallel peer-mailbox driver (see [`DriverKind::Parallel`]).
pub struct ParallelDriver {
    /// Worker threads (`0` = auto).
    pub threads: usize,
}

/// Drives one [`EvalSession`] to quiescence. Both drivers call back
/// into the engine's task/delivery methods, so all observable effects
/// go through identical code.
pub(crate) trait SessionDriver {
    fn drive(&self, sys: &mut AxmlSystem, s: &mut EvalSession) -> CoreResult<()>;
}

impl SessionDriver for SequentialDriver {
    fn drive(&self, sys: &mut AxmlSystem, s: &mut EvalSession) -> CoreResult<()> {
        sys.run_session_sequential(s)
    }
}

impl SessionDriver for ParallelDriver {
    fn drive(&self, sys: &mut AxmlSystem, s: &mut EvalSession) -> CoreResult<()> {
        let threads = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        };
        sys.run_session_parallel(s, threads)
    }
}

/// Cumulative counters of the parallel driver (not part of
/// [`axml_obs::RunReport`] — wall-clock strategy must not perturb the
/// simulated-semantics report, which stays identical across drivers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Commit waves driven (task waves + delivery waves).
    pub waves: u64,
    /// Precompute jobs executed by worker threads.
    pub jobs: u64,
    /// Precomputed results whose epoch still matched at commit.
    pub precomp_used: u64,
    /// Precomputed results discarded because an earlier commit in the
    /// wave mutated the owning peer (recomputed inline).
    pub invalidated: u64,
    /// In-wave duplicate service jobs collapsed onto one evaluation.
    pub dedup_hits: u64,
    /// Cross-wave service-result cache hits (request collapsing).
    pub cache_hits: u64,
}

impl ParallelStats {
    /// Merge a per-worker (or per-wave) accumulator — the join-barrier
    /// primitive: counters are additive, so merge order cannot matter.
    pub fn merge(&mut self, other: &ParallelStats) {
        self.waves += other.waves;
        self.jobs += other.jobs;
        self.precomp_used += other.precomp_used;
        self.invalidated += other.invalidated;
        self.dedup_hits += other.dedup_hits;
        self.cache_hits += other.cache_hits;
    }
}

/// A pure precompute job extracted from one wave entry. Jobs only ever
/// *read* Σ; everything they need beyond Σ is borrowed from the wave
/// itself, so results are functions of (inputs, peer state @ epoch).
pub(crate) enum Job<'a> {
    /// [`Cont::ApplyFinish`]: run the query over the gathered forests.
    Apply {
        peer: PeerId,
        query: &'a Query,
        input: &'a [Vec<Tree>],
    },
    /// Serialize a forest for the wire (remote sends and replies).
    Serialize { forest: &'a [Vec<Tree>] },
    /// [`Intent::Invoke`]: run the provider's service body.
    Service {
        prov: PeerId,
        service: &'a ServiceName,
        params: &'a [Vec<Tree>],
        need_payload: bool,
    },
}

impl<'a> Job<'a> {
    /// The precomputable part of a ready task, if any.
    pub(crate) fn for_task(t: &'a Runnable) -> Option<Job<'a>> {
        let Runnable::Resume { peer, cont, input } = t else {
            return None;
        };
        match cont {
            Cont::ApplyFinish { query, skip, .. } => Some(Job::Apply {
                peer: *peer,
                query,
                input: &input[*skip..],
            }),
            Cont::SendPeer { dest, .. } if dest != peer => Some(Job::Serialize { forest: input }),
            Cont::ReplyData { reply_to, .. } if reply_to != peer => {
                Some(Job::Serialize { forest: input })
            }
            Cont::SendNewDoc { peer: dest, .. } if dest != peer => {
                Some(Job::Serialize { forest: input })
            }
            _ => None,
        }
    }

    /// The precomputable part of a mailbox delivery, if any.
    pub(crate) fn for_delivery(d: &'a Delivery) -> Option<Job<'a>> {
        match &d.wire.intent {
            Intent::Invoke {
                caller,
                service,
                params,
                forward,
                ..
            } => Some(Job::Service {
                prov: d.to,
                service,
                params,
                need_payload: forward.is_empty() && *caller != d.to,
            }),
            _ => None,
        }
    }

    /// Dedup key for in-wave request collapsing (service jobs only —
    /// collapsing `Apply`/`Serialize` would buy nothing, their inputs
    /// are distinct by construction).
    fn collapse_key(&self) -> Option<(PeerId, &'a ServiceName, String, bool)> {
        match self {
            Job::Service {
                prov,
                service,
                params,
                need_payload,
            } => Some((*prov, service, params_key(params), *need_payload)),
            _ => None,
        }
    }
}

/// Canonical cache key for a parameter-forest list.
pub(crate) fn params_key(params: &[Vec<Tree>]) -> String {
    let mut key = String::new();
    for p in params {
        key.push_str(&AxmlSystem::serialize_forest(p));
        key.push('\u{1f}');
    }
    key
}

/// A speculative result, tagged with the state epoch it was computed
/// against. The committing coordinator uses it only if the epoch still
/// matches; `Payload` is a pure function of the wave entry's own data
/// and needs no guard.
pub(crate) enum Precomp {
    /// A forest result of [`Job::Apply`].
    Forest {
        peer: PeerId,
        epoch: u64,
        result: CoreResult<Vec<Tree>>,
    },
    /// A wire payload from [`Job::Serialize`].
    Payload(String),
    /// Results (and, if requested, the response payload) of
    /// [`Job::Service`].
    Service {
        peer: PeerId,
        epoch: u64,
        result: CoreResult<(Vec<Tree>, Option<String>)>,
    },
}

impl Precomp {
    fn clone_for_duplicate(&self) -> Precomp {
        match self {
            Precomp::Forest {
                peer,
                epoch,
                result,
            } => Precomp::Forest {
                peer: *peer,
                epoch: *epoch,
                result: result.clone(),
            },
            Precomp::Payload(p) => Precomp::Payload(p.clone()),
            Precomp::Service {
                peer,
                epoch,
                result,
            } => Precomp::Service {
                peer: *peer,
                epoch: *epoch,
                result: result.clone(),
            },
        }
    }
}

/// Run one job against an immutable Σ. This mirrors — statement for
/// statement — what the commit path would compute inline, so a valid
/// (epoch-matching) precomp is substitutable without observable
/// difference.
fn run_job(peers: &[PeerState], epochs: &[u64], job: &Job<'_>) -> Precomp {
    match job {
        Job::Serialize { forest } => {
            let first = forest.first().map(Vec::as_slice).unwrap_or(&[]);
            Precomp::Payload(AxmlSystem::serialize_forest(first))
        }
        Job::Apply { peer, query, input } => Precomp::Forest {
            peer: *peer,
            epoch: epochs[peer.index()],
            result: query
                .eval_with_docs(input, &peers[peer.index()])
                .map_err(CoreError::from),
        },
        Job::Service {
            prov,
            service,
            params,
            need_payload,
        } => {
            let result = (|| {
                let svc = peers[prov.index()].service(service, *prov)?;
                if svc.arity() != params.len() {
                    return Err(CoreError::Query(axml_query::QueryError::ArityMismatch {
                        expected: svc.arity(),
                        got: params.len(),
                    }));
                }
                let results = svc.query.eval_with_docs(params, &peers[prov.index()])?;
                let payload = need_payload.then(|| AxmlSystem::serialize_forest(&results));
                Ok((results, payload))
            })();
            Precomp::Service {
                peer: *prov,
                epoch: epochs[prov.index()],
                result,
            }
        }
    }
}

/// Statistics of one precompute phase, returned to the coordinator.
#[derive(Default)]
pub(crate) struct WaveStats {
    pub(crate) jobs: u64,
    pub(crate) dedup_hits: u64,
}

/// Speculatively evaluate a wave's jobs on up to `threads` workers.
///
/// `jobs` pairs each job with its wave index; the result vector has one
/// entry per wave slot (`None` where nothing was precomputable).
/// Identical service jobs are collapsed onto a single evaluation before
/// the pool is spawned; duplicates receive clones of the
/// representative's result. Per-worker outputs are merged at the scope
/// join barrier, preserving wave-index association regardless of which
/// worker ran what.
pub(crate) fn precompute(
    peers: &[PeerState],
    epochs: &[u64],
    jobs: Vec<(usize, Job<'_>)>,
    slots: usize,
    threads: usize,
) -> (Vec<Option<Precomp>>, WaveStats) {
    let mut out: Vec<Option<Precomp>> = std::iter::repeat_with(|| None).take(slots).collect();
    let mut stats = WaveStats::default();
    if jobs.is_empty() {
        return (out, stats);
    }
    // In-wave request collapsing: duplicates point at a representative.
    let mut unique: Vec<(usize, &Job<'_>)> = Vec::new();
    let mut dup_of: Vec<(usize, usize)> = Vec::new(); // (wave ix, unique ix)
    {
        let mut seen: std::collections::HashMap<(PeerId, &ServiceName, String, bool), usize> =
            std::collections::HashMap::new();
        for (ix, job) in &jobs {
            match job.collapse_key() {
                Some(key) => match seen.get(&key) {
                    Some(&u) => {
                        dup_of.push((*ix, u));
                        stats.dedup_hits += 1;
                    }
                    None => {
                        seen.insert(key, unique.len());
                        unique.push((*ix, job));
                    }
                },
                None => unique.push((*ix, job)),
            }
        }
    }
    stats.jobs = unique.len() as u64;
    // One unique job (or a single-threaded pool) isn't worth a spawn:
    // the commit path computes it inline — and, for service calls, still
    // feeds the session cache, so collapsing keeps working either way.
    if unique.len() < 2 || threads <= 1 {
        // Nothing ran speculatively, so nothing was collapsed here
        // either — the session cache will pick the duplicates up at
        // commit and count them as cache hits instead.
        return (out, WaveStats::default());
    }
    let buckets: Vec<Vec<(usize, &Job<'_>)>> = {
        let n = threads.min(unique.len());
        let mut b: Vec<Vec<(usize, &Job<'_>)>> = (0..n).map(|_| Vec::new()).collect();
        for (i, ju) in unique.iter().enumerate() {
            b[i % n].push(*ju);
        }
        b
    };
    let computed: Vec<(Vec<(usize, Precomp)>, CopyStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                scope.spawn(move || {
                    let copies0 = CopyStats::snapshot();
                    let out = bucket
                        .into_iter()
                        .map(|(ix, job)| (ix, run_job(peers, epochs, job)))
                        .collect::<Vec<_>>();
                    (out, CopyStats::snapshot().delta_since(&copies0))
                })
            })
            .collect();
        // Join barrier: merge per-worker outputs back into wave order.
        handles
            .into_iter()
            .map(|h| h.join().expect("precompute worker must not panic"))
            .collect()
    });
    for (worker_out, copies) in computed {
        // The workers' tree copies belong to the caller's run.
        CopyStats::absorb(&copies);
        for (ix, p) in worker_out {
            out[ix] = Some(p);
        }
    }
    // Duplicates share the representative's result.
    let rep_ix: Vec<usize> = unique.iter().map(|(ix, _)| *ix).collect();
    for (ix, u) in dup_of {
        out[ix] = out[rep_ix[u]].as_ref().map(Precomp::clone_for_duplicate);
    }
    (out, stats)
}
