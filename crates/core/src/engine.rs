//! The message-driven evaluation engine.
//!
//! `eval@p(e)` used to be a depth-first recursion that sent each message
//! and immediately received it, so every transfer was serialized on the
//! global clock. This module replaces that with a small discrete-event
//! engine: evaluation of an expression is decomposed into **continuation
//! tasks** (one per pending definition (1)–(9) step), messages carry an
//! `Intent` describing their receiver-side effect, and an
//! `EvalSession` drives tasks and in-flight messages to quiescence.
//! Independent transfers now genuinely overlap — the makespan of a
//! fan-out is its critical path, not the sum of its byte costs — while
//! per-link message/byte accounting stays identical to the sequential
//! engine (counters are additive and order-invariant).
//!
//! # Structure
//!
//! * [`Wire`] — what actually travels: the [`AxmlMessage`] (whose
//!   serialized payload is what the link charges) plus the `Intent`
//!   applied on delivery.
//! * `EvalSession` — pure session state: result slots, the ready
//!   queue, waiting continuations, one mailbox per peer, and a seeded
//!   PRNG used only to break ties between messages arriving at the
//!   exact same instant (determinism: no wall clock, no global RNG).
//! * `AxmlSystem::run_session` — the engine loop: drain ready tasks,
//!   then deliver the earliest batch of in-flight messages to the
//!   peers' mailboxes, repeat until quiescent. Within a session,
//!   identical service calls against an unchanged provider collapse
//!   onto one evaluation (request collapsing).
//!
//! Every definition keeps its observable semantics from the sequential
//! evaluator: the same messages with the same charged bytes on the same
//! links, the same definition counters, and the same final state Σ.
//! Sequential chains (request → response) even keep identical timing;
//! only independent transfers finish earlier.

use crate::error::{CoreError, CoreResult, EngineError};
use crate::expr::{Expr, PeerRef, SendDest};
use crate::message::AxmlMessage;
use crate::sc::{ActivationMode, ScNode, ScProvider};
use crate::service::Service;
use crate::system::AxmlSystem;
use axml_net::{FramedPayload, NetError, Payload};
use axml_obs::{DataTag, TraceEvent};
use axml_prng::SplitMix64;
use axml_query::Query;
use axml_xml::equiv::{canonicalize, Canon};
use axml_xml::ids::{DocName, NodeAddr, PeerId, ServiceName};
use axml_xml::store::Document;
use axml_xml::tree::{NodeId, Tree};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// A result destination: `(slot, part)` inside the session's slot table.
pub(crate) type Out = (usize, usize);

/// Salt separating the retry-jitter PRNG stream from the session
/// tie-breaking stream and the network fault stream.
const RETRY_STREAM_SALT: u64 = 0xBACC_0FF5_1077_E55A;

/// What travels on a link: the charged message plus the receiver-side
/// continuation. Only `msg` contributes to the wire size — intents are
/// bookkeeping for the simulation, not payload.
pub struct Wire {
    pub(crate) msg: AxmlMessage,
    pub(crate) intent: Intent,
}

impl Payload for Wire {
    fn wire_size(&self) -> usize {
        self.msg.wire_size()
    }
}

impl FramedPayload for Wire {
    /// Only the [`AxmlMessage`] crosses the wire: the `Intent` is the
    /// sender-side continuation bookkeeping (which slot a reply fills),
    /// not message content — a real remote peer would reconstruct it
    /// from correlation ids.
    fn frame_payload(&self) -> Vec<u8> {
        self.msg.frame_bytes()
    }
}

impl std::fmt::Debug for Wire {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Wire({})", self.msg.kind())
    }
}

/// The effect a message has when it reaches its receiver's mailbox.
pub(crate) enum Intent {
    /// Pure data transfer; the send's value was already determined.
    None,
    /// Fill a waiting slot with a forest (responses, fetched data).
    Reply { forest: Vec<Tree>, out: Out },
    /// Definition (5) / delegated-send shape: the receiver evaluates
    /// `expr` and ships the result back as `Data(tag)` into `out`.
    EvalAndReply {
        expr: Expr,
        reply_to: PeerId,
        tag: DataTag,
        out: Out,
    },
    /// General `eval@p`: the receiver evaluates `expr`; the delegating
    /// side's value is ∅, filled into `done` once the inner completes.
    EvalHere { expr: Expr, done: Out },
    /// Definition (4) / forward lists: graft `forest` under `addr`.
    Graft {
        addr: NodeAddr,
        forest: Vec<Tree>,
        notify: Option<Out>,
    },
    /// `send(d@p, t)`: install a new document at the receiver.
    InstallDoc {
        name: DocName,
        forest: Vec<Tree>,
        notify: Out,
    },
    /// Definition (8): register the shipped query as a service.
    Deploy {
        query: Query,
        as_service: ServiceName,
        notify: Out,
    },
    /// Definition (6) step 1 arriving: the provider runs the service.
    Invoke {
        caller: PeerId,
        service: ServiceName,
        params: Vec<Vec<Tree>>,
        forward: Vec<NodeAddr>,
        call_id: u64,
        out: Out,
    },
    /// Replica maintenance: graft into the receiving replica and pump
    /// its subscriptions.
    ReplicaFeed { doc: DocName, tree: Tree },
}

/// One fixed-arity result slot: ready when every part is filled.
struct Slot {
    parts: Vec<Option<Vec<Tree>>>,
    missing: usize,
}

/// A task on the ready queue.
pub(crate) enum Runnable {
    /// Decompose `expr` at a peer; its value lands in `out`.
    Eval { at: PeerId, expr: Expr, out: Out },
    /// Resume a continuation whose inputs are all available.
    Resume {
        peer: PeerId,
        cont: Cont,
        input: Vec<Vec<Tree>>,
    },
}

impl Runnable {
    fn peer(&self) -> PeerId {
        match self {
            Runnable::Eval { at, .. } => *at,
            Runnable::Resume { peer, .. } => *peer,
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Runnable::Eval { .. } => "eval",
            Runnable::Resume { cont, .. } => cont.name(),
        }
    }
}

/// A continuation waiting on a slot.
struct Pending {
    wait: usize,
    peer: PeerId,
    cont: Cont,
}

/// The suspended remainder of one definition's evaluation.
pub(crate) enum Cont {
    /// Definitions (2)/(7): run the query over the gathered argument
    /// forests (`skip` leading parts are the remote-definition gate).
    ApplyFinish { query: Query, skip: usize, out: Out },
    /// Definition (6): all `sc` parameters evaluated — start the call.
    ScReady {
        provider: ScProvider,
        service: ServiceName,
        forward: Vec<NodeAddr>,
        out: Out,
    },
    /// Definition (3): payload evaluated — ship it.
    SendPeer { dest: PeerId, out: Out },
    /// Definition (4): payload evaluated — deliver to the node list.
    SendNodes { addrs: Vec<NodeAddr>, out: Out },
    /// `send(d@p, t)`: payload evaluated — install the new document.
    SendNewDoc {
        peer: PeerId,
        name: DocName,
        out: Out,
    },
    /// Definition (1): embedded `sc` results ready — graft them back
    /// into the copied tree (`grafts[i]` is part `i`'s parent; `None`
    /// for forward-listed calls whose results landed elsewhere).
    TreeFinish {
        tree: Tree,
        grafts: Vec<Option<NodeId>>,
        out: Out,
    },
    /// Rule (13): one sequence step finished — run the rest.
    SeqStep { rest: VecDeque<Expr>, out: Out },
    /// Remote fetch/delegation: the inner result must travel back.
    ReplyData {
        reply_to: PeerId,
        tag: DataTag,
        remote_out: Out,
    },
    /// Completion gate: inputs arrived, the observable value is ∅.
    Discard { out: Out },
}

impl Cont {
    fn name(&self) -> &'static str {
        match self {
            Cont::ApplyFinish { .. } => "apply",
            Cont::ScReady { .. } => "sc",
            Cont::SendPeer { .. } => "send",
            Cont::SendNodes { .. } => "send-nodes",
            Cont::SendNewDoc { .. } => "send-newdoc",
            Cont::TreeFinish { .. } => "tree",
            Cont::SeqStep { .. } => "seq",
            Cont::ReplyData { .. } => "reply",
            Cont::Discard { .. } => "fill",
        }
    }
}

/// A message popped off the network, parked in its receiver's mailbox.
struct Delivery {
    from: PeerId,
    to: PeerId,
    wire: Wire,
    at: f64,
}

/// One service activation as handed to `start_service_call`: who calls
/// what, with which parameter forests and forward list.
struct ScCall<'a> {
    caller: PeerId,
    provider: ScProvider,
    service: &'a ServiceName,
    param_forests: Vec<Vec<Tree>>,
    forward: &'a [NodeAddr],
}

/// One evaluation session: everything the engine needs besides Σ.
///
/// Sessions are pure data — all logic lives in `AxmlSystem` methods so
/// the engine loop can borrow peers, network and observability freely.
pub(crate) struct EvalSession {
    slots: Vec<Slot>,
    ready: VecDeque<Runnable>,
    waiting: Vec<Pending>,
    /// Per-peer arrival mailboxes, keyed by peer index. Sparse — only
    /// peers that actually receive something get an entry, so a session
    /// over 10⁵ peers costs O(touched peers), and the ascending key
    /// iteration reproduces the dense `0..n` drain order bit-exactly.
    mailboxes: std::collections::BTreeMap<u32, VecDeque<Delivery>>,
    rng: SplitMix64,
    /// Result trees delivered by arrival-side subscription pumps
    /// (replica maintenance accumulates its downstream count here).
    pub(crate) delivered: usize,
    /// Request collapsing: a session-scoped memo of service results,
    /// `(provider, service, canonical params) → result @ epoch`. Entries
    /// are only reused while the provider's state epoch is unchanged,
    /// and service bodies are pure in (parameters, provider state), so
    /// a hit is bit-identical to recomputing.
    svc_cache: std::collections::HashMap<(PeerId, ServiceName, String), CachedCall>,
}

/// One memoized service evaluation (see `EvalSession::svc_cache`).
pub(crate) struct CachedCall {
    epoch: u64,
    /// The service's arity when the entry was evaluated.
    arity: usize,
    results: Vec<Tree>,
    payload: Option<String>,
    /// Canonical forms of `results`, computed on first use by a
    /// subscription pump and shared by every later one.
    canons: Option<Vec<Canon>>,
}

impl CachedCall {
    /// The results beside their canonical forms, in result order.
    pub(crate) fn results_with_canons(&mut self) -> (&[Tree], &[Canon]) {
        let results = &self.results;
        let canons = self
            .canons
            .get_or_insert_with(|| results.iter().map(|t| canonicalize(t, t.root())).collect());
        (results, canons)
    }
}

impl EvalSession {
    fn new(seed: u64) -> Self {
        EvalSession {
            slots: Vec::new(),
            ready: VecDeque::new(),
            waiting: Vec::new(),
            mailboxes: std::collections::BTreeMap::new(),
            rng: SplitMix64::new(seed),
            delivered: 0,
            svc_cache: std::collections::HashMap::new(),
        }
    }

    /// Allocate a slot with `parts` ordered parts (0 parts = ready now).
    pub(crate) fn new_slot(&mut self, parts: usize) -> usize {
        self.slots.push(Slot {
            parts: vec![None; parts],
            missing: parts,
        });
        self.slots.len() - 1
    }

    /// Take the first part of a finished slot (the session's result).
    ///
    /// A part that was never filled means a delivery was lost somewhere
    /// between the peers — that is a [`EngineError::LostResult`], not an
    /// empty answer. (A part filled with an empty forest is a perfectly
    /// valid result and comes back as `Ok(vec![])`.)
    pub(crate) fn take(&mut self, slot: usize) -> Result<Vec<Tree>, EngineError> {
        self.slots[slot]
            .parts
            .get_mut(0)
            .and_then(Option::take)
            .ok_or(EngineError::LostResult { slot, part: 0 })
    }

    fn gather(&mut self, slot: usize) -> Result<Vec<Vec<Tree>>, EngineError> {
        self.slots[slot]
            .parts
            .iter_mut()
            .enumerate()
            .map(|(part, p)| p.take().ok_or(EngineError::LostResult { slot, part }))
            .collect()
    }
}

impl AxmlSystem {
    /// A fresh session with a deterministic, per-session PRNG seed.
    pub(crate) fn new_session(&mut self) -> EvalSession {
        let n = self.sessions;
        self.sessions += 1;
        EvalSession::new(self.engine_seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Put a task on the ready queue (emitting [`TraceEvent::TaskScheduled`]).
    pub(crate) fn schedule(&mut self, s: &mut EvalSession, task: Runnable) {
        let peer = task.peer();
        let name = task.name();
        let at_ms = self.net.now_ms();
        self.obs.emit(|| TraceEvent::TaskScheduled {
            peer,
            task: name.into(),
            at_ms,
        });
        s.ready.push_back(task);
    }

    /// Drive the session to quiescence: run ready tasks, then deliver
    /// the earliest batch of in-flight messages, until both are empty.
    /// On error the network's in-flight queue is cleared (statistics are
    /// kept — the bytes were charged when they entered the link). Either
    /// way the trace sink is flushed (best effort) so file-backed sinks
    /// are durable up to every quiescence point.
    pub(crate) fn run_session(&mut self, s: &mut EvalSession) -> CoreResult<()> {
        let r = self.drive(s);
        if r.is_err() {
            self.net.clear_in_flight();
        }
        if let Err(e) = self.obs.flush() {
            eprintln!("axml-core: trace flush at session quiescence failed: {e}");
        }
        r
    }

    /// The engine loop: drain ready tasks in FIFO order, then deliver
    /// the next arrival batch mailbox by mailbox, until quiescent.
    fn drive(&mut self, s: &mut EvalSession) -> CoreResult<()> {
        loop {
            while let Some(task) = s.ready.pop_front() {
                self.run_task(s, task)?;
            }
            if !self.next_arrival_batch(s) {
                break;
            }
            // Deliveries never push into mailboxes (only
            // `next_arrival_batch` does), so taking the whole map and
            // draining in ascending peer order is exactly the old dense
            // `0..n` per-peer scan.
            for (_, mut mb) in std::mem::take(&mut s.mailboxes) {
                while let Some(d) = mb.pop_front() {
                    self.deliver(s, d)?;
                }
            }
        }
        self.check_quiescent(s)
    }

    /// Pop every message arriving at the earliest pending instant,
    /// shuffle the batch with the session PRNG (deterministic
    /// tie-breaking, not biased by send order) and enqueue each message
    /// into its receiver's mailbox. Returns `false` when nothing is in
    /// flight. This is the *only* consumer of the session PRNG.
    fn next_arrival_batch(&mut self, s: &mut EvalSession) -> bool {
        if !self.net.has_pending() {
            return false;
        }
        let t = self
            .net
            .peek_arrival()
            .expect("pending messages have an arrival time");
        let mut batch = Vec::new();
        while self.net.peek_arrival() == Some(t) {
            let (from, to, wire, at) = self.net.recv_from().expect("peeked arrival must pop");
            batch.push(Delivery { from, to, wire, at });
        }
        s.rng.shuffle(&mut batch);
        for d in batch {
            s.mailboxes.entry(d.to.0).or_default().push_back(d);
        }
        true
    }

    fn check_quiescent(&self, s: &EvalSession) -> CoreResult<()> {
        if let Some(p) = s.waiting.first() {
            return Err(EngineError::Stalled {
                peer: p.peer,
                waiting: s.waiting.len(),
            }
            .into());
        }
        Ok(())
    }

    fn run_task(&mut self, s: &mut EvalSession, task: Runnable) -> CoreResult<()> {
        match task {
            Runnable::Eval { at, expr, out } => self.step_eval(s, at, expr, out),
            Runnable::Resume { peer, cont, input } => self.resume(s, peer, cont, input),
        }
    }

    fn deliver(&mut self, s: &mut EvalSession, d: Delivery) -> CoreResult<()> {
        let Delivery { from, to, wire, at } = d;
        let kind = wire.msg.kind();
        let charged = self
            .net
            .link(from, to)
            .charged_bytes_u64(wire.msg.wire_size());
        self.obs.emit(|| TraceEvent::MessageDelivered {
            from,
            to,
            kind,
            bytes: charged,
            at_ms: at,
        });
        self.apply_intent(s, to, wire.intent)
    }

    /// Send a message with its receiver-side intent. Local sends are
    /// free (matching `NetStats` semantics): the intent applies now.
    ///
    /// Cross-peer sends go through the retry loop: each failed attempt
    /// with a *transient* [`NetError`] (injected drop, outage window,
    /// crashed peer) charges the policy's timeout plus a deterministic
    /// jittered backoff on the simulated clock and tries again, until
    /// the [`crate::retry::RetryPolicy`] budget runs out. With the
    /// default `RetryPolicy::none()` a down link still surfaces as the
    /// historical `EngineError::Undeliverable`.
    pub(crate) fn send_wire(
        &mut self,
        s: &mut EvalSession,
        from: PeerId,
        to: PeerId,
        msg: AxmlMessage,
        intent: Intent,
    ) -> CoreResult<()> {
        self.check_peer(from)?;
        self.check_peer(to)?;
        if from == to {
            return self.apply_intent(s, to, intent);
        }
        let kind = msg.kind();
        let charged = self.net.link(from, to).charged_bytes_u64(msg.wire_size());
        let mut wire = Wire { msg, intent };
        let mut attempt: u32 = 0;
        let (sent, at) = loop {
            let sent = self.net.now_ms();
            match self.net.send_attempt(from, to, wire) {
                Ok(at) => break (sent, at),
                Err((e, w)) => {
                    wire = w;
                    let dropped = matches!(e, NetError::Dropped(..));
                    let transient =
                        dropped || matches!(e, NetError::LinkDown(..) | NetError::PeerDown(..));
                    if !transient {
                        return Err(e.into());
                    }
                    if dropped {
                        // A drop consumed the attempt on the wire; both
                        // layers must agree it happened (reconciliation).
                        self.obs.metrics.record_drop(from, to);
                        self.obs.emit(|| TraceEvent::MessageDropped {
                            from,
                            to,
                            kind,
                            bytes: charged,
                            at_ms: sent,
                        });
                    }
                    if attempt >= self.retry.max_retries {
                        if attempt == 0 && !dropped {
                            // No-retry config, structurally dead link:
                            // keep the historical typed error.
                            return Err(EngineError::Undeliverable { from, to, kind }.into());
                        }
                        return Err(EngineError::Exhausted {
                            from,
                            to,
                            kind,
                            attempts: attempt + 1,
                        }
                        .into());
                    }
                    let backoff_ms = self.retry_backoff_ms(from, to, attempt);
                    attempt += 1;
                    self.obs.metrics.retries += 1;
                    self.obs.emit(|| TraceEvent::RetryScheduled {
                        from,
                        to,
                        kind,
                        attempt,
                        backoff_ms,
                        at_ms: sent,
                    });
                    self.net.advance(self.retry.timeout_ms + backoff_ms);
                }
            }
        };
        self.obs.metrics.record_message(from, to, kind, charged);
        self.obs.emit(|| TraceEvent::MessageSent {
            from,
            to,
            kind,
            bytes: charged,
            sent_ms: sent,
            at_ms: at,
        });
        Ok(())
    }

    /// The jittered backoff before 0-based retry `attempt` on the
    /// `from → to` link. The jitter stream is derived from the engine
    /// seed, the link, and the global retry counter — never from the
    /// session PRNG — so it is reproducible from the seed.
    fn retry_backoff_ms(&self, from: PeerId, to: PeerId, attempt: u32) -> f64 {
        let base = self.retry.backoff_ms(attempt);
        if self.retry.jitter <= 0.0 || base <= 0.0 {
            return base;
        }
        let link = ((from.0 as u64) << 32) | to.0 as u64;
        let mut rng = SplitMix64::new(
            self.engine_seed
                ^ RETRY_STREAM_SALT
                ^ link.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ self.obs.metrics.retries.wrapping_mul(0xBF58_476D_1CE4_E5B9),
        );
        base * (1.0 + self.retry.jitter * rng.next_f64())
    }

    fn apply_intent(&mut self, s: &mut EvalSession, to: PeerId, intent: Intent) -> CoreResult<()> {
        match intent {
            Intent::None => Ok(()),
            Intent::Reply { forest, out } => {
                self.fill(s, out, forest)?;
                Ok(())
            }
            Intent::EvalAndReply {
                expr,
                reply_to,
                tag,
                out,
            } => {
                let slot = s.new_slot(1);
                self.schedule(
                    s,
                    Runnable::Eval {
                        at: to,
                        expr,
                        out: (slot, 0),
                    },
                );
                self.register_pending(
                    s,
                    slot,
                    to,
                    Cont::ReplyData {
                        reply_to,
                        tag,
                        remote_out: out,
                    },
                )?;
                Ok(())
            }
            Intent::EvalHere { expr, done } => {
                let slot = s.new_slot(1);
                self.schedule(
                    s,
                    Runnable::Eval {
                        at: to,
                        expr,
                        out: (slot, 0),
                    },
                );
                self.register_pending(s, slot, to, Cont::Discard { out: done })?;
                Ok(())
            }
            Intent::Graft {
                addr,
                forest,
                notify,
            } => {
                self.graft_at(&addr, &forest)?;
                if let Some(n) = notify {
                    self.fill(s, n, Vec::new())?;
                }
                Ok(())
            }
            Intent::InstallDoc {
                name,
                forest,
                notify,
            } => {
                self.install_new_doc(to, &name, &forest)?;
                self.fill(s, notify, Vec::new())?;
                Ok(())
            }
            Intent::Deploy {
                query,
                as_service,
                notify,
            } => {
                self.peers[to.index()].register_service(Service::declarative(as_service, query));
                self.touch_peer(to);
                self.fill(s, notify, Vec::new())?;
                Ok(())
            }
            Intent::Invoke {
                caller,
                service,
                params,
                forward,
                call_id,
                out,
            } => self.run_service_at(s, to, caller, &service, params, &forward, call_id, out),
            Intent::ReplicaFeed { doc, tree } => {
                let n = self.feed_into(s, to, &doc, tree)?;
                s.delivered += n;
                Ok(())
            }
        }
    }

    /// Fill one slot part; a slot whose last part arrives wakes its
    /// waiting continuation (if registered — otherwise the parts stay
    /// for a later [`AxmlSystem::register_pending`] or `take`).
    fn fill(&mut self, s: &mut EvalSession, out: Out, forest: Vec<Tree>) -> CoreResult<()> {
        let slot = &mut s.slots[out.0];
        debug_assert!(slot.parts[out.1].is_none(), "slot part filled twice");
        slot.parts[out.1] = Some(forest);
        slot.missing -= 1;
        if slot.missing == 0 {
            self.wake(s, out.0)?;
        }
        Ok(())
    }

    fn wake(&mut self, s: &mut EvalSession, slot: usize) -> CoreResult<()> {
        if let Some(ix) = s.waiting.iter().position(|p| p.wait == slot) {
            let Pending { peer, cont, .. } = s.waiting.swap_remove(ix);
            let input = s.gather(slot)?;
            self.schedule(s, Runnable::Resume { peer, cont, input });
        }
        Ok(())
    }

    /// Park `cont` until `slot` is ready (resuming immediately if it
    /// already is — e.g. zero-part gates or all-local fills).
    fn register_pending(
        &mut self,
        s: &mut EvalSession,
        slot: usize,
        peer: PeerId,
        cont: Cont,
    ) -> CoreResult<()> {
        if s.slots[slot].missing == 0 {
            let input = s.gather(slot)?;
            self.schedule(s, Runnable::Resume { peer, cont, input });
        } else {
            s.waiting.push(Pending {
                wait: slot,
                peer,
                cont,
            });
        }
        Ok(())
    }

    /// Decompose one expression node — the task form of definitions
    /// (1)–(9). Each case either fills `out` directly, spawns child
    /// tasks plus a continuation, or ships a message whose intent will.
    fn step_eval(
        &mut self,
        s: &mut EvalSession,
        at: PeerId,
        expr: Expr,
        out: Out,
    ) -> CoreResult<()> {
        match expr {
            // ---- definitions (1)/(5): literal trees -------------------
            Expr::Tree { tree, at: loc } => {
                if loc == at {
                    self.record_def(1, at, "tree");
                    self.materialize_tree_tasks(s, at, &tree, out)
                } else {
                    self.fetch_remote(s, at, loc, Expr::Tree { tree, at: loc }, out)
                }
            }

            // ---- documents (+ definition (9) for d@any) ---------------
            Expr::Doc { name, at: loc } => {
                let (home, concrete) = match loc {
                    PeerRef::At(p) => (p, name),
                    PeerRef::Any => return self.fetch_doc_any(s, at, name, out),
                };
                if home == at {
                    self.record_def(1, at, "doc");
                    let tree = self.peers[at.index()].doc(&concrete, at)?.clone();
                    self.fill(s, out, vec![tree])?;
                    Ok(())
                } else {
                    self.fetch_remote(
                        s,
                        at,
                        home,
                        Expr::Doc {
                            name: concrete,
                            at: PeerRef::At(home),
                        },
                        out,
                    )
                }
            }

            // ---- definitions (2)/(7): query application ---------------
            Expr::Apply { query, args } => {
                if query.query.arity() != args.len() {
                    return Err(CoreError::Query(axml_query::QueryError::ArityMismatch {
                        expected: query.query.arity(),
                        got: args.len(),
                    }));
                }
                // Definition (7): a remote definition is shipped to the
                // evaluation site; part 0 gates on its arrival.
                let gated = query.def_at != at;
                let skip = usize::from(gated);
                let slot = s.new_slot(args.len() + skip);
                if gated {
                    self.record_def(7, at, "apply");
                    let def = query.query.wire_xml().to_owned();
                    self.send_wire(
                        s,
                        query.def_at,
                        at,
                        AxmlMessage::Data {
                            payload: def,
                            tag: DataTag::QueryDef,
                        },
                        Intent::Reply {
                            forest: Vec::new(),
                            out: (slot, 0),
                        },
                    )?;
                } else {
                    self.record_def(2, at, "apply");
                }
                // Arguments evaluate concurrently — remote fetches for
                // different arguments overlap on independent links.
                for (i, a) in args.into_iter().enumerate() {
                    self.schedule(
                        s,
                        Runnable::Eval {
                            at,
                            expr: a,
                            out: (slot, skip + i),
                        },
                    );
                }
                self.register_pending(
                    s,
                    slot,
                    at,
                    Cont::ApplyFinish {
                        query: query.query,
                        skip,
                        out,
                    },
                )?;
                Ok(())
            }

            // ---- definitions (3)/(4) + send-to-new-doc ----------------
            Expr::Send { dest, payload } => {
                let slot = s.new_slot(1);
                self.schedule(
                    s,
                    Runnable::Eval {
                        at,
                        expr: *payload,
                        out: (slot, 0),
                    },
                );
                let cont = match dest {
                    SendDest::Peer(q) => Cont::SendPeer { dest: q, out },
                    SendDest::Nodes(addrs) => Cont::SendNodes { addrs, out },
                    SendDest::NewDoc { peer, name } => Cont::SendNewDoc { peer, name, out },
                };
                self.register_pending(s, slot, at, cont)?;
                Ok(())
            }

            // ---- definition (6): service calls ------------------------
            Expr::Sc {
                provider,
                service,
                params,
                forward,
            } => {
                let provider = match provider {
                    PeerRef::At(p) => ScProvider::Peer(p),
                    PeerRef::Any => ScProvider::Any,
                };
                let slot = s.new_slot(params.len());
                for (i, p) in params.into_iter().enumerate() {
                    self.schedule(
                        s,
                        Runnable::Eval {
                            at,
                            expr: p,
                            out: (slot, i),
                        },
                    );
                }
                self.register_pending(
                    s,
                    slot,
                    at,
                    Cont::ScReady {
                        provider,
                        service,
                        forward,
                        out,
                    },
                )?;
                Ok(())
            }

            // ---- rules (14)–(16): delegated evaluation ----------------
            Expr::EvalAt { peer, expr: inner } => {
                self.obs.metrics.delegations += 1;
                let now = self.now_ms();
                let (from, to) = (at, peer);
                self.obs.emit(|| TraceEvent::Delegation {
                    from,
                    to,
                    at_ms: now,
                });
                let mut shipped = *inner;
                if peer != at {
                    // The delegated plan crosses the wire (embedded
                    // query definitions travel with it).
                    let mut expr_xml = String::new();
                    shipped.write_wire(&mut expr_xml);
                    shipped.relocate_query_defs(peer);
                    // Capture the common delegation shape: the inner
                    // expression sends its value straight back to us.
                    let intent = match shipped {
                        Expr::Send {
                            dest: SendDest::Peer(back),
                            payload,
                        } if back == at => Intent::EvalAndReply {
                            expr: *payload,
                            reply_to: at,
                            tag: DataTag::DelegatedResult,
                            out,
                        },
                        other => Intent::EvalHere {
                            expr: other,
                            done: out,
                        },
                    };
                    self.send_wire(s, at, peer, AxmlMessage::Request { expr_xml }, intent)
                } else {
                    match shipped {
                        Expr::Send {
                            dest: SendDest::Peer(back),
                            payload,
                        } if back == at => {
                            self.schedule(
                                s,
                                Runnable::Eval {
                                    at: peer,
                                    expr: *payload,
                                    out,
                                },
                            );
                        }
                        other => {
                            let slot = s.new_slot(1);
                            self.schedule(
                                s,
                                Runnable::Eval {
                                    at: peer,
                                    expr: other,
                                    out: (slot, 0),
                                },
                            );
                            self.register_pending(s, slot, peer, Cont::Discard { out })?;
                        }
                    }
                    Ok(())
                }
            }

            // ---- definition (8): code shipping ------------------------
            Expr::Deploy {
                to,
                query,
                as_service,
            } => {
                self.record_def(8, at, "deploy");
                if query.def_at != to {
                    let gate = s.new_slot(1);
                    self.send_wire(
                        s,
                        query.def_at,
                        to,
                        AxmlMessage::DeployQuery {
                            query_xml: query.query.wire_xml().to_owned(),
                            as_service: as_service.clone(),
                        },
                        Intent::Deploy {
                            query: query.query,
                            as_service,
                            notify: (gate, 0),
                        },
                    )?;
                    self.register_pending(s, gate, at, Cont::Discard { out })?;
                } else {
                    self.peers[to.index()]
                        .register_service(Service::declarative(as_service, query.query));
                    self.touch_peer(to);
                    self.fill(s, out, Vec::new())?;
                }
                Ok(())
            }

            // ---- sequencing (rule (13) plans) -------------------------
            Expr::Seq(es) => {
                self.obs.metrics.seq_steps += es.len() as u64;
                let mut rest: VecDeque<Expr> = es.into();
                match rest.pop_front() {
                    None => {
                        self.fill(s, out, Vec::new())?;
                        Ok(())
                    }
                    Some(first) => {
                        let slot = s.new_slot(1);
                        self.schedule(
                            s,
                            Runnable::Eval {
                                at,
                                expr: first,
                                out: (slot, 0),
                            },
                        );
                        self.register_pending(s, slot, at, Cont::SeqStep { rest, out })?;
                        Ok(())
                    }
                }
            }
        }
    }

    fn resume(
        &mut self,
        s: &mut EvalSession,
        peer: PeerId,
        cont: Cont,
        input: Vec<Vec<Tree>>,
    ) -> CoreResult<()> {
        match cont {
            Cont::ApplyFinish { query, skip, out } => {
                let res = query.eval_with_docs(&input[skip..], &self.peers[peer.index()])?;
                self.fill(s, out, res)?;
                Ok(())
            }
            Cont::ScReady {
                provider,
                service,
                forward,
                out,
            } => self.start_service_call(
                s,
                ScCall {
                    caller: peer,
                    provider,
                    service: &service,
                    param_forests: input,
                    forward: &forward,
                },
                out,
            ),
            Cont::SendPeer { dest, out } => {
                self.record_def(3, peer, "send");
                let forest = input.into_iter().next().unwrap_or_default();
                if dest != peer {
                    let payload = Self::serialize_forest(&forest);
                    self.send_wire(
                        s,
                        peer,
                        dest,
                        AxmlMessage::Data {
                            payload,
                            tag: DataTag::Send,
                        },
                        Intent::None,
                    )?;
                }
                // Definition (3): the send expression itself evaluates
                // to ∅; the data's arrival is the side effect (captured
                // by EvalAt delegation when the destination is the
                // delegating peer).
                self.fill(s, out, Vec::new())?;
                Ok(())
            }
            Cont::SendNodes { addrs, out } => {
                self.record_def(4, peer, "send-nodes");
                let forest = input.into_iter().next().unwrap_or_default();
                let gate = self.deliver_to_nodes(s, peer, &addrs, &forest)?;
                self.register_pending(s, gate, peer, Cont::Discard { out })?;
                Ok(())
            }
            Cont::SendNewDoc {
                peer: dest,
                name,
                out,
            } => {
                self.record_def(3, peer, "send-newdoc");
                let forest = input.into_iter().next().unwrap_or_default();
                if dest != peer {
                    let gate = s.new_slot(1);
                    let payload = Self::serialize_forest(&forest);
                    self.send_wire(
                        s,
                        peer,
                        dest,
                        AxmlMessage::InstallDoc {
                            name: name.clone(),
                            payload,
                        },
                        Intent::InstallDoc {
                            name,
                            forest,
                            notify: (gate, 0),
                        },
                    )?;
                    self.register_pending(s, gate, peer, Cont::Discard { out })?;
                } else {
                    self.install_new_doc(dest, &name, &forest)?;
                    self.fill(s, out, Vec::new())?;
                }
                Ok(())
            }
            Cont::TreeFinish {
                mut tree,
                grafts,
                out,
            } => {
                for (i, parent) in grafts.iter().enumerate() {
                    if let Some(p) = parent {
                        for r in &input[i] {
                            tree.graft(*p, r, r.root())?;
                        }
                    }
                }
                self.fill(s, out, vec![tree])?;
                Ok(())
            }
            Cont::SeqStep { mut rest, out } => {
                match rest.pop_front() {
                    None => {
                        let last = input.into_iter().next().unwrap_or_default();
                        self.fill(s, out, last)?;
                    }
                    Some(next) => {
                        let slot = s.new_slot(1);
                        self.schedule(
                            s,
                            Runnable::Eval {
                                at: peer,
                                expr: next,
                                out: (slot, 0),
                            },
                        );
                        self.register_pending(s, slot, peer, Cont::SeqStep { rest, out })?;
                    }
                }
                Ok(())
            }
            Cont::ReplyData {
                reply_to,
                tag,
                remote_out,
            } => {
                let forest = input.into_iter().next().unwrap_or_default();
                if reply_to != peer {
                    let payload = Self::serialize_forest(&forest);
                    self.send_wire(
                        s,
                        peer,
                        reply_to,
                        AxmlMessage::Data { payload, tag },
                        Intent::Reply {
                            forest,
                            out: remote_out,
                        },
                    )?;
                } else {
                    self.fill(s, remote_out, forest)?;
                }
                Ok(())
            }
            Cont::Discard { out } => {
                self.fill(s, out, Vec::new())?;
                Ok(())
            }
        }
    }

    /// Definition (9) for `d@any`, with optional replica failover: pick
    /// a replica, try to reach it, and — when failover is enabled — on
    /// an unreachable provider (down link even after retries, retry
    /// budget exhausted) exclude it and re-pick among the remaining
    /// *live* replicas. With failover disabled this is the plain
    /// single-pick behavior.
    fn fetch_doc_any(
        &mut self,
        s: &mut EvalSession,
        at: PeerId,
        name: DocName,
        out: Out,
    ) -> CoreResult<()> {
        let mut excluded: Vec<PeerId> = Vec::new();
        let mut last_err: Option<CoreError> = None;
        loop {
            self.record_def(9, at, "pickDoc");
            let policy = self.pick_policy;
            // The first pick is blind (a peer only discovers a dead
            // replica by timing out on it); re-picks after a failover
            // exclude the dead and filter to currently-live members.
            let picked = if excluded.is_empty() {
                self.catalog.pick_doc(policy, at, &name, &*self.net)
            } else {
                self.catalog
                    .pick_doc_excluding(policy, at, &name, &*self.net, &excluded)
            };
            let (home, concrete) = match picked {
                Ok(pick) => pick,
                // Every replica excluded or dead: surface why we got
                // here, not the bare empty-class error.
                Err(e) => return Err(last_err.unwrap_or(e)),
            };
            if home == at {
                self.record_def(1, at, "doc");
                let tree = self.peers[at.index()].doc(&concrete, at)?.clone();
                self.fill(s, out, vec![tree])?;
                return Ok(());
            }
            let attempt = self.fetch_remote(
                s,
                at,
                home,
                Expr::Doc {
                    name: concrete,
                    at: PeerRef::At(home),
                },
                out,
            );
            match attempt {
                Ok(()) => return Ok(()),
                Err(e) if self.failover && unreachable_provider(&e) => {
                    excluded.push(home);
                    self.note_failover(at, name.as_str(), home);
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Count and trace one failover decision: `class@any` at `peer`
    /// abandons the unreachable replica `dead`.
    fn note_failover(&mut self, peer: PeerId, class: &str, dead: PeerId) {
        self.obs.metrics.failovers += 1;
        let now = self.net.now_ms();
        let class = class.to_string();
        self.obs.emit(|| TraceEvent::Failover {
            peer,
            class,
            dead,
            at_ms: now,
        });
    }

    /// Definition (5): `eval@at(x@loc)` for remote `x` — ship a request
    /// that *names* the datum (a literal `t@loc` is identified by
    /// reference, as the paper's `n@p` identifiers would, so fetching a
    /// tree never ships the tree's own bytes in the request direction);
    /// the owner evaluates and ships the result back.
    fn fetch_remote(
        &mut self,
        s: &mut EvalSession,
        at: PeerId,
        loc: PeerId,
        expr: Expr,
        out: Out,
    ) -> CoreResult<()> {
        self.record_def(5, at, "fetch");
        let request_xml = match &expr {
            Expr::Tree { tree, .. } => format!(
                r#"<fetch kind="tree" at="p{}" ref="{:016x}"/>"#,
                loc.0,
                axml_xml::equiv::canonical_hash(tree, tree.root())
            ),
            other => {
                let mut xml = String::new();
                other.write_wire(&mut xml);
                xml
            }
        };
        let mut local = expr;
        relocate(&mut local, loc);
        self.send_wire(
            s,
            at,
            loc,
            AxmlMessage::Request {
                expr_xml: request_xml,
            },
            Intent::EvalAndReply {
                expr: local,
                reply_to: at,
                tag: DataTag::Fetch,
                out,
            },
        )
    }

    /// Definition (1) + (6): copy a tree, activating its immediate `sc`
    /// elements concurrently. Results with an explicit forward list
    /// leave side effects elsewhere; calls without one accumulate as
    /// siblings of the `sc` node (§2.2 step 3), with the `sc` kept in
    /// place (AXML semantics — the call may stream more later).
    fn materialize_tree_tasks(
        &mut self,
        s: &mut EvalSession,
        at: PeerId,
        tree: &Tree,
        out: Out,
    ) -> CoreResult<()> {
        let copy = tree.clone();
        let mut active = Vec::new();
        for sc_id in ScNode::find_all(&copy, copy.root()) {
            let sc = ScNode::parse(&copy, sc_id)?;
            if sc.mode != ActivationMode::Immediate {
                continue;
            }
            let parent = if sc.forward.is_empty() {
                Some(
                    copy.parent(sc_id)
                        .ok_or_else(|| CoreError::Malformed("sc at document root".into()))?,
                )
            } else {
                None
            };
            active.push((sc, parent));
        }
        if active.is_empty() {
            self.fill(s, out, vec![copy])?;
            return Ok(());
        }
        let slot = s.new_slot(active.len());
        let mut grafts = Vec::with_capacity(active.len());
        for (i, (sc, parent)) in active.into_iter().enumerate() {
            grafts.push(parent);
            let params: Vec<Vec<Tree>> = sc.params.iter().map(|p| vec![p.clone()]).collect();
            self.start_service_call(
                s,
                ScCall {
                    caller: at,
                    provider: sc.provider,
                    service: &sc.service,
                    param_forests: params,
                    forward: &sc.forward,
                },
                (slot, i),
            )?;
        }
        self.register_pending(
            s,
            slot,
            at,
            Cont::TreeFinish {
                tree: copy,
                grafts,
                out,
            },
        )?;
        Ok(())
    }

    /// §2.2's activation steps 1–3 / definition (6), as engine tasks:
    /// resolve the provider, ship the parameters, and let the `Invoke`
    /// intent run the service on arrival.
    fn start_service_call(
        &mut self,
        s: &mut EvalSession,
        call: ScCall<'_>,
        out: Out,
    ) -> CoreResult<()> {
        let ScCall {
            caller,
            provider,
            service,
            param_forests,
            forward,
        } = call;
        let class = match provider {
            ScProvider::Peer(p) => {
                let concrete = service.clone();
                return self.dispatch_service_call(
                    s,
                    caller,
                    p,
                    concrete,
                    param_forests,
                    forward,
                    out,
                );
            }
            ScProvider::Any => service,
        };
        // Definition (9) + failover: pick, dispatch, and on an
        // unreachable provider exclude it and re-pick among the live
        // members (params are re-shipped to the new provider).
        let mut excluded: Vec<PeerId> = Vec::new();
        let mut last_err: Option<CoreError> = None;
        loop {
            self.record_def(9, caller, "pickService");
            let policy = self.pick_policy;
            // First pick blind, re-picks exclude the dead and filter to
            // live members — see `fetch_doc_any`.
            let picked = if excluded.is_empty() {
                self.catalog.pick_service(policy, caller, class, &*self.net)
            } else {
                self.catalog
                    .pick_service_excluding(policy, caller, class, &*self.net, &excluded)
            };
            let (prov, concrete) = match picked {
                Ok(pick) => pick,
                Err(e) => return Err(last_err.unwrap_or(e)),
            };
            let attempt = self.dispatch_service_call(
                s,
                caller,
                prov,
                concrete,
                param_forests.clone(),
                forward,
                out,
            );
            match attempt {
                Ok(()) => return Ok(()),
                Err(e) if self.failover && unreachable_provider(&e) => {
                    excluded.push(prov);
                    self.note_failover(caller, class.as_str(), prov);
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The resolved-provider half of definition (6): charge the call,
    /// ship the parameters (or run locally when the provider is the
    /// caller).
    #[allow(clippy::too_many_arguments)]
    fn dispatch_service_call(
        &mut self,
        s: &mut EvalSession,
        caller: PeerId,
        prov: PeerId,
        concrete: ServiceName,
        param_forests: Vec<Vec<Tree>>,
        forward: &[NodeAddr],
        out: Out,
    ) -> CoreResult<()> {
        self.check_peer(prov)?;
        self.record_def(6, caller, "sc");
        self.obs.metrics.service_calls += 1;
        let call_id = self.fresh_call_id();
        let now = self.now_ms();
        self.obs.emit(|| TraceEvent::ServiceCall {
            caller,
            provider: prov,
            service: concrete.as_str().to_string(),
            call_id,
            at_ms: now,
        });
        // Step 1: params to the provider (the service runs on arrival —
        // a missing service or arity clash is still charged the invoke,
        // exactly as a real provider would reject after receiving).
        if prov != caller {
            self.send_wire(
                s,
                caller,
                prov,
                AxmlMessage::Invoke {
                    service: concrete.clone(),
                    params: param_forests
                        .iter()
                        .map(|f| Self::serialize_forest(f))
                        .collect(),
                    forward: forward.to_vec(),
                    call_id,
                },
                Intent::Invoke {
                    caller,
                    service: concrete,
                    params: param_forests,
                    forward: forward.to_vec(),
                    call_id,
                    out,
                },
            )
        } else {
            self.run_service_at(
                s,
                prov,
                caller,
                &concrete,
                param_forests,
                forward,
                call_id,
                out,
            )
        }
    }

    /// The provider-side evaluation of one service call: results plus
    /// (when the call must be answered over the wire) the serialized
    /// response payload, from the session memo (see
    /// [`AxmlSystem::memo_call`]). The parameter count must match the
    /// service's arity exactly.
    fn service_results(
        &mut self,
        s: &mut EvalSession,
        prov: PeerId,
        service: &ServiceName,
        params: &[Vec<Tree>],
        need_payload: bool,
    ) -> CoreResult<(Vec<Tree>, Option<String>)> {
        let call = self.memo_call(s, prov, service, params, true)?;
        if need_payload && call.payload.is_none() {
            call.payload = Some(Self::serialize_forest(&call.results));
        }
        Ok((call.results.clone(), call.payload.clone()))
    }

    /// Request collapsing: the results of `service@prov(params)` over the
    /// provider's current state. A call identical to an earlier one in
    /// the session, with the provider's state epoch unchanged, is
    /// answered from that call's memo entry (counted in
    /// [`AxmlSystem::collapsed_calls`]); anything else is evaluated and
    /// memoized. One-shot calls and subscription pumps share the memo.
    /// With `exact_arity`, a parameter count other than the service's
    /// arity is refused before any evaluation; a hit checks it against
    /// the arity recorded in the entry, so it needs no service lookup.
    pub(crate) fn memo_call<'s>(
        &mut self,
        s: &'s mut EvalSession,
        prov: PeerId,
        service: &ServiceName,
        params: &[Vec<Tree>],
        exact_arity: bool,
    ) -> CoreResult<&'s mut CachedCall> {
        let check = |arity: usize| {
            if exact_arity && arity != params.len() {
                return Err(CoreError::Query(axml_query::QueryError::ArityMismatch {
                    expected: arity,
                    got: params.len(),
                }));
            }
            Ok(())
        };
        let epoch = self.state_epochs[prov.index()];
        let key = (prov, service.clone(), params_key(params));
        match s.svc_cache.entry(key) {
            Entry::Occupied(hit) if hit.get().epoch == epoch => {
                check(hit.get().arity)?;
                self.collapsed_calls += 1;
                Ok(hit.into_mut())
            }
            entry => {
                let peer = &self.peers[prov.index()];
                let svc = peer.service(service, prov)?;
                check(svc.arity())?;
                let call = CachedCall {
                    epoch,
                    arity: svc.arity(),
                    results: svc.query.eval_with_docs(params, peer)?,
                    payload: None,
                    canons: None,
                };
                Ok(match entry {
                    Entry::Occupied(mut stale) => {
                        stale.insert(call);
                        stale.into_mut()
                    }
                    Entry::Vacant(v) => v.insert(call),
                })
            }
        }
    }

    /// §2.2 steps 2–3 at the provider: apply the implementation query,
    /// then ship results back (or to the forward list).
    #[allow(clippy::too_many_arguments)]
    fn run_service_at(
        &mut self,
        s: &mut EvalSession,
        prov: PeerId,
        caller: PeerId,
        service: &ServiceName,
        params: Vec<Vec<Tree>>,
        forward: &[NodeAddr],
        call_id: u64,
        out: Out,
    ) -> CoreResult<()> {
        let need_payload = forward.is_empty() && prov != caller;
        let (results, payload) = self.service_results(s, prov, service, &params, need_payload)?;
        if forward.is_empty() {
            if prov != caller {
                let payload = payload.unwrap_or_else(|| Self::serialize_forest(&results));
                self.send_wire(
                    s,
                    prov,
                    caller,
                    AxmlMessage::Response { call_id, payload },
                    Intent::Reply {
                        forest: results,
                        out,
                    },
                )
            } else {
                self.fill(s, out, results)?;
                Ok(())
            }
        } else {
            let gate = self.deliver_to_nodes(s, prov, forward, &results)?;
            self.register_pending(s, gate, prov, Cont::Discard { out })?;
            Ok(())
        }
    }

    /// The engine form of [`AxmlSystem::call_service`]'s old synchronous
    /// contract: run one service call in its own session and block until
    /// the result materializes (used by lazy/type-driven activation).
    pub(crate) fn call_service(
        &mut self,
        caller: PeerId,
        provider: ScProvider,
        service: &ServiceName,
        param_forests: Vec<Vec<Tree>>,
        forward: &[NodeAddr],
    ) -> CoreResult<Vec<Tree>> {
        let mut s = self.new_session();
        let slot = s.new_slot(1);
        match self.start_service_call(
            &mut s,
            ScCall {
                caller,
                provider,
                service,
                param_forests,
                forward,
            },
            (slot, 0),
        ) {
            Ok(()) => {
                self.run_session(&mut s)?;
                Ok(s.take(slot)?)
            }
            Err(e) => {
                self.net.clear_in_flight();
                Err(e)
            }
        }
    }

    /// Definition (4): one concurrent delivery per `n@p` address.
    /// Returns the gate slot that becomes ready once every graft landed.
    pub(crate) fn deliver_to_nodes(
        &mut self,
        s: &mut EvalSession,
        from: PeerId,
        addrs: &[NodeAddr],
        forest: &[Tree],
    ) -> CoreResult<usize> {
        let gate = s.new_slot(addrs.len());
        for (i, addr) in addrs.iter().enumerate() {
            self.check_peer(addr.peer)?;
            if addr.peer != from {
                self.send_wire(
                    s,
                    from,
                    addr.peer,
                    AxmlMessage::Data {
                        payload: Self::serialize_forest(forest),
                        tag: DataTag::Forward,
                    },
                    Intent::Graft {
                        addr: addr.clone(),
                        forest: forest.to_vec(),
                        notify: Some((gate, i)),
                    },
                )?;
            } else {
                self.graft_at(addr, forest)?;
                self.fill(s, (gate, i), Vec::new())?;
            }
        }
        Ok(gate)
    }

    /// Graft a forest under the addressed node.
    pub(crate) fn graft_at(&mut self, addr: &NodeAddr, forest: &[Tree]) -> CoreResult<()> {
        let peer = &mut self.peers[addr.peer.index()];
        let doc = peer
            .docs
            .get_mut(&addr.doc)
            .ok_or_else(|| CoreError::NoSuchDoc {
                doc: addr.doc.clone(),
                at: addr.peer,
            })?;
        let tree = doc.tree_mut();
        if !tree.contains(addr.node) {
            return Err(CoreError::Xml(axml_xml::XmlError::InvalidNode {
                index: addr.node.index() as u32,
            }));
        }
        for t in forest {
            tree.graft(addr.node, t, t.root())?;
        }
        self.touch_peer(addr.peer);
        Ok(())
    }

    fn install_new_doc(&mut self, at: PeerId, name: &DocName, forest: &[Tree]) -> CoreResult<()> {
        let mut doc = Tree::new(name.as_str());
        let root = doc.root();
        for t in forest {
            doc.graft(root, t, t.root()).expect("fresh root");
        }
        self.touch_peer(at);
        self.peers[at.index()].install_doc(Document::new(name.clone(), doc))
    }

    /// Count one firing of paper definition `def` and, when a trace sink
    /// is attached, stream the matching [`TraceEvent::Definition`].
    pub(crate) fn record_def(&mut self, def: u8, peer: PeerId, expr: &'static str) {
        self.obs.metrics.record_def(def);
        let at_ms = self.net.now_ms();
        self.obs.emit(|| TraceEvent::Definition {
            def,
            peer,
            expr: expr.into(),
            at_ms,
        });
    }
}

/// Does this error mean "the picked provider cannot be reached" — the
/// condition replica failover reacts to? Structural errors (unknown
/// peer, missing doc, malformed expression) must *not* trigger a
/// re-pick: a different replica would fail the same way or mask a bug.
fn unreachable_provider(e: &CoreError) -> bool {
    matches!(
        e,
        CoreError::Engine(EngineError::Undeliverable { .. } | EngineError::Exhausted { .. })
    )
}

/// Canonical memo key for a parameter-forest list.
fn params_key(params: &[Vec<Tree>]) -> String {
    let mut key = String::new();
    for p in params {
        key.push_str(&AxmlSystem::serialize_forest(p));
        key.push('\u{1f}');
    }
    key
}

/// Re-pin the location of the outermost data reference to `loc` (used
/// when the owner evaluates a fetched expression locally).
fn relocate(expr: &mut Expr, loc: PeerId) {
    match expr {
        Expr::Tree { at, .. } => *at = loc,
        Expr::Doc { at, .. } => *at = PeerRef::At(loc),
        _ => {}
    }
}
