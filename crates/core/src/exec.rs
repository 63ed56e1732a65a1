//! The execution thread: transaction logic only, no lock metadata.
//!
//! "Execution threads do not contain instructions nor data pertaining to
//! concurrency control; they are only responsible for performing each
//! transaction's logic" (Section 3.1). Each thread multiplexes a slab of
//! in-flight transactions: after sending a lock request it does not wait —
//! it handles responses for older transactions or starts new ones
//! (Section 3.3's asynchrony).
//!
//! **Which** transaction enters next is not this thread's decision: the
//! admission loop pulls *runs* from a per-thread [`Admitter`] (see
//! [`crate::admit`]), which generates, plans, and — under the
//! `ConflictBatch` policy — groups same-conflict-class transactions
//! back-to-back before they ever occupy an in-flight slot. A multi-
//! transaction run is serialized locally: one fused lock acquisition over
//! the union footprint, back-to-back execution, one release round. The
//! plans produced at admission ride the slot to execution; only OLLP
//! retries re-plan.
//!
//! Figure-10 accounting on this thread: `Execution` = running transaction
//! logic; `Locking` = admission (generation + planning), building lock
//! plans, sending/receiving lock messages; `Waiting` = idle polls with
//! nothing runnable.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use orthrus_common::runtime::RunCtl;
use orthrus_common::{Backoff, Phase, PhaseTimer, ThreadStats};
use orthrus_durability::{CommandLog, LoggedCommit};
use orthrus_spsc::{FanIn, Producer};
use orthrus_txn::{execute_planned, AbortKind, AccessSet, Database};

use crate::admit::{Admitted, Admitter};
use crate::config::OrthrusConfig;
use crate::msg::{CcRequest, ExecResponse, Token};
use crate::plan::LockPlan;
use crate::source::{Completion, TxnSource};

/// One in-flight lock acquisition: a *run* of same-conflict-class
/// transactions serialized locally under a single fused lock plan. FIFO
/// admission always produces runs of one (the seed's shape); conflict-
/// batched admission fuses up to `batch` same-class transactions into one
/// acquire/release round — the hot-key convoy pays one fabric round trip
/// per run instead of one per transaction. Each [`Admitted`] carries the
/// plan produced at admission (reused through execution — no
/// re-planning) and its admission timestamp (commit latency spans
/// run-queue wait, lock wait, and OLLP retries).
struct Inflight {
    txns: Vec<Admitted>,
    /// Fused lock plan covering the union of the run's footprints.
    lock_plan: Arc<LockPlan>,
    /// Token generation of the current acquire chain (see [`Token`]):
    /// fresh per run *and* per OLLP retry, so CC threads never confuse a
    /// successor's early-arriving forwarded acquire with a double-acquire
    /// by the predecessor whose releases are still in flight.
    gen: u32,
    /// OLLP mismatches from this run awaiting standalone retry (rare):
    /// retried one at a time on this slot after the fused release.
    retries: Vec<Admitted>,
}

/// One execution thread's state and endpoints.
pub struct ExecThread<'a, S: TxnSource> {
    exec_id: u16,
    db: &'a Database,
    cfg: &'a OrthrusConfig,
    to_cc: Vec<Producer<CcRequest>>,
    from_cc: FanIn<ExecResponse>,
    slots: Vec<Option<Inflight>>,
    free: Vec<u16>,
    inflight: usize,
    /// The pluggable admission layer: transaction source + planning + any
    /// conflict-class run queues.
    admit: Admitter<S>,
    /// Completion ring back to the client side (service mode): every
    /// ticketed commit reports its submit→commit latency here. `None` in
    /// closed-loop (synthetic) runs.
    completions: Option<Producer<Completion>>,
    /// The engine's command log (durability on): one record per fused
    /// run, appended **while the run's locks are still held** — see
    /// [`Self::on_response`] for the ordering contract. `None` when
    /// durability is off.
    log: Option<Arc<CommandLog>>,
    /// Committed programs of the current run awaiting their group-commit
    /// append (reused across runs; empty whenever `log` is `None`).
    log_batch: Vec<LoggedCommit>,
    /// The current run's commits awaiting latency stamping and (for
    /// ticketed work) completion delivery. Latency is stamped — and the
    /// completion released — only after the run's group-commit append
    /// (and fsync, under `log+fsync`), so commit latency includes the
    /// durability wait ("true commit latency").
    commit_batch: Vec<(Option<crate::source::Ticket>, std::time::Instant)>,
    /// Group-sync mode (`log+fsync` with a sync coordinator): `true`
    /// when appends publish a watermark instead of fsyncing inline, and
    /// completions gate on [`orthrus_durability::SyncState::synced`].
    group_sync: bool,
    /// Commits appended but not yet covered by the coordinator's synced
    /// watermark, FIFO in LSN order: `(ticket, started, appended_at,
    /// lsn)`. Released by [`Self::release_durable`] each quantum once
    /// `lsn <= synced`; `appended_at → release` is the fsync wait.
    pending_durable: std::collections::VecDeque<(
        Option<crate::source::Ticket>,
        std::time::Instant,
        std::time::Instant,
        u64,
    )>,
    /// Completions that did not fit the ring because the client lagged.
    /// The engine **never blocks** on completion delivery — a blocking
    /// push could wedge the whole engine against a client stuck in a
    /// backpressured `submit` (each blocked on the other) — so overflow
    /// parks here and re-flushes every quantum, FIFO order preserved.
    /// Memory is proportional to how far the client's draining lags its
    /// submitting, and tickets are never dropped.
    completion_overflow: Vec<Completion>,
    /// Set once a stop request lands on a drain-on-stop (client) source:
    /// the shutdown drain can be ingest-ring-deep, and its commits fall
    /// *after* the measured window closes, so they must not count toward
    /// windowed throughput/latency (they still complete tickets and
    /// bump the lifetime counter). The closed-loop drain tail (bounded
    /// by `max_inflight`, present in the seed too) stays counted —
    /// message-economics ratios are pinned against it.
    post_stop: bool,
    stats: ThreadStats,
    /// Round-robin CC choice for `CcMode::SharedTable`.
    next_cc: u32,
    /// Wrapping token-generation counter (see [`Inflight::gen`]).
    next_token_gen: u32,
    /// Per-destination send buffers: requests accumulated during one
    /// scheduling quantum, flushed as a slice (one atomic publish per
    /// destination). With `flush_threshold == 1` every send flushes
    /// immediately — the seed's message-per-message behaviour.
    send_buf: Vec<Vec<CcRequest>>,
    /// Responses staged by the fan-in drain (reused across iterations).
    resp_buf: Vec<ExecResponse>,
}

impl<'a, S: TxnSource> ExecThread<'a, S> {
    pub fn new(
        exec_id: u16,
        db: &'a Database,
        cfg: &'a OrthrusConfig,
        to_cc: Vec<Producer<CcRequest>>,
        from_cc: FanIn<ExecResponse>,
        admit: Admitter<S>,
    ) -> Self {
        let cap = cfg.max_inflight.max(1);
        let n_cc = to_cc.len();
        let flush = cfg.effective_flush_threshold();
        ExecThread {
            exec_id,
            db,
            cfg,
            to_cc,
            from_cc,
            slots: (0..cap).map(|_| None).collect(),
            free: (0..cap as u16).rev().collect(),
            inflight: 0,
            admit,
            completions: None,
            log: None,
            log_batch: Vec::new(),
            commit_batch: Vec::new(),
            group_sync: false,
            pending_durable: std::collections::VecDeque::new(),
            completion_overflow: Vec::new(),
            post_stop: false,
            stats: ThreadStats::default(),
            next_cc: exec_id as u32,
            next_token_gen: 0,
            send_buf: (0..n_cc).map(|_| Vec::with_capacity(flush)).collect(),
            resp_buf: Vec::with_capacity(cap),
        }
    }

    /// Attach the completion ring (service mode): ticketed commits are
    /// reported back to the client through it.
    pub fn with_completions(mut self, ring: Producer<Completion>) -> Self {
        self.completions = Some(ring);
        self
    }

    /// Attach the engine's command log (durability on): every committed
    /// run appends one record before its locks and completions release.
    pub fn with_log(mut self, log: Option<Arc<CommandLog>>) -> Self {
        self.group_sync = log.as_ref().is_some_and(|l| l.group_sync());
        self.log = log;
        self
    }

    /// Release every pending commit the coordinator's synced watermark
    /// now covers (group-sync mode only): stamp its latency and fsync
    /// wait, then hand the ticketed ones to the client. Returns how many
    /// were released.
    ///
    /// # Panics
    /// When the coordinator's fsync failed: these commits already
    /// executed, and this thread has no way to un-execute them — the
    /// broken durability contract surfaces as
    /// [`crate::EngineError::WorkerPanicked`] at shutdown.
    fn release_durable(&mut self) -> usize {
        if self.pending_durable.is_empty() {
            return 0;
        }
        let st = self.log.as_ref().expect("pending implies log").sync_state();
        if st.is_failed() {
            panic!(
                "group fsync failed; {} commits lost durability",
                self.pending_durable.len()
            );
        }
        let synced = st.synced();
        let mut released = 0;
        while let Some(&(_, _, _, lsn)) = self.pending_durable.front() {
            if lsn > synced {
                break;
            }
            let (ticket, started, appended_at, _) =
                self.pending_durable.pop_front().expect("front checked");
            let latency_ns = started.elapsed().as_nanos() as u64;
            if !self.post_stop {
                self.stats.committed += 1;
                self.stats.latency.record(latency_ns);
                self.stats
                    .log_fsync_wait
                    .record(appended_at.elapsed().as_nanos() as u64);
            }
            if let Some(ticket) = ticket {
                self.deliver_completion(Completion { ticket, latency_ns });
            }
            released += 1;
        }
        released
    }

    /// Stage a request for `cc`, flushing the destination's buffer as one
    /// slice once it reaches the batching threshold.
    #[inline]
    fn send(&mut self, cc: usize, req: CcRequest) {
        self.send_buf[cc].push(req);
        self.stats.messages_sent += 1;
        if self.send_buf[cc].len() >= self.cfg.effective_flush_threshold() {
            self.to_cc[cc].push_slice(&mut self.send_buf[cc]);
        }
    }

    /// Hand a ticketed commit's completion to the client, parking it in
    /// the overflow buffer if the ring is full (never blocks; see
    /// [`Self::completion_overflow`]).
    #[inline]
    fn deliver_completion(&mut self, completion: Completion) {
        let Some(ring) = self.completions.as_mut() else {
            return;
        };
        if !self.completion_overflow.is_empty() || ring.try_push(completion).is_err() {
            self.completion_overflow.push(completion);
        }
    }

    /// Re-flush parked completions into the ring as the client drains
    /// (one slice publish per attempt; cheap no-op when nothing parked).
    fn flush_completions(&mut self) {
        let Some(ring) = self.completions.as_mut() else {
            return;
        };
        while !self.completion_overflow.is_empty() {
            if ring.try_push_slice(&mut self.completion_overflow) == 0 {
                break;
            }
        }
    }

    /// Publish every staged request. Called before the thread polls or
    /// parks, so batching never holds a message across an idle quantum.
    fn flush_sends(&mut self) {
        for (cc, buf) in self.send_buf.iter_mut().enumerate() {
            if !buf.is_empty() {
                self.to_cc[cc].push_slice(buf);
            }
        }
    }

    /// A fresh token generation for a new acquire chain.
    fn fresh_gen(&mut self) -> u32 {
        let g = self.next_token_gen;
        self.next_token_gen = self.next_token_gen.wrapping_add(1);
        g
    }

    /// Build the lock plan under the configured CC architecture: grouped
    /// per owning CC thread (partitioned), or one span bound to a
    /// round-robin-chosen CC thread (Section 3.4 shared table).
    fn build_lock_plan(&mut self, accesses: &AccessSet) -> Arc<LockPlan> {
        let (cfg, db) = (self.cfg, self.db);
        match cfg.cc_mode {
            crate::config::CcMode::Partitioned => {
                Arc::new(LockPlan::build(accesses, |k| cfg.cc_of(db, k)))
            }
            crate::config::CcMode::SharedTable => {
                let pick = self.next_cc % cfg.n_cc as u32;
                self.next_cc = self.next_cc.wrapping_add(1);
                Arc::new(LockPlan::build(accesses, |_| pick))
            }
        }
    }

    /// Main loop: run until stopped *and* every in-flight transaction has
    /// drained, then decrement `active_execs` (CC threads exit once it
    /// reaches zero and their queues are dry).
    ///
    /// The stop contract depends on the source
    /// ([`TxnSource::drain_on_stop`]): synthetic sources stop admitting
    /// at the stop request (the seed's wind-down); client sources keep
    /// admitting until the ingest ring and any admission backlog are
    /// **dry** — every accepted ticket completes, even the ones still
    /// queued when shutdown began.
    pub fn run(mut self, ctl: &RunCtl, active_execs: &AtomicUsize) -> ThreadStats {
        // Decrement on every exit path, unwinding included: a panicking
        // exec thread must not leave CC threads waiting forever on an
        // `active_execs` count that can no longer reach zero. The same
        // unwind also raises `RunCtl::mark_failed` so a CC thread blocked
        // pushing grants into this (now consumer-less) thread's ring can
        // discard and exit instead of spinning forever.
        struct ActiveGuard<'g>(&'g AtomicUsize, &'g RunCtl);
        impl Drop for ActiveGuard<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.1.mark_failed();
                }
                self.0.fetch_sub(1, Ordering::AcqRel);
            }
        }
        let _active = ActiveGuard(active_execs, ctl);
        let mut timer = PhaseTimer::start(Phase::Locking);
        let mut backoff = Backoff::new();
        let mut in_window = false;
        // One quantum per iteration: drain grant batches, admit up to the
        // in-flight cap, then flush every staged request as slices.
        let drain_budget = self.cfg.max_inflight.max(1);
        loop {
            if !in_window && ctl.is_measuring() {
                self.stats.reset_window();
                timer = PhaseTimer::start(Phase::Locking);
                in_window = true;
            }
            if !self.post_stop && ctl.is_stopped() && self.admit.drain_on_stop() {
                self.post_stop = true;
            }
            let mut progress = false;
            loop {
                let mut resp_buf = std::mem::take(&mut self.resp_buf);
                let drained = self.from_cc.drain_round(&mut resp_buf, drain_budget);
                for resp in resp_buf.drain(..) {
                    self.on_response(resp, &mut timer);
                }
                self.resp_buf = resp_buf;
                if drained == 0 {
                    break;
                }
                progress = true;
            }
            let stopped = ctl.is_stopped();
            let draining = stopped && self.admit.drain_on_stop();
            if !stopped || (draining && self.admit.has_backlog()) {
                while self.inflight < self.cfg.max_inflight && self.start_run(&mut timer) {
                    progress = true;
                }
            }
            // Durable-release pass: commits whose covering group fsync
            // landed since the last quantum become client-visible now.
            progress |= self.release_durable() > 0;
            self.flush_completions();
            if stopped
                && self.inflight == 0
                && !(self.admit.drain_on_stop() && self.admit.has_backlog())
                && self.completion_overflow.is_empty()
                && self.pending_durable.is_empty()
            {
                // The last commits' releases may still be staged. Parked
                // completions hold the thread alive until the shutdown
                // drain makes room — every ticket is delivered.
                self.flush_sends();
                break;
            }
            // Publish the quantum's sends before polling again or parking:
            // responses can only arrive for flushed requests.
            self.flush_sends();
            if progress {
                backoff.reset();
            } else {
                timer.switch(&mut self.stats, Phase::Waiting);
                backoff.snooze();
            }
        }
        debug_assert!(self.send_buf.iter().all(|b| b.is_empty()));
        timer.finish(&mut self.stats);
        // Lifetime counter (like `committed_all`): how often adaptive
        // admission switched policy over the whole run.
        self.stats.admission_switches = self.admit.switches();
        self.stats
    }

    /// Admit the next run and fire its first lock request. The admission
    /// policy decides *which* transactions those are and hands over the
    /// plans it produced — no re-planning here. A run of several
    /// same-class transactions acquires the union of its footprints in
    /// one round and executes back-to-back under it (local
    /// serialization). Returns `false` when the source had nothing to
    /// admit (client ingest ring dry) — the caller parks instead of
    /// spinning.
    fn start_run(&mut self, timer: &mut PhaseTimer) -> bool {
        timer.switch(&mut self.stats, Phase::Locking);
        let headroom = (self.cfg.max_inflight - self.inflight).max(1);
        let run = self.admit.next_run(self.db, headroom);
        if run.is_empty() {
            return false;
        }
        let accesses: AccessSet;
        let fused = match run.as_slice() {
            [single] => &single.plan.accesses,
            many => {
                accesses = AccessSet::from_unsorted(
                    many.iter()
                        .flat_map(|a| a.plan.accesses.entries().iter().copied())
                        .collect(),
                );
                &accesses
            }
        };
        let lock_plan = self.build_lock_plan(fused);
        debug_assert!(!lock_plan.is_empty(), "programs always lock something");

        let slot = self.free.pop().expect("inflight cap exceeded");
        let gen = self.fresh_gen();
        self.inflight += run.len();
        self.slots[slot as usize] = Some(Inflight {
            txns: run,
            lock_plan: Arc::clone(&lock_plan),
            gen,
            retries: Vec::new(),
        });
        self.send_acquire(&lock_plan, slot, gen, 0);
        true
    }

    fn send_acquire(&mut self, lock_plan: &Arc<LockPlan>, slot: u16, gen: u32, span_idx: u16) {
        let cc = lock_plan.spans()[span_idx as usize].cc;
        self.send(
            cc as usize,
            CcRequest::Acquire {
                token: Token {
                    exec: self.exec_id,
                    slot,
                    gen,
                },
                plan: Arc::clone(lock_plan),
                span_idx,
                forward: self.cfg.forwarding,
                waiters: 0,
            },
        );
    }

    fn send_releases(&mut self, lock_plan: &Arc<LockPlan>, slot: u16, gen: u32) {
        for i in 0..lock_plan.spans().len() {
            let cc = lock_plan.spans()[i].cc;
            self.send(
                cc as usize,
                CcRequest::Release {
                    token: Token {
                        exec: self.exec_id,
                        slot,
                        gen,
                    },
                    plan: Arc::clone(lock_plan),
                    span_idx: i as u16,
                },
            );
        }
    }

    fn on_response(&mut self, resp: ExecResponse, timer: &mut PhaseTimer) {
        let ExecResponse::Granted {
            slot,
            span_idx,
            waiters,
        } = resp;
        // The grant's deferral count is the contention signal: fold it
        // into the admission epoch counters (a pinned controller ignores
        // it) and the run stats. Without forwarding each span reports its own
        // share, so summing per-grant stays correct in both modes.
        self.admit.note_lock_waits(waiters);
        self.stats.lock_waits += waiters as u64;
        // Without forwarding, the execution thread mediates each span
        // itself: 2·Ncc message delays (Section 3.3's unoptimized mode).
        if !self.cfg.forwarding {
            let next = span_idx as usize + 1;
            let lock_plan = {
                let inf = self.slots[slot as usize]
                    .as_ref()
                    .expect("grant for free slot");
                if next < inf.lock_plan.spans().len() {
                    Some((Arc::clone(&inf.lock_plan), inf.gen))
                } else {
                    None
                }
            };
            if let Some((lp, gen)) = lock_plan {
                timer.switch(&mut self.stats, Phase::Locking);
                self.send_acquire(&lp, slot, gen, next as u16);
                return;
            }
        }

        // All locks held: run the whole run back-to-back (local
        // serialization — one acquire/release round for every
        // transaction in it).
        let mut inf = self.slots[slot as usize]
            .take()
            .expect("grant for free slot");
        timer.switch(&mut self.stats, Phase::Execution);
        for txn in inf.txns.drain(..) {
            match execute_planned(&txn.program, self.db, &txn.plan) {
                Ok(v) => {
                    std::hint::black_box(v);
                    self.stats.committed_all += 1;
                    self.commit_batch.push((txn.ticket, txn.started));
                    if self.log.is_some() {
                        // Command logging: the program *is* the record
                        // (effects are replayed, not stored).
                        self.log_batch.push(LoggedCommit {
                            ticket: txn.ticket.map(|t| t.0),
                            program: txn.program,
                        });
                    }
                    self.inflight -= 1;
                }
                Err(AbortKind::OllpMismatch) => {
                    // The estimate was wrong (Section 3.2); the rest of
                    // the run is unaffected. Queue the mismatch for a
                    // standalone retry after the fused release.
                    self.stats.aborts_ollp += 1;
                    inf.retries.push(txn);
                }
                Err(other) => unreachable!("planned execution abort: {other:?}"),
            }
        }
        timer.switch(&mut self.stats, Phase::Locking);
        // Group commit, ordered for crash consistency: the run's record
        // is appended (and, in `log+fsync` mode, made durable) while the
        // run's locks are still held and before any completion releases.
        // Holding the locks across the append makes the log order
        // conflict-consistent — a conflicting successor cannot execute,
        // let alone log, until our releases land; gating the completions
        // makes "client saw it commit" imply "record covers it".
        let mut append_lsn = 0u64;
        if let Some(log) = &self.log {
            if !self.log_batch.is_empty() {
                // Panic on failure: the durability contract for these
                // already-executed commits just broke, and this thread
                // has no way to un-execute them. The panic surfaces as a
                // typed `EngineError::WorkerPanicked` at shutdown.
                let receipt = log
                    .append_run(&mut self.log_batch)
                    .unwrap_or_else(|e| panic!("command-log append failed: {e}"));
                append_lsn = receipt.lsn;
                // Stat counters share the `committed` window (post-stop
                // drain appends still happen — durability — but don't
                // count), so `committed / log_records` is an unbiased
                // amortization factor in both run modes.
                if !self.post_stop {
                    self.stats.log_records += 1;
                    self.stats.log_bytes += receipt.bytes;
                    self.stats.log_flushes += u64::from(receipt.synced);
                }
            }
        }
        // Commit point: stamp latency and release completions *now* —
        // after the append/fsync — so under `log+fsync` the histograms
        // carry the durability wait. FIFO runs hold one transaction, so
        // their stamping point is unchanged; a fused multi-transaction
        // run stamps every member at the run's release point, which is
        // when its completion becomes client-visible — run-mates'
        // execution time is genuinely part of that latency.
        //
        // Group-sync mode inverts the flush: the append only published a
        // watermark, so the run's completions park in `pending_durable`
        // until the coordinator's fsync covers `append_lsn` — the lock
        // releases below still go out now (the paper's early lock
        // release: successors may execute, they just can't report before
        // their own later log position syncs).
        if self.group_sync {
            let appended_at = std::time::Instant::now();
            for (ticket, started) in self.commit_batch.drain(..) {
                self.pending_durable
                    .push_back((ticket, started, appended_at, append_lsn));
            }
            self.release_durable();
        } else {
            let mut ready = std::mem::take(&mut self.commit_batch);
            for (ticket, started) in ready.drain(..) {
                let latency_ns = started.elapsed().as_nanos() as u64;
                if !self.post_stop {
                    self.stats.committed += 1;
                    self.stats.latency.record(latency_ns);
                }
                if let Some(ticket) = ticket {
                    self.deliver_completion(Completion { ticket, latency_ns });
                }
            }
            self.commit_batch = ready;
        }
        self.send_releases(&inf.lock_plan, slot, inf.gen);
        self.start_retry(inf, slot);
    }

    /// Restart the next queued OLLP mismatch on `slot`, or free the slot.
    ///
    /// Re-plan with the corrected estimate and re-acquire under a fresh
    /// token generation. The retry's direct acquire is ordered behind the
    /// releases on its own exec→CC ring; where the retry reaches a CC
    /// thread through forwarding instead, the fresh generation makes it
    /// an ordinary conflicting transaction that parks until the in-flight
    /// release drains. Mismatches are rare, so retries run one at a time
    /// (runs of one) rather than re-fusing.
    fn start_retry(&mut self, mut inf: Inflight, slot: u16) {
        let Some(txn) = inf.retries.pop() else {
            self.slots[slot as usize] = None;
            self.free.push(slot);
            return;
        };
        let plan = self.admit.replan(&txn.program, self.db);
        let lock_plan = self.build_lock_plan(&plan.accesses);
        let gen = self.fresh_gen();
        self.slots[slot as usize] = Some(Inflight {
            txns: vec![Admitted {
                program: txn.program,
                plan,
                ticket: txn.ticket,
                started: txn.started,
            }],
            lock_plan: Arc::clone(&lock_plan),
            gen,
            retries: inf.retries,
        });
        self.send_acquire(&lock_plan, slot, gen, 0);
    }
}
