//! Client sessions: the open-loop submission API.
//!
//! A [`Session`] is a cheap, cloneable handle a client (or an offered-load
//! driver) uses to push [`Program`]s into a running service-mode engine
//! ([`crate::OrthrusEngine::start`]). Submissions are routed to a
//! per-execution-thread ingest ring:
//!
//! - **by hot key** when the program exposes one
//!   ([`Program::hot_key_hint`]): all submissions contending on a key
//!   land on the same execution thread, so conflict-class admission can
//!   fuse them into single lock acquisitions exactly as it does for
//!   synthetic work;
//! - **round-robin** otherwise.
//!
//! The rings are bounded: a full ring is *backpressure*
//! ([`TrySubmitError::Full`] hands the program back), never silent loss —
//! every minted [`Ticket`] is owed a [`crate::source::Completion`].
//!
//! The producer side of each ring sits behind a mutex shared by all
//! sessions. That lock is deliberately **off the engine's hot path**: the
//! consumer side stays a pure latch-free SPSC drain on the execution
//! thread; only submitting clients contend, and only per-lane. The same
//! mutex doubles as the shutdown fence (see [`SubmitShared::close`]): a
//! submission that won the lock before close lands in the ring and will
//! be drained; one that loses sees `accepting == false` and is refused —
//! there is no window in which a ticket can be accepted yet missed by the
//! drain.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use orthrus_common::{fx_hash_u64, Backoff};
use orthrus_spsc::Producer;
use orthrus_txn::Program;
use parking_lot::Mutex;

use crate::hub::OwnerTable;
use crate::source::{Submission, Ticket};

/// Acquire a lane's producer lock without OS-blocking: under the
/// deterministic sim scheduler another enrolled submitter may be parked
/// *inside* its ring push (a schedule point) while still holding the
/// lane mutex, so a blocking `lock()` would wedge the token. Parking at
/// the sim seam keeps the handoff deterministic; outside the sim the
/// loop is the plain try-spin a short critical section tolerates.
fn lock_lane(
    lane: &Mutex<Producer<Submission>>,
) -> parking_lot::MutexGuard<'_, Producer<Submission>> {
    loop {
        if let Some(g) = lane.try_lock() {
            return g;
        }
        if !orthrus_common::sim::on_park() {
            std::thread::yield_now();
        }
    }
}

/// Why a submission was not accepted. Both variants hand the program
/// back so the caller can retry without cloning.
#[derive(Debug)]
pub enum TrySubmitError {
    /// The destination ingest ring is full — backpressure. Retry after
    /// the engine drains (or use the blocking [`Session::submit`]).
    Full(Program),
    /// The engine has begun shutting down; no new work is accepted.
    Shutdown(Program),
}

impl TrySubmitError {
    /// Recover the rejected program.
    pub fn into_program(self) -> Program {
        match self {
            TrySubmitError::Full(p) | TrySubmitError::Shutdown(p) => p,
        }
    }
}

impl std::fmt::Display for TrySubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrySubmitError::Full(_) => write!(f, "ingest ring full (backpressure)"),
            TrySubmitError::Shutdown(_) => write!(f, "engine shutting down"),
        }
    }
}

/// Outcome of a [`Session::try_submit_batch`]: which input programs were
/// accepted (with their tickets) and which were backpressured (handed
/// back for retry). Indices refer to positions in the submitted batch.
#[derive(Debug, Default)]
pub struct BatchSubmit {
    /// `(input index, ticket)` for each accepted program.
    pub accepted: Vec<(usize, Ticket)>,
    /// `(input index, program)` for each program refused by a full lane
    /// — or by shutdown, in which case `shutdown` is set.
    pub rejected: Vec<(usize, Program)>,
    /// Whether any rejection was due to the engine shutting down (a
    /// terminal condition, unlike ring-full backpressure).
    pub shutdown: bool,
}

/// Submission state shared by every session of one service-mode engine:
/// the ingest-ring producers (one per execution thread), the ticket
/// counter, and the accepting flag the shutdown fence flips.
pub(crate) struct SubmitShared {
    lanes: Vec<Mutex<Producer<Submission>>>,
    accepting: AtomicBool,
    /// Ticket-id mint, bumped only for *accepted* submissions (space is
    /// checked under the lane lock before minting), so ids are dense and
    /// the counter doubles as the conservation ledger completions are
    /// checked against.
    next_ticket: AtomicU64,
    round_robin: AtomicUsize,
    /// Ticket → client-id tags for completion fan-out
    /// ([`crate::hub::CompletionHub`]). Written under the lane lock
    /// *before* the ring push, so routing always finds the owner.
    owners: OwnerTable,
}

impl SubmitShared {
    /// One lane per execution thread; none for a closed-loop run, whose
    /// handle never hands out sessions.
    pub(crate) fn new(lanes: Vec<Producer<Submission>>) -> Self {
        SubmitShared {
            lanes: lanes.into_iter().map(Mutex::new).collect(),
            accepting: AtomicBool::new(true),
            next_ticket: AtomicU64::new(0),
            round_robin: AtomicUsize::new(0),
            owners: OwnerTable::new(),
        }
    }

    /// Submissions accepted so far (each is owed exactly one completion;
    /// backpressured or post-shutdown attempts are not counted).
    pub(crate) fn accepted(&self) -> u64 {
        self.next_ticket.load(Ordering::Acquire)
    }

    /// The shutdown fence. After this returns, no further submission can
    /// land in any ingest ring: the flag flip happens-before the per-lane
    /// lock round, so a submitter that enqueued raced *before* the fence
    /// (its push is visible to the draining execution thread), and any
    /// later one observes `accepting == false` under the lane lock.
    pub(crate) fn close(&self) {
        self.accepting.store(false, Ordering::SeqCst);
        for lane in &self.lanes {
            drop(lane.lock());
        }
    }
}

/// A client handle into a running service-mode engine. Clone freely —
/// sessions share the engine's submission state and are `Send`; each
/// clone may live on its own client thread.
#[derive(Clone)]
pub struct Session {
    shared: Arc<SubmitShared>,
}

impl Session {
    pub(crate) fn new(shared: Arc<SubmitShared>) -> Self {
        Session { shared }
    }

    /// Submit without blocking. Routes by the program's
    /// [`Program::routing_key`] — the hot-key hint, else the smallest
    /// static-footprint key, so hint-less programs with a known footprint
    /// (transfers, fused batches) still land on a deterministic lane;
    /// only footprint-free programs round-robin. Mints a [`Ticket`] on
    /// success, and returns the program back inside
    /// [`TrySubmitError::Full`] when the destination ring is full.
    pub fn try_submit(&self, program: Program) -> Result<Ticket, TrySubmitError> {
        self.try_submit_inner(program, None)
    }

    /// [`Self::try_submit`], tagging the ticket with a client id from
    /// [`crate::hub::CompletionHub::register`] so the hub can route the
    /// completion back to that client.
    pub fn try_submit_owned(&self, program: Program, owner: u32) -> Result<Ticket, TrySubmitError> {
        self.try_submit_inner(program, Some(owner))
    }

    fn try_submit_inner(
        &self,
        program: Program,
        owner: Option<u32>,
    ) -> Result<Ticket, TrySubmitError> {
        let shared = &self.shared;
        let lane = match program.routing_key() {
            Some(key) => (fx_hash_u64(key) % shared.lanes.len() as u64) as usize,
            None => shared.round_robin.fetch_add(1, Ordering::Relaxed) % shared.lanes.len(),
        };
        let mut producer = lock_lane(&shared.lanes[lane]);
        if !shared.accepting.load(Ordering::SeqCst) {
            return Err(TrySubmitError::Shutdown(program));
        }
        // Space check before minting keeps ticket ids dense (= accepted
        // count). Under the lane lock the occupancy can only shrink (the
        // execution thread drains concurrently), so the push cannot fail.
        if producer.len() >= producer.capacity() {
            return Err(TrySubmitError::Full(program));
        }
        let ticket = Ticket(shared.next_ticket.fetch_add(1, Ordering::AcqRel));
        if let Some(owner) = owner {
            // Before the push: the completion happens-after the push, so
            // the router can never see an ownerless owned ticket.
            shared.owners.insert(ticket.0, owner);
        }
        producer
            .try_push(Submission {
                ticket,
                program,
                submitted: Instant::now(),
            })
            .unwrap_or_else(|_| unreachable!("space checked under the lane lock"));
        Ok(ticket)
    }

    /// Submit a whole batch with one lane-lock acquisition and one ring
    /// publish per *destination lane* — the wire-batching fast path: a
    /// network front-end turns one TCP read of `k` requests into at most
    /// `min(k, n_exec)` ring transactions instead of `k`.
    ///
    /// Routing is identical to [`Self::try_submit`] (routing key, else
    /// round-robin). Acceptance is per lane and best-effort: programs
    /// that fit are accepted (tickets reported with their input index),
    /// programs that hit a full lane are handed back in `rejected` for
    /// the caller to retry — that hand-back is the backpressure signal a
    /// connection maps onto TCP flow control.
    pub fn try_submit_batch(&self, programs: Vec<Program>, owner: Option<u32>) -> BatchSubmit {
        let shared = &self.shared;
        let n_lanes = shared.lanes.len();
        let mut out = BatchSubmit {
            accepted: Vec::with_capacity(programs.len()),
            rejected: Vec::new(),
            shutdown: false,
        };
        if programs.is_empty() {
            return out;
        }
        let mut slots: Vec<Option<Program>> = programs.into_iter().map(Some).collect();
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); n_lanes];
        for (i, slot) in slots.iter().enumerate() {
            let p = slot.as_ref().expect("just wrapped");
            let lane = match p.routing_key() {
                Some(key) => (fx_hash_u64(key) % n_lanes as u64) as usize,
                None => shared.round_robin.fetch_add(1, Ordering::Relaxed) % n_lanes,
            };
            buckets[lane].push(i);
        }
        let mut stage: Vec<Submission> = Vec::new();
        for (lane, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let mut producer = lock_lane(&shared.lanes[lane]);
            if !shared.accepting.load(Ordering::SeqCst) {
                out.shutdown = true;
                for &i in bucket {
                    out.rejected.push((i, slots[i].take().expect("unconsumed")));
                }
                continue;
            }
            // Same dense-ticket discipline as the single-submission path:
            // count the space under the lane lock, mint exactly that many.
            let space = producer.capacity() - producer.len();
            let k = space.min(bucket.len());
            if k > 0 {
                let base = shared.next_ticket.fetch_add(k as u64, Ordering::AcqRel);
                let now = Instant::now();
                for (j, &i) in bucket[..k].iter().enumerate() {
                    let ticket = Ticket(base + j as u64);
                    if let Some(owner) = owner {
                        shared.owners.insert(ticket.0, owner);
                    }
                    stage.push(Submission {
                        ticket,
                        program: slots[i].take().expect("unconsumed"),
                        submitted: now,
                    });
                    out.accepted.push((i, ticket));
                }
                let pushed = producer.try_push_slice(&mut stage);
                assert_eq!(
                    pushed, k,
                    "space checked under the lane lock; ingest pushes are not fault-injected"
                );
                stage.clear();
            }
            for &i in &bucket[k..] {
                out.rejected.push((i, slots[i].take().expect("unconsumed")));
            }
        }
        out
    }

    /// Remove and return the owner tag of a completed ticket (routing
    /// consumes the tag — each ticket completes exactly once).
    pub(crate) fn take_owner(&self, ticket: Ticket) -> Option<u32> {
        self.shared.owners.take(ticket.0)
    }

    /// Submit, backing off while the destination ring is full (the
    /// open-loop driver's saturation behaviour: offered load beyond
    /// engine capacity queues here). Errors only on shutdown.
    ///
    /// Completions should be drained (`EngineHandle::drain_completions`)
    /// alongside sustained submission: the completion rings are the
    /// bounded fast path, and a client that lags parks its completions
    /// in engine-side overflow buffers — never lost, never wedging the
    /// engine, but memory grows with the lag until the client drains.
    pub fn submit(&self, mut program: Program) -> Result<Ticket, TrySubmitError> {
        let mut backoff = Backoff::new();
        loop {
            match self.try_submit(program) {
                Ok(t) => return Ok(t),
                Err(TrySubmitError::Full(p)) => {
                    program = p;
                    if backoff.is_yielding() {
                        // A full ring stays full for a whole engine drain
                        // cycle — much longer than a lock handoff — so once
                        // the spin budget is spent, sleep instead of burning
                        // the core on yield_now. Unreachable under the sim
                        // scheduler: there `snooze` parks via the sim seam
                        // without ever advancing the backoff step, so the
                        // schedule stays deterministic.
                        std::thread::sleep(std::time::Duration::from_micros(100));
                    } else {
                        backoff.snooze();
                    }
                }
                Err(e @ TrySubmitError::Shutdown(_)) => return Err(e),
            }
        }
    }

    /// Tickets accepted engine-wide so far (across all sessions).
    pub fn accepted(&self) -> u64 {
        self.shared.accepted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_spsc::channel;

    fn shared(
        lanes: usize,
        capacity: usize,
    ) -> (Arc<SubmitShared>, Vec<orthrus_spsc::Consumer<Submission>>) {
        let mut producers = Vec::new();
        let mut consumers = Vec::new();
        for _ in 0..lanes {
            let (p, c) = channel::<Submission>(capacity);
            producers.push(p);
            consumers.push(c);
        }
        (Arc::new(SubmitShared::new(producers)), consumers)
    }

    fn rmw(key: u64) -> Program {
        Program::Rmw { keys: vec![key] }
    }

    #[test]
    fn full_ring_backpressure_is_deterministic_and_lossless() {
        // One lane of capacity 4 (rings round up to powers of two):
        // exactly 4 submissions are accepted, the 5th returns Full with
        // the program intact, and the accepted-ticket count excludes it.
        let (s, mut consumers) = shared(1, 4);
        let session = Session::new(Arc::clone(&s));
        let mut tickets = Vec::new();
        for i in 0..4 {
            tickets.push(session.try_submit(rmw(i)).expect("ring has space"));
        }
        match session.try_submit(rmw(99)) {
            Err(TrySubmitError::Full(p)) => assert_eq!(p, rmw(99), "program handed back"),
            other => panic!("5th submission must backpressure, got {other:?}"),
        }
        assert_eq!(s.accepted(), 4, "rejected attempts must not mint tickets");
        // Every accepted ticket is in the ring, in order.
        for expect in &tickets {
            assert_eq!(consumers[0].try_pop().unwrap().ticket, *expect);
        }
        // Space freed: submission works again.
        assert!(session.try_submit(rmw(5)).is_ok());
    }

    #[test]
    fn hot_key_hint_routes_to_a_stable_lane() {
        let (s, consumers) = shared(4, 64);
        let session = Session::new(Arc::clone(&s));
        for _ in 0..12 {
            session.try_submit(rmw(7)).unwrap();
        }
        let occupied: Vec<usize> = consumers.iter().map(orthrus_spsc::Consumer::len).collect();
        assert_eq!(
            occupied.iter().sum::<usize>(),
            12,
            "all submissions landed somewhere"
        );
        assert_eq!(
            occupied.iter().filter(|&&n| n > 0).count(),
            1,
            "same hot key must always route to the same execution thread: {occupied:?}"
        );
    }

    #[test]
    fn hintless_programs_round_robin() {
        let (s, consumers) = shared(3, 64);
        let session = Session::new(Arc::clone(&s));
        for _ in 0..9 {
            session
                .try_submit(Program::Rmw { keys: vec![] })
                .expect("empty programs still route");
        }
        for c in &consumers {
            assert_eq!(c.len(), 3, "round-robin must spread hintless work");
        }
    }

    #[test]
    fn hintless_programs_with_footprints_route_by_footprint() {
        // Regression (ISSUE 9 satellite): routing once keyed on
        // `hot_key_hint` alone, so hint-less programs with a perfectly
        // known footprint (transfers, fused batches) round-robined — and
        // a partitioned front-end classifying by footprint would disagree
        // with the lane the session picked. The footprint fallback must
        // pin them to one deterministic lane, symmetric in argument order.
        let (s, consumers) = shared(4, 64);
        let session = Session::new(Arc::clone(&s));
        for i in 0..6 {
            let (from, to) = if i % 2 == 0 { (7, 3) } else { (3, 7) };
            let p = Program::Transfer {
                from,
                to,
                amount: 1,
            };
            assert_eq!(p.hot_key_hint(), None, "transfer must stay hint-less");
            session.try_submit(p).unwrap();
        }
        session
            .try_submit(Program::Fused {
                epoch: 1,
                parts: vec![Program::Adjust { key: 3, delta: 1 }],
            })
            .unwrap();
        let occupied: Vec<usize> = consumers.iter().map(orthrus_spsc::Consumer::len).collect();
        assert_eq!(occupied.iter().sum::<usize>(), 7);
        assert_eq!(
            occupied.iter().filter(|&&n| n > 0).count(),
            1,
            "footprint key 3 must pin every submission to one lane: {occupied:?}"
        );
    }

    #[test]
    fn close_fences_out_new_submissions() {
        let (s, consumers) = shared(2, 16);
        let session = Session::new(Arc::clone(&s));
        session.try_submit(rmw(1)).unwrap();
        s.close();
        match session.try_submit(rmw(2)) {
            Err(TrySubmitError::Shutdown(p)) => assert_eq!(p, rmw(2)),
            other => panic!("post-close submission must be refused, got {other:?}"),
        }
        match session.submit(rmw(3)) {
            Err(TrySubmitError::Shutdown(_)) => {}
            other => panic!("blocking submit must also refuse, got {other:?}"),
        }
        assert_eq!(s.accepted(), 1);
        assert_eq!(
            consumers
                .iter()
                .map(orthrus_spsc::Consumer::len)
                .sum::<usize>(),
            1
        );
    }

    #[test]
    fn batch_submit_accepts_everything_that_fits() {
        let (s, mut consumers) = shared(2, 16);
        let session = Session::new(Arc::clone(&s));
        // Hot keys pin lanes; hintless programs round-robin.
        let batch = vec![rmw(1), rmw(2), rmw(1), Program::Rmw { keys: vec![] }];
        let out = session.try_submit_batch(batch, Some(9));
        assert!(!out.shutdown);
        assert!(out.rejected.is_empty());
        assert_eq!(out.accepted.len(), 4);
        // Dense tickets: exactly 0..4 minted, each reported once.
        let mut ids: Vec<u64> = out.accepted.iter().map(|(_, t)| t.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(s.accepted(), 4);
        // Everything reached some ring, and same-hot-key submissions kept
        // their relative order within their lane.
        let mut seen = 0;
        for c in &mut consumers {
            while let Some(sub) = c.try_pop() {
                seen += 1;
                assert!(sub.ticket.0 < 4);
            }
        }
        assert_eq!(seen, 4);
    }

    #[test]
    fn batch_submit_hands_back_overflow_per_lane() {
        // One lane, capacity 4: a batch of 7 accepts 4 and rejects 3,
        // handing the exact programs back with their input indices.
        let (s, _consumers) = shared(1, 4);
        let session = Session::new(Arc::clone(&s));
        let batch: Vec<Program> = (0..7).map(rmw).collect();
        let out = session.try_submit_batch(batch, None);
        assert!(!out.shutdown);
        assert_eq!(out.accepted.len(), 4);
        assert_eq!(out.rejected.len(), 3);
        assert_eq!(s.accepted(), 4, "rejected programs must not mint tickets");
        for (i, p) in &out.rejected {
            assert_eq!(*p, rmw(*i as u64), "hand-back must preserve the program");
        }
    }

    #[test]
    fn batch_submit_after_close_reports_shutdown() {
        let (s, _consumers) = shared(2, 8);
        let session = Session::new(Arc::clone(&s));
        s.close();
        let out = session.try_submit_batch(vec![rmw(1), rmw(2)], Some(3));
        assert!(out.shutdown);
        assert_eq!(out.accepted.len(), 0);
        assert_eq!(out.rejected.len(), 2);
        assert_eq!(s.accepted(), 0);
    }

    #[test]
    fn owned_submissions_tag_the_owner_table() {
        let (s, _consumers) = shared(1, 8);
        let session = Session::new(Arc::clone(&s));
        let t = session.try_submit_owned(rmw(1), 42).unwrap();
        assert_eq!(session.take_owner(t), Some(42));
        assert_eq!(session.take_owner(t), None, "routing consumes the tag");
        let t2 = session.try_submit(rmw(2)).unwrap();
        assert_eq!(session.take_owner(t2), None, "un-owned stays untagged");
    }

    #[test]
    fn blocking_submit_waits_for_drain() {
        let (s, mut consumers) = shared(1, 2);
        let session = Session::new(Arc::clone(&s));
        session.try_submit(rmw(0)).unwrap();
        session.try_submit(rmw(1)).unwrap();
        let h = std::thread::spawn(move || session.submit(rmw(2)).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(consumers[0].try_pop().unwrap().ticket, Ticket(0));
        let t = h.join().unwrap();
        assert_eq!(t, Ticket(2));
        assert_eq!(s.accepted(), 3);
    }
}
