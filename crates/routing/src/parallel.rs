//! Deterministic parallel snapshot-routing pipeline, and the one step it
//! runs.
//!
//! [`SnapshotWorker::step`] is the only way the product turns an instant
//! into forwarding state: fault mask at `t`, snapshot, unicast trees by
//! incremental repair, and multipath alternates when a stretch is set.
//! The packet simulator steps one worker, on a [`Lookahead`] thread one
//! step ahead of its event loop; every time-stepped experiment series
//! reads [`sweep_forwarding_states`].
//!
//! Per-time-step routing snapshots are embarrassingly parallel: each step's
//! `DelayGraph` + per-destination trees depend only on the constellation
//! geometry and the fault schedule at that instant. This module fans steps
//! out across a scoped-thread worker pool and hands the results back
//! **in step order**, so every consumer observes exactly the sequence the
//! serial loop would produce — bit-for-bit, for any worker-thread count.
//!
//! Parallelism here is only ever *across* independent snapshots (or
//! scenario instances), built on `std::thread` and `std::sync::mpsc` alone
//! (DESIGN §5 dependency policy): determinism stays a feature. Within one
//! snapshot, every recompute, repair or full, splits its independent
//! per-destination trees with one scoped helper thread
//! ([`crate::incremental`]), so a worker or the [`Lookahead`] thread
//! briefly runs two at every step.
//!
//! Two shapes are provided:
//!
//! * [`for_each_step_ordered`] — bounded-memory fan-out over a known step
//!   range, under [`sweep_forwarding_states`];
//! * [`Lookahead`] — one helper thread that computes step `k+1` while its
//!   owner (the netsim event loop) is still busy with step `k`.

use crate::forwarding::{ForwardingState, MultipathState};
use crate::graph::SnapshotBuffers;
use crate::incremental::{IncrementalRouter, RoutingConfig};
use hypatia_constellation::{Constellation, NodeId};
use hypatia_fault::{FaultSchedule, FaultState};
use hypatia_util::SimTime;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender};
use std::thread::JoinHandle;

/// Resolve a requested worker count: `0` means "all available cores".
pub fn worker_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }
}

/// Run `compute(scratch, k)` for every `k in 0..n_steps` on `threads`
/// workers and feed the results to `consume(k, result)` **in step order**.
///
/// Each worker owns one `make_scratch()` value (reusable buffers), pulls
/// step indices from a shared counter, and sends `(k, result)` over a
/// bounded channel, so at most `prefetch + threads` results are in flight
/// — memory stays bounded however far the workers run ahead.
///
/// With `threads == 1` the loop runs inline on the caller's thread; the
/// parallel path produces the same `consume` call sequence by
/// construction, which is what makes thread count a pure performance knob.
/// `threads` counts step workers, not OS threads: a `compute` that routes
/// a step borrows one short-lived helper thread for it (see
/// [`crate::incremental`]).
pub fn for_each_step_ordered<T, S, MS, F, C>(
    n_steps: u64,
    threads: usize,
    prefetch: usize,
    make_scratch: MS,
    compute: F,
    mut consume: C,
) where
    T: Send,
    MS: Fn() -> S + Sync,
    F: Fn(&mut S, u64) -> T + Sync,
    C: FnMut(u64, T),
{
    let threads = worker_threads(threads);
    if threads == 1 || n_steps <= 1 {
        let mut scratch = make_scratch();
        for k in 0..n_steps {
            let r = compute(&mut scratch, k);
            consume(k, r);
        }
        return;
    }

    let next_step = AtomicU64::new(0);
    let (tx, rx) = sync_channel::<(u64, T)>(prefetch.max(1));
    // A worker that panics takes the scope (and so the caller) with it.
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next_step = &next_step;
            let make_scratch = &make_scratch;
            let compute = &compute;
            scope.spawn(move || {
                let mut scratch = make_scratch();
                loop {
                    let k = next_step.fetch_add(1, Ordering::Relaxed);
                    if k >= n_steps {
                        break;
                    }
                    let r = compute(&mut scratch, k);
                    if tx.send((k, r)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);

        // Reorder out-of-order arrivals; release to the consumer strictly
        // by step index.
        let mut pending: BTreeMap<u64, T> = BTreeMap::new();
        let mut next = 0u64;
        for (k, r) in rx.iter() {
            pending.insert(k, r);
            while let Some(r) = pending.remove(&next) {
                consume(next, r);
                next += 1;
            }
        }
        while let Some(r) = pending.remove(&next) {
            consume(next, r);
            next += 1;
        }
        assert_eq!(next, n_steps, "parallel pipeline lost a step");
    });
}

/// Per-worker reusable routing state: snapshot staging buffers, the
/// incremental routing engine (previous-snapshot cache, Dijkstra/repair
/// scratch) and the multipath stretch. One of these lives on each worker
/// thread for the lifetime of a sweep or a simulation, so steady-state
/// snapshot-routing does not allocate graphs, heaps, or position buffers,
/// and each worker repairs its trees from whatever snapshot it computed
/// last.
///
/// Which steps a worker happens to process depends on thread scheduling,
/// so the per-worker caches see a nondeterministic step subsequence. That
/// is safe because repair output is byte-identical to a full recompute
/// from *any* cached snapshot (see [`crate::incremental`]): results never
/// depend on thread count or step assignment.
#[derive(Debug, Default)]
pub struct SnapshotWorker {
    /// Snapshot-graph construction buffers (CSR arrays, positions).
    pub buffers: SnapshotBuffers,
    /// The full-vs-incremental routing engine with its snapshot cache.
    pub router: IncrementalRouter,
    /// When set, every [`Self::step`] also computes downhill alternates
    /// within this delay stretch (see [`crate::multipath`]).
    pub multipath_stretch: Option<f64>,
}

impl SnapshotWorker {
    /// Fresh worker buffers with the default routing configuration
    /// (incremental repair) and no multipath.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh worker buffers with an explicit routing configuration.
    pub fn with_config(config: RoutingConfig) -> Self {
        SnapshotWorker { router: IncrementalRouter::new(config), ..Default::default() }
    }

    /// Builder-style: also compute multipath alternates within `stretch`
    /// at every step (`None` = unicast only).
    pub fn with_multipath(mut self, stretch: Option<f64>) -> Self {
        self.multipath_stretch = stretch;
        self
    }

    /// One forwarding step: the fault mask `faults` schedules at `t`, the
    /// snapshot of `constellation` at `t` with that mask applied, unicast
    /// trees towards `dests` repaired from this worker's previous
    /// snapshot, and — when a stretch is set — multipath alternates layered
    /// over those same trees (no second Dijkstra). The mask is a pure
    /// replay of the immutable schedule and repair is byte-identical to
    /// full recompute, so the result depends only on the arguments, never
    /// on which steps this worker ran before.
    pub fn step(
        &mut self,
        constellation: &Constellation,
        t: SimTime,
        dests: &[NodeId],
        faults: Option<&FaultSchedule>,
    ) -> (ForwardingState, Option<MultipathState>) {
        let mut fwd = ForwardingState::empty();
        let mp = self.step_into(constellation, t, dests, faults, &mut fwd);
        (fwd, mp)
    }

    /// As [`Self::step`], refilling `fwd`'s buffers (a retired state of
    /// the same destinations: then the unicast half allocates nothing).
    pub fn step_into(
        &mut self,
        constellation: &Constellation,
        t: SimTime,
        dests: &[NodeId],
        faults: Option<&FaultSchedule>,
        fwd: &mut ForwardingState,
    ) -> Option<MultipathState> {
        let mask = faults.map(|s| FaultState::at(s, t));
        let graph = self.buffers.snapshot_masked(constellation, t, mask.as_ref());
        self.router.compute_into(graph, t, dests, fwd);
        self.multipath_stretch.map(|s| MultipathState::on_trees(self.buffers.graph(), fwd, s))
    }

    /// The unicast half of [`Self::step`] under an explicit fault state.
    /// Fault transitions reach the router as edge deletions/insertions in
    /// the snapshot diff, so repair handles them like any other churn (and
    /// falls back to full Dijkstra past the churn threshold).
    pub fn forwarding_state_masked(
        &mut self,
        constellation: &Constellation,
        t: SimTime,
        dests: &[NodeId],
        faults: Option<&FaultState>,
    ) -> ForwardingState {
        let graph = self.buffers.snapshot_masked(constellation, t, faults);
        let mut out = ForwardingState::empty();
        self.router.compute_into(graph, t, dests, &mut out);
        out
    }
}

/// Step a [`SnapshotWorker`] made by `worker` through every instant in
/// `times` (towards `dests`, masked by `faults` when given) on `threads`
/// workers, and hand each step's states to `consume(step_index, states)`
/// in time order. `threads == 0` uses every core; `threads == 1` runs the
/// steps on the calling thread and is the serial reference the parallel
/// path is bit-identical to. `threads` counts step workers: every step
/// splits its trees with one helper thread for that step (see
/// [`crate::incremental`]). The worker's routing configuration and thread
/// count only change how fast the states are produced.
pub fn sweep_forwarding_states<W, C>(
    worker: W,
    constellation: &Constellation,
    times: &[SimTime],
    dests: &[NodeId],
    faults: Option<&FaultSchedule>,
    threads: usize,
    mut consume: C,
) where
    W: Fn() -> SnapshotWorker + Sync,
    C: FnMut(usize, (ForwardingState, Option<MultipathState>)),
{
    let threads = worker_threads(threads).min(times.len().max(1));
    for_each_step_ordered(
        times.len() as u64,
        threads,
        2 * threads,
        worker,
        |worker, k| worker.step(constellation, times[k as usize], dests, faults),
        |k, states| consume(k as usize, states),
    );
}

/// One helper thread running `job` one request ahead of its owner, which
/// [`Self::request`]s, goes on with its own work, and [`Self::take`]s the
/// result when it needs it. One request at a time: the owner decides which
/// jobs run and in what order, so the results are those of calling `job`
/// inline. The thread owns `state` until [`Self::join`] hands it back; a
/// panic in `job` resurfaces on the owner at `take`, `join` or drop.
pub struct Lookahead<S, Q, T> {
    requests: Option<Sender<Q>>,
    results: Receiver<T>,
    thread: Option<JoinHandle<S>>,
    pending: bool,
}

impl<S: Send + 'static, Q: Send + 'static, T: Send + 'static> Lookahead<S, Q, T> {
    /// Start the helper thread, moving `state` onto it.
    pub fn spawn(mut state: S, mut job: impl FnMut(&mut S, Q) -> T + Send + 'static) -> Self {
        let (requests, inbox) = channel::<Q>();
        let (outbox, results) = sync_channel::<T>(1);
        let thread = std::thread::spawn(move || {
            for q in inbox {
                if outbox.send(job(&mut state, q)).is_err() {
                    break;
                }
            }
            state
        });
        Lookahead { requests: Some(requests), results, thread: Some(thread), pending: false }
    }

    /// Is a request in flight (made and not yet taken)?
    pub fn is_pending(&self) -> bool {
        self.pending
    }

    /// Hand the helper its next job. Panics if one is still in flight.
    pub fn request(&mut self, q: Q) {
        assert!(!std::mem::replace(&mut self.pending, true), "one request at a time");
        // A helper that died is reported by the next `take`.
        let _ = self.requests.as_ref().map(|r| r.send(q));
    }

    /// The result of the request in flight, blocking until it is done.
    pub fn take(&mut self) -> T {
        assert!(std::mem::replace(&mut self.pending, false), "no request in flight");
        self.results.recv().unwrap_or_else(|_| match self.stop() {
            Some(Err(panic)) => std::panic::resume_unwind(panic),
            _ => panic!("lookahead thread exited with a request in flight"),
        })
    }

    /// Stop the helper and take its state back (a result in flight is
    /// dropped).
    pub fn join(mut self) -> S {
        let joined = self.stop().expect("the thread is joined only once");
        joined.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

impl<S, Q, T> Lookahead<S, Q, T> {
    /// Close the request channel (the helper finishes its job, if any, and
    /// exits) and join the thread.
    fn stop(&mut self) -> Option<std::thread::Result<S>> {
        self.requests = None;
        self.thread.take().map(JoinHandle::join)
    }
}

impl<S, Q, T> Drop for Lookahead<S, Q, T> {
    fn drop(&mut self) {
        if let Some(Err(panic)) = self.stop() {
            if !std::thread::panicking() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypatia_constellation::ground::GroundStation;
    use hypatia_constellation::gsl::GslConfig;
    use hypatia_constellation::isl::IslLayout;
    use hypatia_constellation::shell::ShellSpec;
    use hypatia_util::SimDuration;
    use std::sync::Arc;

    fn constellation() -> Constellation {
        Constellation::build(
            "par",
            vec![ShellSpec::new("A", 550.0, 8, 8, 53.0)],
            IslLayout::PlusGrid,
            vec![GroundStation::new("a", 5.0, 5.0), GroundStation::new("b", -10.0, 120.0)],
            GslConfig::new(15.0),
        )
    }

    /// Every result of `for_each_step_ordered`, in the order consumed.
    fn collect_steps(threads: usize) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for_each_step_ordered(50, threads, 4, || 0u64, |_, k| k * k + 7, |k, r| out.push((k, r)));
        out
    }

    #[test]
    fn map_steps_ordered_matches_serial_for_any_thread_count() {
        // A compute function whose result depends on the step index in a
        // way that would expose any ordering bug.
        let serial = collect_steps(1);
        for threads in [2, 3, 8] {
            assert_eq!(serial, collect_steps(threads), "threads={threads}");
        }
    }

    #[test]
    fn for_each_step_consumes_in_order() {
        for threads in [1, 2, 3, 4, 8] {
            let mut seen = Vec::new();
            for_each_step_ordered(
                50,
                threads,
                4,
                || (),
                |_, k| k * k + 7,
                |k, r| {
                    assert_eq!(k * k + 7, r, "threads={threads}");
                    seen.push(k);
                },
            );
            assert_eq!(seen, (0..50).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    /// Every step of a sweep, rendered, at `threads` workers.
    fn sweep(
        c: &Constellation,
        times: &[SimTime],
        dests: &[NodeId],
        threads: usize,
        routing: RoutingConfig,
    ) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        let worker = || SnapshotWorker::with_config(routing);
        sweep_forwarding_states(worker, c, times, dests, None, threads, |k, st| {
            out.push((k, format!("{st:?}")));
        });
        out
    }

    #[test]
    fn sweep_states_identical_serial_vs_parallel() {
        let c = constellation();
        let dests = vec![c.gs_node(0), c.gs_node(1)];
        let times: Vec<SimTime> =
            (0..12).map(|k| SimTime::ZERO + SimDuration::from_millis(500) * k).collect();
        let serial = sweep(&c, &times, &dests, 1, RoutingConfig::default());
        for threads in [2, 4, 8] {
            assert_eq!(serial, sweep(&c, &times, &dests, threads, RoutingConfig::default()));
        }
    }

    #[test]
    fn sweep_states_identical_full_vs_incremental() {
        let c = constellation();
        let dests = vec![c.gs_node(0), c.gs_node(1)];
        let times: Vec<SimTime> =
            (0..10).map(|k| SimTime::ZERO + SimDuration::from_millis(500) * k).collect();
        let reference = sweep(&c, &times, &dests, 1, RoutingConfig::full());
        for threads in [1, 2, 4, 8] {
            assert_eq!(
                reference,
                sweep(&c, &times, &dests, threads, RoutingConfig::incremental()),
                "incremental sweep diverged at threads={threads}"
            );
        }
    }

    #[test]
    fn lookahead_yields_requests_in_order() {
        let mut ahead = Lookahead::spawn(0u64, |jobs: &mut u64, k: u64| {
            *jobs += 1;
            k * 10
        });
        for k in 3..30 {
            ahead.request(k);
            assert!(ahead.is_pending());
            assert_eq!(ahead.take(), k * 10);
        }
        assert!(!ahead.is_pending());
        assert_eq!(ahead.join(), 27, "the state comes back with every job counted");
        // Dropping with a request in flight joins without hanging.
        let mut ahead = Lookahead::spawn((), |_, k: u64| k);
        ahead.request(1);
        drop(ahead);
    }

    #[test]
    fn lookahead_matches_inline_forwarding_state() {
        let c = Arc::new(constellation());
        let dests = vec![c.gs_node(0), c.gs_node(1)];
        let step = SimDuration::from_millis(100);
        let mut ahead = {
            let (c, dests) = (c.clone(), dests.clone());
            Lookahead::spawn(SnapshotWorker::new(), move |w, (k, mut spare): (u64, _)| {
                let mp = w.step_into(&c, SimTime::ZERO + step * k, &dests, None, &mut spare);
                (spare, mp)
            })
        };
        let mut spare = ForwardingState::empty();
        for k in 1..8u64 {
            ahead.request((k, spare));
            let want =
                crate::forwarding::compute_forwarding_state(&c, SimTime::ZERO + step * k, &dests);
            let (got, mp) = ahead.take();
            assert!(mp.is_none(), "no stretch, no multipath");
            assert_eq!(format!("{want:?}"), format!("{got:?}"), "step {k}");
            spare = got;
        }
    }

    #[test]
    fn a_panicking_job_resurfaces_on_the_owner() {
        let failing = || Lookahead::spawn((), |_, k: u64| -> u64 { panic!("job {k} failed") });
        let message = |run: &dyn Fn()| {
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_err();
            panic.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        assert_eq!(
            message(&|| {
                let mut ahead = failing();
                ahead.request(1);
                ahead.take();
            }),
            "job 1 failed",
            "at take"
        );
        assert_eq!(message(&|| failing().request(2)), "job 2 failed", "at drop");
    }
}
