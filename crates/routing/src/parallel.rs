//! Deterministic parallel snapshot-routing pipeline.
//!
//! Per-time-step routing snapshots are embarrassingly parallel: each step's
//! `DelayGraph` + per-destination Dijkstra trees depend only on the
//! constellation geometry at that instant. This module fans steps out
//! across a scoped-thread worker pool and hands the results back
//! **in step order**, so every consumer observes exactly the sequence the
//! serial loop would produce — bit-for-bit, for any worker-thread count.
//!
//! Parallelism here is only ever *across* independent snapshots (or
//! scenario instances), built on `std::thread` and `std::sync::mpsc` alone
//! (DESIGN §5 dependency policy): determinism stays a feature.
//!
//! Two shapes are provided:
//!
//! * [`for_each_step_ordered`] / [`map_steps_ordered`] — bounded-memory
//!   fan-out over a known step range, for sweep experiments
//!   (`hypatia::experiments::{pair_sweep, granularity}`);
//! * [`Prefetcher`] — a background pool that computes steps `k+1..k+P`
//!   while a consumer (the netsim event loop) is still busy with step `k`.

use crate::dijkstra::DijkstraScratch;
use crate::forwarding::ForwardingState;
use crate::graph::SnapshotBuffers;
use crate::incremental::{IncrementalRouter, RoutingConfig};
use hypatia_constellation::{Constellation, NodeId};
use hypatia_fault::FaultState;
use hypatia_util::SimTime;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;

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

/// As [`for_each_step_ordered`], collecting the results into a `Vec`
/// indexed by step.
pub fn map_steps_ordered<T, S, MS, F>(
    n_steps: u64,
    threads: usize,
    make_scratch: MS,
    compute: F,
) -> Vec<T>
where
    T: Send,
    MS: Fn() -> S + Sync,
    F: Fn(&mut S, u64) -> T + Sync,
{
    let mut out = Vec::with_capacity(n_steps as usize);
    let prefetch = 2 * worker_threads(threads);
    for_each_step_ordered(n_steps, threads, prefetch, make_scratch, compute, |_, r| out.push(r));
    out
}

/// Per-worker reusable routing state: snapshot staging buffers plus the
/// incremental routing engine (previous-snapshot cache, Dijkstra/repair
/// scratch). One of these lives on each worker thread for the lifetime of
/// a sweep, so steady-state snapshot-routing does not allocate graphs,
/// heaps, or position buffers — and, in incremental mode, repairs each
/// worker's trees from whatever snapshot that worker computed last.
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
    /// Dijkstra working memory for non-router uses (heap, settled set).
    pub scratch: DijkstraScratch,
    /// The full-vs-incremental routing engine with its snapshot cache.
    pub router: IncrementalRouter,
}

impl SnapshotWorker {
    /// Fresh worker buffers with the default routing configuration
    /// (incremental repair).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh worker buffers with an explicit routing configuration.
    pub fn with_config(config: RoutingConfig) -> Self {
        SnapshotWorker { router: IncrementalRouter::new(config), ..Default::default() }
    }

    /// Snapshot the constellation at `t` and compute forwarding state
    /// towards `dests`, reusing this worker's buffers and (in incremental
    /// mode) repairing from the previously computed snapshot.
    pub fn forwarding_state(
        &mut self,
        constellation: &Constellation,
        t: SimTime,
        dests: &[NodeId],
    ) -> ForwardingState {
        self.forwarding_state_masked(constellation, t, dests, None)
    }

    /// As [`Self::forwarding_state`], routing around faulted components.
    /// Fault transitions reach the router as edge deletions/insertions in
    /// the snapshot diff, so repair handles them like any other churn (and
    /// falls back to full Dijkstra past the churn threshold). Because the
    /// fault state is derived purely from an immutable schedule and repair
    /// is byte-identical to full recompute, prefetch workers calling this
    /// produce states bit-identical to the inline recomputation path.
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

/// Compute the forwarding state for every instant in `times` (towards
/// `dests`) on `threads` workers and hand each state to
/// `consume(step_index, state)` in time order. `threads == 0` uses every
/// core; `threads == 1` is the serial reference the parallel path is
/// bit-identical to.
pub fn sweep_forwarding_states<C>(
    constellation: &Constellation,
    times: &[SimTime],
    dests: &[NodeId],
    threads: usize,
    consume: C,
) where
    C: FnMut(usize, ForwardingState),
{
    sweep_forwarding_states_with(
        constellation,
        times,
        dests,
        threads,
        RoutingConfig::default(),
        consume,
    );
}

/// As [`sweep_forwarding_states`], with an explicit routing configuration
/// (full recompute vs. incremental repair, churn threshold). Output is
/// byte-identical across configurations and thread counts; the
/// configuration only changes how fast the states are produced.
pub fn sweep_forwarding_states_with<C>(
    constellation: &Constellation,
    times: &[SimTime],
    dests: &[NodeId],
    threads: usize,
    routing: RoutingConfig,
    mut consume: C,
) where
    C: FnMut(usize, ForwardingState),
{
    let threads = worker_threads(threads).min(times.len().max(1));
    for_each_step_ordered(
        times.len() as u64,
        threads,
        2 * threads,
        || SnapshotWorker::with_config(routing),
        |worker, k| worker.forwarding_state(constellation, times[k as usize], dests),
        |k, state| consume(k as usize, state),
    );
}

/// A bounded-prefetch background pipeline over an open-ended step
/// sequence: workers compute `f(step)` for `start, start+1, ...` while the
/// consumer is still busy with earlier steps, keeping at most
/// `prefetch + threads` results in flight.
///
/// Consumption is strictly in order ([`Prefetcher::take`]), so the
/// observable sequence is identical to calling `f` inline — the netsim
/// event loop stays deterministic while its forwarding recomputation
/// overlaps with packet processing. Dropping the `Prefetcher` stops the
/// workers.
pub struct Prefetcher<T: Send + 'static> {
    rx: Option<Receiver<(u64, T)>>,
    pending: BTreeMap<u64, T>,
    next: u64,
    stop: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl<T: Send + 'static> Prefetcher<T> {
    /// Start `threads` background workers computing `f(scratch, k)` for
    /// `k = start, start+1, ...` with at most `prefetch` finished results
    /// buffered. Each worker owns one `make_scratch()` value.
    pub fn spawn<S, MS, F>(
        start: u64,
        threads: usize,
        prefetch: usize,
        make_scratch: MS,
        f: F,
    ) -> Self
    where
        MS: Fn() -> S + Send + Sync + 'static,
        F: Fn(&mut S, u64) -> T + Send + Sync + 'static,
    {
        let threads = worker_threads(threads);
        let (tx, rx) = sync_channel::<(u64, T)>(prefetch.max(1));
        let stop = Arc::new(AtomicBool::new(false));
        let counter = Arc::new(AtomicU64::new(0));
        let shared = Arc::new((make_scratch, f));
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let tx = tx.clone();
            let stop = stop.clone();
            let counter = counter.clone();
            let shared = shared.clone();
            handles.push(std::thread::spawn(move || {
                let (make_scratch, f) = &*shared;
                let mut scratch = make_scratch();
                while !stop.load(Ordering::Relaxed) {
                    let k = start + counter.fetch_add(1, Ordering::Relaxed);
                    let r = f(&mut scratch, k);
                    if tx.send((k, r)).is_err() {
                        break;
                    }
                }
            }));
        }
        Prefetcher { rx: Some(rx), pending: BTreeMap::new(), next: start, stop, handles }
    }

    /// Take the result for step `k`. Steps must be consumed in order,
    /// starting at the `start` passed to [`Prefetcher::spawn`]; blocks
    /// until the workers have produced step `k`.
    pub fn take(&mut self, k: u64) -> T {
        assert_eq!(k, self.next, "prefetched steps must be consumed in order");
        let rx = self.rx.as_ref().expect("prefetcher already shut down");
        loop {
            if let Some(r) = self.pending.remove(&k) {
                self.next = k + 1;
                return r;
            }
            let (i, r) = rx.recv().expect("prefetch worker died");
            self.pending.insert(i, r);
        }
    }
}

impl<T: Send + 'static> Drop for Prefetcher<T> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Dropping the receiver makes every blocked `send` fail, so the
        // workers unblock and exit.
        self.rx = None;
        self.pending.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
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

    fn constellation() -> Constellation {
        Constellation::build(
            "par",
            vec![ShellSpec::new("A", 550.0, 8, 8, 53.0)],
            IslLayout::PlusGrid,
            vec![GroundStation::new("a", 5.0, 5.0), GroundStation::new("b", -10.0, 120.0)],
            GslConfig::new(15.0),
        )
    }

    #[test]
    fn map_steps_ordered_matches_serial_for_any_thread_count() {
        // A compute function whose result depends on the step index in a
        // way that would expose any ordering bug.
        let serial = map_steps_ordered(50, 1, || 0u64, |_, k| k * k + 7);
        for threads in [2, 3, 8] {
            let par = map_steps_ordered(50, threads, || 0u64, |_, k| k * k + 7);
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn for_each_step_consumes_in_order() {
        let mut seen = Vec::new();
        for_each_step_ordered(
            40,
            4,
            4,
            || (),
            |_, k| k,
            |k, r| {
                assert_eq!(k, r);
                seen.push(k);
            },
        );
        assert_eq!(seen, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_states_identical_serial_vs_parallel() {
        let c = constellation();
        let dests = vec![c.gs_node(0), c.gs_node(1)];
        let times: Vec<SimTime> =
            (0..12).map(|k| SimTime::ZERO + SimDuration::from_millis(500) * k).collect();
        let collect = |threads: usize| {
            let mut out = Vec::new();
            sweep_forwarding_states(&c, &times, &dests, threads, |k, st| {
                out.push((k, format!("{st:?}")));
            });
            out
        };
        let serial = collect(1);
        for threads in [2, 4, 8] {
            assert_eq!(serial, collect(threads), "threads={threads}");
        }
    }

    #[test]
    fn sweep_states_identical_full_vs_incremental() {
        let c = constellation();
        let dests = vec![c.gs_node(0), c.gs_node(1)];
        let times: Vec<SimTime> =
            (0..10).map(|k| SimTime::ZERO + SimDuration::from_millis(500) * k).collect();
        let collect = |threads: usize, routing: RoutingConfig| {
            let mut out = Vec::new();
            sweep_forwarding_states_with(&c, &times, &dests, threads, routing, |k, st| {
                out.push((k, format!("{st:?}")));
            });
            out
        };
        let reference = collect(1, RoutingConfig::full());
        for threads in [1, 2, 4, 8] {
            assert_eq!(
                reference,
                collect(threads, RoutingConfig::incremental()),
                "incremental sweep diverged at threads={threads}"
            );
        }
    }

    #[test]
    fn prefetcher_yields_steps_in_order() {
        let mut pf = Prefetcher::spawn(3, 4, 4, || (), |_, k| k * 10);
        for k in 3..30 {
            assert_eq!(pf.take(k), k * 10);
        }
        // Dropping mid-stream stops the workers without hanging.
        drop(pf);
    }

    #[test]
    fn prefetcher_matches_inline_forwarding_state() {
        let c = Arc::new(constellation());
        let dests = vec![c.gs_node(0), c.gs_node(1)];
        let step = SimDuration::from_millis(100);
        let mut pf = {
            let c = c.clone();
            let dests = dests.clone();
            Prefetcher::spawn(1, 2, 3, SnapshotWorker::new, move |w: &mut SnapshotWorker, k| {
                w.forwarding_state(&c, SimTime::ZERO + step * k, &dests)
            })
        };
        for k in 1..8u64 {
            let want =
                crate::forwarding::compute_forwarding_state(&c, SimTime::ZERO + step * k, &dests);
            let got = pf.take(k);
            assert_eq!(format!("{want:?}"), format!("{got:?}"), "step {k}");
        }
    }
}
