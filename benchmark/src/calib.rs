//! The host's speed at this moment, measured by a fixed reference kernel.
//!
//! The baseline host is a small VM on a shared machine: the *same* binary
//! on the *same* inputs ran 1.9× slower at the start of a quarter of an
//! hour than at its end, CPU time as much as wall time (README.md, "Host
//! weather"). No estimator over one run's repetitions can remove a drift
//! that outlasts the run, so the harness measures the host beside the
//! product: a short block of this kernel runs between every two
//! repetitions, and each repetition's times are divided by how much slower
//! than [`NOMINAL_NS_PER_OP`] the blocks on either side of it ran. The
//! blocks are timed on the process's CPU clock, which stops while the
//! hypervisor runs someone else; the wall time it stole from a repetition
//! — up to four fifths of one, a tenth on average — is not sampled but
//! read off (`Rep::steal_s`) and taken out first.
//!
//! The kernel is the hold model of a discrete-event simulator — pop the
//! earliest of 100 000 pending timers, schedule one later — on a binary
//! heap written out here, so that it shares no code with the product (an
//! optimisation of the product must not speed its own yardstick up) and
//! does not change with the standard library. 1.6 MB of heap straddles
//! the L2/L3 boundary the way the simulator's hot state does; of the
//! kernels tried (a dependent multiply chain, heaps of 10⁴–10⁶ entries, a
//! 64 MB pointer chase) it followed the product's drift most closely.

use crate::host::cpu_seconds;
use std::time::Instant;

/// Pending timers in the reference heap.
const PENDING: usize = 100_000;

/// Operations between two looks at the clock (≈ 4 ms).
const BATCH: u64 = 20_000;

/// What one hold operation of the kernel costs on the baseline host when
/// its neighbours are quiet: the fastest tenth of a day's blocks. Only a
/// scale — it makes the corrected times read like seconds on that host —
/// so it never changes.
pub const NOMINAL_NS_PER_OP: f64 = 180.0;

/// A block is a tenth as long as the repetition before it, within these.
const BLOCK_SHARE: f64 = 0.10;
const BLOCK_MIN_S: f64 = 0.04;
const BLOCK_MAX_S: f64 = 0.30;

/// How long the block after a repetition of `rep_s` seconds runs.
pub fn block_seconds(rep_s: f64) -> f64 {
    (rep_s * BLOCK_SHARE).clamp(BLOCK_MIN_S, BLOCK_MAX_S)
}

/// The reference kernel's state: a min-heap of `(due, sequence)` timers
/// and the generator its increments come from. Everything is fixed — the
/// same operations in the same order in every process.
pub struct Reference {
    heap: Vec<(u64, u64)>,
    rng: u64,
    seq: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Fill the heap.
    pub fn new() -> Self {
        let mut r =
            Reference { heap: Vec::with_capacity(PENDING + 1), rng: 0x9E37_79B9_7F4A_7C15, seq: 0 };
        for _ in 0..PENDING {
            let due = r.draw();
            r.push(due);
        }
        r
    }

    /// xorshift64: an increment of up to a simulated millisecond, in ns.
    fn draw(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng % 1_000_000
    }

    fn push(&mut self, due: u64) {
        self.seq += 1;
        self.heap.push((due, self.seq));
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent] <= self.heap[i] {
                break;
            }
            self.heap.swap(parent, i);
            i = parent;
        }
    }

    fn pop(&mut self) -> (u64, u64) {
        let top = self.heap.swap_remove(0);
        let n = self.heap.len();
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut least = i;
            if l < n && self.heap[l] < self.heap[least] {
                least = l;
            }
            if r < n && self.heap[r] < self.heap[least] {
                least = r;
            }
            if least == i {
                return top;
            }
            self.heap.swap(i, least);
            i = least;
        }
    }

    /// `ops` hold operations: pop the earliest timer, schedule one later.
    fn hold(&mut self, ops: u64) {
        for _ in 0..ops {
            let (due, _) = self.pop();
            let later = due + self.draw();
            self.push(later);
        }
    }

    /// Run the kernel for about `seconds` of wall time and return how
    /// much slower than nominal it went: CPU ns per operation ÷
    /// [`NOMINAL_NS_PER_OP`].
    pub fn block(&mut self, seconds: f64) -> f64 {
        let (wall, cpu) = (Instant::now(), cpu_seconds());
        let mut ops = 0u64;
        loop {
            self.hold(BATCH);
            ops += BATCH;
            if wall.elapsed().as_secs_f64() >= seconds {
                return (cpu_seconds() - cpu) * 1e9 / ops as f64 / NOMINAL_NS_PER_OP;
            }
        }
    }

    /// Order-sensitive digest of the pending timers (tests).
    #[cfg(test)]
    fn digest(&self) -> u64 {
        self.heap.iter().fold(0u64, |h, &(due, seq)| {
            (h ^ due ^ seq.rotate_left(32)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_a_heap_and_is_deterministic() {
        let (mut a, mut b) = (Reference::new(), Reference::new());
        a.hold(50_000);
        b.hold(20_000);
        b.hold(30_000);
        assert_eq!(a.heap.len(), PENDING);
        assert_eq!(a.digest(), b.digest(), "same operations, same state");
        // Timers leave in due order.
        let mut last = (0, 0);
        for _ in 0..1_000 {
            let next = a.pop();
            assert!(next >= last, "{next:?} after {last:?}");
            last = next;
        }
    }

    #[test]
    fn a_block_reports_a_plausible_slowdown() {
        let slowdown = Reference::new().block(0.02);
        // Within 30× of the baseline host either way: any machine that
        // can build the product.
        assert!(slowdown > 1.0 / 30.0 && slowdown < 30.0, "{slowdown}");
    }

    #[test]
    fn block_length_follows_the_repetition_within_limits() {
        assert_eq!(block_seconds(0.001), BLOCK_MIN_S);
        assert_eq!(block_seconds(1.0), 0.1);
        assert_eq!(block_seconds(60.0), BLOCK_MAX_S);
    }
}
