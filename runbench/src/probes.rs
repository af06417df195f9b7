//! Layer probes: micro-measurements of one layer's public primitive,
//! sized from the workload's own counts. They run only in the traced
//! run, so the plain run's wall time never includes them.

use adhoc_runtime::{EventKey, EventKind, EventQueue, FaultConfig, TransmitOutcome};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Seconds [`reference_kernel`] takes on a quiet 2.1 GHz Xeon host. Times
/// the benchmark reports end to end are wall times scaled by this over
/// the kernel's time measured next to them: seconds on that host.
pub const REFERENCE_S: f64 = 0.13;

/// Time a fixed memory-bound computation of the benchmark's own: a heap
/// of 100 k events popped and re-pushed 400 k times, each with a lookup
/// in a 50 k-entry hash map. On a shared host, neighbours' memory traffic
/// slows the runtime for minutes at a time; this kernel slows with it,
/// while nothing in the repository changes it.
pub fn reference_kernel() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap: BinaryHeap<Reverse<(u64, u64, [u64; 3])>> = (0..100_000u64)
        .map(|i| Reverse((next() % 1000, i, [i; 3])))
        .collect();
    let keys: Vec<u64> = (0..50_000).map(|_| next()).collect();
    let map: HashMap<u64, u64> = keys.iter().zip(0..).map(|(&k, i)| (k, i)).collect();
    let mut acc = 0u64;
    for _ in 0..400_000 {
        let Reverse((t, s, p)) = heap.pop().expect("the heap stays full");
        heap.push(Reverse((t + 1 + next() % 64, s, p)));
        acc = acc.wrapping_add(map[&keys[(next() % keys.len() as u64) as usize]]);
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// [`reference_kernel`] on `threads` threads at once; the slowest
/// thread's time. A multi-threaded harness call waits at every epoch
/// barrier for its slowest shard, so it slows with the busiest core.
pub fn reference_kernel_on(threads: usize) -> f64 {
    if threads <= 1 {
        return reference_kernel();
    }
    std::thread::scope(|s| {
        let runs: Vec<_> = (0..threads).map(|_| s.spawn(reference_kernel)).collect();
        runs.into_iter()
            .map(|r| r.join().expect("the reference kernel does not panic"))
            .fold(0.0, f64::max)
    })
}

/// Ticks ahead at which probe events are rescheduled: uniform in
/// `1..=DELAY_SPAN`, one ΘALG round window.
const DELAY_SPAN: u64 = 64;

/// Mean nanoseconds of one `pop` plus one `push` on an [`EventQueue`]
/// of the workload's message type `M`, held at `depth` pending events
/// for `ops` pop/push pairs (the workload's peak depth and event count).
/// Events are timers, so no payload is allocated.
pub fn event_queue_ns_per_op<M>(depth: usize, ops: u64, seed: u64) -> f64 {
    let depth = depth.max(1);
    let ops = ops.max(1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let nodes = depth as u32;
    // Delays are drawn before timing starts so the loop times the queue.
    let delays: Vec<u64> = (0..4096).map(|_| rng.gen_range(1..=DELAY_SPAN)).collect();
    let mut q: EventQueue<M> = EventQueue::new();
    for seq in 0..depth as u64 {
        q.push(
            rng.gen_range(0..DELAY_SPAN),
            EventKey::timer(rng.gen_range(0..nodes), seq),
            EventKind::Timer { timer: 0 },
        );
    }
    let t0 = Instant::now();
    for (i, seq) in (depth as u64..depth as u64 + ops).enumerate() {
        let ev = q.pop().expect("the queue stays at `depth` events");
        q.push(
            ev.time + delays[i % delays.len()],
            EventKey::timer(ev.key.node, seq),
            EventKind::Timer { timer: 0 },
        );
    }
    let ns = t0.elapsed().as_nanos() as f64 / ops as f64;
    black_box(q.len());
    ns
}

/// Mean nanoseconds of one [`FaultConfig::transmit`] draw on a
/// `ChaCha8Rng`, over `draws` draws (one per send of the workload).
pub fn fault_ns_per_draw(faults: FaultConfig, draws: u64, seed: u64) -> f64 {
    let draws = draws.max(1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut dropped = 0u64;
    let t0 = Instant::now();
    for _ in 0..draws {
        if matches!(faults.transmit(&mut rng), TransmitOutcome::Dropped) {
            dropped += 1;
        }
    }
    let ns = t0.elapsed().as_nanos() as f64 / draws as f64;
    black_box(dropped);
    ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_return_positive_times() {
        assert!(event_queue_ns_per_op::<u32>(100, 1000, 1) > 0.0);
        assert!(fault_ns_per_draw(FaultConfig::lossy(0.1), 1000, 1) > 0.0);
    }
}
