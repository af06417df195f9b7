//! Regression: broadcast fan-out adds no allocation per copy beyond the
//! message's own clone.
//!
//! A broadcast gives each radio neighbor a clone of the message. A
//! message that carries a large body keeps it behind an `Arc`, so each
//! clone is a reference-count increment, and the runtime itself must
//! allocate nothing per copy on the way to the fault layer, the event
//! queue or the transcript. This test pins that with a counting global
//! allocator: a hub broadcasting `B` `Arc`-backed messages to `N`
//! neighbors over fully lossy links costs O(B) allocations, not O(B·N).
//! With a message that deep-clones (a `Vec` body) the same run makes
//! over 25 000 allocations.

use adhoc_runtime::{Actor, ChurnPlan, Ctx, DigestWriter, FaultConfig, Message, Runtime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates directly to the system allocator; the counter is a
// relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// A heap-carrying message whose body is shared among its clones, so
/// only an allocation of the runtime's own shows up per copy.
#[derive(Debug, Clone)]
struct Blob(Arc<[u64]>);

impl Message for Blob {
    fn kind(&self) -> &'static str {
        "blob"
    }

    fn digest_into(&self, w: &mut DigestWriter) {
        w.len_prefix(self.0.len());
        for &x in self.0.iter() {
            w.u64(x);
        }
    }
}

/// Node 0 broadcasts one `Blob` per tick; everyone else is silent.
#[derive(Debug, Clone)]
struct Hub {
    id: u32,
    rounds_left: u32,
}

impl Actor for Hub {
    type Msg = Blob;

    fn on_start(&mut self, ctx: &mut Ctx<Blob>) {
        if self.id == 0 {
            ctx.set_timer(1, 0);
        }
    }

    fn on_message(&mut self, _ctx: &mut Ctx<Blob>, _from: u32, _msg: Blob) {}

    fn on_timer(&mut self, ctx: &mut Ctx<Blob>, _timer: u32) {
        ctx.broadcast(Blob(vec![self.id as u64; 32].into()));
        self.rounds_left -= 1;
        if self.rounds_left > 0 {
            ctx.set_timer(1, 0);
        }
    }
}

#[test]
fn broadcast_fanout_does_not_clone_per_neighbor() {
    const NEIGHBORS: u32 = 50;
    const ROUNDS: u32 = 500;

    let nodes: Vec<Hub> = (0..=NEIGHBORS)
        .map(|id| Hub {
            id,
            rounds_left: ROUNDS,
        })
        .collect();
    // A tight cluster: every node is within radio range of every other,
    // so each broadcast fans out to all `NEIGHBORS` links.
    let positions: Vec<adhoc_geom::Point> = (0..=NEIGHBORS)
        .map(|i| {
            let a = f64::from(i) / f64::from(NEIGHBORS + 1) * std::f64::consts::TAU;
            adhoc_geom::Point::new(0.01 * a.cos(), 0.01 * a.sin())
        })
        .collect();
    // Fully lossy links: every per-neighbor copy is cloned, digested
    // into a drop record and discarded at the fault layer.
    let mut rt = Runtime::new(
        nodes,
        &positions,
        1.0,
        FaultConfig::lossy(1.0),
        11,
        &ChurnPlan::new(),
    );
    rt.start();

    let before = ALLOCS.load(Ordering::Relaxed);
    rt.run(1);
    let during = ALLOCS.load(Ordering::Relaxed) - before;

    let fanout = u64::from(NEIGHBORS) * u64::from(ROUNDS);
    assert_eq!(rt.stats().dropped, fanout, "expected full lossy fan-out");
    // Each round allocates the actor's own `Blob` (a `Vec`, then its
    // `Arc`); everything else is amortized. An allocation per copy
    // would add one per neighbor per round — 25 000 here.
    assert!(
        during < 5 * u64::from(ROUNDS),
        "{during} allocations for {ROUNDS} broadcasts × {NEIGHBORS} neighbors — \
         the fan-out path allocates per copy (that costs ≥ {fanout})"
    );
    // Sanity: the transcript still witnessed every drop.
    assert_ne!(rt.transcript().digest(), 0);
}
