//! Regression: the runtime's replay digest must not allocate per event.
//!
//! The digest is always maintained, even with tracing off — so building a
//! `String` per deliver/drop/timer record put one heap allocation on the
//! hottest path in the runtime. Each record is now written in binary
//! straight into the FNV-1a state (and one effect buffer is reused across
//! callbacks), so a steady-state run performs no per-event allocations at
//! all. This test pins that property with a counting global allocator: a
//! run of `E` events that allocated per record would cost ≥ `E`
//! allocations; this one stays within a small constant budget.
//!
//! The same run, wrapped in `ReliableActor` with a predicate that selects
//! nothing, holds the reliable wrapper to that budget on best-effort
//! traffic: it keeps one inner effect buffer across callbacks, and its
//! transport skips a flush while its state is unchanged.

use adhoc_runtime::{
    Actor, ChurnPlan, Ctx, DigestWriter, FaultConfig, Message, ReliableActor, ReliableConfig,
    Runtime,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Two nodes ping-pong a `Copy` token a fixed number of hops: every hop
/// is one deliver event, the message itself never touches the heap, and
/// the queue depth stays at 1 — any allocation growth proportional to the
/// hop count can only come from the runtime's own event handling.
#[derive(Debug, Clone)]
struct PingPong {
    id: u32,
    hops_left: u32,
}

#[derive(Debug, Clone, Copy)]
struct Token;

impl Message for Token {
    fn kind(&self) -> &'static str {
        "token"
    }

    fn digest_into(&self, _w: &mut DigestWriter) {}
}

impl Actor for PingPong {
    type Msg = Token;

    fn on_start(&mut self, ctx: &mut Ctx<Token>) {
        if self.id == 0 {
            ctx.send(1, Token);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Token>, from: u32, _msg: Token) {
        if self.hops_left > 0 {
            self.hops_left -= 1;
            ctx.send(from, Token);
        }
    }
}

const HOPS: u32 = 20_000;

fn players() -> Vec<PingPong> {
    (0..2)
        .map(|id| PingPong {
            id,
            hops_left: HOPS,
        })
        .collect()
}

fn never(_: &Token) -> bool {
    false
}

/// Run two ping-pong players to quiescence and check that the run stays
/// within a constant allocation budget; `what` names the path that would
/// be allocating per event.
fn run_within_budget<A>(nodes: Vec<A>, what: &str) -> Runtime<A>
where
    A: Actor + Send,
    A::Msg: Send + Sync,
{
    let positions = [
        adhoc_geom::Point::new(0.0, 0.0),
        adhoc_geom::Point::new(1.0, 0.0),
    ];
    let mut rt = Runtime::new(
        nodes,
        &positions,
        1.5,
        FaultConfig::ideal(),
        1,
        &ChurnPlan::new(),
    );
    rt.start();

    let before = ALLOCS.load(Ordering::Relaxed);
    rt.run(1);
    let during = ALLOCS.load(Ordering::Relaxed) - before;

    let events = rt.stats().delivered + rt.stats().timers_fired + rt.stats().dropped;
    assert!(events > u64::from(HOPS), "run too short: {events} events");
    // The digest is maintained throughout (always on), yet the whole run
    // stays within a small constant allocation budget. Pre-fix this was
    // one `String` per event (> 20k allocations here).
    assert!(
        during < 1_000,
        "{during} allocations over {events} events — {what} is allocating again"
    );
    // Sanity: the digest really was maintained.
    assert_ne!(rt.transcript().digest(), 0);
    rt
}

// One test, not two: the allocation counter is global to this binary, so
// a second test running in parallel would count into the first's budget.
#[test]
fn digesting_does_not_allocate_per_event() {
    run_within_budget(players(), "the digest/event hot path");

    let wrapped = players()
        .into_iter()
        .map(|p| ReliableActor::new(p, ReliableConfig::default(), never))
        .collect();
    let rt = run_within_budget(wrapped, "the reliable wrapper");
    // Every hop went out best-effort: the transport carried nothing.
    let stats = rt.stats();
    let events = stats.delivered + stats.timers_fired + stats.dropped;
    assert_eq!(stats.per_kind["token"].sent, events);
    assert_eq!(rt.node(0).pending_count() + rt.node(1).pending_count(), 0);
}
