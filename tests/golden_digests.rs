//! Golden transcript-digest regression suite.
//!
//! Every scenario in the quick E20 sweep (ΘALG protocol and
//! gossip-balancing in both delivery modes, across the loss-rate grid)
//! has its replay digest pinned in `tests/fixtures/e20_digests.txt`,
//! every E21 churn scenario (3 seeds × {no-churn, leave-heavy,
//! drift-heavy}) in `tests/fixtures/e21_digests.txt`, and every E22
//! adversary scenario (all six attacks × defense off/on, over 2 seeds on
//! fire-and-forget links and over reliable links under churn) in
//! `tests/fixtures/e22_digests.txt`. The runtime
//! promises bit-for-bit replay from a seed; this suite extends that
//! promise across *commits*: any change to event ordering, RNG
//! consumption, fault sampling, churn scheduling, or message contents
//! shows up here as a digest mismatch instead of a silent behavioural
//! drift. The CI thread matrix reruns both suites under
//! `ADHOC_SHARD_THREADS` 1 and 4 against the same fixtures, so they also
//! pin the inline one-shard core and the threaded shards together.
//!
//! When a divergence is intentional (e.g. a new field in a message enum),
//! regenerate the fixtures and review them like any other diff:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_digests
//! ```

use std::fmt::Write as _;

const E20_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/e20_digests.txt"
);

const E21_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/e21_digests.txt"
);

const E22_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/e22_digests.txt"
);

fn render(title: &str, digests: &[(String, u64)]) -> String {
    let mut s = format!(
        "# {title} replay digests.\n\
         # Regenerate: UPDATE_GOLDEN=1 cargo test --test golden_digests\n",
    );
    for (name, digest) in digests {
        writeln!(s, "{name} {digest:#018x}").unwrap();
    }
    s
}

fn check(fixture: &str, actual: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(fixture, actual).expect("writing fixture");
        return;
    }
    let expected = std::fs::read_to_string(fixture).expect(
        "missing fixture — create it with UPDATE_GOLDEN=1 cargo test --test golden_digests",
    );
    assert_eq!(
        actual, expected,
        "replay digests diverged from the golden fixture; if intentional, \
         regenerate with UPDATE_GOLDEN=1 cargo test --test golden_digests \
         and commit the new fixture"
    );
}

#[test]
fn e20_digests_match_golden_fixture() {
    let actual = render(
        "E20 quick-sweep",
        &adhoc_sim::experiments::e20_runtime_faults::golden_digests(),
    );
    check(E20_FIXTURE, &actual);
}

#[test]
fn e21_churn_digests_match_golden_fixture() {
    let actual = render(
        "E21 churn-scenario",
        &adhoc_sim::experiments::e21_churn::golden_digests(),
    );
    check(E21_FIXTURE, &actual);
}

#[test]
fn e22_adversary_digests_match_golden_fixture() {
    let actual = render(
        "E22 adversary-scenario",
        &adhoc_sim::experiments::e22_adversary::golden_digests(),
    );
    check(E22_FIXTURE, &actual);
}
