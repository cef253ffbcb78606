//! One compiled [`Search`] shared by several threads: the diff-memoized
//! `is_safe` must answer exactly like a full kernel check whatever the
//! other thread last proved safe.

use std::sync::Barrier;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sada_expr::{CompId, Config, InvariantSet, Universe};
use sada_plan::{Action, Search};

const WIDTH: usize = 12;
const STEPS: usize = 2_000;

/// Overlapping predicates, so a diff between two threads' configurations
/// touches several of them at once.
fn world() -> (Universe, InvariantSet, Vec<Action>) {
    let mut u = Universe::with_capacity(WIDTH);
    for i in 0..WIDTH {
        u.intern(&format!("C{i}"));
    }
    let inv = InvariantSet::parse(
        &[
            "one_of(C0, C1, C2)",
            "C3 => C4",
            "C5 ^ C6",
            "(C7 | C8) => !C9",
            "C10 <=> C11",
            "C2 => C5",
            "C4 => (C7 | C10)",
        ],
        &mut u,
    )
    .expect("test invariants parse");
    let actions =
        vec![Action::replace(0, "C0->C1", &u.config_of(&["C0"]), &u.config_of(&["C1"]), 1)];
    (u, inv, actions)
}

/// A seeded walk: each step flips one to three random components of the
/// walk's position (up to four tries for a safe result) and moves there
/// when that is safe, or now and then when it is not. Safe and unsafe
/// configurations both occur, and successive checks differ in a few bits.
fn walk(search: &Search, start: &Config, seed: u64) -> Vec<Config> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = start.clone();
    let mut out = Vec::with_capacity(STEPS);
    for _ in 0..STEPS {
        let mut next = at.clone();
        for _ in 0..4 {
            next = at.clone();
            for _ in 0..rng.gen_range(1..=3usize) {
                let c = CompId::from_index(rng.gen_range(0..WIDTH));
                if next.contains(c) {
                    next.remove(c);
                } else {
                    next.insert(c);
                }
            }
            if search.compiled().satisfied_by(&next) {
                break;
            }
        }
        if search.compiled().satisfied_by(&next) || rng.gen_bool(0.1) {
            at = next.clone();
        }
        out.push(next);
    }
    out
}

#[test]
fn shared_search_is_safe_matches_full_checks_across_threads() {
    let (u, inv, actions) = world();
    let search = Search::new(&inv, &actions, u.len());
    let start = u.config_of(&["C0", "C5", "C10", "C11"]);
    assert!(search.compiled().satisfied_by(&start));
    for seed in 0..8u64 {
        let walks = [walk(&search, &start, 2 * seed), walk(&search, &start, 2 * seed + 1)];
        let safe_seen: usize =
            walks.iter().flatten().filter(|c| search.compiled().satisfied_by(c)).count();
        assert!(safe_seen > STEPS / 4, "seed {seed}: only {safe_seen} safe configurations");
        // The barrier puts both threads on the same step, so each check
        // diffs against whatever either thread proved safe last. Threads
        // record mismatches instead of panicking, so neither is left
        // waiting at the barrier for a peer that died.
        let barrier = Barrier::new(walks.len());
        let mismatches: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = walks
                .iter()
                .enumerate()
                .map(|(t, cfgs)| {
                    let (search, barrier) = (&search, &barrier);
                    s.spawn(move || {
                        let mut bad = Vec::new();
                        for (i, cfg) in cfgs.iter().enumerate() {
                            barrier.wait();
                            if search.is_safe(cfg) != search.compiled().satisfied_by(cfg) {
                                bad.push(format!("thread {t}, step {i}: {}", cfg.to_bit_string()));
                            }
                        }
                        bad
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("checker thread")).collect()
        });
        assert!(mismatches.is_empty(), "seed {seed}: is_safe disagrees at {mismatches:?}");
    }
}
