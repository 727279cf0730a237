// Fixture: contract-conforming code — the lint must report nothing.

use std::collections::{BTreeMap, HashMap};

struct State {
    ordered: BTreeMap<u32, u64>,
    index: HashMap<u64, usize>,
}

fn run(state: &mut State, seed: u64) -> u64 {
    // Seeded RNG, not entropy.
    let mut rng = StdRng::seed_from_u64(seed);
    // Iterating a BTreeMap is deterministic.
    let mut total = 0;
    for (_, v) in &state.ordered {
        total += v;
    }
    // Point lookups on a HashMap are fine; only iteration leaks order.
    if let Some(&slot) = state.index.get(&total) {
        total += slot as u64;
    }
    state.index.insert(total, 1);
    total + rng.gen_range(0..2)
}

fn wait_until(deadline: Instant) {
    // Mentioning the Instant type (without ::now) is fine.
    let _ = deadline;
}
