// Fixture: D2 hash containers, reported where they are named.

use std::collections::HashMap; // line 3: the use

struct Accounting {
    completions: HashMap<u32, u64>, // line 6: the field type
}

fn summarize(acc: &Accounting) -> u64 {
    // The iterations the ban makes impossible: a tree that names no hash
    // container has none to iterate.
    let mut total = 0;
    for (_, n) in &acc.completions {
        total += n;
    }
    total + acc.completions.values().sum::<u64>()
}
