// Fixture: a hash container named once, behind an alias. This file
// iterates it through a field typed by the alias; `flush.rs` drains it
// without naming it at all. The ban reports the one line that names it.

use std::collections::HashMap as Map; // line 5: the aliased use

pub struct Tally {
    pub counts: Map<u32, u64>,
}

pub fn total(t: &Tally) -> u64 {
    let mut sum = 0;
    for (_, n) in &t.counts {
        sum += n;
    }
    sum + t.counts.values().sum::<u64>()
}
