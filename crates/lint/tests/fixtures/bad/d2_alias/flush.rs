// Fixture: the other half of `tally.rs`: it drains the aliased map in
// its randomized order without naming a hash container.

use crate::tally::Tally;

pub fn flush(t: &mut Tally, out: &mut Vec<(u32, u64)>) {
    out.extend(t.counts.drain());
}
