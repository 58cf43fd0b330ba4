//! Fixture: hash containers and `RandomState` are banned in the strict
//! crates because their iteration order is seeded per process.

use std::collections::HashMap; //~ clippy::disallowed_types
use std::collections::HashSet; //~ clippy::disallowed_types

/// Histograms warp occupancy — with the wrong container.
pub fn histogram(xs: &[u32]) -> HashMap<u32, u32> { //~ clippy::disallowed_types
    let mut h = HashMap::new(); //~ clippy::disallowed_types
    for &x in xs {
        *h.entry(x).or_insert(0) += 1;
    }
    h
}

/// Collects distinct block ids — with the wrong container.
pub fn distinct(xs: &[u32]) -> HashSet<u32> { //~ clippy::disallowed_types
    xs.iter().copied().collect()
}

/// Seeds a hasher from the process's random state.
pub fn hasher() -> std::hash::RandomState { //~ clippy::disallowed_types
    std::hash::RandomState::new() //~ clippy::disallowed_types
}

/// The escape hatch: an `allow` with a reason suppresses the ban.
#[allow(clippy::disallowed_types, reason = "the keys are sorted before anything reads them")]
pub fn sorted_distinct(xs: &[u32]) -> Vec<u32> {
    let mut v: Vec<u32> = xs.iter().copied().collect::<HashSet<u32>>().into_iter().collect();
    v.sort_unstable();
    v
}

/// An `allow` without a reason is an error of its own.
#[allow(clippy::disallowed_types)] //~ clippy::allow_attributes_without_reason
pub fn empty() -> HashSet<u8> {
    HashSet::new()
}
