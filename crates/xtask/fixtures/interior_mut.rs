//! Fixture: interior mutability, locks and atomics are banned in the
//! strict crates. The simulator is single-threaded and every write goes
//! through `&mut`, so none of these has a sound use there, and banning
//! them crate-wide keeps shared writes out of `Sm::cycle_local`.

use std::cell::RefCell; //~ clippy::disallowed_types
use std::sync::atomic::{AtomicU64, Ordering}; //~ clippy::disallowed_types
use std::sync::Mutex; //~ clippy::disallowed_types

/// Counts issued warps behind a lock, a `RefCell` and an atomic.
pub fn count(issued: &[u32]) -> u64 {
    let total = Mutex::new(0u64); //~ clippy::disallowed_types
    let log = RefCell::new(Vec::new()); //~ clippy::disallowed_types
    let seen = AtomicU64::new(0); //~ clippy::disallowed_types
    for &n in issued {
        if let Ok(mut t) = total.lock() {
            *t += u64::from(n);
        }
        log.borrow_mut().push(n);
        seen.fetch_add(1, Ordering::Relaxed);
    }
    total.into_inner().unwrap_or(0) + seen.load(Ordering::Relaxed)
}

/// Every other banned shared-state type, one per line.
pub type Shared = (
    std::cell::Cell<u32>, //~ clippy::disallowed_types
    std::sync::RwLock<u32>, //~ clippy::disallowed_types
    std::sync::Condvar, //~ clippy::disallowed_types
    std::sync::atomic::AtomicBool, //~ clippy::disallowed_types
    std::sync::atomic::AtomicU8, //~ clippy::disallowed_types
    std::sync::atomic::AtomicU16, //~ clippy::disallowed_types
    std::sync::atomic::AtomicU32, //~ clippy::disallowed_types
    std::sync::atomic::AtomicUsize, //~ clippy::disallowed_types
    std::sync::atomic::AtomicI8, //~ clippy::disallowed_types
    std::sync::atomic::AtomicI16, //~ clippy::disallowed_types
    std::sync::atomic::AtomicI32, //~ clippy::disallowed_types
    std::sync::atomic::AtomicI64, //~ clippy::disallowed_types
    std::sync::atomic::AtomicIsize, //~ clippy::disallowed_types
    std::sync::atomic::AtomicPtr<u8>, //~ clippy::disallowed_types
);
