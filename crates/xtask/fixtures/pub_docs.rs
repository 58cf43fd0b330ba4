//! Fixture: public API must carry doc comments (rustc's `missing_docs`,
//! which the workspace warns on and CI denies).

pub fn undocumented() -> u32 { //~ missing_docs
    7
}

/// Documented, so no finding here.
pub fn documented() -> u32 {
    9
}

pub struct Bare; //~ missing_docs

/// Documented through an attribute.
#[derive(Clone)]
pub struct Dressed;

/// Tuple fields need no docs.
pub struct Tuple(pub u32);

/// Named fields do.
pub struct Named {
    pub field: u32, //~ missing_docs
}

pub use std::cmp::Ordering;
