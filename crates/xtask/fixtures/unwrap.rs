//! Fixture: panicking escapes are banned in strict library code.

/// Parses a frequency in MHz.
pub fn parse_mhz(s: &str) -> u32 {
    s.parse().unwrap() //~ clippy::unwrap_used
}

/// Reads the current V/f level.
pub fn level(x: Option<u32>) -> u32 {
    x.expect("level missing") //~ clippy::expect_used
}

/// Dispatches an opcode.
pub fn dispatch(op: u8) {
    match op {
        0 => {}
        _ => panic!("unknown opcode {op}"), //~ clippy::panic
    }
}
