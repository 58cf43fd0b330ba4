//! Fixture: panicking escapes are banned in strict library code.

/// Parses a frequency in MHz.
pub fn parse_mhz(s: &str) -> u32 {
    s.parse().unwrap() //~ clippy::unwrap_used
}

/// Reads the current V/f level.
pub fn level(x: Option<u32>) -> u32 {
    x.expect("level missing") //~ clippy::expect_used
}

/// Reads the current V/f level, with a default: not a panic.
pub fn level_or_nominal(x: Option<u32>) -> u32 {
    x.unwrap_or(0)
}

/// Dispatches an opcode.
pub fn dispatch(op: u8) {
    match op {
        0 => {}
        _ => panic!("unknown opcode {op}"), //~ clippy::panic
    }
}

/// Test code may unwrap, expect, panic and print (`allow-*-in-tests`).
#[cfg(test)]
pub mod tests {
    /// A test body.
    pub fn parses() {
        let x: Option<u32> = "1".parse().ok();
        println!("{}", x.unwrap());
        assert_eq!(x.expect("set"), 1);
        if x.is_none() {
            panic!("gone");
        }
    }
}
