//! Fixture: debug and console printing are banned in library code.

/// Computes a checksum, noisily.
pub fn checksum(xs: &[u8]) -> u32 {
    let mut acc = 0u32;
    for &x in xs {
        dbg!(x); //~ clippy::dbg_macro
        acc = acc.wrapping_add(u32::from(x));
    }
    print!("acc = "); //~ clippy::print_stdout
    println!("{acc}"); //~ clippy::print_stdout
    eprintln!("done"); //~ clippy::print_stderr
    acc
}
