//! Fixture: environment reads make runs machine-dependent;
//! configuration must flow through SimConfig.

/// Reads the SM count from the environment.
pub fn sm_count() -> usize {
    std::env::var("EQ_SMS") //~ clippy::disallowed_methods
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(15)
}

/// Every other banned way to read the host environment.
pub fn sniff() -> usize {
    let raw = std::env::var_os("EQ_SMS").is_some(); //~ clippy::disallowed_methods
    let vars = std::env::vars().count(); //~ clippy::disallowed_methods
    let vars_os = std::env::vars_os().count(); //~ clippy::disallowed_methods
    let args = std::env::args().count(); //~ clippy::disallowed_methods
    let args_os = std::env::args_os().count(); //~ clippy::disallowed_methods
    let cwd = std::env::current_dir().is_ok(); //~ clippy::disallowed_methods
    let tmp = std::env::temp_dir(); //~ clippy::disallowed_methods
    usize::from(raw) + vars + vars_os + args + args_os + usize::from(cwd) + tmp.capacity()
}
