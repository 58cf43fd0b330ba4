//! Side effects that would break replay, and what keeps each out of the
//! SM local phase.
//!
//! Clippy bans the effects themselves in the strict crates
//! (`clippy.toml`): interior mutability, locks and atomics, the wall
//! clock, environment reads and hash-ordered containers. The one
//! guarantee no lint states is structural: `Sm::cycle_local` receives
//! no `&mut` handle to shared state. `Sm` owns none, so with that
//! signature the borrow checker confines the local phase to its own SM.
//! [`local_phase_violations`] checks the signature.

use std::path::PathBuf;

use crate::scan::scan;

/// The function whose signature [`local_phase_violations`] checks.
pub const LOCAL_PHASE_ROOT: &str = "cycle_local";

/// The parameters of a parameter list (the text between its
/// parentheses) that take a `&mut` borrow of anything but `self`.
pub fn shared_mut_params(params: &str) -> Vec<String> {
    let mut out = Vec::new();
    let (mut depth, mut start) = (0i32, 0usize);
    let mut push = |param: &str| {
        let param = param.trim();
        let (name, ty) = param.split_once(':').unwrap_or((param, ""));
        let name = name.trim();
        if ty.replace(' ', "").contains("&mut") && name != "self" && name != "mut self" {
            out.push(param.to_string());
        }
    };
    for (i, c) in params.char_indices() {
        match c {
            '(' | '[' | '<' => depth += 1,
            ')' | ']' => depth -= 1,
            '>' if !params[..i].ends_with('-') => depth -= 1,
            ',' if depth == 0 => {
                push(&params[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    push(&params[start..]);
    out
}

/// Every `&mut` parameter other than `self` of every non-test
/// `fn cycle_local` in `files`, as `(file, 1-indexed line, parameter)`.
pub fn local_phase_violations(files: &[(PathBuf, String)]) -> Vec<(PathBuf, usize, String)> {
    let mut out = Vec::new();
    let root = format!("fn {LOCAL_PHASE_ROOT}");
    for (path, source) in files {
        let lines = scan(source);
        for (idx, line) in lines.iter().enumerate() {
            let Some(at) = line.code.find(&root) else {
                continue;
            };
            let after = &line.code[at + root.len()..];
            if line.in_test || after.starts_with(|c: char| c.is_alphanumeric() || c == '_') {
                continue;
            }
            // The signature up to its body or `;`, code only.
            let mut sig = after.to_string();
            for next in &lines[idx + 1..] {
                if sig.contains(['{', ';']) {
                    break;
                }
                sig.push('\n');
                sig.push_str(&next.code);
            }
            let Some((open, params)) = param_list(&sig) else {
                continue;
            };
            for param in shared_mut_params(params) {
                let offset = open + params.find(&param).unwrap_or(0);
                let line_no = idx + sig[..offset].matches('\n').count() + 1;
                out.push((path.clone(), line_no, param));
            }
        }
    }
    out
}

/// The byte offset and text of a signature's parameter list (between
/// its parentheses), skipping generics.
fn param_list(sig: &str) -> Option<(usize, &str)> {
    let mut angle = 0i32;
    let open = sig.char_indices().find_map(|(i, c)| {
        match c {
            '<' => angle += 1,
            '>' if !sig[..i].ends_with('-') => angle -= 1,
            '(' if angle == 0 => return Some(i + 1),
            _ => {}
        }
        None
    })?;
    let mut depth = 1i32;
    for (i, c) in sig[open..].char_indices() {
        match c {
            '(' => depth += 1,
            ')' if depth == 1 => return Some((open, &sig[open..open + i])),
            ')' => depth -= 1,
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::strict_errors;

    fn at(lint: &str, line: usize) -> (String, usize) {
        (lint.to_string(), line)
    }

    #[test]
    fn shared_mut_params_are_shared_writes() {
        let params = "&mut self, now: u64, mem: &mut MemSystem, gwde: & mut Gwde";
        assert_eq!(
            shared_mut_params(params),
            ["mem: &mut MemSystem", "gwde: & mut Gwde"]
        );
        let nested = "f: impl FnMut(&mut Gwde) -> u32, xs: Vec<&mut u32>";
        assert_eq!(shared_mut_params(nested).len(), 2);
    }

    #[test]
    fn shared_refs_and_mut_self_are_pure() {
        let params = "&mut self, mem: &MemSystem, xs: &[u32], mut n: u32, f: impl Fn() -> u32";
        assert!(shared_mut_params(params).is_empty());
        assert!(shared_mut_params("mut self").is_empty());
        assert!(shared_mut_params("").is_empty());
    }

    #[test]
    fn rng_time_io_detected() {
        let src = "\
pub use std::time::{Instant, SystemTime};
pub fn stamp() -> u128 {
    Instant::now().elapsed().as_nanos()
}
pub fn home() -> Option<String> {
    std::env::var(\"HOME\").ok()
}
pub fn seed() -> std::hash::RandomState {
    std::hash::RandomState::new()
}
";
        let found = strict_errors("rng_time_io", src);
        let want = [
            at("clippy::disallowed_methods", 3),
            at("clippy::disallowed_methods", 6),
            at("clippy::disallowed_types", 1),
            at("clippy::disallowed_types", 8),
            at("clippy::disallowed_types", 9),
        ];
        assert_eq!(found, want);
    }

    #[test]
    fn interior_mutability_detected_with_line() {
        let src = "\
pub struct Sm {
    pub id: u32,
    pub log: std::cell::RefCell<Vec<u32>>,
}
";
        let found = strict_errors("interior_mut_line", src);
        assert_eq!(found, [at("clippy::disallowed_types", 3)]);
    }

    #[test]
    fn unordered_iter_and_float_accum_detected() {
        let src = "\
pub fn total(energy: &std::collections::HashMap<u32, f64>) -> f64 {
    energy.values().sum()
}
";
        let found = strict_errors("unordered_sum", src);
        assert_eq!(found, [at("clippy::disallowed_types", 1)]);
    }
}
