//! Source model for the effect-analysis engine: items, impl blocks,
//! function signatures and call edges, extracted from the scanner's
//! comment- and string-stripped code view. No `syn`, no `rustc`
//! plumbing — a character scan that understands just enough Rust shape
//! (generics, nested braces, paths, turbofish) to build a call graph a
//! lint can trust.
//!
//! Unqualified calls are name-merged: reachability treats every
//! definition with the same name as one node. That over-approximates
//! the call graph (two types' `refresh` methods merge), which is the
//! conservative direction for the determinism lints built on top — a
//! merged graph can only *add* reachable effects, never hide one.
//! Path-qualified calls are the exception: `Type::f(..)` (and `Self::`
//! after rewriting) binds to that type's own impl when the universe
//! has one, so a `#[derive]`d `T::default()` cannot drag in every
//! other `default` in the workspace — see [`Model::resolve`].

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use crate::scan::Scanned;

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Token-boundary-aware substring search on a stripped code line.
pub(crate) fn has_token(code: &str, token: &str) -> bool {
    !token_offsets(code, token).is_empty()
}

/// Byte offsets of every token-boundary occurrence of `token` in `code`.
pub(crate) fn token_offsets(code: &str, token: &str) -> Vec<usize> {
    let first_is_ident = token.chars().next().is_some_and(is_ident_char);
    let last_is_ident = token.chars().last().is_some_and(is_ident_char);
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        let at = start + pos;
        let end = at + token.len();
        let pre_ok = !first_is_ident || !code[..at].chars().next_back().is_some_and(is_ident_char);
        let post_ok = !last_is_ident || !code[end..].chars().next().is_some_and(is_ident_char);
        if pre_ok && post_ok {
            out.push(at);
        }
        start = end;
    }
    out
}

/// The comment- and string-stripped code of a scanned file with
/// `#[cfg(test)]` lines blanked, newline structure preserved so
/// extracted definitions keep their real line numbers.
pub fn code_view(scanned: &Scanned) -> String {
    let mut view = String::new();
    for line in &scanned.lines {
        if !line.in_test {
            view.push_str(&line.code);
        }
        view.push('\n');
    }
    view
}

/// One `impl` block found in a code view.
#[derive(Debug, Clone)]
pub struct ImplBlock {
    /// Index of the source in the input slice.
    pub file: usize,
    /// 1-indexed line of the `impl` keyword.
    pub line: usize,
    /// The implementing type's final path segment (`Sm`, `Finding`).
    pub type_name: String,
    /// Character span of the block body in the view, `(start, end)`.
    pub span: (usize, usize),
}

/// One `fn` definition extracted from a file's code view.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Index of the source in the input slice.
    pub file: usize,
    /// 1-indexed line of the `fn` keyword.
    pub line: usize,
    /// 1-indexed line where the body text begins (the opening brace).
    pub body_line: usize,
    /// Character offset of the `fn` keyword in the file's code view.
    pub offset: usize,
    /// Function name.
    pub name: String,
    /// Enclosing `impl` type, when the definition sits inside one.
    pub qual: Option<String>,
    /// Parameter-list text between the outer parentheses.
    pub params: String,
    /// Body text between the outer braces (empty for trait signatures).
    pub body: String,
    /// Names referenced call-shape from the body (calls, turbofish
    /// calls, bare `Path::f` references).
    pub calls: BTreeSet<String>,
}

impl FnDef {
    /// `Type::name` when the definition sits in an impl block, else
    /// the bare name.
    pub fn display_name(&self) -> String {
        match &self.qual {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Keywords that can precede `(` without being calls, plus declaration
/// keywords whose following identifier is a definition, not a use.
const KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "loop", "for", "in", "let", "mut", "ref", "fn", "return",
    "break", "continue", "move", "as", "where", "impl", "dyn", "pub", "use", "mod", "struct",
    "enum", "trait", "type", "const", "static", "unsafe", "async", "await", "crate", "super",
    "self", "Self", "true", "false",
];

/// Call-shaped references in a body: an identifier followed by `(`
/// (free calls, method calls, UFCS), a turbofish `name::<T>(`, or a
/// bare path reference `Path::name` (a function passed as a value, as
/// in `map(Self::f)`). Macro invocations (`name!(`) and plain mentions
/// do not count. Closure bodies are included textually, so calls made
/// inside closures attribute to the enclosing function.
///
/// Path-qualified references keep their final qualifier segment
/// (`Pool::drain(..)` yields `"Pool::drain"`, `Self::f` yields
/// `"Self::f"`), so [`Model::resolve`] can pin the edge to the right
/// impl block instead of merging every same-named method.
pub fn call_sites(body: &str) -> BTreeSet<String> {
    let chars: Vec<char> = body.chars().collect();
    let mut out = BTreeSet::new();
    let mut prev_word: Option<String> = None;
    let mut i = 0usize;
    while i < chars.len() {
        if !is_ident_char(chars[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < chars.len() && is_ident_char(chars[i]) {
            i += 1;
        }
        let word: String = chars[start..i].iter().collect();
        if word.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            prev_word = Some(word);
            continue;
        }
        let declared = prev_word.as_deref() == Some("fn");
        let preceded_by_path = start >= 2 && chars[start - 1] == ':' && chars[start - 2] == ':';
        prev_word = Some(word.clone());
        if declared || KEYWORDS.contains(&word.as_str()) {
            continue;
        }
        // The qualifying path segment just before `::`, if any — used
        // to record `Qual::word` edges.
        let edge = if preceded_by_path {
            let mut q = start - 2;
            while q > 0 && is_ident_char(chars[q - 1]) {
                q -= 1;
            }
            let qual: String = chars[q..start - 2].iter().collect();
            if qual.is_empty() {
                word.clone()
            } else {
                format!("{qual}::{word}")
            }
        } else {
            word.clone()
        };
        let mut j = i;
        while chars.get(j).copied().is_some_and(char::is_whitespace) {
            j += 1;
        }
        match chars.get(j) {
            Some('(') => {
                out.insert(edge);
            }
            Some('!') => {} // macro invocation
            Some(':') if chars.get(j + 1) == Some(&':') => {
                let mut k = j + 2;
                while chars.get(k).copied().is_some_and(char::is_whitespace) {
                    k += 1;
                }
                if chars.get(k) == Some(&'<') {
                    // Turbofish: skip the generic arguments (a `>`
                    // preceded by `-` is a return arrow inside a bound,
                    // not a closer), then look for the call parens.
                    let mut angle = 0i32;
                    while k < chars.len() {
                        match chars[k] {
                            '<' => angle += 1,
                            '>' if k > 0 && chars[k - 1] != '-' => {
                                angle -= 1;
                                if angle == 0 {
                                    k += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    while chars.get(k).copied().is_some_and(char::is_whitespace) {
                        k += 1;
                    }
                    if chars.get(k) == Some(&'(') {
                        out.insert(edge);
                    }
                    i = k;
                }
                // A plain path segment: the next token is examined on
                // its own turn.
            }
            _ => {
                if preceded_by_path {
                    out.insert(edge);
                }
            }
        }
    }
    out
}

/// True when `body` contains a call-shaped reference to `name` — the
/// upgraded replacement for the old substring matcher, which missed
/// turbofish calls and bare `Path::f` references.
pub fn body_calls(body: &str, name: &str) -> bool {
    call_sites(body)
        .iter()
        .any(|c| c.rsplit_once("::").map_or(c.as_str(), |(_, f)| f) == name)
}

/// The comma-truncated type text of every `&mut` parameter in `params`
/// (skipping `&mut self` naturally: callers match type tokens against
/// the returned text, and `self` is not a type name). An optional
/// lifetime between `&` and `mut` is tolerated.
pub fn mut_ref_param_types(params: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = params;
    while let Some(pos) = rest.find('&') {
        rest = &rest[pos + 1..];
        let mut after = rest.trim_start();
        if let Some(lt) = after.strip_prefix('\'') {
            after = lt.trim_start_matches(is_ident_char).trim_start();
        }
        let Some(ty) = after.strip_prefix("mut") else {
            continue;
        };
        if ty.chars().next().is_some_and(is_ident_char) {
            continue; // an identifier starting with `mut…`
        }
        let ty = ty.split(',').next().unwrap_or(ty);
        out.push(ty.trim().to_string());
    }
    out
}

/// Field names assigned through `self` in a body (`self.x = …`,
/// `self.x += …`) — the mutation footprint of a method on its own
/// state, kept in the model for rules that reason about per-SM versus
/// shared writes.
pub fn self_field_writes(body: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for at in token_offsets(body, "self") {
        let rest = &body[at + 4..];
        let Some(field_on) = rest.strip_prefix('.') else {
            continue;
        };
        let end = field_on
            .find(|c: char| !is_ident_char(c))
            .unwrap_or(field_on.len());
        let field = &field_on[..end];
        if field.is_empty() {
            continue;
        }
        let tail = field_on[end..].trim_start();
        let assigns = tail.starts_with("= ")
            || tail.starts_with("=\n")
            || (tail.len() >= 2
                && tail.starts_with(['+', '-', '*', '/', '%', '|', '&', '^'])
                && tail[1..].starts_with('='));
        // `==` is a comparison, not an assignment.
        if assigns && !tail.starts_with("==") {
            out.insert(field.to_string());
        }
    }
    out
}

/// Extracts impl blocks from `view`: spans and implementing type names.
fn extract_impls(file: usize, view: &str, out: &mut Vec<ImplBlock>) {
    let chars: Vec<char> = view.chars().collect();
    let mut i = 0usize;
    while i + 4 <= chars.len() {
        if chars[i..i + 4] != ['i', 'm', 'p', 'l'] {
            i += 1;
            continue;
        }
        let pre_ok = i == 0 || !is_ident_char(chars[i - 1]);
        let post_ok = !chars.get(i + 4).copied().is_some_and(is_ident_char);
        if !(pre_ok && post_ok) {
            i += 4;
            continue;
        }
        // `impl Trait` in return position (`-> impl Iterator`) or in a
        // parameter (`x: impl Fn()`) is a type, not a block: a real
        // impl item follows the start of file, a `;`, a brace, a `]`
        // (attribute) or the `unsafe` keyword.
        let prev = chars[..i].iter().rev().find(|c| !c.is_whitespace());
        let head_ok = match prev {
            None => true,
            Some(&c) if c == ';' || c == '{' || c == '}' || c == ']' => true,
            Some(&c) if is_ident_char(c) => {
                let tail: String = chars[..i]
                    .iter()
                    .rev()
                    .take_while(|c| is_ident_char(**c))
                    .collect::<String>()
                    .chars()
                    .rev()
                    .collect();
                tail == "unsafe"
            }
            _ => false,
        };
        if !head_ok {
            i += 4;
            continue;
        }
        let impl_at = i;
        let mut j = i + 4;
        while chars.get(j).copied().is_some_and(char::is_whitespace) {
            j += 1;
        }
        if chars.get(j) == Some(&'<') {
            let mut angle = 0i32;
            while j < chars.len() {
                match chars[j] {
                    '<' => angle += 1,
                    '>' if j > 0 && chars[j - 1] != '-' => {
                        angle -= 1;
                        if angle == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // Header runs to the body `{` (legal impl headers contain no
        // braces; where-clause bounds use parens and angles only).
        let header_start = j;
        while j < chars.len() && chars[j] != '{' && chars[j] != ';' {
            j += 1;
        }
        if chars.get(j) != Some(&'{') {
            i = j.max(i + 4);
            continue;
        }
        let header: String = chars[header_start..j].iter().collect();
        let type_name = impl_target_type(&header);
        let body_start = j + 1;
        let mut braces = 1i32;
        let mut k = body_start;
        while k < chars.len() {
            match chars[k] {
                '{' => braces += 1,
                '}' => {
                    braces -= 1;
                    if braces == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let line = 1 + chars[..impl_at].iter().filter(|&&c| c == '\n').count();
        out.push(ImplBlock {
            file,
            line,
            type_name,
            span: (body_start, k.min(chars.len())),
        });
        // Resume inside the body so nested impls are still found.
        i = body_start;
    }
}

/// The implementing type's final path segment from an impl header:
/// `Sm` from `Sm`, `Finding` from `fmt::Display for Finding`,
/// `EffectSet` from `EffectSet where …`.
fn impl_target_type(header: &str) -> String {
    // `impl Trait for Type`: the target is after the last boundary
    // `for` that is not an HRTB `for<'a>`.
    let mut target = header;
    for at in token_offsets(header, "for") {
        let after = header[at + 3..].trim_start();
        if !after.starts_with('<') {
            target = &header[at + 3..];
        }
    }
    let mut target = target.trim_start();
    // Strip reference sigils and the where clause.
    while let Some(rest) = target.strip_prefix('&') {
        target = rest.trim_start();
        if let Some(lt) = target.strip_prefix('\'') {
            target = lt.trim_start_matches(is_ident_char).trim_start();
        }
        target = target.strip_prefix("mut ").unwrap_or(target).trim_start();
    }
    let target = match token_offsets(target, "where").first() {
        Some(&at) => &target[..at],
        None => target,
    };
    // Walk the path, keeping the final segment, stopping at generics.
    let mut name = String::new();
    let mut rest = target.trim();
    loop {
        let seg_end = rest.find(|c: char| !is_ident_char(c)).unwrap_or(rest.len());
        if seg_end > 0 {
            name = rest[..seg_end].to_string();
        }
        match rest[seg_end..].strip_prefix("::") {
            Some(next) => rest = next,
            None => break,
        }
    }
    if name.is_empty() {
        target.trim().to_string()
    } else {
        name
    }
}

/// Extracts every `fn` definition in `view` (a [`code_view`]) into
/// `out`, tagged with `file`. Scanning resumes just inside each body so
/// nested definitions are extracted too (their calls also attribute to
/// the enclosing function, which is conservative and fine for a lint).
pub(crate) fn extract_fns(file: usize, view: &str, impls: &[ImplBlock], out: &mut Vec<FnDef>) {
    let chars: Vec<char> = view.chars().collect();
    let skip_ws = |mut j: usize| {
        while chars.get(j).copied().is_some_and(char::is_whitespace) {
            j += 1;
        }
        j
    };
    let mut i = 0usize;
    while i < chars.len() {
        if chars[i] != 'f' || chars.get(i + 1) != Some(&'n') {
            i += 1;
            continue;
        }
        let pre_ok = i == 0 || !is_ident_char(chars[i - 1]);
        let post_ok = !chars.get(i + 2).copied().is_some_and(is_ident_char);
        if !(pre_ok && post_ok) {
            i += 2;
            continue;
        }
        let def_at = i;
        let mut j = skip_ws(i + 2);
        let name_start = j;
        while chars.get(j).copied().is_some_and(is_ident_char) {
            j += 1;
        }
        if j == name_start {
            // `fn(` — a function-pointer type, not a definition.
            i += 2;
            continue;
        }
        let name: String = chars[name_start..j].iter().collect();
        j = skip_ws(j);
        // Generic parameters; `>` preceded by `-` is a return arrow
        // inside an `Fn() -> T` bound, not a closer.
        if chars.get(j) == Some(&'<') {
            let mut angle = 0i32;
            while j < chars.len() {
                match chars[j] {
                    '<' => angle += 1,
                    '>' if j > 0 && chars[j - 1] != '-' => {
                        angle -= 1;
                        if angle == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        j = skip_ws(j);
        if chars.get(j) != Some(&'(') {
            i = j.max(i + 2);
            continue;
        }
        let params_start = j + 1;
        let mut params_end = params_start;
        let mut depth = 0i32;
        while j < chars.len() {
            match chars[j] {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        params_end = j;
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let params: String = chars[params_start..params_end.max(params_start)]
            .iter()
            .collect();
        // Return type / where clause run to the body `{` or, for a
        // bodiless trait signature, a `;`.
        while j < chars.len() && chars[j] != '{' && chars[j] != ';' {
            j += 1;
        }
        let mut body = String::new();
        let mut resume = j;
        let mut body_start = j;
        if chars.get(j) == Some(&'{') {
            body_start = j + 1;
            let mut braces = 1i32;
            let mut k = body_start;
            while k < chars.len() {
                match chars[k] {
                    '{' => braces += 1,
                    '}' => {
                        braces -= 1;
                        if braces == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            body = chars[body_start..k.min(chars.len())].iter().collect();
            resume = body_start;
        }
        let line = 1 + chars[..def_at].iter().filter(|&&c| c == '\n').count();
        let body_line = 1 + chars[..body_start.min(chars.len())]
            .iter()
            .filter(|&&c| c == '\n')
            .count();
        // Innermost enclosing impl block in the same file.
        let qual = impls
            .iter()
            .filter(|b| b.file == file && b.span.0 <= def_at && def_at < b.span.1)
            .max_by_key(|b| b.span.0)
            .map(|b| b.type_name.clone());
        let calls = call_sites(&body);
        out.push(FnDef {
            file,
            line,
            body_line,
            offset: def_at,
            name,
            qual,
            params,
            body,
            calls,
        });
        i = resume.max(i + 2);
    }
}

/// The whole-universe source model: every function and impl block in a
/// set of files, with a name index for call-graph walks.
#[derive(Debug, Default)]
pub struct Model {
    /// The file paths, in input order; `FnDef::file` indexes here.
    pub files: Vec<PathBuf>,
    /// Every extracted function definition.
    pub defs: Vec<FnDef>,
    /// Every extracted impl block.
    pub impls: Vec<ImplBlock>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl Model {
    /// Builds the model from `(path, code view)` pairs — the views must
    /// come from [`code_view`] so line numbers survive.
    pub fn from_views(views: &[(PathBuf, String)]) -> Model {
        let mut model = Model::default();
        for (idx, (path, view)) in views.iter().enumerate() {
            model.files.push(path.clone());
            extract_impls(idx, view, &mut model.impls);
        }
        for (idx, (_, view)) in views.iter().enumerate() {
            let impls = &model.impls;
            extract_fns(idx, view, impls, &mut model.defs);
        }
        // `Self::f` edges become `Type::f` now that each def knows its
        // enclosing impl; a free function's `Self` (impossible in real
        // code) degrades to a bare name.
        for def in &mut model.defs {
            if def.calls.iter().any(|c| c.starts_with("Self::")) {
                def.calls = def
                    .calls
                    .iter()
                    .map(|c| match (c.strip_prefix("Self::"), &def.qual) {
                        (Some(f), Some(q)) => format!("{q}::{f}"),
                        (Some(f), None) => f.to_string(),
                        _ => c.clone(),
                    })
                    .collect();
            }
        }
        for (idx, def) in model.defs.iter().enumerate() {
            model.by_name.entry(def.name.clone()).or_default().push(idx);
        }
        model
    }

    /// Builds the model from raw sources, scanning each once.
    pub fn from_sources(sources: &[(PathBuf, String)]) -> Model {
        let views: Vec<(PathBuf, String)> = sources
            .iter()
            .map(|(p, s)| (p.clone(), code_view(&crate::scan::scan(s))))
            .collect();
        Model::from_views(&views)
    }

    /// Definition indices sharing `name`.
    pub fn defs_named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// True when at least one definition carries `name`.
    pub fn defines(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    /// Resolves a recorded call edge to definition indices. A
    /// qualified edge `Q::f` binds to `Q`'s own methods when the
    /// universe defines any; otherwise it falls back to free functions
    /// named `f` (the `module::f` case), and resolves to nothing when
    /// the target is a derived or out-of-universe impl (`T::default()`
    /// on a `#[derive(Default)]` type must not merge with every other
    /// `default` in the workspace). An unqualified edge merges every
    /// definition sharing the name — method receivers are untyped at
    /// this level, so merging is the sound direction.
    pub fn resolve(&self, call: &str) -> Vec<usize> {
        match call.rsplit_once("::") {
            Some((qual, name)) => {
                let named = self.defs_named(name);
                let owned: Vec<usize> = named
                    .iter()
                    .copied()
                    .filter(|&i| self.defs[i].qual.as_deref() == Some(qual))
                    .collect();
                if !owned.is_empty() {
                    return owned;
                }
                named
                    .iter()
                    .copied()
                    .filter(|&i| self.defs[i].qual.is_none())
                    .collect()
            }
            None => self.defs_named(call).to_vec(),
        }
    }

    /// Definition indices reachable from any definition named in
    /// `roots`, walking call edges through [`Model::resolve`]. Roots
    /// are included.
    pub fn reachable_defs(&self, roots: &[&str]) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut queue: Vec<usize> = Vec::new();
        for &root in roots {
            for &idx in self.defs_named(root) {
                if seen.insert(idx) {
                    queue.push(idx);
                }
            }
        }
        while let Some(idx) = queue.pop() {
            for call in &self.defs[idx].calls {
                for tgt in self.resolve(call) {
                    if seen.insert(tgt) {
                        queue.push(tgt);
                    }
                }
            }
        }
        seen
    }

    /// The names behind [`Model::reachable_defs`] — convenient for
    /// tests and diagnostics.
    pub fn reachable(&self, roots: &[&str]) -> BTreeSet<String> {
        self.reachable_defs(roots)
            .into_iter()
            .map(|i| self.defs[i].name.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_sites_sees_plain_and_method_calls() {
        let calls = call_sites("stage(x); self.observe(y); helper (z)");
        assert!(calls.contains("stage"));
        assert!(calls.contains("observe"));
        assert!(calls.contains("helper"));
    }

    #[test]
    fn call_sites_sees_self_and_ufcs_paths() {
        let calls = call_sites("Self::via_self(1); Stager::via_ufcs(2); crate::util::mix(3);");
        assert!(calls.contains("Self::via_self"), "{calls:?}");
        assert!(calls.contains("Stager::via_ufcs"), "{calls:?}");
        assert!(calls.contains("util::mix"), "{calls:?}");
        assert!(!calls.contains("Stager"), "path segments are not calls");
    }

    #[test]
    fn call_sites_sees_turbofish() {
        let calls = call_sites("let v = route::<u32>(x); let w = wide::<Box<dyn Fn() -> u8>>(y);");
        assert!(calls.contains("route"));
        assert!(calls.contains("wide"));
    }

    #[test]
    fn call_sites_sees_bare_path_refs() {
        let calls = call_sites("xs.iter().map(Self::score).map(DomainClock::cycles);");
        assert!(calls.contains("Self::score"), "{calls:?}");
        assert!(calls.contains("DomainClock::cycles"), "{calls:?}");
        assert!(calls.contains("map"));
    }

    #[test]
    fn call_sites_sees_calls_inside_closures() {
        let calls = call_sites("xs.iter().for_each(|x| sink(*x)); let f = |y| drain(y);");
        assert!(calls.contains("sink"));
        assert!(calls.contains("drain"));
    }

    #[test]
    fn call_sites_skips_macros_and_nested_fn_names() {
        let calls = call_sites("assert!(ok); fn nested(a: u32) { inner(a); }");
        assert!(!calls.contains("assert"));
        assert!(!calls.contains("nested"), "a definition is not a call");
        assert!(calls.contains("inner"));
    }

    #[test]
    fn call_sites_skips_plain_mentions() {
        let calls = call_sites("let visits = 3; visits + other");
        assert!(calls.is_empty(), "{calls:?}");
    }

    #[test]
    fn body_calls_covers_previously_missed_shapes() {
        assert!(body_calls("Self::fill(x)", "fill"));
        assert!(body_calls("Pool::drain(x)", "drain"));
        assert!(body_calls("route::<u32>(x)", "route"));
        assert!(body_calls("xs.map(|x| grab(x))", "grab"));
        assert!(body_calls("xs.map(Self::grab)", "grab"));
        assert!(!body_calls("grab_all(x)", "grab"));
        assert!(!body_calls("let grab = 1;", "grab"));
    }

    #[test]
    fn mut_ref_params_extracted() {
        let tys = mut_ref_param_types("&mut self, li: usize, mem: &mut MemSystem, g: &Gwde");
        assert_eq!(tys, vec!["self".to_string(), "MemSystem".to_string()]);
        let tys = mut_ref_param_types("mem: &'a mut MemSystem");
        assert_eq!(tys, vec!["MemSystem".to_string()]);
        assert!(mut_ref_param_types("mutex: &Mutex<u32>").is_empty());
    }

    #[test]
    fn self_field_writes_found() {
        let writes = self_field_writes("self.score += 1; self.queue = q; if self.score == 2 {}");
        assert!(writes.contains("score"));
        assert!(writes.contains("queue"));
        assert_eq!(writes.len(), 2, "{writes:?}");
    }

    fn model_of(src: &str) -> Model {
        Model::from_sources(&[(PathBuf::from("a.rs"), src.to_string())])
    }

    #[test]
    fn impl_blocks_qualify_methods() {
        let m = model_of("struct Sm;\nimpl Sm {\n    fn commit(&mut self) {}\n}\nfn free() {}\n");
        let commit = m.defs.iter().find(|d| d.name == "commit").expect("commit");
        assert_eq!(commit.qual.as_deref(), Some("Sm"));
        assert_eq!(commit.display_name(), "Sm::commit");
        assert_eq!(commit.line, 3);
        let free = m.defs.iter().find(|d| d.name == "free").expect("free");
        assert_eq!(free.qual, None);
    }

    #[test]
    fn trait_impls_qualify_with_the_target_type() {
        let m = model_of(
            "use std::fmt;\nimpl fmt::Display for Finding {\n    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { write(f) }\n}\n",
        );
        let fmt = m.defs.iter().find(|d| d.name == "fmt").expect("fmt");
        assert_eq!(fmt.qual.as_deref(), Some("Finding"));
    }

    #[test]
    fn return_position_impl_is_not_a_block() {
        let m = model_of("fn f() -> impl Iterator<Item = u32> {\n    std::iter::empty()\n}\n");
        assert!(m.impls.is_empty(), "{:?}", m.impls);
        assert_eq!(m.defs[0].qual, None);
    }

    #[test]
    fn reachability_follows_all_call_shapes() {
        let m = model_of(
            "struct T;\nimpl T {\n    fn cycle_local(&mut self) {\n        Self::a(1);\n        T::b(2);\n        c::<u32>(3);\n        let f = Self::d;\n        f(4);\n        [1].iter().for_each(|x| e(*x));\n    }\n    fn a(_: u32) {}\n    fn b(_: u32) {}\n    fn d(_: u32) {}\n}\nfn c<X>(_: u32) {}\nfn e(_: u32) {}\nfn island() {}\n",
        );
        let reach = m.reachable(&["cycle_local"]);
        for name in ["cycle_local", "a", "b", "c", "d", "e"] {
            assert!(reach.contains(name), "missing {name}: {reach:?}");
        }
        assert!(!reach.contains("island"));
    }

    #[test]
    fn qualified_calls_do_not_merge_across_types() {
        // `Snap::default()` targets a derived impl: no `default` def
        // with qual `Snap` exists, so the edge must NOT merge with
        // `Pool::default`, whose body reaches `lock`: a derived impl
        // must not borrow the edges of a same-named hand-written one.
        let m = model_of(
            "struct Snap;\nstruct Pool;\nimpl Pool {\n    fn default() -> Pool { Pool::new() }\n    fn new() -> Pool { lock(); Pool }\n}\nfn lock() {}\nfn cycle_local() { let s = Snap::default(); use_it(s); }\nfn use_it(_: Snap) {}\n",
        );
        let reach = m.reachable(&["cycle_local"]);
        assert!(reach.contains("use_it"), "{reach:?}");
        assert!(!reach.contains("lock"), "derived default merged: {reach:?}");
        // A qualified edge still binds when the impl IS in the universe.
        let reach = m.reachable(&["default"]);
        assert!(reach.contains("lock"), "{reach:?}");
    }

    #[test]
    fn module_qualified_calls_reach_free_functions() {
        let m =
            model_of("fn driver() { util::mix(1); }\nfn mix(_: u32) { deep(); }\nfn deep() {}\n");
        let reach = m.reachable(&["driver"]);
        assert!(reach.contains("mix"), "{reach:?}");
        assert!(reach.contains("deep"), "{reach:?}");
    }

    #[test]
    fn body_line_tracks_the_opening_brace() {
        let m = model_of("fn f(\n    x: u32,\n) -> u32 {\n    x\n}\n");
        assert_eq!(m.defs[0].line, 1);
        assert_eq!(m.defs[0].body_line, 3);
    }
}
