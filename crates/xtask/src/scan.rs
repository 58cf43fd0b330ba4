//! A line-oriented lexical view of one Rust file: comments and string
//! literals split from code, and `#[cfg(test)]` regions tracked.
//!
//! The two checks clippy cannot run need it. The to-do rule reads only
//! comments, including every line of a block comment, and must not
//! mistake a string literal that looks like one for a comment. The
//! local-phase signature check reads only code outside tests. This is a
//! token scan, not a parse: it knows line and (nested) block comments,
//! plain, raw and byte strings and char literals, which is enough
//! without a compiler front end.

/// One line of a scanned file, split into views.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// Code with comments and string-literal contents blanked out.
    pub code: String,
    /// Concatenated comment text on the line (without `//` / `/*`).
    pub comment: String,
    /// The line is inside (or opens) a `#[cfg(test)]` region.
    pub in_test: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    BlockComment { depth: usize },
    Str,
    RawStr { hashes: usize },
}

/// Scans `source` into per-line views; line 1 is element 0.
pub fn scan(source: &str) -> Vec<Line> {
    let mut out = Vec::new();
    let mut state = State::Code;
    // Brace depth outside each enclosing `#[cfg(test)]` region's opening
    // brace.
    let mut test_regions: Vec<usize> = Vec::new();
    let mut depth: usize = 0;
    // A `#[cfg(test)]` attribute was seen and its item not yet opened.
    let mut test_pending = false;

    for raw in source.lines() {
        let mut line = Line {
            in_test: !test_regions.is_empty(),
            ..Line::default()
        };
        if state == State::LineComment {
            state = State::Code; // line comments end at the newline
        }
        let chars: Vec<char> = raw.chars().collect();
        let blank = |code: &mut String, n: usize| code.extend(std::iter::repeat_n(' ', n));
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            match state {
                State::Code => match c {
                    '/' if next == Some('/') => {
                        state = State::LineComment;
                        blank(&mut line.code, 2);
                        i += 2;
                    }
                    '/' if next == Some('*') => {
                        state = State::BlockComment { depth: 1 };
                        blank(&mut line.code, 2);
                        i += 2;
                    }
                    '"' => {
                        state = State::Str;
                        line.code.push('"');
                        i += 1;
                    }
                    'r' | 'b' => {
                        // Possible raw/byte string prefix: r", r#", br", b".
                        let mut j = i + 1;
                        if c == 'b' && chars.get(j) == Some(&'r') {
                            j += 1;
                        }
                        let mut hashes = 0usize;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        let is_raw = (c == 'r' || chars.get(i + 1) == Some(&'r'))
                            && chars.get(j) == Some(&'"');
                        let is_plain_byte =
                            c == 'b' && hashes == 0 && chars.get(i + 1) == Some(&'"');
                        // Only a literal prefix at a token start.
                        let boundary =
                            i == 0 || !(chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
                        if boundary && is_raw {
                            blank(&mut line.code, j + 1 - i);
                            i = j + 1;
                            state = State::RawStr { hashes };
                        } else if boundary && is_plain_byte {
                            line.code.push_str(" \"");
                            i += 2;
                            state = State::Str;
                        } else {
                            line.code.push(c);
                            i += 1;
                        }
                    }
                    '\'' => {
                        // Char literal vs lifetime: a literal is 'x' or an
                        // escape; anything else is a lifetime and stays.
                        if next == Some('\\') {
                            let mut j = i + 2;
                            while j < chars.len() && chars[j] != '\'' {
                                j += 1;
                            }
                            blank(&mut line.code, j.min(chars.len() - 1) + 1 - i);
                            i = j + 1;
                        } else if chars.get(i + 2) == Some(&'\'') {
                            blank(&mut line.code, 3);
                            i += 3;
                        } else {
                            line.code.push(c);
                            i += 1;
                        }
                    }
                    '{' => {
                        if test_pending {
                            test_regions.push(depth);
                            test_pending = false;
                            line.in_test = true;
                        }
                        depth += 1;
                        line.code.push(c);
                        i += 1;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if test_regions.last() == Some(&depth) {
                            test_regions.pop();
                        }
                        line.code.push(c);
                        i += 1;
                    }
                    _ => {
                        line.code.push(c);
                        i += 1;
                    }
                },
                State::LineComment => {
                    line.comment.push(c);
                    line.code.push(' ');
                    i += 1;
                }
                State::BlockComment { depth: d } => {
                    if c == '*' && next == Some('/') {
                        state = match d {
                            1 => State::Code,
                            _ => State::BlockComment { depth: d - 1 },
                        };
                        blank(&mut line.code, 2);
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        state = State::BlockComment { depth: d + 1 };
                        blank(&mut line.code, 2);
                        i += 2;
                    } else {
                        line.comment.push(c);
                        line.code.push(' ');
                        i += 1;
                    }
                }
                State::Str => {
                    if c == '\\' {
                        blank(&mut line.code, 2);
                        i += 2;
                    } else if c == '"' {
                        line.code.push('"');
                        state = State::Code;
                        i += 1;
                    } else {
                        line.code.push(' ');
                        i += 1;
                    }
                }
                State::RawStr { hashes } => {
                    let closes = c == '"' && (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'));
                    let n = if closes { 1 + hashes } else { 1 };
                    blank(&mut line.code, n);
                    i += n;
                    if closes {
                        state = State::Code;
                    }
                }
            }
        }

        // `#[cfg(test)]` region bookkeeping on the finished code view.
        if line.code.contains("cfg(test)") || line.code.contains("cfg(all(test") {
            test_pending = true;
            line.in_test = true;
        } else if test_pending {
            // The attribute applied to a braceless item (`use`, `const`):
            // the region never opens, so the flag ends with the item.
            line.in_test = true;
            if line.code.trim_end().ends_with(';') && !line.code.contains('{') {
                test_pending = false;
            }
        }
        out.push(line);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_blanked() {
        let s = scan(r#"let x = "HashMap::new()";"#);
        assert!(!s[0].code.contains("HashMap"));
        assert!(s[0].code.contains("let x ="));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let s = scan(r##"let x = r#"panic!("boom")"#; let y = 1;"##);
        assert!(!s[0].code.contains("panic"));
        assert!(s[0].code.contains("let y = 1;"));
    }

    #[test]
    fn comments_split_from_code() {
        let s = scan("let a = 1; // trailing HashMap note");
        assert!(!s[0].code.contains("HashMap"));
        assert!(s[0].comment.contains("HashMap"));
    }

    #[test]
    fn block_comments_nest() {
        let s = scan("/* outer /* inner */ still */ let b = 2;\n/* a\n   b */ c();");
        assert!(s[0].code.contains("let b = 2;"));
        assert!(!s[0].code.contains("outer"));
        assert!(s[0].comment.contains("still"));
        // Every line of a multi-line block comment is comment text.
        assert_eq!(s[2].comment.trim(), "b");
        assert!(s[2].code.contains("c();"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let s = scan("fn f<'a>(x: &'a str) { let c = '{'; }");
        // The brace inside the char literal must not affect depth.
        let code = &s[0].code;
        assert!(code.contains("<'a>"), "lifetime kept: {code}");
        assert!(!code.contains("'{'"), "char literal blanked: {code}");
    }

    #[test]
    fn cfg_test_region_tracked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn lib2() {}\n";
        let in_test: Vec<bool> = scan(src).iter().map(|l| l.in_test).collect();
        assert_eq!(in_test, [false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_not_test_is_not_a_region() {
        let s = scan("#[cfg(not(test))]\nfn f() {}\nfn g() {}\n");
        assert!(!s[1].in_test);
        assert!(!s[2].in_test);
    }

    #[test]
    fn braceless_cfg_test_item_ends_region() {
        let s = scan("#[cfg(test)]\nuse foo::bar;\nfn f() {}\n");
        assert!(s[1].in_test);
        assert!(!s[2].in_test);
    }
}
