//! The comment text of each line of a Rust file, split from code and
//! string literals.
//!
//! The to-do rule reads only comments, including every line of a block
//! comment, and must not mistake a string literal that looks like one
//! for a comment. This is a token scan, not a parse: it knows line and
//! (nested) block comments, plain, raw and byte strings and char
//! literals, which is enough without a compiler front end.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    BlockComment { depth: usize },
    Str,
    RawStr { hashes: usize },
}

/// The concatenated comment text (without `//`, `/*` and `*/`) of each
/// line of `source`; line 1 is element 0.
pub fn comments(source: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut state = State::Code;
    for raw in source.lines() {
        let mut comment = String::new();
        let chars: Vec<char> = raw.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            match state {
                State::Code => match c {
                    '/' if next == Some('/') => {
                        // A line comment runs to the end of the line.
                        comment.extend(&chars[i + 2..]);
                        break;
                    }
                    '/' if next == Some('*') => {
                        state = State::BlockComment { depth: 1 };
                        i += 2;
                    }
                    '"' => {
                        state = State::Str;
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
                            i = j + 1;
                            state = State::RawStr { hashes };
                        } else if boundary && is_plain_byte {
                            i += 2;
                            state = State::Str;
                        } else {
                            i += 1;
                        }
                    }
                    '\'' => {
                        // Char literal vs lifetime: a literal is 'x' or an
                        // escape; anything else is a lifetime.
                        if next == Some('\\') {
                            let mut j = i + 2;
                            while j < chars.len() && chars[j] != '\'' {
                                j += 1;
                            }
                            i = j + 1;
                        } else if chars.get(i + 2) == Some(&'\'') {
                            i += 3;
                        } else {
                            i += 1;
                        }
                    }
                    _ => i += 1,
                },
                State::BlockComment { depth } => {
                    if c == '*' && next == Some('/') {
                        state = match depth {
                            1 => State::Code,
                            _ => State::BlockComment { depth: depth - 1 },
                        };
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        state = State::BlockComment { depth: depth + 1 };
                        i += 2;
                    } else {
                        comment.push(c);
                        i += 1;
                    }
                }
                State::Str => {
                    if c == '"' {
                        state = State::Code;
                    }
                    i += if c == '\\' { 2 } else { 1 };
                }
                State::RawStr { hashes } => {
                    let closes = c == '"' && (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'));
                    if closes {
                        state = State::Code;
                        i += hashes;
                    }
                    i += 1;
                }
            }
        }
        out.push(comment);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_blanked() {
        let s = comments(r#"let x = "// HashMap::new()"; let y = b"/* z */";"#);
        assert_eq!(s, [""]);
    }

    #[test]
    fn raw_strings_are_blanked() {
        let s = comments(r##"let x = r#"// "quoted" panic!("boom")"#; let y = 1; // tail"##);
        assert_eq!(s, [" tail"]);
    }

    #[test]
    fn comments_split_from_code() {
        let s = comments("let a = 1; // trailing HashMap note");
        assert_eq!(s, [" trailing HashMap note"]);
    }

    #[test]
    fn block_comments_nest() {
        let s = comments("/* outer /* inner */ still */ let b = 2;\n/* a\n   b */ c(); // d");
        assert_eq!(s[0], " outer  inner  still ");
        // Every line of a multi-line block comment is comment text.
        assert_eq!(s[1], " a");
        assert_eq!(s[2], "   b  d");
    }

    #[test]
    fn char_literals_and_lifetimes() {
        // A quote inside a char literal opens no string; a lifetime is
        // not a char literal.
        let s = comments("fn f<'a>(x: &'a str) { let c = '\"'; let e = '\\''; } // note");
        assert_eq!(s, [" note"]);
    }
}
