//! A hand-rolled Rust lexer: just enough tokenization for invariant
//! linting.
//!
//! The workspace vendors no `syn`, so the linter tokenizes source text
//! itself. It understands line and (nested) block comments, string /
//! raw-string / char / byte literals, numbers, identifiers, lifetimes and
//! single-character punctuation — everything needed to scan for banned
//! call patterns without being fooled by comments or string contents.
//! Comments are not discarded: they carry the inline waiver syntax, so
//! they are returned as a separate per-line side channel.

/// What a token is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `unwrap`, `HashMap`, ...).
    Ident,
    /// Any string-ish literal: `"…"`, `r#"…"#`, `b"…"`, `'c'`.
    Str,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`).
    Lifetime,
    /// One punctuation character (`.`, `(`, `[`, `{`, `!`, ...).
    Punct,
}

/// One token with its source position.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Kind of token.
    pub kind: TokKind,
    /// The token text (for `Punct`, exactly one character).
    pub text: String,
    /// 1-based source line.
    pub line: usize,
}

impl Tok {
    fn new(kind: TokKind, text: String, line: usize) -> Tok {
        Tok { kind, text, line }
    }

    /// True if this is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// True if this is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// A comment with its source line (block comments are attributed to the
/// line they start on; each line of a multi-line block comment is
/// reported separately so waivers inside them still attach correctly).
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based source line.
    pub line: usize,
    /// Comment text without the `//` / `/*` markers.
    pub text: String,
}

/// Lexer output: the token stream plus the comment side channel.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub toks: Vec<Tok>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Tokenizes Rust source text. Unterminated constructs are tolerated
/// (the remainder is consumed); the linter must not panic on weird input.
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0;
    let mut line = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if b.get(i + 1) == Some(&'/') => {
                let start = i + 2;
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    line,
                    text: b[start.min(i)..i].iter().collect(),
                });
            }
            '/' if b.get(i + 1) == Some(&'*') => {
                i += 2;
                let mut depth = 1usize;
                let mut text = String::new();
                let mut comment_line = line;
                while i < b.len() && depth > 0 {
                    if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == '\n' {
                            out.comments.push(Comment {
                                line: comment_line,
                                text: std::mem::take(&mut text),
                            });
                            line += 1;
                            comment_line = line;
                        } else {
                            text.push(b[i]);
                        }
                        i += 1;
                    }
                }
                out.comments.push(Comment {
                    line: comment_line,
                    text,
                });
            }
            '"' | 'r' | 'b' if c == '"' || is_raw_or_byte_string(&b, i) => {
                let (ni, nl) = consume_string(&b, i, line);
                out.toks.push(Tok::new(TokKind::Str, String::new(), line));
                i = ni;
                line = nl;
            }
            '\'' => {
                // Lifetime or char literal. A lifetime is `'ident` not
                // followed by a closing quote.
                if is_lifetime(&b, i) {
                    let mut j = i + 1;
                    while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                        j += 1;
                    }
                    out.toks.push(Tok::new(
                        TokKind::Lifetime,
                        b[i + 1..j].iter().collect(),
                        line,
                    ));
                    i = j;
                } else {
                    // Char literal: 'x', '\n', '\u{1f}'.
                    let mut j = i + 1;
                    while j < b.len() && b[j] != '\'' {
                        if b[j] == '\\' {
                            j += 1;
                        }
                        j += 1;
                    }
                    out.toks.push(Tok::new(TokKind::Str, String::new(), line));
                    i = (j + 1).min(b.len());
                }
            }
            c if c.is_ascii_digit() => {
                let mut j = i + 1;
                while j < b.len()
                    && (b[j].is_alphanumeric()
                        || b[j] == '_'
                        || b[j] == '.' && b.get(j + 1).is_some_and(|n| n.is_ascii_digit()))
                {
                    j += 1;
                }
                out.toks
                    .push(Tok::new(TokKind::Num, b[i..j].iter().collect(), line));
                i = j;
            }
            c if c.is_alphanumeric() || c == '_' => {
                let mut j = i + 1;
                while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                    j += 1;
                }
                out.toks
                    .push(Tok::new(TokKind::Ident, b[i..j].iter().collect(), line));
                i = j;
            }
            other => {
                out.toks
                    .push(Tok::new(TokKind::Punct, other.to_string(), line));
                i += 1;
            }
        }
    }
    out
}

/// True if position `i` starts `r"`, `r#"`, `br"`, `b"`, `b'` — a raw or
/// byte string/char rather than an identifier starting with r/b.
fn is_raw_or_byte_string(b: &[char], i: usize) -> bool {
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
    }
    if j < b.len() && b[j] == 'r' {
        j += 1;
        while j < b.len() && b[j] == '#' {
            j += 1;
        }
    }
    j > i && j < b.len() && (b[j] == '"' || b[j] == '\'')
}

/// True if `'` at `i` starts a lifetime rather than a char literal.
fn is_lifetime(b: &[char], i: usize) -> bool {
    let Some(&first) = b.get(i + 1) else {
        return false;
    };
    if !(first.is_alphabetic() || first == '_') {
        return false;
    }
    // 'a' is a char literal; 'a followed by non-quote is a lifetime.
    let mut j = i + 1;
    while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
        j += 1;
    }
    b.get(j) != Some(&'\'')
}

/// Consumes a string or a raw/byte string or char (`"…"`, `r#"…"#`,
/// `b"…"`, `br##"…"##`, `b'…'`) starting at `i`; returns (next index,
/// line).
fn consume_string(b: &[char], mut i: usize, mut line: usize) -> (usize, usize) {
    let mut raw = false;
    if b[i] == 'b' {
        i += 1;
    }
    if i < b.len() && b[i] == 'r' {
        raw = true;
        i += 1;
    }
    let mut hashes = 0;
    while i < b.len() && b[i] == '#' {
        hashes += 1;
        i += 1;
    }
    if i >= b.len() {
        return (i, line);
    }
    let quote = b[i];
    i += 1;
    while i < b.len() {
        if b[i] == '\n' {
            line += 1;
            i += 1;
        } else if !raw && b[i] == '\\' {
            i += 2;
        } else if b[i] == quote {
            // Raw strings close only when followed by the right number of
            // hashes.
            let mut j = i + 1;
            let mut seen = 0;
            while seen < hashes && j < b.len() && b[j] == '#' {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return (j, line);
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    (i, line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_are_not_tokens() {
        let l = lex("let x = 1; // unwrap() here is a comment\n/* panic! */ let y;");
        assert!(idents("let x = 1; // unwrap()").contains(&"x".to_string()));
        assert!(!l.toks.iter().any(|t| t.is_ident("unwrap")));
        assert!(!l.toks.iter().any(|t| t.is_ident("panic")));
        assert_eq!(l.comments.len(), 2);
        assert!(l.comments[0].text.contains("unwrap"));
    }

    #[test]
    fn strings_hide_their_contents() {
        let l = lex(r#"let s = "call .unwrap() now"; let r = r"panic!";"#);
        assert!(!l.toks.iter().any(|t| t.is_ident("unwrap")));
        assert!(!l.toks.iter().any(|t| t.is_ident("panic")));
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Str).count(), 2);
    }

    #[test]
    fn raw_string_with_hashes_and_quotes() {
        let l = lex(r###"let s = r#"has "quotes" and unwrap()"#; next"###);
        assert!(!l.toks.iter().any(|t| t.is_ident("unwrap")));
        assert!(l.toks.iter().any(|t| t.is_ident("next")));
    }

    #[test]
    fn raw_string_with_two_or_more_hashes() {
        // The terminator must match the opener's hash count exactly: the
        // embedded `"#` must not close an `r##"…"##` string.
        let l = lex(r####"let s = r##"inner "# quote and panic!()"##; after"####);
        assert!(!l.toks.iter().any(|t| t.is_ident("panic")));
        assert!(l.toks.iter().any(|t| t.is_ident("after")));
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);

        // Three hashes, multi-line body, with a fake two-hash closer inside.
        let src = "let s = r###\"line one \"## not done\nline two panic!()\"###; tail";
        let l = lex(src);
        assert!(!l.toks.iter().any(|t| t.is_ident("panic")));
        let tail = l.toks.iter().find(|t| t.is_ident("tail")).expect("tail");
        assert_eq!(tail.line, 2, "raw string newlines still count lines");
    }

    #[test]
    fn nested_block_comments_containing_quotes() {
        // An unbalanced quote inside a nested block comment must not put
        // the lexer into string mode; nesting still closes correctly.
        let l = lex("/* outer \" /* inner \"unclosed */ still \" comment */ ident");
        assert_eq!(l.toks.len(), 1, "{:?}", l.toks);
        assert!(l.toks[0].is_ident("ident"));

        // And a comment whose quotes *look* balanced around an unwrap()
        // must still hide it.
        let l = lex("/* \"x\" .unwrap() /* \"y\" */ */ let a = 1;");
        assert!(!l.toks.iter().any(|t| t.is_ident("unwrap")));
        assert!(l.toks.iter().any(|t| t.is_ident("a")));
    }

    #[test]
    fn lifetime_vs_char_in_generic_bounds() {
        // `T: 'a` in a bound is a lifetime, not an unterminated char; a
        // real char literal in the default expression stays a Str.
        let l = lex("struct S<'a, T: 'a + Clone, const C: char = 'x'> { r: &'a T }");
        let lifetimes: Vec<&str> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        // Lifetime tokens carry the name without the leading tick.
        assert_eq!(lifetimes, vec!["a", "a", "a"], "{:?}", l.toks);
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);

        // `<'static>` and a char right after a generic close.
        let l = lex("fn f() -> Box<dyn Any + 'static> { let c = 'z'; }");
        assert_eq!(
            l.toks
                .iter()
                .filter(|t| t.kind == TokKind::Lifetime)
                .count(),
            1
        );
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(
            l.toks
                .iter()
                .filter(|t| t.kind == TokKind::Lifetime)
                .count(),
            2
        );
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Str).count(), 2);
    }

    #[test]
    fn line_numbers_track_newlines() {
        let l = lex("a\nb\n  c");
        let lines: Vec<usize> = l.toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ still comment */ ident");
        assert_eq!(l.toks.len(), 1);
        assert!(l.toks[0].is_ident("ident"));
    }

    #[test]
    fn numbers_including_float_methods() {
        // `1.0e6` is one number; `x.0` is field access (two tokens + dot).
        let l = lex("let a = 1.0e6; let b = x.0;");
        assert!(l
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Num && t.text == "1.0e6"));
    }

    #[test]
    fn multiline_block_comment_lines() {
        let l = lex("/* a\n b lint: allow(panic) — x\n c */ z");
        assert_eq!(l.comments.len(), 3);
        assert_eq!(l.comments[1].line, 2);
        assert!(l.comments[1].text.contains("allow(panic)"));
        assert_eq!(l.toks[0].line, 3);
    }
}
