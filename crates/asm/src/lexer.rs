//! Line-level tokenization: comments, labels, mnemonics, operands.
//!
//! Every token borrows its text from the source, so lexing a line
//! allocates nothing (an uppercase mnemonic is the one exception: it
//! is lowercased into a string of its own).

use std::borrow::Cow;

use crate::error::AsmError;

/// One meaningful source line, after comment stripping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Line<'a> {
    /// 1-based source line number.
    pub num: usize,
    /// The label definitions at the start of the line (`foo: bar:`),
    /// each already checked to be a valid name.
    labels: &'a str,
    /// The statement, if any.
    pub stmt: Option<Stmt<'a>>,
}

impl<'a> Line<'a> {
    /// The labels defined at the start of this line, in source order.
    pub fn labels(&self) -> impl Iterator<Item = &'a str> {
        self.labels.split(':').map(trim).filter(|name| !name.is_empty())
    }
}

/// A directive or instruction with raw operand strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Stmt<'a> {
    /// Lower-cased mnemonic or directive (directives keep their `.`).
    pub head: Cow<'a, str>,
    /// The comma-separated operands.
    pub operands: Operands<'a>,
}

/// The operand list of a statement: its source text and the number of
/// operands in it, none of them empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Operands<'a> {
    text: &'a str,
    len: usize,
}

impl<'a> Operands<'a> {
    /// Number of operands.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The operand texts, trimmed, in source order.
    pub fn iter(&self) -> impl Iterator<Item = &'a str> {
        // `take` makes an empty text yield nothing rather than "".
        split_operands(self.text).take(self.len)
    }
}

/// The comma-separated pieces of `text`, trimmed.
fn split_operands(text: &str) -> impl Iterator<Item = &str> {
    let mut rest = Some(text);
    std::iter::from_fn(move || {
        let text = rest?;
        let (piece, tail) = match find_byte(text, b',') {
            Some(comma) => (&text[..comma], Some(&text[comma + 1..])),
            None => (text, None),
        };
        rest = tail;
        Some(trim(piece))
    })
}

/// Byte offset of the first `byte`, an ASCII byte, in `s`. A byte loop
/// beats `str::find` on lines this short.
fn find_byte(s: &str, byte: u8) -> Option<usize> {
    s.bytes().position(|b| b == byte)
}

/// True for the ASCII characters `char::is_whitespace` accepts: `u8`'s
/// own test leaves out the vertical tab.
fn is_ascii_space(b: u8) -> bool {
    b.is_ascii_whitespace() || b == 0x0b
}

/// `s.trim()`, by bytes: `str::trim` runs only when an edge byte left
/// after the ASCII whitespace is not ASCII (it may start or end a
/// Unicode space).
#[inline]
fn trim(s: &str) -> &str {
    let bytes = s.as_bytes();
    let (mut start, mut end) = (0, bytes.len());
    while start < end && is_ascii_space(bytes[start]) {
        start += 1;
    }
    while end > start && is_ascii_space(bytes[end - 1]) {
        end -= 1;
    }
    if start < end && !(bytes[start].is_ascii() && bytes[end - 1].is_ascii()) {
        return s[start..end].trim();
    }
    &s[start..end]
}

/// Byte offset of the first whitespace character in `s`, as
/// `s.find(char::is_whitespace)` but scanning bytes until the first
/// non-ASCII character.
fn find_whitespace(s: &str) -> Option<usize> {
    let pos = s.bytes().position(|b| is_ascii_space(b) || !b.is_ascii())?;
    if s.as_bytes()[pos].is_ascii() {
        Some(pos)
    } else {
        s[pos..].find(char::is_whitespace).map(|i| pos + i)
    }
}

fn valid_label(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Splits source text into [`Line`]s. Blank/comment-only lines are
/// dropped.
pub(crate) fn lex(src: &str) -> Result<Vec<Line<'_>>, AsmError> {
    let mut lines = Vec::new();
    let bytes = src.as_bytes();
    let (mut start, mut num) = (0, 0);
    while start < bytes.len() {
        num += 1;
        // One pass over the line finds its end, its comment, and
        // whether a label precedes the comment. A `\r` before the `\n`
        // goes with the trim, as `str::lines` would drop it.
        let (mut end, mut code_end, mut labelled) = (start, None, false);
        while end < bytes.len() && bytes[end] != b'\n' {
            match bytes[end] {
                b';' => code_end = code_end.or(Some(end)),
                b':' => labelled |= code_end.is_none(),
                _ => {}
            }
            end += 1;
        }
        let text = trim(&src[start..code_end.unwrap_or(end)]);
        start = end + 1;
        if text.is_empty() {
            continue;
        }
        // Labels must appear before the statement: `name:`. There is
        // no other use of ':' in the grammar, so a malformed label is
        // an error.
        let mut labels_end = 0;
        while let Some(colon) = labelled.then(|| find_byte(&text[labels_end..], b':')).flatten() {
            let candidate = trim(&text[labels_end..labels_end + colon]);
            if !valid_label(candidate) {
                return Err(AsmError::new(num, format!("invalid label name `{candidate}`")));
            }
            labels_end += colon + 1;
        }
        // `text` ends in a non-space, so this trims only the start.
        let rest = trim(&text[labels_end..]);
        let stmt = if rest.is_empty() {
            None
        } else {
            let (head, tail) = match find_whitespace(rest) {
                Some(pos) => (&rest[..pos], trim(&rest[pos..])),
                None => (rest, ""),
            };
            let mut len = 0;
            if !tail.is_empty() {
                for op in split_operands(tail) {
                    if op.is_empty() {
                        return Err(AsmError::new(num, "empty operand (stray comma?)"));
                    }
                    len += 1;
                }
            }
            let operands = Operands { text: tail, len };
            let head = if head.bytes().any(|b| b.is_ascii_uppercase()) {
                Cow::Owned(head.to_ascii_lowercase())
            } else {
                Cow::Borrowed(head)
            };
            Some(Stmt { head, operands })
        };
        lines.push(Line { num, labels: &text[..labels_end], stmt });
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(src: &str) -> Line<'_> {
        let mut v = lex(src).unwrap();
        assert_eq!(v.len(), 1);
        v.remove(0)
    }

    fn labels<'a>(line: &Line<'a>) -> Vec<&'a str> {
        line.labels().collect()
    }

    fn operands<'a>(stmt: &Stmt<'a>) -> Vec<&'a str> {
        stmt.operands.iter().collect()
    }

    #[test]
    fn comments_and_blanks_dropped() {
        assert!(lex("; just a comment\n\n   \n").unwrap().is_empty());
    }

    #[test]
    fn label_and_instruction() {
        let line = one("main: li r1, #3 ; init");
        assert_eq!(labels(&line), ["main"]);
        let stmt = line.stmt.unwrap();
        assert_eq!(stmt.head, "li");
        assert_eq!(operands(&stmt), ["r1", "#3"]);
        assert_eq!(stmt.operands.len(), 2);
    }

    #[test]
    fn multiple_labels_one_line() {
        let line = one("a: b: halt");
        assert_eq!(labels(&line), ["a", "b"]);
        assert_eq!(line.stmt.unwrap().head, "halt");
        assert_eq!(labels(&one("a:b :c: nop")), ["a", "b", "c"]);
    }

    #[test]
    fn bare_label_line() {
        let line = one("start:");
        assert_eq!(labels(&line), ["start"]);
        assert!(line.stmt.is_none());
    }

    #[test]
    fn mnemonics_lowercased() {
        assert_eq!(one("HALT").stmt.unwrap().head, "halt");
        assert!(matches!(one("halt").stmt.unwrap().head, Cow::Borrowed("halt")));
    }

    #[test]
    fn operand_free_statements_have_none() {
        let stmt = one("halt   ").stmt.unwrap();
        assert_eq!(stmt.operands.len(), 0);
        assert!(operands(&stmt).is_empty());
    }

    #[test]
    fn invalid_label_rejected() {
        assert!(lex("3x: halt").is_err());
        assert!(lex(" : halt").is_err());
    }

    #[test]
    fn stray_comma_rejected() {
        let err = lex("add r1, , r2").unwrap_err();
        assert!(err.to_string().contains("empty operand"));
    }

    #[test]
    fn line_numbers_track_source() {
        let lines = lex("\n\nhalt\n\nnop").unwrap();
        assert_eq!(lines[0].num, 3);
        assert_eq!(lines[1].num, 5);
    }

    #[test]
    fn whitespace_is_found_as_char_is_whitespace_finds_it() {
        for s in
            ["li r1", "li\tr1", "li\u{0b}r1", "li\u{a0}r1", "é\u{2028}x", "ünï cödé", "halt", ""]
        {
            assert_eq!(find_whitespace(s), s.find(char::is_whitespace), "{s:?}");
        }
    }

    #[test]
    fn trims_as_str_trim_does() {
        for s in [
            "",
            " ",
            "\t\u{0b}\u{0c}\r\n",
            "  li r1 ",
            "x",
            "\u{a0}x\u{a0}",
            " \u{85}é ",
            "é",
            " ü\u{2028}",
            "\u{3000} halt",
            "a\u{a0}b",
            " \u{1680}",
        ] {
            assert_eq!(trim(s), s.trim(), "{s:?}");
        }
    }

    #[test]
    fn memory_operand_survives_lexing() {
        let stmt = one("lw r1, 4(r2)").stmt.unwrap();
        assert_eq!(operands(&stmt), ["r1", "4(r2)"]);
    }
}
