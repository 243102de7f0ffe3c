//! Escaping and unescaping of XML character data and attribute values.
//!
//! The escapable characters are all ASCII, so escaping scans bytes and
//! copies the unescaped runs between them as whole slices.

/// The entity for byte `b`, if it must be escaped (`quote`: in a
/// double-quoted attribute value, where `"` is escaped too).
fn entity(b: u8, quote: bool) -> Option<&'static str> {
    match b {
        b'&' => Some("&amp;"),
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'"' if quote => Some("&quot;"),
        _ => None,
    }
}

fn push_escaped(out: &mut String, s: &str, quote: bool) {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        if let Some(e) = entity(b, quote) {
            out.push_str(&s[start..i]);
            out.push_str(e);
            start = i + 1;
        }
    }
    out.push_str(&s[start..]);
}

fn escaped_len(s: &str, quote: bool) -> usize {
    s.len()
        + s.bytes()
            .filter_map(|b| entity(b, quote))
            .map(|e| e.len() - 1)
            .sum::<usize>()
}

/// Escape text content: `&`, `<`, `>` are replaced by entities.
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped_text(&mut out, s);
    out
}

/// Escape an attribute value (double-quoted): also escapes `"`.
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped_attr(&mut out, s);
    out
}

/// Append [`escape_text`]`(s)` to `out` without an intermediate string.
pub fn push_escaped_text(out: &mut String, s: &str) {
    push_escaped(out, s, false);
}

/// Append [`escape_attr`]`(s)` to `out` without an intermediate string.
pub fn push_escaped_attr(out: &mut String, s: &str) {
    push_escaped(out, s, true);
}

/// Number of bytes `escape_text(s)` would produce, without allocating.
pub fn escaped_text_len(s: &str) -> usize {
    escaped_len(s, false)
}

/// Number of bytes `escape_attr(s)` would produce, without allocating.
pub fn escaped_attr_len(s: &str) -> usize {
    escaped_len(s, true)
}

/// Resolve one entity (the text between `&` and `;`). Supports the five
/// predefined entities and decimal/hex character references.
pub fn resolve_entity(name: &str) -> Option<char> {
    match name {
        "amp" => Some('&'),
        "lt" => Some('<'),
        "gt" => Some('>'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        _ => {
            let code =
                if let Some(hex) = name.strip_prefix("#x").or_else(|| name.strip_prefix("#X")) {
                    u32::from_str_radix(hex, 16).ok()?
                } else if let Some(dec) = name.strip_prefix('#') {
                    dec.parse::<u32>().ok()?
                } else {
                    return None;
                };
            char::from_u32(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_text() {
        assert_eq!(escape_text("a<b&c>d"), "a&lt;b&amp;c&gt;d");
        assert_eq!(escape_text("plain"), "plain");
        assert_eq!(escape_text(r#"quote " stays"#), r#"quote " stays"#);
    }

    #[test]
    fn escapes_attr() {
        assert_eq!(escape_attr(r#"a"b<c"#), "a&quot;b&lt;c");
    }

    #[test]
    fn escaped_len_matches() {
        for s in ["", "plain", "a<b&c>d", "ünïcode <&>", "\"q\"", "'&'"] {
            assert_eq!(escaped_text_len(s), escape_text(s).len(), "{s:?}");
            assert_eq!(escaped_attr_len(s), escape_attr(s).len(), "{s:?}");
        }
    }

    #[test]
    fn entities_resolve() {
        assert_eq!(resolve_entity("amp"), Some('&'));
        assert_eq!(resolve_entity("lt"), Some('<'));
        assert_eq!(resolve_entity("gt"), Some('>'));
        assert_eq!(resolve_entity("quot"), Some('"'));
        assert_eq!(resolve_entity("apos"), Some('\''));
        assert_eq!(resolve_entity("#65"), Some('A'));
        assert_eq!(resolve_entity("#x41"), Some('A'));
        assert_eq!(resolve_entity("#x1F600"), Some('😀'));
        assert_eq!(resolve_entity("bogus"), None);
        assert_eq!(resolve_entity("#xZZ"), None);
        assert_eq!(resolve_entity("#xD800"), None, "surrogates are invalid");
    }
}
