//! Minimal hand-rolled JSON emission.
//!
//! The workspace deliberately carries no `serde_json` (the build
//! environment is offline; see `shims/README.md`), and every JSON
//! artifact in the repo — bench reports, the admin plane — is emitted by
//! hand. This module centralises the two fiddly parts: string escaping
//! and comma placement.

/// Append `s` to `out` with JSON string escaping applied (quotes are NOT
/// added by this function).
pub(crate) fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Render `v` as a JSON number (JSON has no NaN/Inf; both become 0).
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Incremental builder for one JSON object.
///
/// # Example
///
/// ```
/// use prism_obs::json::JsonObject;
///
/// let mut obj = JsonObject::new();
/// obj.number("a", 1u64);
/// obj.string("b", "x\"y");
/// assert_eq!(obj.finish(), r#"{"a":1,"b":"x\"y"}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
    any: bool,
}

impl JsonObject {
    /// Start an empty object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, key: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        self.buf.push('"');
        escape_into(key, &mut self.buf);
        self.buf.push_str("\":");
    }

    /// Add an unsigned integer field.
    pub fn number(&mut self, key: &str, value: u64) {
        self.key(key);
        self.buf.push_str(&value.to_string());
    }

    /// Add a float field (NaN/Inf rendered as 0).
    pub fn float(&mut self, key: &str, value: f64) {
        self.key(key);
        self.buf.push_str(&fmt_f64(value));
    }

    /// Add a boolean field.
    pub fn boolean(&mut self, key: &str, value: bool) {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
    }

    /// Add a string field (escaped and quoted).
    pub fn string(&mut self, key: &str, value: &str) {
        self.key(key);
        self.buf.push('"');
        escape_into(value, &mut self.buf);
        self.buf.push('"');
    }

    /// Add a field whose value is already-rendered JSON (an object, an
    /// array, `null`).
    pub fn raw(&mut self, key: &str, json: &str) {
        self.key(key);
        self.buf.push_str(json);
    }

    /// Close the object and return the rendered JSON.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        let mut out = String::new();
        escape_into("a\"b\\c\nd\te\u{1}", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn object_builder_places_commas() {
        let mut obj = JsonObject::new();
        obj.number("n", 7);
        obj.float("f", 1.5);
        obj.boolean("b", true);
        obj.raw("r", "[1,2]");
        assert_eq!(obj.finish(), r#"{"n":7,"f":1.5,"b":true,"r":[1,2]}"#);
        assert_eq!(JsonObject::new().finish(), "{}");
    }

    #[test]
    fn non_finite_floats_render_as_zero() {
        assert_eq!(fmt_f64(f64::NAN), "0");
        assert_eq!(fmt_f64(2.25), "2.25");
    }
}
