//! A JSON writer: the result line and the files under `benchmark/out/`.
//! (No serialisation crate resolves offline.)

use std::fmt::Write;

pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Appends a field; `self` must be an object.
    pub fn insert(&mut self, key: &str, value: Json) {
        match self {
            Json::Obj(fields) => fields.push((key.to_owned(), value)),
            _ => panic!("insert into a JSON value that is not an object"),
        }
    }

    /// One line, for the result object.
    pub fn render_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Indented, one field per line down to the second level.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        // Below the second level everything goes on one line.
        let inner = indent.filter(|&d| d < 2).map(|d| d + 1);
        let sep = |out: &mut String, first: bool, depth: Option<usize>| {
            if !first {
                out.push(',');
            }
            match depth {
                Some(d) => {
                    out.push('\n');
                    out.push_str(&"  ".repeat(d));
                }
                None if !first => out.push(' '),
                None => {}
            }
        };
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // `{}` prints the shortest digits that read back exactly; a
            // whole number prints without a fraction.
            Json::Num(n) if n.is_finite() => write!(out, "{n}").expect("write to String"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            write!(out, "\\u{:04x}", c as u32).expect("write to String")
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    sep(out, i == 0, inner);
                    item.write(out, inner);
                }
                if inner.is_some() && !items.is_empty() {
                    sep(out, true, indent);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    sep(out, i == 0, inner);
                    Json::Str(k.clone()).write(out, None);
                    out.push_str(": ");
                    v.write(out, inner);
                }
                if inner.is_some() && !fields.is_empty() {
                    sep(out, true, indent);
                }
                out.push('}');
            }
        }
    }
}
