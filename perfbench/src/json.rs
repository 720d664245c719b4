//! JSON output over `mitts_sim::obs::json`: its `JsonValue` is the
//! document model, its escaper writes every string, and its parser reads
//! everything back (rep results from child processes, saved reports,
//! `BENCHMARK.json`).

use std::fmt::Write as _;

use mitts_sim::obs::json::{self, JsonValue};

use crate::workload::{Metrics, Rep};

/// Renders `v` as compact JSON text. Numbers print with every digit Rust's
/// shortest round-trip formatting gives; a non-finite number, which JSON
/// cannot hold, becomes `null`.
pub fn render(v: &JsonValue) -> String {
    let mut out = String::new();
    write_value(v, &mut out);
    out
}

fn write_value(v: &JsonValue, out: &mut String) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Num(n) if n.is_finite() => {
            let _ = write!(out, "{n}");
        }
        JsonValue::Num(_) => out.push_str("null"),
        JsonValue::Str(s) => json::push_escaped(out, s),
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value(item, out);
            }
            out.push(']');
        }
        JsonValue::Obj(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                json::push_escaped(out, k);
                out.push_str(": ");
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

/// An object from key/value pairs.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
    JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A number.
pub fn num(v: f64) -> JsonValue {
    JsonValue::Num(v)
}

/// A string.
pub fn string(s: &str) -> JsonValue {
    JsonValue::Str(s.to_owned())
}

/// `metrics` as an object of numbers.
pub fn metrics(m: &Metrics) -> JsonValue {
    obj(m.iter().map(|(k, v)| (k.clone(), num(*v))))
}

/// The object of numbers `v`, read back into metrics.
pub fn read_metrics(v: Option<&JsonValue>) -> Result<Metrics, String> {
    match v {
        Some(JsonValue::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|x| (k.clone(), x))
                    .ok_or_else(|| format!("{k} is not a number"))
            })
            .collect(),
        _ => Err("expected an object of numbers".to_owned()),
    }
}

/// The number at `key` of object `v`.
pub fn field(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing number {key:?}"))
}

impl Rep {
    /// The rep as one JSON object.
    pub fn to_json(&self) -> JsonValue {
        obj([
            ("ops", num(self.ops as f64)),
            ("failed_ops", num(self.failed_ops as f64)),
            ("digest", string(&self.digest)),
            ("setup_s", num(self.setup_s)),
            ("cpu_s", num(self.cpu_s)),
            ("wall_s", num(self.wall_s)),
            ("peak_rss_mib", num(self.peak_rss_mib)),
            ("cycles", num(self.cycles as f64)),
            ("exact", metrics(&self.exact)),
            ("layers", metrics(&self.layers)),
        ])
    }

    /// Reads a rep written by [`Rep::to_json`].
    pub fn from_json(v: &JsonValue) -> Result<Rep, String> {
        let whole = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing count {key:?}"))
        };
        Ok(Rep {
            ops: whole("ops")?,
            failed_ops: whole("failed_ops")?,
            digest: v
                .get("digest")
                .and_then(JsonValue::as_str)
                .ok_or("missing digest")?
                .to_owned(),
            setup_s: field(v, "setup_s")?,
            cpu_s: field(v, "cpu_s")?,
            wall_s: field(v, "wall_s")?,
            peak_rss_mib: field(v, "peak_rss_mib")?,
            cycles: whole("cycles")?,
            exact: read_metrics(v.get("exact"))?,
            layers: read_metrics(v.get("layers"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_documents_parse_back_unchanged() {
        let doc = obj([
            (
                "name",
                string("quote \" backslash \\ newline \n tab \t bell \u{7}"),
            ),
            ("small", num(1.2034e-7)),
            ("big", num(123456789012345.0)),
            ("whole", num(1000.0)),
            ("neg", num(-0.5)),
            ("flag", JsonValue::Bool(true)),
            ("none", JsonValue::Null),
            (
                "list",
                JsonValue::Arr(vec![
                    num(1.0),
                    obj([("k", string("v"))]),
                    JsonValue::Arr(vec![]),
                ]),
            ),
            ("empty", obj(Vec::<(String, JsonValue)>::new())),
        ]);
        let text = render(&doc);
        assert_eq!(json::parse(&text).expect("parses"), doc);
        assert!(
            text.contains("\"whole\": 1000,"),
            "whole numbers print without a fraction: {text}"
        );
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(render(&num(f64::NAN)), "null");
        assert_eq!(render(&num(f64::INFINITY)), "null");
    }

    #[test]
    fn reps_round_trip() {
        let rep = Rep {
            ops: 15,
            failed_ops: 1,
            digest: "fnv64:0123456789abcdef".to_owned(),
            setup_s: 0.000_731_5,
            cpu_s: 1.234_567_891,
            wall_s: 1.3,
            peak_rss_mib: 12.5,
            cycles: 169_000_123,
            exact: [("system.ticks".to_owned(), 42.0)].into(),
            layers: [("sched.pick_ns".to_owned(), 31.25)].into(),
        };
        let text = render(&rep.to_json());
        let back = Rep::from_json(&json::parse(&text).expect("parses")).expect("reads");
        assert_eq!(back, rep);
    }
}
