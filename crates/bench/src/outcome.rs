//! What an experiment returns, the one result schema, and the gate's
//! comparison.
//!
//! Every experiment returns an [`Outcome`]: its matrices (written as TSVs)
//! plus an ordered list of named scalars. Scalars are written by
//! [`bench_json`] as `results/BENCH_<name>.json`, a flat JSON object with
//! `"scale"` first and one `"key": value` per line; [`parse_bench_json`]
//! reads that format back, and [`compare`] is the regression gate's check
//! of fresh scalars against committed ones.

use obs::export::json_escape;

use crate::util::{Matrix, Scale};

/// Relative drift a numeric metric may show before the gate fails.
pub const TOLERANCE: f64 = 0.10;
/// Absolute drift always allowed, so `0`-vs-small counters compare cleanly.
pub const ABS_SLACK: f64 = 2.0;

/// One scalar result.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An integer (counts, cycles).
    Int(i64),
    /// A float written with a fixed number (≥ 1) of decimals.
    Fixed(f64, usize),
    /// A verdict.
    Bool(bool),
    /// Free text.
    Str(String),
}

impl Value {
    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Fixed(v, _) => Some(*v),
            _ => None,
        }
    }

    /// The value as written to a result file.
    pub fn render(&self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::Fixed(v, decimals) => {
                assert!(v.is_finite(), "result values must be finite, got {v}");
                format!("{v:.decimals$}")
            }
            Value::Bool(b) => b.to_string(),
            Value::Str(s) => format!("\"{}\"", json_escape(s)),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(i64::try_from(v).expect("integer result fits in i64"))
    }
}

/// Everything one experiment produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Matrices, in the order of the experiment's TSV stems.
    pub matrices: Vec<Matrix>,
    /// Named scalars, in output order.
    pub scalars: Vec<(String, Value)>,
    /// Further files under `results/`: (file name, contents).
    pub files: Vec<(String, String)>,
    /// Self-check failures: outputs are still written, then the run fails.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Appends one scalar.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        self.scalars.push((key.into(), value.into()));
    }

    /// Appends a float written with `decimals` decimals.
    pub fn fixed(&mut self, key: impl Into<String>, value: f64, decimals: usize) {
        self.push(key, Value::Fixed(value, decimals));
    }
}

impl<const N: usize> From<[Matrix; N]> for Outcome {
    fn from(matrices: [Matrix; N]) -> Self {
        Self {
            matrices: matrices.into(),
            ..Self::default()
        }
    }
}

/// Renders scalars as a `BENCH_<name>.json` document.
pub fn bench_json(scale: Scale, scalars: &[(String, Value)]) -> String {
    let scale = ("scale".to_owned(), Value::Str(scale.name().to_owned()));
    flat_json(&[&[scale], scalars].concat())
}

/// Renders scalars as a flat JSON object, one `"key": value` per line.
pub fn flat_json(scalars: &[(String, Value)]) -> String {
    let lines: Vec<String> = scalars
        .iter()
        .map(|(k, v)| format!("  \"{}\": {}", json_escape(k), v.render()))
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// Reads a document written by [`bench_json`] back into `(key, value)`
/// pairs, `"scale"` included.
///
/// # Errors
///
/// Names the offending line when the input is not in that format.
pub fn parse_bench_json(text: &str) -> Result<Vec<(String, Value)>, String> {
    let body = text
        .trim()
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or("not a JSON object")?;
    let mut out = Vec::new();
    for line in body.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let bad = || format!("malformed line `{line}`");
        let entry = line.strip_suffix(',').unwrap_or(line);
        let (key, rest) = parse_string(entry).ok_or_else(bad)?;
        let raw = rest.trim_start().strip_prefix(':').ok_or_else(bad)?.trim();
        let value = match raw {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            _ if raw.starts_with('"') => match parse_string(raw) {
                Some((s, "")) => Value::Str(s),
                _ => return Err(bad()),
            },
            _ => match raw.split_once('.') {
                Some((_, frac)) if !frac.is_empty() => {
                    Value::Fixed(raw.parse().map_err(|_| bad())?, frac.len())
                }
                Some(_) => return Err(bad()),
                None => Value::Int(raw.parse().map_err(|_| bad())?),
            },
        };
        out.push((key, value));
    }
    Ok(out)
}

/// Parses one leading JSON string, returning it unescaped and the rest.
fn parse_string(s: &str) -> Option<(String, &str)> {
    let mut chars = s.strip_prefix('"')?.char_indices();
    let mut out = String::new();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &s[i + 2..])),
            '\\' => out.push(match chars.next()?.1 {
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                'u' => {
                    let hex: String = (0..4)
                        .filter_map(|_| chars.next())
                        .map(|(_, c)| c)
                        .collect();
                    char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?
                }
                c => c,
            }),
            c => out.push(c),
        }
    }
    None
}

/// Compares fresh scalars against committed ones (both with `"scale"`),
/// returning how many metrics were compared and every violation.
///
/// Numbers may drift by ±[`TOLERANCE`] or [`ABS_SLACK`], whichever is
/// larger; booleans and strings must match exactly. A key present on only
/// one side is schema drift and fails, as does a scale mismatch.
pub fn compare(
    name: &str,
    committed: &[(String, Value)],
    fresh: &[(String, Value)],
) -> (usize, Vec<String>) {
    fn get<'a>(set: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
        set.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
    let scale = |set| get(set, "scale").map_or("none".to_owned(), Value::render);
    if scale(committed) != scale(fresh) {
        let (now, was) = (scale(fresh), scale(committed));
        let msg = format!("{name}: produced at scale {now} but committed at {was}");
        return (0, vec![msg]);
    }
    let mut compared = 0;
    let mut violations = Vec::new();
    for (key, base) in committed.iter().filter(|(k, _)| k != "scale") {
        let Some(cur) = get(fresh, key) else {
            violations.push(format!("{name}.{key}: committed but no longer produced"));
            continue;
        };
        compared += 1;
        match (base.as_f64(), cur.as_f64()) {
            (Some(b), Some(c)) => {
                let allowed = (TOLERANCE * b.abs()).max(ABS_SLACK);
                if (c - b).abs() > allowed {
                    let pct = |x: f64| 100.0 * x / b.abs().max(f64::MIN_POSITIVE);
                    violations.push(format!(
                        "{name}.{key}: {c} vs committed {b} ({:+.1}%, allowed ±{:.1}%)",
                        pct(c - b),
                        pct(allowed)
                    ));
                }
            }
            _ if base != cur => violations.push(format!(
                "{name}.{key}: {} vs committed {}",
                cur.render(),
                base.render()
            )),
            _ => {}
        }
    }
    for (key, _) in fresh {
        if get(committed, key).is_none() {
            violations.push(format!(
                "{name}.{key}: new key, not in the committed results"
            ));
        }
    }
    (compared, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_and_reader_round_trip() {
        let text = "a \"quoted\", b\\c\nnext\tline }\u{1}";
        let scalars: Vec<(String, Value)> = [
            ("count", Value::from(1_455_530_440u64)),
            ("neg", Value::Int(-3)),
            ("ratio", Value::Fixed(39.129, 3)),
            ("pct", Value::Fixed(0.004, 4)),
            ("tiny", Value::Fixed(-0.5, 1)),
            ("healthy.ok", Value::Bool(true)),
            ("irq_storm.ok", Value::Bool(false)),
            ("text", Value::Str(text.into())),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
        let json = bench_json(Scale::Quick, &scalars);
        assert!(json.starts_with("{\n  \"scale\": \"quick\",\n  \"count\": 1455530440,\n"));
        assert!(json.contains("\n  \"pct\": 0.0040,\n"));
        assert!(obs::export::json_balanced(&json));
        assert_eq!(json.lines().count(), scalars.len() + 3, "one key per line");
        let back = parse_bench_json(&json).unwrap();
        assert_eq!(back[0], ("scale".to_owned(), Value::Str("quick".into())));
        assert_eq!(back[1..], scalars[..]);
        for bad in [
            "{\n  \"a\": 1.\n}",
            "{\n  \"a\" 1\n}",
            "{\n  \"a\": \"b\n}",
            "[1]",
        ] {
            assert!(parse_bench_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn gate_applies_tolerance_slack_schema_and_scale_checks() {
        // A committed file, or a fresh one with `key` set to `value`
        // (an empty value drops the key).
        let base = [("c", "1000"), ("z", "0"), ("ok", "true")];
        let file = |scale: &str, key: &str, value: &str| {
            let mut pairs: Vec<(&str, &str)> = base.to_vec();
            pairs.retain(|(k, _)| *k != key);
            pairs.extend((!value.is_empty()).then_some((key, value)));
            let lines: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            let text = format!("{{\n\"scale\": \"{scale}\",\n{}\n}}", lines.join(",\n"));
            parse_bench_json(&text).unwrap()
        };
        let committed = file("quick", "", "");
        // (key, fresh value, expected violation prefix or "" for a pass)
        let cases = [
            ("c", "1099", ""),
            ("c", "901.0", ""),
            ("z", "2", ""),
            ("c", "1101", "x.c: 1101 vs committed 1000 (+10.1%"),
            ("c", "880.0", "x.c: 880 vs committed 1000 (-12.0%"),
            ("z", "3", "x.z: 3 vs committed 0"),
            ("ok", "false", "x.ok: false vs committed true"),
            ("z", "", "x.z: committed but no longer produced"),
            ("new", "1", "x.new: new key"),
        ];
        for (key, value, expected) in cases {
            let (compared, violations) = compare("x", &committed, &file("quick", key, value));
            assert_eq!(compared, 3 - value.is_empty() as usize, "{key}={value}");
            match expected {
                "" => assert!(violations.is_empty(), "{key}={value}: {violations:?}"),
                _ => {
                    assert_eq!(violations.len(), 1, "{key}={value}: {violations:?}");
                    assert!(violations[0].starts_with(expected), "{violations:?}");
                }
            }
        }
        let (compared, violations) = compare("x", &committed, &file("full", "", ""));
        assert_eq!(compared, 0);
        assert_eq!(
            violations,
            ["x: produced at scale \"full\" but committed at \"quick\""]
        );
    }
}
