//! The little JSON the benchmark needs: string escaping for what it
//! writes, and reading back the result line of a child run.

/// `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{name: {"value": …, "unit": …}, …}` — the `metrics` object of a
/// result line and of `RESULTS.json`.
pub fn metrics<'a>(metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let fields: Vec<String> = metrics
        .map(|(name, value, unit)| {
            format!("{}: {{\"value\": {value}, \"unit\": {}}}", string(name), string(unit))
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// A result line as [`crate::run::Outcome::to_json`] writes it.
#[derive(Debug, PartialEq)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
}

/// The text between `key` and the next `,` or `}`.
fn scalar<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(rest[..rest.find([',', '}'])?].trim())
}

/// Parses a result line. Only the shape this program writes is
/// understood: metric names and units hold no quotes or braces.
pub fn parse_result(line: &str) -> Option<ResultLine> {
    let correct = scalar(line, "\"correct\":")?.parse().ok()?;
    let attempted = scalar(line, "\"attempted\":")?.parse().ok()?;
    let failed = scalar(line, "\"failed\":")?.parse().ok()?;
    let mut rest = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    let mut metrics = Vec::new();
    while let Some(open) = rest.find(": {") {
        let name = rest[..open].trim_matches([' ', ',', '"']).to_string();
        let body = &rest[open..rest[open..].find('}')? + open + 1];
        let value = scalar(body, "\"value\":")?.parse().ok()?;
        let unit = scalar(body, "\"unit\":")?.trim_matches('"').to_string();
        metrics.push((name, value, unit));
        rest = &rest[open + body.len()..];
    }
    Some(ResultLine { correct, attempted, failed, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Outcome;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn result_lines_round_trip() {
        let o = Outcome {
            correct: true,
            attempted: 123,
            failed: 0,
            metrics: vec![
                ("ops_per_s", 1534.25, "calls/s"),
                ("gf256.xor_gbps_4k", 0.000012, "GB/s"),
            ],
        };
        let parsed = parse_result(&o.to_json()).unwrap();
        assert_eq!((parsed.correct, parsed.attempted, parsed.failed), (true, 123, 0));
        assert_eq!(
            parsed.metrics,
            vec![
                ("ops_per_s".to_string(), 1534.25, "calls/s".to_string()),
                ("gf256.xor_gbps_4k".to_string(), 0.000012, "GB/s".to_string()),
            ]
        );
        assert!(parse_result("{\"correct\": maybe}").is_none());
        let empty = Outcome { correct: false, attempted: 1, failed: 1, metrics: vec![] };
        assert_eq!(parse_result(&empty.to_json()).unwrap().metrics, vec![]);
    }
}
