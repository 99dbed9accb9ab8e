//! Exposition: Prometheus text-format rendering, a strict validator of
//! the name/label/type contract, and a flat-JSONL validator for the
//! periodic snapshot stream.
//!
//! Everything here is hand-rolled on purpose — the workspace vendors no
//! JSON or metrics crates, and the subset of both formats the suite
//! emits is small enough that a strict, readable validator doubles as
//! the format's documentation.

use crate::registry::{valid_label_name, valid_metric_name, Instrument, Registry};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Render a float the way Prometheus spells special values.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Render the registry in Prometheus text exposition format.
///
/// Families are sorted by name and label set, so the output is
/// independent of registration and merge order — the property the
/// `merge()` commutativity proptests assert on.
pub fn render_prometheus(reg: &Registry) -> String {
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, m) in reg.metrics().iter().enumerate() {
        by_name.entry(&m.name).or_default().push(i);
    }
    let mut out = String::new();
    for (name, mut idxs) in by_name {
        idxs.sort_by(|&a, &b| reg.metrics()[a].labels.cmp(&reg.metrics()[b].labels));
        let first = &reg.metrics()[idxs[0]];
        let _ = writeln!(out, "# HELP {name} {}", escape_help(&first.help));
        let _ = writeln!(out, "# TYPE {name} {}", first.inst.kind());
        for &i in &idxs {
            let m = &reg.metrics()[i];
            match &m.inst {
                Instrument::Counter(v) => {
                    let _ = writeln!(out, "{name}{} {v}", render_labels(&m.labels, None));
                }
                Instrument::Gauge(g) => {
                    let _ = writeln!(
                        out,
                        "{name}{} {}",
                        render_labels(&m.labels, None),
                        fmt_f64(*g)
                    );
                }
                Instrument::Histogram(h) => {
                    for (bound, cum) in h.cumulative_buckets() {
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {cum}",
                            render_labels(&m.labels, Some(("le", &fmt_f64(bound))))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{name}_bucket{} {}",
                        render_labels(&m.labels, Some(("le", "+Inf"))),
                        h.count()
                    );
                    let _ = writeln!(
                        out,
                        "{name}_sum{} {}",
                        render_labels(&m.labels, None),
                        fmt_f64(h.sum())
                    );
                    let _ = writeln!(
                        out,
                        "{name}_count{} {}",
                        render_labels(&m.labels, None),
                        h.count()
                    );
                }
            }
        }
    }
    out
}

fn parse_value(tok: &str) -> Result<f64, String> {
    match tok {
        "+Inf" | "Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        _ => tok
            .parse::<f64>()
            .map_err(|_| format!("bad sample value {tok:?}")),
    }
}

/// Parsed `k="v"` pairs of one sample line.
type Labels = Vec<(String, String)>;

/// Parse `{k="v",...}` starting after the `{`; returns the labels and
/// the rest of the line after the closing `}`.
fn parse_labels(s: &str) -> Result<(Labels, &str), String> {
    let mut labels = Vec::new();
    let mut rest = s;
    loop {
        rest = rest.trim_start_matches(' ');
        if let Some(r) = rest.strip_prefix('}') {
            return Ok((labels, r));
        }
        let eq = rest.find('=').ok_or("label without '='")?;
        let key = rest[..eq].trim().to_string();
        if !valid_label_name(&key) {
            return Err(format!("invalid label name {key:?}"));
        }
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or("label value must be quoted")?;
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let after_quote = loop {
            let (i, c) = chars.next().ok_or("unterminated label value")?;
            match c {
                '\\' => {
                    let (_, e) = chars.next().ok_or("dangling escape")?;
                    match e {
                        '\\' => value.push('\\'),
                        '"' => value.push('"'),
                        'n' => value.push('\n'),
                        other => return Err(format!("bad escape \\{other}")),
                    }
                }
                '"' => break i + 1,
                other => value.push(other),
            }
        };
        labels.push((key, value));
        rest = &rest[after_quote..];
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
        }
    }
}

struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name, rest) = match line.find(['{', ' ']) {
        Some(i) => (&line[..i], &line[i..]),
        None => return Err(format!("sample without value: {line:?}")),
    };
    if !valid_metric_name(name) {
        return Err(format!("invalid metric name {name:?}"));
    }
    let (labels, rest) = if let Some(r) = rest.strip_prefix('{') {
        parse_labels(r)?
    } else {
        (Vec::new(), rest)
    };
    let mut toks = rest.split_ascii_whitespace();
    let value = parse_value(
        toks.next()
            .ok_or_else(|| format!("{name}: missing value"))?,
    )?;
    // An optional trailing timestamp is allowed; anything further is not.
    if let Some(ts) = toks.next() {
        ts.parse::<i64>()
            .map_err(|_| format!("{name}: bad timestamp {ts:?}"))?;
    }
    if toks.next().is_some() {
        return Err(format!("{name}: trailing garbage"));
    }
    let mut labels = labels;
    labels.sort();
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

fn label_key(labels: &[(String, String)]) -> String {
    let mut s = String::new();
    for (k, v) in labels {
        let _ = write!(s, "{k}={v:?};");
    }
    s
}

/// Validate Prometheus text exposition output against the contract this
/// crate renders:
///
/// - metric and label names match the Prometheus grammar;
/// - every sample belongs to a family declared by a preceding `# TYPE`
///   line with a known type (`counter`, `gauge`, `histogram`);
/// - counter family names end in `_total`;
/// - no duplicate samples (same name and label set);
/// - histogram series are internally consistent: `le` bounds strictly
///   increasing, cumulative counts non-decreasing, a `+Inf` bucket is
///   present and equals the family's `_count` sample.
///
/// Returns the number of samples validated.
pub fn validate(text: &str) -> Result<usize, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut sampled_families: BTreeMap<String, bool> = BTreeMap::new();
    let mut seen: BTreeMap<String, ()> = BTreeMap::new();
    // (family, labels-without-le) -> [(le, cumulative)]
    let mut buckets: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    let mut counts: BTreeMap<(String, String), f64> = BTreeMap::new();
    let mut samples = 0usize;

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        let err = |msg: String| format!("line {}: {msg}", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut toks = rest.split_ascii_whitespace();
            let name = toks.next().ok_or_else(|| err("TYPE without name".into()))?;
            let kind = toks.next().ok_or_else(|| err("TYPE without type".into()))?;
            if !valid_metric_name(name) {
                return Err(err(format!("invalid TYPE name {name:?}")));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(err(format!("unknown type {kind:?}")));
            }
            if kind == "counter" && !name.ends_with("_total") {
                return Err(err(format!("counter {name} must end in _total")));
            }
            if sampled_families.contains_key(name) {
                return Err(err(format!("TYPE {name} after its samples")));
            }
            if types.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(err(format!("duplicate TYPE for {name}")));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_ascii_whitespace().next().unwrap_or("");
            if !valid_metric_name(name) {
                return Err(err(format!("invalid HELP name {name:?}")));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // free-form comment
        }

        let sample = parse_sample(line).map_err(err)?;
        samples += 1;
        let dup_key = format!("{} {}", sample.name, label_key(&sample.labels));
        if seen.insert(dup_key, ()).is_some() {
            return Err(format!(
                "line {}: duplicate sample {} {:?}",
                lineno + 1,
                sample.name,
                sample.labels
            ));
        }

        // Resolve the family: exact TYPE match, or a histogram series
        // suffix on a declared histogram family.
        let (family, suffix) = if types.contains_key(&sample.name) {
            (sample.name.clone(), "")
        } else {
            let stripped = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suf| sample.name.strip_suffix(suf).map(|f| (f.to_string(), *suf)));
            match stripped {
                Some((f, suf)) if types.get(&f).map(String::as_str) == Some("histogram") => {
                    (f, suf)
                }
                _ => {
                    return Err(format!(
                        "line {}: sample {} has no preceding # TYPE",
                        lineno + 1,
                        sample.name
                    ))
                }
            }
        };
        match types.get(&family).map(String::as_str) {
            Some("histogram") if suffix.is_empty() => {
                return Err(format!(
                    "line {}: histogram {family} exposed without _bucket/_sum/_count suffix",
                    lineno + 1
                ));
            }
            Some("counter") | Some("gauge") if !suffix.is_empty() => unreachable!(),
            _ => {}
        }
        sampled_families.insert(family.clone(), true);

        if suffix == "_bucket" {
            let mut le = None;
            let rest: Vec<(String, String)> = sample
                .labels
                .iter()
                .filter(|(k, v)| {
                    if k == "le" {
                        le = Some(v.clone());
                        false
                    } else {
                        true
                    }
                })
                .cloned()
                .collect();
            let le = le.ok_or_else(|| format!("line {}: _bucket without le", lineno + 1))?;
            let bound = parse_value(&le).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            buckets
                .entry((family.clone(), label_key(&rest)))
                .or_default()
                .push((bound, sample.value));
        } else if suffix == "_count" {
            counts.insert((family.clone(), label_key(&sample.labels)), sample.value);
        }
    }

    for ((family, labels), series) in &buckets {
        let mut prev_bound = f64::NEG_INFINITY;
        let mut prev_cum = -1.0;
        for &(bound, cum) in series {
            if bound <= prev_bound {
                return Err(format!("{family}{{{labels}}}: le bounds not increasing"));
            }
            if cum < prev_cum {
                return Err(format!(
                    "{family}{{{labels}}}: cumulative counts decreasing"
                ));
            }
            prev_bound = bound;
            prev_cum = cum;
        }
        let (last_bound, last_cum) = *series.last().expect("non-empty series");
        if last_bound != f64::INFINITY {
            return Err(format!("{family}{{{labels}}}: missing le=\"+Inf\" bucket"));
        }
        match counts.get(&(family.clone(), labels.clone())) {
            None => return Err(format!("{family}{{{labels}}}: missing _count sample")),
            Some(&c) if c != last_cum => {
                return Err(format!(
                    "{family}{{{labels}}}: +Inf bucket {last_cum} != _count {c}"
                ))
            }
            Some(_) => {}
        }
    }
    Ok(samples)
}

/// Escape a string for embedding in a JSON string literal (quotes not
/// included).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Parse one flat JSON object (string/number/bool/null values, no
/// nesting) into its keys. Strict enough for the snapshot lines this
/// workspace emits.
fn parse_flat_object(line: &str) -> Result<Vec<String>, String> {
    let mut chars = line.trim().char_indices().peekable();
    let s = line.trim();
    match chars.next() {
        Some((_, '{')) => {}
        _ => return Err("line does not start with '{'".into()),
    }
    let mut keys = Vec::new();
    loop {
        // Skip whitespace.
        while matches!(chars.peek(), Some(&(_, c)) if c.is_ascii_whitespace()) {
            chars.next();
        }
        match chars.peek() {
            Some(&(_, '}')) => {
                chars.next();
                break;
            }
            Some(&(_, '"')) => {}
            _ => return Err("expected key or '}'".into()),
        }
        chars.next(); // opening quote
        let mut key = String::new();
        loop {
            match chars.next() {
                Some((_, '\\')) => {
                    if let Some((_, e)) = chars.next() {
                        key.push(e);
                    } else {
                        return Err("dangling escape in key".into());
                    }
                }
                Some((_, '"')) => break,
                Some((_, c)) => key.push(c),
                None => return Err("unterminated key".into()),
            }
        }
        keys.push(key.clone());
        while matches!(chars.peek(), Some(&(_, c)) if c.is_ascii_whitespace()) {
            chars.next();
        }
        match chars.next() {
            Some((_, ':')) => {}
            _ => return Err(format!("key {key:?} without ':'")),
        }
        while matches!(chars.peek(), Some(&(_, c)) if c.is_ascii_whitespace()) {
            chars.next();
        }
        // Value: string, or a bare token up to ',' / '}'.
        match chars.peek() {
            Some(&(_, '"')) => {
                chars.next();
                loop {
                    match chars.next() {
                        Some((_, '\\')) => {
                            chars.next();
                        }
                        Some((_, '"')) => break,
                        Some(_) => {}
                        None => return Err(format!("unterminated string value for {key:?}")),
                    }
                }
            }
            Some(&(_, '{')) | Some(&(_, '[')) => {
                return Err(format!("nested value for {key:?} (flat objects only)"))
            }
            _ => {
                let start = chars.peek().map(|&(i, _)| i).ok_or("truncated value")?;
                let mut end = s.len();
                while let Some(&(i, c)) = chars.peek() {
                    if c == ',' || c == '}' {
                        end = i;
                        break;
                    }
                    chars.next();
                }
                let tok = s[start..end].trim();
                let ok = matches!(tok, "true" | "false" | "null") || tok.parse::<f64>().is_ok();
                if !ok {
                    return Err(format!("bad value {tok:?} for {key:?}"));
                }
            }
        }
        while matches!(chars.peek(), Some(&(_, c)) if c.is_ascii_whitespace()) {
            chars.next();
        }
        match chars.next() {
            Some((_, ',')) => continue,
            Some((_, '}')) => break,
            _ => return Err("expected ',' or '}'".into()),
        }
    }
    while matches!(chars.peek(), Some(&(_, c)) if c.is_ascii_whitespace()) {
        chars.next();
    }
    if chars.next().is_some() {
        return Err("trailing garbage after object".into());
    }
    Ok(keys)
}

/// Validate a JSONL snapshot stream: every non-empty line must parse as
/// a flat JSON object and contain all `required` keys. Returns the
/// number of lines validated.
pub fn validate_jsonl(text: &str, required: &[&str]) -> Result<usize, String> {
    let mut lines = 0usize;
    for (lineno, raw) in text.lines().enumerate() {
        if raw.trim().is_empty() {
            continue;
        }
        let keys = parse_flat_object(raw).map_err(|e| format!("jsonl line {}: {e}", lineno + 1))?;
        for want in required {
            if !keys.iter().any(|k| k == want) {
                return Err(format!("jsonl line {}: missing key {want:?}", lineno + 1));
            }
        }
        lines += 1;
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let mut r = Registry::new();
        let c = r.counter("jobs_completed_total", "jobs completed");
        r.add(c, 42);
        let g = r.gauge_with_labels("alpha", "live alpha", &[("policy", "apt")]);
        r.set(g, 4.0);
        let h = r.histogram("job_latency_ms", "latency", 0.01);
        for v in [0.0, 1.5, 20.0, 300.0] {
            r.observe(h, v);
        }
        r
    }

    #[test]
    fn rendered_output_validates() {
        let text = render_prometheus(&sample_registry());
        let n = validate(&text).expect("valid exposition");
        assert!(n >= 6, "expected several samples, got {n}\n{text}");
        assert!(text.contains("# TYPE jobs_completed_total counter"));
        assert!(text.contains("jobs_completed_total 42"));
        assert!(text.contains("alpha{policy=\"apt\"} 4"));
        assert!(text.contains("job_latency_ms_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("job_latency_ms_count 4"));
    }

    /// An infinite sample keeps the exposition valid: its bucket's upper
    /// bound is finite, so the only `+Inf` bound is the implicit one.
    #[test]
    fn infinite_sample_renders_valid_exposition() {
        let mut r = sample_registry();
        let h = r.histogram("job_latency_ms", "latency", 0.01);
        r.observe(h, f64::INFINITY);
        let text = render_prometheus(&r);
        validate(&text).expect("valid exposition");
        assert_eq!(text.matches("le=\"+Inf\"").count(), 1, "{text}");
        assert!(text.contains("job_latency_ms_bucket{le=\"+Inf\"} 5"));
    }

    #[test]
    fn render_is_merge_order_independent() {
        let a = sample_registry();
        let mut b = Registry::new();
        let c = b.counter("other_total", "other");
        b.inc(c);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(render_prometheus(&ab), render_prometheus(&ba));
    }

    #[test]
    fn validate_rejects_sample_without_type() {
        assert!(validate("loose_metric 1\n").is_err());
    }

    #[test]
    fn validate_rejects_counter_without_total() {
        assert!(validate("# TYPE jobs counter\njobs 1\n").is_err());
    }

    #[test]
    fn validate_rejects_duplicate_samples() {
        let text = "# TYPE x gauge\nx 1\nx 2\n";
        assert!(validate(text).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn validate_rejects_type_after_samples() {
        let text = "# TYPE x gauge\nx 1\n# TYPE x gauge\n";
        assert!(validate(text).is_err());
    }

    #[test]
    fn validate_rejects_broken_histograms() {
        // Missing +Inf.
        let text = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n";
        assert!(validate(text).unwrap_err().contains("+Inf"));
        // +Inf != _count.
        let text = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n";
        assert!(validate(text).unwrap_err().contains("_count"));
        // Decreasing cumulative counts.
        let text = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n";
        assert!(validate(text).unwrap_err().contains("decreasing"));
    }

    #[test]
    fn validate_accepts_escaped_labels() {
        let text = "# TYPE x gauge\nx{path=\"a\\\\b\\\"c\"} 1\n";
        assert_eq!(validate(text), Ok(1));
    }

    #[test]
    fn jsonl_round_trip() {
        let line = format!(
            "{{\"end_s\":1.5,\"jobs\":10,\"note\":\"{}\"}}",
            json_escape("a\"b\\c")
        );
        let text = format!("{line}\n{line}\n");
        assert_eq!(validate_jsonl(&text, &["end_s", "jobs"]), Ok(2));
        assert!(validate_jsonl(&text, &["missing"])
            .unwrap_err()
            .contains("missing"));
    }

    #[test]
    fn jsonl_rejects_nested_and_garbage() {
        assert!(validate_jsonl("{\"a\":{}}\n", &[]).is_err());
        assert!(validate_jsonl("not json\n", &[]).is_err());
        assert!(validate_jsonl("{\"a\":wat}\n", &[]).is_err());
    }
}
