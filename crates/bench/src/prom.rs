//! Offline validator for Prometheus text exposition (format 0.0.4) as
//! `optrep metrics` renders it — what `tables --check-prom` and the CI
//! smoke script run against live daemon scrapes.
//!
//! Checked, per family:
//!
//! * every sample line is owned by a preceding `# TYPE` declaration and
//!   its value parses as an unsigned integer (every optrep metric is a
//!   count, a byte total or a microsecond total);
//! * counters and gauges carry exactly one sample, named exactly like
//!   the family;
//! * histograms carry cumulative `_bucket{le="..."}` samples with
//!   strictly increasing bounds and non-decreasing counts, ending in
//!   `le="+Inf"`, plus `_sum` and `_count` — and the `+Inf` bucket
//!   equals `_count` (the identity scrapers rely on).

use std::collections::BTreeSet;

/// One family mid-validation.
struct Family {
    name: String,
    kind: String,
    /// `(le, cumulative)` for histograms.
    buckets: Vec<(f64, u64)>,
    sum: Option<u64>,
    count: Option<u64>,
    /// Plain samples seen (counter/gauge).
    plain: u64,
}

impl Family {
    fn finish(&self) -> Result<(), String> {
        match self.kind.as_str() {
            "counter" | "gauge" => {
                if self.plain != 1 {
                    return Err(format!(
                        "family {}: {} has {} samples, want exactly 1",
                        self.name, self.kind, self.plain
                    ));
                }
            }
            "histogram" => {
                let (last, count) = match (self.buckets.last(), self.count) {
                    (Some(&(le, cum)), Some(count)) => ((le, cum), count),
                    _ => {
                        return Err(format!(
                            "family {}: histogram missing buckets or _count",
                            self.name
                        ))
                    }
                };
                if last.0 != f64::INFINITY {
                    return Err(format!(
                        "family {}: last bucket is not le=\"+Inf\"",
                        self.name
                    ));
                }
                if last.1 != count {
                    return Err(format!(
                        "family {}: +Inf bucket {} != _count {}",
                        self.name, last.1, count
                    ));
                }
                if self.sum.is_none() {
                    return Err(format!("family {}: histogram missing _sum", self.name));
                }
                for pair in self.buckets.windows(2) {
                    if pair[1].0 <= pair[0].0 {
                        return Err(format!(
                            "family {}: bucket bounds not strictly increasing",
                            self.name
                        ));
                    }
                    if pair[1].1 < pair[0].1 {
                        return Err(format!(
                            "family {}: cumulative bucket counts decreased",
                            self.name
                        ));
                    }
                }
            }
            other => return Err(format!("family {}: unknown type {other:?}", self.name)),
        }
        Ok(())
    }
}

fn parse_value(raw: &str) -> Result<u64, String> {
    raw.parse::<u64>()
        .map_err(|_| format!("non-integer sample value {raw:?}"))
}

/// Validates one exposition document, returning the family count.
///
/// # Errors
///
/// A one-line description of the first violated rule.
pub fn check(text: &str) -> Result<usize, String> {
    let mut families = 0usize;
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut open: Option<Family> = None;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.trim_end();
        if line.is_empty() || line.starts_with("# HELP") {
            continue;
        }
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            if let Some(family) = open.take() {
                family.finish()?;
            }
            let mut parts = decl.split_whitespace();
            let (name, kind) = match (parts.next(), parts.next(), parts.next()) {
                (Some(name), Some(kind), None) => (name.to_string(), kind.to_string()),
                _ => return Err(format!("line {lineno}: malformed # TYPE line")),
            };
            if !seen.insert(name.clone()) {
                return Err(format!("line {lineno}: family {name} declared twice"));
            }
            families += 1;
            open = Some(Family {
                name,
                kind,
                buckets: Vec::new(),
                sum: None,
                count: None,
                plain: 0,
            });
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {lineno}: unknown comment {line:?}"));
        }
        let Some(family) = open.as_mut() else {
            return Err(format!("line {lineno}: sample before any # TYPE line"));
        };
        let (sample, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: no sample value"))?;
        let value = parse_value(value).map_err(|e| format!("line {lineno}: {e}"))?;
        if sample == family.name {
            family.plain += 1;
        } else if sample == format!("{}_sum", family.name) {
            if family.sum.replace(value).is_some() {
                return Err(format!("line {lineno}: duplicate _sum"));
            }
        } else if sample == format!("{}_count", family.name) {
            if family.count.replace(value).is_some() {
                return Err(format!("line {lineno}: duplicate _count"));
            }
        } else if let Some(le) = sample
            .strip_prefix(&format!("{}_bucket{{le=\"", family.name))
            .and_then(|rest| rest.strip_suffix("\"}"))
        {
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse::<f64>()
                    .map_err(|_| format!("line {lineno}: bad le bound {le:?}"))?
            };
            family.buckets.push((le, value));
        } else {
            return Err(format!(
                "line {lineno}: sample {sample:?} does not belong to family {}",
                family.name
            ));
        }
    }
    if let Some(family) = open.take() {
        family.finish()?;
    }
    if families == 0 {
        return Err("no metric families".to_string());
    }
    Ok(families)
}

#[cfg(test)]
mod tests {
    use super::check;
    use optrep_core::obs::{MetricsRegistry, MetricsSnapshot};

    #[test]
    fn a_live_registry_rendering_validates() {
        let registry = MetricsRegistry::new();
        registry.histogram("demo_micros").record(1234);
        registry.histogram("demo_empty_micros");
        registry.counter("demo_total").add(7);
        registry.gauge("demo_live").set(3);
        let text = registry.snapshot().to_prometheus();
        assert_eq!(check(&text), Ok(4), "valid exposition:\n{text}");
    }

    #[test]
    fn empty_documents_are_rejected() {
        assert!(check("").is_err());
        assert!(check("\n\n").is_err());
    }

    #[test]
    fn stray_samples_and_bad_values_are_rejected() {
        assert!(check("x_total 3\n").is_err(), "sample before TYPE");
        assert!(
            check("# TYPE x counter\ny_total 3\n").is_err(),
            "foreign sample"
        );
        assert!(
            check("# TYPE x counter\nx nope\n").is_err(),
            "non-numeric value"
        );
        assert!(
            check("# TYPE x counter\nx 1\nx 2\n").is_err(),
            "duplicate sample"
        );
    }

    #[test]
    fn histogram_identities_are_enforced() {
        let good = "# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 2\n\
                    h_bucket{le=\"3\"} 5\n\
                    h_bucket{le=\"+Inf\"} 5\n\
                    h_sum 9\nh_count 5\n";
        assert_eq!(check(good), Ok(1));
        let wrong_inf = good.replace("h_bucket{le=\"+Inf\"} 5", "h_bucket{le=\"+Inf\"} 6");
        assert!(check(&wrong_inf).is_err(), "+Inf != _count");
        let decreasing = good.replace("h_bucket{le=\"3\"} 5", "h_bucket{le=\"3\"} 1");
        assert!(check(&decreasing).is_err(), "cumulative counts decreased");
        let unordered = good.replace("le=\"3\"", "le=\"0.5\"");
        assert!(check(&unordered).is_err(), "bounds out of order");
        let no_inf = "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 2\nh_count 2\n";
        assert!(check(no_inf).is_err(), "missing +Inf bucket");
    }

    #[test]
    fn the_wire_decoded_snapshot_renders_validly_too() {
        // What `optrep metrics` actually prints: a snapshot that crossed
        // the verb protocol, not the daemon's in-process registry.
        let registry = MetricsRegistry::new();
        registry.histogram("roundtrip_micros").record(88);
        registry.counter("roundtrip_total").inc();
        let snapshot = registry.snapshot();
        let text = snapshot.to_prometheus();
        assert!(check(&text).is_ok());
        // An empty snapshot renders to an empty document — rejected, so
        // a daemon answering with no families fails the smoke test.
        assert!(check(&MetricsSnapshot::default().to_prometheus()).is_err());
    }
}
