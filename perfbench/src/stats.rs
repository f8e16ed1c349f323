//! The benchmark's own arithmetic: percentiles, span self time, counter
//! deltas and the JSON result line. Kept free of I/O so it is unit-tested.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// 1-based nearest rank of the `p` percentile among `n >= 1` samples. The
/// small slack keeps float error (0.999 * 10000 = 9990.000000000002) from
/// moving the rank up by one.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of `sorted` (ascending). `p` is in [0, 100].
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly above the nearest-rank `p` percentile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest of `candidates` that leaves at least `min_beyond` samples
/// above it among `n` samples (`None` when even the lowest does not).
pub fn highest_supported_percentile(
    n: usize,
    candidates: &[f64],
    min_beyond: usize,
) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| samples_beyond(n, p) >= min_beyond)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Self time of a span over `[start, end)`: its length minus the part of
/// that interval covered by the union of its children's intervals
/// (children may overlap each other and are clipped to the parent).
pub fn self_time(start: f64, end: f64, children: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (end - start) - covered
}

/// A cumulative counter's growth between two readings. Counters never go
/// backwards; a reset (e.g. a reopened store) reads as the later value.
pub fn delta(after: u64, before: u64) -> u64 {
    after.checked_sub(before).unwrap_or(after)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// The last stdout line: correctness, attempt counts and named metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
}

fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn json_num(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` prints the shortest representation that round-trips.
        let _ = write!(out, "{v:?}");
    } else {
        out.push('0');
    }
}

impl Report {
    /// Renders the one-line JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json_str(&mut out, name);
            out.push_str(": {\"value\": ");
            json_num(&mut out, m.value);
            out.push_str(", \"unit\": ");
            json_str(&mut out, m.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let w: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(percentile(&w, 99.9), 9990.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let cands = [50.0, 90.0, 95.0, 99.0, 99.9];
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(highest_supported_percentile(1000, &cands, 10), Some(99.0));
        assert_eq!(highest_supported_percentile(999, &cands, 10), Some(95.0));
        assert_eq!(highest_supported_percentile(200, &cands, 10), Some(95.0));
        assert_eq!(highest_supported_percentile(199, &cands, 10), Some(90.0));
        assert_eq!(highest_supported_percentile(10_000, &cands, 10), Some(99.9));
        assert_eq!(highest_supported_percentile(15, &cands, 10), None);
        assert_eq!(highest_supported_percentile(20, &cands, 10), Some(50.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn self_time_subtracts_covered_union() {
        // No children: the whole span.
        assert_eq!(self_time(0.0, 10.0, &[]), 10.0);
        // Disjoint children.
        assert_eq!(self_time(0.0, 10.0, &[(1.0, 3.0), (5.0, 6.0)]), 7.0);
        // Overlapping children count once.
        assert_eq!(self_time(0.0, 10.0, &[(1.0, 4.0), (2.0, 5.0)]), 6.0);
        // Children spilling outside the parent are clipped.
        assert_eq!(self_time(2.0, 6.0, &[(0.0, 3.0), (5.0, 9.0)]), 2.0);
        // A child outside the parent covers nothing.
        assert_eq!(self_time(0.0, 1.0, &[(2.0, 3.0)]), 1.0);
    }

    #[test]
    fn counter_deltas() {
        assert_eq!(delta(15, 10), 5);
        assert_eq!(delta(10, 10), 0);
        assert_eq!(delta(3, 10), 3, "a reset reads as the later value");
    }

    /// Minimal JSON reader for the round-trip test: objects, strings,
    /// numbers and booleans, which is all the writer emits.
    #[derive(Debug, PartialEq)]
    enum J {
        Obj(BTreeMap<String, J>),
        Str(String),
        Num(f64),
        Bool(bool),
    }

    fn parse(s: &str) -> J {
        fn ws(b: &[u8], i: &mut usize) {
            while *i < b.len() && b[*i].is_ascii_whitespace() {
                *i += 1;
            }
        }
        fn string(b: &[u8], i: &mut usize) -> String {
            assert_eq!(b[*i], b'"');
            *i += 1;
            let mut out = String::new();
            while b[*i] != b'"' {
                if b[*i] == b'\\' {
                    *i += 1;
                    match b[*i] {
                        b'u' => {
                            let hex = std::str::from_utf8(&b[*i + 1..*i + 5]).unwrap();
                            out.push(
                                char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap(),
                            );
                            *i += 4;
                        }
                        c => out.push(c as char),
                    }
                    *i += 1;
                } else {
                    let start = *i;
                    while b[*i] != b'"' && b[*i] != b'\\' {
                        *i += 1;
                    }
                    out.push_str(std::str::from_utf8(&b[start..*i]).unwrap());
                }
            }
            *i += 1;
            out
        }
        fn value(b: &[u8], i: &mut usize) -> J {
            ws(b, i);
            match b[*i] {
                b'{' => {
                    *i += 1;
                    let mut m = BTreeMap::new();
                    loop {
                        ws(b, i);
                        if b[*i] == b'}' {
                            *i += 1;
                            return J::Obj(m);
                        }
                        if b[*i] == b',' {
                            *i += 1;
                            ws(b, i);
                        }
                        let k = string(b, i);
                        ws(b, i);
                        assert_eq!(b[*i], b':');
                        *i += 1;
                        m.insert(k, value(b, i));
                    }
                }
                b'"' => J::Str(string(b, i)),
                b't' => {
                    *i += 4;
                    J::Bool(true)
                }
                b'f' => {
                    *i += 5;
                    J::Bool(false)
                }
                _ => {
                    let start = *i;
                    while *i < b.len() && b"+-.0123456789eE".contains(&b[*i]) {
                        *i += 1;
                    }
                    J::Num(std::str::from_utf8(&b[start..*i]).unwrap().parse().unwrap())
                }
            }
        }
        let b = s.as_bytes();
        let mut i = 0;
        let v = value(b, &mut i);
        ws(b, &mut i);
        assert_eq!(i, b.len(), "trailing bytes");
        v
    }

    #[test]
    fn json_writer_round_trips() {
        let mut metrics = BTreeMap::new();
        let values = [1.2034, 0.1 + 0.2, 123456789.0, 1e-7, 0.0];
        for (i, v) in values.iter().enumerate() {
            metrics.insert(
                format!("m{i}.x\"q\\"),
                Metric {
                    value: *v,
                    unit: "ms",
                },
            );
        }
        metrics.insert(
            "nan".into(),
            Metric {
                value: f64::NAN,
                unit: "count",
            },
        );
        let r = Report {
            correct: true,
            attempted: 1000,
            failed: 2,
            metrics,
        };
        let line = r.to_json();
        assert!(!line.contains('\n'));
        let J::Obj(top) = parse(&line) else {
            panic!("not an object")
        };
        assert_eq!(top["correct"], J::Bool(true));
        assert_eq!(top["attempted"], J::Num(1000.0));
        assert_eq!(top["failed"], J::Num(2.0));
        let J::Obj(ms) = &top["metrics"] else {
            panic!("metrics")
        };
        for (i, v) in values.iter().enumerate() {
            let J::Obj(m) = &ms[&format!("m{i}.x\"q\\")] else {
                panic!("metric")
            };
            assert_eq!(m["value"], J::Num(*v), "value {v} must round-trip exactly");
            assert_eq!(m["unit"], J::Str("ms".into()));
        }
        let J::Obj(m) = &ms["nan"] else {
            panic!("metric")
        };
        assert_eq!(
            m["value"],
            J::Num(0.0),
            "non-finite values are written as 0"
        );
    }
}
