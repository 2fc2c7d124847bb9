//! What one workload run reports: named metrics with units, correctness
//! checks, task counts and free-form notes, serialised as one JSON
//! object. Also the `/proc` readings the workloads share.

use std::fmt::Write as _;

/// One workload run's results.
#[derive(Default)]
pub struct Outcome {
    metrics: Vec<(String, f64, &'static str)>,
    checks: Vec<(String, bool)>,
    notes: Vec<(String, String)>,
    /// Tasks submitted.
    pub attempted: u64,
    /// Tasks delivered (results received).
    pub delivered: u64,
    /// Tasks lost or wrongly delivered (deliberate sheds are not
    /// failures; they show in `delivered_ratio`).
    pub failed: u64,
}

impl Outcome {
    /// Sets metric `name` (replacing an earlier value).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.metrics.iter_mut().find(|(n, _, _)| n == name) {
            Some(m) => *m = (name.to_owned(), value, unit),
            None => self.metrics.push((name.to_owned(), value, unit)),
        }
    }

    /// The value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Records a correctness check; a check made again under the same
    /// name passes only if every instance passed.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        match self.checks.iter_mut().find(|(n, _)| *n == name) {
            Some(c) => c.1 &= ok,
            None => self.checks.push((name, ok)),
        }
    }

    /// Attaches a note (reported, never judged).
    pub fn note(&mut self, name: impl Into<String>, value: impl ToString) {
        self.notes.push((name.into(), value.to_string()));
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|&(_, ok)| ok)
    }

    /// Folds another run of the same workload into this one: its checks
    /// (prefixed `untraced.`) and task counts join this run's; metrics
    /// and notes stay this run's.
    pub fn absorb_checks(&mut self, other: Outcome) {
        self.checks.extend(
            other
                .checks
                .into_iter()
                .map(|(n, ok)| (format!("untraced.{n}"), ok)),
        );
        self.attempted += other.attempted;
        self.delivered += other.delivered;
        self.failed += other.failed;
    }

    /// The whole outcome as one JSON object.
    pub fn to_json(&self, workload: &str, seed: u64, trace: bool) -> String {
        let mut s = String::new();
        write!(
            s,
            "{{\"workload\":{},\"seed\":{seed},\"trace\":{trace},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            json_str(workload),
            self.correct(),
            self.attempted,
            self.failed
        )
        .unwrap();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                s,
                "{sep}{}:{{\"value\":{value:?},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            )
            .unwrap();
        }
        s.push_str("},\"checks\":{");
        for (i, (name, ok)) in self.checks.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(s, "{sep}{}:{ok}", json_str(name)).unwrap();
        }
        s.push_str("},\"notes\":{");
        for (i, (name, v)) in self.notes.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(s, "{sep}{}:{}", json_str(name), json_str(v)).unwrap();
        }
        s.push_str("}}");
        s
    }
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A `kB` field of `/proc/self/status` (0 if unreadable).
fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    status_kb("VmHWM:") as f64 / 1024.0
}

/// OS threads in this process.
pub fn thread_count() -> u64 {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count() as u64)
}

/// Open file descriptors in this process (excluding the scan's own).
pub fn fd_count() -> u64 {
    std::fs::read_dir("/proc/self/fd").map_or(0, |d| d.count().saturating_sub(1) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_serialises_metrics_checks_and_notes() {
        let mut o = Outcome::default();
        o.metric("a.b", 1.5, "ms");
        o.metric("a.b", 2.25, "ms");
        o.metric("bad", f64::NAN, "s");
        o.check("ok", true);
        o.note("why", "a \"quoted\" note");
        o.attempted = 3;
        let json = o.to_json("w", 7, false);
        assert!(
            json.contains("\"a.b\":{\"value\":2.25,\"unit\":\"ms\"}"),
            "{json}"
        );
        assert!(json.contains("\"bad\":{\"value\":0.0,"), "{json}");
        assert!(json.contains("\"why\":\"a \\\"quoted\\\" note\""), "{json}");
        assert!(
            json.contains("\"correct\":true,\"attempted\":3,\"failed\":0"),
            "{json}"
        );
        o.check("broken", true);
        o.check("broken", false);
        o.check("broken", true);
        assert!(!o.correct());
        assert!(o
            .to_json("w", 7, false)
            .contains("\"checks\":{\"ok\":true,\"broken\":false}"));
    }

    #[test]
    fn procfs_readings_are_live() {
        assert!(rss_peak_mb() > 0.0);
        assert!(thread_count() >= 1);
        assert!(fd_count() >= 3);
    }
}
