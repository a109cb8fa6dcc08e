//! Summary statistics over timing samples, process memory, and the result
//! line the benchmark prints last.

use std::fmt::Write as _;

/// The median of `samples` (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `q`-quantile of `samples` by linear interpolation between order
/// statistics.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

/// This process's peak resident set (`VmHWM`) in MB, read from
/// `/proc/self/status`; `None` where the file or the field is missing.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time this process has used so far (user + system, every thread), in
/// seconds; NaN where `/proc/self/stat` cannot be read. Time a hypervisor
/// steals from the machine is not counted, so this moves far less with the
/// load of other machines on the same host than wall time does.
pub fn cpu_seconds() -> f64 {
    process_cpu_ticks().map_or(f64::NAN, |ticks| ticks / 100.0)
}

fn process_cpu_ticks() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesized command name; utime and stime are the
    // 14th and 15th fields of the whole line, in clock ticks of 1/100 s.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one benchmark run: operation counts and metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Problems found while checking outputs, one line each.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one operation; `error` describes why it failed or was wrong.
    pub fn record(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(error) = error {
            self.fail(error);
        }
    }

    /// Count a failure of an operation already counted as attempted.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(error);
        }
    }

    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Add a line `metric <name> = <value> <unit>` to the printed notes,
    /// with the number of samples behind the value.
    pub fn note(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.notes.push(format!(
            "metric {name} = {value:.6} {unit} ({samples} samples)"
        ));
    }

    /// The final result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let correct = self.failed == 0 && self.attempted > 0;
        let mut line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (index, metric) in self.metrics.iter().enumerate() {
            let separator = if index == 0 { "" } else { ", " };
            let value = if metric.value.is_finite() {
                format!("{:?}", metric.value)
            } else {
                "null".to_string()
            };
            write!(
                line,
                "{separator}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            )
            .expect("writing to a String cannot fail");
        }
        line.push_str("}}");
        line
    }
}
