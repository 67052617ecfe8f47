//! Order statistics and the result report.

/// Quantile `q` of `samples` by linear interpolation between the two
/// nearest ranks; NaN (which fails the run) when there are none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Mean of the samples left after dropping the lowest and the highest
/// `trim` share; NaN when there are none. On a shared host a job runs
/// at one of a few speeds, depending on what shares its core, and the
/// median jumps between them as their mix shifts from run to run; this
/// mean moves with the mix smoothly, and ignores the rare stall.
pub fn trimmed_mean(samples: &[f64], trim: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = (v.len() as f64 * trim) as usize;
    mean(&v[cut..v.len() - cut])
}

/// Arithmetic mean; NaN when there are no samples.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Named metrics with units, in the order they were added. Notes are
/// printed with the metrics but left out of the result object.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.notes.push((name.into(), value, unit));
    }

    /// Every metric is a finite number.
    pub fn all_finite(&self) -> bool {
        self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// One `name value unit` line per metric, then per note.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("  {name:<34} {value:>16.6} {unit}");
        }
        for (name, value, unit) in &self.notes {
            println!("  {name:<34} {value:>16.6} {unit} (printed only)");
        }
    }

    /// The result object, printed as the last line of standard output.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; `all_finite` gates `correct`.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}
