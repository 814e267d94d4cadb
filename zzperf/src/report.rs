//! What a workload run produces, the statistics over it, host readings
//! and the JSON result line a run prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted in the timed phases (requests, jobs,
    /// dispatches).
    pub attempted: u64,
    /// Operations that ended in a typed error, a `Busy` reply or a panic.
    pub failed: u64,
    /// One sample per set-up: building the front door, calibrating and
    /// warming the hot set (seconds).
    pub setup_s: Vec<f64>,
    /// One sample per attempted operation (milliseconds).
    pub latency_ms: Vec<f64>,
    /// Operations completed in the timed rounds.
    pub completed: u64,
    /// Summed length of the timed rounds (seconds).
    pub timed_s: f64,
    /// Each timed round's own tail `(latency ms, percentile)`, for
    /// workloads whose rounds are large enough to have a tail near p99.
    pub round_tails: Vec<(f64, f64)>,
    /// The exact quality accumulators.
    pub quality: Quality,
    /// Per-layer accumulators (filled by the traced run).
    pub layers: Layers,
    /// Output checks that failed, one line each.
    pub check_failures: Vec<String>,
    /// Recorded context: worker counts, sizes, percentile choices.
    pub info: BTreeMap<String, String>,
}

impl Run {
    /// Records a failed output check.
    pub fn fail_check(&mut self, what: impl Into<String>) {
        let what = what.into();
        if self.check_failures.len() < 20 {
            eprintln!("check failed: {what}");
        }
        self.check_failures.push(what);
    }

    /// Closes a timed round of `seconds` that completed `completed`
    /// operations.
    pub fn end_round(&mut self, completed: u64, seconds: f64) {
        self.completed += completed;
        self.timed_s += seconds;
    }

    /// Records one piece of run context.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.info.insert(key.to_string(), value.to_string());
    }
}

/// Sums behind the exact quality metrics.
#[derive(Debug, Default)]
pub struct Quality {
    plans: u64,
    residual_zz_weight: f64,
    duration_ns: f64,
    fidelities: u64,
    fidelity: f64,
}

impl Quality {
    /// Adds one compiled plan's residual-ZZ weight and duration.
    pub fn plan(&mut self, compiled: &zz_service::Compiled) {
        let summary = compiled.plan.summary(&compiled.durations);
        self.plans += 1;
        self.residual_zz_weight += summary.residual_zz_weight;
        self.duration_ns += summary.duration_ns;
    }

    /// Adds one fidelity (simulated, or a winner's score).
    pub fn fidelity(&mut self, f: f64) {
        self.fidelities += 1;
        self.fidelity += f;
    }

    fn mean(sum: f64, n: u64) -> f64 {
        if n == 0 {
            f64::NAN
        } else {
            sum / n as f64
        }
    }

    /// Mean residual-ZZ weight per plan (coupling-ns).
    pub fn residual_zz_weight(&self) -> f64 {
        Self::mean(self.residual_zz_weight, self.plans)
    }

    /// Mean plan duration (µs).
    pub fn plan_duration_us(&self) -> f64 {
        Self::mean(self.duration_ns, self.plans) / 1e3
    }

    /// Mean fidelity.
    pub fn fidelity_mean(&self) -> f64 {
        Self::mean(self.fidelity, self.fidelities)
    }
}

/// Per-layer accumulators of the traced run: summed values plus how many
/// calls contributed, keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    calls: BTreeMap<&'static str, u64>,
}

impl Layers {
    /// Adds one call's value to `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_default() += value;
        *self.calls.entry(name).or_default() += 1;
    }

    /// Adds `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.sums.entry(name).or_default() += n as f64;
    }

    /// Adds `value` to the total `name`.
    pub fn count_f64(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_default() += value;
    }

    /// Sets `name` to `value` (a ratio computed once per run).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.sums.insert(name, value);
    }

    /// The summed value of `name` (0 when nothing was recorded).
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// The mean value per call of `name` (0 when no call was recorded).
    pub fn mean(&self, name: &str) -> f64 {
        match self.calls.get(name) {
            Some(&n) if n > 0 => self.sum(name) / n as f64,
            _ => 0.0,
        }
    }
}

/// Set-up samples are pooled into this many interleaved groups for
/// [`median_of_means`].
pub const SETUP_GROUPS: usize = 8;

/// The median over `groups` interleaved groups (sample `i` joins group
/// `i % groups`, so every group spans the whole run) of each group's
/// mean. On a small virtual machine the host's speed flips between a fast
/// and a slow state every few seconds, so timings of short, repeated work
/// come in two clusters. A plain median then jumps from one cluster to
/// the other as the runs' mix of states shifts; a group mean follows the
/// mix smoothly, and the median over groups keeps one burst from moving
/// the result. NaN when empty.
pub fn median_of_means(samples: &[f64], groups: usize) -> f64 {
    let means: Vec<f64> = (0..groups.min(samples.len()))
        .map(|g| {
            let group: Vec<f64> = samples.iter().skip(g).step_by(groups).copied().collect();
            group.iter().sum::<f64>() / group.len() as f64
        })
        .collect();
    median(&means)
}

/// The median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail latency: the highest order statistic with at least
/// [`TAIL_BEYOND`] samples beyond it, with its percentile. `None` when
/// the run has too few samples to support any tail.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let index = v.len() - 1 - TAIL_BEYOND;
    let percentile = 100.0 * (index + 1) as f64 / v.len() as f64;
    Some((v[index], percentile))
}

/// Peak resident set of this process (MiB), from `VmHWM`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Clock ticks per second of `/proc` CPU counters (`USER_HZ`, 100 on
/// Linux).
const USER_HZ: f64 = 100.0;

/// CPU time this process has used so far (ms), from `/proc/self/stat`.
pub fn process_cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) * 1e3 / USER_HZ,
        _ => 0.0,
    }
}

/// Host-wide steal time so far (ms), from the `cpu` line of `/proc/stat`:
/// time the hypervisor ran someone else while this host wanted the CPU.
pub fn host_steal_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks * 1e3 / USER_HZ)
}

/// CPU and steal counters at one instant, for deltas over a timed phase.
#[derive(Clone, Copy, Debug)]
pub struct HostMark {
    cpu_ms: f64,
    steal_ms: f64,
}

impl HostMark {
    /// Reads the counters now.
    pub fn now() -> Self {
        HostMark {
            cpu_ms: process_cpu_ms(),
            steal_ms: host_steal_ms(),
        }
    }

    /// `(cpu_ms, steal_ms)` elapsed since `self`.
    pub fn since(&self) -> (f64, f64) {
        let now = HostMark::now();
        (now.cpu_ms - self.cpu_ms, now.steal_ms - self.steal_ms)
    }
}

/// One metric of the result line.
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Formats `x` as a JSON number with all its digits (`null` when not
/// finite).
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
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
    out
}

/// The result line: correctness, operation counts and the metrics.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A flat JSON object of string values (the run context line).
pub fn info_line(info: &BTreeMap<String, String>) -> String {
    let body: Vec<String> = info
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    format!("{{\"info\": {{{}}}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, percentile) = tail(&v).expect("enough samples");
        assert_eq!(value, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), TAIL_BEYOND);
        assert_eq!(percentile, 90.0);
        assert!(tail(&v[..10]).is_none());
    }

    #[test]
    fn median_of_means_pools_interleaved_groups() {
        // Groups {1, 3}, {2, 4}, {10, 30}: means 2, 3, 20.
        assert_eq!(median_of_means(&[1.0, 2.0, 10.0, 3.0, 4.0, 30.0], 3), 3.0);
        assert_eq!(median_of_means(&[5.0], 8), 5.0);
        assert!(median_of_means(&[], 8).is_nan());
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
    }
}
