//! The structured event log: newline-delimited JSON records gated by
//! `ZZ_LOG`, written to stderr or `ZZ_LOG_FILE`.
//!
//! Every record is one JSON object per line (`{"event":"compile.done",
//! "request_id":"req-00000001","wall_us":812}`), so standard line tools
//! consume it without a parser. Two verbosity tiers:
//!
//! * `ZZ_LOG=summary` — only events flagged with [`Event::summary`]
//!   (request completions, lifecycle milestones).
//! * `ZZ_LOG=json` — every event, including per-stage detail.
//! * `ZZ_LOG=off` (or unset) — nothing; emission is a single relaxed
//!   enum compare, so dormant instrumentation is free.

use std::fmt::Write as _;
use std::fs::File;
use std::io::Write as _;
use std::sync::Mutex;

use crate::id::RequestId;

/// Environment variable selecting the log level (`off|summary|json`).
pub const LOG_ENV: &str = "ZZ_LOG";

/// Environment variable redirecting the log from stderr to a file
/// (appended, created if missing).
pub const LOG_FILE_ENV: &str = "ZZ_LOG_FILE";

/// How much the event log emits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Nothing (the default).
    #[default]
    Off,
    /// Only events flagged as summaries.
    Summary,
    /// Every event.
    Json,
}

impl LogLevel {
    /// Parses a `ZZ_LOG` value (case-insensitive). Unknown strings parse
    /// as `None` so a typo surfaces as "no logs" plus this `None` rather
    /// than a panic at process start.
    ///
    /// ```
    /// use zz_obs::LogLevel;
    /// assert_eq!(LogLevel::parse("json"), Some(LogLevel::Json));
    /// assert_eq!(LogLevel::parse("SUMMARY"), Some(LogLevel::Summary));
    /// assert_eq!(LogLevel::parse("verbose"), None);
    /// ```
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "" => Some(LogLevel::Off),
            "summary" => Some(LogLevel::Summary),
            "json" => Some(LogLevel::Json),
            _ => None,
        }
    }

    /// Reads [`LOG_ENV`], defaulting to [`LogLevel::Off`] when unset or
    /// unparseable.
    pub fn from_env() -> LogLevel {
        std::env::var(LOG_ENV)
            .ok()
            .and_then(|v| LogLevel::parse(&v))
            .unwrap_or(LogLevel::Off)
    }
}

/// One typed field value of an [`Event`].
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer (counts, microseconds).
    U64(u64),
    /// A signed integer (gauge readings).
    I64(i64),
    /// A float (fidelities, ratios).
    F64(f64),
    /// A string (labels, stage names).
    Str(String),
    /// A boolean (cache hits).
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

/// One structured log record, built fluently and rendered as a single
/// JSON line.
///
/// ```
/// use zz_obs::{Event, RequestId};
/// let line = Event::summary("compile.done")
///     .request(RequestId::from_raw(7))
///     .field("label", "ghz-4")
///     .field("wall_us", 812u64)
///     .to_json();
/// assert_eq!(
///     line,
///     r#"{"event":"compile.done","request_id":"req-00000007","label":"ghz-4","wall_us":812}"#
/// );
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    name: &'static str,
    request_id: Option<RequestId>,
    is_summary: bool,
    fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// A detail-level event (emitted only under `ZZ_LOG=json`).
    pub fn new(name: &'static str) -> Event {
        Event {
            name,
            request_id: None,
            is_summary: false,
            fields: Vec::new(),
        }
    }

    /// A summary-level event (emitted under `summary` and `json`).
    pub fn summary(name: &'static str) -> Event {
        Event {
            is_summary: true,
            ..Event::new(name)
        }
    }

    /// Attaches the request this event belongs to.
    pub fn request(mut self, id: RequestId) -> Event {
        self.request_id = Some(id);
        self
    }

    /// Appends one key/value field (keys render in insertion order).
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Event {
        self.fields.push((key, value.into()));
        self
    }

    /// Renders the record as one JSON object, no trailing newline.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"event\":");
        json_string(&mut out, self.name);
        if let Some(id) = self.request_id {
            let _ = write!(out, ",\"request_id\":\"{id}\"");
        }
        for (key, value) in &self.fields {
            out.push(',');
            json_string(&mut out, key);
            out.push(':');
            match value {
                FieldValue::U64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::I64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::F64(v) if v.is_finite() => {
                    let _ = write!(out, "{v}");
                }
                // JSON has no NaN/Infinity literals; stringify them.
                FieldValue::F64(v) => {
                    let _ = write!(out, "\"{v}\"");
                }
                FieldValue::Str(v) => json_string(&mut out, v),
                FieldValue::Bool(v) => {
                    let _ = write!(out, "{v}");
                }
            }
        }
        out.push('}');
        out
    }
}

/// Appends `s` as a JSON string literal, escaping quotes, backslashes and
/// control characters.
fn json_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// The emission gate: filters [`Event`]s by [`LogLevel`] and writes the
/// survivors as NDJSON to stderr or a file.
///
/// Cheap when off: `emit` on a [`LogLevel::Off`] log is one enum compare
/// and never renders the event.
#[derive(Debug)]
pub struct EventLog {
    level: LogLevel,
    sink: Sink,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::disabled()
    }
}

impl EventLog {
    /// A log that emits nothing.
    pub fn disabled() -> EventLog {
        EventLog {
            level: LogLevel::Off,
            sink: Sink::Stderr,
        }
    }

    /// A log configured from the process environment: level from
    /// [`LOG_ENV`], destination from [`LOG_FILE_ENV`] (appending; falls
    /// back to stderr if the file cannot be opened).
    pub fn from_env() -> EventLog {
        let level = LogLevel::from_env();
        let sink = match std::env::var(LOG_FILE_ENV) {
            Ok(path) if level != LogLevel::Off => File::options()
                .create(true)
                .append(true)
                .open(path)
                .map(|f| Sink::File(Mutex::new(f)))
                .unwrap_or(Sink::Stderr),
            _ => Sink::Stderr,
        };
        EventLog { level, sink }
    }

    /// The configured level.
    pub fn level(&self) -> LogLevel {
        self.level
    }

    /// Whether `event` would be emitted at the configured level.
    fn would_emit(&self, event: &Event) -> bool {
        match self.level {
            LogLevel::Off => false,
            LogLevel::Summary => event.is_summary,
            LogLevel::Json => true,
        }
    }

    /// Writes `event` as one NDJSON line if the level admits it.
    /// Write failures are swallowed — observability must never take the
    /// service down.
    pub fn emit(&self, event: &Event) {
        if self.would_emit(event) {
            self.sink.write(event.to_json());
        }
    }
}

/// Where an [`EventLog`] writes its lines.
#[derive(Debug)]
enum Sink {
    Stderr,
    File(Mutex<File>),
    #[cfg(test)]
    Capture(Mutex<Vec<String>>),
}

impl Sink {
    fn write(&self, line: String) {
        match self {
            Sink::Stderr => eprintln!("{line}"),
            Sink::File(file) => {
                let mut file = file.lock().unwrap_or_else(|e| e.into_inner());
                let _ = writeln!(file, "{line}");
            }
            #[cfg(test)]
            Sink::Capture(lines) => {
                lines.lock().unwrap_or_else(|e| e.into_inner()).push(line);
            }
        }
    }
}

#[cfg(test)]
impl EventLog {
    /// A log that collects rendered lines in memory — the test sink
    /// (read back with [`captured`](Self::captured)).
    fn capture(level: LogLevel) -> EventLog {
        EventLog {
            level,
            sink: Sink::Capture(Mutex::new(Vec::new())),
        }
    }

    /// The lines collected by a [`capture`](Self::capture) sink (empty
    /// for the other sinks).
    fn captured(&self) -> Vec<String> {
        match &self.sink {
            Sink::Capture(lines) => lines.lock().unwrap_or_else(|e| e.into_inner()).clone(),
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_filtering_matches_the_tier_table() {
        let detail = Event::new("pipeline.stage");
        let rollup = Event::summary("compile.done");
        for (level, wants_detail, wants_rollup) in [
            (LogLevel::Off, false, false),
            (LogLevel::Summary, false, true),
            (LogLevel::Json, true, true),
        ] {
            let log = EventLog::capture(level);
            log.emit(&detail);
            log.emit(&rollup);
            assert_eq!(log.would_emit(&detail), wants_detail, "{level:?}");
            assert_eq!(log.would_emit(&rollup), wants_rollup, "{level:?}");
            assert_eq!(
                log.captured().len(),
                usize::from(wants_detail) + usize::from(wants_rollup),
                "{level:?}"
            );
        }
    }

    #[test]
    fn json_escapes_hostile_strings() {
        let line = Event::new("x").field("label", "a\"b\\c\nd\u{1}").to_json();
        assert_eq!(line, r#"{"event":"x","label":"a\"b\\c\nd\u0001"}"#);
    }

    #[test]
    fn non_finite_floats_render_as_strings() {
        let line = Event::new("x").field("f", f64::NAN).to_json();
        assert_eq!(line, r#"{"event":"x","f":"NaN"}"#);
        let line = Event::new("x").field("f", f64::INFINITY).to_json();
        assert_eq!(line, r#"{"event":"x","f":"inf"}"#);
    }

    #[test]
    fn parse_rejects_unknown_levels() {
        assert_eq!(LogLevel::parse("off"), Some(LogLevel::Off));
        assert_eq!(LogLevel::parse(" Json "), Some(LogLevel::Json));
        assert_eq!(LogLevel::parse("debug"), None);
    }
}
