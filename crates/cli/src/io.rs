//! Dataset file format: a line-oriented, diff-friendly text encoding.
//!
//! ```text
//! # glove dataset v1
//! # name: civ-like
//! F 17            <- fingerprint header: user ids (comma-separated)
//! S 1200 300 100 100 481 1
//! S 5400 800 100 100 912 1
//! F 18,19         <- merged fingerprint shared by users 18 and 19
//! S 0 0 2000 1500 100 60
//! ```
//!
//! `S x y dx dy t dt` — the box encoding of [`Sample`]: west/south corner in
//! meters, extents in meters, window start/length in minutes. Comments (`#`)
//! and blank lines are ignored except for the `# name:` header.
//!
//! [`read_file`] parses a file through a buffered reader one line at a
//! time, with the parser [`from_str`] uses: the file's text is never held
//! whole, and each fingerprint's samples are allocated once, at their
//! length. [`write_file`] streams the other way.
//!
//! ### Event streams
//!
//! The streaming pipeline (`glove stream`) speaks a sibling format, one
//! record per logged network event, strictly time-ordered:
//!
//! ```text
//! # glove events v1
//! # name: civ-like
//! E 17 1200 300 100 100 481 1   <- user id then the S fields
//! E 4 5400 800 100 100 482 1
//! ```
//!
//! [`EventReader`] iterates such a file through a [`io::BufRead`] without
//! ever holding more than one line resident — the ingest half of the
//! bounded-memory pipeline.

use glove_core::stream::StreamEvent;
use glove_core::{Dataset, Fingerprint, GloveError, Sample, UserId};
use std::fs;
use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

/// Writes a dataset's text representation to any sink, one fingerprint at a
/// time — no whole-dataset string is ever materialized.
pub fn write_to(dataset: &Dataset, out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "# glove dataset v1")?;
    writeln!(out, "# name: {}", dataset.name)?;
    for fp in &dataset.fingerprints {
        let users: Vec<String> = fp.users().iter().map(|u| u.to_string()).collect();
        writeln!(out, "F {}", users.join(","))?;
        for s in fp.samples() {
            writeln!(out, "S {} {} {} {} {} {}", s.x, s.y, s.dx, s.dy, s.t, s.dt)?;
        }
    }
    Ok(())
}

/// Serializes a dataset to its text representation (small datasets and
/// tests; large datasets should stream through [`write_file`]).
pub fn to_string(dataset: &Dataset) -> String {
    let mut buf = Vec::new();
    write_to(dataset, &mut buf).expect("writing to memory cannot fail");
    String::from_utf8(buf).expect("dataset text is UTF-8")
}

/// Writes a dataset to a file through a [`BufWriter`], fingerprint by
/// fingerprint: peak extra memory is one sample line, not O(dataset).
pub fn write_file(dataset: &Dataset, path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(fs::File::create(path)?);
    write_to(dataset, &mut w)?;
    w.flush()
}

/// Parse error with line context.
#[derive(Debug)]
pub enum ParseError {
    /// I/O failure while reading.
    Io(io::Error),
    /// Syntax or semantic error at a line.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Problem description.
        message: String,
    },
    /// The parsed data violates model invariants.
    Model(GloveError),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
            ParseError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            ParseError::Model(e) => write!(f, "invalid data: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

impl From<GloveError> for ParseError {
    fn from(e: GloveError) -> Self {
        ParseError::Model(e)
    }
}

/// Parses a dataset from its text representation.
pub fn from_str(content: &str) -> Result<Dataset, ParseError> {
    let mut parser = DatasetParser::default();
    for line in content.lines() {
        parser.line(line)?;
    }
    parser.finish()
}

/// Reads a dataset from a file, line by line through a buffered reader:
/// only the parsed dataset and one line are ever resident, never the
/// file's text.
pub fn read_file(path: &Path) -> Result<Dataset, ParseError> {
    let mut reader = io::BufReader::new(fs::File::open(path)?);
    let mut parser = DatasetParser::default();
    let mut line = Vec::new();
    while reader.read_until(b'\n', &mut line)? > 0 {
        parser.line(utf8(&line, parser.line_no + 1)?)?;
        line.clear();
    }
    parser.finish()
}

/// `bytes` as text; an invalid UTF-8 byte is a syntax error at `line`.
fn utf8(bytes: &[u8], line: usize) -> Result<&str, ParseError> {
    std::str::from_utf8(bytes).map_err(|e| ParseError::Syntax {
        line,
        message: format!("invalid UTF-8 at byte {} of the line", e.valid_up_to() + 1),
    })
}

/// The one dataset parser behind [`from_str`] and [`read_file`]: fed one
/// line at a time, it keeps only the fingerprint being read and the
/// finished ones.
struct DatasetParser {
    name: String,
    fingerprints: Vec<Fingerprint>,
    users: Option<Vec<UserId>>,
    /// Samples of the fingerprint being read, reused across fingerprints so
    /// that each finished one is allocated once, at its exact length.
    samples: Vec<Sample>,
    /// 1-based number of the last line fed.
    line_no: usize,
}

impl Default for DatasetParser {
    fn default() -> Self {
        DatasetParser {
            name: String::from("unnamed"),
            fingerprints: Vec::new(),
            users: None,
            samples: Vec::new(),
            line_no: 0,
        }
    }
}

impl DatasetParser {
    fn syntax(&self, message: String) -> ParseError {
        ParseError::Syntax {
            line: self.line_no,
            message,
        }
    }

    /// Parses one line; surrounding whitespace, line ends included, is
    /// ignored.
    fn line(&mut self, raw: &str) -> Result<(), ParseError> {
        self.line_no += 1;
        let line = raw.trim();
        if line.is_empty() {
            return Ok(());
        }
        if let Some(rest) = line.strip_prefix('#') {
            if let Some(n) = rest.trim().strip_prefix("name:") {
                self.name = n.trim().to_string();
            }
            return Ok(());
        }
        if let Some(rest) = line.strip_prefix("F ") {
            self.flush()?;
            let users: Result<Vec<UserId>, _> = rest
                .split(',')
                .map(|t| t.trim().parse::<UserId>())
                .collect();
            let users = users.map_err(|e| self.syntax(format!("bad user id list: {e}")))?;
            if users.is_empty() {
                return Err(self.syntax("empty user id list".into()));
            }
            self.users = Some(users);
        } else if let Some(rest) = line.strip_prefix("S ") {
            if self.users.is_none() {
                return Err(self.syntax("sample before any fingerprint header".into()));
            }
            let mut fields = rest.split_whitespace();
            let f: [&str; 6] = std::array::from_fn(|_| fields.next().unwrap_or(""));
            if f[5].is_empty() || fields.next().is_some() {
                let got = rest.split_whitespace().count();
                return Err(self.syntax(format!("expected 6 sample fields, got {got}")));
            }
            let sample = Sample::new(
                self.int(f[0])?,
                self.int(f[1])?,
                self.int(f[2])?,
                self.int(f[3])?,
                self.int(f[4])?,
                self.int(f[5])?,
            )?;
            self.samples.push(sample);
        } else {
            return Err(self.syntax(format!("unrecognized line: {line}")));
        }
        Ok(())
    }

    fn int<T: std::str::FromStr>(&self, s: &str) -> Result<T, ParseError>
    where
        T::Err: std::fmt::Display,
    {
        s.parse()
            .map_err(|e| self.syntax(format!("bad integer '{s}': {e}")))
    }

    /// Closes the fingerprint being read, if any; a header with no sample
    /// is reported at the line that ends it.
    fn flush(&mut self) -> Result<(), ParseError> {
        if let Some(users) = self.users.take() {
            if self.samples.is_empty() {
                return Err(self.syntax("fingerprint with no samples".into()));
            }
            let samples = self.samples.to_vec();
            self.samples.clear();
            self.fingerprints
                .push(Fingerprint::with_users(users, samples)?);
        }
        Ok(())
    }

    /// Closes the last fingerprint (reported at the last line) and checks
    /// the dataset.
    fn finish(mut self) -> Result<Dataset, ParseError> {
        self.flush()?;
        Ok(Dataset::new(self.name, self.fingerprints)?)
    }
}

// ---------------------------------------------------------------------------
// Event streams

/// Writes an event stream to any sink, one record per event.
pub fn write_events_to(
    name: &str,
    events: impl IntoIterator<Item = StreamEvent>,
    out: &mut impl Write,
) -> io::Result<()> {
    writeln!(out, "# glove events v1")?;
    writeln!(out, "# name: {name}")?;
    for e in events {
        let s = e.sample;
        writeln!(
            out,
            "E {} {} {} {} {} {} {}",
            e.user, s.x, s.y, s.dx, s.dy, s.t, s.dt
        )?;
    }
    Ok(())
}

/// Writes an event stream to a file through a [`BufWriter`]. The iterator
/// is drained incrementally, so a lazy source (e.g.
/// `glove_synth::ScenarioEvents`) never materializes the whole stream.
pub fn write_events_file(
    name: &str,
    events: impl IntoIterator<Item = StreamEvent>,
    path: &Path,
) -> io::Result<()> {
    let mut w = BufWriter::new(fs::File::create(path)?);
    write_events_to(name, events, &mut w)?;
    w.flush()
}

/// Serializes an event stream to a string (tests and small streams).
pub fn events_to_string(name: &str, events: impl IntoIterator<Item = StreamEvent>) -> String {
    let mut buf = Vec::new();
    write_events_to(name, events, &mut buf).expect("writing to memory cannot fail");
    String::from_utf8(buf).expect("event text is UTF-8")
}

/// Parses one `E user x y dx dy t dt` record.
fn parse_event_line(line: &str, line_no: usize) -> Result<StreamEvent, ParseError> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    if fields.first() != Some(&"E") {
        return Err(ParseError::Syntax {
            line: line_no,
            message: format!(
                "expected an 'E' event record, got '{}'",
                fields.first().unwrap_or(&"")
            ),
        });
    }
    if fields.len() != 8 {
        return Err(ParseError::Syntax {
            line: line_no,
            message: format!(
                "expected 'E user x y dx dy t dt' (8 fields), got {} fields",
                fields.len()
            ),
        });
    }
    let bad = |s: &str, e: &dyn std::fmt::Display| ParseError::Syntax {
        line: line_no,
        message: format!("bad integer '{s}': {e}"),
    };
    let user: UserId = fields[1].parse().map_err(|e| bad(fields[1], &e))?;
    let x: i64 = fields[2].parse().map_err(|e| bad(fields[2], &e))?;
    let y: i64 = fields[3].parse().map_err(|e| bad(fields[3], &e))?;
    let dx: u32 = fields[4].parse().map_err(|e| bad(fields[4], &e))?;
    let dy: u32 = fields[5].parse().map_err(|e| bad(fields[5], &e))?;
    let t: u32 = fields[6].parse().map_err(|e| bad(fields[6], &e))?;
    let dt: u32 = fields[7].parse().map_err(|e| bad(fields[7], &e))?;
    let sample = Sample::new(x, y, dx, dy, t, dt)?;
    Ok(StreamEvent { user, sample })
}

/// Streaming reader of the event format: yields one event per `E` record,
/// holding a single line resident. Comments and blank lines are skipped;
/// the `# name:` header (if present before the first record) is captured.
pub struct EventReader<R: BufRead> {
    reader: R,
    /// The last line read, reused across lines.
    line: Vec<u8>,
    line_no: usize,
    name: String,
    /// Whether `line` holds the first record, read while scanning the
    /// header.
    pending: bool,
}

impl EventReader<io::BufReader<fs::File>> {
    /// Opens an event file for streaming.
    pub fn open(path: &Path) -> Result<Self, ParseError> {
        Self::new(io::BufReader::new(fs::File::open(path)?))
    }
}

impl<R: BufRead> EventReader<R> {
    /// Wraps any buffered reader, consuming header comments eagerly so
    /// [`EventReader::name`] is available before the first event.
    pub fn new(reader: R) -> Result<Self, ParseError> {
        let mut events = Self {
            reader,
            line: Vec::new(),
            line_no: 0,
            name: String::from("unnamed"),
            pending: false,
        };
        while events.advance()? {
            let line = events.text()?;
            if line.is_empty() {
                continue;
            }
            let name = match line.strip_prefix('#') {
                Some(rest) => rest
                    .trim()
                    .strip_prefix("name:")
                    .map(|n| n.trim().to_string()),
                None => {
                    events.pending = true;
                    break;
                }
            };
            if let Some(name) = name {
                events.name = name;
            }
        }
        Ok(events)
    }

    /// The stream name from the `# name:` header (`"unnamed"` if absent).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Reads the next line into `line`; `false` at the end of the input.
    fn advance(&mut self) -> Result<bool, ParseError> {
        self.line.clear();
        if self.reader.read_until(b'\n', &mut self.line)? == 0 {
            return Ok(false);
        }
        self.line_no += 1;
        Ok(true)
    }

    /// The last line read, trimmed.
    fn text(&self) -> Result<&str, ParseError> {
        utf8(&self.line, self.line_no).map(str::trim)
    }
}

impl<R: BufRead> Iterator for EventReader<R> {
    type Item = Result<StreamEvent, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if !std::mem::take(&mut self.pending) {
                match self.advance() {
                    Ok(true) => {}
                    Ok(false) => return None,
                    Err(e) => return Some(Err(e)),
                }
            }
            let line = match self.text() {
                Ok(line) => line,
                Err(e) => return Some(Err(e)),
            };
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            return Some(parse_event_line(line, self.line_no));
        }
    }
}

/// Parses an in-memory event stream (tests and small inputs).
pub fn events_from_str(content: &str) -> Result<(String, Vec<StreamEvent>), ParseError> {
    let reader = EventReader::new(io::Cursor::new(content))?;
    let name = reader.name().to_string();
    let events: Result<Vec<StreamEvent>, ParseError> = reader.collect();
    Ok((name, events?))
}

/// Sniffs whether a file is an event stream (vs a dataset): true when the
/// events header comment appears or the first record is an `E` line. Reads
/// only up to the first record line, mirroring [`EventReader::new`]'s
/// tolerance for arbitrarily long header comment blocks. An invalid UTF-8
/// byte does not stop the sniff: the reader it picks reports that byte's
/// line.
pub fn is_events_file(path: &Path) -> io::Result<bool> {
    let mut reader = io::BufReader::new(fs::File::open(path)?);
    let mut raw = Vec::new();
    loop {
        raw.clear();
        if reader.read_until(b'\n', &mut raw)? == 0 {
            return Ok(false);
        }
        let text = String::from_utf8_lossy(&raw);
        let line = text.trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with("# glove events") {
            return Ok(true);
        }
        if line.starts_with('#') {
            continue;
        }
        return Ok(line.starts_with("E "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dataset() -> Dataset {
        let fps = vec![
            Fingerprint::from_points(0, &[(100, 200, 5), (5_000, -300, 700)]).unwrap(),
            Fingerprint::with_users(
                vec![1, 2],
                vec![Sample::new(0, 0, 2_000, 1_500, 100, 60).unwrap()],
            )
            .unwrap(),
        ];
        Dataset::new("round-trip", fps).unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let ds = sample_dataset();
        let text = to_string(&ds);
        let back = from_str(&text).unwrap();
        assert_eq!(back.name, ds.name);
        assert_eq!(back.fingerprints.len(), ds.fingerprints.len());
        for (a, b) in back.fingerprints.iter().zip(&ds.fingerprints) {
            assert_eq!(a.users(), b.users());
            assert_eq!(a.samples(), b.samples());
        }
    }

    #[test]
    fn file_round_trip() {
        let ds = sample_dataset();
        let path = std::env::temp_dir().join("glove-io-test.txt");
        write_file(&ds, &path).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(back.num_users(), ds.num_users());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_sample_before_header() {
        let err = from_str("S 0 0 100 100 0 1\n").unwrap_err();
        assert!(matches!(err, ParseError::Syntax { line: 1, .. }));
    }

    #[test]
    fn rejects_malformed_sample() {
        let err = from_str("F 0\nS 0 0 100 100 0\n").unwrap_err();
        assert!(err.to_string().contains("expected 6 sample fields"));
    }

    #[test]
    fn rejects_bad_numbers() {
        let err = from_str("F 0\nS a 0 100 100 0 1\n").unwrap_err();
        assert!(err.to_string().contains("bad integer"));
    }

    #[test]
    fn rejects_empty_fingerprint() {
        let err = from_str("F 0\nF 1\nS 0 0 100 100 0 1\n").unwrap_err();
        assert!(err.to_string().contains("no samples"));
    }

    #[test]
    fn rejects_duplicate_users_across_fingerprints() {
        let text = "F 0\nS 0 0 100 100 0 1\nF 0\nS 0 0 100 100 5 1\n";
        let err = from_str(text).unwrap_err();
        assert!(matches!(err, ParseError::Model(_)));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# comment\n\n# name: hello\nF 3\n# inner comment\nS 0 0 100 100 0 1\n\n";
        let ds = from_str(text).unwrap();
        assert_eq!(ds.name, "hello");
        assert_eq!(ds.num_users(), 1);
    }

    #[test]
    fn rejects_zero_extent_sample() {
        let err = from_str("F 0\nS 0 0 0 100 0 1\n").unwrap_err();
        assert!(matches!(err, ParseError::Model(_)));
    }

    #[test]
    fn events_round_trip() {
        let ds = sample_dataset();
        let events = glove_core::stream::events_of(&ds);
        let text = events_to_string(&ds.name, events.iter().copied());
        let (name, back) = events_from_str(&text).unwrap();
        assert_eq!(name, ds.name);
        assert_eq!(back, events);
    }

    #[test]
    fn event_reader_streams_a_file() {
        let ds = sample_dataset();
        let events = glove_core::stream::events_of(&ds);
        let path = std::env::temp_dir().join(format!("glove-events-{}.txt", std::process::id()));
        write_events_file(&ds.name, events.iter().copied(), &path).unwrap();
        let reader = EventReader::open(&path).unwrap();
        assert_eq!(reader.name(), ds.name);
        let back: Result<Vec<_>, _> = reader.collect();
        assert_eq!(back.unwrap(), events);
        assert!(is_events_file(&path).unwrap());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dataset_files_are_not_sniffed_as_events() {
        let ds = sample_dataset();
        let path = std::env::temp_dir().join(format!("glove-ds-sniff-{}.txt", std::process::id()));
        write_file(&ds, &path).unwrap();
        assert!(!is_events_file(&path).unwrap());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn event_parse_errors_carry_line_numbers() {
        // Record on line 3 (after header comments) is malformed.
        let text = "# glove events v1\n# name: x\nE 0 0 0 100 100 0\n";
        let err = events_from_str(text).unwrap_err();
        assert!(
            matches!(err, ParseError::Syntax { line: 3, .. }),
            "got {err:?}"
        );
        let text = "# glove events v1\nE 0 zero 0 100 100 0 1\n";
        let err = events_from_str(text).unwrap_err();
        assert!(err.to_string().contains("line 2"), "got {err}");
        assert!(err.to_string().contains("bad integer"));
        // Invalid box extents surface as model errors, not panics.
        let text = "E 0 0 0 0 100 0 1\n";
        assert!(matches!(
            events_from_str(text).unwrap_err(),
            ParseError::Model(_)
        ));
    }

    #[test]
    fn buffered_writer_output_matches_to_string() {
        // write_file must stay byte-identical to the in-memory serializer —
        // the equivalence anchor relies on it.
        let ds = sample_dataset();
        let path = std::env::temp_dir().join(format!("glove-bufw-{}.txt", std::process::id()));
        write_file(&ds, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes, to_string(&ds).into_bytes());
        let _ = std::fs::remove_file(&path);
    }
}
