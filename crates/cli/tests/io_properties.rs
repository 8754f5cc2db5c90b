//! Property tests of the dataset and event text formats: serialize → parse
//! must be the identity on arbitrary valid inputs, malformed records must
//! be rejected with the *exact* 1-based line number of the offending
//! record, and the parsers must never panic. `io::read_file` and
//! `io::from_str` must agree on every text, valid or not: the same dataset,
//! or the same error at the same line.

use glove_cli::io;
use glove_core::stream::events_of;
use glove_core::{Dataset, Fingerprint, Sample, UserId};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Parses `text` with both `io::from_str` and `io::read_file` (through a
/// temporary file), asserts that they agree — the same dataset, or the same
/// error and line — and returns `from_str`'s result.
fn parse_both(text: &str) -> Result<Dataset, io::ParseError> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "glove-io-parity-{}-{}.txt",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, text).expect("temp file is writable");
    let from_file = io::read_file(&path);
    let _ = std::fs::remove_file(&path);
    let from_text = io::from_str(text);
    match (&from_text, &from_file) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.name, b.name, "names differ on {text:?}");
            assert_eq!(
                a.fingerprints, b.fingerprints,
                "datasets differ on {text:?}"
            );
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "errors differ on {text:?}"),
        (a, b) => panic!("from_str gave {a:?}, read_file gave {b:?} on {text:?}"),
    }
    from_text
}

/// Re-joins `text`'s lines with CRLF or LF ends, optionally without the
/// final one, with a blank (or whitespace-only) line after every line whose
/// index is in `blank_after`.
fn reshape_text(text: &str, crlf: bool, final_end: bool, blank_after: &[usize]) -> String {
    let end = if crlf { "\r\n" } else { "\n" };
    let mut out = String::new();
    for (i, line) in text.lines().enumerate() {
        out.push_str(line);
        out.push_str(end);
        if blank_after.contains(&i) {
            out.push_str(if i % 2 == 0 { "" } else { " \t " });
            out.push_str(end);
        }
    }
    if !final_end {
        out.truncate(out.len() - end.len());
    }
    out
}

fn arb_sample() -> impl Strategy<Value = Sample> {
    (
        -1_000_000i64..1_000_000,
        -1_000_000i64..1_000_000,
        1u32..100_000,
        1u32..100_000,
        0u32..40_000,
        1u32..5_000,
    )
        .prop_map(|(x, y, dx, dy, t, dt)| Sample::new(x, y, dx, dy, t, dt).expect("valid"))
}

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    vec(vec(arb_sample(), 1..=8), 1..=12).prop_map(|per_user| {
        let fps = per_user
            .into_iter()
            .enumerate()
            .map(|(u, samples)| {
                Fingerprint::with_users(vec![u as UserId], samples).expect("non-empty")
            })
            .collect();
        Dataset::new("prop-io", fps).expect("unique users")
    })
}

/// Datasets with multi-subscriber (merged) fingerprints — the shape GLOVE
/// output files have.
fn arb_grouped_dataset() -> impl Strategy<Value = Dataset> {
    (vec(vec(arb_sample(), 1..=6), 1..=6), 1u32..4).prop_map(|(per_group, width)| {
        let fps = per_group
            .into_iter()
            .enumerate()
            .map(|(g, samples)| {
                let base = g as UserId * 10;
                let users: Vec<UserId> = (0..width).map(|i| base + i).collect();
                Fingerprint::with_users(users, samples).expect("non-empty")
            })
            .collect();
        Dataset::new("prop-io-grouped", fps).expect("unique users")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn round_trip_is_identity(ds in arb_dataset()) {
        let text = io::to_string(&ds);
        let back = io::from_str(&text).expect("serializer output must parse");
        prop_assert_eq!(back.name, ds.name);
        prop_assert_eq!(back.fingerprints.len(), ds.fingerprints.len());
        for (a, b) in back.fingerprints.iter().zip(&ds.fingerprints) {
            prop_assert_eq!(a.users(), b.users());
            prop_assert_eq!(a.samples(), b.samples());
        }
    }

    #[test]
    fn parser_never_panics_on_arbitrary_text(text in "\\PC{0,400}") {
        // Any outcome is fine except a panic, as long as both readers agree.
        let _ = parse_both(&text);
    }

    #[test]
    fn parser_never_panics_on_liney_garbage(lines in vec("[FS#] ?[-0-9a-z, ]{0,40}", 0..20)) {
        let _ = parse_both(&lines.join("\n"));
    }

    /// The file reader equals the text parser on every serialized dataset,
    /// whatever its line ends, final newline and blank lines.
    #[test]
    fn read_file_equals_from_str_on_any_layout(
        ds in arb_grouped_dataset(),
        crlf in 0u8..2,
        final_end in 0u8..2,
        blank_after in vec(0usize..40, 0..6),
    ) {
        let text = reshape_text(&io::to_string(&ds), crlf == 1, final_end == 1, &blank_after);
        let back = parse_both(&text).expect("reshaped serializer output must parse");
        prop_assert_eq!(back.name, ds.name);
        prop_assert_eq!(back.fingerprints, ds.fingerprints);
    }

    /// A header left without samples at the end of the input is reported
    /// at the input's last line, blank lines and line ends included.
    #[test]
    fn trailing_header_without_samples_reports_the_last_line(
        ds in arb_dataset(),
        crlf in 0u8..2,
        final_end in 0u8..2,
        trailing_blanks in 0usize..3,
    ) {
        let mut text = io::to_string(&ds);
        text.push_str("F 999999\n");
        text.push_str(&"\n".repeat(trailing_blanks));
        let text = reshape_text(&text, crlf == 1, final_end == 1, &[]);
        let lines = text.lines().count();
        match parse_both(&text).expect_err("a header with no samples must be caught") {
            io::ParseError::Syntax { line, ref message } => {
                prop_assert_eq!(line, lines);
                prop_assert!(message.contains("no samples"), "message: {message}");
            }
            other => prop_assert!(false, "expected a Syntax error, got {other:?}"),
        }
    }

    #[test]
    fn grouped_round_trip_is_identity(ds in arb_grouped_dataset()) {
        let text = io::to_string(&ds);
        let back = io::from_str(&text).expect("serializer output must parse");
        prop_assert_eq!(back.fingerprints.len(), ds.fingerprints.len());
        for (a, b) in back.fingerprints.iter().zip(&ds.fingerprints) {
            prop_assert_eq!(a.users(), b.users());
            prop_assert_eq!(a.samples(), b.samples());
        }
    }

    /// Corrupting one `S` record must be reported at exactly that record's
    /// 1-based line number.
    #[test]
    fn malformed_sample_record_reports_its_line(
        ds in arb_dataset(),
        corrupt_kind in 0usize..3,
        pick in 0usize..1_000,
    ) {
        let text = io::to_string(&ds);
        let lines: Vec<&str> = text.lines().collect();
        let sample_lines: Vec<usize> =
            (0..lines.len()).filter(|&i| lines[i].starts_with("S ")).collect();
        let victim = sample_lines[pick % sample_lines.len()];

        let corrupted = match corrupt_kind {
            // Too few fields.
            0 => lines[victim].rsplit_once(' ').expect("has fields").0.to_string(),
            // Non-numeric field.
            1 => lines[victim].replacen("S ", "S x", 1),
            // Unknown record tag.
            _ => lines[victim].replacen("S ", "Q ", 1),
        };
        let mut mutated: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
        mutated[victim] = corrupted;
        let err = parse_both(&mutated.join("\n")).expect_err("corruption must be caught");
        match err {
            io::ParseError::Syntax { line, .. } => prop_assert_eq!(
                line, victim + 1, "error reported at the wrong line"
            ),
            other => prop_assert!(false, "expected a Syntax error, got {other:?}"),
        }
    }

    /// Corrupting an `F` header must be reported at that header's line.
    #[test]
    fn malformed_fingerprint_header_reports_its_line(
        ds in arb_dataset(),
        pick in 0usize..1_000,
    ) {
        let text = io::to_string(&ds);
        let lines: Vec<&str> = text.lines().collect();
        let header_lines: Vec<usize> =
            (0..lines.len()).filter(|&i| lines[i].starts_with("F ")).collect();
        let victim = header_lines[pick % header_lines.len()];

        let mut mutated: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
        mutated[victim] = "F 1,borked".to_string();
        let err = parse_both(&mutated.join("\n")).expect_err("corruption must be caught");
        match err {
            io::ParseError::Syntax { line, ref message } => {
                prop_assert_eq!(line, victim + 1);
                prop_assert!(message.contains("user id"), "message: {message}");
            }
            other => prop_assert!(false, "expected a Syntax error, got {other:?}"),
        }
    }

    /// Event streams: serialize → parse is the identity on the canonical
    /// event view of any dataset.
    #[test]
    fn event_round_trip_is_identity(ds in arb_grouped_dataset()) {
        let events = events_of(&ds);
        let text = io::events_to_string(&ds.name, events.iter().copied());
        let (name, back) = io::events_from_str(&text).expect("serializer output must parse");
        prop_assert_eq!(name, ds.name.clone());
        prop_assert_eq!(back, events);
    }

    /// The event parser never panics on arbitrary text.
    #[test]
    fn event_parser_never_panics(text in "\\PC{0,400}") {
        let _ = io::events_from_str(&text);
    }

    /// Corrupting one `E` record reports that record's line number.
    #[test]
    fn malformed_event_record_reports_its_line(
        ds in arb_dataset(),
        pick in 0usize..1_000,
    ) {
        let events = events_of(&ds);
        let text = io::events_to_string(&ds.name, events.iter().copied());
        let lines: Vec<&str> = text.lines().collect();
        let event_lines: Vec<usize> =
            (0..lines.len()).filter(|&i| lines[i].starts_with("E ")).collect();
        let victim = event_lines[pick % event_lines.len()];

        let mut mutated: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
        mutated[victim] = "E not-a-user 0 0 100 100 0 1".to_string();
        let err = io::events_from_str(&mutated.join("\n")).expect_err("must be caught");
        match err {
            io::ParseError::Syntax { line, .. } => prop_assert_eq!(line, victim + 1),
            other => prop_assert!(false, "expected a Syntax error, got {other:?}"),
        }
    }
}

/// An invalid UTF-8 byte is a syntax error at its line, in dataset files
/// and in event files alike; the event lines around it parse as usual.
#[test]
fn invalid_utf8_reports_its_line() {
    let path = |stem: &str| {
        std::env::temp_dir().join(format!("glove-io-utf8-{}-{stem}.txt", std::process::id()))
    };
    let assert_line_4 = |err: io::ParseError| match err {
        io::ParseError::Syntax { line, message } => {
            assert_eq!(line, 4, "message: {message}");
            assert!(message.contains("UTF-8"), "message: {message}");
        }
        other => panic!("expected a Syntax error at line 4, got {other:?}"),
    };

    let dataset = path("dataset");
    let mut text = b"# glove dataset v1\nF 1\nS 0 0 100 100 10 1\nS 0 0 100 100 2".to_vec();
    text.extend_from_slice(b"\xFF 1\n");
    std::fs::write(&dataset, &text).unwrap();
    let err = io::read_file(&dataset).expect_err("the bad byte must be caught");
    let _ = std::fs::remove_file(&dataset);
    assert_line_4(err);

    let events = path("events");
    let mut text = b"# glove events v1\nE 1 0 0 100 100 10 1\nE 2 0 0 100 100 11 1\n".to_vec();
    text.extend_from_slice(b"E 1 0 0 100 100 1\xFF 1\nE 2 0 0 100 100 13 1\n");
    std::fs::write(&events, &text).unwrap();
    let read: Vec<_> = io::EventReader::open(&events)
        .expect("the header is valid")
        .collect();
    let _ = std::fs::remove_file(&events);
    assert_eq!(read.len(), 4, "one item per record line");
    assert!(read[0].is_ok() && read[1].is_ok() && read[3].is_ok());
    assert_line_4(read.into_iter().nth(2).unwrap().unwrap_err());

    // A bad byte in the header: the sniff still sees an event file, and
    // the reader names line 1.
    let header = path("header");
    std::fs::write(&header, b"# glove events v1\xFF\nE 1 0 0 100 100 10 1\n").unwrap();
    let sniffed = io::is_events_file(&header);
    let opened = io::EventReader::open(&header);
    let _ = std::fs::remove_file(&header);
    assert!(sniffed.expect("the sniff reads past the bad byte"));
    assert!(matches!(
        opened,
        Err(io::ParseError::Syntax { line: 1, .. })
    ));
}
