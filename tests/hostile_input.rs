//! Hostile-input property tests: the parsers that read untrusted input —
//! SQL (`table::sql`), CSV (`table::csv::parse_csv`) and the HTTP request
//! head (`serve::http::read_request`) — answer every input with `Ok` or
//! a structured error, never a panic.
//!
//! Inputs are drawn from token alphabets biased toward the places a
//! hand-written parser tends to break: quotes left open, numbers that
//! overflow (`1e999`, `9223372036854775808`), multi-byte and invalid
//! UTF-8, oversized `Content-Length` values and truncated heads.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use table::{Table, TableBuilder};

/// Run `parse` on `input`, failing the case (with the input in the
/// message) if it panics. Whether it returns `Ok` or `Err` is not
/// checked: both are defined answers.
fn never_panics<T, E>(
    what: &str,
    input: &dyn std::fmt::Debug,
    parse: impl FnOnce() -> Result<T, E>,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| parse().is_ok()));
    prop_assert!(outcome.is_ok(), "{what} panicked on {input:?}");
    Ok(())
}

/// Concatenate `(token, separator)` index pairs into one string.
fn soup(tokens: &[&str], picks: &[(usize, usize)], seps: &[&str]) -> String {
    picks
        .iter()
        .map(|&(t, s)| format!("{}{}", tokens[t], seps[s]))
        .collect()
}

/// The table the SQL parser resolves column names against.
fn sql_table() -> Table {
    TableBuilder::new()
        .cat("country", &["FR", "DE", "FR"])
        .unwrap()
        .int("age", vec![31, 45, 28])
        .unwrap()
        .float("salary", vec![50.0, 61.5, 48.25])
        .unwrap()
        .build()
        .unwrap()
}

const SQL_TOKENS: &[&str] = &[
    "SELECT",
    "select",
    "AVG",
    "avg",
    "FROM",
    "WHERE",
    "GROUP",
    "BY",
    "AND",
    "OR",
    "NOT",
    "IN",
    "country",
    "age",
    "salary",
    "so",
    "t",
    "(",
    ")",
    ",",
    ";",
    "*",
    ".",
    "'",
    "\"",
    "'FR'",
    "'it''s'",
    "'unterminated",
    "=",
    "==",
    "!=",
    "<>",
    "<",
    "<=",
    ">",
    ">=",
    "0",
    "-0",
    "-",
    "3.14",
    "1e999",
    "-1e999",
    "9223372036854775808",
    "-9223372036854775809",
    "NaN",
    "inf",
    "é",
    "国家",
    "'ü'",
    "\u{0}",
    "\u{feff}",
    "--",
];

const CSV_ALPHABET: &[&str] = &[
    ",",
    ",",
    "\"",
    "\"\"",
    "\n",
    "\r\n",
    "\r",
    "a",
    "b",
    "x",
    "1",
    "-2",
    "3.5",
    "1e999",
    "NaN",
    "inf",
    "-0",
    "9223372036854775808",
    " ",
    "é",
    "\u{0}",
];

const HTTP_REQUEST_LINES: &[&str] = &[
    "POST /query HTTP/1.1",
    "GET /healthz HTTP/1.1",
    "GET /stats HTTP/1.0",
    "POST /query HTTP/2",
    "POST /query",
    "POST",
    "",
    " ",
    "GET / HTTP/1.1 extra",
    "\u{ff}\u{fe} /x HTTP/1.1",
];

const HTTP_HEADERS: &[&str] = &[
    "Content-Length: 0",
    "Content-Length: 5",
    "Content-Length: 64",
    "content-length: 1048576",
    "Content-Length: 1048577",
    "Content-Length: 18446744073709551615",
    "Content-Length: 18446744073709551616",
    "Content-Length: 99999999999999999999999",
    "Content-Length: -1",
    "Content-Length: 1e3",
    "Content-Length:",
    "Transfer-Encoding: chunked",
    "X-Deadline-Ms: 5",
    "X-Deadline-Ms: -7",
    "Host: localhost",
    "no colon here",
    ": empty name",
    "Héader: välue",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Token soup through both SQL entry points.
    #[test]
    fn sql_parsers_never_panic(
        picks in prop::collection::vec((0usize..SQL_TOKENS.len(), 0usize..4), 0..24),
    ) {
        let table = sql_table();
        let src = soup(SQL_TOKENS, &picks, &[" ", "", " ", "\t"]);
        never_panics("parse_query", &src, || table::sql::parse_query(&table, &src))?;
        never_panics("parse_where", &src, || table::sql::parse_where(&table, &src))?;
        // The same soup behind a valid prefix reaches the deeper states.
        let prefixed = format!("SELECT country, AVG(salary) FROM t WHERE {src}");
        never_panics("parse_query", &prefixed, || table::sql::parse_query(&table, &prefixed))?;
    }

    /// Arbitrary bytes — mostly CSV punctuation, some raw — decoded the
    /// way a byte upload would be.
    #[test]
    fn csv_parser_never_panics(
        picks in prop::collection::vec((0u8..5, any::<u8>()), 0..160),
    ) {
        let mut bytes = Vec::new();
        for (kind, b) in picks {
            match kind {
                0 => bytes.push(b),
                _ => bytes.extend_from_slice(
                    CSV_ALPHABET[b as usize % CSV_ALPHABET.len()].as_bytes(),
                ),
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        never_panics("parse_csv", &text, || table::csv::parse_csv(&text))?;
    }

    /// Request heads assembled from valid and broken fragments, with
    /// bare-LF and CRLF line ends, stray `\xff` bytes and truncation.
    #[test]
    fn http_reader_never_panics(
        line in 0usize..HTTP_REQUEST_LINES.len(),
        headers in prop::collection::vec(0usize..HTTP_HEADERS.len(), 0..5),
        crlf in any::<bool>(),
        stray_ff in 0usize..4,
        body_len in 0usize..80,
        cut in 0usize..400,
    ) {
        let eol = if crlf { "\r\n" } else { "\n" };
        let mut head = format!("{}{eol}", HTTP_REQUEST_LINES[line]);
        for &h in &headers {
            head.push_str(HTTP_HEADERS[h]);
            head.push_str(eol);
        }
        head.push_str(eol);
        let mut bytes = head.into_bytes();
        if stray_ff > 0 {
            let at = (stray_ff * 7) % bytes.len();
            bytes.insert(at, 0xff);
        }
        bytes.extend(std::iter::repeat_n(b'x', body_len));
        // Sometimes the peer hangs up mid-request.
        if cut < bytes.len() && cut % 3 == 0 {
            bytes.truncate(cut);
        }
        never_panics("read_request", &String::from_utf8_lossy(&bytes), || {
            serve::http::read_request(&mut bytes.as_slice())
        })?;
    }
}
