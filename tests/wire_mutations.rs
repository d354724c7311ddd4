//! Mutational property test of the wire parsers.
//!
//! `parse_request` and `parse_response` are a hand-written scanner fed by
//! untrusted clients and servers. Starting from valid lines of every
//! kind, the cases below truncate, flip bytes, splice in fragments of
//! other lines, duplicate fields, nest brackets deeply and inflate
//! numbers to a megabyte. Whatever the input, a parser must return — no
//! panic, no stack overflow — and every rejection must be a structured
//! `WireError`: a parse or version code with a message.

use proptest::prelude::*;
use sft::service::protocol::{parse_request, parse_response, ErrorCode, WireError};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Valid request lines: embeds with every optional field, a release, a
/// shutdown.
const REQUESTS: &[&str] = &[
    r#"{"v":1,"id":7,"source":0,"dests":[12,31],"sfc":[0,1],"mode":"quote","deadline_ms":500}"#,
    r#"{"v":1,"id":9,"source":3,"dests":[1],"sfc":[2],"bandwidth":2.5,"mode":"commit","delay_budget_ms":17.25}"#,
    r#"{"v":1,"id":8,"op":"release","session":7,"deadline_ms":20}"#,
    r#"{"op":"shutdown"}"#,
    r#"  {"source":4,"dests":[5,6,7],"sfc":[0,1,2]}  "#,
];

/// Valid response lines of every status.
const RESPONSES: &[&str] = &[
    r#"{"v":1,"id":7,"status":"ok","cost":{"total":12.5,"setup":2,"link":10.5},"committed":false,"instances":[[1,4]]}"#,
    r#"{"v":1,"id":9,"status":"ok","cost":{"total":12.5,"setup":2,"link":10.5},"committed":true,"instances":[[1,4]],"max_path_delay":7.25,"session":9}"#,
    r#"{"v":1,"id":8,"status":"released","session":7,"freed":[[1,4]],"shared":1,"bw_freed":2.4}"#,
    r#"{"v":1,"id":9,"status":"error","error":{"code":"insufficient_capacity","message":"no \"room\" \\ here"}}"#,
    r#"{"v":1,"id":10,"status":"draining"}"#,
];

/// Bytes that matter to the scanner, plus a multi-byte character.
const ALPHABET: &[&str] = &[
    "{", "}", "[", "]", "\"", ":", ",", "\\", "-", "+", ".", "e", "E", "0", "9", " ", "\t", "n",
    "t", "f", "é", "\u{0}",
];

/// Applies one mutation, chosen by `kind`, to `line`. `a` and `b` pick
/// positions and fragments; `other` is a second valid line.
fn mutate(line: &str, other: &str, kind: u32, a: usize, b: usize) -> String {
    let bytes = line.as_bytes();
    let at = a % (bytes.len() + 1);
    let mut out = bytes.to_vec();
    match kind {
        // Truncate.
        0 => out.truncate(at),
        // Flip a few bytes to scanner-relevant ones (or anything).
        1 => {
            for i in 0..=(b % 4) {
                let pos = (a.wrapping_mul(31).wrapping_add(i * 7)) % out.len().max(1);
                if let Some(byte) = out.get_mut(pos) {
                    *byte = match (b >> i) % 3 {
                        0 => ALPHABET[(a + i) % ALPHABET.len()].as_bytes()[0],
                        _ => (b.wrapping_mul(131).wrapping_add(i * 17) % 256) as u8,
                    };
                }
            }
        }
        // Splice a fragment of another line in.
        2 => {
            let o = other.as_bytes();
            let from = b % (o.len() + 1);
            let to = (from + 1 + a % 40).min(o.len());
            out.splice(at..at, o[from..to].iter().copied());
        }
        // Duplicate a stretch of the line right after itself.
        3 => {
            let to = (at + 1 + b % 30).min(out.len());
            let dup = out[at..to].to_vec();
            out.splice(to..to, dup);
        }
        // Insert scanner-relevant tokens.
        4 => {
            for i in 0..=(b % 6) {
                let token = ALPHABET[(b + i * 5) % ALPHABET.len()];
                let pos = (at + i) % (out.len() + 1);
                out.splice(pos..pos, token.bytes());
            }
        }
        // Delete a stretch.
        _ => {
            let to = (at + 1 + b % 12).min(out.len());
            out.drain(at..to);
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn structured(e: &WireError) -> bool {
    matches!(
        e.code,
        ErrorCode::ParseError | ErrorCode::UnsupportedVersion
    ) && !e.message.is_empty()
}

/// Runs both parsers on `line`; describes the first panic or
/// unstructured rejection.
fn check(line: &str) -> Result<(), String> {
    let shown: String = line.chars().take(200).collect();
    let request = catch_unwind(AssertUnwindSafe(|| parse_request(line)))
        .map_err(|_| format!("parse_request panicked on {shown:?}"))?;
    if let Err(e) = request {
        if !structured(&e) {
            return Err(format!("parse_request: unstructured {e:?} on {shown:?}"));
        }
    }
    let response = catch_unwind(AssertUnwindSafe(|| parse_response(line)))
        .map_err(|_| format!("parse_response panicked on {shown:?}"))?;
    if let Err(e) = response {
        if !structured(&e) {
            return Err(format!("parse_response: unstructured {e:?} on {shown:?}"));
        }
    }
    Ok(())
}

#[test]
fn the_seed_lines_parse() {
    for line in REQUESTS {
        assert!(parse_request(line).is_ok(), "{line}");
    }
    for line in RESPONSES {
        assert!(parse_response(line).is_ok(), "{line}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    /// Stacked mutations of valid lines never panic and every rejection
    /// is structured.
    #[test]
    fn mutated_lines_never_panic_and_fail_structured(
        seed in 0usize..(REQUESTS.len() + RESPONSES.len()),
        other in 0usize..(REQUESTS.len() + RESPONSES.len()),
        steps in proptest::collection::vec((0u32..6, 0usize..100_000, 0usize..100_000), 1..5),
    ) {
        let lines: Vec<&str> = REQUESTS.iter().chain(RESPONSES).copied().collect();
        let mut line = lines[seed].to_string();
        for (kind, a, b) in steps {
            line = mutate(&line, lines[other], kind, a, b);
            if let Err(msg) = check(&line) {
                return Err(TestCaseError::fail(msg));
            }
        }
    }
}

#[test]
fn deep_nesting_is_rejected_without_overflowing_the_stack() {
    let deep = 200_000;
    let arrays = "[".repeat(deep);
    let objects = "{\"a\":".repeat(deep);
    for line in [
        format!("{{\"dests\":{arrays}"),
        format!("{{\"source\":{arrays}1{}}}", "]".repeat(deep)),
        format!("{{\"instances\":{arrays}"),
        format!("{{\"error\":{objects}1{}", "}".repeat(deep)),
        format!("{{\"cost\":{objects}"),
        arrays.clone(),
        "{".repeat(deep),
    ] {
        check(&line).unwrap();
        assert!(parse_request(&line).is_err() && parse_response(&line).is_err());
    }
}

#[test]
fn megabyte_numbers_are_rejected_or_parsed_without_panicking() {
    let digits = "9".repeat(1 << 20);
    let zeros = "0".repeat(1 << 20);
    let numbers = [
        digits.clone(),
        format!("0.{zeros}1"),
        format!("1{zeros}"),
        format!("-{digits}"),
        format!("1e{digits}"),
        format!("{digits}.{digits}e-{digits}"),
    ];
    let request_fields = [
        "v",
        "id",
        "source",
        "bandwidth",
        "deadline_ms",
        "delay_budget_ms",
        "session",
    ];
    let response_fields = ["v", "id", "max_path_delay", "session", "shared", "bw_freed"];
    for number in &numbers {
        for field in request_fields.iter().chain(&response_fields) {
            check(&format!("{{\"{field}\":{number}}}")).unwrap();
        }
        check(&format!(
            "{{\"source\":0,\"dests\":[{number}],\"sfc\":[0]}}"
        ))
        .unwrap();
        check(&format!(
            "{{\"status\":\"ok\",\"cost\":{{\"total\":{number},\"setup\":{number},\"link\":1}}}}"
        ))
        .unwrap();
        check(&format!(
            "{{\"status\":\"ok\",\"instances\":[[{number},1]]}}"
        ))
        .unwrap();
    }
}
