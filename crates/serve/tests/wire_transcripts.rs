//! The wire contract of `ddtr serve`, pinned by recorded lines.
//!
//! `data/wire_requests.jsonl` and `data/wire_events.jsonl` are
//! transcripts: one wire line per `Request` and `Event` shape, as that
//! shape first shipped. Each file opens with the v1 lines, which carry
//! only the request and event fields protocol v1 had (its inline `Run`
//! and `Result` lines carry one exploration of each mode); the later
//! shapes follow in the order they shipped. Every line must
//!
//! * decode with today's types;
//! * re-encode with every key it carries, recursively and with an equal
//!   value, so a removed or renamed field fails here even where decoding
//!   alone would ignore it (keys named in [`RETIRED`] excepted);
//! * resolve through `JobSpec::resolve`, when it is a `Run`.
//!
//! Every variant of the wire enums must appear on some line: the
//! exhaustive matches behind `variants!` do not compile until a new
//! variant is named there, and the coverage test then fails until a line
//! carries it. Every `RequestBody` and `Event` variant must also appear
//! as a word in `docs/PROTOCOL.md`, which clients are written against.
//!
//! To record a new shape, append a line. To retire a key that old peers
//! still send, name it in [`RETIRED`].

use ddtr_core::{ExploreRequest, ExploreResult};
use ddtr_serve::{ErrorCode, Event, Request, RequestBody};
use serde::{DeserializeOwned, Serialize};
use serde_json::Value;
use std::collections::BTreeSet;

const REQUESTS: &str = include_str!("data/wire_requests.jsonl");
const EVENTS: &str = include_str!("data/wire_events.jsonl");
const PROTOCOL_DOC: &str = include_str!("../../../docs/PROTOCOL.md");

/// Keys that old peers send and today's types drop on decode.
const RETIRED: &[&str] = &[
    // `MethodologyConfig` and `GaConfig` lost `streaming` when every mode
    // came to describe its networks as stream specs.
    "streaming",
    // `JobSpec.stream` (`--stream`) went the same way: the engine alone
    // decides whether a batch generates its packets once or streams them.
    "stream",
];

/// `(1-based line number, line)` for every line of a transcript.
fn lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines().enumerate().map(|(i, line)| (i + 1, line))
}

/// Decodes line `n` of `file` as `T` and checks that re-encoding the
/// value keeps every key of the line.
fn decode<T: Serialize + DeserializeOwned>(file: &str, n: usize, line: &str) -> T {
    let value: T =
        serde_json::from_str(line).unwrap_or_else(|e| panic!("{file}:{n} no longer decodes: {e}"));
    let recorded = serde_json::parse(line).expect("a transcript line is JSON");
    let encoded = serde_json::to_string(&value).expect("encodes");
    let now = serde_json::parse(&encoded).expect("the re-encoding is JSON");
    if let Err(path) = kept(&recorded, &now, "$") {
        panic!("{file}:{n}: the re-encoding loses or changes `{path}`\nrecorded: {line}\nnow:      {encoded}");
    }
    value
}

/// Whether `now` carries every key of `recorded` outside [`RETIRED`],
/// recursively, with an equal value; the error names the first path that
/// differs.
fn kept(recorded: &Value, now: &Value, path: &str) -> Result<(), String> {
    match (recorded, now) {
        (Value::Map(old), Value::Map(new)) => {
            for (key, old) in old.iter() {
                if RETIRED.contains(&key.as_str()) {
                    continue;
                }
                let path = format!("{path}.{key}");
                let new = new.get(key).ok_or_else(|| path.clone())?;
                kept(old, new, &path)?;
            }
            Ok(())
        }
        (Value::Seq(old), Value::Seq(new)) if old.len() == new.len() => old
            .iter()
            .zip(new)
            .enumerate()
            .try_for_each(|(i, (old, new))| kept(old, new, &format!("{path}[{i}]"))),
        _ if recorded == now => Ok(()),
        _ => Err(path.to_string()),
    }
}

#[test]
fn every_request_line_decodes_keeps_its_keys_and_resolves() {
    for (n, line) in lines(REQUESTS) {
        let request: Request = decode("wire_requests.jsonl", n, line);
        if let RequestBody::Run(spec) = &request.body {
            if let Err(e) = spec.resolve() {
                panic!("wire_requests.jsonl:{n} no longer resolves: {e}");
            }
        }
    }
}

#[test]
fn every_event_line_decodes_and_keeps_its_keys() {
    for (n, line) in lines(EVENTS) {
        decode::<Event>("wire_events.jsonl", n, line);
    }
}

/// The variant names of a wire enum, from one match without a wildcard:
/// `(name of a value's variant, every name)`.
macro_rules! variants {
    ($ty:ident: $($variant:ident),+ $(,)?) => {
        (
            (|value: &$ty| match value {
                $($ty::$variant { .. } => stringify!($variant),)+
            }) as fn(&$ty) -> &'static str,
            [$(stringify!($variant)),+],
        )
    };
}

#[test]
fn every_wire_variant_has_a_line() {
    let (body_name, bodies) =
        variants!(RequestBody: Hello, Ping, Stats, Metrics, Run, Cancel, Shutdown);
    let (event_name, events) = variants!(Event: Hello, Welcome, Pong, Queued, Running, Cell,
        Result, Stats, Metrics, Cancelled, Error, Bye);
    let (request_name, requests) =
        variants!(ExploreRequest: Explore, Ga, Scenarios, Sweep, Headline);
    let (result_name, results) = variants!(ExploreResult: Explore, Ga, Scenarios, Sweep, Headline);
    let (code_name, codes) = variants!(ErrorCode: Parse, BadRequest, AuthRequired, AuthFailed,
        UnsupportedProtocol, RateLimited, TooLarge, DuplicateId, UnknownTarget, Overloaded,
        Internal);

    let mut seen = BTreeSet::new();
    for (_, line) in lines(REQUESTS) {
        let request: Request = serde_json::from_str(line).expect("decodes");
        seen.insert(("RequestBody", body_name(&request.body)));
        if let RequestBody::Run(spec) = &request.body {
            if let Some(inline) = &spec.inline {
                seen.insert(("ExploreRequest", request_name(inline)));
            }
        }
    }
    for (_, line) in lines(EVENTS) {
        let event: Event = serde_json::from_str(line).expect("decodes");
        seen.insert(("Event", event_name(&event)));
        match &event {
            Event::Result { result, .. } => {
                seen.insert(("ExploreResult", result_name(result)));
            }
            Event::Error {
                code: Some(code), ..
            } => {
                seen.insert(("ErrorCode", code_name(code)));
            }
            _ => {}
        }
    }
    let all: [(&str, &[&str]); 5] = [
        ("RequestBody", &bodies),
        ("Event", &events),
        ("ExploreRequest", &requests),
        ("ExploreResult", &results),
        ("ErrorCode", &codes),
    ];
    let missing: Vec<String> = all
        .into_iter()
        .flat_map(|(ty, names)| {
            names
                .iter()
                .filter(|name| !seen.contains(&(ty, **name)))
                .map(move |name| format!("{ty}::{name}"))
        })
        .collect();
    assert!(
        missing.is_empty(),
        "no transcript line carries {missing:?}: record each by appending a line"
    );

    let words: BTreeSet<&str> = PROTOCOL_DOC
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .collect();
    let undocumented: Vec<String> = [("RequestBody", &bodies[..]), ("Event", &events[..])]
        .into_iter()
        .flat_map(|(ty, names)| {
            names
                .iter()
                .filter(|name| !words.contains(**name))
                .map(move |name| format!("{ty}::{name}"))
        })
        .collect();
    assert!(
        undocumented.is_empty(),
        "docs/PROTOCOL.md does not mention {undocumented:?}"
    );
}
