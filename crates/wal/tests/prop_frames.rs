//! Property tests for WAL frame decoding (`decode_records` over
//! `scan_frames`), the code every byte read back from disk reaches on boot.
//!
//! * Arbitrary bytes — noise, frames around noise, frames around JSON-ish
//!   token soup and valid record frames, mixed — never panic, and the
//!   valid prefix ends on a frame boundary `scan_frames` reports. This
//!   property runs in a child process (the test binary re-executed with a
//!   filter), so a stack overflow fails the test instead of killing the
//!   harness.
//! * A valid stream of 1–32 records cut at every offset decodes to exactly
//!   the records whose frames end at or before the cut.
//! * One byte flipped anywhere inside frame `i` yields exactly records
//!   `0..i`.

use ofmf_wal::{decode_records, encode_frame, scan_frames, WalRecord};
use proptest::prelude::*;
use serde_json::{json, Value};
use std::process::Command;

fn byte() -> impl Strategy<Value = u8> {
    (0u32..256).prop_map(|b| b as u8)
}

fn path() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9/_\"\\é]{0,16}".prop_map(|tail| format!("/redfish/v1/{tail}"))
}

fn body() -> impl Strategy<Value = Value> {
    (
        "[a-zA-Z0-9 \"\\é]{0,12}",
        any::<u64>(),
        any::<bool>(),
        prop::collection::vec("[a-z]{0,6}", 0..4),
    )
        .prop_map(|(name, n, flag, tags)| json!({"Name": name, "Count": n, "Enabled": flag, "Tags": tags, "Oem": {}}))
}

fn record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        (
            (path(), body()),
            (any::<u64>(), any::<bool>()),
            (any::<bool>(), any::<u64>())
        )
            .prop_map(
                |((id, body), (etag, is_collection), (linked, parent))| WalRecord::Create {
                    id,
                    body,
                    etag,
                    is_collection,
                    parent_etag: linked.then_some(parent),
                }
            ),
        (path(), body(), any::<u64>()).prop_map(|(id, delta, etag)| WalRecord::Patch { id, delta, etag }),
        (path(), any::<bool>(), any::<u64>()).prop_map(|(id, linked, parent)| WalRecord::DeleteSubtree {
            id,
            parent_etag: linked.then_some(parent),
        }),
        any::<u64>().prop_map(|now_ms| WalRecord::ClockMark { now_ms }),
        any::<u64>().prop_map(|seq| WalRecord::EtagFloor { seq }),
        ("[a-z0-9-]{1,24}", any::<u64>())
            .prop_map(|(token, last_used_ms)| WalRecord::SessionTouch { token, last_used_ms }),
        (
            "[a-z0-9]{1,8}",
            path(),
            prop::collection::vec("[A-Za-z]{1,12}", 0..3),
            prop::collection::vec(path(), 0..3)
        )
            .prop_map(|(id, destination, event_types, origins)| WalRecord::Subscribe {
                id,
                destination,
                event_types,
                origins,
            }),
        (path(), path(), body(), prop::collection::vec(body(), 0..3)).prop_map(|(system, node, request, planned)| {
            WalRecord::ComposeIntent {
                system,
                node,
                request,
                planned: Value::Array(planned),
            }
        }),
        path().prop_map(|system| WalRecord::ComposeCommit { system }),
    ]
}

fn frame_of(rec: &WalRecord) -> Vec<u8> {
    let payload = serde_json::to_vec(&rec.to_value()).expect("a record encodes");
    let mut out = Vec::new();
    encode_frame(&payload, &mut out);
    out
}

/// JSON-shaped fragments: a frame around a soup of these reaches the
/// record decoder's deeper branches far more often than uniform noise.
fn json_token() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "{",
        "}",
        "[",
        "]",
        ",",
        ":",
        "\"k\"",
        "\"clock_mark\"",
        "\"create\"",
        "\"now_ms\"",
        "\"id\"",
        "\"body\"",
        "\"etag\"",
        "0",
        "-1",
        "1e999",
        "18446744073709551616",
        "true",
        "null",
        "\"\\u00e9\"",
        "\"\\ud800\"",
        "\"",
        "\\",
        " ",
    ])
}

/// One chunk of a hostile segment.
fn chunk() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(byte(), 0..48),
        prop::collection::vec(byte(), 0..48).prop_map(|noise| {
            let mut out = Vec::new();
            encode_frame(&noise, &mut out);
            out
        }),
        prop::collection::vec(json_token(), 0..40).prop_map(|soup| {
            let mut out = Vec::new();
            encode_frame(soup.concat().as_bytes(), &mut out);
            out
        }),
        record().prop_map(|r| frame_of(&r)),
    ]
}

/// A valid stream of records: (bytes, per-frame end offsets).
fn stream(recs: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut ends = Vec::new();
    for r in recs {
        bytes.extend_from_slice(&frame_of(r));
        ends.push(bytes.len());
    }
    (bytes, ends)
}

#[test]
fn random_bytes_never_panic() {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args(["random_bytes_child", "--exact", "--ignored", "--test-threads=1"])
        .output()
        .expect("re-exec the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "decoding random bytes killed or failed the child ({}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("1 passed"), "the child ran no property:\n{stdout}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    #[ignore = "runs in a child process spawned by random_bytes_never_panic"]
    fn random_bytes_child(chunks in prop::collection::vec(chunk(), 0..12)) {
        let bytes = chunks.concat();
        for cut in [bytes.len(), bytes.len() / 2, bytes.len().saturating_sub(1)] {
            let input = &bytes[..cut];
            let (records, valid_len) = decode_records(input);
            let (frames, scanned) = scan_frames(input);
            prop_assert!(valid_len <= input.len());
            prop_assert!(valid_len <= scanned, "decoded past the scanned prefix");
            let in_prefix = frames.iter().filter(|f| f.end() <= valid_len).count();
            prop_assert!(
                valid_len == 0 || frames.iter().any(|f| f.end() == valid_len),
                "valid_len {} is not a frame boundary", valid_len
            );
            prop_assert_eq!(records.len(), in_prefix, "one record per frame of the valid prefix");
        }
    }
}

proptest! {
    // Quadratic in the stream length: every cut re-decodes its prefix.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_cut_of_a_valid_stream_decodes_the_complete_frames(recs in prop::collection::vec(record(), 1..33)) {
        let (bytes, ends) = stream(&recs);
        let (whole, valid) = decode_records(&bytes);
        prop_assert_eq!(valid, bytes.len());
        prop_assert_eq!(&whole, &recs, "a record does not round-trip");
        for k in 0..=bytes.len() {
            let complete = ends.iter().filter(|&&e| e <= k).count();
            let (records, valid_len) = decode_records(&bytes[..k]);
            prop_assert_eq!(&records[..], &recs[..complete], "cut at {}", k);
            prop_assert_eq!(valid_len, if complete == 0 { 0 } else { ends[complete - 1] }, "cut at {}", k);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn a_flipped_byte_in_frame_i_keeps_exactly_records_before_i(
        recs in prop::collection::vec(record(), 1..33),
        pick in any::<u64>(),
        offset in any::<u64>(),
        mask in 1u32..256,
    ) {
        let (mut bytes, ends) = stream(&recs);
        let i = (pick % recs.len() as u64) as usize;
        let start = if i == 0 { 0 } else { ends[i - 1] };
        let at = start + (offset % (ends[i] - start) as u64) as usize;
        bytes[at] ^= mask as u8;
        let (records, valid_len) = decode_records(&bytes);
        prop_assert_eq!(&records[..], &recs[..i], "flip at byte {} of frame {}", at - start, i);
        prop_assert_eq!(valid_len, start);
    }
}
