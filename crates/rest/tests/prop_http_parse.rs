//! Property tests for the incremental HTTP/1.1 request parser
//! (`http::parse_request`), the first code every network byte reaches.
//!
//! * A pipelined stream of 1–4 valid requests parses to the same requests
//!   however it is split across reads: at every single split offset, and
//!   one byte at a time.
//! * Arbitrary bytes — uniform noise and a soup of HTTP-shaped tokens —
//!   never make the parser panic, whole or fed incrementally.

use ofmf_rest::http::{parse_request, HttpVersion, Method, Request};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The comparable content of a parsed request.
type Parsed = (
    Method,
    String,
    Option<String>,
    BTreeMap<String, String>,
    Vec<u8>,
    HttpVersion,
);

fn parsed(r: Request) -> Parsed {
    (r.method, r.path, r.query, r.headers, r.body, r.version)
}

/// Feed `chunks` to the parser the way a connection does: append each read
/// to a buffer, drain every complete request, keep the remainder. Returns
/// the requests, or the first parse error rendered as text.
fn feed<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> Result<Vec<Parsed>, String> {
    let mut buf = Vec::new();
    let mut out = Vec::new();
    for chunk in chunks {
        buf.extend_from_slice(chunk);
        while let Some((req, used)) = parse_request(&buf).map_err(|e| format!("{e:?}"))? {
            out.push(parsed(req));
            buf.drain(..used);
        }
    }
    if buf.is_empty() {
        Ok(out)
    } else {
        Err(format!("{} trailing bytes never completed a request", buf.len()))
    }
}

fn byte() -> impl Strategy<Value = u8> {
    (0u32..256).prop_map(|b| b as u8)
}

/// One valid request on the wire, with the header section terminated by
/// either CRLF or bare LF line endings (the parser accepts both).
fn request() -> impl Strategy<Value = Vec<u8>> {
    let line = (
        prop::sample::select(vec!["GET", "POST", "PATCH", "DELETE", "HEAD"]),
        prop::collection::vec("[A-Za-z0-9]{1,8}", 0..4),
        prop_oneof![
            Just(None),
            Just(Some("$expand=.".to_string())),
            (0u32..100, 0u32..100).prop_map(|(t, s)| Some(format!("$top={t}&$skip={s}"))),
        ],
        prop::sample::select(vec!["HTTP/1.1", "HTTP/1.0"]),
    );
    let rest = (
        prop::collection::vec(("[A-Za-z-]{1,12}", "[a-z0-9 ]{0,16}"), 0..4),
        prop::collection::vec(byte(), 0..64),
        any::<bool>(),
        any::<bool>(),
    );
    (line, rest).prop_map(|((method, segs, query, version), (extra, body, crlf, explicit_len))| {
        let nl = if crlf { "\r\n" } else { "\n" };
        let mut target = String::from("/redfish/v1");
        for s in &segs {
            target.push('/');
            target.push_str(s);
        }
        if let Some(q) = &query {
            target.push('?');
            target.push_str(q);
        }
        let mut head = format!("{method} {target} {version}{nl}Host: ofmf{nl}");
        for (i, (k, v)) in extra.iter().enumerate() {
            // Distinct names: a repeated header would keep only the last.
            head.push_str(&format!("X-{k}-{i}: {v}{nl}"));
        }
        if explicit_len || !body.is_empty() {
            head.push_str(&format!("Content-Length: {}{nl}", body.len()));
        }
        head.push_str(nl);
        let mut wire = head.into_bytes();
        wire.extend_from_slice(&body);
        wire
    })
}

/// HTTP-shaped fragments: concatenations of these reach the parser's
/// deeper branches (request lines, header splitting, body lengths) far
/// more often than uniform noise does.
fn token() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::sample::select(vec![
            "GET ",
            "POST ",
            "PATCH ",
            "BREW ",
            "/redfish/v1",
            "?",
            "$top=",
            " HTTP/1.1",
            " HTTP/1.0",
            " HTTP/2",
            "\r\n",
            "\n",
            "\r",
            "\r\n\r\n",
            "\n\n",
            ":",
            " ",
            "Host: x",
            "Content-Length: ",
            "content-length:",
            "0",
            "7",
            "18446744073709551616",
            "-1",
            "99999999",
        ])
        .prop_map(|t| t.as_bytes().to_vec()),
        prop::collection::vec(byte(), 1..4),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pipelined_requests_parse_identically_at_every_split(reqs in prop::collection::vec(request(), 1..5)) {
        let stream: Vec<u8> = reqs.concat();
        let whole = feed([stream.as_slice()]);
        prop_assert!(whole.is_ok(), "valid stream rejected: {:?}", whole);
        let whole = whole.unwrap_or_default();
        prop_assert_eq!(whole.len(), reqs.len());
        for cut in 0..=stream.len() {
            let (a, b) = stream.split_at(cut);
            let split = feed([a, b]);
            prop_assert_eq!(split.as_ref(), Ok(&whole), "split at offset {}", cut);
        }
        let bytewise = feed(stream.chunks(1));
        prop_assert_eq!(bytewise.as_ref(), Ok(&whole), "fed one byte at a time");
    }

    #[test]
    fn random_bytes_never_panic(noise in prop::collection::vec(byte(), 0..512)) {
        let _ = parse_request(&noise);
        let _ = feed(noise.chunks(7));
    }

    #[test]
    fn http_shaped_token_soup_never_panics(tokens in prop::collection::vec(token(), 0..48)) {
        let soup = tokens.concat();
        let _ = parse_request(&soup);
        for cut in 0..=soup.len() {
            let (a, b) = soup.split_at(cut);
            let _ = feed([a, b]);
        }
    }
}
