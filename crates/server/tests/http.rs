//! Loopback integration tests: a real server on 127.0.0.1, driven through
//! the crate's own blocking client — query and stats round-trips, the
//! deadline and row-limit knobs, and the error statuses.

use bdi_core::supersede;
use bdi_server::http::client;
use serde_json::json;
use std::sync::Arc;

fn started() -> (bdi_server::ServerHandle, String) {
    let system = Arc::new(supersede::build_running_example());
    let handle = bdi_server::start(system, "127.0.0.1:0").expect("bind loopback");
    let addr = handle.addr().to_string();
    (handle, addr)
}

#[test]
fn sparql_query_round_trip() {
    let (_server, addr) = started();
    let body = json!({"sparql": (supersede::exemplary_query())});
    let (status, reply) = client::post_query(&addr, &body).expect("query");
    assert_eq!(status, 200, "body: {reply}");
    let columns = reply["columns"].as_array().expect("columns");
    assert!(!columns.is_empty());
    let rows = reply["rows"].as_array().expect("rows");
    assert!(!rows.is_empty());
    assert_eq!(reply["truncated"], json!(false));
    assert_eq!(
        reply["row_count"].as_u64().expect("row_count") as usize,
        rows.len()
    );
    assert!(!reply["walks"].as_array().expect("walks").is_empty());
}

#[test]
fn omq_json_body_answers_like_sparql() {
    let (_server, addr) = started();
    let (_, sparql_reply) =
        client::post_query(&addr, &json!({"sparql": (supersede::exemplary_query())}))
            .expect("sparql query");
    // The same exemplary query, spelled as an OMQ document.
    let omq = supersede::exemplary_omq();
    let pi: Vec<String> = omq.pi.iter().map(|iri| iri.as_str().to_owned()).collect();
    let phi: Vec<Vec<String>> = omq
        .phi
        .iter()
        .map(|t| {
            vec![
                t.subject.as_iri().expect("iri subject").as_str().to_owned(),
                t.predicate.as_str().to_owned(),
                t.object.as_iri().expect("iri object").as_str().to_owned(),
            ]
        })
        .collect();
    let (status, omq_reply) =
        client::post_query(&addr, &json!({"omq": {"pi": (pi), "phi": (phi)}})).expect("omq query");
    assert_eq!(status, 200, "body: {omq_reply}");
    assert_eq!(omq_reply["rows"], sparql_reply["rows"]);
}

#[test]
fn stats_scrape_reports_all_surfaces() {
    let (_server, addr) = started();
    client::post_query(&addr, &json!({"sparql": (supersede::exemplary_query())}))
        .expect("warm-up query");
    let (status, stats) = client::get_stats(&addr).expect("stats");
    assert_eq!(status, 200);
    assert!(stats["plan_cache"]["misses"].as_u64().expect("misses") >= 1);
    for surface in ["plan_cache", "contexts", "planner", "retries"] {
        assert!(stats[surface].is_object(), "missing {surface}: {stats}");
    }
}

#[test]
fn expired_deadline_maps_to_504() {
    let (_server, addr) = started();
    // A 0 ms budget is already expired when the first operator checks it.
    let body = json!({"sparql": (supersede::exemplary_query()), "deadline_ms": 0});
    let (status, reply) = client::post_query(&addr, &body).expect("query");
    assert_eq!(status, 504, "body: {reply}");
    assert!(reply["error"].as_str().is_some());
}

#[test]
fn row_limit_truncates_and_flags() {
    let (_server, addr) = started();
    let unlimited = client::post_query(&addr, &json!({"sparql": (supersede::exemplary_query())}))
        .expect("query")
        .1;
    let total = unlimited["rows"].as_array().expect("rows").len();
    assert!(total > 1, "running example should answer > 1 row");
    let body = json!({"sparql": (supersede::exemplary_query()), "max_rows": 1});
    let (status, reply) = client::post_query(&addr, &body).expect("query");
    assert_eq!(status, 200);
    assert_eq!(reply["rows"].as_array().expect("rows").len(), 1);
    assert_eq!(reply["truncated"], json!(true));
    // The kept row is the unlimited answer's first (contractual row order).
    assert_eq!(reply["rows"][0], unlimited["rows"][0]);
}

#[test]
fn malformed_bodies_are_400() {
    let (_server, addr) = started();
    for body in [
        "{",                                                              // not JSON
        "[1,2]",                                                          // not an object
        "{}",                                                             // no query
        r#"{"sparql": 7}"#,                                               // wrong type
        r#"{"sparql": "SELECT", "omq": {}}"#,                             // both query kinds
        r#"{"sparql": "not sparql at all"}"#,                             // unparsable query
        r#"{"sparql": "SELECT ?x WHERE { ?x ?y ?z . }", "surprise": 1}"#, // unknown field
    ] {
        let (status, _) =
            bdi_server::http::client::request(&addr, "POST", "/query", Some(body)).expect("post");
        assert_eq!(status, 400, "body: {body}");
    }
}

#[test]
fn unknown_routes_and_methods() {
    let (_server, addr) = started();
    let (status, _) = client::request(&addr, "GET", "/nope", None).expect("request");
    assert_eq!(status, 404);
    let (status, _) = client::request(&addr, "GET", "/query", None).expect("request");
    assert_eq!(status, 405);
    let (status, _) = client::request(&addr, "POST", "/stats", Some("{}")).expect("request");
    assert_eq!(status, 405);
}

#[test]
fn graceful_shutdown_stops_accepting() {
    let (server, addr) = started();
    client::get_stats(&addr).expect("stats while up");
    server.shutdown();
    // The listener is gone: either the connect fails or the request errors.
    assert!(client::get_stats(&addr).is_err());
}

#[test]
fn server_config_applies_defaults() {
    let system = Arc::new(supersede::build_running_example());
    let config = bdi_server::ServerConfig {
        default_deadline: None,
        max_rows_ceiling: Some(1),
    };
    let handle = bdi_server::start_with(system, "127.0.0.1:0", config).expect("bind");
    let addr = handle.addr().to_string();
    // No max_rows in the request: the server-side ceiling applies.
    let (status, reply) =
        client::post_query(&addr, &json!({"sparql": (supersede::exemplary_query())}))
            .expect("query");
    assert_eq!(status, 200);
    assert_eq!(reply["truncated"], json!(true));
    assert_eq!(reply["rows"].as_array().expect("rows").len(), 1);
    // A request asking for more than the ceiling is clamped down to it.
    let (_, reply) = client::post_query(
        &addr,
        &json!({"sparql": (supersede::exemplary_query()), "max_rows": 100}),
    )
    .expect("query");
    assert_eq!(reply["rows"].as_array().expect("rows").len(), 1);
}

/// Sends raw bytes on a fresh connection and reads until the server
/// closes it; returns the status code and the whole response text.
fn raw_exchange(addr: &str, bytes: &[u8]) -> (u16, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(bytes).expect("send");
    let mut response = Vec::new();
    // `read_to_end` returns only at EOF: the server closed after answering.
    stream
        .read_to_end(&mut response)
        .expect("response then EOF");
    let text = String::from_utf8(response).expect("UTF-8 response");
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"));
    (status, text)
}

#[test]
fn malformed_requests_get_a_status_then_close() {
    let (_server, addr) = started();
    // A request line without a path.
    let (status, text) = raw_exchange(&addr, b"GARBAGE\r\n\r\n");
    assert_eq!(status, 400, "{text}");
    assert!(text.contains("Connection: close"), "{text}");
    assert!(text.contains(r#"{"error":"#), "{text}");
    // A head one byte over the 64 KiB cap, never terminated.
    let mut head = b"GET /stats HTTP/1.1\r\nX-Pad: ".to_vec();
    head.resize(64 * 1024 + 1, b'a');
    let (status, text) = raw_exchange(&addr, &head);
    assert_eq!(status, 431, "{text}");
    assert!(text.contains("Connection: close"), "{text}");
    assert!(text.contains(r#"{"error":"#), "{text}");
    // A declared body over the 16 MiB cap: answered without sending it.
    let (status, text) = raw_exchange(
        &addr,
        b"POST /query HTTP/1.1\r\nContent-Length: 16777217\r\n\r\n",
    );
    assert_eq!(status, 413, "{text}");
    assert!(text.contains("Connection: close"), "{text}");
    assert!(text.contains(r#"{"error":"#), "{text}");
}
