//! End-to-end validation of the `triarch-serve` daemon: determinism
//! (cold miss, warm hit, and in-process driver output are byte
//! identical), graceful degradation (typed queue-full rejection under
//! pinned workers, counted in `serve.*`), single-flight coalescing,
//! wire-protocol robustness against hostile frames, request-id minting
//! and echo (v2 opt-in, v1 byte-compatibility), and the Unix-socket
//! transport.
//!
//! Every test binds to an ephemeral endpoint (`127.0.0.1:0` or a
//! tempdir socket path), so the suite is parallel-safe and never
//! collides with a developer's running daemon.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use triarch_core::arch::Architecture;
use triarch_core::driver::{self, DriverKind, JobSpec, WorkloadKind};
use triarch_kernels::machine::Kernel;
use triarch_serve::{
    parse_addr, serve, Addr, Client, HoldGate, RequestId, RequestIds, ServeConfig, ServeError,
    ServerHandle,
};

/// Starts a quiet daemon on an ephemeral TCP port.
fn start(configure: impl FnOnce(&mut ServeConfig)) -> (ServerHandle, Client) {
    let mut config = ServeConfig::new(parse_addr("127.0.0.1:0").unwrap());
    config.quiet = true;
    configure(&mut config);
    let handle = serve(config).unwrap();
    let client = Client::new(handle.addr().clone());
    (handle, client)
}

/// A cheap single-cell job with a distinct cache key per kernel.
fn flame_job(kernel: Kernel) -> JobSpec {
    let mut spec = JobSpec::new(DriverKind::Flame, WorkloadKind::Small);
    spec.cell = Some((Architecture::Viram, kernel));
    spec
}

/// Polls the daemon's stats dump until `line` appears (or panics after
/// ten seconds). Stats requests bypass admission, so this works even
/// while every worker is pinned.
fn await_stats_line(client: &Client, line: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats().unwrap();
        if stats.lines().any(|l| l == line) {
            return stats;
        }
        assert!(Instant::now() < deadline, "stats never showed {line:?}; last dump:\n{stats}");
        thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn table3_cold_warm_and_direct_artifacts_are_byte_identical() {
    let (handle, client) = start(|_| {});
    let spec = JobSpec::new(DriverKind::Table3, WorkloadKind::Small);

    let cold = client.submit(&spec).unwrap();
    assert!(!cold.hit, "first request must be a cache miss");
    let warm = client.submit(&spec).unwrap();
    assert!(warm.hit, "second identical request must be a cache hit");
    let direct = driver::run_job(&spec, 1).unwrap();

    assert_eq!(cold.body, warm.body, "warm hit must be byte-identical to the cold miss");
    assert_eq!(cold.body, direct.body, "served artifact must match the in-process driver");
    assert_eq!(cold.content_type, direct.content_type);
    assert!(cold.body.contains("== Table 3: experimental results (kilocycles) =="));

    let stats = client.stats().unwrap();
    for line in ["triarch_serve_cache_hits 1", "triarch_serve_cache_misses 1"] {
        assert!(stats.lines().any(|l| l == line), "missing {line:?} in:\n{stats}");
    }
    handle.shutdown();
}

#[test]
fn report_html_cold_warm_and_direct_artifacts_are_byte_identical() {
    let (handle, client) = start(|_| {});
    let mut spec = JobSpec::new(DriverKind::Report, WorkloadKind::Small);
    spec.campaigns = 2;

    let cold = client.submit(&spec).unwrap();
    assert!(!cold.hit);
    let warm = client.submit(&spec).unwrap();
    assert!(warm.hit);
    let direct = driver::run_job(&spec, 1).unwrap();

    assert_eq!(cold.body, warm.body);
    assert_eq!(cold.body, direct.body);
    assert_eq!(cold.content_type, "text/html");
    handle.shutdown();
}

#[test]
fn overload_rejection_is_typed_immediate_and_counted() {
    let hold = Arc::new(HoldGate::new());
    let (handle, client) = start(|config| {
        config.workers = 1;
        config.queue = 1;
        config.hold = Some(Arc::clone(&hold));
    });

    // First job occupies the only worker (its build parks on the gate).
    let first = {
        let client = Client::new(handle.addr().clone());
        thread::spawn(move || client.submit(&flame_job(Kernel::CornerTurn)).unwrap())
    };
    await_stats_line(&client, "triarch_serve_inflight 1.0");

    // Second job fills the one-slot admission queue.
    let second = {
        let client = Client::new(handle.addr().clone());
        thread::spawn(move || client.submit(&flame_job(Kernel::Cslc)).unwrap())
    };
    await_stats_line(&client, "triarch_serve_queue_depth 1.0");

    // Third job is rejected at the door: typed, immediate, no hang.
    let err = client.submit(&flame_job(Kernel::BeamSteering)).unwrap_err();
    match &err {
        ServeError::Remote { code, message } => {
            assert_eq!(code, "queue-full");
            assert_eq!(message, "admission queue full: 1 waiting of capacity 1");
        }
        other => panic!("expected a queue-full rejection, got {other:?}"),
    }
    let stats = await_stats_line(&client, "triarch_serve_queue_rejected 1");
    assert!(stats.lines().any(|l| l == "triarch_serve_queue_capacity 1.0"), "{stats}");

    // Releasing the gate drains everything already admitted.
    hold.release();
    assert!(!first.join().unwrap().hit);
    assert!(!second.join().unwrap().hit);
    handle.shutdown();
}

#[test]
fn identical_concurrent_requests_coalesce_onto_one_build() {
    let hold = Arc::new(HoldGate::new());
    let (handle, client) = start(|config| {
        config.hold = Some(Arc::clone(&hold));
    });

    let owner = {
        let client = Client::new(handle.addr().clone());
        thread::spawn(move || client.submit(&flame_job(Kernel::CornerTurn)).unwrap())
    };
    await_stats_line(&client, "triarch_serve_cache_misses 1");
    let waiter = {
        let client = Client::new(handle.addr().clone());
        thread::spawn(move || client.submit(&flame_job(Kernel::CornerTurn)).unwrap())
    };
    await_stats_line(&client, "triarch_serve_cache_coalesced 1");
    hold.release();

    let owner = owner.join().unwrap();
    let waiter = waiter.join().unwrap();
    assert!(!owner.hit, "the owning request computed the artifact");
    assert!(waiter.hit, "the coalesced waiter counts as a cache hit");
    assert_eq!(owner.body, waiter.body);

    let stats = client.stats().unwrap();
    for line in ["triarch_serve_cache_misses 1", "triarch_serve_cache_coalesced 1"] {
        assert!(stats.lines().any(|l| l == line), "missing {line:?} in:\n{stats}");
    }
    handle.shutdown();
}

/// The cache key bakes in the architecture set: a grid artifact cached
/// when the study had five rows can never be served for the six-row
/// grid, because the canonical job form names every machine row.
#[test]
fn grid_job_cache_keys_carry_the_architecture_set() {
    for driver in [
        DriverKind::Table3,
        DriverKind::Dse,
        DriverKind::Metrics,
        DriverKind::Faultsweep,
        DriverKind::Report,
    ] {
        let spec = JobSpec::new(driver, WorkloadKind::Small);
        let canonical = spec.canonical();
        assert!(
            canonical.contains("archs=ppc+altivec+viram+imagine+raw+dpu"),
            "{}: canonical form must name the full architecture set: {canonical}",
            driver.name(),
        );
    }
    // Single-cell jobs key on their cell instead; the set token would
    // only blunt the per-cell cache.
    let flame = flame_job(Kernel::CornerTurn);
    assert!(!flame.canonical().contains("archs="), "{}", flame.canonical());

    // And a served grid artifact actually carries the sixth row.
    let (handle, client) = start(|_| {});
    let response = client.submit(&JobSpec::new(DriverKind::Table3, WorkloadKind::Small)).unwrap();
    assert!(response.body.contains("DPU"), "table3 body must carry the DPU row");
    handle.shutdown();
}

/// Writes raw bytes to the daemon and decodes the error-frame reply as
/// `(code, message)`.
fn raw_error_round_trip(addr: &Addr, request: &[u8]) -> (String, String) {
    let Addr::Tcp(addr) = addr else { panic!("raw tests use TCP") };
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request).unwrap();
    stream.flush().unwrap();

    let mut header = [0u8; 10];
    stream.read_exact(&mut header).unwrap();
    assert_eq!(&header[..4], b"TRSV", "reply must carry the protocol magic");
    assert_eq!(header[4], 1, "replies mirror the request's v1 version");
    assert_eq!(header[5], 18, "reply must be an error frame");
    let len = u32::from_be_bytes([header[6], header[7], header[8], header[9]]);
    let mut body = vec![0u8; len as usize];
    stream.read_exact(&mut body).unwrap();
    let body = String::from_utf8(body).unwrap();
    let (code, message) = body.split_once('\n').unwrap();
    (code.to_string(), message.to_string())
}

/// A raw frame: magic + version + kind + big-endian length + body.
fn frame(version: u8, kind: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::from(*b"TRSV");
    out.push(version);
    out.push(kind);
    out.extend_from_slice(&u32::try_from(body.len()).unwrap().to_be_bytes());
    out.extend_from_slice(body);
    out
}

#[test]
fn hostile_frames_get_typed_error_replies_not_hangs() {
    let (handle, client) = start(|_| {});
    let addr = handle.addr().clone();

    // Wrong magic.
    let (code, message) = raw_error_round_trip(&addr, b"XXXX\x01\x01\x00\x00\x00\x00");
    assert_eq!(code, "bad-frame");
    assert!(message.contains("bad magic"), "{message}");

    // Future protocol version.
    let (code, message) = raw_error_round_trip(&addr, &frame(99, 1, b""));
    assert_eq!(code, "unsupported-version");
    assert!(message.contains("99"), "{message}");

    // Unknown frame kind.
    let (code, _) = raw_error_round_trip(&addr, &frame(1, 200, b""));
    assert_eq!(code, "bad-frame");

    // A response kind sent as a request.
    let (code, message) = raw_error_round_trip(&addr, &frame(1, 16, b""));
    assert_eq!(code, "bad-frame");
    assert!(message.contains("sent as a request"), "{message}");

    // Valid framing, malformed job body.
    let (code, _) = raw_error_round_trip(&addr, &frame(1, 1, b"not json"));
    assert_eq!(code, "bad-request");

    // Valid framing and JSON, unknown driver.
    let body = br#"{"schema": 1, "driver": "warp-drive"}"#;
    let (code, message) = raw_error_round_trip(&addr, &frame(1, 1, body));
    assert_eq!(code, "bad-request");
    assert!(message.contains("warp-drive"), "{message}");

    // Deep nesting and an integer a double cannot hold: typed replies,
    // not a stack overflow or a silently rounded seed.
    let (code, message) = raw_error_round_trip(&addr, &frame(1, 1, "[".repeat(100_000).as_bytes()));
    assert_eq!(code, "bad-request");
    assert!(message.contains("nesting deeper than"), "{message}");
    let body = br#"{"schema": 1, "driver": "faultsweep", "seed": 9007199254740993}"#;
    let (code, message) = raw_error_round_trip(&addr, &frame(1, 1, body));
    assert_eq!(code, "bad-request");
    assert!(message.contains("'seed' must be below 2^53"), "{message}");

    // The daemon survives all of the above and still answers stats.
    let stats = client.stats().unwrap();
    assert!(stats.contains("triarch_serve_errors"), "{stats}");
    handle.shutdown();
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

    /// Every possible id renders to the fixed 21-character
    /// `req-{8 hex}-{8 hex}` shape and parses back to itself.
    #[test]
    fn rendered_request_ids_keep_a_fixed_shape_and_round_trip(
        boot in proptest::strategy::any::<u32>(),
        seq in proptest::strategy::any::<u32>(),
    ) {
        let id = RequestId { boot, seq };
        let text = id.to_string();
        proptest::prop_assert_eq!(text.len(), 21, "{}", text);
        proptest::prop_assert!(text.starts_with("req-"), "{}", text);
        proptest::prop_assert!(
            text.bytes().skip(4).all(|b| b == b'-'
                || b.is_ascii_digit()
                || (b'a'..=b'f').contains(&b)),
            "{}", text
        );
        proptest::prop_assert_eq!(RequestId::parse(&text), Some(id));
    }

    /// The mint is sequential from 1 with one boot token per daemon:
    /// ids are collision-free within a run regardless of the seed.
    #[test]
    fn the_mint_is_sequential_and_collision_free(
        seed in proptest::collection::vec(proptest::strategy::any::<u8>(), 0..32usize),
        n in 1usize..48,
    ) {
        let ids = RequestIds::new(&seed);
        let minted: Vec<RequestId> = (0..n).map(|_| ids.mint()).collect();
        for (i, id) in minted.iter().enumerate() {
            proptest::prop_assert_eq!(id.seq as usize, i + 1);
            proptest::prop_assert_eq!(id.boot, minted[0].boot);
        }
    }
}

#[test]
fn malformed_request_ids_are_rejected() {
    for bad in [
        "",
        "req-",
        "req-00c0ffee",
        "req-00c0ffee-0000001",
        "req-00c0ffee-000000001",
        "req-00C0FFEE-00000001", // upper-case hex is not canonical
        "req-00c0ffee-00000001x",
        "res-00c0ffee-00000001",
        "req-00c0ffeg-00000001",
    ] {
        assert_eq!(RequestId::parse(bad), None, "{bad:?} must not parse");
    }
}

#[test]
fn request_ids_are_echoed_verbatim_and_unique_across_concurrent_clients() {
    let (handle, client) = start(|_| {});
    let spec = JobSpec::new(DriverKind::Table3, WorkloadKind::Small);

    // The default (v1) client never sees an id.
    let plain = client.submit(&spec).unwrap();
    assert_eq!(plain.request_id, None, "v1 clients must not receive an id");

    // Eight concurrent v2 clients each get a well-formed, distinct id
    // and byte-identical bodies.
    let workers: Vec<_> = (0..8)
        .map(|_| {
            let client = Client::new(handle.addr().clone()).with_request_ids();
            let spec = spec.clone();
            thread::spawn(move || client.submit(&spec).unwrap())
        })
        .collect();
    let mut ids = Vec::new();
    for worker in workers {
        let response = worker.join().unwrap();
        assert_eq!(response.body, plain.body, "bodies are identical on both protocol paths");
        let id = response.request_id.expect("v2 clients must receive an id");
        ids.push(RequestId::parse(&id).unwrap_or_else(|| panic!("malformed id {id:?}")));
    }
    let boots: std::collections::BTreeSet<u32> = ids.iter().map(|id| id.boot).collect();
    assert_eq!(boots.len(), 1, "one daemon run mints one boot token");
    let seqs: std::collections::BTreeSet<u32> = ids.iter().map(|id| id.seq).collect();
    assert_eq!(seqs.len(), ids.len(), "concurrent requests must get unique ids: {ids:?}");
    handle.shutdown();
}

/// The compatibility pin for the protocol bump: a client that does not
/// opt into request ids speaks version 1 and gets back the exact bytes
/// every pre-v2 build produced — warm hits included.
#[test]
fn v1_clients_get_byte_identical_replies_after_the_protocol_bump() {
    let (handle, client) = start(|_| {});
    let spec = JobSpec::new(DriverKind::Table3, WorkloadKind::Small);
    let cold = client.submit(&spec).unwrap();
    assert!(!cold.hit);

    // Raw v1 job request against the warm cache: the reply frame must
    // be version 1 with no id block between header and body.
    let Addr::Tcp(addr) = handle.addr().clone() else { panic!("raw tests use TCP") };
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&frame(1, 1, spec.to_json().as_bytes())).unwrap();
    stream.flush().unwrap();
    let mut header = [0u8; 10];
    stream.read_exact(&mut header).unwrap();
    assert_eq!(&header[..4], b"TRSV");
    assert_eq!(header[4], 1, "a v1 request must get a v1 reply");
    assert_eq!(header[5], 17, "the warm request must answer OkHit");
    let len = u32::from_be_bytes([header[6], header[7], header[8], header[9]]);
    let mut body = vec![0u8; len as usize];
    stream.read_exact(&mut body).unwrap();
    let body = String::from_utf8(body).unwrap();
    let (content_type, artifact) = body.split_once('\n').unwrap();
    assert_eq!(content_type, cold.content_type);
    assert_eq!(artifact, cold.body, "v1 warm replies must be byte-identical to pre-v2 output");
    handle.shutdown();
}

#[cfg(unix)]
#[test]
fn unix_socket_round_trip_and_cleanup() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve-unix");
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("daemon.sock");
    let addr = parse_addr(&format!("unix:{}", socket.display())).unwrap();

    let mut config = ServeConfig::new(addr.clone());
    config.quiet = true;
    let handle = serve(config).unwrap();
    assert!(socket.exists(), "daemon must create its socket file");

    let client = Client::new(addr);
    client.ping().unwrap();
    let response = client.submit(&flame_job(Kernel::BeamSteering)).unwrap();
    assert!(response.body.contains("VIRAM;"), "collapsed stacks start with the arch name");

    // A client-driven shutdown drains the daemon and removes the socket.
    client.shutdown().unwrap();
    handle.join();
    assert!(!socket.exists(), "socket file must be removed on exit");
}
