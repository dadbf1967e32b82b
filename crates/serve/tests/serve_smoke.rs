//! In-process smoke tests for the full `meshsortd` service: real TCP
//! sockets, real threads, the real batcher and engine workers — only the
//! process boundary is elided (the binary is the same `ServerHandle`
//! plus flag parsing).
//!
//! Tests that need work parked inside the engine or the chaos worker use
//! the server's `EngineHold` instead of sleeping, and size themselves by the worker
//! count `STATS` reports, so they hold on one core as on many.

use meshsort_core::{AlgorithmId, Budget};
use meshsort_mesh::Grid;
use meshsort_serve::server::{EngineHold, ServerConfig, ServerHandle};
use meshsort_serve::wire::{self, ChaosRequest, Request, Response, SortRequest};
use meshsort_stats::json::Value;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn start(config: ServerConfig) -> ServerHandle {
    ServerHandle::bind("127.0.0.1:0", config).expect("bind on a free port")
}

fn connect(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

fn call(stream: &mut TcpStream, req_id: u64, request: &Request) -> Response {
    wire::write_frame(stream, &wire::encode_request(req_id, request)).expect("send");
    let frame = wire::read_frame(stream).expect("read").expect("response frame");
    assert_eq!(frame.req_id, req_id, "responses echo the request id");
    wire::decode_response(&frame).expect("decode response")
}

/// Sends `request` on a fresh connection from another thread; the
/// handle yields the response.
fn call_in_background(addr: SocketAddr, req_id: u64, request: Request) -> JoinHandle<Response> {
    std::thread::spawn(move || {
        let mut conn = TcpStream::connect(addr).expect("connect");
        call(&mut conn, req_id, &request)
    })
}

/// The engine worker count the server reports in `STATS`.
fn engine_workers(conn: &mut TcpStream) -> usize {
    let Response::Stats { json } = call(conn, 0, &Request::Stats) else {
        panic!("expected Stats");
    };
    let stats = Value::parse(&json).expect("STATS is JSON");
    let workers = stats.get("engine").and_then(|e| e.get("workers")).and_then(Value::as_f64);
    workers.expect("STATS reports engine.workers") as usize
}

/// A server whose engine workers park on a fresh (armed) hold.
fn start_held() -> (ServerHandle, Arc<EngineHold>) {
    let hold = Arc::new(EngineHold::default());
    let handle = start(ServerConfig { engine_hold: Some(Arc::clone(&hold)), ..Default::default() });
    (handle, hold)
}

/// Side 34 is above `LOCKSTEP_MAX_CELLS`, so each such request is its
/// own engine unit even when the coalescer groups several.
const PER_GRID_SIDE: usize = 34;

fn assert_sorted(response: Response) {
    match response {
        Response::Sort(s) => assert_eq!(s.convergence, 0, "reversed grid must sort"),
        other => panic!("expected Sort, got {other:?}"),
    }
}

fn sort_request(algorithm: AlgorithmId, side: usize, echo: bool) -> Request {
    let cells: Vec<u32> = (0..(side * side) as u32).rev().collect();
    Request::Sort(SortRequest {
        algorithm,
        side: side as u16,
        optimized: true,
        echo_grid: echo,
        budget: Budget::Default,
        deadline_ms: 0,
        cells,
    })
}

#[test]
fn ping_stats_analyze_round_trip() {
    let handle = start(ServerConfig::default());
    let mut conn = connect(&handle);

    assert_eq!(call(&mut conn, 1, &Request::Ping), Response::Pong);

    match call(
        &mut conn,
        2,
        &Request::Analyze { algorithm: AlgorithmId::SnakePhaseAligned, side: 8 },
    ) {
        Response::Analyze(a) => {
            assert_eq!(a.stripped, 21, "S3 side 8 strips 21 dead wires");
            assert_eq!(a.static_bound, 127, "pinned by the dataflow fixpoint");
            assert_eq!(a.raw_comparators_per_cycle - a.comparators_per_cycle, a.stripped);
        }
        other => panic!("expected Analyze, got {other:?}"),
    }

    // Unsupported side: a stable error code (105), connection survives.
    match call(
        &mut conn,
        3,
        &Request::Analyze { algorithm: AlgorithmId::RowMajorRowFirst, side: 5 },
    ) {
        Response::Error { code, .. } => assert_eq!(code, 105, "UnsupportedSide discriminant"),
        other => panic!("expected Error, got {other:?}"),
    }

    match call(&mut conn, 4, &Request::Stats) {
        Response::Stats { json } => {
            assert!(json.contains("\"queue_depth\""), "{json}");
            assert!(json.contains("\"plan_cache_hit_rate\""), "{json}");
        }
        other => panic!("expected Stats, got {other:?}"),
    }

    handle.request_drain();
    handle.wait();
}

#[test]
fn sorts_all_five_algorithms_with_verified_echo() {
    let handle = start(ServerConfig::default());
    let mut conn = connect(&handle);

    for (i, algorithm) in AlgorithmId::ALL.into_iter().enumerate() {
        let side = 8;
        match call(&mut conn, i as u64, &sort_request(algorithm, side, true)) {
            Response::Sort(s) => {
                assert_eq!(s.convergence, 0, "{algorithm}: reversed grid must sort");
                assert!(s.steps > 0 && s.swaps > 0, "{algorithm}");
                assert_eq!(s.residual, 0, "{algorithm}");
                let cells = s.grid.expect("echo requested");
                let grid = Grid::from_rows(side, cells).expect("echoed grid is well-formed");
                assert!(
                    grid.is_sorted(algorithm.order()),
                    "{algorithm}: echoed grid must be sorted in the algorithm's order"
                );
            }
            other => panic!("{algorithm}: expected Sort, got {other:?}"),
        }
    }

    // Second pass over the same keys: every plan is warm, so the
    // server-side hit rate climbs and nothing recompiles.
    for (i, algorithm) in AlgorithmId::ALL.into_iter().enumerate() {
        match call(&mut conn, 100 + i as u64, &sort_request(algorithm, 8, false)) {
            Response::Sort(s) => assert_eq!(s.convergence, 0),
            other => panic!("expected Sort, got {other:?}"),
        }
    }
    match call(&mut conn, 999, &Request::Stats) {
        Response::Stats { json } => {
            assert!(json.contains("\"completed\": 10"), "ten sorts served: {json}");
            assert!(json.contains("\"plan_cache_misses\": 5"), "one cold miss per key: {json}");
        }
        other => panic!("expected Stats, got {other:?}"),
    }

    handle.request_drain();
    handle.wait();
}

#[test]
fn chaos_route_reports_fault_accounting() {
    let handle = start(ServerConfig::default());
    let mut conn = connect(&handle);

    let request = Request::Chaos(ChaosRequest {
        algorithm: AlgorithmId::SnakeAlternating,
        side: 8,
        seed: 42,
        drop_rate_ppm: 50_000, // 5% transient drops
        deadline_ms: 0,
        cells: (0..64u32).rev().collect(),
    });
    match call(&mut conn, 1, &request) {
        Response::Chaos(c) => {
            assert_eq!(c.convergence, 0, "5% drops must not defeat an 8×8 sort");
            assert!(c.dropped > 0, "a 5% fault stream must hit at least one comparator");
            assert!(c.steps > 0);
        }
        other => panic!("expected Chaos, got {other:?}"),
    }

    handle.request_drain();
    handle.wait();
}

#[test]
fn malformed_frames_get_error_responses_and_are_counted() {
    let handle = start(ServerConfig::default());

    // Bad payload on a well-formed frame: error response, connection
    // survives for the next request.
    let mut conn = connect(&handle);
    let mut bad_alg = wire::encode_request(
        1,
        &Request::Analyze { algorithm: AlgorithmId::SnakeAlternating, side: 8 },
    );
    bad_alg[wire::HEADER_LEN + 4] = 77; // corrupt the algorithm byte
    wire::write_frame(&mut conn, &bad_alg).expect("send");
    let frame = wire::read_frame(&mut conn).expect("read").expect("frame");
    match wire::decode_response(&frame).expect("decode") {
        Response::Error { code, .. } => assert_eq!(code, 906, "BadField discriminant"),
        other => panic!("expected Error, got {other:?}"),
    }
    assert_eq!(call(&mut conn, 2, &Request::Ping), Response::Pong, "connection survives");

    // Garbage length prefix: one error frame, then the server hangs up.
    let mut garbage = connect(&handle);
    garbage.write_all(&[0xFF; 64]).expect("send garbage");
    garbage.flush().expect("flush");
    let frame = wire::read_frame(&mut garbage).expect("read").expect("error frame");
    match wire::decode_response(&frame).expect("decode") {
        Response::Error { code, .. } => assert_eq!(code, 905, "BadLength discriminant"),
        other => panic!("expected Error, got {other:?}"),
    }
    // The server hangs up after an unframeable stream. Closing with
    // unread bytes in its receive buffer makes the kernel send RST, so
    // the client sees either clean EOF or a connection reset.
    match wire::read_frame(&mut garbage) {
        Ok(None) => {}
        Ok(Some(frame)) => panic!("expected hang-up, got another frame: {frame:?}"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }

    match call(&mut conn, 3, &Request::Stats) {
        Response::Stats { json } => {
            assert!(json.contains("\"protocol_errors\": 2"), "{json}");
        }
        other => panic!("expected Stats, got {other:?}"),
    }

    handle.request_drain();
    handle.wait();
}

#[test]
fn full_chaos_queue_rejects_with_503() {
    // A rendezvous chaos queue (capacity 0) admits work only while the
    // worker is parked in recv. Park the worker on the engine hold with a
    // first request, then a second request must bounce with QueueFull.
    let hold = Arc::new(EngineHold::default());
    let handle = start(ServerConfig {
        chaos_capacity: 0,
        engine_hold: Some(Arc::clone(&hold)),
        ..Default::default()
    });
    let held = Request::Chaos(ChaosRequest {
        algorithm: AlgorithmId::SnakeAlternating,
        side: 16,
        seed: 7,
        drop_rate_ppm: 100_000,
        deadline_ms: 0,
        cells: (0..(16 * 16) as u32).rev().collect(),
    });
    let handle_addr = handle.local_addr();
    let held_conn = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(handle_addr).expect("connect");
        wire::write_frame(&mut conn, &wire::encode_request(1, &held)).expect("send");
        let frame = wire::read_frame(&mut conn).expect("read").expect("frame");
        wire::decode_response(&frame).expect("decode")
    });
    hold.wait_parked(1); // the worker took the first request and holds it

    let mut conn = connect(&handle);
    let quick = Request::Chaos(ChaosRequest {
        algorithm: AlgorithmId::SnakeAlternating,
        side: 4,
        seed: 8,
        drop_rate_ppm: 0,
        deadline_ms: 0,
        cells: (0..16u32).rev().collect(),
    });
    match call(&mut conn, 2, &quick) {
        Response::Error { code, message } => {
            assert_eq!(code, 503, "QueueFull discriminant: {message}");
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }

    hold.release();
    assert!(
        matches!(held_conn.join().expect("held client"), Response::Chaos(_)),
        "the held run still completes"
    );
    handle.request_drain();
    handle.wait();
}

#[test]
fn stalled_client_is_disconnected_by_the_read_timeout() {
    let handle =
        start(ServerConfig { read_timeout: Duration::from_millis(100), ..Default::default() });
    let metrics = handle.metrics();

    // Send half a valid ping frame, then go silent: the server must not
    // pin a handler thread on the missing bytes forever.
    let mut stalled = connect(&handle);
    let ping = wire::encode_request(1, &Request::Ping);
    stalled.write_all(&ping[..6]).expect("send partial frame");
    stalled.flush().expect("flush");

    // The handler gives up after one silent read-timeout tick and hangs
    // up; the stalled client observes EOF or a reset.
    stalled.set_read_timeout(Some(Duration::from_secs(5))).expect("client read timeout");
    match wire::read_frame(&mut stalled) {
        Ok(None) => {}
        Ok(Some(frame)) => panic!("expected disconnect, got {frame:?}"),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::UnexpectedEof
            ),
            "expected reset/EOF, got {e}"
        ),
    }
    assert_eq!(metrics.stalled_disconnects(), 1, "the stall is counted");

    // A well-behaved client on the same server is unaffected.
    let mut conn = connect(&handle);
    assert_eq!(call(&mut conn, 2, &Request::Ping), Response::Pong);

    handle.request_drain();
    handle.wait();
}

#[test]
fn expired_deadlines_are_shed_with_504() {
    let (handle, hold) = start_held();
    let metrics = handle.metrics();
    let mut conn = connect(&handle);
    let workers = engine_workers(&mut conn);

    // Park every engine worker, so anything arriving behind them waits
    // longer than a 1 ms deadline allows.
    let held: Vec<_> = (0..workers as u64)
        .map(|i| {
            let request = sort_request(AlgorithmId::SnakeAlternating, PER_GRID_SIDE, false);
            call_in_background(handle.local_addr(), 10 + i, request)
        })
        .collect();
    hold.wait_parked(workers);

    let hurried = Request::Sort(SortRequest {
        algorithm: AlgorithmId::SnakeAlternating,
        side: 4,
        optimized: true,
        echo_grid: false,
        budget: Budget::Default,
        deadline_ms: 1,
        cells: (0..16u32).rev().collect(),
    });
    wire::write_frame(&mut conn, &wire::encode_request(2, &hurried)).expect("send");
    // Admitted once the queue gauge counts it beside the parked ones, or
    // once the coalescer has already shed it. Its deadline was stamped
    // before either, so past `admitted + 1 ms` it has expired whichever
    // of coalescer and worker looks at it.
    while metrics.queue_depth() <= workers && metrics.deadline_shed() == 0 {
        std::thread::yield_now();
    }
    let admitted = Instant::now();
    while admitted.elapsed() <= Duration::from_millis(1) {
        std::thread::yield_now();
    }
    hold.release();

    let frame = wire::read_frame(&mut conn).expect("read").expect("frame");
    match wire::decode_response(&frame).expect("decode") {
        Response::Error { code, message } => {
            assert_eq!(code, 504, "DeadlineExceeded discriminant: {message}");
            assert!(message.contains("deadline exceeded"), "{message}");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(metrics.deadline_shed(), 1);

    for sort in held {
        assert_sorted(sort.join().expect("held sort"));
    }
    handle.request_drain();
    handle.wait();
}

#[test]
fn injected_engine_panic_is_quarantined_not_fatal() {
    // Side 8 runs as one lockstep unit, side 34 as one unit per grid.
    for side in [8, PER_GRID_SIDE] {
        // fail_req_id is the server's deterministic fail point: the unit
        // containing that req_id panics inside the engine call.
        let handle = start(ServerConfig { fail_req_id: Some(7), ..Default::default() });
        let metrics = handle.metrics();
        let mut conn = connect(&handle);

        match call(&mut conn, 7, &sort_request(AlgorithmId::RowMajorRowFirst, side, false)) {
            Response::Error { code, message } => {
                assert_eq!(code, 501, "panic quarantine code");
                assert!(message.contains("quarantined"), "{message}");
                assert!(message.contains("req 7"), "the payload survives: {message}");
            }
            other => panic!("side {side}: expected quarantine Error, got {other:?}"),
        }
        assert_eq!(metrics.panics_quarantined(), 1);

        // The engine survived the panic: the very next sort on the same
        // connection completes normally.
        let next = sort_request(AlgorithmId::RowMajorRowFirst, side, false);
        assert_sorted(call(&mut conn, 8, &next));

        handle.request_drain();
        handle.wait();
    }
}

#[test]
fn engine_workers_run_units_side_by_side() {
    let (handle, hold) = start_held();
    let metrics = handle.metrics();
    let mut conn = connect(&handle);
    let workers = engine_workers(&mut conn);

    let sorts: Vec<_> = (1..=2)
        .map(|id| {
            let request = sort_request(AlgorithmId::SnakeStaggeredCols, PER_GRID_SIDE, true);
            call_in_background(handle.local_addr(), id, request)
        })
        .collect();
    // Both units are parked inside the engine at once when there are two
    // workers to hold them; one worker holds them one after the other.
    let overlap = workers.min(2);
    hold.wait_parked(overlap);
    hold.release();
    for sort in sorts {
        assert_sorted(sort.join().expect("sort"));
    }
    assert_eq!(hold.max_parked(), overlap, "{workers} workers");
    assert!(metrics.engine_busy_us() > 0, "engine time lands in the metrics");

    handle.request_drain();
    handle.wait();
}

#[test]
fn drain_answers_units_held_in_the_engine() {
    let (handle, hold) = start_held();
    let mut conn = connect(&handle);
    let workers = engine_workers(&mut conn);

    let held: Vec<_> = (0..workers as u64)
        .map(|i| {
            let request = sort_request(AlgorithmId::RowMajorColFirst, PER_GRID_SIDE, false);
            call_in_background(handle.local_addr(), i, request)
        })
        .collect();
    hold.wait_parked(workers);

    // Drain begins with every worker mid-unit; each unit still finishes
    // and answers, and `wait` returns once the workers are joined.
    handle.request_drain();
    hold.release();
    handle.wait();
    for sort in held {
        assert_sorted(sort.join().expect("held sort"));
    }
}

#[test]
fn drain_latency_is_measured() {
    let handle = start(ServerConfig::default());
    let metrics = handle.metrics();
    let mut conn = connect(&handle);
    assert_eq!(call(&mut conn, 1, &Request::Ping), Response::Pong);

    handle.request_drain();
    handle.wait();
    assert!(
        metrics.drain_latency_us() > 0,
        "signal→join latency must land in the metrics after wait()"
    );
}

#[test]
fn drain_answers_in_flight_then_stops_accepting() {
    let handle = start(ServerConfig::default());
    let mut conn = connect(&handle);

    match call(&mut conn, 1, &sort_request(AlgorithmId::SnakeStaggeredCols, 8, false)) {
        Response::Sort(s) => assert_eq!(s.convergence, 0),
        other => panic!("expected Sort, got {other:?}"),
    }
    assert_eq!(call(&mut conn, 2, &Request::Drain), Response::Draining);
    assert!(handle.is_draining());
    let addr = handle.local_addr();
    handle.wait();

    // The listener is gone: the drained port refuses new connections.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(100)).is_err(),
        "a drained server must not accept"
    );
}
