//! The `meshsortd` server: accept loop, bounded queues, a coalescing
//! batcher feeding a pool of engine workers, and graceful drain.
//!
//! Threading model (pure `std`, no async runtime):
//!
//! - The **accept loop** polls a non-blocking listener and spawns one
//!   handler thread per connection. Handlers use blocking reads, so
//!   frames never desynchronize; drain interrupts idle handlers by
//!   shutting down the read half of every registered stream.
//! - Each **handler** decodes frames and dispatches. `SORT` and `CHAOS`
//!   are admitted into bounded [`std::sync::mpsc::sync_channel`] queues
//!   via `try_send` — a full queue rejects immediately with
//!   `QueueFull` (code 503), never buffers unboundedly — then the
//!   handler blocks on a per-request reply channel. `ANALYZE`, `STATS`,
//!   and `PING` are answered inline; `DRAIN` begins graceful shutdown.
//! - The **coalescer** (one thread) drains the sort queue greedily (up
//!   to `max_batch`), sheds work already past its deadline, groups
//!   compatible requests by `(algorithm, side, optimized, budget)`, and
//!   resolves each group's plan against the process-wide plan caches —
//!   no request ever recompiles a schedule, and every cold compile,
//!   optimization and bound lift runs on this one thread. It then hands
//!   the group on as units: a lockstep-sized group (at most
//!   [`LOCKSTEP_MAX_CELLS`] cells per grid) stays one unit, a bigger
//!   group becomes one unit per grid.
//! - The **engine workers**, one per [`parallel::default_threads`]
//!   (`MESHSORT_THREADS` overrides it), take units from the coalescer
//!   through a rendezvous channel, so a unit is handed on only when a
//!   worker is free and the sort queue keeps coalescing meanwhile. Each
//!   worker sheds what expired during the hand-off, runs the unit
//!   through one [`SortJob::run_batch`] call, and replies to each
//!   request. The **chaos worker** runs resilient jobs one at a time off
//!   its own queue.
//!
//! Drain (the `DRAIN` frame, or [`ServerHandle::request_drain`], which
//! the binary wires to stdin EOF): stop accepting, unblock idle
//! handlers, let in-flight requests finish, then the queues close, the
//! coalescer closes the unit channel, and every worker exits.
//! [`ServerHandle::wait`] joins the whole tree.
//! The drain signal travels through a condvar-backed
//! [`resilience::ShutdownGate`], so nothing sleep-polls: accept loop,
//! logger, and handlers all wake within one gate tick, and the measured
//! signal→join latency lands in the metrics.
//!
//! Resilience (see `resilience.rs`): every handler socket carries
//! read/write timeouts, peers that stall mid-frame are disconnected,
//! requests whose `deadline_ms` expired while queued are shed with code
//! 504 before any engine work, and each engine call runs under
//! `catch_unwind` — a poison request produces an ERROR frame (code
//! [`CODE_PANIC`]) and a `panics_quarantined` tick, not a dead worker.

use crate::metrics::{Metrics, Route};
use crate::resilience::{self, lock_unpoisoned, Deadline, FrameOutcome, ShutdownGate};
use crate::wire::{self, ChaosRequest, Request, Response, SortRequest, SortResponse};
use meshsort_core::{
    optimized_for, schedule_for, static_bound_for, AlgorithmId, Budget, Error, SortJob,
    LOCKSTEP_MAX_CELLS,
};
use meshsort_mesh::{FaultSpec, Grid};
use meshsort_stats::parallel;
use std::collections::HashSet;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Status code for internal failures (a worker vanished mid-request);
/// distinct from every [`Error::code`] and [`wire::WireError::code`].
pub const CODE_INTERNAL: u16 = 500;

/// Status code for a request whose batch-engine call panicked and was
/// quarantined; the message carries the panic payload.
pub const CODE_PANIC: u16 = 501;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Sort-queue capacity; `try_send` beyond it rejects with 503.
    pub queue_capacity: usize,
    /// Chaos-queue capacity.
    pub chaos_capacity: usize,
    /// Most grids one batcher pass coalesces.
    pub max_batch: usize,
    /// Period of the one-line operator log on stderr (`None` = silent).
    pub log_interval: Option<Duration>,
    /// Socket read-timeout tick: a peer that starts a frame and then
    /// sends nothing for a full tick is disconnected as stalled. Idle
    /// peers (no frame started) are unaffected unless `idle_timeout`
    /// says otherwise.
    pub read_timeout: Duration,
    /// Socket write timeout: a peer that will not drain its responses
    /// for this long is disconnected instead of pinning the handler.
    pub write_timeout: Duration,
    /// Disconnect peers idle (between frames) this long; `None` keeps
    /// idle connections open indefinitely.
    pub idle_timeout: Option<Duration>,
    /// Deterministic fail point: panic the batch engine on the request
    /// with this id. Integration tests use it to prove panic quarantine
    /// on a live server; production leaves it `None`.
    pub fail_req_id: Option<u64>,
    /// Deterministic hold point: while armed, every engine worker parks
    /// on it before running its unit, and the chaos worker before running
    /// its request. Integration tests use it to keep work inside the
    /// engine without sleeping; production leaves it `None`.
    pub engine_hold: Option<Arc<EngineHold>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 1024,
            chaos_capacity: 64,
            max_batch: 64,
            log_interval: None,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(10),
            idle_timeout: None,
            fail_req_id: None,
            engine_hold: None,
        }
    }
}

/// A gate the engine and chaos workers park on until it is released
/// (see [`ServerConfig::engine_hold`]). A fresh hold is armed.
#[derive(Debug, Default)]
pub struct EngineHold {
    state: Mutex<HoldState>,
    changed: Condvar,
}

#[derive(Debug, Default)]
struct HoldState {
    released: bool,
    parked: usize,
    max_parked: usize,
}

impl EngineHold {
    /// Blocks until `workers` engine workers are parked at once.
    pub fn wait_parked(&self, workers: usize) {
        let state = lock_unpoisoned(&self.state);
        let _state = self
            .changed
            .wait_while(state, |s| s.parked < workers)
            .unwrap_or_else(PoisonError::into_inner);
    }

    /// Releases every parked worker; later units pass straight through.
    pub fn release(&self) {
        lock_unpoisoned(&self.state).released = true;
        self.changed.notify_all();
    }

    /// The most workers that were ever parked at once.
    pub fn max_parked(&self) -> usize {
        lock_unpoisoned(&self.state).max_parked
    }

    fn park(&self) {
        let mut state = lock_unpoisoned(&self.state);
        if state.released {
            return;
        }
        state.parked += 1;
        state.max_parked = state.max_parked.max(state.parked);
        self.changed.notify_all();
        let mut state =
            self.changed.wait_while(state, |s| !s.released).unwrap_or_else(PoisonError::into_inner);
        state.parked -= 1;
    }
}

struct SortWork {
    req: SortRequest,
    req_id: u64,
    deadline: Deadline,
    reply: SyncSender<Response>,
}

/// What the coalescer hands an engine worker: one job with its resolved
/// plan, and the requests it runs, index-aligned with their grids.
struct Unit {
    job: SortJob,
    works: Vec<SortWork>,
    grids: Vec<Grid<u32>>,
}

struct ChaosWork {
    req: ChaosRequest,
    deadline: Deadline,
    reply: SyncSender<Response>,
}

/// The admission side of both bounded queues, plus their configured
/// capacities so `QueueFull` rejections report the real limit.
#[derive(Clone)]
struct Queues {
    sort_tx: SyncSender<SortWork>,
    sort_capacity: usize,
    chaos_tx: SyncSender<ChaosWork>,
    chaos_capacity: usize,
}

/// A running server. Dropping the handle does NOT stop the server; call
/// [`ServerHandle::request_drain`] then [`ServerHandle::wait`].
pub struct ServerHandle {
    addr: SocketAddr,
    drain: Arc<ShutdownGate>,
    metrics: Arc<Metrics>,
    main: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind/configure.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(Metrics::new());
        let drain = Arc::new(ShutdownGate::new());

        let (sort_tx, sort_rx) = mpsc::sync_channel::<SortWork>(config.queue_capacity);
        let (chaos_tx, chaos_rx) = mpsc::sync_channel::<ChaosWork>(config.chaos_capacity);
        let queues = Queues {
            sort_tx,
            sort_capacity: config.queue_capacity,
            chaos_tx,
            chaos_capacity: config.chaos_capacity,
        };

        let batcher = {
            let metrics = Arc::clone(&metrics);
            let engine = EngineConfig {
                workers: parallel::default_threads(),
                fail_req_id: config.fail_req_id,
                hold: config.engine_hold.clone(),
            };
            // Set before the first STATS can be answered.
            metrics.set_engine_workers(engine.workers);
            let max_batch = config.max_batch.max(1);
            thread::spawn(move || batcher_loop(&sort_rx, &metrics, max_batch, &engine))
        };
        let chaos_worker = {
            let metrics = Arc::clone(&metrics);
            let hold = config.engine_hold.clone();
            thread::spawn(move || chaos_loop(&chaos_rx, &metrics, hold.as_deref()))
        };
        let logger = config.log_interval.map(|interval| {
            let metrics = Arc::clone(&metrics);
            let drain = Arc::clone(&drain);
            thread::spawn(move || log_loop(&metrics, &drain, interval))
        });

        let main = {
            let metrics = Arc::clone(&metrics);
            let drain = Arc::clone(&drain);
            thread::spawn(move || {
                accept_loop(&listener, &queues, &metrics, &drain, &config);
                // The accept loop has exited and joined every handler.
                // Dropping the original senders disconnects the queues,
                // so each worker finishes whatever was already admitted
                // and then its `recv` errors out. The batcher joins its
                // engine workers before it returns.
                drop(queues);
                let _ = batcher.join();
                let _ = chaos_worker.join();
                if let Some(logger) = logger {
                    let _ = logger.join();
                }
                // The whole worker tree is down: this is the measured
                // drain latency (signal → last join).
                if let Some(elapsed) = drain.began_elapsed() {
                    metrics.record_drain_latency(elapsed);
                }
            })
        };

        Ok(ServerHandle { addr, drain, metrics, main: Some(main) })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared metrics.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Begins graceful drain: stop accepting, finish in-flight and
    /// queued work, then every thread exits.
    pub fn request_drain(&self) {
        self.drain.begin();
    }

    /// Whether drain has begun.
    pub fn is_draining(&self) -> bool {
        self.drain.is_signaled()
    }

    /// A detached callable that begins drain — hand it to a watcher
    /// thread while the main thread keeps the handle for [`wait`].
    ///
    /// [`wait`]: ServerHandle::wait
    pub fn drain_trigger(&self) -> impl Fn() + Send + 'static {
        let drain = Arc::clone(&self.drain);
        move || drain.begin()
    }

    /// Blocks until the server has fully drained and every thread has
    /// exited.
    pub fn wait(mut self) {
        if let Some(main) = self.main.take() {
            let _ = main.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    queues: &Queues,
    metrics: &Arc<Metrics>,
    drain: &Arc<ShutdownGate>,
    config: &ServerConfig,
) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                metrics.record_connection();
                let queues = queues.clone();
                let metrics = Arc::clone(metrics);
                let conn_drain = Arc::clone(drain);
                let config = config.clone();
                handlers.push(thread::spawn(move || {
                    handle_connection(stream, &queues, &metrics, &conn_drain, &config);
                }));
                // Reap finished handlers so a long-lived server does not
                // accumulate one parked JoinHandle per past connection.
                handlers.retain(|h| !h.is_finished());
                if drain.is_signaled() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Condvar-bounded: a drain signal wakes this immediately
                // instead of waiting out a sleep.
                if drain.wait_timeout(Duration::from_millis(5)) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    for handler in handlers {
        let _ = handler.join();
    }
}

fn handle_connection(
    mut stream: TcpStream,
    queues: &Queues,
    metrics: &Arc<Metrics>,
    drain: &Arc<ShutdownGate>,
    config: &ServerConfig,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let id = drain.register(&stream);
    loop {
        let outcome = resilience::read_frame_gated(
            &mut stream,
            drain,
            config.read_timeout,
            config.idle_timeout,
        );
        let frame = match outcome {
            Ok(FrameOutcome::Frame(frame)) => frame,
            Ok(FrameOutcome::Eof | FrameOutcome::Shutdown | FrameOutcome::IdleExpired) => break,
            Ok(FrameOutcome::Stalled) => {
                // Mid-frame silence for a full read-timeout tick: drop
                // the peer instead of pinning this thread forever.
                metrics.record_stalled_disconnect();
                break;
            }
            Ok(FrameOutcome::Malformed(e)) => {
                // The stream can no longer be re-framed: answer once
                // with the typed wire error, then hang up.
                metrics.record_protocol_error();
                let resp = Response::Error { code: e.code(), message: e.to_string() };
                let _ = wire::write_frame(
                    &mut stream,
                    &wire::encode_response(wire::KIND_ERROR, 0, &resp),
                );
                break;
            }
            Err(_) => break,
        };
        let keep_going = dispatch(&mut stream, &frame, queues, metrics, drain);
        if !keep_going || drain.is_signaled() {
            break;
        }
    }
    drain.unregister(id);
}

/// Handles one decoded frame; returns `false` when the connection should
/// close.
fn dispatch(
    stream: &mut TcpStream,
    frame: &wire::Frame,
    queues: &Queues,
    metrics: &Arc<Metrics>,
    drain: &Arc<ShutdownGate>,
) -> bool {
    let started = Instant::now();
    let request = match wire::decode_request(frame) {
        Ok(request) => request,
        Err(e) => {
            // The frame itself was well-delimited, only its payload was
            // bad: reject it and keep the connection.
            metrics.record_protocol_error();
            let resp = Response::Error { code: e.code(), message: e.to_string() };
            return write_response(stream, frame.kind, frame.req_id, &resp);
        }
    };
    match request {
        Request::Ping => {
            let ok = write_response(stream, frame.kind, frame.req_id, &Response::Pong);
            metrics.record(Route::Ping, elapsed_us(started), true);
            ok
        }
        Request::Stats => {
            let resp = Response::Stats { json: metrics.snapshot_json() };
            let ok = write_response(stream, frame.kind, frame.req_id, &resp);
            metrics.record(Route::Stats, elapsed_us(started), true);
            ok
        }
        Request::Analyze { algorithm, side } => {
            let resp = analyze(algorithm, usize::from(side));
            let is_ok = !matches!(resp, Response::Error { .. });
            let ok = write_response(stream, frame.kind, frame.req_id, &resp);
            metrics.record(Route::Analyze, elapsed_us(started), is_ok);
            ok
        }
        Request::Drain => {
            // Flag first, respond second: a client that has read the
            // `Draining` ack must observe the server as draining.
            drain.begin();
            let _ = write_response(stream, frame.kind, frame.req_id, &Response::Draining);
            false
        }
        Request::Sort(req) => {
            let (reply_tx, reply_rx) = mpsc::sync_channel(1);
            let work = SortWork {
                deadline: Deadline::from_wire(req.deadline_ms),
                req,
                req_id: frame.req_id,
                reply: reply_tx,
            };
            let resp = match queues.sort_tx.try_send(work) {
                Ok(()) => {
                    metrics.queue_enter();
                    let resp = reply_rx.recv().unwrap_or_else(|_| internal_error());
                    metrics.queue_exit();
                    resp
                }
                Err(TrySendError::Full(_)) => {
                    metrics.record_rejected();
                    let err = Error::QueueFull { capacity: queues.sort_capacity };
                    Response::Error { code: err.code(), message: err.to_string() }
                }
                Err(TrySendError::Disconnected(_)) => internal_error(),
            };
            let is_ok = !matches!(resp, Response::Error { .. });
            let ok = write_response(stream, frame.kind, frame.req_id, &resp);
            metrics.record(Route::Sort, elapsed_us(started), is_ok);
            ok
        }
        Request::Chaos(req) => {
            let (reply_tx, reply_rx) = mpsc::sync_channel(1);
            let work =
                ChaosWork { deadline: Deadline::from_wire(req.deadline_ms), req, reply: reply_tx };
            let resp = match queues.chaos_tx.try_send(work) {
                Ok(()) => reply_rx.recv().unwrap_or_else(|_| internal_error()),
                Err(TrySendError::Full(_)) => {
                    metrics.record_rejected();
                    let err = Error::QueueFull { capacity: queues.chaos_capacity };
                    Response::Error { code: err.code(), message: err.to_string() }
                }
                Err(TrySendError::Disconnected(_)) => internal_error(),
            };
            let is_ok = !matches!(resp, Response::Error { .. });
            let ok = write_response(stream, frame.kind, frame.req_id, &resp);
            metrics.record(Route::Chaos, elapsed_us(started), is_ok);
            ok
        }
    }
}

fn internal_error() -> Response {
    Response::Error { code: CODE_INTERNAL, message: "service shutting down".to_string() }
}

fn write_response(stream: &mut TcpStream, kind: u8, req_id: u64, resp: &Response) -> bool {
    wire::write_frame(stream, &wire::encode_response(kind, req_id, resp)).is_ok()
}

#[allow(clippy::cast_possible_truncation)]
fn elapsed_us(started: Instant) -> u64 {
    started.elapsed().as_micros() as u64
}

fn analyze(algorithm: AlgorithmId, side: usize) -> Response {
    match optimized_for(algorithm, side) {
        Ok(plan) => Response::Analyze(wire::AnalyzeResponse {
            comparators_per_cycle: plan.comparators_per_cycle(),
            raw_comparators_per_cycle: plan.raw_comparators_per_cycle(),
            stripped: plan.stripped.len() as u64,
            static_bound: static_bound_for(algorithm, side).unwrap_or(0),
        }),
        Err(e) => {
            let err = Error::from(e);
            Response::Error { code: err.code(), message: err.to_string() }
        }
    }
}

/// Engine-pool settings the batcher starts its workers with.
struct EngineConfig {
    workers: usize,
    fail_req_id: Option<u64>,
    hold: Option<Arc<EngineHold>>,
}

/// Runs the coalescer on this thread and the engine workers beside it;
/// returns once the sort queue has closed and every worker has finished
/// its last unit.
fn batcher_loop(
    rx: &Receiver<SortWork>,
    metrics: &Arc<Metrics>,
    max_batch: usize,
    engine: &EngineConfig,
) {
    // Rendezvous: a send completes only when a worker takes the unit, so
    // while every worker is busy the coalescer waits and the sort queue
    // fills into bigger batches instead of a second, unbounded queue.
    let (unit_tx, unit_rx) = mpsc::sync_channel::<Unit>(0);
    let unit_rx = Mutex::new(unit_rx);
    thread::scope(|scope| {
        for _ in 0..engine.workers {
            scope.spawn(|| engine_worker(&unit_rx, metrics, engine));
        }
        coalesce(rx, &unit_tx, metrics, max_batch);
        // Closing the unit channel lets each worker finish its unit and
        // exit; the scope joins them all.
        drop(unit_tx);
    });
}

/// One coalescer pass per wake-up: drain greedily, shed work already
/// past its deadline, group the rest by plan compatibility, and hand
/// each group on to the engine workers.
fn coalesce(
    rx: &Receiver<SortWork>,
    units: &SyncSender<Unit>,
    metrics: &Metrics,
    max_batch: usize,
) {
    let mut warm: HashSet<(AlgorithmId, u16, bool)> = HashSet::new();
    while let Ok(first) = rx.recv() {
        let mut works = vec![first];
        while works.len() < max_batch {
            match rx.try_recv() {
                Ok(work) => works.push(work),
                Err(_) => break,
            }
        }
        // Deadline admission: anything that expired while queued is shed
        // before it costs a single comparator evaluation.
        shed_expired(&mut works, metrics);
        type GroupKey = (AlgorithmId, u16, bool, Budget);
        let mut groups: Vec<(GroupKey, Vec<SortWork>)> = Vec::new();
        for work in works {
            let key = (work.req.algorithm, work.req.side, work.req.optimized, work.req.budget);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, group)) => group.push(work),
                None => groups.push((key, vec![work])),
            }
        }
        for ((algorithm, side, optimized, budget), group) in groups {
            let hit = !warm.insert((algorithm, side, optimized));
            metrics.record_batch(group.len(), hit);
            // The pool is the parallelism: each unit runs on one thread.
            let job = SortJob::new(algorithm, usize::from(side))
                .optimized(optimized)
                .budget(budget)
                .threads(1);
            dispatch_group(job, group, units);
        }
    }
}

/// Answers every request whose deadline has passed with 504 and drops
/// it from `works`; returns which positions survived.
fn shed_expired(works: &mut Vec<SortWork>, metrics: &Metrics) -> Vec<bool> {
    let kept: Vec<bool> = works
        .iter()
        .map(|work| {
            let live = !work.deadline.expired();
            if !live {
                metrics.record_deadline_shed();
                let _ = work.reply.send(deadline_error(&work.deadline));
            }
            live
        })
        .collect();
    let mut keep = kept.iter();
    works.retain(|_| *keep.next().expect("one flag per work"));
    kept
}

fn deadline_error(deadline: &Deadline) -> Response {
    let err = Error::DeadlineExceeded {
        deadline_ms: deadline.budget_ms(),
        waited_ms: deadline.waited_ms(),
    };
    Response::Error { code: err.code(), message: err.to_string() }
}

/// Builds the group's grids, resolves its plan, and sends it to the
/// engine workers as one unit, or as one unit per grid above
/// [`LOCKSTEP_MAX_CELLS`] cells, where `run_batch` runs grids one at a
/// time anyway.
fn dispatch_group(job: SortJob, group: Vec<SortWork>, units: &SyncSender<Unit>) {
    let mut grids: Vec<Grid<u32>> = Vec::with_capacity(group.len());
    let mut works: Vec<SortWork> = Vec::with_capacity(group.len());
    for mut work in group {
        match Grid::from_rows(job.side(), std::mem::take(&mut work.req.cells)) {
            Ok(grid) => {
                grids.push(grid);
                works.push(work);
            }
            Err(e) => {
                let err = Error::from(e);
                let resp = Response::Error { code: err.code(), message: err.to_string() };
                let _ = work.reply.send(resp);
            }
        }
    }
    if works.is_empty() {
        return;
    }
    // Resolve the plan here so that cold compilation, optimization and
    // bound lifting run only on the coalescer: a worker that ran them
    // would keep their peak in its own allocator arena.
    if let Err(e) = resolve_plan(&job) {
        reply_all(&works, &Response::Error { code: e.code(), message: e.to_string() });
        return;
    }
    let send = |unit| units.send(unit).expect("the engine pool outlives the coalescer");
    if job.side() * job.side() <= LOCKSTEP_MAX_CELLS {
        send(Unit { job, works, grids });
    } else {
        for (work, grid) in works.into_iter().zip(grids) {
            send(Unit { job: job.clone(), works: vec![work], grids: vec![grid] });
        }
    }
}

/// Fills the plan caches with everything `run_batch` will look up for
/// `job`: the raw schedule or the optimized plan, and the step cap.
fn resolve_plan(job: &SortJob) -> Result<(), Error> {
    if !job.is_optimized() {
        schedule_for(job.algorithm(), job.side())?;
    }
    job.resolved_budget().map(drop)
}

fn reply_all(works: &[SortWork], resp: &Response) {
    for work in works {
        let _ = work.reply.send(resp.clone());
    }
}

/// An engine worker: takes units until the coalescer closes the channel.
fn engine_worker(units: &Mutex<Receiver<Unit>>, metrics: &Metrics, engine: &EngineConfig) {
    loop {
        // The lock is held only while parked in `recv`, never while
        // running a unit.
        let next = lock_unpoisoned(units).recv();
        let Ok(unit) = next else { return };
        if let Some(hold) = &engine.hold {
            hold.park();
        }
        run_unit(unit, metrics, engine.fail_req_id);
    }
}

fn run_unit(mut unit: Unit, metrics: &Metrics, fail_req_id: Option<u64>) {
    // A unit can wait at the hand-off for a whole engine run; shed what
    // expired meanwhile.
    let kept = shed_expired(&mut unit.works, metrics);
    let mut kept = kept.iter();
    unit.grids.retain(|_| *kept.next().expect("one flag per grid"));
    let Unit { job, works, mut grids } = unit;
    if works.is_empty() {
        return;
    }
    // Panic quarantine: a poison request must produce an error frame and
    // a metric, not a dead worker. The grids the closure half-updated
    // are discarded with the unit on the panic path.
    let started = Instant::now();
    let outcome = resilience::quarantined(|| {
        if let Some(poison) = fail_req_id {
            if works.iter().any(|work| work.req_id == poison) {
                panic!("injected batcher fail point at req {poison}");
            }
        }
        job.run_batch(&mut grids)
    });
    metrics.record_engine_busy(started.elapsed());
    match outcome {
        Ok(Ok(runs)) => {
            for ((run, grid), work) in runs.iter().zip(&grids).zip(&works) {
                let resp = Response::Sort(SortResponse {
                    convergence: wire::convergence_label(&run.convergence),
                    steps: run.steps,
                    swaps: run.swaps,
                    comparisons: run.comparisons,
                    budget: run.budget,
                    residual: wire::convergence_residual(&run.convergence),
                    grid: work.req.echo_grid.then(|| grid.as_slice().to_vec()),
                });
                let _ = work.reply.send(resp);
            }
        }
        Ok(Err(e)) => {
            reply_all(&works, &Response::Error { code: e.code(), message: e.to_string() });
        }
        Err(panic_msg) => {
            metrics.record_panic_quarantined();
            let resp = Response::Error {
                code: CODE_PANIC,
                message: format!("batch quarantined after engine panic: {panic_msg}"),
            };
            reply_all(&works, &resp);
        }
    }
}

fn chaos_loop(rx: &Receiver<ChaosWork>, metrics: &Arc<Metrics>, hold: Option<&EngineHold>) {
    while let Ok(work) = rx.recv() {
        if work.deadline.expired() {
            metrics.record_deadline_shed();
            let _ = work.reply.send(deadline_error(&work.deadline));
            continue;
        }
        if let Some(hold) = hold {
            hold.park();
        }
        let resp = resilience::quarantined(|| run_chaos(&work.req)).unwrap_or_else(|panic_msg| {
            metrics.record_panic_quarantined();
            Response::Error {
                code: CODE_PANIC,
                message: format!("chaos run quarantined after engine panic: {panic_msg}"),
            }
        });
        let _ = work.reply.send(resp);
    }
}

fn run_chaos(req: &ChaosRequest) -> Response {
    let side = usize::from(req.side);
    let mut grid = match Grid::from_rows(side, req.cells.clone()) {
        Ok(grid) => grid,
        Err(e) => {
            let err = Error::from(e);
            return Response::Error { code: err.code(), message: err.to_string() };
        }
    };
    let spec = FaultSpec::transient(req.seed, f64::from(req.drop_rate_ppm) / 1e6);
    let job = SortJob::new(req.algorithm, side).fault_spec(spec);
    match job.run(&mut grid) {
        Ok(run) => {
            let faults = run.faults.expect("resilient runs always report fault stats");
            Response::Chaos(wire::ChaosResponse {
                convergence: wire::convergence_label(&run.convergence),
                steps: run.steps,
                swaps: run.swaps,
                comparisons: run.comparisons,
                dropped: faults.dropped,
                stalled_steps: faults.stalled_steps,
                recovery_attempts: faults.recovery_attempts,
                recovery_steps: faults.recovery_steps,
            })
        }
        Err(e) => Response::Error { code: e.code(), message: e.to_string() },
    }
}

fn log_loop(metrics: &Arc<Metrics>, drain: &Arc<ShutdownGate>, interval: Duration) {
    // The gate doubles as the timer: a full interval elapses (log a
    // line) or the drain signal arrives (final line, exit) — no
    // fixed-period polling in between.
    while !drain.wait_timeout(interval) {
        eprintln!("{}", metrics.log_line());
    }
    eprintln!("{}", metrics.log_line());
}
