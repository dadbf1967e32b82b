//! Service-resilience primitives: poison-tolerant locking, panic
//! quarantine, deadline bookkeeping, a condvar-signaled shutdown gate,
//! gated frame reads with stalled-peer detection, and deterministic
//! retry backoff.
//!
//! Everything here is policy-free plumbing shared by the server, the
//! chaos proxy, and the load generator:
//!
//! - [`lock_unpoisoned`] recovers a [`Mutex`] guard when a panicking
//!   holder poisoned it — a quarantined panic must not cascade into
//!   every later `lock().expect(..)`.
//! - [`quarantined`] wraps a closure in `catch_unwind` and renders the
//!   panic payload into a string, so one poison request yields an error
//!   response instead of a dead worker thread.
//! - [`Deadline`] stamps server receipt and answers "has this request's
//!   budget expired while it sat in a queue?".
//! - [`ShutdownGate`] is the drain/stop coordinator: an atomic flag for
//!   cheap polling, a condvar so waiters wake in bounded time instead
//!   of sleep-polling, a registry of live streams whose read halves are
//!   shut down to unblock parked handlers, and a timestamp so drain
//!   latency is measured, not guessed.
//! - [`read_frame_gated`] reads one wire frame off a socket whose read
//!   timeout acts as a tick: idle peers keep waiting, stalled peers
//!   (bytes of a frame started, then silence for a full timeout) are
//!   reported so the caller can disconnect them.
//! - [`Backoff`] computes decorrelated-jitter retry delays keyed by the
//!   same SplitMix64 mixer as `mesh::fault`, so a retry schedule is
//!   a pure function of `(seed, request, attempt)` and replays exactly.

use crate::wire::{self, Frame};
use meshsort_mesh::rng::mix;
use std::any::Any;
use std::io::{self, Read};
use std::net::{Shutdown, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks `mutex`, recovering the guard when a panicking holder poisoned
/// it. Every structure in this crate keeps its invariants per-operation
/// (insert/remove/counter bumps), so a poisoned guard's data is still
/// coherent — propagating the poison would turn one quarantined panic
/// into a cascade.
pub fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a panic payload (from `catch_unwind`) into the human-readable
/// message carried by `panic!` — `&str` and `String` payloads pass
/// through verbatim, anything else gets a stable placeholder.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs `f`, converting a panic into `Err(message)` instead of
/// unwinding. The caller is responsible for discarding any state the
/// closure may have left half-updated (an engine worker drops the whole
/// unit's grids on a quarantined panic).
pub fn quarantined<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| panic_message(payload.as_ref()))
}

/// A per-request deadline, anchored at server receipt.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    admitted_at: Instant,
    budget: Option<Duration>,
}

impl Deadline {
    /// Stamps "now" as the admission time; `deadline_ms == 0` means the
    /// request carries no deadline and never expires.
    pub fn from_wire(deadline_ms: u32) -> Self {
        Deadline {
            admitted_at: Instant::now(),
            budget: (deadline_ms > 0).then(|| Duration::from_millis(u64::from(deadline_ms))),
        }
    }

    /// Whether the budget has elapsed since admission.
    pub fn expired(&self) -> bool {
        self.budget.is_some_and(|budget| self.admitted_at.elapsed() > budget)
    }

    /// The deadline in milliseconds (0 when none).
    pub fn budget_ms(&self) -> u64 {
        self.budget.map_or(0, |b| b.as_millis() as u64)
    }

    /// Milliseconds waited since admission.
    pub fn waited_ms(&self) -> u64 {
        self.admitted_at.elapsed().as_millis() as u64
    }
}

/// Shutdown/drain coordination shared by the server and the chaos
/// proxy: a flag for cheap polling, a condvar for bounded-latency
/// wakeups, a registry of live streams to unblock, and the instant the
/// shutdown began so its latency can be measured.
pub struct ShutdownGate {
    flag: AtomicBool,
    state: Mutex<bool>,
    signal: Condvar,
    streams: Mutex<std::collections::HashMap<usize, TcpStream>>,
    next_id: AtomicUsize,
    began_at: Mutex<Option<Instant>>,
}

impl ShutdownGate {
    /// A gate that has not been signaled.
    pub fn new() -> Self {
        ShutdownGate {
            flag: AtomicBool::new(false),
            state: Mutex::new(false),
            signal: Condvar::new(),
            streams: Mutex::new(std::collections::HashMap::new()),
            next_id: AtomicUsize::new(0),
            began_at: Mutex::new(None),
        }
    }

    /// Registers a live stream; its read half is shut down when the gate
    /// fires, unblocking a handler parked in a read. Returns the id for
    /// [`ShutdownGate::unregister`].
    pub fn register(&self, stream: &TcpStream) -> usize {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            lock_unpoisoned(&self.streams).insert(id, clone);
        }
        id
    }

    /// Drops a stream from the registry (its handler exited).
    pub fn unregister(&self, id: usize) {
        lock_unpoisoned(&self.streams).remove(&id);
    }

    /// Fires the gate: stamps the start time (first call wins), wakes
    /// every condvar waiter, and shuts down the read half of all
    /// registered streams.
    pub fn begin(&self) {
        lock_unpoisoned(&self.began_at).get_or_insert_with(Instant::now);
        self.flag.store(true, Ordering::SeqCst);
        {
            let mut fired = lock_unpoisoned(&self.state);
            *fired = true;
            self.signal.notify_all();
        }
        for stream in lock_unpoisoned(&self.streams).values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }

    /// Whether the gate has fired (cheap atomic read).
    pub fn is_signaled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Blocks up to `timeout` for the gate to fire; returns whether it
    /// has. A fired gate returns immediately — this is the bounded
    /// replacement for `sleep`-then-poll loops.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let fired = lock_unpoisoned(&self.state);
        if *fired {
            return true;
        }
        let (fired, _) = self
            .signal
            .wait_timeout_while(fired, timeout, |fired| !*fired)
            .unwrap_or_else(PoisonError::into_inner);
        *fired
    }

    /// Time elapsed since [`ShutdownGate::begin`] first fired (`None`
    /// before that). Sampled after the worker tree joins, this is the
    /// measured drain latency.
    pub fn began_elapsed(&self) -> Option<Duration> {
        lock_unpoisoned(&self.began_at).map(|at| at.elapsed())
    }
}

impl Default for ShutdownGate {
    fn default() -> Self {
        Self::new()
    }
}

/// What one gated frame read produced.
#[derive(Debug)]
pub enum FrameOutcome {
    /// A complete, header-valid frame.
    Frame(Frame),
    /// Clean EOF at a frame boundary.
    Eof,
    /// The gate fired while waiting.
    Shutdown,
    /// The peer started a frame, then made zero progress for a full
    /// read-timeout tick: disconnect it instead of pinning the thread.
    Stalled,
    /// The peer sat idle (no frame started) past the idle limit.
    IdleExpired,
    /// The bytes were read but do not frame (bad length/magic/version/
    /// kind). The stream cannot be re-framed after this.
    Malformed(wire::WireError),
}

/// Reads one frame from `stream`, whose read timeout must already be set
/// to `tick` — each timed-out read is a tick on which the gate and the
/// stall/idle rules are checked. Hard I/O errors propagate as `Err`;
/// mid-frame EOF surfaces as `UnexpectedEof`.
pub fn read_frame_gated(
    stream: &mut TcpStream,
    gate: &ShutdownGate,
    tick: Duration,
    idle_limit: Option<Duration>,
) -> io::Result<FrameOutcome> {
    let mut len_buf = [0u8; 4];
    let mut idle = Duration::ZERO;
    let mut filled = 0usize;
    // Length prefix: zero bytes filled = idle between frames (wait,
    // subject to the idle limit); partial fill = mid-frame (a timeout
    // tick with no progress is a stall).
    while filled < 4 {
        match stream.read(&mut len_buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(FrameOutcome::Eof)
                } else {
                    Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF inside a length prefix"))
                };
            }
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                if gate.is_signaled() {
                    return Ok(FrameOutcome::Shutdown);
                }
                if filled > 0 {
                    return Ok(FrameOutcome::Stalled);
                }
                idle += tick;
                if idle_limit.is_some_and(|limit| idle >= limit) {
                    return Ok(FrameOutcome::IdleExpired);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = match wire::check_frame_len(u32::from_le_bytes(len_buf)) {
        Ok(len) => len,
        Err(e) => return Ok(FrameOutcome::Malformed(e)),
    };
    let mut body = vec![0u8; len];
    let mut filled = 0usize;
    while filled < len {
        match stream.read(&mut body[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF inside a frame"));
            }
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                if gate.is_signaled() {
                    return Ok(FrameOutcome::Shutdown);
                }
                // Mid-frame and a full tick passed without a byte.
                return Ok(FrameOutcome::Stalled);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    match wire::decode_frame(&body) {
        Ok(frame) => Ok(FrameOutcome::Frame(frame)),
        Err(e) => Ok(FrameOutcome::Malformed(e)),
    }
}

/// Whether an I/O error is a socket-timeout tick. Unix reports
/// `WouldBlock`, Windows `TimedOut`; both mean "the timeout elapsed".
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Deterministic decorrelated-jitter backoff (the "decorrelated jitter"
/// scheme: each delay is uniform on `[base, 3 · previous]`, capped),
/// with the randomness drawn from [`mix`] over `(seed, token)` instead
/// of a stateful RNG — the same request/attempt always backs off the
/// same amount.
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    /// Smallest delay, milliseconds.
    pub base_ms: u64,
    /// Largest delay, milliseconds.
    pub cap_ms: u64,
    /// Jitter seed.
    pub seed: u64,
}

impl Backoff {
    /// The delay to sleep before the attempt identified by `token`
    /// (callers mix request index and attempt number into it), given the
    /// previous delay `prev_ms` (pass 0 before the first retry).
    pub fn delay_ms(&self, prev_ms: u64, token: u64) -> u64 {
        let base = self.base_ms.max(1);
        let cap = self.cap_ms.max(base);
        let hi = prev_ms.max(base).saturating_mul(3).clamp(base + 1, cap.max(base + 1));
        base + mix(self.seed ^ token) % (hi - base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_recovers_from_poison() {
        let mutex = Arc::new(Mutex::new(7u32));
        let poisoner = Arc::clone(&mutex);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(mutex.lock().is_err(), "the lock is poisoned");
        assert_eq!(*lock_unpoisoned(&mutex), 7, "the data is still coherent");
    }

    #[test]
    fn quarantine_surfaces_str_and_string_payloads() {
        assert_eq!(quarantined(|| 42).unwrap(), 42);
        assert_eq!(quarantined(|| panic!("static str")).unwrap_err(), "static str");
        let detail = String::from("formatted 17");
        assert_eq!(quarantined(move || panic!("{detail}")).unwrap_err(), "formatted 17");
    }

    #[test]
    fn deadline_zero_never_expires() {
        let d = Deadline::from_wire(0);
        assert!(!d.expired());
        assert_eq!(d.budget_ms(), 0);
        let d = Deadline::from_wire(10_000);
        assert!(!d.expired(), "a 10 s budget does not expire instantly");
        assert_eq!(d.budget_ms(), 10_000);
    }

    #[test]
    fn expired_deadline_reports_waited_time() {
        let d = Deadline::from_wire(1);
        std::thread::sleep(Duration::from_millis(5));
        assert!(d.expired());
        assert!(d.waited_ms() >= 1);
    }

    #[test]
    fn gate_wakes_waiters_in_bounded_time() {
        let gate = Arc::new(ShutdownGate::new());
        assert!(!gate.wait_timeout(Duration::from_millis(1)), "unsignaled gate times out");
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let started = Instant::now();
                assert!(gate.wait_timeout(Duration::from_secs(30)));
                started.elapsed()
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        gate.begin();
        let woke_after = waiter.join().expect("waiter");
        assert!(woke_after < Duration::from_secs(5), "condvar wakeup, not timeout: {woke_after:?}");
        assert!(gate.is_signaled());
        assert!(gate.wait_timeout(Duration::from_secs(30)), "fired gate returns immediately");
        assert!(gate.began_elapsed().expect("began") >= Duration::from_millis(0));
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_jittered() {
        let b = Backoff { base_ms: 5, cap_ms: 500, seed: 1993 };
        let mut prev = 0;
        let mut delays = Vec::new();
        for attempt in 0..12u64 {
            let d = b.delay_ms(prev, attempt);
            assert!((b.base_ms..=b.cap_ms).contains(&d), "delay {d} out of [5, 500]");
            delays.push(d);
            prev = d;
        }
        // Same seed and tokens: the exact same schedule.
        let mut prev2 = 0;
        for (attempt, &d) in delays.iter().enumerate() {
            let again = b.delay_ms(prev2, attempt as u64);
            assert_eq!(again, d);
            prev2 = again;
        }
        // A different seed decorrelates.
        let other = Backoff { seed: 2026, ..b };
        assert_ne!(
            (0..12u64).map(|a| other.delay_ms(0, a)).collect::<Vec<_>>(),
            (0..12u64).map(|a| b.delay_ms(0, a)).collect::<Vec<_>>(),
        );
    }
}
