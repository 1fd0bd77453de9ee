//! The serving loop: every worker waits on one shared epoll set, so an
//! idle keep-alive socket costs a file descriptor, not a thread, and a
//! ready request is served on the thread that sees it.
//!
//! Each of the [`ServerConfig::workers`] threads runs the same loop:
//! take **one** event from the epoll set (`maxevents` 1), serve that
//! connection through [`crate::http::serve_ready`] (the carry-over
//! buffer, pipelining bounds and `Connection` semantics are the
//! portable path's), then re-arm it with `EPOLL_CTL_MOD`. Connections
//! are registered `EPOLLONESHOT`, so the kernel reports a readable
//! socket to exactly one worker and never again until that worker
//! re-arms it: workers take turns on one event source
//! (Leader/Followers) with no hand-off between threads. A request that
//! stalls mid-head holds only the worker that took it.
//!
//! The same loop accepts (the listener is level-triggered and
//! non-blocking), applies `max_connections` admission (a connect past
//! the limit is answered `503` with the uniform JSON error body and
//! closed before it consumes a slot), and evicts idle connections from
//! a coarse [`TimerWheel`]: expiring ten thousand idle connections
//! costs one wheel pass, not ten thousand blocked threads. Shutdown
//! writes an eventfd registered in the set; it stays readable, so
//! every worker wakes and exits, and no throwaway connection is needed.
//!
//! The epoll and eventfd calls are declared locally ([`ffi`]), in the
//! std-only style `usi_core::storage` uses for `mmap`; descriptors are
//! closed by `OwnedFd`, and closing a socket removes it from the set.
//!
//! Targets without epoll run the portable thread-per-connection path
//! in `http.rs` instead; `http::serve` picks by `cfg!(target_os)`.

#[cfg(target_os = "linux")]
pub(crate) use imp::serve;

/// Stub for targets without epoll: `http::serve` takes the portable
/// path there, so this is never reached. It exists so the crate
/// compiles identically everywhere.
#[cfg(not(target_os = "linux"))]
pub(crate) fn serve(
    _catalog: std::sync::Arc<crate::Catalog>,
    _listener: std::net::TcpListener,
    _config: crate::ServerConfig,
) -> std::io::Result<crate::ServerHandle> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "the epoll serving loop is Linux-only; http::serve falls back before calling this",
    ))
}

#[cfg(target_os = "linux")]
mod imp {
    use crate::catalog::Catalog;
    use crate::http::{
        admit, close_connection, serve_ready, ConnState, ServerConfig, ServerHandle, WakeStrategy,
    };
    use crate::metrics;
    use std::collections::HashMap;
    use std::fs::File;
    use std::io;
    use std::net::TcpListener;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    mod ffi {
        //! The Linux calls the serving loop needs, declared locally
        //! because the workspace is std-only (no `libc` crate) — the
        //! same pattern as `usi_core::storage`'s mmap FFI. Constants
        //! match the kernel UAPI headers.

        use std::ffi::{c_int, c_uint};

        pub const EPOLL_CLOEXEC: c_int = 0o2000000;
        pub const EPOLL_CTL_ADD: c_int = 1;
        pub const EPOLL_CTL_MOD: c_int = 3;
        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLRDHUP: u32 = 0x2000;
        pub const EPOLLONESHOT: u32 = 1 << 30;
        pub const EFD_CLOEXEC: c_int = 0o2000000;
        pub const EFD_NONBLOCK: c_int = 0o4000;

        /// Mirror of the kernel's `struct epoll_event`. x86-64 is the
        /// one ABI where the struct is packed (12 bytes); everywhere
        /// else it is naturally aligned (16 bytes).
        #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
        #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            /// User cookie: the loop stores a connection token here.
            pub data: u64,
        }

        extern "C" {
            pub fn epoll_create1(flags: c_int) -> c_int;
            pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
            pub fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout_ms: c_int,
            ) -> c_int;
            pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        }
    }

    /// What a connection waits for: readable or peer shutdown, reported
    /// once per arm. (`EPOLLERR`/`EPOLLHUP` are always reported.)
    const CONN_EVENTS: u32 = ffi::EPOLLIN | ffi::EPOLLRDHUP | ffi::EPOLLONESHOT;

    /// Thin safe wrapper over one epoll instance.
    struct Epoll {
        fd: OwnedFd,
    }

    impl Epoll {
        fn new() -> io::Result<Self> {
            // SAFETY: plain syscall; the kernel validates the flags and
            // reports failure as a negative return.
            let fd = unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: `fd` is a freshly created, unowned epoll descriptor.
            Ok(Self { fd: unsafe { OwnedFd::from_raw_fd(fd) } })
        }

        /// Adds (`EPOLL_CTL_ADD`) or re-arms (`EPOLL_CTL_MOD`) `fd` for
        /// `events`, tagged with `token`.
        fn ctl(&self, op: std::ffi::c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut event = ffi::EpollEvent { events, data: token };
            // SAFETY: `event` outlives the call; the kernel copies it.
            let rc = unsafe { ffi::epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut event) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Blocks up to `timeout_ms` (-1 = forever) for one event and
        /// returns its token; a timeout or EINTR returns `None`.
        fn wait(&self, timeout_ms: i32) -> io::Result<Option<u64>> {
            let mut event = ffi::EpollEvent { events: 0, data: 0 };
            // SAFETY: `event` is a live, writable buffer of the one
            // entry passed as `maxevents`.
            let n = unsafe { ffi::epoll_wait(self.fd.as_raw_fd(), &mut event, 1, timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(None);
                }
                return Err(err);
            }
            Ok((n > 0).then_some(event.data))
        }
    }

    /// Creates the shutdown eventfd (non-blocking, and never drained:
    /// once written it stays readable for every worker).
    fn new_eventfd() -> io::Result<File> {
        // SAFETY: plain syscall; failure is a negative return.
        let fd = unsafe { ffi::eventfd(0, ffi::EFD_CLOEXEC | ffi::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a freshly created, unowned eventfd.
        Ok(File::from(unsafe { OwnedFd::from_raw_fd(fd) }))
    }

    /// Slots in the idle wheel. Fixed, so the wheel's size does not
    /// grow with the idle timeout: a deadline more than one lap away
    /// lands in a slot that fires a lap early, and the caller's
    /// `deadline > now` check schedules it again.
    const WHEEL_SLOTS: usize = 64;

    /// A coarse hashed timer wheel for idle-connection deadlines.
    ///
    /// Deadlines land in one of [`WHEEL_SLOTS`] buckets by tick number
    /// (ceil-rounded, so an entry within one lap never fires before its
    /// deadline); advancing the wheel to "now" drains every passed
    /// bucket. Entries are validated against the connection table when
    /// they fire, so the wheel holds bare tokens.
    struct TimerWheel {
        slots: Vec<Vec<u64>>,
        granularity: Duration,
        /// The wheel's time origin; tick numbers count from here.
        start: Instant,
        /// Last tick whose bucket has been drained.
        cursor: u64,
        /// Live (scheduled, not yet drained) entries.
        entries: usize,
    }

    impl TimerWheel {
        fn new(horizon: Duration, now: Instant) -> Self {
            // granularity: ~1/16 of the horizon, clamped to sane bounds;
            // eviction precision is one granule late at worst
            let granularity =
                (horizon / 16).clamp(Duration::from_millis(20), Duration::from_secs(1));
            Self {
                slots: vec![Vec::new(); WHEEL_SLOTS],
                granularity,
                start: now,
                cursor: 0,
                entries: 0,
            }
        }

        fn tick_of(&self, t: Instant) -> u64 {
            (t.saturating_duration_since(self.start).as_nanos() / self.granularity.as_nanos())
                as u64
        }

        /// Schedules `token` to fire at the first tick boundary at or
        /// after `deadline`, or a whole number of laps earlier when the
        /// deadline is more than one lap away.
        fn schedule(&mut self, token: u64, deadline: Instant) {
            let tick = (self.tick_of(deadline) + 1).max(self.cursor + 1);
            let slot = (tick % WHEEL_SLOTS as u64) as usize;
            self.slots[slot].push(token);
            self.entries += 1;
        }

        /// Advances the wheel to `now`, appending every due token to
        /// `out`. A gap longer than one lap drains each slot once, so
        /// a wheel that sat empty for hours catches up in one lap.
        fn expire_into(&mut self, now: Instant, out: &mut Vec<u64>) {
            let now_tick = self.tick_of(now);
            let from = self.cursor.max(now_tick.saturating_sub(WHEEL_SLOTS as u64));
            for tick in from + 1..=now_tick {
                let slot = (tick % WHEEL_SLOTS as u64) as usize;
                self.entries -= self.slots[slot].len();
                out.append(&mut self.slots[slot]);
            }
            self.cursor = self.cursor.max(now_tick);
        }

        /// Milliseconds until the next tick boundary, or `None` when no
        /// entry is scheduled (the epoll wait may block forever).
        fn next_timeout_ms(&self, now: Instant) -> Option<i32> {
            if self.entries == 0 {
                return None;
            }
            let next = self.start
                + Duration::from_nanos(
                    (self.granularity.as_nanos() as u64).saturating_mul(self.cursor + 1),
                );
            let ms = next.saturating_duration_since(now).as_millis() as i32;
            Some(ms.max(1))
        }
    }

    /// One connection, from accept to close.
    #[derive(Default)]
    struct Slot {
        /// The socket while it is parked; `None` while a worker serves it.
        conn: Option<ConnState>,
        /// When the parked socket idles out; `None` never does (the
        /// timeout reaches past what `Instant` can hold).
        deadline: Option<Instant>,
        /// Whether the wheel holds this slot's token. It holds each
        /// token at most once, however often the connection parks.
        in_wheel: bool,
    }

    /// Every open connection by token, and the idle wheel, under one
    /// lock. Tokens are never reused, so a wheel entry or an event for
    /// a closed connection can only miss, never hit another socket.
    struct Table {
        slots: HashMap<u64, Slot>,
        wheel: TimerWheel,
        next_token: u64,
    }

    impl Table {
        /// Removes every parked connection whose deadline passed into
        /// `evicted`, and returns how long the next `epoll_wait` may
        /// block (-1 when nothing is scheduled). The wheel hands tokens
        /// back in deadline order, so eviction order is expiry order.
        fn expire(
            &mut self,
            now: Instant,
            due: &mut Vec<u64>,
            evicted: &mut Vec<ConnState>,
        ) -> i32 {
            let Table { slots, wheel, .. } = self;
            wheel.expire_into(now, due);
            for token in due.drain(..) {
                let Some(slot) = slots.get_mut(&token) else {
                    continue; // closed since it was scheduled
                };
                match slot.deadline.filter(|_| slot.conn.is_some()) {
                    // parked again since, or a lap early
                    Some(deadline) if deadline > now => wheel.schedule(token, deadline),
                    Some(_) => evicted.extend(slots.remove(&token).and_then(|slot| slot.conn)),
                    // a worker is serving it: its next park schedules it
                    None => slot.in_wheel = false,
                }
            }
            wheel.next_timeout_ms(now).unwrap_or(-1)
        }
    }

    const TOKEN_LISTENER: u64 = u64::MAX;
    const TOKEN_WAKE: u64 = u64::MAX - 1;

    /// What every worker shares: the epoll set and what it watches.
    struct Shared {
        epoll: Epoll,
        listener: TcpListener,
        catalog: Arc<Catalog>,
        config: ServerConfig,
        stop: Arc<AtomicBool>,
        /// Per-server open-connection count (also the `max_connections`
        /// admission test); mirrors the process-global gauge.
        open: Arc<AtomicUsize>,
        table: Mutex<Table>,
    }

    impl Shared {
        fn table(&self) -> MutexGuard<'_, Table> {
            // serving runs with the table unlocked; only bookkeeping
            // that cannot fail runs under it
            self.table.lock().expect("no worker panics while holding the connection table")
        }

        /// One worker's loop: evict what idled out, wait for one event,
        /// handle it. Exits when shutdown's eventfd write wakes it.
        fn run(&self) {
            let m = metrics::server();
            let (mut due, mut evicted) = (Vec::new(), Vec::new());
            loop {
                let timeout = self.table().expire(Instant::now(), &mut due, &mut evicted);
                for conn in evicted.drain(..) {
                    m.connections_idle.dec();
                    self.close(conn);
                }
                let event = self.epoll.wait(timeout);
                m.reactor_wakeups_total.inc();
                if self.stop.load(Ordering::SeqCst) {
                    break;
                }
                match event {
                    Ok(Some(TOKEN_LISTENER)) => self.accept_ready(),
                    Ok(Some(TOKEN_WAKE) | None) => {}
                    Ok(Some(token)) => self.serve(token),
                    Err(e) => {
                        // an unusable epoll fd is unrecoverable; leaving
                        // the loop lets shutdown proceed
                        eprintln!("usi-worker: epoll_wait failed, stopping: {e}");
                        break;
                    }
                }
            }
            self.drain();
        }

        /// Accepts until the listener runs dry (it is non-blocking).
        fn accept_ready(&self) {
            loop {
                let stream = match self.listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                    Err(_) => {
                        // EMFILE/ECONNABORTED under flood: brief backoff;
                        // level-triggered epoll reports the listener
                        // again if connections are still pending
                        std::thread::sleep(Duration::from_millis(10));
                        return;
                    }
                };
                // readiness guarantees the first read of the blocking
                // socket; its read timeout bounds a request that stalls
                if let Some(stream) = admit(stream, &self.open, self.config) {
                    self.park(None, ConnState::new(stream));
                }
            }
        }

        /// Serves the connection behind `token`: the request epoll
        /// reported plus any pipelined behind it, then parks it again or
        /// closes it.
        fn serve(&self, token: u64) {
            let m = metrics::server();
            let Some(mut conn) =
                self.table().slots.get_mut(&token).and_then(|slot| slot.conn.take())
            else {
                return; // evicted after epoll reported it
            };
            m.connections_idle.dec();
            m.pool_in_flight.inc();
            let keep = serve_ready(&mut conn, &self.catalog, self.config);
            m.pool_in_flight.dec();
            if keep {
                self.park(Some(token), conn);
            } else {
                self.table().slots.remove(&token);
                self.close(conn);
            }
        }

        /// Parks `conn` until it turns readable or idles out: `None`
        /// registers a fresh connection, `Some(token)` re-arms one a
        /// worker just served. The table stays locked across
        /// `epoll_ctl`, so the worker that takes the next event finds
        /// the connection in its slot.
        fn park(&self, token: Option<u64>, conn: ConnState) {
            let mut guard = self.table();
            let table = &mut *guard;
            let (token, op) = match token {
                Some(token) => (token, ffi::EPOLL_CTL_MOD),
                None => {
                    table.next_token += 1;
                    (table.next_token, ffi::EPOLL_CTL_ADD)
                }
            };
            // shutting down, or the socket cannot be waited on (EMFILE
            // on the epoll side, bad fd): close it instead
            let armed = !self.stop.load(Ordering::SeqCst)
                && self
                    .epoll
                    .ctl(op, conn.stream().as_raw_fd(), CONN_EVENTS, token)
                    .map_err(|e| eprintln!("usi-worker: cannot wait on a connection: {e}"))
                    .is_ok();
            if !armed {
                table.slots.remove(&token);
                drop(guard);
                self.close(conn);
                return;
            }
            let deadline = Instant::now().checked_add(self.config.idle_timeout);
            let slot = table.slots.entry(token).or_default();
            if let (Some(deadline), false) = (deadline, slot.in_wheel) {
                table.wheel.schedule(token, deadline);
                slot.in_wheel = true;
            }
            slot.deadline = deadline;
            slot.conn = Some(conn);
            metrics::server().connections_idle.inc();
        }

        /// Closes a connection no slot holds, keeping both counts right.
        fn close(&self, conn: ConnState) {
            self.open.fetch_sub(1, Ordering::SeqCst);
            close_connection(conn);
        }

        /// Shutdown: closes every parked connection. One a worker is
        /// still serving closes when that worker tries to park it.
        fn drain(&self) {
            let mut parked = Vec::new();
            self.table().slots.retain(|_, slot| match slot.conn.take() {
                Some(conn) => {
                    parked.push(conn);
                    false
                }
                None => true,
            });
            for conn in parked {
                metrics::server().connections_idle.dec();
                self.close(conn);
            }
        }
    }

    /// Starts `config.workers` threads serving `catalog` on `listener`.
    pub(crate) fn serve(
        catalog: Arc<Catalog>,
        listener: TcpListener,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        let wake = Arc::new(new_eventfd()?);
        epoll.ctl(ffi::EPOLL_CTL_ADD, listener.as_raw_fd(), ffi::EPOLLIN, TOKEN_LISTENER)?;
        epoll.ctl(ffi::EPOLL_CTL_ADD, wake.as_raw_fd(), ffi::EPOLLIN, TOKEN_WAKE)?;

        let stop = Arc::new(AtomicBool::new(false));
        let open = Arc::new(AtomicUsize::new(0));
        let wheel =
            TimerWheel::new(config.idle_timeout.max(Duration::from_millis(1)), Instant::now());
        let shared = Arc::new(Shared {
            epoll,
            listener,
            catalog,
            config,
            stop: Arc::clone(&stop),
            open: Arc::clone(&open),
            table: Mutex::new(Table { slots: HashMap::new(), wheel, next_token: 0 }),
        });
        // a failed spawn drops the handle, which stops and joins the
        // workers already running
        let mut handle = ServerHandle {
            addr,
            stop,
            threads: Vec::new(),
            waker: WakeStrategy::Eventfd(wake),
            open,
        };
        for i in 0..config.workers.max(1) {
            let shared = Arc::clone(&shared);
            let thread = std::thread::Builder::new()
                .name(format!("usi-worker-{i}"))
                .spawn(move || shared.run())?;
            handle.threads.push(thread);
        }
        Ok(handle)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn timer_wheel_fires_in_order_and_never_early() {
            let t0 = Instant::now();
            let mut wheel = TimerWheel::new(Duration::from_millis(320), t0);
            assert_eq!(wheel.next_timeout_ms(t0), None, "empty wheel blocks forever");

            wheel.schedule(1, t0 + Duration::from_millis(100));
            wheel.schedule(2, t0 + Duration::from_millis(300));
            wheel.schedule(3, t0 + Duration::from_millis(100));
            assert!(wheel.next_timeout_ms(t0).is_some());

            let mut due = Vec::new();
            // before the first deadline nothing may fire
            wheel.expire_into(t0 + Duration::from_millis(80), &mut due);
            assert!(due.is_empty(), "{due:?}");
            // one granule past 100ms: tokens 1 and 3, not 2
            wheel.expire_into(t0 + Duration::from_millis(160), &mut due);
            due.sort_unstable();
            assert_eq!(due, [1, 3]);
            due.clear();
            wheel.expire_into(t0 + Duration::from_millis(400), &mut due);
            assert_eq!(due, [2]);
            due.clear();
            assert_eq!(wheel.next_timeout_ms(t0), None, "drained wheel is idle again");
        }

        #[test]
        fn timer_wheel_deadline_past_means_next_tick() {
            // a deadline already in the past still fires on the next
            // tick after "now", never on a tick the cursor passed
            let t0 = Instant::now();
            let mut wheel = TimerWheel::new(Duration::from_millis(320), t0);
            let mut due = Vec::new();
            wheel.expire_into(t0 + Duration::from_millis(200), &mut due);
            assert!(due.is_empty());
            wheel.schedule(7, t0 + Duration::from_millis(100)); // before the cursor
            wheel.expire_into(t0 + Duration::from_millis(500), &mut due);
            assert_eq!(due, [7]);
        }

        #[test]
        fn timer_wheel_size_is_fixed_and_far_deadlines_lap() {
            let t0 = Instant::now();
            // a year, and the largest timeout a config can hold: the
            // wheel is the same size as for the default five seconds
            for horizon in [Duration::from_secs(5), Duration::from_secs(31_536_000), Duration::MAX]
            {
                assert_eq!(TimerWheel::new(horizon, t0).slots.len(), WHEEL_SLOTS);
            }
            // one-second granules: a deadline an hour out comes back
            // once per 64-second lap, and re-scheduling it each time
            // (what `Table::expire` does while `deadline > now`) fires
            // it for good only once it is due
            let mut wheel = TimerWheel::new(Duration::from_secs(3_600), t0);
            let deadline = t0 + Duration::from_secs(3_600);
            wheel.schedule(9, deadline);
            let mut due = Vec::new();
            let mut laps = 0;
            let mut now = t0;
            loop {
                now += Duration::from_secs(1);
                wheel.expire_into(now, &mut due);
                if due.is_empty() {
                    continue;
                }
                assert_eq!(due, [9]);
                due.clear();
                if deadline > now {
                    laps += 1;
                    wheel.schedule(9, deadline);
                    continue;
                }
                break;
            }
            assert_eq!(laps, 3_600 / WHEEL_SLOTS, "one early firing per lap");
            assert!(now >= deadline && now <= deadline + Duration::from_secs(2), "{:?}", now - t0);

            // a day with nothing to expire: the next pass drains each
            // slot once and leaves the cursor at "now"
            wheel.schedule(10, now + Duration::from_secs(1));
            let later = now + Duration::from_secs(86_400);
            wheel.expire_into(later, &mut due);
            assert_eq!(due, [10]);
            assert_eq!(wheel.cursor, wheel.tick_of(later));
        }
    }
}
