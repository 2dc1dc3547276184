//! # netpoll — a thin, dependency-free readiness-polling shim (Linux)
//!
//! `lookhd-serve`'s event loop needs exactly four OS facilities: "tell me
//! which of these sockets are readable/writable", "let another thread
//! wake the poll", nonblocking accept, and nothing else. This crate
//! wraps them behind a tiny safe API so the serve crate itself can stay
//! `#![forbid(unsafe_code)]` while the workspace stays free of external
//! dependencies (the usual `mio`/`libc` route is unavailable offline).
//!
//! The backend is raw `epoll` — `epoll_create1` / `epoll_ctl` /
//! `epoll_wait` declared as `extern "C"` bindings against the libc that
//! `std` already links, plus an `eventfd` for cross-thread wakeups. Every
//! registration (the waker included) is **edge-triggered** (`EPOLLET`):
//! an fd is reported once per readiness *transition*, so callers must
//! drain each reported fd to `WouldBlock` before waiting again.
//!
//! [`reuseport_listener`] is an `SO_REUSEPORT` TCP listener factory, so
//! several acceptor threads can each bind their own listener to one
//! address and let the kernel shard incoming connections across them.
//! Other targets fail to compile: the crate is Linux only.
//!
//! The `unsafe` in this crate is confined to the `sys` FFI declarations
//! and the few call sites that use them; every invariant (valid fds via
//! `OwnedFd`, initialized event buffers, no aliasing) is local and
//! documented there.
//!
//! ## Tokens
//!
//! Each registered fd carries a caller-chosen `u64` token returned in
//! [`Event::token`]. The token [`WAKER_TOKEN`] is reserved: events for the
//! internal wake fd are consumed and reported with that token so callers
//! can distinguish "a peer woke you" from socket readiness.
//!
//! ```no_run
//! use std::net::TcpListener;
//! use std::os::fd::AsRawFd;
//! use netpoll::{Interest, Poller};
//!
//! let listener = TcpListener::bind("127.0.0.1:0")?;
//! listener.set_nonblocking(true)?;
//! let poller = Poller::new()?;
//! poller.register(listener.as_raw_fd(), 7, Interest::READABLE)?;
//! let mut events = Vec::new();
//! poller.wait(&mut events, None)?; // blocks until readiness or wake()
//! # Ok::<(), std::io::Error>(())
//! ```

#![deny(missing_docs)]

/// The reserved token reported for wakeups triggered via [`Waker::wake`].
/// Registering a caller fd with this token is rejected.
pub const WAKER_TOKEN: u64 = u64::MAX;

/// Which readiness conditions a registration watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    readable: bool,
    writable: bool,
}

impl Interest {
    /// Watch for readability only.
    pub const READABLE: Self = Self {
        readable: true,
        writable: false,
    };
    /// Watch for writability only.
    pub const WRITABLE: Self = Self {
        readable: false,
        writable: true,
    };
    /// Watch for both readability and writability.
    pub const BOTH: Self = Self {
        readable: true,
        writable: true,
    };
    /// Watch for nothing: the fd stays registered (hangup/error events are
    /// still reported) but produces no read/write readiness. Used to park
    /// a connection whose input should be ignored (e.g. during drain).
    pub const NONE: Self = Self {
        readable: false,
        writable: false,
    };

    /// Whether this interest includes readability.
    pub fn is_readable(&self) -> bool {
        self.readable
    }

    /// Whether this interest includes writability.
    pub fn is_writable(&self) -> bool {
        self.writable
    }

    /// The union of two interest sets.
    pub fn union(self, other: Self) -> Self {
        Self {
            readable: self.readable || other.readable,
            writable: self.writable || other.writable,
        }
    }
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with ([`WAKER_TOKEN`] for wakeups).
    pub token: u64,
    /// The fd can be read without blocking (also set at EOF).
    pub readable: bool,
    /// The fd can be written without blocking.
    pub writable: bool,
    /// The peer hung up or the fd errored; the fd should be torn down
    /// (readable/writable may be set too — drain first if needed).
    pub hangup: bool,
}

pub use imp::{reuseport_listener, Poller, Waker};

// ---------------------------------------------------------------------------
// epoll + eventfd
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod imp {
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::sync::Arc;
    use std::time::Duration;

    use super::{Event, Interest, WAKER_TOKEN};

    /// Raw FFI surface. These symbols live in the libc that `std` links
    /// into every Rust binary on Linux; the signatures mirror the man
    /// pages exactly. Constants are from `<sys/epoll.h>` / `<sys/eventfd.h>`
    /// / `<sys/socket.h>` for x86_64/aarch64 (identical on both).
    mod sys {
        use std::os::fd::RawFd;

        // `struct epoll_event` is packed on x86_64 only (the kernel ABI
        // quirk inherited from the 32-bit layout); other architectures use
        // natural alignment.
        #[repr(C)]
        #[cfg_attr(target_arch = "x86_64", repr(packed))]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        /// `struct sockaddr_in` — all multi-byte fields in network order.
        #[repr(C)]
        #[derive(Clone, Copy)]
        pub struct SockAddrIn {
            pub family: u16,
            pub port_be: u16,
            pub addr_be: u32,
            pub zero: [u8; 8],
        }

        /// `struct sockaddr_in6`.
        #[repr(C)]
        #[derive(Clone, Copy)]
        pub struct SockAddrIn6 {
            pub family: u16,
            pub port_be: u16,
            pub flowinfo: u32,
            pub addr: [u8; 16],
            pub scope_id: u32,
        }

        pub const EPOLL_CTL_ADD: i32 = 1;
        pub const EPOLL_CTL_DEL: i32 = 2;
        pub const EPOLL_CTL_MOD: i32 = 3;

        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLOUT: u32 = 0x004;
        pub const EPOLLERR: u32 = 0x008;
        pub const EPOLLHUP: u32 = 0x010;
        pub const EPOLLRDHUP: u32 = 0x2000;
        /// Edge-triggered delivery (`EPOLLET`, bit 31).
        pub const EPOLLET: u32 = 1 << 31;

        /// `EPOLL_CLOEXEC` == `O_CLOEXEC`.
        pub const EPOLL_CLOEXEC: i32 = 0o2000000;
        /// `EFD_CLOEXEC` == `O_CLOEXEC`, `EFD_NONBLOCK` == `O_NONBLOCK`.
        pub const EFD_CLOEXEC: i32 = 0o2000000;
        pub const EFD_NONBLOCK: i32 = 0o4000;

        pub const AF_INET: u16 = 2;
        pub const AF_INET6: u16 = 10;
        pub const SOCK_STREAM: i32 = 1;
        /// `SOCK_CLOEXEC` == `O_CLOEXEC`.
        pub const SOCK_CLOEXEC: i32 = 0o2000000;
        pub const SOL_SOCKET: i32 = 1;
        pub const SO_REUSEADDR: i32 = 2;
        pub const SO_REUSEPORT: i32 = 15;

        extern "C" {
            pub fn epoll_create1(flags: i32) -> RawFd;
            pub fn epoll_ctl(epfd: RawFd, op: i32, fd: RawFd, event: *mut EpollEvent) -> i32;
            pub fn epoll_wait(
                epfd: RawFd,
                events: *mut EpollEvent,
                maxevents: i32,
                timeout_ms: i32,
            ) -> i32;
            pub fn eventfd(initval: u32, flags: i32) -> RawFd;
            pub fn read(fd: RawFd, buf: *mut u8, count: usize) -> isize;
            pub fn write(fd: RawFd, buf: *const u8, count: usize) -> isize;
            pub fn socket(domain: i32, ty: i32, protocol: i32) -> RawFd;
            pub fn setsockopt(
                fd: RawFd,
                level: i32,
                optname: i32,
                optval: *const u8,
                optlen: u32,
            ) -> i32;
            pub fn bind(fd: RawFd, addr: *const u8, addrlen: u32) -> i32;
            pub fn listen(fd: RawFd, backlog: i32) -> i32;
        }
    }

    fn epoll_mask(interest: Interest) -> u32 {
        // EPOLLRDHUP distinguishes "peer half-closed" from plain EPOLLIN
        // and makes abandoned connections visible even when parked with
        // `Interest::NONE` (EPOLLERR/EPOLLHUP are always reported).
        let mut mask = sys::EPOLLRDHUP | sys::EPOLLET;
        if interest.is_readable() {
            mask |= sys::EPOLLIN;
        }
        if interest.is_writable() {
            mask |= sys::EPOLLOUT;
        }
        mask
    }

    /// An edge-triggered epoll instance plus its eventfd wake channel.
    #[derive(Debug)]
    pub struct Poller {
        epfd: OwnedFd,
        wake: Arc<OwnedFd>,
    }

    /// Wakes a [`Poller::wait`] from another thread. Cheap to clone; all
    /// clones poke the same eventfd.
    #[derive(Debug, Clone)]
    pub struct Waker {
        wake: Arc<OwnedFd>,
    }

    impl Waker {
        /// Interrupts the poller's current (or next) wait. Coalesces: many
        /// wakes before the poller runs produce one event.
        pub fn wake(&self) {
            let value: u64 = 1;
            // SAFETY: `wake` is a valid eventfd owned by the Arc for the
            // duration of the call; the buffer is 8 initialized bytes as
            // eventfd(2) requires. A full counter (EAGAIN) already means
            // "wake pending", so the result can be ignored.
            let _ = unsafe {
                sys::write(
                    self.wake.as_raw_fd(),
                    value.to_ne_bytes().as_ptr(),
                    std::mem::size_of::<u64>(),
                )
            };
        }
    }

    impl Poller {
        /// Creates a poller with its wake channel already registered.
        /// Every registration — the internal waker included — carries
        /// `EPOLLET`, so callers must drain each reported fd to
        /// `WouldBlock` before the next wait.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_create1`/`eventfd`/`epoll_ctl` failures.
        pub fn new() -> io::Result<Self> {
            // SAFETY: plain syscall, no pointers. A negative return is an
            // error and never converted to an OwnedFd.
            let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: epfd is a freshly returned, unowned, valid fd.
            let epfd = unsafe { OwnedFd::from_raw_fd(epfd) };
            // SAFETY: plain syscall, no pointers.
            let wake = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
            if wake < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: same as epfd above.
            let wake = unsafe { OwnedFd::from_raw_fd(wake) };
            let poller = Self {
                epfd,
                wake: Arc::new(wake),
            };
            poller.ctl(
                sys::EPOLL_CTL_ADD,
                poller.wake.as_raw_fd(),
                WAKER_TOKEN,
                sys::EPOLLIN | sys::EPOLLET,
            )?;
            Ok(poller)
        }

        /// A handle other threads can use to interrupt [`Poller::wait`].
        pub fn waker(&self) -> Waker {
            Waker {
                wake: Arc::clone(&self.wake),
            }
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
            let mut event = sys::EpollEvent {
                events,
                data: token,
            };
            // SAFETY: epfd and fd are valid for the call; `event` is a
            // live, initialized struct whose pointer epoll_ctl only reads.
            let rc = unsafe { sys::epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut event) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Starts watching `fd` with `interest`, reporting `token`.
        ///
        /// # Errors
        ///
        /// Rejects [`WAKER_TOKEN`] as `InvalidInput`; propagates
        /// `epoll_ctl` failures (e.g. an already-registered fd).
        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            if token == WAKER_TOKEN {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "token u64::MAX is reserved for the waker",
                ));
            }
            self.ctl(sys::EPOLL_CTL_ADD, fd, token, epoll_mask(interest))
        }

        /// Changes the interest set (and token) of a registered fd.
        ///
        /// # Errors
        ///
        /// Same conditions as [`Poller::register`].
        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            if token == WAKER_TOKEN {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "token u64::MAX is reserved for the waker",
                ));
            }
            self.ctl(sys::EPOLL_CTL_MOD, fd, token, epoll_mask(interest))
        }

        /// Stops watching a registered fd.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_ctl` failures.
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Blocks until at least one fd is ready, a [`Waker`] fires, or
        /// `timeout` elapses (`None` = wait forever; a fractional
        /// millisecond rounds up, so the wait never ends early). Ready
        /// events are appended to `events` (cleared first). Wakeups
        /// appear as events with [`WAKER_TOKEN`]; their eventfd is
        /// drained here.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_wait` failures. `EINTR` is retried
        /// internally.
        pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            events.clear();
            let timeout_ms: i32 = match timeout {
                None => -1,
                // Round up to whole milliseconds: epoll_wait's unit.
                Some(t) => i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX),
            };
            const CAPACITY: usize = 256;
            let mut buf = [sys::EpollEvent { events: 0, data: 0 }; CAPACITY];
            let n = loop {
                // SAFETY: epfd is valid; `buf` is a live array of CAPACITY
                // initialized events that the kernel writes into.
                let rc = unsafe {
                    sys::epoll_wait(
                        self.epfd.as_raw_fd(),
                        buf.as_mut_ptr(),
                        CAPACITY as i32,
                        timeout_ms,
                    )
                };
                if rc >= 0 {
                    break rc as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for raw in &buf[..n] {
                // Copy out of the (possibly packed) struct before use.
                let mask = raw.events;
                let token = raw.data;
                if token == WAKER_TOKEN {
                    self.drain_wake();
                    events.push(Event {
                        token,
                        readable: false,
                        writable: false,
                        hangup: false,
                    });
                    continue;
                }
                events.push(Event {
                    token,
                    readable: mask & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                    writable: mask & sys::EPOLLOUT != 0,
                    hangup: mask & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
                });
            }
            Ok(())
        }

        /// Resets the eventfd counter so readiness clears. Loops until the
        /// read reports `WouldBlock`: a single read would suffice for one
        /// drain (eventfd reads return the whole counter), but a wake
        /// posted between that read and the next `wait()` must land the
        /// fd back at a zero counter before we sleep — under
        /// edge-triggered delivery a partially drained eventfd never
        /// fires again and the wakeup is lost. Draining to `WouldBlock`
        /// guarantees every post-drain wake is a fresh 0→1 transition,
        /// which re-arms the edge.
        fn drain_wake(&self) {
            let mut buf = [0u8; 8];
            loop {
                // SAFETY: `wake` is a valid nonblocking eventfd; the
                // buffer is 8 writable bytes. A negative return (EAGAIN:
                // counter already zero) terminates the drain.
                let rc = unsafe { sys::read(self.wake.as_raw_fd(), buf.as_mut_ptr(), buf.len()) };
                if rc < 0 {
                    break;
                }
            }
        }
    }

    /// Binds a TCP listener to `addr` with `SO_REUSEPORT` (and
    /// `SO_REUSEADDR`) set before the bind, so several listeners can share
    /// one address and the kernel shards incoming connections across them
    /// by flow hash. The listener is returned blocking, like
    /// `TcpListener::bind`; callers set nonblocking themselves.
    ///
    /// # Errors
    ///
    /// Propagates `socket`/`setsockopt`/`bind`/`listen` failures.
    pub fn reuseport_listener(addr: std::net::SocketAddr) -> io::Result<std::net::TcpListener> {
        let domain = match addr {
            std::net::SocketAddr::V4(_) => sys::AF_INET,
            std::net::SocketAddr::V6(_) => sys::AF_INET6,
        };
        // SAFETY: plain syscall, no pointers. A negative return is an
        // error and never converted to an OwnedFd.
        let fd = unsafe { sys::socket(i32::from(domain), sys::SOCK_STREAM | sys::SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: fd is a freshly returned, unowned, valid socket; from
        // here the OwnedFd closes it on every error path.
        let fd = unsafe { OwnedFd::from_raw_fd(fd) };
        for opt in [sys::SO_REUSEADDR, sys::SO_REUSEPORT] {
            let one: i32 = 1;
            // SAFETY: fd is valid; optval points at 4 live bytes and
            // optlen matches.
            let rc = unsafe {
                sys::setsockopt(
                    fd.as_raw_fd(),
                    sys::SOL_SOCKET,
                    opt,
                    one.to_ne_bytes().as_ptr(),
                    4,
                )
            };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
        }
        let rc = match addr {
            std::net::SocketAddr::V4(v4) => {
                let sa = sys::SockAddrIn {
                    family: sys::AF_INET,
                    port_be: v4.port().to_be(),
                    // `octets()` is already network byte order in memory.
                    addr_be: u32::from_ne_bytes(v4.ip().octets()),
                    zero: [0; 8],
                };
                // SAFETY: fd is valid; the pointer covers a live
                // sockaddr_in of exactly the passed length.
                unsafe {
                    sys::bind(
                        fd.as_raw_fd(),
                        (&sa as *const sys::SockAddrIn).cast(),
                        std::mem::size_of::<sys::SockAddrIn>() as u32,
                    )
                }
            }
            std::net::SocketAddr::V6(v6) => {
                let sa = sys::SockAddrIn6 {
                    family: sys::AF_INET6,
                    port_be: v6.port().to_be(),
                    flowinfo: v6.flowinfo(),
                    addr: v6.ip().octets(),
                    scope_id: v6.scope_id(),
                };
                // SAFETY: as above, for sockaddr_in6.
                unsafe {
                    sys::bind(
                        fd.as_raw_fd(),
                        (&sa as *const sys::SockAddrIn6).cast(),
                        std::mem::size_of::<sys::SockAddrIn6>() as u32,
                    )
                }
            }
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: plain syscall on a valid fd.
        if unsafe { sys::listen(fd.as_raw_fd(), 1024) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(std::net::TcpListener::from(fd))
    }
}

#[cfg(not(target_os = "linux"))]
compile_error!("netpoll supports Linux only (it wraps epoll, eventfd and SO_REUSEPORT)");

#[cfg(test)]
mod tests {
    use std::io::{ErrorKind, Read, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::{Duration, Instant};

    use super::*;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn edge_triggered_reports_once_until_new_data_and_clears_when_drained() {
        let (a, mut b) = pair();
        let poller = Poller::new().unwrap();
        poller
            .register(a.as_raw_fd(), 42, Interest::READABLE)
            .unwrap();

        // Nothing to read yet: a short timeout returns no events.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "{events:?}");

        b.write_all(b"hello").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.readable));

        // Edge-triggered: the undrained socket is NOT re-reported.
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(events.is_empty(), "{events:?}");

        // New data is a fresh edge even though the old bytes still sit
        // in the socket buffer.
        b.write_all(b" world").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.readable));

        let mut buf = [0u8; 32];
        let n = (&a).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello world");
        // Drained: quiet until the peer writes again.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "{events:?}");
    }

    #[test]
    fn fractional_millisecond_timeouts_never_return_early() {
        let poller = Poller::new().unwrap();
        let timeout = Duration::from_micros(1_500);
        let mut events = Vec::new();
        for _ in 0..5 {
            let started = Instant::now();
            poller.wait(&mut events, Some(timeout)).unwrap();
            let waited = started.elapsed();
            assert!(events.is_empty(), "{events:?}");
            assert!(waited >= timeout, "idle wait returned after {waited:?}");
        }
    }

    #[test]
    fn write_interest_and_modify() {
        let (a, _b) = pair();
        let poller = Poller::new().unwrap();
        // A fresh socket is immediately writable.
        poller
            .register(a.as_raw_fd(), 7, Interest::WRITABLE)
            .unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.writable));
        // Parked: no events despite writability.
        poller.modify(a.as_raw_fd(), 7, Interest::NONE).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(
            !events.iter().any(|e| e.token == 7 && e.writable),
            "{events:?}"
        );
        poller.deregister(a.as_raw_fd()).unwrap();
    }

    #[test]
    fn waker_interrupts_a_blocking_wait_across_threads() {
        let poller = Poller::new().unwrap();
        let waker = poller.waker();
        let started = Instant::now();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(30)))
            .unwrap();
        handle.join().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "wait did not return promptly"
        );
        assert!(events.iter().any(|e| e.token == WAKER_TOKEN));
        // Wakes coalesce and drain: the next wait times out quietly.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "{events:?}");
    }

    #[test]
    fn hangup_is_reported() {
        let (a, b) = pair();
        let poller = Poller::new().unwrap();
        poller
            .register(a.as_raw_fd(), 9, Interest::READABLE)
            .unwrap();
        drop(b);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        // A clean close shows up as readable (EOF) and/or hangup.
        assert!(
            events
                .iter()
                .any(|e| e.token == 9 && (e.readable || e.hangup)),
            "{events:?}"
        );
    }

    #[test]
    fn waker_token_is_reserved() {
        let (a, _b) = pair();
        let poller = Poller::new().unwrap();
        assert!(poller
            .register(a.as_raw_fd(), WAKER_TOKEN, Interest::READABLE)
            .is_err());
    }

    /// The ET-safety regression test for the waker: two threads hammer
    /// wake() while the poll thread drains. The storm ends with a wake
    /// that MUST be observed — under the old single-read drain, a wake
    /// racing the drain left the eventfd counter nonzero, and the next
    /// wake never produced a fresh edge.
    #[test]
    fn waker_hammer_from_two_threads_never_loses_the_final_wake() {
        let poller = Poller::new().unwrap();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut storms = Vec::new();
        for _ in 0..2 {
            let waker = poller.waker();
            let stop = std::sync::Arc::clone(&stop);
            storms.push(std::thread::spawn(move || {
                let mut n = 0u32;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    waker.wake();
                    n += 1;
                    if n.is_multiple_of(64) {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        // Drain concurrently with the storm for a while.
        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_millis(200);
        while Instant::now() < deadline {
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in storms {
            h.join().unwrap();
        }
        // Settle: consume whatever the storm left behind.
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            if events.is_empty() {
                break;
            }
        }
        // The decisive wake after the storm must still come through.
        let waker = poller.waker();
        let h = std::thread::spawn(move || waker.wake());
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        h.join().unwrap();
        assert!(
            events.iter().any(|e| e.token == WAKER_TOKEN),
            "post-storm wake was lost"
        );
    }

    #[test]
    fn reuseport_listeners_share_one_address() {
        let first = reuseport_listener("127.0.0.1:0".parse::<SocketAddr>().unwrap()).unwrap();
        let addr = first.local_addr().unwrap();
        // A second listener binds the very same port thanks to REUSEPORT.
        let second = reuseport_listener(addr).unwrap();
        assert_eq!(second.local_addr().unwrap(), addr);
        first.set_nonblocking(true).unwrap();
        second.set_nonblocking(true).unwrap();

        // Each connection lands on exactly one of the listeners.
        let mut accepted = 0;
        let mut clients = Vec::new();
        for _ in 0..8 {
            clients.push(TcpStream::connect(addr).unwrap());
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while accepted < 8 && Instant::now() < deadline {
            for listener in [&first, &second] {
                loop {
                    match listener.accept() {
                        Ok(_) => accepted += 1,
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) => panic!("accept failed: {e}"),
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(accepted, 8, "kernel did not deliver all connections");
    }
}
