//! Socket syscall counts of the server's threads, measured by interposing
//! libc's `recv`, `send` and `epoll_wait`.
//!
//! The kernel's per-task io accounting (`/proc/self/task/<tid>/io`)
//! counts `read(2)`/`write(2)` but not `recv(2)`/`send(2)`, which is what
//! `std::net::TcpStream` uses. This binary defines those three symbols
//! itself, so every caller in the process (the server's reactor and
//! worker threads through std and `netpoll`) reaches these wrappers,
//! which forward the call to the libc definition found with
//! `dlsym(RTLD_NEXT, ...)`. They count it only while
//! [`crate::alloc_count::set_counting`] has counting on and the thread is
//! not excluded (the load thread, see
//! [`crate::alloc_count::exclude_current_thread`]); otherwise the only
//! cost over a plain libc call is a relaxed load and one more call level.

use std::ffi::{c_char, c_int, c_void, CStr};
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use crate::alloc_count;

static RECVS: AtomicU64 = AtomicU64::new(0);
static SENDS: AtomicU64 = AtomicU64::new(0);
static EPOLL_WAITS: AtomicU64 = AtomicU64::new(0);

static REAL_RECV: AtomicPtr<c_void> = AtomicPtr::new(std::ptr::null_mut());
static REAL_SEND: AtomicPtr<c_void> = AtomicPtr::new(std::ptr::null_mut());
static REAL_EPOLL_WAIT: AtomicPtr<c_void> = AtomicPtr::new(std::ptr::null_mut());

const RTLD_NEXT: *mut c_void = -1isize as *mut c_void;

extern "C" {
    fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
}

/// The next definition of `name` after this binary's (libc's).
fn real(slot: &AtomicPtr<c_void>, name: &CStr) -> *mut c_void {
    let cached = slot.load(Ordering::Acquire);
    if !cached.is_null() {
        return cached;
    }
    // SAFETY: `name` is a NUL-terminated C string; RTLD_NEXT is a valid
    // pseudo-handle for a symbol lookup from the calling object.
    let found = unsafe { dlsym(RTLD_NEXT, name.as_ptr()) };
    assert!(!found.is_null(), "libc has no {name:?}");
    slot.store(found, Ordering::Release);
    found
}

fn count(counter: &AtomicU64) {
    if alloc_count::counts_current_thread() {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Counting wrapper of libc `recv`.
///
/// # Safety
///
/// Same contract as `recv(2)`.
#[no_mangle]
pub unsafe extern "C" fn recv(fd: c_int, buf: *mut c_void, len: usize, flags: c_int) -> isize {
    count(&RECVS);
    type Recv = unsafe extern "C" fn(c_int, *mut c_void, usize, c_int) -> isize;
    // SAFETY: the pointer is libc's `recv`, whose signature `Recv` is.
    let f: Recv = unsafe { std::mem::transmute(real(&REAL_RECV, c"recv")) };
    // SAFETY: forwarded verbatim; the caller upholds `recv`'s contract.
    unsafe { f(fd, buf, len, flags) }
}

/// Counting wrapper of libc `send`.
///
/// # Safety
///
/// Same contract as `send(2)`.
#[no_mangle]
pub unsafe extern "C" fn send(fd: c_int, buf: *const c_void, len: usize, flags: c_int) -> isize {
    count(&SENDS);
    type Send = unsafe extern "C" fn(c_int, *const c_void, usize, c_int) -> isize;
    // SAFETY: the pointer is libc's `send`, whose signature `Send` is.
    let f: Send = unsafe { std::mem::transmute(real(&REAL_SEND, c"send")) };
    // SAFETY: forwarded verbatim; the caller upholds `send`'s contract.
    unsafe { f(fd, buf, len, flags) }
}

/// Counting wrapper of libc `epoll_wait`.
///
/// # Safety
///
/// Same contract as `epoll_wait(2)`.
#[no_mangle]
pub unsafe extern "C" fn epoll_wait(
    epfd: c_int,
    events: *mut c_void,
    max: c_int,
    timeout: c_int,
) -> c_int {
    count(&EPOLL_WAITS);
    type EpollWait = unsafe extern "C" fn(c_int, *mut c_void, c_int, c_int) -> c_int;
    // SAFETY: the pointer is libc's `epoll_wait`, whose signature `EpollWait` is.
    let f: EpollWait = unsafe { std::mem::transmute(real(&REAL_EPOLL_WAIT, c"epoll_wait")) };
    // SAFETY: forwarded verbatim; the caller upholds `epoll_wait`'s contract.
    unsafe { f(epfd, events, max, timeout) }
}

/// Resolves the libc definitions up front, before any server thread
/// makes its first call.
pub fn init() {
    real(&REAL_RECV, c"recv");
    real(&REAL_SEND, c"send");
    real(&REAL_EPOLL_WAIT, c"epoll_wait");
}

/// Counted `(recv + send, epoll_wait)` calls so far.
pub fn totals() -> (u64, u64) {
    (
        RECVS.load(Ordering::Relaxed) + SENDS.load(Ordering::Relaxed),
        EPOLL_WAITS.load(Ordering::Relaxed),
    )
}
