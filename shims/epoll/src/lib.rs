//! Minimal safe wrapper over Linux `epoll`, `eventfd` and `flock`.
//!
//! The workspace has no registry access, so instead of `mio` this shim
//! declares the syscalls the network planes need (`epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, `eventfd`, `flock`) directly against the
//! libc the binary is already linked with, and wraps them in an RAII,
//! `io::Result`-surfacing API:
//!
//! * [`Epoll`] — a level-triggered readiness queue: register file
//!   descriptors with an interest mask and a `u64` cookie, then
//!   [`Epoll::wait`] for ready sets.
//! * [`EventFd`] — a wakeup doorbell another thread can ring to unpark
//!   an [`Epoll::wait`] (used for stop signals and new-connection
//!   handoff).
//! * [`try_lock_exclusive`] — a non-blocking exclusive `flock`, how an
//!   on-disk owner (the egress outbox) refuses a second live opener.
//!
//! Linux-only by design (the CI runner and every deployment target of
//! this project are Linux); the `extern "C"` declarations follow the
//! x86-64 kernel ABI, where `struct epoll_event` is packed.

#![warn(missing_docs)]

use std::io;
use std::os::raw::{c_int, c_uint, c_void};

/// Readiness: the fd is readable.
pub const EPOLLIN: u32 = 0x001;
/// Readiness: the fd is writable.
pub const EPOLLOUT: u32 = 0x004;
/// Readiness: an error condition is pending on the fd.
pub const EPOLLERR: u32 = 0x008;
/// Readiness: hang-up — the peer closed the connection.
pub const EPOLLHUP: u32 = 0x010;
/// Readiness: the peer shut down the writing half (half-close).
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0x80000;
const EFD_CLOEXEC: c_int = 0x80000;
const EFD_NONBLOCK: c_int = 0x800;
const LOCK_EX: c_int = 2;
const LOCK_NB: c_int = 4;

/// `struct epoll_event` with the x86-64 Linux kernel layout (packed:
/// 4-byte `events` immediately followed by the 8-byte cookie).
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct RawEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut RawEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut RawEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn flock(fd: c_int, operation: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
}

/// One ready file descriptor reported by [`Epoll::wait`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// The ready-set bitmask ([`EPOLLIN`], [`EPOLLHUP`], …).
    pub events: u32,
    /// The cookie supplied at [`Epoll::add`] / [`Epoll::modify`] time.
    pub data: u64,
}

impl Event {
    /// Whether the fd is readable (or has pending error/hang-up state,
    /// which Linux also surfaces to readers).
    pub fn readable(&self) -> bool {
        self.events & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0
    }

    /// Whether the peer closed (full or half) the connection.
    pub fn closed(&self) -> bool {
        self.events & (EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0
    }
}

/// The largest ready set a single [`Epoll::wait`] call reports.
pub const MAX_EVENTS: usize = 512;

/// An owned epoll instance (level-triggered).
#[derive(Debug)]
pub struct Epoll {
    fd: c_int,
}

// The fd is just an integer capability; all methods take &self and the
// kernel serializes epoll_ctl/epoll_wait internally.
unsafe impl Send for Epoll {}
unsafe impl Sync for Epoll {}

impl Epoll {
    /// Creates a new epoll instance (`epoll_create1(EPOLL_CLOEXEC)`).
    pub fn new() -> io::Result<Epoll> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: i32, events: u32, data: u64) -> io::Result<()> {
        let mut ev = RawEvent { events, data };
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` with interest mask `events`; `data` is the cookie
    /// handed back in every [`Event`] for this fd.
    pub fn add(&self, fd: i32, events: u32, data: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, data)
    }

    /// Replaces the interest mask (and cookie) of a registered fd.
    /// `events == 0` keeps the registration but reports nothing but
    /// errors/hang-ups — how the ingress plane mutes a stalled
    /// connection without losing its slot.
    pub fn modify(&self, fd: i32, events: u32, data: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, data)
    }

    /// Deregisters `fd`.
    pub fn delete(&self, fd: i32) -> io::Result<()> {
        // Linux < 2.6.9 required a non-null event pointer for DEL; pass
        // one unconditionally, it is ignored on every modern kernel.
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits up to `timeout_ms` (`-1` = forever, `0` = poll) for ready
    /// fds, appending up to [`MAX_EVENTS`] of them to `out` (which is
    /// cleared first). Returns how many arrived; `EINTR` retries
    /// transparently.
    pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        out.clear();
        let mut raw = [RawEvent { events: 0, data: 0 }; MAX_EVENTS];
        loop {
            let rc =
                unsafe { epoll_wait(self.fd, raw.as_mut_ptr(), MAX_EVENTS as c_int, timeout_ms) };
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            let n = rc as usize;
            for ev in raw.iter().take(n) {
                // Copy out of the packed struct by value (taking a
                // reference to a packed field would be UB).
                let events = { ev.events };
                let data = { ev.data };
                out.push(Event { events, data });
            }
            return Ok(n);
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe {
            close(self.fd);
        }
    }
}

/// A nonblocking `eventfd` doorbell: any thread may [`EventFd::ring`]
/// it; a reader registered in an [`Epoll`] sees the fd readable and
/// [`EventFd::drain`]s it back to silent.
#[derive(Debug)]
pub struct EventFd {
    fd: c_int,
}

unsafe impl Send for EventFd {}
unsafe impl Sync for EventFd {}

impl EventFd {
    /// Creates a nonblocking, close-on-exec eventfd with counter 0.
    pub fn new() -> io::Result<EventFd> {
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EventFd { fd })
    }

    /// The raw fd, for registration in an [`Epoll`].
    pub fn raw_fd(&self) -> i32 {
        self.fd
    }

    /// Rings the doorbell (adds 1 to the counter). A counter already at
    /// its ceiling would return `EAGAIN`, which is fine — the doorbell
    /// is already as rung as it gets — so errors are swallowed.
    pub fn ring(&self) {
        let one: u64 = 1;
        unsafe {
            write(self.fd, (&one as *const u64).cast(), 8);
        }
    }

    /// Resets the counter to 0 (nonblocking; a silent doorbell is a
    /// no-op). Call after the epoll reports this fd readable.
    pub fn drain(&self) {
        let mut buf: u64 = 0;
        unsafe {
            read(self.fd, (&mut buf as *mut u64).cast(), 8);
        }
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe {
            close(self.fd);
        }
    }
}

/// Takes an exclusive advisory lock on the open file `fd`
/// (`flock(LOCK_EX | LOCK_NB)`) without waiting. Returns `Ok(false)`
/// when another open file description holds it — another process, or
/// another `open` of the same file in this one. The lock lives as long
/// as the open file description: closing the file releases it, and so
/// does the death of the owning process. `EINTR` retries transparently.
pub fn try_lock_exclusive(fd: i32) -> io::Result<bool> {
    loop {
        // SAFETY: `flock` takes two integers and touches no memory of
        // ours; an invalid `fd` is reported as `EBADF`, not UB.
        if unsafe { flock(fd, LOCK_EX | LOCK_NB) } == 0 {
            return Ok(true);
        }
        let err = io::Error::last_os_error();
        match err.kind() {
            io::ErrorKind::Interrupted => continue,
            io::ErrorKind::WouldBlock => return Ok(false),
            _ => return Err(err),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_rings_through_epoll() {
        let ep = Epoll::new().unwrap();
        let bell = EventFd::new().unwrap();
        ep.add(bell.raw_fd(), EPOLLIN, 7).unwrap();

        let mut out = Vec::new();
        // Silent doorbell: a zero-timeout poll reports nothing.
        assert_eq!(ep.wait(&mut out, 0).unwrap(), 0);

        bell.ring();
        assert_eq!(ep.wait(&mut out, 1000).unwrap(), 1);
        assert_eq!(out[0].data, 7);
        assert!(out[0].readable());

        // Level-triggered: still ready until drained.
        assert_eq!(ep.wait(&mut out, 0).unwrap(), 1);
        bell.drain();
        assert_eq!(ep.wait(&mut out, 0).unwrap(), 0);
    }

    #[test]
    fn ring_from_another_thread_unparks_wait() {
        let ep = Epoll::new().unwrap();
        let bell = std::sync::Arc::new(EventFd::new().unwrap());
        ep.add(bell.raw_fd(), EPOLLIN, 1).unwrap();

        let remote = std::sync::Arc::clone(&bell);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            remote.ring();
        });
        let mut out = Vec::new();
        let start = std::time::Instant::now();
        assert_eq!(ep.wait(&mut out, 5000).unwrap(), 1);
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
        t.join().unwrap();
    }

    #[test]
    fn modify_mutes_and_delete_removes() {
        let ep = Epoll::new().unwrap();
        let bell = EventFd::new().unwrap();
        ep.add(bell.raw_fd(), EPOLLIN, 3).unwrap();
        bell.ring();

        // Mute: interest 0 hides the readable state.
        ep.modify(bell.raw_fd(), 0, 3).unwrap();
        let mut out = Vec::new();
        assert_eq!(ep.wait(&mut out, 0).unwrap(), 0);

        // Re-arm: readable again (level-triggered, counter still set).
        ep.modify(bell.raw_fd(), EPOLLIN, 4).unwrap();
        assert_eq!(ep.wait(&mut out, 0).unwrap(), 1);
        assert_eq!(out[0].data, 4);

        ep.delete(bell.raw_fd()).unwrap();
        assert_eq!(ep.wait(&mut out, 0).unwrap(), 0);
        // Double-delete surfaces the OS error instead of panicking.
        assert!(ep.delete(bell.raw_fd()).is_err());
    }

    #[test]
    fn exclusive_lock_excludes_a_second_open_until_the_first_closes() {
        use std::os::unix::io::AsRawFd;
        let path = std::env::temp_dir().join(format!("epoll-shim-lock-{}", std::process::id()));
        let first = std::fs::File::create(&path).unwrap();
        assert!(try_lock_exclusive(first.as_raw_fd()).unwrap());
        // Re-locking through the same open file description is a no-op.
        assert!(try_lock_exclusive(first.as_raw_fd()).unwrap());
        let second = std::fs::File::open(&path).unwrap();
        assert!(!try_lock_exclusive(second.as_raw_fd()).unwrap());
        drop(first);
        assert!(try_lock_exclusive(second.as_raw_fd()).unwrap());
        drop(second);
        std::fs::remove_file(&path).ok();
    }
}
