//! The FFI floor: every `unsafe` call in the crate lives here.
//!
//! Only four kernel facilities are touched — `epoll_create1` /
//! `epoll_ctl` / `epoll_wait`, and `eventfd` plus `read`/`write`/
//! `close` on the descriptors this module itself created. The symbols
//! come from libc, which std already links; no external crate is
//! involved.

#![allow(unsafe_code)]

/// What a registration wants to be told about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Readiness for reading (includes peer hang-up).
    pub readable: bool,
    /// Readiness for writing.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write-only interest.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the file descriptor was registered with.
    pub token: u64,
    /// Ready for reading (or has pending hang-up/error state that a
    /// read will surface).
    pub readable: bool,
    /// Ready for writing.
    pub writable: bool,
    /// Peer closed or error condition (`EPOLLHUP`/`EPOLLERR`/
    /// `EPOLLRDHUP`).
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
mod ffi {
    use std::ffi::{c_int, c_uint, c_void};

    /// Mirrors the kernel's `struct epoll_event`. On x86-64 the kernel
    /// ABI packs the struct (no padding between `events` and `data`);
    /// elsewhere natural alignment matches the kernel layout.
    #[derive(Clone, Copy)]
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: c_int = 0x80000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EFD_NONBLOCK: c_int = 0x800;
    pub const EFD_CLOEXEC: c_int = 0x80000;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
    }
}

#[cfg(target_os = "linux")]
pub use linux::{Poller, WakeHandle};

#[cfg(target_os = "linux")]
mod linux {
    use super::ffi::{
        close, epoll_create1, epoll_ctl, epoll_wait, eventfd, read, write, EpollEvent, EFD_CLOEXEC,
        EFD_NONBLOCK, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP, EPOLL_CLOEXEC,
        EPOLL_CTL_ADD, EPOLL_CTL_DEL, EPOLL_CTL_MOD,
    };
    use super::{Event, Interest};
    use std::ffi::c_void;
    use std::io;
    use std::os::fd::RawFd;

    /// How many kernel events one `epoll_wait` call can deliver. Spare
    /// readiness is simply re-reported on the next call (level
    /// -triggered), so this bounds stack use, not correctness.
    const WAIT_BATCH: usize = 256;

    fn check(ret: i32) -> io::Result<()> {
        if ret < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn mask_of(interest: Interest) -> u32 {
        let mut mask = EPOLLRDHUP;
        if interest.readable {
            mask |= EPOLLIN;
        }
        if interest.writable {
            mask |= EPOLLOUT;
        }
        mask
    }

    /// A level-triggered epoll instance.
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        /// Creates the epoll instance (close-on-exec).
        ///
        /// # Errors
        ///
        /// Propagates `epoll_create1` failure.
        pub fn new() -> io::Result<Poller> {
            // SAFETY: no pointers involved; the returned fd is owned by
            // the Poller and closed in Drop.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            check(epfd)?;
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask_of(interest),
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies the
            // struct before returning. `fd` validity is the caller's
            // contract, and an invalid fd returns EBADF, not UB.
            check(unsafe { epoll_ctl(self.epfd, op, fd, &raw mut ev) })
        }

        /// Starts watching `fd`, delivering `token` with its events.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_ctl` failure (e.g. already registered).
        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        /// Changes the interest (and token) of a registered `fd`.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_ctl` failure (e.g. not registered).
        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        /// Stops watching `fd`.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_ctl` failure.
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: as in `ctl`; pre-2.6.9 kernels required a non-null
            // event pointer for DEL, so one is always passed.
            check(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &raw mut ev) })
        }

        /// Blocks until readiness (or `timeout_ms`, `None` = forever),
        /// replacing the contents of `events`. Retries on `EINTR`.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_wait` failure.
        pub fn wait(&self, events: &mut Vec<Event>, timeout_ms: Option<i32>) -> io::Result<()> {
            events.clear();
            let mut raw = [EpollEvent { events: 0, data: 0 }; WAIT_BATCH];
            let n = loop {
                // SAFETY: `raw` is a valid, writable buffer of
                // WAIT_BATCH entries and outlives the call; maxevents
                // matches its length.
                let n = unsafe {
                    epoll_wait(
                        self.epfd,
                        raw.as_mut_ptr(),
                        WAIT_BATCH as i32,
                        timeout_ms.unwrap_or(-1),
                    )
                };
                if n >= 0 {
                    break n as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for ev in raw.iter().take(n) {
                // Copy out of the (possibly packed) struct before use.
                let bits = { ev.events };
                let token = { ev.data };
                events.push(Event {
                    token,
                    readable: bits & (EPOLLIN | EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: fd owned by self, closed exactly once.
            let _ = unsafe { close(self.epfd) };
        }
    }

    /// A cross-thread wakeup for a [`Poller`], backed by an `eventfd`
    /// counter: any number of [`WakeHandle::wake`] calls coalesce into
    /// one readable event until someone [`WakeHandle::drain`]s it.
    #[derive(Debug)]
    pub struct WakeHandle {
        fd: RawFd,
    }

    impl WakeHandle {
        /// Creates the eventfd (nonblocking, close-on-exec).
        ///
        /// # Errors
        ///
        /// Propagates `eventfd` failure.
        pub fn new() -> io::Result<WakeHandle> {
            // SAFETY: no pointers involved; the fd is owned by the
            // handle and closed in Drop.
            let fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
            check(fd)?;
            Ok(WakeHandle { fd })
        }

        /// The descriptor to register with the poller (read interest).
        #[must_use]
        pub fn raw_fd(&self) -> RawFd {
            self.fd
        }

        /// Makes the poller's next (or current) wait return. Safe to
        /// call from any thread, any number of times.
        ///
        /// # Errors
        ///
        /// Propagates a failed `write`; a full counter (`EAGAIN`) is
        /// success — the wake is already pending.
        pub fn wake(&self) -> io::Result<()> {
            let one: u64 = 1;
            // SAFETY: writes 8 bytes from a valid local to an eventfd
            // owned by self.
            let n = unsafe { write(self.fd, (&raw const one).cast::<c_void>(), 8) };
            if n == 8 {
                return Ok(());
            }
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::WouldBlock {
                // Counter saturated: a wake is pending regardless.
                return Ok(());
            }
            Err(err)
        }

        /// Consumes all pending wakes (resets readiness). Failure is
        /// ignored: a spurious extra wakeup is harmless by design.
        pub fn drain(&self) {
            let mut counter: u64 = 0;
            // SAFETY: reads 8 bytes into a valid local from an eventfd
            // owned by self; EAGAIN (nothing pending) is fine.
            let _ = unsafe { read(self.fd, (&raw mut counter).cast::<c_void>(), 8) };
        }
    }

    impl Drop for WakeHandle {
        fn drop(&mut self) {
            // SAFETY: fd owned by self, closed exactly once.
            let _ = unsafe { close(self.fd) };
        }
    }
}

/// Non-Linux stub: constructors report [`io::ErrorKind::Unsupported`],
/// so `sp-serve` refuses to start.
#[cfg(not(target_os = "linux"))]
mod portable {
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "epoll is only available on Linux",
        ))
    }

    /// Stub poller; every constructor fails with `Unsupported`.
    #[derive(Debug)]
    pub struct Poller {
        _private: (),
    }

    impl Poller {
        /// Always fails on non-Linux platforms.
        ///
        /// # Errors
        ///
        /// Always [`io::ErrorKind::Unsupported`].
        pub fn new() -> io::Result<Poller> {
            unsupported()
        }

        /// Unreachable (no instance can exist).
        ///
        /// # Errors
        ///
        /// Always [`io::ErrorKind::Unsupported`].
        pub fn register(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
            unsupported()
        }

        /// Unreachable (no instance can exist).
        ///
        /// # Errors
        ///
        /// Always [`io::ErrorKind::Unsupported`].
        pub fn modify(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
            unsupported()
        }

        /// Unreachable (no instance can exist).
        ///
        /// # Errors
        ///
        /// Always [`io::ErrorKind::Unsupported`].
        pub fn deregister(&self, _fd: RawFd) -> io::Result<()> {
            unsupported()
        }

        /// Unreachable (no instance can exist).
        ///
        /// # Errors
        ///
        /// Always [`io::ErrorKind::Unsupported`].
        pub fn wait(&self, _events: &mut Vec<Event>, _timeout_ms: Option<i32>) -> io::Result<()> {
            unsupported()
        }
    }

    /// Stub wake handle; the constructor fails with `Unsupported`.
    #[derive(Debug)]
    pub struct WakeHandle {
        _private: (),
    }

    impl WakeHandle {
        /// Always fails on non-Linux platforms.
        ///
        /// # Errors
        ///
        /// Always [`io::ErrorKind::Unsupported`].
        pub fn new() -> io::Result<WakeHandle> {
            unsupported()
        }

        /// Unreachable (no instance can exist).
        #[must_use]
        pub fn raw_fd(&self) -> RawFd {
            -1
        }

        /// Unreachable (no instance can exist).
        ///
        /// # Errors
        ///
        /// Always [`io::ErrorKind::Unsupported`].
        pub fn wake(&self) -> io::Result<()> {
            unsupported()
        }

        /// Unreachable (no instance can exist).
        pub fn drain(&self) {}
    }
}

#[cfg(not(target_os = "linux"))]
pub use portable::{Poller, WakeHandle};
