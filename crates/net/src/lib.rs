//! A minimal, dependency-free readiness API over Linux `epoll`.
//!
//! `sp-serve`'s reactor needs exactly four things from the OS: watch
//! many sockets at once ([`Poller::wait`]), change what each is watched
//! for ([`Poller::register`]/[`Poller::modify`]), be woken from another
//! thread when a worker needs the event loop ([`WakeHandle::wake`], an
//! `eventfd`), and nothing else. This crate provides those four things
//! behind a safe API and keeps every `unsafe` FFI call inside the
//! private `sys` module, where each call site carries a `SAFETY:`
//! argument.
//!
//! The crate only compiles its substance on Linux; other platforms get
//! the types but every constructor returns [`std::io::ErrorKind::Unsupported`],
//! and `sp-serve` refuses to start there.
//!
//! No allocation happens per event: callers pass a reusable event
//! buffer to [`Poller::wait`].

// Confining `unsafe` to `sys` is enforced with `deny` rather than the
// usual workspace `forbid`: `forbid` cannot be overridden by the
// module-level `allow` that `sys` needs for its FFI block. The sp-lint
// `forbid-unsafe` check knows about this exemption.
#![deny(unsafe_code)]

mod sys;

pub use sys::{Event, Interest, Poller, WakeHandle};

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn poller_reports_listener_readability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        poller
            .register(listener.as_raw_fd(), 7, Interest::READABLE)
            .unwrap();

        let mut events = Vec::new();
        poller.wait(&mut events, Some(0)).unwrap();
        assert!(events.is_empty(), "nothing pending before a connect");

        let _client = TcpStream::connect(addr).unwrap();
        poller.wait(&mut events, Some(2_000)).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        poller.deregister(listener.as_raw_fd()).unwrap();
    }

    #[test]
    fn modify_switches_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        let (peer, _) = listener.accept().unwrap();

        let poller = Poller::new().unwrap();
        // A fresh socket with empty send buffer is immediately writable.
        poller
            .register(stream.as_raw_fd(), 1, Interest::WRITABLE)
            .unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(2_000)).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable));

        // Switch to read interest: silent until the peer writes.
        poller
            .modify(stream.as_raw_fd(), 1, Interest::READABLE)
            .unwrap();
        poller.wait(&mut events, Some(0)).unwrap();
        assert!(events.is_empty());
        let mut peer = peer;
        peer.write_all(b"x").unwrap();
        poller.wait(&mut events, Some(2_000)).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
    }

    #[test]
    fn wake_handle_crosses_threads() {
        let poller = Poller::new().unwrap();
        let wake = std::sync::Arc::new(WakeHandle::new().unwrap());
        poller
            .register(wake.raw_fd(), 0, Interest::READABLE)
            .unwrap();

        let mut events = Vec::new();
        poller.wait(&mut events, Some(0)).unwrap();
        assert!(events.is_empty());

        let remote = std::sync::Arc::clone(&wake);
        let handle = std::thread::spawn(move || remote.wake().unwrap());
        poller.wait(&mut events, Some(2_000)).unwrap();
        handle.join().unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].readable);

        // Drain resets the level-triggered readiness.
        wake.drain();
        poller.wait(&mut events, Some(0)).unwrap();
        assert!(events.is_empty());

        // Waking twice then draining once still clears (the counter
        // aggregates), which is exactly the coalescing the reactor
        // counts on.
        wake.wake().unwrap();
        wake.wake().unwrap();
        wake.drain();
        poller.wait(&mut events, Some(0)).unwrap();
        assert!(events.is_empty());
    }
}
