//! Readiness for the ingest loop: Unix `poll(2)` and `listen(2)`, bound
//! from the C library `std` already links. This module holds the
//! crate's only `unsafe` code.
//!
//! `poll` rather than `epoll`: it is one call, `struct pollfd` has the
//! same layout on Linux and macOS, and the set is rebuilt from the live
//! connections on every wake, so no kernel-side registration has to be
//! kept in step with them.

use std::ffi::{c_int, c_short};
use std::io;
use std::net::TcpListener;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// `nfds_t`: `unsigned long` in glibc, musl and illumos, `unsigned int`
/// in the BSD libcs (macOS included) and bionic.
#[cfg(any(target_os = "linux", target_os = "illumos", target_os = "solaris"))]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "illumos", target_os = "solaris")))]
type NfdsT = std::ffi::c_uint;

/// `POLLIN`: data (or EOF) to read, or a connection to accept.
const POLLIN: c_short = 0x1;

/// Accept-queue depth asked of `listen`; the kernel caps it at its own
/// limit (`net.core.somaxconn` on Linux). `std` asks for 128.
const BACKLOG: c_int = 4096;

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
}

/// A set of descriptors to wait on, rebuilt before each wait. Entry `i`
/// is the `i`-th [`PollSet::add`] since the last [`PollSet::clear`].
#[derive(Default)]
pub(crate) struct PollSet {
    fds: Vec<PollFd>,
}

impl PollSet {
    /// Empties the set.
    pub(crate) fn clear(&mut self) {
        self.fds.clear();
    }

    /// Appends `fd`, watched for reading if `want_read`. An unwanted
    /// descriptor still takes its slot, so indices stay aligned, but is
    /// entered as `-1`, which `poll` skips: a hung-up socket that is
    /// not being read cannot wake the loop over and over.
    pub(crate) fn add(&mut self, fd: &impl AsRawFd, want_read: bool) {
        let fd: RawFd = if want_read { fd.as_raw_fd() } else { -1 };
        self.fds.push(PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        });
    }

    /// Blocks until an entry is ready or `timeout` passes. A signal
    /// (`EINTR`) counts as a wake with nothing ready.
    ///
    /// # Errors
    ///
    /// Any other `poll` failure.
    pub(crate) fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        let ms = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
        let nfds = NfdsT::try_from(self.fds.len()).unwrap_or(NfdsT::MAX);
        // SAFETY: the pointer and count describe `self.fds`, a live
        // buffer of `#[repr(C)]` `struct pollfd`s that this `&mut`
        // borrow keeps in place for the whole call; `poll` writes only
        // their `revents`. Descriptors are plain integers to the kernel:
        // a stale one is reported as `POLLNVAL`, never dereferenced.
        let rc = unsafe { poll(self.fds.as_mut_ptr(), nfds, ms) };
        if rc < 0 {
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Whether entry `i` reported anything: readable, or `POLLHUP`,
    /// `POLLERR` or `POLLNVAL`, all of which a read turns into EOF or
    /// an error that closes the connection.
    pub(crate) fn ready(&self, i: usize) -> bool {
        self.fds[i].revents != 0
    }
}

/// Re-`listen`s `listener` with a [`BACKLOG`]-deep accept queue, so a
/// burst of connecting devices queues in the kernel instead of timing
/// out in SYN retransmits behind std's 128.
///
/// # Errors
///
/// A failed `listen`.
pub(crate) fn deepen_backlog(listener: &TcpListener) -> io::Result<()> {
    // SAFETY: `listen` takes the descriptor by value and touches no
    // memory of ours; `listener` keeps the descriptor open for the
    // call, and on a listening socket `listen` only resizes its queue.
    if unsafe { listen(listener.as_raw_fd(), BACKLOG) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpStream;

    /// A set holding only `fd`, waited on for up to 5 s.
    fn ready_alone(fd: &impl AsRawFd) -> bool {
        let mut set = PollSet::default();
        set.add(fd, true);
        set.wait(Duration::from_secs(5)).unwrap();
        set.ready(0)
    }

    #[test]
    fn only_watched_sockets_with_something_to_read_are_ready() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut loud = TcpStream::connect(addr).unwrap();
        let mut unwatched = TcpStream::connect(addr).unwrap();
        let (loud_in, _) = listener.accept().unwrap();
        let (unwatched_in, _) = listener.accept().unwrap();
        unwatched.write_all(b"y").unwrap();
        loud.write_all(b"x").unwrap();

        let mut set = PollSet::default();
        set.add(&listener, true);
        set.add(&unwatched_in, false);
        set.add(&loud_in, true);
        set.wait(Duration::from_secs(5)).unwrap();
        assert!(!set.ready(0), "no connection is waiting to be accepted");
        assert!(!set.ready(1), "an unwatched socket is never ready");
        assert!(set.ready(2));
    }

    #[test]
    fn a_pending_connection_and_a_hang_up_are_ready() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let quiet = TcpStream::connect(addr).unwrap();
        let (quiet_in, _) = listener.accept().unwrap();
        let _pending = TcpStream::connect(addr).unwrap();
        assert!(ready_alone(&listener));
        drop(quiet);
        assert!(ready_alone(&quiet_in));
    }
}
