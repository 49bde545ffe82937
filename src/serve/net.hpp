// Socket syscall wrappers shared by the daemon and the load-test client.
//
// Two jobs:
//
//   1. Signal hygiene. Every recv/send/accept/poll in the serve dataplane
//      goes through these wrappers, which retry on EINTR (a signal landing
//      mid-syscall must never look like a transport error) and send with
//      MSG_NOSIGNAL (plus ignore_sigpipe() as a process-wide backstop for
//      platforms where a send path can still raise SIGPIPE).
//
//   2. The chaos seam. When the build enables FTSPAN_CHAOS_SEAM (CMake
//      option FTSPAN_CHAOS) *and* the FTSPAN_CHAOS environment variable is
//      set, the wrappers deterministically inject faults: short reads and
//      writes (length clamped to one byte) and allocation failures at the
//      request-admission boundary (chaos_alloc_point() throws bad_alloc).
//      Injection is driven by a global event counter hashed with the
//      configured seed, so a given seed always injects the same faults at
//      the same points regardless of wall clock. Without the build flag the
//      seam compiles away; without the env var it is inert, so a chaos
//      build still passes the regular test suite.
//
//      FTSPAN_CHAOS syntax: comma-separated key=value, e.g.
//        FTSPAN_CHAOS=seed=42,short_io=0.5,alloc=0.01
//      `short_io` is the probability a recv/send is clamped to one byte;
//      `alloc` the probability chaos_alloc_point() throws.
#pragma once

#include <poll.h>
#include <sys/types.h>

#include <cstddef>
#include <cstdint>

namespace ftspan::serve::net {

/// Sets SIGPIPE to SIG_IGN process-wide (idempotent). A client closing its
/// socket mid-response must surface as EPIPE from send, never as a
/// process-killing signal.
void ignore_sigpipe();

/// recv(2), retried on EINTR. EAGAIN/EWOULDBLOCK pass through. Under the
/// chaos seam, may clamp len to 1 (a short read).
ssize_t recv_retry(int fd, void* buf, std::size_t len);

/// send(2) with MSG_NOSIGNAL, retried on EINTR. Under the chaos seam, may
/// clamp len to 1 (a short write).
ssize_t send_retry(int fd, const void* buf, std::size_t len);

/// accept(2), retried on EINTR.
int accept_retry(int fd);

/// Sets O_NONBLOCK on fd (best effort: a failing fcntl leaves fd as is).
void set_nonblocking(int fd);

/// Accept-side setup of a daemon connection: non-blocking, plus
/// TCP_NODELAY. Responses to pipelined requests are small writes; with
/// Nagle on, each one waits for the ACK of the previous, so a client that
/// delays its ACKs would stall every response by its delayed-ACK timer.
void setup_connection(int fd);

/// poll(2), retried on EINTR (returns 0 as if timed out, so callers treat
/// an interrupted wait exactly like an empty round).
int poll_retry(pollfd* fds, nfds_t n, int timeout_ms);

/// True when the chaos seam is compiled in AND FTSPAN_CHAOS is set.
bool chaos_enabled();

/// Deterministic allocation-failure injection point: throws std::bad_alloc
/// with probability `alloc` (from FTSPAN_CHAOS). No-op when chaos is off.
void chaos_alloc_point();

/// Total faults injected so far (short I/Os + thrown allocations) — exposed
/// so /stats and the load test can report that the seam actually fired.
std::uint64_t chaos_faults_injected();

}  // namespace ftspan::serve::net
