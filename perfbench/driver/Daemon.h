//===- perfbench/driver/Daemon.h - syntox_serve under load ------*- C++ -*-===//
///
/// \file
/// A syntox_serve child process on a unix socket, the one client
/// connection the load generator drives it through, and the closed-loop
/// window: one thread keeps a fixed number of analyze requests in
/// flight, sending the next request as soon as an answer arrives, and
/// records each request's send and receipt time on its own clock.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_DAEMON_H
#define PERFBENCH_DAEMON_H

#include "Workload.h"

#include "serve/Protocol.h"
#include "support/Json.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock points.
double msBetween(Clock::time_point A, Clock::time_point B);

/// How long the client waits for an answer: to an admin request or an
/// exchange, and to the requests still in flight when a window closes.
inline constexpr int ResponseTimeoutMs = 60000;

/// A line-oriented client connection speaking the daemon's protocol.
class Connection {
public:
  Connection() = default;
  /// Adopts \p Fd, an already connected stream socket.
  explicit Connection(int Fd);
  ~Connection();
  Connection(const Connection &) = delete;
  Connection &operator=(const Connection &) = delete;

  /// One connect attempt to the unix socket \p Path; false while the
  /// daemon is not listening yet.
  bool connect(const std::string &Path);
  bool connected() const { return Fd >= 0; }
  bool sendLine(const std::string &Line);
  /// The next response line, waiting at most \p TimeoutMs for input.
  syntox::serve::LineReader::Status receive(std::string &Line, int TimeoutMs);
  /// Sends \p Line and waits for the response whose envelope id is
  /// \p Id, dropping any other line; nullopt on failure or timeout.
  std::optional<std::string> exchange(const std::string &Line,
                                      const std::string &Id);
  /// Sends one admin request of kind \p Kind, with nothing else in
  /// flight, and parses its response.
  std::optional<syntox::json::Value> call(const std::string &Kind);

private:
  int Fd = -1;
  std::optional<syntox::serve::LineReader> Reader;
};

/// A syntox_serve child listening on unix:serve.sock in the current
/// working directory, logging to daemon.log there. The destructor stops
/// it (shutdown request, then SIGKILL) and reaps it, on every path.
class Daemon {
public:
  Daemon(std::string Binary, std::vector<std::string> Flags);
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Launches the daemon and returns once it answered `ping` on the
  /// connection (false with \p Error on failure or after 30 s).
  bool start(std::string &Error);
  /// Asks the daemon to shut down and waits for it to exit.
  void stop();

  Connection &connection() { return Conn; }
  /// CPU time (user + system, all threads) so far, in milliseconds.
  double cpuMs() const;
  /// Peak resident set (VmHWM) in MiB.
  double peakRssMb() const;

private:
  std::string Binary;
  std::vector<std::string> Flags;
  pid_t Pid = -1;
  Connection Conn;
};

/// One answered (or unanswered) request of a window.
struct Exchange {
  Request Req;
  Clock::time_point Sent;
  Clock::time_point Received;
  bool Answered = false;
  std::string Response; ///< the raw response line
};

/// What the closed loop observed over one window.
struct Window {
  std::vector<Exchange> Exchanges; ///< in send order
  double Seconds = 0;          ///< first send to last receipt
  double ClientCpuSeconds = 0; ///< the generator thread's own CPU time
  bool Broken = false;         ///< connection lost mid-window
};

/// Runs a closed loop over \p W for \p Seconds with \p Outstanding
/// requests in flight, then waits (at most ResponseTimeoutMs) for what
/// is still outstanding. With \p Fixed non-empty, sends exactly those
/// requests instead (priming) and ignores \p Seconds.
Window runClosedLoop(Connection &C, Workload &W, unsigned Outstanding,
                     double Seconds, const std::vector<Request> &Fixed = {});

/// Counter and histogram deltas between two `metrics` payloads, keyed
/// by metric name (histograms contribute `<name>.count`/`<name>.sum`).
std::map<std::string, double> metricsDelta(const syntox::json::Value &Before,
                                           const syntox::json::Value &After);

} // namespace perfbench

#endif // PERFBENCH_DAEMON_H
