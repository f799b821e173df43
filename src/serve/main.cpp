//===- serve/main.cpp - syntox_serve entry point --------------------------===//
//
// The long-lived analysis daemon. Speaks the JSON-lines protocol of
// serve/Protocol.h over stdio (default), a Unix socket, or a TCP port:
//
//   syntox_serve [options]
//     --listen=stdio | unix:PATH | tcp:PORT
//     --threads-total=N     request-pool workers, the cap on analyze
//                           requests in flight (0 = hardware threads)
//     --timeout-ms=N        default admission deadline (0 = none)
//     --cache-dir=DIR       root of the on-disk warm cache
//     --cache-max-bytes=N   size cap the cache tree is held to after
//                           every save (0 = unbounded)
//     --test-start-delay-ms=N   test hook (see ServerConfig)
//   plus every shared analysis flag (--domain=, --rounds=, ...) as
//   the per-request defaults that a request's "options" object
//   overrides. A signed, malformed or out-of-range number exits 2
//   instead of wrapping.
//
// Each analyze request builds, runs and frees its own session before
// it answers; only the on-disk cache outlives a request.
//
// SIGTERM/SIGINT start a graceful drain: the read loop stops, every
// admitted request still answers, then the process exits 0. Socket
// modes accept one connection at a time and serve it to EOF; a client
// `shutdown` request ends the accept loop.
//
//===----------------------------------------------------------------------===//

#include "core/AnalysisFlags.h"
#include "serve/Server.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <poll.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace syntox;
using namespace syntox::serve;

namespace {

Server *ActiveServer = nullptr;

void onDrainSignal(int) {
  if (ActiveServer)
    ActiveServer->requestDrain(); // lock-free atomic store: signal-safe
}

void usage() {
  std::fprintf(
      stderr,
      "usage: syntox_serve [options]\n"
      "  --listen=stdio|unix:PATH|tcp:PORT   transport (default stdio)\n"
      "  --threads-total=N    request-pool workers (0 = hardware threads)\n"
      "  --timeout-ms=N       default admission deadline (0 = none)\n"
      "  --cache-dir=DIR      root of the on-disk warm cache\n"
      "  --cache-max-bytes=N  cache-tree size cap (0 = unbounded)\n"
      "%s",
      analysisFlagsHelp());
}

/// parseUnsigned, reporting a rejected value on stderr.
template <typename T>
bool parseUnsignedArg(const std::string &Value, const char *Flag, T &Out) {
  if (parseUnsigned(Value, Out))
    return true;
  std::fprintf(stderr, "syntox_serve: invalid %s '%s'\n", Flag,
               Value.c_str());
  return false;
}

int listenUnix(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  struct sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    ::close(Fd);
    std::fprintf(stderr, "syntox_serve: socket path too long\n");
    return -1;
  }
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  ::unlink(Path.c_str());
  if (::bind(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
             sizeof(Addr)) < 0 ||
      ::listen(Fd, 8) < 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int listenTcp(unsigned Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  struct sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(static_cast<uint16_t>(Port));
  if (::bind(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
             sizeof(Addr)) < 0 ||
      ::listen(Fd, 8) < 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// Accepts connections until a drain or a client shutdown request,
/// serving each to EOF in turn.
int acceptLoop(Server &S, int ListenFd) {
  while (!S.draining()) {
    struct pollfd P = {ListenFd, POLLIN, 0};
    int N = ::poll(&P, 1, 200);
    if (N < 0 && errno != EINTR)
      break;
    if (N <= 0)
      continue;
    int Conn = ::accept(ListenFd, nullptr, nullptr);
    if (Conn < 0)
      continue;
    bool More = S.serve(Conn, Conn);
    ::close(Conn);
    if (!More)
      break;
  }
  ::close(ListenFd);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  ServerConfig Cfg;
  TelemetryFlags Telem; // accepted for flag compatibility; serve routes
                        // metrics through the `metrics` request instead
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  std::string Error;
  if (!parseAnalysisFlags(Args, Cfg.Defaults, Telem, Error)) {
    std::fprintf(stderr, "syntox_serve: %s\n", Error.c_str());
    usage();
    return 2;
  }

  std::string Listen = "stdio";
  for (const std::string &Arg : Args) {
    if (Arg.rfind("--listen=", 0) == 0) {
      Listen = Arg.substr(9);
    } else if (Arg.rfind("--threads-total=", 0) == 0) {
      if (!parseUnsignedArg(Arg.substr(16), "--threads-total",
                            Cfg.TotalThreads))
        return 2;
    } else if (Arg.rfind("--timeout-ms=", 0) == 0) {
      if (!parseUnsignedArg(Arg.substr(13), "--timeout-ms",
                            Cfg.RequestTimeoutMs))
        return 2;
    } else if (Arg.rfind("--cache-max-bytes=", 0) == 0) {
      if (!parseUnsignedArg(Arg.substr(18), "--cache-max-bytes",
                            Cfg.CacheMaxBytes))
        return 2;
    } else if (Arg.rfind("--test-start-delay-ms=", 0) == 0) {
      if (!parseUnsignedArg(Arg.substr(22), "--test-start-delay-ms",
                            Cfg.TestStartDelayMs))
        return 2;
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "syntox_serve: unknown option '%s'\n",
                   Arg.c_str());
      usage();
      return 2;
    }
  }
  // The shared parser consumed --cache-dir= into the per-request
  // defaults; for the daemon it is the server's cache root (requests
  // name their shard with cache_key), never a per-request knob.
  Cfg.CacheDir = Cfg.Defaults.CacheDir;
  Cfg.Defaults.CacheDir.clear();

  Server S(Cfg);
  ActiveServer = &S;
  std::signal(SIGTERM, onDrainSignal);
  std::signal(SIGINT, onDrainSignal);
  std::signal(SIGPIPE, SIG_IGN);

  if (Listen == "stdio") {
    S.serve(STDIN_FILENO, STDOUT_FILENO);
    return 0;
  }
  if (Listen.rfind("unix:", 0) == 0) {
    std::string Path = Listen.substr(5);
    int Fd = listenUnix(Path);
    if (Fd < 0) {
      std::fprintf(stderr, "syntox_serve: cannot listen on unix:%s\n",
                   Path.c_str());
      return 1;
    }
    int RC = acceptLoop(S, Fd);
    ::unlink(Path.c_str());
    return RC;
  }
  if (Listen.rfind("tcp:", 0) == 0) {
    unsigned Port = 0;
    if (!parseUnsignedArg(Listen.substr(4), "--listen=tcp", Port) ||
        Port == 0 || Port > 65535) {
      std::fprintf(stderr, "syntox_serve: invalid tcp port\n");
      return 2;
    }
    int Fd = listenTcp(Port);
    if (Fd < 0) {
      std::fprintf(stderr, "syntox_serve: cannot listen on tcp:%u\n",
                   Port);
      return 1;
    }
    return acceptLoop(S, Fd);
  }
  std::fprintf(stderr, "syntox_serve: unknown --listen '%s'\n",
               Listen.c_str());
  usage();
  return 2;
}
