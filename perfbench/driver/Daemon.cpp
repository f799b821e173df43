//===- perfbench/driver/Daemon.cpp - syntox_serve under load --------------===//

#include "Daemon.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <unordered_map>

using namespace perfbench;
using namespace syntox;

/// The daemon listens here, relative to the shared working directory
/// (a short relative path keeps clear of the sun_path length limit).
static const char *const SocketPath = "serve.sock";

double perfbench::msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

//===----------------------------------------------------------------------===//
// Connection
//===----------------------------------------------------------------------===//

Connection::Connection(int Fd) : Fd(Fd), Reader(std::in_place, Fd) {}

Connection::~Connection() {
  if (Fd >= 0)
    ::close(Fd);
}

bool Connection::connect(const std::string &Path) {
  int S = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (S < 0)
    return false;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (::connect(S, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(S);
    return false;
  }
  Fd = S;
  Reader.emplace(Fd);
  return true;
}

bool Connection::sendLine(const std::string &Line) {
  std::string Out = Line + '\n';
  size_t Off = 0;
  while (Off < Out.size()) {
    ssize_t N = ::send(Fd, Out.data() + Off, Out.size() - Off, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

serve::LineReader::Status Connection::receive(std::string &Line,
                                              int TimeoutMs) {
  return Reader->next(Line, TimeoutMs);
}

/// The envelope id of a response line, which makeEnvelope renders right
/// after protocol_version.
static std::string responseId(const std::string &Line) {
  size_t At = Line.find("\"id\":\"");
  if (At == std::string::npos)
    return {};
  At += 6;
  size_t End = Line.find('"', At);
  return End == std::string::npos ? std::string() : Line.substr(At, End - At);
}

std::optional<std::string> Connection::exchange(const std::string &Line,
                                                const std::string &Id) {
  if (!sendLine(Line))
    return std::nullopt;
  Clock::time_point Deadline =
      Clock::now() + std::chrono::milliseconds(ResponseTimeoutMs);
  std::string Got;
  while (Clock::now() < Deadline) {
    serve::LineReader::Status S = receive(Got, 50);
    if (S == serve::LineReader::Status::Eof)
      return std::nullopt;
    if (S == serve::LineReader::Status::Line && responseId(Got) == Id)
      return Got;
  }
  return std::nullopt;
}

std::optional<json::Value> Connection::call(const std::string &Kind) {
  std::string Id = "admin-" + Kind;
  json::Value Req = json::Value::object();
  Req.set("protocol_version", 1);
  Req.set("id", Id);
  Req.set("kind", Kind);
  std::optional<std::string> Line = exchange(Req.str(), Id);
  if (!Line)
    return std::nullopt;
  return json::parse(*Line);
}

//===----------------------------------------------------------------------===//
// Daemon
//===----------------------------------------------------------------------===//

Daemon::Daemon(std::string Binary, std::vector<std::string> Flags)
    : Binary(std::move(Binary)), Flags(std::move(Flags)) {}

Daemon::~Daemon() { stop(); }

bool Daemon::start(std::string &Error) {
  ::unlink(SocketPath);
  std::vector<std::string> Args = {Binary,
                                   std::string("--listen=unix:") + SocketPath};
  Args.insert(Args.end(), Flags.begin(), Flags.end());
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);

  Pid = ::fork();
  if (Pid < 0) {
    Error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (Pid == 0) {
    // Never outlive the load generator, even if it is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    int Log = ::open("daemon.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (Log >= 0) {
      ::dup2(Log, STDOUT_FILENO);
      ::dup2(Log, STDERR_FILENO);
    }
    ::execv(Argv[0], Argv.data());
    ::_exit(127);
  }

  Clock::time_point Deadline = Clock::now() + std::chrono::seconds(30);
  while (!Conn.connect(SocketPath)) {
    int Status = 0;
    if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
      Pid = -1;
      Error = "syntox_serve exited during start-up (see daemon.log)";
      return false;
    }
    if (Clock::now() > Deadline) {
      Error = "syntox_serve did not listen within 30 s";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  std::optional<json::Value> Pong = Conn.call("ping");
  const json::Value *Status = Pong ? Pong->find("status") : nullptr;
  if (!Status || Status->asString() != "ok") {
    Error = "syntox_serve did not answer ping";
    return false;
  }
  return true;
}

void Daemon::stop() {
  if (Pid <= 0)
    return;
  // A graceful shutdown first; SIGKILL only if the daemon hangs.
  if (Conn.connected())
    Conn.sendLine(R"({"protocol_version":1,"id":"stop","kind":"shutdown"})");
  else
    ::kill(Pid, SIGTERM);
  Clock::time_point Deadline = Clock::now() + std::chrono::seconds(20);
  int Status = 0;
  while (::waitpid(Pid, &Status, WNOHANG) == 0) {
    if (Clock::now() > Deadline) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, &Status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Pid = -1;
}

double Daemon::cpuMs() const {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string Stat((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  size_t Paren = Stat.rfind(')');
  if (Paren == std::string::npos)
    return 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  std::istringstream Fields(Stat.substr(Paren + 2));
  std::string Skip;
  for (int I = 3; I < 14; ++I)
    Fields >> Skip;
  unsigned long long UTime = 0, STime = 0;
  Fields >> UTime >> STime;
  return static_cast<double>(UTime + STime) * 1000.0 /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::peakRssMb() const {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  return 0;
}

//===----------------------------------------------------------------------===//
// The closed loop
//===----------------------------------------------------------------------===//

static double threadCpuSeconds() {
  rusage U{};
  ::getrusage(RUSAGE_THREAD, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e6;
}

Window perfbench::runClosedLoop(Connection &C, Workload &W,
                                unsigned Outstanding, double Seconds,
                                const std::vector<Request> &Fixed) {
  using Status = serve::LineReader::Status;
  Window Out;
  std::unordered_map<std::string, size_t> InFlight; // wire id -> exchange
  size_t NextFixed = 0;
  double Cpu0 = threadCpuSeconds();
  Clock::time_point T0 = Clock::now();
  Clock::time_point End =
      T0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(Seconds));
  Clock::time_point Last = T0;

  auto MaySend = [&](Clock::time_point Now) {
    return Fixed.empty() ? Now < End : NextFixed < Fixed.size();
  };
  auto Send = [&] {
    Exchange E;
    E.Req = Fixed.empty() ? W.next() : Fixed[NextFixed++];
    std::string Line = requestLine(E.Req);
    E.Sent = Clock::now();
    InFlight[wireId(E.Req)] = Out.Exchanges.size();
    Out.Exchanges.push_back(std::move(E));
    return C.sendLine(Line);
  };

  bool Ok = true;
  while (Ok && InFlight.size() < Outstanding && MaySend(Clock::now()))
    Ok = Send();
  Clock::time_point DrainDeadline{};
  std::string Line;
  while (Ok && !InFlight.empty()) {
    Clock::time_point Now = Clock::now();
    if (!MaySend(Now)) {
      if (DrainDeadline == Clock::time_point{})
        DrainDeadline = Now + std::chrono::milliseconds(ResponseTimeoutMs);
      else if (Now > DrainDeadline)
        break; // the rest count as missing
    }
    // Take every answer that has arrived, each stamped as it is read,
    // before sending more.
    for (int WaitMs = 50;; WaitMs = 0) {
      Status S = C.receive(Line, WaitMs);
      if (S != Status::Line) {
        Ok = S != Status::Eof;
        break;
      }
      Clock::time_point At = Clock::now();
      auto It = InFlight.find(responseId(Line));
      if (It == InFlight.end())
        continue;
      Exchange &E = Out.Exchanges[It->second];
      E.Answered = true;
      E.Received = At;
      E.Response = std::move(Line);
      InFlight.erase(It);
      Last = std::max(Last, At);
    }
    while (Ok && InFlight.size() < Outstanding && MaySend(Clock::now()))
      Ok = Send();
  }
  Out.Broken = !Ok;
  Out.Seconds = std::chrono::duration<double>(Last - T0).count();
  Out.ClientCpuSeconds = threadCpuSeconds() - Cpu0;
  return Out;
}

std::map<std::string, double>
perfbench::metricsDelta(const json::Value &Before, const json::Value &After) {
  std::map<std::string, double> Out;
  auto Counters = [](const json::Value &Snap, double Sign,
                     std::map<std::string, double> &Acc) {
    if (const json::Value *Cs = Snap.find("counters"))
      for (const auto &[Name, V] : Cs->members())
        Acc[Name] += Sign * V.asDouble();
    if (const json::Value *Hs = Snap.find("histograms"))
      for (const auto &[Name, H] : Hs->members()) {
        if (const json::Value *N = H.find("count"))
          Acc[Name + ".count"] += Sign * N->asDouble();
        if (const json::Value *S = H.find("sum"))
          Acc[Name + ".sum"] += Sign * S->asDouble();
      }
  };
  Counters(After, 1, Out);
  Counters(Before, -1, Out);
  return Out;
}
