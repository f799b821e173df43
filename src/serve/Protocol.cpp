//===- serve/Protocol.cpp - syntox_serve wire protocol --------------------===//

#include "serve/Protocol.h"

#include "core/AnalysisFlags.h"

#include <cerrno>
#include <limits>
#include <poll.h>
#include <unistd.h>

using namespace syntox;
using namespace syntox::serve;

const char *serve::requestKindName(RequestKind K) {
  switch (K) {
  case RequestKind::Analyze:
    return "analyze";
  case RequestKind::Gc:
    return "gc";
  case RequestKind::Metrics:
    return "metrics";
  case RequestKind::Ping:
    return "ping";
  case RequestKind::Shutdown:
    return "shutdown";
  }
  return "analyze";
}

namespace {

bool parseKind(const std::string &Name, RequestKind &Out) {
  if (Name == "analyze")
    Out = RequestKind::Analyze;
  else if (Name == "gc")
    Out = RequestKind::Gc;
  else if (Name == "metrics")
    Out = RequestKind::Metrics;
  else if (Name == "ping")
    Out = RequestKind::Ping;
  else if (Name == "shutdown")
    Out = RequestKind::Shutdown;
  else
    return false;
  return true;
}

bool wantBool(const json::Value &V, const std::string &Key, bool &Out,
              std::string &Error) {
  if (!V.isBool()) {
    Error = "option '" + Key + "' must be a boolean";
    return false;
  }
  Out = V.asBool();
  return true;
}

/// Rejects, never wraps, a value outside [0, 4294967295]: a wrapped
/// timeout_ms of 2^32 would read as "no deadline".
bool wantUnsigned(const json::Value &V, const std::string &Key,
                  unsigned &Out, std::string &Error) {
  if (!V.isInt() || V.asInt() < 0 ||
      V.asInt() > std::numeric_limits<unsigned>::max()) {
    Error = "'" + Key + "' must be an integer from 0 to " +
            std::to_string(std::numeric_limits<unsigned>::max());
    return false;
  }
  Out = static_cast<unsigned>(V.asInt());
  return true;
}

/// Applies one "options" member onto \p Opts. The member vocabulary is
/// the wire rendering of AnalysisOptions — kept in lockstep with
/// schemas/serve-request.schema.json.
bool applyOption(const std::string &Key, const json::Value &V,
                 AnalysisOptions &Opts, std::string &Error) {
  if (Key == "domain") {
    if (!V.isString() || !parseDomainKind(V.asString(), Opts.Domain)) {
      Error = "option 'domain' must be \"interval\", \"congruence\" "
              "or \"product\"";
      return false;
    }
    return true;
  }
  if (Key == "narrowing_passes")
    return wantUnsigned(V, Key, Opts.NarrowingPasses, Error);
  if (Key == "backward_rounds")
    return wantUnsigned(V, Key, Opts.BackwardRounds, Error);
  if (Key == "termination_goal")
    return wantBool(V, Key, Opts.TerminationGoal, Error);
  if (Key == "backward")
    return wantBool(V, Key, Opts.UseBackward, Error);
  if (Key == "harrison_gfp")
    return wantBool(V, Key, Opts.HarrisonGfp, Error);
  if (Key == "context_insensitive")
    return wantBool(V, Key, Opts.ContextInsensitive, Error);
  if (Key == "warm_start")
    return wantBool(V, Key, Opts.WarmStart, Error);
  if (Key == "widening_thresholds") {
    if (!V.isArray()) {
      Error = "option 'widening_thresholds' must be an array of integers";
      return false;
    }
    std::vector<int64_t> T;
    for (const json::Value &E : V.elements()) {
      if (!E.isInt()) {
        Error = "option 'widening_thresholds' must be an array of integers";
        return false;
      }
      T.push_back(E.asInt());
    }
    Opts.WideningThresholds = std::move(T);
    return true;
  }
  if (Key == "cache_dir") {
    Error = "option 'cache_dir' is not accepted over the wire: the "
            "server owns its cache directory; name the document with "
            "'cache_key' instead";
    return false;
  }
  Error = "unknown option '" + Key + "'";
  return false;
}

} // namespace

bool serve::parseServeRequest(const std::string &Line,
                              const AnalysisOptions &Defaults,
                              ServeRequest &Out, std::string &Error) {
  Out = ServeRequest();
  Out.Opts = Defaults;

  std::string ParseError;
  std::optional<json::Value> Doc = json::parse(Line, &ParseError);
  if (!Doc) {
    Error = "malformed request line: " + ParseError;
    return false;
  }
  if (!Doc->isObject()) {
    Error = "request must be a JSON object";
    return false;
  }
  // Recover the id first so even a rejected request gets a correlated
  // error response.
  if (const json::Value *Id = Doc->find("id"); Id && Id->isString())
    Out.Id = Id->asString();

  const json::Value *Version = Doc->find("protocol_version");
  if (!Version || !Version->isInt() ||
      Version->asInt() != static_cast<int64_t>(ProtocolVersion)) {
    Error = "missing or unsupported protocol_version (this server "
            "speaks version " +
            std::to_string(ProtocolVersion) + ")";
    return false;
  }
  if (Out.Id.empty()) {
    Error = "missing request id (a non-empty string)";
    return false;
  }

  if (const json::Value *Kind = Doc->find("kind")) {
    if (!Kind->isString() || !parseKind(Kind->asString(), Out.Kind)) {
      Error = "unknown request kind" +
              (Kind->isString() ? " '" + Kind->asString() + "'"
                                : std::string()) +
              " (expected analyze, gc, metrics, ping or shutdown)";
      return false;
    }
  }

  for (const auto &KV : Doc->members()) {
    const std::string &Key = KV.first;
    const json::Value &V = KV.second;
    if (Key == "protocol_version" || Key == "id" || Key == "kind")
      continue;
    if (Key == "source") {
      if (!V.isString()) {
        Error = "'source' must be a string";
        return false;
      }
      Out.Source = V.asString();
    } else if (Key == "options") {
      if (!V.isObject()) {
        Error = "'options' must be an object";
        return false;
      }
      for (const auto &Opt : V.members())
        if (!applyOption(Opt.first, Opt.second, Out.Opts, Error))
          return false;
    } else if (Key == "query") {
      if (!V.isString()) {
        Error = "'query' must be a string (point:LINE[:COL] or "
                "assertion:ID)";
        return false;
      }
      DemandSpec Spec;
      if (!parseQuerySpec(V.asString(), Spec, Error))
        return false;
      Out.Query = Spec;
    } else if (Key == "cache_key") {
      if (!V.isString() || V.asString().empty()) {
        Error = "'cache_key' must be a non-empty string";
        return false;
      }
      Out.CacheKey = V.asString();
    } else if (Key == "timeout_ms") {
      if (!wantUnsigned(V, Key, Out.TimeoutMs, Error))
        return false;
    } else {
      Error = "unknown request member '" + Key + "'";
      return false;
    }
  }

  if (Out.Kind == RequestKind::Analyze && Out.Source.empty()) {
    Error = "analyze request without 'source'";
    return false;
  }
  if (Out.Kind != RequestKind::Analyze &&
      (!Out.Source.empty() || Out.Query)) {
    Error = std::string("'source'/'query' are only valid on analyze "
                        "requests, not '") +
            requestKindName(Out.Kind) + "'";
    return false;
  }
  return true;
}

json::Value serve::makeEnvelope(const std::string &Id, RequestKind Kind,
                                const char *Status) {
  json::Value V = json::Value::object();
  V.set("protocol_version", ProtocolVersion);
  V.set("id", Id);
  V.set("kind", requestKindName(Kind));
  V.set("status", Status);
  return V;
}

void serve::setTiming(json::Value &Envelope, double QueueMs, double RunMs) {
  json::Value T = json::Value::object();
  T.set("queue_ms", QueueMs);
  T.set("run_ms", RunMs);
  T.set("total_ms", QueueMs + RunMs);
  Envelope.set("timing", std::move(T));
}

LineReader::Status LineReader::next(std::string &Line, int TimeoutMs) {
  for (;;) {
    size_t Nl = Buffer.find('\n');
    if (Nl != std::string::npos) {
      Line = Buffer.substr(0, Nl);
      Buffer.erase(0, Nl + 1);
      if (!Line.empty() && Line.back() == '\r')
        Line.pop_back();
      return Status::Line;
    }
    if (AtEof) {
      if (!Buffer.empty()) {
        Line = std::move(Buffer);
        Buffer.clear();
        return Status::Line;
      }
      return Status::Eof;
    }
    struct pollfd P = {Fd, POLLIN, 0};
    int N = ::poll(&P, 1, TimeoutMs);
    if (N == 0)
      return Status::Idle;
    if (N < 0) {
      if (errno == EINTR)
        return Status::Idle; // let the caller re-check its drain flag
      AtEof = true;
      continue;
    }
    char Chunk[4096];
    ssize_t Got = ::read(Fd, Chunk, sizeof(Chunk));
    if (Got <= 0) {
      AtEof = true; // disconnect (or error): flush, then EOF
      continue;
    }
    Buffer.append(Chunk, static_cast<size_t>(Got));
  }
}
