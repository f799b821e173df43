//===- serve/Protocol.h - syntox_serve wire protocol ------------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The versioned JSON-lines protocol of the analysis daemon: one JSON
/// object per line in, one JSON object per line out, in request order
/// of completion (responses carry the request id, so clients may
/// pipeline).
///
/// Request (schemas/serve-request.schema.json):
///
///   {"protocol_version": 1, "id": "r1", "kind": "analyze",
///    "source": "program p; ...", "options": {"domain": "product"},
///    "query": "point:12", "cache_key": "file:///a.pas",
///    "timeout_ms": 5000}
///
///   kind       analyze (default) | gc | metrics | ping | shutdown
///   source     program text — required for analyze
///   options    per-request analysis knobs overriding the server
///              defaults, member by member. Unknown members are
///              rejected; "cache_dir" in particular is rejected —
///              clients name documents via cache_key, never server
///              paths.
///   query      optional demand query, the CLI's --query= grammar:
///              "point:LINE[:COL]" or "assertion:ID"
///   cache_key  optional stable client document identity (a URI, a
///              path...). Requests carrying one share the per-document
///              shard of the server's on-disk warm cache: an unchanged
///              resubmission replays from it, and an edited document
///              solves cold and saves its own state there. Without it
///              a request never touches the disk cache.
///   timeout_ms per-request override of the server's admission timeout
///
/// Response (schemas/serve-response.schema.json): an envelope
///
///   {"protocol_version": 1, "id": "r1", "kind": "analyze",
///    "status": "ok", "findings": {...}, "timing": {"queue_ms": ...,
///    "run_ms": ..., "total_ms": ...}}
///
///   status     ok | error | timeout
///   findings   the full findings document (findings.schema.json) for
///              full analyze requests
///   demand     the partial-findings document for query requests
///   gc / metrics   admin-request payloads
///
/// A line that cannot be parsed at all, or whose envelope members are
/// malformed, produces a status:"error" response (with the request id
/// when one was recoverable) and never kills the daemon.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_SERVE_PROTOCOL_H
#define SYNTOX_SERVE_PROTOCOL_H

#include "core/AnalysisRequest.h"
#include "support/Json.h"

#include <optional>
#include <string>

namespace syntox {
namespace serve {

/// Version of the wire protocol; requests must carry exactly this.
inline constexpr uint32_t ProtocolVersion = 1;

enum class RequestKind { Analyze, Gc, Metrics, Ping, Shutdown };

const char *requestKindName(RequestKind K);

/// One parsed request line.
struct ServeRequest {
  std::string Id;      ///< echoed in the response envelope
  RequestKind Kind = RequestKind::Analyze;
  std::string Source;  ///< program text (analyze only)
  AnalysisOptions Opts; ///< server defaults + request "options" overlay
  std::optional<DemandSpec> Query;
  std::string CacheKey; ///< empty = this request skips the disk cache
  unsigned TimeoutMs = 0; ///< 0 = the server default applies
};

/// Parses one request line against \p Defaults (the server's analysis
/// configuration, which the request's "options" object overrides member
/// by member). Returns false with \p Error set on malformed input; when
/// an "id" member was readable it is left in \p Out.Id so the error
/// response can still be correlated.
bool parseServeRequest(const std::string &Line,
                       const AnalysisOptions &Defaults, ServeRequest &Out,
                       std::string &Error);

/// The response envelope shared by every status: protocol_version, id,
/// kind, status. Payload members and timing are set by the caller.
json::Value makeEnvelope(const std::string &Id, RequestKind Kind,
                         const char *Status);

/// Attaches the required timing block (milliseconds).
void setTiming(json::Value &Envelope, double QueueMs, double RunMs);

/// A buffered line reader over a file descriptor, built on poll(2) so
/// the serving loop can interleave reads with drain-flag checks.
class LineReader {
public:
  explicit LineReader(int Fd) : Fd(Fd) {}

  enum class Status {
    Line, ///< a complete line was produced
    Idle, ///< nothing arrived within the poll timeout
    Eof,  ///< peer closed and the buffer is drained
  };

  /// Produces the next input line (without its terminator) in \p Line,
  /// waiting at most \p TimeoutMs for input. A read error counts as
  /// end of stream (a disconnected client); a trailing partial line at
  /// EOF is delivered as a final line.
  Status next(std::string &Line, int TimeoutMs);

private:
  int Fd;
  std::string Buffer;
  bool AtEof = false;
};

} // namespace serve
} // namespace syntox

#endif // SYNTOX_SERVE_PROTOCOL_H
