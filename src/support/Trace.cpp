//===- support/Trace.cpp --------------------------------------------------===//

#include "support/Trace.h"

#include "support/Json.h"

#include <algorithm>

using namespace syntox;

thread_local constinit TraceRecorder *syntox::trace::StoreDetachSink =
    nullptr;

const char *syntox::traceEventKindName(TraceEventKind K) {
  switch (K) {
  case TraceEventKind::PhaseBegin:
    return "phase_begin";
  case TraceEventKind::PhaseEnd:
    return "phase_end";
  case TraceEventKind::ComponentBegin:
    return "component_begin";
  case TraceEventKind::ComponentEnd:
    return "component_end";
  case TraceEventKind::Widening:
    return "widening";
  case TraceEventKind::Narrowing:
    return "narrowing";
  case TraceEventKind::TokenUnfold:
    return "token_unfold";
  case TraceEventKind::StoreDetach:
    return "store_detach";
  case TraceEventKind::ComponentSkip:
    return "component_skip";
  case TraceEventKind::DemandSkip:
    return "demand_skip";
  case TraceEventKind::StorePrune:
    return "store_prune";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// TraceRecorder
//===----------------------------------------------------------------------===//

struct TraceRecorder::Buffer {
  uint16_t Tid = 0;
  std::vector<TraceEvent> Events;
};

namespace {
std::atomic<uint64_t> NextRecorderSerial{1};
} // namespace

TraceRecorder::TraceRecorder(uint32_t Mask)
    : Mask(Mask), Serial(NextRecorderSerial.fetch_add(1)),
      Epoch(std::chrono::steady_clock::now()) {}

TraceRecorder::~TraceRecorder() {
  // Stale thread-local cache entries keyed by this recorder's serial are
  // harmless: serials are never reused, so they can only miss.
}

TraceRecorder::Buffer &TraceRecorder::localBuffer() {
  // Per-thread cache of (recorder serial -> buffer). A thread records
  // to few recorders over its lifetime, so a linear scan beats a map.
  thread_local std::vector<std::pair<uint64_t, Buffer *>> Cache;
  for (auto &[S, B] : Cache)
    if (S == Serial)
      return *B;
  std::lock_guard<std::mutex> Lock(M);
  auto Owned = std::make_unique<Buffer>();
  Owned->Tid = static_cast<uint16_t>(Buffers.size());
  Buffer *B = Owned.get();
  Buffers.push_back(std::move(Owned));
  Cache.emplace_back(Serial, B);
  return *B;
}

void TraceRecorder::record(TraceEventKind K, uint64_t Arg0, uint64_t Arg1,
                           std::string Label) {
  if (!wants(K))
    return;
  Buffer &B = localBuffer();
  B.Events.push_back(
      TraceEvent{K, B.Tid, nowNs(), Arg0, Arg1, std::move(Label)});
}

std::vector<TraceEvent> TraceRecorder::take() {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<TraceEvent> Out;
  size_t Total = 0;
  for (const auto &B : Buffers)
    Total += B->Events.size();
  Out.reserve(Total);
  for (const auto &B : Buffers) {
    Out.insert(Out.end(), std::make_move_iterator(B->Events.begin()),
               std::make_move_iterator(B->Events.end()));
    B->Events.clear();
  }
  // Stable so simultaneous events keep their per-thread order (within a
  // thread timestamps are already non-decreasing).
  std::stable_sort(Out.begin(), Out.end(),
                   [](const TraceEvent &A, const TraceEvent &B2) {
                     return A.TimeNs < B2.TimeNs;
                   });
  return Out;
}

void TraceRecorder::flushTo(TraceSink &Sink) { Sink.consume(take()); }

unsigned TraceRecorder::numThreads() const {
  std::lock_guard<std::mutex> Lock(M);
  return static_cast<unsigned>(Buffers.size());
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

void syntox::writeJsonLinesTrace(const std::vector<TraceEvent> &Events,
                                 std::ostream &OS) {
  std::string Line;
  for (const TraceEvent &E : Events) {
    Line.clear();
    Line += "{\"ev\":";
    Line += json::quoted(traceEventKindName(E.Kind));
    Line += ",\"t\":";
    Line += std::to_string(E.TimeNs);
    Line += ",\"tid\":";
    Line += std::to_string(E.Tid);
    Line += ",\"arg0\":";
    Line += std::to_string(E.Arg0);
    Line += ",\"arg1\":";
    Line += std::to_string(E.Arg1);
    if (!E.Label.empty()) {
      Line += ",\"label\":";
      Line += json::quoted(E.Label);
    }
    Line += "}\n";
    OS << Line;
  }
}

namespace {

/// Chrome phase letter and span/instant classification per kind.
struct ChromeMapping {
  const char *Ph;  ///< "B", "E" or "i"
  const char *Cat; ///< trace_event category
};

ChromeMapping chromeMapping(TraceEventKind K) {
  switch (K) {
  case TraceEventKind::PhaseBegin:
    return {"B", "phase"};
  case TraceEventKind::PhaseEnd:
    return {"E", "phase"};
  case TraceEventKind::ComponentBegin:
    return {"B", "component"};
  case TraceEventKind::ComponentEnd:
    return {"E", "component"};
  case TraceEventKind::Widening:
  case TraceEventKind::Narrowing:
    return {"i", "lattice"};
  case TraceEventKind::TokenUnfold:
    return {"i", "interproc"};
  case TraceEventKind::StoreDetach:
    return {"i", "store"};
  case TraceEventKind::ComponentSkip:
  case TraceEventKind::DemandSkip:
    return {"i", "component"};
  case TraceEventKind::StorePrune:
    return {"i", "store"};
  }
  return {"i", "other"};
}

std::string chromeName(const TraceEvent &E) {
  if (!E.Label.empty())
    return E.Label;
  switch (E.Kind) {
  case TraceEventKind::ComponentBegin:
  case TraceEventKind::ComponentEnd:
    return (E.Arg1 ? "descend component head " : "stabilize component head ") +
           std::to_string(E.Arg0);
  default:
    return traceEventKindName(E.Kind);
  }
}

} // namespace

void syntox::writeChromeTrace(const std::vector<TraceEvent> &Events,
                              std::ostream &OS) {
  OS << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool First = true;
  char Ts[32];
  for (const TraceEvent &E : Events) {
    ChromeMapping Map = chromeMapping(E.Kind);
    if (!First)
      OS << ",\n";
    First = false;
    // trace_event timestamps are microseconds.
    std::snprintf(Ts, sizeof(Ts), "%.3f",
                  static_cast<double>(E.TimeNs) / 1000.0);
    OS << "{\"name\":" << json::quoted(chromeName(E))
       << ",\"cat\":\"" << Map.Cat << "\",\"ph\":\"" << Map.Ph
       << "\",\"ts\":" << Ts << ",\"pid\":1,\"tid\":" << E.Tid;
    if (Map.Ph[0] == 'i')
      OS << ",\"s\":\"t\"";
    OS << ",\"args\":{\"kind\":" << json::quoted(traceEventKindName(E.Kind))
       << ",\"arg0\":" << E.Arg0 << ",\"arg1\":" << E.Arg1 << "}}";
  }
  OS << "\n]}\n";
}
