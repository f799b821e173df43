//===- support/Trace.h - Solver event tracing -------------------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Event tracing for the analysis engine: a stream of typed, timestamped
/// events (solver phases, WTO-component stabilizations, widening and
/// narrowing applications, token unfolding, store detaches) collected by a TraceRecorder and rendered by exporters:
///  - JSON-lines: one self-describing JSON object per event,
///  - Chrome trace_event: loadable in chrome://tracing or Perfetto, with
///    phases and component stabilizations as nested spans on a
///    per-thread timeline.
///
/// The recorder keeps one append-only buffer per recording thread; a
/// thread touches only its own buffer while recording, so events are
/// collected without a lock on the hot path even when several threads
/// record into one recorder. take() merges the buffers into one
/// timestamp-ordered stream and must only run while no thread is
/// recording.
///
/// When tracing is off the instrumentation hooks reduce to a
/// null-pointer check — see Telemetry.h.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_SUPPORT_TRACE_H
#define SYNTOX_SUPPORT_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace syntox {

/// The event taxonomy (documented in DESIGN.md §Telemetry). Span events
/// come in Begin/End pairs; the rest are instants.
enum class TraceEventKind : uint8_t {
  PhaseBegin,     ///< analysis phase starts; Label = phase name
  PhaseEnd,       ///< analysis phase done; Label = phase name
  ComponentBegin, ///< WTO component stabilization starts; Arg0 = head,
                  ///< Arg1 = 0 ascending / 1 descending
  ComponentEnd,   ///< WTO component stabilized; args as ComponentBegin
  Widening,       ///< widening applied; Arg0 = head vertex
  Narrowing,      ///< narrowing applied; Arg0 = head vertex
  TokenUnfold,    ///< activation class created; Arg0 = instance id,
                  ///< Arg1 = call site id, Label = routine name
  StoreDetach,    ///< COW store payload cloned; Arg0 = entry count
  ComponentSkip,  ///< stable WTO element replayed from the warm-start
                  ///< memo instead of re-iterated; Arg0 = head vertex,
                  ///< Arg1 = 0 ascending / 1 descending sweep
  DemandSkip,     ///< top-level WTO element outside the demand cone,
                  ///< excluded from the schedule for the whole run;
                  ///< Arg0 = head vertex
  StorePrune,     ///< dead-slot restriction summary of one forward
                  ///< phase; Arg0 = slots dropped, Arg1 = live-slot
                  ///< total of the masks, Label = phase name
};

/// Number of distinct event kinds (for masks and tables).
constexpr unsigned NumTraceEventKinds =
    static_cast<unsigned>(TraceEventKind::StorePrune) + 1;

/// Stable machine-readable name ("phase_begin", "widening", ...).
const char *traceEventKindName(TraceEventKind K);

/// Mask bit for one event kind (free function: usable in constant
/// expressions while TraceRecorder is still incomplete).
constexpr uint32_t traceEventBit(TraceEventKind K) {
  return 1u << static_cast<unsigned>(K);
}

/// One recorded event. TimeNs is nanoseconds since the recorder's epoch
/// (its construction); Tid is a small dense id assigned per recording
/// thread in first-record order.
struct TraceEvent {
  TraceEventKind Kind;
  uint16_t Tid = 0;
  uint64_t TimeNs = 0;
  uint64_t Arg0 = 0;
  uint64_t Arg1 = 0;
  std::string Label;
};

/// Consumer of a finished event stream (events arrive merged and in
/// timestamp order). Exporters implement this.
class TraceSink {
public:
  virtual ~TraceSink() = default;
  virtual void consume(const std::vector<TraceEvent> &Events) = 0;
};

/// Collects events from any number of threads into per-thread buffers.
class TraceRecorder {
public:
  static constexpr uint32_t bit(TraceEventKind K) {
    return traceEventBit(K);
  }
  /// Every kind.
  static constexpr uint32_t AllEvents = (1u << NumTraceEventKinds) - 1;
  /// Default mask: everything except the detail kinds (store detach
  /// and prune), whose volume can dwarf the rest of the stream. Enable
  /// them explicitly (--trace-detail).
  static constexpr uint32_t DefaultEvents =
      AllEvents & ~(traceEventBit(TraceEventKind::StoreDetach) |
                    traceEventBit(TraceEventKind::StorePrune));

  explicit TraceRecorder(uint32_t Mask = DefaultEvents);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder &) = delete;
  TraceRecorder &operator=(const TraceRecorder &) = delete;

  /// Whether \p K is enabled; call sites check this before building
  /// event arguments.
  bool wants(TraceEventKind K) const { return (Mask & bit(K)) != 0; }

  /// Records one event with the current timestamp on the calling
  /// thread's buffer. Events of disabled kinds are dropped.
  void record(TraceEventKind K, uint64_t Arg0 = 0, uint64_t Arg1 = 0,
              std::string Label = {});

  /// Nanoseconds since the recorder epoch.
  uint64_t nowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Epoch)
            .count());
  }

  /// Merges every per-thread buffer into one timestamp-ordered stream
  /// and resets the buffers. Must not race with record() — callers
  /// flush only after worker threads have been joined.
  std::vector<TraceEvent> take();

  /// take() piped into \p Sink.
  void flushTo(TraceSink &Sink);

  /// Number of recording threads seen so far.
  unsigned numThreads() const;

private:
  struct Buffer;
  Buffer &localBuffer();

  const uint32_t Mask;
  const uint64_t Serial; ///< process-unique, keys the thread-local cache
  const std::chrono::steady_clock::time_point Epoch;
  mutable std::mutex M;
  std::vector<std::unique_ptr<Buffer>> Buffers;
};

/// \name Exporters
/// @{

/// One JSON object per line:
///   {"ev":"widening","t":1234,"tid":0,"arg0":7,"arg1":0}
/// with "label" present when non-empty. See schemas/trace-jsonl.schema.json.
void writeJsonLinesTrace(const std::vector<TraceEvent> &Events,
                         std::ostream &OS);

/// Chrome trace_event JSON ({"traceEvents":[...]}): span kinds become
/// "B"/"E" duration events per thread, instant kinds become "i" events.
/// Load the file in chrome://tracing or https://ui.perfetto.dev.
void writeChromeTrace(const std::vector<TraceEvent> &Events,
                      std::ostream &OS);

enum class TraceFormat { JsonLines, Chrome };

/// TraceSink rendering the consumed stream to \p OS in \p Fmt. Expects a
/// single consume() call for the Chrome format (one JSON document).
class StreamTraceSink : public TraceSink {
public:
  StreamTraceSink(std::ostream &OS, TraceFormat Fmt) : OS(OS), Fmt(Fmt) {}
  void consume(const std::vector<TraceEvent> &Events) override {
    if (Fmt == TraceFormat::Chrome)
      writeChromeTrace(Events, OS);
    else
      writeJsonLinesTrace(Events, OS);
  }

private:
  std::ostream &OS;
  TraceFormat Fmt;
};

/// @}

namespace trace {
/// The calling thread's sink for COW-store detach events. AbstractStore
/// has no telemetry context of its own (stores are value types created
/// everywhere), so a detail-traced session installs its recorder here,
/// on the thread that builds and runs it, for the duration of the run;
/// sessions on other threads keep their own. Null when detail tracing
/// is off — the instrumentation is one thread-local load and branch.
extern thread_local constinit TraceRecorder *StoreDetachSink;
} // namespace trace

} // namespace syntox

#endif // SYNTOX_SUPPORT_TRACE_H
