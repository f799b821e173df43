//===- support/Telemetry.h - Trace + metrics context ------------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The telemetry context threaded through the analysis engine: optional
/// pointers to a TraceRecorder and a MetricsRegistry, both owned by the
/// caller (a session without a registry reports into its own). Every
/// instrumentation hook degrades to a null-pointer check when the
/// corresponding sink is absent — the cost of the subsystem for
/// untelemetered runs is one predictable branch per hook site (verified
/// by bench_complexity's <2% acceptance bound).
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_SUPPORT_TELEMETRY_H
#define SYNTOX_SUPPORT_TELEMETRY_H

#include "support/Metrics.h"
#include "support/Trace.h"

namespace syntox {

/// Borrowed telemetry sinks; value-copied into options structs. Null
/// members simply disable that half of the subsystem.
struct Telemetry {
  TraceRecorder *Trace = nullptr;
  MetricsRegistry *Metrics = nullptr;

  bool enabled() const { return Trace || Metrics; }
  bool operator==(const Telemetry &) const = default;
};

/// Records \p K iff tracing is on and the kind is enabled. Use the
/// explicit two-step form at call sites that must build a label.
inline void traceEvent(TraceRecorder *R, TraceEventKind K,
                       uint64_t Arg0 = 0, uint64_t Arg1 = 0) {
  if (R && R->wants(K))
    R->record(K, Arg0, Arg1);
}

} // namespace syntox

#endif // SYNTOX_SUPPORT_TELEMETRY_H
