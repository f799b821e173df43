//===- support/Stats.cpp --------------------------------------------------===//

#include "support/Stats.h"

#include <cstdio>

using namespace syntox;

std::string AnalysisStats::str() const {
  std::string Out;
  char Buf[160];
  uint64_t Scheduled = 0;
  for (const PhaseStats &P : Phases) {
    Scheduled += P.WideningSteps + P.NarrowingSteps;
    std::snprintf(Buf, sizeof(Buf),
                  "*** %s [round %u]: widening (%llu), narrowing (%llu), "
                  "%.3f s\n",
                  P.Name.c_str(), P.Round,
                  (unsigned long long)P.WideningSteps,
                  (unsigned long long)P.NarrowingSteps, P.Seconds);
    Out += Buf;
    if (P.ComponentSkips > 0) {
      std::snprintf(Buf, sizeof(Buf),
                    "***   warm start: %llu components replayed "
                    "(%llu evaluations avoided)\n",
                    (unsigned long long)P.ComponentSkips,
                    (unsigned long long)P.SkippedSteps);
      Out += Buf;
    }
  }
  std::snprintf(Buf, sizeof(Buf), "*** CPU: %.3f seconds\n", CpuSeconds);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf), "*** Memory: %llu Kb\n",
                (unsigned long long)(BytesUsed / 1024));
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf), "*** Control points: %llu\n",
                (unsigned long long)ControlPoints);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "*** Equations: %llu (%llu unions, %llu widenings)\n",
                (unsigned long long)Equations, (unsigned long long)Unions,
                (unsigned long long)Widenings);
  Out += Buf;
  if (Scheduled > 0) {
    std::snprintf(Buf, sizeof(Buf),
                  "*** %llu of %llu scheduled evaluations skipped, inputs "
                  "unchanged\n",
                  (unsigned long long)StableInputSkips,
                  (unsigned long long)Scheduled);
    Out += Buf;
  }
  if (CacheHits + CacheMisses > 0) {
    std::snprintf(Buf, sizeof(Buf),
                  "*** Transfer cache: %llu hits, %llu misses (%.1f%%)\n",
                  (unsigned long long)CacheHits,
                  (unsigned long long)CacheMisses,
                  100.0 * CacheHits / (CacheHits + CacheMisses));
    Out += Buf;
  }
  if (ComponentSkips > 0) {
    std::snprintf(Buf, sizeof(Buf),
                  "*** Warm start: %llu component replays, %llu "
                  "evaluations avoided, %llu summaries reused\n",
                  (unsigned long long)ComponentSkips,
                  (unsigned long long)SkippedSteps,
                  (unsigned long long)SummaryReuses);
    Out += Buf;
  }
  if (DemandedComponents + SkippedByDemand > 0) {
    std::snprintf(Buf, sizeof(Buf),
                  "*** Demand cone: %llu components solved, %llu "
                  "skipped\n",
                  (unsigned long long)DemandedComponents,
                  (unsigned long long)SkippedByDemand);
    Out += Buf;
  }
  return Out;
}

json::Value PhaseStats::toJson() const {
  json::Value V = json::Value::object();
  V.set("name", Name);
  V.set("round", static_cast<int64_t>(Round));
  V.set("widening_steps", static_cast<int64_t>(WideningSteps));
  V.set("narrowing_steps", static_cast<int64_t>(NarrowingSteps));
  V.set("component_skips", static_cast<int64_t>(ComponentSkips));
  V.set("skipped_steps", static_cast<int64_t>(SkippedSteps));
  V.set("stable_input_skips", static_cast<int64_t>(StableInputSkips));
  V.set("seconds", Seconds);
  return V;
}

json::Value AnalysisStats::toJson() const {
  json::Value V = json::Value::object();
  V.set("control_points", static_cast<int64_t>(ControlPoints));
  V.set("equations", static_cast<int64_t>(Equations));
  V.set("unions", static_cast<int64_t>(Unions));
  V.set("widenings", static_cast<int64_t>(Widenings));
  V.set("narrowings", static_cast<int64_t>(Narrowings));
  V.set("cache_hits", static_cast<int64_t>(CacheHits));
  V.set("cache_misses", static_cast<int64_t>(CacheMisses));
  V.set("component_skips", static_cast<int64_t>(ComponentSkips));
  V.set("skipped_steps", static_cast<int64_t>(SkippedSteps));
  V.set("stable_input_skips", static_cast<int64_t>(StableInputSkips));
  V.set("summary_reuses", static_cast<int64_t>(SummaryReuses));
  V.set("demanded_components", static_cast<int64_t>(DemandedComponents));
  V.set("skipped_by_demand", static_cast<int64_t>(SkippedByDemand));
  V.set("bytes_used", static_cast<int64_t>(BytesUsed));
  V.set("cpu_seconds", CpuSeconds);
  json::Value Ps = json::Value::array();
  for (const PhaseStats &P : Phases)
    Ps.push(P.toJson());
  V.set("phases", std::move(Ps));
  return V;
}
