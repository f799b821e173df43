//===- baselines/Baselines.cpp - Comparator analyses ----------------------===//

#include "baselines/Baselines.h"

#include <chrono>
#include <cstdio>

using namespace syntox;

const char *syntox::baselineKindName(BaselineKind Kind) {
  switch (Kind) {
  case BaselineKind::FullAbstractDebugging:
    return "abstract-debugging";
  case BaselineKind::ForwardOnly:
    return "forward-only";
  case BaselineKind::HarrisonGfp:
    return "harrison-gfp";
  case BaselineKind::ContextInsensitive:
    return "context-insensitive";
  }
  return "?";
}

AnalysisOptions syntox::baselineOptions(BaselineKind Kind) {
  AnalysisOptions Opts;
  switch (Kind) {
  case BaselineKind::FullAbstractDebugging:
    break;
  case BaselineKind::ForwardOnly:
    Opts.UseBackward = false;
    break;
  case BaselineKind::HarrisonGfp:
    Opts.HarrisonGfp = true;
    break;
  case BaselineKind::ContextInsensitive:
    Opts.ContextInsensitive = true;
    break;
  }
  return Opts;
}

std::string BaselineOutcome::str() const {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "%-20s checks: %u safe / %u total (%.0f%% eliminable), "
                "finite bounds: %llu, points: %llu, time: %.4fs",
                baselineKindName(Kind), Checks.Safe + Checks.Unreachable,
                Checks.Total, 100.0 * Checks.eliminationRatio(),
                (unsigned long long)FiniteBounds,
                (unsigned long long)ControlPoints, Seconds);
  return Buf;
}

BaselineOutcome syntox::runBaseline(BaselineKind Kind, const ProgramCfg &Cfg,
                                    RoutineDecl *Program) {
  BaselineOutcome Out;
  Out.Kind = Kind;
  auto Start = std::chrono::steady_clock::now();
  Analyzer An(Cfg, Program, baselineOptions(Kind));
  An.run();
  Out.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  Out.ControlPoints = An.graph().numNodes();

  CheckAnalysis Checks(An);
  Out.Checks = Checks.summary();

  const ValueDomain &D = An.storeOps().domain();
  for (unsigned Node = 0; Node < An.graph().numNodes(); ++Node) {
    const AbstractStore &S = An.forwardAt(Node);
    if (S.isBottom()) {
      ++Out.BottomPoints;
      continue;
    }
    S.forEachEntry([&](const VarDecl *, const AbsValue &Value) {
      if (!Value.isInt())
        return;
      const Interval &I = Value.asInt();
      Out.FiniteBounds += I.Lo > D.minValue();
      Out.FiniteBounds += I.Hi < D.maxValue();
    });
  }
  return Out;
}

std::vector<BaselineOutcome>
syntox::runAllBaselines(const ProgramCfg &Cfg, RoutineDecl *Program) {
  std::vector<BaselineOutcome> Out;
  for (BaselineKind Kind :
       {BaselineKind::FullAbstractDebugging, BaselineKind::ForwardOnly,
        BaselineKind::HarrisonGfp, BaselineKind::ContextInsensitive})
    Out.push_back(runBaseline(Kind, Cfg, Program));
  return Out;
}
