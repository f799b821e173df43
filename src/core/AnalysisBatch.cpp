//===- core/AnalysisBatch.cpp - Cross-request analysis scheduling ---------===//

#include "core/AnalysisBatch.h"

#include "support/ThreadPool.h"

using namespace syntox;

unsigned AnalysisBatch::add(AnalysisRequest R) {
  unsigned Index = size();
  // Route every session's metrics into the batch registry. The session
  // only substitutes its own registry when none is set, so the batch
  // one sticks; the registry is thread-safe, so concurrent requests may
  // report into it freely.
  R.Opts.Telem.Metrics = &Metrics;
  Requests.push_back(std::move(R));
  return Index;
}

unsigned AnalysisBatch::add(std::string Source, AnalysisOptions Opts) {
  AnalysisRequest R;
  R.Source = std::move(Source);
  R.Opts = std::move(Opts);
  return add(std::move(R));
}

std::vector<AnalysisBatch::Outcome> AnalysisBatch::runAll() {
  std::vector<Outcome> Outcomes(Requests.size());
  {
    ThreadPool Pool(Cfg.TotalThreads);
    for (size_t I = 0; I < Requests.size(); ++I)
      Pool.submit([this, I, &Outcomes] {
        Outcome &O = Outcomes[I];
        O = runRequest(Requests[I]);
        O.Index = static_cast<unsigned>(I);
        Metrics.histogram("batch.request_seconds").observe(O.Seconds);
      });
    // wait() publishes every outcome slot to this thread.
    Pool.wait();
  }
  Metrics.counter("batch.requests").inc(Requests.size());
  return Outcomes;
}
