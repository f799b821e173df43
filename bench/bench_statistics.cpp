//===- bench/bench_statistics.cpp - E4: the Figure 4 statistics table -----===//
//
// Regenerates Figure 4: program size (control points after unfolding the
// interprocedural call graph), allocated memory, and analysis time, for
// the paper's benchmark set. The paper's numbers (DEC 5000/200 Ultrix):
//
//     Program      Size   Memory    Time
//     Fact           24    44 kb   0.5 s
//     Select         61    64 kb   0.9 s
//     Ackermann      72    99 kb   1.9 s
//     QuickSort      92    98 kb   2.1 s
//     HeapSort       96   108 kb   2.4 s
//     McCarthy9     176   230 kb   5.4 s
//     McCarthy30   1184  3387 kb 153.3 s
//
// Absolute values differ (hardware, encoding); the shape to check: sizes
// ordered the same way, near-linear growth except McCarthy30, which blows
// up super-linearly ("intrinsically complex programs").
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "core/AbstractDebugger.h"
#include "frontend/PaperPrograms.h"

#include <chrono>
#include <cstdio>
#include <string>

using namespace syntox;

namespace {

struct PaperRow {
  unsigned Size;
  unsigned MemoryKb;
  double Seconds;
};

void row(bench::Harness &H, const char *Name, const std::string &Source,
         PaperRow Paper) {
  // Best of three runs for the time column, each on a fresh debugger:
  // an engine runs once.
  double Best = 1e9;
  std::unique_ptr<AbstractDebugger> Dbg;
  for (int K = 0; K < 3; ++K) {
    DiagnosticsEngine Diags;
    Dbg = AbstractDebugger::create(Source, Diags, H.options());
    if (!Dbg) {
      std::printf("%-12s frontend error\n", Name);
      return;
    }
    auto Start = std::chrono::steady_clock::now();
    Dbg->analyze();
    double T = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - Start)
                   .count();
    Best = std::min(Best, T);
  }
  const AnalysisStats &S = Dbg->stats();
  H.recordPhases(Name, S, Best);
  std::printf("%-12s %8llu %9llu kb %9.4f s   | paper: %5u %6u kb %7.1f s\n",
              Name, (unsigned long long)S.ControlPoints,
              (unsigned long long)(S.BytesUsed / 1024), Best, Paper.Size,
              Paper.MemoryKb, Paper.Seconds);
  json::Value Row = json::Value::object();
  Row.set("program", Name);
  Row.set("size", S.ControlPoints);
  Row.set("memory_kb", S.BytesUsed / 1024);
  Row.set("seconds", Best);
  Row.set("paper_size", Paper.Size);
  Row.set("paper_memory_kb", Paper.MemoryKb);
  Row.set("paper_seconds", Paper.Seconds);
  H.row(std::move(Row));
}

} // namespace

int main(int argc, char **argv) {
  bench::Harness H("statistics", argc, argv);
  std::printf("==== E4: Figure 4 statistics "
              "(size = control points after unfolding) ====\n\n");
  std::printf("%-12s %8s %12s %11s\n", "Program", "Size", "Memory", "Time");
  row(H, "Fact", paper::FactProgram, {24, 44, 0.5});
  row(H, "Select", paper::SelectProgram, {61, 64, 0.9});
  row(H, "Ackermann", paper::AckermannProgram, {72, 99, 1.9});
  row(H, "QuickSort", paper::QuickSortProgram, {92, 98, 2.1});
  row(H, "HeapSort", paper::HeapSortProgram, {96, 108, 2.4});
  row(H, "McCarthy9", paper::mcCarthyK(9), {176, 230, 5.4});
  row(H, "McCarthy30", paper::mcCarthyK(30), {1184, 3387, 153.3});
  std::printf("\nShape: same ordering as the paper; McCarthy30 is the "
              "super-linear outlier.\n");
  H.write();
  return 0;
}
