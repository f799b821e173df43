//===- perfbench/driver/Reference.h - Answer checks -------------*- C++ -*-===//
///
/// \file
/// What a correct answer is. Every response's findings, minus `stats`
/// and `metrics`, must equal a cold, cache-free, single-threaded
/// in-process runRequest of the same source (the reference). The
/// reference itself is checked two independent ways:
///  - on generated programs, a concrete Interpreter run must end inside
///    the forward invariant at program exit;
///  - on the paper's §6.5 programs, every runtime check must be
///    statically safe.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include "Workload.h"

#include "support/Json.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Fingerprint (frontend/Fingerprint.h) of the findings document without
/// its `stats` and `metrics` members — the bitwise-comparison payload.
uint64_t findingsHash(const syntox::json::Value &Findings);

/// The checked reference answer for one source.
struct Reference {
  bool OK = false;
  std::string Error;        ///< why the reference (or its check) failed
  uint64_t FindingsHash = 0;
  /// Interpreter cross-check (generated programs only): the concrete
  /// run reached program exit and every variable was inside the forward
  /// invariant there. False when the run stopped at a violated
  /// invariant assertion instead (the forward invariant legitimately
  /// excludes such runs, so there is nothing to contain).
  bool InterpreterReachedExit = false;
};

/// Computes the checked reference of every request, on \p Threads
/// worker threads (each reference itself runs single-threaded).
/// Requests with equal sources share one computation.
std::vector<Reference> computeReferences(const std::vector<const Request *> &Rs,
                                         unsigned Threads);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
