//===- perfbench/driver/Workload.h - Seeded request streams -----*- C++ -*-===//
///
/// \file
/// The three perfbench workloads as deterministic request streams: the
/// same (workload, seed) pair yields the same sequence of analyze
/// requests, byte for byte, in the timed run, the traced replay and the
/// reference checker. The daemon only ever sees the rendered request
/// lines (requestLine()).
///
///   cold  never-seen RandomProgramGen programs, families round-robin
///   edit  a document pool resubmitted with recency-skewed choice, most
///         requests carrying a one-literal edit, all with a cache_key
///   deep  passes of a fixed deck of solver-heavy programs (McCarthy_k,
///         loop chains, the paper's §6.5 programs), each program's
///         copies spread evenly over a pass at a phase drawn from the
///         seed, each request made unique by a trailing comment
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// One analyze request of a workload's sequence.
struct Request {
  uint64_t Index = 0;   ///< position in the sequence; the wire id is "r<Index>"
  std::string Source;   ///< program text
  std::string CacheKey; ///< document identity; empty = no cache_key member
  std::string Group;    ///< per-group row: family (cold/edit) or program (deep)
  /// A RandomProgramGen program: the interpreter cross-check applies.
  bool Generated = false;
  /// A paper §6.5 program whose every check must be statically safe.
  bool ExpectAllSafe = false;
};

/// The daemon flags, client concurrency and request stream of one
/// workload.
class Workload {
public:
  /// Null for an unknown workload name.
  static std::unique_ptr<Workload> create(const std::string &Name,
                                          uint64_t Seed);
  virtual ~Workload() = default;

  /// Requests the closed-loop client keeps in flight.
  virtual unsigned outstanding() const = 0;
  /// Byte cap of the daemon's on-disk cache; 0 = no cache directory
  /// (requests then carry no cache_key either).
  virtual uint64_t cacheMaxBytes() const { return 0; }
  /// The syntox_serve flags of this workload (paths relative to the
  /// daemon's working directory); everything else is the default.
  std::vector<std::string> daemonFlags() const;
  /// Requests sent once after launch, as part of set-up (edit primes
  /// every document of its pool).
  virtual std::vector<Request> priming() { return {}; }
  /// The next request of the timed sequence.
  virtual Request next() = 0;
};

/// The JSON-lines analyze request the daemon receives for \p R.
std::string requestLine(const Request &R);

/// The envelope id of \p R's request and response: "r<Index>".
std::string wireId(const Request &R);

/// Fingerprint of the request lines workload \p Name sends at seed 1:
/// its priming requests and its first 64 timed ones.
uint64_t inputsFingerprint(const std::string &Name);

/// inputsFingerprint() of each workload as the benchmark was recorded
/// with. Runs refuse other inputs, so that a change to the generator or
/// the programs the workloads draw from cannot silently change what a
/// parent-versus-change comparison measures.
uint64_t recordedInputsFingerprint(const std::string &Name);

/// The daemon's cache directory, relative to its working directory.
inline constexpr const char *CacheDir = "cache";

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
