//===- perfbench/driver/HostSpeed.h - Host speed reference ------*- C++ -*-===//
///
/// \file
/// A fixed unit of reference work, independent of the code under test,
/// timed between the closed loop's load periods. A shared virtual host
/// changes speed for minutes at a time as its neighbours' load changes;
/// the timed run multiplies its times by how fast the reference work ran
/// (hostFactor()), so that two runs made in different phases read the
/// same. See perfbench/README.md, "Host speed".
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOSTSPEED_H
#define PERFBENCH_HOSTSPEED_H

#include <vector>

namespace perfbench {

/// What the reference work takes, in ms, on the reference host: the
/// 4-vCPU Xeon VM the benchmark was recorded on, in a median phase.
inline constexpr double ReferenceWorkMs = 10.0;

/// One timing of the reference work, per thread.
struct HostSample {
  double WallMs = 0;
  double CpuMs = 0;
};

/// The reference work done once by each of \p Threads threads side by
/// side; their mean wall and CPU time.
HostSample referenceWork(unsigned Threads);

/// ReferenceWorkMs over the median of \p Samples' \p Field: below 1 when
/// the host ran slower than the reference host, above 1 when faster. A
/// time measured on the host, multiplied by it, reads as on the
/// reference host.
double hostFactor(const std::vector<HostSample> &Samples,
                  double HostSample::*Field);

} // namespace perfbench

#endif // PERFBENCH_HOSTSPEED_H
