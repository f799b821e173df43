//===- frontend/Fingerprint.h - Reproducible 64-bit hash mixing -*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The FNV-1a style mixing step behind every hash that must come out the
/// same in every process and build: the program's token-stream identity
/// (RoutineDecl::tokenHash(), computed by Parser::parseProgram), which
/// the on-disk cache's program hash folds (persist/WarmCache.h), and the
/// daemon's cache shard names.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_FRONTEND_FINGERPRINT_H
#define SYNTOX_FRONTEND_FINGERPRINT_H

#include <cstdint>

namespace syntox {

inline uint64_t fpSeed() { return 0xcbf29ce484222325ull; }
inline uint64_t fpMix(uint64_t H, uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ull + (H << 12) + (H >> 3);
  return H * 0x100000001b3ull;
}

} // namespace syntox

#endif // SYNTOX_FRONTEND_FINGERPRINT_H
