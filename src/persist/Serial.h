//===- persist/Serial.h - Byte-level cache file codec -----------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The little-endian byte codec of the persistent warm-start cache
/// (persist/WarmCache.h): fixed-width integers for hashes, LEB128
/// varints for counts and indices, zigzag varints for interval bounds.
/// The reader is fail-soft — any out-of-bounds or malformed read sets a
/// sticky failure flag and yields zeros — so a truncated or corrupted
/// file parses to garbage that the caller rejects wholesale instead of
/// crashing, which is exactly the fallback-to-cold contract.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_PERSIST_SERIAL_H
#define SYNTOX_PERSIST_SERIAL_H

#include <cstdint>
#include <cstring>
#include <string>

namespace syntox {
namespace persist {

/// Appends primitive values to a byte buffer.
class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }
  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      u8(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      u8(static_cast<uint8_t>(V >> (8 * I)));
  }
  /// Unsigned LEB128.
  void varint(uint64_t V) {
    while (V >= 0x80) {
      u8(static_cast<uint8_t>(V) | 0x80);
      V >>= 7;
    }
    u8(static_cast<uint8_t>(V));
  }
  /// Zigzag-encoded signed LEB128 (small magnitudes stay small).
  void svarint(int64_t V) {
    varint((static_cast<uint64_t>(V) << 1) ^
           static_cast<uint64_t>(V >> 63));
  }
  void bytes(const void *Data, size_t Len) {
    Buf.append(static_cast<const char *>(Data), Len);
  }
  void append(const ByteWriter &Other) { Buf += Other.Buf; }
  /// Overwrites the bytes from \p At on with \p Other's (a header
  /// written last, over its placeholder).
  void patch(size_t At, const ByteWriter &Other) {
    Buf.replace(At, Other.size(), Other.Buf);
  }
  /// Drops every byte from \p Len on.
  void truncate(size_t Len) { Buf.resize(Len); }
  void reserve(size_t Len) { Buf.reserve(Len); }

  const std::string &buffer() const { return Buf; }
  size_t size() const { return Buf.size(); }

private:
  std::string Buf;
};

/// Reads primitive values back; sticky failure on any malformed input.
class ByteReader {
public:
  ByteReader(const void *Data, size_t Len)
      : Ptr(static_cast<const uint8_t *>(Data)),
        End(static_cast<const uint8_t *>(Data) + Len) {}

  uint8_t u8() {
    if (Ptr >= End) {
      Fail = true;
      return 0;
    }
    return *Ptr++;
  }
  uint32_t u32() {
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(u8()) << (8 * I);
    return V;
  }
  uint64_t u64() {
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(u8()) << (8 * I);
    return V;
  }
  uint64_t varint() {
    uint64_t V = 0;
    for (unsigned Shift = 0; Shift < 64; Shift += 7) {
      uint8_t B = u8();
      V |= static_cast<uint64_t>(B & 0x7F) << Shift;
      if (!(B & 0x80))
        return V;
    }
    Fail = true; // over-long encoding
    return 0;
  }
  int64_t svarint() {
    uint64_t Z = varint();
    return static_cast<int64_t>((Z >> 1) ^ (~(Z & 1) + 1));
  }

  bool failed() const { return Fail; }
  bool atEnd() const { return Ptr == End; }
  size_t remaining() const { return static_cast<size_t>(End - Ptr); }

private:
  const uint8_t *Ptr;
  const uint8_t *End;
  bool Fail = false;
};

/// FNV-1a over a byte range — the body checksum of the cache file.
inline uint64_t fnv1a(const void *Data, size_t Len) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  uint64_t H = 0xcbf29ce484222325ull;
  for (size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

} // namespace persist
} // namespace syntox

#endif // SYNTOX_PERSIST_SERIAL_H
