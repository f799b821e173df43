//===- support/Json.h - Minimal JSON value, writer and parser ---*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small self-contained JSON library backing the telemetry exporters
/// (JSON-lines traces, Chrome trace_event files, metrics dumps) and the
/// machine-readable findings serialization of the session API. Writing
/// keeps object keys in insertion order so emitted files are
/// deterministic and diffable; parsing exists so tests can round-trip
/// and schema-validate every emitted artifact without external
/// dependencies.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_SUPPORT_JSON_H
#define SYNTOX_SUPPORT_JSON_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace syntox {
namespace json {

/// One JSON value. Objects preserve insertion order (deterministic
/// output); lookups are linear, which is fine at telemetry sizes.
class Value {
public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  Value() : K(Kind::Null) {}
  Value(std::nullptr_t) : K(Kind::Null) {}
  Value(bool B) : K(Kind::Bool), BoolVal(B) {}
  Value(int64_t I) : K(Kind::Int), IntVal(I) {}
  Value(int I) : K(Kind::Int), IntVal(I) {}
  Value(unsigned I) : K(Kind::Int), IntVal(I) {}
  Value(uint64_t I) : K(Kind::Int), IntVal(static_cast<int64_t>(I)) {}
  Value(double D) : K(Kind::Double), DoubleVal(D) {}
  Value(std::string S) : K(Kind::String), StrVal(std::move(S)) {}
  Value(const char *S) : K(Kind::String), StrVal(S) {}

  static Value array() {
    Value V;
    V.K = Kind::Array;
    return V;
  }
  static Value object() {
    Value V;
    V.K = Kind::Object;
    return V;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isInt() const { return K == Kind::Int; }
  bool isNumber() const { return K == Kind::Int || K == Kind::Double; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const { return BoolVal; }
  int64_t asInt() const {
    return K == Kind::Double ? static_cast<int64_t>(DoubleVal) : IntVal;
  }
  double asDouble() const {
    return K == Kind::Int ? static_cast<double>(IntVal) : DoubleVal;
  }
  const std::string &asString() const { return StrVal; }

  /// \name Array interface
  /// @{
  void push(Value V) { Elems.push_back(std::move(V)); }
  size_t size() const { return Elems.size(); }
  const Value &at(size_t I) const { return Elems[I]; }
  const std::vector<Value> &elements() const { return Elems; }
  /// @}

  /// \name Object interface
  /// @{
  /// Sets \p Key (replacing an existing binding, keeping its position).
  void set(const std::string &Key, Value V);
  /// Member lookup; null when absent.
  const Value *find(const std::string &Key) const;
  bool has(const std::string &Key) const { return find(Key) != nullptr; }
  const std::vector<std::pair<std::string, Value>> &members() const {
    return Members;
  }
  /// @}

  /// Serializes compactly (single line, no trailing newline).
  std::string str() const;
  /// Serializes with 2-space indentation.
  std::string pretty() const;

  bool operator==(const Value &Other) const;

private:
  void write(std::string &Out, int Indent, int Depth) const;

  Kind K;
  bool BoolVal = false;
  int64_t IntVal = 0;
  double DoubleVal = 0;
  std::string StrVal;
  std::vector<Value> Elems;
  std::vector<std::pair<std::string, Value>> Members;
};

/// Appends the JSON escaping of \p S (without surrounding quotes).
void escape(const std::string &S, std::string &Out);
/// "quoted-and-escaped" rendering of \p S.
std::string quoted(const std::string &S);

/// The most arrays and objects parse() lets a document open at once.
/// The parser recurses once per level, so the limit bounds its stack
/// on hostile input; real documents nest a handful of levels.
inline constexpr unsigned MaxNestingDepth = 512;

/// Parses one JSON document. Returns nullopt on malformed input (nesting
/// past MaxNestingDepth included) and, when \p Error is given, stores a
/// short reason with an offset.
std::optional<Value> parse(const std::string &Text,
                           std::string *Error = nullptr);

} // namespace json
} // namespace syntox

#endif // SYNTOX_SUPPORT_JSON_H
