//===- support/Json.cpp ---------------------------------------------------===//

#include "support/Json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>

using namespace syntox;
using namespace syntox::json;

//===----------------------------------------------------------------------===//
// Value
//===----------------------------------------------------------------------===//

void Value::set(const std::string &Key, Value V) {
  for (auto &[K2, V2] : Members)
    if (K2 == Key) {
      V2 = std::move(V);
      return;
    }
  Members.emplace_back(Key, std::move(V));
}

const Value *Value::find(const std::string &Key) const {
  for (const auto &[K2, V2] : Members)
    if (K2 == Key)
      return &V2;
  return nullptr;
}

bool Value::operator==(const Value &Other) const {
  if (K != Other.K) {
    // Ints and doubles compare by numeric value (a parsed "1.0" matches
    // an emitted integer 1).
    if (isNumber() && Other.isNumber())
      return asDouble() == Other.asDouble();
    return false;
  }
  switch (K) {
  case Kind::Null:
    return true;
  case Kind::Bool:
    return BoolVal == Other.BoolVal;
  case Kind::Int:
    return IntVal == Other.IntVal;
  case Kind::Double:
    return DoubleVal == Other.DoubleVal;
  case Kind::String:
    return StrVal == Other.StrVal;
  case Kind::Array:
    return Elems == Other.Elems;
  case Kind::Object:
    if (Members.size() != Other.Members.size())
      return false;
    // Key order is irrelevant for equality.
    for (const auto &[Key, V] : Members) {
      const Value *O = Other.find(Key);
      if (!O || !(V == *O))
        return false;
    }
    return true;
  }
  return false;
}

void json::escape(const std::string &S, std::string &Out) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

std::string json::quoted(const std::string &S) {
  std::string Out = "\"";
  escape(S, Out);
  Out += '"';
  return Out;
}

void Value::write(std::string &Out, int Indent, int Depth) const {
  auto Newline = [&](int D) {
    if (Indent < 0)
      return;
    Out += '\n';
    Out.append(static_cast<size_t>(Indent) * D, ' ');
  };
  switch (K) {
  case Kind::Null:
    Out += "null";
    break;
  case Kind::Bool:
    Out += BoolVal ? "true" : "false";
    break;
  case Kind::Int: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%lld", (long long)IntVal);
    Out += Buf;
    break;
  }
  case Kind::Double: {
    if (!std::isfinite(DoubleVal)) {
      Out += "null"; // JSON has no inf/nan
      break;
    }
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.17g", DoubleVal);
    Out += Buf;
    break;
  }
  case Kind::String:
    Out += quoted(StrVal);
    break;
  case Kind::Array:
    Out += '[';
    for (size_t I = 0; I < Elems.size(); ++I) {
      if (I)
        Out += Indent < 0 ? "," : ", ";
      Newline(Depth + 1);
      Elems[I].write(Out, Indent, Depth + 1);
    }
    if (!Elems.empty())
      Newline(Depth);
    Out += ']';
    break;
  case Kind::Object:
    Out += '{';
    for (size_t I = 0; I < Members.size(); ++I) {
      if (I)
        Out += Indent < 0 ? "," : ", ";
      Newline(Depth + 1);
      Out += quoted(Members[I].first);
      Out += Indent < 0 ? ":" : ": ";
      Members[I].second.write(Out, Indent, Depth + 1);
    }
    if (!Members.empty())
      Newline(Depth);
    Out += '}';
    break;
  }
}

std::string Value::str() const {
  std::string Out;
  write(Out, /*Indent=*/-1, 0);
  return Out;
}

std::string Value::pretty() const {
  std::string Out;
  write(Out, /*Indent=*/2, 0);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

struct Parser {
  const std::string &Text;
  size_t Pos = 0;
  std::string Error;

  explicit Parser(const std::string &Text) : Text(Text) {}

  bool fail(const std::string &Why) {
    if (Error.empty())
      Error = Why + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() && std::isspace(
                                    static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool literal(const char *Lit) {
    size_t N = std::strlen(Lit);
    if (Text.compare(Pos, N, Lit) != 0)
      return fail(std::string("expected '") + Lit + "'");
    Pos += N;
    return true;
  }

  bool parseString(std::string &Out) {
    if (Text[Pos] != '"')
      return fail("expected string");
    ++Pos;
    while (Pos < Text.size() && Text[Pos] != '"') {
      char C = Text[Pos];
      if (C == '\\') {
        if (++Pos >= Text.size())
          return fail("unterminated escape");
        switch (Text[Pos]) {
        case '"':
          Out += '"';
          break;
        case '\\':
          Out += '\\';
          break;
        case '/':
          Out += '/';
          break;
        case 'n':
          Out += '\n';
          break;
        case 'r':
          Out += '\r';
          break;
        case 't':
          Out += '\t';
          break;
        case 'b':
          Out += '\b';
          break;
        case 'f':
          Out += '\f';
          break;
        case 'u': {
          if (Pos + 4 >= Text.size())
            return fail("bad \\u escape");
          unsigned Code = 0;
          for (int I = 0; I < 4; ++I) {
            char H = Text[Pos + 1 + I];
            Code <<= 4;
            if (H >= '0' && H <= '9')
              Code |= H - '0';
            else if (H >= 'a' && H <= 'f')
              Code |= H - 'a' + 10;
            else if (H >= 'A' && H <= 'F')
              Code |= H - 'A' + 10;
            else
              return fail("bad \\u escape");
          }
          Pos += 4;
          // UTF-8 encode (no surrogate-pair handling: telemetry strings
          // are ASCII).
          if (Code < 0x80) {
            Out += static_cast<char>(Code);
          } else if (Code < 0x800) {
            Out += static_cast<char>(0xC0 | (Code >> 6));
            Out += static_cast<char>(0x80 | (Code & 0x3F));
          } else {
            Out += static_cast<char>(0xE0 | (Code >> 12));
            Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
            Out += static_cast<char>(0x80 | (Code & 0x3F));
          }
          break;
        }
        default:
          return fail("unknown escape");
        }
        ++Pos;
      } else {
        Out += C;
        ++Pos;
      }
    }
    if (Pos >= Text.size())
      return fail("unterminated string");
    ++Pos; // closing quote
    return true;
  }

  /// Parses one value nested inside \p Depth arrays and objects.
  bool parseValue(Value &Out, unsigned Depth) {
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if ((C == '[' || C == '{') && Depth == MaxNestingDepth)
      return fail("nesting deeper than " + std::to_string(MaxNestingDepth) +
                  " levels");
    if (C == 'n') {
      if (!literal("null"))
        return false;
      Out = Value();
      return true;
    }
    if (C == 't') {
      if (!literal("true"))
        return false;
      Out = Value(true);
      return true;
    }
    if (C == 'f') {
      if (!literal("false"))
        return false;
      Out = Value(false);
      return true;
    }
    if (C == '"') {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Value(std::move(S));
      return true;
    }
    if (C == '[') {
      ++Pos;
      Out = Value::array();
      skipWs();
      if (Pos < Text.size() && Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      for (;;) {
        Value Elem;
        if (!parseValue(Elem, Depth + 1))
          return false;
        Out.push(std::move(Elem));
        skipWs();
        if (Pos >= Text.size())
          return fail("unterminated array");
        if (Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Text[Pos] == ']') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (C == '{') {
      ++Pos;
      Out = Value::object();
      skipWs();
      if (Pos < Text.size() && Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      for (;;) {
        skipWs();
        std::string Key;
        if (Pos >= Text.size() || !parseString(Key))
          return fail("expected object key");
        skipWs();
        if (Pos >= Text.size() || Text[Pos] != ':')
          return fail("expected ':'");
        ++Pos;
        Value Member;
        if (!parseValue(Member, Depth + 1))
          return false;
        Out.set(Key, std::move(Member));
        skipWs();
        if (Pos >= Text.size())
          return fail("unterminated object");
        if (Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Text[Pos] == '}') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    // Number.
    size_t Start = Pos;
    if (C == '-')
      ++Pos;
    bool IsDouble = false;
    while (Pos < Text.size()) {
      char D = Text[Pos];
      if (std::isdigit(static_cast<unsigned char>(D))) {
        ++Pos;
      } else if (D == '.' || D == 'e' || D == 'E' || D == '+' || D == '-') {
        IsDouble = true;
        ++Pos;
      } else {
        break;
      }
    }
    if (Pos == Start || (Pos == Start + 1 && C == '-'))
      return fail("expected value");
    std::string Num = Text.substr(Start, Pos - Start);
    if (IsDouble)
      Out = Value(std::strtod(Num.c_str(), nullptr));
    else
      Out = Value(static_cast<int64_t>(std::strtoll(Num.c_str(), nullptr,
                                                    10)));
    return true;
  }
};

} // namespace

std::optional<Value> json::parse(const std::string &Text,
                                 std::string *Error) {
  Parser P(Text);
  Value V;
  if (!P.parseValue(V, 0)) {
    if (Error)
      *Error = P.Error;
    return std::nullopt;
  }
  P.skipWs();
  if (P.Pos != Text.size()) {
    if (Error)
      *Error = "trailing characters at offset " + std::to_string(P.Pos);
    return std::nullopt;
  }
  return V;
}
