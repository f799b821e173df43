//===- frontend/Token.h - Pascal token definitions --------------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokens of the analyzed Pascal subset. Keywords are case-insensitive, as
/// in standard Pascal. Two keywords extend the language with the paper's
/// assertions: `invariant` and `intermittent` (plus `assert` as an alias
/// of `invariant`).
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_FRONTEND_TOKEN_H
#define SYNTOX_FRONTEND_TOKEN_H

#include "support/SourceLoc.h"

#include <cstdint>
#include <string>

namespace syntox {

enum class TokenKind {
  // Punctuation and operators.
  EndOfFile,
  Identifier,
  IntLiteral,
  StringLiteral, // 'text' (write/writeln arguments only)
  Plus,       // +
  Minus,      // -
  Star,       // *
  Slash,      // / (real division; rejected by sema, lexed for diagnostics)
  Assign,     // :=
  Equal,      // =
  NotEqual,   // <>
  Less,       // <
  LessEq,     // <=
  Greater,    // >
  GreaterEq,  // >=
  LParen,     // (
  RParen,     // )
  LBracket,   // [
  RBracket,   // ]
  Comma,      // ,
  Semicolon,  // ;
  Colon,      // :
  Dot,        // .
  DotDot,     // ..
  // Keywords.
  KwProgram,
  KwLabel,
  KwConst,
  KwType,
  KwVar,
  KwProcedure,
  KwFunction,
  KwBegin,
  KwEnd,
  KwIf,
  KwThen,
  KwElse,
  KwWhile,
  KwDo,
  KwRepeat,
  KwUntil,
  KwFor,
  KwTo,
  KwDownto,
  KwCase,
  KwOf,
  KwGoto,
  KwDiv,
  KwMod,
  KwAnd,
  KwOr,
  KwNot,
  KwArray,
  KwTrue,
  KwFalse,
  // Assertion extensions (paper §1/§2).
  KwInvariant,
  KwIntermittent,
  // Lexer error.
  Unknown,
};

/// Returns a human-readable spelling for diagnostics ("':='", "'begin'").
const char *tokenKindName(TokenKind Kind);

/// One lexed token. Identifier text is lower-cased (Pascal is
/// case-insensitive); the literal value of IntLiteral is pre-parsed.
struct Token {
  TokenKind Kind = TokenKind::EndOfFile;
  SourceLoc Loc;
  std::string Text;     ///< normalized identifier text, or raw spelling
  int64_t IntValue = 0; ///< value for IntLiteral

  bool is(TokenKind K) const { return Kind == K; }
};

} // namespace syntox

#endif // SYNTOX_FRONTEND_TOKEN_H
