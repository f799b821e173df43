//===- frontend/Parser.h - Pascal parser ------------------------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for the Pascal subset. Like classic one-pass
/// Pascal compilers it folds constants and resolves type names while
/// parsing (both must be declared before use), so subrange bounds like
/// `1..n` with `const n = 100` work. Name resolution and type checking of
/// expressions and statements are done later by Sema.
///
/// On a syntax error, the parser reports a diagnostic and synchronizes to
/// the next statement boundary, so one broken statement does not hide the
/// rest of the file.
///
/// Nesting is bounded by MaxNestingDepth: past it the parser reports one
/// error naming the limit and stops, so neither it nor the passes that
/// recurse over the tree (Sema, CfgBuilder, the interpreter, the printer,
/// the expression semantics) can exhaust a thread's stack on hostile
/// input.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_FRONTEND_PARSER_H
#define SYNTOX_FRONTEND_PARSER_H

#include "frontend/Ast.h"
#include "frontend/Token.h"
#include "support/Diagnostics.h"

#include <optional>
#include <unordered_map>
#include <vector>

namespace syntox {

class Parser {
public:
  /// The most levels of nesting a program may hold open at once. Each
  /// statement, routine declaration and expression factor counts one
  /// level while it is being parsed, and so does each operator of a
  /// left-associative chain (`a + b + c` builds a tree as deep as its
  /// operator count). Real programs stay within a few dozen levels; at
  /// this limit every pass that recurses over the tree stays within a
  /// small fraction of an 8 MiB thread stack.
  static constexpr unsigned MaxNestingDepth = 512;

  Parser(std::vector<Token> Tokens, AstContext &Ctx, DiagnosticsEngine &Diags)
      : Tokens(std::move(Tokens)), Ctx(Ctx), Diags(Diags) {}

  /// Parses a whole `program ... .` unit. Returns null when errors make
  /// the tree unusable (nesting past MaxNestingDepth included); partial
  /// errors still return a best-effort tree with diagnostics reported.
  /// The returned program carries the hash of the whole token stream
  /// (RoutineDecl::tokenHash()).
  RoutineDecl *parseProgram();

private:
  /// Holds nesting levels for the lifetime of one production and gives
  /// them back when it returns.
  class Nesting {
  public:
    explicit Nesting(Parser &P) : P(P) {}
    ~Nesting() { P.Depth -= Levels; }
    Nesting(const Nesting &) = delete;
    Nesting &operator=(const Nesting &) = delete;
    /// Opens one more level; false once parsing has stopped at the
    /// limit.
    bool enter() {
      ++Levels;
      return P.nest();
    }

  private:
    Parser &P;
    unsigned Levels = 0;
  };

  /// Counts one level; past MaxNestingDepth reports the limit once and
  /// stops parsing by jumping to the end of input. Returns !Stopped.
  bool nest();
  /// Reports a syntax error, unless parsing has stopped: after the stop,
  /// errors describe the truncated input, not the source.
  void error(SourceLoc Loc, std::string Message);

  // Token stream helpers.
  const Token &peek(unsigned Ahead = 0) const;
  const Token &current() const { return peek(); }
  Token advance();
  bool check(TokenKind K) const { return current().is(K); }
  bool match(TokenKind K);
  /// Consumes a token of kind \p K or reports "expected ...".
  bool expect(TokenKind K, const char *Context);
  void syncToStatementBoundary();

  // Grammar productions.
  Block *parseBlock(RoutineDecl *Owner);
  void parseLabelSection(Block *B);
  void parseConstSection(Block *B);
  void parseTypeSection(Block *B);
  void parseVarSection(Block *B);
  RoutineDecl *parseRoutine();
  std::vector<VarDecl *> parseFormalParams();
  const Type *parseTypeExpr();
  const Type *parseNamedType();
  std::optional<int64_t> parseConstValue();

  CompoundStmt *parseCompound();
  Stmt *parseStatement();
  Stmt *parseUnlabeledStatement();
  Stmt *parseIdentifierStatement();
  Stmt *parseIf();
  Stmt *parseWhile();
  Stmt *parseRepeat();
  Stmt *parseFor();
  Stmt *parseCase();
  Stmt *parseGoto();
  Stmt *parseAssert(bool Intermittent);
  std::vector<Stmt *> parseStatementList(
      std::initializer_list<TokenKind> Terminators);

  Expr *parseExpr();
  Expr *parseSimpleExpr();
  Expr *parseTerm();
  Expr *parseFactor();
  std::vector<Expr *> parseArgs();

  // Single-pass scopes for constants and type names.
  struct Scope {
    std::unordered_map<std::string, const ConstDecl *> Consts;
    std::unordered_map<std::string, const Type *> Types;
  };
  void pushScope() { Scopes.emplace_back(); }
  void popScope() { Scopes.pop_back(); }
  const ConstDecl *lookupConst(const std::string &Name) const;
  const Type *lookupType(const std::string &Name) const;

  std::vector<Token> Tokens;
  AstContext &Ctx;
  DiagnosticsEngine &Diags;
  size_t Pos = 0;
  std::vector<Scope> Scopes;
  unsigned Depth = 0;   ///< nesting levels open (see MaxNestingDepth)
  bool Stopped = false; ///< the nesting limit stopped the parse
};

} // namespace syntox

#endif // SYNTOX_FRONTEND_PARSER_H
