//===- frontend/Parser.cpp - Pascal parser --------------------------------===//

#include "frontend/Parser.h"

#include "frontend/Fingerprint.h"

#include <cassert>

using namespace syntox;

namespace {

/// The program's identity (RoutineDecl::tokenHash()): every token's
/// kind, plus the spelling of identifiers and strings and the value of
/// integers. Locations are left out, and identifiers and keywords are
/// already lower-cased, so comment, layout and case edits keep it.
uint64_t hashTokens(const std::vector<Token> &Tokens) {
  uint64_t H = fpSeed();
  for (const Token &Tok : Tokens) {
    H = fpMix(H, static_cast<unsigned>(Tok.Kind));
    if (Tok.is(TokenKind::IntLiteral)) {
      H = fpMix(H, static_cast<uint64_t>(Tok.IntValue));
    } else if (Tok.is(TokenKind::Identifier) ||
               Tok.is(TokenKind::StringLiteral)) {
      H = fpMix(H, Tok.Text.size());
      for (unsigned char C : Tok.Text)
        H = fpMix(H, C);
    }
  }
  return H ? H : 1; // zero means "not a parsed program"
}

} // namespace

const Token &Parser::peek(unsigned Ahead) const {
  size_t Index = Pos + Ahead;
  if (Index >= Tokens.size())
    Index = Tokens.size() - 1; // EndOfFile sentinel
  return Tokens[Index];
}

Token Parser::advance() {
  Token Tok = current();
  if (Pos + 1 < Tokens.size())
    ++Pos;
  return Tok;
}

bool Parser::match(TokenKind K) {
  if (!check(K))
    return false;
  advance();
  return true;
}

void Parser::error(SourceLoc Loc, std::string Message) {
  if (!Stopped)
    Diags.error(Loc, std::move(Message));
}

bool Parser::nest() {
  if (Stopped)
    return false;
  if (++Depth <= MaxNestingDepth)
    return true;
  Diags.error(current().Loc,
              "nesting deeper than " + std::to_string(MaxNestingDepth) +
                  " levels (statements, routines and expression terms); "
                  "parsing stopped");
  Stopped = true;
  Pos = Tokens.size() - 1; // the EndOfFile sentinel
  return false;
}

bool Parser::expect(TokenKind K, const char *Context) {
  if (match(K))
    return true;
  error(current().Loc, std::string("expected ") + tokenKindName(K) +
                           " " + Context + ", found " +
                           tokenKindName(current().Kind));
  return false;
}

void Parser::syncToStatementBoundary() {
  while (!check(TokenKind::EndOfFile)) {
    switch (current().Kind) {
    case TokenKind::Semicolon:
      advance();
      return;
    case TokenKind::KwEnd:
    case TokenKind::KwUntil:
    case TokenKind::KwElse:
      return;
    default:
      advance();
    }
  }
}

const ConstDecl *Parser::lookupConst(const std::string &Name) const {
  for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
    auto Found = It->Consts.find(Name);
    if (Found != It->Consts.end())
      return Found->second;
  }
  return nullptr;
}

const Type *Parser::lookupType(const std::string &Name) const {
  for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
    auto Found = It->Types.find(Name);
    if (Found != It->Types.end())
      return Found->second;
  }
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Program structure
//===----------------------------------------------------------------------===//

RoutineDecl *Parser::parseProgram() {
  pushScope();
  if (!expect(TokenKind::KwProgram, "at start of unit"))
    return nullptr;
  if (!check(TokenKind::Identifier)) {
    error(current().Loc, "expected program name");
    return nullptr;
  }
  Token NameTok = advance();
  auto *Program = Ctx.create<RoutineDecl>(NameTok.Loc, NameTok.Text,
                                          RoutineDecl::RoutineKind::Program);
  // Optional standard file parameter list: program P(input, output);
  if (match(TokenKind::LParen)) {
    do {
      if (!expect(TokenKind::Identifier, "in program parameter list"))
        break;
    } while (match(TokenKind::Comma));
    expect(TokenKind::RParen, "after program parameters");
  }
  expect(TokenKind::Semicolon, "after program header");
  Block *B = parseBlock(Program);
  Program->setBlock(B);
  expect(TokenKind::Dot, "at end of program");
  popScope();
  if (Stopped)
    return nullptr;
  Program->setTokenHash(hashTokens(Tokens));
  return Program;
}

Block *Parser::parseBlock(RoutineDecl *Owner) {
  (void)Owner;
  auto *B = Ctx.create<Block>();
  if (check(TokenKind::KwLabel))
    parseLabelSection(B);
  if (check(TokenKind::KwConst))
    parseConstSection(B);
  if (check(TokenKind::KwType))
    parseTypeSection(B);
  if (check(TokenKind::KwVar))
    parseVarSection(B);
  while (check(TokenKind::KwProcedure) || check(TokenKind::KwFunction)) {
    if (RoutineDecl *R = parseRoutine())
      B->Routines.push_back(R);
  }
  B->Body = parseCompound();
  return B;
}

void Parser::parseLabelSection(Block *B) {
  advance(); // 'label'
  do {
    if (!check(TokenKind::IntLiteral)) {
      error(current().Loc, "expected numeric label");
      break;
    }
    B->Labels.push_back(advance().IntValue);
  } while (match(TokenKind::Comma));
  expect(TokenKind::Semicolon, "after label declarations");
}

std::optional<int64_t> Parser::parseConstValue() {
  bool Negate = false;
  if (match(TokenKind::Minus))
    Negate = true;
  else
    (void)match(TokenKind::Plus);
  if (check(TokenKind::IntLiteral)) {
    int64_t V = advance().IntValue;
    return Negate ? -V : V;
  }
  if (check(TokenKind::Identifier)) {
    Token Tok = advance();
    if (const ConstDecl *C = lookupConst(Tok.Text)) {
      if (C->isBool()) {
        error(Tok.Loc,
              "boolean constant '" + Tok.Text + "' is not valid here");
        return std::nullopt;
      }
      return Negate ? -C->value() : C->value();
    }
    error(Tok.Loc, "unknown constant '" + Tok.Text + "'");
    return std::nullopt;
  }
  error(current().Loc, "expected constant expression");
  return std::nullopt;
}

void Parser::parseConstSection(Block *B) {
  advance(); // 'const'
  while (check(TokenKind::Identifier)) {
    Token NameTok = advance();
    if (!expect(TokenKind::Equal, "in constant definition")) {
      syncToStatementBoundary();
      continue;
    }
    ConstDecl *C = nullptr;
    if (check(TokenKind::KwTrue) || check(TokenKind::KwFalse)) {
      bool V = advance().is(TokenKind::KwTrue);
      C = Ctx.create<ConstDecl>(NameTok.Loc, NameTok.Text, V ? 1 : 0,
                                /*IsBool=*/true);
    } else if (std::optional<int64_t> V = parseConstValue()) {
      C = Ctx.create<ConstDecl>(NameTok.Loc, NameTok.Text, *V,
                                /*IsBool=*/false);
    }
    if (C) {
      B->Consts.push_back(C);
      Scopes.back().Consts[C->name()] = C;
    }
    expect(TokenKind::Semicolon, "after constant definition");
  }
}

void Parser::parseTypeSection(Block *B) {
  advance(); // 'type'
  while (check(TokenKind::Identifier)) {
    Token NameTok = advance();
    if (!expect(TokenKind::Equal, "in type definition")) {
      syncToStatementBoundary();
      continue;
    }
    const Type *Ty = parseTypeExpr();
    if (Ty) {
      auto *Alias = Ctx.create<TypeAliasDecl>(NameTok.Loc, NameTok.Text, Ty);
      B->TypeAliases.push_back(Alias);
      Scopes.back().Types[Alias->name()] = Ty;
    }
    expect(TokenKind::Semicolon, "after type definition");
  }
}

const Type *Parser::parseTypeExpr() {
  if (check(TokenKind::KwArray)) {
    advance();
    if (!expect(TokenKind::LBracket, "in array type"))
      return nullptr;
    const Type *IndexTy = parseTypeExpr();
    if (!expect(TokenKind::RBracket, "after array index type"))
      return nullptr;
    if (!expect(TokenKind::KwOf, "in array type"))
      return nullptr;
    const Type *ElemTy = parseTypeExpr();
    if (!IndexTy || !ElemTy)
      return nullptr;
    const auto *Subrange = dyn_cast<SubrangeType>(IndexTy);
    if (!Subrange) {
      error(current().Loc, "array index type must be a subrange");
      return nullptr;
    }
    if (ElemTy->isArray()) {
      error(current().Loc, "multi-dimensional arrays are not supported");
      return nullptr;
    }
    return Ctx.getArrayType(Subrange->lo(), Subrange->hi(), ElemTy);
  }
  // A subrange starts with a constant (literal, signed literal, or a
  // constant identifier followed by '..').
  if (check(TokenKind::IntLiteral) || check(TokenKind::Minus) ||
      check(TokenKind::Plus) ||
      (check(TokenKind::Identifier) && lookupConst(current().Text) &&
       peek(1).is(TokenKind::DotDot))) {
    SourceLoc Loc = current().Loc;
    std::optional<int64_t> Lo = parseConstValue();
    if (!Lo)
      return nullptr;
    if (!expect(TokenKind::DotDot, "in subrange type"))
      return nullptr;
    std::optional<int64_t> Hi = parseConstValue();
    if (!Hi)
      return nullptr;
    if (*Lo > *Hi) {
      error(Loc, "empty subrange " + std::to_string(*Lo) + ".." +
                     std::to_string(*Hi));
      return nullptr;
    }
    return Ctx.getSubrangeType(*Lo, *Hi);
  }
  return parseNamedType();
}

const Type *Parser::parseNamedType() {
  if (!check(TokenKind::Identifier)) {
    error(current().Loc, "expected type");
    return nullptr;
  }
  Token Tok = advance();
  if (Tok.Text == "integer")
    return Ctx.integerType();
  if (Tok.Text == "boolean")
    return Ctx.booleanType();
  if (const Type *Ty = lookupType(Tok.Text))
    return Ty;
  error(Tok.Loc, "unknown type '" + Tok.Text + "'");
  return nullptr;
}

void Parser::parseVarSection(Block *B) {
  advance(); // 'var'
  while (check(TokenKind::Identifier)) {
    std::vector<Token> Names;
    Names.push_back(advance());
    while (match(TokenKind::Comma)) {
      if (!check(TokenKind::Identifier)) {
        error(current().Loc, "expected variable name");
        break;
      }
      Names.push_back(advance());
    }
    if (!expect(TokenKind::Colon, "in variable declaration")) {
      syncToStatementBoundary();
      continue;
    }
    const Type *Ty = parseTypeExpr();
    expect(TokenKind::Semicolon, "after variable declaration");
    if (!Ty)
      continue;
    for (const Token &NameTok : Names)
      B->Vars.push_back(
          Ctx.create<VarDecl>(NameTok.Loc, NameTok.Text, Ty, VarKind::Local));
  }
}

RoutineDecl *Parser::parseRoutine() {
  Nesting Level(*this);
  if (!Level.enter())
    return nullptr;
  bool IsFunction = check(TokenKind::KwFunction);
  SourceLoc Loc = advance().Loc; // 'procedure' / 'function'
  if (!check(TokenKind::Identifier)) {
    error(current().Loc, "expected routine name");
    syncToStatementBoundary();
    return nullptr;
  }
  Token NameTok = advance();
  auto *Routine = Ctx.create<RoutineDecl>(
      Loc, NameTok.Text,
      IsFunction ? RoutineDecl::RoutineKind::Function
                 : RoutineDecl::RoutineKind::Procedure);
  pushScope();
  if (check(TokenKind::LParen))
    Routine->setParams(parseFormalParams());
  if (IsFunction) {
    if (expect(TokenKind::Colon, "before function result type"))
      Routine->setResultType(parseTypeExpr());
    if (!Routine->resultType())
      Routine->setResultType(Ctx.integerType());
  }
  expect(TokenKind::Semicolon, "after routine header");
  Routine->setBlock(parseBlock(Routine));
  popScope();
  expect(TokenKind::Semicolon, "after routine body");
  return Routine;
}

std::vector<VarDecl *> Parser::parseFormalParams() {
  std::vector<VarDecl *> Params;
  expect(TokenKind::LParen, "before formal parameters");
  if (match(TokenKind::RParen))
    return Params;
  do {
    bool IsVar = match(TokenKind::KwVar);
    std::vector<Token> Names;
    if (!check(TokenKind::Identifier)) {
      error(current().Loc, "expected parameter name");
      break;
    }
    Names.push_back(advance());
    while (match(TokenKind::Comma)) {
      if (!check(TokenKind::Identifier)) {
        error(current().Loc, "expected parameter name");
        break;
      }
      Names.push_back(advance());
    }
    if (!expect(TokenKind::Colon, "in parameter declaration"))
      break;
    const Type *Ty = parseTypeExpr();
    if (!Ty)
      break;
    for (const Token &NameTok : Names)
      Params.push_back(Ctx.create<VarDecl>(
          NameTok.Loc, NameTok.Text, Ty,
          IsVar ? VarKind::VarParam : VarKind::ValueParam));
  } while (match(TokenKind::Semicolon));
  expect(TokenKind::RParen, "after formal parameters");
  return Params;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

CompoundStmt *Parser::parseCompound() {
  SourceLoc Loc = current().Loc;
  expect(TokenKind::KwBegin, "at start of compound statement");
  std::vector<Stmt *> Body =
      parseStatementList({TokenKind::KwEnd, TokenKind::EndOfFile});
  expect(TokenKind::KwEnd, "at end of compound statement");
  return Ctx.create<CompoundStmt>(Loc, std::move(Body));
}

std::vector<Stmt *>
Parser::parseStatementList(std::initializer_list<TokenKind> Terminators) {
  auto AtTerminator = [&] {
    for (TokenKind K : Terminators)
      if (check(K))
        return true;
    return false;
  };
  std::vector<Stmt *> Body;
  if (AtTerminator())
    return Body;
  for (;;) {
    size_t Before = Pos;
    if (Stmt *S = parseStatement())
      Body.push_back(S);
    if (match(TokenKind::Semicolon)) {
      if (AtTerminator()) // trailing semicolon = empty statement
        return Body;
      continue;
    }
    if (AtTerminator())
      return Body;
    error(current().Loc, std::string("expected ';', found ") +
                             tokenKindName(current().Kind));
    syncToStatementBoundary();
    // Guarantee progress: a stray 'else'/'end' that is not one of our
    // terminators is consumed by neither parseStatement nor the
    // synchronizer and would loop forever otherwise.
    if (Pos == Before && !check(TokenKind::EndOfFile))
      advance();
    if (AtTerminator() || check(TokenKind::EndOfFile))
      return Body;
  }
}

Stmt *Parser::parseStatement() {
  Nesting Level(*this);
  if (!Level.enter())
    return nullptr;
  // Numeric label prefix: `10: stmt`.
  if (check(TokenKind::IntLiteral) && peek(1).is(TokenKind::Colon)) {
    Token LabelTok = advance();
    advance(); // ':'
    Stmt *Sub = parseStatement();
    if (!Sub)
      Sub = Ctx.create<EmptyStmt>(LabelTok.Loc);
    return Ctx.create<LabeledStmt>(LabelTok.Loc, LabelTok.IntValue, Sub);
  }
  return parseUnlabeledStatement();
}

Stmt *Parser::parseUnlabeledStatement() {
  switch (current().Kind) {
  case TokenKind::KwBegin:
    return parseCompound();
  case TokenKind::KwIf:
    return parseIf();
  case TokenKind::KwWhile:
    return parseWhile();
  case TokenKind::KwRepeat:
    return parseRepeat();
  case TokenKind::KwFor:
    return parseFor();
  case TokenKind::KwCase:
    return parseCase();
  case TokenKind::KwGoto:
    return parseGoto();
  case TokenKind::KwInvariant:
    return parseAssert(/*Intermittent=*/false);
  case TokenKind::KwIntermittent:
    return parseAssert(/*Intermittent=*/true);
  case TokenKind::Identifier:
    return parseIdentifierStatement();
  case TokenKind::Semicolon:
  case TokenKind::KwEnd:
  case TokenKind::KwUntil:
  case TokenKind::KwElse:
    return Ctx.create<EmptyStmt>(current().Loc);
  default:
    error(current().Loc, std::string("expected statement, found ") +
                             tokenKindName(current().Kind));
    syncToStatementBoundary();
    return Ctx.create<EmptyStmt>(current().Loc);
  }
}

Stmt *Parser::parseIdentifierStatement() {
  Token NameTok = advance();
  SourceLoc Loc = NameTok.Loc;

  // Builtin IO procedures.
  if (NameTok.Text == "read" || NameTok.Text == "readln") {
    std::vector<Expr *> Targets;
    if (match(TokenKind::LParen)) {
      if (!check(TokenKind::RParen)) {
        do {
          if (Expr *E = parseExpr())
            Targets.push_back(E);
        } while (match(TokenKind::Comma));
      }
      expect(TokenKind::RParen, "after read arguments");
    }
    return Ctx.create<ReadStmt>(Loc, std::move(Targets));
  }
  if (NameTok.Text == "write" || NameTok.Text == "writeln") {
    std::vector<Expr *> Values;
    if (match(TokenKind::LParen)) {
      if (!check(TokenKind::RParen)) {
        do {
          if (check(TokenKind::StringLiteral)) {
            Token StrTok = advance();
            Values.push_back(
                Ctx.create<StringLiteralExpr>(StrTok.Loc, StrTok.Text));
          } else if (Expr *E = parseExpr()) {
            Values.push_back(E);
          }
        } while (match(TokenKind::Comma));
      }
      expect(TokenKind::RParen, "after write arguments");
    }
    return Ctx.create<WriteStmt>(Loc, std::move(Values));
  }

  // Array element assignment: `name[index] := value`.
  if (check(TokenKind::LBracket)) {
    advance();
    Expr *Index = parseExpr();
    expect(TokenKind::RBracket, "after array index");
    auto *Base = Ctx.create<VarRefExpr>(Loc, NameTok.Text);
    auto *Target = Ctx.create<IndexExpr>(Loc, Base, Index);
    if (!expect(TokenKind::Assign, "in array element assignment"))
      syncToStatementBoundary();
    Expr *Value = parseExpr();
    return Ctx.create<AssignStmt>(Loc, Target, Value);
  }

  // Plain assignment: `name := value`.
  if (match(TokenKind::Assign)) {
    auto *Target = Ctx.create<VarRefExpr>(Loc, NameTok.Text);
    Expr *Value = parseExpr();
    return Ctx.create<AssignStmt>(Loc, Target, Value);
  }

  // Procedure call, with or without arguments.
  std::vector<Expr *> Args;
  if (check(TokenKind::LParen))
    Args = parseArgs();
  auto *Call = Ctx.create<CallExpr>(Loc, NameTok.Text, std::move(Args));
  return Ctx.create<CallStmt>(Loc, Call);
}

Stmt *Parser::parseIf() {
  SourceLoc Loc = advance().Loc; // 'if'
  Expr *Cond = parseExpr();
  expect(TokenKind::KwThen, "in if statement");
  Stmt *Then = parseStatement();
  Stmt *Else = nullptr;
  if (match(TokenKind::KwElse))
    Else = parseStatement();
  return Ctx.create<IfStmt>(Loc, Cond, Then, Else);
}

Stmt *Parser::parseWhile() {
  SourceLoc Loc = advance().Loc; // 'while'
  Expr *Cond = parseExpr();
  expect(TokenKind::KwDo, "in while statement");
  Stmt *Body = parseStatement();
  return Ctx.create<WhileStmt>(Loc, Cond, Body);
}

Stmt *Parser::parseRepeat() {
  SourceLoc Loc = advance().Loc; // 'repeat'
  std::vector<Stmt *> Body =
      parseStatementList({TokenKind::KwUntil, TokenKind::EndOfFile});
  expect(TokenKind::KwUntil, "in repeat statement");
  Expr *Cond = parseExpr();
  return Ctx.create<RepeatStmt>(Loc, std::move(Body), Cond);
}

Stmt *Parser::parseFor() {
  SourceLoc Loc = advance().Loc; // 'for'
  if (!check(TokenKind::Identifier)) {
    error(current().Loc, "expected loop variable");
    syncToStatementBoundary();
    return Ctx.create<EmptyStmt>(Loc);
  }
  Token VarTok = advance();
  auto *Var = Ctx.create<VarRefExpr>(VarTok.Loc, VarTok.Text);
  expect(TokenKind::Assign, "in for statement");
  Expr *From = parseExpr();
  bool Down = false;
  if (match(TokenKind::KwDownto))
    Down = true;
  else
    expect(TokenKind::KwTo, "in for statement");
  Expr *To = parseExpr();
  expect(TokenKind::KwDo, "in for statement");
  Stmt *Body = parseStatement();
  return Ctx.create<ForStmt>(Loc, Var, From, To, Down, Body);
}

Stmt *Parser::parseCase() {
  SourceLoc Loc = advance().Loc; // 'case'
  Expr *Selector = parseExpr();
  expect(TokenKind::KwOf, "in case statement");
  std::vector<CaseArm> Arms;
  Stmt *Else = nullptr;
  while (!check(TokenKind::KwEnd) && !check(TokenKind::KwElse) &&
         !check(TokenKind::EndOfFile)) {
    CaseArm Arm;
    do {
      if (std::optional<int64_t> V = parseConstValue())
        Arm.Labels.push_back(*V);
      else
        break;
    } while (match(TokenKind::Comma));
    expect(TokenKind::Colon, "after case labels");
    Arm.Body = parseStatement();
    Arms.push_back(std::move(Arm));
    if (!match(TokenKind::Semicolon))
      break;
  }
  if (match(TokenKind::KwElse)) {
    Else = parseStatement();
    (void)match(TokenKind::Semicolon);
  }
  expect(TokenKind::KwEnd, "at end of case statement");
  return Ctx.create<CaseStmt>(Loc, Selector, std::move(Arms), Else);
}

Stmt *Parser::parseGoto() {
  SourceLoc Loc = advance().Loc; // 'goto'
  if (!check(TokenKind::IntLiteral)) {
    error(current().Loc, "expected numeric label after 'goto'");
    return Ctx.create<EmptyStmt>(Loc);
  }
  return Ctx.create<GotoStmt>(Loc, advance().IntValue);
}

Stmt *Parser::parseAssert(bool Intermittent) {
  SourceLoc Loc = advance().Loc; // 'invariant' / 'intermittent' / 'assert'
  expect(TokenKind::LParen, "in assertion");
  Expr *Cond = parseExpr();
  expect(TokenKind::RParen, "after assertion condition");
  return Ctx.create<AssertStmt>(Loc, Intermittent, Cond);
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

Expr *Parser::parseExpr() {
  Expr *LHS = parseSimpleExpr();
  BinaryOp Op;
  switch (current().Kind) {
  case TokenKind::Equal:
    Op = BinaryOp::Eq;
    break;
  case TokenKind::NotEqual:
    Op = BinaryOp::Ne;
    break;
  case TokenKind::Less:
    Op = BinaryOp::Lt;
    break;
  case TokenKind::LessEq:
    Op = BinaryOp::Le;
    break;
  case TokenKind::Greater:
    Op = BinaryOp::Gt;
    break;
  case TokenKind::GreaterEq:
    Op = BinaryOp::Ge;
    break;
  default:
    return LHS;
  }
  SourceLoc Loc = advance().Loc;
  Expr *RHS = parseSimpleExpr();
  return Ctx.create<BinaryExpr>(Loc, Op, LHS, RHS);
}

Expr *Parser::parseSimpleExpr() {
  SourceLoc SignLoc = current().Loc;
  bool Negate = false;
  if (match(TokenKind::Minus))
    Negate = true;
  else
    (void)match(TokenKind::Plus);
  Expr *LHS = parseTerm();
  if (Negate)
    LHS = Ctx.create<UnaryExpr>(SignLoc, UnaryOp::Neg, LHS);
  Nesting Chain(*this);
  for (;;) {
    BinaryOp Op;
    switch (current().Kind) {
    case TokenKind::Plus:
      Op = BinaryOp::Add;
      break;
    case TokenKind::Minus:
      Op = BinaryOp::Sub;
      break;
    case TokenKind::KwOr:
      Op = BinaryOp::Or;
      break;
    default:
      return LHS;
    }
    SourceLoc Loc = advance().Loc;
    if (!Chain.enter())
      return LHS;
    Expr *RHS = parseTerm();
    LHS = Ctx.create<BinaryExpr>(Loc, Op, LHS, RHS);
  }
}

Expr *Parser::parseTerm() {
  Expr *LHS = parseFactor();
  Nesting Chain(*this);
  for (;;) {
    BinaryOp Op;
    switch (current().Kind) {
    case TokenKind::Star:
      Op = BinaryOp::Mul;
      break;
    case TokenKind::KwDiv:
      Op = BinaryOp::Div;
      break;
    case TokenKind::KwMod:
      Op = BinaryOp::Mod;
      break;
    case TokenKind::KwAnd:
      Op = BinaryOp::And;
      break;
    case TokenKind::Slash:
      error(current().Loc, "real division '/' is not supported; use 'div'");
      Op = BinaryOp::Div;
      break;
    default:
      return LHS;
    }
    SourceLoc Loc = advance().Loc;
    if (!Chain.enter())
      return LHS;
    Expr *RHS = parseFactor();
    LHS = Ctx.create<BinaryExpr>(Loc, Op, LHS, RHS);
  }
}

Expr *Parser::parseFactor() {
  SourceLoc Loc = current().Loc;
  Nesting Level(*this);
  if (!Level.enter())
    return Ctx.create<IntLiteralExpr>(Loc, 0);
  switch (current().Kind) {
  case TokenKind::IntLiteral:
    return Ctx.create<IntLiteralExpr>(Loc, advance().IntValue);
  case TokenKind::KwTrue:
    advance();
    return Ctx.create<BoolLiteralExpr>(Loc, true);
  case TokenKind::KwFalse:
    advance();
    return Ctx.create<BoolLiteralExpr>(Loc, false);
  case TokenKind::KwNot: {
    advance();
    Expr *Sub = parseFactor();
    return Ctx.create<UnaryExpr>(Loc, UnaryOp::Not, Sub);
  }
  case TokenKind::Minus: {
    advance();
    Expr *Sub = parseFactor();
    return Ctx.create<UnaryExpr>(Loc, UnaryOp::Neg, Sub);
  }
  case TokenKind::LParen: {
    advance();
    Expr *Inner = parseExpr();
    expect(TokenKind::RParen, "after parenthesized expression");
    return Inner;
  }
  case TokenKind::Identifier: {
    Token NameTok = advance();
    if (check(TokenKind::LParen)) {
      std::vector<Expr *> Args = parseArgs();
      return Ctx.create<CallExpr>(Loc, NameTok.Text, std::move(Args));
    }
    if (match(TokenKind::LBracket)) {
      Expr *Index = parseExpr();
      expect(TokenKind::RBracket, "after array index");
      auto *Base = Ctx.create<VarRefExpr>(Loc, NameTok.Text);
      return Ctx.create<IndexExpr>(Loc, Base, Index);
    }
    return Ctx.create<VarRefExpr>(Loc, NameTok.Text);
  }
  default:
    error(Loc, std::string("expected expression, found ") +
                   tokenKindName(current().Kind));
    // Do not consume statement boundaries; the caller resynchronizes.
    switch (current().Kind) {
    case TokenKind::Semicolon:
    case TokenKind::KwEnd:
    case TokenKind::KwUntil:
    case TokenKind::KwElse:
    case TokenKind::KwThen:
    case TokenKind::KwDo:
    case TokenKind::EndOfFile:
      break;
    default:
      advance();
    }
    return Ctx.create<IntLiteralExpr>(Loc, 0);
  }
}

std::vector<Expr *> Parser::parseArgs() {
  std::vector<Expr *> Args;
  expect(TokenKind::LParen, "before arguments");
  if (match(TokenKind::RParen))
    return Args;
  do {
    if (Expr *E = parseExpr())
      Args.push_back(E);
  } while (match(TokenKind::Comma));
  expect(TokenKind::RParen, "after arguments");
  return Args;
}
