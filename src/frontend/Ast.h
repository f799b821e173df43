//===- frontend/Ast.h - Abstract syntax tree --------------------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The AST of the analyzed Pascal subset: types, expressions, statements
/// and declarations, plus the AstContext arena that owns every node.
///
/// The subset covers what the paper's evaluation needs: block-structured
/// programs with nested procedures and functions, value and `var`
/// (reference) parameters, recursion, subrange types, one-dimensional
/// arrays, `goto` to local *and non-local* labels, `read`/`write`, and the
/// two assertion statements of abstract debugging (`invariant` and
/// `intermittent`).
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_FRONTEND_AST_H
#define SYNTOX_FRONTEND_AST_H

#include "support/Casting.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace syntox {

class RoutineDecl;
class VarDecl;
class ConstDecl;
class LabeledStmt;

/// Root of every AST entity, providing arena ownership.
class AstNode {
public:
  virtual ~AstNode();
};

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

/// A Pascal type. Types are interned by AstContext and referenced by
/// pointer; pointer equality is type equality for Integer/Boolean, and
/// structural helpers cover subranges.
class Type : public AstNode {
public:
  enum class Kind { Integer, Boolean, Subrange, Array };

  Kind kind() const { return K; }

  /// True for integer and integer subranges.
  bool isIntegerLike() const {
    return K == Kind::Integer || K == Kind::Subrange;
  }
  bool isBoolean() const { return K == Kind::Boolean; }
  bool isArray() const { return K == Kind::Array; }
  /// True for types a scalar variable can have.
  bool isScalar() const { return K != Kind::Array; }

  /// Renders "integer", "boolean", "1..100", "array [1..100] of integer".
  std::string str() const;

protected:
  explicit Type(Kind K) : K(K) {}

private:
  Kind K;
};

/// An integer subrange `Lo..Hi`. Acts as a *permanent invariant
/// assertion* on every variable of this type (paper §6.5).
class SubrangeType : public Type {
public:
  SubrangeType(int64_t Lo, int64_t Hi)
      : Type(Kind::Subrange), Lo(Lo), Hi(Hi) {}

  int64_t lo() const { return Lo; }
  int64_t hi() const { return Hi; }

  static bool classof(const Type *T) { return T->kind() == Kind::Subrange; }

private:
  int64_t Lo;
  int64_t Hi;
};

/// A one-dimensional `array [Lo..Hi] of Element`.
class ArrayType : public Type {
public:
  ArrayType(int64_t IndexLo, int64_t IndexHi, const Type *Element)
      : Type(Kind::Array), IndexLo(IndexLo), IndexHi(IndexHi),
        Element(Element) {}

  int64_t indexLo() const { return IndexLo; }
  int64_t indexHi() const { return IndexHi; }
  const Type *elementType() const { return Element; }

  static bool classof(const Type *T) { return T->kind() == Kind::Array; }

private:
  int64_t IndexLo;
  int64_t IndexHi;
  const Type *Element;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

class Expr : public AstNode {
public:
  enum class Kind {
    IntLiteral,
    BoolLiteral,
    StringLiteral,
    VarRef,
    Index,
    Call,
    Unary,
    Binary,
  };

  Kind kind() const { return K; }
  SourceLoc loc() const { return Loc; }

  /// The type computed by Sema; null before type checking.
  const Type *type() const { return Ty; }
  void setType(const Type *T) { Ty = T; }

protected:
  Expr(Kind K, SourceLoc Loc) : K(K), Loc(Loc) {}

private:
  Kind K;
  SourceLoc Loc;
  const Type *Ty = nullptr;
};

class IntLiteralExpr : public Expr {
public:
  IntLiteralExpr(SourceLoc Loc, int64_t Value)
      : Expr(Kind::IntLiteral, Loc), Value(Value) {}

  int64_t value() const { return Value; }

  static bool classof(const Expr *E) { return E->kind() == Kind::IntLiteral; }

private:
  int64_t Value;
};

class BoolLiteralExpr : public Expr {
public:
  BoolLiteralExpr(SourceLoc Loc, bool Value)
      : Expr(Kind::BoolLiteral, Loc), Value(Value) {}

  bool value() const { return Value; }

  static bool classof(const Expr *E) { return E->kind() == Kind::BoolLiteral; }

private:
  bool Value;
};

/// A string literal; only valid as a write/writeln argument.
class StringLiteralExpr : public Expr {
public:
  StringLiteralExpr(SourceLoc Loc, std::string Value)
      : Expr(Kind::StringLiteral, Loc), Value(std::move(Value)) {}

  const std::string &value() const { return Value; }

  static bool classof(const Expr *E) {
    return E->kind() == Kind::StringLiteral;
  }

private:
  std::string Value;
};

/// A bare identifier: a variable, a named constant, or (in an assignment
/// target inside a function) the function result. Sema fills exactly one
/// of the bindings.
class VarRefExpr : public Expr {
public:
  VarRefExpr(SourceLoc Loc, std::string Name)
      : Expr(Kind::VarRef, Loc), Name(std::move(Name)) {}

  const std::string &name() const { return Name; }

  VarDecl *varDecl() const { return Var; }
  void setVarDecl(VarDecl *D) { Var = D; }

  const ConstDecl *constDecl() const { return Konst; }
  void setConstDecl(const ConstDecl *D) { Konst = D; }

  static bool classof(const Expr *E) { return E->kind() == Kind::VarRef; }

private:
  std::string Name;
  VarDecl *Var = nullptr;
  const ConstDecl *Konst = nullptr;
};

/// An array element `Base[Index]`.
class IndexExpr : public Expr {
public:
  IndexExpr(SourceLoc Loc, VarRefExpr *Base, Expr *Index)
      : Expr(Kind::Index, Loc), Base(Base), Index(Index) {}

  VarRefExpr *base() const { return Base; }
  Expr *index() const { return Index; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Index; }

private:
  VarRefExpr *Base;
  Expr *Index;
};

/// Builtin functions handled directly by the analyses.
enum class BuiltinFn { None, Abs, Sqr, Odd };

/// A function (or builtin) application `Callee(Args...)`. Also used for a
/// parameterless function call written as a bare identifier once Sema
/// resolves it. Procedure calls are CallStmt wrapping a CallExpr.
class CallExpr : public Expr {
public:
  CallExpr(SourceLoc Loc, std::string Callee, std::vector<Expr *> Args)
      : Expr(Kind::Call, Loc), Callee(std::move(Callee)),
        Args(std::move(Args)) {}

  const std::string &callee() const { return Callee; }
  const std::vector<Expr *> &args() const { return Args; }

  RoutineDecl *routine() const { return Routine; }
  void setRoutine(RoutineDecl *R) { Routine = R; }

  BuiltinFn builtin() const { return Builtin; }
  void setBuiltin(BuiltinFn B) { Builtin = B; }

  /// Unique id of the call site, assigned by Sema; used as the static
  /// component of interprocedural tokens (paper §6.4).
  unsigned callSiteId() const { return CallSiteId; }
  void setCallSiteId(unsigned Id) { CallSiteId = Id; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Call; }

private:
  std::string Callee;
  std::vector<Expr *> Args;
  RoutineDecl *Routine = nullptr;
  BuiltinFn Builtin = BuiltinFn::None;
  unsigned CallSiteId = 0;
};

enum class UnaryOp { Neg, Not };

class UnaryExpr : public Expr {
public:
  UnaryExpr(SourceLoc Loc, UnaryOp Op, Expr *Sub)
      : Expr(Kind::Unary, Loc), Op(Op), Sub(Sub) {}

  UnaryOp op() const { return Op; }
  Expr *subExpr() const { return Sub; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Unary; }

private:
  UnaryOp Op;
  Expr *Sub;
};

enum class BinaryOp {
  Add,
  Sub,
  Mul,
  Div, // integer 'div'
  Mod,
  And,
  Or,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
};

/// Renders "+", "div", "<=", "and", ...
const char *binaryOpName(BinaryOp Op);
/// True for =, <>, <, <=, >, >=.
bool isComparisonOp(BinaryOp Op);

class BinaryExpr : public Expr {
public:
  BinaryExpr(SourceLoc Loc, BinaryOp Op, Expr *LHS, Expr *RHS)
      : Expr(Kind::Binary, Loc), Op(Op), LHS(LHS), RHS(RHS) {}

  BinaryOp op() const { return Op; }
  Expr *lhs() const { return LHS; }
  Expr *rhs() const { return RHS; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Binary; }

private:
  BinaryOp Op;
  Expr *LHS;
  Expr *RHS;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

class Stmt : public AstNode {
public:
  enum class Kind {
    Assign,
    Compound,
    If,
    While,
    Repeat,
    For,
    Case,
    Call,
    Read,
    Write,
    Goto,
    Labeled,
    Empty,
    Assert,
  };

  Kind kind() const { return K; }
  SourceLoc loc() const { return Loc; }

protected:
  Stmt(Kind K, SourceLoc Loc) : K(K), Loc(Loc) {}

private:
  Kind K;
  SourceLoc Loc;
};

/// `Target := Value`. Target is a VarRefExpr (variable or function
/// result) or an IndexExpr.
class AssignStmt : public Stmt {
public:
  AssignStmt(SourceLoc Loc, Expr *Target, Expr *Value)
      : Stmt(Kind::Assign, Loc), Target(Target), Value(Value) {}

  Expr *target() const { return Target; }
  Expr *value() const { return Value; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::Assign; }

private:
  Expr *Target;
  Expr *Value;
};

class CompoundStmt : public Stmt {
public:
  CompoundStmt(SourceLoc Loc, std::vector<Stmt *> Body)
      : Stmt(Kind::Compound, Loc), Body(std::move(Body)) {}

  const std::vector<Stmt *> &body() const { return Body; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::Compound; }

private:
  std::vector<Stmt *> Body;
};

class IfStmt : public Stmt {
public:
  IfStmt(SourceLoc Loc, Expr *Cond, Stmt *Then, Stmt *Else)
      : Stmt(Kind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}

  Expr *cond() const { return Cond; }
  Stmt *thenStmt() const { return Then; }
  Stmt *elseStmt() const { return Else; } ///< may be null

  static bool classof(const Stmt *S) { return S->kind() == Kind::If; }

private:
  Expr *Cond;
  Stmt *Then;
  Stmt *Else;
};

class WhileStmt : public Stmt {
public:
  WhileStmt(SourceLoc Loc, Expr *Cond, Stmt *Body)
      : Stmt(Kind::While, Loc), Cond(Cond), Body(Body) {}

  Expr *cond() const { return Cond; }
  Stmt *body() const { return Body; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::While; }

private:
  Expr *Cond;
  Stmt *Body;
};

class RepeatStmt : public Stmt {
public:
  RepeatStmt(SourceLoc Loc, std::vector<Stmt *> Body, Expr *Cond)
      : Stmt(Kind::Repeat, Loc), Body(std::move(Body)), Cond(Cond) {}

  const std::vector<Stmt *> &body() const { return Body; }
  Expr *cond() const { return Cond; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::Repeat; }

private:
  std::vector<Stmt *> Body;
  Expr *Cond;
};

class ForStmt : public Stmt {
public:
  ForStmt(SourceLoc Loc, VarRefExpr *Var, Expr *From, Expr *To, bool Down,
          Stmt *Body)
      : Stmt(Kind::For, Loc), Var(Var), From(From), To(To), Down(Down),
        Body(Body) {}

  VarRefExpr *var() const { return Var; }
  Expr *from() const { return From; }
  Expr *to() const { return To; }
  bool isDownward() const { return Down; }
  Stmt *body() const { return Body; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::For; }

private:
  VarRefExpr *Var;
  Expr *From;
  Expr *To;
  bool Down;
  Stmt *Body;
};

/// One arm of a case statement: a list of constant labels and a body.
struct CaseArm {
  std::vector<int64_t> Labels;
  Stmt *Body = nullptr;
};

/// `case Selector of 1: S1; 2, 3: S2; else S3 end`. The `else` part is an
/// extension (standard Pascal has none); selecting a value matched by no
/// arm and no else is a runtime error.
class CaseStmt : public Stmt {
public:
  CaseStmt(SourceLoc Loc, Expr *Selector, std::vector<CaseArm> Arms,
           Stmt *Else)
      : Stmt(Kind::Case, Loc), Selector(Selector), Arms(std::move(Arms)),
        Else(Else) {}

  Expr *selector() const { return Selector; }
  const std::vector<CaseArm> &arms() const { return Arms; }
  Stmt *elseStmt() const { return Else; } ///< may be null

  static bool classof(const Stmt *S) { return S->kind() == Kind::Case; }

private:
  Expr *Selector;
  std::vector<CaseArm> Arms;
  Stmt *Else;
};

/// A procedure call statement.
class CallStmt : public Stmt {
public:
  CallStmt(SourceLoc Loc, CallExpr *Call) : Stmt(Kind::Call, Loc), Call(Call) {}

  CallExpr *call() const { return Call; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::Call; }

private:
  CallExpr *Call;
};

/// `read(x, T[i], ...)` / `readln(...)`: assigns unknown input values.
class ReadStmt : public Stmt {
public:
  ReadStmt(SourceLoc Loc, std::vector<Expr *> Targets)
      : Stmt(Kind::Read, Loc), Targets(std::move(Targets)) {}

  const std::vector<Expr *> &targets() const { return Targets; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::Read; }

private:
  std::vector<Expr *> Targets;
};

/// `write(...)` / `writeln(...)`: evaluates arguments, no state change.
class WriteStmt : public Stmt {
public:
  WriteStmt(SourceLoc Loc, std::vector<Expr *> Values)
      : Stmt(Kind::Write, Loc), Values(std::move(Values)) {}

  const std::vector<Expr *> &values() const { return Values; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::Write; }

private:
  std::vector<Expr *> Values;
};

/// `goto L`. Sema resolves the target statement and the routine that
/// declares the label; when that routine is not the enclosing one, this
/// is a *non-local* jump (paper §5) which unwinds the activations in
/// between.
class GotoStmt : public Stmt {
public:
  GotoStmt(SourceLoc Loc, int64_t Label) : Stmt(Kind::Goto, Loc), Label(Label) {}

  int64_t label() const { return Label; }

  LabeledStmt *target() const { return Target; }
  void setTarget(LabeledStmt *T) { Target = T; }

  RoutineDecl *targetRoutine() const { return TargetRoutine; }
  void setTargetRoutine(RoutineDecl *R) { TargetRoutine = R; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::Goto; }

private:
  int64_t Label;
  LabeledStmt *Target = nullptr;
  RoutineDecl *TargetRoutine = nullptr;
};

/// `L: S` where L was declared in the enclosing block's `label` section.
class LabeledStmt : public Stmt {
public:
  LabeledStmt(SourceLoc Loc, int64_t Label, Stmt *Sub)
      : Stmt(Kind::Labeled, Loc), Label(Label), Sub(Sub) {}

  int64_t label() const { return Label; }
  Stmt *subStmt() const { return Sub; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::Labeled; }

private:
  int64_t Label;
  Stmt *Sub;
};

class EmptyStmt : public Stmt {
public:
  explicit EmptyStmt(SourceLoc Loc) : Stmt(Kind::Empty, Loc) {}

  static bool classof(const Stmt *S) { return S->kind() == Kind::Empty; }
};

/// The abstract-debugging assertions of paper §1: an *invariant* assertion
/// must always hold when control reaches it; an *intermittent* assertion
/// states that control must eventually reach this point with the property
/// holding.
class AssertStmt : public Stmt {
public:
  AssertStmt(SourceLoc Loc, bool Intermittent, Expr *Cond)
      : Stmt(Kind::Assert, Loc), Intermittent(Intermittent), Cond(Cond) {}

  bool isIntermittent() const { return Intermittent; }
  bool isInvariant() const { return !Intermittent; }
  Expr *cond() const { return Cond; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::Assert; }

private:
  bool Intermittent;
  Expr *Cond;
};

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

class Decl : public AstNode {
public:
  enum class Kind { Const, TypeAlias, Var, Routine };

  Kind kind() const { return K; }
  SourceLoc loc() const { return Loc; }
  const std::string &name() const { return Name; }

protected:
  Decl(Kind K, SourceLoc Loc, std::string Name)
      : K(K), Loc(Loc), Name(std::move(Name)) {}

private:
  Kind K;
  SourceLoc Loc;
  std::string Name;
};

class ConstDecl : public Decl {
public:
  ConstDecl(SourceLoc Loc, std::string Name, int64_t Value, bool IsBool)
      : Decl(Kind::Const, Loc, std::move(Name)), Value(Value), IsBool(IsBool) {}

  int64_t value() const { return Value; }
  bool isBool() const { return IsBool; }

  static bool classof(const Decl *D) { return D->kind() == Kind::Const; }

private:
  int64_t Value;
  bool IsBool;
};

class TypeAliasDecl : public Decl {
public:
  TypeAliasDecl(SourceLoc Loc, std::string Name, const Type *Ty)
      : Decl(Kind::TypeAlias, Loc, std::move(Name)), Ty(Ty) {}

  const Type *type() const { return Ty; }

  static bool classof(const Decl *D) { return D->kind() == Kind::TypeAlias; }

private:
  const Type *Ty;
};

/// How a variable is introduced; drives parameter passing and frames.
enum class VarKind {
  Local,          ///< block-local variable (program globals included)
  ValueParam,     ///< parameter passed by value (copy-in)
  VarParam,       ///< `var` parameter passed by reference
  FunctionResult, ///< the implicit result variable of a function
  ForIndex,       ///< same as Local; flagged for `for` restrictions
};

class VarDecl : public Decl {
public:
  VarDecl(SourceLoc Loc, std::string Name, const Type *Ty, VarKind VK)
      : Decl(Kind::Var, Loc, std::move(Name)), Ty(Ty), VK(VK) {}

  const Type *type() const { return Ty; }
  VarKind varKind() const { return VK; }
  bool isVarParam() const { return VK == VarKind::VarParam; }

  /// The routine that declares this variable (the program routine for
  /// globals). Set by Sema.
  RoutineDecl *owner() const { return Owner; }
  void setOwner(RoutineDecl *R) { Owner = R; }

  /// Dense id unique within the owning routine, assigned by Sema.
  unsigned indexInOwner() const { return IndexInOwner; }
  void setIndexInOwner(unsigned I) { IndexInOwner = I; }

  /// Dense program-wide slot indexing this variable's entry in the flat
  /// AbstractStore payload. AstContext assigns creation order as a
  /// fallback so bare VarDecls are always usable; VarNumbering (built
  /// once per SuperGraph) reassigns slots so each routine's variables
  /// are contiguous.
  unsigned storeSlot() const {
    assert(StoreSlot != ~0u && "variable was never numbered");
    return StoreSlot;
  }
  void setStoreSlot(unsigned S) { StoreSlot = S; }

  static bool classof(const Decl *D) { return D->kind() == Kind::Var; }

private:
  const Type *Ty;
  VarKind VK;
  RoutineDecl *Owner = nullptr;
  unsigned IndexInOwner = 0;
  unsigned StoreSlot = ~0u;
};

/// A block: the declarations and body shared by programs, procedures and
/// functions.
class Block : public AstNode {
public:
  std::vector<int64_t> Labels;
  std::vector<ConstDecl *> Consts;
  std::vector<TypeAliasDecl *> TypeAliases;
  std::vector<VarDecl *> Vars;
  std::vector<RoutineDecl *> Routines;
  CompoundStmt *Body = nullptr;
};

/// A program, procedure, or function declaration. The program itself is
/// the root routine (kind Program, nesting level 0).
class RoutineDecl : public Decl {
public:
  enum class RoutineKind { Program, Procedure, Function };

  RoutineDecl(SourceLoc Loc, std::string Name, RoutineKind RK)
      : Decl(Kind::Routine, Loc, std::move(Name)), RK(RK) {}

  RoutineKind routineKind() const { return RK; }
  bool isProgram() const { return RK == RoutineKind::Program; }
  bool isFunction() const { return RK == RoutineKind::Function; }

  const std::vector<VarDecl *> &params() const { return Params; }
  void setParams(std::vector<VarDecl *> P) { Params = std::move(P); }

  const Type *resultType() const { return ResultTy; }
  void setResultType(const Type *T) { ResultTy = T; }

  /// The implicit result variable of a function (null otherwise).
  VarDecl *resultVar() const { return ResultVar; }
  void setResultVar(VarDecl *V) { ResultVar = V; }

  Block *block() const { return Body; }
  void setBlock(Block *B) { Body = B; }

  /// Lexically enclosing routine; null for the program.
  RoutineDecl *parent() const { return Parent; }
  void setParent(RoutineDecl *P) { Parent = P; }

  /// Nesting depth: 0 for the program, 1 for its routines, ...
  unsigned level() const { return Level; }
  void setLevel(unsigned L) { Level = L; }

  /// Every variable this routine *declares*: params, result, locals.
  /// Populated by Sema in declaration order; indexInOwner() indexes it.
  const std::vector<VarDecl *> &ownedVars() const { return OwnedVars; }
  void addOwnedVar(VarDecl *V) { OwnedVars.push_back(V); }

  /// Unique dense routine id assigned by Sema (program = 0).
  unsigned routineId() const { return RoutineId; }
  void setRoutineId(unsigned Id) { RoutineId = Id; }

  /// The program's identity: a hash of its token stream (token kinds,
  /// identifier and string spellings, integer values; no locations),
  /// set by Parser::parseProgram on the program's declaration and never
  /// zero there; zero on every other routine. Comments, layout and
  /// keyword case do not change it. The persistent warm-start cache's
  /// program hash folds it (persist/WarmCache.h).
  uint64_t tokenHash() const { return TokenHash; }
  void setTokenHash(uint64_t H) { TokenHash = H; }

  static bool classof(const Decl *D) { return D->kind() == Kind::Routine; }

private:
  RoutineKind RK;
  std::vector<VarDecl *> Params;
  const Type *ResultTy = nullptr;
  VarDecl *ResultVar = nullptr;
  Block *Body = nullptr;
  RoutineDecl *Parent = nullptr;
  unsigned Level = 0;
  unsigned RoutineId = 0;
  uint64_t TokenHash = 0;
  std::vector<VarDecl *> OwnedVars;
};

//===----------------------------------------------------------------------===//
// AstContext
//===----------------------------------------------------------------------===//

/// Arena that owns every AST node and interns types.
class AstContext {
public:
  AstContext();

  template <typename T, typename... Args> T *create(Args &&...A) {
    auto Node = std::make_unique<T>(std::forward<Args>(A)...);
    T *Ptr = Node.get();
    // Every VarDecl leaves the arena with a valid dense store slot
    // (creation order); VarNumbering later repacks them per routine.
    if constexpr (std::is_same_v<T, VarDecl>)
      Ptr->setStoreSlot(NextVarSlot++);
    Nodes.push_back(std::move(Node));
    return Ptr;
  }

  const Type *integerType() const { return IntegerTy; }
  const Type *booleanType() const { return BooleanTy; }
  const SubrangeType *getSubrangeType(int64_t Lo, int64_t Hi);
  const ArrayType *getArrayType(int64_t IndexLo, int64_t IndexHi,
                                const Type *Element);

  /// Rough number of bytes held by the arena (for the Figure 4 memory
  /// column).
  size_t approximateBytes() const;

private:
  std::vector<std::unique_ptr<AstNode>> Nodes;
  unsigned NextVarSlot = 0;
  const Type *IntegerTy;
  const Type *BooleanTy;
  std::vector<const SubrangeType *> SubrangeTypes;
  std::vector<const ArrayType *> ArrayTypes;
};

} // namespace syntox

#endif // SYNTOX_FRONTEND_AST_H
