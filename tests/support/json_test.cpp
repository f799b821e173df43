//===- tests/support/json_test.cpp - JSON value/writer/parser tests -------===//

#include "support/Json.h"

#include <gtest/gtest.h>

using namespace syntox;

namespace {

TEST(JsonTest, ObjectsKeepInsertionOrder) {
  json::Value V = json::Value::object();
  V.set("zeta", 1);
  V.set("alpha", 2);
  V.set("mid", 3);
  EXPECT_EQ(V.str(), "{\"zeta\":1,\"alpha\":2,\"mid\":3}");
  // Replacing keeps the original position.
  V.set("alpha", 9);
  EXPECT_EQ(V.str(), "{\"zeta\":1,\"alpha\":9,\"mid\":3}");
}

TEST(JsonTest, EscapesStrings) {
  json::Value V = json::Value("a\"b\\c\n\t");
  EXPECT_EQ(V.str(), "\"a\\\"b\\\\c\\n\\t\"");
  EXPECT_EQ(json::quoted("x\x01y"), "\"x\\u0001y\"");
}

TEST(JsonTest, WritesScalars) {
  EXPECT_EQ(json::Value().str(), "null");
  EXPECT_EQ(json::Value(true).str(), "true");
  EXPECT_EQ(json::Value(false).str(), "false");
  EXPECT_EQ(json::Value(int64_t(-42)).str(), "-42");
  EXPECT_EQ(json::Value(uint64_t(7)).str(), "7");
}

TEST(JsonTest, ParsesNestedDocuments) {
  std::optional<json::Value> V = json::parse(
      "{\"a\": [1, 2.5, true, null, \"s\"], \"b\": {\"c\": -3}}");
  ASSERT_TRUE(V.has_value());
  const json::Value *A = V->find("a");
  ASSERT_TRUE(A && A->isArray());
  ASSERT_EQ(A->size(), 5u);
  EXPECT_EQ(A->at(0).asInt(), 1);
  EXPECT_DOUBLE_EQ(A->at(1).asDouble(), 2.5);
  EXPECT_TRUE(A->at(2).asBool());
  EXPECT_TRUE(A->at(3).isNull());
  EXPECT_EQ(A->at(4).asString(), "s");
  EXPECT_EQ(V->find("b")->find("c")->asInt(), -3);
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  std::string Error;
  EXPECT_FALSE(json::parse("{", &Error).has_value());
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(json::parse("[1,]").has_value());
  EXPECT_FALSE(json::parse("{\"a\" 1}").has_value());
  EXPECT_FALSE(json::parse("tru").has_value());
  EXPECT_FALSE(json::parse("1 2").has_value()); // trailing garbage

  // Nesting is bounded: MaxNestingDepth levels of arrays or objects
  // parse, one level more is an error rather than deeper recursion.
  auto arrays = [](unsigned Levels) {
    return std::string(Levels, '[') + std::string(Levels, ']');
  };
  auto objects = [](unsigned Levels) {
    std::string S;
    for (unsigned I = 0; I < Levels; ++I)
      S += "{\"a\":";
    return S + "1" + std::string(Levels, '}');
  };
  EXPECT_TRUE(json::parse(arrays(json::MaxNestingDepth)).has_value());
  EXPECT_TRUE(json::parse(objects(json::MaxNestingDepth)).has_value());
  for (const std::string &TooDeep : {arrays(json::MaxNestingDepth + 1),
                                     objects(json::MaxNestingDepth + 1)}) {
    Error.clear();
    EXPECT_FALSE(json::parse(TooDeep, &Error).has_value());
    EXPECT_NE(Error.find("nesting deeper than"), std::string::npos) << Error;
  }
}

TEST(JsonTest, RoundTripsThroughWriterAndParser) {
  json::Value Doc = json::Value::object();
  Doc.set("name", "trace \"x\"\n");
  Doc.set("n", int64_t(123));
  Doc.set("f", 0.125);
  json::Value Arr = json::Value::array();
  Arr.push(json::Value(true));
  Arr.push(json::Value());
  Doc.set("arr", std::move(Arr));

  for (const std::string &Rendered : {Doc.str(), Doc.pretty()}) {
    std::optional<json::Value> Back = json::parse(Rendered);
    ASSERT_TRUE(Back.has_value()) << Rendered;
    EXPECT_TRUE(*Back == Doc) << Rendered;
  }
}

} // namespace
