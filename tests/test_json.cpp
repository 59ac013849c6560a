#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "util/json.h"

namespace mmd::util::json {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_TRUE(parse("true").boolean());
  EXPECT_FALSE(parse("false").boolean());
  EXPECT_DOUBLE_EQ(parse("42").number(), 42.0);
  EXPECT_DOUBLE_EQ(parse("-1.5e3").number(), -1500.0);
  EXPECT_EQ(parse("\"hi\"").str(), "hi");
}

TEST(Json, ParsesNestedContainers) {
  const Value v = parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_TRUE(v.is_object());
  const Array& a = v.at("a").array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[0].number(), 1.0);
  EXPECT_TRUE(a[2].at("b").boolean());
  EXPECT_EQ(v.at("c").str(), "x");
}

TEST(Json, ObjectPreservesInsertionOrder) {
  const Value v = parse(R"({"z": 1, "a": 2, "m": 3})");
  const Object& o = v.object();
  ASSERT_EQ(o.size(), 3u);
  EXPECT_EQ(o[0].first, "z");
  EXPECT_EQ(o[1].first, "a");
  EXPECT_EQ(o[2].first, "m");
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\nd\te")").str(), "a\"b\\c\nd\te");
  // A = 'A'; é = e-acute, two UTF-8 bytes.
  EXPECT_EQ(parse(R"("A")").str(), "A");
  EXPECT_EQ(parse(R"("é")").str(), "\xc3\xa9");
}

TEST(Json, UnescapedControlCharacterInStringRejected) {
  // RFC 8259: U+0000..U+001F must be escaped inside strings.
  EXPECT_THROW(parse("\"a\tb\""), Error);
  EXPECT_THROW(parse("\"a\nb\""), Error);
  EXPECT_THROW(parse(std::string("\"a\0b\"", 5)), Error);
  EXPECT_NO_THROW(parse("{\n\t\"a\": 1\r\n}"));  // whitespace between tokens
}

TEST(Json, WriteStringEscapesEveryControlCharacter) {
  std::string s = "quote\" backslash\\ ";
  for (int c = 0; c < 0x20; ++c) s += static_cast<char>(c);
  s += "\xc3\xa9";  // UTF-8 passes through unescaped
  std::ostringstream os;
  write_string(os, s);
  for (const char c : os.str()) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << os.str();
  }
  EXPECT_EQ(parse(os.str()).str(), s);
}

TEST(Json, FindAndAt) {
  const Value v = parse(R"({"x": 1})");
  ASSERT_NE(v.find("x"), nullptr);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(parse("3").find("x"), nullptr);  // non-object: absent, not a throw
  EXPECT_THROW(v.at("missing"), Error);
}

TEST(Json, TypeMismatchThrows) {
  EXPECT_THROW(parse("1").str(), Error);
  EXPECT_THROW(parse("\"s\"").number(), Error);
  EXPECT_THROW(parse("[1]").object(), Error);
}

TEST(Json, MalformedInputThrowsWithOffset) {
  EXPECT_THROW(parse(""), Error);
  EXPECT_THROW(parse("{"), Error);
  EXPECT_THROW(parse("[1,]"), Error);
  EXPECT_THROW(parse("{\"a\" 1}"), Error);
  EXPECT_THROW(parse("tru"), Error);
  try {
    parse("[1, 2, oops]");
    FAIL() << "expected json::Error";
  } catch (const Error& e) {
    EXPECT_GT(e.offset(), 0u);
  }
}

TEST(Json, TrailingGarbageIsAnError) {
  EXPECT_THROW(parse("1 2"), Error);
  EXPECT_THROW(parse("{} x"), Error);
  EXPECT_NO_THROW(parse("  {}  "));  // surrounding whitespace is fine
}

TEST(Json, ParseFileRoundTrip) {
  const std::string path = testing::TempDir() + "mmd_test_json.json";
  {
    std::ofstream os(path);
    os << R"({"n": 2.5, "tags": ["a", "b"]})";
  }
  const Value v = parse_file(path);
  EXPECT_DOUBLE_EQ(v.at("n").number(), 2.5);
  EXPECT_EQ(v.at("tags").array()[1].str(), "b");
  EXPECT_THROW(parse_file(path + ".does-not-exist"), Error);
}

}  // namespace
}  // namespace mmd::util::json
