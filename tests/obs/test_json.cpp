#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "obs/json.hpp"

#include "json_reader.hpp"

namespace bpart::obs {
namespace {

TEST(JsonWriter, ObjectWithMixedValues) {
  json::Writer w;
  w.begin_object()
      .kv("name", "bpart")
      .kv("count", std::int64_t{42})
      .kv("ratio", 0.5)
      .kv("ok", true)
      .key("none")
      .null()
      .end_object();
  EXPECT_EQ(w.str(),
            R"({"name":"bpart","count":42,"ratio":0.5,"ok":true,"none":null})");
}

TEST(JsonWriter, NestedArrays) {
  json::Writer w;
  w.begin_array()
      .value(1)
      .begin_array()
      .value(2)
      .value(3)
      .end_array()
      .begin_object()
      .kv("k", 4)
      .end_object()
      .end_array();
  EXPECT_EQ(w.str(), R"([1,[2,3],{"k":4}])");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull) {
  json::Writer w;
  w.begin_array()
      .value(std::numeric_limits<double>::infinity())
      .value(std::nan(""))
      .end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json::escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  json::Writer w;
  w.begin_object().kv("k\"1", "v\n2").end_object();
  EXPECT_EQ(w.str(), "{\"k\\\"1\":\"v\\n2\"}");
}

TEST(JsonParse, RoundTripsWriterOutput) {
  json::Writer w;
  w.begin_object()
      .kv("s", "hi")
      .kv("i", std::int64_t{-7})
      .kv("d", 2.25)
      .key("a")
      .begin_array()
      .value(true)
      .null()
      .end_array()
      .end_object();
  const json::Value v = json::parse(w.str());
  EXPECT_EQ(v.at("s").as_string(), "hi");
  EXPECT_EQ(v.at("i").as_int(), -7);
  EXPECT_DOUBLE_EQ(v.at("d").as_double(), 2.25);
  EXPECT_TRUE(v.at("a").at(0).as_bool());
  EXPECT_TRUE(v.at("a").at(1).is_null());
  EXPECT_EQ(v.at("a").size(), 2u);
}

TEST(JsonParse, HandlesEscapesAndUnicode) {
  const json::Value v = json::parse(R"({"k":"line\nbreak Aé"})");
  EXPECT_EQ(v.at("k").as_string(), "line\nbreak A\xc3\xa9");
}

TEST(JsonParse, ScientificAndNegativeNumbers) {
  const json::Value v = json::parse("[1e3, -2.5e-2, 0]");
  EXPECT_DOUBLE_EQ(v.at(0).as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(v.at(1).as_double(), -0.025);
  EXPECT_EQ(v.at(2).as_uint(), 0u);
}

TEST(JsonParse, RejectsMalformedDocuments) {
  EXPECT_THROW((void)json::parse("{"), std::runtime_error);
  EXPECT_THROW((void)json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)json::parse("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW((void)json::parse("'single'"), std::runtime_error);
  EXPECT_THROW((void)json::parse(""), std::runtime_error);
}

TEST(JsonValue, TypeMismatchThrowsWithMessage) {
  const json::Value v = json::parse(R"({"n":3})");
  EXPECT_THROW((void)v.at("n").as_string(), std::runtime_error);
  EXPECT_THROW((void)v.at("missing"), std::runtime_error);
  EXPECT_FALSE(v.contains("missing"));
  EXPECT_TRUE(v.contains("n"));
}

}  // namespace
}  // namespace bpart::obs
