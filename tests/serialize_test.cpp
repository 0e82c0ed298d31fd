// Serialization tests: binary round-trips (including corruption handling —
// malformed network input must throw, not crash) and the JSON data model.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "serialize/binary.hpp"
#include "serialize/json.hpp"
#include "support/error.hpp"

namespace rex::serialize {
namespace {

TEST(Binary, ScalarRoundTrip) {
  BinaryWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f32(3.25f);
  w.f64(-1.5e300);

  BinaryReader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f32(), 3.25f);
  EXPECT_EQ(r.f64(), -1.5e300);
  EXPECT_TRUE(r.exhausted());
  EXPECT_NO_THROW(r.expect_end());
}

TEST(Binary, FloatSpecialValues) {
  BinaryWriter w;
  w.f32(std::numeric_limits<float>::infinity());
  w.f64(std::numeric_limits<double>::quiet_NaN());
  BinaryReader r(w.buffer());
  EXPECT_TRUE(std::isinf(r.f32()));
  EXPECT_TRUE(std::isnan(r.f64()));
}

TEST(Binary, VarintRoundTrip) {
  const std::uint64_t values[] = {0,    1,       127,        128,
                                  300,  16383,   16384,      (1ull << 32),
                                  ~0ull};
  BinaryWriter w;
  for (auto v : values) w.varint(v);
  BinaryReader r(w.buffer());
  for (auto v : values) EXPECT_EQ(r.varint(), v);
  EXPECT_TRUE(r.exhausted());
}

TEST(Binary, VarintEncodingIsMinimal) {
  BinaryWriter w;
  w.varint(127);
  EXPECT_EQ(w.size(), 1u);
  w.varint(128);
  EXPECT_EQ(w.size(), 3u);  // +2 bytes
}

TEST(Binary, BytesAndStringRoundTrip) {
  BinaryWriter w;
  w.bytes(Bytes{1, 2, 3});
  w.str("hello rex");
  w.bytes({});
  w.str("");
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.str(), "hello rex");
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.str().empty());
}

TEST(Binary, RawViewConsumes) {
  BinaryWriter w;
  w.raw(Bytes{9, 8, 7, 6});
  BinaryReader r(w.buffer());
  const BytesView v = r.raw(2);
  EXPECT_EQ(v[0], 9);
  EXPECT_EQ(v[1], 8);
  EXPECT_EQ(r.remaining(), 2u);
}

TEST(Binary, TruncatedInputThrows) {
  BinaryWriter w;
  w.u64(1);
  const Bytes& full = w.buffer();
  for (std::size_t len = 0; len < full.size(); ++len) {
    BinaryReader r(BytesView(full.data(), len));
    EXPECT_THROW((void)r.u64(), Error) << "len " << len;
  }
}

TEST(Binary, TruncatedStringThrows) {
  BinaryWriter w;
  w.str("abcdef");
  Bytes data = w.take();
  data.resize(3);  // length prefix says 6, only 2 payload bytes remain
  BinaryReader r(data);
  EXPECT_THROW((void)r.str(), Error);
}

TEST(Binary, OverlongVarintThrows) {
  const Bytes evil(11, 0xFF);  // 11 continuation bytes > 64 bits
  BinaryReader r(evil);
  EXPECT_THROW((void)r.varint(), Error);
}

TEST(Binary, ExpectEndDetectsTrailing) {
  BinaryWriter w;
  w.u8(1);
  w.u8(2);
  BinaryReader r(w.buffer());
  (void)r.u8();
  EXPECT_THROW(r.expect_end(), Error);
}

TEST(Json, PrimitiveRoundTrips) {
  EXPECT_EQ(Json::parse("null"), Json(nullptr));
  EXPECT_EQ(Json::parse("true"), Json(true));
  EXPECT_EQ(Json::parse("false"), Json(false));
  EXPECT_EQ(Json::parse("42").as_int(), 42);
  EXPECT_EQ(Json::parse("-1.5").as_number(), -1.5);
  EXPECT_EQ(Json::parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, DumpParseRoundTrip) {
  Json obj = Json::object();
  obj["type"] = "quote";
  obj["version"] = 2;
  obj["ok"] = true;
  obj["measurement"] = "abc123";
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  arr.push_back(Json(nullptr));
  obj["payload"] = std::move(arr);

  const std::string text = obj.dump();
  EXPECT_EQ(Json::parse(text), obj);
}

TEST(Json, DumpIsDeterministic) {
  Json a = Json::object();
  a["zebra"] = 1;
  a["alpha"] = 2;
  // Keys print sorted regardless of insertion order.
  EXPECT_EQ(a.dump(), "{\"alpha\":2,\"zebra\":1}");
}

TEST(Json, StringEscapes) {
  Json v(std::string("line\nquote\"backslash\\tab\t"));
  const std::string dumped = v.dump();
  EXPECT_EQ(Json::parse(dumped).as_string(), v.as_string());
}

TEST(Json, UnicodeEscapeParsing) {
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");   // é
  EXPECT_EQ(Json::parse("\"\\u20ac\"").as_string(), "\xe2\x82\xac");  // €
}

TEST(Json, NestedStructures) {
  const Json v = Json::parse(
      R"({"a":{"b":[1,2,{"c":null}]},"d":[[]],"e":{}})");
  EXPECT_TRUE(v.at("a").at("b").is_array());
  EXPECT_EQ(v.at("a").at("b").size(), 3u);
  EXPECT_TRUE(v.at("a").at("b").as_array()[2].at("c").is_null());
  EXPECT_EQ(v.at("d").as_array()[0].size(), 0u);
  EXPECT_TRUE(v.at("e").is_object());
}

TEST(Json, WhitespaceTolerant) {
  const Json v = Json::parse("  {\n\t\"k\" :\r 1 , \"l\": [ 1 ,2 ] }  ");
  EXPECT_EQ(v.at("k").as_int(), 1);
  EXPECT_EQ(v.at("l").size(), 2u);
}

TEST(Json, MalformedInputsThrow) {
  const char* bad[] = {
      "",        "{",          "}",           "[1,",      "{\"a\":}",
      "{\"a\"1}", "tru",        "nul",         "\"unterminated",
      "01a",     "{\"a\":1,}",  "[1 2]",       "{\"a\" 1}", "\x01",
      "1 2",     "\"\\q\"",     "\"\\u12g4\"",
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)Json::parse(text), Error) << "input: " << text;
  }
  // Nesting a peer could send to exhaust the parser's stack.
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  for (const std::string& deep : {std::string(100000, '['), objects}) {
    EXPECT_THROW((void)Json::parse(deep), Error);
  }
}

TEST(Json, NestingStopsAt64Levels) {
  const auto nested = [](int levels) {
    return std::string(levels, '[') + std::string(levels, ']');
  };
  EXPECT_NO_THROW((void)Json::parse(nested(64)));
  EXPECT_THROW((void)Json::parse(nested(65)), Error);
}

TEST(Json, TypeMismatchThrows) {
  const Json v = Json::parse("{\"n\":1}");
  EXPECT_THROW((void)v.at("n").as_string(), Error);
  EXPECT_THROW((void)v.at("missing"), Error);
  EXPECT_THROW((void)v.as_array(), Error);
  EXPECT_THROW((void)Json(1).at("x"), Error);
}

TEST(Json, ContainsAndSize) {
  const Json v = Json::parse("{\"a\":1,\"b\":2}");
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("c"));
  EXPECT_EQ(v.size(), 2u);
}

TEST(Json, NumbersSurviveRoundTrip) {
  const double values[] = {0.0, -0.0, 1.0, -1.0, 0.5,   1e-9, 1e17,
                           3.141592653589793,   1234567890.125};
  for (double d : values) {
    const Json v(d);
    EXPECT_EQ(Json::parse(v.dump()).as_number(), d) << d;
  }
}

TEST(Json, NonFiniteNumbersRejected) {
  EXPECT_THROW((void)Json(std::numeric_limits<double>::infinity()).dump(),
               Error);
}

}  // namespace
}  // namespace rex::serialize
