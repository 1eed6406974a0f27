#include "model/value.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "../alloc_watch.hpp"

namespace {

using namespace cpy;

TEST(Value, KindsAndAccessors) {
  EXPECT_EQ(Value().kind(), Kind::None);
  EXPECT_EQ(Value(true).kind(), Kind::Bool);
  EXPECT_EQ(Value(7).kind(), Kind::Int);
  EXPECT_EQ(Value(2.5).kind(), Kind::Real);
  EXPECT_EQ(Value("hi").kind(), Kind::Str);
  EXPECT_EQ(Value(7).as_int(), 7);
  EXPECT_DOUBLE_EQ(Value(7).as_real(), 7.0);  // int coerces to real
  EXPECT_EQ(Value("hi").as_str(), "hi");
}

TEST(Value, TypeErrorsThrow) {
  EXPECT_THROW((void)Value(7).as_str(), std::runtime_error);
  EXPECT_THROW((void)Value("x").as_int(), std::runtime_error);
  EXPECT_THROW((void)Value().length(), std::runtime_error);
}

TEST(Value, Truthiness) {
  EXPECT_FALSE(Value().truthy());
  EXPECT_FALSE(Value(0).truthy());
  EXPECT_FALSE(Value("").truthy());
  EXPECT_FALSE(Value(List{}).truthy());
  EXPECT_TRUE(Value(1).truthy());
  EXPECT_TRUE(Value("x").truthy());
  EXPECT_TRUE(Value(List{Value(1)}).truthy());
  EXPECT_FALSE(Value(false).truthy());
}

TEST(Value, ListAndTuple) {
  Value l = Value::list({Value(1), Value("two"), Value(3.0)});
  EXPECT_EQ(l.kind(), Kind::List);
  EXPECT_EQ(l.length(), 3u);
  EXPECT_EQ(l.item(Value(1)).as_str(), "two");
  EXPECT_EQ(l.item(Value(-1)).as_real(), 3.0);  // negative indexing
  Value t = Value::tuple({Value(1), Value(2)});
  EXPECT_EQ(t.kind(), Kind::Tuple);
  EXPECT_THROW(l.item(Value(5)), std::out_of_range);
}

TEST(Value, Dict) {
  Value d = Value::dict({{"a", Value(1)}, {"b", Value("x")}});
  EXPECT_EQ(d.length(), 2u);
  EXPECT_EQ(d.item(Value("a")).as_int(), 1);
  EXPECT_THROW(d.item(Value("zzz")), std::out_of_range);
}

TEST(Value, ArraysShareBuffersOnCopy) {
  Value a = Value::array({1.0, 2.0, 3.0});
  Value b = a;  // Python-style reference copy
  a.as_f64_array()->data[0] = 42.0;
  EXPECT_DOUBLE_EQ(b.item(Value(0)).as_real(), 42.0);
}

TEST(Value, Equality) {
  EXPECT_TRUE(Value(2).equals(Value(2.0)));  // numeric cross-kind
  EXPECT_TRUE(Value("a").equals(Value("a")));
  EXPECT_FALSE(Value("a").equals(Value(1)));
  EXPECT_TRUE(Value::list({Value(1), Value(2)})
                  .equals(Value::list({Value(1), Value(2)})));
  EXPECT_FALSE(Value::list({Value(1)}).equals(Value::list({Value(2)})));
  EXPECT_TRUE(Value().equals(Value()));
  EXPECT_TRUE(Value::array({1, 2}).equals(Value::array({1, 2})));
  EXPECT_FALSE(Value::array({1, 2}).equals(Value::array({1, 3})));
}

TEST(Value, CompareNumericStringsAndSequences) {
  EXPECT_LT(Value(1).compare(Value(2)), 0);
  EXPECT_GT(Value(2.5).compare(Value(2)), 0);
  EXPECT_LT(Value("abc").compare(Value("abd")), 0);
  EXPECT_LT(Value::tuple({Value(1), Value(2)})
                .compare(Value::tuple({Value(1), Value(3)})),
            0);
  EXPECT_THROW((void)Value(1).compare(Value("x")), std::runtime_error);
}

TEST(Value, PupRoundtripAllKinds) {
  auto roundtrip = [](Value v) {
    auto bytes = pup::to_bytes(v);
    Value back;
    pup::Unpacker u(bytes.data(), bytes.size());
    back.pup(u);
    return back;
  };
  Value nested = Value::dict(
      {{"xs", Value::list({Value(1), Value("two"),
                           Value::tuple({Value(true), Value()})})},
       {"arr", Value::array({1.5, 2.5}, {2})},
       {"ia", Value::iarray({7, 8, 9})},
       {"n", Value(3.25)}});
  EXPECT_TRUE(roundtrip(nested).equals(nested));
  EXPECT_TRUE(roundtrip(Value()).equals(Value()));
  std::vector<std::byte> raw = {std::byte{1}, std::byte{2}};
  EXPECT_TRUE(roundtrip(Value(raw)).equals(Value(raw)));
}

TEST(Value, ArrayPupPreservesShape) {
  Value m = Value::array({1, 2, 3, 4, 5, 6}, {2, 3});
  auto bytes = pup::to_bytes(m);
  Value back;
  pup::Unpacker u(bytes.data(), bytes.size());
  back.pup(u);
  EXPECT_EQ(back.as_f64_array()->shape,
            (std::vector<std::uint64_t>{2, 3}));
}

/// The packed bytes of `ts`, in order.
template <typename... Ts>
std::vector<std::byte> bytes_of(Ts... ts) {
  return pup::pack_args(ts...);
}

/// Decode a Value from `blob`; return the largest allocation made on the
/// way (the decode must throw std::length_error).
std::size_t largest_request_decoding(const std::vector<std::byte>& blob) {
  return alloc_watch::largest_request_throwing([&] {
    Value v;
    pup::Unpacker u(blob.data(), blob.size());
    v.pup(u);
  });
}

constexpr std::size_t kSmall = 4096;  // what the exception itself may take

TEST(Value, HostileListCountThrowsBeforeAllocating) {
  // tag list | is_tuple | count: 10 bytes claiming 2^22 items once asked
  // for 320 MiB of Values. Every item packs at least its 1-byte tag.
  for (const std::uint64_t n :
       {std::uint64_t{1} << 22, std::uint64_t{1} << 40}) {
    const auto blob = bytes_of(std::uint8_t{6}, false, n);
    ASSERT_EQ(blob.size(), 10u);
    EXPECT_LT(largest_request_decoding(blob), kSmall);
  }
  // Two items claimed, one byte left.
  auto blob = bytes_of(std::uint8_t{6}, true, std::uint64_t{2});
  blob.push_back(std::byte{0});
  EXPECT_LT(largest_request_decoding(blob), kSmall);
}

TEST(Value, HostileArrayCountThrowsBeforeAllocating) {
  // tag f64array | shape [n] | count n: 25 bytes claiming 2^26 doubles
  // once asked for 512 MiB.
  const std::uint64_t n = std::uint64_t{1} << 26;
  const auto f64 = bytes_of(std::uint8_t{8}, std::uint64_t{1}, n, n);
  ASSERT_EQ(f64.size(), 25u);
  EXPECT_LT(largest_request_decoding(f64), kSmall);
  const auto i64 = bytes_of(std::uint8_t{9}, std::uint64_t{0}, n);
  EXPECT_LT(largest_request_decoding(i64), kSmall);
  // Two doubles claimed, 15 bytes left.
  auto blob = bytes_of(std::uint8_t{8}, std::uint64_t{0}, std::uint64_t{2});
  blob.resize(blob.size() + 15);
  EXPECT_LT(largest_request_decoding(blob), kSmall);
}

TEST(Value, CountsThatFitStillDecode) {
  auto blob = bytes_of(std::uint8_t{8}, std::uint64_t{0}, std::uint64_t{2},
                       1.5, 2.5);
  Value v;
  pup::Unpacker u(blob.data(), blob.size());
  v.pup(u);
  EXPECT_EQ(v.as_f64_array()->data, (std::vector<double>{1.5, 2.5}));
  // A list of three Nones: exactly one tag byte per item.
  blob = bytes_of(std::uint8_t{6}, false, std::uint64_t{3}, std::uint8_t{0},
                  std::uint8_t{0}, std::uint8_t{0});
  Value l;
  pup::Unpacker ul(blob.data(), blob.size());
  l.pup(ul);
  EXPECT_EQ(l.length(), 3u);
}

TEST(Value, ApproxBytesTracksArraySizes) {
  Value big = Value::zeros(1000);
  EXPECT_GE(big.approx_bytes(), 8000u);
  EXPECT_LT(Value(1).approx_bytes(), 16u);
}

TEST(Value, Repr) {
  EXPECT_EQ(Value().repr(), "None");
  EXPECT_EQ(Value(true).repr(), "True");
  EXPECT_EQ(Value(3).repr(), "3");
  EXPECT_EQ(Value("hi").repr(), "'hi'");
  EXPECT_EQ(Value::list({Value(1), Value(2)}).repr(), "[1, 2]");
  EXPECT_EQ(Value::tuple({Value(1)}).repr(), "(1)");
}

}  // namespace
