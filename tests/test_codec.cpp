// Round-trip tests for the word codec (util/codec.h) that the MPC
// simulator's typed message helpers (MachineCtx::send_items /
// Message::decode) are built on.
#include "util/codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mpc/cluster.h"
#include "util/error.h"
#include "util/rng.h"

namespace monge::util {
namespace {

struct ThreeInts {  // 12 bytes -> 2 words, 4 padding bytes
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;
  friend bool operator==(const ThreeInts&, const ThreeInts&) = default;
};

struct WordPair {  // 16 bytes -> exactly 2 words, no padding
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  friend bool operator==(const WordPair&, const WordPair&) = default;
};

TEST(Codec, WordsPerItemStride) {
  EXPECT_EQ(kWordsPerItem<std::uint8_t>, 1u);
  EXPECT_EQ(kWordsPerItem<std::int32_t>, 1u);
  EXPECT_EQ(kWordsPerItem<std::int64_t>, 1u);
  EXPECT_EQ(kWordsPerItem<ThreeInts>, 2u);
  EXPECT_EQ(kWordsPerItem<WordPair>, 2u);
}

TEST(Codec, RoundTripFuzz) {
  Rng rng(2024);
  for (int it = 0; it < 200; ++it) {
    const auto n = static_cast<std::size_t>(rng.next_below(64));
    std::vector<ThreeInts> items(n);
    for (auto& x : items) {
      x.a = static_cast<std::int32_t>(rng.next_in(-1000000, 1000000));
      x.b = static_cast<std::int32_t>(rng.next_in(-1000000, 1000000));
      x.c = static_cast<std::int32_t>(rng.next_in(-1000000, 1000000));
    }
    const auto words = pack_words<ThreeInts>(items);
    ASSERT_EQ(words.size(), n * kWordsPerItem<ThreeInts>);
    EXPECT_EQ(unpack_words<ThreeInts>(words), items);
  }
}

TEST(Codec, RoundTripScalarAndEmpty) {
  const std::vector<std::int64_t> scalars{-1, 0, 1, INT64_MIN, INT64_MAX};
  EXPECT_EQ(unpack_words<std::int64_t>(pack_words<std::int64_t>(scalars)),
            scalars);
  EXPECT_TRUE(pack_words<WordPair>({}).empty());
  EXPECT_TRUE(unpack_words<WordPair>({}).empty());
}

TEST(Codec, PaddingBytesAreZeroed) {
  // Equal items must produce bitwise-equal payloads: the 4 padding bytes
  // of each ThreeInts stride are zeroed, never uninitialized.
  const std::vector<ThreeInts> items{{1, 2, 3}, {1, 2, 3}};
  const auto words = pack_words<ThreeInts>(items);
  ASSERT_EQ(words.size(), 4u);
  EXPECT_EQ(words[0], words[2]);
  EXPECT_EQ(words[1], words[3]);
}

TEST(Codec, TruncatedPayloadThrows) {
  const std::vector<std::int64_t> odd(3, 0);  // 3 words, 2-word stride
  EXPECT_THROW(unpack_words<ThreeInts>(odd), CodecError);
}

TEST(Codec, CorruptPayloadErrorsCarryTheTaxonomy) {
  // A CodecError is a monge::Error with code kCodec — and, unlike the
  // MONGE_CHECK logic_error family, a runtime_error: corrupt payloads are
  // an input/transport condition, not a programming bug.
  const std::vector<std::int64_t> bad(5, 42);  // 5 words, 2-word stride
  try {
    unpack_words<WordPair>(bad);
    FAIL() << "expected CodecError";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCodec);
    EXPECT_NE(std::string(e.what()).find("5 words"), std::string::npos);
  }
  EXPECT_THROW(unpack_words<WordPair>(bad), std::runtime_error);
}

TEST(Codec, CorruptPayloadEveryTruncationLength) {
  // Every word count that is not a multiple of the stride throws; every
  // multiple decodes.
  for (std::size_t len = 0; len <= 8; ++len) {
    const std::vector<std::int64_t> payload(len, 7);
    if (len % kWordsPerItem<ThreeInts> == 0) {
      EXPECT_EQ(unpack_words<ThreeInts>(payload).size(),
                len / kWordsPerItem<ThreeInts>);
    } else {
      EXPECT_THROW(unpack_words<ThreeInts>(payload), CodecError);
    }
  }
}

TEST(Codec, MessageDecodeRejectsCorruptPayload) {
  // The typed-message path surfaces the same CodecError: a Message whose
  // payload lost a word (transport corruption) fails decode<T>().
  mpc::Message msg;
  msg.from = 0;
  msg.tag = 0;
  msg.payload = {1, 2, 3};  // not a multiple of the 2-word stride
  EXPECT_THROW(msg.decode<ThreeInts>(), CodecError);
  msg.payload = {1, 2, 3, 4};
  EXPECT_NO_THROW(msg.decode<ThreeInts>());

  // decode_append checks the same, before it appends anything, and
  // otherwise appends behind what the receiver already holds.
  std::vector<ThreeInts> out{{9, 9, 9}};
  msg.payload = {1, 2, 3};
  EXPECT_THROW(msg.decode_append(out), CodecError);
  EXPECT_EQ(out, (std::vector<ThreeInts>{{9, 9, 9}}));
  const std::vector<ThreeInts> more{{1, 2, 3}, {4, 5, 6}};
  msg.payload = pack_words<ThreeInts>(more);
  msg.decode_append(out);
  EXPECT_EQ(out, (std::vector<ThreeInts>{{9, 9, 9}, {1, 2, 3}, {4, 5, 6}}));

  // decode_into overwrites from an offset in place, and rejects a payload
  // that is not whole strides or does not fit, before writing anything.
  EXPECT_EQ(msg.decode_into(out, 1), 2u);
  EXPECT_EQ(out, (std::vector<ThreeInts>{{9, 9, 9}, {1, 2, 3}, {4, 5, 6}}));
  msg.payload = pack_words<ThreeInts>(std::vector<ThreeInts>{{7, 7, 7}});
  EXPECT_EQ(msg.decode_into(out, 0), 1u);
  EXPECT_THROW(msg.decode_into(out, 3), CodecError);  // 1 item, 0 slots
  msg.payload = {1, 2, 3};
  EXPECT_THROW(msg.decode_into(out, 0), CodecError);
  EXPECT_EQ(out, (std::vector<ThreeInts>{{7, 7, 7}, {1, 2, 3}, {4, 5, 6}}));
}

}  // namespace
}  // namespace monge::util
