// Word codec for trivially-copyable items.
//
// The MPC simulator moves everything as flat arrays of 64-bit words
// (mpc::Message payloads); typed senders/receivers pack and unpack arrays
// of trivially-copyable structs, each item padded up to whole words. Both
// halves of that codec used to live duplicated inside src/mpc/cluster.h
// (MachineCtx::send_items / Message::decode); they are hoisted here so the
// stride arithmetic and the memcpy loops exist exactly once.
//
// Contract: pack_words(items).size() == items.size() * kWordsPerItem<T>,
// padding bytes are zero, and unpack_words<T>(pack_words<T>(items)) is the
// identity for every trivially-copyable T (round-trip pinned by
// tests/test_codec.cpp).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/error.h"

namespace monge::util {

/// Number of 64-bit words one packed T occupies (sizeof(T) rounded up to
/// whole words — the codec's stride).
template <typename T>
inline constexpr std::size_t kWordsPerItem = (sizeof(T) + 7) / 8;

/// Writes one item into its kWordsPerItem<T>-word stride at `words`; the
/// caller hands in zeroed words, so the padding bytes stay zero.
template <typename T>
void pack_item(const T& item, std::int64_t* words) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(words, &item, sizeof(T));
}

/// Packs an array of T into `words`, one kWordsPerItem<T> stride per item,
/// replacing its contents but keeping its capacity; padding bytes are
/// zeroed so packed payloads compare equal.
template <typename T>
void pack_words_into(std::span<const T> items,
                     std::vector<std::int64_t>& words) {
  constexpr std::size_t wpe = kWordsPerItem<T>;
  words.assign(items.size() * wpe, 0);
  for (std::size_t i = 0; i < items.size(); ++i) {
    pack_item(items[i], words.data() + i * wpe);
  }
}

/// Packs an array of T into a fresh flat word array (see pack_words_into).
template <typename T>
std::vector<std::int64_t> pack_words(std::span<const T> items) {
  std::vector<std::int64_t> words;
  pack_words_into(items, words);
  return words;
}

/// Throws CodecError unless `words` is a whole number of T strides.
template <typename T>
std::size_t whole_items(std::span<const std::int64_t> words) {
  constexpr std::size_t wpe = kWordsPerItem<T>;
  if (words.size() % wpe != 0) {
    throw CodecError("payload of " + std::to_string(words.size()) +
                     " words is not a whole number of " +
                     std::to_string(wpe) + "-word items");
  }
  return words.size() / wpe;
}

/// Inverse of pack_words, writing the decoded items over the front of
/// `out` and returning how many there are: words.size() must be a whole
/// number of item strides, and the items must fit `out` — otherwise
/// monge::CodecError, before anything is written.
template <typename T>
std::size_t unpack_words_into(std::span<const std::int64_t> words,
                              std::span<T> out) {
  static_assert(std::is_trivially_copyable_v<T>);
  constexpr std::size_t wpe = kWordsPerItem<T>;
  const std::size_t n = whole_items<T>(words);
  if (n > out.size()) {
    throw CodecError("payload of " + std::to_string(n) +
                     " items does not fit the " + std::to_string(out.size()) +
                     " slots it decodes into");
  }
  for (std::size_t i = 0; i < n; ++i) {
    // The static_assert above makes the memcpy well-defined even when T is
    // "non-trivial" only through default member initializers; the void* cast
    // tells -Wclass-memaccess exactly that.
    std::memcpy(static_cast<void*>(&out[i]), words.data() + i * wpe,
                sizeof(T));
  }
  return n;
}

/// Inverse of pack_words, appending the decoded items to `out`; same
/// contract (and CodecError, before anything is appended) as
/// unpack_words_into.
template <typename T>
void unpack_words_append(std::span<const std::int64_t> words,
                         std::vector<T>& out) {
  const std::size_t base = out.size();
  out.resize(base + whole_items<T>(words));
  unpack_words_into<T>(words, std::span<T>(out).subspan(base));
}

/// Inverse of pack_words into a fresh array (see unpack_words_append).
template <typename T>
std::vector<T> unpack_words(std::span<const std::int64_t> words) {
  std::vector<T> items;
  unpack_words_append(words, items);
  return items;
}

}  // namespace monge::util
