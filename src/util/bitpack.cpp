#include "util/bitpack.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

namespace uesr::util {

int bits_for_value(std::uint64_t v) {
  if (v == 0) return 1;
  return std::bit_width(v);
}

int bits_for_count(std::uint64_t count) {
  if (count <= 1) return 0;
  return std::bit_width(count - 1);
}

int ceil_log2(std::uint64_t v) {
  if (v == 0) throw std::invalid_argument("ceil_log2: v == 0");
  return std::bit_width(v - 1);
}

int floor_log2(std::uint64_t v) {
  if (v == 0) throw std::invalid_argument("floor_log2: v == 0");
  return std::bit_width(v) - 1;
}

PackedArray::PackedArray(int width, std::size_t size)
    : width_(width),
      mask_(width >= 64 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << width) - 1),
      size_(size) {
  if (width < 1 || width > 57)
    throw std::invalid_argument("PackedArray: width must be in [1, 57]");
  const std::size_t bits = size * static_cast<std::size_t>(width);
  // +1 spare word: get()'s unconditional-looking straddle load may touch
  // word+1 for the last entry.
  words_.assign((bits + 63) / 64 + 1, 0);
}

PackedArray PackedArray::repeating(int width, std::size_t size,
                                   const std::vector<std::uint64_t>& period) {
  if (period.empty())
    throw std::invalid_argument("PackedArray::repeating: empty period");
  PackedArray a(width, size);
  const std::size_t cycle_bits =
      std::lcm<std::size_t>(64, period.size() * static_cast<std::size_t>(width));
  const std::size_t cycle_entries =
      std::min(size, cycle_bits / static_cast<std::size_t>(width));
  for (std::size_t i = 0; i < cycle_entries; ++i)
    a.set(i, period[i % period.size()]);
  const std::size_t bits = size * static_cast<std::size_t>(width);
  const std::size_t used_words = (bits + 63) / 64;
  const std::size_t cycle_words = cycle_bits / 64;
  for (std::size_t w = cycle_words; w < used_words; ++w)
    a.words_[w] = a.words_[w - cycle_words];
  // A copied last word carries the cycle's bits past the final entry; the
  // set() path leaves them zero.
  if (bits % 64 != 0 && used_words > cycle_words)
    a.words_[used_words - 1] &= (std::uint64_t{1} << (bits % 64)) - 1;
  return a;
}

void PackedArray::set(std::size_t i, std::uint64_t value) {
  value &= mask_;
  const std::size_t bit = i * static_cast<std::size_t>(width_);
  const std::size_t word = bit >> 6;
  const unsigned shift = static_cast<unsigned>(bit & 63);
  words_[word] = (words_[word] & ~(mask_ << shift)) | (value << shift);
  if (shift + static_cast<unsigned>(width_) > 64) {
    const unsigned spill = 64 - shift;
    words_[word + 1] =
        (words_[word + 1] & ~(mask_ >> spill)) | (value >> spill);
  }
}

}  // namespace uesr::util
