// Bit-level size accounting for the O(log n) space claims (Theorem 1),
// plus packed fixed-width storage.
//
// The paper bounds two quantities: the message-header overhead and the
// per-node working space, both O(log n) where n is the namespace size.  The
// width helpers compute exact bit widths so benches/tests can verify the
// bound with real numbers rather than hand-waving.
//
// PackedArray turns those widths into storage: a flat array of w-bit
// unsigned entries packed into 64-bit words.  The motivating consumer is
// graph::Graph's 3-regular fast path, whose far-end ports fit 2 bits each —
// packing them quarters the port storage of a million-gadget reduced graph
// and keeps the whole array cache-resident under the multi-walk stepping
// kernel (DESIGN.md §2.13).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace uesr::util {

/// Number of bits needed to represent values in [0, v] (bit_width(v), >= 1).
int bits_for_value(std::uint64_t v);

/// Number of bits needed to index a set of `count` items ([0, count-1]).
/// By convention 0 for empty/singleton sets (no information needed).
int bits_for_count(std::uint64_t count);

/// ceil(log2(v)) for v >= 1.
int ceil_log2(std::uint64_t v);

/// floor(log2(v)) for v >= 1.
int floor_log2(std::uint64_t v);

/// Fixed-width packed unsigned storage: `size` entries of `width` bits each
/// (1 <= width <= 57), packed little-endian into 64-bit words.  Entries may
/// straddle a word boundary; get() is branch-light and inline because the
/// hot consumers (rotation-map lookups) call it once per walk step.
///
/// The width cap of 57 guarantees an entry spans at most two words, which
/// keeps the straddle path a single extra load.  Values wider than the
/// width are masked on set() (callers that care should range-check first).
class PackedArray {
 public:
  PackedArray() = default;
  /// Zero-initialized array of `size` w-bit entries.
  PackedArray(int width, std::size_t size);

  /// `size` w-bit entries repeating `period` (entry i holds
  /// period[i % period.size()]), written a word at a time: the bit stream
  /// repeats every lcm(64, period.size() * width) bits, so only the first
  /// such cycle is set() entry by entry and the rest are word copies.
  /// Equal (operator==) to set()ting every entry of a fresh array.
  static PackedArray repeating(int width, std::size_t size,
                               const std::vector<std::uint64_t>& period);

  std::size_t size() const { return size_; }
  int width() const { return width_; }
  bool empty() const { return size_ == 0; }

  /// Entry i, zero-extended to 64 bits.  Precondition: i < size().
  std::uint64_t get(std::size_t i) const {
    const std::size_t bit = i * static_cast<std::size_t>(width_);
    const std::size_t word = bit >> 6;
    const unsigned shift = static_cast<unsigned>(bit & 63);
    std::uint64_t v = words_[word] >> shift;
    if (shift + static_cast<unsigned>(width_) > 64)
      v |= words_[word + 1] << (64 - shift);
    return v & mask_;
  }

  /// Stores value & ((1 << width) - 1) at entry i.  Precondition: i < size().
  void set(std::size_t i, std::uint64_t value);

  /// Heap bytes of the packed words — the number the memory-lean claims in
  /// DESIGN.md §2.13 are stated over.
  std::size_t byte_size() const { return words_.size() * sizeof(std::uint64_t); }

  /// The word holding entry i's low bits — a prefetch target only (the
  /// multi-walk kernel's sweeps warm it a slot ahead of get()).
  const std::uint64_t* word_of(std::size_t i) const {
    return words_.data() + ((i * static_cast<std::size_t>(width_)) >> 6);
  }

  friend bool operator==(const PackedArray&, const PackedArray&) = default;

 private:
  int width_ = 0;
  std::uint64_t mask_ = 0;
  std::size_t size_ = 0;
  /// One spare word so the straddle read in get() never runs off the end.
  std::vector<std::uint64_t> words_;
};

}  // namespace uesr::util
