/**
 * @file
 * Sorted address-pair maps: the rewriter's original -> relocated
 * block and instruction maps, and the maps serialized into sections —
 * the .ra_map (relocated return address -> original return address)
 * and the .trap_map (trap trampoline site -> relocated target). The
 * runtime library parses these blobs from the rewritten binary,
 * exactly as the paper's LD_PRELOAD library extracts its mapping.
 */

#ifndef ICP_BINFMT_ADDR_MAP_HH
#define ICP_BINFMT_ADDR_MAP_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "support/types.hh"

namespace icp
{

/**
 * A sorted flat map from one address to another with O(log n)
 * lookup, plus a compact byte serialization. Copying one is a single
 * vector copy; at browser scale it holds millions of entries.
 */
class AddrPairMap
{
  public:
    using Pair = std::pair<Addr, Addr>;

    AddrPairMap() = default;

    /** Build from unsorted pairs; duplicate keys are an error. */
    explicit AddrPairMap(std::vector<Pair> pairs);

    /** Translate @p key; nullopt when absent. */
    std::optional<Addr> lookup(Addr key) const;

    /** Append @p run, whose keys all exceed every present key. */
    void append(std::vector<Pair> run);

    /** Replace every entry keyed in [@p lo, @p hi) with @p run. */
    void replaceRange(Addr lo, Addr hi, std::vector<Pair> run);

    std::size_t size() const { return pairs_.size(); }
    bool empty() const { return pairs_.empty(); }

    const std::vector<Pair> &pairs() const { return pairs_; }

    std::vector<std::uint8_t> serialize() const;

    /** Why @p bytes is not a serialization (size 4 + 16 * count,
     *  keys strictly increasing); empty when it is one. */
    static std::string malformation(const std::vector<std::uint8_t> &bytes);

    /** Parse a serialization; aborts on a malformed one. */
    static AddrPairMap parse(const std::vector<std::uint8_t> &bytes);

  private:
    /** Index of the first entry keyed at or above @p key. */
    std::ptrdiff_t keyBound(Addr key) const;

    std::vector<Pair> pairs_; // sorted by first
};

} // namespace icp

#endif // ICP_BINFMT_ADDR_MAP_HH
