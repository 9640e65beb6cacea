#include "binfmt/addr_map.hh"

#include <algorithm>

#include "isa/bytes.hh"
#include "support/logging.hh"

namespace icp
{

namespace
{

/** Sort @p pairs unless already sorted; duplicate keys are an error. */
void
sortUnique(std::vector<AddrPairMap::Pair> &pairs)
{
    if (!std::is_sorted(pairs.begin(), pairs.end()))
        std::sort(pairs.begin(), pairs.end());
    for (std::size_t i = 1; i < pairs.size(); ++i) {
        icp_assert(pairs[i].first != pairs[i - 1].first,
                   "AddrPairMap: duplicate key 0x%llx",
                   static_cast<unsigned long long>(pairs[i].first));
    }
}

} // namespace

AddrPairMap::AddrPairMap(std::vector<Pair> pairs)
    : pairs_(std::move(pairs))
{
    sortUnique(pairs_);
}

std::ptrdiff_t
AddrPairMap::keyBound(Addr key) const
{
    return std::lower_bound(
               pairs_.begin(), pairs_.end(), key,
               [](const Pair &p, Addr k) { return p.first < k; }) -
           pairs_.begin();
}

std::optional<Addr>
AddrPairMap::lookup(Addr key) const
{
    const auto i = static_cast<std::size_t>(keyBound(key));
    if (i == pairs_.size() || pairs_[i].first != key)
        return std::nullopt;
    return pairs_[i].second;
}

void
AddrPairMap::append(std::vector<Pair> run)
{
    // An empty range past the last key.
    replaceRange(pairs_.empty() ? 0 : pairs_.back().first + 1,
                 invalid_addr, std::move(run));
}

void
AddrPairMap::replaceRange(Addr lo, Addr hi, std::vector<Pair> run)
{
    sortUnique(run);
    icp_assert(run.empty() ||
                   (run.front().first >= lo && run.back().first < hi),
               "AddrPairMap: key 0x%llx outside [0x%llx, 0x%llx)",
               static_cast<unsigned long long>(run.front().first),
               static_cast<unsigned long long>(lo),
               static_cast<unsigned long long>(hi));
    const auto first = keyBound(lo), last = keyBound(hi);
    const auto n = static_cast<std::ptrdiff_t>(run.size());
    // One memmove at most: resize the gap, then overwrite it.
    if (n > last - first)
        pairs_.insert(pairs_.begin() + last, n - (last - first), Pair{});
    else
        pairs_.erase(pairs_.begin() + first + n, pairs_.begin() + last);
    std::copy(run.begin(), run.end(), pairs_.begin() + first);
}

std::vector<std::uint8_t>
AddrPairMap::serialize() const
{
    std::vector<std::uint8_t> out;
    putU32(out, static_cast<std::uint32_t>(pairs_.size()));
    for (const auto &[from, to] : pairs_) {
        putU64(out, from);
        putU64(out, to);
    }
    return out;
}

std::string
AddrPairMap::malformation(const std::vector<std::uint8_t> &bytes)
{
    if (bytes.size() < 4)
        return "payload shorter than its 4-byte count";
    const std::uint64_t count = getU32(bytes.data());
    if (bytes.size() != 4 + count * 16)
        return "payload of " + std::to_string(bytes.size()) +
               " bytes does not hold " + std::to_string(count) +
               " pairs";
    for (std::uint64_t i = 1; i < count; ++i) {
        if (getU64(bytes.data() + 4 + 16 * i) <=
            getU64(bytes.data() + 4 + 16 * (i - 1)))
            return "keys not strictly increasing at pair " +
                   std::to_string(i);
    }
    return {};
}

AddrPairMap
AddrPairMap::parse(const std::vector<std::uint8_t> &bytes)
{
    const std::string bad = malformation(bytes);
    icp_assert(bad.empty(), "addr map malformed: %s", bad.c_str());
    AddrPairMap map;
    map.pairs_.reserve(getU32(bytes.data()));
    for (std::size_t pos = 4; pos < bytes.size(); pos += 16) {
        map.pairs_.emplace_back(getU64(bytes.data() + pos),
                                getU64(bytes.data() + pos + 8));
    }
    return map;
}

} // namespace icp
