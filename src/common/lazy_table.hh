/**
 * @file
 * LazyTable: a fixed-size table whose entries are left uninitialised
 * until first written, so constructing a big predictor table costs a
 * bitmap, not the table.
 */

#ifndef TPROC_COMMON_LAZY_TABLE_HH
#define TPROC_COMMON_LAZY_TABLE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace tproc
{

/**
 * A table of n entries that reads as if every entry were `fresh`
 * until written. The entries themselves are left uninitialised: a
 * valid bitmap of at most blockBits bits (1 KB) holds one bit per
 * block of entries, and touching the first entry of a block stamps
 * `fresh` over the whole block and sets its bit. Construction and
 * clear() touch only the bitmap.
 */
template <typename Entry>
class LazyTable
{
    static_assert(std::is_trivially_default_constructible_v<Entry>,
                  "lazy table entries must be left uninitialised");

  public:
    /** Valid-bitmap bits per table (1 KB). */
    static constexpr size_t blockBits = 8 * 1024;

    LazyTable(size_t n_, const Entry &fresh_)
        : blockValid((std::min(n_, blockBits) + 63) / 64, 0),
          fresh(fresh_), n(n_), entries(new Entry[n_])
    {
        while (n && ((n - 1) >> blockShift) >= blockBits)
            ++blockShift;
    }

    /** Entry i as last written, or the fresh entry if never touched. */
    const Entry &
    operator[](size_t i) const
    {
        return blockSet(i >> blockShift) ? entries[i] : fresh;
    }

    /** Entry i for writing, its block made valid first. */
    Entry &
    touch(size_t i)
    {
        const size_t b = i >> blockShift;
        if (!blockSet(b)) {
            const size_t first = b << blockShift;
            const size_t last = std::min(n, first + (size_t(1) << blockShift));
            std::fill(entries.get() + first, entries.get() + last, fresh);
            blockValid[b >> 6] |= uint64_t(1) << (b & 63);
        }
        return entries[i];
    }

    /** Every entry reads fresh again. */
    void clear() { std::fill(blockValid.begin(), blockValid.end(), 0); }

    size_t size() const { return n; }

    /** Words the constructor initialised (the valid bitmap). */
    size_t setupEntries() const { return blockValid.size(); }

  private:
    bool
    blockSet(size_t b) const
    {
        return (blockValid[b >> 6] >> (b & 63)) & 1;
    }

    std::vector<uint64_t> blockValid;   //!< one bit per block
    Entry fresh;
    size_t n;
    unsigned blockShift = 0;    //!< log2(entries per block)
    std::unique_ptr<Entry[]> entries;
};

} // namespace tproc

#endif // TPROC_COMMON_LAZY_TABLE_HH
