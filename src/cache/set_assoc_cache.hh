/**
 * @file
 * Generic set-associative tag array with LRU replacement. Models hit/miss
 * behaviour only (no data payload); instruction and data caches wrap it.
 */

#ifndef TPROC_CACHE_SET_ASSOC_CACHE_HH
#define TPROC_CACHE_SET_ASSOC_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace tproc
{

class SetAssocCache
{
  public:
    /**
     * @param size_bytes total capacity
     * @param assoc ways per set
     * @param line_bytes line size
     */
    SetAssocCache(size_t size_bytes, size_t assoc, size_t line_bytes);

    /** Probe without modifying state. */
    bool probe(Addr byte_addr) const;

    /** Access: on miss, allocate with LRU replacement. @return hit */
    bool access(Addr byte_addr);

    /** Insert a line without counting an access (fills). */
    void fill(Addr byte_addr);

    /** Invalidate everything. */
    void reset();

    uint64_t accesses = 0;
    uint64_t misses = 0;

    size_t numSets() const { return sets; }
    size_t associativity() const { return ways; }
    size_t lineBytes() const { return lineSize; }

    /** Table entries the constructor initialised. */
    size_t setupEntries() const { return array.size(); }

  private:
    struct Way
    {
        bool valid = false;
        Addr tag = 0;
        uint64_t lastUse = 0;
    };

    Addr lineAddr(Addr byte_addr) const { return byte_addr / lineSize; }
    size_t setIndex(Addr line) const { return line % sets; }
    Addr tagOf(Addr line) const { return line / sets; }

    size_t sets;
    size_t ways;
    size_t lineSize;
    uint64_t useClock = 0;
    std::vector<Way> array;     // sets x ways
};

} // namespace tproc

#endif // TPROC_CACHE_SET_ASSOC_CACHE_HH
