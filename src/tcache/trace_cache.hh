/**
 * @file
 * Trace cache (Table 1): 128KB, 4-way associative, LRU, line size of 32
 * instructions. Indexed by full trace identity (start pc + branch
 * outcomes), so path associativity is implicit in the tag.
 */

#ifndef TPROC_TCACHE_TRACE_CACHE_HH
#define TPROC_TCACHE_TRACE_CACHE_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "trace/trace.hh"

namespace tproc
{

class TraceCache
{
  public:
    struct Params
    {
        size_t sizeBytes = 128 * 1024;
        size_t assoc = 4;
        size_t lineInsts = 32;
        static constexpr size_t instBytes = 4;
    };

    TraceCache() : TraceCache(Params()) {}
    explicit TraceCache(const Params &p);

    /** Look up a trace by identity; nullptr on miss. */
    std::shared_ptr<const Trace> lookup(const TraceId &id);

    /** Probe without stats or LRU update. */
    std::shared_ptr<const Trace> probe(const TraceId &id) const;

    /** Fill with a newly constructed trace. */
    void insert(std::shared_ptr<const Trace> trace);

    void reset();

    uint64_t lookups = 0;
    uint64_t misses = 0;

    size_t numSets() const { return sets; }

    /** Table entries the constructor initialised. */
    size_t setupEntries() const { return array.size(); }

  private:
    struct Way
    {
        std::shared_ptr<const Trace> trace;    // null = invalid
        uint64_t lastUse = 0;
    };

    size_t setIndex(const TraceId &id) const { return id.hash() & (sets - 1); }

    size_t sets;
    size_t assoc;
    uint64_t useClock = 0;
    std::vector<Way> array;
};

} // namespace tproc

#endif // TPROC_TCACHE_TRACE_CACHE_HH
