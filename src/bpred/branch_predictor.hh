/**
 * @file
 * Conditional branch predictor per Table 1: a 16K-entry tagless BTB of
 * 2-bit counters, indexed by branch pc. Used during trace construction
 * and trace repair (the next-trace predictor handles trace-level
 * sequencing; this simple predictor supplies per-branch outcomes when a
 * trace must be built or repaired instruction by instruction). Each
 * entry also holds the last target of an indirect branch at its pc.
 * The table is a LazyTable, so an entry never trained reads weakly
 * not-taken with no target.
 */

#ifndef TPROC_BPRED_BRANCH_PREDICTOR_HH
#define TPROC_BPRED_BRANCH_PREDICTOR_HH

#include <cstddef>
#include <cstdint>

#include "common/lazy_table.hh"
#include "common/types.hh"

namespace tproc
{

class BranchPredictor
{
  public:
    /** @param entries number of BTB entries (power of two). */
    explicit BranchPredictor(size_t entries = 16 * 1024);

    /** Predict the direction of the conditional branch at pc. */
    bool predict(Addr pc) const;

    /** Train with the resolved outcome. */
    void update(Addr pc, bool taken);

    uint64_t lookups = 0;
    uint64_t mispredicts = 0;

    /** Convenience: predict, count accuracy against actual, update. */
    bool
    predictAndTrain(Addr pc, bool actual_taken)
    {
        bool pred = predict(pc);
        ++lookups;
        if (pred != actual_taken)
            ++mispredicts;
        update(pc, actual_taken);
        return pred;
    }

    /** Predict the target of the indirect branch at pc (last-target
     *  BTB behaviour); invalidAddr if never seen. */
    Addr predictTarget(Addr pc) const;

    /** Record the resolved target of an indirect branch. */
    void updateTarget(Addr pc, Addr target);

    /** Table entries the constructor initialised (bitmap words). */
    size_t setupEntries() const { return table.setupEntries(); }

  private:
    /** A 2-bit saturating direction counter and a last target. */
    struct Entry
    {
        uint8_t counter;
        Addr target;
    };

    size_t index(Addr pc) const { return pc & (table.size() - 1); }

    LazyTable<Entry> table;
};

} // namespace tproc

#endif // TPROC_BPRED_BRANCH_PREDICTOR_HH
