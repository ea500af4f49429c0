#include "bpred/branch_predictor.hh"

#include "common/logging.hh"

namespace tproc
{

namespace
{

/** The 2-bit counter's ceiling; it predicts taken above half. */
constexpr uint8_t counterMax = 3;

} // anonymous namespace

BranchPredictor::BranchPredictor(size_t entries)
    : table(entries, Entry{1, invalidAddr})
{
    panic_if(entries == 0 || (entries & (entries - 1)) != 0,
             "BranchPredictor: entries must be a power of two");
}

bool
BranchPredictor::predict(Addr pc) const
{
    return table[index(pc)].counter > counterMax / 2;
}

void
BranchPredictor::update(Addr pc, bool taken)
{
    uint8_t &c = table.touch(index(pc)).counter;
    if (taken && c < counterMax)
        ++c;
    else if (!taken && c > 0)
        --c;
}

Addr
BranchPredictor::predictTarget(Addr pc) const
{
    return table[index(pc)].target;
}

void
BranchPredictor::updateTarget(Addr pc, Addr target)
{
    table.touch(index(pc)).target = target;
}

} // namespace tproc
