/**
 * @file
 * Saturating counter used by the branch predictor.
 */

#ifndef TPROC_COMMON_SAT_COUNTER_HH
#define TPROC_COMMON_SAT_COUNTER_HH

#include <cstdint>

namespace tproc
{

/** An n-bit up/down saturating counter. */
class SatCounter
{
  public:
    explicit SatCounter(unsigned bits_ = 2, unsigned initial = 0)
        : maxVal((1u << bits_) - 1), count(initial)
    {}

    void
    increment()
    {
        if (count < maxVal)
            ++count;
    }

    void
    decrement()
    {
        if (count > 0)
            --count;
    }

    /** True in the upper half of the counter range ("taken" for 2-bit). */
    bool isSet() const { return count > maxVal / 2; }

    unsigned value() const { return count; }
    unsigned max() const { return maxVal; }

    void set(unsigned v) { count = v > maxVal ? maxVal : v; }

  private:
    unsigned maxVal;
    unsigned count;
};

} // namespace tproc

#endif // TPROC_COMMON_SAT_COUNTER_HH
