/** @file Next-trace predictor and branch predictor tests. */

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "bpred/branch_predictor.hh"
#include "common/random.hh"
#include "tpred/trace_predictor.hh"

namespace tproc
{

namespace
{

TraceId
id(Addr pc, uint32_t bits = 0)
{
    TraceId t;
    t.startPc = pc;
    t.outcomes = bits;
    t.numBranches = 4;
    return t;
}

} // namespace

TEST(TracePredictor, LearnsRepeatingSequence)
{
    TracePredictor tp;
    std::vector<TraceId> seq = {id(100), id(200, 5), id(300), id(400, 2)};

    PathHistory hist;
    // Train a few laps.
    for (int lap = 0; lap < 8; ++lap) {
        for (const auto &t : seq) {
            tp.update(hist, t);
            hist.push(t);
        }
    }
    // Now predictions should follow the cycle.
    int correct = 0;
    for (const auto &t : seq) {
        auto p = tp.predict(hist);
        if (p && *p == t)
            ++correct;
        tp.update(hist, t);
        hist.push(t);
    }
    EXPECT_EQ(correct, 4);
}

TEST(TracePredictor, PathHistoryDisambiguates)
{
    // A follows X in one context and B in another; only path history can
    // tell them apart.
    TracePredictor tp;
    TraceId x = id(10), a = id(20), b = id(30), c1 = id(40), c2 = id(50);

    PathHistory h1;     // context 1: c1 -> x -> a
    PathHistory h2;     // context 2: c2 -> x -> b
    for (int lap = 0; lap < 10; ++lap) {
        h1.clear();
        h1.push(c1);
        tp.update(h1, x);
        h1.push(x);
        tp.update(h1, a);

        h2.clear();
        h2.push(c2);
        tp.update(h2, x);
        h2.push(x);
        tp.update(h2, b);
    }

    PathHistory q1;
    q1.push(c1);
    q1.push(x);
    auto p1 = tp.predict(q1);
    ASSERT_TRUE(p1.has_value());
    EXPECT_EQ(*p1, a);

    PathHistory q2;
    q2.push(c2);
    q2.push(x);
    auto p2 = tp.predict(q2);
    ASSERT_TRUE(p2.has_value());
    EXPECT_EQ(*p2, b);
}

TEST(TracePredictor, NoPredictionWhenCold)
{
    TracePredictor tp;
    PathHistory h;
    h.push(id(12345));
    EXPECT_FALSE(tp.predict(h).has_value());
}

namespace
{

/**
 * Predict-then-train over a seeded stream of 24 trace ids whose
 * successor is one of three candidates, so entries are confirmed,
 * lose confidence and get replaced. Returns the predicted start pcs
 * (0 for no prediction) of the first `listed` steps and a fold of every
 * full prediction.
 */
std::pair<std::vector<Addr>, uint64_t>
predictionRun(TracePredictor &tp, int steps, int listed)
{
    Rng rng(42);
    std::vector<Addr> firsts;
    uint64_t fold = 0xcbf29ce484222325ull;
    PathHistory hist;
    uint64_t prev = 0;
    for (int i = 0; i < steps; ++i) {
        prev = (prev * 3 + rng.below(3)) % 24;
        const TraceId actual = id(100 * (prev + 1),
                                  static_cast<uint32_t>(prev % 7));
        const std::optional<TraceId> p = tp.predict(hist);
        const uint64_t v = p ? p->startPc ^ (uint64_t(p->outcomes) << 20) ^
                uint64_t(p->numBranches) << 40
                             : 0xdeadull;
        fold = (fold ^ v) * 0x100000001b3ull;
        if (i < listed)
            firsts.push_back(p ? p->startPc : 0);
        tp.update(hist, actual);
        hist.push(actual);
    }
    return {firsts, fold};
}

} // namespace

TEST(TracePredictor, FreshAndResetPredictorsPredictNothing)
{
    TracePredictor fresh;
    TracePredictor used;
    predictionRun(used, 20000, 0);
    used.reset();
    EXPECT_EQ(used.predictions, 0u);
    Rng rng(3);
    PathHistory h;
    for (int i = 0; i < 20000; ++i) {
        h.push(id(rng.next() % 100000, static_cast<uint32_t>(rng.next())));
        ASSERT_FALSE(fresh.predict(h).has_value()) << i;
        ASSERT_FALSE(used.predict(h).has_value()) << i;
    }
    // Retraining after reset behaves exactly like a fresh predictor.
    TracePredictor again;
    EXPECT_EQ(predictionRun(used, 5000, 64), predictionRun(again, 5000, 64));
}

TEST(TracePredictor, PinnedPredictionsMatchTheEagerTables)
{
    // Literals recorded from the predictor whose tables were fully
    // initialised at construction; the lazily valid tables must
    // reproduce them. Small tables alias heavily (replacement paths).
    TracePredictor::Params small;
    small.pathEntries = 64;
    small.simpleEntries = 16;
    TracePredictor tiny(small);
    const auto [tinyFirsts, tinyFold] = predictionRun(tiny, 20000, 24);
    const std::vector<Addr> wantTiny = {
        0, 0, 0, 0, 0, 0, 1800, 0, 1200, 300, 1800, 300,
        900, 0, 1800, 600, 100, 600, 200, 1800, 500, 500, 1200, 1200};
    EXPECT_EQ(tinyFirsts, wantTiny);
    EXPECT_EQ(tinyFold, 6406718299602047362ull);

    TracePredictor full;
    const auto [fullFirsts, fullFold] = predictionRun(full, 20000, 24);
    const std::vector<Addr> wantFull = {
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 400, 1800, 0, 600, 0, 1800, 200, 600, 1200, 700};
    EXPECT_EQ(fullFirsts, wantFull);
    EXPECT_EQ(fullFold, 5901391820346235124ull);
}

TEST(BranchPredictor, TwoBitHysteresis)
{
    BranchPredictor bp(1024);
    Addr pc = 77;
    // Initialized weakly not-taken.
    EXPECT_FALSE(bp.predict(pc));
    bp.update(pc, true);
    EXPECT_TRUE(bp.predict(pc));
    bp.update(pc, true);            // strongly taken
    bp.update(pc, false);
    EXPECT_TRUE(bp.predict(pc));    // hysteresis survives one not-taken
    bp.update(pc, false);
    EXPECT_FALSE(bp.predict(pc));
}

TEST(BranchPredictor, BiasedStreamAccuracy)
{
    BranchPredictor bp;
    Rng rng(5);
    uint64_t misp = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        bool taken = rng.chance(0.9);
        if (bp.predictAndTrain(i % 64, taken) != taken)
            ++misp;
    }
    double rate = static_cast<double>(misp) / n;
    EXPECT_GT(rate, 0.05);
    EXPECT_LT(rate, 0.20);      // ~2(1-p) for a 2-bit counter
}

TEST(BranchPredictor, IndirectTargets)
{
    BranchPredictor bp;
    EXPECT_EQ(bp.predictTarget(50), invalidAddr);
    bp.updateTarget(50, 777);
    EXPECT_EQ(bp.predictTarget(50), 777u);
    bp.updateTarget(50, 888);
    EXPECT_EQ(bp.predictTarget(50), 888u);  // last-target behaviour
}

} // namespace tproc
