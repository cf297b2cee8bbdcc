/**
 * @file
 * Differential test of the zero-allocation fair-share allocator
 * against the retained reference implementation.
 *
 * fairShareSolveSubset() (the engine hot path, reusable workspace),
 * run over a whole flow set, must produce the rates of
 * fairShareRatesReference() (the original allocation-per-call
 * implementation) on every input.  This
 * drives ~1k randomized flow sets -- varying resource counts, path
 * lengths (including paths long enough to spill PathVec's inline
 * storage), caps, and the degenerate empty-path / cap-only flows --
 * through both, reusing one scratch workspace across all of them so
 * stale-state bugs would surface as cross-set contamination.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/fairshare.hh"
#include "util/rng.hh"

namespace mcscope {
namespace {

struct Scenario
{
    std::vector<double> caps;
    std::vector<FairShareFlow> flows;
};

Scenario
randomScenario(Rng &rng)
{
    Scenario s;
    const int nr = 1 + static_cast<int>(rng.below(8));
    const int nf = static_cast<int>(rng.below(33)); // may be zero
    for (int r = 0; r < nr; ++r)
        s.caps.push_back(rng.uniform(0.5, 2000.0));
    for (int f = 0; f < nf; ++f) {
        FairShareFlow fl;
        const uint64_t kind = rng.below(10);
        if (kind == 0) {
            // Degenerate: no path, no cap (instantaneous).
        } else if (kind == 1) {
            // Cap-only flow (latency-limited stream off-path).
            fl.rateCap = rng.uniform(0.1, 500.0);
        } else {
            // Path of 1..6 hops; > 4 exercises PathVec heap spill.
            const int plen = 1 + static_cast<int>(rng.below(6));
            for (int k = 0; k < plen; ++k) {
                auto r = static_cast<ResourceId>(rng.below(nr));
                bool dup = false;
                for (ResourceId e : fl.path)
                    dup = dup || e == r;
                if (!dup)
                    fl.path.push_back(r);
            }
            if (rng.below(3) == 0)
                fl.rateCap = rng.uniform(0.1, 500.0);
        }
        s.flows.push_back(std::move(fl));
    }
    return s;
}

/**
 * Solve every flow of `flows` over every resource through the subset
 * solver, with identity slots (flow f in slot f).  The input arrays
 * are rebuilt per call; `scratch` is the caller's, so reuse across
 * calls is what the tests exercise.
 */
void
solveAll(const std::vector<double> &caps,
         const std::vector<FairShareFlow> &flows,
         FairShareScratch &scratch)
{
    std::vector<PathVec> paths;
    std::vector<double> rateCaps;
    std::vector<int> slots;
    for (size_t f = 0; f < flows.size(); ++f) {
        paths.push_back(flows[f].path);
        rateCaps.push_back(flows[f].rateCap);
        slots.push_back(static_cast<int>(f));
    }
    std::vector<ResourceId> resources;
    for (size_t r = 0; r < caps.size(); ++r)
        resources.push_back(static_cast<ResourceId>(r));
    fairShareSolveSubset(caps, paths, rateCaps, slots.data(),
                         slots.size(), resources.data(),
                         resources.size(), scratch);
}

TEST(FairShareDiff, OptimizedMatchesReferenceOnRandomFlowSets)
{
    Rng rng(0x5eedf00dULL);
    FairShareScratch scratch; // deliberately reused across all sets
    for (int iter = 0; iter < 1000; ++iter) {
        Scenario s = randomScenario(rng);
        std::vector<double> ref =
            fairShareRatesReference(s.caps, s.flows);
        solveAll(s.caps, s.flows, scratch);
        ASSERT_EQ(scratch.rates.size(), ref.size())
            << "iteration " << iter;
        for (size_t f = 0; f < ref.size(); ++f) {
            if (std::isinf(ref[f])) {
                EXPECT_TRUE(std::isinf(scratch.rates[f]))
                    << "iteration " << iter << " flow " << f;
                continue;
            }
            EXPECT_NEAR(scratch.rates[f], ref[f],
                        1e-9 * std::max(1.0, std::abs(ref[f])))
                << "iteration " << iter << " flow " << f;
        }
    }
}

TEST(FairShareDiff, ScratchReuseDoesNotLeakStateAcrossShrinkingSets)
{
    // A large set followed by a tiny one: every scratch array must be
    // re-extent-ed, not merely overwritten in place.
    std::vector<double> caps_big(16, 100.0);
    std::vector<FairShareFlow> big;
    for (int f = 0; f < 64; ++f) {
        FairShareFlow fl;
        fl.path = {static_cast<ResourceId>(f % 16)};
        big.push_back(std::move(fl));
    }
    FairShareScratch scratch;
    solveAll(caps_big, big, scratch);
    ASSERT_EQ(scratch.rates.size(), 64u);

    std::vector<double> caps_small = {10.0};
    std::vector<FairShareFlow> small;
    FairShareFlow fl;
    fl.path = {0};
    small.push_back(std::move(fl));
    solveAll(caps_small, small, scratch);
    ASSERT_EQ(scratch.rates.size(), 1u);
    EXPECT_DOUBLE_EQ(scratch.rates[0], 10.0);
}

} // namespace
} // namespace mcscope
