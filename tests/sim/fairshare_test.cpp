/**
 * @file
 * Unit tests for the max-min fair (progressive filling) allocator,
 * driven through the subset solver over whole flow sets.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/fairshare.hh"

namespace mcscope {
namespace {

FairShareFlow
flow(std::vector<ResourceId> path, double cap = 0.0)
{
    FairShareFlow f;
    f.path = std::move(path);
    f.rateCap = cap;
    return f;
}

/**
 * Solve every flow over every resource: the subset solver with
 * identity slots (flow f in slot f) and the whole resource list.
 */
std::vector<double>
solveAll(const std::vector<double> &capacities,
         const std::vector<FairShareFlow> &flows)
{
    std::vector<PathVec> paths;
    std::vector<double> caps;
    std::vector<int> slots;
    for (size_t f = 0; f < flows.size(); ++f) {
        paths.push_back(flows[f].path);
        caps.push_back(flows[f].rateCap);
        slots.push_back(static_cast<int>(f));
    }
    std::vector<ResourceId> resources;
    for (size_t r = 0; r < capacities.size(); ++r)
        resources.push_back(static_cast<ResourceId>(r));
    FairShareScratch scratch;
    fairShareSolveSubset(capacities, paths, caps, slots.data(),
                         slots.size(), resources.data(),
                         resources.size(), scratch);
    return scratch.rates;
}

TEST(FairShare, SingleFlowGetsFullCapacity)
{
    auto rates = solveAll({100.0}, {flow({0})});
    ASSERT_EQ(rates.size(), 1u);
    EXPECT_DOUBLE_EQ(rates[0], 100.0);
}

TEST(FairShare, TwoFlowsSplitEvenly)
{
    auto rates = solveAll({100.0}, {flow({0}), flow({0})});
    EXPECT_DOUBLE_EQ(rates[0], 50.0);
    EXPECT_DOUBLE_EQ(rates[1], 50.0);
}

TEST(FairShare, CapLimitsFlowAndReleasesCapacity)
{
    // Flow 0 capped at 20; flow 1 takes the remaining 80.
    auto rates = solveAll({100.0}, {flow({0}, 20.0), flow({0})});
    EXPECT_DOUBLE_EQ(rates[0], 20.0);
    EXPECT_DOUBLE_EQ(rates[1], 80.0);
}

TEST(FairShare, CapAboveFairShareIsInert)
{
    auto rates = solveAll({100.0}, {flow({0}, 90.0), flow({0})});
    EXPECT_DOUBLE_EQ(rates[0], 50.0);
    EXPECT_DOUBLE_EQ(rates[1], 50.0);
}

TEST(FairShare, PathMinimumGoverns)
{
    // Flow crosses both resources; the narrow one binds.
    auto rates = solveAll({100.0, 30.0}, {flow({0, 1})});
    EXPECT_DOUBLE_EQ(rates[0], 30.0);
}

TEST(FairShare, ClassicMaxMinExample)
{
    // Three flows: A on r0 only, B on r0+r1, C on r1 only.
    // r0 = 10, r1 = 4: B is squeezed to 2 by r1 (fair share with C),
    // then A gets the rest of r0 = 8.
    auto rates = solveAll(
        {10.0, 4.0}, {flow({0}), flow({0, 1}), flow({1})});
    EXPECT_DOUBLE_EQ(rates[1], 2.0);
    EXPECT_DOUBLE_EQ(rates[2], 2.0);
    EXPECT_DOUBLE_EQ(rates[0], 8.0);
}

TEST(FairShare, UnconstrainedFlowIsInfinite)
{
    auto rates = solveAll({10.0}, {flow({})});
    EXPECT_TRUE(std::isinf(rates[0]));
}

TEST(FairShare, EmptyPathWithCapUsesCap)
{
    auto rates = solveAll({10.0}, {flow({}, 3.0)});
    EXPECT_DOUBLE_EQ(rates[0], 3.0);
}

TEST(FairShare, NoFlows)
{
    auto rates = solveAll({10.0}, {});
    EXPECT_TRUE(rates.empty());
}

/**
 * Property sweep: random flow sets must satisfy (a) capacity
 * feasibility and (b) max-min optimality's local condition: every
 * uncapped flow is bottlenecked on some saturated resource where it
 * has a maximal rate.
 */
class FairShareProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(FairShareProperty, FeasibleAndMaxMin)
{
    uint64_t seed = static_cast<uint64_t>(GetParam());
    // Deterministic pseudo-random scenario from the seed.
    auto next = [&seed]() {
        seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
        return seed >> 33;
    };
    int nr = 1 + static_cast<int>(next() % 6);
    int nf = 1 + static_cast<int>(next() % 10);
    std::vector<double> caps;
    for (int r = 0; r < nr; ++r)
        caps.push_back(1.0 + static_cast<double>(next() % 1000));
    std::vector<FairShareFlow> flows;
    for (int f = 0; f < nf; ++f) {
        FairShareFlow fl;
        int plen = 1 + static_cast<int>(next() % nr);
        for (int k = 0; k < plen; ++k) {
            ResourceId r = static_cast<ResourceId>(next() % nr);
            bool dup = false;
            for (ResourceId e : fl.path)
                dup = dup || e == r;
            if (!dup)
                fl.path.push_back(r);
        }
        if (next() % 3 == 0)
            fl.rateCap = 1.0 + static_cast<double>(next() % 500);
        flows.push_back(fl);
    }

    auto rates = solveAll(caps, flows);
    ASSERT_EQ(rates.size(), flows.size());

    // (a) Feasibility: per-resource load within capacity.
    std::vector<double> load(nr, 0.0);
    for (size_t f = 0; f < flows.size(); ++f) {
        EXPECT_GT(rates[f], 0.0);
        for (ResourceId r : flows[f].path)
            load[r] += rates[f];
    }
    for (int r = 0; r < nr; ++r)
        EXPECT_LE(load[r], caps[r] * (1.0 + 1e-9));

    // (b) Every flow is either at its cap or crosses a saturated
    // resource where no co-flow has a smaller rate it could steal
    // from... weaker check: flow is at cap or some path resource is
    // saturated.
    for (size_t f = 0; f < flows.size(); ++f) {
        bool at_cap = flows[f].rateCap > 0.0 &&
                      rates[f] >= flows[f].rateCap * (1.0 - 1e-9);
        bool bottlenecked = false;
        for (ResourceId r : flows[f].path)
            bottlenecked =
                bottlenecked || load[r] >= caps[r] * (1.0 - 1e-9);
        EXPECT_TRUE(at_cap || bottlenecked)
            << "flow " << f << " is neither capped nor bottlenecked";
    }
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, FairShareProperty,
                         ::testing::Range(1, 60));

} // namespace
} // namespace mcscope
