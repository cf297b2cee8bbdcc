/**
 * @file
 * Differential tests of the engine's optimized event core against the
 * retained reference path.
 *
 * The dirty-set incremental allocator + calendar queue + SoA flow
 * state (AllocatorKind::Optimized) must be *bit-identical* to the
 * reference allocator path (AllocatorKind::Reference, which re-solves
 * every flow through fairShareRatesReference) -- not merely close:
 * identical audit digests, identical makespans to the last mantissa
 * bit, identical per-task finish times, identical event counts.  This
 * drives ~1k randomized scenarios (random paths and caps, empty-path
 * capped flows, idle resources no flow touches, delays, barriers,
 * rendezvous pairs) through both.
 *
 * A second suite pins the subset solver itself: on a closed connected
 * component, fairShareSolveSubset must reproduce the rates of a full
 * fairShareRatesReference solve bit-for-bit, which is the algebraic
 * fact the incremental engine path rests on (DESIGN.md section 13).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "sim/audit.hh"
#include "sim/engine.hh"
#include "sim/fairshare.hh"
#include "sim/task.hh"
#include "util/rng.hh"

namespace mcscope {
namespace {

uint64_t
bits(double v)
{
    uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

/** One randomized multi-task scenario. */
struct Scenario
{
    std::vector<double> caps;
    // Per-task primitive scripts.
    std::vector<std::vector<Prim>> scripts;
};

/** A random flow over resources [base, base + nr). */
Work
randomWork(Rng &rng, ResourceId base, int nr)
{
    Work w;
    w.amount = rng.uniform(0.5, 2000.0);
    w.tag = static_cast<int>(rng.below(4));
    const uint64_t kind = rng.below(12);
    if (kind == 0) {
        // Empty path, capped: pure latency-limited stream.  (The
        // empty-path *uncapped* instantaneous case is exercised by
        // engine_test; under audit its infinite rate is rejected by
        // design, so it stays out of the audited differential runs.)
        w.rateCap = rng.uniform(0.1, 500.0);
        return w;
    }
    const int plen = 1 + static_cast<int>(rng.below(4));
    for (int k = 0; k < plen; ++k) {
        auto r = base + static_cast<ResourceId>(rng.below(nr));
        bool dup = false;
        for (ResourceId e : w.path)
            dup = dup || e == r;
        if (!dup)
            w.path.push_back(r);
    }
    if (rng.below(3) == 0)
        w.rateCap = rng.uniform(0.1, 500.0);
    return w;
}

Scenario
randomScenario(Rng &rng)
{
    Scenario s;
    const int nr = 1 + static_cast<int>(rng.below(6));
    const int nt = 1 + static_cast<int>(rng.below(8));
    // One scenario in three brackets the busy resources with idle
    // ones that no flow touches, so wide closures are solved on a
    // machine larger than the closure.
    const bool idle = rng.below(3) == 0;
    const int before = idle ? static_cast<int>(rng.below(8)) : 0;
    const int after = idle ? 1 + static_cast<int>(rng.below(64)) : 0;
    for (int r = 0; r < before + nr + after; ++r)
        s.caps.push_back(rng.uniform(0.5, 2000.0));
    const auto base = static_cast<ResourceId>(before);
    s.scripts.resize(nt);

    // Tasks run `nseg` segments of private work separated by global
    // barriers, so the scripts can differ per task without deadlock;
    // after each barrier, adjacent task pairs exchange a rendezvous.
    const int nseg = 1 + static_cast<int>(rng.below(3));
    for (int seg = 0; seg < nseg; ++seg) {
        for (int t = 0; t < nt; ++t) {
            const int nprims = static_cast<int>(rng.below(5));
            for (int p = 0; p < nprims; ++p) {
                if (rng.below(4) == 0) {
                    Delay d;
                    d.seconds = rng.uniform(0.0, 2.0);
                    d.tag = static_cast<int>(rng.below(4));
                    s.scripts[t].push_back(d);
                } else {
                    s.scripts[t].push_back(
                        randomWork(rng, base, nr));
                }
            }
            if (nt > 1) {
                SyncAll barrier;
                barrier.key = 900000 + seg;
                barrier.expected = nt;
                s.scripts[t].push_back(barrier);
            }
        }
        // Rendezvous pairs (2k, 2k+1) right after the barrier: both
        // sides are guaranteed to arrive, the even side carries.
        for (int t = 0; t + 1 < nt; t += 2) {
            Rendezvous rv;
            rv.key = 800000 + static_cast<uint64_t>(seg) * 1000 + t;
            rv.transfer = randomWork(rng, base, nr);
            Rendezvous peer = rv;
            rv.carrier = true;
            s.scripts[t].push_back(rv);
            s.scripts[t + 1].push_back(peer);
        }
    }
    return s;
}

struct RunOutcome
{
    uint64_t digest = 0;
    uint64_t checks = 0;
    uint64_t events = 0;
    uint64_t makespanBits = 0;
    std::vector<uint64_t> finishBits;
    Engine::Stats stats;
};

RunOutcome
runScenario(const Scenario &s, Engine::AllocatorKind kind)
{
    Engine e;
    e.setAllocator(kind);
    // The Reference oracle allocates by design (fresh vectors per
    // solve); only the Optimized path carries the zero-allocation
    // contract, and these runs keep it enforced.
    if (kind == Engine::AllocatorKind::Reference)
        e.setAllocGuardEnforced(false);
    e.setAuditor(std::make_unique<Auditor>());
    for (size_t r = 0; r < s.caps.size(); ++r)
        e.addResource("r" + std::to_string(r), s.caps[r]);
    for (size_t t = 0; t < s.scripts.size(); ++t)
        e.addTask(std::make_unique<SequenceTask>(
            "t" + std::to_string(t), s.scripts[t]));
    e.run();
    RunOutcome out;
    out.digest = e.auditor()->digest();
    out.checks = e.auditor()->allocationsChecked();
    out.events = e.eventCount();
    out.makespanBits = bits(e.makespan());
    for (int t = 0; t < e.taskCount(); ++t)
        out.finishBits.push_back(bits(e.taskFinishTime(t)));
    out.stats = e.stats();
    return out;
}

TEST(EngineDiff, OptimizedIsBitIdenticalToReferenceOnRandomScenarios)
{
    Rng rng(0x071f00dbeefULL);
    uint64_t wideSolves = 0;
    for (int iter = 0; iter < 1000; ++iter) {
        Scenario s = randomScenario(rng);
        RunOutcome opt =
            runScenario(s, Engine::AllocatorKind::Optimized);
        RunOutcome ref =
            runScenario(s, Engine::AllocatorKind::Reference);
        ASSERT_EQ(opt.digest, ref.digest) << "iteration " << iter;
        ASSERT_EQ(opt.events, ref.events) << "iteration " << iter;
        ASSERT_EQ(opt.checks, ref.checks) << "iteration " << iter;
        ASSERT_EQ(opt.makespanBits, ref.makespanBits)
            << "iteration " << iter;
        ASSERT_EQ(opt.finishBits, ref.finishBits)
            << "iteration " << iter;
        wideSolves += opt.stats.fullSolves;
    }
    // Closures holding more than half the active flows must occur, or
    // the corpus never checks a wide closure against the oracle.
    EXPECT_GT(wideSolves, 0u);
}

TEST(EngineDiff, OptimizedRunsAreDeterministicAcrossRepeats)
{
    Rng rng(0x1234ULL);
    Scenario s = randomScenario(rng);
    RunOutcome a = runScenario(s, Engine::AllocatorKind::Optimized);
    RunOutcome b = runScenario(s, Engine::AllocatorKind::Optimized);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.makespanBits, b.makespanBits);
    EXPECT_EQ(a.finishBits, b.finishBits);
    EXPECT_EQ(a.events, b.events);
}

TEST(EngineDiff, OptimizedEngineActuallySolvesIncrementally)
{
    // Many tasks on disjoint private resources: after warmup, every
    // re-solve's dirty closure is a single flow, so the incremental
    // counter must dominate.  Guards against the closure walk
    // silently growing to the whole flow set (which would pass every
    // bit-identity test while losing the entire speedup).
    Engine e;
    e.setAllocator(Engine::AllocatorKind::Optimized);
    for (int t = 0; t < 16; ++t) {
        ResourceId r = e.addResource("r" + std::to_string(t), 100.0);
        Work w;
        w.amount = 50.0 + t;
        w.path = {r};
        e.addTask(std::make_unique<LoopTask>(
            "t" + std::to_string(t), std::vector<Prim>{},
            std::vector<Prim>{w}, 20));
    }
    e.run();
    const Engine::Stats st = e.stats();
    EXPECT_GT(st.incrementalSolves, st.fullSolves);
    EXPECT_GT(st.calqueueOps, 0u);
}

// --- Subset solver: the algebraic core of the incremental path. -----

/** Connected components of flows under shared-resource adjacency. */
std::vector<int>
flowComponents(const std::vector<FairShareFlow> &flows, int nr)
{
    std::vector<int> comp(flows.size());
    std::iota(comp.begin(), comp.end(), 0);
    // Union via resource -> representative flow.
    std::vector<int> resRep(nr, -1);
    auto find = [&comp](int f) {
        while (comp[f] != f)
            f = comp[f] = comp[comp[f]];
        return f;
    };
    for (size_t f = 0; f < flows.size(); ++f) {
        for (ResourceId r : flows[f].path) {
            if (resRep[r] < 0) {
                resRep[r] = static_cast<int>(f);
            } else {
                const int a = find(resRep[r]);
                const int b = find(static_cast<int>(f));
                comp[a] = b;
            }
        }
    }
    for (size_t f = 0; f < flows.size(); ++f)
        comp[f] = find(static_cast<int>(f));
    return comp;
}

TEST(SubsetSolver, ComponentSolveMatchesFullReferenceBitForBit)
{
    Rng rng(0x5013e7ULL);
    FairShareScratch scratch;
    int componentsChecked = 0;
    for (int iter = 0; iter < 400; ++iter) {
        const int nr = 1 + static_cast<int>(rng.below(8));
        const int nf = 1 + static_cast<int>(rng.below(24));
        std::vector<double> caps;
        for (int r = 0; r < nr; ++r)
            caps.push_back(rng.uniform(0.5, 2000.0));
        std::vector<FairShareFlow> flows;
        std::vector<PathVec> paths;
        std::vector<double> rateCaps;
        for (int f = 0; f < nf; ++f) {
            FairShareFlow fl;
            const int plen = 1 + static_cast<int>(rng.below(3));
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
            paths.push_back(fl.path);
            rateCaps.push_back(fl.rateCap);
            flows.push_back(std::move(fl));
        }
        const std::vector<double> full =
            fairShareRatesReference(caps, flows);
        const std::vector<int> comp = flowComponents(flows, nr);
        // Solve each component through the subset entry point and
        // demand the full solve's exact bits.
        for (int f = 0; f < nf; ++f) {
            if (comp[f] != f)
                continue; // not a representative
            std::vector<int> members;
            std::vector<char> resIn(nr, 0);
            std::vector<ResourceId> resList;
            for (int g = 0; g < nf; ++g) {
                if (comp[g] != f)
                    continue;
                members.push_back(g);
                for (ResourceId r : flows[g].path) {
                    if (!resIn[r]) {
                        resIn[r] = 1;
                        resList.push_back(r);
                    }
                }
            }
            fairShareSolveSubset(caps, paths, rateCaps,
                                 members.data(), members.size(),
                                 resList.data(), resList.size(),
                                 scratch);
            for (size_t k = 0; k < members.size(); ++k) {
                ASSERT_EQ(bits(scratch.rates[k]),
                          bits(full[members[k]]))
                    << "iteration " << iter << " flow " << members[k];
            }
            ++componentsChecked;
        }
    }
    // The generator must actually have produced multi-component
    // scenarios for this test to mean anything.
    EXPECT_GT(componentsChecked, 400);
}

// --- The exact-rate audit gate must actually have teeth. ------------

TEST(EngineDiffDeathTest, ExactRateCheckPanicsOnUlpPerturbedRate)
{
    Auditor a;
    a.setExactRateCheck(true);
    AuditedFlow f;
    f.path = {0};
    f.remaining = 10.0;
    f.owner = 0;
    // Correct max-min rate is exactly 100.0; nudge one ulp.  The
    // epsilon-tolerance invariants all pass, so only the exact-rate
    // cross-check can catch it.
    f.rate = std::nextafter(100.0, 200.0);
    EXPECT_DEATH(a.onAllocation({100.0}, {f}, 0.0),
                 "exact-rate violation");
}

TEST(EngineDiffDeathTest, ExactRateCheckAcceptsOracleRates)
{
    Auditor a;
    a.setExactRateCheck(true);
    AuditedFlow f;
    f.path = {0};
    f.remaining = 10.0;
    f.owner = 0;
    f.rate = 100.0;
    a.onAllocation({100.0}, {f}, 0.0); // must not panic
    EXPECT_EQ(a.allocationsChecked(), 1u);
}

} // namespace
} // namespace mcscope
