/**
 * @file
 * Thread-concurrency stress suite (ctest label: race).
 *
 * These tests exist to give ThreadSanitizer something to bite on:
 * they hammer the two places the project shares state across
 * threads -- the parallelFor executor and the ResultCache memory+disk
 * tiers -- with far more contention than any real sweep produces.  They assert functional
 * correctness too (no lost updates, no torn cache entries), so they
 * earn their keep even in non-TSan builds, but the primary consumer
 * is the `ctest -L race` leg of the sanitizer CI job.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/parallel_for.hh"
#include "core/plan.hh"
#include "core/runner.hh"

namespace mcscope {
namespace {

class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
    {
        path_ = (std::filesystem::temp_directory_path() /
                 ("mcscope_race_" + tag + "_" +
                  std::to_string(static_cast<unsigned>(getpid()))))
                    .string();
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** A tiny but real plan: cheap to simulate, fully cacheable. */
SweepPlan
tinyPlan()
{
    SweepAxes axes;
    axes.machinePreset = "dmz";
    axes.workloads = {"nas-ep-b"};
    axes.rankCounts = {2};
    axes.options = {table5Options().front()};
    return SweepPlan::expand(axes);
}

/** One real RunResult to replicate under many synthetic digests. */
const RunResult &
sampleResult()
{
    static const RunResult result = [] {
        ResultCache cache;
        RunnerOptions opts;
        opts.cache = &cache;
        return runPlan(tinyPlan(), opts).bySpec.at(0);
    }();
    return result;
}

TEST(RaceStress, ParallelForKeepsSlotsAndCountsExact)
{
    constexpr size_t kItems = 512;
    constexpr int kRounds = 20;
    for (int round = 0; round < kRounds; ++round) {
        std::vector<uint64_t> slots(kItems, 0);
        std::atomic<uint64_t> calls{0};
        parallelFor(kItems, 8, [&](size_t i) {
            slots[i] = i * 2654435761u + round;
            calls.fetch_add(1, std::memory_order_relaxed);
        });
        ASSERT_EQ(calls.load(), kItems);
        for (size_t i = 0; i < kItems; ++i)
            ASSERT_EQ(slots[i], i * 2654435761u + round);
    }
}

TEST(RaceStress, ParallelForBackToBackPoolsDoNotInterfere)
{
    // Two executors alive in overlapping lifetimes (a sweep inside a
    // sweep never happens, but destruction-vs-spawn races would show
    // here first).
    std::atomic<uint64_t> total{0};
    std::thread other([&] {
        for (int r = 0; r < 10; ++r)
            parallelFor(64, 4, [&](size_t) {
                total.fetch_add(1, std::memory_order_relaxed);
            });
    });
    for (int r = 0; r < 10; ++r)
        parallelFor(64, 4, [&](size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
        });
    other.join();
    EXPECT_EQ(total.load(), 2u * 10u * 64u);
}

TEST(RaceStress, ResultCacheSurvivesConcurrentMixedTraffic)
{
    TempDir dir("cache_mixed");
    ResultCache cache(dir.path());
    const RunResult &sample = sampleResult();

    constexpr int kThreads = 8;
    constexpr uint64_t kDigests = 64;
    std::atomic<uint64_t> mismatches{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (uint64_t i = 0; i < kDigests; ++i) {
                // Writers and readers chase each other over the same
                // digest set; every digest is stored by two threads.
                const uint64_t digest = 0x9e3779b900000000ull + i;
                if (t % 2 == 0) {
                    cache.store(digest, sample);
                } else if (auto hit = cache.lookup(digest)) {
                    if (hit->result.seconds != sample.seconds)
                        mismatches.fetch_add(1);
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(mismatches.load(), 0u);
    // After the dust settles every digest must be present and intact.
    for (uint64_t i = 0; i < kDigests; ++i) {
        auto hit = cache.lookup(0x9e3779b900000000ull + i);
        ASSERT_TRUE(hit.has_value()) << i;
        EXPECT_EQ(hit->result.seconds, sample.seconds);
        EXPECT_EQ(hit->result.events, sample.events);
    }
}

TEST(RaceStress, TwoCacheInstancesShareOneDirectory)
{
    // Two ResultCache instances on one directory model two processes
    // sharing MCSCOPE_CACHE_DIR: both write the same digests (the
    // atomic temp-file + rename path), both read the other's entries.
    TempDir dir("cache_shared");
    ResultCache a(dir.path());
    ResultCache b(dir.path());
    const RunResult &sample = sampleResult();

    constexpr uint64_t kDigests = 48;
    std::atomic<uint64_t> corrupt{0};
    auto hammer = [&](ResultCache &mine, ResultCache &theirs) {
        for (uint64_t i = 0; i < kDigests; ++i) {
            const uint64_t digest = 0x5bd1e99500000000ull + i;
            mine.store(digest, sample);
            if (auto hit = theirs.lookup(digest)) {
                if (hit->result.seconds != sample.seconds)
                    corrupt.fetch_add(1);
            }
        }
    };
    std::thread ta([&] { hammer(a, b); });
    std::thread tb([&] { hammer(b, a); });
    ta.join();
    tb.join();

    EXPECT_EQ(corrupt.load(), 0u);
    // A third instance (a later process) sees every entry on disk.
    ResultCache later(dir.path());
    for (uint64_t i = 0; i < kDigests; ++i) {
        auto hit = later.lookup(0x5bd1e99500000000ull + i);
        ASSERT_TRUE(hit.has_value()) << i;
        EXPECT_TRUE(hit->fromDisk) << i;
    }
    EXPECT_EQ(later.stats().corrupt, 0u);
}

} // namespace
} // namespace mcscope
