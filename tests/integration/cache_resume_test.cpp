/**
 * @file
 * Resuming an interrupted batch from the on-disk result cache
 * (DESIGN.md §10).
 *
 * The core property: a batch that stopped after storing the entries
 * of points [0, p) -- with the entry of point p torn mid-write and a
 * writer's temp file left behind -- re-runs against the same
 * directory to the recorded golden CSV byte for byte, serving exactly
 * p points from disk and re-simulating the torn one.  It must hold
 * for every p, so the test walks them all.
 *
 * MCSCOPE_SOURCE_DIR is injected by tests/CMakeLists.txt.
 */

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/cli.hh"
#include "core/plan.hh"
#include "core/report.hh"
#include "core/runner.hh"
#include "sim/audit.hh"

using namespace mcscope;

namespace {

const std::string kSource = MCSCOPE_SOURCE_DIR;
const std::string kSpec = kSource + "/examples/batch_table02.json";
const std::string kGolden =
    kSource + "/tests/golden/batch_table02_legacy.csv";

/** Fresh empty directory under the system temp dir. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
    {
        path_ = (std::filesystem::temp_directory_path() /
                 ("mcscope_" + tag + "_" +
                  std::to_string(static_cast<unsigned>(getpid()))))
                    .string();
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    const std::string &path() const { return path_; }
    std::string file(const std::string &name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

SweepPlan
loadPlan()
{
    std::string error;
    std::optional<JsonValue> doc = parseJson(readFile(kSpec), &error);
    EXPECT_TRUE(doc.has_value()) << error;
    std::optional<SweepPlan> plan = SweepPlan::fromJson(*doc, &error);
    EXPECT_TRUE(plan.has_value()) << error;
    return *plan;
}

/** Run the plan against a cache directory, as `mcscope batch` does. */
PlanResults
runAgainst(const SweepPlan &plan, const std::string &dir)
{
    ResultCache cache(dir);
    RunnerOptions opts;
    opts.jobs = 2;
    opts.cache = &cache;
    return runPlan(plan, opts);
}

std::string
renderCsv(const SweepPlan &plan, const PlanResults &results)
{
    std::ostringstream out;
    renderBatchResults(plan, results, /*csv=*/true, out);
    return out.str();
}

std::string
entryName(const ScenarioSpec &spec)
{
    return digestHex(spec.digest()) + ".json";
}

TEST(CacheResume, InterruptAtEveryPointResumesToGoldenCsv)
{
    const SweepPlan plan = loadPlan();
    const std::string golden = readFile(kGolden);
    ASSERT_FALSE(golden.empty());
    const size_t n = plan.specs().size();
    ASSERT_GE(n, 2u);

    // The uninterrupted run stores one entry per unique spec.
    TempDir full("cache_resume_full");
    PlanResults first = runAgainst(plan, full.path());
    ASSERT_EQ(renderCsv(plan, first), golden);
    ASSERT_EQ(first.stats.simulations, n);
    std::vector<std::string> entries;
    for (const ScenarioSpec &spec : plan.specs()) {
        entries.push_back(readFile(full.file(entryName(spec))));
        ASSERT_FALSE(entries.back().empty());
    }

    TempDir dir("cache_resume_cut");
    for (size_t p = 0; p < n; ++p) {
        SCOPED_TRACE("interrupted at point " + std::to_string(p));
        std::filesystem::remove_all(dir.path());
        std::filesystem::create_directories(dir.path());
        for (size_t i = 0; i < p; ++i) {
            std::ofstream(dir.file(entryName(plan.specs()[i])))
                << entries[i];
        }
        // Point p's entry was cut off mid-write (a crash without
        // fsync), and another writer died before its rename.
        const std::string torn = entryName(plan.specs()[p]);
        std::ofstream(dir.file(torn))
            << entries[p].substr(0, entries[p].size() / 2);
        std::ofstream(dir.file(torn + ".tmpAb12Cd"))
            << entries[p].substr(0, 7);

        PlanResults resumed = runAgainst(plan, dir.path());
        EXPECT_EQ(renderCsv(plan, resumed), golden);
        EXPECT_EQ(resumed.stats.diskHits, p);
        EXPECT_EQ(resumed.stats.memoryHits, 0u);
        EXPECT_EQ(resumed.stats.corrupt, 1u);
        if (!auditRequestedByEnv()) {
            EXPECT_EQ(resumed.stats.simulations, n - p);
        }
    }

    // The last resume left a complete store: one more run is served
    // from disk in full.
    PlanResults replay = runAgainst(plan, dir.path());
    EXPECT_EQ(renderCsv(plan, replay), golden);
    EXPECT_EQ(replay.stats.diskHits, n);
    EXPECT_EQ(replay.stats.corrupt, 0u);
}

TEST(CacheResume, CliJobsAndCacheMatchSerialByteForByte)
{
    const std::string golden = readFile(kGolden);
    TempDir dir("cache_resume_cli");
    auto batch = [&](std::vector<std::string> extra) {
        std::vector<std::string> args = {"batch", kSpec, "--csv"};
        args.insert(args.end(), extra.begin(), extra.end());
        std::ostringstream out;
        EXPECT_EQ(runCli(args, out), 0) << out.str();
        return out.str();
    };
    EXPECT_EQ(batch({}), golden);
    EXPECT_EQ(batch({"--jobs", "3"}), golden);
    EXPECT_EQ(batch({"--jobs", "3", "--cache-dir", dir.path()}), golden);

    // The second run on the same directory is served from it in full.
    const std::string cached = batch(
        {"--jobs", "3", "--cache-dir", dir.path(), "--cache-stats"});
    EXPECT_EQ(cached.substr(0, golden.size()), golden);
    EXPECT_NE(cached.find("100% cached"), std::string::npos) << cached;

    // The retired multi-process flags are gone, not ignored.
    for (const char *flag : {"--shards", "--journal", "--resume"}) {
        std::ostringstream out;
        EXPECT_EQ(runCli({"batch", kSpec, flag, "2"}, out), 2) << flag;
    }
}

} // namespace
