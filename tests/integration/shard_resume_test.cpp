/**
 * @file
 * End-to-end crash/resume properties of the sharded batch executor,
 * driving the real `mcscope` binary (MCSCOPE_TOOL_PATH is injected by
 * CMake) so the worker re-exec path, the journal, and the fault
 * injection hook are all exercised exactly as in production.
 *
 * The core property: for a small plan, crashing a worker at *every*
 * point index and then resuming must reproduce the uninterrupted
 * CSV byte for byte.
 */

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "util/subprocess.hh"

using namespace mcscope;

namespace {

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
    std::string file(const std::string &name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

struct ToolRun {
    int exit = -1;
    int signal = 0;
    std::string out;
};

/** Run the real tool to completion, capturing stdout. */
ToolRun
runTool(const std::vector<std::string> &args,
        const std::vector<std::string> &extra_env = {})
{
    std::vector<std::string> argv{MCSCOPE_TOOL_PATH};
    argv.insert(argv.end(), args.begin(), args.end());
    Subprocess proc(argv, /*stdin_data=*/"", extra_env);
    ToolRun run;
    while (proc.readAvailable(run.out)) {
        struct pollfd pfd = {proc.outFd(), POLLIN, 0};
        if (pfd.fd >= 0)
            ::poll(&pfd, 1, 50);
    }
    proc.wait();
    run.exit = proc.exitCode();
    run.signal = proc.termSignal();
    return run;
}

/** Write the small plan spec used throughout; returns its path. */
std::string
writeSpec(const TempDir &dir)
{
    const std::string path = dir.file("plan.json");
    std::ofstream(path) << "{\n"
                           "  \"machine\": \"dmz\",\n"
                           "  \"workloads\": [\"nas-ep-b\"],\n"
                           "  \"ranks\": [2, 4],\n"
                           "  \"options\": [0, 3]\n"
                           "}\n";
    return path;
}

/**
 * Plan points in a pivoted batch CSV: one data row per rank, one
 * column per numactl option after the five fixed columns.
 */
size_t
countPoints(const std::string &csv)
{
    size_t rows = 0;
    size_t optionCols = 0;
    bool sawHeader = false;
    size_t start = 0;
    while (start < csv.size()) {
        size_t end = csv.find('\n', start);
        if (end == std::string::npos)
            end = csv.size();
        if (end > start) {
            if (!sawHeader) {
                sawHeader = true;
                const std::string header =
                    csv.substr(start, end - start);
                size_t fields = 1;
                for (char c : header)
                    if (c == ',')
                        ++fields;
                optionCols = fields > 5 ? fields - 5 : 0;
            } else {
                ++rows;
            }
        }
        start = end + 1;
    }
    return rows * optionCols;
}

TEST(ShardResume, CrashAtEveryPointIndexResumesByteIdentical)
{
    TempDir dir("shard_resume_crash");
    const std::string spec = writeSpec(dir);

    ToolRun golden = runTool({"batch", spec, "--csv"});
    ASSERT_EQ(golden.exit, 0) << golden.out;
    ASSERT_FALSE(golden.out.empty());
    const size_t points = countPoints(golden.out);
    ASSERT_GE(points, 2u);
    ASSERT_LE(points, 16u) << "plan grew; keep this test small";

    for (size_t i = 0; i < points; ++i) {
        SCOPED_TRACE("crash at point " + std::to_string(i));
        const std::string journal =
            dir.file("crash_" + std::to_string(i) + ".journal");

        // A worker is killed the moment it reaches point i; with no
        // retries allowed the point degrades to a gap and the batch
        // still exits cleanly.
        ToolRun faulted = runTool(
            {"batch", spec, "--csv", "--shards", "2", "--journal",
             journal, "--max-retries", "0"},
            {"MCSCOPE_FAULT_INJECT=crash:" + std::to_string(i)});
        ASSERT_EQ(faulted.exit, 0) << faulted.out;
        ASSERT_NE(faulted.out, golden.out);

        // Resume without the fault: only the gap point runs, the
        // rest comes from the journal.
        ToolRun resumed = runTool({"batch", spec, "--csv",
                                   "--cache-stats", "--resume",
                                   journal});
        ASSERT_EQ(resumed.exit, 0) << resumed.out;
        EXPECT_NE(resumed.out.find(std::to_string(points - 1) +
                                   " from journal, 1 executed"),
                  std::string::npos)
            << resumed.out;

        // A second resume replays entirely from the journal and must
        // match the uninterrupted run byte for byte.
        ToolRun replay =
            runTool({"batch", spec, "--csv", "--resume", journal});
        ASSERT_EQ(replay.exit, 0) << replay.out;
        EXPECT_EQ(replay.out, golden.out);
    }
}

/** Split text into lines, and each line into comma-separated cells. */
std::vector<std::vector<std::string>>
csvCells(const std::string &text)
{
    std::vector<std::vector<std::string>> rows;
    size_t start = 0;
    while (start < text.size()) {
        size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        std::vector<std::string> cells;
        size_t cell = start;
        for (size_t comma; (comma = text.find(',', cell)) < end;
             cell = comma + 1)
            cells.push_back(text.substr(cell, comma - cell));
        cells.push_back(text.substr(cell, end - cell));
        rows.push_back(std::move(cells));
        start = end + 1;
    }
    return rows;
}

TEST(ShardResume, DefaultRetriesRespawnThenDegradeToOneGap)
{
    TempDir dir("shard_resume_retry");
    const std::string spec = writeSpec(dir);

    ToolRun golden = runTool({"batch", spec, "--csv"});
    ASSERT_EQ(golden.exit, 0) << golden.out;

    // Point 1 kills every worker that reaches it: the first death and
    // the two default retries each spawn a fresh worker after backoff,
    // and the third death turns the point into a gap.
    ToolRun faulted =
        runTool({"batch", spec, "--csv", "--shards", "2",
                 "--cache-stats"},
                {"MCSCOPE_FAULT_INJECT=crash:1"});
    ASSERT_EQ(faulted.exit, 0) << faulted.out;
    EXPECT_NE(faulted.out.find("1 gaps, 2 retries (3 crashes"),
              std::string::npos)
        << faulted.out;

    const auto want = csvCells(golden.out);
    auto got = csvCells(faulted.out);
    ASSERT_EQ(got.size(), want.size() + 1) << faulted.out;
    EXPECT_EQ(got.back()[0].rfind("journal: ", 0), 0u) << faulted.out;
    got.pop_back();
    size_t differing = 0;
    for (size_t row = 0; row < want.size(); ++row) {
        ASSERT_EQ(got[row].size(), want[row].size()) << "row " << row;
        for (size_t col = 0; col < want[row].size(); ++col) {
            if (got[row][col] != want[row][col])
                ++differing;
        }
    }
    EXPECT_EQ(differing, 1u) << faulted.out;
}

TEST(ShardResume, HangIsKilledByTimeoutAndResumable)
{
    TempDir dir("shard_resume_hang");
    const std::string spec = writeSpec(dir);

    ToolRun golden = runTool({"batch", spec, "--csv"});
    ASSERT_EQ(golden.exit, 0) << golden.out;

    const std::string journal = dir.file("hang.journal");
    ToolRun faulted = runTool(
        {"batch", spec, "--csv", "--shards", "2", "--journal",
         journal, "--point-timeout", "0.3", "--max-retries", "0",
         "--cache-stats"},
        {"MCSCOPE_FAULT_INJECT=hang:1"});
    ASSERT_EQ(faulted.exit, 0) << faulted.out;
    EXPECT_NE(faulted.out.find("1 timeouts"), std::string::npos)
        << faulted.out;

    ToolRun resumed =
        runTool({"batch", spec, "--csv", "--resume", journal});
    ASSERT_EQ(resumed.exit, 0) << resumed.out;
    EXPECT_EQ(resumed.out, golden.out);
}

TEST(ShardResume, ShardedMatchesSerialWithoutFaults)
{
    TempDir dir("shard_resume_clean");
    const std::string spec = writeSpec(dir);

    ToolRun golden = runTool({"batch", spec, "--csv"});
    ASSERT_EQ(golden.exit, 0) << golden.out;

    ToolRun sharded = runTool({"batch", spec, "--csv", "--shards",
                               "3", "--journal",
                               dir.file("clean.journal")});
    ASSERT_EQ(sharded.exit, 0) << sharded.out;
    EXPECT_EQ(sharded.out, golden.out);
}

TEST(ShardResume, RefusesToOverwriteJournalWithoutResume)
{
    TempDir dir("shard_resume_refuse");
    const std::string spec = writeSpec(dir);
    const std::string journal = dir.file("existing.journal");

    ToolRun first = runTool({"batch", spec, "--csv", "--shards", "2",
                             "--journal", journal});
    ASSERT_EQ(first.exit, 0) << first.out;

    ToolRun second = runTool({"batch", spec, "--csv", "--shards",
                              "2", "--journal", journal});
    EXPECT_EQ(second.exit, 2);
    EXPECT_NE(second.out.find("--resume"), std::string::npos)
        << second.out;

    // Resuming from A while journaling into pre-existing B must also
    // refuse: B's foreign records were never vouched for by --resume.
    ToolRun crossed = runTool(
        {"batch", spec, "--csv", "--shards", "2", "--resume",
         dir.file("other.journal"), "--journal", journal});
    EXPECT_EQ(crossed.exit, 2);
    EXPECT_NE(crossed.out.find("--resume"), std::string::npos)
        << crossed.out;

    // Resuming the same journal it appends to stays allowed.
    ToolRun resumed = runTool({"batch", spec, "--csv", "--shards",
                               "2", "--resume", journal});
    EXPECT_EQ(resumed.exit, 0) << resumed.out;
}

} // namespace
