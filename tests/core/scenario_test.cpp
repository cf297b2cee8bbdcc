/**
 * @file
 * Scenario pipeline tests: spec JSON round-trips, digest stability
 * and sensitivity, plan deduplication, and the result cache's
 * correctness guarantees (poisoned entries re-simulated, cached ==
 * fresh bit-for-bit).
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/plan.hh"
#include "core/registry.hh"
#include "core/runner.hh"
#include "core/scenario.hh"
#include "kernels/stream.hh"
#include "sim/audit.hh"
#include "util/rng.hh"

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
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

ScenarioSpec
randomSpec(Rng &rng)
{
    static const char *kWorkloads[] = {"stream", "nas-cg-b", "nas-ft-b",
                                       "hpcc-fft", "dgemm-acml"};
    static const char *kMachines[] = {"tiger", "dmz", "longs"};
    std::vector<NumactlOption> options = table5Options();

    ScenarioSpec s;
    s.workload = kWorkloads[rng.below(std::size(kWorkloads))];
    s.machinePreset = kMachines[rng.below(std::size(kMachines))];
    s.machine = configByName(s.machinePreset);
    s.option = options[rng.below(options.size())];
    s.ranks = 1 << rng.below(4);
    s.impl = rng.below(2) ? MpiImpl::Lam : MpiImpl::OpenMpi;
    s.sublayer = rng.below(2) ? SubLayer::SysV : SubLayer::USysV;
    s.latencyNoise = 1.0 + 0.25 * static_cast<double>(rng.below(3));
    s.canonicalize();
    return s;
}

/** One-point plan for a cheap, cacheable registry workload. */
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

} // namespace

TEST(ScenarioSpec, RoundTripsThroughJson)
{
    Rng rng(42);
    for (int i = 0; i < 50; ++i) {
        ScenarioSpec s = randomSpec(rng);
        auto doc = parseJson(s.toJson().dump(2));
        ASSERT_TRUE(doc.has_value());
        std::string error;
        auto back = parseScenarioSpec(*doc, &error);
        ASSERT_TRUE(back.has_value()) << error;
        EXPECT_TRUE(s == *back)
            << s.canonicalText() << "\n != \n" << back->canonicalText();
        EXPECT_EQ(s.digest(), back->digest());
    }
}

TEST(ScenarioSpec, DigestIgnoresJsonKeyOrder)
{
    const char *forward = R"({"workload": "nas-cg-b", "machine": "dmz",
        "ranks": 4, "impl": "lam", "sublayer": "sysv",
        "option": "localalloc", "latency_noise": 1.25})";
    const char *shuffled = R"({"latency_noise": 1.25,
        "option": "localalloc", "sublayer": "sysv", "impl": "lam",
        "ranks": 4, "machine": "dmz", "workload": "nas-cg-b"})";
    std::string error;
    auto a = parseScenarioSpec(*parseJson(forward), &error);
    ASSERT_TRUE(a.has_value()) << error;
    auto b = parseScenarioSpec(*parseJson(shuffled), &error);
    ASSERT_TRUE(b.has_value()) << error;
    EXPECT_EQ(a->canonicalText(), b->canonicalText());
    EXPECT_EQ(a->digest(), b->digest());
}

TEST(ScenarioSpec, PresetAndInlineMachineDigestEqually)
{
    ScenarioSpec preset;
    preset.workload = "stream";
    preset.machinePreset = "longs";
    preset.machine = configByName("longs");
    preset.canonicalize();

    // The same machine spelled inline must name the same experiment.
    ScenarioSpec inline_machine = preset;
    inline_machine.machinePreset.clear();
    inline_machine.canonicalize();

    EXPECT_TRUE(preset == inline_machine);
    EXPECT_EQ(preset.digest(), inline_machine.digest());
}

TEST(ScenarioSpec, DigestSeparatesDifferentExperiments)
{
    Rng rng(7);
    ScenarioSpec base = randomSpec(rng);

    ScenarioSpec ranks = base;
    ranks.ranks = base.ranks * 2;
    EXPECT_NE(base.digest(), ranks.digest());

    ScenarioSpec noise = base;
    noise.latencyNoise = base.latencyNoise + 0.5;
    EXPECT_NE(base.digest(), noise.digest());

    ScenarioSpec workload = base;
    workload.workload =
        base.workload == "stream" ? "dgemm-acml" : "stream";
    EXPECT_NE(base.digest(), workload.digest());
}

TEST(ScenarioSpec, CoherenceBlockRoundTripsAndSeparatesDigests)
{
    ScenarioSpec legacy;
    legacy.workload = "stream";
    legacy.machine = configByName("longs");
    legacy.canonicalize();

    // Coherence overrides must drop the preset token, or
    // canonicalize() snaps the machine back to the preset definition
    // (this is why the CLI clears machinePreset for --coherence).
    ScenarioSpec snoopy = legacy;
    snoopy.machinePreset.clear();
    snoopy.machine.coherence.mode = CoherenceMode::Snoopy;
    snoopy.canonicalize();
    ScenarioSpec directory = legacy;
    directory.machinePreset.clear();
    directory.machine.coherence.mode = CoherenceMode::Directory;
    directory.canonicalize();

    // The coherence block survives the JSON round trip...
    for (const ScenarioSpec *s : {&legacy, &snoopy, &directory}) {
        auto doc = parseJson(s->toJson().dump(2));
        ASSERT_TRUE(doc.has_value());
        std::string error;
        auto back = parseScenarioSpec(*doc, &error);
        ASSERT_TRUE(back.has_value()) << error;
        EXPECT_TRUE(*s == *back) << s->canonicalText();
        EXPECT_EQ(s->digest(), back->digest());
    }

    // ...and names a different experiment per mode and per size.
    EXPECT_NE(legacy.digest(), snoopy.digest());
    EXPECT_NE(legacy.digest(), directory.digest());
    EXPECT_NE(snoopy.digest(), directory.digest());

    ScenarioSpec small_dir = directory;
    small_dir.machinePreset.clear();
    small_dir.machine.coherence.directoryEntries = 4096.0;
    small_dir.canonicalize();
    EXPECT_NE(directory.digest(), small_dir.digest());
}

TEST(ScenarioSpec, ParserRejectsNonIntegralCounts)
{
    std::string error;
    auto bad = parseScenarioSpec(
        *parseJson(R"({"workload": "stream",
                       "machine": {"sockets": 2.7}})"),
        &error);
    EXPECT_FALSE(bad.has_value());
    EXPECT_NE(error.find("must be an integer"), std::string::npos)
        << error;

    // Rank counts and option indices are whole numbers too: a
    // fractional value must not be truncated, and a huge one must not
    // reach a double->int cast.
    for (const char *text :
         {R"({"workload": "stream", "ranks": 2.5})",
          R"({"workload": "stream", "ranks": 1e30})",
          R"({"workload": "stream", "option": 1.7})",
          R"({"workload": "stream", "option": 1e30})"}) {
        error.clear();
        EXPECT_FALSE(parseScenarioSpec(*parseJson(text), &error))
            << text;
        EXPECT_NE(error.find("integer"), std::string::npos)
            << text << ": " << error;
    }
}

TEST(ScenarioSpec, ParserRejectsBadHtLinks)
{
    std::string error;
    auto self = parseScenarioSpec(
        *parseJson(R"({"workload": "stream", "machine":
            {"sockets": 2, "ht_links": [[0, 0]]}})"),
        &error);
    EXPECT_FALSE(self.has_value());
    EXPECT_NE(error.find("self-link"), std::string::npos) << error;

    error.clear();
    auto dup = parseScenarioSpec(
        *parseJson(R"({"workload": "stream", "machine":
            {"sockets": 2, "ht_links": [[0, 1], [1, 0]]}})"),
        &error);
    EXPECT_FALSE(dup.has_value());
    EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
}

TEST(ScenarioSpec, ParserRejectsBadCoherenceBlocks)
{
    std::string error;
    auto bad_key = parseScenarioSpec(
        *parseJson(R"({"workload": "stream", "machine":
            {"coherence": {"mode": "snoopy", "probes": 4}}})"),
        &error);
    EXPECT_FALSE(bad_key.has_value());
    EXPECT_NE(error.find("machine.coherence"), std::string::npos)
        << error;

    error.clear();
    auto bad_mode = parseScenarioSpec(
        *parseJson(R"({"workload": "stream", "machine":
            {"coherence": {"mode": "mesi"}}})"),
        &error);
    EXPECT_FALSE(bad_mode.has_value());
    EXPECT_NE(error.find("must be one of"), std::string::npos) << error;
}

TEST(SweepPlan, FromJsonDirectoryEntriesAxis)
{
    auto doc = parseJson(R"({"machine": "longs",
        "workloads": ["stream"], "ranks": [4],
        "options": ["localalloc"],
        "directory_entries": [4096, 65536]})");
    ASSERT_TRUE(doc.has_value());
    std::string error;
    auto plan = SweepPlan::fromJson(*doc, &error);
    ASSERT_TRUE(plan.has_value()) << error;
    ASSERT_EQ(plan->specs().size(), 2u);
    for (const ScenarioSpec &s : plan->specs()) {
        // Variants are inline machines in Directory mode, distinctly
        // digested by their directory size.
        EXPECT_TRUE(s.machinePreset.empty());
        EXPECT_EQ(s.machine.coherence.mode, CoherenceMode::Directory);
    }
    EXPECT_EQ(plan->specs()[0].machine.coherence.directoryEntries,
              4096.0);
    EXPECT_EQ(plan->specs()[1].machine.coherence.directoryEntries,
              65536.0);
    EXPECT_NE(plan->specs()[0].digest(), plan->specs()[1].digest());

    error.clear();
    auto bad = SweepPlan::fromJson(
        *parseJson(R"({"workloads": ["stream"],
                       "directory_entries": [0]})"),
        &error);
    EXPECT_FALSE(bad.has_value());
    EXPECT_NE(error.find("directory_entries"), std::string::npos)
        << error;
}

TEST(ScenarioSpec, ParserRejectsUnknownKeysAndWorkloads)
{
    std::string error;
    auto typo = parseScenarioSpec(
        *parseJson(R"({"workload": "stream", "rank": 4})"), &error);
    EXPECT_FALSE(typo.has_value());
    EXPECT_NE(error.find("rank"), std::string::npos);

    error.clear();
    auto unknown = parseScenarioSpec(
        *parseJson(R"({"workload": "streem"})"), &error);
    EXPECT_FALSE(unknown.has_value());
    EXPECT_NE(error.find("stream"), std::string::npos)
        << "error should suggest the nearest name: " << error;
}

TEST(ScenarioSpec, ResolveOptionSpec)
{
    std::vector<NumactlOption> options = table5Options();
    auto by_index = resolveOptionSpec("0");
    ASSERT_TRUE(by_index.has_value());
    EXPECT_EQ(by_index->label, options[0].label);

    auto by_label = resolveOptionSpec("localalloc");
    ASSERT_TRUE(by_label.has_value());
    EXPECT_EQ(by_label->policy, MemPolicy::LocalAlloc);

    EXPECT_FALSE(resolveOptionSpec("no-such-option").has_value());
    EXPECT_FALSE(resolveOptionSpec("99").has_value());
}

TEST(SweepPlan, DeduplicatesRepeatedPoints)
{
    Rng rng(3);
    ScenarioSpec a = randomSpec(rng);
    ScenarioSpec b = randomSpec(rng);
    while (b == a)
        b = randomSpec(rng);

    SweepPlan plan = SweepPlan::fromSpecs({a, b, a, a, b});
    EXPECT_EQ(plan.pointCount(), 5u);
    EXPECT_EQ(plan.specs().size(), 2u);
    EXPECT_EQ(plan.specIndex(0), plan.specIndex(2));
    EXPECT_EQ(plan.specIndex(1), plan.specIndex(4));
    EXPECT_TRUE(plan.pointSpec(3) == a);
}

TEST(SweepPlan, FromJsonDeduplicatesAxes)
{
    auto doc = parseJson(R"({"machine": "dmz",
        "workloads": ["nas-ep-b", "nas-ep-b"], "ranks": [2, 2]})");
    ASSERT_TRUE(doc.has_value());
    std::string error;
    auto plan = SweepPlan::fromJson(*doc, &error);
    ASSERT_TRUE(plan.has_value()) << error;
    // 2 workloads x 2 ranks x 6 options = 24 grid points, but only
    // one distinct (workload, rank) pair survives deduplication.
    EXPECT_EQ(plan->pointCount(), 24u);
    EXPECT_EQ(plan->specs().size(), 6u);
}

TEST(SweepPlan, FromJsonRejectsUnknownKeysAndWorkloads)
{
    std::string error;
    auto bad_key = SweepPlan::fromJson(
        *parseJson(R"({"workloads": ["stream"], "rank": [2]})"), &error);
    EXPECT_FALSE(bad_key.has_value());

    error.clear();
    auto bad_workload = SweepPlan::fromJson(
        *parseJson(R"({"workloads": ["streem"]})"), &error);
    EXPECT_FALSE(bad_workload.has_value());
    EXPECT_NE(error.find("stream"), std::string::npos) << error;
}

TEST(SweepPlan, FromJsonRejectsFractionalRanksAndOptions)
{
    // A fraction must not truncate into a different grid point
    // (2.5 ranks running as 2, option 1.7 running as option 1), and a
    // huge value must not reach the double -> int cast.
    for (const char *text :
         {R"({"workloads": ["stream"], "ranks": [2.5]})",
          R"({"workloads": ["stream"], "ranks": [1e30]})",
          R"({"workloads": ["stream"], "options": [1.7]})",
          R"({"workloads": ["stream"], "options": [1e30]})"}) {
        std::string error;
        EXPECT_FALSE(SweepPlan::fromJson(*parseJson(text), &error)
                         .has_value())
            << text;
        EXPECT_NE(error.find("integer"), std::string::npos)
            << text << ": " << error;
        EXPECT_EQ(error.find('\n'), std::string::npos) << error;
    }
}

TEST(ResultCache, EntryJsonRoundTrips)
{
    RunResult r;
    r.valid = true;
    r.seconds = 3.14159265358979;
    r.taggedSeconds[2] = 1.25;
    r.taggedSeconds[7] = 0.5;
    r.events = 1234;
    r.audited = true;
    r.auditDigest = 0xdeadbeefcafe1234ULL;
    r.auditChecks = 99;

    const uint64_t digest = 0x0123456789abcdefULL;
    JsonValue doc = runResultToJson(digest, r);
    auto back = parseRunResult(doc, digest);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->valid, r.valid);
    EXPECT_EQ(back->seconds, r.seconds); // bit-for-bit
    EXPECT_EQ(back->taggedSeconds, r.taggedSeconds);
    EXPECT_EQ(back->events, r.events);
    EXPECT_EQ(back->audited, r.audited);
    EXPECT_EQ(back->auditDigest, r.auditDigest);
    EXPECT_EQ(back->auditChecks, r.auditChecks);

    // The same entry under a different expected digest is a stale or
    // misfiled entry and must be rejected.
    EXPECT_FALSE(parseRunResult(doc, digest + 1).has_value());
}

TEST(ResultCache, EntryParserRejectsNonsense)
{
    RunResult r;
    r.valid = true;
    r.seconds = 1.0;
    const uint64_t digest = 42;

    JsonValue negative = runResultToJson(digest, r);
    negative.set("seconds", JsonValue::number(-1.0));
    EXPECT_FALSE(parseRunResult(negative, digest).has_value());

    JsonValue missing = runResultToJson(digest, r);
    JsonValue stripped = JsonValue::object();
    for (const auto &member : missing.members()) {
        if (member.first != "seconds")
            stripped.set(member.first, member.second);
    }
    EXPECT_FALSE(parseRunResult(stripped, digest).has_value());

    // Counters read back as uint64_t: a value no uint64_t can hold
    // must be rejected, never cast.
    for (const char *counter :
         {"events", "incremental_solves", "full_solves"}) {
        JsonValue huge = runResultToJson(digest, r);
        huge.set(counter, JsonValue::number(1e30));
        EXPECT_FALSE(parseRunResult(huge, digest).has_value())
            << counter;
    }

    RunResult audited = r;
    audited.audited = true;
    JsonValue checks = runResultToJson(digest, audited);
    ASSERT_TRUE(parseRunResult(checks, digest).has_value());
    checks.set("audit_checks", JsonValue::number(-1.0));
    EXPECT_FALSE(parseRunResult(checks, digest).has_value());

    // Phase times obey the same rule as the makespan.
    for (double bad : {-1.0, std::numeric_limits<double>::infinity()}) {
        JsonValue tagged = runResultToJson(digest, r);
        JsonValue phases = JsonValue::object();
        phases.set("3", JsonValue::number(bad));
        tagged.set("tagged", std::move(phases));
        EXPECT_FALSE(parseRunResult(tagged, digest).has_value()) << bad;
    }
}

TEST(ResultCache, PoisonedTaggedKeyReadsAsCorruptNotCrash)
{
    // Regression: a tagged-seconds key too large for int used to go
    // through std::stoi, which throws std::out_of_range.  A poisoned
    // disk entry must read as corrupt (the point is re-simulated),
    // never as a crash.
    RunResult r;
    r.valid = true;
    r.seconds = 3.0;
    r.taggedSeconds[1] = 2.25;
    const uint64_t digest = 0x99;
    std::string entry = runResultToJson(digest, r).dump();
    const std::string needle = "\"1\":";
    const size_t pos = entry.find(needle);
    ASSERT_NE(pos, std::string::npos) << entry;
    entry.replace(pos, needle.size(), "\"99999999999999999999\":");

    TempDir dir("poisoned_tag");
    std::ofstream(dir.path() + "/" + digestHex(digest) + ".json")
        << entry;
    ResultCache cache(dir.path());
    EXPECT_FALSE(cache.lookup(digest).has_value());
    EXPECT_EQ(cache.stats().corrupt, 1u);
    EXPECT_EQ(cache.stats().diskHits, 0u);
}

TEST(ResultCache, EntryWithRetiredCalqueueCountersStillHits)
{
    // Earlier writers stored calendar-queue counters in every entry.
    // The reader ignores those keys, so an existing cache directory
    // keeps serving hits with unchanged results.
    RunResult r;
    r.valid = true;
    r.seconds = 2.718281828459045;
    r.taggedSeconds[3] = 0.75;
    r.events = 4321;
    r.incrementalSolves = 17;
    r.fullSolves = 5;
    const uint64_t digest = 0xabc;
    JsonValue doc = runResultToJson(digest, r);
    doc.set("calqueue_ops", JsonValue::number(1149292.0));
    doc.set("calqueue_resizes", JsonValue::number(3.0));

    TempDir dir("retired_calqueue");
    std::ofstream(dir.path() + "/" + digestHex(digest) + ".json")
        << doc.dump();
    ResultCache cache(dir.path());
    auto hit = cache.lookup(digest);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->fromDisk);
    EXPECT_EQ(cache.stats().diskHits, 1u);
    EXPECT_EQ(cache.stats().corrupt, 0u);
    const RunResult &back = hit->result;
    EXPECT_EQ(back.valid, r.valid);
    EXPECT_EQ(back.seconds, r.seconds); // bit-for-bit
    EXPECT_EQ(back.taggedSeconds, r.taggedSeconds);
    EXPECT_EQ(back.events, r.events);
    EXPECT_EQ(back.incrementalSolves, r.incrementalSolves);
    EXPECT_EQ(back.fullSolves, r.fullSolves);
}

TEST(DigestHex, RoundTripsAndRejects)
{
    EXPECT_EQ(digestHex(0x0123456789abcdefULL), "0123456789abcdef");
    auto parsed = parseDigestHex("0123456789abcdef");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, 0x0123456789abcdefULL);
    EXPECT_FALSE(parseDigestHex("123"));             // short
    EXPECT_FALSE(parseDigestHex("0123456789abcdeg")); // non-hex
    EXPECT_FALSE(parseDigestHex("0123456789ABCDEF")); // upper-case
}

TEST(Runner, MemoryCacheServesSecondRun)
{
    SweepPlan plan = tinyPlan();
    ResultCache cache;
    RunnerOptions opts;
    opts.cache = &cache;

    PlanResults first = runPlan(plan, opts);
    EXPECT_EQ(first.stats.misses, 1u);
    EXPECT_EQ(first.stats.simulations, 1u);
    ASSERT_TRUE(first.bySpec[0].valid);

    PlanResults second = runPlan(plan, opts);
    EXPECT_EQ(second.stats.memoryHits, 1u);
    if (!auditRequestedByEnv()) {
        EXPECT_EQ(second.stats.simulations, 0u);
    }
    EXPECT_EQ(second.bySpec[0].seconds, first.bySpec[0].seconds);
    EXPECT_EQ(second.bySpec[0].taggedSeconds,
              first.bySpec[0].taggedSeconds);
}

TEST(Runner, DiskCacheSharesResultsAcrossInstances)
{
    TempDir dir("disk_cache");
    SweepPlan plan = tinyPlan();

    ResultCache writer(dir.path());
    RunnerOptions write_opts;
    write_opts.cache = &writer;
    PlanResults first = runPlan(plan, write_opts);
    EXPECT_EQ(first.stats.simulations, 1u);

    // A fresh cache instance (a new process, in effect) finds the
    // entry on disk and reproduces the result bit-for-bit.
    ResultCache reader(dir.path());
    RunnerOptions read_opts;
    read_opts.cache = &reader;
    PlanResults second = runPlan(plan, read_opts);
    EXPECT_EQ(second.stats.diskHits, 1u);
    if (!auditRequestedByEnv()) {
        EXPECT_EQ(second.stats.simulations, 0u);
    }
    EXPECT_EQ(second.bySpec[0].seconds, first.bySpec[0].seconds);
    EXPECT_EQ(second.bySpec[0].events, first.bySpec[0].events);
}

TEST(Runner, PoisonedDiskEntryIsDetectedAndResimulated)
{
    TempDir dir("poisoned");
    SweepPlan plan = tinyPlan();

    {
        ResultCache writer(dir.path());
        RunnerOptions opts;
        opts.cache = &writer;
        runPlan(plan, opts);
    }

    // Poison every entry in the directory: truncated JSON simulating
    // a crashed writer or a bad disk.
    size_t poisoned = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir.path())) {
        std::ofstream out(entry.path(), std::ios::trunc);
        out << "{\"digest\": \"0000";
        ++poisoned;
    }
    ASSERT_EQ(poisoned, 1u);

    ResultCache reader(dir.path());
    RunnerOptions opts;
    opts.cache = &reader;
    PlanResults recovered = runPlan(plan, opts);
    EXPECT_EQ(recovered.stats.corrupt, 1u);
    EXPECT_EQ(recovered.stats.hits(), 0u);
    EXPECT_EQ(recovered.stats.simulations, 1u);

    // The re-simulated result matches an uncached run exactly.
    RunnerOptions fresh_opts;
    fresh_opts.noCache = true;
    PlanResults fresh = runPlan(plan, fresh_opts);
    EXPECT_EQ(recovered.bySpec[0].seconds, fresh.bySpec[0].seconds);
}

TEST(Runner, MisfiledEntryIsRejectedByDigest)
{
    TempDir dir("misfiled");
    SweepPlan plan = tinyPlan();

    {
        ResultCache writer(dir.path());
        RunnerOptions opts;
        opts.cache = &writer;
        runPlan(plan, opts);
    }

    // Rename the entry to a different digest: the content is valid
    // JSON but names the wrong experiment, so the embedded digest
    // check must reject it.
    std::filesystem::path original;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir.path()))
        original = entry.path();
    ScenarioSpec other = tinyPlan().specs()[0];
    other.ranks = 4;
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.json",
                  static_cast<unsigned long long>(other.digest()));
    std::filesystem::rename(original, original.parent_path() / name);

    SweepAxes axes = plan.axes();
    axes.rankCounts = {4};
    SweepPlan other_plan = SweepPlan::expand(axes);
    ResultCache reader(dir.path());
    RunnerOptions opts;
    opts.cache = &reader;
    PlanResults result = runPlan(other_plan, opts);
    EXPECT_EQ(result.stats.corrupt, 1u);
    EXPECT_EQ(result.stats.simulations, 1u);
}

TEST(Runner, UncacheableWorkloadsBypassTheCache)
{
    /** A workload with no signature() override. */
    class Opaque : public Workload
    {
      public:
        std::string name() const override { return "opaque"; }
        void buildTasks(Machine &machine,
                        const MpiRuntime &rt) const override
        {
            inner_.buildTasks(machine, rt);
        }

      private:
        StreamWorkload inner_{1u << 16, 2};
    };

    SweepPlan plan = tinyPlan();
    Opaque opaque;
    ResultCache cache;
    RunnerOptions opts;
    opts.cache = &cache;
    opts.workloadOverride = &opaque;

    runPlan(plan, opts);
    PlanResults second = runPlan(plan, opts);
    EXPECT_EQ(second.stats.hits(), 0u);
    EXPECT_EQ(second.stats.simulations, 1u);
    EXPECT_EQ(cache.stats().stores, 0u);
}

TEST(Runner, AuditModeValidatesHits)
{
    SweepPlan plan = tinyPlan();
    ResultCache cache;
    RunnerOptions opts;
    opts.cache = &cache;
    opts.audit = true;

    PlanResults first = runPlan(plan, opts);
    EXPECT_TRUE(first.bySpec[0].audited);

    // The hit is re-simulated and must agree with the cached entry;
    // surviving this call *is* the assertion.
    PlanResults second = runPlan(plan, opts);
    EXPECT_EQ(second.stats.hits(), 1u);
    EXPECT_EQ(second.stats.validatedHits, 1u);
    EXPECT_EQ(second.stats.simulations, 1u);
    EXPECT_EQ(second.bySpec[0].seconds, first.bySpec[0].seconds);
}
