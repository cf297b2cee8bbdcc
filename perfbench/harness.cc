/**
 * @file
 * perfbench_harness: the in-process half of the end-to-end benchmark.
 *
 * One invocation sets up one workload of the zoo batch grid, runs
 * timed passes over it for a fixed window, checks every pass's output,
 * and writes raw samples as JSON (perfbench/run.py turns them into
 * metrics).  A pass is what `mcscope batch --csv` does for one spec
 * file: parse the spec, run the plan, render the CSV.
 *
 * Untraced passes go through the public pipeline (SweepPlan::fromJson,
 * runPlan, renderBatchResults) and are timed only from outside.  A
 * traced pass replays runExperimentOn() step by step from this file,
 * recording one span around each call into a layer's public function;
 * spans stay in memory and are written out when the run ends.  Every
 * replayed point must equal runExperiment() bit for bit.
 *
 * Usage (run.py passes all of these):
 *   perfbench_harness --root DIR --workload zoo-cold|zoo-warm|zoo-jobs
 *       --seed N [--grid zoo|heldout] --seconds S --trace 0|1
 *       --work DIR --out FILE [--samples FILE] [--spans FILE]
 *       [--setup-only]
 *
 * --out gets one JSON object (set-up time, host counters, checks, the
 * grid's specs); --samples gets one tab-separated line per pass, written
 * at the end of the pass's cycle so the harness's memory does not grow
 * with the number of passes and peak_rss_mb measures the program.
 *
 * The window runs in cycles: passes for about kCycleSeconds, then the
 * calibration probe (below).  Each pass is stored with the mean of the
 * probes on either side of its cycle, so run.py can state its time in
 * the host speed the probe saw at that moment.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "affinity/placement.hh"
#include "core/experiment.hh"
#include "core/parallel_for.hh"
#include "core/plan.hh"
#include "core/registry.hh"
#include "core/report.hh"
#include "core/runner.hh"
#include "core/scenario.hh"
#include "machine/machine.hh"
#include "machine/registry.hh"
#include "simmpi/comm.hh"
#include "util/json.hh"

extern char **environ;

namespace {

using namespace mcscope;
using Clock = std::chrono::steady_clock;

// Taken during static initialization, so set-up time counts from
// process start rather than from main().
const Clock::time_point kProcessStart = Clock::now();

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kProcessStart)
        .count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

struct Options
{
    std::string root = ".";
    std::string workload;
    std::string grid = "zoo";
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool setupOnly = false;
    std::string workDir;
    std::string out;
    std::string samplesOut;
    std::string spansOut;
};

[[noreturn]] void
die(const std::string &msg)
{
    std::cerr << "perfbench_harness: " << msg << "\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                die(a + " needs a value");
            return argv[++i];
        };
        if (a == "--root")
            o.root = value();
        else if (a == "--workload")
            o.workload = value();
        else if (a == "--grid")
            o.grid = value();
        else if (a == "--seed")
            o.seed = std::stoull(value());
        else if (a == "--seconds")
            o.seconds = std::stod(value());
        else if (a == "--trace")
            o.trace = value() != "0";
        else if (a == "--work")
            o.workDir = value();
        else if (a == "--out")
            o.out = value();
        else if (a == "--samples")
            o.samplesOut = value();
        else if (a == "--spans")
            o.spansOut = value();
        else if (a == "--setup-only")
            o.setupOnly = true;
        else
            die("unknown argument '" + a + "'");
    }
    if (o.workload != "zoo-cold" && o.workload != "zoo-warm" &&
        o.workload != "zoo-jobs")
        die("--workload must be zoo-cold, zoo-warm or zoo-jobs");
    if (o.grid != "zoo" && o.grid != "heldout")
        die("--grid must be zoo or heldout");
    if (o.out.empty() || o.workDir.empty())
        die("--out and --work are required");
    if (!o.setupOnly && o.samplesOut.empty())
        die("--samples is required unless --setup-only");
    if (o.trace && o.spansOut.empty())
        die("--trace 1 needs --spans");
    return o;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        die("cannot read " + path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

// ---------------------------------------------------------------- inputs

/** splitmix64: a fixed generator, so a seed means the same grid everywhere. */
uint64_t
nextRandom(uint64_t &state)
{
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

template <typename T>
void
shuffleSeeded(std::vector<T> &v, uint64_t &state)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[nextRandom(state) % i]);
}

/*
 * A run cycles through kOrders listings of its seed's grid, one per
 * round of passes.  The points are the same in every listing, but the
 * order decides which points a threaded pass runs last, and that moved
 * zoo-jobs's pass time by about 15% from one listing to another; over
 * many listings a run's median no longer depends on which one its seed
 * drew.
 */
constexpr int kOrders = 16;

/**
 * The batch spec of listing `order` of the seed's grid.  Seed 0's
 * listing 0 on the zoo grid is examples/batch_zoo.json byte for byte.
 * Any other listing has the same machines, workloads and rank counts
 * in a seeded order: the same 144 points, so the same work, executed
 * in another order.  The held-out grid keeps the machines, ranks and
 * options and draws 4 workloads from the registry by the seed alone.
 */
std::string
batchText(const std::string &zoo_text, const Options &o, int order)
{
    if (o.grid == "zoo" && o.seed == 0 && order == 0)
        return zoo_text;
    std::string error;
    std::optional<JsonValue> doc = parseJson(zoo_text, &error);
    if (!doc || !doc->isObject())
        die("examples/batch_zoo.json: " + error);
    uint64_t draw = o.seed;
    uint64_t listing = o.seed * kOrders + static_cast<uint64_t>(order);
    JsonValue out = JsonValue::object();
    for (const auto &[key, value] : doc->members()) {
        std::vector<JsonValue> items;
        if (o.grid == "heldout" && key == "workloads") {
            std::vector<std::string> names = registeredWorkloads();
            shuffleSeeded(names, draw);
            for (size_t k = 0; k < 4 && k < names.size(); ++k)
                items.push_back(JsonValue::str(names[k]));
            shuffleSeeded(items, listing);
        } else if (key == "machines" || key == "workloads" ||
                   key == "ranks") {
            items = value.items();
            shuffleSeeded(items, listing);
        } else {
            out.set(key, value);
            continue;
        }
        JsonValue arr = JsonValue::array();
        for (JsonValue &v : items)
            arr.append(std::move(v));
        out.set(key, std::move(arr));
    }
    return out.dump();
}

/** What tells two specs of one grid apart, for matching listings. */
std::string
specKey(const ScenarioSpec &spec)
{
    return spec.machine.name + "|" + spec.workload + "|" +
           std::to_string(spec.ranks) + "|" + spec.option.label;
}

SweepPlan
parsePlan(const std::string &text)
{
    std::string error;
    std::optional<JsonValue> doc = parseJson(text, &error);
    if (!doc)
        die("batch spec: " + error);
    std::optional<SweepPlan> plan = SweepPlan::fromJson(*doc, &error);
    if (!plan)
        die("batch spec: " + error);
    return std::move(*plan);
}

/** CPUs this process may run on (what `nproc` prints). */
int
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

/** Where a pass's lookups go: a fresh memory cache or the warm disk one. */
enum class CacheMode { FreshMemory, WarmDisk };

/** How one workload runs its passes. */
struct WorkloadShape
{
    CacheMode cache = CacheMode::FreshMemory;
    int jobs = 1;
    bool interleaveSerial = false; ///< zoo-jobs: a serial pass per cycle
};

WorkloadShape
describe(const std::string &name)
{
    WorkloadShape w;
    if (name == "zoo-warm")
        w.cache = CacheMode::WarmDisk;
    if (name == "zoo-jobs") {
        w.jobs = std::min(4, usableCpus());
        w.interleaveSerial = true;
    }
    return w;
}

// ------------------------------------------------------------ calibration

/*
 * A shared host runs this process at a speed that changes by up to 2x
 * every few seconds and drifts over minutes (other tenants on the
 * core's hyperthread sibling).  A fixed piece of work, timed next to
 * the passes, measures that speed.  It is built from what the passes
 * spend their time on -- a binary heap, hash-table updates and
 * number-to-text round trips through a string-keyed map, all allocating
 * -- because a dependent ALU chain or a cache-missing pointer chase
 * does not slow down with the passes.  It uses nothing from src/, so a
 * change to the program cannot change it.
 */

/** One unit of probe work, about a millisecond; returns a checksum. */
double
probeChunk(uint64_t seed)
{
    uint64_t s = seed;
    auto next = [&s] {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        return s >> 17;
    };
    double acc = 0.0;
    std::priority_queue<double> heap;
    std::unordered_map<uint64_t, double> table;
    for (int i = 0; i < 8000; ++i) {
        const uint64_t r = next();
        heap.push(static_cast<double>(r & 0xfffff) * 1e-6);
        if (heap.size() > 256) {
            acc += heap.top();
            heap.pop();
        }
        table[r & 1023] += 1e-9 * static_cast<double>(r >> 20);
        acc += table[(r >> 7) & 1023];
    }
    std::map<std::string, double> fields;
    char text[40];
    for (int i = 0; i < 400; ++i) {
        const int len = std::snprintf(text, sizeof(text), "%.17g",
                                      static_cast<double>(next()) * 1.37e-9);
        fields.emplace(std::string(text, static_cast<size_t>(len)),
                       std::strtod(text, nullptr));
    }
    for (const auto &kv : fields)
        acc += kv.second;
    return acc;
}

// Probe chunks per thread: about 50 ms of work.
constexpr int kProbeChunks = 48;

// Length of one cycle's passes before the next probe.
constexpr double kCycleSeconds = 0.25;

// Where the probe's checksums go, so the compiler keeps the work.
std::atomic<uint64_t> probeSink{0};

/**
 * Wall seconds to run kProbeChunks chunks per thread on `threads`
 * threads that share one counter, the way a threaded pass shares its
 * points: a threaded workload is slowed by a host that takes some of
 * its CPUs away, which a serial probe does not see.
 */
double
probeSeconds(int threads)
{
    const uint64_t total = static_cast<uint64_t>(kProbeChunks) *
                           static_cast<uint64_t>(std::max(1, threads));
    std::atomic<uint64_t> nextChunk{0};
    auto work = [&] {
        double acc = 0.0;
        for (uint64_t c; (c = nextChunk.fetch_add(1)) < total;)
            acc += probeChunk(c + 1);
        probeSink.fetch_add(static_cast<uint64_t>(acc),
                            std::memory_order_relaxed);
    };
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> helpers;
    for (int i = 1; i < threads; ++i)
        helpers.emplace_back(work);
    work();
    for (std::thread &t : helpers)
        t.join();
    return secondsSince(t0);
}

// --------------------------------------------------------------- checking

bool
bitEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool
sameResult(const RunResult &a, const RunResult &b)
{
    if (a.valid != b.valid || !bitEqual(a.seconds, b.seconds) ||
        a.events != b.events || a.incrementalSolves != b.incrementalSolves ||
        a.fullSolves != b.fullSolves || a.calqueueOps != b.calqueueOps ||
        a.calqueueResizes != b.calqueueResizes ||
        a.taggedSeconds.size() != b.taggedSeconds.size())
        return false;
    auto it = b.taggedSeconds.begin();
    for (const auto &[tag, t] : a.taggedSeconds) {
        if (tag != it->first || !bitEqual(t, it->second))
            return false;
        ++it;
    }
    return true;
}

/** Attempted/failed point counts plus the first few failure messages. */
struct Checks
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> messages;

    void
    fail(uint64_t points, const std::string &msg)
    {
        failed += points;
        if (messages.size() < 20)
            messages.push_back(msg);
    }
};

size_t
differingLines(const std::string &a, const std::string &b)
{
    std::istringstream sa(a), sb(b);
    std::string la, lb;
    size_t diff = 0;
    for (;;) {
        const bool ga = static_cast<bool>(std::getline(sa, la));
        const bool gb = static_cast<bool>(std::getline(sb, lb));
        if (!ga && !gb)
            return diff;
        if (ga != gb || la != lb)
            ++diff;
    }
}

/**
 * Hold one pass's output to the reference: every point's result
 * bitwise, and the CSV byte for byte.  A wrong CSV row counts as one
 * failed point, capped at the grid size.
 */
void
checkPass(const SweepPlan &plan, const std::vector<RunResult> &results,
          const std::string &csv, const std::vector<RunResult> &reference,
          const std::string &reference_csv, const std::string &what,
          Checks &checks)
{
    checks.attempted += plan.pointCount();
    uint64_t bad = 0;
    std::string first;
    for (size_t p = 0; p < plan.pointCount(); ++p) {
        const size_t s = plan.specIndex(p);
        if (sameResult(results[s], reference[s]))
            continue;
        if (bad++ == 0) {
            const ScenarioSpec &spec = plan.specs()[s];
            first = spec.machine.name + " " + spec.workload + " ranks " +
                    std::to_string(spec.ranks) + " " + spec.option.label;
        }
    }
    const size_t csv_rows = csv == reference_csv
                                ? 0
                                : differingLines(csv, reference_csv);
    bad = std::min<uint64_t>(bad + csv_rows, plan.pointCount());
    if (bad > 0)
        checks.fail(bad, what + ": " + std::to_string(bad) +
                             " points wrong (" + std::to_string(csv_rows) +
                             " CSV rows differ; first result mismatch: " +
                             (first.empty() ? "none" : first) + ")");
}

// ---------------------------------------------------------------- tracing

struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 for a pass's root span
    const char *name = "";
    int64_t point = -1; ///< unique-spec index, -1 for pass-level spans
    int64_t startNs = 0;
    int64_t endNs = 0;
};

std::atomic<uint64_t> nextSpanId{1};

/** Records [construction, destruction) as one span into `sink`. */
class ScopedSpan
{
  public:
    ScopedSpan(std::vector<Span> &sink, const char *name, uint64_t parent,
               int64_t point)
        : sink_(sink)
    {
        span_.id = nextSpanId.fetch_add(1, std::memory_order_relaxed);
        span_.parent = parent;
        span_.name = name;
        span_.point = point;
        span_.startNs = nowNs();
    }
    ~ScopedSpan()
    {
        span_.endNs = nowNs();
        sink_.push_back(span_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    uint64_t id() const { return span_.id; }

  private:
    std::vector<Span> &sink_;
    Span span_;
};

/** Engine counters of one traced pass, summed over simulated points. */
struct LayerCounts
{
    uint64_t events = 0;
    uint64_t allocatorReruns = 0;
    uint64_t incrementalSolves = 0;
    uint64_t fullSolves = 0;
    uint64_t calqueueOps = 0;
    uint64_t calqueueResizes = 0;
    uint64_t fallbackScans = 0;
    uint64_t timeSteps = 0;
    uint64_t peakActiveFlows = 0; ///< max over points
    uint64_t invalidPoints = 0;   ///< placements that cannot host the ranks
    uint64_t simulations = 0;
    uint64_t diskHits = 0;
    uint64_t hits = 0;
};

/** What replaying one point produced. */
struct ReplayedPoint
{
    RunResult result;
    Engine::Stats engine;
    bool simulated = false;
    bool invalid = false;
    bool hit = false;
    bool fromDisk = false;
};

/**
 * runPlan()'s per-spec body with runExperimentOn() inlined, one span
 * per layer call.  Mirrors both so the result is the same bits.
 */
ReplayedPoint
replayPoint(const ScenarioSpec &spec, int64_t point, uint64_t parent,
            ResultCache &cache, std::vector<Span> &sink)
{
    ReplayedPoint out;
    ScopedSpan whole(sink, "point", parent, point);
    const uint64_t pid = whole.id();

    std::unique_ptr<Workload> workload;
    {
        ScopedSpan s(sink, "core.registry.make_workload", pid, point);
        workload = makeWorkload(spec.workload);
    }
    std::optional<uint64_t> digest;
    {
        ScopedSpan s(sink, "core.scenario.digest", pid, point);
        digest = spec.digestWith(*workload);
    }
    std::optional<ResultCache::Hit> hit;
    if (digest) {
        ScopedSpan s(sink, "core.runner.lookup", pid, point);
        hit = cache.lookup(*digest);
    }
    if (hit) {
        out.hit = true;
        out.fromDisk = hit->fromDisk;
        out.result = hit->result;
        return out;
    }

    const ExperimentConfig cfg = spec.toExperiment();
    std::unique_ptr<Machine> machine;
    {
        ScopedSpan s(sink, "machine.build", pid, point);
        machine = std::make_unique<Machine>(cfg.machine);
    }
    std::optional<Placement> placement;
    {
        ScopedSpan s(sink, "affinity.placement", pid, point);
        placement = Placement::create(cfg.machine, machine->topology(),
                                      cfg.option, cfg.ranks);
    }
    RunResult &res = out.result;
    if (placement) {
        std::optional<MpiRuntime> rt;
        {
            ScopedSpan s(sink, "simmpi.build_tasks", pid, point);
            rt.emplace(*machine, *placement, cfg.impl, cfg.sublayer);
            if (cfg.latencyNoise != 1.0)
                rt->setLatencyNoiseFactor(cfg.latencyNoise);
            workload->buildTasks(*machine, *rt);
        }
        Engine &engine = machine->engine();
        {
            ScopedSpan s(sink, "sim.run", pid, point);
            engine.run();
        }
        // runExperimentOn() asserts the task count; a mismatch here
        // fails the bitwise check against the reference instead.
        res.valid = engine.taskCount() == cfg.ranks;
        res.seconds = engine.makespan();
        for (int tag = 0; tag <= 8; ++tag) {
            SimTime t = engine.maxTaggedTime(tag);
            if (t > 0.0)
                res.taggedSeconds[tag] = t;
        }
        out.engine = engine.stats();
        res.events = engine.eventCount();
        res.incrementalSolves = out.engine.incrementalSolves;
        res.fullSolves = out.engine.fullSolves;
        res.calqueueOps = out.engine.calqueueOps;
        res.calqueueResizes = out.engine.calqueueResizes;
        out.simulated = true;
    } else {
        out.invalid = true;
    }
    if (digest) {
        ScopedSpan s(sink, "core.runner.store", pid, point);
        cache.store(*digest, res);
    }
    return out;
}

// ----------------------------------------------------------------- passes

struct PassSample
{
    bool traced = false;
    int jobs = 1;
    double wall = 0.0;
    double cpu = 0.0;
    double busy = 0.0;     ///< sum of per-spec wall seconds
    double maxPoint = 0.0; ///< slowest spec's wall seconds
    RunnerStats stats;
    uint64_t csvBytes = 0;
    LayerCounts counts; ///< traced passes only
    double probe = 0.0; ///< mean probe seconds around the pass's cycle
};

/** One listing of the grid, with what a correct pass over it gives. */
struct Listing
{
    std::string batch;
    std::vector<RunResult> reference; ///< by this listing's spec index
    std::string referenceCsv;
    std::vector<int64_t> point; ///< spec index -> listing 0's spec index
};

struct Bench
{
    Options opt;
    WorkloadShape shape;
    std::string cacheDir;
    std::vector<Listing> listings; ///< kOrders listings of the grid
    Checks checks;
    std::ofstream samples;
    std::vector<PassSample> cycle; ///< this cycle's passes, not yet written
    std::vector<std::pair<size_t, Span>> spans; // (traced pass, span)
    size_t tracedPasses = 0;

    /** Write the cycle's passes with the probe time around them. */
    void
    endCycle(double probe)
    {
        for (PassSample &s : cycle) {
            s.probe = probe;
            writeSample(s);
        }
        cycle.clear();
    }

    void
    writeSample(const PassSample &s)
    {
        const LayerCounts &c = s.counts;
        samples << s.traced << '\t' << s.jobs << '\t' << s.wall << '\t'
                << s.cpu << '\t' << s.busy << '\t' << s.maxPoint << '\t'
                << s.stats.points << '\t' << s.stats.uniqueSpecs << '\t'
                << s.stats.memoryHits << '\t' << s.stats.diskHits << '\t'
                << s.stats.corrupt << '\t' << s.stats.simulations << '\t'
                << s.csvBytes << '\t' << c.events << '\t'
                << c.allocatorReruns << '\t' << c.incrementalSolves << '\t'
                << c.fullSolves << '\t' << c.calqueueOps << '\t'
                << c.calqueueResizes << '\t' << c.fallbackScans << '\t'
                << c.timeSteps << '\t' << c.peakActiveFlows << '\t'
                << c.invalidPoints << '\t' << s.probe << '\n';
    }

    std::unique_ptr<ResultCache>
    freshCache() const
    {
        return shape.cache == CacheMode::WarmDisk
                   ? std::make_unique<ResultCache>(cacheDir)
                   : std::make_unique<ResultCache>();
    }

    void
    checkWarmHits(const SweepPlan &plan, uint64_t disk_hits,
                  uint64_t corrupt, const std::string &what)
    {
        if (shape.cache != CacheMode::WarmDisk)
            return;
        const uint64_t n = plan.specs().size();
        if (disk_hits != n || corrupt != 0)
            checks.fail(std::max<uint64_t>(n - std::min(n, disk_hits),
                                           corrupt),
                        what + ": " + std::to_string(disk_hits) + "/" +
                            std::to_string(n) + " disk hits, " +
                            std::to_string(corrupt) + " corrupt");
    }

    /** One untraced pass through the public pipeline. */
    void
    untracedPass(const Listing &l, int jobs)
    {
        const Clock::time_point t0 = Clock::now();
        const double c0 = processCpuSeconds();
        SweepPlan plan = parsePlan(l.batch);
        std::unique_ptr<ResultCache> cache = freshCache();
        RunnerOptions ro;
        ro.jobs = jobs;
        ro.cache = cache.get();
        PlanResults results = runPlan(plan, ro);
        std::ostringstream csv;
        renderBatchResults(plan, results, true, csv);
        PassSample s;
        s.wall = secondsSince(t0);
        s.cpu = processCpuSeconds() - c0;
        s.jobs = jobs;
        for (double w : results.specWallSeconds) {
            s.busy += w;
            s.maxPoint = std::max(s.maxPoint, w);
        }
        s.stats = results.stats;
        const std::string text = csv.str();
        s.csvBytes = text.size();
        checkPass(plan, results.bySpec, text, l.reference, l.referenceCsv,
                  "untraced pass", checks);
        checkWarmHits(plan, results.stats.diskHits, results.stats.corrupt,
                      "untraced pass");
        cycle.push_back(s);
    }

    /**
     * One traced pass: the same work, replayed with spans.  Counting
     * and checking happen after the pass's clock stops, as they do for
     * an untraced pass, so trace.overhead_s is the spans' cost alone.
     */
    void
    tracedPass(const Listing &l)
    {
        std::vector<Span> top;
        std::optional<SweepPlan> plan;
        std::unique_ptr<ResultCache> cache;
        std::vector<std::vector<Span>> sinks;
        std::vector<ReplayedPoint> points;
        std::vector<double> wall;
        PlanResults results;
        std::string text;
        const Clock::time_point t0 = Clock::now();
        const double c0 = processCpuSeconds();
        {
            ScopedSpan root(top, "pass", 0, -1);
            {
                ScopedSpan sp(top, "core.plan.parse", root.id(), -1);
                plan.emplace(parsePlan(l.batch));
            }
            const size_t n = plan->specs().size();
            cache = freshCache();
            sinks.resize(n);
            points.resize(n);
            wall.assign(n, 0.0);
            parallelFor(n, shape.jobs, [&](size_t i) {
                sinks[i].reserve(10);
                const Clock::time_point p0 = Clock::now();
                points[i] = replayPoint(plan->specs()[i], l.point[i],
                                        root.id(),
                                        *cache, sinks[i]);
                wall[i] = secondsSince(p0);
            });
            results.bySpec.reserve(n);
            for (const ReplayedPoint &p : points)
                results.bySpec.push_back(p.result);
            {
                ScopedSpan sr(top, "core.report.render", root.id(), -1);
                std::ostringstream csv;
                renderBatchResults(*plan, results, true, csv);
                text = csv.str();
            }
        }
        PassSample s;
        s.traced = true;
        s.jobs = shape.jobs;
        s.wall = secondsSince(t0);
        s.cpu = processCpuSeconds() - c0;
        s.csvBytes = text.size();
        LayerCounts &c = s.counts;
        for (size_t i = 0; i < points.size(); ++i) {
            const ReplayedPoint &p = points[i];
            c.events += p.engine.events;
            c.allocatorReruns += p.engine.allocatorReruns;
            c.incrementalSolves += p.engine.incrementalSolves;
            c.fullSolves += p.engine.fullSolves;
            c.calqueueOps += p.engine.calqueueOps;
            c.calqueueResizes += p.engine.calqueueResizes;
            c.fallbackScans += p.engine.fallbackScans;
            c.timeSteps += p.engine.timeSteps;
            c.peakActiveFlows = std::max<uint64_t>(
                c.peakActiveFlows,
                static_cast<uint64_t>(p.engine.peakActiveFlows));
            c.invalidPoints += p.invalid ? 1 : 0;
            c.simulations += p.simulated ? 1 : 0;
            c.diskHits += p.fromDisk ? 1 : 0;
            c.hits += p.hit ? 1 : 0;
            s.busy += wall[i];
            s.maxPoint = std::max(s.maxPoint, wall[i]);
            for (const Span &span : sinks[i])
                spans.emplace_back(tracedPasses, span);
        }
        for (const Span &span : top)
            spans.emplace_back(tracedPasses, span);
        ++tracedPasses;
        s.stats.points = plan->pointCount();
        s.stats.uniqueSpecs = points.size();
        s.stats.diskHits = c.diskHits;
        s.stats.memoryHits = c.hits - c.diskHits;
        s.stats.simulations = c.simulations;
        s.stats.corrupt = cache->stats().corrupt;
        checkPass(*plan, results.bySpec, text, l.reference, l.referenceCsv,
                  "traced replay", checks);
        checkWarmHits(*plan, c.diskHits, s.stats.corrupt, "traced replay");
        cycle.push_back(s);
    }
};

// ------------------------------------------------------------------- host

struct HostSnapshot
{
    double cpu = 0.0;
    long involuntary = 0;
    double steal = 0.0; ///< /proc/stat steal, seconds summed over CPUs
};

HostSnapshot
hostSnapshot()
{
    HostSnapshot h;
    h.cpu = processCpuSeconds();
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    h.involuntary = ru.ru_nivcsw;
    std::ifstream stat("/proc/stat");
    std::string cpu;
    unsigned long long v[8] = {};
    if (stat >> cpu && cpu == "cpu") {
        for (unsigned long long &x : v)
            stat >> x;
        const long tick = sysconf(_SC_CLK_TCK);
        if (stat && tick > 0)
            h.steal = static_cast<double>(v[7]) / static_cast<double>(tick);
    }
    return h;
}

/**
 * Peak resident set in KiB.  VmHWM belongs to the address space, so it
 * starts afresh at exec; getrusage()'s ru_maxrss would carry over the
 * parent's peak from before the fork.
 */
long
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stol(line.substr(6));
    }
    die("no VmHWM in /proc/self/status");
}

/** Drop MCSCOPE_* variables (audit, cache dir, jobs, allocator...). */
void
isolateEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string kv = *e;
        if (kv.rfind("MCSCOPE_", 0) == 0)
            names.push_back(kv.substr(0, kv.find('=')));
    }
    for (const std::string &n : names)
        unsetenv(n.c_str());
}

// ----------------------------------------------------------------- output

JsonValue
num(double v)
{
    return JsonValue::number(v);
}

void
writeSpans(const Bench &b)
{
    std::ofstream out(b.opt.spansOut);
    if (!out)
        die("cannot write " + b.opt.spansOut);
    out << "pass\tid\tparent\tname\tpoint\tstart_ns\tend_ns\n";
    for (const auto &[pass, s] : b.spans)
        out << pass << '\t' << s.id << '\t' << s.parent << '\t' << s.name
            << '\t' << s.point << '\t' << s.startNs << '\t' << s.endNs
            << '\n';
    if (!out)
        die("short write to " + b.opt.spansOut);
}

} // namespace

int
main(int argc, char **argv)
{
    Bench b;
    b.opt = parseArgs(argc, argv);
    b.shape = describe(b.opt.workload);
    b.cacheDir = b.opt.workDir + "/cache";
    isolateEnvironment();

    // ---- set-up: everything a pass relies on, timed from process start.
    const std::string problem =
        MachineRegistry::instance().loadDirectory(b.opt.root + "/machines");
    if (!problem.empty())
        die("machines: " + problem);
    (void)calibrationDigest();
    const std::string zoo_text =
        readFile(b.opt.root + "/examples/batch_zoo.json");
    const SweepPlan plan = parsePlan(batchText(zoo_text, b.opt, 0));
    const size_t n = plan.specs().size();

    // The oracle: runExperiment() on every unique spec.  It also warms
    // the allocator and code paths before the first timed pass.
    std::vector<RunResult> reference(n);
    std::vector<std::optional<uint64_t>> digests(n);
    std::map<std::string, int64_t> index; // spec -> listing 0's index
    for (size_t i = 0; i < n; ++i) {
        const ScenarioSpec &spec = plan.specs()[i];
        std::unique_ptr<Workload> w = makeWorkload(spec.workload);
        digests[i] = spec.digestWith(*w);
        reference[i] = runExperiment(spec.toExperiment(), *w);
        if (!index.emplace(specKey(spec), static_cast<int64_t>(i)).second)
            die("two specs share the key " + specKey(spec));
    }
    // Every listing's expected results and CSV, from the one oracle.
    b.listings.resize(kOrders);
    for (int order = 0; order < kOrders; ++order) {
        Listing &l = b.listings[static_cast<size_t>(order)];
        l.batch = batchText(zoo_text, b.opt, order);
        const SweepPlan lp = parsePlan(l.batch);
        if (lp.specs().size() != n)
            die("listing " + std::to_string(order) + " has " +
                std::to_string(lp.specs().size()) + " specs, not " +
                std::to_string(n));
        PlanResults ref;
        for (const ScenarioSpec &spec : lp.specs()) {
            const auto it = index.find(specKey(spec));
            if (it == index.end())
                die("listing " + std::to_string(order) +
                    " has a spec listing 0 lacks: " + specKey(spec));
            l.point.push_back(it->second);
            ref.bySpec.push_back(reference[static_cast<size_t>(it->second)]);
        }
        l.reference = ref.bySpec;
        std::ostringstream csv;
        renderBatchResults(lp, ref, true, csv);
        l.referenceCsv = csv.str();
    }
    double setup_store_s = 0.0;
    if (b.shape.cache == CacheMode::WarmDisk) {
        ResultCache disk(b.cacheDir);
        for (size_t i = 0; i < n; ++i) {
            if (!digests[i])
                die("spec " + std::to_string(i) +
                    " is not content-addressable");
            const Clock::time_point t = Clock::now();
            disk.store(*digests[i], reference[i]);
            setup_store_s += secondsSince(t);
        }
    }
    const double setup_s = secondsSince(kProcessStart);

    JsonValue out = JsonValue::object();
    out.set("setup_s", num(setup_s));
    out.set("setup_probe_s", num(probeSeconds(1))); // set-up is serial
    out.set("setup_store_s", num(setup_store_s));

    if (!b.opt.setupOnly) {
        // ---- the timed window.
        b.samples.open(b.opt.samplesOut);
        b.samples.precision(17);
        b.samples << "traced\tjobs\twall_s\tcpu_s\tbusy_s\tmax_point_s\t"
                     "points\tunique_specs\tmemory_hits\tdisk_hits\t"
                     "corrupt\tsimulations\tcsv_bytes\tevents\t"
                     "allocator_reruns\tincremental_solves\tfull_solves\t"
                     "calqueue_ops\tcalqueue_resizes\tfallback_scans\t"
                     "time_steps\tpeak_active_flows\tinvalid_points\t"
                     "probe_s\n";
        const HostSnapshot h0 = hostSnapshot();
        const Clock::time_point w0 = Clock::now();
        // At least 21 rounds, so the tail percentile has ten passes
        // beyond it even when passes are slow; otherwise stop at the
        // first cycle boundary past the window.
        const size_t min_rounds = 21;
        size_t rounds = 0;
        double before = probeSeconds(b.shape.jobs);
        while (rounds < min_rounds || secondsSince(w0) < b.opt.seconds) {
            const Clock::time_point c0 = Clock::now();
            do {
                const Listing &l = b.listings[rounds % kOrders];
                b.untracedPass(l, b.shape.jobs);
                if (b.shape.interleaveSerial)
                    b.untracedPass(l, 1);
                if (b.opt.trace)
                    b.tracedPass(l);
                ++rounds;
            } while (secondsSince(c0) < kCycleSeconds);
            const double after = probeSeconds(b.shape.jobs);
            b.endCycle(0.5 * (before + after));
            before = after;
        }
        const double window = secondsSince(w0);
        const HostSnapshot h1 = hostSnapshot();
        const long peak_rss_kb = peakRssKb();
        b.samples.close();
        if (!b.samples)
            die("cannot write " + b.opt.samplesOut);

        out.set("jobs", num(b.shape.jobs));
        out.set("window_s", num(window));
        out.set("cpu_s", num(h1.cpu - h0.cpu));
        out.set("invol_ctx_switches",
                num(static_cast<double>(h1.involuntary - h0.involuntary)));
        out.set("steal_s", num(h1.steal - h0.steal));
        out.set("peak_rss_kb", num(static_cast<double>(peak_rss_kb)));
        out.set("nproc", num(usableCpus()));

        JsonValue specs = JsonValue::array();
        for (size_t i = 0; i < n; ++i) {
            const ScenarioSpec &spec = plan.specs()[i];
            JsonValue o = JsonValue::object();
            o.set("machine", JsonValue::str(spec.machine.name));
            o.set("workload", JsonValue::str(spec.workload));
            o.set("ranks", num(spec.ranks));
            o.set("option", JsonValue::str(spec.option.label));
            o.set("digest", JsonValue::str(
                                digests[i] ? digestHex(*digests[i]) : ""));
            specs.append(std::move(o));
        }
        out.set("specs", std::move(specs));
        out.set("points", num(static_cast<double>(plan.pointCount())));
        out.set("unique_specs", num(static_cast<double>(n)));
        out.set("batch", JsonValue::str(b.listings[0].batch));
        out.set("reference_csv", JsonValue::str(b.listings[0].referenceCsv));
        out.set("attempted", num(static_cast<double>(b.checks.attempted)));
        out.set("failed", num(static_cast<double>(b.checks.failed)));
        JsonValue msgs = JsonValue::array();
        for (const std::string &m : b.checks.messages)
            msgs.append(JsonValue::str(m));
        out.set("failures", std::move(msgs));
        if (b.opt.trace)
            writeSpans(b);
    }

    std::ofstream f(b.opt.out);
    f << out.dump() << "\n";
    if (!f)
        die("cannot write " + b.opt.out);
    return 0;
}
