/**
 * @file
 * Runner: the execute + cache layer of the scenario pipeline.
 *
 * runPlan() executes a SweepPlan's unique specs through the
 * parallel_for executor with a content-addressed ResultCache in
 * front: every spec's digest (core/scenario.hh) is looked up in
 * memory, then (when a cache directory is configured) on disk, and
 * only misses are simulated.  Identical points within one batch are
 * deduplicated by the plan; identical points across sweeps in one
 * process share the process cache; identical points across processes
 * share the on-disk store.
 *
 * Correctness before speed, always:
 *
 *  - A disk entry is trusted only if it parses, carries the matching
 *    digest, and has every required field; anything else counts as
 *    corrupt, is ignored, and the point is re-simulated (never a
 *    wrong number, at worst a slow one).
 *  - When auditing is on (RunnerOptions::audit or MCSCOPE_AUDIT=1),
 *    cache hits are *validated*: the point is re-simulated under the
 *    auditor and the cached seconds -- and audit digest, when the
 *    entry recorded one -- must match bit-for-bit, or the runner
 *    panics.  Audit mode trades the cache's speed for an end-to-end
 *    proof that cached and fresh results agree.
 *  - Workloads whose Workload::signature() is empty are not
 *    content-addressable and bypass the cache entirely.
 *
 * Resuming an interrupted batch needs nothing beyond the disk tier
 * (DESIGN.md §10): every point is stored the moment it finishes, so
 * re-running the same plan against the same directory re-simulates
 * only the points that never made it to disk.
 */

#ifndef MCSCOPE_CORE_RUNNER_HH
#define MCSCOPE_CORE_RUNNER_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/plan.hh"

namespace mcscope {

/** Cumulative counters for one ResultCache. */
struct CacheStats
{
    uint64_t memoryHits = 0;
    uint64_t diskHits = 0;
    uint64_t misses = 0;
    uint64_t stores = 0;

    /** Disk entries rejected (parse failure, digest mismatch, ...). */
    uint64_t corrupt = 0;
};

/**
 * Content-addressed store of RunResults, keyed by scenario digest.
 * Always holds an in-memory map; when constructed with a directory it
 * also persists one JSON file per digest ("<16-hex-digest>.json"),
 * written atomically (temp file + rename) so concurrent processes can
 * share a cache directory.  Thread-safe.
 */
class ResultCache
{
  public:
    /** Memory-only cache. */
    ResultCache() = default;

    /** Memory + on-disk store under `dir` (created when missing). */
    explicit ResultCache(std::string dir);

    /** One lookup outcome. */
    struct Hit
    {
        RunResult result;
        bool fromDisk = false;
    };

    /** Find a digest; memory first, then disk. */
    std::optional<Hit> lookup(uint64_t digest);

    /** Record a result under a digest (memory, and disk when set). */
    void store(uint64_t digest, const RunResult &result);

    /** Cache directory, empty when memory-only. */
    const std::string &directory() const { return dir_; }

    CacheStats stats() const;

  private:
    mutable std::mutex mu_;

    /**
     * Digest-keyed memory tier; accessed by .find()/operator[] only.
     * Never iterate it -- hash order is implementation-defined and
     * this unit feeds digest/serialization paths (lint rule DET-2).
     */
    std::unordered_map<uint64_t, RunResult> entries_;
    std::string dir_;
    CacheStats stats_;
};

/**
 * The process-wide cache every sweep shares by default.  Memory-only
 * unless the MCSCOPE_CACHE_DIR environment variable names a
 * directory, in which case results also persist across processes.
 */
ResultCache &processCache();

/** Serialize / parse one cache entry (exposed for tests). */
JsonValue runResultToJson(uint64_t digest, const RunResult &result);
std::optional<RunResult> parseRunResult(const JsonValue &doc,
                                        uint64_t expect_digest);

/** 16-hex-digit spelling of a digest, as used in cache file names. */
std::string digestHex(uint64_t digest);
std::optional<uint64_t> parseDigestHex(const std::string &s);

/** How to execute a plan. */
struct RunnerOptions
{
    /** Worker thread budget (core/parallel_for.hh). */
    int jobs = 1;

    /** Run under the invariant auditor; also validates cache hits. */
    bool audit = false;

    /**
     * Cache to consult; nullptr uses processCache().  Point it at a
     * local ResultCache to isolate a run (tests do).
     */
    ResultCache *cache = nullptr;

    /**
     * Execute every spec with this workload instance instead of
     * instantiating from the registry -- the legacy sweepOptions
     * path, where the caller owns a possibly non-registry-configured
     * Workload.  When its signature() is empty the cache is skipped.
     */
    const Workload *workloadOverride = nullptr;

    /** Optional per-grid-point telemetry (core/telemetry.hh). */
    SweepTelemetry *telemetry = nullptr;
};

/** What one runPlan() call did. */
struct RunnerStats
{
    uint64_t points = 0;      ///< grid points (duplicates included)
    uint64_t uniqueSpecs = 0; ///< after plan deduplication
    uint64_t memoryHits = 0;
    uint64_t diskHits = 0;
    uint64_t misses = 0;       ///< includes uncacheable specs
    uint64_t corrupt = 0;      ///< disk entries rejected this run
    uint64_t validatedHits = 0; ///< audit-mode re-simulated hits
    uint64_t simulations = 0;   ///< engine runs actually executed

    uint64_t hits() const { return memoryHits + diskHits; }

    /** Percentage of unique specs served from cache, [0, 100]. */
    double hitRate() const;

    /** One-line human summary ("N points, M unique, ... hits"). */
    std::string summary() const;
};

/** Results of one executed plan. */
struct PlanResults
{
    /** One result per plan spec (specs()[i] -> bySpec[i]). */
    std::vector<RunResult> bySpec;

    /** Wall seconds spent resolving each spec (lookup + simulate). */
    std::vector<double> specWallSeconds;

    /** Wall seconds for the whole plan (parallel section included). */
    double wallSeconds = 0.0;

    RunnerStats stats;

    /** Result behind grid point `point` of `plan`. */
    const RunResult &at(const SweepPlan &plan, size_t point) const;
};

/**
 * Execute a plan: look up or simulate every unique spec, in parallel
 * when opts.jobs > 1, with deterministic result ordering.  Fills
 * opts.telemetry (one sample per *grid point*) when non-null.
 */
PlanResults runPlan(const SweepPlan &plan, const RunnerOptions &opts);

/**
 * View an executed plan's two innermost axes as the legacy
 * (rank x option) matrix for workload/impl/sublayer coordinate
 * (w, i, s) -- the Tables 2/3/7/9/11/13/14 shape.
 *
 * @param tag  -1 reports makespan, otherwise the tagged phase time.
 * @param m    machine variant (directory-size sweep point), 0 for
 *             plans without a variant axis.
 */
OptionSweepResult optionSweepSlice(const SweepPlan &plan,
                                   const PlanResults &results, size_t w,
                                   size_t i, size_t s, int tag = -1,
                                   size_t m = 0);

} // namespace mcscope

#endif // MCSCOPE_CORE_RUNNER_HH
