#include "core/runner.hh"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>

#include "core/parallel_for.hh"
#include "core/registry.hh"
#include "sim/audit.hh"
#include "util/fdio.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace mcscope {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * A count read back from a cache entry as uint64_t: a whole,
 * non-negative number below 2^64.  Anything else (negative,
 * fractional, NaN, infinite or too large) is corrupt input, and
 * casting it would be undefined behaviour.
 */
std::optional<uint64_t>
storedCount(const JsonValue &v)
{
    if (!v.isNumber())
        return std::nullopt;
    const double d = v.asNumber();
    if (!(d >= 0.0 && d < 18446744073709551616.0) || std::floor(d) != d)
        return std::nullopt;
    return static_cast<uint64_t>(d);
}

/** A stored phase or run time: finite and non-negative. */
bool
validSeconds(double s)
{
    return std::isfinite(s) && s >= 0.0;
}

} // namespace

std::string
digestHex(uint64_t digest)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

std::optional<uint64_t>
parseDigestHex(const std::string &s)
{
    if (s.size() != 16)
        return std::nullopt;
    uint64_t v = 0;
    for (char c : s) {
        v <<= 4;
        if (c >= '0' && c <= '9')
            v |= static_cast<uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            v |= static_cast<uint64_t>(c - 'a' + 10);
        else
            return std::nullopt;
    }
    return v;
}

JsonValue
runResultToJson(uint64_t digest, const RunResult &result)
{
    JsonValue o = JsonValue::object();
    o.set("digest", JsonValue::str(digestHex(digest)));
    o.set("model_version", JsonValue::str(kScenarioModelVersion));
    o.set("valid", JsonValue::boolean(result.valid));
    o.set("seconds", JsonValue::number(result.seconds));
    JsonValue tagged = JsonValue::object();
    for (const auto &[tag, t] : result.taggedSeconds)
        tagged.set(std::to_string(tag), JsonValue::number(t));
    o.set("tagged", std::move(tagged));
    o.set("events",
          JsonValue::number(static_cast<double>(result.events)));
    o.set("incremental_solves",
          JsonValue::number(
              static_cast<double>(result.incrementalSolves)));
    o.set("full_solves",
          JsonValue::number(static_cast<double>(result.fullSolves)));
    o.set("audited", JsonValue::boolean(result.audited));
    if (result.audited) {
        o.set("audit_digest",
              JsonValue::str(digestHex(result.auditDigest)));
        o.set("audit_checks",
              JsonValue::number(
                  static_cast<double>(result.auditChecks)));
    }
    return o;
}

std::optional<RunResult>
parseRunResult(const JsonValue &doc, uint64_t expect_digest)
{
    if (!doc.isObject())
        return std::nullopt;
    const JsonValue *digest = doc.find("digest");
    if (!digest || !digest->isString())
        return std::nullopt;
    // The content address is the integrity check: an entry claiming a
    // different digest than the one we asked for is stale or
    // misfiled, never trustworthy.
    std::optional<uint64_t> d = parseDigestHex(digest->asString());
    if (!d || *d != expect_digest)
        return std::nullopt;

    const JsonValue *valid = doc.find("valid");
    const JsonValue *seconds = doc.find("seconds");
    const JsonValue *tagged = doc.find("tagged");
    const JsonValue *events = doc.find("events");
    if (!valid || !valid->isBool() || !seconds ||
        !seconds->isNumber() || !tagged || !tagged->isObject() ||
        !events)
        return std::nullopt;

    RunResult r;
    r.valid = valid->asBool();
    r.seconds = seconds->asNumber();
    if (!validSeconds(r.seconds))
        return std::nullopt;
    for (const auto &[key, v] : tagged->members()) {
        if (!v.isNumber() || !validSeconds(v.asNumber()) || key.empty())
            return std::nullopt;
        for (char c : key) {
            if (!std::isdigit(static_cast<unsigned char>(c)))
                return std::nullopt;
        }
        // Checked parse (PARSE-1): this key comes from a cache file,
        // which can be corrupt or adversarial.  std::stoi would throw
        // std::out_of_range on a huge digit string straight through a
        // cache lookup; a corrupt entry must instead read as "not a
        // result" so the point is re-simulated.
        errno = 0;
        char *end = nullptr;
        long tag = std::strtol(key.c_str(), &end, 10);
        if (errno == ERANGE || end != key.c_str() + key.size() ||
            tag > std::numeric_limits<int>::max())
            return std::nullopt;
        r.taggedSeconds[static_cast<int>(tag)] = v.asNumber();
    }
    std::optional<uint64_t> ev = storedCount(*events);
    if (!ev)
        return std::nullopt;
    r.events = *ev;

    // Engine-counter fields arrived after the cache entry format
    // shipped; absent fields (old entries) default to zero.  Keys
    // this reader does not know, such as the calqueue_ops and
    // calqueue_resizes that older writers stored, are ignored.
    auto optionalCounter = [&doc](const char *key,
                                  uint64_t &out) -> bool {
        const JsonValue *v = doc.find(key);
        if (!v)
            return true;
        std::optional<uint64_t> count = storedCount(*v);
        if (!count)
            return false;
        out = *count;
        return true;
    };
    if (!optionalCounter("incremental_solves", r.incrementalSolves) ||
        !optionalCounter("full_solves", r.fullSolves))
        return std::nullopt;

    if (const JsonValue *audited = doc.find("audited")) {
        if (!audited->isBool())
            return std::nullopt;
        r.audited = audited->asBool();
    }
    if (r.audited) {
        const JsonValue *ad = doc.find("audit_digest");
        const JsonValue *ac = doc.find("audit_checks");
        if (!ad || !ad->isString() || !ac)
            return std::nullopt;
        std::optional<uint64_t> adv = parseDigestHex(ad->asString());
        std::optional<uint64_t> checks = storedCount(*ac);
        if (!adv || !checks)
            return std::nullopt;
        r.auditDigest = *adv;
        r.auditChecks = *checks;
    }
    return r;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    MCSCOPE_ASSERT(!dir_.empty(), "disk cache needs a directory");
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        fatal("cannot create cache directory '", dir_,
              "': ", ec.message());
    }
}

std::optional<ResultCache::Hit>
ResultCache::lookup(uint64_t digest)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(digest);
        if (it != entries_.end()) {
            ++stats_.memoryHits;
            return Hit{it->second, false};
        }
        if (dir_.empty()) {
            ++stats_.misses;
            return std::nullopt;
        }
    }

    // Disk probe outside the lock: file I/O must not serialize the
    // worker pool.  readWholeFile() opens with O_CLOEXEC (FD-1).
    std::string path = dir_ + "/" + digestHex(digest) + ".json";
    std::string text;
    if (!readWholeFile(path, text)) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.misses;
        return std::nullopt;
    }
    std::optional<RunResult> r;
    if (std::optional<JsonValue> doc = parseJson(text))
        r = parseRunResult(*doc, digest);
    std::lock_guard<std::mutex> lock(mu_);
    if (!r) {
        warn("cache entry ", path,
             " is corrupt or stale; re-simulating");
        ++stats_.corrupt;
        ++stats_.misses;
        return std::nullopt;
    }
    entries_.emplace(digest, *r);
    ++stats_.diskHits;
    return Hit{*r, true};
}

void
ResultCache::store(uint64_t digest, const RunResult &result)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        entries_[digest] = result;
        ++stats_.stores;
    }
    if (dir_.empty())
        return;
    // Atomic replace-by-rename keeps concurrent readers (and
    // concurrent writers, in-process or cross-process) from ever
    // seeing a torn file.  writeFileAtomic() draws a unique mkostemp
    // temp per call -- the old shared ".tmp.<pid>" path let two
    // threads storing the same digest interleave writes -- and its
    // descriptor carries O_CLOEXEC (FD-1).
    std::string final_path = dir_ + "/" + digestHex(digest) + ".json";
    std::string payload = runResultToJson(digest, result).dump(2);
    payload += "\n";
    if (!writeFileAtomic(final_path, payload)) {
        warn("cannot publish cache entry ", final_path, ": ",
             std::strerror(errno));
    }
}

CacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

ResultCache &
processCache()
{
    // Leaked singleton: sweeps may run during static destruction of
    // test fixtures, so the cache must outlive everything.
    static ResultCache *cache = [] {
        const char *dir = std::getenv("MCSCOPE_CACHE_DIR");
        if (dir && *dir)
            return new ResultCache(dir);
        return new ResultCache();
    }();
    return *cache;
}

double
RunnerStats::hitRate() const
{
    if (uniqueSpecs == 0)
        return 0.0;
    return 100.0 * static_cast<double>(hits()) /
           static_cast<double>(uniqueSpecs);
}

std::string
RunnerStats::summary() const
{
    std::string out = std::to_string(points) + " points (" +
                      std::to_string(uniqueSpecs) + " unique): " +
                      std::to_string(hits()) + " hits (" +
                      std::to_string(memoryHits) + " memory + " +
                      std::to_string(diskHits) + " disk), " +
                      std::to_string(misses) + " misses, " +
                      std::to_string(simulations) + " simulations, " +
                      formatFixed(hitRate(), 0) + "% cached";
    if (corrupt)
        out += ", " + std::to_string(corrupt) +
               " corrupt entries re-simulated";
    if (validatedHits)
        out += ", " + std::to_string(validatedHits) +
               " hits audit-validated";
    return out;
}

const RunResult &
PlanResults::at(const SweepPlan &plan, size_t point) const
{
    return bySpec[plan.specIndex(point)];
}

PlanResults
runPlan(const SweepPlan &plan, const RunnerOptions &opts)
{
    ResultCache &cache = opts.cache ? *opts.cache : processCache();
    const bool audit_active = opts.audit || auditRequestedByEnv();
    const size_t n = plan.specs().size();

    PlanResults out;
    out.bySpec.assign(n, RunResult{});
    out.specWallSeconds.assign(n, 0.0);
    out.stats.points = plan.pointCount();
    out.stats.uniqueSpecs = n;

    std::atomic<uint64_t> memory_hits{0}, disk_hits{0}, misses{0},
        validated{0}, simulations{0};
    const CacheStats cache_before = cache.stats();

    const Clock::time_point plan_start = Clock::now();
    parallelFor(n, opts.jobs, [&](size_t i) {
        const ScenarioSpec &spec = plan.specs()[i];
        const Clock::time_point spec_start = Clock::now();

        std::unique_ptr<Workload> owned;
        const Workload *workload = opts.workloadOverride;
        if (!workload) {
            owned = makeWorkload(spec.workload);
            workload = owned.get();
        }
        std::optional<uint64_t> digest = spec.digestWith(*workload);
        const bool cacheable = digest.has_value() && !opts.noCache;

        std::optional<ResultCache::Hit> hit;
        if (cacheable)
            hit = cache.lookup(*digest);

        if (hit && !audit_active) {
            if (hit->fromDisk)
                ++disk_hits;
            else
                ++memory_hits;
            out.bySpec[i] = hit->result;
        } else {
            ExperimentConfig cfg = spec.toExperiment();
            cfg.audit = opts.audit;
            RunResult fresh = runExperiment(cfg, *workload);
            ++simulations;
            if (hit) {
                // Audit mode validates every hit end-to-end: the
                // cached numbers must equal a fresh simulation's.
                if (hit->fromDisk)
                    ++disk_hits;
                else
                    ++memory_hits;
                ++validated;
                MCSCOPE_ASSERT(
                    hit->result.valid == fresh.valid &&
                        hit->result.seconds == fresh.seconds,
                    "cache entry disagrees with fresh simulation for ",
                    spec.canonicalText(), ": cached ",
                    hit->result.seconds, " s vs fresh ", fresh.seconds,
                    " s");
                MCSCOPE_ASSERT(
                    !(hit->result.audited && fresh.audited) ||
                        hit->result.auditDigest == fresh.auditDigest,
                    "cached audit digest ",
                    digestHex(hit->result.auditDigest),
                    " != fresh audit digest ",
                    digestHex(fresh.auditDigest), " for ",
                    spec.canonicalText());
            } else {
                ++misses;
            }
            if (cacheable)
                cache.store(*digest, fresh);
            out.bySpec[i] = fresh;
        }
        out.specWallSeconds[i] = secondsSince(spec_start);
    });
    out.wallSeconds = secondsSince(plan_start);

    out.stats.memoryHits = memory_hits.load();
    out.stats.diskHits = disk_hits.load();
    out.stats.misses = misses.load();
    out.stats.validatedHits = validated.load();
    out.stats.simulations = simulations.load();
    out.stats.corrupt = cache.stats().corrupt - cache_before.corrupt;

    if (SweepTelemetry *telemetry = opts.telemetry) {
        telemetry->jobs = opts.jobs < 1 ? 1 : opts.jobs;
        telemetry->wallSeconds = out.wallSeconds;
        telemetry->points.assign(plan.pointCount(), {});
        for (size_t p = 0; p < plan.pointCount(); ++p) {
            const size_t si = plan.specIndex(p);
            const ScenarioSpec &spec = plan.specs()[si];
            const RunResult &r = out.bySpec[si];
            GridPointSample &sample = telemetry->points[p];
            sample.ranks = spec.ranks;
            sample.label = spec.option.label;
            sample.valid = r.valid;
            sample.wallSeconds = out.specWallSeconds[si];
            sample.simSeconds = r.valid ? r.seconds : 0.0;
            sample.events = r.events;
            sample.incrementalSolves = r.incrementalSolves;
            sample.fullSolves = r.fullSolves;
        }
    }
    return out;
}

OptionSweepResult
optionSweepSlice(const SweepPlan &plan, const PlanResults &results,
                 size_t w, size_t i, size_t s, int tag, size_t m)
{
    MCSCOPE_ASSERT(plan.hasAxes(),
                   "optionSweepSlice needs an axes-based plan");
    const SweepAxes &axes = plan.axes();
    OptionSweepResult out;
    out.rankCounts = axes.rankCounts;
    out.options = axes.options;
    out.seconds.assign(
        axes.rankCounts.size(),
        std::vector<double>(axes.options.size(), 0.0));
    for (size_t r = 0; r < axes.rankCounts.size(); ++r) {
        for (size_t o = 0; o < axes.options.size(); ++o) {
            const RunResult &res =
                results.at(plan, plan.pointIndex(w, i, s, r, o, m));
            if (!res.valid) {
                out.seconds[r][o] =
                    std::numeric_limits<double>::quiet_NaN();
            } else {
                out.seconds[r][o] =
                    tag < 0 ? res.seconds : res.tagged(tag);
            }
        }
    }
    return out;
}

} // namespace mcscope
