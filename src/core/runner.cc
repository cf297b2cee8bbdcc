#include "core/runner.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <istream>
#include <iterator>
#include <limits>
#include <memory>

#include <poll.h>
#include <unistd.h>

#include "core/journal.hh"
#include "core/parallel_for.hh"
#include "core/registry.hh"
#include "sim/audit.hh"
#include "util/fdio.hh"
#include "util/logging.hh"
#include "util/str.hh"
#include "util/subprocess.hh"

namespace mcscope {

namespace {

using Clock = std::chrono::steady_clock;

/** Format stamp on shard manifests (supervisor -> worker). */
constexpr const char *kShardManifestFormat = "mcscope-shard-1";

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * A count read back from a file or a worker as uint64_t: a whole,
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
    o.set("calqueue_ops",
          JsonValue::number(static_cast<double>(result.calqueueOps)));
    o.set("calqueue_resizes",
          JsonValue::number(
              static_cast<double>(result.calqueueResizes)));
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
        // Checked parse (PARSE-1): this key comes from journal/cache
        // files and worker records, any of which can be corrupt or
        // adversarial.  std::stoi would throw std::out_of_range on a
        // huge digit string straight through --resume; a corrupt
        // entry must instead read as "not a result" so the point is
        // re-simulated.
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

    // Engine-counter fields arrived after the cache/journal format
    // shipped; absent fields (old entries) default to zero.
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
        !optionalCounter("full_solves", r.fullSolves) ||
        !optionalCounter("calqueue_ops", r.calqueueOps) ||
        !optionalCounter("calqueue_resizes", r.calqueueResizes))
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
    // worker pool.  readWholeFile() opens with O_CLOEXEC, so the
    // descriptor cannot leak into workers the supervisor forks while
    // another thread sits in this read (FD-1).
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
            sample.calqueueOps = r.calqueueOps;
            sample.calqueueResizes = r.calqueueResizes;
        }
    }
    return out;
}

std::optional<std::vector<FaultSpec>>
parseFaultPlan(const std::string &text, std::string *error)
{
    std::vector<FaultSpec> out;
    if (trim(text).empty())
        return out;
    for (const std::string &part : split(text, ',')) {
        std::string p = trim(part);
        size_t colon = p.find(':');
        if (colon == std::string::npos) {
            if (error)
                *error = "expected kind:point in '" + p + "'";
            return std::nullopt;
        }
        FaultSpec f;
        std::string kind = toLower(trim(p.substr(0, colon)));
        if (kind == "crash") {
            f.kind = FaultSpec::Kind::Crash;
        } else if (kind == "hang") {
            f.kind = FaultSpec::Kind::Hang;
        } else {
            if (error)
                *error = "unknown fault kind '" + kind +
                         "' (expected crash or hang)";
            return std::nullopt;
        }
        std::string idx = trim(p.substr(colon + 1));
        if (idx.empty() ||
            !std::all_of(idx.begin(), idx.end(), [](char c) {
                return std::isdigit(static_cast<unsigned char>(c));
            })) {
            if (error)
                *error = "bad fault point '" + idx + "'";
            return std::nullopt;
        }
        errno = 0;
        char *end = nullptr;
        unsigned long long v = std::strtoull(idx.c_str(), &end, 10);
        if (errno == ERANGE || end != idx.c_str() + idx.size()) {
            if (error)
                *error = "bad fault point '" + idx + "'";
            return std::nullopt;
        }
        f.point = v;
        out.push_back(f);
    }
    return out;
}

std::string
ShardRunStats::summary() const
{
    std::string out = std::to_string(journaled) + " from journal, " +
                      std::to_string(executed) + " executed, " +
                      std::to_string(gaps) + " gaps, " +
                      std::to_string(retries) + " retries (" +
                      std::to_string(crashes) + " crashes, " +
                      std::to_string(timeouts) + " timeouts)";
    if (workerCacheHits)
        out += ", " + std::to_string(workerCacheHits) +
               " worker cache hits";
    return out;
}

namespace {

/** Base worker respawn delay; doubles per retry of the suspect point. */
constexpr double kRetryBackoffSeconds = 0.05;

/** One decoded shard-manifest point. */
struct ManifestPoint
{
    uint64_t index = 0;
    ScenarioSpec spec;
};

/** One decoded mcscope-shard-1 manifest. */
struct ShardManifest
{
    bool audit = false;
    std::string cacheDir;
    std::vector<ManifestPoint> points;
};

/** Decode a manifest document; nullopt + `error` on any defect. */
std::optional<ShardManifest>
parseShardManifest(const JsonValue &doc, std::string *error)
{
    if (!doc.isObject()) {
        *error = "manifest is not an object";
        return std::nullopt;
    }
    const JsonValue *fmt = doc.find("format");
    if (!fmt || !fmt->isString() ||
        fmt->asString() != kShardManifestFormat) {
        *error = std::string("manifest is not ") + kShardManifestFormat;
        return std::nullopt;
    }
    ShardManifest m;
    if (const JsonValue *a = doc.find("audit"); a && a->isBool())
        m.audit = a->asBool();
    if (const JsonValue *c = doc.find("cache_dir");
        c && c->isString())
        m.cacheDir = c->asString();
    const JsonValue *points = doc.find("points");
    if (!points || !points->isArray()) {
        *error = "manifest has no points array";
        return std::nullopt;
    }
    for (const JsonValue &p : points->items()) {
        const JsonValue *idx = p.find("index");
        const JsonValue *spec_doc = p.find("spec");
        std::optional<uint64_t> index =
            idx ? storedCount(*idx) : std::nullopt;
        if (!index || !spec_doc) {
            *error = "malformed manifest point";
            return std::nullopt;
        }
        ManifestPoint pt;
        pt.index = *index;
        std::string spec_error;
        std::optional<ScenarioSpec> spec =
            parseScenarioSpec(*spec_doc, &spec_error);
        if (!spec) {
            *error = "bad spec for point " +
                     std::to_string(pt.index) + ": " + spec_error;
            return std::nullopt;
        }
        pt.spec = std::move(*spec);
        m.points.push_back(std::move(pt));
    }
    return m;
}

/**
 * Execute one manifest point (fault hooks first, cache in front
 * unless auditing) and build its record document.  May not return at
 * all when a crash/hang fault matches -- that is the point.
 */
JsonValue
executeManifestPoint(const ManifestPoint &pt, bool audit,
                     const std::vector<FaultSpec> &faults,
                     ResultCache *cache, uint64_t *cache_hits)
{
    // Deterministic fault injection: die or stall exactly when told
    // to, *before* the point's record exists, so the supervisor's
    // recovery path sees a genuinely lost point.
    for (const FaultSpec &f : faults) {
        if (f.point != pt.index)
            continue;
        if (f.kind == FaultSpec::Kind::Crash) {
            ::raise(SIGKILL);
        } else {
            for (;;)
                ::sleep(3600); // until the watchdog kills us
        }
    }

    std::unique_ptr<Workload> workload = makeWorkload(pt.spec.workload);
    std::optional<uint64_t> digest = pt.spec.digestWith(*workload);
    const Clock::time_point start = Clock::now();
    RunResult result;
    bool hit = false;
    // Audit mode always simulates (the auditor must see the run);
    // plain mode may serve the point from the shared disk cache.
    if (cache && digest && !audit) {
        if (std::optional<ResultCache::Hit> h = cache->lookup(*digest)) {
            result = h->result;
            hit = true;
            ++*cache_hits;
        }
    }
    if (!hit) {
        ExperimentConfig cfg = pt.spec.toExperiment();
        cfg.audit = audit;
        result = runExperiment(cfg, *workload);
        if (cache && digest)
            cache->store(*digest, result);
    }

    JsonValue rec = JsonValue::object();
    rec.set("index", JsonValue::number(static_cast<double>(pt.index)));
    rec.set("wall_seconds", JsonValue::number(secondsSince(start)));
    rec.set("result", runResultToJson(digest ? *digest : 0, result));
    return rec;
}

/**
 * The supervisor behind runPlanSharded() (DESIGN.md §10).  Each of
 * `opts.shards` slots runs at most one `mcscope worker` child at a
 * time.  A child receives its whole manifest on stdin at spawn,
 * answers with one JSON record line per point in manifest order plus
 * a closing done line, and exits.  A point a dead child still owed
 * goes back on the queue, and a later dispatch hands it to a fresh
 * child on whichever slot is idle.
 */
class ShardSupervisor
{
  public:
    ShardSupervisor(const SweepPlan &plan, const ShardOptions &opts)
        : plan_(plan), opts_(opts)
    {
        n_ = plan_.specs().size();
        out_.bySpec.assign(n_, RunResult{});
        out_.specWallSeconds.assign(n_, 0.0);
        out_.stats.points = plan_.pointCount();
        out_.stats.uniqueSpecs = n_;
        done_.assign(n_, false);
        retries_.assign(n_, 0);
        notBefore_.assign(n_, Clock::time_point::min());

        // Content digests drive both the journal and resume matching.
        // A spec without one (non-content-addressable workload) is
        // always executed and never journaled.
        digests_.resize(n_);
        for (size_t i = 0; i < n_; ++i) {
            std::unique_ptr<Workload> w =
                makeWorkload(plan_.specs()[i].workload);
            digests_[i] = plan_.specs()[i].digestWith(*w);
        }

        if (!opts_.resumeFrom.empty()) {
            std::unordered_map<uint64_t, RunResult> resumed =
                loadJournal(opts_.resumeFrom);
            for (size_t i = 0; i < n_; ++i) {
                if (!digests_[i])
                    continue;
                auto it = resumed.find(*digests_[i]);
                if (it == resumed.end())
                    continue;
                out_.bySpec[i] = it->second;
                done_[i] = true;
                ++doneCount_;
                ++out_.shard.journaled;
            }
        }

        // The journal is opened (and the lock taken) after the resume
        // load so resuming into the same file appends behind the
        // records just read.
        if (!opts_.journalPath.empty())
            journal_ = std::make_unique<SweepJournal>(opts_.journalPath);

        for (size_t i = 0; i < n_; ++i) {
            if (!done_[i])
                pending_.push_back(i);
        }

        exe_ = opts_.workerExe.empty() ? selfExecutablePath()
                                       : opts_.workerExe;
        slots_.resize(static_cast<size_t>(std::max(1, opts_.shards)));
        planStart_ = Clock::now();
    }

    PlanResults run(SweepTelemetry *telemetry)
    {
        // Keep polling past the last point until every child has
        // exited, so its done line (worker cache hits) is counted and
        // no process outlives the sweep.
        while (doneCount_ < n_ || anyRunning())
            pollOnce();
        out_.wallSeconds = secondsSince(planStart_);

        for (size_t i = 0; i < n_; ++i)
            MCSCOPE_ASSERT(done_[i], "sharded run left spec ", i,
                           " unresolved");

        out_.stats.misses = out_.shard.executed;
        out_.stats.simulations =
            out_.shard.executed -
            std::min(out_.shard.executed, out_.shard.workerCacheHits);

        if (telemetry)
            fillTelemetry(*telemetry);
        return std::move(out_);
    }

  private:
    /** One worker slot and the child it currently runs, if any. */
    struct Slot
    {
        std::unique_ptr<Subprocess> proc; ///< running child, else null
        std::string lines;       ///< stdout bytes not yet a full line
        std::deque<size_t> owed; ///< spec indices assigned, in order
        bool broken = false;     ///< protocol violation; kill it
        bool timedOut = false;
        bool died = false; ///< last child died; next launch respawns
        Clock::time_point lastProgress;
        uint64_t points = 0;
        double busySeconds = 0.0;
        uint64_t respawns = 0;
    };

    bool anyRunning() const
    {
        for (const Slot &s : slots_) {
            if (s.proc)
                return true;
        }
        return false;
    }

    std::string buildManifest(const std::deque<size_t> &queue) const
    {
        JsonValue doc = JsonValue::object();
        doc.set("format", JsonValue::str(kShardManifestFormat));
        doc.set("audit", JsonValue::boolean(opts_.audit));
        if (!opts_.cacheDir.empty())
            doc.set("cache_dir", JsonValue::str(opts_.cacheDir));
        JsonValue pts = JsonValue::array();
        for (size_t i : queue) {
            JsonValue p = JsonValue::object();
            p.set("index", JsonValue::number(static_cast<double>(i)));
            p.set("spec", plan_.specs()[i].toJson());
            pts.append(std::move(p));
        }
        doc.set("points", std::move(pts));
        return doc.dump();
    }

    void spawn(Slot &s, std::deque<size_t> points)
    {
        s.proc = std::make_unique<Subprocess>(
            std::vector<std::string>{exe_, "worker"},
            buildManifest(points));
        s.owed = std::move(points);
        s.lastProgress = Clock::now();
        if (s.died) {
            ++s.respawns;
            s.died = false;
        }
    }

    /**
     * Pull up to `want` backoff-eligible points off the pending
     * queue, preserving order; gated points rotate to the back so an
     * idle slot never stalls behind a cooling-down suspect.
     */
    std::deque<size_t> takeEligible(size_t want, Clock::time_point now)
    {
        std::deque<size_t> got;
        size_t scanned = 0;
        const size_t limit = pending_.size();
        while (got.size() < want && scanned < limit &&
               !pending_.empty()) {
            ++scanned;
            size_t i = pending_.front();
            pending_.pop_front();
            if (notBefore_[i] > now)
                pending_.push_back(i); // still cooling down
            else
                got.push_back(i);
        }
        return got;
    }

    /** Split eligible pending points across idle slots and spawn. */
    void dispatch(Clock::time_point now)
    {
        std::vector<Slot *> idle;
        for (Slot &s : slots_) {
            if (!s.proc)
                idle.push_back(&s);
        }
        for (size_t k = 0; k < idle.size() && !pending_.empty(); ++k) {
            const size_t share = idle.size() - k;
            const size_t want = (pending_.size() + share - 1) / share;
            std::deque<size_t> points = takeEligible(want, now);
            if (points.empty())
                break; // everything left is cooling down
            spawn(*idle[k], std::move(points));
        }
    }

    void handleRecord(Slot &s, const JsonValue &doc)
    {
        const JsonValue *idx = doc.find("index");
        const JsonValue *res = doc.find("result");
        std::optional<uint64_t> index =
            idx ? storedCount(*idx) : std::nullopt;
        if (!index || *index >= n_ || !res) {
            warn("supervisor: malformed worker record ignored");
            return;
        }
        const size_t i = static_cast<size_t>(*index);
        if (done_[i]) {
            warn("supervisor: unexpected record for spec ", i);
            return;
        }
        std::optional<RunResult> r =
            parseRunResult(*res, digests_[i] ? *digests_[i] : 0);
        if (!r) {
            // Ignored, so the point stays owed; the child's exit will
            // trigger the retry path.
            warn("supervisor: corrupt record for spec ", i,
                 "; the point will be retried");
            return;
        }
        auto it = std::find(s.owed.begin(), s.owed.end(), i);
        if (it == s.owed.end()) {
            warn("supervisor: record for spec ", i,
                 " from the wrong worker ignored");
            return;
        }
        s.owed.erase(it);
        done_[i] = true;
        ++doneCount_;
        out_.bySpec[i] = *r;
        double wall = 0.0;
        if (const JsonValue *w = doc.find("wall_seconds");
            w && w->isNumber() && validSeconds(w->asNumber()))
            wall = w->asNumber();
        out_.specWallSeconds[i] = wall;
        s.busySeconds += wall;
        ++s.points;
        s.lastProgress = Clock::now();
        ++out_.shard.executed;
        // Write-ahead guarantee: the record is durable before the
        // sweep counts the point as complete.
        if (journal_ && digests_[i])
            journal_->append(*digests_[i], *r);
    }

    void handleLine(Slot &s, const std::string &line)
    {
        std::optional<JsonValue> doc = parseJson(line);
        if (!doc || !doc->isObject()) {
            warn("supervisor: unparseable worker record ignored");
            return;
        }
        if (!doc->find("done")) {
            handleRecord(s, *doc);
            return;
        }
        if (const JsonValue *h = doc->find("cache_hits")) {
            if (std::optional<uint64_t> hits = storedCount(*h))
                out_.shard.workerCacheHits += *hits;
        }
        if (!s.owed.empty()) {
            // A done line with points still owed means the worker
            // skipped work; treat it like a death so the points are
            // requeued with retry accounting.
            warn("supervisor: worker finished a manifest with ",
                 s.owed.size(), " point(s) still owed");
            s.broken = true;
        }
    }

    /** Consume readable stdout; false once the child closed it. */
    bool drain(Slot &s)
    {
        const bool open = s.proc->readAvailable(s.lines);
        size_t start = 0;
        size_t nl = 0;
        while (!s.broken &&
               (nl = s.lines.find('\n', start)) != std::string::npos) {
            handleLine(s, s.lines.substr(start, nl - start));
            start = nl + 1;
        }
        s.lines.erase(0, start);
        return open;
    }

    /**
     * The slot's child is gone or must go: reap it and decide between
     * finished, retry and gap for what it still owed.  Workers emit
     * records strictly in manifest order, so the first still-owed
     * point is the one that took it down.
     */
    void settle(Slot &s, Clock::time_point now)
    {
        if (s.broken || s.timedOut)
            s.proc->kill();
        s.proc->wait();
        const bool clean = !s.broken && !s.timedOut &&
                           s.proc->exitCode() == 0;
        const bool timed_out = s.timedOut;
        s.proc.reset();
        s.lines.clear();
        s.broken = s.timedOut = false;
        if (clean && s.owed.empty())
            return;
        s.died = true;
        ++out_.shard.crashes;
        // A worker can die uncleanly after delivering its last record
        // (e.g. SIGKILL between the final write and exit, or a
        // post-timeout salvage read draining the pipe); with no point
        // still owed there is nothing to retry.
        if (s.owed.empty())
            return;
        if (timed_out)
            ++out_.shard.timeouts;
        const size_t suspect = s.owed.front();
        ++retries_[suspect];
        if (retries_[suspect] > opts_.maxRetries) {
            warn("point ", suspect, " (",
                 plan_.specs()[suspect].canonicalText(), ") ",
                 timed_out ? "hung" : "crashed", " its worker ",
                 retries_[suspect],
                 " time(s); recording a gap and moving on");
            s.owed.pop_front();
            done_[suspect] = true; // stays an invalid RunResult
            ++doneCount_;
            ++out_.shard.gaps;
        } else {
            ++out_.shard.retries;
            const double delay =
                kRetryBackoffSeconds *
                static_cast<double>(
                    1u << std::min(retries_[suspect] - 1, 6));
            notBefore_[suspect] =
                now + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(delay));
        }
        // Requeue in front, preserving manifest order, so the suspect
        // (if retried) and its followers run next.
        for (auto it = s.owed.rbegin(); it != s.owed.rend(); ++it)
            pending_.push_front(*it);
        s.owed.clear();
    }

    /** True when a busy child has made no progress for too long. */
    bool stalled(const Slot &s, Clock::time_point now) const
    {
        return opts_.pointTimeoutSeconds > 0.0 &&
               std::chrono::duration<double>(now - s.lastProgress)
                       .count() > opts_.pointTimeoutSeconds;
    }

    /**
     * One supervisor iteration: spawn children for eligible work,
     * poll their stdout (bounded by the nearest watchdog or backoff
     * deadline), consume records, and settle children that exited,
     * broke protocol or hung.
     */
    void pollOnce()
    {
        Clock::time_point now = Clock::now();
        dispatch(now);

        std::vector<struct pollfd> fds;
        for (const Slot &s : slots_) {
            if (s.proc && s.proc->outFd() >= 0)
                fds.push_back({s.proc->outFd(), POLLIN, 0});
        }
        // Wake early enough for the nearest watchdog or backoff
        // deadline; 200 ms bounds the idle re-check either way.
        int timeout_ms = 200;
        auto considerDeadline = [&](Clock::time_point when) {
            double ms =
                std::chrono::duration<double, std::milli>(when - now)
                    .count();
            timeout_ms = std::max(
                1, std::min(timeout_ms, static_cast<int>(ms) + 1));
        };
        for (const Slot &s : slots_) {
            if (s.proc && opts_.pointTimeoutSeconds > 0.0) {
                considerDeadline(
                    s.lastProgress +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            opts_.pointTimeoutSeconds)));
            }
        }
        for (size_t i : pending_) {
            if (notBefore_[i] > now)
                considerDeadline(notBefore_[i]);
        }
        ::poll(fds.empty() ? nullptr : fds.data(), fds.size(),
               timeout_ms);

        now = Clock::now();
        for (Slot &s : slots_) {
            if (!s.proc)
                continue;
            const bool open = drain(s);
            if (!s.broken && open && stalled(s, now)) {
                // Hung: kill, salvage already-sent records, then
                // settle like any other death.
                s.timedOut = true;
                s.proc->kill();
                drain(s);
            }
            if (s.broken || s.timedOut || !open)
                settle(s, now);
        }
    }

    void fillTelemetry(SweepTelemetry &telemetry) const
    {
        telemetry.jobs = static_cast<int>(slots_.size());
        telemetry.wallSeconds = out_.wallSeconds;
        telemetry.journaled = out_.shard.journaled;
        telemetry.retries = out_.shard.retries;
        telemetry.gaps = out_.shard.gaps;
        telemetry.points.assign(plan_.pointCount(), {});
        for (size_t p = 0; p < plan_.pointCount(); ++p) {
            const size_t si = plan_.specIndex(p);
            const ScenarioSpec &spec = plan_.specs()[si];
            const RunResult &r = out_.bySpec[si];
            GridPointSample &sample = telemetry.points[p];
            sample.ranks = spec.ranks;
            sample.label = spec.option.label;
            sample.valid = r.valid;
            sample.wallSeconds = out_.specWallSeconds[si];
            sample.simSeconds = r.valid ? r.seconds : 0.0;
            sample.events = r.events;
            sample.incrementalSolves = r.incrementalSolves;
            sample.fullSolves = r.fullSolves;
            sample.calqueueOps = r.calqueueOps;
            sample.calqueueResizes = r.calqueueResizes;
        }
        telemetry.shards.clear();
        for (size_t k = 0; k < slots_.size(); ++k) {
            ShardSample sample;
            sample.shard = static_cast<int>(k);
            sample.points = slots_[k].points;
            sample.busySeconds = slots_[k].busySeconds;
            sample.respawns = slots_[k].respawns;
            telemetry.shards.push_back(sample);
        }
    }

    const SweepPlan &plan_;
    const ShardOptions opts_;
    size_t n_ = 0;
    size_t doneCount_ = 0;
    PlanResults out_;
    std::vector<std::optional<uint64_t>> digests_;
    std::vector<bool> done_;
    std::vector<int> retries_;
    std::vector<Clock::time_point> notBefore_; ///< per-point backoff gate
    std::deque<size_t> pending_; ///< not done, not assigned
    std::string exe_;
    Clock::time_point planStart_;
    std::unique_ptr<SweepJournal> journal_;
    std::vector<Slot> slots_;
};

} // namespace

int
runShardWorker(std::istream &in, std::ostream &out)
{
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::string error;
    std::optional<JsonValue> doc = parseJson(text, &error);
    std::optional<ShardManifest> manifest;
    if (doc)
        manifest = parseShardManifest(*doc, &error);
    if (!manifest) {
        warn("worker: malformed shard manifest: ", error);
        return 2;
    }
    std::vector<FaultSpec> faults;
    if (const char *env = std::getenv("MCSCOPE_FAULT_INJECT")) {
        std::optional<std::vector<FaultSpec>> parsed =
            parseFaultPlan(env, &error);
        if (!parsed) {
            warn("worker: bad MCSCOPE_FAULT_INJECT: ", error);
            return 2;
        }
        faults = std::move(*parsed);
    }
    std::unique_ptr<ResultCache> cache;
    if (!manifest->cacheDir.empty())
        cache = std::make_unique<ResultCache>(manifest->cacheDir);
    uint64_t cache_hits = 0;
    for (const ManifestPoint &pt : manifest->points) {
        out << executeManifestPoint(pt, manifest->audit, faults,
                                    cache.get(), &cache_hits)
                   .dump()
            << "\n";
        out.flush();
    }
    JsonValue done = JsonValue::object();
    done.set("done", JsonValue::boolean(true));
    done.set("cache_hits",
             JsonValue::number(static_cast<double>(cache_hits)));
    out << done.dump() << "\n";
    out.flush();
    return 0;
}

PlanResults
runPlanSharded(const SweepPlan &plan, const ShardOptions &opts,
               SweepTelemetry *telemetry)
{
    return ShardSupervisor(plan, opts).run(telemetry);
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
