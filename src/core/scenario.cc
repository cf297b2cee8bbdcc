#include "core/scenario.hh"

#include <cctype>
#include <cmath>
#include <cstring>

#include "core/calibration.hh"
#include "core/registry.hh"
#include "machine/registry.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace mcscope {

namespace {

/** FNV-1a over a byte string, continuing from `h`. */
uint64_t
fnv1a(uint64_t h, const std::string &bytes)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/** Fold a double's bit pattern (not its formatting) into the hash. */
uint64_t
fnv1aDouble(uint64_t h, double v)
{
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
        h ^= (bits >> (8 * i)) & 0xffULL;
        h *= 1099511628211ULL;
    }
    return h;
}

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;

std::string
mpiImplToken(MpiImpl impl)
{
    switch (impl) {
      case MpiImpl::Mpich2: return "mpich2";
      case MpiImpl::Lam: return "lam";
      case MpiImpl::OpenMpi: return "openmpi";
    }
    MCSCOPE_PANIC("bad MpiImpl");
}

std::optional<MpiImpl>
parseMpiImplToken(const std::string &s)
{
    std::string v = toLower(s);
    if (v == "mpich2")
        return MpiImpl::Mpich2;
    if (v == "lam")
        return MpiImpl::Lam;
    if (v == "openmpi")
        return MpiImpl::OpenMpi;
    return std::nullopt;
}

std::string
subLayerToken(SubLayer layer)
{
    return layer == SubLayer::SysV ? "sysv" : "usysv";
}

std::optional<SubLayer>
parseSubLayerToken(const std::string &s)
{
    std::string v = toLower(s);
    if (v == "sysv")
        return SubLayer::SysV;
    if (v == "usysv")
        return SubLayer::USysV;
    return std::nullopt;
}

std::optional<TaskScheme>
parseTaskSchemeToken(const std::string &s)
{
    for (TaskScheme scheme :
         {TaskScheme::OsDefault, TaskScheme::OneTaskPerSocket,
          TaskScheme::TwoTasksPerSocket, TaskScheme::Spread,
          TaskScheme::Packed}) {
        if (taskSchemeName(scheme) == s)
            return scheme;
    }
    return std::nullopt;
}

std::optional<MemPolicy>
parseMemPolicyToken(const std::string &s)
{
    for (MemPolicy policy :
         {MemPolicy::Default, MemPolicy::LocalAlloc, MemPolicy::Membind,
          MemPolicy::Interleave, MemPolicy::FirstTouch,
          MemPolicy::BindAll}) {
        if (memPolicyName(policy) == s)
            return policy;
    }
    return std::nullopt;
}

/** Known machine presets, lower-case. */
const std::vector<std::string> &
presetTokens()
{
    static const std::vector<std::string> tokens = [] {
        std::vector<std::string> out;
        for (const std::string &n : presetNames())
            out.push_back(toLower(n));
        return out;
    }();
    return tokens;
}

/**
 * Per-preset canonical machine JSON (single line, sorted keys) --
 * exactly what canonicalize() compares inline machines against and
 * what canonicalText() expands.  Dumping a MachineConfig is the
 * hottest part of plan canonicalization (profile: >half of sweep
 * setup), and the presets never change after startup, so compute
 * each text once.
 */
struct PresetMachine
{
    std::string token;
    std::string canonicalJson;
};

const std::vector<PresetMachine> &
presetMachines()
{
    static const std::vector<PresetMachine> machines = [] {
        std::vector<PresetMachine> out;
        for (const std::string &token : presetTokens())
            out.push_back({token, machineConfigToJson(configByName(token))
                                      .dump(-1, true)});
        return out;
    }();
    return machines;
}

/** Set `*err` (if non-null) and return nullopt-compatible false. */
bool
setError(std::string *err, const std::string &msg)
{
    if (err)
        *err = msg;
    return false;
}

} // namespace

JsonValue
numactlOptionToJson(const NumactlOption &option)
{
    JsonValue o = JsonValue::object();
    o.set("label", JsonValue::str(option.label));
    o.set("scheme", JsonValue::str(taskSchemeName(option.scheme)));
    o.set("policy", JsonValue::str(memPolicyName(option.policy)));
    return o;
}

std::optional<NumactlOption>
parseNumactlOption(const JsonValue &doc, std::string *error)
{
    if (!doc.isObject()) {
        setError(error, "option object needs label/scheme/policy");
        return std::nullopt;
    }
    NumactlOption option;
    const JsonValue *label = doc.find("label");
    const JsonValue *scheme = doc.find("scheme");
    const JsonValue *policy = doc.find("policy");
    if (!label || !label->isString() || !scheme ||
        !scheme->isString() || !policy || !policy->isString()) {
        setError(error, "option object needs string label, scheme, "
                        "and policy");
        return std::nullopt;
    }
    option.label = label->asString();
    auto s = parseTaskSchemeToken(scheme->asString());
    if (!s) {
        setError(error, "unknown option scheme '" + scheme->asString() +
                            "' (have: os-default, one-per-socket, "
                            "two-per-socket, spread, packed)");
        return std::nullopt;
    }
    option.scheme = *s;
    auto p = parseMemPolicyToken(policy->asString());
    if (!p) {
        setError(error, "unknown option policy '" + policy->asString() +
                            "' (have: default, localalloc, membind, "
                            "interleave, first-touch, bound)");
        return std::nullopt;
    }
    option.policy = *p;
    return option;
}

std::optional<NumactlOption>
resolveOptionSpec(const std::string &spec)
{
    // Labels resolve over the full named set; numeric indices stay
    // table5-only, so "0".."5" mean exactly the paper columns forever.
    auto options = namedOptions();
    if (spec.empty())
        return std::nullopt;
    bool numeric = true;
    for (char c : spec)
        numeric = numeric && std::isdigit(static_cast<unsigned char>(c));
    if (numeric) {
        auto table5 = table5Options();
        // Reject absurd digit strings without std::stoul's throw.
        if (spec.size() > 6)
            return std::nullopt;
        size_t idx = static_cast<size_t>(std::stoul(spec));
        if (idx < table5.size())
            return table5[idx];
        return std::nullopt;
    }
    // Case-insensitive label substring, ignoring spaces and '+' so
    // "localalloc" matches "One MPI + Local Alloc".
    auto canon = [](const std::string &s) {
        std::string out;
        for (char c : s) {
            if (std::isalnum(static_cast<unsigned char>(c)))
                out.push_back(static_cast<char>(
                    std::tolower(static_cast<unsigned char>(c))));
        }
        return out;
    };
    std::string want = canon(spec);
    if (want.empty())
        return std::nullopt;
    for (const NumactlOption &o : options) {
        if (canon(o.label).find(want) != std::string::npos)
            return o;
    }
    return std::nullopt;
}

ScenarioSpec
ScenarioSpec::fromExperiment(const ExperimentConfig &config,
                             const std::string &workload_name)
{
    ScenarioSpec s;
    s.workload = workload_name;
    s.machine = config.machine;
    s.option = config.option;
    s.ranks = config.ranks;
    s.impl = config.impl;
    s.sublayer = config.sublayer;
    s.latencyNoise = config.latencyNoise;
    s.canonicalize();
    return s;
}

ExperimentConfig
ScenarioSpec::toExperiment() const
{
    ExperimentConfig cfg;
    cfg.machine = machine;
    cfg.option = option;
    cfg.ranks = ranks;
    cfg.impl = impl;
    cfg.sublayer = sublayer;
    cfg.latencyNoise = latencyNoise;
    return cfg;
}

void
ScenarioSpec::canonicalize()
{
    workload = canonicalWorkloadName(workload);
    if (!machinePreset.empty()) {
        machinePreset = toLower(machinePreset);
        machine = configByName(machinePreset);
        return;
    }
    // An inline machine that matches a preset collapses back to it,
    // so spec files that spell out Table 1 by hand dedup against
    // preset-based sweeps.
    std::string mine = machineConfigToJson(machine).dump(-1, true);
    for (const PresetMachine &preset : presetMachines()) {
        if (preset.canonicalJson == mine) {
            machinePreset = preset.token;
            machine = configByName(preset.token);
            return;
        }
    }
}

JsonValue
ScenarioSpec::toJson() const
{
    JsonValue o = JsonValue::object();
    o.set("workload", JsonValue::str(workload));
    if (!machinePreset.empty())
        o.set("machine", JsonValue::str(machinePreset));
    else
        o.set("machine", machineConfigToJson(machine));
    o.set("option", numactlOptionToJson(option));
    o.set("ranks", JsonValue::number(ranks));
    o.set("impl", JsonValue::str(mpiImplToken(impl)));
    o.set("sublayer", JsonValue::str(subLayerToken(sublayer)));
    o.set("latency_noise", JsonValue::number(latencyNoise));
    return o;
}

std::string
ScenarioSpec::canonicalText() const
{
    ScenarioSpec c = *this;
    c.canonicalize();
    JsonValue o = c.toJson();
    // The digest must move when a preset's *definition* changes, so
    // the canonical form always expands the machine inline.
    o.set("machine", machineConfigToJson(c.machine));
    return o.dump(-1, true);
}

uint64_t
calibrationDigest()
{
    static const uint64_t digest = [] {
        uint64_t h = fnv1a(kFnvOffset, kScenarioModelVersion);
        for (const CalibrationEntry &e : calibrationTable()) {
            h = fnv1a(h, e.name);
            h = fnv1a(h, e.unit);
            h = fnv1aDouble(h, e.value);
        }
        return h;
    }();
    return digest;
}

uint64_t
ScenarioSpec::digest() const
{
    ScenarioSpec c = *this;
    c.canonicalize();
    std::string signature = makeWorkload(c.workload)->signature();
    uint64_t h = fnv1a(calibrationDigest(), c.canonicalText());
    h = fnv1a(h, "|sig|");
    return fnv1a(h, signature);
}

std::optional<uint64_t>
ScenarioSpec::digestWith(const Workload &w) const
{
    std::string signature = w.signature();
    if (signature.empty())
        return std::nullopt; // not content-addressable: never cache
    uint64_t h = fnv1a(calibrationDigest(), canonicalText());
    h = fnv1a(h, "|sig|");
    return fnv1a(h, signature);
}

bool
operator==(const ScenarioSpec &a, const ScenarioSpec &b)
{
    return a.canonicalText() == b.canonicalText();
}

bool
operator!=(const ScenarioSpec &a, const ScenarioSpec &b)
{
    return !(a == b);
}

std::optional<ScenarioSpec>
parseScenarioSpec(const JsonValue &doc, std::string *error)
{
    if (!doc.isObject()) {
        setError(error, "scenario spec must be a JSON object");
        return std::nullopt;
    }
    ScenarioSpec s;
    s.machinePreset = "longs";
    bool have_workload = false;
    for (const auto &[key, v] : doc.members()) {
        if (key == "workload") {
            if (!v.isString()) {
                setError(error, "workload must be a string");
                return std::nullopt;
            }
            s.workload = v.asString();
            have_workload = true;
        } else if (key == "machine") {
            if (v.isString()) {
                std::string preset = toLower(v.asString());
                bool known = false;
                for (const std::string &p : presetTokens())
                    known = known || p == preset;
                if (known) {
                    s.machinePreset = preset;
                } else if (const MachineConfig *zoo =
                               MachineRegistry::instance().find(
                                   preset)) {
                    // Zoo machines travel inline: the spec's digest
                    // covers the definition itself, so an edited
                    // machine file never hits a stale cache entry.
                    s.machinePreset.clear();
                    s.machine = *zoo;
                } else {
                    std::vector<std::string> have;
                    for (const std::string &n :
                         MachineRegistry::instance().names())
                        have.push_back(toLower(n));
                    std::string hint =
                        MachineRegistry::instance().suggest(preset);
                    setError(error,
                             "unknown machine '" + v.asString() +
                                 "' (have: " + join(have, ", ") + ")" +
                                 (hint.empty()
                                      ? ""
                                      : "; did you mean '" +
                                            toLower(hint) + "'?"));
                    return std::nullopt;
                }
            } else {
                auto m = parseMachineConfig(v, error);
                if (!m)
                    return std::nullopt;
                s.machinePreset.clear();
                s.machine = *m;
            }
        } else if (key == "option") {
            if (v.isNumber()) {
                if (!v.isWholeNumber()) {
                    setError(error, "option index must be an integer, got " +
                                        v.dump());
                    return std::nullopt;
                }
                auto options = table5Options();
                int idx = static_cast<int>(v.asNumber());
                if (idx < 0 ||
                    static_cast<size_t>(idx) >= options.size()) {
                    setError(error,
                             "option index " + std::to_string(idx) +
                                 " out of range [0, " +
                                 std::to_string(options.size() - 1) +
                                 "]");
                    return std::nullopt;
                }
                s.option = options[static_cast<size_t>(idx)];
            } else if (v.isString()) {
                auto o = resolveOptionSpec(v.asString());
                if (!o) {
                    setError(error, "unknown option '" + v.asString() +
                                        "'");
                    return std::nullopt;
                }
                s.option = *o;
            } else {
                auto o = parseNumactlOption(v, error);
                if (!o)
                    return std::nullopt;
                s.option = *o;
            }
        } else if (key == "ranks") {
            if (!v.isWholeNumber() || v.asNumber() < 1.0) {
                setError(error, "ranks must be a positive integer, got " +
                                    v.dump());
                return std::nullopt;
            }
            s.ranks = static_cast<int>(v.asNumber());
        } else if (key == "impl") {
            if (!v.isString()) {
                setError(error, "impl must be a string");
                return std::nullopt;
            }
            auto impl = parseMpiImplToken(v.asString());
            if (!impl) {
                setError(error, "unknown impl '" + v.asString() +
                                    "' (have: mpich2, lam, openmpi)");
                return std::nullopt;
            }
            s.impl = *impl;
        } else if (key == "sublayer") {
            if (!v.isString()) {
                setError(error, "sublayer must be a string");
                return std::nullopt;
            }
            auto layer = parseSubLayerToken(v.asString());
            if (!layer) {
                setError(error, "unknown sublayer '" + v.asString() +
                                    "' (have: sysv, usysv)");
                return std::nullopt;
            }
            s.sublayer = *layer;
        } else if (key == "latency_noise") {
            if (!v.isNumber() || v.asNumber() <= 0.0) {
                setError(error,
                         "latency_noise must be a positive number");
                return std::nullopt;
            }
            s.latencyNoise = v.asNumber();
        } else {
            setError(error, "unknown scenario key '" + key + "'");
            return std::nullopt;
        }
    }
    if (!have_workload) {
        setError(error, "scenario spec needs a \"workload\"");
        return std::nullopt;
    }
    if (!knownWorkload(s.workload)) {
        std::string msg = "unknown workload '" + s.workload + "'";
        std::string hint =
            closestMatch(s.workload, registeredWorkloads());
        if (!hint.empty())
            msg += " (did you mean '" + hint + "'?)";
        setError(error, msg);
        return std::nullopt;
    }
    s.canonicalize();
    return s;
}

} // namespace mcscope
