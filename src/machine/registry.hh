/**
 * @file
 * Machine registry: every machine the process can simulate by name.
 *
 * The three 2006 presets (Tiger, DMZ, Longs) are built in, registered
 * from code so their definitions -- and therefore every scenario
 * digest ever minted against them -- cannot drift with a data file.
 * Additional machines ("the zoo") come from JSON definition files, one
 * machine per file, in directories named by the --machine-dir CLI flag
 * or the MCSCOPE_MACHINE_DIR environment variable.
 *
 * Name resolution rules, chosen so a spec always names its machine by
 * content:
 *  - Builtin names resolve to *preset tokens* in scenario specs, which
 *    canonicalize()/canonicalText() collapse as before.  Their digests
 *    are untouched by the registry's existence.
 *  - Zoo names resolve to *inline* MachineConfigs: a spec or sweep
 *    plan carries the full machine definition, so its digest (and so
 *    its result-cache entry) changes whenever the definition file
 *    does, and a serialized spec never needs the machine directory.
 */

#ifndef MCSCOPE_MACHINE_REGISTRY_HH
#define MCSCOPE_MACHINE_REGISTRY_HH

#include <map>
#include <string>
#include <vector>

#include "machine/config.hh"

namespace mcscope {

/** Environment variable naming an extra machine directory to load. */
constexpr const char *kMachineDirEnv = "MCSCOPE_MACHINE_DIR";

/**
 * Process-wide machine name table.  Lookups are case-insensitive;
 * iteration orders are deterministic (builtins in preset order, zoo
 * machines sorted by folded name) because listings and sweep
 * expansions feed user-visible output and digests.
 *
 * Not thread-safe for concurrent mutation; load directories up front
 * (the CLI does so while still single-threaded).
 */
class MachineRegistry
{
  public:
    /**
     * The singleton, with builtins registered and kMachineDirEnv
     * loaded (if set) on first use.  A bad definition file in the
     * environment directory is fatal(): a process that would silently
     * drop machines from a sweep must not start.
     */
    static MachineRegistry &instance();

    /**
     * Register one machine.  Returns "" on success, otherwise the
     * problem (structural nonsense per MachineConfig::check(), or a
     * name collision -- including with a builtin).
     */
    std::string registerMachine(const MachineConfig &cfg);

    /**
     * Load every *.json file in `dir` (sorted by filename), one
     * machine definition per file.  Stops at the first bad file and
     * returns "<path>: <problem>"; returns "" when all loaded.
     */
    std::string loadDirectory(const std::string &dir);

    /** Config registered under `name` (case-insensitive), or nullptr. */
    const MachineConfig *find(const std::string &name) const;

    /** True when `name` is one of the 2006 builtin presets. */
    bool isBuiltin(const std::string &name) const;

    /** Display names: builtins in preset order, then the zoo sorted. */
    std::vector<std::string> names() const;

    /** Builtin display names in preset order. */
    std::vector<std::string> builtinNames() const;

    /** Zoo (non-builtin) display names, sorted by folded name. */
    std::vector<std::string> zooNames() const;

    /**
     * Nearest registered name to `name` by edit distance, or "" when
     * nothing is close enough to be a plausible typo.
     */
    std::string suggest(const std::string &name) const;

  private:
    MachineRegistry();

    /** Folded (lower-case) name -> config; map keeps listings sorted. */
    std::map<std::string, MachineConfig> machines_;
};

} // namespace mcscope

#endif // MCSCOPE_MACHINE_REGISTRY_HH
