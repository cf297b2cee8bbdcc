/**
 * @file
 * Experiment orchestration: the paper's measurement methodology as a
 * library.  One experiment = (machine, numactl option, rank count,
 * MPI implementation, sub-layer, workload) -> simulated time and
 * per-phase breakdown.
 */

#ifndef MCSCOPE_CORE_EXPERIMENT_HH
#define MCSCOPE_CORE_EXPERIMENT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "affinity/placement.hh"
#include "core/telemetry.hh"
#include "kernels/workload.hh"
#include "machine/config.hh"
#include "simmpi/implementation.hh"
#include "simmpi/sublayer.hh"

namespace mcscope {

/** Everything that identifies one run. */
struct ExperimentConfig
{
    MachineConfig machine;
    NumactlOption option;
    int ranks = 1;
    MpiImpl impl = MpiImpl::OpenMpi;
    SubLayer sublayer = SubLayer::USysV;

    /** Latency-noise multiplier (unbound/parked studies). */
    double latencyNoise = 1.0;

    /**
     * Install a simulation invariant auditor (sim/audit.hh) for the
     * run.  Auditing also turns on for every run when the
     * MCSCOPE_AUDIT environment variable is set.
     */
    bool audit = false;

    /**
     * When positive, enable the engine's per-resource utilization
     * timeline with this bucket target before running (see
     * Engine::enableUtilizationTimeline).  Read the result through
     * runExperimentDetailedOn / gatherTimeline (core/analysis.hh).
     */
    int timelineBuckets = 0;
};

/** Result of one run. */
struct RunResult
{
    /** False when the option cannot host the rank count ("-"). */
    bool valid = false;

    /** Simulated wall time (makespan across ranks). */
    SimTime seconds = 0.0;

    /** Max-over-ranks time per phase tag. */
    std::map<int, SimTime> taggedSeconds;

    /** Engine events processed (diagnostics). */
    uint64_t events = 0;

    /** Allocator reruns solved incrementally (dirty-set closure). */
    uint64_t incrementalSolves = 0;

    /** Allocator reruns that re-solved the whole flow set. */
    uint64_t fullSolves = 0;

    /**
     * Always 0, like Engine::Stats::calqueueOps: the calendar queue is
     * gone, and the field stays only because perfbench/harness.cc
     * reads it.
     */
    uint64_t calqueueOps = 0;

    /**
     * Always 0, like Engine::Stats::calqueueResizes; kept only because
     * perfbench/harness.cc reads it.
     */
    uint64_t calqueueResizes = 0;

    /** True when the run executed under an invariant auditor. */
    bool audited = false;

    /** Order-sensitive digest of the audited event stream. */
    uint64_t auditDigest = 0;

    /** Allocator outputs validated by the auditor. */
    uint64_t auditChecks = 0;

    /** Time for one tag, 0 when absent. */
    SimTime tagged(int tag) const;
};

/** Execute one experiment. */
RunResult runExperiment(const ExperimentConfig &config,
                        const Workload &workload);

class Machine;

/**
 * Low-level variant: run on a caller-owned Machine built from
 * config.machine, so resource statistics remain readable afterwards
 * (see core/analysis.hh).  The machine must be freshly constructed.
 */
RunResult runExperimentOn(Machine &machine,
                          const ExperimentConfig &config,
                          const Workload &workload);

/**
 * A (rank count x Table 5 option) sweep on one machine -- the shape
 * of Tables 2, 3, 7, 9, 11, 13 and 14.
 */
struct OptionSweepResult
{
    std::vector<int> rankCounts;
    std::vector<NumactlOption> options;

    /** seconds[rank_index][option_index]; NaN for invalid cells. */
    std::vector<std::vector<double>> seconds;
};

/**
 * Run the full option sweep.
 *
 * Grid points are independent simulations (each builds its own
 * Machine and Engine), so they run concurrently when jobs > 1; the
 * result matrix is ordered by (rank index, option index) regardless
 * of the job count, and any worker exception is rethrown in the
 * caller.
 *
 * @param tag   -1 reports makespan; otherwise the tagged phase time
 *              (e.g. tags::kFft for the Table 7 FFT phase).
 * @param jobs  worker thread budget; <= 1 runs serially (see
 *              core/parallel_for.hh and defaultJobs()).
 * @param telemetry  optional out-param: per-grid-point wall time,
 *              event counts, and pool occupancy (core/telemetry.hh).
 */
OptionSweepResult sweepOptions(const MachineConfig &machine,
                               const std::vector<int> &rank_counts,
                               const Workload &workload,
                               MpiImpl impl = MpiImpl::OpenMpi,
                               SubLayer sublayer = SubLayer::USysV,
                               int tag = -1, int jobs = 1,
                               SweepTelemetry *telemetry = nullptr);

/**
 * Strong-scaling run times with the Default option (no numactl), the
 * shape of the speedup tables (4, 8, 10, 12).  Rank counts run
 * concurrently when jobs > 1, with deterministic result ordering.
 * When `telemetry` is non-null it is filled like sweepOptions().
 */
std::vector<double> defaultScalingTimes(const MachineConfig &machine,
                                        const std::vector<int> &rank_counts,
                                        const Workload &workload,
                                        int tag = -1, int jobs = 1,
                                        SweepTelemetry *telemetry = nullptr);

} // namespace mcscope

#endif // MCSCOPE_CORE_EXPERIMENT_HH
