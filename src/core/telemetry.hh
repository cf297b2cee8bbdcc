/**
 * @file
 * Sweep telemetry: per-grid-point wall time, simulated-event counts,
 * and worker-pool occupancy for the option/scaling sweeps.
 *
 * Every paper artifact is a grid of hundreds of simulations; when one
 * grid point is pathologically slow (a workload whose event count
 * explodes at some rank count) the final table gives no hint.  The
 * sweep runners (core/experiment.hh) fill one GridPointSample per
 * point when handed a SweepTelemetry, and the result can be printed
 * as a summary line or dumped as JSON for the bench-regression
 * tooling (tools/check_bench_regression.py reads the same
 * events-per-second notion).
 */

#ifndef MCSCOPE_CORE_TELEMETRY_HH
#define MCSCOPE_CORE_TELEMETRY_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace mcscope {

/** Measurements for one (rank count, option) grid point. */
struct GridPointSample
{
    int ranks = 0;

    /** Numactl option label, or "default" for scaling series. */
    std::string label;

    /** False for infeasible "-" cells (no simulation ran). */
    bool valid = false;

    /** Host wall time spent simulating this point, in seconds. */
    double wallSeconds = 0.0;

    /** Simulated makespan, in seconds. */
    double simSeconds = 0.0;

    /** Engine events processed (0 when cached). */
    uint64_t events = 0;

    /** Allocator reruns solved incrementally (dirty-set closure). */
    uint64_t incrementalSolves = 0;

    /** Allocator reruns that re-solved the whole flow set. */
    uint64_t fullSolves = 0;

    /**
     * True when the point ran no simulation of its own: a result-cache
     * hit, or a repeat of an earlier point of the same plan.  Its
     * events and solve counts are then 0 -- they count work done.
     */
    bool cached = false;

    /** Machine and registry workload names of the point's scenario. */
    std::string machine;
    std::string workload;
};

/** Telemetry for one whole sweep. */
struct SweepTelemetry
{
    /** Worker thread budget the sweep ran with. */
    int jobs = 1;

    /** Wall time of the whole sweep (parallel section included). */
    double wallSeconds = 0.0;

    /** One sample per grid point, in (rank, option) order. */
    std::vector<GridPointSample> points;

    /** Engine events summed over the simulated grid points. */
    uint64_t totalEvents() const;

    /** Grid points that ran no simulation (GridPointSample::cached). */
    size_t cachedPoints() const;

    /** Summed per-point wall time (serial cost of the grid). */
    double busySeconds() const;

    /**
     * Aggregate simulation throughput in engine events per second;
     * 0 for a run served entirely from cache.
     */
    double eventsPerSecond() const;

    /**
     * Worker-pool occupancy in [0, 1]: busySeconds() spread over
     * jobs * wallSeconds.  1.0 means every worker was simulating the
     * whole time; low values mean stragglers or an over-provisioned
     * --jobs.
     */
    double occupancy() const;

    /** One-line human summary. */
    std::string summary() const;

    /** Dump the full telemetry as a JSON document. */
    void writeJson(std::ostream &os) const;
};

} // namespace mcscope

#endif // MCSCOPE_CORE_TELEMETRY_HH
