/**
 * @file
 * The paper-reproduction suite.  Every figure, table, ablation and
 * extension of the paper is one artifact function; reproduce.cpp
 * registers them under their artifact names in paper order and runs
 * them in one process, so they share the process result cache
 * (core/runner.hh).  This header holds the helpers more than one
 * section file uses.
 */

#ifndef MCSCOPE_BENCH_REPRODUCE_HH
#define MCSCOPE_BENCH_REPRODUCE_HH

#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "machine/config.hh"

namespace mcscope {
namespace bench {

/** Print the standard banner naming the paper artifact. */
void banner(const std::string &artifact, const std::string &what,
            const std::string &expected_shape);

/** Print one labeled observation line. */
void observe(const std::string &label, const std::string &value);

/** Pinned one-rank-per-socket-then-wrap placement with local pages. */
NumactlOption pinnedSpread();

/** Pinned fill-socket-first placement with local pages. */
NumactlOption pinnedPacked();

/** Run a workload under an explicit option; fatal on invalid. */
RunResult run(const MachineConfig &machine, const NumactlOption &option,
              int ranks, const Workload &workload,
              MpiImpl impl = MpiImpl::OpenMpi,
              SubLayer sublayer = SubLayer::USysV);

/** One row group of an option-sweep table. */
struct SweepRow
{
    std::string workload; ///< registry name (core/registry.hh)
    std::string label;    ///< row label the paper uses ("CG", "FFT")
};

/**
 * Expand (workloads x ranks x Table 5 options) on one machine preset
 * as one plan, execute it through runPlan() and the process result
 * cache, and print the table with one separated row group per
 * workload -- the layout of Tables 2/3/7/9/11/13/14.
 *
 * @param tag  -1 reports makespan, otherwise the tagged phase time.
 * @return the per-workload (rank x option) slices in row order.
 */
std::vector<OptionSweepResult>
printSweep(const std::string &machine_preset,
           const std::vector<SweepRow> &rows, const std::vector<int> &ranks,
           const std::string &header_label, int tag = -1,
           int precision = 2);

/** Rank counts 1, 2, 4, ... up to the machine's core count. */
std::vector<int> scalingRanks(const MachineConfig &machine);

/** One column of a scaling table: its heading and workload. */
struct ScalingColumn
{
    std::string name;
    std::unique_ptr<Workload> workload;
};

/**
 * Print strong scaling against one core under Default placement: a
 * "<machine><title_suffix>:" line, then one row per scalingRanks()
 * count above 1 and one `width`-wide column per workload.  Cells are
 * speedups, or parallel efficiencies (speedup / cores) when
 * `efficiency` is set -- the layout of Tables 8/10 and the NPB
 * extension.
 */
void printScalingTable(const MachineConfig &machine,
                       const std::string &title_suffix,
                       const std::vector<ScalingColumn> &columns,
                       int width, bool efficiency);

// The artifacts, grouped by paper section.

// Section 3.1 micro-benchmarks (microbenchmarks.cpp).
void fig02StreamBandwidth();
void fig03StreamPerCore();
void fig04DaxpyAcml();
void fig05DaxpyVanilla();
void fig06DgemmAcml();
void fig07DgemmVanilla();

// HPC Challenge (hpcc.cpp).
void fig08HplOptions();
void fig09SingleStarKernels();
void fig10SingleStarStream();
void fig11RandomAccess();
void fig12Ptrans();

// Communication benchmarks (communication.cpp).
void fig13LatencyBandwidth();
void fig14ImbPingPong();
void fig15ImbExchange();
void fig16OpenMpiPingPongAffinity();
void fig17OpenMpiExchangeAffinity();

// NAS kernels and applications (applications.cpp).
void table02NasLongs();
void table03NasDmz();
void table04NasSpeedup();
void table07AmberFft();
void table08AmberSpeedup();
void table09JacOverall();
void table10LammpsSpeedup();
void table11LammpsOptions();
void table12PopSpeedup();
void table13PopBaroclinic();
void table14PopBarotropic();

// Ablation and extensions beyond the paper (extensions.cpp).
void ablationMechanisms();
void extHybridModel();
void extNpbSuite();
void extCommMatrix();
void extSensitivity();

} // namespace bench
} // namespace mcscope

#endif // MCSCOPE_BENCH_REPRODUCE_HH
