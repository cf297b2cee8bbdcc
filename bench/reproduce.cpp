/**
 * @file
 * `reproduce`: regenerate the paper's figures and tables.
 *
 *   reproduce                      every artifact, in paper order
 *   reproduce table07_amber_fft    only the named artifacts
 *
 * All artifacts run in this one process and share its result cache,
 * so a grid one table already simulated (Table 9 re-reads Table 7's
 * JAC sweep) costs only memory lookups.  An unknown name is a usage
 * error (exit 2).  The full output is checked byte for byte against
 * tests/golden/paper_reproduce.txt by the paper_reproduce ctest.
 */

#include "reproduce.hh"

#include <cstdio>
#include <iostream>

#include "core/plan.hh"
#include "core/report.hh"
#include "core/runner.hh"
#include "util/table.hh"

namespace mcscope {
namespace bench {

void
banner(const std::string &artifact, const std::string &what,
       const std::string &expected_shape)
{
    std::cout << "=================================================="
                 "====================\n";
    std::cout << "mcscope reproduction of " << artifact << "\n";
    std::cout << what << "\n";
    std::cout << "Paper shape: " << expected_shape << "\n";
    std::cout << "=================================================="
                 "====================\n\n";
}

void
observe(const std::string &label, const std::string &value)
{
    std::cout << "  -> " << label << ": " << value << "\n";
}

NumactlOption
pinnedSpread()
{
    return {"spread+localalloc", TaskScheme::Spread,
            MemPolicy::LocalAlloc};
}

NumactlOption
pinnedPacked()
{
    return {"packed+localalloc", TaskScheme::Packed,
            MemPolicy::LocalAlloc};
}

RunResult
run(const MachineConfig &machine, const NumactlOption &option, int ranks,
    const Workload &workload, MpiImpl impl, SubLayer sublayer)
{
    ExperimentConfig cfg;
    cfg.machine = machine;
    cfg.option = option;
    cfg.ranks = ranks;
    cfg.impl = impl;
    cfg.sublayer = sublayer;
    return runExperiment(cfg, workload);
}

std::vector<OptionSweepResult>
printSweep(const std::string &machine_preset,
           const std::vector<SweepRow> &rows, const std::vector<int> &ranks,
           const std::string &header_label, int tag, int precision)
{
    SweepAxes axes;
    axes.machinePreset = machine_preset;
    for (const SweepRow &row : rows)
        axes.workloads.push_back(row.workload);
    axes.rankCounts = ranks;
    SweepPlan plan = SweepPlan::expand(axes);
    PlanResults results = runPlan(plan, RunnerOptions{});

    TextTable t(optionSweepHeader(header_label));
    std::vector<OptionSweepResult> slices;
    for (size_t w = 0; w < rows.size(); ++w) {
        if (w > 0)
            t.addSeparator();
        OptionSweepResult slice =
            optionSweepSlice(plan, results, w, 0, 0, tag);
        appendOptionSweepRows(t, slice, rows[w].label, precision);
        slices.push_back(std::move(slice));
    }
    t.print(std::cout);
    return slices;
}

std::vector<int>
scalingRanks(const MachineConfig &machine)
{
    std::vector<int> ranks = {1};
    for (int r = 2; r <= machine.totalCores(); r *= 2)
        ranks.push_back(r);
    return ranks;
}

void
printScalingTable(const MachineConfig &machine,
                  const std::string &title_suffix,
                  const std::vector<ScalingColumn> &columns, int width,
                  bool efficiency)
{
    std::vector<int> all = scalingRanks(machine);
    std::printf("%s%s:\n  %-7s", machine.name.c_str(),
                title_suffix.c_str(), "cores");
    for (const ScalingColumn &c : columns)
        std::printf("  %-*s", width, c.name.c_str());
    std::printf("\n");

    std::vector<std::vector<double>> cells(all.size() - 1);
    for (const ScalingColumn &c : columns) {
        std::vector<double> t =
            defaultScalingTimes(machine, all, *c.workload);
        for (size_t i = 1; i < all.size(); ++i)
            cells[i - 1].push_back(t[0] / t[i] /
                                   (efficiency ? all[i] : 1));
    }
    for (size_t i = 1; i < all.size(); ++i) {
        std::printf("  %-7d", all[i]);
        for (double v : cells[i - 1])
            std::printf("  %-*.2f", width, v);
        std::printf("\n");
    }
    std::printf("\n");
}

namespace {

struct Artifact
{
    const char *name;
    void (*run)();
};

/** Every artifact, in paper order. */
constexpr Artifact kArtifacts[] = {
    {"fig02_stream_bandwidth", fig02StreamBandwidth},
    {"fig03_stream_per_core", fig03StreamPerCore},
    {"fig04_daxpy_acml", fig04DaxpyAcml},
    {"fig05_daxpy_vanilla", fig05DaxpyVanilla},
    {"fig06_dgemm_acml", fig06DgemmAcml},
    {"fig07_dgemm_vanilla", fig07DgemmVanilla},
    {"fig08_hpl_options", fig08HplOptions},
    {"fig09_single_star_kernels", fig09SingleStarKernels},
    {"fig10_single_star_stream", fig10SingleStarStream},
    {"fig11_randomaccess", fig11RandomAccess},
    {"fig12_ptrans", fig12Ptrans},
    {"fig13_latency_bandwidth", fig13LatencyBandwidth},
    {"fig14_imb_pingpong", fig14ImbPingPong},
    {"fig15_imb_exchange", fig15ImbExchange},
    {"fig16_openmpi_pingpong_affinity", fig16OpenMpiPingPongAffinity},
    {"fig17_openmpi_exchange_affinity", fig17OpenMpiExchangeAffinity},
    {"table02_nas_longs", table02NasLongs},
    {"table03_nas_dmz", table03NasDmz},
    {"table04_nas_speedup", table04NasSpeedup},
    {"table07_amber_fft", table07AmberFft},
    {"table08_amber_speedup", table08AmberSpeedup},
    {"table09_jac_overall", table09JacOverall},
    {"table10_lammps_speedup", table10LammpsSpeedup},
    {"table11_lammps_options", table11LammpsOptions},
    {"table12_pop_speedup", table12PopSpeedup},
    {"table13_pop_baroclinic", table13PopBaroclinic},
    {"table14_pop_barotropic", table14PopBarotropic},
    {"ablation_mechanisms", ablationMechanisms},
    {"ext_hybrid_model", extHybridModel},
    {"ext_npb_suite", extNpbSuite},
    {"ext_comm_matrix", extCommMatrix},
    {"ext_sensitivity", extSensitivity},
};

const Artifact *
findArtifact(const std::string &name)
{
    for (const Artifact &a : kArtifacts) {
        if (name == a.name)
            return &a;
    }
    return nullptr;
}

} // namespace

} // namespace bench
} // namespace mcscope

int
main(int argc, char **argv)
{
    using namespace mcscope::bench;

    std::vector<const Artifact *> selected;
    for (int i = 1; i < argc; ++i) {
        const Artifact *a = findArtifact(argv[i]);
        if (!a) {
            std::cerr << "reproduce: unknown artifact '" << argv[i]
                      << "'; valid names:";
            for (const Artifact &known : kArtifacts)
                std::cerr << " " << known.name;
            std::cerr << "\n";
            return 2;
        }
        selected.push_back(a);
    }
    if (selected.empty()) {
        for (const Artifact &a : kArtifacts)
            selected.push_back(&a);
    }
    for (const Artifact *a : selected)
        a->run();
    return 0;
}
