/**
 * @file
 * HPC Challenge on Longs under the LAM/NUMA runtime options: HPL
 * (Figure 8), Single vs Star DGEMM/FFT and STREAM (Figures 9-10),
 * RandomAccess (Figure 11) and PTRANS (Figure 12).
 */

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <vector>

#include "core/plan.hh"
#include "core/runner.hh"
#include "kernels/blas3.hh"
#include "kernels/fft.hh"
#include "kernels/hpl.hh"
#include "kernels/ptrans.hh"
#include "kernels/randomaccess.hh"
#include "kernels/stream.hh"
#include "reproduce.hh"
#include "util/str.hh"

namespace mcscope {
namespace bench {

namespace {

/**
 * One LAM/NUMA runtime configuration: a placement option paired with
 * an MPI sub-layer.  LAM's default sub-layer is the SysV semaphore,
 * which Figures 8 and 12 spell out in their row labels.
 */
struct Combo
{
    const char *label;         ///< Figures 9-11 row label
    const char *sublayerLabel; ///< Figures 8/12 row label
    NumactlOption option;
    SubLayer sublayer;

    /** The bare "sysv" row, which only Figures 8 and 11 plot. */
    bool bareSysv() const { return std::string_view(label) == "sysv"; }
};

const Combo kCombos[] = {
    {"default", "default (sysv)",
     {"default", TaskScheme::OsDefault, MemPolicy::Default},
     SubLayer::SysV},
    {"sysv", "sysv",
     {"sysv", TaskScheme::OsDefault, MemPolicy::Default},
     SubLayer::SysV},
    {"usysv", "usysv",
     {"usysv", TaskScheme::OsDefault, MemPolicy::Default},
     SubLayer::USysV},
    {"localalloc", "localalloc (sysv)",
     {"localalloc", TaskScheme::TwoTasksPerSocket, MemPolicy::LocalAlloc},
     SubLayer::SysV},
    {"localalloc+usysv", "localalloc+usysv",
     {"localalloc+usysv", TaskScheme::TwoTasksPerSocket,
      MemPolicy::LocalAlloc},
     SubLayer::USysV},
    {"interleave", "interleave (sysv)",
     {"interleave", TaskScheme::OsDefault, MemPolicy::Interleave},
     SubLayer::SysV},
};

/** The Single (one-rank) counterpart of a 16-rank Star option. */
NumactlOption
singleOption(const NumactlOption &star)
{
    NumactlOption single = star;
    if (single.scheme == TaskScheme::TwoTasksPerSocket)
        single.scheme = TaskScheme::Packed;
    return single;
}

/** Run on Longs under LAM with the combo: Single at 1 rank, else Star. */
RunResult
runCombo(const Combo &c, int ranks, const Workload &workload)
{
    return run(longsConfig(),
               ranks == 1 ? singleOption(c.option) : c.option, ranks,
               workload, MpiImpl::Lam, c.sublayer);
}

} // namespace

/** Figure 8: HPL on Longs across placement x LAM sub-layer. */
void
fig08HplOptions()
{
    banner("Figure 8 (HPL with LAM/NUMA options)",
           "HPL GFlop/s on Longs (16 cores) across placement and MPI "
           "sub-layer combinations; DMZ (4 cores) reference",
           "usysv combinations lead; the sub-layer choice matters "
           "more than localalloc vs interleave");

    HplWorkload hpl(16000, 160);
    double best = 0.0, worst = 1e300;
    std::printf("Longs, 16 cores:\n");
    for (const Combo &c : kCombos) {
        double gf = hpl.totalFlops() / runCombo(c, 16, hpl).seconds / 1e9;
        best = std::max(best, gf);
        worst = std::min(worst, gf);
        std::printf("  %-20s %8.2f GFlop/s\n", c.sublayerLabel, gf);
    }

    HplWorkload hpl_dmz(8000, 160);
    RunResult rd = run(dmzConfig(), kCombos[0].option, 4, hpl_dmz,
                       MpiImpl::Lam, SubLayer::USysV);
    std::printf("\nDMZ, 4 cores:\n  %-20s %8.2f GFlop/s\n", "default",
                hpl_dmz.totalFlops() / rd.seconds / 1e9);

    std::printf("\n");
    observe("best/worst combo ratio on Longs",
            formatFixed(best / worst, 2));
}

/** Figure 9: Single vs Star DGEMM and FFT across options. */
void
fig09SingleStarKernels()
{
    banner("Figure 9 (Single/Star DGEMM and FFT)",
           "Per-core GFlop/s, Single (1 rank) vs Star (16 ranks, no "
           "communication) on Longs, across runtime options",
           "Star DGEMM ~= Single DGEMM (second core doubles the "
           "socket); FFT slips a little more");

    DgemmWorkload dgemm(1000, 2, BlasVariant::Acml);
    FftWorkload fft(1u << 22, 6);
    const double dgemm_flops = dgemm.flopsPerIteration() * 2;
    const double fft_flops = fft.flopsPerIteration() * 6;

    std::printf("%-18s  %-12s %-12s %-12s %-12s\n", "option",
                "S-DGEMM", "*-DGEMM", "S-FFT", "*-FFT");
    for (const Combo &c : kCombos) {
        if (c.bareSysv())
            continue;
        auto gflops = [&c](const Workload &w, double flops, int ranks) {
            return flops / runCombo(c, ranks, w).seconds / 1e9;
        };
        std::printf("%-18s  %-12.2f %-12.2f %-12.3f %-12.3f\n",
                    c.label, gflops(dgemm, dgemm_flops, 1),
                    gflops(dgemm, dgemm_flops, 16),
                    gflops(fft, fft_flops, 1), gflops(fft, fft_flops, 16));
    }

    RunResult s = run(longsConfig(), pinnedPacked(), 1, dgemm);
    RunResult x = run(longsConfig(), pinnedPacked(), 16, dgemm);
    std::printf("\n");
    observe("Star:Single DGEMM per-core ratio (paper: ~1)",
            formatFixed(x.seconds / s.seconds, 3));
}

/** Figure 10: Single vs Star STREAM; Single:Star exceeds 2:1. */
void
fig10SingleStarStream()
{
    banner("Figure 10 (Single/Star STREAM)",
           "STREAM triad GB/s per core, Single (1) vs Star (16) on "
           "Longs, across runtime options",
           "Single:Star > 2:1 for default placement -- a net "
           "per-socket loss from the second core");

    MachineConfig longs = longsConfig();
    StreamWorkload stream(4u << 20, 10);

    // The point set is irregular (each combo pairs a Single and a
    // Star run), so it is a SweepPlan::fromSpecs plan rather than an
    // axis grid: grid points map 1:1 onto the spec list, two per
    // plotted combo.
    std::vector<const Combo *> plotted;
    std::vector<ScenarioSpec> specs;
    for (const Combo &c : kCombos) {
        if (c.bareSysv())
            continue;
        plotted.push_back(&c);
        ScenarioSpec spec;
        spec.workload = stream.name();
        spec.machinePreset = "longs";
        spec.impl = MpiImpl::Lam;
        spec.sublayer = c.sublayer;
        spec.option = singleOption(c.option);
        spec.ranks = 1;
        specs.push_back(spec);
        spec.option = c.option;
        spec.ranks = 16;
        specs.push_back(spec);
    }
    SweepPlan plan = SweepPlan::fromSpecs(specs);
    RunnerOptions opts;
    opts.workloadOverride = &stream;
    PlanResults results = runPlan(plan, opts);

    std::printf("%-18s  %-10s %-10s %-12s\n", "option",
                "Single", "Star", "Single:Star");
    for (size_t i = 0; i < plotted.size(); ++i) {
        const RunResult &s = results.at(plan, 2 * i);
        const RunResult &x = results.at(plan, 2 * i + 1);
        double bw_s =
            stream.bytesPerIteration() * 10 / s.seconds / 1e9;
        double bw_x =
            stream.bytesPerIteration() * 10 / x.seconds / 1e9;
        std::printf("%-18s  %-10.2f %-10.2f %-12.2f   [GB/s per "
                    "core]\n",
                    plotted[i]->label, bw_s, bw_x,
                    x.seconds / s.seconds);
    }

    RunResult s = run(longs, pinnedSpread(), 1, stream);
    std::printf("\n");
    observe("best single-core bandwidth on Longs (paper: < 2.05 "
            "GB/s)",
            formatFixed(stream.bytesPerIteration() * 10 / s.seconds /
                            1e9,
                        2) +
                " GB/s");
}

/** Figure 11: RandomAccess GUPS, Single / Star / MPI. */
void
fig11RandomAccess()
{
    banner("Figure 11 (RandomAccess)",
           "GUPS: Single (1 rank), Star (16 ranks), MPI (16 ranks) on "
           "Longs across options",
           "Single:Star below 2:1 (second core is a net gain); MPI "
           "RandomAccess collapses under SysV");

    MachineConfig longs = longsConfig();
    RandomAccessWorkload local_ra(128.0e6, 1.0e6, 2);
    MpiRandomAccessWorkload mpi_ra(128.0e6, 1.0e6, 2);

    std::printf("%-18s  %-10s %-10s %-10s\n", "option", "Single",
                "Star", "MPI");
    for (const Combo &c : kCombos) {
        double g_s = 2.0e6 / runCombo(c, 1, local_ra).seconds / 1e9;
        double g_x = 16 * 2.0e6 / runCombo(c, 16, local_ra).seconds / 1e9;
        double g_m = 16 * 2.0e6 / runCombo(c, 16, mpi_ra).seconds / 1e9;
        std::printf("%-18s  %-10.4f %-10.4f %-10.4f   [GUPS "
                    "aggregate]\n",
                    c.label, g_s, g_x, g_m);
    }

    RunResult s1 = run(longs, pinnedPacked(), 1, local_ra);
    RunResult s16 = run(longs, pinnedPacked(), 16, local_ra);
    RunResult m_fast = run(longs, pinnedPacked(), 16, mpi_ra,
                           MpiImpl::Lam, SubLayer::USysV);
    RunResult m_slow = run(longs, pinnedPacked(), 16, mpi_ra,
                           MpiImpl::Lam, SubLayer::SysV);
    std::printf("\n");
    observe("Single:Star ratio (paper: < 2, net per-socket gain)",
            formatFixed(s16.seconds / s1.seconds, 2));
    observe("MPI RA SysV/USysV slowdown",
            formatFixed(m_slow.seconds / m_fast.seconds, 2) + "x");
}

/** Figure 12: PTRANS; the sub-layer dominates the block exchange. */
void
fig12Ptrans()
{
    banner("Figure 12 (PTRANS)",
           "Parallel transpose bandwidth on Longs (16 ranks) across "
           "placement x sub-layer",
           "USysV's spin locks give a clear advantage; SysV drags "
           "every placement down");

    PtransWorkload ptrans(8192, 4);

    double t_sysv = 0.0, t_usysv = 0.0;
    for (const Combo &c : kCombos) {
        if (c.bareSysv())
            continue;
        RunResult r = runCombo(c, 16, ptrans);
        double bw = ptrans.matrixBytes() * 4 / r.seconds / 1e9;
        std::printf("  %-20s %8.3f GB/s\n", c.sublayerLabel, bw);
        if (&c == &kCombos[0])
            t_sysv = r.seconds;
        if (std::string_view(c.label) == "usysv")
            t_usysv = r.seconds;
    }

    std::printf("\n");
    observe("USysV advantage over SysV (paper: clear win)",
            formatFixed(t_sysv / t_usysv, 2) + "x");
}

} // namespace bench
} // namespace mcscope
