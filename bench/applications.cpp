/**
 * @file
 * NAS kernels and applications: NAS CG/FT under numactl options and
 * their multi-core scaling (Tables 2-4), AMBER (Tables 7-9), LAMMPS
 * (Tables 10-11) and POP (Tables 12-14).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>

#include "apps/md/amber.hh"
#include "apps/md/lammps.hh"
#include "apps/pop/pop.hh"
#include "core/metrics.hh"
#include "kernels/nas_cg.hh"
#include "kernels/nas_ft.hh"
#include "reproduce.hh"
#include "util/str.hh"

namespace mcscope {
namespace bench {

namespace {

/**
 * The Tables 7/9/11/13/14 layout: one workload's option sweep on
 * Longs (2-16 tasks) and then on DMZ (2-4 tasks), each titled with
 * the machine name.  Returns the Longs slice.
 */
OptionSweepResult
longsAndDmz(const std::string &workload, const std::string &label,
            int tag = -1, int longs_precision = 2, int dmz_precision = 2)
{
    std::cout << longsConfig().name << ":\n";
    OptionSweepResult longs =
        printSweep("longs", {{workload, label}}, {2, 4, 8, 16},
                   "Workload", tag, longs_precision)
            .front();
    std::cout << "\n" << dmzConfig().name << ":\n";
    printSweep("dmz", {{workload, label}}, {2, 4}, "Workload", tag,
               dmz_precision);
    std::cout << "\n";
    return longs;
}

/** Smallest valid (non-NaN) time in one sweep row. */
double
bestOf(const std::vector<double> &row, double start)
{
    double best = start;
    for (double v : row) {
        if (!std::isnan(v))
            best = std::min(best, v);
    }
    return best;
}

} // namespace

/** Table 2: NAS CG/FT class B on Longs across the numactl options. */
void
table02NasLongs()
{
    banner("Table 2 (NAS CG/FT x numactl on Longs)",
           "Class B runtimes in seconds across the Table 5 option set",
           "one-task-per-socket localalloc best; membind ~2x worse at "
           "8-16 tasks; interleave worst at scale; '-' where one-per-"
           "socket cannot host the job");

    std::vector<OptionSweepResult> slices =
        printSweep("longs", {{"nas-cg-b", "CG"}, {"nas-ft-b", "FFT"}},
                   {2, 4, 8, 16}, "Kernel");
    const OptionSweepResult &cg_sweep = slices[0];
    const OptionSweepResult &ft_sweep = slices[1];

    std::cout << "\n";
    observe("CG 8-task membind/localalloc (paper: 109.11/51.15 = "
            "2.13)",
            formatFixed(cg_sweep.seconds[2][2] /
                            cg_sweep.seconds[2][1],
                        2));
    observe("CG 16-task interleave/default (paper: 72.62/54.17 = "
            "1.34)",
            formatFixed(cg_sweep.seconds[3][5] /
                            cg_sweep.seconds[3][0],
                        2));
    observe("FT 8-task membind(two)/localalloc(two) (paper: "
            "81.95/62.80 = 1.30)",
            formatFixed(ft_sweep.seconds[2][4] /
                            ft_sweep.seconds[2][3],
                        2));
}

/** Table 3: NAS CG/FT class B on DMZ across the numactl options. */
void
table03NasDmz()
{
    banner("Table 3 (NAS CG/FT x numactl on DMZ)",
           "Class B runtimes in seconds on the 2-socket DMZ",
           "default is near-optimal on the simple 2-socket topology; "
           "'-' for one-per-socket at 4 tasks");

    const OptionSweepResult cg_sweep =
        printSweep("dmz", {{"nas-cg-b", "CG"}, {"nas-ft-b", "FFT"}},
                   {2, 4}, "Kernel")
            .front();

    std::cout << "\n";
    observe("CG 2-task default vs best option (paper: within ~1%)",
            formatFixed(cg_sweep.seconds[0][0] /
                            bestOf(cg_sweep.seconds[0], 1e300),
                        2));
}

/** Table 4: NAS CG/FT parallel efficiency on every system. */
void
table04NasSpeedup()
{
    banner("Table 4 (NAS multi-core speedup)",
           "Parallel efficiency (speedup / cores) for NAS CG and FT, "
           "relative to one core",
           "efficiency falls with cores; CG collapses hardest on "
           "Longs (paper: 0.25 at 16); Tiger/DMZ comparable at 2");

    NasCgWorkload cg(nasCgClassB());
    NasFtWorkload ft(nasFtClassB());

    const std::pair<const char *, const Workload *> kernels[] = {
        {"CG", &cg}, {"FT", &ft}};
    std::printf("  %-4s %-6s  (cores:efficiency)\n", "krnl", "system");
    for (const auto &[kernel, w] : kernels) {
        for (auto cfg_fn : {dmzConfig, longsConfig, tigerConfig}) {
            MachineConfig cfg = cfg_fn();
            std::vector<int> all = scalingRanks(cfg);
            std::vector<double> eff =
                efficiencies(defaultScalingTimes(cfg, all, *w), all);
            std::printf("  %-4s %-6s", kernel, cfg.name.c_str());
            for (size_t i = 1; i < all.size(); ++i)
                std::printf("  %2d:%5.2f", all[i], eff[i]);
            std::printf("\n");
        }
    }

    auto t_cg = defaultScalingTimes(longsConfig(), {1, 8, 16}, cg);
    auto t_ft = defaultScalingTimes(longsConfig(), {1, 8, 16}, ft);
    std::printf("\n");
    observe("CG Longs 16-task efficiency (paper: 0.25)",
            formatFixed(t_cg[0] / t_cg[2] / 16.0, 2));
    observe("FT Longs 16-task efficiency (paper: 0.42)",
            formatFixed(t_ft[0] / t_ft[2] / 16.0, 2));
    observe("CG 8->16 speedup on Longs (paper: < 1, negative "
            "scaling)",
            formatFixed(t_cg[1] / t_cg[2], 2));
}

/** Table 7: FFT-phase time of AMBER JAC across the numactl options. */
void
table07AmberFft()
{
    banner("Table 7 (JAC FFT-phase time x numactl)",
           "Seconds spent in the PME reciprocal (FFT) phase of the "
           "AMBER JAC benchmark",
           "FFT phase shows the NAS-FT-like placement sensitivity on "
           "Longs; interleave blows up at 16 tasks");

    OptionSweepResult longs =
        longsAndDmz("amber-jac", "JAC FFT", tags::kFft);
    observe("16-task interleave/default FFT-phase ratio (paper: "
            "2.22/0.63 = 3.5)",
            formatFixed(longs.seconds[3][5] / longs.seconds[3][0], 2));
}

/** Table 8: AMBER speedup for the five Table 6 benchmarks. */
void
table08AmberSpeedup()
{
    banner("Table 8 (AMBER multi-core speedup)",
           "Speedup vs one core, Default placement, for dhfr / "
           "factor_ix / gb_cox2 / gb_mb / JAC",
           "near-linear to 4 cores everywhere; at 16 cores GB "
           "reaches ~14x while PME saturates near 7-8x");

    std::vector<ScalingColumn> columns;
    for (const auto &b : amberBenchmarks())
        columns.push_back({b.name, std::make_unique<AmberWorkload>(b)});
    for (auto cfg_fn : {dmzConfig, longsConfig})
        printScalingTable(cfg_fn(), "", columns, 9, false);

    AmberWorkload gb(amberBenchmarkByName("gb_mb"));
    AmberWorkload pme(amberBenchmarkByName("JAC"));
    auto t_gb = defaultScalingTimes(longsConfig(), {1, 16}, gb);
    auto t_pme = defaultScalingTimes(longsConfig(), {1, 16}, pme);
    observe("gb_mb speedup at 16 (paper: 14.93)",
            formatFixed(t_gb[0] / t_gb[1], 2));
    observe("JAC speedup at 16 (paper: 7.97)",
            formatFixed(t_pme[0] / t_pme[1], 2));
}

/** Table 9: overall JAC runtime across the numactl options. */
void
table09JacOverall()
{
    banner("Table 9 (JAC overall runtime x numactl)",
           "Total AMBER JAC runtime in seconds across the Table 5 "
           "options",
           "localalloc best on Longs; DMZ default near-optimal; "
           "membind at 16 tasks clearly worse");

    OptionSweepResult longs = longsAndDmz("amber-jac", "JAC");
    double def = longs.seconds[0][0];
    double best = bestOf(longs.seconds[0], def);
    observe("2-task Longs placement gain (paper: 38.08 -> 35.21, "
            "~8%)",
            formatFixed((def - best) / def * 100.0, 1) + "%");
}

/** Table 10: LAMMPS speedup; chain goes super-linear. */
void
table10LammpsSpeedup()
{
    banner("Table 10 (LAMMPS multi-core speedup)",
           "Speedup vs one core for LJ / chain / EAM (32,000 atoms, "
           "100 steps)",
           "chain super-linear (cache capacity); ordering at 16 "
           "cores: chain > eam > lj");

    std::vector<ScalingColumn> columns;
    for (const auto &b : lammpsBenchmarks())
        columns.push_back({b.name, std::make_unique<LammpsWorkload>(b)});
    for (auto cfg_fn : {dmzConfig, longsConfig, tigerConfig})
        printScalingTable(cfg_fn(), "", columns, 8, false);

    LammpsWorkload chain(lammpsBenchmarkByName("chain"));
    auto t = defaultScalingTimes(longsConfig(), {1, 16}, chain);
    observe("chain speedup at 16 on Longs (paper: 19.95, "
            "super-linear)",
            formatFixed(t[0] / t[1], 2));
}

/** Table 11: LAMMPS LJ runtime across the numactl options. */
void
table11LammpsOptions()
{
    banner("Table 11 (LAMMPS LJ x numactl)",
           "LJ benchmark runtime in seconds across the Table 5 "
           "options",
           "same story as AMBER: localalloc best on Longs, membind "
           "bad at 16 tasks, DMZ indifferent");

    OptionSweepResult longs = longsAndDmz("lammps-lj", "LJ", -1, 3, 5);
    observe("16-task membind(two)/localalloc(two) ratio (paper: "
            "0.77/0.63 = 1.22)",
            formatFixed(longs.seconds[3][4] / longs.seconds[3][3], 2));
}

/** Table 12: POP baroclinic/barotropic speedup. */
void
table12PopSpeedup()
{
    banner("Table 12 (POP multi-core speedup)",
           "Speedup vs one core for the baroclinic and barotropic "
           "phases (x1, 50 steps)",
           "both phases near-linear on every system (paper: 16.11 / "
           "14.85 at 16 on Longs)");

    PopWorkload pop(popX1Config());

    std::printf("  %-7s %-7s %-12s %-12s\n", "cores", "system",
                "Baroclinic", "Barotropic");
    for (auto cfg_fn : {dmzConfig, tigerConfig, longsConfig}) {
        MachineConfig cfg = cfg_fn();
        std::vector<int> all = scalingRanks(cfg);
        auto t_bc =
            defaultScalingTimes(cfg, all, pop, tags::kBaroclinic);
        auto t_bt =
            defaultScalingTimes(cfg, all, pop, tags::kBarotropic);
        for (size_t i = 1; i < all.size(); ++i) {
            std::printf("  %-7d %-7s %-12.2f %-12.2f\n", all[i],
                        cfg.name.c_str(), t_bc[0] / t_bc[i],
                        t_bt[0] / t_bt[i]);
        }
    }

    auto t_bc = defaultScalingTimes(longsConfig(), {1, 16}, pop,
                                    tags::kBaroclinic);
    std::printf("\n");
    observe("baroclinic speedup at 16 on Longs (paper: 16.11)",
            formatFixed(t_bc[0] / t_bc[1], 2));
}

/** Table 13: POP baroclinic time across the numactl options. */
void
table13PopBaroclinic()
{
    banner("Table 13 (POP baroclinic x numactl)",
           "Baroclinic-phase seconds across the Table 5 options",
           "localalloc best (paper 2-task Longs: 332.29 vs 358.57 "
           "default); membind worst at 8-16");

    OptionSweepResult longs =
        longsAndDmz("pop-x1", "baroclinic", tags::kBaroclinic);
    const std::vector<double> &two = longs.seconds[0];
    observe("2-task Longs localalloc gain over default (paper: "
            "~7%)",
            formatFixed((two[0] - two[1]) / two[0] * 100.0, 1) + "%");
}

/** Table 14: POP barotropic time across the numactl options. */
void
table14PopBarotropic()
{
    banner("Table 14 (POP barotropic x numactl)",
           "Barotropic-phase seconds across the Table 5 options",
           "CG-like sensitivity: localalloc leads at low counts; "
           "membind hurts at 8 (paper: 21.99 vs 8.96)");

    OptionSweepResult longs =
        longsAndDmz("pop-x1", "barotropic", tags::kBarotropic);
    observe("8-task membind(two)/default ratio (paper: 21.99/8.74 = "
            "2.5)",
            formatFixed(longs.seconds[2][4] / longs.seconds[2][0], 2));
}

} // namespace bench
} // namespace mcscope
