/**
 * @file
 * Section 3.1 micro-benchmarks: STREAM bandwidth (Figures 2-3),
 * BLAS-1 DAXPY (Figures 4-5) and BLAS-3 DGEMM (Figures 6-7).
 */

#include <cstdio>
#include <map>
#include <memory>
#include <utility>

#include "kernels/blas1.hh"
#include "kernels/blas3.hh"
#include "kernels/stream.hh"
#include "reproduce.hh"
#include "util/str.hh"

namespace mcscope {
namespace bench {

namespace {

/** One Figure 2 row: aggregate STREAM GB/s at 1, 2, 4, ... ranks. */
void
streamSeries(const MachineConfig &cfg, const NumactlOption &opt,
             const char *label)
{
    StreamWorkload stream(4u << 20, 10);
    std::printf("%-7s %-18s:", cfg.name.c_str(), label);
    for (int ranks = 1; ranks <= cfg.totalCores(); ranks *= 2) {
        RunResult r = run(cfg, opt, ranks, stream);
        double bw =
            stream.bytesPerIteration() * 10.0 * ranks / r.seconds;
        std::printf("  %2d:%6.2f", ranks, bw / 1e9);
    }
    std::printf("   (GB/s aggregate)\n");
}

/**
 * Figures 4 and 6: total and per-core GFlop/s on DMZ (packed) at 1, 2
 * and 4 cores, one row per problem size.  make(n) returns the size's
 * workload and its flops per rank.  Returns the run times by
 * (size, cores).
 */
template <typename Make>
std::map<std::pair<size_t, int>, double>
printGflopsByCores(int width, std::initializer_list<size_t> sizes,
                   const Make &make)
{
    std::map<std::pair<size_t, int>, double> seconds;
    std::printf("%-*s", width, "n");
    for (int ranks : {1, 2, 4})
        std::printf("  total(%d)  per-core(%d)", ranks, ranks);
    std::printf("   [GFlop/s]\n");
    for (size_t n : sizes) {
        auto [workload, flops] = make(n);
        std::printf("%-*zu", width, n);
        for (int ranks : {1, 2, 4}) {
            RunResult r =
                run(dmzConfig(), pinnedPacked(), ranks, *workload);
            seconds[{n, ranks}] = r.seconds;
            double gf = flops * ranks / r.seconds / 1e9;
            std::printf("  %8.2f  %11.2f", gf, gf / ranks);
        }
        std::printf("\n");
    }
    return seconds;
}

} // namespace

/** Figure 2: aggregate STREAM bandwidth, socket-first vs core-first. */
void
fig02StreamBandwidth()
{
    banner("Figure 2 (memory bandwidth)",
           "LMbench3 STREAM-triad aggregate bandwidth vs active cores",
           "near-linear growth per socket; flat when second cores "
           "join; 8-socket system starts below half the expected "
           "per-socket bandwidth");

    for (auto cfg_fn : {tigerConfig, dmzConfig, longsConfig}) {
        MachineConfig cfg = cfg_fn();
        streamSeries(cfg, pinnedSpread(), "socket-first");
        if (cfg.coresPerSocket > 1)
            streamSeries(cfg, pinnedPacked(), "core-first");
    }

    StreamWorkload stream(4u << 20, 10);
    RunResult longs1 = run(longsConfig(), pinnedSpread(), 1, stream);
    RunResult dmz1 = run(dmzConfig(), pinnedSpread(), 1, stream);
    double bw_longs =
        stream.bytesPerIteration() * 10.0 / longs1.seconds / 1e9;
    double bw_dmz =
        stream.bytesPerIteration() * 10.0 / dmz1.seconds / 1e9;
    std::printf("\n");
    observe("Longs single-core GB/s (paper: < 2.05, i.e. < half of "
            "4.1)",
            formatFixed(bw_longs, 2));
    observe("DMZ single-core GB/s", formatFixed(bw_dmz, 2));
}

/** Figure 3: STREAM bandwidth per core as cores activate. */
void
fig03StreamPerCore()
{
    banner("Figure 3 (memory bandwidth per core)",
           "STREAM-triad per-core bandwidth vs active cores",
           "flat plateau while first cores activate, then a cliff as "
           "second cores share each socket's memory link");

    StreamWorkload stream(4u << 20, 10);
    for (auto cfg_fn : {tigerConfig, dmzConfig, longsConfig}) {
        MachineConfig cfg = cfg_fn();
        std::printf("%-7s socket-first:", cfg.name.c_str());
        double first = 0.0, last = 0.0;
        for (int ranks = 1; ranks <= cfg.totalCores(); ranks *= 2) {
            RunResult r = run(cfg, pinnedSpread(), ranks, stream);
            double per_core = stream.bytesPerIteration() * 10.0 /
                              r.seconds / 1e9;
            if (ranks == 1)
                first = per_core;
            last = per_core;
            std::printf("  %2d:%5.2f", ranks, per_core);
        }
        std::printf("   (GB/s per core)\n");
        observe(cfg.name + " per-core retention at full load",
                formatFixed(last / first, 2) +
                    "x of single-core bandwidth");
    }
}

/** Figure 4: DAXPY (ACML) on DMZ, capped by the socket's memory link. */
void
fig04DaxpyAcml()
{
    banner("Figure 4 (DAXPY, ACML)",
           "DAXPY total and per-core GFlop/s vs vector length on DMZ",
           "cache-resident sizes scale with cores; large sizes "
           "collapse onto the per-socket memory bandwidth ceiling");

    const size_t small = size_t(16) << 10, large = size_t(8) << 20;
    auto t = printGflopsByCores(
        10, {small, size_t(128) << 10, size_t(1) << 20, large},
        [](size_t n) {
            int iters = n <= (size_t(128) << 10) ? 400 : 20;
            DaxpyWorkload daxpy(n, iters, BlasVariant::Acml);
            return std::pair(std::make_unique<DaxpyWorkload>(daxpy),
                             daxpy.flopsPerIteration() * iters);
        });
    std::printf("\n");
    // Per-rank-sized work: perfect scaling keeps time flat as cores
    // are added, bandwidth saturation inflates it.
    observe("in-cache time inflation, 4 cores vs 1 (ideal 1.0)",
            formatFixed(t[{small, 4}] / t[{small, 1}], 2));
    observe("out-of-cache time inflation, 4 cores vs 1 "
            "(bandwidth-bound: ~2)",
            formatFixed(t[{large, 4}] / t[{large, 1}], 2));
}

/** Figure 5: compiler-built DAXPY per core, 1 vs 2 tasks per socket. */
void
fig05DaxpyVanilla()
{
    banner("Figure 5 (DAXPY, vanilla, per core)",
           "Compiler-built DAXPY per-core GFlop/s: 1 vs 2 tasks per "
           "socket on DMZ",
           "vanilla trails ACML everywhere; the one-vs-two tasks gap "
           "opens only beyond the cache");

    MachineConfig dmz = dmzConfig();
    std::printf("%-10s  %-18s  %-18s  %s\n", "n",
                "1 task/socket", "2 tasks/socket", "acml 1 task/socket");
    for (size_t n : {size_t(16) << 10, size_t(128) << 10,
                     size_t(1) << 20, size_t(8) << 20}) {
        int iters = n <= (size_t(128) << 10) ? 400 : 20;
        DaxpyWorkload vanilla(n, iters, BlasVariant::Vanilla);
        DaxpyWorkload acml(n, iters, BlasVariant::Acml);

        RunResult one = run(dmz, pinnedSpread(), 2, vanilla);
        RunResult two = run(dmz, pinnedPacked(), 4, vanilla);
        RunResult aone = run(dmz, pinnedSpread(), 2, acml);
        double g_one = vanilla.flopsPerIteration() * iters /
                       one.seconds / 1e9;
        double g_two = vanilla.flopsPerIteration() * iters /
                       two.seconds / 1e9;
        double g_acml = acml.flopsPerIteration() * iters /
                        aone.seconds / 1e9;
        std::printf("%-10zu  %-18.3f  %-18.3f  %.3f   [GFlop/s "
                    "per core]\n",
                    n, g_one, g_two, g_acml);
    }

    DaxpyWorkload v(16u << 10, 400, BlasVariant::Vanilla);
    DaxpyWorkload a(16u << 10, 400, BlasVariant::Acml);
    double tv = run(dmz, pinnedSpread(), 2, v).seconds;
    double ta = run(dmz, pinnedSpread(), 2, a).seconds;
    std::printf("\n");
    observe("ACML advantage over vanilla in cache",
            formatFixed(tv / ta, 2) + "x");
}

/** Figure 6: DGEMM (ACML) on DMZ; blocking keeps every core productive. */
void
fig06DgemmAcml()
{
    banner("Figure 6 (DGEMM, ACML)",
           "DGEMM total and per-core GFlop/s on DMZ",
           "per-core rate stays near peak as cores join: the second "
           "core effectively doubles per-socket throughput");

    auto t = printGflopsByCores(8, {500, 1000, 2000}, [](size_t n) {
        DgemmWorkload dgemm(n, 2, BlasVariant::Acml);
        return std::pair(std::make_unique<DgemmWorkload>(dgemm),
                         dgemm.flopsPerIteration() * 2);
    });
    DgemmWorkload big(2000, 2, BlasVariant::Acml);
    double t1 = t[{2000, 1}];
    std::printf("\n");
    observe("per-core retention at 4 cores (paper: ~1.0)",
            formatFixed(t1 / t[{2000, 4}], 2));
    observe("single-core GFlop/s vs 4.4 peak",
            formatFixed(big.flopsPerIteration() * 2 / t1 / 1e9, 2));
}

/** Figure 7: unblocked DGEMM per core, 1 vs 2 tasks per socket. */
void
fig07DgemmVanilla()
{
    banner("Figure 7 (DGEMM, vanilla, per core)",
           "Unblocked DGEMM per-core GFlop/s: 1 vs 2 tasks per socket "
           "on DMZ",
           "an order of magnitude below ACML; the two-tasks-per-"
           "socket per-core rate sags further once B no longer "
           "caches");

    MachineConfig dmz = dmzConfig();
    std::printf("%-8s  %-16s  %-16s\n", "n", "1 task/socket",
                "2 tasks/socket");
    for (size_t n : {size_t(300), size_t(700), size_t(1500)}) {
        DgemmWorkload dgemm(n, 2, BlasVariant::Vanilla);
        RunResult one = run(dmz, pinnedSpread(), 2, dgemm);
        RunResult two = run(dmz, pinnedPacked(), 4, dgemm);
        double g_one =
            dgemm.flopsPerIteration() * 2 / one.seconds / 1e9;
        double g_two =
            dgemm.flopsPerIteration() * 2 / two.seconds / 1e9;
        std::printf("%-8zu  %-16.3f  %-16.3f  [GFlop/s per core]\n", n,
                    g_one, g_two);
    }

    DgemmWorkload vanilla(1500, 2, BlasVariant::Vanilla);
    DgemmWorkload acml(1500, 2, BlasVariant::Acml);
    double tv = run(dmz, pinnedSpread(), 2, vanilla).seconds;
    double ta = run(dmz, pinnedSpread(), 2, acml).seconds;
    std::printf("\n");
    observe("ACML over vanilla at n=1500",
            formatFixed(tv / ta, 1) + "x");
}

} // namespace bench
} // namespace mcscope
