/**
 * @file
 * Beyond the paper: the mechanism ablation, the Section 3.4 hybrid
 * programming model, the full NPB kernel subset, communication
 * matrices, and calibration sensitivity.
 */

#include <cstdio>
#include <memory>

#include "apps/pop/pop.hh"
#include "core/hybrid.hh"
#include "core/registry.hh"
#include "kernels/nas_cg.hh"
#include "kernels/nas_ft.hh"
#include "kernels/stream.hh"
#include "machine/machine.hh"
#include "reproduce.hh"
#include "simmpi/comm.hh"
#include "simmpi/comm_matrix.hh"
#include "util/str.hh"

namespace mcscope {
namespace bench {

namespace {

/** Bound-vs-cross bandwidth ratio of a 1 MB transfer on 4 packed ranks. */
double
sameDieGain(const MachineConfig &cfg)
{
    Machine m(cfg);
    auto pl = Placement::create(cfg, m.topology(), pinnedPacked(), 4);
    MpiRuntime rt(m, *pl);
    return rt.transferBandwidth(0, 1, 1 << 20) /
           rt.transferBandwidth(0, 2, 1 << 20);
}

} // namespace

/**
 * Ablation study: turn each calibrated mechanism off and show which
 * paper observation it is responsible for.
 *
 *  - coherence tax      -> Longs' sub-half single-core bandwidth
 *  - same-die fast path -> the Figure 16/17 bound-vs-cross gap
 *  - SysV lock cost     -> the Figure 11-13 small-message collapse
 *  - scheduler drift    -> the Default-vs-localalloc gap at partial
 *                          load (Tables 2/13)
 */
void
ablationMechanisms()
{
    banner("Ablation (model mechanisms)",
           "Each calibrated mechanism disabled in isolation, with the "
           "paper effect it carries",
           "disabling a mechanism erases exactly its effect");

    // --- Coherence tax ----------------------------------------------
    {
        StreamWorkload stream(4u << 20, 10);
        MachineConfig longs = longsConfig();
        RunResult with_tax =
            run(longs, pinnedSpread(), 1, stream);
        MachineConfig no_tax = longs;
        no_tax.coherenceAlpha = 0.0;
        RunResult without =
            run(no_tax, pinnedSpread(), 1, stream);
        double bw_with = stream.bytesPerIteration() * 10 /
                         with_tax.seconds / 1e9;
        double bw_without = stream.bytesPerIteration() * 10 /
                            without.seconds / 1e9;
        std::printf("coherence tax (Longs single-core STREAM):\n");
        std::printf("  with:    %.2f GB/s   (paper: < 2.05)\n",
                    bw_with);
        std::printf("  without: %.2f GB/s   (recovers the full "
                    "DDR-400 rate)\n\n",
                    bw_without);
    }

    // --- Same-die fast path -----------------------------------------
    {
        MachineConfig dmz = dmzConfig();
        MachineConfig no_fast = dmz;
        no_fast.sameDieBandwidthBoost = 1.0;
        no_fast.sameDieLatencyFactor = 1.0;
        std::printf("same-die fast path (bound/cross bandwidth "
                    "ratio):\n");
        std::printf("  with:    %.3f   (paper: 1.10-1.13)\n",
                    sameDieGain(dmz));
        std::printf("  without: %.3f   (gap collapses to the bare "
                    "link effect)\n\n",
                    sameDieGain(no_fast));
    }

    // --- SysV lock cost ----------------------------------------------
    {
        MachineConfig longs = longsConfig();
        Machine m(longs);
        auto pl = Placement::create(longs, m.topology(),
                                    table5Options()[0], 2);
        MpiRuntime sysv(m, *pl, MpiImpl::Lam, SubLayer::SysV);
        MpiRuntime usysv(m, *pl, MpiImpl::Lam, SubLayer::USysV);
        std::printf("SysV semaphore cost (8-byte one-way latency):\n");
        std::printf("  sysv:  %.2f us   usysv: %.2f us   (paper: "
                    "SysV dominates all small-message results)\n\n",
                    sysv.messageOverhead(0, 1, 8.0) * 1e6,
                    usysv.messageOverhead(0, 1, 8.0) * 1e6);
    }

    // --- Scheduler drift ---------------------------------------------
    {
        NasCgWorkload cg(nasCgClassB());
        MachineConfig longs = longsConfig();
        OptionSweepResult sweep = sweepOptions(longs, {4}, cg);
        double def = sweep.seconds[0][0];
        double local = sweep.seconds[0][1];
        std::printf("scheduler drift (CG 4 tasks, Default vs One MPI "
                    "+ Local Alloc):\n");
        std::printf("  default: %.2f s   localalloc: %.2f s   gap "
                    "%.1f%%   (paper: 98.51 vs 88.21, ~10%%)\n",
                    def, local, (def - local) / def * 100.0);
        OptionSweepResult full = sweepOptions(longs, {16}, cg);
        std::printf("  at 16 tasks the gap closes: default %.2f vs "
                    "two+localalloc %.2f (paper: 54.17 vs 54.45)\n",
                    full.seconds[0][0], full.seconds[0][3]);
    }
}

/**
 * Extension: the programming model the paper proposes in its Section
 * 3.4 conclusion -- "OpenMP only within each multi-core processor,
 * and MPI for communication both between processor sockets" -- tested
 * against pure MPI on the same core budget.  Not a paper artifact;
 * this runs the experiment the authors suggested as future work.
 */
void
extHybridModel()
{
    banner("Extension (hybrid MPI+threads model, Section 3.4)",
           "16 cores of Longs: 16 pure-MPI ranks vs 8 MPI tasks x 2 "
           "socket threads",
           "the paper predicts the hybrid should be 'a high-"
           "performance alternative' -- fewer ladder messages, no "
           "same-socket MPI traffic");

    auto compare = [](const char *label,
                      const std::shared_ptr<const LoopWorkload> &base) {
        MachineConfig longs = longsConfig();
        // Pure MPI: 16 ranks, two per socket, local pages.
        RunResult pure = run(longs,
                             {"two", TaskScheme::TwoTasksPerSocket,
                              MemPolicy::LocalAlloc},
                             16, *base);
        // Hybrid: 8 MPI tasks x 2 threads on the same 16 cores.
        RunResult hyb = run(longs,
                            {"contexts", TaskScheme::Packed,
                             MemPolicy::LocalAlloc},
                            16, HybridWorkload(base, 2));
        std::printf("  %-10s pure-MPI %8.2f s   hybrid %8.2f s   "
                    "hybrid/pure %.3f\n",
                    label, pure.seconds, hyb.seconds,
                    hyb.seconds / pure.seconds);
    };
    compare("nas-cg-b",
            std::make_shared<NasCgWorkload>(nasCgClassB()));
    compare("nas-ft-b",
            std::make_shared<NasFtWorkload>(nasFtClassB()));
    compare("pop-x1", std::make_shared<PopWorkload>(popX1Config()));

    std::printf("\nRatios below 1.0 confirm the paper's three-tier "
                "communication-hierarchy argument\nfor latency-bound "
                "codes; bandwidth-bound phases are indifferent "
                "because both\nmodels saturate the same per-socket "
                "memory links.\n");
}

/** Extension: the full NPB subset (CG, FT, EP, MG, IS) on every machine. */
void
extNpbSuite()
{
    banner("Extension (full NPB kernel subset)",
           "Parallel efficiency vs one core for CG / FT / EP / MG / "
           "IS, Default placement",
           "EP ~1.0 everywhere; MG tracks FT; IS worst (all-to-all); "
           "CG collapses only on the 8-socket ladder");

    std::vector<ScalingColumn> columns;
    for (const char *k : {"nas-cg-b", "nas-ft-b", "nas-ep-b", "nas-mg-b",
                          "nas-is-b"})
        columns.push_back({k + 4, makeWorkload(k)});
    for (auto cfg_fn : {dmzConfig, longsConfig}) {
        printScalingTable(cfg_fn(), " (efficiency = speedup / cores)",
                          columns, 9, true);
    }

    auto ep = makeWorkload("nas-ep-b");
    auto is = makeWorkload("nas-is-b");
    auto t_ep = defaultScalingTimes(longsConfig(), {1, 16}, *ep);
    auto t_is = defaultScalingTimes(longsConfig(), {1, 16}, *is);
    observe("EP efficiency at 16 on Longs (control: near 1.0)",
            formatFixed(t_ep[0] / t_ep[1] / 16.0, 2));
    observe("IS efficiency at 16 on Longs (all-to-all bound)",
            formatFixed(t_is[0] / t_is[1] / 16.0, 2));
}

/** Extension: per-pair message matrices projected onto HT hop distances. */
void
extCommMatrix()
{
    banner("Extension (communication matrices)",
           "Per-pair traffic of CG / FT / POP projected onto the HT "
           "ladder's hop distances",
           "CG concentrates on one far partner; FT spreads all-to-all "
           "across every distance; POP stays nearest-neighbor");

    for (const char *name : {"nas-cg-b", "nas-ft-b", "pop-x1"}) {
        MachineConfig cfg = longsConfig();
        const int ranks = 8;
        Machine machine(cfg);
        auto placement = Placement::create(
            cfg, machine.topology(), table5Options()[1], ranks);
        MpiRuntime rt(machine, *placement);
        CommMatrix matrix(ranks);
        rt.setCommMatrix(&matrix);
        makeWorkload(name)->buildTasks(machine, rt);

        std::printf("%s (one iteration, 8 tasks one-per-socket):\n",
                    name);
        std::printf("  messages: %llu, volume: %s\n",
                    static_cast<unsigned long long>(
                        matrix.totalMessages()),
                    formatBytes(matrix.totalBytes()).c_str());
        std::vector<double> hist = matrix.bytesByHops(rt);
        double total = matrix.totalBytes();
        std::printf("  bytes by HT hop distance:");
        for (size_t h = 0; h < hist.size(); ++h) {
            std::printf("  %zu:%4.1f%%", h,
                        total > 0.0 ? hist[h] / total * 100.0 : 0.0);
        }
        std::printf("\n\n");
    }

    std::printf("Multi-hop traffic shares explain the ladder "
                "sensitivity ordering the paper\nobserves: all-to-all "
                "(FT, PTRANS) > partner exchange (CG) > halo (POP).\n");
}

/**
 * Extension: sensitivity of the reproduced shapes to the two
 * load-bearing calibration constants.
 *
 *  - coherenceAlpha: the probe tax behind "Longs gets less than half
 *    the expected bandwidth".  The paper's qualitative claims should
 *    survive a wide range of alpha; only the absolute bandwidth moves.
 *  - streamConcurrencyBytes: the miss-level parallelism that sets the
 *    remote-access penalty.  The NUMA-placement spread should grow as
 *    concurrency shrinks and collapse when latency is fully hidden.
 *
 * If a paper conclusion held only at the exact calibrated values, it
 * would be an artifact of fitting; this shows it does not.
 */
void
extSensitivity()
{
    banner("Extension (calibration sensitivity)",
           "Sweep coherenceAlpha and streamConcurrencyBytes; watch "
           "the paper's qualitative claims",
           "shapes are robust: the single-core bandwidth deficit and "
           "the placement spread vary smoothly, never invert");

    StreamWorkload stream(4u << 20, 8);
    NasCgWorkload cg(nasCgClassB());

    std::printf("coherenceAlpha sweep (Longs):\n");
    std::printf("  %-8s %-16s %-18s %-14s\n", "alpha",
                "1-core GB/s", "vs 4.1 GB/s part", "CG eff @16");
    for (double alpha : {0.0, 0.08, 0.165, 0.33}) {
        MachineConfig cfg = longsConfig();
        cfg.coherenceAlpha = alpha;
        RunResult r1 = run(cfg, pinnedSpread(), 1, stream);
        double bw = stream.bytesPerIteration() * 8 / r1.seconds / 1e9;
        auto t = defaultScalingTimes(cfg, {1, 16}, cg);
        std::printf("  %-8.3f %-16.2f %-18.2f %-14.2f\n", alpha, bw,
                    bw / 4.1, t[0] / t[1] / 16.0);
    }
    std::printf("  -> the 'below half' observation needs alpha >= "
                "~0.15; CG's collapse persists at every alpha\n\n");

    std::printf("streamConcurrencyBytes sweep (Longs, CG 8 tasks):\n");
    std::printf("  %-8s %-20s %-20s\n", "bytes",
                "membind/localalloc", "interleave/default");
    for (double conc : {200.0, 400.0, 800.0, 1600.0}) {
        MachineConfig cfg = longsConfig();
        cfg.streamConcurrencyBytes = conc;
        OptionSweepResult sweep = sweepOptions(cfg, {8}, cg);
        const auto &row = sweep.seconds[0];
        std::printf("  %-8.0f %-20.2f %-20.2f\n", conc,
                    row[2] / row[1], row[5] / row[0]);
    }
    std::printf("  -> smaller miss concurrency = deeper NUMA penalty; "
                "the localalloc-first ordering never flips\n");
}

} // namespace bench
} // namespace mcscope
