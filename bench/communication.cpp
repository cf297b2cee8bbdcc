/**
 * @file
 * Communication benchmarks: ring vs PingPong latency on Longs
 * (Figure 13), the Intel MPI Benchmarks PingPong and Exchange across
 * MPI implementations on DMZ (Figures 14-15), and OpenMPI under
 * scheduler affinity (Figures 16-17).
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "machine/machine.hh"
#include "reproduce.hh"
#include "sim/task.hh"
#include "simmpi/collectives.hh"
#include "simmpi/comm.hh"
#include "util/str.hh"

namespace mcscope {
namespace bench {

namespace {

/** Where and how a communication benchmark runs. */
struct CommSetup
{
    MachineConfig machine;
    NumactlOption option;
    int ranks = 2;
    MpiImpl impl = MpiImpl::OpenMpi;
    SubLayer sublayer = SubLayer::USysV;

    /** Latency-noise multiplier (unbound/parked studies). */
    double noise = 1.0;
};

/**
 * Makespan of every rank looping `iters` times over the primitives
 * body(rt, rank, prims) appends.  Rank r runs as task prefix + r.
 */
template <typename Body>
double
loopMakespan(const CommSetup &s, const char *prefix, int iters,
             const Body &body)
{
    Machine machine(s.machine);
    auto placement = Placement::create(s.machine, machine.topology(),
                                       s.option, s.ranks);
    MpiRuntime rt(machine, *placement, s.impl, s.sublayer);
    rt.setLatencyNoiseFactor(s.noise);
    for (int r = 0; r < s.ranks; ++r) {
        std::vector<Prim> prims;
        body(rt, r, prims);
        machine.engine().addTask(std::make_unique<LoopTask>(
            prefix + std::to_string(r), std::vector<Prim>{}, prims,
            iters));
    }
    machine.engine().run();
    return machine.engine().makespan();
}

/** One-way PingPong time between ranks 0 and 1, in seconds. */
double
pingPong(const CommSetup &s, double bytes, int iters)
{
    double makespan = loopMakespan(
        s, "pp", iters,
        [bytes](MpiRuntime &rt, int r, std::vector<Prim> &p) {
            if (r == 0) {
                rt.appendSend(p, 0, 1, bytes, 0x1000ULL);
                rt.appendRecv(p, 0, 1, bytes, 0x2000ULL);
            } else {
                rt.appendRecv(p, 1, 0, bytes, 0x1000ULL);
                rt.appendSend(p, 1, 0, bytes, 0x2000ULL);
            }
        });
    return makespan / iters / 2.0;
}

/** Exchange time per iteration over all ranks, in seconds. */
double
exchange(const CommSetup &s, double bytes, int iters)
{
    return loopMakespan(
               s, "xc", iters,
               [bytes](MpiRuntime &rt, int r, std::vector<Prim> &p) {
                   appendExchange(rt, p, r, bytes, 0x5000ULL);
               }) /
           iters;
}

/** Figures 16-17: OpenMPI on DMZ under one affinity configuration. */
CommSetup
dmzAffinity(const NumactlOption &option, int ranks, double noise)
{
    return {dmzConfig(),     option,          ranks,
            MpiImpl::OpenMpi, SubLayer::USysV, noise};
}

const NumactlOption kBound = {"bound", TaskScheme::Packed,
                              MemPolicy::LocalAlloc};
const NumactlOption kUnbound = {"unbound", TaskScheme::OsDefault,
                                MemPolicy::Default};

} // namespace

/** Figure 13: ring vs PingPong latency on the Longs ladder. */
void
fig13LatencyBandwidth()
{
    banner("Figure 13 (communication latency)",
           "8-byte latency on Longs: PingPong (2 ranks, cross-ladder) "
           "vs ring (16 ranks), SysV vs USysV sub-layers",
           "ring > PingPong; the SysV semaphore cost dwarfs the "
           "topology differences");

    const int iters = 200;
    // PingPong between the two farthest ranks; ring over all 16.
    auto pp_us = [](SubLayer sl) {
        CommSetup s = {longsConfig(),
                       {"spread", TaskScheme::Spread,
                        MemPolicy::LocalAlloc},
                       2, MpiImpl::Lam, sl};
        return pingPong(s, 8.0, iters) * 1e6;
    };
    auto ring_us = [](SubLayer sl) {
        CommSetup s = {longsConfig(),
                       {"two", TaskScheme::TwoTasksPerSocket,
                        MemPolicy::LocalAlloc},
                       16, MpiImpl::Lam, sl};
        return loopMakespan(
                   s, "ring", iters,
                   [](MpiRuntime &rt, int r, std::vector<Prim> &p) {
                       appendRingShift(rt, p, r, 8.0, 0x3000ULL);
                   }) /
               iters * 1e6;
    };
    double pp_usysv = pp_us(SubLayer::USysV);
    double pp_sysv = pp_us(SubLayer::SysV);
    double ring_usysv = ring_us(SubLayer::USysV);
    double ring_sysv = ring_us(SubLayer::SysV);

    std::printf("  %-22s %10s %10s\n", "pattern", "usysv", "sysv");
    std::printf("  %-22s %8.2fus %8.2fus\n", "PingPong (one-way)",
                pp_usysv, pp_sysv);
    std::printf("  %-22s %8.2fus %8.2fus\n", "ring (per shift)",
                ring_usysv, ring_sysv);

    std::printf("\n");
    observe("ring/PingPong latency ratio (usysv)",
            formatFixed(ring_usysv / pp_usysv, 2));
    observe("SysV/USysV latency blowup (PingPong)",
            formatFixed(pp_sysv / pp_usysv, 2) + "x");
}

/** Figure 14: IMB PingPong across MPI implementations. */
void
fig14ImbPingPong()
{
    banner("Figure 14 (IMB PingPong, MPI implementations)",
           "Intra-node PingPong latency and bandwidth on DMZ: MPICH2 "
           "vs LAM vs OpenMPI",
           "LAM best < 16 KB, OpenMPI best at intermediate sizes, "
           "MPICH2 best for large messages; MPICH2's small-message "
           "latency ~2x the others");

    auto pp = [](MpiImpl impl, double bytes) {
        return pingPong({dmzConfig(),
                         {"spread", TaskScheme::Spread,
                          MemPolicy::LocalAlloc},
                         2, impl},
                        bytes, 50);
    };
    std::printf("%-10s  %-22s %-22s %-22s\n", "size",
                "MPICH2 (us | MB/s)", "LAM (us | MB/s)",
                "OpenMPI (us | MB/s)");
    for (double bytes = 8.0; bytes <= 4.0 * 1024 * 1024;
         bytes *= 8.0) {
        std::printf("%-10s", formatBytes(bytes).c_str());
        for (MpiImpl impl :
             {MpiImpl::Mpich2, MpiImpl::Lam, MpiImpl::OpenMpi}) {
            double lat = pp(impl, bytes);
            std::printf("  %8.2f | %-10.1f", lat * 1e6,
                        bytes / lat / 1e6);
        }
        std::printf("\n");
    }

    double lat_mpich = pp(MpiImpl::Mpich2, 8.0);
    double lat_lam = pp(MpiImpl::Lam, 8.0);
    double lat_m16 = pp(MpiImpl::Mpich2, 16.0 * 1024);
    double lat_l16 = pp(MpiImpl::Lam, 16.0 * 1024);
    std::printf("\n");
    observe("MPICH2/LAM 8-byte latency ratio (paper: high overhead)",
            formatFixed(lat_mpich / lat_lam, 2));
    observe("MPICH2/LAM time ratio at 16KB (paper: comparable)",
            formatFixed(lat_m16 / lat_l16, 2));
}

/** Figure 15: IMB Exchange across MPI implementations. */
void
fig15ImbExchange()
{
    banner("Figure 15 (IMB Exchange, MPI implementations)",
           "Intra-node Exchange time per iteration on DMZ (2 ranks): "
           "MPICH2 vs LAM vs OpenMPI",
           "LAM leads for small messages, OpenMPI mid-sizes, MPICH2 "
           "large messages");

    auto xc = [](MpiImpl impl, double bytes, int iters) {
        return exchange({dmzConfig(),
                         {"packed", TaskScheme::Packed,
                          MemPolicy::LocalAlloc},
                         2, impl},
                        bytes, iters);
    };
    std::printf("%-10s  %-12s %-12s %-12s   [us/iter]\n", "size",
                "MPICH2", "LAM", "OpenMPI");
    for (double bytes = 8.0; bytes <= 4.0 * 1024 * 1024;
         bytes *= 8.0) {
        std::printf("%-10s", formatBytes(bytes).c_str());
        for (MpiImpl impl :
             {MpiImpl::Mpich2, MpiImpl::Lam, MpiImpl::OpenMpi}) {
            double t = xc(impl, bytes, 50);
            std::printf("  %-12.2f", t * 1e6);
        }
        std::printf("\n");
    }

    double small_lam = xc(MpiImpl::Lam, 1024.0, 50);
    double small_mpich = xc(MpiImpl::Mpich2, 1024.0, 50);
    double big_lam = xc(MpiImpl::Lam, 4.0 * 1024 * 1024, 20);
    double big_mpich = xc(MpiImpl::Mpich2, 4.0 * 1024 * 1024, 20);
    std::printf("\n");
    observe("1KB: LAM faster than MPICH2 by",
            formatFixed(small_mpich / small_lam, 2) + "x");
    observe("4MB: MPICH2 faster than LAM by",
            formatFixed(big_lam / big_mpich, 2) + "x");
}

/** Figure 16: OpenMPI PingPong, bound vs unbound vs parked. */
void
fig16OpenMpiPingPongAffinity()
{
    banner("Figure 16 (OpenMPI PingPong with scheduler affinity)",
           "PingPong on DMZ: 2 procs bound to one dual-core socket vs "
           "unbound vs unbound + 2 parked",
           "bound-to-one-socket wins ~10-13% bandwidth and small-"
           "message latency; parked processes add jitter");

    struct Config
    {
        const char *label;
        CommSetup setup;
    };
    const Config configs[] = {
        {"2 procs, bound 0", dmzAffinity(kBound, 2, 1.0)},
        {"2 procs, bound 1", dmzAffinity(kBound, 2, 1.0)},
        {"2 procs, unbound", dmzAffinity(kUnbound, 2, 1.15)},
        {"2 procs, unbound, 2 parked", dmzAffinity(kUnbound, 2, 1.30)},
    };

    std::printf("%-28s", "size");
    for (const Config &c : configs)
        std::printf("  %-14s", c.label);
    std::printf("\n");
    for (double bytes = 64.0; bytes <= 4.0 * 1024 * 1024;
         bytes *= 16.0) {
        std::printf("%-28s", formatBytes(bytes).c_str());
        for (const Config &c : configs) {
            double lat = pingPong(c.setup, bytes, 50);
            std::printf("  %-14.1f", bytes / lat / 1e6);
        }
        std::printf("   [MB/s]\n");
    }

    const double mb = 1 << 20;
    double bw_b = mb / pingPong(configs[0].setup, mb, 50);
    double bw_u = mb / pingPong(configs[2].setup, mb, 50);
    double slat_b = pingPong(configs[0].setup, 64.0, 50);
    double slat_u = pingPong(configs[2].setup, 64.0, 50);
    std::printf("\n");
    observe("bound vs unbound bandwidth gain at 1MB (paper: "
            "10-13%)",
            formatFixed((bw_b / bw_u - 1.0) * 100.0, 1) + "%");
    observe("bound vs unbound 64B latency",
            formatFixed(slat_b * 1e6, 2) + "us vs " +
                formatFixed(slat_u * 1e6, 2) + "us");
}

/** Figure 17: OpenMPI Exchange under scheduler affinity. */
void
fig17OpenMpiExchangeAffinity()
{
    banner("Figure 17 (OpenMPI Exchange with scheduler affinity)",
           "Exchange on DMZ: bound to one socket, unbound, unbound + "
           "parked, and the 4-process variant",
           "bound-to-socket keeps the same-die advantage; four "
           "processes halve per-pair bandwidth");

    std::printf("%-10s  %-12s %-12s %-12s %-12s   [us/iter]\n",
                "size", "bound 0", "unbound", "unb+parked",
                "4 procs");
    for (double bytes = 64.0; bytes <= 4.0 * 1024 * 1024;
         bytes *= 16.0) {
        double t_b = exchange(dmzAffinity(kBound, 2, 1.0), bytes, 50);
        double t_u = exchange(dmzAffinity(kUnbound, 2, 1.15), bytes, 50);
        double t_p = exchange(dmzAffinity(kUnbound, 2, 1.30), bytes, 50);
        double t_4 = exchange(dmzAffinity(kBound, 4, 1.0), bytes, 50);
        std::printf("%-10s  %-12.2f %-12.2f %-12.2f %-12.2f\n",
                    formatBytes(bytes).c_str(), t_b * 1e6, t_u * 1e6,
                    t_p * 1e6, t_4 * 1e6);
    }

    double t_b = exchange(dmzAffinity(kBound, 2, 1.0), 1 << 20, 30);
    double t_u = exchange(dmzAffinity(kUnbound, 2, 1.15), 1 << 20, 30);
    std::printf("\n");
    observe("bound vs unbound 1MB exchange advantage",
            formatFixed((t_u / t_b - 1.0) * 100.0, 1) + "%");
}

} // namespace bench
} // namespace mcscope
