/**
 * @file
 * google-benchmark microbenchmarks of the simulation engine itself:
 * fair-share allocation, event throughput, and end-to-end experiment
 * cost.  These guard the harness's own performance (a full table
 * sweep runs hundreds of simulations).
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "core/experiment.hh"
#include "core/parallel_for.hh"
#include "kernels/nas_cg.hh"
#include "kernels/stream.hh"
#include "machine/config.hh"
#include "sim/fairshare.hh"
#include "sim/task.hh"

namespace mcscope {
namespace {

std::vector<FairShareFlow>
syntheticFlows(int nf)
{
    std::vector<FairShareFlow> flows;
    for (int f = 0; f < nf; ++f) {
        FairShareFlow fl;
        fl.path = {static_cast<ResourceId>(f % 16),
                   static_cast<ResourceId>((f * 7 + 3) % 16)};
        if (f % 3 == 0)
            fl.rateCap = 1.0e8;
        flows.push_back(fl);
    }
    return flows;
}

void
BM_FairShareReference(benchmark::State &state)
{
    // The retained allocation-per-call oracle, benchmarked so its
    // cost next to BM_FairShareSubsetSolve stays visible in
    // BENCH_engine.json.
    const int nf = static_cast<int>(state.range(0));
    std::vector<double> caps(16, 1.0e9);
    std::vector<FairShareFlow> flows = syntheticFlows(nf);
    for (auto _ : state) {
        auto rates = fairShareRatesReference(caps, flows);
        benchmark::DoNotOptimize(rates);
    }
}
BENCHMARK(BM_FairShareReference)->Arg(16);

void
BM_PathVecCopy(benchmark::State &state)
{
    // Copying a Work (engine does this on every flow start and
    // allocator rerun).  With the inline PathVec a 3-hop path never
    // touches the heap.
    const auto hops = static_cast<size_t>(state.range(0));
    Work proto;
    proto.amount = 1.0e6;
    for (size_t h = 0; h < hops; ++h)
        proto.path.push_back(static_cast<ResourceId>(h));
    for (auto _ : state) {
        Work copy = proto;
        benchmark::DoNotOptimize(copy.path.data());
    }
}
BENCHMARK(BM_PathVecCopy)->Arg(1)->Arg(3)->Arg(6);

void
BM_EngineEventThroughput(benchmark::State &state)
{
    const uint64_t iters = static_cast<uint64_t>(state.range(0));
    for (auto _ : state) {
        Engine e;
        ResourceId r = e.addResource("r", 1.0e9);
        Work w;
        w.amount = 1.0e6;
        w.path = {r};
        for (int t = 0; t < 4; ++t) {
            e.addTask(std::make_unique<LoopTask>(
                "t" + std::to_string(t), std::vector<Prim>{},
                std::vector<Prim>{w}, iters));
        }
        e.run();
        benchmark::DoNotOptimize(e.makespan());
    }
    state.SetItemsProcessed(state.iterations() * iters * 4);
}
BENCHMARK(BM_EngineEventThroughput)->Arg(100)->Arg(1000);

void
BM_EngineEventThroughputTraced(benchmark::State &state)
{
    // Same workload as BM_EngineEventThroughput but with a trace sink
    // installed, so the cost of emitting TraceEvents (path copies
    // included) stays visible.  Compare against the untraced variant:
    // tracing OFF must stay within noise of it, since the hot path
    // only pays a branch on tracing().
    const uint64_t iters = static_cast<uint64_t>(state.range(0));
    for (auto _ : state) {
        Engine e;
        ResourceId r = e.addResource("r", 1.0e9);
        Work w;
        w.amount = 1.0e6;
        w.path = {r};
        for (int t = 0; t < 4; ++t) {
            e.addTask(std::make_unique<LoopTask>(
                "t" + std::to_string(t), std::vector<Prim>{},
                std::vector<Prim>{w}, iters));
        }
        uint64_t sunk = 0;
        e.setTraceSink([&sunk](const TraceEvent &ev) {
            sunk += static_cast<uint64_t>(ev.kind) + 1;
        });
        e.run();
        benchmark::DoNotOptimize(sunk);
    }
    state.SetItemsProcessed(state.iterations() * iters * 4);
}
BENCHMARK(BM_EngineEventThroughputTraced)->Arg(1000);

void
BM_EngineEventThroughputTimeline(benchmark::State &state)
{
    // Untraced run with the utilization timeline sampling enabled:
    // the accrual loop touches every active flow per time step.
    const uint64_t iters = static_cast<uint64_t>(state.range(0));
    for (auto _ : state) {
        Engine e;
        ResourceId r = e.addResource("r", 1.0e9);
        Work w;
        w.amount = 1.0e6;
        w.path = {r};
        for (int t = 0; t < 4; ++t) {
            e.addTask(std::make_unique<LoopTask>(
                "t" + std::to_string(t), std::vector<Prim>{},
                std::vector<Prim>{w}, iters));
        }
        e.enableUtilizationTimeline(64);
        e.run();
        benchmark::DoNotOptimize(e.makespan());
    }
    state.SetItemsProcessed(state.iterations() * iters * 4);
}
BENCHMARK(BM_EngineEventThroughputTimeline)->Arg(1000);

void
BM_FairShareSubsetSolve(benchmark::State &state)
{
    // The incremental-solve primitive: re-solve a 4-flow closure out
    // of nf total flows.  Cost must track the closure size, not nf --
    // this is the whole point of the dirty-set path.
    const int nf = static_cast<int>(state.range(0));
    std::vector<double> caps(16, 1.0e9);
    std::vector<FairShareFlow> all = syntheticFlows(nf);
    std::vector<PathVec> paths;
    std::vector<double> rateCaps;
    for (const FairShareFlow &f : all) {
        paths.push_back(f.path);
        rateCaps.push_back(f.rateCap);
    }
    // A closed 4-flow subset: flows sharing resources 0 and 7 only.
    const int slots[4] = {0, 1, 2, 3};
    for (int k = 0; k < 4; ++k)
        paths[slots[k]] = {static_cast<ResourceId>(0),
                           static_cast<ResourceId>(7)};
    const ResourceId res[2] = {0, 7};
    FairShareScratch scratch;
    for (auto _ : state) {
        fairShareSolveSubset(caps, paths, rateCaps, slots, 4, res, 2,
                             scratch);
        benchmark::DoNotOptimize(scratch.rates.data());
    }
}
BENCHMARK(BM_FairShareSubsetSolve)->Arg(64)->Arg(1024)->Arg(16384);

void
BM_EngineManyComponents(benchmark::State &state)
{
    // Sub-linearity showcase: nt tasks each looping Work on a private
    // resource.  Every arrival/departure dirties exactly one resource,
    // so the incremental solver re-solves a 1-flow closure regardless
    // of nt.  Events-per-second should stay roughly flat as nt grows;
    // the old global re-solve made each event cost O(nt).
    const int nt = static_cast<int>(state.range(0));
    const uint64_t iters = 50;
    for (auto _ : state) {
        Engine e;
        std::vector<Prim> body(1);
        for (int t = 0; t < nt; ++t) {
            ResourceId r =
                e.addResource("r" + std::to_string(t), 1.0e9);
            Work w;
            w.amount = 1.0e6 * (1.0 + 0.1 * (t % 7));
            w.path = {r};
            e.addTask(std::make_unique<LoopTask>(
                "t" + std::to_string(t), std::vector<Prim>{},
                std::vector<Prim>{w}, iters));
        }
        e.run();
        benchmark::DoNotOptimize(e.makespan());
    }
    state.SetItemsProcessed(state.iterations() * iters *
                            static_cast<uint64_t>(nt));
}
BENCHMARK(BM_EngineManyComponents)->Arg(4)->Arg(32)->Arg(256);

void
BM_EngineIdleResources(benchmark::State &state)
{
    // BM_EngineEventThroughput's 4 tasks on one shared resource, on a
    // machine with n more resources that no flow touches (T3-4 has
    // ~600 resources and at most 16 active flows).  Every re-solve's
    // closure is the whole flow set, so per-event cost must track
    // the closure, not the machine: /1024 should run at about /0's
    // rate.
    const int idle = static_cast<int>(state.range(0));
    const uint64_t iters = 1000;
    for (auto _ : state) {
        Engine e;
        ResourceId r = e.addResource("r", 1.0e9);
        for (int i = 0; i < idle; ++i)
            e.addResource("idle" + std::to_string(i), 1.0e9);
        Work w;
        w.amount = 1.0e6;
        w.path = {r};
        for (int t = 0; t < 4; ++t) {
            e.addTask(std::make_unique<LoopTask>(
                "t" + std::to_string(t), std::vector<Prim>{},
                std::vector<Prim>{w}, iters));
        }
        e.run();
        benchmark::DoNotOptimize(e.makespan());
    }
    state.SetItemsProcessed(state.iterations() * iters * 4);
}
BENCHMARK(BM_EngineIdleResources)->Arg(0)->Arg(1024);

void
BM_StreamExperiment(benchmark::State &state)
{
    StreamWorkload stream(4u << 20, 10);
    ExperimentConfig cfg;
    cfg.machine = longsConfig();
    cfg.option = table5Options()[0];
    cfg.ranks = static_cast<int>(state.range(0));
    for (auto _ : state) {
        RunResult r = runExperiment(cfg, stream);
        benchmark::DoNotOptimize(r.seconds);
    }
}
BENCHMARK(BM_StreamExperiment)->Arg(1)->Arg(16);

void
BM_CoherenceProbe(benchmark::State &state)
{
    // Per-slice probe pricing on the memoryWorks hot path: a snoopy
    // broadcast on a Longs-sized machine.  memoryWorks calls this for
    // every memory slice when a modeled mode is on, so emission must
    // stay cheap (and allocation-free once `flows` has warmed up).
    MachineConfig cfg = longsConfig();
    cfg.coherence.mode = CoherenceMode::Snoopy;
    CoherenceModel model(cfg.coherence, cfg.sockets);
    std::vector<CoherenceFlow> flows;
    for (auto _ : state) {
        flows.clear();
        model.priceAccess(0, 3, 1.0e6,
                          SharingDescriptor::privateData(), flows);
        benchmark::DoNotOptimize(flows.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoherenceProbe);

void
BM_StreamExperimentSnoopy(benchmark::State &state)
{
    // The Longs STREAM shape with modeled snoopy probe traffic: every
    // memory slice also emits HT probe flows, so this is the
    // end-to-end cost of the emergent-coherence path.  Compare
    // against BM_StreamExperiment (legacy-alpha, no flows) to see the
    // modeling overhead.
    StreamWorkload stream(4u << 20, 10);
    ExperimentConfig cfg;
    cfg.machine = longsConfig();
    cfg.machine.coherence.mode = CoherenceMode::Snoopy;
    cfg.option = table5Options()[0];
    cfg.ranks = static_cast<int>(state.range(0));
    for (auto _ : state) {
        RunResult r = runExperiment(cfg, stream);
        benchmark::DoNotOptimize(r.seconds);
    }
}
BENCHMARK(BM_StreamExperimentSnoopy)->Arg(16);

void
BM_NasCgExperiment(benchmark::State &state)
{
    NasCgWorkload cg(nasCgClassB());
    ExperimentConfig cfg;
    cfg.machine = longsConfig();
    cfg.option = table5Options()[0];
    cfg.ranks = static_cast<int>(state.range(0));
    for (auto _ : state) {
        RunResult r = runExperiment(cfg, cg);
        benchmark::DoNotOptimize(r.seconds);
    }
}
BENCHMARK(BM_NasCgExperiment)->Arg(16);

void
BM_SweepThroughput(benchmark::State &state)
{
    // The Table 2/3 macro shape: a full numactl-option x rank-count
    // grid.  Arg is the parallel_for job count; grid points per
    // second is the sweep-level throughput figure.
    const int jobs = static_cast<int>(state.range(0));
    StreamWorkload stream(4u << 20, 10);
    MachineConfig machine = longsConfig();
    const std::vector<int> ranks = {2, 4, 8, 16};
    const size_t grid =
        ranks.size() * table5Options().size();
    for (auto _ : state) {
        OptionSweepResult r =
            sweepOptions(machine, ranks, stream, MpiImpl::OpenMpi,
                         SubLayer::USysV, -1, jobs);
        benchmark::DoNotOptimize(r.seconds.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(grid));
}
BENCHMARK(BM_SweepThroughput)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

} // namespace
} // namespace mcscope

int
main(int argc, char **argv)
{
    // Stamp the report with the build flavor of *this* translation
    // unit (google-benchmark's own library_build_type key reflects how
    // the benchmark library was compiled, which can differ).
    // tools/check_bench_regression.py refuses to compare reports whose
    // harness was built with assertions enabled.
#ifdef NDEBUG
    benchmark::AddCustomContext("mcscope_build_type", "release");
#else
    benchmark::AddCustomContext("mcscope_build_type", "debug");
#endif
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
