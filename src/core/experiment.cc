#include "core/experiment.hh"

#include <memory>

#include "core/plan.hh"
#include "core/runner.hh"
#include "machine/machine.hh"
#include "sim/audit.hh"
#include "simmpi/comm.hh"
#include "util/logging.hh"

namespace mcscope {

SimTime
RunResult::tagged(int tag) const
{
    auto it = taggedSeconds.find(tag);
    return it == taggedSeconds.end() ? 0.0 : it->second;
}

RunResult
runExperiment(const ExperimentConfig &config, const Workload &workload)
{
    Machine machine(config.machine);
    return runExperimentOn(machine, config, workload);
}

RunResult
runExperimentOn(Machine &machine, const ExperimentConfig &config,
                const Workload &workload)
{
    RunResult res;

    auto placement = Placement::create(config.machine, machine.topology(),
                                       config.option, config.ranks);
    if (!placement)
        return res; // invalid combination: a "-" table cell

    MpiRuntime rt(machine, *placement, config.impl, config.sublayer);
    if (config.latencyNoise != 1.0)
        rt.setLatencyNoiseFactor(config.latencyNoise);

    workload.buildTasks(machine, rt);
    Engine &engine = machine.engine();
    if (config.audit && !engine.auditor())
        engine.setAuditor(std::make_unique<Auditor>());
    if (config.timelineBuckets > 0 && !engine.timelineEnabled())
        engine.enableUtilizationTimeline(config.timelineBuckets);
    MCSCOPE_ASSERT(engine.taskCount() == config.ranks,
                   "workload '", workload.name(), "' built ",
                   engine.taskCount(), " tasks for ", config.ranks,
                   " ranks");
    engine.run();

    res.valid = true;
    res.seconds = engine.makespan();
    for (int tag = 0; tag <= 8; ++tag) {
        SimTime t = engine.maxTaggedTime(tag);
        if (t > 0.0)
            res.taggedSeconds[tag] = t;
    }
    res.events = engine.eventCount();
    const Engine::Stats stats = engine.stats();
    res.incrementalSolves = stats.incrementalSolves;
    res.fullSolves = stats.fullSolves;
    if (const Auditor *auditor = engine.auditor()) {
        res.audited = true;
        res.auditDigest = auditor->digest();
        res.auditChecks = auditor->allocationsChecked();
    }
    return res;
}

namespace {

/**
 * Axes shared by both legacy adapters: one caller-owned workload on
 * one machine.  The workload's display name stands in for a registry
 * name; the runner executes through RunnerOptions::workloadOverride,
 * so the name never reaches the registry.
 */
SweepAxes
adapterAxes(const MachineConfig &machine,
            const std::vector<int> &rank_counts, const Workload &workload,
            MpiImpl impl, SubLayer sublayer)
{
    SweepAxes axes;
    axes.machinePreset.clear();
    axes.machine = machine;
    axes.workloads = {workload.name()};
    axes.rankCounts = rank_counts;
    axes.impls = {impl};
    axes.sublayers = {sublayer};
    return axes;
}

} // namespace

OptionSweepResult
sweepOptions(const MachineConfig &machine,
             const std::vector<int> &rank_counts, const Workload &workload,
             MpiImpl impl, SubLayer sublayer, int tag, int jobs,
             SweepTelemetry *telemetry)
{
    if (rank_counts.empty()) {
        OptionSweepResult out;
        out.options = table5Options();
        if (telemetry) {
            telemetry->jobs = jobs < 1 ? 1 : jobs;
            telemetry->points.clear();
            telemetry->wallSeconds = 0.0;
        }
        return out;
    }
    SweepPlan plan = SweepPlan::expand(
        adapterAxes(machine, rank_counts, workload, impl, sublayer));
    RunnerOptions opts;
    opts.jobs = jobs;
    opts.workloadOverride = &workload;
    opts.telemetry = telemetry;
    PlanResults results = runPlan(plan, opts);
    return optionSweepSlice(plan, results, 0, 0, 0, tag);
}

std::vector<double>
defaultScalingTimes(const MachineConfig &machine,
                    const std::vector<int> &rank_counts,
                    const Workload &workload, int tag, int jobs,
                    SweepTelemetry *telemetry)
{
    std::vector<double> out(rank_counts.size(), 0.0);
    if (rank_counts.empty()) {
        if (telemetry) {
            telemetry->jobs = jobs < 1 ? 1 : jobs;
            telemetry->points.clear();
            telemetry->wallSeconds = 0.0;
        }
        return out;
    }
    SweepAxes axes = adapterAxes(machine, rank_counts, workload,
                                 MpiImpl::OpenMpi, SubLayer::USysV);
    axes.options = {table5Options().front()}; // Default
    SweepPlan plan = SweepPlan::expand(axes);
    RunnerOptions opts;
    opts.jobs = jobs;
    opts.workloadOverride = &workload;
    opts.telemetry = telemetry;
    PlanResults results = runPlan(plan, opts);
    for (size_t i = 0; i < rank_counts.size(); ++i) {
        const RunResult &r =
            results.at(plan, plan.pointIndex(0, 0, 0, i, 0));
        MCSCOPE_ASSERT(r.valid, "default placement rejected ",
                       rank_counts[i], " ranks on ", machine.name);
        out[i] = tag < 0 ? r.seconds : r.tagged(tag);
    }
    // The scaling tables historically label telemetry "default"
    // rather than the Table 5 option label.
    if (telemetry) {
        for (GridPointSample &sample : telemetry->points)
            sample.label = "default";
    }
    return out;
}

} // namespace mcscope
