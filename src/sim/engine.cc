#include "sim/engine.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/alloc_guard.hh"
#include "sim/audit.hh"
#include "sim/fairshare.hh"
#include "util/logging.hh"

namespace mcscope {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
} // namespace

Engine::Engine()
{
    if (auditRequestedByEnv())
        auditor_ = std::make_unique<Auditor>();
}

Engine::~Engine() = default;

void
Engine::setAuditor(std::unique_ptr<Auditor> auditor)
{
    auditor_ = std::move(auditor);
}

void
Engine::emitTrace(const TraceEvent &event)
{
    // Auditor and sink are diagnostic/user code, outside the
    // steady-state zero-allocation contract.
    alloc_guard::Pause pause;
    if (auditor_)
        auditor_->onTraceEvent(event);
    if (traceSink_)
        traceSink_(event);
}

const char *
traceEventKindName(TraceEvent::Kind kind)
{
    switch (kind) {
      case TraceEvent::Kind::FlowStart:
        return "flow-start";
      case TraceEvent::Kind::FlowEnd:
        return "flow-end";
      case TraceEvent::Kind::DelayEnd:
        return "delay-end";
      case TraceEvent::Kind::TaskFinish:
        return "task-finish";
    }
    return "?";
}

ResourceId
Engine::addResource(std::string name, double capacity)
{
    MCSCOPE_ASSERT(capacity > 0.0,
                   "resource '", name, "' needs positive capacity, got ",
                   capacity);
    resourceNames_.push_back(std::move(name));
    capacities_.push_back(capacity);
    stats_.emplace_back();
    resFlows_.emplace_back();
    resDirty_.push_back(0);
    resInClosure_.push_back(0);
    return static_cast<ResourceId>(capacities_.size() - 1);
}

int
Engine::addTask(std::unique_ptr<Task> task)
{
    MCSCOPE_ASSERT(task != nullptr, "null task");
    TaskEntry entry;
    entry.task = std::move(task);
    tasks_.push_back(std::move(entry));
    return static_cast<int>(tasks_.size() - 1);
}

SimTime
Engine::taskFinishTime(int task) const
{
    MCSCOPE_ASSERT(task >= 0 && task < taskCount(), "bad task id ", task);
    MCSCOPE_ASSERT(tasks_[task].state == TaskState::Finished,
                   "task ", task, " has not finished");
    return tasks_[task].finishTime;
}

SimTime
Engine::makespan() const
{
    SimTime m = 0.0;
    for (const auto &t : tasks_)
        m = std::max(m, t.finishTime);
    return m;
}

SimTime
Engine::taggedTime(int task, PhaseTag tag) const
{
    MCSCOPE_ASSERT(task >= 0 && task < taskCount(), "bad task id ", task);
    MCSCOPE_ASSERT(tag >= 0 && tag < kPhaseTagSlots,
                   "phase tag ", tag, " out of range [0, ",
                   kPhaseTagSlots, ")");
    return tasks_[task].taggedTime[tag];
}

SimTime
Engine::maxTaggedTime(PhaseTag tag) const
{
    SimTime m = 0.0;
    for (int t = 0; t < taskCount(); ++t)
        m = std::max(m, taggedTime(t, tag));
    return m;
}

double
Engine::resourceUnitsMoved(ResourceId r) const
{
    MCSCOPE_ASSERT(r >= 0 && r < resourceCount(), "bad resource id ", r);
    return stats_[r].unitsMoved;
}

int
Engine::resourcePeakConcurrency(ResourceId r) const
{
    MCSCOPE_ASSERT(r >= 0 && r < resourceCount(), "bad resource id ", r);
    return stats_[r].peakConcurrency;
}

double
Engine::resourceUtilization(ResourceId r) const
{
    MCSCOPE_ASSERT(r >= 0 && r < resourceCount(), "bad resource id ", r);
    SimTime span = makespan();
    if (span <= 0.0)
        return 0.0;
    return stats_[r].unitsMoved / (capacities_[r] * span);
}

const std::string &
Engine::resourceName(ResourceId r) const
{
    MCSCOPE_ASSERT(r >= 0 && r < resourceCount(), "bad resource id ", r);
    return resourceNames_[r];
}

double
Engine::resourceCapacity(ResourceId r) const
{
    MCSCOPE_ASSERT(r >= 0 && r < resourceCount(), "bad resource id ", r);
    return capacities_[r];
}

void
Engine::accrueBlockedTime(int task)
{
    TaskEntry &t = tasks_[task];
    MCSCOPE_ASSERT(t.blockTag >= 0 && t.blockTag < kPhaseTagSlots,
                   "phase tag ", t.blockTag, " out of range [0, ",
                   kPhaseTagSlots, ")");
    t.taggedTime[t.blockTag] += now_ - t.blockStart;
}

void
Engine::markResourceDirty(ResourceId r)
{
    if (!resDirty_[r]) {
        resDirty_[r] = 1;
        dirtyRes_.push_back(r);
    }
}

void
Engine::startFlow(const Work &w, OwnerVec owners, PhaseTag tag)
{
    if (tracing()) {
        emitTrace({TraceEvent::Kind::FlowStart, now_, owners[0], tag,
                   w.amount, w.path});
    }

    FlowSlot slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = static_cast<FlowSlot>(slotCount());
        flowRemaining_.push_back(kInf);
        flowRate_.push_back(0.0);
        flowFinish_.push_back(kInf);
        flowThresh_.push_back(-1.0);
        flowAmount_.push_back(0.0);
        flowRateCap_.push_back(0.0);
        flowPath_.emplace_back();
        flowOwners_.emplace_back();
        flowTag_.push_back(0);
        flowAlive_.push_back(0);
        flowPosInRes_.emplace_back();
        flowInClosure_.push_back(0);
    }

    flowRemaining_[slot] = w.amount;
    flowRate_[slot] = 0.0;
    flowFinish_[slot] = kInf;
    flowThresh_[slot] = 1e-9 * std::max(1.0, w.amount) + 1e-300;
    flowAmount_[slot] = w.amount;
    flowRateCap_[slot] = w.rateCap;
    flowPath_[slot] = w.path;
    flowOwners_[slot] = std::move(owners);
    flowTag_[slot] = tag;
    flowAlive_[slot] = 1;

    // Wire up per-resource incidence and dirty the path.  The running
    // incidence counts also track peak concurrency exactly: the count
    // only changes by one per arrival/departure, so every peak is
    // attained immediately after some arrival.
    flowPosInRes_[slot].clear();
    for (ResourceId r : w.path) {
        flowPosInRes_[slot].push_back(
            static_cast<int>(resFlows_[r].size()));
        resFlows_[r].push_back(slot);
        const int users = static_cast<int>(resFlows_[r].size());
        if (users > stats_[r].peakConcurrency)
            stats_[r].peakConcurrency = users;
        markResourceDirty(r);
    }
    newFlows_.push_back(slot);
    ++activeFlows_;
    if (activeFlows_ > counters_.peakActiveFlows)
        counters_.peakActiveFlows = activeFlows_;
    ratesDirty_ = true;
}

void
Engine::removeFlow(FlowSlot slot)
{
    const PathVec &path = flowPath_[slot];
    for (size_t h = 0; h < path.size(); ++h) {
        const ResourceId r = path[h];
        auto &list = resFlows_[r];
        const int pos = flowPosInRes_[slot][h];
        const int backIdx = static_cast<int>(list.size()) - 1;
        const FlowSlot moved = list[backIdx];
        list[pos] = moved;
        list.pop_back();
        if (pos != backIdx) {
            // Fix the moved flow's position handle for resource r.
            // With duplicate resources on a path the flow holds one
            // handle per hop; match on the handle that pointed at the
            // vacated back index.
            const PathVec &mp = flowPath_[moved];
            for (size_t mh = 0; mh < mp.size(); ++mh) {
                if (mp[mh] == r &&
                    flowPosInRes_[moved][mh] == backIdx) {
                    flowPosInRes_[moved][mh] = pos;
                    break;
                }
            }
        }
        markResourceDirty(r);
    }

    // Neutralize the slot for the flat hot-loop scans: zero rate moves
    // nothing, infinite remaining never crosses a negative threshold.
    flowAlive_[slot] = 0;
    flowRemaining_[slot] = kInf;
    flowRate_[slot] = 0.0;
    flowFinish_[slot] = kInf;
    flowThresh_[slot] = -1.0;
    flowPath_[slot].clear();
    flowOwners_[slot].clear();
    flowPosInRes_[slot].clear();
    // MCSCOPE_LINT_ALLOW(HOT-1): amortized capacity reuse.
    freeSlots_.push_back(slot);
    --activeFlows_;
    ratesDirty_ = true;
}

void
Engine::applyRates(const FlowSlot *slots, size_t count,
                   const double *rates)
{
    for (size_t k = 0; k < count; ++k) {
        const FlowSlot s = slots[k];
        const double rate = rates[k];
        MCSCOPE_ASSERT(rate > 0.0, "flow got a non-positive rate");
        if (rate == flowRate_[s])
            continue;
        // Re-anchor the absolute finish estimate only when the rate
        // actually changed: both allocator paths then derive identical
        // finish-time bit patterns from identical rate bit patterns,
        // which is what keeps their event sequences -- and hence the
        // determinism digests -- bit-identical.
        flowRate_[s] = rate;
        flowFinish_[s] = now_ + flowRemaining_[s] / rate;
    }
}

void
Engine::solveOptimized()
{
    // Closure of the dirty resources: alternate resource -> incident
    // flows -> their other path resources until the component of
    // every changed flow is covered.  Flows outside the closure share
    // no resource (transitively) with any changed flow, so their
    // max-min rates are provably unchanged and are left untouched.
    closureRes_.clear();
    closureFlows_.clear();
    for (ResourceId r : dirtyRes_) {
        if (!resInClosure_[r]) {
            resInClosure_[r] = 1;
            // MCSCOPE_LINT_ALLOW(HOT-1): amortized capacity reuse.
            closureRes_.push_back(r);
        }
    }
    for (size_t i = 0; i < closureRes_.size(); ++i) {
        const ResourceId r = closureRes_[i];
        for (FlowSlot s : resFlows_[r]) {
            if (flowInClosure_[s])
                continue;
            flowInClosure_[s] = 1;
            // MCSCOPE_LINT_ALLOW(HOT-1): amortized capacity reuse.
            closureFlows_.push_back(s);
            for (ResourceId rr : flowPath_[s]) {
                if (!resInClosure_[rr]) {
                    resInClosure_[rr] = 1;
                    // MCSCOPE_LINT_ALLOW(HOT-1): amortized reuse.
                    closureRes_.push_back(rr);
                }
            }
        }
    }
    for (ResourceId r : closureRes_)
        resInClosure_[r] = 0;
    for (FlowSlot s : closureFlows_)
        flowInClosure_[s] = 0;

    // Statistics only: a closure holding more than half the active
    // flows counts as a wide ("full") solve, but is solved alone all
    // the same.
    if (2 * closureFlows_.size() <= static_cast<size_t>(activeFlows_))
        ++counters_.incrementalSolves;
    else
        ++counters_.fullSolves;

    // Slot order makes the subset's per-round residual-update
    // sequence match a whole-set solve (see fairShareSolveSubset).
    std::sort(closureFlows_.begin(), closureFlows_.end());
    fairShareSolveSubset(capacities_, flowPath_, flowRateCap_,
                         closureFlows_.data(), closureFlows_.size(),
                         closureRes_.data(), closureRes_.size(),
                         fsScratch_);
    applyRates(closureFlows_.data(), closureFlows_.size(),
               fsScratch_.rates.data());

    // Empty-path capped arrivals touch no resource, so no closure
    // reaches them; their max-min rate is simply their cap.
    for (FlowSlot s : newFlows_) {
        if (!flowAlive_[s] || !flowPath_[s].empty() ||
            flowRate_[s] != 0.0) {
            continue;
        }
        const double cap = flowRateCap_[s];
        applyRates(&s, 1, &cap);
    }
}

void
Engine::solveReference()
{
    specScratch_.clear();
    closureFlows_.clear();
    for (size_t s = 0; s < slotCount(); ++s) {
        if (!flowAlive_[s])
            continue;
        closureFlows_.push_back(static_cast<FlowSlot>(s));
        FairShareFlow spec;
        spec.path = flowPath_[s];
        spec.rateCap = flowRateCap_[s];
        specScratch_.push_back(std::move(spec));
    }
    fsScratch_.rates = fairShareRatesReference(capacities_, specScratch_);
    applyRates(closureFlows_.data(), closureFlows_.size(),
               fsScratch_.rates.data());
    ++counters_.fullSolves;
}

void
Engine::recomputeRates()
{
    ++counters_.allocatorReruns;
    // All scratch containers below persist across calls; clear() and
    // push_back() reuse their capacity, so the steady-state hot path
    // is allocation-free.
    if (allocator_ == AllocatorKind::Reference)
        solveReference();
    else
        solveOptimized();

    for (ResourceId r : dirtyRes_)
        resDirty_[r] = 0;
    dirtyRes_.clear();
    newFlows_.clear();
    ratesDirty_ = false;

    if (auditor_) {
        // Runtime auditing is a validation layer, not steady state.
        alloc_guard::Pause pause;
        auditScratch_.clear();
        for (size_t s = 0; s < slotCount(); ++s) {
            if (!flowAlive_[s])
                continue;
            AuditedFlow af;
            af.path = flowPath_[s];
            af.rateCap = flowRateCap_[s];
            af.rate = flowRate_[s];
            af.remaining = flowRemaining_[s];
            af.owner = flowOwners_[s][0];
            af.tag = flowTag_[s];
            auditScratch_.push_back(std::move(af));
        }
        auditor_->onAllocation(capacities_, auditScratch_, now_);
    }
}

void
Engine::enableUtilizationTimeline(int target_buckets)
{
    MCSCOPE_ASSERT(target_buckets > 0,
                   "timeline needs a positive bucket target, got ",
                   target_buckets);
    MCSCOPE_ASSERT(now_ == 0.0 && counters_.timeSteps == 0,
                   "timeline must be enabled before run()");
    timelineTarget_ = target_buckets;
    timelineWidth_ = 0.0;
    timelineBuckets_ = 0;
    timelineBusy_.clear();
}

double
Engine::timelineBusyTime(ResourceId r, int b) const
{
    MCSCOPE_ASSERT(r >= 0 && r < resourceCount(), "bad resource id ", r);
    MCSCOPE_ASSERT(b >= 0 && static_cast<size_t>(b) < timelineBuckets_,
                   "bad timeline bucket ", b, " of ", timelineBuckets_);
    return timelineBusy_[static_cast<size_t>(b) * capacities_.size() + r];
}

void
Engine::rebinTimeline()
{
    const size_t nres = capacities_.size();
    const size_t merged = (timelineBuckets_ + 1) / 2;
    for (size_t b = 0; b < merged; ++b) {
        double *dst = &timelineBusy_[b * nres];
        const double *lo = &timelineBusy_[2 * b * nres];
        for (size_t r = 0; r < nres; ++r)
            dst[r] = lo[r];
        if (2 * b + 1 < timelineBuckets_) {
            const double *hi = &timelineBusy_[(2 * b + 1) * nres];
            for (size_t r = 0; r < nres; ++r)
                dst[r] += hi[r];
        }
    }
    timelineBuckets_ = merged;
    timelineBusy_.resize(merged * nres);
    timelineWidth_ *= 2.0;
}

void
Engine::accrueTimeline(SimTime t0, SimTime t1)
{
    const size_t nres = capacities_.size();
    if (timelineWidth_ <= 0.0)
        timelineWidth_ = (t1 - t0); // first non-zero step sets the scale

    // Make sure the bucket covering t1 exists, doubling the width
    // until the populated count stays within 2 * target.
    size_t need = static_cast<size_t>(t1 / timelineWidth_) + 1;
    while (need > 2 * static_cast<size_t>(timelineTarget_)) {
        if (timelineBuckets_ > 0)
            rebinTimeline();
        else
            timelineWidth_ *= 2.0;
        need = static_cast<size_t>(t1 / timelineWidth_) + 1;
    }
    if (need > timelineBuckets_) {
        timelineBusy_.resize(need * nres, 0.0);
        timelineBuckets_ = need;
    }

    // Split [t0, t1] over the buckets it overlaps; each flow moved
    // rate * overlap units through every resource on its path, which
    // is overlap-weighted busy time after dividing by capacity.  Dead
    // slots are inert: rate 0 and an empty path contribute nothing.
    const double span = t1 - t0;
    size_t b0 = static_cast<size_t>(t0 / timelineWidth_);
    size_t b1 = need - 1;
    for (size_t b = b0; b <= b1; ++b) {
        double lo = std::max(t0, static_cast<double>(b) * timelineWidth_);
        double hi = std::min(
            t1, static_cast<double>(b + 1) * timelineWidth_);
        double overlap = hi - lo;
        if (overlap <= 0.0)
            continue;
        double frac = overlap / span;
        double *bucket = &timelineBusy_[b * nres];
        for (size_t s = 0; s < slotCount(); ++s) {
            double moved = flowRate_[s] * span;
            if (moved > flowRemaining_[s])
                moved = flowRemaining_[s];
            double busy = moved * frac;
            for (ResourceId r : flowPath_[s])
                bucket[r] += busy / capacities_[r];
        }
    }
}

[[noreturn]] void
Engine::panicDeadlock() const
{
    std::string diag;
    for (int i = 0; i < taskCount(); ++i) {
        if (tasks_[i].state == TaskState::Finished)
            continue;
        diag += " task " + std::to_string(i) + "(" +
                tasks_[i].task->name() + ") state " +
                std::to_string(static_cast<int>(tasks_[i].state));
    }
    MCSCOPE_PANIC("simulation deadlock:", diag);
}

size_t
Engine::allocGuardCapacitySum(const std::vector<int> &to_advance) const
{
    size_t incidence = resFlows_.capacity();
    for (const auto &list : resFlows_)
        incidence += list.capacity();
    return specScratch_.capacity() + fsScratch_.capacitySum() +
           auditScratch_.capacity() + timelineBusy_.capacity() +
           readyQueue_.capacity() + to_advance.capacity() +
           flowRemaining_.capacity() + flowPath_.capacity() +
           flowOwners_.capacity() + flowPosInRes_.capacity() +
           freeSlots_.capacity() + newFlows_.capacity() +
           dirtyRes_.capacity() + closureRes_.capacity() +
           closureFlows_.capacity() + completedScratch_.capacity() +
           delayHeap_.capacity() + incidence;
}

void
Engine::run()
{
    unfinished_ = taskCount();
    MCSCOPE_ASSERT(unfinished_ > 0, "run() with no tasks");

    if (auditor_) {
        // Audited runs double as bit-identity gates for the dirty-set
        // incremental allocator: every allocation is cross-checked
        // against a fresh whole-set reference solve, bit for bit.
        auditor_->setExactRateCheck(true);
    }

    for (int i = 0; i < taskCount(); ++i) {
        if (tasks_[i].state == TaskState::Unstarted) {
            tasks_[i].state = TaskState::Ready;
            advanceTask(i);
            while (!readyQueue_.empty()) {
                int r = readyQueue_.back();
                readyQueue_.pop_back();
                if (tasks_[r].state == TaskState::Ready)
                    advanceTask(r);
            }
        }
    }

    std::vector<int> to_advance;

    // Debug zero-allocation guard (sim/alloc_guard.hh): count this
    // thread's heap allocations across each loop iteration and demand
    // zero unless a tracked scratch buffer grew its capacity that
    // same iteration (capacities are monotone, so the sum grows iff
    // some buffer grew -- that is the legitimate warm-up path).
    // Compiled out entirely in non-Debug builds.
    const bool guard_on = alloc_guard::kEnabled && allocGuardEnforced_;
    const bool guard_outermost = guard_on && !alloc_guard::armed();
    uint64_t guard_allocs = 0;
    size_t guard_capacity = 0;
    if (guard_on) {
        if (guard_outermost)
            alloc_guard::arm();
        guard_allocs = alloc_guard::allocationCount();
        guard_capacity = allocGuardCapacitySum(to_advance);
    }

    // MCSCOPE_HOT_BEGIN: Engine::run steady-state loop.  No heap
    // allocation below (mcscope-lint rule HOT-1; runtime counterpart
    // above).  Event-driven work is funneled through advanceTask() /
    // emitTrace(), which pause the guard and are exempt by design.
    while (unfinished_ > 0) {
        if (ratesDirty_)
            recomputeRates();

        // Earliest flow completion: a flat min over the stored
        // absolute finish times.  They are invariant while rates are
        // unchanged (each flow drains at a constant rate), so
        // applyRates() re-anchors them only on rate changes; dead
        // slots hold +inf and need no alive test.
        double dt_flow = kInf;
        if (activeFlows_ > 0) {
            const size_t n = slotCount();
            const double *finish = flowFinish_.data();
            double earliest = kInf;
            for (size_t s = 0; s < n; ++s)
                earliest = std::min(earliest, finish[s]);
            dt_flow = earliest - now_;
            if (dt_flow <= 0.0) {
                // now_ accumulates dt with different round-off than
                // remaining accumulates rate*dt, so now_ can reach the
                // stored finish time while the nearest flow still
                // carries an epsilon of work above the completion
                // tolerance.  Fall back to the direct scan, whose
                // remaining/rate is strictly positive, so time always
                // advances and the flow drains on the next step.
                ++counters_.fallbackScans;
                dt_flow = kInf;
                for (size_t s = 0; s < slotCount(); ++s) {
                    if (!flowAlive_[s])
                        continue;
                    double d = flowRemaining_[s] / flowRate_[s];
                    if (d < dt_flow)
                        dt_flow = d;
                }
            }
        }
        // Earliest delay expiry.  Coincident expiries can land an
        // epsilon in the past from float round-off; clamp at zero so
        // time never steps backwards.
        double dt_delay = kInf;
        if (!delayHeap_.empty()) {
            dt_delay = delayHeap_.front().time - now_;
            if (dt_delay < 0.0)
                dt_delay = 0.0;
        }

        double dt = std::min(dt_flow, dt_delay);
        if (!std::isfinite(dt))
            panicDeadlock();
        if (dt < 0.0)
            dt = 0.0;

        // Advance time and integrate resource statistics.
        SimTime prev = now_;
        now_ += dt;
        ++counters_.timeSteps;
        if (auditor_) {
            alloc_guard::Pause pause;
            auditor_->onTimeAdvance(prev, now_);
        }
        for (size_t s = 0; s < slotCount(); ++s) {
            double moved = flowRate_[s] * dt;
            if (moved > flowRemaining_[s])
                moved = flowRemaining_[s];
            for (ResourceId r : flowPath_[s])
                stats_[r].unitsMoved += moved;
        }
        if (timelineTarget_ > 0 && dt > 0.0)
            accrueTimeline(prev, now_);

        // Drain and complete flows.  The structure-of-arrays layout
        // splits this into a branch-free vectorizable drain pass and a
        // comparison scan; dead slots are inert (rate 0, remaining
        // +inf, threshold -1), so neither pass needs an alive test.
        to_advance.clear();
        completedScratch_.clear();
        {
            const size_t n = slotCount();
            double *rem = flowRemaining_.data();
            const double *rate = flowRate_.data();
            for (size_t s = 0; s < n; ++s)
                rem[s] -= rate[s] * dt;
            const double *thresh = flowThresh_.data();
            for (size_t s = 0; s < n; ++s) {
                if (rem[s] <= thresh[s]) {
                    // MCSCOPE_LINT_ALLOW(HOT-1): amortized reuse.
                    completedScratch_.push_back(
                        static_cast<FlowSlot>(s));
                }
            }
        }
        for (FlowSlot slot : completedScratch_) {
            if (tracing()) {
                emitTrace({TraceEvent::Kind::FlowEnd, now_,
                           flowOwners_[slot][0], flowTag_[slot],
                           flowAmount_[slot], flowPath_[slot]});
            }
            for (int owner : flowOwners_[slot]) {
                accrueBlockedTime(owner);
                tasks_[owner].state = TaskState::Ready;
                // MCSCOPE_LINT_ALLOW(HOT-1): amortized capacity reuse.
                to_advance.push_back(owner);
            }
            removeFlow(slot);
        }

        // Expire delays, in (time, insertion) order.
        while (!delayHeap_.empty() &&
               delayHeap_.front().time <= now_ + 1e-15) {
            const int task = delayHeap_.front().task;
            std::pop_heap(delayHeap_.begin(), delayHeap_.end(),
                          DelayAfter{});
            delayHeap_.pop_back();
            if (tracing()) {
                emitTrace({TraceEvent::Kind::DelayEnd, now_, task,
                           tasks_[task].blockTag, 0.0, {}});
            }
            accrueBlockedTime(task);
            tasks_[task].state = TaskState::Ready;
            // MCSCOPE_LINT_ALLOW(HOT-1): amortized capacity reuse.
            to_advance.push_back(task);
        }

        // Advance released tasks (which may release further tasks).
        for (size_t i = 0; i < to_advance.size(); ++i) {
            int task = to_advance[i];
            if (tasks_[task].state != TaskState::Ready)
                continue;
            advanceTask(task);
            while (!readyQueue_.empty()) {
                // MCSCOPE_LINT_ALLOW(HOT-1): amortized capacity reuse.
                to_advance.push_back(readyQueue_.back());
                readyQueue_.pop_back();
            }
        }

        if (guard_on) {
            const uint64_t allocs = alloc_guard::allocationCount();
            const size_t capacity = allocGuardCapacitySum(to_advance);
            MCSCOPE_ASSERT(
                capacity > guard_capacity || allocs == guard_allocs,
                "zero-allocation contract violated: steady-state loop "
                "made ", allocs - guard_allocs, " heap allocation(s) "
                "on time step ", counters_.timeSteps, " without "
                "scratch-capacity growth (DESIGN 'Enforced "
                "invariants'; call setAllocGuardEnforced(false) for "
                "intentionally allocating configurations)");
            guard_allocs = allocs;
            guard_capacity = capacity;
        }
    }
    // MCSCOPE_HOT_END: Engine::run steady-state loop.

    if (guard_outermost)
        alloc_guard::disarm();

    if (auditor_) {
        alloc_guard::Pause pause;
        auditor_->onRunEnd(now_);
    }
}

void
Engine::advanceTask(int task)
{
    // Task programs are user code (generators may allocate freely),
    // and the blocking-structure mutations here (delay/rendezvous/
    // barrier map nodes, flow starts) are event-driven rather than
    // per-time-step, so the whole section sits outside the
    // steady-state zero-allocation contract.
    alloc_guard::Pause pause;

    TaskEntry &t = tasks_[task];
    MCSCOPE_ASSERT(t.state != TaskState::Finished,
                   "advancing finished task ", task);

    for (;;) {
        std::optional<Prim> p = t.task->next();
        ++events_;
        if (!p) {
            t.state = TaskState::Finished;
            t.finishTime = now_;
            --unfinished_;
            if (tracing()) {
                emitTrace({TraceEvent::Kind::TaskFinish, now_, task,
                           0, 0.0, {}});
            }
            return;
        }

        if (auto *w = std::get_if<Work>(&*p)) {
            if (w->amount <= 0.0)
                continue;
            if (w->path.empty() && w->rateCap <= 0.0)
                continue; // unconstrained => instantaneous
            t.state = TaskState::BlockedOnFlow;
            t.blockStart = now_;
            t.blockTag = w->tag;
            startFlow(*w, {task}, w->tag);
            return;
        }

        if (auto *d = std::get_if<Delay>(&*p)) {
            if (d->seconds <= 0.0)
                continue;
            t.state = TaskState::BlockedOnDelay;
            t.blockStart = now_;
            t.blockTag = d->tag;
            delayHeap_.push_back({now_ + d->seconds, delaySeq_++, task});
            std::push_heap(delayHeap_.begin(), delayHeap_.end(),
                           DelayAfter{});
            return;
        }

        if (auto *r = std::get_if<Rendezvous>(&*p)) {
            auto it = rendezvous_.find(r->key);
            if (it == rendezvous_.end()) {
                PendingRendezvous pend;
                pend.task = task;
                if (r->carrier)
                    pend.carrier = r->transfer;
                pend.tag = r->tag;
                rendezvous_.emplace(r->key, pend);
                t.state = TaskState::WaitingRendezvous;
                t.blockStart = now_;
                t.blockTag = r->tag;
                return;
            }
            // Partner already waiting: start the joint transfer.
            PendingRendezvous pend = it->second;
            rendezvous_.erase(it);
            MCSCOPE_ASSERT(pend.task != task,
                           "task ", task, " rendezvoused with itself, key ",
                           r->key);
            const Work *transfer = nullptr;
            if (r->carrier) {
                transfer = &r->transfer;
            } else {
                MCSCOPE_ASSERT(pend.carrier.has_value(),
                               "rendezvous key ", r->key,
                               " has no carrier side");
                transfer = &*pend.carrier;
            }
            // The waiting partner has accrued its waiting time; switch
            // it to flow-blocked as of now.
            accrueBlockedTime(pend.task);
            tasks_[pend.task].blockStart = now_;
            tasks_[pend.task].state = TaskState::BlockedOnFlow;
            t.state = TaskState::BlockedOnFlow;
            t.blockStart = now_;
            t.blockTag = r->tag;
            if (transfer->amount <= 0.0 ||
                (transfer->path.empty() && transfer->rateCap <= 0.0)) {
                // Instantaneous transfer: both sides continue.
                tasks_[pend.task].state = TaskState::Ready;
                readyQueue_.push_back(pend.task);
                continue;
            }
            startFlow(*transfer, {task, pend.task}, transfer->tag);
            return;
        }

        if (auto *s = std::get_if<SyncAll>(&*p)) {
            MCSCOPE_ASSERT(s->expected > 0, "barrier with expected <= 0");
            PendingBarrier &b = barriers_[s->key];
            b.expected = s->expected;
            b.waiters.push_back(task);
            if (static_cast<int>(b.waiters.size()) >=
                b.expected) {
                std::vector<int> waiters = std::move(b.waiters);
                barriers_.erase(s->key);
                for (int w : waiters) {
                    if (w == task)
                        continue;
                    accrueBlockedTime(w);
                    tasks_[w].state = TaskState::Ready;
                    readyQueue_.push_back(w);
                }
                continue; // this task proceeds immediately
            }
            t.state = TaskState::WaitingBarrier;
            t.blockStart = now_;
            t.blockTag = s->tag;
            return;
        }

        MCSCOPE_PANIC("unhandled primitive kind");
    }
}

} // namespace mcscope
