/**
 * @file
 * The flow-level discrete-event simulation engine.
 *
 * The engine owns a set of resources (capacities in units/s) and a set
 * of tasks (pull-model programs of primitives).  Active Work primitives
 * become fluid flows whose rates are the max-min fair allocation across
 * their resource paths; the engine advances simulated time from one
 * flow completion / delay expiry to the next, re-running the allocator
 * whenever the active flow set changes.
 *
 * This fluid abstraction is the substitute for real multi-core Opteron
 * hardware: contention for a socket's memory controller, congestion on
 * HyperTransport ladder rungs, and serialization at lock services all
 * emerge from shared-resource fair sharing rather than from
 * cycle-accurate modeling.
 *
 * Steady-state complexity (DESIGN §13): flow state is a structure of
 * arrays over stable slots, the next flow finish is a flat min over
 * the stored finish times, and a flow arrival/departure re-solves
 * only the connected component of flows reachable from the resources
 * it touched (the dirty-set closure) -- so per-event cost is
 * proportional to the affected component, not the whole flow
 * population.
 */

#ifndef MCSCOPE_SIM_ENGINE_HH
#define MCSCOPE_SIM_ENGINE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/fairshare.hh"
#include "sim/prim.hh"
#include "sim/task.hh"
#include "sim/time.hh"

namespace mcscope {

class Auditor;
struct AuditedFlow;

/**
 * Number of phase-tag slots tracked per task.  Tags are small dense
 * integers (kernels/workload.hh uses 0-6, tests go up to 9), so
 * per-task tagged time lives in a flat array instead of a map.
 */
constexpr int kPhaseTagSlots = 16;

/** Aggregate statistics for one resource over a run. */
struct ResourceStats
{
    /** Total units moved through the resource. */
    double unitsMoved = 0.0;

    /** Peak number of flows occupying the resource at one time. */
    int peakConcurrency = 0;
};

/** Category tags let workloads attribute task time to program phases. */
using PhaseTag = int;

/** One observable simulation event, for timeline tracing. */
struct TraceEvent
{
    enum class Kind
    {
        FlowStart,
        FlowEnd,
        DelayEnd,
        TaskFinish,
    };

    Kind kind = Kind::FlowStart;
    SimTime time = 0.0;
    int task = -1;       ///< owning task (first owner for joint flows)
    PhaseTag tag = 0;    ///< phase tag of the primitive
    double amount = 0.0; ///< flow amount (FlowStart/FlowEnd only)

    /** Resource path of the flow (FlowStart/FlowEnd only). */
    PathVec path;
};

/** Display name of a trace-event kind. */
const char *traceEventKindName(TraceEvent::Kind kind);

/**
 * Flow-level discrete-event simulator.
 *
 * Typical use: add resources, add tasks, run(), then query makespan,
 * per-task finish times, per-task tagged time, and resource
 * utilization.
 */
class Engine
{
  public:
    Engine();
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Register a resource; capacity must be positive. */
    ResourceId addResource(std::string name, double capacity);

    /** Register a task; returns the task index. */
    int addTask(std::unique_ptr<Task> task);

    /** Number of registered tasks. */
    int taskCount() const { return static_cast<int>(tasks_.size()); }

    /** Number of registered resources. */
    int resourceCount() const
    {
        return static_cast<int>(capacities_.size());
    }

    /**
     * Run the simulation to completion.  Panics on deadlock (tasks
     * blocked on rendezvous/barriers that can never be satisfied).
     */
    void run();

    /** Current simulated time (the makespan after run()). */
    SimTime now() const { return now_; }

    /** Completion time of a task (valid after run()). */
    SimTime taskFinishTime(int task) const;

    /** Latest task completion time. */
    SimTime makespan() const;

    /** Time task `task` spent in primitives tagged `tag`. */
    SimTime taggedTime(int task, PhaseTag tag) const;

    /** Maximum over tasks of taggedTime(task, tag). */
    SimTime maxTaggedTime(PhaseTag tag) const;

    /** Units moved through a resource over the whole run. */
    double resourceUnitsMoved(ResourceId r) const;

    /** Peak concurrent-flow count on a resource over the whole run. */
    int resourcePeakConcurrency(ResourceId r) const;

    /** Mean utilization of a resource over the makespan, in [0, 1]. */
    double resourceUtilization(ResourceId r) const;

    /** Resource display name. */
    const std::string &resourceName(ResourceId r) const;

    /** Resource capacity in units/s. */
    double resourceCapacity(ResourceId r) const;

    /** Number of processed engine events (for engine benchmarks). */
    uint64_t eventCount() const { return events_; }

    /**
     * Run-level engine counters, cheap enough to maintain
     * unconditionally.  They answer "what did the engine actually do"
     * questions (was the allocator rerun per event? how wide did the
     * dirty-set closures grow?) without a profiler.
     */
    struct Stats
    {
        /** Primitives popped from tasks (same as eventCount()). */
        uint64_t events = 0;

        /** Max-min allocator executions. */
        uint64_t allocatorReruns = 0;

        /**
         * Times the next-flow-finish tracker hit float round-off and
         * fell back to the direct O(flows) scan.
         */
        uint64_t fallbackScans = 0;

        /** Main-loop time steps taken. */
        uint64_t timeSteps = 0;

        /**
         * Optimized allocator reruns whose dirty-set closure (the
         * flows reachable from resources whose flow set changed) held
         * at most half the active flows.
         */
        uint64_t incrementalSolves = 0;

        /**
         * Allocator reruns with a wide closure -- more than half the
         * active flows -- or under the Reference oracle allocator,
         * which always solves the whole flow set.  The Optimized
         * allocator still solves only the closure; the split is a
         * statistic, not a dispatch.
         */
        uint64_t fullSolves = 0;

        /**
         * Always 0.  It counted calendar-queue operations; the queue
         * is gone (the next flow finish is a flat min over the stored
         * finish times), and the field stays only because
         * perfbench/harness.cc reads it.
         */
        uint64_t calqueueOps = 0;

        /**
         * Always 0.  It counted calendar-queue resizes; the field
         * stays only because perfbench/harness.cc reads it.
         */
        uint64_t calqueueResizes = 0;

        /** Peak size of the active-flow set. */
        int peakActiveFlows = 0;
    };

    /** Engine counters accumulated so far (complete after run()). */
    Stats stats() const
    {
        Stats s = counters_;
        s.events = events_;
        return s;
    }

    /**
     * Enable per-resource utilization-timeline sampling.  The engine
     * accumulates each resource's busy time (units moved divided by
     * capacity, i.e. equivalent seconds at full speed) into
     * fixed-width time buckets; the bucket width starts at the first
     * time step and doubles (merging neighbor buckets pairwise)
     * whenever the count would exceed 2 * target_buckets, so a run of
     * any makespan ends up with between target_buckets and
     * 2 * target_buckets buckets.  Sampling is exact, not statistical:
     * summing a resource's buckets reproduces
     * resourceUtilization(r) * makespan() to round-off.
     *
     * Must be called before run().  Disabled by default; the hot loop
     * pays only one branch when disabled.
     */
    void enableUtilizationTimeline(int target_buckets);

    /** True when utilization-timeline sampling is on. */
    bool timelineEnabled() const { return timelineTarget_ > 0; }

    /** Width of one timeline bucket in simulated seconds. */
    double timelineBucketWidth() const { return timelineWidth_; }

    /** Number of populated timeline buckets. */
    int timelineBucketCount() const
    {
        return static_cast<int>(timelineBuckets_);
    }

    /** Busy seconds of resource `r` inside bucket `b`. */
    double timelineBusyTime(ResourceId r, int b) const;

    /**
     * Install a timeline observer invoked on every flow start/end,
     * delay expiry, and task completion.  Pass nullptr to disable.
     * Observers must not mutate the engine.
     */
    void setTraceSink(std::function<void(const TraceEvent &)> sink)
    {
        traceSink_ = std::move(sink);
    }

    /**
     * Install a runtime invariant auditor (see sim/audit.hh) that
     * validates rate conservation, max-min optimality, time
     * monotonicity, and trace pairing as the run executes.  Pass
     * nullptr to disable.  An auditor is installed automatically at
     * construction when the MCSCOPE_AUDIT environment variable is set
     * to a non-zero value.
     */
    void setAuditor(std::unique_ptr<Auditor> auditor);

    /** The installed auditor, or nullptr. */
    Auditor *auditor() const { return auditor_.get(); }

    /**
     * Which max-min allocator implementation the engine runs.
     * Optimized is the dirty-set incremental solver over the
     * structure-of-arrays flow state; Reference re-solves the whole
     * flow set through the retained original allocator, kept as a
     * differential-testing oracle (identical rates, identical audit
     * digests).  MCSCOPE_AUDIT=1 cross-checks every Optimized
     * allocation against a Reference solve, bit for bit.
     */
    enum class AllocatorKind
    {
        Optimized,
        Reference,
    };

    /** Select the allocator implementation (default Optimized). */
    void setAllocator(AllocatorKind kind) { allocator_ = kind; }

    /** The active allocator implementation. */
    AllocatorKind allocator() const { return allocator_; }

    /**
     * Enable or disable the debug-build zero-allocation assert for
     * this engine's run() (see sim/alloc_guard.hh).  Enforcement is
     * on by default; tests that deliberately exercise an allocating
     * configuration -- the Reference allocator oracle, chiefly --
     * turn it off.  No effect when the guard is compiled out
     * (non-Debug builds).
     */
    void setAllocGuardEnforced(bool enforced)
    {
        allocGuardEnforced_ = enforced;
    }

    /** True when run() asserts the zero-allocation contract. */
    bool allocGuardEnforced() const { return allocGuardEnforced_; }

  private:
    enum class TaskState
    {
        Unstarted,
        Ready,
        BlockedOnFlow,
        BlockedOnDelay,
        WaitingRendezvous,
        WaitingBarrier,
        Finished,
    };

    struct TaskEntry
    {
        std::unique_ptr<Task> task;
        TaskState state = TaskState::Unstarted;
        SimTime finishTime = 0.0;
        SimTime blockStart = 0.0;
        PhaseTag blockTag = 0;

        /** Per-tag blocked time; flat array, tags are small ints. */
        std::array<SimTime, kPhaseTagSlots> taggedTime{};
    };

    /** Owner list of a flow: one task, or two for rendezvous. */
    using OwnerVec = SmallVec<int, 2>;

    struct PendingRendezvous
    {
        int task = -1;
        std::optional<Work> carrier;
        PhaseTag tag = 0;
    };

    struct PendingBarrier
    {
        std::vector<int> waiters;
        int expected = 0;
    };

    /**
     * One pending Delay expiry.  `seq` is a monotone insertion counter
     * so coincident expiries release tasks in insertion order, exactly
     * like the std::multimap this heap replaced.
     */
    struct DelayEntry
    {
        SimTime time = 0.0;
        uint64_t seq = 0;
        int task = -1;
    };

    /** Min-heap comparator for DelayEntry ((time, seq) lexicographic). */
    struct DelayAfter
    {
        bool
        operator()(const DelayEntry &a, const DelayEntry &b) const
        {
            if (a.time != b.time)
                return a.time > b.time;
            return a.seq > b.seq;
        }
    };

    /** Drive a task until it blocks or finishes. */
    void advanceTask(int task);

    /** Start a fluid flow owned by `owners`. */
    void startFlow(const Work &w, OwnerVec owners, PhaseTag tag);

    /** Tear down a completed flow's slot and incidence entries. */
    void removeFlow(FlowSlot slot);

    /** Queue `r` for the next dirty-set closure (idempotent). */
    void markResourceDirty(ResourceId r);

    /** Recompute max-min fair rates for the dirty flow set. */
    void recomputeRates();

    /** Dirty-set closure solve (Optimized allocator). */
    void solveOptimized();

    /** Whole-flow-set solve through the oracle (Reference allocator). */
    void solveReference();

    /**
     * Adopt freshly solved rates for `slots[0..count)`; rates[k]
     * belongs to slots[k].  A flow's absolute finish time is updated
     * only when its assigned rate actually changes -- the policy that
     * keeps Optimized and Reference time sequences bit-identical
     * (DESIGN §13).
     */
    void applyRates(const FlowSlot *slots, size_t count,
                    const double *rates);

    /** Attribute blocked time [blockStart, now] to the task's tag. */
    void accrueBlockedTime(int task);

    /** True when trace events need to be materialized. */
    bool tracing() const { return traceSink_ || auditor_; }

    /** Deliver one trace event to the auditor and the user sink. */
    void emitTrace(const TraceEvent &event);

    /**
     * Fold the busy time of the interval [t0, t1] into the timeline
     * buckets.  Called from run() only while the timeline is enabled;
     * flow rates are constant over the interval, so splitting each
     * flow's moved units by bucket overlap is exact.
     */
    void accrueTimeline(SimTime t0, SimTime t1);

    /** Double the timeline bucket width, merging buckets pairwise. */
    void rebinTimeline();

    /** Panic with a per-task diagnostic of a simulation deadlock. */
    [[noreturn]] void panicDeadlock() const;

    /**
     * Sum of the capacities of every buffer the steady-state loop may
     * legitimately grow (hot-path scratch, the ready/advance queues,
     * the flow arrays, and the timeline).  Capacities are monotone,
     * so the sum grows iff some buffer grew; the alloc-guard check in
     * run() excuses an iteration's allocations only when it did.
     */
    size_t allocGuardCapacitySum(
        const std::vector<int> &to_advance) const;

    /** Number of flow slots ever created (alive + free-listed). */
    size_t slotCount() const { return flowAlive_.size(); }

    std::vector<std::string> resourceNames_;
    std::vector<double> capacities_;
    std::vector<ResourceStats> stats_;

    std::vector<TaskEntry> tasks_;

    // --- Structure-of-arrays flow state ------------------------------
    // One entry per slot; a slot is recycled through freeSlots_ after
    // its flow completes.  Dead slots are inert for the hot loop's flat
    // scans: rate 0, remaining +inf, threshold -1, empty path.
    std::vector<double> flowRemaining_; ///< units left to move
    std::vector<double> flowRate_;      ///< current fair-share rate
    std::vector<double> flowFinish_;    ///< absolute finish (+inf if dead)
    std::vector<double> flowThresh_;    ///< completion tolerance
    std::vector<double> flowAmount_;    ///< original Work amount
    std::vector<double> flowRateCap_;   ///< per-flow rate ceiling
    std::vector<PathVec> flowPath_;     ///< resource path
    std::vector<OwnerVec> flowOwners_;  ///< owning task(s)
    std::vector<int> flowTag_;          ///< phase tag
    std::vector<char> flowAlive_;       ///< slot holds a live flow
    std::vector<FlowSlot> freeSlots_;   ///< recycled slot ids (LIFO)
    int activeFlows_ = 0;               ///< live-flow count

    /**
     * Per-resource incidence: the slots of the flows crossing each
     * resource, in arbitrary order with O(1) removal --
     * flowPosInRes_[s][h] is slot s's index inside
     * resFlows_[flowPath_[s][h]], maintained by swap-remove fixups.
     * This is the bottleneck-membership structure the dirty-set
     * closure walks.
     */
    std::vector<std::vector<FlowSlot>> resFlows_;
    std::vector<PathVec> flowPosInRes_;

    // Dirty-set state between allocator reruns.
    std::vector<char> resDirty_;        ///< resource queued in dirtyRes_
    std::vector<ResourceId> dirtyRes_;  ///< resources with changed flows
    std::vector<FlowSlot> newFlows_;    ///< slots started since last solve

    // Closure scratch (valid only inside recomputeRates()).
    std::vector<char> resInClosure_;
    std::vector<char> flowInClosure_;
    std::vector<ResourceId> closureRes_;
    std::vector<FlowSlot> closureFlows_;

    /** Slots whose remaining work crossed the completion tolerance. */
    std::vector<FlowSlot> completedScratch_;

    /** Pending delays as a binary min-heap on (time, seq). */
    std::vector<DelayEntry> delayHeap_;
    uint64_t delaySeq_ = 0;

    std::map<uint64_t, PendingRendezvous> rendezvous_;
    std::map<uint64_t, PendingBarrier> barriers_;

    std::vector<int> readyQueue_;

    std::function<void(const TraceEvent &)> traceSink_;
    std::unique_ptr<Auditor> auditor_;

    // Reusable hot-path workspaces: sized on first use, then every
    // recomputeRates() call is allocation-free in steady state.
    FairShareScratch fsScratch_;
    std::vector<FairShareFlow> specScratch_;
    std::vector<AuditedFlow> auditScratch_;

    SimTime now_ = 0.0;
    bool ratesDirty_ = false;
    uint64_t events_ = 0;
    int unfinished_ = 0;
    AllocatorKind allocator_ = AllocatorKind::Optimized;
    bool allocGuardEnforced_ = true;

    Stats counters_;

    // Utilization-timeline state (see enableUtilizationTimeline()).
    // busy times live in one flat [bucket * resources + resource]
    // array so rebinning is a cache-friendly linear pass.
    int timelineTarget_ = 0;
    double timelineWidth_ = 0.0;
    size_t timelineBuckets_ = 0;
    std::vector<double> timelineBusy_;
};

} // namespace mcscope

#endif // MCSCOPE_SIM_ENGINE_HH
