/**
 * @file
 * Max-min fair rate allocation (progressive filling) with per-flow
 * rate caps.
 *
 * Given a set of resources with capacities and a set of flows, each of
 * which simultaneously occupies a subset of the resources and may carry
 * an individual rate ceiling, computes the max-min fair allocation:
 * rates are raised together until a flow hits its cap or a resource
 * saturates; saturated participants freeze and filling continues.
 *
 * This is the classic fluid model for bandwidth sharing; it is what
 * turns "two cores stream through one memory controller" into "each
 * gets half" and "flows crossing a congested HyperTransport rung slow
 * down together".
 */

#ifndef MCSCOPE_SIM_FAIRSHARE_HH
#define MCSCOPE_SIM_FAIRSHARE_HH

#include <vector>

#include "sim/prim.hh"

namespace mcscope {

/** Input description of one flow for the allocator. */
struct FairShareFlow
{
    /** Resources occupied concurrently (indices into capacities). */
    PathVec path;

    /** Per-flow ceiling in units/s; <= 0 means unconstrained. */
    double rateCap = 0.0;
};

/**
 * Reusable workspace for the progressive-filling allocator.
 *
 * The engine reruns the allocator at every flow-set change -- tens of
 * thousands of times per simulation -- and each run needs five
 * scratch arrays.  Keeping one FairShareScratch alive across calls
 * means the arrays are sized once and every later call is
 * allocation-free.  A scratch carries no state between calls other
 * than buffer capacity; it may be reused across unrelated flow sets.
 */
struct FairShareScratch
{
    /** Output: one rate per flow, valid after fairShareSolveSubset. */
    std::vector<double> rates;

    // Internal working arrays (exposed so the workspace is a plain
    // aggregate; contents are unspecified between calls).
    std::vector<char> frozen;
    std::vector<double> residual;
    std::vector<int> users;
    std::vector<char> saturated;

    // Component-decomposition machinery (fairShareSolveSubset):
    // union-find over resources, per-flow root, and the gathered
    // flow/resource lists of the component being solved.
    std::vector<int> parent;
    std::vector<int> flowRoot;
    std::vector<int> compFlows;
    std::vector<ResourceId> compRes;

    /**
     * Summed buffer capacities over every member, for the engine's
     * alloc-guard capacity signature (sim/alloc_guard.hh): growth of
     * any scratch array is then excused as warm-up, never read as a
     * steady-state allocation.  A new member belongs here too.
     */
    size_t
    capacitySum() const
    {
        return rates.capacity() + frozen.capacity() +
               residual.capacity() + users.capacity() +
               saturated.capacity() + parent.capacity() +
               flowRoot.capacity() + compFlows.capacity() +
               compRes.capacity();
    }
};

/**
 * The allocation-per-call implementation, retained as the
 * differential-testing oracle: the subset solver below must match it
 * bit for bit on every input (see
 * tests/sim/fairshare_diff_test.cpp and Engine::setAllocator).  Like
 * the optimized solver it fills each connected component of the
 * flow/resource graph independently -- a component's rates are a
 * function of that component alone, which is what lets the dirty-set
 * incremental engine carry rates of untouched components across
 * solves and still agree with a fresh whole-set solve bitwise.  Its
 * component discovery (BFS over an explicit adjacency) and data
 * layout are deliberately independent of the optimized solver's.
 */
std::vector<double>
fairShareRatesReference(const std::vector<double> &capacities,
                        const std::vector<FairShareFlow> &flows);

/**
 * Progressive filling restricted to a subset of flows and resources --
 * the dirty-set incremental solver behind Engine's Optimized
 * allocator.
 *
 * Flows live in slot-indexed parallel arrays (the engine's
 * structure-of-arrays state): `paths[s]` and `rateCaps[s]` describe
 * the flow in slot s.  `flowSlots[0..flowCount)` selects the flows to
 * solve and `resources[0..resourceCount)` the resources they may
 * touch.  Rates land in scratch.rates[k] for the k-th selected flow.
 *
 * Caller contract -- this is what makes a subset solve bit-identical
 * to the full solve (see DESIGN §13):
 *  - the subset is closed: every resource on a selected flow's path
 *    appears in `resources`, and every flow crossing a selected
 *    resource appears in `flowSlots`;
 *  - `flowSlots` is sorted ascending, so the per-round residual
 *    subtraction order matches a full solve over all slots.
 *
 * Internally the subset is split into connected components and each
 * is filled independently with arithmetic line-for-line the reference
 * algorithm's, so a component's rates never depend on flows outside
 * it.  scratch.residual/users/saturated are used as full-size (one
 * per resource id) arrays with only the subset entries initialized,
 * so no per-call O(total resources) work occurs.
 */
void fairShareSolveSubset(const std::vector<double> &capacities,
                          const std::vector<PathVec> &paths,
                          const std::vector<double> &rateCaps,
                          const int *flowSlots, size_t flowCount,
                          const ResourceId *resources, size_t resourceCount,
                          FairShareScratch &scratch);

} // namespace mcscope

#endif // MCSCOPE_SIM_FAIRSHARE_HH
