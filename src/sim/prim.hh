/**
 * @file
 * Primitive operations a simulated task can issue to the engine.
 *
 * Higher layers (the machine model, the simmpi runtime, workload cost
 * models) compile domain-level phases (a STREAM sweep, an MPI message,
 * a lock acquisition) down to these four primitives:
 *
 *  - Work:       a fluid flow of `amount` units across a set of shared
 *                resources, optionally capped at a per-flow rate (which
 *                is how latency-limited streams are expressed).
 *  - Delay:      a fixed time cost (software overhead, lock service).
 *  - Rendezvous: a two-party synchronization; when both parties have
 *                arrived, a joint Work transfer runs and then both
 *                parties resume.  Models MPI point-to-point messages.
 *  - SyncAll:    an n-party barrier on a key.
 */

#ifndef MCSCOPE_SIM_PRIM_HH
#define MCSCOPE_SIM_PRIM_HH

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "sim/time.hh"
#include "util/smallvec.hh"

namespace mcscope {

/** Index of a resource registered with an Engine. */
using ResourceId = int;

/**
 * Index of an active-flow slot inside an Engine.
 *
 * The engine keeps flow state in parallel slot-indexed arrays
 * (structure of arrays); a slot id stays valid for a flow's whole
 * lifetime and is recycled through a free list afterwards, so
 * cross-referencing structures -- per-resource incidence lists, the
 * dirty-set closure -- hold slot ids instead of pointers.
 */
using FlowSlot = int;

/**
 * A flow's resource path.  Typical paths are 1-3 hops (core; core +
 * memory controller; + one or two HyperTransport links), and the
 * longest any modeled machine produces today is 5 (memory plus a
 * 4-link route across the 8-socket ladder), so an inline capacity of
 * 8 keeps the engine's per-flow copies off the heap for every real
 * topology -- a spilled path would otherwise allocate on each
 * allocator rerun and trip the sim/alloc_guard zero-allocation
 * assert.
 */
using PathVec = SmallVec<ResourceId, 8>;

/**
 * A fluid flow: `amount` units moved across all resources in `path`
 * simultaneously.  The achieved rate is the max-min fair share across
 * the path, further limited by `rateCap` when positive.
 */
struct Work
{
    /** Units to move (bytes for memory/links, flops for cores). */
    double amount = 0.0;

    /** Resources this flow occupies concurrently. */
    PathVec path;

    /**
     * Per-flow rate ceiling in units/s; <= 0 means uncapped.  A memory
     * stream's cap encodes its latency limit:
     * outstanding_bytes / round_trip_latency.
     */
    double rateCap = 0.0;

    /** Phase tag for per-task time attribution (workload-defined). */
    int tag = 0;
};

/** A fixed simulated-time cost. */
struct Delay
{
    SimTime seconds = 0.0;

    /** Phase tag for per-task time attribution (workload-defined). */
    int tag = 0;
};

/**
 * Two-party rendezvous.  Both sides issue a Rendezvous with the same
 * `key`.  Exactly one side must set `carrier` and provide the joint
 * `transfer` Work; the other side's transfer is ignored.  Both sides
 * resume when the transfer completes.
 */
struct Rendezvous
{
    uint64_t key = 0;
    Work transfer;
    bool carrier = false;

    /** Phase tag for per-task time attribution (workload-defined). */
    int tag = 0;
};

/** N-party barrier: all `expected` tasks issuing `key` resume together. */
struct SyncAll
{
    uint64_t key = 0;
    int expected = 0;

    /** Phase tag for per-task time attribution (workload-defined). */
    int tag = 0;
};

/** Any primitive operation. */
using Prim = std::variant<Work, Delay, Rendezvous, SyncAll>;

/** Human-readable primitive kind, for traces and error messages. */
std::string primKindName(const Prim &p);

} // namespace mcscope

#endif // MCSCOPE_SIM_PRIM_HH
