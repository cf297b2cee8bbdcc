#include "machine/config.hh"

#include "util/logging.hh"
#include "util/str.hh"

namespace mcscope {

std::string
MachineConfig::check() const
{
    auto bad = [&](const std::string &what) {
        return "machine '" + name + "': " + what;
    };
    if (sockets < 1)
        return bad("sockets must be >= 1");
    if (coresPerSocket < 1)
        return bad("coresPerSocket must be >= 1");
    if (threadsPerCore < 1)
        return bad("threads_per_core must be >= 1");
    if (smtThreadThroughput <= 0.0 || smtThreadThroughput > 1.0)
        return bad("smt_thread_throughput must be in (0, 1]");
    if (coreGHz <= 0.0 || flopsPerCycle <= 0.0)
        return bad("core rate must be positive");
    if (memBandwidthPerSocket <= 0.0)
        return bad("memory bandwidth must be positive");
    // Every HT link becomes an engine resource with this capacity.
    if (htLinkBandwidth <= 0.0)
        return bad("ht_link_bandwidth must be positive");
    if (memLatency <= 0.0 || htHopLatency < 0.0)
        return bad("latencies must be positive");
    if (l1Bytes <= 0.0 || l2Bytes <= 0.0)
        return bad("cache sizes (l1_bytes, l2_bytes) must be positive");
    // Zero would read as an uncapped STREAM rate (rateCap <= 0).
    if (streamConcurrencyBytes <= 0.0)
        return bad("stream_concurrency_bytes must be positive");
    if (nodes < 1)
        return bad("nodes must be >= 1");
    if (sockets % nodes != 0)
        return bad("sockets (" + std::to_string(sockets) +
                   ") must divide evenly into nodes (" +
                   std::to_string(nodes) + ")");
    if (nodes > 1 && fabricBandwidth <= 0.0)
        return bad("cluster machine needs fabric_bandwidth > 0");
    if (nodes > 1 && fabricLinkLatency < 0.0)
        return bad("fabric_link_latency must be >= 0");
    if (nodes == 1 && (fabricBandwidth != 0.0 ||
                       fabricLinkLatency != 0.0))
        return bad("fabric parameters need nodes > 1 (orphan fabric)");
    // For clusters, htLinks describes one node; endpoints live in
    // [0, socketsPerNode()).
    const int link_span = socketsPerNode();
    if (link_span > 1 && htLinks.empty())
        return bad("multi-socket machine needs HT links");
    if (link_span == 1 && !htLinks.empty())
        return bad("single-socket " +
                   std::string(nodes > 1 ? "nodes" : "machine") +
                   " cannot have HT links");
    for (size_t i = 0; i < htLinks.size(); ++i) {
        auto [a, b] = htLinks[i];
        if (a < 0 || a >= link_span || b < 0 || b >= link_span) {
            return bad("bad HT link " + std::to_string(a) + "-" +
                       std::to_string(b) +
                       (nodes > 1 ? " (cluster links are node-local)"
                                  : ""));
        }
        if (a == b)
            return bad("HT self-link " + std::to_string(a) + "-" +
                       std::to_string(b));
        for (size_t j = 0; j < i; ++j) {
            auto [c, d] = htLinks[j];
            if ((c == a && d == b) || (c == b && d == a))
                return bad("duplicate HT link " + std::to_string(a) +
                           "-" + std::to_string(b));
        }
    }
    // The intra-node socket graph must be connected, or routing has
    // no path; checking here lets registry loaders reject the file
    // instead of asserting deep inside Topology.
    if (link_span > 1) {
        std::vector<int> reach(static_cast<size_t>(link_span), 0);
        reach[0] = 1;
        for (int pass = 1; pass < link_span; ++pass) {
            for (const auto &[a, b] : htLinks) {
                if (reach[static_cast<size_t>(a)] ||
                    reach[static_cast<size_t>(b)])
                    reach[static_cast<size_t>(a)] =
                        reach[static_cast<size_t>(b)] = 1;
            }
        }
        for (int s = 0; s < link_span; ++s) {
            if (!reach[static_cast<size_t>(s)])
                return bad("HT links leave socket " +
                           std::to_string(s) + " disconnected");
        }
    }
    return coherence.check(name);
}

void
MachineConfig::validate() const
{
    std::string problem = check();
    if (!problem.empty())
        fatal(problem);
}

std::vector<std::pair<int, int>>
MachineConfig::expandedHtLinks() const
{
    if (nodes <= 1)
        return htLinks;
    std::vector<std::pair<int, int>> out;
    out.reserve(htLinks.size() * static_cast<size_t>(nodes));
    const int span = socketsPerNode();
    for (int n = 0; n < nodes; ++n) {
        for (const auto &[a, b] : htLinks)
            out.emplace_back(n * span + a, n * span + b);
    }
    return out;
}

std::vector<std::pair<int, int>>
ladderLinks(int columns)
{
    MCSCOPE_ASSERT(columns >= 1, "ladder needs at least one column");
    // Sockets 0..columns-1 on the bottom rail, columns..2*columns-1 on
    // the top rail; rungs connect the rails column by column.
    std::vector<std::pair<int, int>> links;
    for (int c = 0; c + 1 < columns; ++c) {
        links.emplace_back(c, c + 1);
        links.emplace_back(columns + c, columns + c + 1);
    }
    for (int c = 0; c < columns; ++c)
        links.emplace_back(c, columns + c);
    return links;
}

MachineConfig
tigerConfig()
{
    MachineConfig cfg;
    cfg.name = "Tiger";
    cfg.sockets = 2;
    cfg.coresPerSocket = 1;
    cfg.coreGHz = 2.2;
    cfg.htLinks = {{0, 1}};
    cfg.opteronModel = "248";
    cfg.nodeMemoryGiB = 8.0;
    cfg.osName = "Suse Linux";
    cfg.validate();
    return cfg;
}

MachineConfig
dmzConfig()
{
    MachineConfig cfg;
    cfg.name = "DMZ";
    cfg.sockets = 2;
    cfg.coresPerSocket = 2;
    cfg.coreGHz = 2.2;
    cfg.htLinks = {{0, 1}};
    cfg.opteronModel = "275";
    cfg.nodeMemoryGiB = 4.0;
    cfg.osName = "RH Linux 2.6.9";
    cfg.validate();
    return cfg;
}

MachineConfig
longsConfig()
{
    MachineConfig cfg;
    cfg.name = "Longs";
    cfg.sockets = 8;
    cfg.coresPerSocket = 2;
    cfg.coreGHz = 1.8;
    cfg.htLinks = ladderLinks(4);
    cfg.opteronModel = "865";
    cfg.nodeMemoryGiB = 32.0;
    cfg.osName = "RH Linux 2.6.13";
    cfg.validate();
    return cfg;
}

MachineConfig
configByName(const std::string &name)
{
    std::string n = toLower(name);
    if (n == "tiger")
        return tigerConfig();
    if (n == "dmz")
        return dmzConfig();
    if (n == "longs")
        return longsConfig();
    fatal("unknown machine preset '", name, "' (have: tiger, dmz, longs)");
}

std::vector<std::string>
presetNames()
{
    return {"Tiger", "DMZ", "Longs"};
}

} // namespace mcscope
