#include "core/telemetry.hh"

#include <cmath>
#include <cstdio>

#include "sim/trace_export.hh" // jsonEscape
#include "util/str.hh"

namespace mcscope {

uint64_t
SweepTelemetry::totalEvents() const
{
    uint64_t sum = 0;
    for (const GridPointSample &p : points)
        sum += p.events;
    return sum;
}

double
SweepTelemetry::busySeconds() const
{
    double sum = 0.0;
    for (const GridPointSample &p : points)
        sum += p.wallSeconds;
    return sum;
}

double
SweepTelemetry::eventsPerSecond() const
{
    if (wallSeconds <= 0.0)
        return 0.0;
    return static_cast<double>(totalEvents()) / wallSeconds;
}

double
SweepTelemetry::occupancy() const
{
    if (wallSeconds <= 0.0 || jobs <= 0)
        return 0.0;
    return busySeconds() / (static_cast<double>(jobs) * wallSeconds);
}

std::string
SweepTelemetry::summary() const
{
    return std::to_string(points.size()) + " grid points in " +
           formatFixed(wallSeconds, 3) + " s wall, " +
           formatFixed(eventsPerSecond() / 1e6, 2) +
           "M events/s, occupancy " +
           formatFixed(occupancy() * 100.0, 0) + "% (jobs " +
           std::to_string(jobs) + ")";
}

namespace {

/** JSON number: full precision, non-finite mapped to null. */
std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

} // namespace

void
SweepTelemetry::writeJson(std::ostream &os) const
{
    os << "{\n"
       << "  \"jobs\": " << jobs << ",\n"
       << "  \"wall_seconds\": " << jsonNum(wallSeconds) << ",\n"
       << "  \"busy_seconds\": " << jsonNum(busySeconds()) << ",\n"
       << "  \"grid_points\": " << points.size() << ",\n"
       << "  \"total_events\": " << totalEvents() << ",\n"
       << "  \"events_per_second\": " << jsonNum(eventsPerSecond())
       << ",\n"
       << "  \"occupancy\": " << jsonNum(occupancy()) << ",\n";
    os << "  \"points\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
        const GridPointSample &p = points[i];
        os << "    {\"ranks\": " << p.ranks << ", \"option\": \""
           << jsonEscape(p.label) << "\", \"valid\": "
           << (p.valid ? "true" : "false")
           << ", \"wall_seconds\": " << jsonNum(p.wallSeconds)
           << ", \"sim_seconds\": " << jsonNum(p.simSeconds)
           << ", \"events\": " << p.events
           << ", \"incremental_solves\": " << p.incrementalSolves
           << ", \"full_solves\": " << p.fullSolves << "}"
           << (i + 1 < points.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

} // namespace mcscope
