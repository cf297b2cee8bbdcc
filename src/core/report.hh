/**
 * @file
 * Paper-style report rendering: turns sweep results into the row/
 * column layouts of the paper's tables so the bench binaries print
 * directly comparable artifacts.
 */

#ifndef MCSCOPE_CORE_REPORT_HH
#define MCSCOPE_CORE_REPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/runner.hh"
#include "util/table.hh"

namespace mcscope {

/**
 * Render an option sweep like Tables 2/3/7/9/11/13/14:
 * "MPI tasks | <label> | Default | One MPI + Local Alloc | ...".
 *
 * @param sweep      the sweep result.
 * @param row_label  per-row second column (kernel or system name).
 * @param precision  decimals for the time cells.
 */
TextTable optionSweepTable(const OptionSweepResult &sweep,
                           const std::string &row_label,
                           int precision = 2);

/**
 * Append an option sweep's rows to an existing table (for the
 * two-kernel Tables 2-3 where CG and FT interleave).
 */
void appendOptionSweepRows(TextTable &table, const OptionSweepResult &sweep,
                           const std::string &row_label,
                           int precision = 2);

/**
 * Header row: "MPI tasks", the row label, then one column per option.
 * Pass the sweep's own option list when it covers only part of
 * Table 5, so each value sits under its option's label.
 */
std::vector<std::string>
optionSweepHeader(const std::string &row_label,
                  const std::vector<NumactlOption> &options =
                      table5Options());

/** Short row-label token for an MPI implementation axis value. */
std::string implToken(MpiImpl impl);

/**
 * Render an executed batch plan the way `mcscope batch` prints it:
 * the machine banner + per-(workload, impl, sublayer) option-sweep
 * table, or (csv) one flat CSV with a column per numactl option.
 */
void renderBatchResults(const SweepPlan &plan,
                        const PlanResults &results, bool csv,
                        std::ostream &out);

/**
 * Render a speedup table like Tables 8/10/12: one row per rank count,
 * one column per named series.
 */
TextTable speedupTable(const std::vector<int> &rank_counts,
                       const std::vector<std::string> &series_names,
                       const std::vector<std::vector<double>> &speedups,
                       int precision = 2);

} // namespace mcscope

#endif // MCSCOPE_CORE_REPORT_HH
