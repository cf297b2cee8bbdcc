/**
 * @file
 * Raw-fd whole-file helpers with O_CLOEXEC hygiene.
 *
 * std::ifstream / std::ofstream give no way to set O_CLOEXEC on the
 * descriptors they open, so any stream held open while an embedding
 * program forks a child leaks the descriptor into it across exec.
 * These helpers cover the two patterns the result cache needs --
 * whole-file read, and atomic replace-by-rename write -- with
 * O_CLOEXEC set at open(2)/mkostemp(3) time, so there is no
 * fcntl(FD_CLOEXEC) window for a concurrent fork to exploit (lint
 * rule FD-1).
 *
 * The atomic writer also fixes a same-process race the old
 * "<final>.tmp.<pid>" scheme had: two threads storing the same cache
 * digest shared one temp path and could interleave writes; mkostemp
 * draws a unique name per call, so each writer publishes a complete
 * file or nothing.
 */

#ifndef MCSCOPE_UTIL_FDIO_HH
#define MCSCOPE_UTIL_FDIO_HH

#include <string>

namespace mcscope {

/**
 * Read the entire file at `path` into `out` (replacing its contents).
 *
 * @return true on success; false if the file cannot be opened or a
 *         read fails (errno describes the failure, `out` is
 *         unspecified).
 */
bool readWholeFile(const std::string &path, std::string &out);

/**
 * Atomically create or replace the file at `path` with `data`.
 *
 * Writes to a unique mkostemp sibling in the same directory, then
 * rename(2)s it over `path`, so concurrent readers (and concurrent
 * writers, in-process or cross-process) never observe a torn file.
 *
 * @return true on success; false on any failure (errno describes it;
 *         the temp file is unlinked).
 */
bool writeFileAtomic(const std::string &path, const std::string &data);

} // namespace mcscope

#endif // MCSCOPE_UTIL_FDIO_HH
