/**
 * @file
 * Minimal POSIX subprocess management for the sharded sweep executor.
 *
 * The supervisor (core/runner.hh) launches `mcscope worker` children,
 * feeds each one a shard manifest over stdin, and reads line-oriented
 * progress records back over stdout.  This module wraps the
 * fork/exec/pipe/waitpid choreography behind a small RAII class so
 * the supervisor logic stays readable:
 *
 *  - stdin is written in full at spawn time and then closed.  This
 *    is deadlock-free only because workers drain stdin completely
 *    before producing output; callers with chattier children would
 *    need a writer thread.
 *  - stdout is exposed as a non-blocking file descriptor suitable for
 *    poll(2), so one supervisor thread can multiplex many workers.
 *  - stderr passes through to the parent's stderr (worker warnings
 *    surface like the supervisor's own).
 *
 * Everything here is Linux/POSIX; that is the only platform the suite
 * targets (the paper's machines and the CI runners are all Linux).
 */

#ifndef MCSCOPE_UTIL_SUBPROCESS_HH
#define MCSCOPE_UTIL_SUBPROCESS_HH

#include <string>
#include <sys/types.h>
#include <vector>

namespace mcscope {

/** One child process with a stdin payload and a readable stdout. */
class Subprocess
{
  public:
    /**
     * Fork and exec `argv` (argv[0] is the executable path), write
     * `stdin_data` to the child's stdin, and close it.  fatal() when
     * the process cannot be forked.  Extra environment entries
     * ("KEY=VALUE") are applied on top of the inherited environment.
     */
    Subprocess(const std::vector<std::string> &argv,
               const std::string &stdin_data,
               const std::vector<std::string> &extra_env = {});

    /** Kills (SIGKILL) and reaps the child if still running. */
    ~Subprocess();

    Subprocess(const Subprocess &) = delete;
    Subprocess &operator=(const Subprocess &) = delete;

    /** Non-blocking stdout read end; -1 after EOF was consumed. */
    int outFd() const { return out_fd_; }

    /** Child pid (valid until reaped). */
    pid_t pid() const { return pid_; }

    /**
     * Drain available stdout bytes into `buf` (appending).  Returns
     * false once EOF is reached (and closes the descriptor); returns
     * true while the pipe is still open, including when no bytes were
     * ready.
     */
    bool readAvailable(std::string &buf);

    /**
     * Reap the child without blocking.  Returns true when the child
     * has exited (exit status query methods become valid).
     */
    bool tryWait();

    /** Block until the child exits, then reap it. */
    void wait();

    /** SIGKILL the child (no-op when already exited). */
    void kill();

    /** True after a successful tryWait()/wait(). */
    bool exited() const { return exited_; }

    /** Exit code, or -1 when the child died on a signal. */
    int exitCode() const;

    /** Terminating signal, or 0 for a normal exit. */
    int termSignal() const;

  private:
    pid_t pid_ = -1;
    int out_fd_ = -1;
    bool exited_ = false;
    int status_ = 0;
};

/**
 * Absolute path of the running executable (/proc/self/exe), used by
 * the supervisor to re-invoke itself as `mcscope worker`.
 */
std::string selfExecutablePath();

} // namespace mcscope

#endif // MCSCOPE_UTIL_SUBPROCESS_HH
