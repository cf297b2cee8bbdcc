#include "core/journal.hh"

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "core/runner.hh" // runResultToJson / parseRunResult / digest hex
#include "util/fdio.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace mcscope {

namespace {

/** True when `pid` names a live process we could signal. */
bool
pidAlive(long pid)
{
    if (pid <= 0)
        return false;
    if (::kill(static_cast<pid_t>(pid), 0) == 0)
        return true;
    return errno == EPERM; // alive, owned by someone else
}

/** The pid recorded in a lock file, or -1 when unreadable. */
long
lockHolder(const std::string &lock_path)
{
    std::string text;
    if (!readWholeFile(lock_path, text))
        return -1;
    errno = 0;
    char *end = nullptr;
    const long pid = std::strtol(text.c_str(), &end, 10);
    if (errno != 0 || end == text.c_str())
        return -1;
    return pid;
}

/** write(2) the whole buffer; fatal on error (journal loss = data loss). */
void
writeAllOrDie(int fd, const std::string &data, const std::string &path)
{
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::write(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fatal("cannot append to journal '", path,
                  "': ", std::strerror(errno));
        }
        off += static_cast<size_t>(n);
    }
}

/** True for the journal's header line. */
bool
isHeader(const JsonValue &doc)
{
    return doc.isObject() && doc.find("format");
}

/** The (digest, result) a parsed record line holds, if well formed. */
std::optional<std::pair<uint64_t, RunResult>>
recordFromDoc(const JsonValue &doc)
{
    if (!doc.isObject() || isHeader(doc))
        return std::nullopt;
    const JsonValue *digest = doc.find("digest");
    if (!digest || !digest->isString())
        return std::nullopt;
    std::optional<uint64_t> d = parseDigestHex(digest->asString());
    if (!d)
        return std::nullopt;
    std::optional<RunResult> r = parseRunResult(doc, *d);
    if (!r)
        return std::nullopt;
    return std::make_pair(*d, *r);
}

} // namespace

SweepJournal::SweepJournal(std::string path)
    : path_(std::move(path)), lock_path_(path_ + ".lock")
{
    MCSCOPE_ASSERT(!path_.empty(), "journal needs a path");

    // Take the lock: O_EXCL creation is the atomic claim.  One retry
    // after clearing a stale (dead-pid) lock; losing the race twice
    // means a live contender either way.
    for (int attempt = 0; attempt < 2; ++attempt) {
        lock_fd_ = ::open(lock_path_.c_str(),
                          O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC,
                          0644);
        if (lock_fd_ >= 0)
            break;
        if (errno != EEXIST) {
            fatal("cannot create journal lock '", lock_path_,
                  "': ", std::strerror(errno));
        }
        long holder = lockHolder(lock_path_);
        if (pidAlive(holder)) {
            // pidAlive treats EPERM as alive, so a recycled pid owned
            // by another user also lands here; tell the user how to
            // recover from that by hand.
            fatal("journal '", path_,
                  "' is locked by a live supervisor (pid ", holder,
                  "); refusing to attach.  If pid ", holder,
                  " is not an mcscope supervisor, remove '",
                  lock_path_, "' and retry");
        }
        warn("removing stale journal lock ", lock_path_, " (pid ",
             holder, " is gone)");
        ::unlink(lock_path_.c_str());
    }
    if (lock_fd_ < 0) {
        fatal("journal '", path_, "' is locked (", lock_path_,
              "); refusing to attach");
    }
    std::string pid_line =
        std::to_string(static_cast<long>(::getpid())) + "\n";
    writeAllOrDie(lock_fd_, pid_line, lock_path_);

    const bool fresh = ::access(path_.c_str(), F_OK) != 0;
    fd_ = ::open(path_.c_str(),
                 O_CREAT | O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
    if (fd_ < 0) {
        int saved = errno;
        ::close(lock_fd_);
        ::unlink(lock_path_.c_str());
        fatal("cannot open journal '", path_,
              "': ", std::strerror(saved));
    }
    if (fresh) {
        JsonValue header = JsonValue::object();
        header.set("format", JsonValue::str(kJournalFormat));
        header.set("model", JsonValue::str(kScenarioModelVersion));
        writeAllOrDie(fd_, header.dump() + "\n", path_);
        ::fsync(fd_);
    }
}

SweepJournal::~SweepJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
    if (lock_fd_ >= 0) {
        ::close(lock_fd_);
        ::unlink(lock_path_.c_str());
    }
}

void
SweepJournal::append(uint64_t digest, const RunResult &result)
{
    // One line per record, fsync'd: the write-ahead guarantee.  A
    // single write(2) of a short line is atomic enough in practice
    // (O_APPEND, one writer enforced by the lock); the reader
    // tolerates a torn tail regardless.
    writeAllOrDie(fd_, runResultToJson(digest, result).dump() + "\n",
                  path_);
    if (::fsync(fd_) != 0) {
        fatal("fsync failed on journal '", path_,
              "': ", std::strerror(errno));
    }
    ++appended_;
}

std::optional<std::pair<uint64_t, RunResult>>
parseJournalRecord(const std::string &line)
{
    std::optional<JsonValue> doc = parseJson(line);
    if (!doc)
        return std::nullopt;
    return recordFromDoc(*doc);
}

std::unordered_map<uint64_t, RunResult>
loadJournal(const std::string &path, JournalLoadStats *stats)
{
    // Keyed by digest for O(1) resume lookups.  Callers only ever
    // .find() into this map: iterating it would feed
    // implementation-defined hash order into resume-path output,
    // which mcscope-lint rule DET-2 forbids in this unit.
    std::unordered_map<uint64_t, RunResult> out;
    JournalLoadStats local;
    // readWholeFile() opens with O_CLOEXEC (FD-1): the supervisor
    // that calls this also forks workers.
    std::string text;
    if (readWholeFile(path, text)) {
        size_t pos = 0;
        while (pos < text.size()) {
            const size_t nl = text.find('\n', pos);
            const size_t len =
                (nl == std::string::npos ? text.size() : nl) - pos;
            std::string line = text.substr(pos, len);
            pos = (nl == std::string::npos) ? text.size() : nl + 1;
            if (line.empty())
                continue;
            std::optional<JsonValue> doc = parseJson(line);
            if (doc && isHeader(*doc))
                continue;
            std::optional<std::pair<uint64_t, RunResult>> rec;
            if (doc)
                rec = recordFromDoc(*doc);
            if (!rec) {
                ++local.corrupt;
                warn("journal ", path,
                     ": skipping malformed record line");
                continue;
            }
            out[rec->first] = rec->second;
            ++local.records;
        }
    }
    if (stats)
        *stats = local;
    return out;
}

} // namespace mcscope
