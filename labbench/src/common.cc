/**
 * @file
 * Helpers shared by the labbench workloads: statistics, span
 * tracing with Chrome trace export, child-process control, and the
 * era grid.
 */

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "bench.hh"
#include "util/logging.hh"

namespace labbench
{

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
Result::fail(const std::string &why)
{
    correct = false;
    if (problems.size() < 20)
        problems.push_back(why);
}

double
percentile(std::vector<double> xs, double pct)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double pos = pct / 100.0 * (xs.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo]);
}

double
median(std::vector<double> xs)
{
    return percentile(std::move(xs), 50.0);
}

uint64_t
labSeedOf(uint64_t seed)
{
    // splitmix64: neighbouring --seed values give unrelated labs.
    uint64_t z = seed + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return (z ^ (z >> 31)) >> 1; // keep it a valid positive --seed
}

// ---- tracing ----------------------------------------------------------

namespace
{

struct SpanRecord
{
    const char *name;
    int64_t startNs;
    int64_t endNs;
    uint64_t id;
    uint64_t parent;
    int tid;
};

std::atomic<bool> gTracing{false};
std::atomic<uint64_t> gNextSpan{0};
std::atomic<int> gNextTid{0};
std::mutex gSpansMutex;
std::vector<SpanRecord> gSpans; // guarded by gSpansMutex

thread_local uint64_t tCurrentSpan = 0;
thread_local int tTid = -1;

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Per-name totals: calls, inclusive and self nanoseconds. */
struct NameTotals
{
    uint64_t calls = 0;
    int64_t totalNs = 0;
    int64_t selfNs = 0;
};

std::map<std::string, NameTotals>
totalsByName()
{
    std::lock_guard<std::mutex> lock(gSpansMutex);
    std::map<uint64_t, int64_t> childNs;
    for (const SpanRecord &s : gSpans) {
        if (s.parent != 0)
            childNs[s.parent] += s.endNs - s.startNs;
    }
    std::map<std::string, NameTotals> totals;
    for (const SpanRecord &s : gSpans) {
        NameTotals &t = totals[s.name];
        const int64_t dur = s.endNs - s.startNs;
        ++t.calls;
        t.totalNs += dur;
        const auto it = childNs.find(s.id);
        t.selfNs += dur - (it == childNs.end() ? 0 : it->second);
    }
    return totals;
}

} // namespace

void
Tracer::enable()
{
    gTracing.store(true);
}

bool
Tracer::enabled()
{
    return gTracing.load(std::memory_order_relaxed);
}

Span::Span(const char *span_name) : name(span_name)
{
    if (!Tracer::enabled())
        return;
    id = gNextSpan.fetch_add(1) + 1;
    parent = tCurrentSpan;
    tCurrentSpan = id;
    startNs = nowNs();
}

Span::~Span()
{
    if (id == 0)
        return;
    const int64_t endNs = nowNs();
    tCurrentSpan = parent;
    if (tTid < 0)
        tTid = gNextTid.fetch_add(1);
    std::lock_guard<std::mutex> lock(gSpansMutex);
    gSpans.push_back({name, startNs, endNs, id, parent, tTid});
}

bool
Tracer::writeChromeTrace(const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    std::lock_guard<std::mutex> lock(gSpansMutex);
    const int64_t origin = gSpans.empty()
        ? 0
        : std::min_element(gSpans.begin(), gSpans.end(),
                           [](const SpanRecord &a, const SpanRecord &b) {
                               return a.startNs < b.startNs;
                           })->startNs;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    char buf[256];
    for (size_t i = 0; i < gSpans.size(); ++i) {
        const SpanRecord &s = gSpans[i];
        std::snprintf(buf, sizeof(buf),
                      "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"id\": %llu, \"parent\": %llu}}%s\n",
                      s.name, s.tid, (s.startNs - origin) / 1e3,
                      (s.endNs - s.startNs) / 1e3,
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      i + 1 < gSpans.size() ? "," : "");
        out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

std::string
Tracer::selfTimeTable()
{
    std::ostringstream os;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%-28s %10s %12s %12s\n", "span",
                  "calls", "total_ms", "self_ms");
    os << buf;
    for (const auto &[name, t] : totalsByName()) {
        std::snprintf(buf, sizeof(buf), "%-28s %10llu %12.3f %12.3f\n",
                      name.c_str(),
                      static_cast<unsigned long long>(t.calls),
                      t.totalNs / 1e6, t.selfNs / 1e6);
        os << buf;
    }
    return os.str();
}

void
Tracer::record(const char *name, Clock::time_point start,
               Clock::time_point end)
{
    if (!enabled())
        return;
    const auto ns = [](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t.time_since_epoch())
            .count();
    };
    if (tTid < 0)
        tTid = gNextTid.fetch_add(1);
    const uint64_t id = gNextSpan.fetch_add(1) + 1;
    std::lock_guard<std::mutex> lock(gSpansMutex);
    gSpans.push_back({name, ns(start), ns(end), id, tCurrentSpan, tTid});
}

// ---- CPU rotation -----------------------------------------------------

namespace
{
/** Shared by every rotation, so that repeated short loops still cycle. */
std::atomic<size_t> gCpuTurn{0};
} // namespace

CpuRotation::CpuRotation()
{
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed))
            cpus.push_back(c);
}

CpuRotation::~CpuRotation()
{
    if (cpus.size() > 1)
        (void)::sched_setaffinity(0, sizeof(allowed), &allowed);
}

void
CpuRotation::next()
{
    if (cpus.size() < 2)
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[gCpuTurn.fetch_add(1) % cpus.size()], &one);
    (void)::sched_setaffinity(0, sizeof(one), &one);
}

// ---- hypervisor steal -------------------------------------------------

double
stolenSec()
{
    // "cpu  user nice system idle iowait irq softirq steal ..."
    std::ifstream in("/proc/stat");
    std::string label;
    double field[8] = {};
    in >> label;
    for (double &f : field)
        in >> f;
    if (!in || label != "cpu")
        return 0.0;
    return field[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

StealMeter::StealMeter() : t0(Clock::now()), stolen0(stolenSec()) {}

bool
StealMeter::disturbed() const
{
    return stolenSec() - stolen0 > maxStealShare * since(t0);
}

void
noteDisturbed(size_t left, size_t total)
{
    if (left > 0)
        std::fprintf(stderr,
                     "labbench: %zu of %zu rounds left out of the medians: "
                     "the hypervisor took more than %.0f%% of a CPU\n",
                     left, total, maxStealShare * 100.0);
}

// ---- child processes --------------------------------------------------

Child::Child(const std::vector<std::string> &argv, bool pipeStderr)
{
    // Everything the child touches between fork and exec is prepared
    // here: after fork only async-signal-safe calls are allowed.
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    const int devNull = ::open("/dev/null", O_RDWR | O_CLOEXEC);
    if (devNull < 0)
        lhr::fatal("labbench: cannot open /dev/null");
    int pipeFds[2] = {-1, -1};
    if (pipeStderr && ::pipe2(pipeFds, O_CLOEXEC) != 0)
        lhr::fatal("labbench: pipe failed");
    const pid_t parent = ::getpid();

    childPid = ::fork();
    if (childPid < 0)
        lhr::fatal("labbench: fork failed");
    if (childPid == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(127);
        ::dup2(devNull, 0);
        ::dup2(devNull, 1);
        ::dup2(pipeStderr ? pipeFds[1] : devNull, 2);
        ::execv(args[0], args.data());
        ::_exit(127);
    }
    ::close(devNull);
    if (pipeStderr) {
        ::close(pipeFds[1]);
        errFd = pipeFds[0];
    }
}

Child::~Child()
{
    stop(2.0);
    if (errFd >= 0)
        ::close(errFd);
}

int
Child::wait(double *peakRssMb)
{
    if (childPid <= 0)
        return -1;
    int status = 0;
    struct rusage usage = {};
    pid_t got;
    do {
        got = ::wait4(childPid, &status, 0, &usage);
    } while (got < 0 && errno == EINTR);
    childPid = -1;
    if (peakRssMb != nullptr)
        *peakRssMb = usage.ru_maxrss / 1024.0;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

void
Child::stop(double graceSec)
{
    if (childPid <= 0)
        return;
    ::kill(childPid, SIGTERM);
    const Clock::time_point t0 = Clock::now();
    int status = 0;
    while (::waitpid(childPid, &status, WNOHANG) == 0) {
        if (since(t0) > graceSec) {
            ::kill(childPid, SIGKILL);
            while (::waitpid(childPid, &status, 0) < 0 && errno == EINTR) {
            }
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    childPid = -1;
}

double
coldSetupSec(int launches)
{
    Span span("setup.cold");
    std::vector<double> secs;
    CpuRotation rotation; // a probe inherits the CPU it is forked on
    for (int i = 0; i < launches; ++i) {
        rotation.next();
        Child probe({"/proc/self/exe", setupProbeFlag}, true);
        std::string out;
        char buf[64];
        for (;;) {
            const ssize_t n = ::read(probe.stderrFd(), buf, sizeof(buf));
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break;
            out.append(buf, static_cast<size_t>(n));
        }
        char *end = nullptr;
        const double sec = std::strtod(out.c_str(), &end);
        if (probe.wait(nullptr) != 0 || end == out.c_str())
            throw std::runtime_error("set-up probe failed: " + out);
        secs.push_back(sec);
    }
    return median(secs);
}

// ---- the grid ---------------------------------------------------------

EraGrid::EraGrid() : benchmarks(lhr::allBenchmarks())
{
    for (const auto &era : lhr::configurationsByEra())
        configs.insert(configs.end(), era.configs.begin(),
                       era.configs.end());
}

Cell
EraGrid::cell(size_t i) const
{
    return {&configs[i / benchmarks.size()],
            &benchmarks[i % benchmarks.size()]};
}

std::vector<size_t>
sampleIndices(size_t n, size_t count, lhr::Rng &rng)
{
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i)
        all[i] = i;
    shuffle(all, rng);
    all.resize(std::min(count, n));
    std::sort(all.begin(), all.end());
    return all;
}

double
powerBudgetRel(const lhr::Benchmark &bench, lhr::SensorBackend backend)
{
    // Mirrors the invocation noise model the runner documents: Java
    // runs vary more, phase-rich benchmarks more still; averaged over
    // the prescribed invocations and taken at 4 sigma. The systematic
    // term is 4x the rig's own per-device error: the Hall chain's
    // 1.5% typical total output error, RAPL's 2% energy-model gain.
    const bool java = bench.language() == lhr::Language::Java;
    const double sigma =
        (java ? 0.012 : 0.008) + 0.04 * bench.phaseVariability;
    const double systematic =
        backend == lhr::SensorBackend::Rapl ? 4 * 0.02 : 4 * 0.015;
    return systematic +
        4.0 * sigma / std::sqrt(bench.prescribedInvocations());
}

void
buildRigs(lhr::ExperimentRunner &runner)
{
    for (const auto *table :
         {&lhr::allProcessors(), &lhr::postPaperProcessors()}) {
        for (const lhr::ProcessorSpec &spec : *table) {
            (void)runner.perfModel(spec);
            (void)runner.powerModel(spec);
            (void)runner.sensor(spec);
        }
    }
}

bool
sameBits(const lhr::Measurement &a, const lhr::Measurement &b)
{
    const auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
    return bits(a.timeSec) == bits(b.timeSec) &&
        bits(a.timeCi95Rel) == bits(b.timeCi95Rel) &&
        bits(a.powerW) == bits(b.powerW) &&
        bits(a.powerCi95Rel) == bits(b.powerCi95Rel) &&
        a.invocations == b.invocations &&
        a.samplesLost == b.samplesLost &&
        a.samplesRailed == b.samplesRailed &&
        a.samplesDuplicated == b.samplesDuplicated &&
        a.retries == b.retries &&
        a.extraInvocations == b.extraInvocations &&
        a.outlierInvocations == b.outlierInvocations &&
        a.degraded == b.degraded;
}

double
storeRoundTrip(const lhr::ResultStore &store, const std::string &path,
               Result &result)
{
    // Rebuilt in key order, as a store loaded from disk is, so the
    // timing does not depend on the seeded order the rows came in.
    lhr::ResultStore canonical;
    for (const lhr::StoredResult *row : store.all())
        canonical.put(*row);
    const Clock::time_point t0 = Clock::now();
    {
        Span span("store.save");
        const lhr::Status saved = canonical.saveToFile(path);
        if (!saved.ok()) {
            result.fail("store save: " + saved.toString());
            return since(t0);
        }
    }
    lhr::Expected<lhr::ResultStore> loaded = lhr::ResultStore{};
    {
        Span span("store.load");
        loaded = lhr::ResultStore::tryLoadFile(path);
    }
    const double sec = since(t0);
    if (!loaded.ok()) {
        result.fail("store load: " + loaded.status().toString());
        return sec;
    }
    Span span("check.store");
    if (loaded.value().size() != store.size())
        result.fail("store round trip changed the row count");
    // The store persists fixed 6-decimal fields: a value comes back
    // unchanged when it equals the original printed at that precision.
    const auto persisted = [](double x) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6f", x);
        return std::strtod(buf, nullptr);
    };
    for (const lhr::StoredResult *row : store.all()) {
        const lhr::StoredResult *back =
            loaded.value().find(row->configLabel, row->benchmark);
        if (back == nullptr || back->timeSec != persisted(row->timeSec) ||
            back->timeCi95Rel != persisted(row->timeCi95Rel) ||
            back->powerW != persisted(row->powerW) ||
            back->powerCi95Rel != persisted(row->powerCi95Rel)) {
            result.fail("store round trip changed " + row->configLabel +
                        " / " + row->benchmark);
            break;
        }
    }
    return sec;
}

double
warmOpUs(lhr::ExperimentRunner &runner, const std::vector<Cell> &cells,
         int rounds)
{
    Span span("harness.warm");
    CpuRotation rotation; // restores the CPU set on return
    double sec = 0.0;
    for (int r = 0; r < rounds; ++r) {
        rotation.next();
        const Clock::time_point t0 = Clock::now();
        for (const Cell &c : cells)
            (void)runner.measure(*c.config, *c.bench);
        sec += since(t0);
    }
    return sec / static_cast<double>(rounds * cells.size()) * 1e6;
}

double
truePowerW(const std::vector<lhr::PowerBreakdown> &phases)
{
    double sum = 0.0;
    for (const auto &p : phases)
        sum += p.total();
    return phases.empty() ? 0.0 : sum / phases.size();
}

} // namespace labbench
