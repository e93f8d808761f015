/**
 * @file
 * Shared pieces of the labbench program: run options, the result
 * record, wall-clock helpers, in-memory span tracing, child
 * processes, and the era grid every workload draws from.
 *
 * labbench times lhrlab from outside: it calls the `lhrlab`
 * binary and the public functions of the src/ modules, and changes
 * no program code. Spans are recorded only here, around those calls.
 */

#ifndef LABBENCH_BENCH_HH
#define LABBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <sched.h>
#include <string>
#include <sys/types.h>
#include <vector>

#include "machine/processor.hh"
#include "fault/fault.hh"
#include "harness/runner.hh"
#include "power/chip_power.hh"
#include "sensor/sensor.hh"
#include "serve/protocol.hh"
#include "store/results_store.hh"
#include "util/net.hh"
#include "util/rng.hh"
#include "workload/benchmark.hh"

namespace labbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since t0. */
double since(Clock::time_point t0);

/** Worker threads and client connections: at most two of each. */
inline constexpr int benchThreads = 2;

/** Cold set-ups timed per run for setup_s (see coldSetupSec). */
inline constexpr int setupLaunches = 5;

/** The argument that makes labbench time one cold set-up and exit. */
inline constexpr const char *setupProbeFlag = "--setup-probe";

/** Command line of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string lhrlab;  ///< path of the lhrlab binary
    std::string workDir; ///< per-run work directory (removed at exit)
    std::string traceOut; ///< Chrome trace file of a traced run
};

/**
 * What one run reports. `metrics` holds every number a workload
 * measured (end-to-end and per-layer alike); main() prints the set
 * that --trace selects.
 */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, double> metrics;
    std::vector<std::string> problems; ///< failed output checks

    /** Record a failed output check (sets correct = false). */
    void fail(const std::string &why);
};

/** Median of a sample (0 when empty). */
double median(std::vector<double> xs);

/** Linear-interpolated percentile, pct in [0, 100]. */
double percentile(std::vector<double> xs, double pct);

/** Seed of the lab under test, derived from the run's --seed. */
uint64_t labSeedOf(uint64_t seed);

// ---- tracing ----------------------------------------------------------

/**
 * Process-wide span recorder. Disabled, a Span costs one branch.
 * Enabled, every Span records name, start, end, its id and its
 * parent's id (the innermost open span on the same thread); spans
 * stay in memory until writeChromeTrace() at exit.
 */
class Tracer
{
  public:
    static void enable();
    static bool enabled();

    /** Write Chrome trace-event JSON (opens in Perfetto). */
    static bool writeChromeTrace(const std::string &path);

    /** Per-name calls, total and self time, as an aligned table. */
    static std::string selfTimeTable();

    /**
     * Record an interval observed from outside (a child process's
     * progress) as a span under the calling thread's current span.
     * `name` must outlive the tracer (a literal or a registry name).
     */
    static void record(const char *name, Clock::time_point start,
                       Clock::time_point end);
};

/** RAII span; see Tracer. */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name;
    int64_t startNs = 0;
    uint64_t id = 0;
    uint64_t parent = 0;
};

// ---- hypervisor steal -------------------------------------------------

/**
 * CPU time the hypervisor has taken from the vCPUs labbench runs on since
 * boot (the steal column of /proc/stat), in seconds; 0 where the
 * kernel does not report it.
 */
double stolenSec();

/**
 * A round during which the hypervisor took more than this share of
 * one CPU's time measures the host, not the program. On the shared
 * host of the README's reference figures, steal stayed at 0 through
 * steady runs.
 */
inline constexpr double maxStealShare = 0.05;

/** Whether the hypervisor disturbed the round since construction. */
class StealMeter
{
  public:
    StealMeter();

    /** More than maxStealShare of a CPU stolen since construction. */
    bool disturbed() const;

  private:
    Clock::time_point t0;
    double stolen0;
};

/** Report on stderr how many of a run's rounds were left out. */
void noteDisturbed(size_t left, size_t total);

/**
 * The rounds a run's medians are taken over: those the hypervisor
 * left alone, or every round when it disturbed them all. `Round` has
 * a `bool disturbed`.
 */
template <typename Round>
std::vector<Round>
quietRounds(const std::vector<Round> &rounds)
{
    std::vector<Round> quiet;
    for (const Round &r : rounds)
        if (!r.disturbed)
            quiet.push_back(r);
    noteDisturbed(rounds.size() - quiet.size(), rounds.size());
    return quiet.empty() ? rounds : quiet;
}

/**
 * Whether a run starts another round, `at` seconds after the run's
 * start (plus the round's expected length, where rounds are long):
 * while `at` is within `seconds`, and within twice that while every
 * round so far was disturbed, so that a burst of steal covering a
 * whole run can still end in time to leave it quiet rounds. A run
 * makes at least one round.
 */
template <typename Round>
bool
anotherRound(const std::vector<Round> &rounds, double at, double seconds)
{
    bool allDisturbed = true;
    for (const Round &r : rounds)
        allDisturbed = allDisturbed && r.disturbed;
    return rounds.empty() || at <= (allDisturbed ? 2.0 : 1.0) * seconds;
}

// ---- CPU rotation -----------------------------------------------------

/**
 * Moves the calling thread round-robin over the CPUs it may use, one
 * CPU per next(). The host's vCPUs differ in speed by up to 1.5x, and
 * that changes as other tenants come and go; a single-threaded timed
 * loop left where the scheduler put it measures its CPU. Rotating
 * its repetitions over every CPU, and taking their median, measures
 * the program. The destructor restores the thread's CPU set.
 */
class CpuRotation
{
  public:
    CpuRotation();
    ~CpuRotation();

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Pin to the next CPU of the set (a no-op on a single CPU). */
    void next();

  private:
    cpu_set_t allowed;
    std::vector<int> cpus;
};

// ---- child processes --------------------------------------------------

/**
 * One child process (lhrlab). The destructor stops and reaps it on
 * every exit path: SIGTERM, a grace period, then SIGKILL. The child
 * also gets SIGKILL if labbench dies first.
 */
class Child
{
  public:
    /**
     * Start argv[0] with argv. stdout goes to /dev/null; stderr to
     * /dev/null or, with pipeStderr, to a pipe read via stderrFd().
     */
    Child(const std::vector<std::string> &argv, bool pipeStderr);
    ~Child();

    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;

    pid_t pid() const { return childPid; }
    int stderrFd() const { return errFd; }

    /**
     * Wait for exit; returns the exit status (-1 if signalled) and
     * stores the child's peak RSS in MB.
     */
    int wait(double *peakRssMb);

    /** SIGTERM, wait up to graceSec, then SIGKILL; always reaps. */
    void stop(double graceSec);

  private:
    pid_t childPid = -1;
    int errFd = -1;
};

// ---- the grid ---------------------------------------------------------

/** One cell of the era grid. */
struct Cell
{
    const lhr::MachineConfig *config;
    const lhr::Benchmark *bench;
};

/**
 * The era grid: configurationsByEra() (45 paper + 40 server
 * configurations) x allBenchmarks() (61) = 5185 cells.
 */
struct EraGrid
{
    std::vector<lhr::MachineConfig> configs;
    std::vector<lhr::Benchmark> benchmarks;

    EraGrid();
    size_t cells() const { return configs.size() * benchmarks.size(); }
    Cell cell(size_t i) const;
};

/** Fisher-Yates shuffle driven by rng. */
template <typename T>
void
shuffle(std::vector<T> &xs, lhr::Rng &rng)
{
    for (size_t i = xs.size(); i > 1; --i)
        std::swap(xs[i - 1], xs[rng.below(i)]);
}

/** `count` distinct indices in [0, n), drawn by rng, ascending. */
std::vector<size_t> sampleIndices(size_t n, size_t count, lhr::Rng &rng);

/**
 * The sensor chain's error budget for one clean cell, as a fraction
 * of true power: invocation-to-invocation power noise averaged over
 * the prescribed invocations, plus the rig's systematic per-device
 * error (see common.cc for the constants).
 */
double powerBudgetRel(const lhr::Benchmark &bench,
                      lhr::SensorBackend backend);

/** Time-averaged true power of a cell's phase waveform. */
double truePowerW(const std::vector<lhr::PowerBreakdown> &phases);

// ---- shared lab steps -------------------------------------------------

/**
 * Build every processor's performance and power models and its
 * sensor rig (the 8 paper parts and the 4 server parts): a runner's
 * cold set-up.
 */
void buildRigs(lhr::ExperimentRunner &runner);

/**
 * setup_s of the in-process workloads: the median over `launches`
 * fresh `labbench --setup-probe` processes, each timing its own cold
 * set-up from its first static initialiser to buildRigs() done.
 */
double coldSetupSec(int launches);

/** Every field of two measurements, compared bit for bit. */
bool sameBits(const lhr::Measurement &a, const lhr::Measurement &b);

/**
 * Save `store` to `path` and load it back, as `lhrlab snapshot`
 * persists a grid; returns the wall seconds of save + load. A row
 * that does not come back unchanged (at the store's 6-decimal
 * precision) is a failed check.
 */
double storeRoundTrip(const lhr::ResultStore &store,
                      const std::string &path, Result &result);

/**
 * warm_op_us of the in-process workloads: microseconds per memo-cache
 * hit, every cell (each already measured by `runner`) measured again
 * `rounds` times over, serially, each time on the next CPU of a
 * CpuRotation, so that one call visits every CPU. Set `rounds` to a
 * multiple of the CPU count, for about 50 ms in all.
 */
double warmOpUs(lhr::ExperimentRunner &runner, const std::vector<Cell> &cells,
                int rounds);

/** grid_hardened's fixed low-rate plan (see README). */
lhr::FaultPlan hardenedFaultPlan();

/** The same classes at rates that inject nothing on the grid. */
lhr::FaultPlan nullFaultPlan();

// ---- serve client -----------------------------------------------------

/**
 * The `measure` request for a grid cell. The wire carries the clock
 * with 3 decimals, so the stock clock is left implicit.
 */
lhr::ServeRequest serveRequest(const Cell &cell, long id);

/** One closed-loop request; false on a transport error. */
bool roundTrip(const lhr::Socket &sock, const std::string &body,
               std::string &reply, double &ms);

/** Connect, retrying until the daemon listens or `budgetSec` passes. */
lhr::Expected<lhr::Socket> connectWhenUp(const std::string &path,
                                         double budgetSec);

// ---- workloads --------------------------------------------------------

void runReproduce(const Options &opt, Result &result);
void runGrid(const Options &opt, bool hardened, Result &result);
void runServe(const Options &opt, Result &result);

/** The traced run's direct per-layer probes. */
void runLayers(const Options &opt, Result &result);

} // namespace labbench

#endif // LABBENCH_BENCH_HH
