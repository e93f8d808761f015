#include "sweep/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <mutex>

#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace lhr
{

namespace
{

// The sweep's wall-clock reads feed only observability fields
// (SweepReport wallSec/throughput, progress lines, the perf
// baselines) — never a Measurement. The persisted store fields are
// produced entirely from seeded model evaluation.
using Clock = std::chrono::steady_clock; // lhrlint:allow(det-clock): observability-only timing, never reaches measured outputs

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

size_t
SweepReport::failedCells() const
{
    size_t n = 0;
    for (const SweepCell &cell : cells)
        if (!cell.ok())
            ++n;
    return n;
}

size_t
SweepReport::degradedCells() const
{
    size_t n = 0;
    for (const SweepCell &cell : cells)
        if (cell.measurement && cell.measurement->degraded)
            ++n;
    return n;
}

std::string
SweepReport::summary() const
{
    std::string text =
        msgOf("sweep: ", cells.size(), " experiments on ", threads,
              threads == 1 ? " thread" : " threads", " in ",
              wallSec, "s (", experimentsPerSec(),
              " exp/s, utilization ", utilization(), ", cache ",
              cache.hits, " hits / ", cache.misses, " misses)");
    if (shardCount > 1)
        text += msgOf(", shard ", shardIndex + 1, "/", shardCount);
    if (seededCells > 0)
        text += msgOf(", ", seededCells, " resumed from store");
    const size_t failed = failedCells();
    const size_t degraded = degradedCells();
    if (failed > 0)
        text += msgOf(", ", failed, " failed");
    if (degraded > 0)
        text += msgOf(", ", degraded, " degraded");
    return text;
}

SweepEngine::SweepEngine(ExperimentRunner &runner, SweepOptions options)
    : runner(runner), options(options)
{
}

SweepReport
SweepEngine::runFullGrid()
{
    return run(standardConfigurations(), allBenchmarks());
}

SweepReport
SweepEngine::run(std::vector<MachineConfig> configs,
                 std::vector<Benchmark> benchmarks)
{
    if (options.shardCount < 1 || options.shardIndex < 0 ||
        options.shardIndex >= options.shardCount) {
        panic(msgOf("SweepEngine: shard ", options.shardIndex, "/",
                    options.shardCount, " is outside the contract"));
    }

    SweepReport report;
    report.configs = std::move(configs);
    report.benchmarks = std::move(benchmarks);
    report.shardIndex = options.shardIndex;
    report.shardCount = options.shardCount;

    const size_t nBench = report.benchmarks.size();
    const size_t gridTotal = report.configs.size() * nBench;

    // Deterministic strided partition of the row-major cell list:
    // shard i owns the global indices congruent to i (mod N). The
    // stride interleaves cheap Atom cells with expensive Java-on-i7
    // ones, so shards finish in comparable wall time.
    std::vector<size_t> mine;
    mine.reserve(gridTotal / options.shardCount + 1);
    for (size_t idx = static_cast<size_t>(options.shardIndex);
         idx < gridTotal;
         idx += static_cast<size_t>(options.shardCount))
        mine.push_back(idx);
    const size_t total = mine.size();
    report.cells.resize(total);

    // Checkpoint/resume plumbing. The checkpoint store accumulates
    // every row this shard has (seeded or measured) and is saved
    // atomically every checkpointEvery completions, so a kill loses
    // at most one checkpoint interval of work.
    std::mutex checkpointMutex;
    ResultStore checkpointStore;
    if (options.warmStart) {
        for (const size_t idx : mine) {
            const MachineConfig &cfg = report.configs[idx / nBench];
            const Benchmark &bench = report.benchmarks[idx % nBench];
            const StoredResult *prior =
                options.warmStart->find(cfg.label(), bench.name);
            if (prior &&
                runner.seedCache(cfg, bench, prior->toMeasurement())) {
                ++report.seededCells;
                checkpointStore.put(*prior);
            }
        }
    }

    const CacheStats before = runner.cacheStats();
    ThreadPool pool(options.threads);
    report.threads = pool.threadCount();

    std::atomic<size_t> done{0};
    std::mutex progressMutex;
    const size_t progressEvery = std::max<size_t>(1, total / 16);
    const Clock::time_point start = Clock::now();

    std::atomic<int> failures{0};

    // One task per cell; the pool's work stealing keeps every worker
    // busy even though Java benchmarks on big parts cost far more
    // than native ones on the Atom. Cells write disjoint slots, so
    // the results vector needs no lock. A throwing experiment
    // degrades its own cell to a flagged row and never takes the
    // sweep down; past maxFailures the pool is cancelled and the
    // remaining cells come back Cancelled without running.
    pool.parallelFor(total, [&](size_t slot) {
        const size_t idx = mine[slot];
        const size_t ci = idx / nBench;
        const size_t bi = idx % nBench;
        const MachineConfig &cfg = report.configs[ci];
        const Benchmark &bench = report.benchmarks[bi];
        SweepCell &cell = report.cells[slot];
        cell.config = &cfg;
        cell.benchmark = &bench;

        // External stop (snapshot's signal handler sets the flag):
        // a cell not yet started is marked Cancelled instead of run,
        // so the sweep returns at the next cell boundary with every
        // completed row intact.
        if (options.stopFlag != nullptr && options.stopFlag->load()) {
            cell.status =
                Status::error(StatusCode::Cancelled,
                              "sweep stopped before this cell ran");
        } else if (pool.cancelled()) {
            cell.status = Status::error(
                StatusCode::Cancelled,
                "sweep cancelled after too many failed cells");
        } else {
            const Clock::time_point cellStart = Clock::now();
            try {
                cell.measurement = &runner.measure(cfg, bench);
            } catch (const FaultError &e) {
                cell.status = e.status();
            } catch (const std::exception &e) {
                cell.status =
                    Status::error(StatusCode::Internal, e.what());
            }
            cell.wallSec = secondsSince(cellStart);
            if (cell.status.ok() && options.cellTimeoutSec > 0.0 &&
                cell.wallSec > options.cellTimeoutSec) {
                cell.status = Status::error(
                    StatusCode::Timeout,
                    msgOf("cell took ", cell.wallSec, "s, budget ",
                          options.cellTimeoutSec, "s"));
            }
            if (!cell.status.ok() && options.maxFailures >= 0 &&
                failures.fetch_add(1, std::memory_order_relaxed) + 1 >
                    options.maxFailures)
                pool.cancel();
        }

        // Completion bookkeeping: checkpoint + progress.
        const size_t finished =
            done.fetch_add(1, std::memory_order_relaxed) + 1;
        if (options.checkpointEvery > 0 && cell.measurement) {
            // Accumulate under the lock (cells finish out of order)
            // and persist atomically every checkpointEvery cells;
            // the last partial interval is covered by the caller's
            // final save of the full shard store.
            std::lock_guard<std::mutex> lock(checkpointMutex);
            checkpointStore.put(cfg, bench, *cell.measurement);
            if (finished % options.checkpointEvery == 0 &&
                finished != total) {
                const Status saved =
                    checkpointStore.saveToFile(options.checkpointPath);
                if (!saved.ok()) {
                    std::cerr << "sweep: checkpoint failed: "
                              << saved.toString() << "\n";
                }
            }
        }
        if (options.progress &&
            (finished % progressEvery == 0 || finished == total)) {
            const double elapsed = secondsSince(start);
            std::lock_guard<std::mutex> lock(progressMutex);
            std::cerr << "sweep: " << finished << "/" << total << " ("
                      << (elapsed > 0.0 ? finished / elapsed : 0.0)
                      << " exp/s)" << (finished == total ? "\n" : "\r")
                      << std::flush;
        }
    });

    report.wallSec = secondsSince(start);
    const CacheStats after = runner.cacheStats();
    report.cache.hits = after.hits - before.hits;
    report.cache.misses = after.misses - before.misses;
    for (const SweepCell &cell : report.cells) {
        report.maxCellSec = std::max(report.maxCellSec, cell.wallSec);
        report.sumCellSec += cell.wallSec;
    }
    return report;
}

ResultStore
toStore(const SweepReport &report)
{
    ResultStore store;
    for (const SweepCell &cell : report.cells) {
        if (cell.measurement)
            store.put(*cell.config, *cell.benchmark, *cell.measurement);
    }
    return store;
}

// Defined here rather than in store/results_store.cc: snapshot runs
// on the parallel SweepEngine, and the sweep module links above the
// store module. Bit-identical to the old serial double loop by the
// engine's determinism contract (tests/test_store.cc asserts it).
ResultStore
ResultStore::snapshot(ExperimentRunner &runner,
                      const std::vector<MachineConfig> &configs)
{
    return snapshot(runner, configs, allBenchmarks());
}

ResultStore
ResultStore::snapshot(ExperimentRunner &runner,
                      const std::vector<MachineConfig> &configs,
                      const std::vector<Benchmark> &benchmarks)
{
    SweepEngine engine(runner);
    return toStore(engine.run(configs, benchmarks));
}

} // namespace lhr
