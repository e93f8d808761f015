#include "cpu/perf_model.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace lhr
{

PerfModel::PerfModel(const ProcessorSpec &spec)
    : processor(spec), caches(makeHierarchy(spec))
{
}

CpiStack
PerfModel::threadCpi(const Benchmark &bench, double clock_ghz,
                     int threads_on_core, double cores_on_llc) const
{
    if (clock_ghz <= 0.0)
        panic("threadCpi: non-positive clock");
    if (threads_on_core < 1 || cores_on_llc < 1.0)
        panic("threadCpi: invalid sharing");

    const MicroArch &ua = processor.uarch();
    const double effWidth = ua.issueWidth * ua.issueEfficiency;
    // The scheduling window determines how much of the benchmark's
    // inherent ILP the pipeline can actually expose.
    const double ilpEff = bench.ilp * ua.ilpExtraction;

    CpiStack stack;
    stack.base = 1.0 / std::min(effWidth, ilpEff);
    stack.branch = bench.branchMispKi / 1000.0 * ua.branchPenalty;

    // Two SMT threads with partially overlapping footprints divide
    // the private capacity by less than 2.
    const double coreDivisor =
        1.0 + (threads_on_core - 1) * 2.0 * ua.smtCachePressure;
    const double llcDivisor = coreDivisor * cores_on_llc;
    const auto traffic =
        caches.evaluate(bench.miss, coreDivisor, llcDivisor);

    stack.memory = traffic.stallNsPerInstr * clock_ghz *
        ua.stallExposure;
    return stack;
}

double
PerfModel::coreIpc(const Benchmark &bench, double clock_ghz,
                   int threads_on_core, double cores_on_llc) const
{
    const MicroArch &ua = processor.uarch();
    const double ipc1 =
        threadCpi(bench, clock_ghz, threads_on_core, cores_on_llc).ipc();
    if (threads_on_core <= 1)
        return ipc1;

    // The second thread fills a smtQuality share of the idle issue
    // slots; total throughput never exceeds what the two threads
    // could consume.
    const double effWidth = ua.issueWidth * ua.issueEfficiency;
    const double filled =
        ipc1 + ua.smtQuality * std::max(0.0, effWidth - ipc1);
    return std::min(threads_on_core * ipc1, filled);
}

PerfResult
PerfModel::evaluate(const Benchmark &bench, const MachineConfig &cfg,
                    double clock_ghz, double work_instructions,
                    int app_threads) const
{
    if (work_instructions <= 0.0)
        panic("PerfModel::evaluate: non-positive work");
    if (cfg.spec != &processor)
        panic("PerfModel::evaluate: config is for a different processor");

    const MicroArch &ua = processor.uarch();
    const int contexts = cfg.contexts();
    const int threads =
        app_threads == 0 ? contexts : std::min(app_threads, contexts);
    const int coresUsed = std::min(threads, cfg.enabledCores);
    const int threadsPerCore =
        (threads + coresUsed - 1) / coresUsed; // 1 or 2

    const double hz = clock_ghz * 1e9;

    // Serial phase: one thread, one active core.
    const auto serialTraffic = caches.evaluate(bench.miss, 1.0, 1.0);
    const double serialIpc = coreIpc(bench, clock_ghz, 1, 1.0);
    const double serialRate = serialIpc * hz * processor.perfCal;

    // Parallel phase: all threads running.
    const double parallelCoreIpc =
        coreIpc(bench, clock_ghz, threadsPerCore, coresUsed);
    // Synchronization and scheduling overhead grows mildly with the
    // number of threads.
    const double syncFactor = 1.0 / (1.0 + 0.05 * (threads - 1));
    double parallelRate = coresUsed * parallelCoreIpc * hz * syncFactor *
        processor.perfCal;

    // DRAM bandwidth ceiling on the parallel phase.
    const double coreDivisor =
        1.0 + (threadsPerCore - 1) * 2.0 * ua.smtCachePressure;
    const auto parallelTraffic = caches.evaluate(
        bench.miss, coreDivisor, coreDivisor * coresUsed);
    const double requestedGBs = parallelRate *
        parallelTraffic.dramMpki / 1000.0 * DramModel::lineBytes / 1e9;
    const double throttle = processor.memory().throttle(requestedGBs);
    parallelRate *= throttle;

    const double p = threads > 1 ? bench.parallelFraction : 0.0;
    const double serialTime = work_instructions * (1.0 - p) / serialRate;
    const double parallelTime = work_instructions * p / parallelRate;
    const double timeSec = serialTime + parallelTime;

    PerfResult result;
    result.timeSec = timeSec;
    result.aggregateIps = work_instructions / timeSec;
    result.coresUsed = coresUsed;
    result.threadsPerCore = threadsPerCore;
    result.bandwidthThrottle = throttle;

    const double width = ua.issueWidth;
    const double serialUtil = serialIpc / width;
    const double parallelUtil = parallelCoreIpc * syncFactor *
        throttle / width;
    result.coreUtilization.assign(
        cfg.enabledCores > 0 ? cfg.enabledCores : 0, 0.0);
    for (int core = 0; core < coresUsed; ++core) {
        const double active =
            (core == 0 ? serialTime * serialUtil : 0.0) +
            parallelTime * parallelUtil;
        result.coreUtilization[core] = active / timeSec;
    }

    const double serialGBs = serialRate *
        serialTraffic.dramMpki / 1000.0 * DramModel::lineBytes / 1e9;
    result.dramGBs = (serialTime * serialGBs +
                      parallelTime * requestedGBs * throttle) / timeSec;

    const double llcAccessesPerSec = result.aggregateIps *
        parallelTraffic.l1Mpki / 1000.0;
    result.llcActivity = std::min(1.0, llcAccessesPerSec / 2e8);
    return result;
}

} // namespace lhr
