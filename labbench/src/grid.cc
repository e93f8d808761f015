/**
 * @file
 * The grid_cold and grid_hardened workloads: the full era grid
 * measured cold by a fresh ExperimentRunner per pass through
 * SweepEngine at two threads, then saved and reloaded through
 * ResultStore as `lhrlab snapshot` does.
 *
 * grid_hardened installs a fixed low-rate FaultPlan (every class but
 * logger-disconnect) under the default MeasurementPolicy, so every
 * sampling session takes the per-sample injector/logger path and the
 * validate/retry/outlier/CI-gate recovery.
 */

#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <sys/resource.h>

#include "bench.hh"
#include "fault/fault.hh"
#include "sweep/sweep.hh"
#include "util/env.hh"

namespace labbench
{

namespace
{

/**
 * The hardened workload's fault plan. Rates are per 50Hz sample for
 * the sample classes and per session for the session classes; low
 * enough that recovery always succeeds, so the only failed cells are
 * the ones the balance gate rejects on clean data.
 */
lhr::FaultPlan
hardenedPlan(double scale)
{
    using lhr::FaultClass;
    lhr::FaultPlan plan;
    plan.seed = 0x1AB0FA17;
    plan.with(FaultClass::DroppedSample, 1e-3 * scale)
        .with(FaultClass::DuplicatedSample, 1e-3 * scale)
        .with(FaultClass::SensorSaturation, 1e-4 * scale)
        .with(FaultClass::CalibrationDrift, 1e-2 * scale)
        .with(FaultClass::ThermalThrottle, 1e-2 * scale)
        .with(FaultClass::CorunInterference, 1e-2 * scale)
        .with(FaultClass::CounterWraparound, 1e-4 * scale)
        .with(FaultClass::StaleCounter, 1e-3 * scale);
    return plan;
}

/** Surviving hardened cells may carry recovered, wider error. */
constexpr double hardenedBudgetScale = 2.0;

/** Warm re-measures of the grid per pass (see warmOpUs). */
constexpr int warmRounds = 8;

struct PassTimes
{
    double roundSec = 0.0;  ///< sweep + store save and reload
    double sweepSec = 0.0;
    double warmOpUs = 0.0;  ///< one memo-cache hit of a measured cell
    bool disturbed = false; ///< see StealMeter
};

} // namespace

lhr::FaultPlan
hardenedFaultPlan()
{
    return hardenedPlan(1.0);
}

lhr::FaultPlan
nullFaultPlan()
{
    // Nonzero rates keep the hardened path; 1e-12 injects nothing in
    // any session of the grid.
    return hardenedPlan(1e-9);
}

void
runGrid(const Options &opt, bool hardened, Result &result)
{
    const EraGrid grid;
    // The clean grid varies the lab under test with --seed. The
    // hardened grid keeps the default lab so that its known failures
    // (the balance gate, see README) are the same cells on every
    // seed; --seed then varies the traversal order and the sample
    // of cells the checks re-measure.
    const uint64_t labSeed =
        hardened ? lhr::defaultSeed() : labSeedOf(opt.seed);
    lhr::Rng rng(opt.seed ^ 0x96D1);
    std::vector<lhr::MachineConfig> configs = grid.configs;
    std::vector<lhr::Benchmark> benchmarks = grid.benchmarks;
    shuffle(configs, rng);
    shuffle(benchmarks, rng);
    const std::vector<size_t> serialSample =
        sampleIndices(grid.cells(), 48, rng);

    std::vector<PassTimes> passes;
    std::set<std::string> firstFailures;
    const double setupSec = coldSetupSec(setupLaunches);
    const std::string storePath = opt.workDir + "/grid.csv";

    const Clock::time_point start = Clock::now();
    while (anotherRound(passes, since(start), opt.seconds)) {
        Span passSpan("grid.pass");
        auto runner = std::make_unique<lhr::ExperimentRunner>(labSeed);
        if (hardened)
            runner->setFaultPlan(hardenedPlan(1.0));
        {
            Span span("grid.setup");
            buildRigs(*runner);
        }

        // One snapshot pass, as `lhrlab snapshot` makes it: the sweep,
        // then the grid saved and loaded back.
        const StealMeter steal;
        PassTimes times;
        lhr::SweepReport report;
        {
            Span span("sweep.run");
            const Clock::time_point t0 = Clock::now();
            lhr::SweepOptions sweepOpt;
            sweepOpt.threads = benchThreads;
            report = lhr::SweepEngine(*runner, sweepOpt)
                         .run(configs, benchmarks);
            times.sweepSec = since(t0);
        }
        {
            Span span("store.round_trip");
            lhr::ResultStore store;
            {
                Span toStore("store.to_store");
                store = lhr::toStore(report);
            }
            times.roundSec =
                times.sweepSec + storeRoundTrip(store, storePath, result);
        }

        // Every measured cell again on the warmed runner, serially:
        // each is a memo-cache hit, as a repeated request is in serve.
        // Failed cells are left out: the cache does not keep a
        // failure, so each repeat would rerun its whole retry ladder.
        std::vector<Cell> measured;
        for (const lhr::SweepCell &cell : report.cells)
            if (cell.ok())
                measured.push_back({cell.config, cell.benchmark});
        times.warmOpUs = warmOpUs(*runner, measured, warmRounds);
        times.disturbed = steal.disturbed();
        passes.push_back(times);
        result.attempted += report.cells.size();
        result.failed += report.failedCells();

        // ---- output checks (outside every timed interval) ----
        Span checkSpan("check.grid");
        std::set<std::string> failures;
        for (const lhr::SweepCell &cell : report.cells) {
            const std::string where =
                cell.config->label() + " / " + cell.benchmark->name;
            if (!cell.ok()) {
                failures.insert(where);
                if (!hardened)
                    result.fail("clean cell failed: " + where);
                else if (cell.status.code() !=
                         lhr::StatusCode::FaultDetected)
                    result.fail("failed cell without fault-detected "
                                "status: " + where);
                continue;
            }
            const double truth = truePowerW(
                runner->phasePowerSeries(*cell.config, *cell.benchmark));
            const double budget =
                powerBudgetRel(*cell.benchmark,
                               runner->sensor(*cell.config->spec).backend()) *
                (hardened ? hardenedBudgetScale : 1.0);
            if (!(std::fabs(cell.measurement->powerW - truth) <=
                  budget * truth))
                result.fail("power outside the sensor error budget: " +
                            where);
        }
        for (const lhr::SweepCell &cell : report.cells)
            if (cell.ok() &&
                !sameBits(runner->measure(*cell.config, *cell.benchmark),
                          *cell.measurement))
                result.fail("a memo-cache hit differs from the sweep: " +
                            cell.config->label() + " / " +
                            cell.benchmark->name);
        if (passes.size() == 1)
            firstFailures = failures;
        else if (failures != firstFailures)
            result.fail("failed cells differ between passes");

        // A second runner measures a sample of cells serially: the
        // 2-thread sweep must match it bit for bit.
        lhr::ExperimentRunner serial(labSeed);
        if (hardened)
            serial.setFaultPlan(hardenedPlan(1.0));
        std::map<std::string, const lhr::Measurement *> swept;
        for (const lhr::SweepCell &cell : report.cells)
            swept[lhr::ExperimentRunner::keyOf(*cell.config,
                                               *cell.benchmark)] =
                cell.measurement;
        for (const size_t i : serialSample) {
            const Cell c = grid.cell(i);
            const lhr::Measurement *sweptM =
                swept.at(lhr::ExperimentRunner::keyOf(*c.config, *c.bench));
            try {
                const lhr::Measurement &m =
                    serial.measure(*c.config, *c.bench);
                if (sweptM == nullptr || !sameBits(m, *sweptM))
                    result.fail("serial measurement differs from the "
                                "sweep: " + c.config->label() + " / " +
                                c.bench->name);
            } catch (const lhr::FaultError &) {
                if (sweptM != nullptr)
                    result.fail("serial measurement failed where the "
                                "sweep succeeded: " + c.config->label() +
                                " / " + c.bench->name);
            }
        }
    }

    if (hardened) {
        // Pin every failure on the balance gate: each failed cell
        // fails again under a plan that injects nothing.
        Span span("check.null_plan");
        lhr::ExperimentRunner quiet(labSeed);
        quiet.setFaultPlan(nullFaultPlan());
        for (size_t i = 0; i < grid.cells(); ++i) {
            const Cell c = grid.cell(i);
            const std::string where =
                c.config->label() + " / " + c.bench->name;
            if (!firstFailures.count(where))
                continue;
            try {
                (void)quiet.measure(*c.config, *c.bench);
                result.fail("failure not reproduced without injected "
                            "faults: " + where);
            } catch (const lhr::FaultError &) {
            }
        }
    }

    std::vector<double> roundSecs, sweepRates, warmOpUs;
    for (const PassTimes &p : quietRounds(passes)) {
        roundSecs.push_back(p.roundSec);
        sweepRates.push_back(static_cast<double>(grid.cells()) / p.sweepSec);
        warmOpUs.push_back(p.warmOpUs);
    }
    struct rusage usage = {};
    ::getrusage(RUSAGE_SELF, &usage);

    auto &m = result.metrics;
    m["round_s"] = median(roundSecs);
    m["cold_exp_per_s"] = median(sweepRates);
    m["warm_op_us"] = median(warmOpUs);
    m["setup_s"] = setupSec;
    m["peak_rss_mb"] = usage.ru_maxrss / 1024.0;
    m["traced.pass_s"] = median(roundSecs);
}

} // namespace labbench
