/**
 * @file
 * The traced run's per-layer probes. Each probe times direct calls
 * into one module's public functions on fixed, seeded inputs, inside
 * a span named after the layer, so the per-layer numbers and the
 * trace describe the same work on every workload.
 */

#include <barrier>
#include <filesystem>
#include <ostream>
#include <set>
#include <streambuf>
#include <thread>

#include "bench.hh"
#include "core/lab.hh"
#include "counters/hwcounters.hh"
#include "harness/reference.hh"
#include "pipesim/pipeline.hh"
#include "serve/protocol.hh"
#include "study/study.hh"
#include "sweep/sweep.hh"
#include "trace/generator.hh"
#include "util/json.hh"
#include "util/net.hh"

namespace labbench
{

namespace
{

using Metrics = std::map<std::string, double>;

/** Keeps probe results observable so no timed loop is elided. */
volatile uint64_t gSink = 0;

/** An ostream that discards everything (study output sink). */
class NullBuffer : public std::streambuf
{
  protected:
    int overflow(int c) override { return c; }
    std::streamsize xsputn(const char *, std::streamsize n) override
    {
        return n;
    }
};

int
sessionSamples(double timeSec)
{
    const double duration =
        std::min(timeSec, lhr::ExperimentRunner::maxSampledSec);
    return std::max(10, static_cast<int>(duration * 50.0));
}

/** Model, phase generation and sensor sessions on sample cells. */
void
probeCell(const std::vector<Cell> &cells, uint64_t labSeed, Metrics &m)
{
    Span layer("layer.cell");
    lhr::ExperimentRunner runner(labSeed);
    buildRigs(runner);
    constexpr int reps = 4;

    double profileSec = 0.0, seriesSec = 0.0;
    {
        Span span("model.profile");
        const Clock::time_point t0 = Clock::now();
        for (int r = 0; r < reps; ++r)
            for (const Cell &c : cells)
                (void)runner.profile(*c.config, *c.bench);
        profileSec = since(t0);
    }
    std::vector<std::vector<double>> phaseW;
    {
        Span span("phases.series");
        const Clock::time_point t0 = Clock::now();
        for (int r = 0; r < reps; ++r) {
            for (const Cell &c : cells) {
                const auto series =
                    runner.phasePowerSeries(*c.config, *c.bench);
                if (r == 0) {
                    std::vector<double> w;
                    for (const auto &p : series)
                        w.push_back(p.total());
                    phaseW.push_back(std::move(w));
                }
            }
        }
        seriesSec = since(t0);
    }
    const double calls = static_cast<double>(reps * cells.size());
    m["model.profile_us"] = profileSec / calls * 1e6;
    m["phases.series_us"] = (seriesSec - profileSec) / calls * 1e6;

    Span span("sensor.session");
    double hallNs = 0.0, raplNs = 0.0, sessionSec = 0.0;
    double hallSamples = 0.0, raplSamples = 0.0, sessions = 0.0;
    lhr::Rng rng(labSeed ^ 0x5E5);
    for (int r = 0; r < reps; ++r) {
        for (size_t i = 0; i < cells.size(); ++i) {
            const Cell &c = cells[i];
            const lhr::PowerSensor &sensor = runner.sensor(*c.config->spec);
            const int samples = sessionSamples(
                runner.profile(*c.config, *c.bench).timeSec);
            const Clock::time_point t0 = Clock::now();
            const double watts = sensor.sessionWatts(
                phaseW[i].data(), static_cast<int>(phaseW[i].size()), 1.0,
                samples, rng);
            const double sec = since(t0);
            if (!(watts > 0.0))
                continue;
            sessionSec += sec;
            ++sessions;
            if (sensor.backend() == lhr::SensorBackend::Rapl) {
                raplNs += sec * 1e9;
                raplSamples += samples;
            } else {
                hallNs += sec * 1e9;
                hallSamples += samples;
            }
        }
    }
    m["sensor.hall.ns_per_sample"] = hallNs / std::max(1.0, hallSamples);
    m["sensor.rapl.ns_per_sample"] = raplNs / std::max(1.0, raplSamples);
    m["sensor.session_us"] = sessionSec / std::max(1.0, sessions) * 1e6;
}

/**
 * Direct measure() calls: cold on a fresh runner, then cache hits.
 * The memo cache must count exactly one miss per cell and one hit per
 * repeat.
 */
void
probeHarness(const std::vector<Cell> &cells, uint64_t labSeed, Metrics &m,
             Result &result)
{
    Span layer("layer.harness");
    lhr::ExperimentRunner runner(labSeed);
    buildRigs(runner);
    double coldSec = 0.0, hitSec = 0.0;
    {
        Span span("harness.measure_cold");
        const Clock::time_point t0 = Clock::now();
        for (const Cell &c : cells)
            (void)runner.measure(*c.config, *c.bench);
        coldSec = since(t0);
    }
    constexpr int hitReps = 20;
    {
        Span span("harness.measure_hit");
        const Clock::time_point t0 = Clock::now();
        for (int r = 0; r < hitReps; ++r)
            for (const Cell &c : cells)
                (void)runner.measure(*c.config, *c.bench);
        hitSec = since(t0);
    }
    const lhr::CacheStats stats = runner.cacheStats();
    m["harness.measure_cold_us"] = coldSec / cells.size() * 1e6;
    m["harness.measure_hit_us"] = hitSec / (hitReps * cells.size()) * 1e6;
    if (stats.misses != cells.size() || stats.hits != hitReps * cells.size())
        result.fail("layer probe: memo cache counted " +
                    std::to_string(stats.misses) + " misses and " +
                    std::to_string(stats.hits) + " hits for " +
                    std::to_string(cells.size()) + " cells x " +
                    std::to_string(hitReps) + " repeats");
}

/** Full-grid sweeps: clean (sweep + store layers) and hardened. */
void
probeSweep(const Options &opt, uint64_t labSeed, Metrics &m)
{
    const EraGrid grid;
    {
        Span layer("layer.sweep");
        lhr::ExperimentRunner runner(labSeed);
        buildRigs(runner);
        lhr::SweepOptions sweepOpt;
        sweepOpt.threads = benchThreads;
        lhr::SweepReport report;
        {
            Span span("sweep.run");
            report = lhr::SweepEngine(runner, sweepOpt)
                         .run(grid.configs, grid.benchmarks);
        }
        m["sweep.wall_s"] = report.wallSec;
        m["sweep.sum_cell_s"] = report.sumCellSec;
        m["sweep.utilization"] = report.utilization();

        Span span("layer.store");
        const lhr::ResultStore store = lhr::toStore(report);
        const std::string path = opt.workDir + "/layers.csv";
        Clock::time_point t0 = Clock::now();
        if (!store.saveToFile(path).ok())
            return;
        m["store.save_s"] = since(t0);
        t0 = Clock::now();
        const auto loaded = lhr::ResultStore::tryLoadFile(path);
        m["store.load_s"] = since(t0);
        if (!loaded.ok())
            m.erase("store.load_s");
    }
    {
        Span layer("layer.hardened");
        lhr::ExperimentRunner runner(lhr::defaultSeed());
        runner.setFaultPlan(hardenedFaultPlan());
        buildRigs(runner);
        lhr::SweepOptions sweepOpt;
        sweepOpt.threads = benchThreads;
        lhr::SweepReport report;
        {
            Span span("hardened.sweep");
            report = lhr::SweepEngine(runner, sweepOpt)
                         .run(grid.configs, grid.benchmarks);
        }
        double prescribed = 0.0, spent = 0.0;
        for (const lhr::SweepCell &cell : report.cells) {
            if (!cell.ok())
                continue;
            const double p = cell.benchmark->prescribedInvocations();
            prescribed += p;
            spent += p + cell.measurement->retries +
                cell.measurement->extraInvocations;
        }
        m["hardened.measure_us"] =
            report.sumCellSec / report.cells.size() * 1e6;
        m["hardened.useful_ratio"] = prescribed / spent;
        m["hardened.degraded_cells"] =
            static_cast<double>(report.degradedCells());
        m["hardened.failed_cells"] =
            static_cast<double>(report.failedCells());
    }
}

/** The reproduction in process: prewarm, then every study. */
void
probeStudies(uint64_t labSeed, Metrics &m)
{
    Span layer("layer.study");
    const auto studies = lhr::StudyRegistry::instance().all();
    lhr::Lab lab(labSeed);
    {
        Span span("study.prewarm");
        const Clock::time_point t0 = Clock::now();
        std::vector<const lhr::Study *> all(studies.begin(), studies.end());
        lab.prewarm(lhr::unionGrid(all), {.threads = benchThreads});
        m["study.prewarm_s"] = since(t0);
    }
    const std::set<std::string> named = {
        "ablation_pipesim", "ablation_tracesim", "ablation_bootstrap",
        "pareto_history",   "dataset",           "findings",
        "table2"};
    NullBuffer nullBuf;
    std::ostream null(&nullBuf);
    double rest = 0.0;
    for (const lhr::Study *study : studies) {
        Span span(study->name().c_str());
        const Clock::time_point t0 = Clock::now();
        lhr::JsonSink sink(null, study->name(), study->description(),
                           lab.seed());
        lhr::runStudy(lab, *study, sink, lhr::OutputFormat::Json);
        const double sec = since(t0);
        if (named.count(study->name()))
            m["study." + study->name() + "_s"] = sec;
        else
            rest += sec;
    }
    m["study.rest_s"] = rest;
}

/** Trace generation and the pipeline simulator (i7, 3 benchmarks). */
void
probeTrace(uint64_t seed, Metrics &m)
{
    Span layer("layer.trace");
    const auto &spec = lhr::processorById("i7 (45)");
    const auto levels = lhr::structuralLevels(spec);
    const auto pipeCfg = lhr::PipelineConfig::of(spec, spec.stockClockGhz);
    constexpr uint64_t accesses = 1000000, microOps = 1000000,
                       instructions = 300000;
    double addrSec = 0.0, fillSec = 0.0, pipeSec = 0.0;
    uint64_t sink = 0;
    for (const char *name : {"hmmer", "gcc", "mcf"}) {
        const auto &bench = lhr::benchmarkByName(name);
        {
            Span span("trace.addrgen");
            lhr::AddressGenerator gen(bench.miss, bench.memAccessPerInstr,
                                      seed ^ 0xADD2);
            const Clock::time_point t0 = Clock::now();
            for (uint64_t i = 0; i < accesses; ++i)
                sink ^= gen.next();
            addrSec += since(t0);
        }
        {
            Span span("trace.fill");
            lhr::TraceGenerator trace(bench, seed);
            lhr::MicroOpBatch batch;
            const Clock::time_point t0 = Clock::now();
            for (uint64_t done = 0; done < microOps;) {
                const uint64_t block = std::min<uint64_t>(
                    lhr::MicroOpBatch::defaultSize, microOps - done);
                trace.fill(batch, block);
                sink ^= batch.addr[block - 1];
                done += block;
            }
            fillSec += since(t0);
        }
        {
            Span span("pipesim.run");
            lhr::PipelineSim pipe(pipeCfg, levels);
            const Clock::time_point t0 = Clock::now();
            const auto r = pipe.run(bench, instructions, seed);
            pipeSec += since(t0);
            sink ^= static_cast<uint64_t>(r.ipc * 1e6);
        }
    }
    m["trace.addrgen_maccess_per_s"] = 3.0 * accesses / addrSec / 1e6;
    m["trace.fill_mops_per_s"] = 3.0 * microOps / fillSec / 1e6;
    m["pipesim.minstr_per_s"] = 3.0 * instructions / pipeSec / 1e6;
    gSink = sink;
}

/** Round trip of one measure; ok only for an `ok` reply. */
double
rttUs(const lhr::Socket &sock, const std::string &body, bool &ok)
{
    std::string reply;
    double ms = 0.0;
    ok = roundTrip(sock, body, reply, ms) &&
        reply.find("\"status\": \"ok\"") != std::string::npos;
    return ms * 1e3;
}

/** The daemon's request path, and the wire codec in process. */
void
probeServe(const Options &opt, uint64_t labSeed, Metrics &m, Result &result)
{
    Span layer("layer.serve");
    const EraGrid grid;
    lhr::Rng rng(labSeed ^ 0x5EB);
    std::vector<std::string> bodies;
    for (const size_t i : sampleIndices(grid.cells(), 384, rng))
        bodies.push_back(lhr::formatServeRequest(
            serveRequest(grid.cell(i), static_cast<long>(bodies.size()))));

    {
        Span span("serve.codec");
        const lhr::Measurement sample{1.25, 0.01, 42.5, 0.02, 3};
        constexpr int reps = 20000;
        const Clock::time_point t0 = Clock::now();
        size_t bytes = 0;
        for (int r = 0; r < reps; ++r) {
            const auto req =
                lhr::parseServeRequest(bodies[r % bodies.size()]);
            const std::string out = lhr::formatServeRequest(req.value());
            const std::string reply =
                lhr::measurementReplyJson(req.value().id, sample, false);
            const auto parsed = lhr::parseJson(reply);
            bytes += out.size() + (parsed.ok() ? 1 : 0);
        }
        m["serve.codec_us"] = since(t0) / reps * 1e6;
        gSink = bytes;
    }

    const std::string sock = opt.workDir + "/layers.sock";
    std::error_code ec;
    std::filesystem::remove(sock, ec);
    Child daemon({opt.lhrlab, "--seed", std::to_string(labSeed), "serve",
                  "--socket", sock, "--workers",
                  std::to_string(benchThreads)},
                 false);
    lhr::Expected<lhr::Socket> a = connectWhenUp(sock, 20.0);
    auto b = lhr::connectUnix(sock);
    if (!a.ok() || !b.ok()) {
        result.fail("layer probe: daemon did not come up");
        return;
    }
    bool ok = true, all = true;
    uint64_t okReplies = 0; // every measure below sends one request
    // The first 256 keys cold on one connection, then warm repeats.
    std::vector<double> cold, warm;
    {
        Span span("serve.rtt_cold");
        for (size_t i = 0; i < 256; ++i) {
            cold.push_back(rttUs(a.value(), bodies[i], ok));
            all = all && ok;
            okReplies += ok;
        }
    }
    {
        Span span("serve.rtt_warm");
        for (size_t r = 0; r < 16; ++r)
            for (size_t i = 0; i < 256; ++i) {
                warm.push_back(rttUs(a.value(), bodies[i], ok));
                all = all && ok;
                okReplies += ok;
            }
    }
    // The last 128 keys cold on both connections at once: coalescing.
    {
        Span span("serve.coalesce");
        std::barrier sync(2);
        bool okB = true;
        uint64_t okRepliesB = 0;
        std::thread other([&] {
            bool okOne = true;
            for (size_t i = 256; i < bodies.size(); ++i) {
                sync.arrive_and_wait();
                rttUs(b.value(), bodies[i], okOne);
                okB = okB && okOne;
                okRepliesB += okOne;
            }
        });
        for (size_t i = 256; i < bodies.size(); ++i) {
            sync.arrive_and_wait();
            rttUs(a.value(), bodies[i], ok);
            all = all && ok;
            okReplies += ok;
        }
        other.join();
        all = all && okB;
        okReplies += okRepliesB;
    }
    if (!all)
        result.fail("layer probe: a measure request was not answered ok");
    std::string reply;
    double ms = 0.0;
    lhr::ServeRequest control;
    control.op = lhr::ServeOp::Stats;
    if (roundTrip(a.value(), lhr::formatServeRequest(control), reply, ms)) {
        const auto doc = lhr::parseJson(reply);
        const lhr::JsonValue *stats =
            doc.ok() ? doc.value().find("stats") : nullptr;
        if (stats != nullptr) {
            m["serve.coalesced"] = stats->numberOr("coalesced", 0.0);
            const double served = stats->numberOr("served", -1.0);
            if (served != static_cast<double>(okReplies))
                result.fail("layer probe: daemon served " +
                            std::to_string(served) + " but the client " +
                            "counted " + std::to_string(okReplies) +
                            " ok replies");
        }
    }
    if (m.find("serve.coalesced") == m.end())
        result.fail("layer probe: stats op failed");
    control.op = lhr::ServeOp::Shutdown;
    (void)roundTrip(a.value(), lhr::formatServeRequest(control), reply, ms);
    a.value().close();
    b.value().close();
    if (daemon.wait(nullptr) != 0)
        result.fail("layer probe: daemon did not exit cleanly");
    m["serve.rtt_cold_us"] = median(cold);
    m["serve.rtt_warm_us"] = median(warm);
    // 4096 warm round trips: 40 of them lie beyond the p99.
    m["serve.rtt_warm_p99_us"] = percentile(warm, 99.0);
}

} // namespace

void
runLayers(const Options &opt, Result &result)
{
    Span span("layers");
    const uint64_t labSeed = labSeedOf(opt.seed);
    const EraGrid grid;
    lhr::Rng rng(opt.seed ^ 0x1A7E);
    std::vector<Cell> cells;
    for (const size_t i : sampleIndices(grid.cells(), 256, rng))
        cells.push_back(grid.cell(i));

    Metrics &m = result.metrics;
    probeCell(cells, labSeed, m);
    probeHarness(cells, labSeed, m, result);
    probeSweep(opt, labSeed, m);
    probeStudies(labSeed, m);
    probeTrace(opt.seed, m);
    probeServe(opt, labSeed, m, result);
}

} // namespace labbench
