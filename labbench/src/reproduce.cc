/**
 * @file
 * The reproduce workload: every registered study, as
 * `lhrlab run --all --format json --out DIR --jobs 2` in a child
 * process. The child's stderr progress lines ("[i/N] study -> path")
 * are timestamped as they arrive, which splits a pass into the
 * prewarm phase and one interval per study without touching the
 * program. The output check measures every dataset row again on a
 * fresh in-process runner, and times those cold measure() calls.
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <unistd.h>

#include "bench.hh"
#include "pipesim/pipeline.hh"
#include "study/study.hh"
#include "util/json.hh"

namespace labbench
{

namespace
{

/** One study's progress line, as it arrived. */
struct Progress
{
    std::string study;
    Clock::time_point at;
};

/** Read the child's stderr to EOF, timestamping each line. */
std::vector<Progress>
readProgress(int fd)
{
    std::vector<Progress> lines;
    std::string pending;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        const Clock::time_point now = Clock::now();
        pending.append(buf, static_cast<size_t>(n));
        size_t nl;
        while ((nl = pending.find('\n')) != std::string::npos) {
            const std::string line = pending.substr(0, nl);
            pending.erase(0, nl + 1);
            // "[i/N] name -> path"
            const size_t close = line.find("] ");
            const size_t arrow = line.find(" -> ");
            if (line.rfind("[", 0) == 0 && close != std::string::npos &&
                arrow != std::string::npos && arrow > close)
                lines.push_back(
                    {line.substr(close + 2, arrow - close - 2), now});
        }
    }
    return lines;
}

/** "child.<study>", interned so the span name outlives the tracer. */
const char *
childSpanName(const std::string &study)
{
    static std::map<std::string, std::string> names;
    return names.emplace(study, "child." + study).first->second.c_str();
}

lhr::Expected<lhr::JsonValue>
readJson(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return lhr::Status::error(lhr::StatusCode::IoError,
                                  "cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return lhr::parseJson(text.str());
}

/** Every table block of a study document with the given id prefix. */
std::vector<const lhr::JsonValue *>
tables(const lhr::JsonValue &doc, const std::string &idPrefix)
{
    std::vector<const lhr::JsonValue *> out;
    const lhr::JsonValue *blocks = doc.find("blocks");
    if (blocks == nullptr || !blocks->isArray())
        return out;
    for (const lhr::JsonValue &block : blocks->items()) {
        if (block.stringOr("type", "") == "table" &&
            block.stringOr("id", "").rfind(idPrefix, 0) == 0)
            out.push_back(&block);
    }
    return out;
}

/** Index of a named column in a table block (-1 when absent). */
int
column(const lhr::JsonValue &table, const std::string &name)
{
    const lhr::JsonValue *cols = table.find("columns");
    if (cols == nullptr || !cols->isArray())
        return -1;
    for (size_t i = 0; i < cols->items().size(); ++i) {
        const lhr::JsonValue &c = cols->items()[i];
        if (c.isString() && c.asString() == name)
            return static_cast<int>(i);
    }
    return -1;
}

const std::vector<lhr::JsonValue> &
rows(const lhr::JsonValue &table)
{
    static const std::vector<lhr::JsonValue> none;
    const lhr::JsonValue *r = table.find("rows");
    return r != nullptr && r->isArray() ? r->items() : none;
}

/** A number the dataset printed with `decimals` places, re-parsed. */
double
printed(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return std::strtod(buf, nullptr);
}

/**
 * The per-pass output checks. Every dataset row is measured again by
 * `direct`, a fresh runner; returns those cells, in row order, and adds
 * the wall time of those cold measure() calls to `coldSec`.
 */
std::vector<Cell>
checkPass(const std::string &dir, lhr::ExperimentRunner &direct,
          double &coldSec, Result &result)
{
    Span span("check.reproduce");
    const auto studies = lhr::StudyRegistry::instance().all();
    std::map<std::string, lhr::JsonValue> docs;
    for (const lhr::Study *study : studies) {
        auto doc = readJson(dir + "/" + study->name() + ".json");
        if (!doc.ok()) {
            result.fail("study " + study->name() + ": " +
                        doc.status().toString());
            ++result.failed;
            continue;
        }
        docs.emplace(study->name(), std::move(doc).value());
    }

    // The findings scorecard reads PASS on every finding.
    if (docs.count("findings")) {
        const auto cards = tables(docs.at("findings"), "scorecard");
        size_t findings = 0;
        for (const lhr::JsonValue *t : cards) {
            const int verdict = column(*t, "Verdict");
            for (const lhr::JsonValue &row : rows(*t)) {
                ++findings;
                if (verdict < 0 ||
                    row.items()[verdict].asString() != "PASS")
                    result.fail("finding " + row.items()[0].asString() +
                                " does not read PASS");
            }
        }
        if (findings == 0)
            result.fail("findings scorecard is empty");
    }

    // Every pipeline IPC lies in (0, issue width].
    if (docs.count("ablation_pipesim")) {
        size_t checked = 0;
        for (const lhr::JsonValue *t :
             tables(docs.at("ablation_pipesim"), "ipc_")) {
            const std::string proc = t->stringOr("id", "").substr(4);
            const lhr::ProcessorSpec *spec = lhr::findProcessor(proc);
            const int ipc = column(*t, "IPC pipe");
            if (spec == nullptr || ipc < 0) {
                result.fail("ablation_pipesim table " + proc +
                            " is malformed");
                continue;
            }
            const double width = lhr::PipelineConfig::of(
                                     *spec, spec->stockClockGhz)
                                     .issueWidth;
            for (const lhr::JsonValue &row : rows(*t)) {
                const double v = row.items()[ipc].asNumber();
                ++checked;
                if (!(v > 0.0 && v <= width))
                    result.fail("pipeline IPC out of (0, width] on " +
                                proc);
            }
        }
        if (checked == 0)
            result.fail("ablation_pipesim has no IPC rows");
    }

    // Every dataset row equals a direct measure() call.
    std::vector<Cell> cells;
    if (docs.count("dataset")) {
        const auto ts = tables(docs.at("dataset"), "dataset");
        if (ts.empty()) {
            result.fail("dataset table missing");
            return cells;
        }
        const lhr::JsonValue &t = *ts.front();
        const int cfgCol = column(t, "configuration");
        const int benchCol = column(t, "benchmark");
        const int timeCol = column(t, "time_s");
        const int timeCiCol = column(t, "time_ci95");
        const int powerCol = column(t, "power_w");
        const int powerCiCol = column(t, "power_ci95");
        if (std::min({cfgCol, benchCol, timeCol, timeCiCol, powerCol,
                      powerCiCol}) < 0) {
            result.fail("dataset columns missing");
            return cells;
        }
        // Static: the returned cells point into it.
        static const std::map<std::string, lhr::MachineConfig> byLabel =
            [] {
                std::map<std::string, lhr::MachineConfig> out;
                for (const lhr::MachineConfig &cfg :
                     lhr::standardConfigurations())
                    out.emplace(cfg.label(), cfg);
                return out;
            }();
        const auto &all = rows(t);
        if (all.size() != byLabel.size() * lhr::allBenchmarks().size())
            result.fail("dataset has " + std::to_string(all.size()) +
                        " rows, not one per standard configuration and "
                        "benchmark");
        // Blocks of calls rotate over the CPUs (see CpuRotation).
        constexpr size_t callsPerCpu = 128;
        CpuRotation rotation;
        for (const lhr::JsonValue &row : all) {
            if (cells.size() % callsPerCpu == 0)
                rotation.next();
            const auto &f = row.items();
            const auto cfg = byLabel.find(f[cfgCol].asString());
            const lhr::Benchmark *bench =
                lhr::findBenchmark(f[benchCol].asString());
            if (cfg == byLabel.end() || bench == nullptr) {
                result.fail("dataset row names an unknown cell");
                continue;
            }
            cells.push_back({&cfg->second, bench});
            const Clock::time_point t0 = Clock::now();
            const lhr::Measurement &m = direct.measure(cfg->second, *bench);
            coldSec += since(t0);
            if (printed(m.timeSec, 4) != f[timeCol].asNumber() ||
                printed(m.timeCi95Rel, 5) != f[timeCiCol].asNumber() ||
                printed(m.powerW, 3) != f[powerCol].asNumber() ||
                printed(m.powerCi95Rel, 5) != f[powerCiCol].asNumber())
                result.fail("dataset row differs from a direct measure(): " +
                            f[cfgCol].asString() + " / " + bench->name);
        }
    }
    return cells;
}

/** Warm re-measures of the dataset per pass (see warmOpUs). */
constexpr int warmRounds = 32;

struct Pass
{
    double passSec = 0.0;  ///< `run --all`, launch to reaped
    double coldRate = 0.0; ///< the check's cold measure() calls per second
    double warmOpUs = 0.0;
    bool disturbed = false; ///< see StealMeter
};

} // namespace

void
runReproduce(const Options &opt, Result &result)
{
    const uint64_t labSeed = labSeedOf(opt.seed);
    const auto studies = lhr::StudyRegistry::instance().all();

    const double setupSec = coldSetupSec(setupLaunches);

    std::vector<Pass> passes;
    std::vector<double> roundSecs; // pass + check, to plan the next pass
    double peakRss = 0.0;
    const Clock::time_point start = Clock::now();
    // A pass takes several seconds: start one only when it should end
    // in time.
    while (anotherRound(passes,
                        since(start) + (roundSecs.empty()
                                            ? 0.0
                                            : median(roundSecs)),
                        opt.seconds)) {
        Span passSpan("reproduce.pass");
        const StealMeter steal;
        Pass p;
        const std::string out =
            opt.workDir + "/run" + std::to_string(passes.size());
        const Clock::time_point launched = Clock::now();
        std::vector<Progress> progress;
        int status = -1;
        double rss = 0.0;
        {
            Span span("lhrlab.run_all");
            Child child({opt.lhrlab, "--seed", std::to_string(labSeed),
                         "run", "--all", "--format", "json", "--out", out,
                         "--jobs", std::to_string(benchThreads)},
                        true);
            progress = readProgress(child.stderrFd());
            status = child.wait(&rss);
            // The child's phases, observed from outside: the prewarm
            // ends with the first study's line, and each study runs
            // after the previous one's line, so the gap between two
            // lines is the later study's wall time.
            if (!progress.empty())
                Tracer::record("child.prewarm", launched, progress.front().at);
            for (size_t i = 1; i < progress.size(); ++i)
                Tracer::record(childSpanName(progress[i].study),
                               progress[i - 1].at, progress[i].at);
        }
        p.passSec = since(launched);
        result.attempted += studies.size();
        if (status != 0 || progress.size() != studies.size()) {
            result.fail("lhrlab run --all exited " + std::to_string(status) +
                        " after " + std::to_string(progress.size()) +
                        " studies");
            result.failed += studies.size() - std::min(progress.size(),
                                                       studies.size());
        }
        peakRss = std::max(peakRss, rss);

        // A fresh runner per pass, so that the check measures cold
        // cells; then every dataset cell again, each a memo-cache hit.
        lhr::ExperimentRunner direct(labSeed);
        buildRigs(direct);
        double coldSec = 0.0;
        const std::vector<Cell> cells =
            checkPass(out, direct, coldSec, result);
        if (!cells.empty()) {
            p.coldRate = static_cast<double>(cells.size()) / coldSec;
            p.warmOpUs = warmOpUs(direct, cells, warmRounds);
        }
        std::error_code ec;
        std::filesystem::remove_all(out, ec);
        p.disturbed = steal.disturbed();
        passes.push_back(p);
        roundSecs.push_back(since(launched));
    }

    std::vector<double> passSecs, coldRates, warmUs;
    for (const Pass &p : quietRounds(passes)) {
        passSecs.push_back(p.passSec);
        coldRates.push_back(p.coldRate);
        warmUs.push_back(p.warmOpUs);
    }
    auto &m = result.metrics;
    m["round_s"] = median(passSecs);
    m["cold_exp_per_s"] = median(coldRates);
    m["warm_op_us"] = median(warmUs);
    m["setup_s"] = setupSec;
    m["peak_rss_mb"] = peakRss;
    m["traced.pass_s"] = median(passSecs);
}

} // namespace labbench
