/**
 * @file
 * labbench — the lab's benchmark program.
 *
 *   labbench --workload reproduce|grid_cold|grid_hardened|serve
 *            --seed N --seconds S --trace 0|1
 *            --lhrlab PATH --workdir DIR [--trace-out FILE]
 *
 * Runs whole rounds of the workload for S seconds, checks every
 * output, and prints as its last stdout line one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
 * metrics are the end-to-end set, with --trace 1 the per-layer set
 * (the same workload with spans on, then the direct layer probes);
 * the traced run writes a Chrome trace and prints the per-layer
 * self-time table on stderr. labbench/run.py builds and invokes it.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hh"
#include "util/logging.hh"

namespace
{

using namespace labbench;

/**
 * The process's start as its own code sees it: this initialiser runs
 * before every default-priority static initialiser, those of the src/
 * modules included, so a set-up probe covers them.
 */
__attribute__((init_priority(101))) const Clock::time_point gProcessStart =
    Clock::now();

const std::vector<std::pair<const char *, const char *>> endToEnd = {
    {"round_s", "s"},   {"cold_exp_per_s", "exp/s"}, {"warm_op_us", "us"},
    {"setup_s", "s"},   {"peak_rss_mb", "MB"},
};

const std::vector<std::pair<const char *, const char *>> perLayer = {
    {"sensor.hall.ns_per_sample", "ns"},
    {"sensor.rapl.ns_per_sample", "ns"},
    {"sensor.session_us", "us"},
    {"phases.series_us", "us"},
    {"model.profile_us", "us"},
    {"harness.measure_cold_us", "us"},
    {"harness.measure_hit_us", "us"},
    {"hardened.measure_us", "us"},
    {"hardened.useful_ratio", "ratio"},
    {"hardened.degraded_cells", "count"},
    {"hardened.failed_cells", "count"},
    {"sweep.wall_s", "s"},
    {"sweep.sum_cell_s", "s"},
    {"sweep.utilization", "ratio"},
    {"store.save_s", "s"},
    {"store.load_s", "s"},
    {"study.prewarm_s", "s"},
    {"study.ablation_pipesim_s", "s"},
    {"study.ablation_tracesim_s", "s"},
    {"study.ablation_bootstrap_s", "s"},
    {"study.pareto_history_s", "s"},
    {"study.dataset_s", "s"},
    {"study.findings_s", "s"},
    {"study.table2_s", "s"},
    {"study.rest_s", "s"},
    {"pipesim.minstr_per_s", "Minstr/s"},
    {"trace.fill_mops_per_s", "Mops/s"},
    {"trace.addrgen_maccess_per_s", "Maccess/s"},
    {"serve.rtt_cold_us", "us"},
    {"serve.rtt_warm_us", "us"},
    {"serve.rtt_warm_p99_us", "us"},
    {"serve.codec_us", "us"},
    {"serve.coalesced", "count"},
    {"traced.pass_s", "s"},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "labbench: " << why << "\n"
              << "usage: labbench --workload reproduce|grid_cold|"
                 "grid_hardened|serve --seed N --seconds S --trace 0|1 "
                 "--lhrlab PATH --workdir DIR [--trace-out FILE]\n";
    std::exit(2);
}

uint64_t
number(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || errno != 0 || text[0] == '-')
        usage(flag + " takes a non-negative integer, got '" + text + "'");
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = number(flag, value);
            haveSeed = true;
        } else if (flag == "--seconds") {
            opt.seconds = static_cast<double>(number(flag, value));
            haveSeconds = opt.seconds >= 1;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            opt.trace = value == "1";
            haveTrace = true;
        } else if (flag == "--lhrlab") {
            opt.lhrlab = value;
        } else if (flag == "--workdir") {
            opt.workDir = value;
        } else if (flag == "--trace-out") {
            opt.traceOut = value;
        } else {
            usage("unknown option " + flag);
        }
    }
    if (opt.workload != "reproduce" && opt.workload != "grid_cold" &&
        opt.workload != "grid_hardened" && opt.workload != "serve")
        usage("unknown workload '" + opt.workload + "'");
    if (!haveSeed || !haveSeconds || !haveTrace || opt.lhrlab.empty() ||
        opt.workDir.empty())
        usage("missing a required option");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::string(argv[1]) == setupProbeFlag) {
        // One cold set-up of this process: the lab runner with every
        // processor's models and rig built. Seconds go to stderr.
        lhr::setLogLevel(lhr::LogLevel::Silent);
        lhr::ExperimentRunner runner;
        buildRigs(runner);
        std::fprintf(stderr, "%.9f\n",
                     std::chrono::duration<double>(Clock::now() -
                                                   gProcessStart)
                         .count());
        return 0;
    }
    const Options opt = parseArgs(argc, argv);
    lhr::setLogLevel(lhr::LogLevel::Silent);
    std::error_code ec;
    std::filesystem::create_directories(opt.workDir, ec);
    if (ec) {
        std::cerr << "labbench: cannot create " << opt.workDir << "\n";
        return 1;
    }
    if (opt.trace)
        Tracer::enable();

    Result result;
    try {
        {
            Span span("workload");
            if (opt.workload == "reproduce")
                runReproduce(opt, result);
            else if (opt.workload == "serve")
                runServe(opt, result);
            else
                runGrid(opt, opt.workload == "grid_hardened", result);
        }
        if (opt.trace)
            runLayers(opt, result);
    } catch (const std::exception &err) {
        std::cerr << "labbench: " << err.what() << "\n";
        return 1;
    }

    for (const std::string &p : result.problems)
        std::cerr << "labbench: check failed: " << p << "\n";
    if (opt.trace) {
        std::cerr << Tracer::selfTimeTable();
        if (!opt.traceOut.empty()) {
            if (!Tracer::writeChromeTrace(opt.traceOut)) {
                std::cerr << "labbench: cannot write " << opt.traceOut
                          << "\n";
                return 1;
            }
            std::cerr << "labbench: trace written to " << opt.traceOut
                      << "\n";
        }
    }

    std::string line = "{\"correct\": ";
    line += result.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(result.attempted);
    line += ", \"failed\": " + std::to_string(result.failed);
    line += ", \"metrics\": {";
    const auto &names = opt.trace ? perLayer : endToEnd;
    for (size_t i = 0; i < names.size(); ++i) {
        const auto it = result.metrics.find(names[i].first);
        if (it == result.metrics.end()) {
            std::cerr << "labbench: metric " << names[i].first
                      << " was not measured\n";
            return 1;
        }
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", names[i].first, it->second,
                      names[i].second);
        line += buf;
    }
    line += "}}";
    std::cout << line << std::endl;
    return 0;
}
