/**
 * @file
 * Tests for the study framework (src/study/): registry integrity,
 * the declared-grid contract (prewarming a study's grid makes its
 * run() execute entirely from the memo cache), golden-output byte
 * identity for representative text reports, and the job-count
 * independence of ReportContext::parallelFor.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/lab.hh"
#include "study/study.hh"

#ifndef LHR_GOLDEN_DIR
#error "LHR_GOLDEN_DIR must point at tests/golden"
#endif

namespace lhr
{

namespace
{

std::string
goldenFile(const std::string &name)
{
    const std::string path =
        std::string(LHR_GOLDEN_DIR) + "/" + name + ".txt";
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing golden file " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** A study's text artifact as `lhrlab run <name> --jobs N --out` writes it. */
std::string
renderThroughDriver(const std::string &name, int jobs)
{
    const Study *study = StudyRegistry::instance().find(name);
    EXPECT_NE(study, nullptr);
    const auto dir = std::filesystem::temp_directory_path() /
        ("lhr_study_" + name + "_j" + std::to_string(jobs) + "_" +
         std::to_string(::getpid()));
    Lab lab;
    StudyOptions options;
    options.outDir = dir.string();
    options.threads = jobs;
    EXPECT_EQ(runStudies(lab, {study}, options), 0);
    const std::string text = readFile(dir / (name + ".txt"));
    std::filesystem::remove_all(dir);
    return text;
}

std::string
renderText(Lab &lab, const std::string &name)
{
    const Study *study = StudyRegistry::instance().find(name);
    EXPECT_NE(study, nullptr);
    std::ostringstream out;
    TextSink sink(out);
    runStudy(lab, *study, sink, OutputFormat::Text);
    return out.str();
}

} // namespace

TEST(StudyRegistry, HoldsEveryConvertedDriver)
{
    const auto &all = StudyRegistry::instance().all();
    EXPECT_GE(all.size(), 30u);

    std::set<std::string> names;
    for (const Study *study : all) {
        ASSERT_NE(study, nullptr);
        EXPECT_FALSE(study->name().empty());
        EXPECT_FALSE(study->description().empty());
        EXPECT_TRUE(names.insert(study->name()).second)
            << "duplicate study name " << study->name();
    }

    // The paper's figures and tables are all present.
    for (const char *name :
         {"fig01", "fig04", "fig07", "fig12", "table1", "table3",
          "table5", "findings", "dataset", "ablation_pipesim",
          "pareto_history"})
        EXPECT_NE(StudyRegistry::instance().find(name), nullptr)
            << "study " << name << " not registered";
}

TEST(StudyRegistry, ParetoHistoryGridSpansEveryEra)
{
    const Study *study =
        StudyRegistry::instance().find("pareto_history");
    ASSERT_NE(study, nullptr);
    const auto grid = study->grid();
    // The 45 paper configurations plus a ten-point ladder for each
    // of the four server eras.
    EXPECT_EQ(grid.size(), 85u);
    std::set<Era> eras;
    for (const auto &cfg : grid)
        eras.insert(cfg.spec->era);
    EXPECT_EQ(eras.size(), allEras().size());
}

TEST(StudyRegistry, FindIsExactMatch)
{
    auto &registry = StudyRegistry::instance();
    EXPECT_EQ(registry.find("no_such_study"), nullptr);
    EXPECT_EQ(registry.find("fig0"), nullptr);
    const Study *fig04 = registry.find("fig04");
    ASSERT_NE(fig04, nullptr);
    EXPECT_EQ(fig04->name(), "fig04");
}

TEST(StudyGrid, DeclaredGridCoversEveryMeasurement)
{
    // Prewarm the union of two studies' grids, then run both: every
    // measure() they issue must be a cache hit. This is the contract
    // `lhrlab run --all` relies on for its single prewarm pass.
    auto &registry = StudyRegistry::instance();
    const std::vector<const Study *> studies = {
        registry.find("fig04"), registry.find("fig05")};
    ASSERT_NE(studies[0], nullptr);
    ASSERT_NE(studies[1], nullptr);

    Lab lab;
    lab.prewarm(unionGrid(studies));
    lab.runner().resetCacheStats();

    std::ostringstream out;
    TextSink sink(out);
    for (const Study *study : studies)
        runStudy(lab, *study, sink);

    const auto stats = lab.runner().cacheStats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u)
        << "a study measured outside its declared grid";
}

TEST(StudyGrid, UnionGridDeduplicates)
{
    auto &registry = StudyRegistry::instance();
    const Study *fig04 = registry.find("fig04");
    ASSERT_NE(fig04, nullptr);
    const auto once = unionGrid({fig04});
    const auto twice = unionGrid({fig04, fig04});
    EXPECT_EQ(once.size(), fig04->grid().size());
    EXPECT_EQ(twice.size(), once.size());
}

TEST(StudyGolden, Fig04MatchesGoldenBytes)
{
    Lab lab;
    EXPECT_EQ(renderText(lab, "fig04"), goldenFile("fig04"));
}

TEST(StudyGolden, Fig05MatchesGoldenBytes)
{
    Lab lab;
    EXPECT_EQ(renderText(lab, "fig05"), goldenFile("fig05"));
}

TEST(StudyGolden, Table3MatchesGoldenBytes)
{
    Lab lab;
    EXPECT_EQ(renderText(lab, "table3"), goldenFile("table3"));
}

// The simulator ablations fan out over --jobs; their fixed trace
// seeds make these goldens independent of the lab seed.
TEST(StudyGolden, AblationPipesimMatchesGoldenBytesAtAnyJobs)
{
    const std::string golden = goldenFile("ablation_pipesim");
    EXPECT_EQ(renderThroughDriver("ablation_pipesim", 1), golden);
    EXPECT_EQ(renderThroughDriver("ablation_pipesim", 3), golden);
}

TEST(StudyGolden, AblationTracesimMatchesGoldenBytesAtAnyJobs)
{
    const std::string golden = goldenFile("ablation_tracesim");
    EXPECT_EQ(renderThroughDriver("ablation_tracesim", 1), golden);
    EXPECT_EQ(renderThroughDriver("ablation_tracesim", 3), golden);
}

TEST(StudyParallelFor, RunsEveryIndexOnceAtAnyJobCount)
{
    std::ostringstream out;
    TextSink sink(out);
    for (const int jobs : {1, 2, 3, 8}) {
        for (const size_t n : {size_t{0}, size_t{1}, size_t{2},
                               size_t{17}}) {
            ReportContext ctx(sink, OutputFormat::Text, jobs);
            std::vector<std::atomic<int>> hits(n);
            ctx.parallelFor(n, [&hits](size_t i) { ++hits[i]; });
            for (size_t i = 0; i < n; ++i)
                EXPECT_EQ(hits[i].load(), 1)
                    << "jobs " << jobs << " n " << n << " index " << i;
        }
    }
}

TEST(StudyParallelFor, NeverExceedsItsJobsCountingTheCaller)
{
    std::ostringstream out;
    TextSink sink(out);
    for (const int jobs : {1, 3}) {
        ReportContext ctx(sink, OutputFormat::Text, jobs);
        std::atomic<int> inFlight{0}, peak{0};
        std::atomic<bool> callerWorked{false};
        const auto caller = std::this_thread::get_id();
        ctx.parallelFor(24, [&](size_t) {
            const int now = ++inFlight;
            int seen = peak.load();
            while (now > seen && !peak.compare_exchange_weak(seen, now)) {
            }
            if (std::this_thread::get_id() == caller)
                callerWorked = true;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            --inFlight;
        });
        EXPECT_LE(peak.load(), jobs);
        EXPECT_GE(peak.load(), 1);
        EXPECT_TRUE(callerWorked.load()) << "jobs " << jobs;
    }
}

TEST(StudyParallelFor, NestedCallRunsSerially)
{
    std::ostringstream out;
    TextSink sink(out);
    ReportContext ctx(sink, OutputFormat::Text, 4);
    std::atomic<int> strays{0};
    ctx.parallelFor(4, [&](size_t) {
        const auto outer = std::this_thread::get_id();
        ctx.parallelFor(8, [&](size_t) {
            if (std::this_thread::get_id() != outer)
                ++strays;
        });
    });
    EXPECT_EQ(strays.load(), 0);
}

TEST(StudyParallelFor, RethrowsTheLowestFailingIndexAfterAllRan)
{
    std::ostringstream out;
    TextSink sink(out);
    for (const int jobs : {1, 3}) {
        ReportContext ctx(sink, OutputFormat::Text, jobs);
        std::atomic<int> ran{0};
        try {
            ctx.parallelFor(16, [&ran](size_t i) {
                ++ran;
                if (i == 5 || i == 11)
                    throw std::runtime_error("iteration " +
                                             std::to_string(i));
            });
            FAIL() << "parallelFor swallowed the exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "iteration 5");
        }
        EXPECT_EQ(ran.load(), 16);
    }
}

TEST(StudyParallelFor, RejectsAJobCountBelowOne)
{
    std::ostringstream out;
    TextSink sink(out);
    EXPECT_DEATH(ReportContext(sink, OutputFormat::Text, 0), "jobs");
}

TEST(StudySeed, LabSeedIsConfigurable)
{
    Lab stock;
    EXPECT_EQ(stock.seed(), 0xC0FFEEu);

    Lab other(12345);
    EXPECT_EQ(other.seed(), 12345u);

    // A different seed perturbs measured values; the same seed
    // reproduces them exactly.
    const auto &bench = allBenchmarks().front();
    const auto cfg = stockConfig(processorById("i7 (45)"));
    Lab again(12345);
    EXPECT_EQ(other.measure(cfg, bench).timeSec,
              again.measure(cfg, bench).timeSec);
    EXPECT_NE(stock.measure(cfg, bench).timeSec,
              other.measure(cfg, bench).timeSec);
}

} // namespace lhr
