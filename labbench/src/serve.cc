/**
 * @file
 * The serve workload: `lhrlab serve --workers 2` as a child process,
 * driven closed-loop by two client connections.
 *
 * Both phases follow the request pattern of `lhrlab loadgen`
 * (src/serve/loadgen.cc): connection c walks a key list round-robin
 * starting at offset c, so the two connections collide on keys one
 * step apart. One session = launch the daemon, wait for `ping`, a
 * fill phase (that walk over every era-grid key in seeded order: each
 * key's first request is cold, the other connection's request for it
 * joins the computation in flight or hits the memo cache), a warm
 * phase (that walk over loadgen's 32-key mix, all memo hits),
 * `stats`, `shutdown`, reap. A run repeats whole sessions; a fresh
 * daemon per session keeps the fill phase cold.
 */

#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "serve/protocol.hh"
#include "util/json.hh"
#include "util/net.hh"

namespace labbench
{

namespace
{

/**
 * The warm phase sends this many requests per connection, 10000 per
 * session. Its length sets only over how many round trips the warm
 * median is taken (about 0.35 s at 28k req/s), not what it measures.
 */
constexpr size_t warmPerConnection = 5000;
constexpr size_t checkedKeys = 48;

/**
 * `lhrlab loadgen`'s fixed query mix (src/serve/loadgen.cc): these
 * paper parts at their stock configuration crossed with these
 * benchmarks; key i is (procs[i % 4], benches[i / 4]).
 */
const char *const mixProcs[] = {"i7 (45)", "i5 (32)", "C2D (45)",
                                "Pentium4 (130)"};
const char *const mixBenches[] = {"mcf", "gcc", "bzip2", "hmmer",
                                  "libquantum", "perlbench", "sjeng",
                                  "astar"};
constexpr size_t mixKeys = std::size(mixProcs) * std::size(mixBenches);

/** One experiment the clients ask for. */
struct Key
{
    lhr::MachineConfig config; ///< as the daemon resolves the request
    const lhr::Benchmark *bench = nullptr;
    std::string request;       ///< the framed request body (id = index)
    std::string expected;      ///< exact reply, for checked keys only
};

/** The keys of a run, and which of them make loadgen's mix. */
struct Keys
{
    std::vector<Key> all; ///< era grid in seeded order, then mix extras
    size_t gridKeys = 0;  ///< distinct keys of the era grid
    std::vector<size_t> mix; ///< index into `all` of each mix key
};

/**
 * Add the key `req` asks for (as the daemon resolves it) unless it is
 * there already; returns its index, or -1 when the daemon would
 * refuse the request.
 */
long
addKey(lhr::ServeRequest req, std::vector<Key> &keys,
       std::map<std::string, size_t> &index)
{
    req.id = static_cast<long>(keys.size());
    const std::string body = lhr::formatServeRequest(req);
    const auto parsed = lhr::parseServeRequest(body);
    if (!parsed.ok())
        return -1;
    const auto query = lhr::resolveQuery(parsed.value());
    if (!query.ok())
        return -1;
    const auto [it, fresh] = index.emplace(
        lhr::ExperimentRunner::keyOf(query.value().config,
                                     *query.value().benchmark),
        keys.size());
    if (fresh) {
        Key key;
        key.config = query.value().config;
        key.bench = query.value().benchmark;
        key.request = body;
        keys.push_back(std::move(key));
    }
    return static_cast<long>(it->second);
}

Keys
makeKeys(lhr::Rng &rng)
{
    const EraGrid grid;
    std::vector<size_t> order(grid.cells());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    shuffle(order, rng);

    Keys keys;
    std::map<std::string, size_t> index;
    for (const size_t i : order)
        (void)addKey(serveRequest(grid.cell(i), 0), keys.all, index);
    keys.gridKeys = keys.all.size();
    for (size_t i = 0; i < mixKeys; ++i) {
        lhr::ServeRequest req;
        req.proc = mixProcs[i % std::size(mixProcs)];
        req.bench = mixBenches[i / std::size(mixProcs)];
        const long k = addKey(req, keys.all, index);
        if (k < 0)
            throw std::runtime_error("loadgen mix key " + req.proc + " / " +
                                     req.bench + " does not resolve");
        keys.mix.push_back(static_cast<size_t>(k));
    }
    return keys;
}

/** Client-side record of one connection's requests. */
struct ConnLog
{
    std::vector<double> warmMs; ///< round trips of the warm phase
    uint64_t sent = 0;
    uint64_t ok = 0;
    std::vector<std::string> problems;
};

/** Request lists of the two connections, as loadgen walks them. */
struct Plan
{
    std::vector<size_t> fill[2];
    std::vector<size_t> warm[2];
};

Plan
makePlan(const Keys &keys)
{
    // Connection c sends list[(c + i) % n], as loadgen's worker c does.
    // The fill walk covers every key (mix extras included) once per
    // connection.
    Plan plan;
    const size_t n = keys.all.size();
    for (size_t c = 0; c < 2; ++c) {
        for (size_t i = 0; i < n; ++i)
            plan.fill[c].push_back((c + i) % n);
        for (size_t i = 0; i < warmPerConnection; ++i)
            plan.warm[c].push_back(keys.mix[(c + i) % keys.mix.size()]);
    }
    return plan;
}

/** Send one measure, time it and check its reply. */
void
measureOnce(const lhr::Socket &sock, const std::vector<Key> &keys,
            size_t k, ConnLog &log, bool fill)
{
    std::string reply;
    double ms = 0.0;
    ++log.sent;
    if (!roundTrip(sock, keys[k].request, reply, ms)) {
        log.problems.push_back("transport error");
        return;
    }
    if (!fill)
        log.warmMs.push_back(ms);
    const bool ok = reply.find("\"status\": \"ok\"") != std::string::npos &&
        reply.find("\"degraded\": false") != std::string::npos;
    if (!ok) {
        log.problems.push_back("non-ok reply: " + reply.substr(0, 120));
        return;
    }
    ++log.ok;
    if (!keys[k].expected.empty() && reply != keys[k].expected)
        log.problems.push_back("reply differs from direct measure(): " +
                               keys[k].config.label() + " / " +
                               keys[k].bench->name);
}

/** A control-plane request (ping/stats/shutdown); the reply or "". */
std::string
control(const lhr::Socket &sock, lhr::ServeOp op)
{
    lhr::ServeRequest req;
    req.op = op;
    std::string reply;
    double ms = 0.0;
    return roundTrip(sock, lhr::formatServeRequest(req), reply, ms)
        ? reply
        : "";
}

struct Session
{
    double setupSec = 0.0;
    double fillSec = 0.0;
    double sessionSec = 0.0;
    double rssMb = 0.0;
    double warmP50Us = 0.0; ///< median round trip of the warm phase
    bool disturbed = false; ///< see StealMeter
};

Session
runSession(const Options &opt, uint64_t labSeed, const std::vector<Key> &keys,
           const Plan &plan, Result &result)
{
    Span sessionSpan("serve.session");
    Session s;
    const std::string sock = opt.workDir + "/lab.sock";
    std::error_code ec;
    std::filesystem::remove(sock, ec);

    const StealMeter steal;
    const Clock::time_point launched = Clock::now();
    Child daemon({opt.lhrlab, "--seed", std::to_string(labSeed), "serve",
                  "--socket", sock, "--workers",
                  std::to_string(benchThreads)},
                 false);
    lhr::Socket conns[2];
    {
        Span span("serve.launch");
        auto first = connectWhenUp(sock, 20.0);
        if (!first.ok() ||
            control(first.value(), lhr::ServeOp::Ping).empty()) {
            result.fail("daemon did not answer ping");
            return s;
        }
        s.setupSec = since(launched);
        conns[0] = std::move(first).value();
        auto second = lhr::connectUnix(sock);
        if (!second.ok()) {
            result.fail("second connection refused");
            return s;
        }
        conns[1] = std::move(second).value();
    }

    ConnLog logs[2];
    auto phase = [&](int c, bool fill) {
        Span span(fill ? "serve.fill_conn" : "serve.warm_conn");
        for (const size_t k : fill ? plan.fill[c] : plan.warm[c])
            measureOnce(conns[c], keys, k, logs[c], fill);
    };
    auto runPhase = [&](bool fill) {
        const Clock::time_point t0 = Clock::now();
        std::thread other([&] { phase(1, fill); });
        phase(0, fill);
        other.join();
        return since(t0);
    };
    {
        Span span("serve.fill");
        s.fillSec = runPhase(true);
    }
    {
        Span span("serve.warm");
        (void)runPhase(false);
    }

    uint64_t sent = 0, ok = 0;
    std::vector<double> warmMs;
    for (ConnLog &log : logs) {
        sent += log.sent;
        ok += log.ok;
        warmMs.insert(warmMs.end(), log.warmMs.begin(), log.warmMs.end());
        for (const std::string &p : log.problems)
            result.fail(p);
    }
    result.attempted += sent;
    result.failed += sent - ok;
    s.warmP50Us = percentile(warmMs, 50.0) * 1e3;

    const std::string statsReply = control(conns[0], lhr::ServeOp::Stats);
    const auto stats = lhr::parseJson(statsReply);
    const lhr::JsonValue *body = stats.ok() ? stats.value().find("stats")
                                            : nullptr;
    if (body == nullptr) {
        result.fail("stats op failed");
    } else {
        const double served = body->numberOr("served", -1.0);
        if (served != static_cast<double>(ok))
            result.fail("daemon served " + std::to_string(served) +
                        " but the clients counted " + std::to_string(ok) +
                        " ok replies");
    }
    {
        Span span("serve.shutdown");
        if (control(conns[0], lhr::ServeOp::Shutdown).empty())
            result.fail("shutdown op failed");
        conns[0].close();
        conns[1].close();
        if (daemon.wait(&s.rssMb) != 0)
            result.fail("daemon did not exit cleanly");
    }
    s.sessionSec = since(launched);
    s.disturbed = steal.disturbed();
    return s;
}

} // namespace

lhr::ServeRequest
serveRequest(const Cell &cell, long id)
{
    const lhr::MachineConfig &cfg = *cell.config;
    lhr::ServeRequest req;
    req.id = id;
    req.proc = cfg.spec->id;
    req.bench = cell.bench->name;
    req.cores = cfg.enabledCores;
    req.smt = cfg.smtPerCore > 1;
    if (cfg.clockGhz != cfg.spec->stockClockGhz)
        req.clockGhz = cfg.clockGhz;
    req.turbo = cfg.turboEnabled;
    return req;
}

bool
roundTrip(const lhr::Socket &sock, const std::string &body,
          std::string &reply, double &ms)
{
    const Clock::time_point t0 = Clock::now();
    if (!lhr::writeFrame(sock, body).ok())
        return false;
    auto got = lhr::readFrame(sock, 1 << 20);
    ms = since(t0) * 1e3;
    if (!got.ok())
        return false;
    reply = std::move(got).value();
    return true;
}

lhr::Expected<lhr::Socket>
connectWhenUp(const std::string &path, double budgetSec)
{
    const Clock::time_point t0 = Clock::now();
    for (;;) {
        auto sock = lhr::connectUnix(path);
        if (sock.ok() || since(t0) > budgetSec)
            return sock;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
}

void
runServe(const Options &opt, Result &result)
{
    const uint64_t labSeed = labSeedOf(opt.seed);
    lhr::Rng rng(opt.seed ^ 0x5E7E);
    Keys keyset = makeKeys(rng);
    std::vector<Key> &keys = keyset.all;
    const Plan plan = makePlan(keyset);

    // The exact replies of the mix keys and a seeded sample of the
    // others, from a direct ExperimentRunner with the daemon's seed.
    {
        Span span("check.direct");
        lhr::ExperimentRunner direct(labSeed);
        std::vector<size_t> checked = keyset.mix;
        for (const size_t k : sampleIndices(keys.size(), checkedKeys, rng))
            checked.push_back(k);
        for (const size_t k : checked) {
            const lhr::Measurement &m =
                direct.measure(keys[k].config, *keys[k].bench);
            keys[k].expected =
                lhr::measurementReplyJson(static_cast<long>(k), m, false);
        }
    }

    std::vector<Session> sessions;
    const Clock::time_point start = Clock::now();
    while (anotherRound(sessions, since(start), opt.seconds)) {
        sessions.push_back(runSession(opt, labSeed, keys, plan, result));
        if (!result.correct)
            break;
    }

    std::vector<double> sessionSecs, cold, warmUs, setupSecs;
    for (const Session &s : quietRounds(sessions)) {
        sessionSecs.push_back(s.sessionSec);
        if (s.fillSec > 0.0)
            cold.push_back(keys.size() / s.fillSec);
        warmUs.push_back(s.warmP50Us);
        setupSecs.push_back(s.setupSec);
    }
    double rss = 0.0;
    for (const Session &s : sessions)
        rss = std::max(rss, s.rssMb);
    auto &m = result.metrics;
    m["round_s"] = median(sessionSecs);
    m["cold_exp_per_s"] = median(cold);
    m["warm_op_us"] = median(warmUs);
    // Every session launches a fresh daemon, so each setupSec is a
    // cold set-up.
    m["setup_s"] = median(setupSecs);
    m["peak_rss_mb"] = rss;
    m["traced.pass_s"] = median(sessionSecs);
}

} // namespace labbench
