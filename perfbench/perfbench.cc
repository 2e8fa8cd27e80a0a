/**
 * @file
 * The repository benchmark: host cost and simulated results of the
 * paper's figure runs, driven through the library's public API on one
 * host thread (SimConfig::hostThreads = 1).
 *
 * A workload is a fixed set of (app, scheduler, core count) runs on one
 * engine backend and input preset. One pass sets every app up afresh,
 * on one input seed, and runs the whole set; a measurement runs as many
 * passes as fit in --seconds nominally, each input in up to
 * Workload::rounds rounds. Simulated metrics pool the passes; host times
 * sum each step's fastest round, averaged over inputs. Every run is
 * validated, every app's result digest must agree across schedulers and
 * core counts within a pass and across backends before timing, and a
 * failure is counted, never dropped.
 *
 * With --trace 1 the passes alternate untraced and traced. A traced
 * pass records spans around each layer call made from this file and
 * routes the engine's cost model through a counting decorator (the
 * "traced-<backend>" backends registered below), then reports the
 * per-layer metrics. See perfbench/README.md for the metric list.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/app.h"
#include "base/stats.h"
#include "sim/config.h"
#include "swarm/backends/engine_backend.h"
#include "swarm/machine.h"
#include "swarm/policies.h"

#ifndef PB_COMPILER
#define PB_COMPILER "unknown"
#endif
#ifndef PB_BUILD_FLAGS
#define PB_BUILD_FLAGS "unknown"
#endif

namespace {

using namespace ssim;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

// ---- Workloads --------------------------------------------------------------

struct Workload
{
    const char* name;
    apps::Preset preset;
    const char* backend;    ///< measured engine backend
    const char* refBackend; ///< other backend of crossBackendCheck
    std::vector<std::string> apps;
    std::vector<uint32_t> cores;
    /// Nominal host s of one pass (4-vCPU x86 host, Release build); a
    /// measurement of S seconds runs round(S / passSeconds) passes.
    double passSeconds;
    /// Passes per input when there is room for them: the more rounds,
    /// the likelier one of them escapes host contention; the more
    /// inputs, the less a run's figures depend on its inputs.
    uint64_t rounds;
};

/// The paper's apps but kmeans, which both timing workloads leave out:
/// under random its abort storms swing its host time and its abort
/// traffic with the input seed more than the bounds allow (at 64 cores,
/// small: 4.4-9.9 s of a ~17 s pass; at 256 cores, tiny: 2.0M-4.0M
/// events, and with it flits_per_commit spread by 19% across seeds).
const std::vector<std::string> kTimingApps = {
    "bfs", "sssp", "astar", "color", "des", "nocsim", "silo", "genome"};
const std::vector<std::string> kScheds = {"random", "hints"};

const std::vector<Workload>&
workloads()
{
    static const std::vector<Workload> w = {
        {"fig-64c", apps::Preset::Small, "timing", "functional",
         kTimingApps, {64}, 9.5, 3},
        {"sweep-tiny", apps::Preset::Tiny, "timing", "functional",
         kTimingApps, {1, 4, 16, 64, 256}, 3.5, 3},
        {"functional-256", apps::Preset::Small, "functional", "timing",
         {"bfs", "des", "nocsim", "silo", "kvstore", "genome"}, {256}, 9.0,
         4},
    };
    return w;
}

const char*
presetName(apps::Preset p)
{
    switch (p) {
    case apps::Preset::Tiny: return "tiny";
    case apps::Preset::Small: return "small";
    case apps::Preset::Full: return "full";
    }
    return "?";
}

// ---- Cost-model decorator -----------------------------------------------------

/** Calls into, and host time spent inside, the engine's cost model. */
struct BackendTally
{
    uint64_t accessCalls = 0, taskSendCalls = 0, rollbackCalls = 0,
             otherCalls = 0;
    double accessS = 0, taskSendS = 0, rollbackS = 0, otherS = 0;

    double totalS() const { return accessS + taskSendS + rollbackS + otherS; }

    BackendTally&
    operator+=(const BackendTally& o)
    {
        accessCalls += o.accessCalls;
        taskSendCalls += o.taskSendCalls;
        rollbackCalls += o.rollbackCalls;
        otherCalls += o.otherCalls;
        accessS += o.accessS;
        taskSendS += o.taskSendS;
        rollbackS += o.rollbackS;
        otherS += o.otherS;
        return *this;
    }
};

/// Where the next traced backend counts; the factory has no capture slot,
/// so a run points this at its own tally while it constructs a Machine.
BackendTally* g_tally = nullptr;

/** Time one forwarded call into @p secs and count it in @p calls. */
template <typename F>
auto
timed(uint64_t& calls, double& secs, F&& f)
{
    auto t0 = Clock::now();
    auto r = f();
    secs += secondsSince(t0);
    ++calls;
    return r;
}

/** Forwards every EngineBackend call to the real backend, counting and
 *  timing each one into a per-run BackendTally. */
class TracedBackend final : public EngineBackend
{
  public:
    TracedBackend(const SimConfig& cfg, const char* inner, Mesh& mesh,
                  MemorySystem& mem, BackendTally& tally)
        : cfg_(cfg), tally_(tally)
    {
        cfg_.engineBackend = inner;
        inner_ = policies::makeBackend(cfg_, mesh, mem);
    }

    const char* name() const override { return inner_->name(); }

    bool
    inlineEffects() const override
    {
        return timed(tally_.otherCalls, tally_.otherS,
                     [&] { return inner_->inlineEffects(); });
    }
    void
    noteDispatch(CoreId core, const void* fn) override
    {
        timed(tally_.otherCalls, tally_.otherS, [&] {
            inner_->noteDispatch(core, fn);
            return 0;
        });
    }
    uint32_t
    taskSendCost(TileId src, TileId dst) override
    {
        return timed(tally_.taskSendCalls, tally_.taskSendS,
                     [&] { return inner_->taskSendCost(src, dst); });
    }
    uint32_t
    accessCost(CoreId core, Addr addr, bool is_write,
               uint32_t compared) override
    {
        return timed(tally_.accessCalls, tally_.accessS, [&] {
            return inner_->accessCost(core, addr, is_write, compared);
        });
    }
    uint32_t
    computeCost(uint32_t cycles) override
    {
        return timed(tally_.otherCalls, tally_.otherS,
                     [&] { return inner_->computeCost(cycles); });
    }
    uint32_t
    enqueueCost() override
    {
        return timed(tally_.otherCalls, tally_.otherS,
                     [&] { return inner_->enqueueCost(); });
    }
    uint32_t
    dequeueCost(const DispatchInfo& info) override
    {
        return timed(tally_.otherCalls, tally_.otherS,
                     [&] { return inner_->dequeueCost(info); });
    }
    uint32_t
    finishCost() override
    {
        return timed(tally_.otherCalls, tally_.otherS,
                     [&] { return inner_->finishCost(); });
    }
    void
    abortMessage(TileId cause, TileId victim) override
    {
        timed(tally_.otherCalls, tally_.otherS, [&] {
            inner_->abortMessage(cause, victim);
            return 0;
        });
    }
    uint32_t
    rollbackLineCost(CoreId core, LineAddr line) override
    {
        return timed(tally_.rollbackCalls, tally_.rollbackS,
                     [&] { return inner_->rollbackLineCost(core, line); });
    }

  private:
    /// The inner backend's config. Backends keep a reference to the
    /// config they are made with, so it must live as long as they do.
    SimConfig cfg_;
    BackendTally& tally_;
    std::unique_ptr<EngineBackend> inner_;
};

template <const char* kInner>
std::unique_ptr<EngineBackend>
makeTraced(const SimConfig& cfg, Mesh& mesh, MemorySystem& mem)
{
    if (!g_tally) {
        std::fprintf(stderr, "perfbench: traced backend without a tally\n");
        std::exit(2);
    }
    return std::make_unique<TracedBackend>(cfg, kInner, mesh, mem, *g_tally);
}

constexpr char kTiming[] = "timing";
constexpr char kFunctional[] = "functional";

void
registerTracedBackends()
{
    policies::registerBackend("traced-timing", &makeTraced<kTiming>);
    policies::registerBackend("traced-functional", &makeTraced<kFunctional>);
}

// ---- Spans --------------------------------------------------------------------

struct Span
{
    const char* name;
    uint64_t run;    ///< id shared by the spans of one (app, sched, cores)
    uint64_t parent; ///< index+1 of the enclosing span, 0 = none
    double t0, t1;   ///< seconds since the benchmark started
    std::string args; ///< JSON object body with labels and counts
};

class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    void setEnabled(bool on) { on_ = on; }

    /** Open a span; returns its handle (0 when tracing is off). */
    uint64_t
    open(const char* name, uint64_t run, uint64_t parent)
    {
        if (!on_)
            return 0;
        spans_.push_back({name, run, parent, now(), 0, {}});
        return spans_.size();
    }
    void
    close(uint64_t h, std::string args = {})
    {
        if (!h)
            return;
        spans_[h - 1].t1 = now();
        spans_[h - 1].args = std::move(args);
    }

    /** Write the spans as a Chrome trace-event JSON file. */
    bool
    write(const std::string& path) const
    {
        FILE* f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"traceEvents\":[\n");
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                         "\"span\":%zu,\"parent\":%llu,\"run\":%llu%s%s}}\n",
                         i ? "," : "", s.name, s.t0 * 1e6,
                         (s.t1 - s.t0) * 1e6, i + 1,
                         (unsigned long long)s.parent,
                         (unsigned long long)s.run,
                         s.args.empty() ? "" : ",", s.args.c_str());
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

    size_t size() const { return spans_.size(); }

  private:
    double now() const { return secondsSince(origin_); }

    Clock::time_point origin_;
    bool on_ = false;
    std::vector<Span> spans_;
};

// ---- One pass -----------------------------------------------------------------

/** Host cost of one step of a pass: an app setup or one configuration
 *  run (reset, construct, enqueue, run, validate). */
struct Step
{
    double wallS = 0, cpuS = 0;
    double setupS = 0; ///< App::setup or Machine construction
    double runS = 0;   ///< inside Machine::run
    double events = 0; ///< simulated events (sum of laneScheduled)
};

/** Everything one pass over a workload measured. */
struct PassResult
{
    std::vector<Step> steps; ///< in the same order in every pass
    /// Whole-pass totals (trace.overhead_frac and per-layer metrics).
    double wallS = 0, appSetupS = 0, constructS = 0, runS = 0;
    uint64_t attempted = 0, failed = 0;
    SimStats sum;            ///< counters summed over the pass's runs
    uint64_t events = 0;     ///< sum of laneScheduled
    uint64_t peakPending = 0; ///< max per-lane peak pending events
    BackendTally backend;
    /// Simulated cycles per (app, cores) under {random, hints}.
    std::map<std::pair<std::string, uint32_t>, std::array<double, 2>> cycles;
    uint32_t maxCores = 0; ///< the workload's largest core count
};

void
addStats(SimStats& a, const SimStats& b)
{
    for (size_t i = 0; i < kNumCycleBuckets; ++i)
        a.coreCycles[i] += b.coreCycles[i];
    for (size_t i = 0; i < kNumTrafficClasses; ++i)
        a.flits[i] += b.flits[i];
    a.tasksCommitted += b.tasksCommitted;
    a.tasksAborted += b.tasksAborted;
    a.abortsConflict += b.abortsConflict;
    a.abortsDisplace += b.abortsDisplace;
    a.abortsGridlock += b.abortsGridlock;
    a.tasksSpilled += b.tasksSpilled;
    a.dispatchSkips += b.dispatchSkips;
    a.conflictChecks += b.conflictChecks;
    a.lineTableRegs += b.lineTableRegs;
    a.l1Hits += b.l1Hits;
    a.l1Misses += b.l1Misses;
    a.l2Hits += b.l2Hits;
    a.l2Misses += b.l2Misses;
    a.l3Hits += b.l3Hits;
    a.l3Misses += b.l3Misses;
}

struct Bench
{
    const Workload& wl;
    apps::Preset preset;
    uint64_t seed;
    bool corrupt = false; ///< test hook: wrong reference digests
    SpanLog spans;
    uint64_t nextRun = 0;

    SimConfig
    config(uint32_t cores, const std::string& sched,
           const std::string& backend) const
    {
        SimConfig cfg = SimConfig::withCores(cores);
        if (!policies::set(cfg, "sched", sched) ||
            !policies::set(cfg, "backend", backend)) {
            std::fprintf(stderr, "perfbench: bad policy %s/%s\n",
                         sched.c_str(), backend.c_str());
            std::exit(2);
        }
        return cfg;
    }

    /** Input seed of pass @p pass: the --seed for pass 0, then distinct
     *  seeds derived from it, so a run spans several inputs. */
    uint64_t
    inputSeed(uint64_t pass) const
    {
        return seed + pass * 0x9E3779B97F4A7C15ull;
    }

    std::unique_ptr<apps::App>
    makeApp(const std::string& name, uint64_t inSeed) const
    {
        auto app = apps::makeApp(name);
        apps::AppParams p;
        p.preset = preset;
        p.seed = inSeed;
        app->setup(p);
        return app;
    }

    /** The digest @p app's runs must reproduce; --corrupt-reference
     *  makes the first app's wrong to prove the gate trips. */
    uint64_t
    expected(const apps::App& app, uint64_t digest) const
    {
        return digest ^ uint64_t(corrupt && app.name() == wl.apps.front());
    }

    /** Run @p app once untimed; false on a failed validate(). */
    bool
    runUntimed(apps::App& app, const SimConfig& cfg, uint64_t& digest)
    {
        app.reset();
        Machine m(cfg);
        app.enqueueInitial(m);
        m.run();
        digest = app.resultDigest();
        return app.validate();
    }

    /**
     * Cross-backend gate (untimed; doubles as warm-up): per app, one
     * instance runs at 4 cores on the reference backend and on the
     * measured backend, and both results must validate and agree.
     * Returns the number of failed apps.
     */
    uint64_t
    crossBackendCheck()
    {
        uint64_t failed = 0;
        for (const auto& name : wl.apps) {
            auto app = makeApp(name, inputSeed(0));
            uint64_t ref = 0, got = 0;
            bool ok = runUntimed(*app, config(4, "random", wl.refBackend), ref);
            ok &= runUntimed(*app, config(4, "random", wl.backend), got);
            ok &= got == expected(*app, ref);
            if (!ok) {
                std::fprintf(stderr, "FAIL %s: %s and %s results differ or "
                             "fail validate()\n", name.c_str(),
                             wl.refBackend, wl.backend);
                ++failed;
            }
        }
        return failed;
    }

    /**
     * Self-check of the traced path: an undecorated and a decorated run
     * of the same app instance must produce identical statsDigests.
     */
    bool
    tracedSelfCheck()
    {
        auto app = makeApp(wl.apps.front(), inputSeed(0));
        uint64_t digest[2] = {};
        for (int traced = 0; traced < 2; ++traced) {
            BackendTally tally;
            std::string be = traced ? std::string("traced-") + wl.backend
                                    : std::string(wl.backend);
            app->reset();
            g_tally = &tally;
            Machine m(config(wl.cores.back(), kScheds.front(), be));
            g_tally = nullptr;
            app->enqueueInitial(m);
            m.run();
            digest[traced] = statsDigest(m.stats());
        }
        std::printf("self-check %s: untraced statsDigest %016llx, traced "
                    "%016llx: %s\n",
                    wl.apps.front().c_str(), (unsigned long long)digest[0],
                    (unsigned long long)digest[1],
                    digest[0] == digest[1] ? "equal" : "DIFFERENT");
        return digest[0] == digest[1];
    }

    PassResult
    pass(uint64_t index, bool traced)
    {
        PassResult r;
        spans.setEnabled(traced);
        const std::string backend =
            traced ? std::string("traced-") + wl.backend : wl.backend;
        auto wall0 = Clock::now();
        for (const auto& name : wl.apps) {
            uint64_t setupRun = ++nextRun;
            uint64_t hs = spans.open("apps.setup", setupRun, 0);
            auto t0 = Clock::now();
            double c0 = cpuSeconds();
            auto app = makeApp(name, inputSeed(index));
            double dt = secondsSince(t0);
            r.steps.push_back({dt, cpuSeconds() - c0, dt, 0, 0});
            spans.close(hs, "\"app\":\"" + name + "\"");
            r.appSetupS += dt;
            std::optional<uint64_t> reference;
            for (size_t i = 0; i < kScheds.size(); ++i) {
                for (uint32_t cores : wl.cores) {
                    r.cycles[{name, cores}][i] = double(runOne(
                        *app, kScheds[i], cores, backend, reference, r));
                }
            }
        }
        r.maxCores = wl.cores.back();
        r.wallS = secondsSince(wall0);
        spans.setEnabled(false);
        return r;
    }

    /** One (app, sched, cores) run; returns its simulated cycles. */
    uint64_t
    runOne(apps::App& app, const std::string& sched, uint32_t cores,
           const std::string& backend, std::optional<uint64_t>& reference,
           PassResult& r)
    {
        const uint64_t run = ++nextRun;
        char label[128];
        std::snprintf(label, sizeof(label),
                      "\"app\":\"%s\",\"sched\":\"%s\",\"cores\":%u",
                      app.name().c_str(), sched.c_str(), cores);
        uint64_t top = spans.open("bench.run", run, 0);
        SimConfig cfg = config(cores, sched, backend);
        BackendTally tally;
        Step step;
        const auto wall0 = Clock::now();
        const double cpu0 = cpuSeconds();

        app.reset();
        uint64_t h = spans.open("machine.construct", run, top);
        g_tally = &tally;
        auto t0 = Clock::now();
        std::optional<Machine> m(std::in_place, cfg);
        step.setupS = secondsSince(t0);
        g_tally = nullptr;
        spans.close(h);

        h = spans.open("apps.enqueue_initial", run, top);
        app.enqueueInitial(*m);
        spans.close(h);

        h = spans.open("machine.run", run, top);
        t0 = Clock::now();
        m->run();
        step.runS = secondsSince(t0);

        const SimStats& st = m->stats();
        uint64_t events = 0, peak = 0;
        for (uint64_t v : st.laneScheduled)
            events += v;
        for (uint64_t v : st.lanePeakPending)
            peak = std::max(peak, v);
        char counts[512];
        std::snprintf(counts, sizeof(counts),
                      "\"events\":%llu,\"access_calls\":%llu,"
                      "\"access_s\":%.9f,\"task_send_calls\":%llu,"
                      "\"rollback_calls\":%llu,\"backend_s\":%.9f,"
                      "\"cycles\":%llu",
                      (unsigned long long)events,
                      (unsigned long long)tally.accessCalls, tally.accessS,
                      (unsigned long long)tally.taskSendCalls,
                      (unsigned long long)tally.rollbackCalls,
                      tally.totalS(), (unsigned long long)st.cycles);
        spans.close(h, counts);
        addStats(r.sum, st);
        const uint64_t cycles = st.cycles;
        m.reset(); // the step's host time includes tearing the machine down

        h = spans.open("apps.validate", run, top);
        bool valid = app.validate();
        uint64_t digest = app.resultDigest();
        spans.close(h);
        step.wallS = secondsSince(wall0);
        step.cpuS = cpuSeconds() - cpu0;
        step.events = double(events);
        r.steps.push_back(step);
        r.constructS += step.setupS;
        r.runS += step.runS;
        // App::resultDigest is only stable per app instance (silo hashes
        // uninitialised row padding), so each pass's instance takes its
        // first run as the reference for its other schedulers and cores.
        if (!reference)
            reference = expected(app, digest);
        bool digestOk = digest == *reference;

        ++r.attempted;
        if (!valid || !digestOk) {
            ++r.failed;
            std::fprintf(stderr,
                         "FAIL %s sched=%s cores=%u backend=%s: %s\n",
                         app.name().c_str(), sched.c_str(), cores,
                         backend.c_str(),
                         !valid ? "validate() false"
                                : "resultDigest != reference");
        }
        r.events += events;
        r.peakPending = std::max(r.peakPending, peak);
        r.backend += tally;
        spans.close(top, std::string(label) +
                             (valid && digestOk ? ",\"ok\":true"
                                                : ",\"ok\":false"));
        return cycles;
    }
};

// ---- Metrics --------------------------------------------------------------------

struct Metric
{
    std::string name;
    const char* unit;
    double value;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Per input, the index of its fastest pass by @p v, where pass n ran
 * input n % @p inputs. Contention from other work on the host only ever slows a step, comes in
 * bursts shorter than a pass, and the rounds of one input lie whole passes
 * apart, so the fastest round is the one least disturbed.
 */
std::vector<size_t>
fastestRounds(const std::vector<double>& v, size_t inputs)
{
    std::vector<size_t> best(inputs);
    for (size_t n = 0; n < v.size(); ++n) {
        size_t& b = best[n % inputs];
        if (n < inputs || v[n] < v[b])
            b = n;
    }
    return best;
}

/**
 * End-to-end metrics over @p passes, pass n on input n % @p inputs. A host
 * time sums, over the steps, the mean over inputs of the step's fastest
 * round (sim_mevents_per_s pairs each fastest run time with the events of
 * the same run); simulated metrics pool all passes' counters and cycles.
 */
std::vector<Metric>
endToEnd(const std::vector<PassResult>& passes, size_t inputs)
{
    Step host;
    for (size_t i = 0; i < passes.front().steps.size(); ++i) {
        auto across = [&](double Step::*field) {
            std::vector<double> v;
            for (const auto& p : passes)
                v.push_back(p.steps[i].*field);
            return v;
        };
        // The mean over inputs of @p field in the fastest round by @p by.
        auto fastest = [&](double Step::*by, double Step::*field) {
            double t = 0;
            for (size_t n : fastestRounds(across(by), inputs))
                t += passes[n].steps[i].*field;
            return t / double(inputs);
        };
        host.wallS += fastest(&Step::wallS, &Step::wallS);
        host.cpuS += fastest(&Step::cpuS, &Step::cpuS);
        host.setupS += fastest(&Step::setupS, &Step::setupS);
        host.runS += fastest(&Step::runS, &Step::runS);
        host.events += fastest(&Step::runS, &Step::events);
    }
    SimStats s;
    std::map<std::pair<std::string, uint32_t>, std::array<double, 2>> cyc;
    for (const auto& p : passes) {
        addStats(s, p.sum);
        for (const auto& [key, c] : p.cycles) {
            cyc[key][0] += c[0];
            cyc[key][1] += c[1];
        }
    }
    std::vector<double> speedups, hints;
    for (const auto& [key, c] : cyc) {
        hints.push_back(c[1] / double(passes.size()));
        if (key.second > 1)
            speedups.push_back(c[0] / c[1]);
    }
    double commitCyc = double(s.coreCycles[size_t(CycleBucket::Commit)]);
    double abortCyc = double(s.coreCycles[size_t(CycleBucket::Abort)]);
    return {
        {"setup_s", "s", host.setupS},
        {"wall_s", "s", host.wallS},
        {"cpu_s", "s", host.cpuS},
        {"sim_mevents_per_s", "Mevents/s",
         ratio(host.events * 1e-6, host.runS)},
        {"peak_rss_mb", "MiB", peakRssMb()},
        {"hint_speedup", "x", gmean(speedups)},
        {"hints_cycles_gmean", "cycles", gmean(hints)},
        {"useful_work_frac", "fraction",
         ratio(commitCyc, commitCyc + abortCyc)},
        {"flits_per_commit", "flits/task",
         ratio(double(s.totalFlits()), double(s.tasksCommitted))},
    };
}

std::vector<Metric>
perLayer(const PassResult& r)
{
    const SimStats& s = r.sum;
    const BackendTally& b = r.backend;
    double total = double(s.totalCoreCycles());
    auto bucket = [&](CycleBucket c) {
        return ratio(double(s.coreCycles[size_t(c)]), total);
    };
    auto hit = [](uint64_t h, uint64_t m) {
        return ratio(double(h), double(h + m));
    };
    auto flits = [&](TrafficClass c) { return double(s.flits[size_t(c)]); };
    std::vector<Metric> v = {
        {"apps.setup_s", "s", r.appSetupS},
        {"machine.construct_s", "s", r.constructS},
        {"machine.run_s", "s", r.runS},
        {"backend.access_calls", "count", double(b.accessCalls)},
        {"backend.access_s", "s", b.accessS},
        {"backend.task_send_calls", "count", double(b.taskSendCalls)},
        {"backend.task_send_s", "s", b.taskSendS},
        {"backend.rollback_calls", "count", double(b.rollbackCalls)},
        {"backend.rollback_s", "s", b.rollbackS},
        {"backend.other_s", "s", b.otherS},
        {"backend.share", "fraction", ratio(b.totalS(), r.runS)},
        {"engine.self_s", "s", r.runS - b.totalS()},
        {"sim.events", "count", double(r.events)},
        {"sim.events_per_commit", "events/task",
         ratio(double(r.events), double(s.tasksCommitted))},
        {"sim.peak_pending", "count", double(r.peakPending)},
        {"conflict.checks", "count", double(s.conflictChecks)},
        {"conflict.line_table_regs", "count", double(s.lineTableRegs)},
        {"conflict.aborts_conflict", "count", double(s.abortsConflict)},
        {"conflict.commit_ratio", "fraction",
         ratio(double(s.tasksCommitted),
               double(s.tasksCommitted + s.tasksAborted))},
        {"commit.tasks", "count", double(s.tasksCommitted)},
        {"commit.aborts_displace", "count", double(s.abortsDisplace)},
        {"commit.aborts_gridlock", "count", double(s.abortsGridlock)},
        {"cycles.abort_frac", "fraction", bucket(CycleBucket::Abort)},
        {"cycles.commit_frac", "fraction", bucket(CycleBucket::Commit)},
        {"cycles.spill_frac", "fraction", bucket(CycleBucket::Spill)},
        {"cycles.stall_frac", "fraction", bucket(CycleBucket::Stall)},
        {"cycles.empty_frac", "fraction", bucket(CycleBucket::Empty)},
        {"mem.l1_hit_rate", "fraction", hit(s.l1Hits, s.l1Misses)},
        {"mem.l2_hit_rate", "fraction", hit(s.l2Hits, s.l2Misses)},
        {"mem.l3_hit_rate", "fraction", hit(s.l3Hits, s.l3Misses)},
        {"noc.flits_memacc", "flits", flits(TrafficClass::MemAcc)},
        {"noc.flits_abort", "flits", flits(TrafficClass::Abort)},
        {"noc.flits_task", "flits", flits(TrafficClass::Task)},
        {"noc.flits_gvt", "flits", flits(TrafficClass::Gvt)},
        {"sched.dispatch_skips", "count", double(s.dispatchSkips)},
        {"capacity.spilled", "count", double(s.tasksSpilled)},
    };
    // One cycles.<app>.<sched> per app any workload runs, so every
    // workload reports the same names; an app the workload does not run
    // simulated 0 cycles in it.
    std::vector<std::string> names;
    for (const auto& w : workloads())
        for (const auto& app : w.apps)
            if (std::find(names.begin(), names.end(), app) == names.end())
                names.push_back(app);
    for (const auto& app : names) {
        auto it = r.cycles.find({app, r.maxCores});
        for (size_t i = 0; i < kScheds.size(); ++i) {
            v.push_back({"cycles." + app + "." + kScheds[i], "cycles",
                         it == r.cycles.end() ? 0.0 : it->second[i]});
        }
    }
    return v;
}

/**
 * Print @p values, one human-readable row each, with the min and max of
 * the same metric over the single passes in @p perPass.
 */
void
report(const char* title, const std::vector<Metric>& values,
       const std::vector<std::vector<Metric>>& perPass)
{
    std::printf("%s (%zu passes; per-pass min, max):\n", title,
                perPass.size());
    for (size_t i = 0; i < values.size(); ++i) {
        double lo = perPass.front()[i].value, hi = lo;
        for (const auto& p : perPass) {
            lo = std::min(lo, p[i].value);
            hi = std::max(hi, p[i].value);
        }
        std::printf("  %-28s %14.6g %-11s [%.6g, %.6g]\n",
                    values[i].name.c_str(), values[i].value, values[i].unit,
                    lo, hi);
    }
}

/** Per-metric medians over passes. */
std::vector<Metric>
medians(const std::vector<std::vector<Metric>>& perPass)
{
    std::vector<Metric> out;
    for (size_t i = 0; i < perPass.front().size(); ++i) {
        std::vector<double> v;
        for (const auto& p : perPass)
            v.push_back(p[i].value);
        out.push_back({perPass.front()[i].name, perPass.front()[i].unit,
                       median(v)});
    }
    return out;
}

[[noreturn]] void
usage(const char* msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "[--seed N] [--seconds S] [--trace 0|1] [--spans PATH]\n"
                 "  [--revision STR] [--preset tiny|small] "
                 "[--corrupt-reference]\nworkloads:",
                 msg);
    for (const auto& w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char** argv)
{
    const auto origin = Clock::now();
    std::string wlName, spansPath, revision = "unknown", presetArg;
    uint64_t seed = 42;
    double seconds = 35;
    int trace = 0;
    bool corrupt = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") wlName = val();
        else if (a == "--seed") seed = std::strtoull(val().c_str(), nullptr, 10);
        else if (a == "--seconds") seconds = std::atof(val().c_str());
        else if (a == "--trace") trace = std::atoi(val().c_str());
        else if (a == "--spans") spansPath = val();
        else if (a == "--revision") revision = val();
        else if (a == "--preset") presetArg = val();
        else if (a == "--corrupt-reference") corrupt = true;
        else usage(("unknown argument " + a).c_str());
    }
    const Workload* wl = nullptr;
    for (const auto& w : workloads())
        if (wlName == w.name)
            wl = &w;
    if (!wl)
        usage(("unknown workload '" + wlName + "'").c_str());
    if (trace != 0 && trace != 1)
        usage("--trace takes 0 or 1");
    apps::Preset preset = wl->preset;
    if (presetArg == "tiny") preset = apps::Preset::Tiny;
    else if (presetArg == "small") preset = apps::Preset::Small;
    else if (!presetArg.empty()) usage("--preset takes tiny or small");

    registerTracedBackends();
    Bench bench{*wl, preset, seed, corrupt, SpanLog(origin)};

    // Effective configuration.
    std::string cores;
    for (uint32_t c : wl->cores)
        cores += (cores.empty() ? "" : ",") + std::to_string(c);
    std::string appList;
    for (const auto& a : wl->apps)
        appList += (appList.empty() ? "" : ",") + a;
    std::printf("config: workload=%s seed=%llu preset=%s backend=%s "
                "reference-backend=%s host-threads=1\n",
                wl->name, (unsigned long long)seed, presetName(preset),
                wl->backend, wl->refBackend);
    for (const auto& s : kScheds)
        std::printf("config: policy=%s\n",
                    policies::describe(bench.config(wl->cores.back(), s,
                                                    wl->backend))
                        .c_str());
    std::printf("config: apps=%s cores=%s\n", appList.c_str(), cores.c_str());
    std::printf("config: compiler=%s flags=%s\n", PB_COMPILER,
                PB_BUILD_FLAGS);
    std::printf("config: nproc=%u online-cpus=%ld revision=%s\n",
                std::thread::hardware_concurrency(),
                sysconf(_SC_NPROCESSORS_ONLN), revision.c_str());

    uint64_t attempted = wl->apps.size(), failed = 0;
    auto tRef = Clock::now();
    failed += bench.crossBackendCheck();
    std::printf("cross-backend check: %zu apps in %.2f s\n", wl->apps.size(),
                secondsSince(tRef));
    if (trace) {
        ++attempted;
        if (!bench.tracedSelfCheck())
            ++failed;
    }

    std::vector<std::vector<Metric>> e2e, layers;
    std::vector<PassResult> untraced;
    std::vector<double> untracedWall, tracedWall;
    // A fixed pass count (not a deadline) keeps a seed's input set
    // fixed. The passes run each of `inputs` inputs in `rounds` rounds,
    // the inputs interleaved (pass n runs input n % inputs), so that the
    // fastest round of each step can be taken. A traced measurement
    // alternates untraced and traced passes, each pair on its own input,
    // and runs half as many pairs, so it takes about as long.
    uint64_t passes = std::max(1L, std::lround(seconds / wl->passSeconds));
    const uint64_t rounds = std::min(passes, wl->rounds);
    uint64_t inputs = passes / rounds;
    passes = inputs * rounds;
    if (trace)
        inputs = passes = (passes + 1) / 2;
    for (uint64_t n = 0; n < passes; ++n) {
        PassResult r = bench.pass(n % inputs, false);
        attempted += r.attempted;
        failed += r.failed;
        untracedWall.push_back(r.wallS);
        untraced.push_back(std::move(r));
        e2e.push_back(endToEnd({untraced.back()}, 1));
        if (trace) {
            PassResult tr = bench.pass(n % inputs, true);
            attempted += tr.attempted;
            failed += tr.failed;
            tracedWall.push_back(tr.wallS);
            layers.push_back(perLayer(tr));
        }
    }

    std::vector<Metric> out = endToEnd(untraced, inputs);
    report("end-to-end", out, e2e);
    std::printf("  %-28s %14.6g %-11s (%llu of %llu runs failed)\n",
                "failed_frac", double(failed) / double(attempted),
                "fraction", (unsigned long long)failed,
                (unsigned long long)attempted);
    if (std::string(wl->backend) != "timing")
        std::printf("note: hint_speedup, hints_cycles_gmean and "
                    "flits_per_commit use the %s backend's collapsed "
                    "clock; they are not the paper's design metrics here\n",
                    wl->backend);
    if (trace) {
        out = medians(layers);
        report("per-layer (traced passes, medians)", out, layers);
        double overhead = median(tracedWall) / median(untracedWall) - 1.0;
        std::printf("  %-28s %14.6g %-11s\n", "trace.overhead_frac",
                    overhead, "fraction");
        out.push_back({"trace.overhead_frac", "fraction", overhead});
        if (!spansPath.empty()) {
            if (!bench.spans.write(spansPath)) {
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             spansPath.c_str());
                return 2;
            }
            std::printf("spans: %zu written to %s\n", bench.spans.size(),
                        spansPath.c_str());
        }
    }

    std::fflush(stdout);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed ? "false" : "true", (unsigned long long)attempted,
                (unsigned long long)failed);
    for (size_t i = 0; i < out.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", out[i].name.c_str(), out[i].value,
                    out[i].unit);
    std::printf("}}\n");
    return failed ? 1 : 0;
}
