#include "harness.hh"

#include <algorithm>
#include <cstdio>
#include <iostream>

namespace perfbench {

namespace {

/** Histogram percentile, 0 for an empty histogram. */
double
pct(const skipit::Histogram &h, double p)
{
    return h.empty() ? 0.0 : h.percentile(p);
}

/** Stage percentile from a tracer, 0 when the stage never fired. */
double
stagePct(const skipit::TxnTracer &t, const std::string &stage, double p)
{
    const skipit::Histogram *h = t.histogram(stage);
    return h == nullptr ? 0.0 : pct(*h, p);
}

std::uint64_t
stageCount(const skipit::TxnTracer &t, const std::string &stage)
{
    const skipit::Histogram *h = t.histogram(stage);
    return h == nullptr ? 0 : h->count();
}

} // namespace

SpanLog::SpanLog(std::string run_id)
    : run_id_(std::move(run_id)), t0_(Clock::now())
{
}

int
SpanLog::open(const std::string &name)
{
    Span s;
    s.id = static_cast<int>(spans_.size());
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.name = name;
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.back().id);
    // Read the clock last so the bookkeeping above stays outside.
    spans_.back().start_s =
        std::chrono::duration<double>(Clock::now() - t0_).count();
    return spans_.back().id;
}

double
SpanLog::close(int id)
{
    const double now =
        std::chrono::duration<double>(Clock::now() - t0_).count();
    Span &s = spans_[static_cast<std::size_t>(id)];
    s.end_s = now;
    stack_.pop_back();
    return s.end_s - s.start_s;
}

void
SpanLog::writeJson(std::ostream &os) const
{
    os << "{\"run_id\": \"" << run_id_ << "\", \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "\"start_s\": %.9f, \"end_s\": %.9f}", s.start_s,
                      s.end_s);
        os << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
           << ", \"name\": \"" << s.name << "\", " << buf
           << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
}

const char *
name(Variant v)
{
    switch (v) {
      case Variant::Baseline:
        return "baseline";
      case Variant::Traced:
        return "traced";
      case Variant::CheckerOff:
        return "checker_off";
      case Variant::WatchdogOff:
        return "watchdog_off";
    }
    return "?";
}

void
applyVariant(skipit::SoCConfig &cfg, Variant v)
{
    // Violations are latched and counted instead of aborting the run.
    cfg.verify.fatal = false;
    if (v == Variant::CheckerOff)
        cfg.verify.enabled = false;
    if (v == Variant::WatchdogOff)
        cfg.watchdog.enabled = false;
}

void
SimResult::addCounters(const skipit::Stats &stats)
{
    for (const auto &[key, value] : stats.all())
        counters[key] += value;
}

std::string
SimResult::diff(const SimResult &o, bool with_latency) const
{
    if (cycles != o.cycles)
        return "cycles " + std::to_string(cycles) + " vs " +
               std::to_string(o.cycles);
    if (ops != o.ops || op_cycles != o.op_cycles)
        return "ops " + std::to_string(ops) + " vs " +
               std::to_string(o.ops);
    if (with_latency &&
        latency.samples().samples() != o.latency.samples().samples())
        return "per-op latencies differ";
    if (counters != o.counters) {
        for (const auto &[key, value] : counters) {
            const auto it = o.counters.find(key);
            const std::uint64_t other = it == o.counters.end() ? 0
                                                               : it->second;
            if (value != other)
                return "counter " + key + " " + std::to_string(value) +
                       " vs " + std::to_string(other);
        }
        return "counter sets differ";
    }
    return "";
}

void
Result::fail(const std::string &why, std::uint64_t n)
{
    failed += n;
    std::cerr << "perfbench: FAILED: " << why << "\n";
}

skipit::Cycle
runSliced(skipit::Simulator &sim, const std::function<bool()> &done,
          skipit::Cycle slice, skipit::Cycle max_cycles,
          std::vector<double> &out)
{
    const skipit::Cycle start = sim.now();
    skipit::Cycle boundary = start;
    while (!done()) {
        boundary += slice;
        const auto t0 = Clock::now();
        sim.runUntil([&] { return done() || sim.now() >= boundary; },
                     max_cycles);
        out.push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());
    }
    return sim.now() - start;
}

bool
SliceMin::add(const std::vector<double> &slices)
{
    if (passes_ == 0) {
        min_ = slices;
    } else {
        if (slices.size() != min_.size())
            return false;
        for (std::size_t i = 0; i < slices.size(); ++i)
            min_[i] = std::min(min_[i], slices[i]);
    }
    ++passes_;
    return true;
}

double
SliceMin::total() const
{
    double sum = 0;
    for (const double s : min_)
        sum += s;
    return sum;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
stageMetrics(const skipit::TxnTracer &t, Result &r)
{
    const auto count = [&](const std::string &stage) {
        r.metrics[stage + ".count"] =
            static_cast<double>(stageCount(t, stage));
    };
    const auto at = [&](const std::string &stage, double p) {
        r.metrics[stage + (p == 50.0 ? ".p50" : ".p99")] =
            stagePct(t, stage, p);
    };
    at("lsu.window", 50);
    at("lsu.window", 99);
    for (const char *stage : {"l1.fshr", "l1.mshr", "l2.mshr"}) {
        count(stage);
        at(stage, 50);
        at(stage, 99);
    }
    at("l1.flushq", 99);
    at("l1.wbu", 99);
    for (const char *stage : {"tl.a", "tl.b", "tl.c", "tl.d", "tl.e",
                              "dram.read"}) {
        count(stage);
        at(stage, 99);
    }
    count("dram.write");
}

void
counterMetrics(const SimResult &s, unsigned harts, Result &r)
{
    const auto get = [&](const std::string &key) {
        const auto it = s.counters.find(key);
        return it == s.counters.end() ? 0.0
                                      : static_cast<double>(it->second);
    };
    const auto l1sum = [&](const std::string &leaf) {
        double sum = 0;
        for (unsigned h = 0; h < harts; ++h)
            sum += get("l1." + std::to_string(h) + "." + leaf);
        return sum;
    };
    const double cleans = l1sum("cbo_clean_accepted");
    const double drops = l1sum("skipit_dropped");
    r.metrics["l1.cbo_cleans"] = cleans;
    r.metrics["l1.skip_drops"] = drops;
    r.metrics["l1.skip_drop_ratio"] = cleans == 0 ? 0.0 : drops / cleans;
    r.metrics["l1.mshr_full"] = l1sum("mshr_full");
    r.metrics["l1.flushq_full"] = l1sum("flushq_full");
    r.metrics["l1.nacks"] = l1sum("nacks");
    r.metrics["l2.rootrelease.clean"] = get("l2.rootrelease.clean");
    r.metrics["l2.rootrelease.mem_writebacks"] =
        get("l2.rootrelease.mem_writebacks");
    r.metrics["l2.llcskip"] = get("l2.rootrelease.llc_skipped");
    r.metrics["l2.victim_writebacks"] = get("l2.victim_writebacks");
}

void
simMetrics(const SimResult &s, double wall_s, Result &r)
{
    const double cycles = static_cast<double>(s.cycles);
    r.metrics["sim_cycles"] = cycles;
    r.metrics["sim_kcycles_per_s"] = cycles / 1000.0 / wall_s;
    r.metrics["ops_per_kcycle"] =
        static_cast<double>(s.ops) * 1000.0 /
        static_cast<double>(s.op_cycles != 0 ? s.op_cycles : s.cycles);
    r.metrics["lat_p50_cycles"] = pct(s.latency, 50);
    r.metrics["lat_p99_cycles"] = pct(s.latency, 99);
    r.samples["lat_p50_cycles"] = s.latency.count();
    r.samples["lat_p99_cycles"] = s.latency.count();
}

std::uint64_t
derive(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed * 0x2545f4914f6cdd1dULL + salt;
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace perfbench
