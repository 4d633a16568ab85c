#include "sweep.hh"

#include "json.hh"

#include <initializer_list>
#include <stdexcept>
#include <utility>

#include "run_pool.hh"
#include "soc/config_keys.hh"
#include "workloads.hh"

namespace skipit::workloads {

namespace {

[[noreturn]] void
fail(const std::string &msg)
{
    throw std::runtime_error(msg);
}

// ---------------------------------------------------------------------
// Per-kind parameter models.
// ---------------------------------------------------------------------

enum class Kind { Cbo, Wwr, Redundant, Throughput };

/** The value @p token names in @p names; throws naming @p what. */
template <class T>
T
pick(const std::string &what, const std::string &token,
     std::initializer_list<std::pair<const char *, T>> names)
{
    std::string known;
    for (const auto &[name, value] : names) {
        if (token == name)
            return value;
        known += (known.empty() ? "" : ", ") + std::string(name);
    }
    fail(what + ": '" + token + "' is not one of " + known);
}

/** Parameters of the cycle-model kinds (cbo / wwr / redundant). */
struct CycleParams
{
    SoCConfig cfg{};
    unsigned threads = 1;
    std::size_t bytes = 4096;
    bool flush = true;
    unsigned cores = 0; //!< machine size; 0 = one core per thread
};

void
applyCycleParam(CycleParams &p, const std::string &name,
                const std::string &token)
{
    if (name == "threads")
        p.threads = parseUnsigned(name, token);
    else if (name == "bytes")
        p.bytes = static_cast<std::size_t>(parseU64(name, token));
    else if (name == "flush")
        p.flush = parseFlag(name, token);
    else if (name == "cores")
        p.cores = parseUnsigned(name, token);
    else
        applyConfigKey(p.cfg, name, token);
}

/** Parameters of the throughput kind. */
struct ThroughputParams
{
    DsKind ds = DsKind::Bst;
    FlushPolicy policy = FlushPolicy::SkipIt;
    PersistMode mode = PersistMode::Automatic;
    double update_pct = 5.0;
    unsigned threads = 2;
    Cycle budget = 400'000;
    std::size_t flit_entries = std::size_t{1} << 16;
    std::uint64_t seed = 0;
    bool seed_set = false;
};

void
applyThroughputParam(ThroughputParams &p, const std::string &name,
                     const std::string &token)
{
    if (name == "ds")
        p.ds = pick<DsKind>(name, token,
                            {{"list", DsKind::List},
                             {"hashtable", DsKind::HashTable},
                             {"hash", DsKind::HashTable},
                             {"bst", DsKind::Bst},
                             {"skiplist", DsKind::SkipList}});
    else if (name == "policy")
        p.policy = pick<FlushPolicy>(
            name, token,
            {{"plain", FlushPolicy::Plain},
             {"flit-adjacent", FlushPolicy::FlitAdjacent},
             {"flit-hashtable", FlushPolicy::FlitHashTable},
             {"link-and-persist", FlushPolicy::LinkAndPersist},
             {"skip-it", FlushPolicy::SkipIt}});
    else if (name == "mode")
        p.mode = pick<PersistMode>(
            name, token,
            {{"non-persistent", PersistMode::NonPersistent},
             {"automatic", PersistMode::Automatic},
             {"nvtraverse", PersistMode::NvTraverse},
             {"manual", PersistMode::Manual}});
    else if (name == "update_pct")
        p.update_pct = parseF64(name, token);
    else if (name == "threads")
        p.threads = parseUnsigned(name, token);
    else if (name == "budget")
        p.budget = parseU64(name, token);
    else if (name == "flit_entries")
        p.flit_entries = static_cast<std::size_t>(parseU64(name, token));
    else if (name == "seed") {
        p.seed = parseU64(name, token);
        p.seed_set = true;
    } else {
        fail("unknown axis '" + name + "' for kind throughput");
    }
}

std::vector<std::string>
resultColumns(Kind kind)
{
    if (kind == Kind::Throughput)
        return {"mops_per_mcycle", "ops", "flushes", "skipped_l1"};
    return {"cycles"};
}

/** Execute one grid point and return its result cells. */
std::vector<ReportValue>
runPoint(const SweepSpec &spec, Kind kind, const SweepPoint &pt)
{
    if (kind == Kind::Throughput) {
        ThroughputParams p;
        for (const auto &[name, token] : pt.params)
            applyThroughputParam(p, name, token);
        if (!p.seed_set)
            p.seed = spec.seed + pt.index;
        // Some combinations don't exist (link-and-persist needs spare
        // pointer bits the BST doesn't have); keep the grid rectangular
        // and mark the row rather than failing the whole sweep.
        if (!applicable(p.ds, p.policy))
            return {std::string("n/a"), std::string("n/a"),
                    std::string("n/a"), std::string("n/a")};
        const ThroughputResult r =
            runThroughput(p.ds, p.policy, p.mode, p.update_pct, p.threads,
                          p.budget, p.flit_entries, p.seed);
        return {r.mops_per_mcycle, r.ops, r.flushes, r.skipped_l1};
    }

    CycleParams p;
    for (const auto &[name, token] : pt.params)
        applyCycleParam(p, name, token);
    Cycle cycles = 0;
    switch (kind) {
      case Kind::Cbo:
        cycles = cboLatency(p.cfg, p.threads, p.bytes, p.flush, p.cores);
        break;
      case Kind::Wwr:
        cycles = writeWbReadLatency(p.cfg, p.threads, p.bytes, p.flush,
                                    p.cores);
        break;
      default:
        cycles = redundantWbLatency(p.cfg, p.threads, p.bytes, p.flush,
                                    p.cores);
        break;
    }
    return {static_cast<std::uint64_t>(cycles)};
}

/** Parse the kind and reject unknown axis names / unparsable values
 *  before spawning work. */
Kind
validate(const SweepSpec &spec)
{
    try {
        const Kind kind = pick<Kind>("kind", spec.kind,
                                    {{"cbo", Kind::Cbo},
                                     {"wwr", Kind::Wwr},
                                     {"redundant", Kind::Redundant},
                                     {"throughput", Kind::Throughput}});
        for (const SweepAxis &axis : spec.axes) {
            if (axis.values.empty())
                fail("axis '" + axis.name + "' has no values");
            for (const std::string &token : axis.values) {
                if (kind == Kind::Throughput) {
                    ThroughputParams scratch;
                    applyThroughputParam(scratch, axis.name, token);
                } else {
                    CycleParams scratch;
                    applyCycleParam(scratch, axis.name, token);
                }
            }
        }
        return kind;
    } catch (const std::exception &e) {
        fail(std::string("sweep: ") + e.what());
    }
}

} // namespace

SweepSpec
SweepSpec::fromJsonText(const std::string &text)
{
    const JsonValue doc = parseJson(text, "sweep spec");
    if (doc.type != JsonValue::Type::Object)
        fail("sweep spec: top level must be a JSON object");

    SweepSpec spec;
    for (const auto &[key, value] : doc.fields) {
        if (key == "kind") {
            spec.kind = scalarToken(value, "sweep spec: kind");
        } else if (key == "seed") {
            spec.seed = parseU64("sweep spec: seed",
                                 scalarToken(value, "sweep spec: seed"));
        } else if (key == "axes") {
            if (value.type != JsonValue::Type::Object)
                fail("sweep spec: \"axes\" must be an object");
            for (const auto &[axis_name, axis_values] : value.fields) {
                SweepAxis axis;
                axis.name = axis_name;
                const std::string what = "sweep spec: axis '" + axis_name +
                                         "' values";
                if (axis_values.type == JsonValue::Type::Array) {
                    for (const JsonValue &v : axis_values.items)
                        axis.values.push_back(scalarToken(v, what));
                } else {
                    axis.values.push_back(scalarToken(axis_values, what));
                }
                spec.axes.push_back(std::move(axis));
            }
        } else {
            fail("sweep spec: unknown key \"" + key + "\"");
        }
    }
    return spec;
}

std::vector<SweepPoint>
expandGrid(const SweepSpec &spec)
{
    std::size_t total = 1;
    for (const SweepAxis &axis : spec.axes) {
        if (axis.values.empty())
            fail("sweep: axis '" + axis.name + "' has no values");
        total *= axis.values.size();
    }

    std::vector<SweepPoint> points;
    points.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
        SweepPoint pt;
        pt.index = i;
        // Mixed-radix decomposition, last axis varying fastest.
        std::size_t rem = i;
        std::size_t radix = total;
        for (const SweepAxis &axis : spec.axes) {
            radix /= axis.values.size();
            const std::size_t digit = rem / radix;
            rem %= radix;
            pt.params.emplace_back(axis.name, axis.values[digit]);
        }
        points.push_back(std::move(pt));
    }
    return points;
}

ReportTable
runSweep(const SweepSpec &spec, unsigned jobs)
{
    const Kind kind = validate(spec);
    const std::vector<SweepPoint> points = expandGrid(spec);

    std::vector<std::vector<ReportValue>> rows(points.size());
    forEachRun(points.size(), jobs, [&](std::size_t i) {
        try {
            rows[i] = runPoint(spec, kind, points[i]);
        } catch (const std::exception &e) {
            fail("sweep: run " + std::to_string(i) + " failed: " +
                 e.what());
        }
        return true;
    });

    std::vector<std::string> columns;
    for (const SweepAxis &axis : spec.axes)
        columns.push_back(axis.name);
    for (std::string &c : resultColumns(kind))
        columns.push_back(std::move(c));

    ReportTable table("sweep: " + spec.kind, columns);
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::vector<ReportValue> row;
        row.reserve(columns.size());
        for (const auto &[axis_name, token] : points[i].params)
            row.emplace_back(token);
        for (ReportValue &v : rows[i])
            row.push_back(std::move(v));
        table.addRow(std::move(row));
    }
    return table;
}

} // namespace skipit::workloads
