#include "config_keys.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <iterator>
#include <stdexcept>
#include <type_traits>

namespace skipit {

namespace {

[[noreturn]] void
badToken(std::string_view name, const std::string &token,
         const std::string &what)
{
    throw std::runtime_error(std::string(name) + ": '" + token +
                             "' is not " + what);
}

/** A knob's value as a token: a policy by name, a flag as 1/0. */
template <class T>
std::string
keyText(T v)
{
    if constexpr (std::is_enum_v<T>)
        return toString(v);
    else
        return std::to_string(v);
}

/** Parse a policy name through its *FromString function. */
template <class Kind>
Kind
parseKind(std::string_view name, const std::string &token,
          bool (*from)(const std::string &, Kind &), const char *what)
{
    Kind k{};
    if (!from(token, k))
        badToken(name, token, what);
    return k;
}

// One table entry: PARSE (an expression of the key name n and the token
// t) sets cfg.FIELD, which prints back through keyText.
#define SKIPIT_KEY(NAME, FIELD, PARSE)                                   \
    {NAME, std::is_enum_v<decltype(SoCConfig::FIELD)>,                   \
     [](SoCConfig &c, std::string_view n, const std::string &t) {        \
         c.FIELD = PARSE;                                                \
     },                                                                  \
     [](const SoCConfig &c) { return keyText(c.FIELD); }}

const ConfigKey config_keys[] = {
    // skipit sets both halves of the mechanism (withSkipIt); a
    // grant_data_dirty later in the table can then override the L2 half.
    {"skipit", false,
     [](SoCConfig &c, std::string_view n, const std::string &t) {
         c.withSkipIt(parseFlag(n, t));
     },
     [](const SoCConfig &c) { return keyText(c.l1.skip_it); }},
    SKIPIT_KEY("coalesce", l1.coalesce, parseFlag(n, t)),
    SKIPIT_KEY("cross_kind_coalesce", l1.cross_kind_coalesce,
               parseFlag(n, t)),
    SKIPIT_KEY("wide_data_array", l1.wide_data_array, parseFlag(n, t)),
    SKIPIT_KEY("fshrs", l1.fshrs, parseUnsigned(n, t)),
    SKIPIT_KEY("flush_queue_depth", l1.flush_queue_depth,
               parseUnsigned(n, t)),
    SKIPIT_KEY("mshrs", l1.mshrs, parseUnsigned(n, t)),
    SKIPIT_KEY("llc_skip", l2.llc_skip, parseFlag(n, t)),
    SKIPIT_KEY("l2_slices", l2.slices, parseSlices(n, t)),
    SKIPIT_KEY("l2_policy", l2.policy,
               parseKind(n, t, stateKindFromString,
                         "inclusive or exclusive")),
    SKIPIT_KEY("l2_index", l2.index,
               parseKind(n, t, indexKindFromString, "modulo or hashed")),
    SKIPIT_KEY("l2_replace", l2.replace,
               parseKind(n, t, replaceKindFromString,
                         "lru, fifo or random")),
    SKIPIT_KEY("grant_data_dirty", l2.grant_data_dirty, parseFlag(n, t)),
    SKIPIT_KEY("dram_latency", dram.latency, parseU64(n, t)),
    SKIPIT_KEY("link_latency", link_latency, parseU64(n, t)),
    SKIPIT_KEY("fast_forward", fast_forward, parseFlag(n, t)),
};

#undef SKIPIT_KEY

} // namespace

std::uint64_t
parseU64(std::string_view name, const std::string &token)
{
    const bool hex = token.size() > 2 && token[0] == '0' &&
                     (token[1] == 'x' || token[1] == 'X');
    const char *first = token.data() + (hex ? 2 : 0);
    const char *last = token.data() + token.size();
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(first, last, v, hex ? 16 : 10);
    if (ec == std::errc::result_out_of_range)
        badToken(name, token, "in range");
    if (first == last || ec != std::errc{} || end != last)
        badToken(name, token, "an unsigned integer");
    return v;
}

unsigned
parseUnsigned(std::string_view name, const std::string &token)
{
    const std::uint64_t v = parseU64(name, token);
    if (v > std::numeric_limits<unsigned>::max())
        badToken(name, token, "in range");
    return static_cast<unsigned>(v);
}

double
parseF64(std::string_view name, const std::string &token)
{
    double v = 0.0;
    const char *last = token.data() + token.size();
    const auto [end, ec] = std::from_chars(token.data(), last, v);
    if (token.empty() || ec != std::errc{} || end != last ||
        !std::isfinite(v))
        badToken(name, token, "a number");
    return v;
}

bool
parseFlag(std::string_view name, const std::string &token)
{
    if (token == "1" || token == "true" || token == "on")
        return true;
    if (token == "0" || token == "false" || token == "off")
        return false;
    badToken(name, token, "a boolean (use 0/1)");
}

unsigned
parseSlices(std::string_view name, const std::string &token)
{
    const unsigned v = parseUnsigned(name, token);
    if (v == 0 || (v & (v - 1)) != 0)
        badToken(name, token, "a power of two");
    return v;
}

std::span<const ConfigKey>
configKeys()
{
    return config_keys;
}

void
applyConfigKey(SoCConfig &cfg, std::string_view name,
               const std::string &token)
{
    const auto key = std::ranges::find(config_keys, name, &ConfigKey::name);
    if (key == std::end(config_keys))
        throw std::runtime_error("unknown machine key '" +
                                 std::string(name) + "'");
    key->parse(cfg, key->name, token);
}

std::vector<const ConfigKey *>
changedConfigKeys(const SoCConfig &cfg,
                  std::span<const std::string_view> owned)
{
    std::vector<const ConfigKey *> out;
    SoCConfig rebuilt;
    for (const ConfigKey &k : config_keys) {
        const std::string token = k.print(cfg);
        if (std::ranges::find(owned, k.name) != owned.end() ||
            token == k.print(rebuilt))
            continue;
        k.parse(rebuilt, k.name, token);
        out.push_back(&k);
    }
    return out;
}

} // namespace skipit
