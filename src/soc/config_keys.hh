/**
 * @file
 * The machine-key table: one `{name, parse, print}` entry per SoCConfig
 * knob that a tool flag, a sweep axis, a KV spec or a fuzz replay bundle
 * can set, and the strict whole-token parsers every reader shares. A
 * parser rejects any token it cannot read completely (trailing garbage,
 * a sign, a fraction, an out-of-range value) with one message format
 * that names the key or flag: `<name>: '<token>' is not <what>`.
 */

#ifndef SKIPIT_SOC_CONFIG_KEYS_HH
#define SKIPIT_SOC_CONFIG_KEYS_HH

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "soc/soc.hh"

namespace skipit {

/// @name Whole-token parsers; each throws std::runtime_error naming @p name
/// @{
/** Decimal, or hexadecimal with a 0x prefix. */
std::uint64_t parseU64(std::string_view name, const std::string &token);
unsigned parseUnsigned(std::string_view name, const std::string &token);
/** A finite decimal number. */
double parseF64(std::string_view name, const std::string &token);
/** 1/true/on or 0/false/off. */
bool parseFlag(std::string_view name, const std::string &token);
/** An L2 slice count: a power of two. */
unsigned parseSlices(std::string_view name, const std::string &token);
/// @}

/** One machine knob. */
struct ConfigKey
{
    const char *name;
    bool word; //!< the value is a name, not a number (JSON quotes it)
    void (*parse)(SoCConfig &cfg, std::string_view name,
                  const std::string &token);
    std::string (*print)(const SoCConfig &cfg);
};

/** Every machine key, in print order. */
std::span<const ConfigKey> configKeys();

/** Set machine key @p name from @p token.
 *  @throws std::runtime_error on an unknown key or a malformed token */
void applyConfigKey(SoCConfig &cfg, std::string_view name,
                    const std::string &token);

/**
 * The keys, in table order, whose print(@p cfg) rebuilds @p cfg's knobs
 * when applied to SoCConfig{}: a key is listed only when it differs from
 * what the keys before it rebuilt, so a default config lists none. Keys
 * in @p owned (knobs a spec holds in its own fields) are skipped.
 */
std::vector<const ConfigKey *>
changedConfigKeys(const SoCConfig &cfg,
                  std::span<const std::string_view> owned = {});

} // namespace skipit

#endif // SKIPIT_SOC_CONFIG_KEYS_HH
