/**
 * @file
 * What the command-line tools share: the historical flags that set one
 * machine key (soc/config_keys.hh), listed once with the tools that take
 * each, and the file and list helpers. Every flag value is parsed by
 * the whole-token parsers of soc/config_keys.hh.
 */

#ifndef SKIPIT_TOOLS_CLI_HH
#define SKIPIT_TOOLS_CLI_HH

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "soc/config_keys.hh"

namespace skipit::cli {

enum Tool : unsigned { Run = 1, Fuzz = 2, Kv = 4 };

/** A flag that sets machine key `key`: to `value` when the flag takes
 *  none, else to the next argument. */
struct MachineFlag
{
    const char *flag;
    const char *key;
    const char *value;
    unsigned tools; //!< the Tool bits that take the flag
};

// skipit-kv owns --slices and --no-skipit (KvSpec's slices and the grid's
// skip on/off pair), so only the policy flags reach it through here.
inline constexpr MachineFlag machine_flags[] = {
    {"--slices", "l2_slices", nullptr, Run | Fuzz},
    {"--l2-policy", "l2_policy", nullptr, Run | Fuzz | Kv},
    {"--l2-index", "l2_index", nullptr, Run | Fuzz | Kv},
    {"--l2-replace", "l2_replace", nullptr, Run | Fuzz | Kv},
    {"--no-skipit", "skipit", "0", Run},
    {"--fshrs", "fshrs", nullptr, Fuzz},
    {"--queue", "flush_queue_depth", nullptr, Fuzz},
};

/** @return @p tool's machine flag spelled @p arg, or nullptr. */
inline const MachineFlag *
machineFlag(Tool tool, const std::string &arg)
{
    for (const MachineFlag &f : machine_flags) {
        if ((f.tools & tool) != 0 && arg == f.flag)
            return &f;
    }
    return nullptr;
}

/** The whole file at @p path; fatal when it cannot be opened. */
inline std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        SKIPIT_FATAL("cannot open ", path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** @p s split at commas. */
inline std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    for (std::string tok; std::getline(ss, tok, ',');)
        out.push_back(tok);
    return out;
}

} // namespace skipit::cli

#endif // SKIPIT_TOOLS_CLI_HH
