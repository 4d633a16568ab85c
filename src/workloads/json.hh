/**
 * @file
 * Minimal JSON-subset parser (objects, arrays, strings, numbers, bools)
 * shared by the sweep and KV-benchmark spec readers. Hand-rolled to keep
 * the tools dependency-free; object key order is preserved because sweep
 * specs use it to define grid expansion order.
 */

#ifndef SKIPIT_WORKLOADS_JSON_HH
#define SKIPIT_WORKLOADS_JSON_HH

#include <string>
#include <utility>
#include <vector>

namespace skipit::workloads {

/** One parsed JSON value. Numbers keep their raw token in `text`. */
struct JsonValue
{
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    std::string text; //!< raw token for numbers, decoded for strings
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> fields;

    const JsonValue *
    field(const std::string &name) const
    {
        for (const auto &[key, value] : fields) {
            if (key == name)
                return &value;
        }
        return nullptr;
    }
};

/**
 * Parse @p text as one JSON document.
 * @param what label used in error messages ("sweep spec", "kv spec", …)
 * @throws std::runtime_error on malformed input
 */
JsonValue parseJson(const std::string &text, const std::string &what);

/**
 * A scalar as a token for the whole-token parsers: strings and numbers
 * verbatim, bools as 1/0.
 * @throws std::runtime_error naming @p what on an array, object or null
 */
std::string scalarToken(const JsonValue &v, const std::string &what);

} // namespace skipit::workloads

#endif // SKIPIT_WORKLOADS_JSON_HH
