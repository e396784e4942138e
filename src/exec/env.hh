/**
 * @file
 * Strict parsing of numeric knobs: the MEMO_JOBS and
 * MEMO_TRACE_CACHE_MB environment variables and the tools' numeric
 * flags.
 */

#ifndef MEMO_EXEC_ENV_HH
#define MEMO_EXEC_ENV_HH

#include <cstddef>
#include <cstdint>
#include <optional>

namespace memo::exec
{

/**
 * @p text as a decimal integer no greater than @p max. Digits only:
 * a sign, surrounding whitespace, trailing characters, or a value
 * above @p max (including one that does not fit in 64 bits) all
 * yield std::nullopt, as does an empty or null @p text.
 */
std::optional<uint64_t> parseUnsigned(const char *text, uint64_t max);

/**
 * parseUnsigned() with zero rejected too, so
 * `parsePositive(std::getenv(...), max)` reads an unset or zero
 * variable as "use the default".
 */
std::optional<uint64_t> parsePositive(const char *text, uint64_t max);

/**
 * @p text as a positive whole number of MiB, converted to bytes; the
 * same rules as parsePositive(), with a byte count that would overflow
 * `size_t` rejected too.
 */
std::optional<size_t> parseMebibytes(const char *text);

} // namespace memo::exec

#endif // MEMO_EXEC_ENV_HH
