#include "env.hh"

#include <charconv>
#include <cstring>

namespace memo::exec
{

std::optional<uint64_t>
parseUnsigned(const char *text, uint64_t max)
{
    if (!text)
        return std::nullopt;
    const char *end = text + std::strlen(text);
    uint64_t v = 0;
    auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || ptr != end || v > max)
        return std::nullopt;
    return v;
}

std::optional<uint64_t>
parsePositive(const char *text, uint64_t max)
{
    auto v = parseUnsigned(text, max);
    if (v == uint64_t{0})
        return std::nullopt;
    return v;
}

std::optional<size_t>
parseMebibytes(const char *text)
{
    constexpr unsigned mib_shift = 20;
    if (auto mb = parsePositive(text, SIZE_MAX >> mib_shift))
        return static_cast<size_t>(*mb) << mib_shift;
    return std::nullopt;
}

} // namespace memo::exec
