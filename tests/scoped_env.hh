/**
 * @file
 * Set (or unset) one environment variable for a scope, restoring its
 * previous state on exit, for tests of the MEMO_* knobs.
 */

#ifndef MEMO_TESTS_SCOPED_ENV_HH
#define MEMO_TESTS_SCOPED_ENV_HH

#include <cstdlib>
#include <optional>
#include <string>

namespace memo
{

class ScopedEnv
{
  public:
    /** @param value new value; nullptr unsets the variable. */
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *v = std::getenv(name))
            saved_ = v;
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (saved_)
            setenv(name_.c_str(), saved_->c_str(), 1);
        else
            unsetenv(name_.c_str());
    }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    std::string name_;
    std::optional<std::string> saved_;
};

} // namespace memo

#endif // MEMO_TESTS_SCOPED_ENV_HH
