// fixture-path: bench/{}
// Selftest fixture: a header outside src/ with no include guard.
// Every header in every scanned tree needs the path-derived guard.

#include <string>

namespace fixture
{
inline std::string
label()
{
    return "unguarded";
}
} // namespace fixture
