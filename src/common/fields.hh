/**
 * @file
 * Field lists: one declaration per snapshot aggregate, walked by every
 * generic consumer of simulator state.
 *
 * An aggregate reachable from sim::Snapshot names each of its data
 * members, in declaration order, in one static member template. Most
 * write it with the macro below,
 *
 *     DYNASPAM_FIELDS(Line, tag, valid, dirty, lastUse)
 *
 * which expands to the long form an aggregate with derived members
 * spells out:
 *
 *     template <typename V>
 *     static constexpr void
 *     fields(V &v)
 *     {
 *         v("seq", &DynInst::seq);
 *         v("record", &DynInst::record, fields::derived);
 *     }
 *
 * Each entry pairs the member's name with a pointer to it, so one list
 * serves every kind of walk: over member *types* alone (the codec's
 * minimum element sizes, the layout digest test), over one object
 * (serialize, deserialize) and over two objects at once (the restore
 * audit's first-difference search). A visitor is any callable
 * `(const char *name, auto member, auto... derived)`; the trailing tag
 * marks a member that is recomputed from other state rather than
 * stored: the codec skips it and rebinds it on load, the audit still
 * compares it.
 *
 * Completeness is a build rule: dynaspam-analyze's `snapshot-fields`
 * check fails when a member of an aggregate with a fields() list is
 * missing from it, listed twice, listed out of declaration order, or
 * listed under another name. An aggregate reachable from a snapshot
 * with no list at all fails to compile in the codec.
 *
 * This header holds only what every walker shares: the derived tag and
 * the container classification the leaf rules dispatch on.
 */

#ifndef DYNASPAM_COMMON_FIELDS_HH
#define DYNASPAM_COMMON_FIELDS_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <deque>
#include <map>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/ring.hh"

/** Declare Class's field list: every data member, in declaration order
 *  (see the file comment). */
#define DYNASPAM_FIELDS(Class, ...)                                       \
    template <typename V>                                                 \
    static constexpr void fields(V &v)                                    \
    {                                                                     \
        DYNASPAM_FIELDS_EXPAND_(DYNASPAM_FIELDS_EACH_(Class, __VA_ARGS__)) \
    }

// One `v("m", &Class::m);` per member, by deferred re-expansion (each
// rescan of DYNASPAM_FIELDS_EXPAND_ emits one more entry, up to 256).
#define DYNASPAM_FIELDS_EACH_(Class, member, ...)                         \
    v(#member, &Class::member);                                           \
    __VA_OPT__(DYNASPAM_FIELDS_AGAIN_ DYNASPAM_FIELDS_PARENS_(Class,      \
                                                              __VA_ARGS__))
#define DYNASPAM_FIELDS_PARENS_ ()
#define DYNASPAM_FIELDS_AGAIN_() DYNASPAM_FIELDS_EACH_
#define DYNASPAM_FIELDS_EXPAND_(...)                                      \
    DYNASPAM_FIELDS_EXPAND3_(DYNASPAM_FIELDS_EXPAND3_(                    \
        DYNASPAM_FIELDS_EXPAND3_(DYNASPAM_FIELDS_EXPAND3_(__VA_ARGS__))))
#define DYNASPAM_FIELDS_EXPAND3_(...)                                     \
    DYNASPAM_FIELDS_EXPAND2_(DYNASPAM_FIELDS_EXPAND2_(                    \
        DYNASPAM_FIELDS_EXPAND2_(DYNASPAM_FIELDS_EXPAND2_(__VA_ARGS__))))
#define DYNASPAM_FIELDS_EXPAND2_(...)                                     \
    DYNASPAM_FIELDS_EXPAND1_(DYNASPAM_FIELDS_EXPAND1_(                    \
        DYNASPAM_FIELDS_EXPAND1_(DYNASPAM_FIELDS_EXPAND1_(__VA_ARGS__))))
#define DYNASPAM_FIELDS_EXPAND1_(...) __VA_ARGS__

namespace dynaspam::fields
{

/** Tag of a derived entry: `v("record", &DynInst::record, derived)`. */
struct Derived
{
};
inline constexpr Derived derived{};

/** M, from the pointer-to-member type `M C::*` an entry carries. */
template <typename Pointer>
struct MemberTypeOf;
template <typename C, typename M>
struct MemberTypeOf<M C::*>
{
    using type = M;
};
template <typename Pointer>
using MemberType = typename MemberTypeOf<Pointer>::type;

/** T is an instantiation of the class template Tmpl. */
template <typename T, template <typename...> class Tmpl>
inline constexpr bool isSpecialization = false;
template <template <typename...> class Tmpl, typename... Args>
inline constexpr bool isSpecialization<Tmpl<Args...>, Tmpl> = true;

template <typename T>
inline constexpr bool isStdArray = false;
template <typename T, std::size_t N>
inline constexpr bool isStdArray<std::array<T, N>> = true;

/** Fixed length, no count on the wire: std::array or a C array. */
template <typename T>
inline constexpr bool isFixedArray = isStdArray<T> || std::is_array_v<T>;

/** Counted sequence: vector, deque or Ring (which encodes, decodes and
 *  diffs as a deque with the same age-ordered contents). */
template <typename T>
inline constexpr bool isSequence = isSpecialization<T, std::vector> ||
                                   isSpecialization<T, std::deque> ||
                                   isSpecialization<T, Ring>;

/** Keyed container, walked in ascending key order. */
template <typename T>
inline constexpr bool isKeyed = isSpecialization<T, std::map> ||
                                isSpecialization<T, std::unordered_map> ||
                                isSpecialization<T, std::unordered_set>;

template <typename T>
inline constexpr bool isOptional = isSpecialization<T, std::optional>;

template <typename T>
inline constexpr bool isPair = isSpecialization<T, std::pair>;

/** Key of one keyed-container entry (a map pair or a set element). */
template <typename Entry>
const auto &
entryKey(const Entry &entry)
{
    if constexpr (isPair<Entry>)
        return entry.first;
    else
        return entry;
}

/** Pointers to @p c's entries in ascending key order. */
template <typename Container>
std::vector<const typename Container::value_type *>
sortedEntries(const Container &c)
{
    std::vector<const typename Container::value_type *> entries;
    entries.reserve(c.size());
    for (const auto &entry : c)
        entries.push_back(&entry);
    if constexpr (!isSpecialization<Container, std::map>) {
        std::sort(entries.begin(), entries.end(),
                  [](const auto *a, const auto *b) {
                      return entryKey(*a) < entryKey(*b);
                  });
    }
    return entries;
}

} // namespace dynaspam::fields

#endif // DYNASPAM_COMMON_FIELDS_HH
