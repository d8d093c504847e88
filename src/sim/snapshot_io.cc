/**
 * @file
 * Snapshot body (de)serialization, derived from the aggregates' field
 * lists (common/fields.hh). See snapshot_io.hh for the leaf rules.
 *
 * Private nested pipeline types (OooCpu::FrontEndInst, InvocationState,
 * LockstepChecker::CommitEvent, ...) are reached through their field
 * lists and deduced template parameters: access control applies to
 * *names*, so the codec may walk them as long as it never spells them.
 */

#include "sim/snapshot_io.hh"

#include <map>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/binio.hh"
#include "common/fields.hh"

namespace dynaspam::sim
{

namespace
{

using binio::Reader;
using binio::Writer;
using ConfigPtr = std::shared_ptr<const fabric::FabricConfig>;
using SessionSlot = std::optional<core::MappingSession>;

/** Minimum encoded size of one T: the per-element bound a decoded
 *  element count is checked against before anything is allocated. */
template <typename T>
constexpr std::size_t
minBytes()
{
    using U = std::remove_cv_t<T>;
    if constexpr (std::is_same_v<U, bool> || std::is_enum_v<U> ||
                  std::is_same_v<U, std::uint8_t>) {
        return 1;
    } else if constexpr (std::is_integral_v<U>) {
        return std::is_signed_v<U> || sizeof(U) > 4 ? 8 : 4;
    } else if constexpr (fields::isSequence<U> || fields::isKeyed<U>) {
        return 8;
    } else if constexpr (fields::isStdArray<U>) {
        return std::tuple_size_v<U> * minBytes<typename U::value_type>();
    } else if constexpr (std::is_array_v<U>) {
        return std::extent_v<U> * minBytes<std::remove_extent_t<U>>();
    } else if constexpr (fields::isOptional<U>) {
        return 1;
    } else if constexpr (fields::isPair<U>) {
        return minBytes<typename U::first_type>() +
               minBytes<typename U::second_type>();
    } else if constexpr (std::is_same_v<U, ConfigPtr>) {
        return 4;
    } else {
        std::size_t total = 0;
        auto entry = [&](const char *, auto member, auto... derived) {
            if constexpr (sizeof...(derived) == 0)
                total += minBytes<fields::MemberType<decltype(member)>>();
        };
        U::fields(entry);
        return total;
    }
}

template <typename T>
inline constexpr std::size_t kMinBytes = minBytes<T>();

/**
 * Writes any snapshot value. Shared FabricConfig pointers are pooled: a
 * config referenced from several places (ConfigCache entry, live fabric
 * state, pending invocation) is written once; later references carry
 * only its pool id, and the reader reconstructs the sharing. Id 0 is
 * the null pointer.
 */
class Encoder
{
  public:
    explicit Encoder(Writer &w) : out(w) {}

    template <typename T>
    void
    put(const T &x)
    {
        using U = std::remove_cv_t<T>;
        if constexpr (std::is_same_v<U, bool>) {
            out.b(x);
        } else if constexpr (std::is_enum_v<U>) {
            static_assert(sizeof(U) == 1, "snapshot enums are one byte");
            out.u8(std::uint8_t(x));
        } else if constexpr (std::is_same_v<U, std::uint8_t>) {
            out.u8(x);
        } else if constexpr (std::is_integral_v<U>) {
            if constexpr (std::is_signed_v<U>)
                out.i64(x);
            else if constexpr (sizeof(U) <= 4)
                out.u32(x);
            else
                out.u64(x);
        } else if constexpr (fields::isFixedArray<U>) {
            for (const auto &e : x)
                put(e);
        } else if constexpr (fields::isSequence<U>) {
            out.u64(x.size());
            // value_type, not auto: vector<bool> iterates proxies.
            for (const typename U::value_type &e : x)
                put(e);
        } else if constexpr (fields::isKeyed<U>) {
            out.u64(x.size());
            for (const auto *e : fields::sortedEntries(x))
                put(*e);
        } else if constexpr (fields::isOptional<U>) {
            out.b(x.has_value());
            if (x)
                put(*x);
        } else if constexpr (fields::isPair<U>) {
            put(x.first);
            put(x.second);
        } else if constexpr (std::is_same_v<U, ConfigPtr>) {
            putConfig(x);
        } else {
            auto entry = [&](const char *, auto member, auto... derived) {
                if constexpr (sizeof...(derived) == 0)
                    put(x.*member);
            };
            U::fields(entry);
        }
    }

  private:
    void
    putConfig(const ConfigPtr &config)
    {
        if (!config) {
            out.u32(0);
            return;
        }
        auto [it, fresh] = configIds.emplace(
            config.get(), std::uint32_t(configIds.size()) + 1);
        out.u32(it->second);
        if (fresh)
            put(*config);
    }

    Writer &out;
    std::map<const fabric::FabricConfig *, std::uint32_t> configIds;
};

/**
 * Reads any snapshot value, fail-soft: every count is checked against
 * the bytes left before allocating, every narrowed integer, bool and
 * enum is range-checked, keyed entries must arrive in strictly
 * ascending key order, and any violation latches the reader's failure
 * flag (after which every further get() is a no-op).
 */
class Decoder
{
  public:
    Decoder(Reader &r, const isa::DynamicTrace &t) : in(r), trace(t) {}

    template <typename T>
    void
    get(T &x)
    {
        if (!in.ok())
            return;
        if constexpr (std::is_same_v<T, bool>) {
            x = byteBelow(2) != 0;
        } else if constexpr (std::is_enum_v<T>) {
            x = T(byteBelow(enumCount(T{})));
        } else if constexpr (std::is_same_v<T, std::uint8_t>) {
            x = in.u8();
        } else if constexpr (std::is_integral_v<T>) {
            x = integer<T>();
        } else if constexpr (fields::isFixedArray<T>) {
            for (auto &e : x)
                get(e);
        } else if constexpr (fields::isSequence<T>) {
            const std::uint64_t count = in.u64();
            if (!in.checkCount(count, kMinBytes<typename T::value_type>))
                return;
            x.clear();
            x.resize(count);
            if constexpr (std::is_same_v<T, std::vector<bool>>) {
                for (auto &&e : x) {
                    bool b = false;
                    get(b);
                    e = b;
                }
            } else {
                for (auto &e : x)
                    get(e);
            }
        } else if constexpr (fields::isKeyed<T>) {
            getKeyed(x);
        } else if constexpr (std::is_same_v<T, SessionSlot>) {
            getSession(x);
        } else if constexpr (fields::isOptional<T>) {
            if (byteBelow(2)) {
                x.emplace();
                get(*x);
            } else {
                x.reset();
            }
        } else if constexpr (fields::isPair<T>) {
            get(x.first);
            get(x.second);
        } else if constexpr (std::is_same_v<T, ConfigPtr>) {
            getConfig(x);
        } else {
            auto entry = [&](const char *, auto member, auto... derived) {
                if constexpr (sizeof...(derived) == 0)
                    get(x.*member);
            };
            T::fields(entry);
            if constexpr (std::is_same_v<T, ooo::DynInst>)
                rebind(x);
        }
    }

  private:
    std::uint8_t
    byteBelow(unsigned limit)
    {
        const std::uint8_t value = in.u8();
        if (value >= limit)
            in.fail();
        return in.ok() ? value : 0;
    }

    template <typename T>
    T
    integer()
    {
        // Read at the wire width, narrow back with a range check.
        const auto value = [&] {
            if constexpr (std::is_signed_v<T>)
                return in.i64();
            else
                return sizeof(T) <= 4 ? std::uint64_t(in.u32()) : in.u64();
        }();
        if (!std::in_range<T>(value))
            in.fail();
        return in.ok() ? T(value) : T(0);
    }

    template <typename Container>
    void
    getKeyed(Container &x)
    {
        using Entry = typename Container::value_type;
        const std::uint64_t count = in.u64();
        if (!in.checkCount(count, kMinBytes<Entry>))
            return;
        x.clear();
        typename Container::key_type prev{};
        for (std::uint64_t i = 0; i < count && in.ok(); i++) {
            typename Container::key_type key{};
            get(key);
            if (i > 0 && !(prev < key)) {
                in.fail();
                return;
            }
            prev = key;
            if constexpr (fields::isPair<Entry>)
                get(x.try_emplace(key).first->second);
            else
                x.insert(key);
        }
    }

    /**
     * A session's constructor sizes its tables from the fabric
     * geometry, its first field: peek the geometry, refuse absurd
     * shapes before constructing, then decode the whole list in place.
     */
    void
    getSession(SessionSlot &x)
    {
        if (!byteBelow(2)) {
            x.reset();
            return;
        }
        Reader peek = in;
        fabric::FabricParams params;
        Decoder(peek, trace).get(params);
        if (!peek.ok() || params.numStripes == 0 ||
            params.numStripes > 4096 || params.pesPerStripe() == 0 ||
            params.pesPerStripe() > 4096) {
            in.fail();
            return;
        }
        x.emplace(params, 0, 0, 0);
        get(*x);
    }

    void
    getConfig(ConfigPtr &config)
    {
        const std::uint32_t id = in.u32();
        if (!in.ok() || id == 0) {
            config = nullptr;
        } else if (id <= configPool.size()) {
            config = configPool[id - 1];
        } else if (id == configPool.size() + 1) {
            auto fresh = std::make_shared<fabric::FabricConfig>();
            get(*fresh);
            if (!fresh->consistent())
                in.fail();
            configPool.push_back(fresh);
            config = std::move(fresh);
        } else {
            in.fail();      // ids are assigned densely in write order
        }
    }

    /** Rebind DynInst's derived pointers: record always references the
     *  oracle trace slot; inst only for real instructions (TraceInvoke
     *  pseudo-ops carry no static instruction). */
    void
    rebind(ooo::DynInst &di)
    {
        if (!in.ok() || di.traceIdx >= trace.size()) {
            in.fail();
            return;
        }
        di.record = &trace[di.traceIdx];
        di.inst = nullptr;
        if (di.kind == ooo::RobKind::Inst) {
            if (di.record->pc >= trace.program().size()) {
                in.fail();
                return;
            }
            di.inst = &trace.program().inst(di.record->pc);
        }
    }

    Reader &in;
    const isa::DynamicTrace &trace;
    std::vector<ConfigPtr> configPool;
};

} // namespace

std::uint64_t
simInputIdentityHash(const SimInput &input)
{
    std::uint64_t h = bits::FNV1A_OFFSET;
    auto fold64 = [&h](std::uint64_t value) {
        for (unsigned shift = 0; shift < 64; shift += 8)
            h = bits::fnv1aStep(h,
                                std::uint8_t((value >> shift) & 0xff));
    };

    const isa::Program &prog = input.program();
    h = bits::fnv1a(prog.name().data(), prog.name().size(), h);
    fold64(prog.size());
    for (const auto &inst : prog.code()) {
        h = bits::fnv1aStep(h, std::uint8_t(inst.op));
        fold64(inst.dest);
        fold64(inst.src1);
        fold64(inst.src2);
        fold64(std::uint64_t(inst.imm));
    }

    h = input.initialMemory().contentHash(h);

    const isa::DynamicTrace &trace = input.trace();
    fold64(trace.size());
    for (SeqNum i = 0; i < trace.size(); i++) {
        const isa::DynRecord &rec = trace[i];
        fold64(rec.pc);
        fold64(rec.nextPc);
        fold64(rec.effAddr);
        h = bits::fnv1aStep(h, rec.taken ? 1 : 0);
    }

    h = bits::fnv1aStep(h, input.functionallyCorrect() ? 1 : 0);
    return h;
}

void
serializeSnapshot(const Snapshot &snap, std::string &out)
{
    Writer w;
    Encoder(w).put(snap);
    out = w.take();
}

bool
deserializeSnapshot(const std::string &bytes,
                    std::shared_ptr<const SimInput> input,
                    Snapshot &snap)
{
    if (!input)
        return false;
    Reader in(bytes.data(), bytes.size());
    snap.input = std::move(input);
    Decoder(in, snap.input->trace()).get(snap);
    // The whole body must be consumed: trailing garbage means the file
    // was framed for a different encoding.
    return in.ok() && in.remaining() == 0;
}

} // namespace dynaspam::sim
