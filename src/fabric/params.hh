/**
 * @file
 * Geometry and timing parameters of the DynaSpAM spatial fabric
 * (paper Table 4: 16 stripes, same execution units as the OOO pipeline
 * per stripe, 3 pass registers per FU, 16 live-in / 16 live-out FIFOs
 * with 8-entry buffers).
 */

#ifndef DYNASPAM_FABRIC_PARAMS_HH
#define DYNASPAM_FABRIC_PARAMS_HH

#include <cstdint>

#include "common/fields.hh"
#include "common/types.hh"
#include "isa/opcodes.hh"
#include "ooo/params.hh"

namespace dynaspam::fabric
{

/** Identifies one processing element in the fabric. */
struct PeId
{
    std::uint8_t stripe = 0;
    std::uint8_t index = 0;     ///< PE index within the stripe

    DYNASPAM_FIELDS(PeId, stripe, index)

    bool
    operator==(const PeId &other) const
    {
        return stripe == other.stripe && index == other.index;
    }
};

/** Fabric configuration parameters. */
struct FabricParams
{
    unsigned numStripes = 16;

    /**
     * Execution units per stripe: same mix as the OOO pipeline
     * (Table 4, "same execution units as OOO per strip").
     */
    ooo::FuPoolParams stripeUnits;

    unsigned passRegsPerFu = 3;     ///< Table 4: 3 pass regs per FU
    unsigned liveInFifos = 16;      ///< Table 4
    unsigned liveOutFifos = 16;     ///< Table 4
    unsigned fifoDepth = 8;         ///< Table 4: 8-entry buffers

    /** Cycles for a value to cross the global bus (host <-> fabric, and
     *  live-out-to-live-in forwarding between back-to-back invocations).
     *  A dedicated point-to-point bus (Figure 4) crosses in one cycle. */
    Cycle globalBusLatency = 1;
    /** Extra cycles per additional stripe boundary a routed value hops. */
    Cycle hopLatency = 1;
    /** Cycles to (re)configure one stripe from the configuration cache. */
    Cycle configureCyclesPerStripe = 2;

    /** When false, fabric memory ops execute in strict program order. */
    bool memorySpeculation = true;

    DYNASPAM_FIELDS(FabricParams, numStripes, stripeUnits, passRegsPerFu,
                    liveInFifos, liveOutFifos, fifoDepth, globalBusLatency,
                    hopLatency, configureCyclesPerStripe, memorySpeculation)

    /** @return total PEs per stripe. */
    unsigned pesPerStripe() const { return stripeUnits.total(); }

    /**
     * Pass-register capacity of one stripe boundary: how many distinct
     * values can be carried from stripe s to stripe s+1.
     */
    unsigned
    boundaryCapacity() const
    {
        return passRegsPerFu * pesPerStripe();
    }

    bool operator==(const FabricParams &) const = default;
};

} // namespace dynaspam::fabric

#endif // DYNASPAM_FABRIC_PARAMS_HH
