#include "numa/recovery.h"

#include <cstring>

namespace anc::numa {

void
RetryPolicy::validate() const
{
    if (maxAttempts < 1 || maxAttempts > 16)
        throw UserError("RetryPolicy::maxAttempts must be in [1, 16]");
    if (backoffBase < 1 || backoffBase > 4)
        throw UserError("RetryPolicy::backoffBase must be in [1, 4]");
}

uint64_t
backoffUnitsFor(int failures, int base)
{
    if (failures <= 0)
        return 0;
    if (base <= 1)
        return uint64_t(failures);
    uint64_t sum = 0, pow = 1;
    for (int i = 0; i < failures; ++i) {
        sum += pow;
        pow *= uint64_t(base);
    }
    return sum;
}

TransferBatchOutcome
chargeTransferBatch(ProcStats &ps, const FaultOptions &f,
                    const RetryPolicy &rp, uint64_t firstIdx,
                    uint64_t total, uint64_t elemsPerTransfer,
                    size_t arrayId, size_t numArrays)
{
    TransferBatchOutcome out;
    out.completed = total;
    if (total == 0)
        return out;
    uint64_t lo = firstIdx + 1, hi = firstIdx + total;
    int fpe = f.failuresPerEvent < 1 ? 1 : f.failuresPerEvent;

    uint64_t drops =
        faultsInRange(f.dropTransferAt, f.dropTransferEvery, lo, hi);
    if (drops != 0) {
        if (fpe >= rp.maxAttempts) {
            // Every armed transfer exhausts its attempts and is
            // abandoned: all maxAttempts sends failed (counted as
            // retries, since none is the fault-free charge), the
            // sender backed off maxAttempts - 1 times, and the block's
            // elements fall back to element-wise remote access.
            out.abandoned = drops;
            out.completed = total - drops;
            uint64_t sends = mulCount(drops, uint64_t(rp.maxAttempts));
            addCount(ps.transferRetries, sends);
            addCount(ps.recoveryElements, mulCount(sends, elemsPerTransfer));
            addCount(ps.backoffUnits,
                     mulCount(drops, backoffUnitsFor(rp.maxAttempts - 1,
                                                     rp.backoffBase)));
            addCount(ps.abandonedTransfers, drops);
            chargeAbandonedElements(ps, arrayId, numArrays,
                                    mulCount(drops, elemsPerTransfer));
        } else {
            // fpe failed sends, then success; the successful send is
            // the caller's fault-free charge.
            uint64_t sends = mulCount(drops, uint64_t(fpe));
            addCount(ps.transferRetries, sends);
            addCount(ps.recoveryElements, mulCount(sends, elemsPerTransfer));
            addCount(ps.backoffUnits,
                     mulCount(drops, backoffUnitsFor(fpe, rp.backoffBase)));
        }
    }

    // Corruption is detected by checksum on arrival, so it can only hit
    // transfers that completed; a transfer armed for both drop and
    // corruption is counted as dropped (drop wins).
    uint64_t corrupt =
        faultsInRange(f.corruptTransferAt, f.corruptTransferEvery, lo, hi);
    if (corrupt != 0 && drops != 0)
        corrupt -= faultsInRangeBoth(f.dropTransferAt, f.dropTransferEvery,
                                     f.corruptTransferAt,
                                     f.corruptTransferEvery, lo, hi);
    if (corrupt != 0) {
        addCount(ps.transferRefetches, corrupt);
        addCount(ps.recoveryElements, mulCount(corrupt, elemsPerTransfer));
        addCount(ps.backoffUnits, corrupt); // one unit before each re-fetch
    }
    return out;
}

void
chargeRemoteBatch(ProcStats &ps, const FaultOptions &f,
                  const RetryPolicy &rp, uint64_t firstIdx, uint64_t total)
{
    if (total == 0 || (f.remoteFailAt == 0 && f.remoteFailEvery == 0))
        return;
    uint64_t faults = faultsInRange(f.remoteFailAt, f.remoteFailEvery,
                                    firstIdx + 1, firstIdx + total);
    if (faults == 0)
        return;
    int fpe = f.failuresPerEvent < 1 ? 1 : f.failuresPerEvent;
    if (fpe >= rp.maxAttempts) {
        // maxAttempts - 1 retries fail too; the access escalates to a
        // synchronous acknowledged fetch (one sync) and succeeds.
        addCount(ps.remoteRetries,
                 mulCount(faults, uint64_t(rp.maxAttempts - 1)));
        addCount(ps.backoffUnits,
                 mulCount(faults, backoffUnitsFor(rp.maxAttempts - 1,
                                                  rp.backoffBase)));
        addCount(ps.syncs, faults);
    } else {
        addCount(ps.remoteRetries, mulCount(faults, uint64_t(fpe)));
        addCount(ps.backoffUnits,
                 mulCount(faults, backoffUnitsFor(fpe, rp.backoffBase)));
    }
}

uint64_t
fletcher64(const double *data, size_t n)
{
    // Fletcher's checksum over the 32-bit halves of the payload,
    // mod 2^32 - 1; position-sensitive, unlike a plain sum.
    uint64_t s1 = 0, s2 = 0;
    const uint64_t mod = 0xffffffffull;
    for (size_t i = 0; i < n; ++i) {
        uint64_t bits;
        std::memcpy(&bits, &data[i], sizeof bits);
        s1 = (s1 + (bits & mod)) % mod;
        s2 = (s2 + s1) % mod;
        s1 = (s1 + (bits >> 32)) % mod;
        s2 = (s2 + s1) % mod;
    }
    return (s2 << 32) | s1;
}

} // namespace anc::numa
