#include "bp/tage.h"

#include "common/logging.h"

namespace spt {

TagePredictor::TagePredictor(const TageConfig &config)
    : config_(config), base_(config.base_index_bits)
{
    SPT_ASSERT(config_.history_lengths.size() == config_.num_tables,
               "history_lengths must have one entry per table");
    tables_.assign(config_.num_tables,
                   std::vector<Entry>(size_t{1} << config_.index_bits));
    initHistoryState(spec_);
    initHistoryState(committed_);
}

void
TagePredictor::initHistoryState(HistoryState &hs) const
{
    hs.index_fold.clear();
    hs.tag_fold0.clear();
    hs.tag_fold1.clear();
    for (unsigned t = 0; t < config_.num_tables; ++t) {
        const unsigned hl = config_.history_lengths[t];
        hs.index_fold.emplace_back(hl, config_.index_bits);
        hs.tag_fold0.emplace_back(hl, config_.tag_bits);
        hs.tag_fold1.emplace_back(hl, config_.tag_bits - 1);
    }
}

void
TagePredictor::pushHistory(HistoryState &hs, bool bit) const
{
    for (unsigned t = 0; t < config_.num_tables; ++t) {
        const unsigned hl = config_.history_lengths[t];
        const bool old_bit = hs.history.bit(hl - 1);
        hs.index_fold[t].push(bit, old_bit);
        hs.tag_fold0[t].push(bit, old_bit);
        hs.tag_fold1[t].push(bit, old_bit);
    }
    hs.history.push(bit);
}

size_t
TagePredictor::tableIndex(const HistoryState &hs, unsigned t,
                          uint64_t pc) const
{
    const uint64_t mask = (uint64_t{1} << config_.index_bits) - 1;
    const uint64_t mixed = pc ^ (pc >> config_.index_bits) ^
                           hs.index_fold[t].value() ^
                           (uint64_t{t} << 3);
    return static_cast<size_t>(mixed & mask);
}

uint16_t
TagePredictor::tableTag(const HistoryState &hs, unsigned t,
                        uint64_t pc) const
{
    const uint64_t mask = (uint64_t{1} << config_.tag_bits) - 1;
    const uint64_t mixed = pc ^ hs.tag_fold0[t].value() ^
                           (hs.tag_fold1[t].value() << 1);
    return static_cast<uint16_t>(mixed & mask);
}

bool
TagePredictor::nextLfsrBit()
{
    const uint32_t bit =
        ((lfsr_ >> 0) ^ (lfsr_ >> 2) ^ (lfsr_ >> 3) ^ (lfsr_ >> 5)) & 1;
    lfsr_ = (lfsr_ >> 1) | (bit << 15);
    return bit != 0;
}

bool
TagePredictor::predict(uint64_t pc)
{
    // Find the provider (longest-history tag hit) and the alternate.
    int provider = -1;
    int alt = -1;
    for (int t = static_cast<int>(config_.num_tables) - 1; t >= 0;
         --t) {
        const auto ut = static_cast<unsigned>(t);
        const Entry &e = tables_[ut][tableIndex(spec_, ut, pc)];
        if (e.tag == tableTag(spec_, ut, pc)) {
            if (provider < 0)
                provider = t;
            else {
                alt = t;
                break;
            }
        }
    }

    bool pred;
    if (provider >= 0) {
        const auto up = static_cast<unsigned>(provider);
        const Entry &e = tables_[up][tableIndex(spec_, up, pc)];
        const bool weak = e.ctr.value() == 3 || e.ctr.value() == 4;
        if (weak && e.useful.value() == 0) {
            // Newly allocated, not yet useful: prefer the alternate.
            if (alt >= 0) {
                const auto ua = static_cast<unsigned>(alt);
                pred = tables_[ua][tableIndex(spec_, ua, pc)]
                           .ctr.taken();
            } else {
                pred = base_.predict(pc);
            }
        } else {
            pred = e.ctr.taken();
        }
    } else {
        pred = base_.predict(pc);
    }

    pushHistory(spec_, pred);
    return pred;
}

void
TagePredictor::update(uint64_t pc, bool taken)
{
    // Recompute provider/alt with the committed history (the history
    // this branch saw at prediction time, modulo wrong-path bits).
    int provider = -1;
    int alt = -1;
    for (int t = static_cast<int>(config_.num_tables) - 1; t >= 0;
         --t) {
        const auto ut = static_cast<unsigned>(t);
        Entry &e = tables_[ut][tableIndex(committed_, ut, pc)];
        if (e.tag == tableTag(committed_, ut, pc)) {
            if (provider < 0)
                provider = t;
            else {
                alt = t;
                break;
            }
        }
    }

    bool provider_pred;
    bool alt_pred;
    if (alt >= 0) {
        const auto ua = static_cast<unsigned>(alt);
        alt_pred = tables_[ua][tableIndex(committed_, ua, pc)]
                       .ctr.taken();
    } else {
        alt_pred = base_.predict(pc);
    }

    if (provider >= 0) {
        const auto up = static_cast<unsigned>(provider);
        Entry &e = tables_[up][tableIndex(committed_, up, pc)];
        provider_pred = e.ctr.taken();
        e.ctr.train(taken);
        if (provider_pred != alt_pred)
            e.useful.train(provider_pred == taken);
    } else {
        provider_pred = base_.predict(pc);
    }
    base_.update(pc, taken);

    // Allocate a new entry on a misprediction, in a table with a
    // longer history than the provider.
    if (provider_pred != taken &&
        provider < static_cast<int>(config_.num_tables) - 1) {
        int start = provider + 1;
        // Probabilistically skip one table to spread allocations.
        if (start < static_cast<int>(config_.num_tables) - 1 &&
            nextLfsrBit())
            ++start;
        bool allocated = false;
        for (unsigned t = static_cast<unsigned>(start);
             t < config_.num_tables; ++t) {
            Entry &e = tables_[t][tableIndex(committed_, t, pc)];
            if (e.useful.value() == 0) {
                e.tag = tableTag(committed_, t, pc);
                e.ctr.set(taken ? 4 : 3);
                allocated = true;
                break;
            }
        }
        if (!allocated) {
            // All candidates useful: age them instead.
            for (unsigned t = static_cast<unsigned>(start);
                 t < config_.num_tables; ++t)
                tables_[t][tableIndex(committed_, t, pc)]
                    .useful.decrement();
        }
    }

    // Periodic graceful reset of useful counters.
    if (++update_count_ % config_.useful_reset_period == 0) {
        for (auto &table : tables_)
            for (Entry &e : table)
                e.useful.decrement();
    }

    pushHistory(committed_, taken);
}

void
TagePredictor::checkpoint(BpCheckpoint &cp) const
{
    // resize() keeps the capacity of a reused checkpoint, so a warm
    // checkpoint slot is refilled without allocating.
    cp.words.resize(1 + 3 * size_t{config_.num_tables});
    cp.words[0] = spec_.history.head();
    size_t i = 1;
    for (unsigned t = 0; t < config_.num_tables; ++t) {
        cp.words[i++] = spec_.index_fold[t].value();
        cp.words[i++] = spec_.tag_fold0[t].value();
        cp.words[i++] = spec_.tag_fold1[t].value();
    }
}

void
TagePredictor::restore(const BpCheckpoint &cp)
{
    SPT_ASSERT(cp.words.size() == 1 + 3 * config_.num_tables,
               "bad TAGE checkpoint size");
    spec_.history.setHead(cp.words[0]);
    size_t i = 1;
    for (unsigned t = 0; t < config_.num_tables; ++t) {
        spec_.index_fold[t].setValue(
            static_cast<uint32_t>(cp.words[i++]));
        spec_.tag_fold0[t].setValue(
            static_cast<uint32_t>(cp.words[i++]));
        spec_.tag_fold1[t].setValue(
            static_cast<uint32_t>(cp.words[i++]));
    }
}

} // namespace spt
