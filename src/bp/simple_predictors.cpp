#include "bp/simple_predictors.h"

namespace spt {

BimodalPredictor::BimodalPredictor(unsigned index_bits)
    : index_bits_(index_bits),
      table_(size_t{1} << index_bits, SatCounter(2, 1))
{
}

size_t
BimodalPredictor::index(uint64_t pc) const
{
    return pc & ((size_t{1} << index_bits_) - 1);
}

bool
BimodalPredictor::predict(uint64_t pc)
{
    return table_[index(pc)].taken();
}

void
BimodalPredictor::update(uint64_t pc, bool taken)
{
    table_[index(pc)].train(taken);
}

} // namespace spt
