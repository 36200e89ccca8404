#include "oracle/dram_subarray.hpp"

#include "util/logging.hpp"

namespace coruscant {

DramSubarray::DramSubarray(std::size_t rows, std::size_t row_bits)
    : numRows(rows), bits(row_bits), data(rows, BitVector(row_bits))
{
    fatalIf(rows == 0 || row_bits == 0, "empty DRAM subarray");
}

const BitVector &
DramSubarray::row(std::size_t r) const
{
    fatalIf(r >= numRows, "row ", r, " out of range");
    return data[r];
}

void
DramSubarray::setRow(std::size_t r, const BitVector &v)
{
    fatalIf(r >= numRows, "row ", r, " out of range");
    fatalIf(v.size() != bits, "row width mismatch");
    data[r] = v;
}

void
DramSubarray::rowClone(std::size_t src, std::size_t dst)
{
    fatalIf(src >= numRows || dst >= numRows, "row out of range");
    data[dst] = data[src];
}

BitVector
DramSubarray::tripleRowActivate(std::size_t a, std::size_t b,
                                std::size_t c)
{
    fatalIf(a >= numRows || b >= numRows || c >= numRows,
            "row out of range");
    BitVector maj = (data[a] & data[b]) | (data[b] & data[c]) |
                    (data[a] & data[c]);
    data[a] = maj;
    data[b] = maj;
    data[c] = maj;
    return maj;
}

BitVector
DramSubarray::readInverted(std::size_t r) const
{
    fatalIf(r >= numRows, "row ", r, " out of range");
    return ~data[r];
}

} // namespace coruscant
