#include "chain/bytes.hpp"

#include <bit>

namespace fairbfl::chain {

void ByteWriter::u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
        out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
        out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::f32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u32(bits);
}

void ByteWriter::f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
}

void ByteWriter::blob(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    raw(data);
}

void ByteWriter::str(std::string_view text) {
    u32(static_cast<std::uint32_t>(text.size()));
    out_.insert(out_.end(), text.begin(), text.end());
}

void ByteWriter::f32_vector(std::span<const float> values) {
    u32(static_cast<std::uint32_t>(values.size()));
    if constexpr (std::endian::native == std::endian::little) {
        // The in-memory image already is the little-endian encoding.
        const auto* first =
            reinterpret_cast<const std::uint8_t*>(values.data());
        out_.insert(out_.end(), first, first + values.size_bytes());
    } else {
        for (const float v : values) f32(v);
    }
}

void ByteWriter::raw(std::span<const std::uint8_t> data) {
    out_.insert(out_.end(), data.begin(), data.end());
}

void ByteReader::need(std::size_t n) const {
    if (n > remaining())
        throw std::out_of_range("ByteReader: truncated input");
}

std::uint8_t ByteReader::u8() {
    need(1);
    return data_[cursor_++];
}

std::uint32_t ByteReader::u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(data_[cursor_++]) << (8 * i);
    return v;
}

std::uint64_t ByteReader::u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(data_[cursor_++]) << (8 * i);
    return v;
}

float ByteReader::f32() {
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

double ByteReader::f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

Bytes ByteReader::blob() {
    const std::uint32_t n = u32();
    return raw(n);
}

std::string ByteReader::str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + cursor_), n);
    cursor_ += n;
    return s;
}

std::vector<float> ByteReader::f32_vector() {
    const std::uint32_t n = u32();
    // Check the claimed count against the input before allocating for it:
    // a corrupt prefix would otherwise reserve up to 16 GiB.  n < 2^32, so
    // 4n cannot wrap the 64-bit size_t.
    const std::size_t bytes = std::size_t{n} * sizeof(float);
    need(bytes);
    std::vector<float> values(n);
    if constexpr (std::endian::native == std::endian::little) {
        // memcpy's pointers must be non-null even for zero bytes.
        if (bytes > 0)
            std::memcpy(values.data(), data_.data() + cursor_, bytes);
        cursor_ += bytes;
    } else {
        for (float& v : values) v = f32();
    }
    return values;
}

Bytes ByteReader::raw(std::size_t n) {
    need(n);
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(cursor_),
              data_.begin() + static_cast<std::ptrdiff_t>(cursor_ + n));
    cursor_ += n;
    return out;
}

}  // namespace fairbfl::chain
